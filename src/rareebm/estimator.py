"""Free-energy reconstruction and tail-probability integration.

Given a trained bias potential V and the reference density, the density of
the quantity of interest is recovered on the working grid as
p_R ∝ exp(-F) with F = -log p_ref - V on nodes where p_ref is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rareebm.bias import BiasPotential
from rareebm.densities import GridFunction, ReferenceDensity
from rareebm.errors import EstimationError, NumericError

# p_ref below this is treated as zero support; the bias is unidentifiable there.
SUPPORT_EPS = 1e-300
# A readout whose last EDGE_NODES grid nodes hold at least EDGE_SHARE of the
# tail probability being read is flagged: the mass beyond hi, which the grid
# drops, is then unlikely to be negligible.
EDGE_NODES = 5
EDGE_SHARE = 1e-3


@dataclass(frozen=True)
class FreeEnergyEstimate:
    density: GridFunction  # normalized p_R on the grid


def free_energy_from_bias(
    bias: BiasPotential, p_ref: ReferenceDensity, grid: GridFunction
) -> FreeEnergyEstimate:
    """Reconstruct the normalized density of R, exp(-F), on the grid.

    F is defined only up to an additive constant; the maximum of -F is
    subtracted before exponentiating so the result is overflow-safe and
    invariant under V -> V + c.
    """
    xs = grid.xs
    ref_vals = np.asarray(p_ref.pdf(xs), dtype=float)
    mask = ref_vals > SUPPORT_EPS
    if not np.any(mask):
        raise EstimationError("reference density vanishes on the whole grid")
    v_vals = np.asarray(bias(xs), dtype=float)
    neg_f = np.full(len(xs), -np.inf)
    neg_f[mask] = np.log(ref_vals[mask]) + v_vals[mask]
    shift = np.max(neg_f)
    dens = np.where(mask, np.exp(neg_f - shift), 0.0)
    total = float(np.trapezoid(dens, dx=grid.h))
    if total <= 0:
        raise EstimationError("reconstructed density integrates to zero")
    dens /= total
    return FreeEnergyEstimate(density=grid.with_values(dens))


def tail_probability(est: FreeEnergyEstimate, threshold: float) -> float:
    """P(R >= threshold): trapezoid integral of p_R from the grid node nearest the threshold up.

    From the last node, the integral is over one node and reads 0.0.
    """
    g = est.density
    if threshold < g.lo - 1e-12 or threshold > g.hi + 1e-12:
        raise NumericError("threshold outside the working grid")
    i = min(max(round((threshold - g.lo) / g.h), 0), len(g.values) - 1)
    p = float(np.trapezoid(g.values[i:], dx=g.h))
    return min(max(p, 0.0), 1.0)


def truncated_tail(est: FreeEnergyEstimate, p_tail: float) -> bool:
    """Whether the grid's upper edge may truncate the tail probability p_tail read from est.

    True when the trapezoid mass on the last EDGE_NODES nodes is positive and
    at least EDGE_SHARE of p_tail.
    """
    g = est.density
    edge = float(np.trapezoid(g.values[-EDGE_NODES:], dx=g.h))
    return edge > 0.0 and edge >= EDGE_SHARE * p_tail
