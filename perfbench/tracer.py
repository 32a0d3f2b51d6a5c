"""Outside-in span tracer for the rareebm modules.

`instrument(tracer)` wraps the public functions of each layer in place, in
every loaded `rareebm` module namespace that binds them, so calls made through
`from module import name` are traced too. The code under `src/` is not edited;
`restore()` puts every original back.

Spans are aggregated in memory by (name, parent name): calls, inclusive time,
self time (inclusive minus the time covered by child spans) and any counters
the span's hook returns. The first `keep_raw` spans are also kept raw, with
their start, end and parent, so that nesting can be checked.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

_NS = 1e-9


class Tracer:
    def __init__(self, keep_raw: int = 20000):
        self.stats: dict[tuple[str, str], dict] = {}
        self.raw: list[tuple[int, int, str, int, int]] = []  # (id, parent id, name, start ns, end ns)
        self.keep_raw = keep_raw
        self._stack: list[list] = []  # open frames: [name, id, child ns]
        self._next_id = 0

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped in a span; `hook(args, kwargs, result)` returns counters to add."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                incl = end - start
                if parent is not None:
                    parent[2] += incl
                key = (name, parent[0] if parent is not None else "")
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = {"calls": 0, "incl_ns": 0, "self_ns": 0, "counters": {}}
                entry["calls"] += 1
                entry["incl_ns"] += incl
                entry["self_ns"] += incl - frame[2]
                if span_id < self.keep_raw:
                    self.raw.append((span_id, parent[1] if parent is not None else -1, name, start, end))
            if hook is not None:
                counters = entry["counters"]
                for k, v in hook(args, kwargs, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        return traced

    def breakdown(self) -> list[dict]:
        """Aggregated spans, one row per (name, parent), inclusive-time order."""
        rows = [
            {
                "span": name,
                "parent": parent,
                "calls": e["calls"],
                "incl_s": e["incl_ns"] * _NS,
                "self_s": e["self_ns"] * _NS,
                **e["counters"],
            }
            for (name, parent), e in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["incl_s"])


def _rows(theta) -> int:
    shape = getattr(theta, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _problem_hook(args, kwargs, result):
    return {"rows": _rows(args[-1])}


def _mh_hook(args, kwargs, res):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    post = cfg.total_steps - cfg.burn_in
    return {
        "proposals": cfg.total_steps,
        "evals": res.budget,
        "post_burn_in": post,
        "accepted": round(res.acceptance_rate * post),
    }


def _tune_hook(args, kwargs, result):
    return {"evals": result[1]}


def _ksd_hook(args, kwargs, result):
    return {"stopped": int(not result.reject)}


def _subset_hook(args, kwargs, result):
    return {"levels": len(result.levels)}


def _propagate_hook(args, kwargs, result):
    acc, cost = result[3], result[4]
    return {"accepted": round(acc * cost), "moves": cost}


def _io_hook(args, kwargs, result):
    out_dir = Path(args[0])
    return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}


# (module, attribute, span name, counter hook) for the module-level functions.
FUNCTIONS = [
    ("rareebm.mcmc", "mh_run", "mcmc.mh_run", _mh_hook),
    ("rareebm.mcmc", "tune_step_sizes", "mcmc.tune_step_sizes", _tune_hook),
    ("rareebm.mcmc", "tune_pcn_beta", "mcmc.tune_pcn_beta", _tune_hook),
    ("rareebm.densities", "kde_gaussian", "densities.kde_gaussian", None),
    ("rareebm.train", "train_bias_potential", "train.train_bias_potential", None),
    ("rareebm.train", "sgdm_step", "train.sgdm_step", None),
    ("rareebm.train", "kl_gradient_grid", "train.kl_gradient_grid", None),
    ("rareebm.train", "kl_gradient_rbf", "train.kl_gradient_rbf", None),
    ("rareebm.estimator", "free_energy_from_bias", "estimator.free_energy_from_bias", None),
    ("rareebm.estimator", "tail_probability", "estimator.tail_probability", None),
    ("rareebm.ksd", "ksd_statistic", "ksd.ksd_statistic", None),
    ("rareebm.ksd", "wild_bootstrap_test", "ksd.wild_bootstrap_test", _ksd_hook),
    ("rareebm.subset", "subset_estimate", "subset.subset_estimate", _subset_hook),
    ("rareebm.subset", "_propagate", "subset._propagate", _propagate_hook),
    ("rareebm.harness", "run_experiment", "harness.run_experiment", None),
    ("rareebm.harness", "run_replicate", "harness.run_replicate", None),
    ("rareebm.harness", "write_outputs", "harness.write_outputs", _io_hook),
]

# (module, class, method, span name, counter hook) for methods patched on the class.
METHODS = [
    ("rareebm.bias", "GridBias", "__call__", "bias.GridBias", None),
    ("rareebm.bias", "RbfBias", "__call__", "bias.RbfBias", None),
    ("rareebm.problems", "TargetProblem", "log_target", "problems.log_target", _problem_hook),
]

# Problem callables are closures stored on each TargetProblem instance, so they
# are wrapped on the instances that `build_problem` returns.
PROBLEM_CALLABLES = ["log_prior", "log_likelihood", "qoi", "from_standard_normal", "to_standard_normal"]


def instrument(tracer: Tracer):
    """Wrap every traced layer; returns a function that restores the originals."""
    import rareebm.harness as harness

    undo = []
    rareebm_modules = [m for n, m in list(sys.modules.items()) if n == "rareebm" or n.startswith("rareebm.")]

    def rebind(orig, wrapper):
        # Rebind the name in every module that imported it, so callers that
        # did `from rareebm.x import f` reach the wrapper as well.
        for mod in rareebm_modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    for mod_name, attr, span, hook in FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        rebind(orig, tracer.wrap(span, orig, hook))

    for mod_name, cls_name, method, span, hook in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        orig = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(span, orig, hook))
        undo.append((cls, method, orig))

    build_problem = harness.build_problem

    def traced_build_problem(pcfg):
        bundle = build_problem(pcfg)
        p = bundle.problem
        wrapped = {
            name: tracer.wrap(f"problems.{name}", getattr(p, name), _problem_hook)
            for name in PROBLEM_CALLABLES
            if getattr(p, name) is not None
        }
        oracle = None if bundle.oracle is None else tracer.wrap("harness.oracle", bundle.oracle)
        return dataclasses.replace(bundle, problem=dataclasses.replace(p, **wrapped), oracle=oracle)

    rebind(build_problem, tracer.wrap("harness.build_problem", traced_build_problem))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def check_nesting(raw) -> list[str]:
    """Problems found in the raw spans: a child that starts or ends outside its parent."""
    by_id = {s[0]: s for s in raw}
    errors = []
    for span_id, parent_id, name, start, end in raw:
        if end < start:
            errors.append(f"span {span_id} {name} ends before it starts")
        parent = by_id.get(parent_id)
        if parent is not None and not (parent[3] <= start and end <= parent[4]):
            errors.append(f"span {span_id} {name} is not inside its parent {parent_id} {parent[2]}")
    return errors
