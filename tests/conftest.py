import dataclasses

import numpy as np
import pytest

from rareebm.problems import TargetProblem


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def scalar_normal_problem() -> TargetProblem:
    """1-D standard-normal target with identity quantity of interest."""
    return TargetProblem(
        dim=1,
        log_prior=lambda th: -0.5 * np.atleast_2d(th)[:, 0] ** 2,
        qoi=lambda th: np.atleast_2d(th)[:, 0],
        from_standard_normal=lambda u: np.asarray(u, dtype=float),
        to_standard_normal=lambda th: np.asarray(th, dtype=float),
        init_point=np.zeros(1),
    )


def counting_qoi(problem: TargetProblem) -> tuple[TargetProblem, list]:
    """The problem with its qoi wrapped to append the number of rows of each call to the returned list."""
    rows = []

    def qoi(theta):
        rows.append(len(theta))
        return problem.qoi(theta)

    return dataclasses.replace(problem, qoi=qoi), rows


def counting_base(problem: TargetProblem) -> tuple[TargetProblem, list]:
    """The problem with log_prior and from_standard_normal wrapped to append the number of rows of each call.

    A random walk scores its base density through log_prior and pCN through
    from_standard_normal, so the list counts a chain's base-density rows.
    """
    rows = []

    def counted(f):
        def g(theta):
            rows.append(len(theta))
            return f(theta)

        return g

    names = [name for name in ("log_prior", "from_standard_normal") if getattr(problem, name) is not None]
    return dataclasses.replace(problem, **{name: counted(getattr(problem, name)) for name in names}), rows
