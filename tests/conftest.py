"""Shared fixtures: small steady branches and one quenched run, reused
across test modules to keep the suite fast."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from quenchlab.dynamics import TimeConfig, integrate
from quenchlab.mesh import Slab, build_mesh
from quenchlab.profiles import Constant, SlabSinPiecewise
from quenchlab.steady import continue_branch

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

UNIT_SLAB = Slab(-0.5, 0.5)


@pytest.fixture(scope="session")
def branch_f1_401():
    return continue_branch(Constant(1.0), build_mesh(UNIT_SLAB, 401))


@pytest.fixture(scope="session")
def branch_falpha_801():
    return continue_branch(SlabSinPiecewise(), build_mesh(UNIT_SLAB, 801))


@pytest.fixture(scope="session")
def quench_run_201():
    """lam=5 on f=1: quenches at the center in ~0.08 time units."""
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, report = integrate(5.0, Constant(1.0), mesh, TimeConfig())
    assert report.quenched
    return traj, report


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's random cases do not depend on
    which tests drew before it."""
    return np.random.default_rng(20260822)
