import multiprocessing

import pytest

from fowlerlab import experiments
from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    bubble_fowler,
    cylinder_state,
    integrate,
    make_params,
)


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_suite():
    # A leaked worker fails the suite here rather than holding its output
    # pipe open after the run.
    yield
    experiments._close_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def p3():
    return make_params(3, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def p4b2():
    return make_params(4, 1.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def p5():
    return make_params(5, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def span20():
    return IntegratorSettings(t_span=(-20.0, 20.0))


@pytest.fixture(scope="session")
def bubble_traj(p3, span20):
    return integrate(p3, bubble_fowler(p3, 1.0, 0.0), span20)


@pytest.fixture(scope="session")
def cylinder_traj(p3, span20):
    return integrate(p3, cylinder_state(p3)[0], span20)


@pytest.fixture(scope="session")
def perturbed_traj(p3, span20):
    # N=3 with beta < 2 mu keeps the equilibrium fully elliptic, so a plain
    # coordinate perturbation stays bounded.
    state, _ = cylinder_state(p3)
    bumped = FowlerState(0.0, state.w1 + 1e-3, state.w2, 0.0, 0.0)
    return integrate(p3, bumped, span20)
