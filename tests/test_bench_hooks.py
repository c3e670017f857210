"""The benchmark's hooks into the package still exist and still work.

bench/tracing.py patches functions by module attribute and reads counters
from their results; a rename in the package would otherwise only show up as
a failed benchmark run.  This runs no workload.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads

        assert set(workloads.WORKLOADS) == set(workloads.REFERENCE_DIGESTS)
        yield tracing
    finally:
        sys.path.remove(str(BENCH))


def test_every_patched_attribute_exists(tracing):
    for owner, attr, name, _ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), name


def test_patching_is_undone(tracing):
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        during = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    after = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_traced_integration_counts_nodes_and_nfev(tracing):
    from fowlerlab import FowlerState, IntegratorSettings, experiments, make_params

    tracer = tracing.Tracer()
    with tracer.patched():
        # Moving data, so both halves are integrated.
        traj = experiments.integrate(
            make_params(3, 1.0, 1.0, 1.0), FowlerState(0.0, 0.5, 0.5, 0.1, 0.0),
            IntegratorSettings(t_span=(-2.0, 2.0)),
        )
    counts = tracer.counters
    assert counts["nodes"] == len(traj.t) - 1
    assert counts["nfev"] > 6 * counts["nodes"]
    assert [span[0] for span in tracer.spans].count("dynamics.solve_ivp") == 2
    assert tracer.problems() == []


def test_traced_integration_from_rest_makes_one_run(tracing):
    from fowlerlab import FowlerState, IntegratorSettings, experiments, make_params

    tracer = tracing.Tracer()
    with tracer.patched():
        traj = experiments.integrate(
            make_params(3, 1.0, 1.0, 1.0), FowlerState(0.0, 0.5, 0.5, 0.0, 0.0),
            IntegratorSettings(t_span=(-2.0, 2.0)),
        )
    # The backward half is the forward run mirrored: its nodes are counted,
    # but only the forward run evaluates the field.
    counts = tracer.counters
    assert counts["nodes"] == len(traj.t) - 1
    assert counts["nfev"] > 6 * (counts["nodes"] // 2)
    assert [span[0] for span in tracer.spans].count("dynamics.solve_ivp") == 1
    assert tracer.problems() == []
