"""Independent checks on the Dormand-Prince engine and its event refinement.

scipy's RK45 (same tableau and step-size controller) serves as a
differential reference, and mpmath's Taylor-series ODE solver at 25 digits
as an accuracy oracle.  Both are test-only dependencies.
"""

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    bubble_fowler,
    cylinder_state,
    integrate,
    make_params,
)
from fowlerlab import dynamics
from fowlerlab.dynamics import (
    _bracketed_zeros,
    _make_field,
    _refine_crossing,
    _row_function,
    _scan_grid,
)
from fowlerlab.serialize import load_trajectory, save_trajectory


def scipy_segment(params, state, t_end, settings, mode):
    """One direction through scipy's RK45 with the engine's terminal events."""
    field = _make_field(params)

    def fun(t, y):
        return (y[2], y[3], *field(y[0], y[1]))

    def blowup(t, y):
        return max(abs(y[0]), abs(y[1])) - settings.blowup_threshold

    blowup.terminal, blowup.direction = True, 1.0
    events = [blowup]
    if mode == "positive":
        for comp in (0, 1):
            def floor(t, y, comp=comp):
                return y[comp] - settings.positivity_floor

            floor.terminal, floor.direction = True, -1.0
            events.append(floor)
    return scipy_solve_ivp(
        fun, (state.t, t_end), state.as_array(), method="RK45",
        rtol=settings.rel_tol, atol=settings.abs_tol, max_step=settings.max_step,
        events=events,
    )


P3 = make_params(3, 1.0, 1.0, 1.0)
P5 = make_params(5, 1.0, 1.0, 1.0)

DIFFERENTIAL_CASES = {
    "bubble_n3": (P3, bubble_fowler(P3, 1.0, 0.0), 20.0, "positive", None),
    # A draw near the N=5 cylinder that loses positivity in both directions.
    "near_cylinder_n5": (
        P5,
        FowlerState(0.0, 1.1219592540254082, 1.7850402069727274,
                    -0.522952076984903, -0.19073171974430594),
        20.0, "positive", "PositivityLoss",
    ),
    "signed_crossing_n3": (P3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3), 10.0, "signed", None),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
@pytest.mark.parametrize("backward", [False, True])
def test_matches_scipy_rk45(name, backward):
    params, state, span, mode, terminal = DIFFERENTIAL_CASES[name]
    settings = IntegratorSettings(t_span=(-span, span))
    t_end = -span if backward else span
    ref = scipy_segment(params, state, t_end, settings, mode)
    got = dynamics.solve_ivp(
        _make_field(params), state.t, tuple(state.as_array()), t_end, settings, mode
    )
    assert len(got.t) == len(ref.t)
    assert got.nfev == ref.nfev
    assert got.status == ref.status
    fired = [i for i, te in enumerate(ref.t_events) if len(te)]
    if terminal is None:
        assert got.event is None and fired == []
    else:
        assert got.event[0] == terminal
        assert fired == [got.event[1]]
    assert np.max(np.abs(got.t - ref.t)) <= 1e-6 * max(1.0, span)
    assert np.max(np.abs(got.y - ref.y)) <= 1e-6 * max(1.0, np.max(np.abs(ref.y)))


def test_global_error_against_mpmath_taylor_oracle():
    # A bounded N=3 orbit (perturbed cylinder); on the positive cone the
    # field is polynomial, so mpmath's Taylor solver applies directly.
    cyl, _ = cylinder_state(P3)
    state = FowlerState(0.0, cyl.w1 + 0.05, cyl.w2, 0.0, 0.02)
    settings = IntegratorSettings(t_span=(0.0, 10.0))
    traj = integrate(P3, state, settings)
    assert traj.t_max == 10.0 and float(np.min(traj.y[:2])) > 0.0

    with mpmath.workdps(25):
        d2 = mpmath.mpf(P3.delta) ** 2
        mu1, mu2, beta = (mpmath.mpf(v) for v in (P3.mu1, P3.mu2, P3.beta))

        def fun(t, y):
            w1, w2, v1, v2 = y
            return [v1, v2,
                    d2 * w1 - mu1 * w1**5 - beta * w2**3 * w1**2,
                    d2 * w2 - mu2 * w2**5 - beta * w1**3 * w2**2]

        exact = mpmath.odefun(fun, 0, [mpmath.mpf(v) for v in state.as_array()])
        err = max(
            float(np.max(np.abs(np.array([float(v) for v in exact(t)]) - traj.y[:, i])))
            for i, t in enumerate(traj.t)
        )
    # Each accepted step commits a local error within the per-step tolerance
    # rel_tol * |y| + abs_tol; on a bounded, non-expanding orbit the global
    # error stays within their sum over the steps.
    scale = float(np.max(np.abs(traj.y)))
    bound = (len(traj.t) - 1) * (settings.rel_tol * scale + settings.abs_tol)
    assert err < bound


SIGNED_ORBITS = {
    "n3": (P3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)),
    "n5": (P5, FowlerState(0.0, 0.5, 0.4, 0.3, -0.3)),
}


@pytest.mark.parametrize("name", sorted(SIGNED_ORBITS))
def test_scalar_refinement_equals_sample_refinement(name):
    params, state = SIGNED_ORBITS[name]
    traj = integrate(params, state, IntegratorSettings(t_span=(-10.0, 10.0)), mode="signed")
    tt = _scan_grid(traj)
    sampled = traj.sample(tt)
    tol = traj.settings.event_refinement_tol
    refined = 0
    for row in range(4):
        vv = sampled[row]
        nz = vv != 0.0
        t_nz, v_nz = tt[nz], vv[nz]

        def by_sample(x, row=row):
            return float(traj.sample(x)[row, 0])

        expected = [
            _refine_crossing(by_sample, float(t_nz[i]), float(t_nz[i + 1]), tol)
            for i in np.nonzero(v_nz[:-1] * v_nz[1:] < 0.0)[0]
        ]
        assert _bracketed_zeros(traj, row, tt, vv) == expected
        refined += len(expected)

        f = _row_function(traj, row)
        probes = np.concatenate([traj.t, tt[1::7], [traj.t_min - 0.5, traj.t_max + 0.5]])
        assert [f(float(x)) for x in probes] == traj.sample(probes)[row].tolist()
    assert refined >= 4


def test_overflowing_trial_steps_are_rejected_until_underflow():
    # A field that overflows past w1 = 1.5 on the growing orbit w = e^t:
    # every trial step across that point is rejected and shrunk until the
    # step falls below 10 ulp(t), which is reported, not raised.
    def field(w1, w2):
        if w1 > 1.5:
            raise OverflowError("field out of range")
        return w1, w2

    settings = IntegratorSettings(t_span=(0.0, 5.0))
    seg = dynamics.solve_ivp(field, 0.0, (1.0, 1.0, 1.0, 1.0), 5.0, settings, "signed")
    assert seg.status == -1 and seg.event is None
    assert seg.t[-1] == pytest.approx(np.log(1.5), abs=1e-9)
    assert np.all(seg.y[0] <= 1.5)


def _stop_at_call(k, label):
    """A predicate that fires on its k-th call, i.e. at the k-th new node."""
    calls = []

    def stop(t_new, w1_old, w2_old, v1_old, w1, w2, v1):
        calls.append(None)
        return label if len(calls) == k else None

    return stop


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_stopped_segment_is_a_prefix_of_the_full_run(name):
    params, state, span, mode, _ = DIFFERENTIAL_CASES[name]
    settings = IntegratorSettings(t_span=(-span, span))
    args = (_make_field(params), state.t, tuple(state.as_array()), span, settings, mode)
    full = dynamics.solve_ivp(*args)
    # A predicate that never fires changes nothing.
    quiet = dynamics.solve_ivp(*args, stop=lambda *node: None)
    assert (quiet.t.tolist(), quiet.y.tolist(), quiet.nfev, quiet.status, quiet.event) == (
        full.t.tolist(), full.y.tolist(), full.nfev, full.status, full.event
    )
    k = 7
    seg = dynamics.solve_ivp(*args, stop=_stop_at_call(k, "Probe"))
    assert seg.status == 1 and seg.event == ("Probe", None)
    assert seg.t.tolist() == full.t[: k + 1].tolist()
    assert seg.y.tolist() == full.y[:, : k + 1].tolist()
    assert seg.nfev < full.nfev


@pytest.mark.parametrize("backward", [False, True])
def test_stop_predicate_sees_the_old_and_the_new_node(backward):
    params, state, span, mode, _ = DIFFERENTIAL_CASES["signed_crossing_n3"]
    settings = IntegratorSettings(t_span=(-span, span))
    calls = []
    seg = dynamics.solve_ivp(_make_field(params), state.t, tuple(state.as_array()),
                             -span if backward else span, settings, mode,
                             stop=lambda *node: calls.append(node))
    t, (w1, w2, v1, _) = seg.t.tolist(), seg.y.tolist()
    assert seg.status == 0 and len(t) > 10
    assert calls == [(t[k + 1], w1[k], w2[k], v1[k], w1[k + 1], w2[k + 1], v1[k + 1])
                     for k in range(len(t) - 1)]


def test_stop_labels_never_become_events():
    # Both sides stopped early by a predicate: the trajectory carries only
    # the crossings its scan finds, and no event of the predicate's label.
    params, state, span, mode, _ = DIFFERENTIAL_CASES["signed_crossing_n3"]
    settings = IntegratorSettings(t_span=(-span, span))

    def solve(fun, t0, start):
        return tuple(dynamics.solve_ivp(fun, t0, start, bound, settings, mode,
                                        stop=_stop_at_call(100, "Probe"))
                     for bound in (span, -span))

    traj = dynamics._two_sided(params, state, settings, mode, solve)
    full = integrate(params, state, settings, mode=mode)
    assert full.t_min < traj.t_min and traj.t_max < full.t_max
    assert len(traj.t) == 201
    assert traj.events and all(e.kind == "SignChange" for e in traj.events)
    assert not traj.terminated and traj.failure is None


def test_blowup_takes_precedence_over_the_stop_predicate():
    # On w = e^t the step that crosses blowup_threshold also satisfies the
    # predicate; BlowUp is located and refined as without a predicate.
    def field(w1, w2):
        return w1, w2

    settings = IntegratorSettings(t_span=(0.0, 10.0))
    threshold = settings.blowup_threshold
    args = (field, 0.0, (1.0, 1.0, 1.0, 1.0), 10.0, settings, "signed")
    plain = dynamics.solve_ivp(*args)
    assert plain.status == 1 and plain.event == ("BlowUp", None)
    seg = dynamics.solve_ivp(*args, stop=lambda t_new, w1_old, w2_old, v1_old, w1, w2, v1: (
        "Probe" if w1 >= threshold else None))
    assert seg.event == ("BlowUp", None) and seg.status == 1
    assert seg.t.tolist() == plain.t.tolist() and seg.y.tolist() == plain.y.tolist()
    assert seg.y[0, -1] == pytest.approx(threshold, rel=1e-12)


#: N=5 orbits: terminal events on both sides (PositivityLoss; BlowUp below a
#: lowered threshold, in signed mode; one of each), and a signed orbit with
#: crossings only.
N5_ORBITS = {
    "positivity_loss": (DIFFERENTIAL_CASES["near_cylinder_n5"][1], "positive", 1e3),
    "blowup": (FowlerState(0.0, 0.5, 0.4, 2.5, -1.0), "signed", 1.5),
    "loss_and_blowup": (FowlerState(0.0, 0.5, 0.5, 3.0, 3.0), "positive", 2.0),
    "signed": (SIGNED_ORBITS["n5"][1], "signed", 1e3),
}
TERMINATED = ["positivity_loss", "blowup", "loss_and_blowup"]


def _n5_orbit(name):
    state, mode, threshold = N5_ORBITS[name]
    settings = IntegratorSettings(t_span=(-20.0, 20.0), blowup_threshold=threshold)
    return integrate(P5, state, settings, mode=mode)


@pytest.mark.parametrize("name", sorted(N5_ORBITS))
def test_node_accelerations_are_the_field_at_the_nodes(name):
    traj = _n5_orbit(name)
    field = _make_field(P5)
    expected = [field(w1, w2) for w1, w2 in zip(traj.y[0].tolist(), traj.y[1].tolist())]
    assert list(zip(*traj.acc.tolist())) == expected
    ends = [e.t for e in traj.events if e.kind in ("BlowUp", "PositivityLoss")]
    assert (sorted(ends) == [traj.t_min, traj.t_max]) == (name in TERMINATED)


@pytest.mark.parametrize("name", TERMINATED)
def test_interpolant_survives_a_round_trip(name, tmp_path):
    traj = _n5_orbit(name)
    save_trajectory(traj, tmp_path / "orbit.json")
    loaded = load_trajectory(tmp_path / "orbit.json")
    assert loaded.acc is None
    fresh, again = traj._interpolant(), loaded._interpolant()
    assert [c.tolist() for c in fresh] == [c.tolist() for c in again]
    assert loaded.acc.tolist() == traj.acc.tolist()


@pytest.mark.parametrize("name", TERMINATED)
def test_two_sided_terminated_nodes_increase(name):
    traj = _n5_orbit(name)
    assert traj.terminated and traj.t_min < 0.0 < traj.t_max
    assert np.all(np.diff(traj.t) > 0.0)
