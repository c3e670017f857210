"""Independent checks on the Dormand-Prince engine and its event locator,
which bisects every crossing to adjacent floats.

scipy's RK45 (same tableau and step-size controller) serves as a
differential reference, and mpmath's Taylor-series ODE solver at 25 digits
as an accuracy oracle.  Both are test-only dependencies.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    bubble_fowler,
    cylinder_amplitudes,
    cylinder_state,
    integrate,
    make_params,
    solve_coupling,
)
from fowlerlab import dynamics
from fowlerlab.dynamics import (
    _bracketed_zeros,
    _event_root,
    _make_field,
    _row_function,
    _scan_grid,
)
from fowlerlab.experiments import _first_turn, shoot_settings
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
                return y[comp] - dynamics.POSITIVITY_FLOOR

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
    refined = 0
    for row in range(2):
        vv = sampled[row]
        nz = vv != 0.0
        t_nz, v_nz = tt[nz], vv[nz]

        def by_sample(x, row=row):
            return float(traj.sample(x)[row, 0])

        brackets = np.nonzero(v_nz[:-1] * v_nz[1:] < 0.0)[0]
        signs = [math.copysign(1.0, v_nz[i]) for i in brackets]
        expected = [
            _event_root(lambda x, sign=sign: sign * by_sample(x) <= 0.0,
                        float(t_nz[i]), float(t_nz[i + 1]))
            for i, sign in zip(brackets, signs)
        ]
        roots = _bracketed_zeros(traj, row, tt, vv)
        assert roots == expected
        # Each root is the first float at which the row is zero or past it:
        # one float earlier it is still strictly on the near side.
        for te, sign in zip(roots, signs):
            assert sign * by_sample(te) <= 0.0
            assert sign * by_sample(math.nextafter(te, -math.inf)) > 0.0
        refined += len(roots)

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
    assert traj.failure is None


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
    assert any(e.kind in ("BlowUp", "PositivityLoss") for e in traj.events)
    assert traj.t_min < 0.0 < traj.t_max
    assert np.all(np.diff(traj.t) > 0.0)


#: mu2 != mu1, so the apex components differ.
MIRROR_PARAMS = {N: make_params(N, 1.0, 1.1, beta)
                 for N, beta in ((3, 1.0), (4, 2.0), (5, 1.0), (6, 0.3))}


def _mirror_settings(name, params):
    if name == "shoot":
        return shoot_settings(params)
    if name == "default":
        return IntegratorSettings()
    # A box the orbits reach: rising from below the cylinder or, signed, on
    # their way down through zero.
    return IntegratorSettings(blowup_threshold=max(cylinder_amplitudes(params)))


def _same_floats(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("N", sorted(MIRROR_PARAMS))
@pytest.mark.parametrize("settings_name", ["shoot", "default", "blowup"])
@pytest.mark.parametrize("apex_name", ["small", "half", "homoclinic", "above", "far", "lam"])
def test_backward_run_from_an_apex_is_the_forward_run_mirrored(N, settings_name, apex_name):
    # Data (a, r a, 0, 0) at t = 0 are fixed by the time reversal
    # (t, w, w') -> (-t, w, -w'), and so is the step loop, float for float.
    params = MIRROR_PARAMS[N]
    settings = _mirror_settings(settings_name, params)
    kl = solve_coupling(params)
    star = bubble_fowler(params, 1.0, 0.0).w1
    apex = {"small": 0.05 * kl.k * params.lam[0], "half": 0.5 * star, "homoclinic": star,
            "above": star * (1.0 + 1e-9), "far": 1.3 * star, "lam": params.lam[0]}[apex_name]
    y0 = (apex, kl.l / kl.k * apex, 0.0, 0.0)
    t_end = settings.t_span[1]
    assert settings.t_span[0] == -t_end
    field = _make_field(params)
    forward = dynamics.solve_ivp(field, 0.0, y0, t_end, settings, "signed")
    backward = dynamics.solve_ivp(field, 0.0, y0, -t_end, settings, "signed")
    mirror = dynamics._mirror(forward)
    assert _same_floats(mirror.t, backward.t)
    assert _same_floats(mirror.y, backward.y)
    assert _same_floats(mirror.acc, backward.acc)
    assert (mirror.nfev, mirror.status, mirror.event) == (
        backward.nfev, backward.status, backward.event)
    # The shared initial node keeps +0.0 in t and in both velocities.
    assert not np.any(np.signbit([mirror.t[0], *mirror.y[2:, 0]]))
    if settings_name == "blowup" and apex_name not in ("homoclinic", "above"):
        assert backward.event == ("BlowUp", None)


def _two_runs(params, initial, settings, mode):
    """The Trajectory integrate would return if it ran both halves with solve_ivp."""
    t_lo, t_hi = settings.t_span

    def solve(fun, t0, start):
        return (dynamics.solve_ivp(fun, t0, start, t_hi, settings, mode),
                dynamics.solve_ivp(fun, t0, start, t_lo, settings, mode))

    return dynamics._two_sided(params, initial, settings, mode, solve)


@pytest.mark.parametrize("N", sorted(MIRROR_PARAMS))
@pytest.mark.parametrize("mode", ["positive", "signed"])
def test_integrate_from_rest_runs_once_and_equals_two_runs(N, mode, monkeypatch):
    params = MIRROR_PARAMS[N]
    settings = IntegratorSettings(t_span=(-25.0, 25.0))
    star = bubble_fowler(params, 1.0, 0.0)
    # The cylinder, the entire orbit's apex, and data that fall to zero (a
    # PositivityLoss in positive mode, a sign change in signed mode).
    cases = [cylinder_state(params)[0],
             FowlerState(t=0.0, w1=star.w1, w2=star.w2, dw1=0.0, dw2=0.0),
             FowlerState(t=0.0, w1=1e-3, w2=0.5 * params.lam[1], dw1=0.0, dw2=0.0)]
    calls = []
    inner = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a: calls.append(a[3]) or inner(*a))
    for initial in cases:
        want = _two_runs(params, initial, settings, mode)
        calls.clear()
        got = integrate(params, initial, settings, mode=mode)
        assert calls == [25.0]
        for name in ("t", "y", "psi"):
            assert _same_floats(getattr(got, name), getattr(want, name))
        assert (got.events, got.psi0, got.drift, got.failure) == (
            want.events, want.psi0, want.drift, want.failure)


@pytest.mark.parametrize("initial", [
    FowlerState(t=0.0, w1=0.5, w2=0.5, dw1=-0.0, dw2=0.0),
    FowlerState(t=-0.0, w1=0.5, w2=0.5, dw1=0.0, dw2=0.0),
    FowlerState(t=0.0, w1=0.5, w2=0.5, dw1=0.0, dw2=1e-300),
], ids=["negative-zero-velocity", "negative-zero-time", "moving"])
def test_integrate_runs_both_halves_unless_at_rest(initial, monkeypatch):
    params = MIRROR_PARAMS[4]
    settings = IntegratorSettings(t_span=(-25.0, 25.0))
    want = _two_runs(params, initial, settings, "signed")
    calls = []
    inner = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a: calls.append(a[3]) or inner(*a))
    got = integrate(params, initial, settings, mode="signed")
    assert calls == [25.0, -25.0]
    assert _same_floats(got.t, want.t) and _same_floats(got.y, want.y)


#: (initial data, mode, blowup_threshold, stop predicate): crossings that
#: leave the positive cone, a PositivityLoss end, a BlowUp end, and the stop
#: rule of the shooting trials.
INLINE_CASES = {
    "signed": ((0.5, 0.5, 0.3, -0.3), "signed", 1e3, None),
    "positivity_loss": ((0.5, 0.5, -1.0, 0.2), "positive", 1e3, None),
    "blowup": ((0.5, 0.4, 2.5, -1.0), "signed", 1.5, None),
    "stop": ((1.2, 1.0, 0.0, 0.0), "signed", 1e3, _first_turn),
}


@pytest.mark.parametrize("N", sorted(MIRROR_PARAMS))
@pytest.mark.parametrize("name", sorted(INLINE_CASES))
@pytest.mark.parametrize("backward", [False, True])
def test_inline_field_equals_the_field_call(N, name, backward):
    # solve_ivp evaluates _make_field's positive-cone branch itself; a plain
    # wrapper carries no constants, so there every evaluation is a call.
    params = MIRROR_PARAMS[N]
    y0, mode, threshold, stop = INLINE_CASES[name]
    settings = IntegratorSettings(t_span=(-10.0, 10.0), blowup_threshold=threshold)
    field = _make_field(params)
    inline, called = (
        dynamics.solve_ivp(fun, 0.0, y0, -10.0 if backward else 10.0, settings, mode, stop)
        for fun in (field, lambda w1, w2: field(w1, w2))
    )
    for attr in ("t", "y", "acc"):
        assert _same_floats(getattr(inline, attr), getattr(called, attr))
    assert (inline.nfev, inline.status, inline.event) == (called.nfev, called.status,
                                                          called.event)
    w1, w2 = inline.y[:2].tolist()
    assert list(zip(*inline.acc.tolist())) == list(map(field, w1, w2))
    # Each case reaches the end it is named for.
    if name == "signed":
        assert inline.status == 0 and min(w1 + w2) < 0.0
    elif name == "stop":
        assert inline.event in (("SignChange", None), ("LocalMin", None))
    else:
        assert inline.event[0] == {"positivity_loss": "PositivityLoss", "blowup": "BlowUp"}[name]
