"""Independent checks on the DOP853 engine, its dense output and its event
locator, which bisects every crossing to adjacent floats.

scipy's DOP853 (same tableau, error norm and step-size controller) serves
as a differential reference, and mpmath's Taylor-series ODE solver at 25
digits as an accuracy oracle.  Both are test-only dependencies.
"""

import ast
import functools
import inspect
import linecache
import math
import sys
import traceback
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp

from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    SamplerSpec,
    bubble_fowler,
    classify,
    cylinder_amplitudes,
    cylinder_state,
    integrate,
    make_params,
    solve_coupling,
)
from fowlerlab import dynamics, experiments
from fowlerlab.dynamics import _bracketed_zeros, _make_field
from fowlerlab.experiments import _first_turn, shoot_settings
from fowlerlab.serialize import load_trajectory, save_trajectory
from test_dynamics import _outcome, _same_outcome, _signed_field


def scipy_segment(params, state, t_end, settings, mode):
    """One direction through scipy's DOP853 with the engine's terminal events."""
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
        fun, (state.t, t_end), state.as_array(), method="DOP853", dense_output=True,
        rtol=settings.rel_tol, atol=settings.abs_tol, max_step=settings.max_step,
        events=events,
    )


P3 = make_params(3, 1.0, 1.0, 1.0)
P5 = make_params(5, 1.0, 1.0, 1.0)
#: A hand-built system whose field is w'' = w exactly: delta = 1, and the
#: zero couplings zero every power's term.
LINEAR = replace(P3, delta=1.0, mu1=0.0, mu2=0.0, beta=0.0)

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
def test_matches_scipy_dop853(name, backward):
    params, state, span, mode, terminal = DIFFERENTIAL_CASES[name]
    settings = IntegratorSettings(t_span=(-span, span))
    t_end = -span if backward else span
    ref = scipy_segment(params, state, t_end, settings, mode)
    got = dynamics.solve_ivp(params, state.t, tuple(state.as_array()), t_end, settings, mode)
    assert len(got.t) == len(ref.t)
    # scipy's dense output takes 3 more field evaluations per step.  The
    # error rows cancel to near rounding, so the two summation orders give
    # norms that differ in the fourth digit; where the N = 5 orbit runs into
    # w1 = 0, where the field is not smooth, one more trial step is rejected
    # here (6.50 against 24.2 on the same trial, measured).
    stages = ref.nfev - 3 * (len(ref.t) - 1)
    assert got.nfev - stages in ((0,) if terminal is None else (0, 12))
    assert got.status == ref.status
    fired = [i for i, te in enumerate(ref.t_events) if len(te)]
    if terminal is None:
        assert got.event is None and fired == []
    else:
        assert got.event[0] == terminal
        assert fired == [got.event[1]]
    # The same orbit: the end (the event time, if any) and every node
    # against scipy's dense output there.
    assert abs(got.t[-1] - ref.t[-1]) <= 1e-9 * max(1.0, span)
    assert np.max(np.abs(got.y - ref.sol(got.t))) <= 1e-9 * max(1.0, np.max(np.abs(ref.y)))


def test_tableau_is_scipys():
    # The one table solve_ivp's trial step is rendered from, float for
    # float against scipy's copy: A padded with the zeros it leaves out, B
    # its thirteenth row, and the error rows with the new node's zero weight.
    A, B, E5, E3 = dynamics._TABLEAU
    assert [list(row) + [0.0] * (12 - len(row)) for row in A] == DOP853.A.tolist()
    assert list(B) == DOP853.B.tolist()
    assert list(E5) + [0.0] == DOP853.E5.tolist()
    assert list(E3) + [0.0] == DOP853.E3.tolist()


def _weighted(weights, names):
    """sum weights[k] * names[k] over the nonzero weights, as solve_ivp's
    source writes it: each weight the repr of its magnitude, its sign the
    operator."""
    text = " ".join(f"{'-' if a < 0.0 else '+'} {abs(a)!r} * {name}"
                    for a, name in zip(weights, names) if a)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def test_nystrom_weights_are_scipys_products():
    # Recomputed from scipy's DOP853 arrays in Fraction arithmetic: c = A 1,
    # Abar = A A, B A, E5 A and E3 A, each rounded once, are the weights
    # solve_ivp's trial step is written with.  The entries left out are
    # rounding residues of DOP853's simplifying assumptions, all below
    # 2**-52 (sum B - 1 = 6.9e-17, sum E5 = -3.5e-18, sum E3 = 1.0e-16,
    # (B A)[3] = 7.1e-17 and (B A)[4] = -4.4e-18, measured).
    F = Fraction
    A = [[F(a) for a in row[:12]] for row in DOP853.A.tolist()[:12]]
    B, E5, E3 = ([F(x) for x in row[:12]] for row in (DOP853.B, DOP853.E5, DOP853.E3))

    def times_a(row):
        return [sum(row[j] * A[j][m] for j in range(12)) for m in range(12)]

    c = [float(sum(row)) for row in A]
    abar = [[float(x) for x in times_a(row)] for row in A]
    ba = times_a(B)
    dropped = [sum(B) - 1, sum(E5), sum(E3)] + [x for b, x in zip(B, ba) if b == 0 and x]
    assert len(dropped) == 5 and max(map(abs, dropped)) < 2.0**-52
    ba = [0.0 if b == 0 else float(x) for b, x in zip(B, ba)]
    e5a, e3a = ([float(x) for x in times_a(E)] for E in (E5, E3))
    assert dynamics._nystrom_weights() == (c, abar, ba, e5a, e3a)

    source = dynamics._SOLVE_IVP_SOURCE
    for i in (1, 2):
        b = [f"a{i}"] + [f"b{i}_{k + 1}" for k in range(1, 12)]
        lines = [f"x{i} = w{i} + ({c[1]!r} * v{i}) * h"]
        lines += [f"x{i} = w{i} + ({c[k]!r} * v{i} + ({_weighted(abar[k], b)}) * h) * h"
                  for k in range(2, 12)]
        lines += [f"w{i}_new = w{i} + h * (v{i} + h * ({_weighted(ba, b)}))",
                  f"v{i}_new = v{i} + h * ({_weighted([float(x) for x in B], b)})"]
        for e, E, EA in (("e", E5, e5a), ("f", E3, e3a)):
            lines += [f"{e}{i} = ({_weighted(EA, b)}) * h * h",
                      f"{e}{i + 2} = ({_weighted([float(x) for x in E], b)}) * h"]
        for line in lines:
            assert f"\n                {line}\n" in source, line
    # No stage velocity is left in the trial step.
    assert "v1_2" not in source and "v2_12" not in source


def test_error_norm_is_scipys_and_never_nan():
    # Rows of zeros give 0.0; finite ones DOP853's err5 / sqrt(err5 + 0.01
    # err3) over the 4 components; rows that overflow, where scipy's formula
    # gives inf / inf = NaN, and a NaN give inf: a rejected step.
    assert dynamics._error_norm(0.0, 0.0) == 0.0
    assert dynamics._error_norm(4.0, 100.0) == 4.0 / math.sqrt(4.0 * (4.0 + 1.0))
    assert math.isnan(math.inf / math.sqrt(math.inf))
    for rows in ((math.inf, math.inf), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        assert dynamics._error_norm(*rows) == math.inf


def test_error_norm_with_a_zero_denominator_is_zero():
    # err5 = 0 and 0.01 * err3 underflows: the step has no error to speak of.
    assert 0.01 * 5e-324 == 0.0
    assert dynamics._error_norm(0.0, 5e-324) == 0.0
    assert dynamics._error_norm(0.0, 1e-320) == 0.0


def test_tiny_abs_tol_equilibrium_takes_finite_error_norms(monkeypatch):
    # The N = 3 cylinder with abs_tol 1e-300: the starting step underflows,
    # and the loop raises it to 10 ulp(0).  Divided by the 1e-300 velocity
    # scale first, the velocity error rows of that step overflow (scipy's
    # order gave NaN, and the run stopped after one node); scaled by h
    # first, they underflow to 0 and the step is taken.
    state, _ = cylinder_state(P3)
    settings = IntegratorSettings(abs_tol=1e-300, t_span=(-30.0, 30.0))
    norms = []
    inner = dynamics._error_norm
    monkeypatch.setattr(dynamics, "_error_norm",
                        lambda err5, err3: norms.append((err5, err3)) or inner(err5, err3))
    seg = dynamics.solve_ivp(P3, 0.0, tuple(state.as_array().tolist()), 30.0, settings,
                             "positive")
    assert seg.status == 0 and seg.t[-1] == 30.0
    assert norms[0] == (0.0, 0.0)
    assert all(math.isfinite(err5) and math.isfinite(err3) for err5, err3 in norms)


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
        # Between the nodes: a quarter, half and three quarters of each step.
        between = (traj.t[:-1, None] + np.diff(traj.t)[:, None] * [0.25, 0.5, 0.75]).ravel()
        dense = np.abs(traj.sample(between)
                       - np.array([[float(v) for v in exact(t)] for t in between]).T)
    # Each accepted step commits a local error within the per-step tolerance
    # rel_tol * |y| + abs_tol; on a bounded, non-expanding orbit the global
    # error stays within their sum over the steps.
    scale = float(np.max(np.abs(traj.y)))
    bound = (len(traj.t) - 1) * (settings.rel_tol * scale + settings.abs_tol)
    assert err < bound
    # The degree-9 dense output is as accurate as the nodes.  The bounds are
    # the DP5(4) engine's errors on this orbit (233 steps, quintic dense
    # output); DOP853 takes 32 steps and measured 2.1e-12 at the nodes,
    # 2.0e-12 on the values between them and 5.7e-12 on the slopes.
    assert err < 2.24e-11
    assert float(np.max(dense[:2])) < 2.24e-11
    assert float(np.max(dense[2:])) < 2.02e-11


SIGNED_ORBITS = {
    "n3": (P3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)),
    "n5": (P5, FowlerState(0.0, 0.5, 0.4, 0.3, -0.3)),
}


def _sample_roots(traj, brackets):
    """_event_root on the array sample, for many brackets (row, sign, ta,
    tb) at once: per bracket the first float from ta toward tb at which
    sign * w_row is zero or past it, each halving one traj.sample of every
    open bracket's midpoint."""
    if not brackets:
        return []
    rows, signs, ta, tb = map(np.array, zip(*brackets))
    lanes = np.arange(len(rows))
    while True:
        tm = 0.5 * (ta + tb)
        live = (tm != ta) & (tm != tb)
        if not live.any():
            return tb.tolist()
        crossed = signs * traj.sample(tm, derivatives=0)[rows, lanes] <= 0.0
        tb = np.where(live & crossed, tm, tb)
        ta = np.where(live & ~crossed, tm, ta)


def _dense_sample_crossings(traj):
    """Oracle for the SignChange events: the orbit sampled at the nodes and
    five interior points per step, each bracket of nonzero samples of
    opposite signs bisected on traj.sample (_sample_roots), in increasing t
    with the sign of the earlier sample.  Returns ((t, component, state),
    ...) and the signs."""
    frac = np.linspace(0.0, 1.0, 7)[:-1]
    tt = np.append((traj.t[:-1, None] + np.diff(traj.t)[:, None] * frac).ravel(), traj.t[-1])
    sampled = traj.sample(tt, derivatives=0)
    brackets = []
    for row in range(2):
        nz = sampled[row] != 0.0
        t_nz, v_nz = tt[nz], sampled[row][nz]
        for i in np.flatnonzero(v_nz[:-1] * v_nz[1:] < 0.0).tolist():
            brackets.append((row, math.copysign(1.0, v_nz[i]), t_nz[i], t_nz[i + 1]))
    roots = _sample_roots(traj, brackets)
    states = traj.sample(np.array(roots)).T.tolist() if roots else []
    found = sorted(((te, row + 1, state), sign)
                   for te, state, (row, sign, _, _) in zip(roots, states, brackets))
    return [event for event, _ in found], [sign for _, sign in found]


def _assert_node_crossings_are_the_dense_sample_crossings(traj):
    """Read at the nodes and bisected on one step's polynomial, every
    crossing is the one a dense scan of the interpolant finds, bit for bit.
    Returns the number of crossings."""
    expected, signs = _dense_sample_crossings(traj)
    assert [(ev.t, ev.component, ev.state.as_array().tolist()) for ev in traj.events
            if ev.kind == "SignChange"] == expected
    for row in range(2):
        assert [state.t for state in _bracketed_zeros(traj, row)] == [
            te for te, comp, _ in expected if comp == row + 1]
    # Each is the first float at which the row is zero or past it: one float
    # earlier it is still strictly on the near side.
    for (te, comp, _), sign in zip(expected, signs):
        assert sign * float(traj.sample(te)[comp - 1, 0]) <= 0.0
        assert sign * float(traj.sample(math.nextafter(te, -math.inf))[comp - 1, 0]) > 0.0
    return len(expected)


@pytest.mark.parametrize("name", sorted(SIGNED_ORBITS))
def test_scalar_refinement_equals_sample_refinement(name):
    # The step-polynomial bisection against the query traj.sample(x).
    params, state = SIGNED_ORBITS[name]
    traj = integrate(params, state, IntegratorSettings(t_span=(-10.0, 10.0)), mode="signed")
    assert _assert_node_crossings_are_the_dense_sample_crossings(traj) >= 4


@pytest.mark.parametrize("projection", ["psi_positive", "psi_zero"])
def test_step_local_roots_equal_whole_orbit_roots_on_the_acceptance_draws(projection):
    # The cut orbits of the sign-change acceptance test (N = 3, seed
    # 20260809): roots bisected on one step equal those of a dense scan of
    # the whole orbit.
    spec = SamplerSpec(kind="uniform_box", projection=projection)
    window = IntegratorSettings(t_span=(-50.0, 50.0))
    draws, _ = experiments._collect_draws(P3, spec, 100, 20260809)
    found = sum(_assert_node_crossings_are_the_dense_sample_crossings(
        experiments._crossing_trajectory(P3, data, window)) for _, data in draws)
    assert found >= len(draws)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("data", [(0.0, 0.5, 0.3, 0.0), (0.4, 0.0, 0.1, -0.2),
                                  (0.0, 0.0, 0.3, 0.2)])
def test_a_crossing_at_a_zero_node_sits_on_it(N, data):
    # The initial node lies on an axis with the orbit moving across it: the
    # crossing is that node, not a float before it.
    traj = integrate(make_params(N, 1.0, 1.0, 1.0), FowlerState(0.0, *data),
                     IntegratorSettings(t_span=(-10.0, 10.0)), mode="signed")
    on_axis = [comp for comp in (1, 2) if data[comp - 1] == 0.0]
    at_zero = [ev for ev in traj.events if ev.kind == "SignChange" and abs(ev.t) < 1e-3]
    assert [(ev.t, ev.component) for ev in at_zero] == [(0.0, comp) for comp in on_axis]
    assert all(ev.state.as_array()[ev.component - 1] == 0.0 for ev in at_zero)


@functools.cache
def _signed_corpus(N, beta):
    """Sign-change draws at (N, beta), mu = 1, both projections, each as a
    cut orbit on (-50, 50) and a full signed one on (-20, 20); and a full
    orbit from a zero node, whose crossing sits on that node."""
    params = make_params(N, 1.0, 1.0, beta)
    cut, full = IntegratorSettings(t_span=(-50.0, 50.0)), IntegratorSettings(t_span=(-20.0, 20.0))
    orbits = [integrate(params, FowlerState(0.0, 0.0, 0.5, 0.3, 0.0), full, mode="signed")]
    for projection in ("psi_positive", "psi_zero"):
        draws, _ = experiments._collect_draws(
            params, SamplerSpec(kind="uniform_box", projection=projection), 3, 7)
        for _, data in draws:
            orbits.append(experiments._crossing_trajectory(params, data, cut))
            orbits.append(integrate(params, data.state(), full, mode="signed"))
    return params, orbits


def _sign_change_bits(events):
    return [(ev.t.hex(), ev.component, [x.hex() for x in ev.state.as_array().tolist()])
            for ev in events if ev.kind == "SignChange"]


def _events_on_the_built_interpolant(traj):
    """Oracle: traj's SignChange events formed again on its built
    interpolant.  Each pair of consecutive nonzero nodes of opposite signs
    one step apart is bisected on the array sample of a copy
    (_sample_roots); further apart, it sits at the first zero node between
    them.  Each state is that sample at the root."""
    built = replace(traj, events=(), _coeffs=None)
    brackets, at_nodes = [], []
    for row in range(2):
        vv = traj.y[row]
        nz = np.flatnonzero(vv != 0.0)
        for i in np.flatnonzero(vv[nz[:-1]] * vv[nz[1:]] < 0.0).tolist():
            a, b = int(nz[i]), int(nz[i + 1])
            if b == a + 1:
                brackets.append((row, math.copysign(1.0, vv[a]), traj.t[a], traj.t[b]))
            else:
                at_nodes.append((row, float(traj.t[a + 1])))
    found = [(row, te) for (row, *_), te in zip(brackets, _sample_roots(built, brackets))]
    found += at_nodes
    states = built.sample(np.array([te for _, te in found])).T if found else []
    assert built._coeffs is not None or not found
    events = [dynamics.Event(kind="SignChange", t=te, component=row + 1,
                             state=FowlerState.from_array(te, state))
              for (row, te), state in zip(found, states)]
    return sorted(events, key=dynamics.Event.sort_key)


CORPUS_CASES = [(3, 0.5), (4, 1.0), (5, 2.0), (6, 1.0)]


@pytest.mark.parametrize("N, beta", CORPUS_CASES)
def test_signed_orbits_build_no_interpolant(N, beta):
    # Their crossings lie on steps where a component changes sign, whose
    # quintic comes from the node data, and classify reads K's tolerance at
    # the initial node.
    params, orbits = _signed_corpus(N, beta)
    for traj in orbits:
        assert any(ev.kind == "SignChange" for ev in traj.events)
        assert classify(params, traj).verdict == "SignChanging"
        assert traj._coeffs is None


@pytest.mark.parametrize("N, beta", CORPUS_CASES)
def test_events_equal_the_events_on_the_built_interpolant(N, beta):
    _, orbits = _signed_corpus(N, beta)
    for traj in orbits:
        expected = _sign_change_bits(_events_on_the_built_interpolant(traj))
        assert expected and _sign_change_bits(traj.events) == expected
    assert (0.0, 1) in [(ev.t, ev.component) for ev in orbits[0].events]  # the zero node


def test_a_root_on_a_step_end_node_takes_the_node_state():
    # w1 falls from 1 to -1e-300, about linearly, over a step four ulps
    # long: it is still positive at every float inside, so the root is the
    # end node.  The event takes that node's own state, w1' too, and builds
    # no interpolant.
    t1 = 1.0 + 4.0 * math.ulp(1.0)
    slope = -1.0 / (t1 - 1.0)
    traj = dynamics.Trajectory(
        params=P3, settings=IntegratorSettings(t_span=(1.0, 3.0)), mode="signed",
        t=np.array([1.0, t1, 2.0, 3.0]),
        y=np.array([[1.0, -1e-300, -1.0, -2.0], [1.0] * 4, [slope, slope, -1.0, -1.0],
                    [0.0] * 4]),
        psi=np.zeros(4), events=(), psi0=0.0, drift=0.0, t_initial=1.0)
    events = dynamics._sign_change_events(traj)
    assert _sign_change_bits(events) == [(t1.hex(), 1, [x.hex() for x in traj.y[:, 1].tolist()])]
    assert traj._coeffs is None


def _hand_built(w1):
    """A three-node signed trajectory on [0, 2] with w1 = w1 at the nodes."""
    y = np.array([w1, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    return dynamics.Trajectory(
        params=P3, settings=IntegratorSettings(t_span=(0.0, 2.0)), mode="signed",
        t=np.array([0.0, 1.0, 2.0]), y=y, psi=np.zeros(3), events=(), psi0=0.0, drift=0.0,
        t_initial=0.0)


def test_a_crossing_through_a_zero_node_is_that_node():
    traj = _hand_built([-1.0, 0.0, 1.0])
    assert _bracketed_zeros(traj, 0) == [FowlerState.from_array(1.0, traj.y[:, 1])]


def test_a_touch_at_a_zero_node_is_no_crossing():
    assert _bracketed_zeros(_hand_built([-1.0, 0.0, -1.0]), 0) == []


def _faulty_solve_ivp(line, faulty):
    """solve_ivp with its one rendered line fragment line replaced by faulty:
    a fault that no system's field has.  Compiled under the rendered unit's
    file name, line for line, so its tracebacks quote the package's own
    rendered lines."""
    unit = "".join(linecache.cache[dynamics._SOLVE_IVP_FILE][2])
    assert unit.count(line) == 1
    namespace = dict(vars(dynamics))
    exec(compile(unit.replace(line, faulty), dynamics._SOLVE_IVP_FILE, "exec"), namespace)
    return namespace["solve_ivp"]


def test_overflowing_trial_steps_are_rejected_until_underflow():
    # w'' = w with a power so large that w**p overflows past w ~ 1.5 on the
    # growing orbit w = e^t (the product P1 * w is inf there, and its zero
    # coupling makes the acceleration NaN; w**p1 overflows a little later):
    # every trial step across that point is rejected and shrunk until the
    # step falls below 10 ulp(t), which is reported, not raised.
    params = replace(LINEAR, p=1.0 + math.log(sys.float_info.max) / math.log(1.5))
    edge = math.log(sys.float_info.max) / params.p  # ln w where w**p overflows
    settings = IntegratorSettings(t_span=(0.0, 5.0))
    seg = dynamics.solve_ivp(params, 0.0, (1.0, 1.0, 1.0, 1.0), 5.0, settings, "signed")
    assert seg.status == -1 and seg.event is None
    assert seg.t[-1] == pytest.approx(edge, abs=1e-9)
    assert np.all(seg.y[0] < 1.5) and np.isfinite(seg.acc).all()


def test_a_trial_whose_new_node_acceleration_is_not_finite_is_rejected():
    # The new node's acceleration weighs nothing in the error rows.  This
    # step loop's field is w'' = w, finite at every stage, but its new
    # node's w1'' is inf past w1 = 1.5 on the growing orbit w = e^t, far
    # below the blow-up threshold: every trial across that point is
    # rejected, as one whose power overflows, until the step underflows,
    # and no node keeps the inf.
    solve_ivp = _faulty_solve_ivp("a1_new = d2 * w1_new",
                                  "a1_new = (math.inf if w1_new > 1.5 else d2 * w1_new)")
    settings = IntegratorSettings(t_span=(0.0, 5.0), blowup_threshold=1e300)
    seg = solve_ivp(LINEAR, 0.0, (1.0, 1.0, 1.0, 1.0), 5.0, settings, "signed")
    assert seg.status == -1 and seg.event is None
    assert np.isfinite(seg.acc).all() and np.isfinite(seg.y).all()
    assert seg.t[-1] == pytest.approx(np.log(1.5), abs=1e-9)


def test_runs_from_neighbouring_rest_data_share_their_step_grid():
    # Shooting trials from apexes a few ulps apart, at rest.  The first
    # step's error norm is rounding noise there (the velocity rows are scaled
    # by abs_tol alone), so the step after it grows by the full factor; a
    # factor drawn from that noise (7.7 to 10 here) put the trials on grids
    # up to 19 % apart, and their window-end values 9 ulps of apex apart.
    params = make_params(5, 1.0, 1.0, 1.0)
    kl = solve_coupling(params)
    settings = shoot_settings(params)
    star = bubble_fowler(params, 1.0, 0.0).w1
    grids = []
    for j in range(-8, 9):
        apex = star + j * math.ulp(star)
        seg = dynamics.solve_ivp(params, 0.0, (apex, kl.l / kl.k * apex, 0.0, 0.0),
                                 settings.t_span[1], settings, "signed")
        grids.append(np.diff(seg.t)[:40])
    assert grids[0][1] == pytest.approx(10.0 * grids[0][0], rel=1e-12)
    assert max(float(np.max(np.abs(h / grids[0] - 1.0))) for h in grids) < 1e-5


def test_rendered_solve_ivp_is_its_source():
    # The rendered unit is _make_field, then solve_ivp.
    assert (inspect.getsource(dynamics._make_field) + "\n\n"
            + inspect.getsource(dynamics.solve_ivp)) == dynamics._SOLVE_IVP_SOURCE


def test_solve_ivp_calls_the_field_only_off_the_trial_step():
    # The field is written out at every stage and new node; it is called at
    # t0 and at an event node, and passed to the initial-step estimate.
    source = dynamics._SOLVE_IVP_SOURCE
    assert "inline" not in source
    solve = next(node for node in ast.parse(source).body if node.name == "solve_ivp")
    calls = [ast.unparse(node) for node in ast.walk(solve) if isinstance(node, ast.Call)]
    assert sorted(call for call in calls if "field" in call) == [
        "_initial_step(field, y0, (v1, v2, a1, a2), direction, abs(t_bound - t0), max_step, "
        "rtol, atol)",
        "_make_field(params)", "field(w1, w2)", "field(w1_new, w2_new)"]


def test_the_rendered_source_survives_a_cleared_line_cache():
    # linecache cannot read a "<...>" file back once its entry is gone.
    linecache.clearcache()
    assert inspect.getsource(dynamics.solve_ivp) in dynamics._SOLVE_IVP_SOURCE
    assert inspect.getsource(dynamics._make_field) in dynamics._SOLVE_IVP_SOURCE
    # p < 1 puts a negative power on |w1| = 0, which the field's call at t0
    # raises on.
    settings = IntegratorSettings(t_span=(0.0, 1.0))
    with pytest.raises(ZeroDivisionError) as info:
        dynamics.solve_ivp(replace(P3, p=0.5), 0.0, (0.0, 1.0, 1.0, 1.0), 1.0, settings,
                           "signed")
    linecache.clearcache()
    tb = "".join(traceback.format_tb(info.tb))
    assert "\n    a1, a2 = field(w1, w2)\n" in tb and "\n    P1 = m1**p1\n" in tb


def test_a_failing_stage_is_quoted_from_the_rendered_source():
    # A fault at the second stage, the first the trial step evaluates: the
    # traceback quotes that stage's rendered line, at its place in the source.
    line = "b1_2 = d2 * x1 - (mu1 * X1 + beta * X2) * P1"
    solve_ivp = _faulty_solve_ivp(line, line + " / 0.0")
    settings = IntegratorSettings(t_span=(0.0, 1.0))
    with pytest.raises(ZeroDivisionError) as info:
        solve_ivp(P3, 0.0, (1.0, 1.0, 1.0, 1.0), 1.0, settings, "signed")
    frame = next(f for f in traceback.extract_tb(info.tb) if f.name == "solve_ivp")
    assert frame.line == line
    source = dynamics._SOLVE_IVP_SOURCE.splitlines()
    start = source.index(inspect.getsource(dynamics.solve_ivp).splitlines()[0])
    first = dynamics.solve_ivp.__code__.co_firstlineno
    assert source[start + frame.lineno - first].strip() == line
    assert f"\n    {line}\n" in "".join(traceback.format_tb(info.tb))


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
    args = (params, state.t, tuple(state.as_array()), span, settings, mode)
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


#: Runs paused and resumed: (params, initial state, t_bound, mode,
#: blowup_threshold, the uninterrupted run's end).
RESUME_CASES = {
    "signed": (P3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3), 10.0, "signed", 1e3, (0, None)),
    "signed_backward": (P3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3), -10.0, "signed", 1e3,
                        (0, None)),
    "positive_from_rest": (P3, bubble_fowler(P3, 1.0, 0.0), 20.0, "positive", 1e3, (0, None)),
    "signed_from_rest": (P5, FowlerState(0.0, 0.5, 0.4, 0.0, 0.0), 10.0, "signed", 1e3,
                         (0, None)),
    "positivity_loss": (P5, DIFFERENTIAL_CASES["near_cylinder_n5"][1], -20.0, "positive", 1e3,
                        (1, ("PositivityLoss", 1))),
    "blowup": (P5, FowlerState(0.0, 0.5, 0.4, 2.5, -1.0), 20.0, "signed", 3.0,
               (1, ("BlowUp", None))),
}


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(RESUME_CASES))
def test_a_run_paused_every_k_nodes_resumes_exactly(name, k):
    # Each chunk stops at its k-th new node and the next resumes from there
    # with the step the controller proposed (Segment.h): the joined chunks
    # are the uninterrupted run, float for float, and their nfev sum to its.
    params, state, t_bound, mode, threshold, end = RESUME_CASES[name]
    settings = IntegratorSettings(t_span=(-abs(t_bound), abs(t_bound)),
                                  blowup_threshold=threshold)
    full = dynamics.solve_ivp(params, state.t, tuple(state.as_array().tolist()), t_bound,
                              settings, mode)
    assert (full.status, full.event) == end and len(full.t) > 3 * k
    chunks = [dynamics.solve_ivp(params, state.t, tuple(state.as_array().tolist()), t_bound,
                                 settings, mode, stop=_stop_at_call(k, "Pause"))]
    # The loop asks the predicate before its t_bound test, so a pause on
    # t_bound ends the run there, as the whole run ends (status 0).
    while chunks[-1].event == ("Pause", None) and chunks[-1].t[-1] != t_bound:
        last = chunks[-1]
        assert len(last.t) == k + 1
        chunks.append(dynamics.solve_ivp(params, float(last.t[-1]),
                                         tuple(last.y[:, -1].tolist()), t_bound, settings, mode,
                                         stop=_stop_at_call(k, "Pause"), h=last.h))
    assert len(chunks) > 2

    def joined(name):
        parts = [getattr(c, name)[..., 1:] for c in chunks[1:]]
        return np.concatenate([getattr(chunks[0], name), *parts], axis=-1)

    for name in ("t", "y", "acc"):
        got, want = joined(name), getattr(full, name)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    last = chunks[-1]
    ended = (0, None) if last.event == ("Pause", None) else (last.status, last.event)
    assert (*ended, last.h) == (full.status, full.event, full.h)
    assert sum(c.nfev for c in chunks) == full.nfev
    assert all(c.nfev % 12 == 0 for c in chunks[1:])


def test_a_resumed_run_at_rest_takes_no_first_step_rule():
    # A fresh run from rest grows its first step by the full factor; a run
    # resumed there grows the step it is given by its error norm, which a
    # step of 0.1 makes more than rounding noise.
    settings = IntegratorSettings(t_span=(-10.0, 10.0))
    y0 = (0.5, 0.4, 0.0, 0.0)
    fresh = dynamics.solve_ivp(P5, 0.0, y0, 10.0, settings, "signed")
    assert fresh.t[2] - fresh.t[1] == 10.0 * fresh.t[1]
    resumed = dynamics.solve_ivp(P5, 0.0, y0, 10.0, settings, "signed", h=0.1)
    assert resumed.t[1] == 0.1 and 0.1 < resumed.t[2] - resumed.t[1] < 0.5
    assert resumed.nfev % 12 == 0


@pytest.mark.parametrize("backward", [False, True])
def test_stop_predicate_sees_the_old_and_the_new_node(backward):
    params, state, span, mode, _ = DIFFERENTIAL_CASES["signed_crossing_n3"]
    settings = IntegratorSettings(t_span=(-span, span))
    calls = []
    seg = dynamics.solve_ivp(params, state.t, tuple(state.as_array()),
                             -span if backward else span, settings, mode,
                             stop=lambda *node: calls.append(node))
    t, (w1, w2, v1, _) = seg.t.tolist(), seg.y.tolist()
    assert seg.status == 0 and len(t) > 10
    assert calls == [(t[k + 1], w1[k], w2[k], v1[k], w1[k + 1], w2[k + 1], v1[k + 1])
                     for k in range(len(t) - 1)]


def test_stop_labels_never_become_events():
    # Both sides stopped early by a predicate, at the 40th of about 68
    # nodes: the trajectory carries only the crossings between its own
    # nodes, and no event of the predicate's label.
    params, state, span, mode, _ = DIFFERENTIAL_CASES["signed_crossing_n3"]
    settings = IntegratorSettings(t_span=(-span, span))

    def solve(t0, start):
        return tuple(dynamics.solve_ivp(params, t0, start, bound, settings, mode,
                                        stop=_stop_at_call(40, "Probe"))
                     for bound in (span, -span))

    traj = dynamics._two_sided(params, state, settings, mode, solve)
    full = integrate(params, state, settings, mode=mode)
    assert full.t_min < traj.t_min and traj.t_max < full.t_max
    assert len(traj.t) == 81
    assert traj.events and all(e.kind == "SignChange" for e in traj.events)
    assert traj.failure is None


def test_blowup_takes_precedence_over_the_stop_predicate():
    # On w = e^t the step that crosses blowup_threshold also satisfies the
    # predicate; BlowUp is located and refined as without a predicate.
    settings = IntegratorSettings(t_span=(0.0, 10.0))
    threshold = settings.blowup_threshold
    args = (LINEAR, 0.0, (1.0, 1.0, 1.0, 1.0), 10.0, settings, "signed")
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
    forward = dynamics.solve_ivp(params, 0.0, y0, t_end, settings, "signed")
    backward = dynamics.solve_ivp(params, 0.0, y0, -t_end, settings, "signed")
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

    def solve(t0, start):
        return (dynamics.solve_ivp(params, t0, start, t_hi, settings, mode),
                dynamics.solve_ivp(params, t0, start, t_lo, settings, mode))

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


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_the_bubble_apex_is_at_rest_and_its_orbit_runs_once(N, monkeypatch):
    # bubble_fowler's apex velocities are +0.0, not -0.0, so the bubble
    # orbit is its forward run and that run mirrored.
    params = make_params(N, 1.0, 1.0, 1.0)
    apex = bubble_fowler(params, 1.0, 0.0)
    assert not np.signbit([apex.t, apex.dw1, apex.dw2]).any()
    calls = []
    inner = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a: calls.append(a[3]) or inner(*a))
    for mode in ("positive", "signed"):
        calls.clear()
        integrate(params, apex, IntegratorSettings(t_span=(-20.0, 20.0)), mode=mode)
        assert calls == [20.0]


#: (initial data, mode, blowup_threshold, stop predicate): signed orbits
#: that start in each sign quadrant and cross an axis, a PositivityLoss end,
#: a BlowUp end, and the stop rule of the shooting trials.
INLINE_CASES = {
    "signed": ((0.5, 0.5, 0.3, -0.3), "signed", 1e3, None),
    "signed_neg_w1": ((-0.5, 0.4, 0.2, -0.3), "signed", 1e3, None),
    "signed_neg_w2": ((0.4, -0.5, -0.3, 0.2), "signed", 1e3, None),
    "signed_neg_both": ((-0.4, -0.6, 0.2, 0.5), "signed", 1e3, None),
    "positivity_loss": ((0.5, 0.5, -1.0, 0.2), "positive", 1e3, None),
    "blowup": ((0.5, 0.4, 2.5, -1.0), "signed", 1.5, None),
    "stop": ((1.2, 1.0, 0.0, 0.0), "signed", 1e3, _first_turn),
}


@pytest.mark.parametrize("N", sorted(MIRROR_PARAMS))
@pytest.mark.parametrize("name", sorted(INLINE_CASES))
@pytest.mark.parametrize("backward", [False, True])
def test_inline_field_equals_the_field_call(N, name, backward):
    # Every node's acceleration, written out by the step loop or, at an
    # event node, the field's call, is the signed formula's, bit for bit, on
    # and off the positive cone.
    params = MIRROR_PARAMS[N]
    y0, mode, threshold, stop = INLINE_CASES[name]
    settings = IntegratorSettings(t_span=(-10.0, 10.0), blowup_threshold=threshold)
    seg = dynamics.solve_ivp(params, 0.0, y0, -10.0 if backward else 10.0, settings, mode,
                             stop)
    w1, w2 = seg.y[:2].tolist()
    want = np.array([_signed_field(params, a, b) for a, b in zip(w1, w2)]).T
    assert _same_floats(seg.acc, want)
    # Each case reaches the end it is named for.
    if name.startswith("signed"):
        quadrants = set(zip(np.signbit(w1).tolist(), np.signbit(w2).tolist()))
        assert seg.status == 0 and len(quadrants) > 1
    elif name == "stop":
        assert seg.event in (("SignChange", None), ("LocalMin", None))
    else:
        assert seg.event[0] == {"positivity_loss": "PositivityLoss", "blowup": "BlowUp"}[name]


def test_the_inline_field_lines_are_solve_ivps():
    # _make_field's body, each stage point and the new node are the same
    # lines of _stage_field.
    source = dynamics._SOLVE_IVP_SOURCE
    indent = "\n" + " " * 8
    assert indent + indent.join(dynamics._stage_field("x", "y", "b1", "b2")) + "\n" in source
    indent = "\n" + " " * 16
    names = [("x1", "x2", f"b1_{k}", f"b2_{k}") for k in range(2, 13)]
    for point in names + [("w1_new", "w2_new", "a1_new", "a2_new")]:
        lines = dynamics._stage_field(*point)
        assert indent + indent.join(lines) + "\n" in source


#: Signed node values: both zeros, the subnormal and normal edges, and
#: floats of every size (the largest overflow a power).
SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("N", sorted(MIRROR_PARAMS))
@given(w1=SIGNED_FLOATS, w2=SIGNED_FLOATS)
@example(w1=-1.0, w2=0.0)
@example(w1=-1.0, w2=-0.0)
@example(w1=5e-324, w2=-5e-324)
@example(w1=-1e300, w2=0.5)
@example(w1=0.0, w2=5.643803094122362e102)
@example(w1=-0.0, w2=-1e300)
@hypothesis_settings(max_examples=300, deadline=None)
def test_inline_field_equals_the_field_call_at_any_signed_point(N, w1, w2):
    params = MIRROR_PARAMS[N]
    got = _outcome(_make_field(params), w1, w2)
    want = _outcome(functools.partial(_signed_field, params), w1, w2)
    assert _same_outcome(got, want), (w1, w2, got, want)


def test_an_exact_zero_acceleration_keeps_its_sign():
    # delta = mu1 = 1: the terms of w1'' cancel exactly at (-1, 0), where the
    # signed formula gives +0.0 and -b, not 0.0 - b, would give -0.0.
    params = MIRROR_PARAMS[4]
    assert params.delta == params.mu1 == 1.0
    field = _make_field(params)
    for w2 in (0.0, -0.0):
        got = field(-1.0, w2)
        assert got[0] == 0.0 and not math.copysign(1.0, got[0]) < 0.0
        assert _same_floats(np.array(got), np.array(_signed_field(params, -1.0, w2)))
