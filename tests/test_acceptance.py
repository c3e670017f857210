"""Acceptance gate: each test exercises one advertised guarantee end to end
at its stated tolerance and prints one PASS line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import mpmath
import numpy as np
import pytest

from fowlerlab import (
    BOTH_SINGULAR,
    ENTIRE,
    FowlerState,
    IntegratorSettings,
    SamplerSpec,
    bubble_fowler,
    classify,
    cylinder_amplitudes,
    cylinder_state,
    integrate,
    make_params,
    monitor,
    pohozaev_system,
    psi,
    semi_singular_search,
    shoot_entire,
    sign_change_experiment,
    sweep,
    to_radial,
)
from fowlerlab.experiments import draw_initial
from fowlerlab.invariants import f_arrays
from fowlerlab.serialize import dumps, experiment_report_to_dict

mpmath.mp.dps = 50

SEED = 20260809
SPAN20 = IntegratorSettings(t_span=(-20.0, 20.0))


def _ok(number, name, detail=""):
    print(f"ACCEPTANCE {number} ({name}): PASS {detail}")


def _bounded_orbits(p3, n, seed):
    """n certified bounded orbits from near-equilibrium draws (N=3 is fully
    elliptic at these coefficients, so every admissible draw stays bounded)."""
    spec = SamplerSpec(kind="near_cylinder", projection="psi_negative")
    orbits = []
    index = 0
    while len(orbits) < n:
        data, _ = draw_initial(p3, spec, seed, index)
        index += 1
        if data is None:
            continue
        orbits.append(integrate(p3, data.state(), SPAN20))
    return orbits


@pytest.fixture(scope="module")
def p3():
    return make_params(3, 1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def bubble20(p3):
    return integrate(p3, bubble_fowler(p3, 1.0, 0.0), SPAN20)


@pytest.fixture(scope="module")
def cylinder20(p3):
    return integrate(p3, cylinder_state(p3)[0], SPAN20)


@pytest.fixture(scope="module")
def random_orbits(p3):
    return _bounded_orbits(p3, 50, SEED)


def test_01_energy_conservation(p3, bubble20, cylinder20, random_orbits):
    # Drift below 1e-8 * max(1, |psi0|) over [-20, 20] at default tolerances
    # for the closed forms and 50 random certified bounded orbits.
    worst = 0.0
    for traj in [bubble20, cylinder20, *random_orbits]:
        bound = 1e-8 * max(1.0, abs(traj.psi0))
        assert traj.failure is None
        assert traj.drift < bound
        assert traj.certified
        worst = max(worst, traj.drift / bound)
    _ok(1, "energy conservation", f"worst drift at {worst:.2e} of budget over 52 orbits")


def test_02_pohozaev_identity(p3, bubble20, cylinder20, random_orbits):
    # K(r; u, v) = sphere_area * Psi(t) to 1e-9 relative at 100 radii per orbit.
    worst = 0.0
    for traj in [bubble20, cylinder20, *random_orbits]:
        ts = np.linspace(traj.t_min, traj.t_max, 100)
        w1, w2, dw1, dw2 = traj.sample(ts)
        for i, t in enumerate(ts):
            state = FowlerState(float(t), w1[i], w2[i], dw1[i], dw2[i])
            r, u, v, du, dv = to_radial(p3, state)
            k_val = pohozaev_system(p3, r, (u, v, du, dv))
            target = p3.sphere_area * psi(p3, state)
            rel = abs(k_val - target) / max(1.0, abs(target))
            worst = max(worst, rel)
            assert rel < 1e-9
    _ok(2, "Pohozaev identity", f"worst relative mismatch {worst:.2e} at 5200 radii")


def test_03_cylinder_invariant_value():
    # Psi on the constant orbit matches -(delta^2/N)(C1^2 + C2^2) to 1e-12
    # absolute wherever the equilibrium exists.
    cases = [
        (3, 1.0, 1.0, 1.0), (4, 1.0, 1.0, 1.0), (5, 1.0, 1.0, 1.0), (6, 1.0, 1.0, 1.0),
        (3, 1.0, 2.0, 1.0), (5, 1.0, 2.0, 1.0), (6, 1.0, 2.0, 1.0),
        (4, 1.0, 2.0, 0.5), (4, 1.0, 2.0, 6.0), (6, 0.7, 1.3, 2.0),
    ]
    worst = 0.0
    for N, mu1, mu2, beta in cases:
        p = make_params(N, mu1, mu2, beta)
        state, energy = cylinder_state(p)
        c1, c2 = cylinder_amplitudes(p)
        closed = -(p.delta**2 / p.N) * (c1 * c1 + c2 * c2)
        value = psi(p, state)
        assert abs(value - closed) < 1e-12
        worst = max(worst, abs(value - closed))
    _ok(3, "cylinder invariant value", f"worst |psi - closed form| = {worst:.2e} over {len(cases)} cases")


def test_04_entire_solution_reproduction(p3, bubble20):
    # Integrated bubble: |Psi| < 1e-10 along the orbit, decay rate delta +- 1%
    # at both ends, EntireCandidate verdict; shooting recovers the apex to
    # 1e-6 relative for N in {3, 4, 5}.
    assert float(np.max(np.abs(bubble20.psi))) < 1e-10
    result = classify(p3, bubble20, monitor(p3, bubble20))
    for comp in (1, 2):
        for end in ("+", "-"):
            rate = result.evidence["decay"][f"{end}{comp}"][0]
            assert rate == pytest.approx(p3.delta, rel=0.01)
    assert result.verdict == ENTIRE

    errs = {}
    for N, mu1, mu2, beta in [(3, 1.0, 1.0, 1.0), (4, 1.0, 1.0, 2.0), (5, 1.0, 1.0, 1.0)]:
        p = make_params(N, mu1, mu2, beta)
        data, _ = shoot_entire(p)
        exact = bubble_fowler(p, 1.0, 0.0).w1
        rel = abs(data.a1 - exact) / exact
        assert rel < 1e-6
        errs[N] = rel
    _ok(4, "entire-solution reproduction",
        f"max|Psi|={float(np.max(np.abs(bubble20.psi))):.2e}, apex errors " +
        ", ".join(f"N={n}: {e:.1e}" for n, e in errs.items()))


def test_05_sign_change_theorem(p3):
    # Both sampled families (psi > 1e-3 and the psi = 0 surface with nonzero
    # determinant) must reach a 100% sign-change rate before |t| = 50.
    pos = sign_change_experiment(
        p3, SamplerSpec(kind="uniform_box", projection="psi_positive"),
        n_runs=100, seed=SEED, horizon=50.0,
    )
    zero = sign_change_experiment(
        p3, SamplerSpec(kind="uniform_box", projection="psi_zero"),
        n_runs=100, seed=SEED, horizon=50.0,
    )
    for report in (pos, zero):
        assert report.n_runs == 100
        assert report.failures == []
        assert report.summary["detection_rate"] == 1.0
    _ok(5, "sign-change theorem",
        f"200/200 detections, latest event |t|={max(pos.summary['max_abs_event_t'], zero.summary['max_abs_event_t']):.2f}")


def test_06_lemma_monitors_on_literal_solutions(p3, cylinder20):
    # Strictly positive margins for the amplitude bound, f-positivity, and
    # the gradient bound on the closed-form orbits.  The bubble monitor runs
    # on [-8, 8]: beyond |t| ~ 12 the true margins decay below the
    # double-precision noise of any integration.
    bubble8 = integrate(p3, bubble_fowler(p3, 1.0, 0.0),
                        IntegratorSettings(t_span=(-8.0, 8.0)))
    reports = {"bubble": monitor(p3, bubble8), "cylinder": monitor(p3, cylinder20)}
    for name, report in reports.items():
        assert all(report.f_positive) and all(report.lambda_bound)
        assert all(report.gradient_bound) and report.f_w_monotone_coupling
        assert min(report.f_margin) > 0.0
        assert min(report.lambda_margin) > 0.0
        assert min(report.gradient_margin) > 0.0

    # Literal lemma statements on literal solutions, sampled closed forms.
    ts = np.linspace(-15.0, 15.0, 401)
    c1, c2 = cylinder_amplitudes(p3)
    for t in ts:
        for state in (bubble_fowler(p3, 1.0, float(t)),
                      FowlerState(float(t), c1, c2, 0.0, 0.0)):
            f1, f2 = f_arrays(p3, state.w1, state.w2, state.dw1, state.dw2)
            assert state.w1 < p3.lam[0] and state.w2 < p3.lam[1]
            assert f1 > 0.0 and f2 > 0.0
            assert abs(state.dw1) < p3.delta * state.w1
            assert abs(state.dw2) < p3.delta * state.w2
    _ok(6, "lemma monitors",
        f"bubble margins f={reports['bubble'].f_margin[0]:.2e}, "
        f"grad={reports['bubble'].gradient_margin[0]:.2e}; 802 closed-form states")


def test_07_no_semi_singular_for_high_dimension():
    # 200 near-equilibrium draws per dimension; any SemiSingularCandidate
    # fails the suite.
    counts = {}
    for N, beta in [(4, 0.5), (5, 1.0), (6, 0.3)]:
        p = make_params(N, 1.0, 1.0, beta)
        report = semi_singular_search(
            p, n_runs=200, settings=IntegratorSettings(t_span=(-15.0, 15.0)),
            seed=SEED,
        )
        assert report.n_runs == 200
        assert report.summary["semi_singular_found"] == 0
        assert report.failures == []
        assert report.counts.get(BOTH_SINGULAR, 0) > 0
        assert report.summary["lower_bound_stat"]["min"] > 0.0
        counts[N] = dict(report.counts)
    _ok(7, "no semi-singular candidates (N >= 4)", f"600 draws, counts {counts}")


def test_08_sharp_estimate_constants():
    # 50 both-singular candidates per parameter set, drawn along the bounded
    # proportional manifold; the two-sided constants must satisfy C1 > 0 and
    # C2 <= max(lambda) + 1e-6.
    span12 = IntegratorSettings(t_span=(-12.0, 12.0))
    spec = SamplerSpec(kind="near_cylinder", projection="psi_negative", ray_fraction=1.0)
    for N, mu1, mu2, beta in [(5, 1.0, 1.0, 1.0), (4, 1.0, 1.0, 3.0)]:
        p = make_params(N, mu1, mu2, beta)
        found = 0
        index = 0
        ratios = []
        while found < 50:
            data, _ = draw_initial(p, spec, SEED, index)
            index += 1
            if data is None:
                continue
            traj = integrate(p, data.state(), span12)
            verdict = classify(p, traj)
            assert verdict.verdict == BOTH_SINGULAR
            # C1 and C2 are the window extremes of min(w1, w2) and max(w1, w2).
            c1 = min(verdict.evidence["inf_w"])
            c2 = max(verdict.evidence["sup_w"])
            assert c1 > 0.0
            assert c2 <= max(p.lam) + 1e-6
            ratios.append(c2 / c1)
            found += 1
        assert found == 50
    _ok(8, "sharp estimate constants", f"100 both-singular bands, max ratio {max(ratios):.3f}")


def test_09_radial_monotonicity(p3, bubble20, cylinder20):
    # Reconstructed radial derivatives strictly negative.  Closed-form states
    # are checked on |t| <= 15 (1 - tanh t underflows past ~18.8); integrated
    # nodes on |t| <= 8 where the margin exceeds integration noise.
    c1, c2 = cylinder_amplitudes(p3)
    for t in np.linspace(-15.0, 15.0, 401):
        for state in (bubble_fowler(p3, 1.0, float(t)),
                      FowlerState(float(t), c1, c2, 0.0, 0.0)):
            _, _, _, du, dv = to_radial(p3, state)
            assert du < 0.0 and dv < 0.0
    checked = 0
    for traj in (bubble20, cylinder20):
        for i, t in enumerate(traj.t):
            if abs(t) > 8.0:
                continue
            state = FowlerState(float(t), *traj.y[:, i])
            _, _, _, du, dv = to_radial(p3, state)
            assert du < 0.0 and dv < 0.0
            checked += 1
    _ok(9, "radial monotonicity", f"802 closed-form states, {checked} integrated nodes")


def test_10_determinism(p3):
    # Bit-identical reports for identical seed and spec; parallel == serial.
    cyl, _ = cylinder_state(p3)
    grid = [
        (cyl.w1, cyl.w2, 0.0, 0.0),
        (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0),
        (cyl.w1, cyl.w2 - 2e-3, 0.0, 0.01),
        (1500.0, 1.0, 0.0, 0.0),
    ]
    a = sweep([p3], grid, SPAN20, workers=1, seed=SEED)
    b = sweep([p3], grid, SPAN20, workers=1, seed=SEED)
    par = sweep([p3], grid, SPAN20, workers=2, seed=SEED)
    assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))
    assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(par))

    ra = sign_change_experiment(
        p3, SamplerSpec(kind="uniform_box", projection="psi_positive"),
        n_runs=10, seed=SEED,
    )
    rb = sign_change_experiment(
        p3, SamplerSpec(kind="uniform_box", projection="psi_positive"),
        n_runs=10, seed=SEED,
    )
    assert dumps(experiment_report_to_dict(ra)) == dumps(experiment_report_to_dict(rb))
    _ok(10, "determinism", "sweep serial == repeat == parallel; experiment JSON stable")
