import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fowlerlab import (
    BLOW_UP,
    BOTH_SINGULAR,
    ENTIRE,
    INCONCLUSIVE,
    SIGN_CHANGING,
    FowlerState,
    IntegratorSettings,
    bubble_amplitude,
    bubble_fowler,
    classify,
    cylinder_state,
    integrate,
    make_params,
    monitor,
    shoot_entire,
)
from fowlerlab.classify import (DECAY_RTOL, MIN_SIDE_COVER, _WINDOW_SAMPLES, _decay_fits,
                                _row_medians, _window_sample)
from fowlerlab.errors import InsufficientWindow
from fowlerlab.experiments import _SEMI_SPEC, InitialData, _collect_draws
from fowlerlab.params import _amplitudes_for_ratio, _ratio_roots, cylinder_amplitudes

mpmath.mp.dps = 50

#: K of the symmetric N=3 cylinder: 4*pi * (-(1/12)/sqrt(2)) = -pi/(3 sqrt 2).
CYL_K_N3 = float(-mpmath.pi / (3 * mpmath.sqrt(2)))


def decay_rate(params, traj, component, end):
    """The fitted decay rate classify records for one component and end."""
    return classify(params, traj).evidence["decay"][f"{end}{component}"][0]


def band(params, traj):
    """Two-sided constants (C1, C2) of a both-singular candidate: the window
    extremes of min(w1, w2) and max(w1, w2) that classify records."""
    result = classify(params, traj)
    assert result.verdict == BOTH_SINGULAR
    return min(result.evidence["inf_w"]), max(result.evidence["sup_w"])


def proportionality_probe(traj):
    """Worst relative deviation of w1/w2 from its median over the window.

    Zero (to roundoff) exactly when the orbit is a constant multiple of a
    shared profile; strictly positive otherwise.
    """
    w1, w2 = _window_sample(traj)
    ratio = w1 / w2
    m = float(np.median(ratio))
    return float(np.max(np.abs(ratio - m)) / abs(m))


def median_fits(traj, end):
    """_decay_fits as first written, one np.median per component and
    quantity: the oracle for the stacked medians."""
    cover = (traj.t_max - traj.t_initial) if end == "+" else (traj.t_initial - traj.t_min)
    if cover < MIN_SIDE_COVER:
        short = InsufficientWindow(f"side {end} covers {cover:.3g} < {MIN_SIDE_COVER} units of t")
        return [short, short]
    third = (traj.t_max - traj.t_min) / 3.0
    nodes = traj.t >= traj.t_max - third if end == "+" else traj.t <= traj.t_min + third
    sign = 1.0 if end == "+" else -1.0
    fits = []
    for w, dw in zip(traj.y[:2, nodes], traj.y[2:, nodes]):
        if np.any(w <= 0.0):
            fits.append(InsufficientWindow("component not positive on the fit region"))
            continue
        rate = -sign * float(np.median(dw / w))
        fits.append([rate, math.exp(float(np.median(np.log(w) + rate * sign * traj.t[nodes])))])
    return fits


def _fit_bits(fit):
    if isinstance(fit, InsufficientWindow):
        return str(fit)
    return np.array(fit).tobytes()


class TestClassify:
    def test_bubble_is_entire(self, p3, bubble_traj):
        result = classify(p3, bubble_traj, monitor(p3, bubble_traj))
        assert result.verdict == ENTIRE
        assert abs(result.K_value) < 1e-8
        assert result.evidence["anomaly"] is False

    def test_every_coupling_pair_is_entire(self):
        # Claim 4 with each of the three pairs (k, l) of N = 3, mu = 1,
        # beta = 3 (ratios 0.381966, 1, 2.61803): the bubble (kU, lU) from
        # its closed-form apex stays positive and decays at delta on the right.
        p = make_params(3, 1.0, 1.0, 3.0)
        apex = bubble_amplitude(3) * 2.0**-p.delta
        for s in _ratio_roots(p):
            k, l = _amplitudes_for_ratio(p, s, 1.0)
            traj = integrate(p, FowlerState(0.0, k * apex, l * apex, 0.0, 0.0),
                             IntegratorSettings(t_span=(-32.0, 32.0)), mode="positive")
            result = classify(p, traj)
            assert result.verdict == ENTIRE
            for comp in (1, 2):
                rate = result.evidence["decay"][f"+{comp}"][0]
                assert abs(rate - p.delta) <= DECAY_RTOL * p.delta

    def test_cylinder_is_both_singular(self, p3, cylinder_traj):
        result = classify(p3, cylinder_traj)
        assert result.verdict == BOTH_SINGULAR
        assert result.K_value == pytest.approx(CYL_K_N3, rel=1e-12)

    def test_positive_energy_changes_sign(self, p3):
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-50.0, 50.0)), mode="signed")
        result = classify(p3, traj)
        assert result.verdict == SIGN_CHANGING
        assert result.K_value > 0

    def test_positivity_loss_counts_as_sign_changing(self, p3):
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-50.0, 50.0)))
        result = classify(p3, traj)
        assert result.verdict == SIGN_CHANGING
        assert result.evidence.get("positivity_loss")

    def test_blowup_verdict(self, p3):
        traj = integrate(p3, FowlerState(0.0, 2000.0, 2000.0, 0.0, 0.0))
        assert classify(p3, traj).verdict == BLOW_UP

    def test_perturbed_cylinder_both_singular(self, p3, perturbed_traj):
        result = classify(p3, perturbed_traj, monitor(p3, perturbed_traj))
        assert result.verdict == BOTH_SINGULAR
        assert result.K_value < 0

    def test_no_positive_energy_orbit_survives_full_window(self, p3):
        # Negative direction of the invariant-sign theorem at monitor level:
        # positive data with positive energy never yields a certified
        # positive full-window orbit; in positivity-constrained mode every
        # such run terminates at the floor.
        rng = np.random.default_rng(414)
        checked = 0
        while checked < 20:
            a = rng.uniform(0.1, 1.0, size=2)
            b = rng.uniform(-1.0, 1.0, size=2)
            state = FowlerState(0.0, a[0], a[1], b[0], b[1])
            p = make_params(3, 1, 1, 1)
            from fowlerlab import psi as psi_fn

            if psi_fn(p, state) <= 1e-3:
                continue
            traj = integrate(p, state, IntegratorSettings(t_span=(-50.0, 50.0)))
            assert any(e.kind in ("BlowUp", "PositivityLoss") for e in traj.events)
            assert classify(p, traj).verdict == SIGN_CHANGING
            checked += 1

    def test_a_failed_integration_is_inconclusive(self, p3):
        # Tolerances no step can meet: the run stops at its first node, and
        # a constant window sample would pass for a both-singular orbit.
        settings = IntegratorSettings(rel_tol=1e-300, abs_tol=1e-300)
        traj = integrate(p3, cylinder_state(p3)[0], settings)
        assert traj.failure == "StepSizeUnderflow" and traj.t.size == 1
        result = classify(p3, traj)
        assert result.verdict == INCONCLUSIVE
        assert result.evidence["failure"] == "StepSizeUnderflow"
        assert "inf_w" not in result.evidence and "decay" not in result.evidence

    def test_a_failed_integration_keeps_its_witnessed_event(self, p3):
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-50.0, 50.0)), mode="signed")
        result = classify(p3, replace(traj, failure="StepSizeUnderflow"))
        assert result.verdict == SIGN_CHANGING
        assert result.evidence["failure"] == "StepSizeUnderflow"

    def test_verdict_stability(self, p3):
        # Closed-form orbits keep their verdicts under halved tolerances and
        # a doubled window.
        base = IntegratorSettings(t_span=(-10.0, 10.0))
        refined = IntegratorSettings(
            rel_tol=0.5e-10, abs_tol=0.5e-12, t_span=(-20.0, 20.0)
        )
        for state, expected in (
            (bubble_fowler(p3, 1.0, 0.0), ENTIRE),
            (cylinder_state(p3)[0], BOTH_SINGULAR),
        ):
            for settings in (base, refined):
                traj = integrate(p3, state, settings)
                assert classify(p3, traj).verdict == expected


class TestDecayRate:
    def test_bubble_rate_both_sides(self, bubble_traj, p3):
        for comp in (1, 2):
            for end in ("+", "-"):
                rate = decay_rate(p3, bubble_traj, comp, end)
                assert rate == pytest.approx(p3.delta, rel=0.01)

    def test_a_fitted_orbit_is_sampled_once_on_the_window_grid(self, bubble_traj, p3,
                                                               monkeypatch):
        # The decay fits read the nodes; the one sample is the window's, for
        # the extremes.
        sampled, inner = [], type(bubble_traj).sample

        def sample(self, tq, **kw):
            sampled.append((float(np.min(tq)), float(np.max(tq)), np.size(tq)))
            return inner(self, tq, **kw)

        monkeypatch.setattr(type(bubble_traj), "sample", sample)
        fits = classify(p3, bubble_traj).evidence["decay"]
        assert sampled == [(bubble_traj.t_min, bubble_traj.t_max, _WINDOW_SAMPLES)]
        assert all(fits[key] is not None for key in ("+1", "+2", "-1", "-2"))

    def test_bubble_rates_are_the_median_of_delta_tanh_at_the_nodes(self, p3, bubble_traj):
        # The bubble w = c (2 cosh t)^(-delta) has local rate delta tanh |t|
        # toward either end, so each fit must read the median of that over
        # the same nodes, and its amplitude c = w(0) 2^delta.  Measured: the
        # rates within 2.2e-7 relative, the amplitudes within 1.1e-6 (the
        # rate's offset times |t| of about 15).
        t = bubble_traj.t
        c = bubble_traj.y[0, t.searchsorted(0.0)] * 2.0**p3.delta
        third = (bubble_traj.t_max - bubble_traj.t_min) / 3.0
        for end, ts in (("+", t[t >= bubble_traj.t_max - third]),
                        ("-", t[t <= bubble_traj.t_min + third])):
            exact = float(np.median(p3.delta * np.tanh(np.abs(ts))))
            for rate, amplitude in _decay_fits(bubble_traj, end):
                assert rate == pytest.approx(exact, rel=5e-7)
                assert amplitude == pytest.approx(c, rel=5e-6)

    def test_cylinder_rate_is_zero(self, p3, cylinder_traj):
        assert abs(decay_rate(p3, cylinder_traj, 1, "+")) < 1e-6
        assert abs(decay_rate(p3, cylinder_traj, 2, "-")) < 1e-6

    def test_perturbed_cylinder_rate_small(self, p3, perturbed_traj):
        # Oracle: the dense range of log w is bounded, so its local rate
        # oscillates about zero and its median stays far below delta.
        ts = np.linspace(perturbed_traj.t_min, perturbed_traj.t_max, 10000)
        w1 = perturbed_traj.sample(ts)[0]
        spread = np.ptp(np.log(w1))
        assert spread < 0.02
        assert abs(decay_rate(p3, perturbed_traj, 1, "+")) < 5e-2

    def test_insufficient_window(self, p3):
        state, _ = cylinder_state(p3)
        short = integrate(p3, state, IntegratorSettings(t_span=(-4.0, 4.0)))
        evidence = classify(p3, short).evidence
        assert evidence["decay"]["+1"] is None
        assert ["+", 1, "side + covers 4 < 10.0 units of t"] in evidence["fit_errors"]

    def test_fits_equal_one_median_per_component(self, p3, bubble_traj):
        # The stacked medians must give today's formula's floats, bit for
        # bit, on semi-search draws, archive-sweep-grid orbits, default
        # shoots, and orbits where some component is not positive on one
        # end's fit region.
        window = IntegratorSettings(t_span=(-15.0, 15.0))
        orbits = []
        for N, beta in ((4, 0.5), (5, 1.0), (6, 0.3)):
            params = make_params(N, 1.0, 1.0, beta)
            draws, _ = _collect_draws(params, _SEMI_SPEC, 4, 3)
            orbits += [integrate(params, data.state(), window) for _, data in draws]
        rng = np.random.default_rng(7)
        cylinder = np.array(cylinder_amplitudes(make_params(4, 1.0, 1.0, 1.0)))
        sigma = 0.05 * float(np.linalg.norm(cylinder))
        for beta in (1.0, 0.7):
            params = make_params(4, 1.0, 1.0, beta)
            for _ in range(4):
                values = (*(cylinder + rng.normal(0.0, sigma, 2)), *rng.normal(0.0, sigma, 2))
                orbits.append(integrate(params, InitialData.from_values(params, *values).state(),
                                        window))
        for N, beta in ((3, 1.0), (4, 2.0), (5, 1.0)):
            orbits.append(shoot_entire(make_params(N, 1.0, 1.0, beta))[1])
        plus = bubble_traj.t >= bubble_traj.t_max - (bubble_traj.t_max - bubble_traj.t_min) / 3.0
        for rows, value in (([1], -1e-3), ([0], 0.0), ([0, 1], -1e-3)):
            y = bubble_traj.y.copy()
            y[np.ix_(rows, np.flatnonzero(plus)[[3]])] = value
            orbits.append(replace(bubble_traj, y=y))
        kinds = []
        for traj in orbits:
            for end in ("+", "-"):
                fits, expected = _decay_fits(traj, end), median_fits(traj, end)
                assert list(map(_fit_bits, fits)) == list(map(_fit_bits, expected))
                kinds.append(tuple(isinstance(fit, list) for fit in fits))
        assert kinds.count((True, True)) >= 40
        assert kinds.count((True, False)) == kinds.count((False, True)) == 1

    def test_row_medians_are_np_median(self):
        values = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0,
                           2.0, 0.1, 5e-324, 1e308, -1e308])
        rng = np.random.default_rng(0)
        for _ in range(3000):
            x = rng.choice(values, size=(rng.integers(0, 3), rng.integers(1, 8)))
            with np.errstate(all="ignore"):
                assert _row_medians(x).tobytes() == np.median(x, axis=1).tobytes(), x

    def test_truncated_side_rejected(self, p3):
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-50.0, 50.0)))
        assert any(e.kind in ("BlowUp", "PositivityLoss") for e in traj.events)
        # classify fits no side of a terminated orbit; the fit alone
        # refuses this side too, which ends at t = 1.93.
        assert "decay" not in classify(p3, traj).evidence
        refused = _decay_fits(traj, "+")
        assert all(isinstance(fit, InsufficientWindow) for fit in refused)
        assert [str(fit) for fit in refused] == ["side + covers 1.93 < 10.0 units of t"] * 2


class TestSharpConstants:
    def test_cylinder_degenerate_band(self, p3, cylinder_traj):
        c1, c2 = band(p3, cylinder_traj)
        c = (1.0 / 8.0) ** 0.25
        assert c1 == pytest.approx(c, abs=1e-9)
        assert c2 == pytest.approx(c, abs=1e-9)
        assert c2 / c1 == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_cylinder_band(self, p3, perturbed_traj):
        c1, c2 = band(p3, perturbed_traj)
        assert 0 < c1 < c2
        assert c2 / c1 > 1.0
        assert c2 <= max(p3.lam) + 1e-6
        # Oracle: direct min/max over a dense sample grid.
        ts = np.linspace(perturbed_traj.t_min, perturbed_traj.t_max, 2000)
        w1, w2 = perturbed_traj.sample(ts)[:2]
        assert c1 == pytest.approx(min(w1.min(), w2.min()), rel=1e-12)
        assert c2 == pytest.approx(max(w1.max(), w2.max()), rel=1e-12)
        assert np.all(w1 >= c1) and np.all(w2 >= c1)
        assert np.all(w1 <= c2) and np.all(w2 <= c2)


class TestProportionality:
    def test_bubble_exactly_proportional(self, bubble_traj):
        assert proportionality_probe(bubble_traj) < 1e-9

    def test_symmetric_cylinder_proportional(self, cylinder_traj):
        assert proportionality_probe(cylinder_traj) < 1e-9

    def test_one_sided_perturbation_detected(self, perturbed_traj):
        assert proportionality_probe(perturbed_traj) > 1e-4

    def test_asymmetric_equilibrium_still_proportional(self):
        # Different component amplitudes, but constant ratio.
        p = make_params(5, 1.0, 2.0, 1.0)
        state, _ = cylinder_state(p)
        traj = integrate(p, state, IntegratorSettings(t_span=(-10.0, 10.0)))
        assert proportionality_probe(traj) < 1e-9
