import concurrent.futures
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowlerlab import (
    BOTH_SINGULAR,
    ENTIRE,
    FowlerState,
    InitialData,
    IntegratorSettings,
    SamplerSpec,
    bubble_fowler,
    classify,
    cylinder_state,
    integrate,
    make_params,
    monitor,
    psi,
    semi_singular_search,
    shoot_entire,
    sign_change_experiment,
    solve_coupling,
    sweep,
)
from fowlerlab import dynamics, experiments
from fowlerlab.errors import BracketFailure, DomainError
from fowlerlab.dynamics import _make_field
from fowlerlab.experiments import (
    _first_flip,
    _first_turn,
    _loses_sign,
    _project_psi_zero,
    draw_initial,
    shoot_settings,
)
from fowlerlab.serialize import dumps, experiment_report_to_dict, invariant_report_to_dict


def _refuses(*args, **kwargs):
    raise AssertionError("monitor called")


class TestInitialData:
    @given(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_matches_formula(self, a1, a2, b1, b2):
        p = make_params(4, 1.0, 1.0, 2.0)
        data = InitialData.from_values(p, a1, a2, b1, b2)
        assert data.psi0 == psi(p, data.state())

    def test_determinant(self):
        p = make_params(3, 1, 1, 1)
        data = InitialData.from_values(p, 1.0, 2.0, 3.0, 4.0)
        assert data.determinant() == 1.0 * 4.0 - 2.0 * 3.0


class TestSampler:
    def test_zero_draw_is_degenerate(self, p3):
        assert _project_psi_zero(p3, 0.0, 0.0, 0.0, 0.0) is None

    def test_projection_lands_on_surface(self, p3):
        scaled = _project_psi_zero(p3, 0.5, 0.4, 0.3, -0.2)
        assert scaled is not None
        data = InitialData.from_values(p3, 0.5, 0.4, *scaled)
        assert abs(data.psi0) < 1e-15

    def test_counter_keyed_draws_are_reproducible(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        a = draw_initial(p3, spec, seed=11, index=5)
        b = draw_initial(p3, spec, seed=11, index=5)
        assert a == b
        c = draw_initial(p3, spec, seed=11, index=6)
        assert c != a

    @pytest.mark.parametrize("spec", [{"projection": "psi_postive"}, {"kind": "box"}],
                             ids=["projection", "kind"])
    def test_unknown_kind_or_projection_rejected(self, spec):
        with pytest.raises(DomainError, match="unknown sampler"):
            SamplerSpec(**spec)

    def test_near_cylinder_positive_negative_energy(self, p5):
        spec = SamplerSpec(kind="near_cylinder", projection="psi_negative")
        found = 0
        for index in range(40):
            data, reason = draw_initial(p5, spec, seed=1, index=index)
            if data is None:
                continue
            found += 1
            assert data.a1 > 0 and data.a2 > 0
            assert data.psi0 < 0
        assert found > 30


class TestSignChange:
    def test_known_positive_energy_datum(self, p3):
        report = None
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        report = sign_change_experiment(p3, spec, n_runs=10, seed=42)
        assert report.n_runs == 10
        assert sum(report.counts.values()) == 10
        assert report.counts.get("SignChanging", 0) == 10
        assert report.failures == []
        assert report.summary["detection_rate"] == 1.0
        for run in report.runs:
            assert run["initial"][4] > 1e-3  # psi0 above the rejection floor
            assert abs(run["sign_change_t"]) <= 50.0

    def test_zero_surface_branch(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_zero")
        report = sign_change_experiment(p3, spec, n_runs=10, seed=42)
        assert report.failures == []
        for run in report.runs:
            assert abs(run["initial"][4]) < 1e-12  # projected onto psi = 0

    def test_rejections_are_logged(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_zero")
        report = sign_change_experiment(p3, spec, n_runs=25, seed=3)
        assert report.summary["rejected"].get("degenerate_projection", 0) > 0

    def test_requires_admissible_projection(self, p3):
        with pytest.raises(DomainError):
            sign_change_experiment(p3, SamplerSpec(projection="none"), n_runs=1)

    def test_proportional_zero_energy_data_never_changes_sign(self, p3):
        # Hypothesis sharpness: on the zero-energy surface with vanishing
        # determinant (proportional data matching the coupling pair), the
        # orbit is the entire one and stays positive.  The window keeps the
        # homoclinic tail above the double-precision noise floor (the true
        # orbit is ~1e-11 at |t| = 50, far below attainable accuracy).
        moved = bubble_fowler(p3, 1.0, 1.3)
        data = InitialData.from_values(p3, moved.w1, moved.w2, moved.dw1, moved.dw2)
        assert abs(data.psi0) < 1e-14
        assert abs(data.determinant()) < 1e-14
        traj = integrate(p3, data.state(),
                         IntegratorSettings(t_span=(-25.0, 25.0)), mode="signed")
        assert all(e.kind != "SignChange" for e in traj.events)
        assert float(np.min(traj.y[:2])) > 0.0

    def test_reports_crossing_nearest_zero(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        report = sign_change_experiment(p3, spec, n_runs=10, seed=0, horizon=50.0)
        several = 0
        for run in report.runs:
            # Reproduce the run's staged windows and collect every crossing
            # of the window in which the first one was found.
            data = InitialData.from_values(p3, *run["initial"][:4])
            for h in (12.5, 25.0, 50.0):
                traj = integrate(p3, data.state(), IntegratorSettings(t_span=(-h, h)),
                                 mode="signed")
                crossings = [e.t for e in traj.events if e.kind == "SignChange"]
                if crossings:
                    break
            assert abs(run["sign_change_t"]) == min(abs(t) for t in crossings)
            several += len(crossings) > 1
        assert several > 0
        assert report.summary["max_abs_event_t"] == max(
            abs(run["sign_change_t"]) for run in report.runs
        )

    @staticmethod
    def full_window_run(params, data, settings=None, horizon=50.0):
        """The staged rule the early exit replaced: windows of half-width
        horizon/4, /2 and 1, stopping at the first with a crossing or a
        terminal event; the run reports its crossing nearest t = 0."""
        base = settings if settings is not None else IntegratorSettings()
        for h in (horizon / 4.0, horizon / 2.0, horizon):
            traj = integrate(params, data.state(), replace(base, t_span=(-h, h)),
                             mode="signed")
            event = experiments._nearest_event(traj, "SignChange")
            if event is not None or any(e.kind in ("BlowUp", "PositivityLoss") for e in traj.events):
                break
        return traj, event

    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("projection", ["psi_positive", "psi_zero"])
    def test_early_exit_matches_full_window_rule(self, N, projection):
        params = make_params(N, 1.0, 1.0, 1.0)
        spec = SamplerSpec(kind="uniform_box", projection=projection)
        report = sign_change_experiment(params, spec, n_runs=8, seed=31)
        for run in report.runs:
            data = InitialData.from_values(params, *run["initial"][:4])
            traj, event = self.full_window_run(params, data)
            assert (run["sign_change_t"], run["sign_change_component"]) == (
                event.t, event.component
            )
            assert run["verdict"] == classify(params, traj).verdict

    def test_blowup_on_one_side_does_not_end_the_search(self, p3, monkeypatch):
        # Just above the zero-energy bubble (psi0 ~ 1.5e-9) the orbit leaves
        # a box of size 0.3 forward before any crossing, and crosses
        # backward only at t ~ -14.5: beyond the staged rule's first window,
        # which ended the search there with a BlowUp failure.
        bubble = bubble_fowler(p3, 1.0, -6.0)
        scale = 1.0 + 1e-6
        data = InitialData.from_values(p3, bubble.w1, bubble.w2,
                                       bubble.dw1 * scale, bubble.dw2 * scale)
        assert 1e-9 < data.psi0 < 2e-9
        settings = IntegratorSettings(blowup_threshold=0.3)
        stage, event = self.full_window_run(p3, data, settings)
        assert event is None and [e.kind for e in stage.events] == ["BlowUp"]
        assert classify(p3, stage).verdict == "BlowUp"

        monkeypatch.setattr(experiments, "_collect_draws", lambda *args: ([(0, data)], {}))
        report = sign_change_experiment(p3, SamplerSpec(projection="psi_positive"),
                                        n_runs=1, settings=settings, horizon=50.0)
        (run,) = report.runs
        assert run["verdict"] == "SignChanging" and report.failures == []
        assert run["sign_change_t"] == pytest.approx(-14.509, abs=1e-3)
        assert report.summary["detection_rate"] == 1.0

    @pytest.mark.parametrize("N", [3, 5])
    def test_cut_orbit_keeps_every_crossing_of_its_window(self, N):
        params = make_params(N, 1.0, 1.0, 1.0)
        settings = IntegratorSettings(t_span=(-50.0, 50.0))
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        several = 0
        for index in range(20):
            data, _ = draw_initial(params, spec, seed=17, index=index)
            if data is None:
                continue
            cut = experiments._crossing_trajectory(params, data, settings)
            full = integrate(params, data.state(), settings, mode="signed")
            # The cut orbit's nodes are a run of the full orbit's, bit for bit.
            first = int(np.searchsorted(full.t, cut.t_min))
            assert full.t[first:first + len(cut.t)].tolist() == cut.t.tolist()
            assert full.y[:, first:first + len(cut.t)].tolist() == cut.y.tolist()
            # So is every crossing between its ends (all |t| <= t_f when the
            # backward side ran that far), and the one nearest t = 0.
            inside = [e for e in full.events if cut.t_min <= e.t <= cut.t_max]
            assert list(cut.events) == inside
            nearest = experiments._nearest_event(cut, "SignChange")
            assert nearest is not None
            assert nearest == experiments._nearest_event(full, "SignChange")
            several += len(inside) > 1
        assert several > 0

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                              st.floats(allow_nan=False)), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_first_flip_equals_its_min_max_form(self, values):
        w1_old, w2_old, w1, w2 = values
        flips = (min(w1_old, w1) < 0.0 < max(w1_old, w1)
                 or min(w2_old, w2) < 0.0 < max(w2_old, w2))
        assert _first_flip(0.0, w1_old, w2_old, 0.0, w1, w2, 0.0) == (
            "SignChange" if flips else None)

    def test_determinism(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        a = sign_change_experiment(p3, spec, n_runs=6, seed=9)
        b = sign_change_experiment(p3, spec, n_runs=6, seed=9)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))


def _assert_is_integrate(params, settings, data, traj):
    """The shot orbit is integrate's orbit from the apex data, bit for bit,
    though a symmetric window integrates only its forward half."""
    ref = integrate(params, data.state(), settings, mode="signed")
    for name in ("t", "y", "acc", "psi"):
        got, want = getattr(traj, name), getattr(ref, name)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert (traj.events, traj.psi0, traj.drift) == (ref.events, ref.psi0, ref.drift)


class TestShootEntire:
    def test_recovers_bubble_apex_n3(self, p3):
        data, traj = shoot_entire(p3)
        _assert_is_integrate(p3, shoot_settings(p3), data, traj)
        exact = bubble_fowler(p3, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-6
        assert data.b1 == 0.0 and data.b2 == 0.0
        assert abs(data.psi0) < 1e-10
        assert all(e.kind != "SignChange" for e in traj.events)

    def test_apex_ratio_matches_coupling(self, p4b2):
        data, traj = shoot_entire(p4b2)
        _assert_is_integrate(p4b2, shoot_settings(p4b2), data, traj)
        exact = bubble_fowler(p4b2, 1.0, 0.0)
        assert data.a1 == pytest.approx(exact.w1, rel=1e-6)
        assert data.a2 / data.a1 == pytest.approx(exact.w2 / exact.w1, rel=1e-12)

    @staticmethod
    def full_window_rule(params):
        """The dichotomy as decided before early exit: integrate the whole
        forward window and look for any sign change.  It hands back no trial
        run."""
        def loses_sign(fun, apex_w1, ratio, t_end, integrator):
            state = FowlerState(0.0, apex_w1, ratio * apex_w1, 0.0, 0.0)
            traj = integrate(params, state, replace(integrator, t_span=(0.0, t_end)),
                             mode="signed")
            return any(e.kind == "SignChange" for e in traj.events), None

        return loses_sign

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_early_exit_agrees_with_full_window_rule(self, case):
        params = make_params(case[0], 1.0, 1.0, case[1])
        kl = solve_coupling(params)
        ratio = kl.l / kl.k
        integrator = shoot_settings(params)
        t_end = integrator.t_span[1]
        fun = _make_field(params)
        exact = bubble_fowler(params, 1.0, 0.0).w1
        # The shooting bracket's endpoints, then apexes closing in on the
        # homoclinic one from both sides.
        apexes = [0.05 * kl.k * params.lam[0], params.lam[0]] + [
            exact * (1.0 + sign * 2.0**-k)
            for k in (2, 8, 16, 24, 32, 40, 48) for sign in (-1.0, 1.0)
        ]
        old_rule = self.full_window_rule(params)
        results = [_loses_sign(fun, apex, ratio, t_end, integrator) for apex in apexes]
        decisions = [loses for loses, _ in results]
        assert decisions == [old_rule(fun, apex, ratio, t_end, integrator)[0]
                             for apex in apexes]
        assert decisions[:4] == [False, True, False, True]
        # Each trial ends at the event it reports: a negative component, or
        # the first minimum of w1 (w1' rising through zero on the last step).
        for apex, (_, seg) in zip(apexes, results):
            ref = dynamics.solve_ivp(fun, 0.0, (apex, ratio * apex, 0.0, 0.0), t_end,
                                     integrator, "signed", _first_turn)
            assert np.array_equal(seg.y, ref.y) and seg.event == ref.event
            if seg.event == ("SignChange", None):
                assert min(seg.y[0, -1], seg.y[1, -1]) < 0.0
            elif seg.event == ("LocalMin", None):
                assert seg.y[2, -2] < 0.0 <= seg.y[2, -1]
            else:
                assert seg.status == 0 and seg.t[-1] == t_end

    def test_shoot_with_full_window_rule_finds_the_same_apex(self, p5, monkeypatch):
        data, traj = shoot_entire(p5)
        _assert_is_integrate(p5, shoot_settings(p5), data, traj)
        full_window = self.full_window_rule(p5)
        verdicts = []

        def loses_sign(*args):
            # The full window's verdict with the early-exit trial's run, whose
            # window-end value places the next trial: both shoots place the
            # same trials when every verdict agrees.
            early, run = _loses_sign(*args)
            verdicts.append((full_window(*args)[0], early))
            return verdicts[-1][0], run

        monkeypatch.setattr(experiments, "_loses_sign", loses_sign)
        data_again, traj_again = shoot_entire(p5)
        assert data_again == data and len(verdicts) > 2
        assert all(full == early for full, early in verdicts)
        _assert_is_integrate(p5, shoot_settings(p5), data_again, traj_again)

    def test_apex_above_blowup_threshold_never_loses_sign(self, p5):
        # Such apex data end at once in BlowUp, so the bracket cannot close.
        low_box = replace(shoot_settings(p5), blowup_threshold=1.0)
        with pytest.raises(BracketFailure, match="no sign-losing apex"):
            shoot_entire(p5, low_box)

    def test_blowup_box_below_bracket_fails_at_once(self, p5, monkeypatch):
        # g ~ 1.60, its outward step and the upper end lam[0] ~ 2.69 all lie
        # outside a box of size 1: no trial integrates.
        calls, inner = [], dynamics.solve_ivp
        monkeypatch.setattr(dynamics, "solve_ivp", lambda *args: calls.append(args) or inner(*args))
        low_box = replace(shoot_settings(p5), blowup_threshold=1.0)
        with pytest.raises(BracketFailure, match="blowup_threshold=1.0"):
            shoot_entire(p5, low_box)
        assert calls == []

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_the_orbit_takes_no_run_of_its_own(self, case, monkeypatch):
        # One solve_ivp call per trial; the orbit's forward half is the last
        # trial that stayed positive, and its backward half that mirrored.
        params = make_params(case[0], 1.0, 1.0, case[1])
        settings = shoot_settings(params)
        data, traj, trials, bounds = _shoot_counting_runs(params, settings, monkeypatch)
        assert bounds == [settings.t_span[1]] * len(trials)
        _assert_is_integrate(params, settings, data, traj)
        apex, _, run = [trial for trial in trials if not trial[1]][-1]
        assert apex == data.a1 and (run.status, run.event) == (0, None)
        tail = traj.t.size - run.t.size
        assert np.array_equal(traj.t[tail:], run.t) and np.array_equal(traj.y[:, tail:], run.y)

    def test_an_asymmetric_window_runs_only_the_backward_half(self, p3, monkeypatch):
        settings = replace(shoot_settings(p3), t_span=(-31.0, 32.0))
        data, traj, trials, bounds = _shoot_counting_runs(p3, settings, monkeypatch)
        assert bounds == [32.0] * len(trials) + [-31.0]
        _assert_is_integrate(p3, settings, data, traj)
        # The symmetric window finds the same apex.
        assert shoot_entire(p3)[0] == data

    def test_a_trial_stopped_short_of_the_window_end_is_not_reused(self, p3, monkeypatch):
        # On t_span (-40, 40) the last trial that stays positive turns at a
        # minimum of w1 near t = 36.7: the orbit is integrated afresh.
        settings = replace(shoot_settings(p3), t_span=(-40.0, 40.0))
        integrations = []
        inner = experiments.integrate
        monkeypatch.setattr(experiments, "integrate",
                            lambda *args, **kw: integrations.append(args) or inner(*args, **kw))
        data, traj, trials, bounds = _shoot_counting_runs(p3, settings, monkeypatch)
        apex, _, run = [trial for trial in trials if not trial[1]][-1]
        assert apex == data.a1 and run.event == ("LocalMin", None) and run.t[-1] < 40.0
        assert len(integrations) == 1 and bounds == [40.0] * (len(trials) + 1)
        _assert_is_integrate(p3, settings, data, traj)

    @pytest.mark.parametrize("span", [(-10.0, 0.0), (-10.0, -5.0), (1.0, 10.0)])
    def test_window_must_hold_the_apex_time(self, p3, span):
        with pytest.raises(DomainError, match="apex time"):
            shoot_entire(p3, replace(shoot_settings(p3), t_span=span))

    @pytest.mark.parametrize("span", [(-5.0, 5.0), (-15.9, 32.0), (-32.0, 15.9)])
    def test_window_too_short_for_the_dichotomy(self, p3, span):
        # delta = 1/2 at N = 3: the shorter side must reach delta * T = 8.
        with pytest.raises(DomainError, match="too short to resolve the dichotomy"):
            shoot_entire(p3, replace(shoot_settings(p3), t_span=span))

    def test_window_at_the_floor_is_resolved(self, p3):
        data, _ = shoot_entire(p3, replace(shoot_settings(p3), t_span=(-16.0, 16.0)))
        exact = bubble_fowler(p3, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-6

    def test_no_positive_solution_becomes_bracket_failure(self):
        p = make_params(4, 1.0, 2.0, 1.5)
        with pytest.raises(BracketFailure):
            shoot_entire(p)


def _shoot_counting_runs(params, settings, monkeypatch):
    """shoot_entire(params, settings), its trials as (apex, loses sign, run)
    triples, and the t_bound of every solve_ivp call it made."""
    trials, bounds = [], []
    inner_trial, inner_ivp = experiments._loses_sign, dynamics.solve_ivp

    def trial(*args):
        trials.append((args[1], *inner_trial(*args)))
        return trials[-1][1:]

    monkeypatch.setattr(experiments, "_loses_sign", trial)
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *args: bounds.append(args[3])
                        or inner_ivp(*args))
    data, traj = shoot_entire(params, settings)
    # Every trial passes through the seam: none of the counts is vacuous.
    assert len(trials) > 2
    return data, traj, trials, bounds


def _shoot_counting_trials(params, monkeypatch):
    """shoot_entire(params) and its trials as (apex, loses sign) pairs."""
    data, _, trials, _ = _shoot_counting_runs(params, None, monkeypatch)
    return data, [(apex, loses) for apex, loses, _ in trials]


def _assert_on_a_boundary(params, apex):
    # The largest apex that stays positive: the next float up changes sign.
    kl = solve_coupling(params)
    settings = shoot_settings(params)
    args = (kl.l / kl.k, settings.t_span[1], settings)
    assert not _loses_sign(_make_field(params), apex, *args)[0]
    assert _loses_sign(_make_field(params), math.nextafter(apex, math.inf), *args)[0]


def _bracket(trials):
    """The bracket that (apex, loses sign, run) trials leave, as (lo, its run)
    and (hi, its run): only a trial's verdict moves an end."""
    lo = max((trial for trial in trials if not trial[1]), key=lambda trial: trial[0])
    hi = min((trial for trial in trials if trial[1]), key=lambda trial: trial[0])
    return (lo[0], lo[2]), (hi[0], hi[2])


def _end_values(params):
    """The window-end value of a trial run, at the default shooting window."""
    t_end = shoot_settings(params).t_span[1]
    return lambda run: experiments._window_end_value(run, params.delta, t_end)


def _cubed(energy):
    # Right sign, badly nonlinear: the secant lands near the far end.
    return lambda params, ratio, apex: energy(params, ratio, apex) ** 3 * 1e6


def _lopsided(energy):
    # Right sign, a huge step at the root: a secant would land next to lo, but
    # the guide root depends on the sign alone.
    return lambda params, ratio, apex: 1e300 if energy(params, ratio, apex) > 0.0 else -1e-300


class TestShootBracket:
    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_apex_is_a_dichotomy_boundary(self, case, monkeypatch):
        params = make_params(case[0], 1.0, 1.0, case[1])
        data, trials = _shoot_counting_trials(params, monkeypatch)
        _assert_on_a_boundary(params, data.a1)
        # Bisection to adjacent floats takes 55-58 trials.
        assert len(trials) <= 45

    @pytest.mark.parametrize("guide", [_cubed, _lopsided])
    def test_a_poor_energy_guide_still_closes_the_bracket(self, p5, guide, monkeypatch):
        # More than SHOOT_TRIALS trials would raise BracketFailure.
        monkeypatch.setattr(experiments, "_apex_energy", guide(experiments._apex_energy))
        data, _ = shoot_entire(p5)
        _assert_on_a_boundary(p5, data.a1)
        exact = bubble_fowler(p5, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-12

    def test_a_constant_sign_guide_goes_straight_to_the_secant(self, p3, monkeypatch):
        # With no guide root the first trial after the bracket ends is the
        # secant of their window-end values.  Secant trials follow until one
        # would round onto an end, each with the Illinois rule: an end kept
        # for a second time in a row has its value halved.
        monkeypatch.setattr(experiments, "_apex_energy", lambda *args: -1.0)
        data, _, trials, _ = _shoot_counting_runs(p3, None, monkeypatch)
        _assert_on_a_boundary(p3, data.a1)
        value = _end_values(p3)
        (lo, _, lo_run), (hi, _, hi_run) = trials[:2]
        w_lo, w_hi = value(lo_run), value(hi_run)
        moved = None
        for placed, (apex, loses_sign, run) in enumerate(trials[2:]):
            guess = experiments._secant(lo, w_lo, hi, w_hi)
            if not lo < guess < hi:
                break
            assert apex == guess
            if loses_sign:
                hi, w_hi = apex, value(run)
            else:
                lo, w_lo = apex, value(run)
            if loses_sign == moved:
                w_lo, w_hi = (0.5 * w_lo, w_hi) if loses_sign else (w_lo, 0.5 * w_hi)
            moved = loses_sign
        # The secant came within a few ulps before it gave way.
        assert placed > 10 and len(trials) - 2 - placed <= 3

    def test_a_window_end_value_at_odds_with_its_verdict_starts_a_gallop(self, p5, monkeypatch):
        # Every run reads a positive window-end value, so the losing end's
        # disagrees with its verdict: after g and the step outward, which
        # bracket the apex, trials leave that end by 1, 4, 16, ... ulps until
        # one stays positive, and the rest are midpoints.
        monkeypatch.setattr(experiments, "_window_end_value", lambda *args: 1.0)
        data, _, trials, _ = _shoot_counting_runs(p5, None, monkeypatch)
        _assert_on_a_boundary(p5, data.a1)
        (lo, _), (hi, _) = _bracket(trials[:2])
        origin, gap, galloping = hi, 1.0, True
        for apex, loses_sign, _ in trials[2:]:
            if galloping:
                assert apex == origin - gap * math.ulp(origin)
                galloping, gap = loses_sign, 4.0 * gap
            else:
                assert apex == 0.5 * (lo + hi)
            lo, hi = (lo, apex) if loses_sign else (apex, hi)
        assert gap > 16.0 and not galloping
        assert data.a1 == lo and math.nextafter(lo, math.inf) == hi

    def test_trial_cap_raises_instead_of_stopping_early(self, p3, monkeypatch):
        data, trials = _shoot_counting_trials(p3, monkeypatch)
        used = len(trials) - 2  # after g and its outward step, which bracket the apex
        monkeypatch.setattr(experiments, "SHOOT_TRIALS", used)
        assert shoot_entire(p3)[0] == data
        monkeypatch.setattr(experiments, "SHOOT_TRIALS", used - 1)
        with pytest.raises(BracketFailure, match=f"still open after {used - 1} trials"):
            shoot_entire(p3)

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_default_shoots_take_at_most_7_trials(self, case, monkeypatch):
        params = make_params(case[0], 1.0, 1.0, case[1])
        _, trials = _shoot_counting_trials(params, monkeypatch)
        # g and one step outward bracket the apex; a secant lands within a
        # few ulps of the boundary, then a short gallop and a few midpoints.
        # Measured: 6, 6 and 7 trials.
        assert len(trials) <= 7

    @pytest.mark.parametrize("case, apex", [
        ((3, 1.0), "0x1.90a9620ee39afp-1"),
        ((4, 2.0), "0x1.a20bd700c31a8p-1"),
        ((5, 1.0), "0x1.9a320e004b32fp+0"),
    ])
    def test_default_shoots_keep_their_apexes(self, case, apex, monkeypatch):
        # The apexes the shoots found when the bracket ends ran first: trials
        # from g and its outward step give the secant the same bracket.  No
        # trial runs from either lam-scaled end.
        params = make_params(case[0], 1.0, 1.0, case[1])
        data, trials = _shoot_counting_trials(params, monkeypatch)
        assert data.a1.hex() == apex
        ends = {0.05 * solve_coupling(params).k * params.lam[0], params.lam[0]}
        assert ends.isdisjoint(a for a, _ in trials)

    def test_drawn_shoots_end_on_a_boundary_in_few_trials(self, monkeypatch):
        # Self-couplings drawn from [0.9, 1.1]: every apex is a boundary of
        # the dichotomy, and a shoot takes at most 6 trials on average (8
        # when both bracket ends ran first, 16.5 stepping out of g and
        # bisecting).
        rng = np.random.default_rng(21)
        counts = []
        for N, beta in [(3, 1.0), (4, 2.0), (5, 1.0)] * 4:
            mu1, mu2 = rng.uniform(0.9, 1.1, size=2)
            params = make_params(N, float(mu1), float(mu2), beta)
            with monkeypatch.context() as patch:
                data, trials = _shoot_counting_trials(params, patch)
            _assert_on_a_boundary(params, data.a1)
            counts.append(len(trials))
        assert sum(counts) / len(counts) <= 6.0

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_the_guide_root_is_tried_before_any_integration(self, case, monkeypatch):
        params = make_params(case[0], 1.0, 1.0, case[1])
        log = []
        inner_trial, inner_ivp = experiments._loses_sign, dynamics.solve_ivp

        def trial(*args):
            log.append(("trial", args[1]))
            return inner_trial(*args)

        def ivp(*args):
            log.append(("solve_ivp", None))
            return inner_ivp(*args)

        monkeypatch.setattr(experiments, "_loses_sign", trial)
        monkeypatch.setattr(dynamics, "solve_ivp", ivp)
        shoot_entire(params)
        # g is the first trial, and nothing is integrated before it.
        (kind, g), *_ = log
        assert kind == "trial"
        # g is the first float in (lo, hi) where the apex energy has hi's
        # sign, over the bracket's lam-scaled ends.
        kl = solve_coupling(params)
        lo, hi = 0.05 * kl.k * params.lam[0], params.lam[0]
        positive = [experiments._apex_energy(params, kl.l / kl.k, a) > 0.0
                    for a in (lo, math.nextafter(g, -math.inf), g, hi)]
        assert lo < g < hi
        assert positive == [not positive[3], not positive[3], positive[3], positive[3]]

    @pytest.mark.parametrize("shift", [1.0 - 1e-3, 1.0 + 1e-6])
    def test_a_shifted_guide_root_still_closes_the_bracket(self, p5, shift, monkeypatch):
        # The guide's root lies off the homoclinic apex by about 1e-3 (above)
        # or 1e-6 (below): g and the one step outward from it settle the same
        # side, so the bracket's end on the other side runs its own trial,
        # and the next trial is the secant of the window-end values over the
        # bracket the three leave.  More than SHOOT_TRIALS raise
        # BracketFailure.
        energy = experiments._apex_energy
        monkeypatch.setattr(experiments, "_apex_energy",
                            lambda params, ratio, a: energy(params, ratio, a * shift))
        data, _, trials, _ = _shoot_counting_runs(p5, None, monkeypatch)
        _assert_on_a_boundary(p5, data.a1)
        exact = bubble_fowler(p5, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-12
        (g, side, _), (step, side_again, _), (end, end_side, _) = trials[:3]
        assert step == (g - 2.0**-40 * g if side else g + 2.0**-40 * g)
        assert side_again == side == (shift < 1.0)
        # Exactly one lam-scaled end runs: the lower one when both lost sign.
        lo_end, hi_end = 0.05 * solve_coupling(p5).k * p5.lam[0], p5.lam[0]
        assert (end, end_side) == ((lo_end, False) if side else (hi_end, True))
        assert [a for a, _, _ in trials if a in (lo_end, hi_end)] == [end]
        (lo, lo_run), (hi, hi_run) = _bracket(trials[:3])
        value = _end_values(p5)
        assert trials[3][0] == experiments._secant(lo, value(lo_run), hi, value(hi_run))

    def test_a_lower_end_that_changes_sign_still_fails(self, p5, monkeypatch):
        # Every trial reports a sign change: g and its step down leave the
        # lower end unsettled, and its own trial raises.
        trials = []
        inner = experiments._loses_sign

        def losing(*args):
            trials.append(args[1])
            return True, inner(*args)[1]

        monkeypatch.setattr(experiments, "_loses_sign", losing)
        with pytest.raises(BracketFailure, match="lower shooting endpoint already changes sign"):
            shoot_entire(p5)
        g = trials[0]
        assert trials == [g, g - 2.0**-40 * g, 0.05 * solve_coupling(p5).k * p5.lam[0]]



class TestSemiSingularSearch:
    def test_rejects_low_dimension(self, p3):
        with pytest.raises(DomainError):
            semi_singular_search(p3, n_runs=1)

    def test_window_must_hold_the_initial_time(self):
        # Draws start at t = 0; a window on [1, 30] used to classify [0, 30].
        p4 = make_params(4, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="window must hold the initial time 0.0"):
            semi_singular_search(p4, n_runs=1, settings=IntegratorSettings(t_span=(1.0, 30.0)))

    def test_n5_finds_no_semi_singular(self, p5):
        report = semi_singular_search(
            p5, n_runs=30, settings=IntegratorSettings(t_span=(-15.0, 15.0)), seed=5
        )
        assert report.summary["semi_singular_found"] == 0
        assert report.failures == []
        assert report.counts.get(BOTH_SINGULAR, 0) > 0
        assert report.summary["lower_bound_stat"]["min"] > 0

    def test_empty_run(self, p5):
        report = semi_singular_search(p5, n_runs=0, seed=1)
        assert report.n_runs == 0
        assert report.counts == {}
        assert report.runs == []

    def test_runs_are_not_monitored(self, p5, monkeypatch):
        monkeypatch.setattr(experiments, "monitor", _refuses)
        report = semi_singular_search(
            p5, n_runs=3, settings=IntegratorSettings(t_span=(-12.0, 12.0)), seed=2
        )
        assert report.n_runs == 3

    def test_long_window_report_needs_no_pohozaev_range(self):
        # The monitor's Pohozaev cross-check leaves the float range on this
        # window (r up to e^400); the search never reads it.
        report = semi_singular_search(
            make_params(4, 1.0, 1.0, 0.5), n_runs=1,
            settings=IntegratorSettings(t_span=(-400.0, 400.0)),
        )
        assert report.counts == {BOTH_SINGULAR: 1}

    def test_determinism(self, p5):
        settings_ = IntegratorSettings(t_span=(-12.0, 12.0))
        a = semi_singular_search(p5, n_runs=8, settings=settings_, seed=2)
        b = semi_singular_search(p5, n_runs=8, settings=settings_, seed=2)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))


class TestSweep:
    def test_window_outside_the_initial_time_is_a_point_error(self, p3):
        report = sweep([p3], [(0.5, 0.5, 0.0, 0.0)], IntegratorSettings(t_span=(5.0, 30.0)))
        assert report.counts == {"Error": 1}
        assert report.runs[0]["error"] == (
            "DomainError: integration window must hold the initial time 0.0, "
            "got t_span (5.0, 30.0)")

    def test_single_bubble_point(self, p3):
        apex = bubble_fowler(p3, 1.0, 0.0)
        report = sweep(
            [p3],
            [(apex.w1, apex.w2, apex.dw1, apex.dw2)],
            IntegratorSettings(t_span=(-20.0, 20.0)),
        )
        assert report.n_runs == 1
        assert report.counts == {ENTIRE: 1}

    def test_bubble_and_cylinder_grid(self, p3, span20):
        apex = bubble_fowler(p3, 1.0, 0.0)
        cyl, _ = cylinder_state(p3)
        report = sweep(
            [p3],
            [
                (apex.w1, apex.w2, 0.0, 0.0),
                (cyl.w1, cyl.w2, 0.0, 0.0),
            ],
            span20,
        )
        assert report.counts == {ENTIRE: 1, BOTH_SINGULAR: 1}
        assert [r["verdict"] for r in report.runs] == [ENTIRE, BOTH_SINGULAR]

    def test_blowup_datum_does_not_abort(self, p3, span20):
        report = sweep([p3], [(1500.0, 1500.0, 0.0, 0.0)], span20)
        assert report.counts == {"BlowUp": 1}

    def test_per_point_error_captured(self, p3, span20):
        # Positivity-constrained integration rejects nonpositive data; the
        # sweep must record the error and keep going.
        report = sweep(
            [p3],
            [(-0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)],
            span20,
        )
        assert report.n_runs == 2
        assert report.counts.get("Error", 0) == 1
        bad = report.runs[0]
        assert bad["verdict"] == "Error"
        assert "DomainError" in bad["error"]

    def test_programming_error_propagates(self, p3, span20, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken call")

        monkeypatch.setattr(experiments, "integrate", broken)
        with pytest.raises(TypeError, match="broken call"):
            sweep([p3], [(0.5, 0.5, 0.0, 0.0)], span20)

    def test_package_error_inside_point_is_recorded(self, p3, span20, monkeypatch):
        def refuses(*args, **kwargs):
            raise DomainError("refused")

        monkeypatch.setattr(experiments, "integrate", refuses)
        report = sweep([p3], [(0.5, 0.5, 0.0, 0.0)], span20)
        assert report.counts == {"Error": 1}
        assert report.runs[0]["error"] == "DomainError: refused"

    def test_parallel_equals_serial(self, p3, span20):
        cyl, _ = cylinder_state(p3)
        grid = [
            (cyl.w1, cyl.w2, 0.0, 0.0),
            (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0),
            (cyl.w1, cyl.w2 + 2e-3, 0.01, 0.0),
        ]
        serial = sweep([p3], grid, span20, workers=1)
        parallel = sweep([p3], grid, span20, workers=2)
        assert dumps(experiment_report_to_dict(serial)) == dumps(
            experiment_report_to_dict(parallel)
        )

    def test_pool_is_no_larger_than_the_grid(self, p3, span20, monkeypatch):
        # A fork-started pool launches all max_workers processes up front.
        # The fake records the size asked for and maps serially, so no
        # process starts.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # sweep imports the pool class from concurrent.futures when it runs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cyl, _ = cylinder_state(p3)
        grid = [(cyl.w1, cyl.w2, 0.0, 0.0), (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0)]
        serial = sweep([p3], grid, span20)
        for workers in (2, 5000):
            assert sweep([p3], grid, span20, workers=workers).runs == serial.runs
        assert sizes == [2, 2]

    def test_deterministic_json(self, p3, span20):
        cyl, _ = cylinder_state(p3)
        grid = [(cyl.w1, cyl.w2, 0.0, 0.0)]
        a = sweep([p3], grid, span20)
        b = sweep([p3], grid, span20)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))

    def test_counts_sum_invariant(self, p3, span20):
        report = sweep([p3], [(0.4, 0.4, 0.0, 0.0), (1500.0, 1.0, 0.0, 0.0)], span20)
        assert sum(report.counts.values()) == report.n_runs

    def test_unarchived_points_are_not_monitored(self, p3, span20, monkeypatch):
        monkeypatch.setattr(experiments, "monitor", _refuses)
        cyl, _ = cylinder_state(p3)
        report = sweep([p3], [(cyl.w1, cyl.w2, 0.0, 0.0)], span20)
        assert report.counts == {BOTH_SINGULAR: 1}

    def test_archived_points_carry_the_monitor_report(self, p3, span20, tmp_path,
                                                      monkeypatch):
        reports = []

        def kept(*args):
            reports.append(monitor(*args))
            return reports[-1]

        monkeypatch.setattr(experiments, "monitor", kept)
        cyl, _ = cylinder_state(p3)
        sweep([p3], [(cyl.w1, cyl.w2, 0.0, 0.0)], span20, archive_dir=str(tmp_path))
        doc = json.loads((tmp_path / "run_000_000.json").read_text())
        assert len(reports) == 1
        assert doc["reports"]["invariants"] == invariant_report_to_dict(reports[0])

    def test_archive_writes_per_run_artifacts(self, p3, span20, tmp_path):
        from fowlerlab import load_trajectory

        cyl, _ = cylinder_state(p3)
        archive = tmp_path / "runs"
        report = sweep(
            [p3],
            [(cyl.w1, cyl.w2, 0.0, 0.0), (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0)],
            span20,
            archive_dir=str(archive),
        )
        for record in report.runs:
            rel = record["trajectory"]
            traj = load_trajectory(archive / rel)
            assert traj.params == p3
        assert sorted(p.name for p in archive.iterdir()) == [
            "run_000_000.json", "run_000_001.json",
        ]
