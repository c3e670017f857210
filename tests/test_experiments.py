import concurrent.futures
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import select
import signal
import subprocess
import sys
import time
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
        # g ~ 1.60 and the upper end lam[0] ~ 2.69 both lie outside a box of
        # size 1, and g's trial has no run for Newton to start from: no
        # trial integrates.
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
        # Nor is its interpolant built: the decay check reads the end nodes.
        assert traj._coeffs is None
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

    def test_an_orbit_short_of_a_window_end_fails_the_decay_check(self, p3, monkeypatch):
        # On t_span (-40, 40) the orbit is integrated afresh; cut short of
        # t = 40 here, it has no end node to read there.
        settings = replace(shoot_settings(p3), t_span=(-40.0, 40.0))
        inner = experiments.integrate
        monkeypatch.setattr(experiments, "integrate", lambda params, state, settings, **kw: inner(
            params, state, replace(settings, t_span=(-40.0, 30.0)), **kw))
        with pytest.raises(BracketFailure, match="does not reach both window ends"):
            shoot_entire(p3, settings)

    @pytest.mark.parametrize("span", [(-10.0, 0.0), (-10.0, -5.0), (1.0, 10.0)])
    def test_window_must_hold_the_apex_time(self, p3, span):
        with pytest.raises(DomainError, match="apex time"):
            shoot_entire(p3, replace(shoot_settings(p3), t_span=span))

    @pytest.mark.parametrize("span", [(-5.0, 5.0), (-15.9, 32.0), (-32.0, 15.9)])
    def test_window_too_short_for_the_dichotomy(self, p3, span):
        # delta = 1/2 at N = 3: the shorter side must reach delta * T = 8.
        with pytest.raises(DomainError, match="too short to resolve the dichotomy"):
            shoot_entire(p3, replace(shoot_settings(p3), t_span=span))

    @pytest.mark.parametrize("span", [(-41.0, 41.0), (-40.5, 80.0), (-80.0, 40.5)])
    def test_window_too_long_for_the_decay_cut(self, p3, span):
        # delta = 1/2 at N = 3: the shorter side may reach delta * T = 20.
        with pytest.raises(DomainError, match="too long for the orbit to stay below"):
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


def _newton_trials(params, trials):
    """How many trials after the first were placed by Newton, each from the
    trial before it: the proposal, or a creep of one ulp from that trial
    toward the open side when the proposal rounds onto it, up to Newton's
    caps on each."""
    kl = solve_coupling(params)
    t_end = shoot_settings(params).t_span[1]
    cap = experiments._NEWTON_LAST_TRIAL
    placed = creeps = 0
    for (apex, loses_sign, run), (after, _, _) in zip(trials, trials[1:]):
        guess = math.nan
        if placed - creeps < cap:
            guess = experiments._newton(params, kl.l / kl.k, t_end, apex, run)
        if guess == apex and creeps < cap:
            guess = math.nextafter(apex, -math.inf if loses_sign else math.inf)
            creeps += 1
        if after != guess:
            break
        placed += 1
    return placed


def _cubed(energy):
    # Right sign, flat at its root: Newton's first proposal from g, with the
    # guide's slope there, lands far above the apex, and Newton from that
    # trial comes back.
    return lambda params, ratio, apex: energy(params, ratio, apex) ** 3 * 1e6


def _lopsided(energy):
    # Right sign, a huge step at the root: the guide's slope there is huge,
    # so Newton's proposals round onto their own trials and creep, until the
    # lam-scaled end runs and the gallop takes over; the guide root depends
    # on the sign alone.
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

    def test_a_constant_sign_guide_raises_before_any_integration(self, p3, monkeypatch):
        # With no guide root there is no g to start from.  An energy that is
        # never positive doubles the upper end 10 times and gives up; one
        # that is not negative at the lower end has no root to bisect for.
        # Neither integrates.
        calls, inner = [], dynamics.solve_ivp
        monkeypatch.setattr(dynamics, "solve_ivp", lambda *args: calls.append(args) or inner(*args))
        monkeypatch.setattr(experiments, "_apex_energy", lambda *args: -1.0)
        with pytest.raises(BracketFailure, match="after 10 doublings of the upper shooting"):
            shoot_entire(p3)
        monkeypatch.setattr(experiments, "_apex_energy", lambda *args: 1.0)
        with pytest.raises(BracketFailure, match="lower shooting endpoint .* is not negative"):
            shoot_entire(p3)
        assert calls == []

    def test_a_guide_root_above_lam0_doubles_the_upper_end(self, p5, monkeypatch):
        # The energy's argument scaled by 1/3 puts its root near three times
        # the apex, past lam[0], whose energy is then negative: hi doubles on
        # the energy's sign alone until g lies inside, and g is still the
        # first trial.
        energy = experiments._apex_energy
        monkeypatch.setattr(experiments, "_apex_energy",
                            lambda params, ratio, a: energy(params, ratio, a / 3.0))
        kl = solve_coupling(p5)
        scaled = [experiments._apex_energy(p5, kl.l / kl.k, a) for a in (p5.lam[0], 2 * p5.lam[0])]
        assert scaled[0] < 0.0 < scaled[1]
        data, _, trials, _ = _shoot_counting_runs(p5, None, monkeypatch)
        g = trials[0][0]
        assert g > p5.lam[0]
        assert (experiments._apex_energy(p5, kl.l / kl.k, math.nextafter(g, 0.0)) <= 0.0
                < experiments._apex_energy(p5, kl.l / kl.k, g))
        _assert_on_a_boundary(p5, data.a1)

    def test_a_window_end_value_at_odds_with_its_verdict_starts_a_gallop(self, p5, monkeypatch):
        # Every run reads a positive window-end value.  g stays positive, and
        # Newton's proposal from it changes sign, so that end's value
        # disagrees with its verdict.  Newton from there points up, out of
        # the bracket: trials leave the end that trial moved by 1, 4, 16, ...
        # ulps until one stays positive or would leave the bracket (then it
        # is the midpoint), and the rest are midpoints.
        monkeypatch.setattr(experiments, "_window_end_value", lambda *args: 1.0)
        data, _, trials, _ = _shoot_counting_runs(p5, None, monkeypatch)
        _assert_on_a_boundary(p5, data.a1)
        assert _newton_trials(p5, trials) == 1
        assert [loses_sign for _, loses_sign, _ in trials[:2]] == [False, True]
        (lo, _), (hi, _) = _bracket(trials[:2])
        origin, gap, galloping = hi, 1.0, True
        for apex, loses_sign, _ in trials[2:]:
            if galloping:
                guess = origin - gap * math.ulp(origin)
                assert apex == (guess if lo < guess < hi else 0.5 * (lo + hi))
                galloping, gap = apex == guess and loses_sign, 4.0 * gap
            else:
                assert apex == 0.5 * (lo + hi)
            lo, hi = (lo, apex) if loses_sign else (apex, hi)
        assert gap > 16.0 and not galloping
        assert data.a1 == lo and math.nextafter(lo, math.inf) == hi

    def test_trial_cap_raises_instead_of_stopping_early(self, monkeypatch):
        # A bench-style N = 5 shoot (the second pass of seed 0) whose trials
        # reach past Newton's: g, one Newton trial, a gallop from the end that
        # trial moved, then bisection (9 trials).  The default N = 3 shoot,
        # used here with the DP5(4) engine (6 trials), now takes 4, all
        # Newton's.
        params = make_params(5, 1.077947758255627, 1.0114276100412454, 1.0)
        data, _, trials, _ = _shoot_counting_runs(params, None, monkeypatch)
        used = len(trials) - 1  # after g; no bracket end runs
        assert used > _newton_trials(params, trials)  # the cap reaches past Newton's trials
        monkeypatch.setattr(experiments, "SHOOT_TRIALS", used)
        assert shoot_entire(params)[0] == data
        monkeypatch.setattr(experiments, "SHOOT_TRIALS", used - 1)
        with pytest.raises(BracketFailure, match=f"still open after {used - 1} trials"):
            shoot_entire(params)
        # Newton's own trials count against the cap too.
        monkeypatch.setattr(experiments, "SHOOT_TRIALS", 1)
        with pytest.raises(BracketFailure, match="still open after 1 trials"):
            shoot_entire(params)

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_default_shoots_take_at_most_6_trials(self, case, monkeypatch):
        params = make_params(case[0], 1.0, 1.0, case[1])
        _, trials = _shoot_counting_trials(params, monkeypatch)
        # Newton from g lands within a few ulps of the boundary, and the next
        # trials settle the two floats around it.  Measured: 4, 6 and 5
        # trials (6, 5 and 6 with the DP5(4) engine; 7 at N = 4 when a
        # one-ulp creep counted as a Newton trial).
        assert len(trials) <= 6

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_newtons_first_proposal_lands_next_to_the_apex(self, case, monkeypatch):
        # g is a few hundred to a few thousand ulps off the boundary the
        # window shows; the trial after it is Newton's from g's run, within
        # W's noise of the boundary.  Measured: 3, 3 and 18 ulps (2, 3 and 2
        # with the DP5(4) engine, whose W is less noisy at N = 5).
        params = make_params(case[0], 1.0, 1.0, case[1])
        data, _, trials, _ = _shoot_counting_runs(params, None, monkeypatch)
        assert _newton_trials(params, trials) >= 1
        (g, _, _), (first, _, _) = trials[:2]
        assert abs(g - data.a1) > 256 * math.ulp(data.a1)
        assert abs(first - data.a1) <= 24 * math.ulp(data.a1)

    @pytest.mark.parametrize("broken", ["nan", "zero", "wrong sign"])
    def test_a_broken_newton_slope_still_closes_the_bracket(self, broken, monkeypatch):
        # Newton's proposals are then NaN, or step out of the bracket: no
        # trial after g is Newton's, the lam-scaled end on the side g did
        # not settle runs, and a gallop from g's end and bisection close the
        # bracket within SHOOT_TRIALS (past it, shoot_entire raises).
        slope = experiments._window_end_slope
        monkeypatch.setattr(experiments, "_window_end_slope", {
            "nan": lambda *args: math.nan,
            "zero": lambda *args: 0.0,
            "wrong sign": lambda *args: -slope(*args),
        }[broken])
        for N, beta in [(3, 1.0), (4, 2.0), (5, 1.0)]:
            params = make_params(N, 1.0, 1.0, beta)
            with monkeypatch.context() as patch:
                data, _, trials, _ = _shoot_counting_runs(params, None, patch)
            _assert_on_a_boundary(params, data.a1)
            assert _newton_trials(params, trials) == 0
            ends = {0.05 * solve_coupling(params).k * params.lam[0], params.lam[0]}
            assert trials[1][0] in ends
            g, g_loses, _ = trials[0]
            assert trials[2][0] == g + (-1.0 if g_loses else 1.0) * math.ulp(g)

    @pytest.mark.parametrize("case, apex", [
        ((3, 1.0), "0x1.90a9620ee3912p-1"),
        ((4, 2.0), "0x1.a20bd700c2f1ap-1"),
        ((5, 1.0), "0x1.9a320e004afc0p+0"),
    ])
    def test_default_shoots_keep_their_apexes(self, case, apex, monkeypatch):
        # The boundaries of the dichotomy of the Nystrom-form DOP853 step,
        # whose first step from rest grows by the full factor: 2 ulps below,
        # 5 below and 19 above those of the step with stage velocities, one
        # power per term and a first factor from the noise (which were 155,
        # 649 and 898 ulps below the DP5(4) engine's).  g's trial, then Newton
        # from each latest trial, with one-ulp creeps, close the bracket.  No
        # trial runs from either lam-scaled end.
        params = make_params(case[0], 1.0, 1.0, case[1])
        data, trials = _shoot_counting_trials(params, monkeypatch)
        assert data.a1.hex() == apex
        ends = {0.05 * solve_coupling(params).k * params.lam[0], params.lam[0]}
        assert ends.isdisjoint(a for a, _ in trials)
        monkeypatch.undo()
        _assert_on_a_boundary(params, data.a1)
        exact = bubble_fowler(params, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-6

    def test_drawn_shoots_end_on_a_boundary_in_few_trials(self, monkeypatch):
        # Self-couplings drawn from [0.9, 1.1]: every apex is a boundary of
        # the dichotomy, and a shoot takes at most 5.1 trials on average
        # (4.58 measured; 4.83 with the first step from rest grown by a
        # factor from the rounding noise, 5.08 when this bound was set, 5.7
        # with g's outward step and the secant, 8 when both bracket ends ran
        # first, 16.5 stepping out of g and bisecting).
        rng = np.random.default_rng(21)
        counts = []
        for N, beta in [(3, 1.0), (4, 2.0), (5, 1.0)] * 4:
            mu1, mu2 = rng.uniform(0.9, 1.1, size=2)
            params = make_params(N, float(mu1), float(mu2), beta)
            with monkeypatch.context() as patch:
                data, trials = _shoot_counting_trials(params, patch)
            _assert_on_a_boundary(params, data.a1)
            counts.append(len(trials))
        assert sum(counts) / len(counts) <= 5.1

    def test_bench_style_shoots_take_at_most_4_81_trials_on_average(self, monkeypatch):
        # The shoot workload's inputs for passes 0-11 of seed 0: self-couplings
        # from default_rng([0, k]).  Each apex is a boundary, and a shoot takes
        # 4.61 trials on average (4.72 with the first step from rest grown by
        # a factor from the rounding noise, 4.67 when the secant placed the
        # trials after Newton's too; the bound is that plus 3 %).
        counts = []
        for k in range(12):
            mu1, mu2 = np.random.default_rng([0, k]).uniform(0.9, 1.1, size=2)
            for N, beta in [(3, 1.0), (4, 2.0), (5, 1.0)]:
                params = make_params(N, float(mu1), float(mu2), beta)
                with monkeypatch.context() as patch:
                    data, trials = _shoot_counting_trials(params, patch)
                _assert_on_a_boundary(params, data.a1)
                counts.append(len(trials))
        assert sum(counts) / len(counts) <= 4.81

    def test_bench_style_shoots_classify_entire(self):
        # The same 36 inputs.  Every converged orbit decays at delta at all
        # four ends: the median local rate reads at most 4.4e-6 off delta
        # over passes 0-59, where the line fit it replaced, bent by the
        # window's end, read up to 5.2 % off and left N = 4 of passes 0, 5
        # and 6 Inconclusive.
        for k in range(12):
            mu1, mu2 = np.random.default_rng([0, k]).uniform(0.9, 1.1, size=2)
            for N, beta in [(3, 1.0), (4, 2.0), (5, 1.0)]:
                params = make_params(N, float(mu1), float(mu2), beta)
                _, traj = shoot_entire(params)
                result = classify(params, traj)
                assert result.verdict == ENTIRE, (k, N)
                for rate, _ in result.evidence["decay"].values():
                    assert rate == pytest.approx(params.delta, rel=1e-4)

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
        # or 1e-6 (below).  Newton from g, far out on W's linearisation,
        # takes 4 of its trials to settle both sides (4 and 3 with stage
        # velocities, one power per term and a first factor from the noise,
        # 4 and 4 with the DP5(4) engine), so no lam-scaled end runs; the
        # gallop and bisection close the rest.  More than SHOOT_TRIALS raise
        # BracketFailure.
        energy = experiments._apex_energy
        monkeypatch.setattr(experiments, "_apex_energy",
                            lambda params, ratio, a: energy(params, ratio, a * shift))
        data, _, trials, _ = _shoot_counting_runs(p5, None, monkeypatch)
        _assert_on_a_boundary(p5, data.a1)
        exact = bubble_fowler(p5, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-12
        g, side, _ = trials[0]
        assert side == (shift < 1.0)
        newton = _newton_trials(p5, trials)
        assert newton == 4
        assert {loses_sign for _, loses_sign, _ in trials[:newton + 1]} == {False, True}
        lo_end, hi_end = 0.05 * solve_coupling(p5).k * p5.lam[0], p5.lam[0]
        assert not {lo_end, hi_end} & {apex for apex, _, _ in trials}
        # The first trial after Newton's gallops one ulp from the end the
        # latest Newton trial moved, toward the other side.
        origin, moved_hi, _ = trials[newton]
        assert trials[newton + 1][0] == origin + (-1.0 if moved_hi else 1.0) * math.ulp(origin)

    def test_a_lower_end_that_changes_sign_still_fails(self, p5, monkeypatch):
        # Every trial reports a sign change.  g's run stays positive, so its
        # window-end value puts Newton's proposal above g, outside the
        # bracket below it; the lower end, still unsettled, runs its own
        # trial, which raises.
        trials = []
        inner = experiments._loses_sign

        def losing(*args):
            trials.append((args[1], *inner(*args)))
            return True, trials[-1][2]

        monkeypatch.setattr(experiments, "_loses_sign", losing)
        with pytest.raises(BracketFailure, match="lower shooting endpoint already changes sign"):
            shoot_entire(p5)
        (g, stays, run), (end, _, _) = trials
        kl = solve_coupling(p5)
        assert end == 0.05 * kl.k * p5.lam[0] and stays is False
        assert experiments._newton(p5, kl.l / kl.k, shoot_settings(p5).t_span[1], g, run) > g

    def test_a_closed_bracket_still_runs_its_unsettled_end(self, p5, monkeypatch):
        # Newton proposes the float just below lam[0], and every trial stays
        # positive: that float and lam[0] close the bracket, but no trial has
        # lost sign at lam[0], so it runs its own trial, and the upper end
        # doubles until it reaches the blow-up box.
        trials = []
        inner = experiments._loses_sign

        def staying(*args):
            trials.append(args[1])
            return False, inner(*args)[1]

        below = math.nextafter(p5.lam[0], 0.0)
        monkeypatch.setattr(experiments, "_loses_sign", staying)
        monkeypatch.setattr(experiments, "_newton", lambda *args: below)
        with pytest.raises(BracketFailure, match="no sign-losing apex below blowup_threshold"):
            shoot_entire(p5)
        assert trials[1:3] == [below, p5.lam[0]]

    @pytest.mark.parametrize("case", [(3, 1.0), (4, 2.0), (5, 1.0)])
    def test_the_window_end_slope_matches_two_trials(self, case):
        # dW/dpsi read from one trial's tail against the secant of W over
        # the trials from exact * (1 -+ 2**-26), which bracket the boundary.
        params = make_params(case[0], 1.0, 1.0, case[1])
        kl = solve_coupling(params)
        ratio, settings = kl.l / kl.k, shoot_settings(params)
        t_end = settings.t_span[1]
        exact = bubble_fowler(params, 1.0, 0.0).w1
        apexes = (exact * (1.0 - 2.0**-26), exact * (1.0 + 2.0**-26))
        trials = [_loses_sign(_make_field(params), a, ratio, t_end, settings) for a in apexes]
        assert [loses_sign for loses_sign, _ in trials] == [False, True]
        value = _end_values(params)
        secant = ((value(trials[1][1]) - value(trials[0][1]))
                  / (experiments._apex_energy(params, ratio, apexes[1])
                     - experiments._apex_energy(params, ratio, apexes[0])))
        for _, run in trials:
            slope = experiments._window_end_slope(run, params.delta, ratio, t_end)
            assert slope == pytest.approx(secant, rel=1e-4)

    def test_a_continuation_that_overflows_is_nan(self, p3):
        # A trial that stops at a minimum near t = 34 on a window out to
        # 1500: e^(delta (T - t)) is past the float range.
        settings = replace(shoot_settings(p3), t_span=(-1500.0, 1500.0))
        kl = solve_coupling(p3)
        apex = 0.99 * bubble_fowler(p3, 1.0, 0.0).w1
        loses_sign, run = _loses_sign(_make_field(p3), apex, kl.l / kl.k, 1500.0, settings)
        assert not loses_sign and run.event == ("LocalMin", None)
        assert math.isnan(experiments._window_end_value(run, p3.delta, 1500.0))
        assert math.isnan(experiments._window_end_slope(run, p3.delta, kl.l / kl.k, 1500.0))


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
        # process starts.  The kept pool is emptied, so the fake is built,
        # then kept for the second call.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, **options):
                sizes.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

        # sweep imports the pool class from concurrent.futures when it runs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "_POOL", None)
        cyl, _ = cylinder_state(p3)
        grid = [(cyl.w1, cyl.w2, 0.0, 0.0), (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0)]
        serial = sweep([p3], grid, span20)
        for workers in (2, 5000):
            assert sweep([p3], grid, span20, workers=workers).runs == serial.runs
        assert sizes == [2]

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


def _kept_workers():
    """The kept pool's worker processes by pid."""
    return dict(experiments._POOL[2]._processes)


def _report_json(report):
    return dumps(experiment_report_to_dict(report))


# Two pooled sweeps in a fresh interpreter, which then prints its workers' pids.
_SWEEP_SCRIPT = (
    "import time\n"
    "import fowlerlab\n"
    "from fowlerlab import experiments\n"
    "p = fowlerlab.make_params(3, 1.0, 1.0, 1.0)\n"
    "grid = [(0.5, 0.5, 0.0, 0.0), (0.6, 0.5, 0.0, 0.0), (0.5, 0.6, 0.0, 0.0)]\n"
    "span = fowlerlab.IntegratorSettings(t_span=(-2.0, 2.0))\n"
    "for _ in range(2):\n"
    "    fowlerlab.sweep([p], grid, span, workers=2)\n"
    "print(*experiments._POOL[2]._processes, flush=True)\n"
)
_SCRIPT_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(experiments.__file__)))


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _child_sweep(conn, params, grid, span):
    conn.send((_report_json(sweep([params], grid, span, workers=2)), list(_kept_workers())))
    conn.close()


class TestKeptPool:
    """A pooled sweep keeps its workers for later pooled sweeps."""

    @pytest.fixture(scope="class")
    def grid(self, p3):
        cyl, _ = cylinder_state(p3)
        return [
            (cyl.w1, cyl.w2, 0.0, 0.0),
            (cyl.w1 + 1e-3, cyl.w2, 0.0, 0.0),
            (cyl.w1, cyl.w2 + 2e-3, 0.01, 0.0),
        ]

    @pytest.fixture(scope="class")
    def serial(self, p3, span20, grid):
        return _report_json(sweep([p3], grid, span20))

    def test_later_sweeps_run_on_the_same_workers(self, p3, span20, grid, serial):
        first = _report_json(sweep([p3], grid, span20, workers=2))
        pids = set(_kept_workers())
        second = _report_json(sweep([p3], grid, span20, workers=2))
        assert len(pids) == 2 and set(_kept_workers()) == pids
        assert first == serial and second == serial

    def test_a_worker_killed_between_calls_is_replaced(self, p3, span20, grid, serial):
        sweep([p3], grid, span20, workers=2)
        workers = _kept_workers()
        pid = min(workers)
        os.kill(pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([workers[pid].sentinel], timeout=30)
        assert _report_json(sweep([p3], grid, span20, workers=2)) == serial
        assert not set(_kept_workers()) & set(workers)

    def test_a_relative_archive_dir_is_read_in_the_callers_cwd(self, p3, span20, grid,
                                                                tmp_path, monkeypatch):
        # The workers keep the cwd they were started in.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        sweep([p3], grid, span20, workers=2)
        monkeypatch.chdir(tmp_path / "b")
        report = sweep([p3], grid, span20, workers=2, archive_dir="runs")
        assert sorted(os.listdir(tmp_path / "b" / "runs")) == sorted(
            record["trajectory"] for record in report.runs
        )
        assert not (tmp_path / "a" / "runs").exists()

    def test_a_forked_child_starts_its_own_pool(self, p3, span20, grid, serial):
        sweep([p3], grid, span20, workers=2)
        pids = set(_kept_workers())
        fork = multiprocessing.get_context("fork")
        reader, writer = fork.Pipe(duplex=False)
        child = fork.Process(target=_child_sweep, args=(writer, p3, grid, span20))
        child.start()
        writer.close()
        child_workers = []
        try:
            assert reader.poll(60), "the child's sweep did not finish"
            report, child_workers = reader.recv()
            assert report == serial
            # Its exit shuts its own pool down, not its parent's.
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                for pid in [child.pid, *child_workers]:
                    os.kill(pid, signal.SIGKILL)
                child.join()
        assert set(_kept_workers()) == pids
        assert _report_json(sweep([p3], grid, span20, workers=2)) == serial

    def test_exit_is_silent_and_ends_the_workers(self):
        done = subprocess.run([sys.executable, "-c", _SWEEP_SCRIPT], capture_output=True,
                              text=True, env=_SCRIPT_ENV, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_workers_exit_when_their_starter_is_killed(self):
        # SIGKILL runs no exit hook, so only the workers can see it.
        proc = subprocess.Popen([sys.executable, "-c", _SWEEP_SCRIPT + "time.sleep(600)\n"],
                                stdout=subprocess.PIPE, text=True, env=_SCRIPT_ENV)
        pids = []
        try:
            assert select.select([proc.stdout], [], [], 120)[0], "the sweeps did not finish"
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, pids))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_a_size_change_shuts_the_old_pool_down(self, p3, span20, grid, monkeypatch):
        # The fake maps serially, so no process starts.
        log = []

        class SerialPool:
            def __init__(self, max_workers, **options):
                self.size = max_workers
                log.append(("start", max_workers))

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, wait):
                log.append(("shutdown", self.size, wait))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "_POOL", None)
        for workers in (2, 2, 3, 3, 2):
            sweep([p3], grid, span20, workers=workers)
        assert log == [("start", 2), ("shutdown", 2, True), ("start", 3),
                       ("shutdown", 3, True), ("start", 2)]
