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
    _first_turn,
    _loses_sign,
    _project_psi_zero,
    draw_initial,
    shoot_settings,
)
from fowlerlab.serialize import dumps, experiment_report_to_dict


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

    def test_near_cylinder_positive_negative_energy(self, p5):
        spec = SamplerSpec(kind="near_cylinder", projection="psi_negative",
                           require_positive=True)
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
            if event is not None or traj.terminated:
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
        assert event is None and stage.terminated
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

    def test_determinism(self, p3):
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
        a = sign_change_experiment(p3, spec, n_runs=6, seed=9)
        b = sign_change_experiment(p3, spec, n_runs=6, seed=9)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))


class TestShootEntire:
    def test_recovers_bubble_apex_n3(self, p3):
        data, traj = shoot_entire(p3)
        exact = bubble_fowler(p3, 1.0, 0.0).w1
        assert abs(data.a1 - exact) / exact < 1e-6
        assert data.b1 == 0.0 and data.b2 == 0.0
        assert abs(data.psi0) < 1e-10
        assert all(e.kind != "SignChange" for e in traj.events)

    def test_apex_ratio_matches_coupling(self, p4b2):
        data, _ = shoot_entire(p4b2)
        exact = bubble_fowler(p4b2, 1.0, 0.0)
        assert data.a1 == pytest.approx(exact.w1, rel=1e-6)
        assert data.a2 / data.a1 == pytest.approx(exact.w2 / exact.w1, rel=1e-12)

    @staticmethod
    def full_window_rule(params):
        """The dichotomy as decided before early exit: integrate the whole
        forward window and look for any sign change."""
        def loses_sign(fun, apex_w1, ratio, t_end, integrator):
            state = FowlerState(0.0, apex_w1, ratio * apex_w1, 0.0, 0.0)
            traj = integrate(params, state, replace(integrator, t_span=(0.0, t_end)),
                             mode="signed")
            return any(e.kind == "SignChange" for e in traj.events)

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
        decisions = [_loses_sign(fun, apex, ratio, t_end, integrator) for apex in apexes]
        assert decisions == [old_rule(fun, apex, ratio, t_end, integrator) for apex in apexes]
        assert decisions[:4] == [False, True, False, True]
        # Each trial ends at the event it reports: a negative component, or
        # the first minimum of w1 (w1' rising through zero on the last step).
        for apex in apexes:
            seg = dynamics.solve_ivp(fun, 0.0, (apex, ratio * apex, 0.0, 0.0), t_end,
                                     integrator, "signed", _first_turn)
            if seg.event == ("SignChange", None):
                assert min(seg.y[0, -1], seg.y[1, -1]) < 0.0
            elif seg.event == ("LocalMin", None):
                assert seg.y[2, -2] < 0.0 <= seg.y[2, -1]
            else:
                assert seg.status == 0 and seg.t[-1] == t_end

    def test_shoot_with_full_window_rule_finds_the_same_apex(self, p5, monkeypatch):
        data, _ = shoot_entire(p5)
        monkeypatch.setattr(experiments, "_loses_sign", self.full_window_rule(p5))
        assert shoot_entire(p5)[0] == data

    def test_apex_above_blowup_threshold_never_loses_sign(self, p5):
        # Such apex data end at once in BlowUp, so the bracket cannot close.
        low_box = replace(shoot_settings(p5), blowup_threshold=1.0)
        with pytest.raises(BracketFailure, match="no sign-losing apex"):
            shoot_entire(p5, low_box)

    def test_blowup_box_below_bracket_fails_at_once(self, p5, monkeypatch):
        # The first apex tried (lam[0] ~ 2.69) is already in a box of size 1.
        calls = []
        inner = experiments._loses_sign

        def counting(*args):
            calls.append(args[1])
            return inner(*args)

        monkeypatch.setattr(experiments, "_loses_sign", counting)
        low_box = replace(shoot_settings(p5), blowup_threshold=1.0)
        with pytest.raises(BracketFailure, match="blowup_threshold=1.0"):
            shoot_entire(p5, low_box)
        assert len(calls) <= 2

    def test_no_positive_solution_becomes_bracket_failure(self):
        p = make_params(4, 1.0, 2.0, 1.5)
        with pytest.raises(BracketFailure):
            shoot_entire(p)


class TestSemiSingularSearch:
    def test_rejects_low_dimension(self, p3):
        with pytest.raises(DomainError):
            semi_singular_search(p3, n_runs=1)

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

    def test_determinism(self, p5):
        settings_ = IntegratorSettings(t_span=(-12.0, 12.0))
        a = semi_singular_search(p5, n_runs=8, settings=settings_, seed=2)
        b = semi_singular_search(p5, n_runs=8, settings=settings_, seed=2)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))


class TestSweep:
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

    def test_deterministic_json(self, p3, span20):
        cyl, _ = cylinder_state(p3)
        grid = [(cyl.w1, cyl.w2, 0.0, 0.0)]
        a = sweep([p3], grid, span20)
        b = sweep([p3], grid, span20)
        assert dumps(experiment_report_to_dict(a)) == dumps(experiment_report_to_dict(b))

    def test_counts_sum_invariant(self, p3, span20):
        report = sweep([p3], [(0.4, 0.4, 0.0, 0.0), (1500.0, 1.0, 0.0, 0.0)], span20)
        assert sum(report.counts.values()) == report.n_runs

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
