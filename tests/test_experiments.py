import math

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
    cylinder_state,
    integrate,
    make_params,
    psi,
    semi_singular_search,
    shoot_entire,
    sign_change_experiment,
    sweep,
)
from fowlerlab import experiments
from fowlerlab.errors import BracketFailure, DomainError
from fowlerlab.experiments import _project_psi_zero, draw_initial
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
