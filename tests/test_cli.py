import json
import math
import os
import subprocess
import sys

import pytest

from fowlerlab.cli import main
from fowlerlab.serialize import validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


class TestClosedFormCommands:
    def test_cylinder_value(self, capsys):
        code, out, _ = run_cli(capsys, "cylinder", "--N", "3", "--mu1", "1",
                               "--mu2", "1", "--beta", "1")
        assert code == 0
        doc = stdout_json(out)
        validate(doc, "cylinder")
        assert doc["psi"] == pytest.approx(-0.0589256, abs=5e-8)
        assert doc["K_value"] == pytest.approx(-math.pi / (3 * math.sqrt(2)), rel=1e-12)

    def test_solve_kl_value(self, capsys):
        code, out, _ = run_cli(capsys, "solve-kl", "--N", "4", "--mu1", "1",
                               "--mu2", "1", "--beta", "2")
        assert code == 0
        doc = stdout_json(out)
        validate(doc, "coupling")
        assert doc["k"] == pytest.approx(0.577350, abs=5e-7)
        assert doc["l"] == doc["k"]

    def test_bubble_samples(self, capsys):
        code, out, _ = run_cli(capsys, "bubble", "--N", "3", "--mu1", "1",
                               "--mu2", "1", "--beta", "1", "--r", "0.5", "--r", "2.0")
        assert code == 0
        doc = stdout_json(out)
        validate(doc, "bubble")
        assert len(doc["samples"]) == 2
        assert doc["samples"][0]["u"] > doc["samples"][1]["u"]

    def test_bubble_apex_is_at_rest_with_positive_zeros(self, capsys):
        # At eps = 1 the apex time and both velocities are +0.0, not -0.0.
        code, out, _ = run_cli(capsys, "bubble", "--N", "3", "--mu1", "1", "--mu2", "1",
                               "--beta", "1")
        assert code == 0
        t, _, _, dw1, dw2 = stdout_json(out)["apex"]
        assert [math.copysign(1.0, x) for x in (t, dw1, dw2)] == [1.0] * 3

    def test_no_positive_solution_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "solve-kl", "--N", "4", "--mu1", "1",
                               "--mu2", "2", "--beta", "1.5")
        assert code == 1
        assert "positive" in err

    @pytest.mark.parametrize("N, command", [
        ("300", ("solve-kl",)),
        ("400", ("solve-kl",)),
        ("258", ("bubble", "--r", "1")),
        ("258", ("integrate", "--orbit", "bubble")),
    ], ids=["300", "400", "258-bubble", "258-integrate"])
    def test_overflowing_dimension_exits_one(self, capsys, tmp_path, N, command):
        # N = 300 overflows the bounds lam, N = 400 also the sphere area, and
        # the bubble prefactor overflows from N = 258, which make_params takes.
        out = tmp_path / "out.json"
        code, stdout, err = run_cli(capsys, command[0], "--N", N, "--mu1", "1", "--mu2", "1",
                                    "--beta", "1", *command[1:], "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("fowlerlab: error: ") and "overflow" in err
        assert "Traceback" not in err and not out.exists()


class TestIntegratePipeline:
    def test_invalid_dimension_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--N", "2", "--mu1", "1",
                               "--mu2", "1", "--beta", "1", "--orbit", "cylinder")
        assert code == 1
        assert "N must be >= 3" in err

    def test_bad_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--no-such-flag")
        assert code == 1

    def test_integrate_monitors_only_for_the_artifact(self, capsys, monkeypatch):
        from fowlerlab import cli

        def refuses(*args, **kwargs):
            raise AssertionError("monitor called")

        monkeypatch.setattr(cli, "monitor", refuses)
        code, stdout, _ = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2",
                                  "1", "--beta", "1", "--orbit", "cylinder")
        assert code == 0
        assert stdout_json(stdout)["verdict"] == "BothSingularCandidate"

    def test_artifact_pipeline(self, capsys, tmp_path):
        out = tmp_path / "orbit.json"
        csv = tmp_path / "orbit.csv"
        code, stdout, _ = run_cli(
            capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
            "--beta", "1", "--orbit", "bubble", "--t-min", "-15", "--t-max", "15",
            "--out", str(out), "--csv", str(csv),
        )
        assert code == 0
        summary = stdout_json(stdout)
        assert summary["certified"] is True
        assert summary["verdict"] == "EntireCandidate"
        assert csv.read_text().splitlines()[0] == "t,w1,w2,dw1,dw2,psi"

        code, stdout, _ = run_cli(capsys, "classify", "--in", str(out))
        assert code == 0
        doc = stdout_json(stdout)
        validate(doc, "classification")
        assert doc["verdict"] == "EntireCandidate"

        code, stdout, _ = run_cli(capsys, "invariants", "--in", str(out))
        assert code == 0
        validate(stdout_json(stdout), "invariant_report")

        plot = tmp_path / "plot.csv"
        code, stdout, _ = run_cli(capsys, "plot-data", "--in", str(out),
                                  "--out", str(plot))
        assert code == 0
        assert plot.read_text().splitlines()[0] == "t,w1,w2,psi,f1,f2,r,u,v"

    def test_missing_artifact_exits_three(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", "--in", str(tmp_path / "nope.json"))
        assert code == 3

    def test_corrupt_artifact_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1')
        code, _, err = run_cli(capsys, "classify", "--in", str(bad))
        assert code == 3

    # A PNG signature: its 0x89 byte is not UTF-8.
    BINARY = b"\x89PNG\r\n\x1a\n\x00\x00"

    def test_binary_artifact_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "orbit.png"
        bad.write_bytes(self.BINARY)
        code, stdout, err = run_cli(capsys, "classify", "--in", str(bad))
        assert (code, stdout) == (3, "")
        assert err.startswith("fowlerlab: error: not valid JSON: 'utf-8' codec")

    def test_binary_config_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "run.png"
        bad.write_bytes(self.BINARY)
        code, stdout, err = run_cli(capsys, "solve-kl", "--config", str(bad))
        assert (code, stdout) == (3, "")
        assert err.startswith("fowlerlab: error: config is not valid JSON: 'utf-8' codec")

    def test_ragged_artifact_exits_three(self, capsys, tmp_path):
        out = tmp_path / "orbit.json"
        code, _, _ = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--orbit", "cylinder", "--t-min", "-2",
                             "--t-max", "2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        doc["nodes"]["w1"].pop()
        out.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "classify", "--in", str(out))
        assert code == 3
        assert "node arrays have inconsistent lengths" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "params": {"N": 3, "mu1": 5.0, "mu2": 1.0, "beta": 1.0},
            "initial": {"orbit": "cylinder"},
            "settings": {"t_span": [-5.0, 5.0]},
        }))
        code, stdout, _ = run_cli(capsys, "integrate", "--config", str(config),
                                  "--mu1", "1.0")
        assert code == 0
        summary = stdout_json(stdout)
        # mu1 overridden to the symmetric value: cylinder energy of (1,1,1)
        assert summary["psi0"] == pytest.approx(-0.0589256, abs=5e-8)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        params = {"N": 3, "mu1": 1, "mu2": 1, "beta": 1}
        # A removed setting is rejected like one that never existed.
        for extra, key in (({"bogus": 1}, "bogus"),
                           ({"settings": {"event_refinement_tol": 1e-12}},
                            "event_refinement_tol"),
                           ({"settings": {"positivity_floor": 1e-14}}, "positivity_floor")):
            config.write_text(json.dumps({"params": params, **extra}))
            code, _, err = run_cli(capsys, "integrate", "--config", str(config),
                                   "--orbit", "cylinder")
            assert code == 3
            assert key in err or "additional" in err.lower()

    def test_json_errors_flag(self, capsys):
        code, _, err = run_cli(capsys, "--json-errors", "solve-kl", "--N", "4",
                               "--mu1", "1", "--mu2", "2", "--beta", "1.5")
        assert code == 1
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "NoPositiveSolution"

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FOWLERLAB_OUT", str(tmp_path / "artifacts"))
        code, stdout, _ = run_cli(
            capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
            "--beta", "1", "--orbit", "cylinder", "--t-min", "-2", "--t-max", "2",
            "--out", "cyl.json",
        )
        assert code == 0
        assert (tmp_path / "artifacts" / "cyl.json").exists()


class TestExperimentCommands:
    def test_sign_change_success(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "sign-change", "--N", "3", "--mu1", "1", "--mu2", "1",
            "--beta", "1", "--runs", "5", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        validate(doc, "experiment_report")
        assert doc["counts"]["SignChanging"] == 5

    def test_sign_change_horizon_failure_exits_two(self, capsys):
        # A horizon too short to observe the guaranteed crossing is reported
        # as a theorem-level failure.
        code, out, err = run_cli(
            capsys, "sign-change", "--N", "3", "--mu1", "1", "--mu2", "1",
            "--beta", "1", "--runs", "3", "--seed", "1", "--horizon", "0.01",
        )
        assert code == 2
        assert "without sign change" in err

    def test_search_semi(self, capsys, tmp_path):
        out = tmp_path / "semi.json"
        code, _, _ = run_cli(
            capsys, "search-semi", "--N", "5", "--mu1", "1", "--mu2", "1",
            "--beta", "1", "--runs", "6", "--seed", "2", "--t-min", "-12",
            "--t-max", "12", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        validate(doc, "experiment_report")
        assert doc["summary"]["semi_singular_found"] == 0

    def test_search_semi_rejects_n3(self, capsys):
        code, _, err = run_cli(capsys, "search-semi", "--N", "3", "--mu1", "1",
                               "--mu2", "1", "--beta", "1", "--runs", "1")
        assert code == 1

    def test_sweep_config(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "param_grid": [[3, 1.0, 1.0, 1.0]],
            "initial_grid": [[0.59460355750136053, 0.59460355750136053, 0.0, 0.0]],
            "settings": {"t_span": [-10.0, 10.0]},
        }))
        code, stdout, _ = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0
        doc = stdout_json(stdout)
        validate(doc, "experiment_report")
        assert doc["counts"] == {"BothSingularCandidate": 1}

    @pytest.mark.parametrize("N", [3.5, math.inf, math.nan])
    def test_sweep_rejects_a_fractional_dimension(self, capsys, tmp_path, N):
        # 1e999 reads as inf.  No JSON number reads as NaN, and a config
        # holding the NaN constant is not JSON.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "param_grid": [[N, 1.0, 1.0, 1.0]],
            "initial_grid": [[0.5, 0.5, 0.0, 0.0]],
        }).replace("Infinity", "1e999"))
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        if math.isnan(N):
            assert (code, err) == (3, "fowlerlab: error: config is not valid JSON: "
                                      "NaN is not a finite number\n")
        else:
            assert code == 1
            assert "N must be an integer" in err

    def test_sweep_requires_grids(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 1
        assert "param_grid and initial_grid" in err

    def test_shoot(self, capsys):
        code, stdout, _ = run_cli(capsys, "shoot", "--N", "3", "--mu1", "1",
                                  "--mu2", "1", "--beta", "1")
        assert code == 0
        doc = stdout_json(stdout)
        validate(doc, "shoot")
        assert doc["rel_err"] < 1e-6

    @pytest.mark.parametrize("window", [("-10", "0"), ("-10", "-5"), ("1", "10")])
    def test_shoot_window_must_hold_the_apex_time(self, capsys, window):
        code, _, err = run_cli(capsys, "shoot", "--N", "3", "--mu1", "1", "--mu2", "1",
                               "--beta", "1", "--t-min", window[0], "--t-max", window[1])
        assert code == 1
        assert err.startswith("fowlerlab: error: shooting window must hold the apex time")

    def test_shoot_window_too_short_exits_one(self, capsys):
        # The apex error would be 1.3e-2 on this window, and the converged
        # orbit passes the decay cut anyway.
        code, out, err = run_cli(capsys, "shoot", "--N", "3", "--mu1", "1", "--mu2", "1",
                                 "--beta", "1", "--t-min", "-5", "--t-max", "5")
        assert code == 1 and out == ""
        assert err.startswith("fowlerlab: error: shooting window too short to resolve the "
                              "dichotomy: delta * t_span[1] = 2.5 < 8.0")

    def test_shoot_on_a_window_too_long_to_continue_exits_one(self, capsys):
        # delta * T = 750 at N = 3: amplified rounding would lift the
        # converged orbit back above the cut long before the window ends, so
        # the window is refused before any trial runs.
        code, out, err = run_cli(capsys, "shoot", "--N", "3", "--mu1", "1", "--mu2", "1",
                                 "--beta", "1", "--t-min", "-1500", "--t-max", "1500")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == ("fowlerlab: error: shooting window too long for the orbit to stay below "
                       "the decay cut: delta * t_span[1] = 750.0 > 20.0, "
                       "got t_span (-1500.0, 1500.0)\n")


def _one_failure_report(kind):
    from fowlerlab.experiments import ExperimentReport

    record = {"index": 0, "verdict": "SemiSingularCandidate", "anomaly": True}
    return ExperimentReport(kind=kind, seed=0, runs=[record], failures=[record], summary={})


@pytest.mark.parametrize("command,target,kind,line", [
    ("search-semi", "semi_singular_search", "semi_singular_search",
     "theorem-level failure: 1 semi-singular candidate(s) for N=5\n"),
    ("sweep", "sweep", "sweep", "theorem-level failure: 1 anomalous verdict(s)\n"),
])
def test_reported_failures_exit_two(capsys, tmp_path, monkeypatch, command, target, kind, line):
    from fowlerlab import cli

    monkeypatch.setattr(cli, target, lambda *args, **kwargs: _one_failure_report(kind))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "params": {"N": 5, "mu1": 1.0, "mu2": 1.0, "beta": 1.0},
        "param_grid": [[5, 1.0, 1.0, 1.0]],
        "initial_grid": [[1.0, 1.0, 0.0, 0.0]],
    }))
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == 2
    assert err == line
    validate(stdout_json(out), "experiment_report")


def test_zero_eps_is_rejected(capsys):
    code, out, err = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--orbit", "bubble", "--eps", "0")
    assert code == 1
    assert out == ""
    assert "eps must be positive" in err


@pytest.mark.parametrize("argv, message", [
    (("bubble", "--r", "nan"), "radius must be nonnegative and finite, got nan"),
    (("bubble", "--r", "inf"), "radius must be nonnegative and finite, got inf"),
    (("bubble", "--eps", "inf"), "eps must be positive and finite, got inf"),
    (("bubble", "--eps", "nan"), "eps must be positive and finite, got nan"),
    (("integrate", "--orbit", "bubble", "--eps", "inf"),
     "eps must be positive and finite, got inf"),
], ids=["r-nan", "r-inf", "eps-inf", "eps-nan", "integrate-eps-inf"])
def test_nonfinite_bubble_input_is_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv[:1], "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == f"fowlerlab: error: {message}\n"


CYLINDER_N3 = ("--N", "3", "--mu1", "1", "--mu2", "1", "--beta", "1", "--orbit", "cylinder")


def test_infinite_blowup_threshold_writes_nothing(capsys, tmp_path):
    out = tmp_path / "orbit.json"
    code, stdout, err = run_cli(capsys, "integrate", *CYLINDER_N3,
                                "--blowup-threshold", "inf", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == "fowlerlab: error: blowup_threshold must be positive and finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("t_min", ["-500", "-5"])
def test_radial_overflow_exits_one(capsys, tmp_path, t_min):
    # Past t ~ 473 (N = 3) r^(-delta-1) overflows, and at t = -500 so does
    # r^(N-1) in the Pohozaev functional: both are domain errors.
    out = tmp_path / "orbit.json"
    code, _, err = run_cli(capsys, "integrate", *CYLINDER_N3, "--t-min", t_min,
                           "--t-max", "500", "--out", str(out))
    assert code == 1
    assert err.startswith("fowlerlab: error: ") and "Traceback" not in err
    assert not out.exists()


def test_integrate_window_must_hold_the_initial_time(capsys, tmp_path):
    # The cylinder data sit at t = 0, outside [5, 30]: no orbit on [0, 30].
    out = tmp_path / "orbit.json"
    code, stdout, err = run_cli(capsys, "integrate", *CYLINDER_N3, "--t-min", "5",
                                "--t-max", "30", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("fowlerlab: error: integration window must hold the initial time")
    assert not out.exists()


def test_integrate_with_error_rows_that_vanish_exits_zero(capsys):
    # w1' = 1e150: on some step the error norm's err5 is 0 and 0.01 * err3
    # underflows, a zero denominator; that step's error norm is 0.
    code, out, err = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--initial", "1", "1", "1e150", "0")
    assert code == 0 and err == ""
    assert stdout_json(out)["verdict"] == "BlowUp"


def test_integrate_lists_a_crossing_at_the_initial_node_on_it(capsys):
    # w1 = 0 at t = 0 with w1' > 0: the crossing is the initial node itself.
    code, out, err = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--initial", "0", "0.5", "0.3", "0",
                             "--mode", "signed")
    assert code == 0 and err == ""
    assert ["SignChange", 0.0, 1] in stdout_json(out)["events"]


@pytest.mark.parametrize("archive", [False, True])
def test_integrate_data_whose_energy_overflows_exits_one(capsys, tmp_path, archive):
    # w1' = 1e160 makes psi0 inf and the drift NaN, which no JSON output holds.
    out = tmp_path / "orbit.json"
    code, stdout, err = run_cli(capsys, "integrate", "--N", "3", "--mu1", "1", "--mu2", "1",
                                "--beta", "1", "--initial", "1", "1", "1e160", "0",
                                *(["--out", str(out)] if archive else []))
    assert code == 1 and stdout == ""
    assert err == "fowlerlab: error: initial energy is not finite: inf\n"
    assert not out.exists()


def test_search_semi_window_must_hold_the_initial_time(capsys):
    code, _, err = run_cli(capsys, "search-semi", "--N", "4", "--mu1", "1", "--mu2", "1",
                           "--beta", "1", "--runs", "1", "--t-min", "1", "--t-max", "30")
    assert code == 1
    assert err.startswith("fowlerlab: error: integration window must hold the initial time")


def test_plot_data_overflow_writes_no_file(capsys, tmp_path):
    from fowlerlab import IntegratorSettings, cylinder_state, integrate, make_params
    from fowlerlab.serialize import save_trajectory

    params = make_params(3, 1.0, 1.0, 1.0)
    traj = integrate(params, cylinder_state(params)[0],
                     IntegratorSettings(t_span=(-5.0, 500.0)))
    artifact = tmp_path / "orbit.json"
    save_trajectory(traj, artifact)
    plot = tmp_path / "plot.csv"
    code, _, err = run_cli(capsys, "plot-data", "--in", str(artifact), "--out", str(plot))
    assert code == 1
    assert err.startswith("fowlerlab: error: ") and "Traceback" not in err
    assert not plot.exists()


def test_infinite_window_exits_one(capsys, tmp_path):
    out = tmp_path / "orbit.json"
    code, stdout, err = run_cli(capsys, "integrate", *CYLINDER_N3, "--t-min", "-5",
                                "--t-max", "inf", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("fowlerlab: error: ") and "Traceback" not in err
    assert "finite" in err and not out.exists()


@pytest.mark.parametrize("horizon", ["inf", "0", "-10"])
def test_bad_horizon_exits_one(capsys, horizon):
    code, out, err = run_cli(capsys, "sign-change", "--N", "3", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--runs", "2", f"--horizon={horizon}")
    assert code == 1 and out == ""
    assert err.startswith("fowlerlab: error: horizon must be finite and positive")
    assert "Traceback" not in err


P3 = ("--N", "3", "--mu1", "1", "--mu2", "1", "--beta", "1")


def test_shoot_settings_flags_override_shoot_defaults(capsys, tmp_path):
    # rel_tol 1e-12 is shoot's own value: giving it again changes nothing.
    _, flagless, _ = run_cli(capsys, "shoot", *P3)
    code, flagged, _ = run_cli(capsys, "shoot", *P3, "--rel-tol", "1e-12")
    assert code == 0 and flagged == flagless
    config = tmp_path / "shoot.json"
    config.write_text(json.dumps({"settings": {"rel_tol": 1e-12}}))
    code, configured, _ = run_cli(capsys, "shoot", *P3, "--config", str(config))
    assert code == 0 and configured == flagless


def test_top_level_eps_config_key_is_rejected(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"eps": 2.0}))
    code, _, _ = run_cli(capsys, "bubble", *P3, "--config", str(config))
    assert code == 3


@pytest.mark.parametrize("command,flag", [
    ("sweep", "--N"), ("sweep", "--mu1"), ("sweep", "--mu2"), ("sweep", "--beta"),
    ("sign-change", "--t-min"), ("sign-change", "--t-max"),
])
def test_flags_without_effect_are_not_taken(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag, "-1")
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("extra,config,exit_code", [
    (("--orbit", "bubble", "--initial", "0.3", "0.3", "0", "0"), None, 1),
    (("--orbit", "cylinder", "--eps", "2"), None, 1),
    ((), {"initial": {"orbit": "bubble", "a1": 0.3, "a2": 0.3, "b1": 0.0, "b2": 0.0}}, 1),
    ((), {"initial": {"a1": 0.3, "a2": 0.3, "b1": 0.0, "b2": 0.0, "eps": 2.0}}, 1),
    ((), {"initial": {"orbit": "cylinder", "a1": 0.3}}, 3),  # a1..b2 come all or none
])
def test_initial_data_from_one_source(capsys, tmp_path, extra, config, exit_code):
    args = list(P3) + list(extra)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code, out, err = run_cli(capsys, "integrate", *args, "--t-min", "-2", "--t-max", "2")
    assert code == exit_code and out == ""
    assert err.startswith("fowlerlab: error: ")


def test_flag_source_beats_config_source(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"initial": {"orbit": "bubble"}}))
    code, out, _ = run_cli(capsys, "integrate", *CYLINDER_N3, "--config", str(config),
                           "--t-min", "-2", "--t-max", "2")
    assert code == 0
    assert stdout_json(out)["psi0"] == pytest.approx(-0.0589256, abs=5e-8)
    # The config eps would then scale data that is not the bubble orbit.
    config.write_text(json.dumps({"initial": {"orbit": "bubble", "eps": 2.0}}))
    code, out, _ = run_cli(capsys, "integrate", *CYLINDER_N3, "--config", str(config),
                           "--t-min", "-2", "--t-max", "2")
    assert code == 1 and out == ""


def test_config_out_applies_to_every_command_with_out(capsys, tmp_path):
    out = tmp_path / "cylinder.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(out)}))
    code, stdout, _ = run_cli(capsys, "cylinder", *P3, "--config", str(config))
    assert code == 0
    assert json.loads(stdout) == {"written": str(out)}
    validate(json.loads(out.read_text()), "cylinder")


@pytest.mark.parametrize("max_step", ["0", "-1", "nan"])
def test_nonpositive_max_step_exits_one(capsys, max_step):
    code, out, err = run_cli(capsys, "integrate", *CYLINDER_N3, f"--max-step={max_step}")
    assert code == 1 and out == ""
    assert "max_step must be positive" in err


@pytest.mark.parametrize("argv,message", [
    (("sign-change", *P3, "--runs", "-1"), "n_runs must be nonnegative"),
    (("search-semi", "--N", "5", "--mu1", "1", "--mu2", "1", "--beta", "1", "--runs", "-5"),
     "n_runs must be nonnegative"),
    (("sweep", "--workers", "0"), "workers must be at least 1"),
])
def test_out_of_range_counts_exit_one(capsys, tmp_path, argv, message):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"param_grid": [[3, 1.0, 1.0, 1.0]],
                                  "initial_grid": [[0.5, 0.5, 0.0, 0.0]]}))
    code, out, err = run_cli(capsys, *argv, "--config", str(config))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("command", ["sign-change", "search-semi"])
def test_negative_seed_flag_exits_one(capsys, command):
    code, out, err = run_cli(capsys, command, "--N", "5", "--mu1", "1", "--mu2", "1",
                             "--beta", "1", "--runs", "2", "--seed", "-1")
    assert code == 1 and out == ""
    assert err.startswith("fowlerlab: error: seed must be nonnegative")
    assert "Traceback" not in err


def test_negative_seed_config_exits_three(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": -1}))
    code, out, err = run_cli(capsys, "sign-change", *P3, "--runs", "2",
                             "--config", str(config))
    assert code == 3 and out == ""
    assert err.startswith("fowlerlab: error: run_config: -1 is less than the minimum of 0")


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_plot_data_needs_a_sample(capsys, tmp_path, samples):
    artifact = tmp_path / "orbit.json"
    code, _, _ = run_cli(capsys, "integrate", *CYLINDER_N3, "--t-min", "-2", "--t-max", "2",
                         "--out", str(artifact))
    assert code == 0
    plot = tmp_path / "plot.csv"
    code, out, err = run_cli(capsys, "plot-data", "--in", str(artifact), "--out", str(plot),
                             f"--samples={samples}")
    assert code == 1 and out == ""
    assert err.startswith("fowlerlab: error: samples must be at least 1")
    assert not plot.exists()


def run_cli_process(*argv):
    """The CLI in a process of its own: a run that never ends fails the test
    when the timeout expires, instead of hanging the suite."""
    import fowlerlab

    src = os.path.dirname(os.path.dirname(fowlerlab.__file__))
    done = subprocess.run([sys.executable, "-m", "fowlerlab.cli", *argv], capture_output=True,
                          text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", [
    ("integrate", *CYLINDER_N3, "--rel-tol", "inf"),
    ("integrate", *CYLINDER_N3, "--abs-tol", "inf", "--out", "orbit.json"),
    ("sign-change", *P3, "--runs", "2", "--rel-tol", "inf"),
])
def test_infinite_tolerance_exits_one(tmp_path, monkeypatch, argv):
    # An infinite tolerance error-checks no step; with a zero velocity the
    # error scale is 0 * inf = NaN and the step size with it.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli_process(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("fowlerlab: error: tolerances must be positive and finite")
    assert "Traceback" not in err and not (tmp_path / "orbit.json").exists()


@pytest.mark.parametrize("tol", ["1e-300", "1e-320"])
def test_unattainable_tolerance_ends_in_step_underflow(tmp_path, tol):
    # Both tolerances this small make the step size NaN, which no step-size
    # floor test caught.
    out = tmp_path / "orbit.json"
    code, _, err = run_cli_process("integrate", *CYLINDER_N3, "--rel-tol", tol,
                                   "--abs-tol", tol, "--out", str(out))
    assert (code, err) == (0, "")
    assert json.loads(out.read_text())["failure"] == "StepSizeUnderflow"


def test_a_run_that_never_integrated_gets_no_verdict():
    code, out, err = run_cli_process("integrate", *CYLINDER_N3, "--rel-tol", "1e-300",
                                     "--abs-tol", "1e-300")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["n_nodes"], doc["certified"], doc["verdict"]) == (1, False, "Inconclusive")


def test_tiny_abs_tol_integrates():
    # The starting-step estimate underflowed to 0 and was divided by.
    code, out, err = run_cli_process("integrate", *CYLINDER_N3, "--abs-tol", "1e-300")
    assert (code, err) == (0, "")
    assert json.loads(out)["certified"]


def _artifact(tmp_path) -> tuple:
    path = tmp_path / "orbit.json"
    assert main(["integrate", *CYLINDER_N3, "--t-min", "-2", "--t-max", "2",
                 "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


def _exits_three(capsys, path, command="classify"):
    capsys.readouterr()
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("fowlerlab: error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_infinite_psi0_artifact_exits_three(capsys, tmp_path, command):
    path, doc = _artifact(tmp_path)
    doc["psi0"] = math.inf
    path.write_text(json.dumps(doc))
    err = _exits_three(capsys, path, command)
    assert "not valid JSON: Infinity is not a finite number" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_node_artifact_exits_three(capsys, tmp_path, value):
    path, doc = _artifact(tmp_path)
    doc["nodes"]["w1"][1] = value
    path.write_text(json.dumps(doc))
    assert "is not a finite number" in _exits_three(capsys, path)


@pytest.mark.parametrize("where", ["psi0", "drift", "t_initial", "nodes", "params", "settings"])
def test_overflowing_number_artifact_exits_three(capsys, tmp_path, where):
    # json reads a literal too large for a float as inf, without complaint.
    path, doc = _artifact(tmp_path)
    if where == "nodes":
        doc["nodes"]["w1"][1] = "OVERFLOW"
    elif where in ("params", "settings"):
        doc[where]["mu1" if where == "params" else "rel_tol"] = "OVERFLOW"
    else:
        doc[where] = "OVERFLOW"
    path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e999"))
    expected = {
        "params": "error: params: coefficient mu1 must be positive, got inf\n",
        "settings": "error: settings: tolerances must be positive and finite, got rel_tol inf",
    }.get(where, "a number is not finite")
    assert expected in _exits_three(capsys, path)


def test_negative_tolerance_artifact_exits_three(capsys, tmp_path):
    # The schema admits a negative tolerance; IntegratorSettings does not.
    path, doc = _artifact(tmp_path)
    doc["settings"]["rel_tol"] = -1e-10
    path.write_text(json.dumps(doc))
    err = _exits_three(capsys, path)
    assert "error: settings: tolerances must be positive and finite, got rel_tol -1e-10" in err


def test_empty_node_artifact_exits_three(capsys, tmp_path):
    path, doc = _artifact(tmp_path)
    doc["nodes"] = {key: [] for key in doc["nodes"]}
    path.write_text(json.dumps(doc))
    assert _exits_three(capsys, path) == "fowlerlab: error: node arrays are empty\n"


def test_reversed_node_times_exit_three(capsys, tmp_path):
    path, doc = _artifact(tmp_path)
    doc["nodes"] = {key: values[::-1] for key, values in doc["nodes"].items()}
    path.write_text(json.dumps(doc))
    err = _exits_three(capsys, path)
    assert err == "fowlerlab: error: node times do not strictly increase\n"


def test_non_finite_config_exits_three(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"settings": {"rel_tol": NaN}}')
    code, out, err = run_cli(capsys, "integrate", *CYLINDER_N3, "--config", str(config))
    assert (code, out) == (3, "")
    assert err == ("fowlerlab: error: config is not valid JSON: NaN is not a finite "
                   "number\n")
