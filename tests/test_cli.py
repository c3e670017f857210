import json
import math

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

    def test_no_positive_solution_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "solve-kl", "--N", "4", "--mu1", "1",
                               "--mu2", "2", "--beta", "1.5")
        assert code == 1
        assert "positive" in err


class TestIntegratePipeline:
    def test_invalid_dimension_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--N", "2", "--mu1", "1",
                               "--mu2", "1", "--beta", "1", "--orbit", "cylinder")
        assert code == 1
        assert "N must be >= 3" in err

    def test_bad_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--no-such-flag")
        assert code == 1

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
        config.write_text(json.dumps({"params": {"N": 3, "mu1": 1, "mu2": 1,
                                                 "beta": 1}, "bogus": 1}))
        code, _, err = run_cli(capsys, "integrate", "--config", str(config),
                               "--orbit", "cylinder")
        assert code == 3
        assert "bogus" in err or "additional" in err.lower()

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

    def test_sweep_requires_grids(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--N", "3", "--mu1", "1",
                               "--mu2", "1", "--beta", "1")
        assert code == 1

    def test_shoot(self, capsys):
        code, stdout, _ = run_cli(capsys, "shoot", "--N", "3", "--mu1", "1",
                                  "--mu2", "1", "--beta", "1")
        assert code == 0
        doc = stdout_json(stdout)
        validate(doc, "shoot")
        assert doc["rel_err"] < 1e-6


def _one_failure_report(kind):
    from fowlerlab.experiments import ExperimentReport

    record = {"index": 0, "verdict": "SemiSingularCandidate", "anomaly": True}
    return ExperimentReport(kind=kind, seed=0, n_runs=1, counts={"SemiSingularCandidate": 1},
                            failures=[record], runs=[record])


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


CYLINDER_N3 = ("--N", "3", "--mu1", "1", "--mu2", "1", "--beta", "1", "--orbit", "cylinder")


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
