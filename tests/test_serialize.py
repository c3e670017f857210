import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    classify,
    export_csv,
    export_plot_data,
    integrate,
    load_trajectory,
    monitor,
    save_trajectory,
    sign_change_experiment,
    sweep,
    to_radial,
)
from fowlerlab.cli import main
from fowlerlab.errors import SchemaMismatch
from fowlerlab.experiments import InitialData
from fowlerlab.serialize import (
    CSV_COLUMNS,
    classification_to_dict,
    dumps,
    experiment_report_to_dict,
    invariant_report_to_dict,
    settings_from_dict,
    settings_to_dict,
    trajectory_to_dict,
    validate,
)


class TestRoundTrip:
    def test_bit_exact_nodes(self, p3, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.json"
        save_trajectory(perturbed_traj, path)
        back = load_trajectory(path)
        assert np.array_equal(back.t, perturbed_traj.t)
        assert np.array_equal(back.y, perturbed_traj.y)
        assert np.array_equal(back.psi, perturbed_traj.psi)
        assert back.psi0 == perturbed_traj.psi0
        assert back.drift == perturbed_traj.drift
        assert back.params == perturbed_traj.params
        assert back.settings == perturbed_traj.settings
        assert back.events == perturbed_traj.events
        assert back.mode == perturbed_traj.mode

    def test_save_load_save_is_stable(self, perturbed_traj, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_trajectory(perturbed_traj, p1)
        save_trajectory(load_trajectory(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dense_sampling_survives_round_trip(self, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.json"
        save_trajectory(perturbed_traj, path)
        back = load_trajectory(path)
        ts = np.linspace(back.t_min, back.t_max, 333)
        assert np.array_equal(back.sample(ts), perturbed_traj.sample(ts))

    def test_events_round_trip(self, p3, tmp_path):
        from fowlerlab import FowlerState, integrate

        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-30.0, 30.0)),
                         mode="signed")
        assert traj.events
        path = tmp_path / "signed.json"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.events == traj.events

    def test_classification_reclassifies_identically(self, p3, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.json"
        verdict = classify(p3, perturbed_traj)
        save_trajectory(perturbed_traj, path, classification=verdict)
        back = load_trajectory(path)
        assert classify(back.params, back).verdict == verdict.verdict

    def test_infinite_max_step_round_trips(self, p3, tmp_path):
        from fowlerlab import cylinder_state, integrate

        settings_ = IntegratorSettings(t_span=(-2.0, 2.0), max_step=math.inf)
        traj = integrate(p3, cylinder_state(p3)[0], settings_)
        path = tmp_path / "inf.json"
        save_trajectory(traj, path)
        doc = json.loads(path.read_text())
        assert doc["settings"]["max_step"] is None
        assert load_trajectory(path).settings.max_step == math.inf


class TestLosslessFloats:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_json_float_round_trip(self, x):
        assert json.loads(json.dumps(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=200, deadline=None)
    def test_dumps_round_trip_inside_document(self, x):
        doc = {"value": x}
        assert json.loads(dumps(doc))["value"] == x


def _stdlib(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome_of(encode, document):
    """The text encode writes, or the type and message of what it raises."""
    try:
        return encode(document)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308]),
)
# Items that keep a list off the plain-float path.
_ODD_ITEMS = st.one_of(st.booleans(), st.integers(), st.none(), _FLOATS.map(np.float64))
_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\x00", "a\x01\x1f\x7f", "\t\n\r\"\\/", "é", "\u2028",
                     "\U0001f600", "\ud800"]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    st.lists(_FLOATS, max_size=6),
    st.lists(st.one_of(_FLOATS, _ODD_ITEMS), max_size=6),
)
_DOCUMENTS = st.dictionaries(_TEXT, st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=12,
), max_size=5)


class TestDumps:
    """dumps writes exactly the stdlib's indent=2 text, and fails as it does."""

    @given(_DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_equals_stdlib(self, document):
        assert dumps(document) == _stdlib(document)

    @pytest.mark.parametrize("document", [
        {"x": [1.0, 5e-324, -0.0]},
        {"x": [1, True, None, np.float64(0.1)]},
        {"x": [[]], "y": {}, "z": [{}]},
        {"x": (0.5,), "y": [0.5]},
        {1: "int", 2: "keys"}, {1.5: 1.0}, {True: 1}, {None: [2.0]},
    ])
    def test_edge_documents(self, document):
        assert dumps(document) == _stdlib(document)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("place", [
        lambda x: {"x": x},
        lambda x: {"x": [x]},
        lambda x: {"x": [1.0, 2.0, x]},
        lambda x: {"x": [1, x, 3.0]},
        lambda x: {"x": (1.0, x)},
        lambda x: {"a": {"b": [[0.5], [x, 0.25]]}},
        lambda x: {x: 1.0},
    ])
    def test_non_finite_raises_value_error(self, bad, place):
        document = place(bad)
        outcome = _outcome_of(_stdlib, document)
        assert outcome[0] is ValueError
        assert _outcome_of(dumps, document) == outcome

    @pytest.mark.parametrize("document", [
        {"x": object()}, {"x": [1.0, {1.0}]}, {"x": b"bytes"}, {"x": 1j},
        {("a",): 1.0}, {"x": [1.0, math.nan], "y": object()}, {"a": math.nan, "b": object()},
    ])
    def test_unsupported_raises_as_json(self, document):
        outcome = _outcome_of(_stdlib, document)
        assert isinstance(outcome, tuple)
        assert _outcome_of(dumps, document) == outcome


def test_failed_save_leaves_no_file(perturbed_traj, tmp_path):
    path = tmp_path / "orbit.json"
    with pytest.raises(ValueError, match="Out of range float"):
        save_trajectory(dataclasses.replace(perturbed_traj, drift=math.nan), path)
    assert not path.exists()


def test_sweep_archive_equals_stdlib_text(p3, p4b2, tmp_path):
    settings_ = IntegratorSettings(t_span=(-8.0, 8.0))
    params_grid = [p3, p4b2]
    initial_grid = [(0.5, 0.5, 0.0, 0.0), (0.05, 0.5, -0.5, 0.3)]
    report = sweep(params_grid, initial_grid, settings_, mode="signed",
                   archive_dir=str(tmp_path))
    records = report.runs
    assert len(records) == 4 and all("trajectory" in r for r in records)
    assert sorted(os.listdir(tmp_path)) == sorted(r["trajectory"] for r in records)
    for record in records:
        params = params_grid[record["params_index"]]
        data = InitialData.from_values(params, *initial_grid[record["initial_index"]])
        traj = integrate(params, data.state(), settings_, mode="signed")
        invariants = monitor(params, traj)
        doc = trajectory_to_dict(traj, invariants, classify(params, traj, invariants))
        assert (tmp_path / record["trajectory"]).read_text() == _stdlib(doc)


class TestValidation:
    def test_truncated_file(self, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.json"
        save_trajectory(perturbed_traj, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SchemaMismatch):
            load_trajectory(path)

    def test_wrong_version(self, perturbed_traj, tmp_path):
        doc = trajectory_to_dict(perturbed_traj)
        doc["schema_version"] = 999
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_trajectory(path)

    def test_unknown_key_rejected(self, perturbed_traj, tmp_path):
        doc = trajectory_to_dict(perturbed_traj)
        path = tmp_path / "orbit.json"
        for where in ((), ("settings",)):
            path.write_text(json.dumps(_replace(doc, (*where, "surprise"), 1)))
            with pytest.raises(SchemaMismatch):
                load_trajectory(path)
        # A settings key that older versions wrote still loads; it is no
        # longer written.
        for key, value in (("event_refinement_tol", 1e-12), ("positivity_floor", 1e-14)):
            assert key not in doc["settings"]
            legacy = _replace(doc, ("settings", key), value)
            path.write_text(json.dumps(legacy))
            assert load_trajectory(path).settings == perturbed_traj.settings

    @pytest.mark.parametrize("key", ["t", "w1", "w2", "dw1", "dw2", "psi"])
    def test_ragged_node_arrays_rejected(self, perturbed_traj, tmp_path, key):
        doc = trajectory_to_dict(perturbed_traj)
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(_replace(doc, ("nodes", key), doc["nodes"][key][:-1])))
        with pytest.raises(SchemaMismatch, match="node arrays have inconsistent lengths"):
            load_trajectory(path)

    def test_t_initial_off_the_nodes_rejected(self, perturbed_traj, tmp_path):
        # classify reads the initial state at its node.
        doc = trajectory_to_dict(perturbed_traj)
        between = 0.5 * (doc["nodes"]["t"][0] + doc["nodes"]["t"][1])
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(_replace(doc, ("t_initial",), between)))
        with pytest.raises(SchemaMismatch, match="t_initial is not a node time"):
            load_trajectory(path)

    def test_event_kind_outside_the_three_rejected(self, perturbed_traj, tmp_path):
        # Only SignChange, PositivityLoss and BlowUp are ever recorded.
        doc = trajectory_to_dict(perturbed_traj)
        event = {"kind": "SignChange", "t": 0.0, "component": 1,
                 "state": [0.0, *perturbed_traj.y[:, 0].tolist()]}
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(_replace(doc, ("events",), [event])))
        assert load_trajectory(path).events[0].kind == "SignChange"
        path.write_text(json.dumps(_replace(doc, ("events",), [{**event, "kind": "LocalMax"}])))
        with pytest.raises(SchemaMismatch):
            load_trajectory(path)

    def test_missing_field_rejected(self, perturbed_traj, tmp_path):
        doc = trajectory_to_dict(perturbed_traj)
        del doc["nodes"]
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_trajectory(path)

    def test_run_config_unknown_key(self):
        with pytest.raises(SchemaMismatch):
            validate({"params": {"N": 3, "mu1": 1, "mu2": 1, "beta": 1},
                      "mystery": True}, "run_config")

    def test_settings_round_trip(self):
        s = IntegratorSettings(rel_tol=1e-9, t_span=(-5.0, 7.0))
        assert settings_from_dict(settings_to_dict(s)) == s

    def test_partial_settings_keep_defaults(self):
        assert settings_from_dict({}) == IntegratorSettings()
        assert settings_from_dict({"rel_tol": 1e-9}) == IntegratorSettings(rel_tol=1e-9)
        assert settings_from_dict({"max_step": None}).max_step == math.inf
        assert settings_from_dict({"t_span": [-3.0, 4.0]}).t_span == (-3.0, 4.0)


class TestCsv:
    def test_column_order(self, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.csv"
        export_csv(perturbed_traj, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS) == "t,w1,w2,dw1,dw2,psi"

    def test_values_lossless(self, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.csv"
        export_csv(perturbed_traj, path)
        lines = path.read_text().splitlines()[1:]
        first = [float(x) for x in lines[0].split(",")]
        assert first[0] == perturbed_traj.t[0]
        assert first[1] == perturbed_traj.y[0][0]
        assert first[5] == perturbed_traj.psi[0]

    def test_bytes_equal_per_cell_repr_rows(self, perturbed_traj, tmp_path):
        path = tmp_path / "orbit.csv"
        export_csv(perturbed_traj, path)
        expected = tmp_path / "expected.csv"
        traj = perturbed_traj
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i, t in enumerate(traj.t):
                writer.writerow([repr(float(v)) for v in (t, traj.y[0][i], traj.y[1][i],
                                                          traj.y[2][i], traj.y[3][i],
                                                          traj.psi[i])])
        assert path.read_bytes() == expected.read_bytes()

    def test_plot_data_columns(self, perturbed_traj, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data(perturbed_traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,w1,w2,psi,f1,f2,r,u,v"

    def test_plot_data_radial_consistency(self, p3, perturbed_traj, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data(perturbed_traj, path, samples=50)
        row = [float(x) for x in path.read_text().splitlines()[1].split(",")]
        t, w1 = row[0], row[1]
        r, u = row[6], row[7]
        assert r == pytest.approx(math.exp(-t), rel=1e-15)
        assert u == pytest.approx(r**-p3.delta * w1, rel=1e-14)

    @pytest.mark.parametrize("samples", [50, None])
    def test_plot_data_radial_columns_are_to_radial(self, p3, perturbed_traj, tmp_path, samples):
        # The radial picture has one formula: every row matches to_radial.
        path = tmp_path / "plot.csv"
        export_plot_data(perturbed_traj, path, samples=samples)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == (samples or len(perturbed_traj.t))
        for line in lines:
            t, w1, w2, _, _, _, r, u, v = (float(x) for x in line.split(","))
            assert (r, u, v) == to_radial(p3, FowlerState(t, w1, w2, 0.0, 0.0))[:3]


class TestReportSerialization:
    def test_counts_are_the_verdicts_of_the_runs(self):
        from fowlerlab import ExperimentReport

        runs = [{"verdict": verdict} for verdict in ("B", "A", "B")]
        report = ExperimentReport(kind="sweep", seed=0, runs=runs, failures=[], summary={})
        assert report.n_runs == 3
        # In the order the labels first occur; the document sorts them.
        assert list(report.counts.items()) == [("B", 2), ("A", 1)]
        doc = experiment_report_to_dict(report)
        assert (doc["n_runs"], list(doc["counts"].items())) == (3, [("A", 1), ("B", 2)])

    def test_invariant_report_schema(self, p3, perturbed_traj):
        from fowlerlab.serialize import invariant_report_to_dict

        doc = invariant_report_to_dict(monitor(p3, perturbed_traj))
        validate(doc, "invariant_report")

    def test_embedded_reports_round_trip(self, p3, perturbed_traj, tmp_path):
        report = monitor(p3, perturbed_traj)
        verdict = classify(p3, perturbed_traj, report)
        path = tmp_path / "orbit.json"
        save_trajectory(perturbed_traj, path, invariant_report=report,
                        classification=verdict)
        doc = json.loads(path.read_text())
        validate(doc, "trajectory")
        embedded = doc["reports"]
        assert embedded["classification"]["verdict"] == verdict.verdict
        assert embedded["classification"]["K_value"] == verdict.K_value
        assert embedded["invariants"]["psi_drift"] == report.psi_drift


# --- the cached validator against stock jsonschema.validate ---------------

SCHEMAS = resources.files("fowlerlab").joinpath("schemas")
SCHEMA_NAMES = sorted(f.name[: -len(".schema.json")] for f in SCHEMAS.iterdir()
                      if f.name.endswith(".schema.json"))

# Stand-ins for one array item: bool, null, string, array, object, a float
# subclass, an int and a nan.
BAD_ITEMS = (True, None, "1.0", [1.0], {}, np.float64(2.0), 3, math.nan)

P3_FLAGS = ("--N", "3", "--mu1", "1", "--mu2", "1", "--beta", "1")


def _cli_document(tmp_path_factory, *argv):
    path = tmp_path_factory.mktemp("cli") / "out.json"
    assert main([*argv, *P3_FLAGS, "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def valid_documents(p3, tmp_path_factory):
    """One valid document per shipped schema, as the package writes it."""
    # A short signed orbit: few nodes, and an event with its state.
    traj = integrate(p3, FowlerState(0.0, 0.05, 0.5, -0.5, 0.3),
                     IntegratorSettings(t_span=(-1.0, 1.0)), mode="signed")
    assert traj.events
    report = monitor(p3, traj)
    verdict = classify(p3, traj, report)
    path = tmp_path_factory.mktemp("orbit") / "orbit.json"
    save_trajectory(traj, path, invariant_report=report, classification=verdict)
    return {
        "trajectory": json.loads(path.read_text()),
        "invariant_report": invariant_report_to_dict(report),
        "classification": classification_to_dict(verdict),
        "experiment_report": experiment_report_to_dict(
            sign_change_experiment(p3, n_runs=2, seed=1)),
        "run_config": {
            "params": {"N": 3, "mu1": 1.0, "mu2": 1.0, "beta": 1.0},
            "initial": {"a1": 0.5, "a2": 0.5, "b1": 0.3, "b2": -0.3},
            "settings": {"t_span": [-3.0, 3.0], "max_step": None},
            "seed": 4,
            "param_grid": [[3, 1.0, 1.0, 1.0], [4, 1.0, 1.0, 2.0]],
            "initial_grid": [[0.5, 0.5, 0.0, 0.0]],
        },
        "bubble": _cli_document(tmp_path_factory, "bubble", "--r", "0.5", "--r", "2.0"),
        "cylinder": _cli_document(tmp_path_factory, "cylinder"),
        "coupling": _cli_document(tmp_path_factory, "solve-kl"),
        "shoot": _cli_document(tmp_path_factory, "shoot"),
    }


def _containers(doc):
    """Path of every list and dict in doc, the first of each shape only.

    Paths that differ only in list indices (events.0.state, events.1.state)
    meet the same subschema, so the first one stands for all of them.
    """
    seen = set()

    def walk(node, path):
        shape = tuple("*" if isinstance(key, int) else key for key in path)
        if isinstance(node, (list, dict)) and shape not in seen:
            seen.add(shape)
            yield path
        children = enumerate(node) if isinstance(node, list) else (
            node.items() if isinstance(node, dict) else ())
        for key, child in children:
            yield from walk(child, (*path, key))

    return list(walk(doc, ()))


def _replace(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutants(doc):
    """(label, document) pairs, each one small edit away from doc."""
    for path in _containers(doc):
        node = _get(doc, path)
        if isinstance(node, dict):
            yield f"{path}: extra key", _replace(doc, (*path, "surprise"), 1.0)
            if path:
                yield f"{path}: as a list", _replace(doc, path, list(node.values()))
            continue
        if path:
            yield f"{path}: as a string", _replace(doc, path, json.dumps(node))
        for index in sorted({0, len(node) - 1} if node else ()):
            for bad in BAD_ITEMS:
                yield f"{path}[{index}] = {bad!r}", _replace(doc, (*path, index), bad)
        if len(node) >= 2:
            # Two bad items: the error that wins must be the same one.
            twice = _replace(doc, (*path, len(node) - 1), "1.0")
            yield f"{path}: two bad items", _replace(twice, (*path, 0), None)


def _stock_outcome(doc, name):
    schema = json.loads(SCHEMAS.joinpath(f"{name}.schema.json").read_text())
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return f"{name}: {exc.message}"
    return None


def _outcome(doc, name):
    try:
        validate(doc, name)
    except SchemaMismatch as exc:
        return str(exc)
    return None


def test_every_schema_has_a_valid_document(valid_documents):
    assert sorted(valid_documents) == SCHEMA_NAMES
    for name, doc in valid_documents.items():
        assert _stock_outcome(doc, name) is None
        assert _outcome(doc, name) is None


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_validate_matches_stock_jsonschema(valid_documents, name):
    if name == "trajectory":
        for key, value in (("event_refinement_tol", 1e-12), ("positivity_floor", 1e-14)):
            legacy = _replace(valid_documents[name], ("settings", key), value)
            assert _stock_outcome(legacy, name) is None
            assert _outcome(legacy, name) is None
    rejected = 0
    for label, doc in _mutants(valid_documents[name]):
        expected = _stock_outcome(doc, name)
        assert _outcome(doc, name) == expected, label
        rejected += expected is not None
    assert rejected > 0


def test_validate_checks_every_node_item(valid_documents):
    doc = valid_documents["trajectory"]
    for key in ("t", "w1", "w2", "dw1", "dw2", "psi"):
        for index in range(len(doc["nodes"][key])):
            bad = _replace(doc, ("nodes", key, index), True)
            with pytest.raises(SchemaMismatch, match="True is not of type 'number'"):
                validate(bad, "trajectory")


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_shipped_schema_is_draft_07(name):
    schema = json.loads(SCHEMAS.joinpath(f"{name}.schema.json").read_text())
    assert schema["$schema"] == "http://json-schema.org/draft-07/schema#"
    jsonschema.Draft7Validator.check_schema(schema)


def _fresh_process(script):
    """Run script in a new interpreter that imports fowlerlab from this tree."""
    import fowlerlab

    src = os.path.dirname(os.path.dirname(fowlerlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_runs_that_never_validate_do_not_load_jsonschema():
    _fresh_process(
        "import sys\n"
        "import fowlerlab\n"
        "fowlerlab.semi_singular_search(fowlerlab.make_params(5, 1.0, 1.0, 1.0), n_runs=1,\n"
        "    settings=fowlerlab.IntegratorSettings(t_span=(-12.0, 12.0)))\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
    )


def test_the_package_does_not_load_scipy():
    # The engine's table is written out in dynamics; scipy, a test
    # dependency, costs about 0.5 s of set-up when imported.
    _fresh_process(
        "import sys\n"
        "import fowlerlab\n"
        "p = fowlerlab.make_params(3, 1.0, 1.0, 1.0)\n"
        "traj = fowlerlab.integrate(p, fowlerlab.cylinder_state(p)[0],\n"
        "                           fowlerlab.IntegratorSettings(t_span=(-2.0, 2.0)))\n"
        "traj.sample([0.5])\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy was imported'\n"
    )


def test_importing_the_package_does_not_load_the_process_pool():
    # Only a sweep with workers > 1 imports it.
    _fresh_process(
        "import sys\n"
        "import fowlerlab\n"
        "assert 'concurrent.futures.process' not in sys.modules, 'the pool was imported'\n"
    )
