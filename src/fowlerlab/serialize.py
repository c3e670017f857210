"""JSON artifacts, schema validation, and CSV export.

dumps writes the text of json.dumps(indent=2, sort_keys=True,
allow_nan=False), byte for byte, without json's pure-Python encoder (which
indent selects) visiting every float: a list of plain floats is checked
finite once and written from one repr of the list, each float as
float.__repr__, the shortest decimal that reads back as the same float.  So
numeric fields survive a save/load cycle bit-exactly.  Node accelerations
are not stored: the field at the reloaded nodes gives them back exactly.
Every artifact carries a schema_version and is validated against the schema
files shipped under fowlerlab/schemas/.

Each shipped schema gets one draft-07 validator, built and meta-checked on
first use and cached.  It differs from jsonschema's own in one keyword: an
array whose items must be {"type": "number"} passes outright when every item
is a plain float or int, a check made once on the set of item types;
otherwise each item that is not gets jsonschema's own check and error.  So a
document is accepted or rejected with the same message as by
jsonschema.validate, without one schema descent per node value.  jsonschema
is imported on the first validation, so runs that never validate do not
load it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .classify import Classification
from .dynamics import Event, IntegratorSettings, Trajectory
from .errors import DomainError, SchemaMismatch
from .invariants import InvariantReport, f_arrays, psi_arrays, to_radial
from .params import SystemParams, make_params
from .state import FowlerState

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import ExperimentReport, InitialData

SCHEMA_VERSION = 1

#: CSV export column order (fixed schema).
CSV_COLUMNS = ("t", "w1", "w2", "dw1", "dw2", "psi")


_NUMBER = {"type": "number"}
_NUMBER_TYPES = {float, int}


@lru_cache(maxsize=None)
def _validator(name: str):
    """The shipped schema's validator (see the module docstring), built once."""
    from jsonschema.validators import extend, validator_for

    path = resources.files("fowlerlab").joinpath("schemas", f"{name}.schema.json")
    schema = json.loads(path.read_text())
    cls = validator_for(schema)
    cls.check_schema(schema)
    stock_items = cls.VALIDATORS["items"]

    def items(validator, items_schema, instance, schema):
        if items_schema != _NUMBER or type(instance) is not list:
            yield from stock_items(validator, items_schema, instance, schema)
            return
        if set(map(type, instance)) <= _NUMBER_TYPES:
            return
        for index, item in enumerate(instance):
            if type(item) is not float and type(item) is not int:
                yield from validator.descend(item, items_schema, path=index)

    return extend(cls, {"items": items})(schema)


def validate(instance: dict, schema_name: str) -> None:
    """Validate a document against a shipped schema; SchemaMismatch on failure."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator(schema_name).iter_errors(instance))
    if error is not None:
        raise SchemaMismatch(f"{schema_name}: {error.message}") from error
    version = instance.get("schema_version")
    if "schema_version" in instance and version != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema_version {version!r}")


def dumps(document: dict) -> str:
    """Canonical JSON text: sorted keys, stable layout, lossless floats.

    Equal to json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    + "\n", errors included: ValueError for a non-finite float, TypeError
    for a value or key json cannot write.  The document must be a tree.
    """
    return _encode(document, "") + "\n"


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (float, int)) or key is None:  # bool is an int
        return '"' + _encode(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(value, pad: str) -> str:
    """value as json's indent=2, sorted-key layout writes it at indentation pad."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if (type(value) is list and set(map(type, value)) == {float}
                and all(map(math.isfinite, value))):
            # A float repr holds no ", ", so the list's repr splits exactly
            # between items.
            body = repr(value)[1:-1].replace(", ", sep)
        else:
            body = sep.join([_encode(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([_key(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())])
        return "{\n" + inner + body + "\n" + pad + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def params_to_dict(params: SystemParams) -> dict:
    return {"N": params.N, "mu1": params.mu1, "mu2": params.mu2, "beta": params.beta}


def params_from_dict(doc: dict) -> SystemParams:
    return make_params(doc["N"], doc["mu1"], doc["mu2"], doc["beta"])


def settings_to_dict(settings: IntegratorSettings) -> dict:
    doc = asdict(settings)
    doc["t_span"] = list(settings.t_span)
    doc["max_step"] = None if math.isinf(settings.max_step) else settings.max_step
    return doc


def settings_from_dict(doc: dict) -> IntegratorSettings:
    """Settings from a full or partial document; a null max_step is unbounded.

    Older artifacts also name a refinement tolerance for crossings, which
    are now bisected to adjacent floats, and the positive-mode floor, now
    dynamics.POSITIVITY_FLOOR; both are dropped.
    """
    doc = dict(doc)
    for legacy in ("event_refinement_tol", "positivity_floor"):
        doc.pop(legacy, None)
    if "t_span" in doc:
        doc["t_span"] = tuple(doc["t_span"])
    if "max_step" in doc and doc["max_step"] is None:
        doc["max_step"] = math.inf
    return IntegratorSettings(**doc)


def state_to_list(state: FowlerState) -> list[float]:
    return [state.t, state.w1, state.w2, state.dw1, state.dw2]


def event_to_dict(event: Event) -> dict:
    return {
        "kind": event.kind,
        "t": event.t,
        "component": event.component,
        "state": state_to_list(event.state),
    }


def event_from_dict(doc: dict) -> Event:
    s = doc["state"]
    return Event(
        kind=doc["kind"],
        t=doc["t"],
        component=doc["component"],
        state=FowlerState(*s),
    )


def invariant_report_to_dict(report: InvariantReport) -> dict:
    doc = asdict(report)
    for key in ("f_margin", "f_positive", "lambda_margin", "lambda_bound",
                "gradient_margin", "gradient_bound"):
        doc[key] = list(doc[key])
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def classification_to_dict(result: Classification) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": result.verdict,
        "K_value": result.K_value,
        "evidence": result.evidence,
    }


def initial_data_to_dict(data: InitialData) -> dict:
    return asdict(data)


def experiment_report_to_dict(report: ExperimentReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "seed": report.seed,
        "n_runs": report.n_runs,
        "counts": dict(sorted(report.counts.items())),
        "failures": report.failures,
        "runs": report.runs,
        "summary": report.summary,
    }


def trajectory_to_dict(
    traj: Trajectory,
    invariant_report: InvariantReport | None = None,
    classification: Classification | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": params_to_dict(traj.params),
        "settings": settings_to_dict(traj.settings),
        "mode": traj.mode,
        "t_initial": traj.t_initial,
        "psi0": traj.psi0,
        "drift": traj.drift,
        "failure": traj.failure,
        "certified": traj.certified,
        "nodes": {
            "t": traj.t.tolist(),
            "w1": traj.y[0].tolist(),
            "w2": traj.y[1].tolist(),
            "dw1": traj.y[2].tolist(),
            "dw2": traj.y[3].tolist(),
            "psi": traj.psi.tolist(),
        },
        "events": [event_to_dict(e) for e in traj.events],
        "reports": {},
    }
    if invariant_report is not None:
        doc["reports"]["invariants"] = invariant_report_to_dict(invariant_report)
    if classification is not None:
        doc["reports"]["classification"] = classification_to_dict(classification)
    return doc


def trajectory_from_dict(doc: dict) -> Trajectory:
    validate(doc, "trajectory")
    # The schema admits values that make_params or IntegratorSettings refuse:
    # a negative tolerance, or a literal json reads as inf.
    try:
        params = params_from_dict(doc["params"])
    except DomainError as exc:
        raise SchemaMismatch(f"params: {exc}") from exc
    try:
        settings = settings_from_dict(doc["settings"])
    except DomainError as exc:
        raise SchemaMismatch(f"settings: {exc}") from exc
    nodes = doc["nodes"]
    if len({len(nodes[k]) for k in ("t", "w1", "w2", "dw1", "dw2", "psi")}) != 1:
        raise SchemaMismatch("node arrays have inconsistent lengths")
    # Every artifact that save_trajectory writes meets these.
    t = np.array(nodes["t"], dtype=float)
    y = np.array([nodes["w1"], nodes["w2"], nodes["dw1"], nodes["dw2"]], dtype=float)
    psi = np.array(nodes["psi"], dtype=float)
    # json reads a number literal too large for a float as inf.
    for name, values in (("node times", t), ("node states", y), ("node energies", psi),
                         ("psi0", doc["psi0"]), ("drift", doc["drift"]),
                         ("t_initial", doc["t_initial"]),
                         ("events", [[e["t"], *e["state"]] for e in doc["events"]])):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise SchemaMismatch(f"{name}: a number is not finite")
    if not len(t):
        raise SchemaMismatch("node arrays are empty")
    if not np.all(t[1:] > t[:-1]):
        raise SchemaMismatch("node times do not strictly increase")
    if doc["t_initial"] not in t:
        raise SchemaMismatch("t_initial is not a node time")
    return Trajectory(
        params=params,
        settings=settings,
        mode=doc["mode"],
        t=t,
        y=y,
        psi=psi,
        events=tuple(event_from_dict(e) for e in doc["events"]),
        psi0=doc["psi0"],
        drift=doc["drift"],
        t_initial=doc["t_initial"],
        failure=doc.get("failure"),
    )


def save_trajectory(
    traj: Trajectory,
    path,
    invariant_report: InvariantReport | None = None,
    classification: Classification | None = None,
) -> None:
    """Write the single-file JSON artifact (optionally embedding reports)."""
    # Encoded before the file is opened, so a failure leaves no file.
    text = dumps(trajectory_to_dict(traj, invariant_report, classification))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _non_finite(constant: str):
    raise ValueError(f"{constant} is not a finite number")


def read_json(path, context: str = ""):
    """The JSON document in an artifact or config file.

    SchemaMismatch, its message led by context, for a file that is not UTF-8
    JSON, and for the constants NaN, Infinity and -Infinity, which json
    reads but dumps never writes; I/O failures raise OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_non_finite)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            raise SchemaMismatch(f"{context}not valid JSON: {exc}") from exc


def load_trajectory(path) -> Trajectory:
    """Load and validate a trajectory artifact.

    Raises SchemaMismatch for truncated, malformed, non-finite or non-UTF-8
    files, for version mismatches and for nodes trajectory_from_dict
    refuses; I/O failures raise OSError.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaMismatch("artifact root must be an object")
    return trajectory_from_dict(doc)


def export_csv(traj: Trajectory, path) -> None:
    """Node table with columns exactly t,w1,w2,dw1,dw2,psi."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        # csv writes a float as its repr.
        writer.writerows(zip(traj.t.tolist(), *traj.y.tolist(), traj.psi.tolist()))


def export_plot_data(traj: Trajectory, path, samples: int | None = None) -> None:
    """Columnar plot file: t,w1,w2,psi,f1,f2 plus the radial picture r,u,v."""
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples!r}")
    if samples is None:
        ts = traj.t
        w1, w2, dw1, dw2 = traj.y
    else:
        ts = np.linspace(traj.t_min, traj.t_max, samples)
        w1, w2, dw1, dw2 = traj.sample(ts)
    psis = psi_arrays(traj.params, w1, w2, dw1, dw2)
    f1, f2 = f_arrays(traj.params, w1, w2, dw1, dw2)
    # The radial map runs before the file is opened, so a DomainError from
    # it leaves no partial file.
    r, u, v, _, _ = to_radial(traj.params, (ts, (w1, w2, dw1, dw2)))
    columns = (ts, w1, w2, psis, f1, f2, r, u, v)
    rows = [[repr(x) for x in row] for row in zip(*(c.tolist() for c in columns))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "w1", "w2", "psi", "f1", "f2", "r", "u", "v"))
        writer.writerows(rows)
