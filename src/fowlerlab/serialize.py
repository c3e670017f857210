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

Each shipped schema is compiled, on first use, to one cached predicate
(_compile) that checks the draft-07 keywords those files use, in one pass
over the plain JSON values json.load gives; a number array is checked once,
on its set of item types.  A document it accepts is valid, and jsonschema
is not imported.  It declines a document the schema refuses, one holding a
value that is not a plain JSON type, and every document of a schema with a
keyword it does not know; jsonschema's own draft-07 validator then decides
and words the refusal, with best_match's message as jsonschema.validate
gives it.  So a document is accepted or rejected exactly as by
jsonschema.validate.  The shipped schemas are meta-checked against draft 07
by the test suite, not at run time.
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


#: The draft-07 keywords _compile checks; "$schema", "title" and
#: "definitions" assert nothing.
_KEYWORDS = {"$schema", "title", "definitions", "type", "enum", "minimum", "exclusiveMinimum",
             "minItems", "maxItems", "items", "required", "properties",
             "additionalProperties", "dependencies"}
_PLAIN = {dict, list, str, int, float, bool, type(None)}
_NUMBER_TYPES = {float, int}
#: Draft-07 types on plain JSON values: bool is no number, and a float with
#: an integral value is an integer.
_TYPES = {
    "object": lambda value: type(value) is dict,
    "array": lambda value: type(value) is list,
    "string": lambda value: type(value) is str,
    "boolean": lambda value: type(value) is bool,
    "null": lambda value: value is None,
    "number": lambda value: type(value) in _NUMBER_TYPES,
    "integer": lambda value: type(value) is int or (type(value) is float
                                                    and value.is_integer()),
}


class _Unknown(Exception):
    """The schema holds a keyword or form that _compile does not check."""


def _all(checks):
    if len(checks) == 1:
        return checks[0]

    def check(value):
        for each in checks:
            if not each(value):
                return False
        return True

    return check


def _compile(schema: dict):
    """A predicate that is True only on documents the draft-07 schema accepts.

    It is False, declining, on a document the schema refuses, on any value
    it checks that is not a plain JSON type (a float subclass, a tuple), and
    on every document when the schema holds a keyword outside _KEYWORDS or
    a form of one it does not know (a non-local $ref, a non-string enum,
    items as a list, a schema-valued dependency).
    """

    def build(sub):
        if sub is True or sub is False:
            return lambda value: sub
        if type(sub) is not dict:
            raise _Unknown(sub)
        if "$ref" in sub:  # draft 7 ignores the siblings of $ref
            return build(resolve(sub["$ref"]))
        if not sub.keys() <= _KEYWORDS:
            raise _Unknown(sorted(sub.keys() - _KEYWORDS))
        checks = []
        if "type" in sub:
            names = sub["type"] if type(sub["type"]) is list else [sub["type"]]
            if not all(name in _TYPES for name in names):
                raise _Unknown(names)
            types = [_TYPES[name] for name in names]
            checks.append(types[0] if len(types) == 1 else
                          lambda value: any(is_type(value) for is_type in types))
        if "enum" in sub:
            if not all(type(member) is str for member in sub["enum"]):
                raise _Unknown(sub["enum"])
            members = frozenset(sub["enum"])
            checks.append(lambda value: type(value) is str and value in members)
        if not checks:
            checks.append(lambda value: type(value) in _PLAIN)
        # As in jsonschema, the bounds read numbers only, with its comparisons.
        if "minimum" in sub:
            low = sub["minimum"]
            checks.append(lambda value: type(value) not in _NUMBER_TYPES or not value < low)
        if "exclusiveMinimum" in sub:
            floor = sub["exclusiveMinimum"]
            checks.append(lambda value: type(value) not in _NUMBER_TYPES or not value <= floor)
        if sub.keys() & {"minItems", "maxItems", "items"}:
            checks.append(array(sub))
        if sub.keys() & {"required", "properties", "additionalProperties", "dependencies"}:
            checks.append(obj(sub))
        return _all(checks)

    def resolve(ref):
        if ref != "#" and not ref.startswith("#/"):
            raise _Unknown(ref)
        target = schema
        for part in ref[2:].split("/") if ref != "#" else ():
            target = target[part.replace("~1", "/").replace("~0", "~")]
        return target

    def array(sub):
        shortest, longest = sub.get("minItems", 0), sub.get("maxItems", math.inf)
        items = sub.get("items", True)
        if type(items) is list:
            raise _Unknown("items as a list")
        # A number array is checked once, on its set of item types.
        numbers = items == {"type": "number"}
        each = build(items)

        def check(value):
            if type(value) is not list:
                return True
            if not shortest <= len(value) <= longest:
                return False
            if numbers:
                return set(map(type, value)) <= _NUMBER_TYPES
            return all(map(each, value))

        return check

    def obj(sub):
        required = frozenset(sub.get("required", ()))
        properties = {key: build(each) for key, each in sub.get("properties", {}).items()}
        extra = sub.get("additionalProperties", True)
        extra = extra if extra is True or extra is False else build(extra)
        if not all(type(each) is list for each in sub.get("dependencies", {}).values()):
            raise _Unknown("dependencies as a schema")
        dependencies = [(key, frozenset(each)) for key, each in sub.get("dependencies", {}).items()]

        def check(value):
            if type(value) is not dict:
                return True
            if not required <= value.keys():
                return False
            for key, item in value.items():
                each = properties.get(key)
                if each is None:
                    if extra is False or (extra is not True and not extra(item)):
                        return False
                elif not each(item):
                    return False
            return all(key not in value or needs <= value.keys() for key, needs in dependencies)

        return check

    try:
        return build(schema)
    except _Unknown:
        return lambda value: False


def _schema(name: str) -> dict:
    path = resources.files("fowlerlab").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def _acceptor(name: str):
    """The shipped schema's compiled predicate (see _compile), built once."""
    return _compile(_schema(name))


@lru_cache(maxsize=None)
def _validator(name: str):
    """The shipped schema's stock jsonschema validator, built once."""
    from jsonschema.validators import validator_for

    schema = _schema(name)
    return validator_for(schema)(schema)


def validate(instance: dict, schema_name: str) -> None:
    """Validate a document against a shipped schema; SchemaMismatch on failure."""
    if not _acceptor(schema_name)(instance):
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
