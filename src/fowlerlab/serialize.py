"""JSON artifacts, schema validation, and CSV export.

Floats pass through the standard json encoder, which emits the shortest
round-trip decimal representation, so numeric fields survive a save/load
cycle bit-exactly.  Node accelerations are not stored: the field at the
reloaded nodes gives them back exactly.  Every artifact carries a
schema_version and is validated against the schema files shipped under
fowlerlab/schemas/.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np

from .classify import Classification
from .dynamics import Event, IntegratorSettings, Trajectory
from .errors import SchemaMismatch
from .experiments import ExperimentReport, InitialData
from .invariants import InvariantReport, f_arrays, psi_arrays, to_radial
from .params import SystemParams, make_params
from .state import FowlerState

SCHEMA_VERSION = 1

#: CSV export column order (fixed schema).
CSV_COLUMNS = ("t", "w1", "w2", "dw1", "dw2", "psi")


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    path = resources.files("fowlerlab").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text())


def validate(instance: dict, schema_name: str) -> None:
    """Validate a document against a shipped schema; SchemaMismatch on failure."""
    try:
        jsonschema.validate(instance, _schema(schema_name))
    except jsonschema.ValidationError as exc:
        raise SchemaMismatch(f"{schema_name}: {exc.message}") from exc
    version = instance.get("schema_version")
    if "schema_version" in instance and version != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema_version {version!r}")


def dumps(document: dict) -> str:
    """Canonical JSON text: sorted keys, stable layout, lossless floats."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    """Settings from a full or partial document; a null max_step is unbounded."""
    doc = dict(doc)
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
    params = params_from_dict(doc["params"])
    settings = settings_from_dict(doc["settings"])
    nodes = doc["nodes"]
    t = np.array(nodes["t"], dtype=float)
    y = np.array(
        [nodes["w1"], nodes["w2"], nodes["dw1"], nodes["dw2"]], dtype=float
    )
    lengths = {len(nodes[k]) for k in ("t", "w1", "w2", "dw1", "dw2", "psi")}
    if len(lengths) != 1:
        raise SchemaMismatch("node arrays have inconsistent lengths")
    return Trajectory(
        params=params,
        settings=settings,
        mode=doc["mode"],
        t=t,
        y=y,
        psi=np.array(nodes["psi"], dtype=float),
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
    doc = trajectory_to_dict(traj, invariant_report, classification)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_trajectory(path) -> Trajectory:
    """Load and validate a trajectory artifact.

    Raises SchemaMismatch for truncated or malformed files and for version
    mismatches; I/O failures raise OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaMismatch("artifact root must be an object")
    return trajectory_from_dict(doc)


def export_csv(traj: Trajectory, path) -> None:
    """Node table with columns exactly t,w1,w2,dw1,dw2,psi."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, t in enumerate(traj.t):
            writer.writerow(
                [repr(float(v)) for v in (t, traj.y[0][i], traj.y[1][i],
                                          traj.y[2][i], traj.y[3][i], traj.psi[i])]
            )


def export_plot_data(traj: Trajectory, path, samples: int | None = None) -> None:
    """Columnar plot file: t,w1,w2,psi,f1,f2 plus the radial picture r,u,v."""
    if samples is None:
        ts = traj.t
        w1, w2, dw1, dw2 = traj.y
    else:
        ts = np.linspace(traj.t_min, traj.t_max, samples)
        w1, w2, dw1, dw2 = traj.sample(ts)
    psis = psi_arrays(traj.params, w1, w2, dw1, dw2)
    f1, f2 = f_arrays(traj.params, w1, w2, dw1, dw2)
    # Rows are built before the file is opened, so a DomainError from the
    # radial map leaves no partial file.
    rows = []
    for t, a1, a2, b1, b2, e, g1, g2 in zip(ts, w1, w2, dw1, dw2, psis, f1, f2):
        r, u, v, _, _ = to_radial(traj.params, FowlerState.from_array(t, (a1, a2, b1, b2)))
        rows.append([repr(float(x)) for x in (t, a1, a2, e, g1, g2, r, u, v)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "w1", "w2", "psi", "f1", "f2", "r", "u", "v"))
        writer.writerows(rows)
