"""Command-line surface.

Each option is declared once, in OPTIONS.  A command passes on only the
values given to it, a flag beating its config key, so every default lives in
the library.  One --config file can serve several commands.

Exit codes: 0 success, 1 domain/usage error, 2 theorem-level expectation
failure (reserved: e.g. a semi-singular detection for N >= 4, or a missed
sign change), 3 I/O or artifact-schema error.  Human-readable diagnostics go
to stderr; pass --json-errors for machine-readable JSON on stderr as well.
Relative output paths resolve under $FOWLERLAB_OUT when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from . import serialize
from .classify import classify
from .dynamics import IntegratorSettings, integrate
from .errors import FowlerLabError, SchemaMismatch
from .experiments import (
    SamplerSpec,
    semi_singular_search,
    shoot_entire,
    shoot_settings,
    sign_change_experiment,
    sweep,
)
from .invariants import monitor
from .params import (
    STANDARD_EPS,
    SystemParams,
    bubble_fowler,
    bubble_radial,
    cylinder_state,
    make_params,
    solve_coupling,
)
from .state import FowlerState

OUT_DIR_ENV = "FOWLERLAB_OUT"


class UsageError(FowlerLabError):
    """Bad command line or configuration (mapped to exit code 1)."""


class Option(NamedTuple):
    """A value `name`, its flag, its config key and the commands that take it.

    Options sharing a name are alternative sources of one value, and two in one
    layer (flags, or config) is a usage error.  A key is a dotted path of
    run_config.schema.json (a number indexes a list); several keys,
    space-separated, fill a multi-value flag.  flag or key may be None.
    """

    name: str
    flag: str | None
    key: str | None
    commands: tuple[str, ...]
    argument: dict = {}
    help: str = ""
    required: tuple[str, ...] = ()


_PARAMS = ("solve-kl", "cylinder", "bubble", "integrate", "sign-change", "search-semi", "shoot")
_CONFIG = _PARAMS + ("sweep",)
_SETTINGS = ("integrate", "sign-change", "search-semi", "sweep", "shoot")
_WINDOW = ("integrate", "search-semi", "sweep", "shoot")  # sign-change: [-horizon, horizon]
_ARTIFACT = ("classify", "invariants", "plot-data")
_FLOAT = {"type": float}
_INT = {"type": int}

OPTIONS = (
    Option("N", "--N", "params.N", _PARAMS, _INT, "space dimension (>= 3)"),
    Option("mu1", "--mu1", "params.mu1", _PARAMS, _FLOAT),
    Option("mu2", "--mu2", "params.mu2", _PARAMS, _FLOAT),
    Option("beta", "--beta", "params.beta", _PARAMS, _FLOAT),
    Option("config", "--config", None, _CONFIG, {}, "JSON config file (flags override)"),
    Option("out", "--out", "out", _CONFIG + _ARTIFACT, {}, "result file", ("plot-data",)),
    Option("rel_tol", "--rel-tol", "settings.rel_tol", _SETTINGS, _FLOAT),
    Option("abs_tol", "--abs-tol", "settings.abs_tol", _SETTINGS, _FLOAT),
    Option("t_min", "--t-min", "settings.t_span.0", _WINDOW, _FLOAT),
    Option("t_max", "--t-max", "settings.t_span.1", _WINDOW, _FLOAT),
    Option("max_step", "--max-step", "settings.max_step", _SETTINGS, _FLOAT),
    Option("blowup_threshold", "--blowup-threshold", "settings.blowup_threshold", _SETTINGS,
           _FLOAT),
    Option("initial", "--initial", "initial.a1 initial.a2 initial.b1 initial.b2", ("integrate",),
           {**_FLOAT, "nargs": 4, "metavar": ("A1", "A2", "B1", "B2")}, "initial values at t = 0"),
    Option("initial", "--orbit", "initial.orbit", ("integrate",),
           {"choices": ("bubble", "cylinder")}),
    Option("eps", "--eps", "initial.eps", ("bubble", "integrate"), _FLOAT, "bubble scale"),
    Option("r", "--r", None, ("bubble",), {**_FLOAT, "action": "append"},
           "radius to sample (repeatable)"),
    Option("mode", "--mode", "mode", ("integrate", "sweep"), {"choices": ("positive", "signed")}),
    Option("csv", "--csv", "csv", ("integrate",), {}, "also export the node table as CSV"),
    Option("in", "--in", None, _ARTIFACT, {}, "trajectory artifact", _ARTIFACT),
    Option("samples", "--samples", None, ("plot-data",), _INT),
    Option("n_runs", "--runs", "runs", ("sign-change", "search-semi"), _INT),
    Option("seed", "--seed", "seed", ("sign-change", "search-semi"), _INT),
    Option("seed", None, "seed", ("sweep",)),
    Option("branch", "--branch", "branch", ("sign-change",), {"choices": ("positive", "zero")},
           "target energy surface: psi > 0 or psi = 0"),
    Option("horizon", "--horizon", "horizon", ("sign-change",), _FLOAT),
    Option("workers", "--workers", "workers", ("sweep",), _INT),
    Option("archive", "--archive", None, ("sweep",), {}, "per-run artifact directory"),
    Option("param_grid", None, "param_grid", ("sweep",)),
    Option("initial_grid", None, "initial_grid", ("sweep",)),
)

_ABSENT = object()


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # theorem-level failures here, so route through the error mapping.
    def error(self, message):
        raise UsageError(message)


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = serialize.read_json(path, "config is ")
    serialize.validate(doc, "run_config")
    return doc


def _config_value(config: dict, option: Option):
    """The config value of an option, or _ABSENT; a number indexes a list."""
    values = []
    for key in option.key.split():  # the schema gives several keys all or none
        value = config
        for part in key.split("."):
            value = value[int(part)] if isinstance(value, list) else value.get(part, _ABSENT)
            if value is _ABSENT:
                return _ABSENT
        values.append(value)
    return values[0] if len(values) == 1 else tuple(values)


def _layer(entries) -> dict:
    """name -> value for one layer; two sources of one value is a usage error."""
    values, sources = {}, {}
    for source, name, value in entries:
        if value is _ABSENT:
            continue
        if name in values:
            raise UsageError(f"{sources[name]} and {source} both give {name}; give one")
        values[name], sources[name] = value, source
    return values


def _given(args) -> dict:
    """The values given to args.command, by option name; a flag beats its key."""
    flags = vars(args)
    config = _load_config(flags.get("config"))
    options = [o for o in OPTIONS if args.command in o.commands]
    from_config = _layer((f"config {o.key}", o.name, _config_value(config, o))
                         for o in options if o.key)
    from_flags = _layer((o.flag, o.name, flags.get(o.flag[2:], _ABSENT))
                        for o in options if o.flag)
    return {**from_config, **from_flags}


def _kwargs(given: dict, *names: str) -> dict:
    return {name: given[name] for name in names if name in given}


def _under(section: str) -> list[str]:
    """Names of the options whose config keys lie in a config section."""
    return [o.name for o in OPTIONS if (o.key or "").startswith(section + ".")]


def _params(given: dict) -> SystemParams:
    names = _under("params")
    missing = [name for name in names if name not in given]
    if missing:
        raise UsageError(f"missing parameter(s) {', '.join(missing)}: pass flags or --config")
    return serialize.params_from_dict(_kwargs(given, *names))


def _settings(given: dict, base: IntegratorSettings = IntegratorSettings()) -> IntegratorSettings:
    """base with the given settings; t_min and t_max each replace one window end."""
    doc = serialize.settings_to_dict(base)
    doc.update(_kwargs(given, *_under("settings")))
    doc["t_span"] = [doc.pop("t_min", doc["t_span"][0]), doc.pop("t_max", doc["t_span"][1])]
    return serialize.settings_from_dict(doc)


def _initial(given: dict, params: SystemParams) -> FowlerState:
    source = given.get("initial")
    if source is None:
        raise UsageError("no initial data: pass --initial a1 a2 b1 b2 or --orbit")
    if source != "bubble" and "eps" in given:
        raise UsageError("eps is the bubble orbit's scale: it needs orbit bubble")
    if source == "bubble":
        return bubble_fowler(params, given.get("eps", STANDARD_EPS), 0.0)
    if source == "cylinder":
        return cylinder_state(params)[0]
    return FowlerState(0.0, *source)  # a1, a2, b1, b2


def _emit(doc: dict, out: str | None, schema: str | None = None) -> None:
    if schema is not None:
        serialize.validate(doc, schema)
    text = serialize.dumps(doc)
    if out:
        path = _resolve_out(out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(json.dumps({"written": path}))
    else:
        sys.stdout.write(text)


def _emit_report(report, out: str | None, failure: str) -> int:
    """Emit an experiment report; exit 2, naming the failures, if it has any."""
    _emit(serialize.experiment_report_to_dict(report), out, schema="experiment_report")
    if report.failures:
        print(f"theorem-level failure: {len(report.failures)} {failure}", file=sys.stderr)
        return 2
    return 0


def _cmd_solve_kl(given: dict) -> int:
    params = _params(given)
    coupling = solve_coupling(params)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "k": coupling.k,
        "l": coupling.l,
        "residuals": list(coupling.residuals),
    }
    _emit(doc, given.get("out"), schema="coupling")
    return 0


def _cmd_cylinder(given: dict) -> int:
    params = _params(given)
    state, energy = cylinder_state(params)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "C1": state.w1,
        "C2": state.w2,
        "psi": energy,
        "K_value": params.sphere_area * energy,
        "lam": list(params.lam),
        "lam_star": list(params.lam_star),
        "state": serialize.state_to_list(state),
    }
    _emit(doc, given.get("out"), schema="cylinder")
    return 0


def _cmd_bubble(given: dict) -> int:
    params = _params(given)
    coupling = solve_coupling(params)
    eps = given.get("eps", STANDARD_EPS)
    samples = []
    for r in given.get("r", [1.0]):
        u, v = bubble_radial(params, eps, r)
        samples.append({"r": r, "u": u, "v": v})
    apex = bubble_fowler(params, eps, 0.0 - math.log(eps))  # +0.0 at eps = 1
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "eps": eps,
        "k": coupling.k,
        "l": coupling.l,
        "amplitude": apex.w1 / coupling.k,
        "apex": serialize.state_to_list(apex),
        "samples": samples,
    }
    _emit(doc, given.get("out"), schema="bubble")
    return 0


def _cmd_integrate(given: dict) -> int:
    params = _params(given)
    traj = integrate(params, _initial(given, params), _settings(given), **_kwargs(given, "mode"))
    path = _resolve_out(given["out"]) if given.get("out") else None
    # Only the artifact carries the monitor report.
    report = monitor(params, traj) if path and len(traj.t) > 1 else None
    verdict = classify(params, traj, report)
    if path:
        serialize.save_trajectory(traj, path, invariant_report=report, classification=verdict)
    if given.get("csv"):
        serialize.export_csv(traj, _resolve_out(given["csv"]))
    summary = {
        "psi0": traj.psi0,
        "drift": traj.drift,
        "certified": traj.certified,
        "n_nodes": len(traj.t),
        "events": [[e.kind, e.t, e.component] for e in traj.events],
        "verdict": verdict.verdict,
        "out": path,
    }
    sys.stdout.write(serialize.dumps(summary))
    return 0


def _cmd_classify(given: dict) -> int:
    traj = serialize.load_trajectory(given["in"])
    report = monitor(traj.params, traj) if len(traj.t) > 1 else None
    verdict = classify(traj.params, traj, report)
    _emit(serialize.classification_to_dict(verdict), given.get("out"), schema="classification")
    return 0


def _cmd_invariants(given: dict) -> int:
    traj = serialize.load_trajectory(given["in"])
    report = monitor(traj.params, traj)
    _emit(serialize.invariant_report_to_dict(report), given.get("out"), schema="invariant_report")
    return 0


def _cmd_sign_change(given: dict) -> int:
    params = _params(given)
    kwargs = _kwargs(given, "n_runs", "seed", "horizon")
    if "branch" in given:
        # The branch names the energy projection: psi_positive or psi_zero.
        kwargs["spec"] = SamplerSpec(projection=f"psi_{given['branch']}")
    report = sign_change_experiment(params, settings=_settings(given), **kwargs)
    return _emit_report(report, given.get("out"), "run(s) without sign change")


def _cmd_search_semi(given: dict) -> int:
    params = _params(given)
    report = semi_singular_search(params, settings=_settings(given),
                                  **_kwargs(given, "n_runs", "seed"))
    return _emit_report(report, given.get("out"), f"semi-singular candidate(s) for N={params.N}")


def _cmd_sweep(given: dict) -> int:
    if "param_grid" not in given or "initial_grid" not in given:
        raise UsageError("sweep requires a --config file with param_grid and initial_grid")
    params_grid = [make_params(*row) for row in given["param_grid"]]
    kwargs = _kwargs(given, "mode", "workers", "seed")
    if "archive" in given:
        kwargs["archive_dir"] = _resolve_out(given["archive"])
    report = sweep(params_grid, given["initial_grid"], _settings(given), **kwargs)
    return _emit_report(report, given.get("out"), "anomalous verdict(s)")


def _cmd_shoot(given: dict) -> int:
    params = _params(given)
    data, traj = shoot_entire(params, _settings(given, shoot_settings(params)))
    exact = bubble_fowler(params, STANDARD_EPS, 0.0).w1
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "apex": serialize.initial_data_to_dict(data),
        "psi0": data.psi0,
        "closed_form_apex": exact,
        "rel_err": abs(data.a1 - exact) / exact,
    }
    _emit(doc, given.get("out"), schema="shoot")
    return 0


def _cmd_plot_data(given: dict) -> int:
    traj = serialize.load_trajectory(given["in"])
    path = _resolve_out(given["out"])
    serialize.export_plot_data(traj, path, **_kwargs(given, "samples"))
    print(json.dumps({"written": path}))
    return 0


_COMMANDS = {
    "solve-kl": (_cmd_solve_kl, "solve the coupling amplitude pair (k, l)"),
    "cylinder": (_cmd_cylinder, "constant equilibrium orbit and its invariant"),
    "bubble": (_cmd_bubble, "closed-form entire solution data"),
    "integrate": (_cmd_integrate, "integrate one orbit to a trajectory artifact"),
    "classify": (_cmd_classify, "classify a stored trajectory"),
    "invariants": (_cmd_invariants, "invariant monitor report for a stored trajectory"),
    "sign-change": (_cmd_sign_change, "sign-change experiment over sampled data"),
    "search-semi": (_cmd_search_semi, "semi-singular search (expected empty for N >= 4)"),
    "sweep": (_cmd_sweep, "classify every grid point from a config file"),
    "shoot": (_cmd_shoot, "shoot for the entire (zero-energy) orbit"),
    "plot-data": (_cmd_plot_data, "columnar plot file from a trajectory artifact"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fowlerlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json-errors", action="store_true",
                        help="also emit machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        # Flags left out are absent from the namespace, not None.
        sp = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for option in OPTIONS:
            if option.flag and command in option.commands:
                config = f"[config: {option.key}]" if option.key and command in _CONFIG else ""
                sp.add_argument(option.flag, dest=option.flag[2:],
                                help=f"{option.help} {config}".strip(),
                                required=command in option.required, **option.argument)
    return parser


def _report_error(exc: Exception, json_errors: bool) -> None:
    print(f"fowlerlab: error: {exc}", file=sys.stderr)
    if json_errors:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    json_errors = False
    try:
        args = parser.parse_args(argv)
        json_errors = args.json_errors
        return _COMMANDS[args.command][0](_given(args))
    except (SchemaMismatch, OSError) as exc:
        _report_error(exc, json_errors)
        return 3
    except FowlerLabError as exc:
        _report_error(exc, json_errors)
        return 1


if __name__ == "__main__":
    sys.exit(main())
