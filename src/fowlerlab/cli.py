"""Command-line surface.

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
from dataclasses import replace

from . import serialize
from .classify import classify
from .dynamics import IntegratorSettings, integrate
from .errors import FowlerLabError, SchemaMismatch
from .experiments import (
    SamplerSpec,
    semi_singular_search,
    shoot_entire,
    sign_change_experiment,
    sweep,
)
from .invariants import monitor
from .params import (
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatch(f"config is not valid JSON: {exc}") from exc
    serialize.validate(doc, "run_config")
    return doc


def _params_from(args, config: dict) -> SystemParams:
    doc = dict(config.get("params", {}))
    for key, flag in (("N", args.N), ("mu1", args.mu1), ("mu2", args.mu2), ("beta", args.beta)):
        if flag is not None:
            doc[key] = flag
    missing = [k for k in ("N", "mu1", "mu2", "beta") if k not in doc]
    if missing:
        raise UsageError(f"missing parameter(s): {', '.join(missing)} "
                         f"(pass flags or a --config file)")
    return serialize.params_from_dict(doc)


def _settings_from(args, config: dict) -> IntegratorSettings:
    settings = serialize.settings_from_dict(config.get("settings", {}))
    updates = {}
    if getattr(args, "rel_tol", None) is not None:
        updates["rel_tol"] = args.rel_tol
    if getattr(args, "abs_tol", None) is not None:
        updates["abs_tol"] = args.abs_tol
    t_lo = getattr(args, "t_min", None)
    t_hi = getattr(args, "t_max", None)
    if t_lo is not None or t_hi is not None:
        span = list(settings.t_span)
        if t_lo is not None:
            span[0] = t_lo
        if t_hi is not None:
            span[1] = t_hi
        updates["t_span"] = tuple(span)
    if getattr(args, "blowup_threshold", None) is not None:
        updates["blowup_threshold"] = args.blowup_threshold
    if getattr(args, "max_step", None) is not None:
        updates["max_step"] = args.max_step
    return replace(settings, **updates) if updates else settings


def _initial_from(args, config: dict, params: SystemParams) -> FowlerState:
    doc = dict(config.get("initial", {}))
    orbit = getattr(args, "orbit", None) or doc.get("orbit")
    eps = _pick(getattr(args, "eps", None), doc, "eps", 1.0)
    if getattr(args, "initial", None) is not None:
        a1, a2, b1, b2 = args.initial
        return FowlerState(t=0.0, w1=a1, w2=a2, dw1=b1, dw2=b2)
    if orbit == "bubble":
        return bubble_fowler(params, eps, 0.0)
    if orbit == "cylinder":
        return cylinder_state(params)[0]
    if all(k in doc for k in ("a1", "a2", "b1", "b2")):
        return FowlerState(t=0.0, w1=doc["a1"], w2=doc["a2"], dw1=doc["b1"], dw2=doc["b2"])
    raise UsageError("no initial data: pass --initial a1 a2 b1 b2 or --orbit")


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


def _add_param_flags(sp):
    sp.add_argument("--N", type=int, default=None, help="space dimension (>= 3)")
    sp.add_argument("--mu1", type=float, default=None)
    sp.add_argument("--mu2", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--config", default=None, help="JSON config file (flags override)")
    sp.add_argument("--out", default=None, help="write the JSON result here")


def _add_settings_flags(sp):
    sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    sp.add_argument("--t-min", dest="t_min", type=float, default=None)
    sp.add_argument("--t-max", dest="t_max", type=float, default=None)
    sp.add_argument("--max-step", dest="max_step", type=float, default=None)
    sp.add_argument("--blowup-threshold", dest="blowup_threshold", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fowlerlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json-errors", action="store_true",
                        help="also emit machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-kl", help="solve the coupling amplitude pair (k, l)")
    _add_param_flags(sp)

    sp = sub.add_parser("cylinder", help="constant equilibrium orbit and its invariant")
    _add_param_flags(sp)

    sp = sub.add_parser("bubble", help="closed-form entire solution data")
    _add_param_flags(sp)
    sp.add_argument("--eps", type=float, default=1.0, help="bubble scale parameter")
    sp.add_argument("--r", type=float, action="append", default=None,
                    help="radius to sample (repeatable)")

    sp = sub.add_parser("integrate", help="integrate one orbit to a trajectory artifact")
    _add_param_flags(sp)
    _add_settings_flags(sp)
    sp.add_argument("--initial", type=float, nargs=4, metavar=("A1", "A2", "B1", "B2"),
                    default=None, help="initial values at t = 0")
    sp.add_argument("--orbit", choices=("bubble", "cylinder"), default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--mode", choices=("positive", "signed"), default=None)
    sp.add_argument("--csv", default=None, help="also export the node table as CSV")

    sp = sub.add_parser("classify", help="classify a stored trajectory")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("invariants", help="invariant monitor report for a stored trajectory")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("sign-change", help="sign-change experiment over sampled data")
    _add_param_flags(sp)
    _add_settings_flags(sp)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--branch", choices=("positive", "zero"), default=None,
                    help="target energy surface: psi > 0 or psi = 0")
    sp.add_argument("--horizon", type=float, default=None)

    sp = sub.add_parser("search-semi", help="semi-singular search (expected empty for N >= 4)")
    _add_param_flags(sp)
    _add_settings_flags(sp)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("sweep", help="classify every grid point from a config file")
    _add_param_flags(sp)
    _add_settings_flags(sp)
    sp.add_argument("--mode", choices=("positive", "signed"), default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--archive", default=None,
                    help="directory for per-run trajectory artifacts")

    sp = sub.add_parser("shoot", help="shoot for the entire (zero-energy) orbit")
    _add_param_flags(sp)
    _add_settings_flags(sp)

    sp = sub.add_parser("plot-data", help="columnar plot file from a trajectory artifact")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--samples", type=int, default=None)

    return parser


def _cmd_solve_kl(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    coupling = solve_coupling(params)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "k": coupling.k,
        "l": coupling.l,
        "residuals": list(coupling.residuals),
    }
    _emit(doc, args.out, schema="coupling")
    return 0


def _cmd_cylinder(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
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
    _emit(doc, args.out, schema="cylinder")
    return 0


def _cmd_bubble(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    coupling = solve_coupling(params)
    radii = args.r if args.r else [1.0]
    samples = []
    for r in radii:
        u, v = bubble_radial(params, args.eps, r)
        samples.append({"r": r, "u": u, "v": v})
    apex = bubble_fowler(params, args.eps, -math.log(args.eps))
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "eps": args.eps,
        "k": coupling.k,
        "l": coupling.l,
        "amplitude": apex.w1 / coupling.k,
        "apex": serialize.state_to_list(apex),
        "samples": samples,
    }
    _emit(doc, args.out, schema="bubble")
    return 0


def _pick(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    return config.get(key, default)


def _cmd_integrate(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    settings = _settings_from(args, config)
    mode = _pick(args.mode, config, "mode", "positive")
    initial = _initial_from(args, config, params)
    traj = integrate(params, initial, settings, mode=mode)
    report = monitor(params, traj) if len(traj.t) > 1 else None
    verdict = classify(params, traj, report)
    out = args.out or config.get("out")
    if out:
        path = _resolve_out(out)
        serialize.save_trajectory(traj, path, invariant_report=report, classification=verdict)
    csv_path = args.csv or config.get("csv")
    if csv_path:
        serialize.export_csv(traj, _resolve_out(csv_path))
    summary = {
        "psi0": traj.psi0,
        "drift": traj.drift,
        "certified": traj.certified,
        "n_nodes": len(traj.t),
        "events": [[e.kind, e.t, e.component] for e in traj.events],
        "verdict": verdict.verdict,
        "out": _resolve_out(out) if out else None,
    }
    sys.stdout.write(serialize.dumps(summary))
    return 0


def _cmd_classify(args) -> int:
    traj = serialize.load_trajectory(args.infile)
    report = monitor(traj.params, traj) if len(traj.t) > 1 else None
    verdict = classify(traj.params, traj, report)
    _emit(serialize.classification_to_dict(verdict), args.out, schema="classification")
    return 0


def _cmd_invariants(args) -> int:
    traj = serialize.load_trajectory(args.infile)
    report = monitor(traj.params, traj)
    _emit(serialize.invariant_report_to_dict(report), args.out, schema="invariant_report")
    return 0


def _cmd_sign_change(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    settings = _settings_from(args, config)
    branch = _pick(args.branch, config, "branch", "positive")
    runs = _pick(args.runs, config, "runs", 100)
    seed = _pick(args.seed, config, "seed", 0)
    horizon = _pick(args.horizon, config, "horizon", 50.0)
    projection = "psi_positive" if branch == "positive" else "psi_zero"
    spec = SamplerSpec(kind="uniform_box", projection=projection)
    report = sign_change_experiment(
        params, spec, n_runs=runs, settings=settings, seed=seed, horizon=horizon
    )
    return _emit_report(report, args.out, "run(s) without sign change")


def _cmd_search_semi(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    settings = _settings_from(args, config)
    runs = _pick(args.runs, config, "runs", 200)
    seed = _pick(args.seed, config, "seed", 0)
    report = semi_singular_search(params, n_runs=runs, settings=settings, seed=seed)
    return _emit_report(report, args.out, f"semi-singular candidate(s) for N={params.N}")


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if "param_grid" not in config or "initial_grid" not in config:
        raise UsageError("sweep requires a --config file with param_grid and initial_grid")
    settings = _settings_from(args, config)
    params_grid = [make_params(int(row[0]), row[1], row[2], row[3])
                   for row in config["param_grid"]]
    initial_grid = [tuple(row) for row in config["initial_grid"]]
    workers = _pick(args.workers, config, "workers", 1)
    mode = _pick(args.mode, config, "mode", "positive")
    archive = _resolve_out(args.archive) if args.archive else None
    report = sweep(params_grid, initial_grid, settings, mode=mode, workers=workers,
                   seed=config.get("seed", 0), archive_dir=archive)
    return _emit_report(report, args.out, "anomalous verdict(s)")


def _cmd_shoot(args) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    settings = None
    if config.get("settings") or any(
        getattr(args, k, None) is not None
        for k in ("rel_tol", "abs_tol", "t_min", "t_max", "max_step", "blowup_threshold")
    ):
        settings = _settings_from(args, config)
    data, traj = shoot_entire(params, settings)
    exact = bubble_fowler(params, 1.0, 0.0).w1
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "params": serialize.params_to_dict(params),
        "apex": serialize.initial_data_to_dict(data),
        "psi0": data.psi0,
        "closed_form_apex": exact,
        "rel_err": abs(data.a1 - exact) / exact,
    }
    _emit(doc, args.out, schema="shoot")
    return 0


def _cmd_plot_data(args) -> int:
    traj = serialize.load_trajectory(args.infile)
    serialize.export_plot_data(traj, _resolve_out(args.out), samples=args.samples)
    print(json.dumps({"written": _resolve_out(args.out)}))
    return 0


_HANDLERS = {
    "solve-kl": _cmd_solve_kl,
    "cylinder": _cmd_cylinder,
    "bubble": _cmd_bubble,
    "integrate": _cmd_integrate,
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "sign-change": _cmd_sign_change,
    "search-semi": _cmd_search_semi,
    "sweep": _cmd_sweep,
    "shoot": _cmd_shoot,
    "plot-data": _cmd_plot_data,
}


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
        json_errors = getattr(args, "json_errors", False)
        return _HANDLERS[args.command](args)
    except (SchemaMismatch, OSError) as exc:
        _report_error(exc, json_errors)
        return 3
    except FowlerLabError as exc:
        _report_error(exc, json_errors)
        return 1


if __name__ == "__main__":
    sys.exit(main())
