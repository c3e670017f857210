"""Batch drivers: sign-change runs, entire-orbit shooting, semi-singular
search, and parameter sweeps.

Random draws come from a counter-based generator keyed by (seed, index), so
results are independent of execution order and parallelism.  Reports carry
no timing metadata; identical seed and spec give bit-identical JSON.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics
from .classify import BOTH_SINGULAR, SEMI_SINGULAR, classify
from .dynamics import IntegratorSettings, Trajectory, integrate
from .errors import (
    BracketFailure,
    DomainError,
    FowlerLabError,
    NoPositiveSolution,
    SamplerDegenerate,
)
from .invariants import monitor, potential_arrays, psi
from .params import SystemParams, cylinder_amplitudes, solve_coupling
from .state import FowlerState

#: Rejection attempts allowed per accepted draw before giving up.
MAX_REJECTION_FACTOR = 200
#: Bisection iterations for the entire-orbit shooting.
SHOOT_BISECTIONS = 80
#: Decay acceptance for the shot orbit: both components below this at the
#: window end (while never changing sign).
SHOOT_DECAY_CUT = 1e-6
#: Determinant floor for the zero-energy branch; draws with smaller
#: |a1 b2 - a2 b1| are numerically indistinguishable from proportional data.
DET_FLOOR = 1e-6


@dataclass(frozen=True)
class InitialData:
    """Initial values (a1, a2, b1, b2) at t = 0 with their exact energy."""

    a1: float
    a2: float
    b1: float
    b2: float
    psi0: float

    @classmethod
    def from_values(
        cls, params: SystemParams, a1: float, a2: float, b1: float, b2: float
    ) -> "InitialData":
        state = FowlerState(t=0.0, w1=a1, w2=a2, dw1=b1, dw2=b2)
        return cls(a1=float(a1), a2=float(a2), b1=float(b1), b2=float(b2), psi0=psi(params, state))

    def state(self) -> FowlerState:
        return FowlerState(t=0.0, w1=self.a1, w2=self.a2, dw1=self.b1, dw2=self.b2)

    def determinant(self) -> float:
        return self.a1 * self.b2 - self.a2 * self.b1


@dataclass(frozen=True)
class SamplerSpec:
    """How initial data are drawn and which energy surface they target.

    kind "uniform_box" draws all four values uniformly on [low, high];
    "near_cylinder" perturbs the equilibrium with Gaussian noise of size
    sigma_scale * ||equilibrium||, half of the draws constrained to the
    proportional invariant ray (which is guaranteed to stay bounded).
    projection: "psi_positive" rejects draws with energy below psi_min;
    "psi_zero" rescales (b1, b2) onto the zero-energy surface and requires
    a nonzero determinant; "psi_negative" rejects nonnegative energy;
    "none" accepts everything.
    """

    kind: str = "uniform_box"
    low: float = -1.0
    high: float = 1.0
    sigma_scale: float = 0.05
    projection: str = "none"
    psi_min: float = 1e-3
    det_min: float = DET_FLOOR
    ray_fraction: float = 0.5
    require_positive: bool = False


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _project_psi_zero(params: SystemParams, a1, a2, b1, b2):
    """Rescale (b1, b2) so the energy vanishes exactly.

    The energy is quadratic in the derivative scale c:
    psi = c^2 (b1^2+b2^2)/2 - delta^2 (a1^2+a2^2)/2 + potential/(2p);
    a draw is degenerate when no positive root exists.
    """
    bb = b1 * b1 + b2 * b2
    if bb == 0.0:
        return None
    pot = potential_arrays(params, a1, a2)
    c2 = (params.delta**2 * (a1 * a1 + a2 * a2) - pot / params.p) / bb
    if c2 <= 0.0:
        return None
    c = math.sqrt(c2)
    return b1 * c, b2 * c


def draw_initial(
    params: SystemParams, spec: SamplerSpec, seed: int, index: int
) -> tuple[InitialData | None, str | None]:
    """One counter-keyed draw; returns (data, None) or (None, reject reason)."""
    rng = _rng(seed, index)
    if spec.kind == "uniform_box":
        a1, a2, b1, b2 = rng.uniform(spec.low, spec.high, size=4)
    elif spec.kind == "near_cylinder":
        c1, c2 = cylinder_amplitudes(params)
        base = np.array([c1, c2, 0.0, 0.0])
        sigma = spec.sigma_scale * float(np.linalg.norm(base))
        on_ray = rng.uniform() < spec.ray_fraction
        if on_ray:
            # Perturb along the proportional invariant manifold: the orbit
            # reduces to the scalar problem and stays bounded.
            kl = solve_coupling(params)
            scalar_eq = c1 / kl.k
            da, db = rng.normal(0.0, sigma, size=2)
            w0 = scalar_eq + da
            a1, a2 = kl.k * w0, kl.l * w0
            b1, b2 = kl.k * db, kl.l * db
        else:
            a1, a2, b1, b2 = base + rng.normal(0.0, sigma, size=4)
    else:
        raise DomainError(f"unknown sampler kind {spec.kind!r}")

    if spec.require_positive and not (a1 > 0.0 and a2 > 0.0):
        return None, "nonpositive"

    if spec.projection == "psi_zero":
        scaled = _project_psi_zero(params, a1, a2, b1, b2)
        if scaled is None:
            return None, "degenerate_projection"
        b1, b2 = scaled
        data = InitialData.from_values(params, a1, a2, b1, b2)
        if abs(data.determinant()) < spec.det_min:
            return None, "determinant"
        return data, None

    data = InitialData.from_values(params, a1, a2, b1, b2)
    if spec.projection == "psi_positive" and not data.psi0 > spec.psi_min:
        return None, "psi_sign"
    if spec.projection == "psi_negative" and not data.psi0 < 0.0:
        return None, "psi_sign"
    return data, None


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated result of a batch run.

    counts maps verdict labels to run counts and always sums to n_runs;
    failures lists the runs violating the theorem-level expectation of the
    experiment kind.
    """

    kind: str
    seed: int
    n_runs: int
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n_runs:
            raise DomainError(
                f"verdict counts sum to {total}, expected n_runs={self.n_runs}"
            )


def _initial_as_list(data: InitialData) -> list[float]:
    return [data.a1, data.a2, data.b1, data.b2, data.psi0]


def _nearest_event(traj: Trajectory, kind: str):
    """The event of this kind closest to t = 0 (the earlier one on a tie)."""
    found = [ev for ev in traj.events if ev.kind == kind]
    return min(found, key=lambda ev: abs(ev.t)) if found else None


def _collect_draws(
    params: SystemParams, spec: SamplerSpec, n_runs: int, seed: int
) -> tuple[list[tuple[int, InitialData]], dict]:
    draws: list[tuple[int, InitialData]] = []
    rejected: dict[str, int] = {}
    index = 0
    budget = MAX_REJECTION_FACTOR * max(1, n_runs)
    while len(draws) < n_runs:
        if index >= budget:
            raise SamplerDegenerate(
                f"exhausted {budget} draws producing {len(draws)}/{n_runs} admissible"
            )
        data, reason = draw_initial(params, spec, seed, index)
        if data is None:
            rejected[reason] = rejected.get(reason, 0) + 1
        else:
            draws.append((index, data))
        index += 1
    return draws, rejected


def _first_flip(t_new, w1_old, w2_old, v1_old, w1, w2, v1):
    # A component's sign differs from the previous node's; a node exactly at
    # zero is no flip.
    if min(w1_old, w1) < 0.0 < max(w1_old, w1) or min(w2_old, w2) < 0.0 < max(w2_old, w2):
        return "SignChange"
    return None


def _crossing_trajectory(
    params: SystemParams, data: InitialData, settings: IntegratorSettings
) -> Trajectory:
    """Signed orbit from t = 0 over t_span, each direction cut by the stop
    rule of sign_change_experiment."""
    t_lo, t_hi = settings.t_span

    def solve(fun, t0, start):
        # Looked up at call time, so a wrapper set on dynamics.solve_ivp sees it.
        forward = dynamics.solve_ivp(fun, t0, start, t_hi, settings, "signed", _first_flip)
        reach = float(forward.t[-1]) - t0 if forward.event == ("SignChange", None) else math.inf

        def back(t_new, *node):
            return _first_flip(t_new, *node) or ("Reached" if t0 - t_new >= reach else None)

        backward = dynamics.solve_ivp(fun, t0, start, t_lo, settings, "signed", back)
        return forward, backward

    return dynamics._two_sided(params, data.state(), settings, "signed", solve)


def sign_change_experiment(
    params: SystemParams,
    spec: SamplerSpec | None = None,
    n_runs: int = 100,
    settings: IntegratorSettings | None = None,
    seed: int = 0,
    horizon: float = 50.0,
) -> ExperimentReport:
    """Every admissible draw must change sign before |t| = horizon.

    Draws target either strictly positive energy or the zero-energy surface
    with nonzero determinant (choose via spec.projection).  Runs without a
    sign change inside the horizon are reported as failures, never passed
    silently.  Integration uses the signed continuous extension and searches
    both time directions.  Each run reports the crossing nearest t = 0
    (sign_change_t); the summary's max_abs_event_t is the largest such |t|
    over the runs.

    Each direction stops once that answer is fixed: forward at the first
    node t_f where a component's sign differs from the previous node's,
    backward at its own first such node or at the first node with
    |t| >= t_f.  With no forward flip (horizon or BlowUp), backward searches
    up to the horizon.  The stopped nodes are a prefix of the full-horizon
    run's, bit for bit, so the crossing scan of the cut orbit finds every
    crossing between its ends that a scan of the whole window finds.  A
    node test sees a flip late (a double crossing inside one step), never
    early, so the first crossing each way, and with it the nearest one,
    lies between those ends.
    """
    if spec is None:
        spec = SamplerSpec(kind="uniform_box", projection="psi_positive")
    if spec.projection not in ("psi_positive", "psi_zero"):
        raise DomainError("sign-change sampler must target psi>0 or the psi=0 surface")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise DomainError(f"horizon must be finite and positive, got {horizon!r}")
    base = settings if settings is not None else IntegratorSettings()
    window = replace(base, t_span=(-horizon, horizon))

    draws, rejected = _collect_draws(params, spec, n_runs, seed)

    counts: dict[str, int] = {}
    runs = []
    failures = []
    times = []
    for index, data in draws:
        traj = _crossing_trajectory(params, data, window)
        event = _nearest_event(traj, "SignChange")
        verdict = classify(params, traj).verdict
        counts[verdict] = counts.get(verdict, 0) + 1
        record = {
            "index": index,
            "initial": _initial_as_list(data),
            "verdict": verdict,
            "sign_change_t": None if event is None else event.t,
            "sign_change_component": None if event is None else event.component,
        }
        runs.append(record)
        if event is None:
            failures.append(record)
        else:
            times.append(abs(event.t))

    summary = {
        "projection": spec.projection,
        "horizon": horizon,
        "rejected": rejected,
        "detection_rate": (n_runs - len(failures)) / n_runs if n_runs else None,
        "max_abs_event_t": max(times) if times else None,
    }
    return ExperimentReport(
        kind="sign_change",
        seed=seed,
        n_runs=n_runs,
        counts=counts,
        failures=failures,
        runs=runs,
        summary=summary,
    )


#: Exponent of the delta-scaled shooting window: both the apex bias of the
#: dichotomy (~exp(-delta T)) and the noise at the window ends
#: (~abs_tol * exp(+delta T)) are balanced around delta * T = 16.
_SHOOT_WINDOW_EXPONENT = 16.0


def shoot_settings(params: SystemParams) -> IntegratorSettings:
    """Shooting defaults: tight tolerances, window scaled to the decay rate."""
    t_end = _SHOOT_WINDOW_EXPONENT / params.delta
    return IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14, t_span=(-t_end, t_end))


def _first_turn(t_new, w1_old, w2_old, v1_old, w1, w2, v1):
    # Shooting trials stop at a component below zero or a minimum of w1.
    if w1 < 0.0 or w2 < 0.0:
        return "SignChange"
    return "LocalMin" if v1_old < 0.0 <= v1 else None


def _loses_sign(fun, apex_w1: float, ratio: float, t_end: float,
                settings: IntegratorSettings) -> bool:
    # Symmetric apex data: forward integration alone decides the dichotomy.
    y0 = (apex_w1, ratio * apex_w1, 0.0, 0.0)
    if max(y0[0], y0[1]) >= settings.blowup_threshold:
        # integrate stops such data at once with BlowUp: no sign change.
        return False
    # Looked up at call time, so a wrapper set on dynamics.solve_ivp sees it.
    seg = dynamics.solve_ivp(fun, 0.0, y0, t_end, settings, "signed", _first_turn)
    return seg.event == ("SignChange", None)


def shoot_entire(
    params: SystemParams, settings: IntegratorSettings | None = None
) -> tuple[InitialData, Trajectory]:
    """One-parameter shooting for the homoclinic zero-energy orbit.

    Apex states (derivatives zero, component ratio fixed by the coupling
    pair) are bisected on the apex amplitude: above the homoclinic the orbit
    changes sign, below it stays positive and returns.  Each trial stops at
    its first event: a component below zero (above), or a minimum of w1 or
    the window end (below).  On the proportional ray the orbit solves the
    scalar Fowler equation, whose energy sign fixes which comes first; after
    a minimum a negative-energy orbit is periodic and never reaches zero.
    The converged orbit must decay below SHOOT_DECAY_CUT at both window ends.
    """
    if settings is None:
        settings = shoot_settings(params)
    try:
        kl = solve_coupling(params)
    except NoPositiveSolution as exc:
        raise BracketFailure(f"coupling pair unavailable: {exc}") from exc
    ratio = kl.l / kl.k
    t_end = settings.t_span[1]
    fun = dynamics._make_field(params)

    lo = 0.05 * kl.k * params.lam[0]
    hi = params.lam[0]
    if _loses_sign(fun, lo, ratio, t_end, settings):
        raise BracketFailure("lower shooting endpoint already changes sign")
    grow = 0
    while not _loses_sign(fun, hi, ratio, t_end, settings):
        if max(hi, ratio * hi) >= settings.blowup_threshold:
            # Larger apexes count as staying positive: the bracket cannot close.
            raise BracketFailure(f"no sign-losing apex below blowup_threshold="
                                 f"{settings.blowup_threshold!r}: apex {hi!r} reaches it")
        hi *= 2.0
        grow += 1
        if grow > 10:
            raise BracketFailure("no sign-losing apex found while expanding the bracket")

    for _ in range(SHOOT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _loses_sign(fun, mid, ratio, t_end, settings):
            hi = mid
        else:
            lo = mid
    # The largest apex that never changes sign within the window.
    apex = lo

    data = InitialData.from_values(params, apex, ratio * apex, 0.0, 0.0)
    traj = integrate(params, data.state(), settings, mode="signed")
    if _nearest_event(traj, "SignChange") is not None:
        raise BracketFailure("converged orbit still changes sign")
    tail = traj.sample(np.array([settings.t_span[0], settings.t_span[1]]))
    if float(np.max(np.abs(tail[:2]))) > SHOOT_DECAY_CUT:
        raise BracketFailure(
            "converged orbit does not decay below the cut at the window ends"
        )
    return data, traj


def semi_singular_search(
    params: SystemParams,
    spec: SamplerSpec | None = None,
    n_runs: int = 200,
    settings: IntegratorSettings | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Hunt for semi-singular behaviour, expected to find none for N >= 4.

    Positive near-equilibrium data with negative energy are integrated in
    positivity-constrained mode and classified; every SemiSingularCandidate
    is recorded as a failure.  The report logs the window infimum of each
    component for both-singular candidates (the lower-bound statistic).
    """
    if params.N < 4:
        raise DomainError("semi-singular search is specified for N >= 4")
    if spec is None:
        spec = SamplerSpec(
            kind="near_cylinder", projection="psi_negative", require_positive=True
        )
    if settings is None:
        settings = IntegratorSettings()

    draws, rejected = _collect_draws(params, spec, n_runs, seed) if n_runs else ([], {})
    counts: dict[str, int] = {}
    runs = []
    failures = []
    lower_bounds = []
    for index, data in draws:
        traj = integrate(params, data.state(), settings, mode="positive")
        report = monitor(params, traj) if len(traj.t) > 1 else None
        verdict_obj = classify(params, traj, report)
        verdict = verdict_obj.verdict
        counts[verdict] = counts.get(verdict, 0) + 1
        record = {
            "index": index,
            "initial": _initial_as_list(data),
            "verdict": verdict,
            "K_value": verdict_obj.K_value,
            "inf_w": verdict_obj.evidence.get("inf_w"),
            "anomaly": verdict_obj.evidence.get("anomaly", False),
        }
        runs.append(record)
        if verdict == SEMI_SINGULAR:
            failures.append(record)
        if verdict == BOTH_SINGULAR:
            lower_bounds.append(verdict_obj.evidence["inf_w"][0])

    summary = {
        "rejected": rejected,
        "semi_singular_found": len(failures),
        "lower_bound_stat": {
            "count": len(lower_bounds),
            "min": min(lower_bounds) if lower_bounds else None,
            "median": float(np.median(lower_bounds)) if lower_bounds else None,
        },
    }
    return ExperimentReport(
        kind="semi_singular_search",
        seed=seed,
        n_runs=len(draws),
        counts=counts,
        failures=failures,
        runs=runs,
        summary=summary,
    )


def _sweep_point(payload):
    (pi, ii), params, values, settings, mode, archive_dir = payload
    record = {"params_index": pi, "initial_index": ii, "initial": list(values)}
    try:
        data = InitialData.from_values(params, *values)
        record["initial"] = _initial_as_list(data)
        traj = integrate(params, data.state(), settings, mode=mode)
        report = monitor(params, traj) if len(traj.t) > 1 else None
        verdict_obj = classify(params, traj, report)
        record["verdict"] = verdict_obj.verdict
        record["K_value"] = verdict_obj.K_value
        record["anomaly"] = verdict_obj.evidence.get("anomaly", False)
        record["events"] = verdict_obj.evidence["events"]
        record["certified"] = traj.certified
        if archive_dir is not None:
            # Per-run artifact on its own path; the record carries the
            # relative name.
            from . import serialize

            name = f"run_{pi:03d}_{ii:03d}.json"
            serialize.save_trajectory(
                traj, os.path.join(archive_dir, name),
                invariant_report=report, classification=verdict_obj,
            )
            record["trajectory"] = name
    except FowlerLabError as exc:  # package errors never abort the sweep
        record["verdict"] = "Error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["initial"] = [
            v if isinstance(v, (int, float)) and math.isfinite(v) else None
            for v in record["initial"]
        ]
    return record


def sweep(
    params_grid,
    initial_grid,
    settings: IntegratorSettings | None = None,
    mode: str = "positive",
    workers: int = 1,
    seed: int = 0,
    archive_dir: str | None = None,
) -> ExperimentReport:
    """Integrate and classify every (params, initial) grid point.

    initial_grid entries are (a1, a2, b1, b2) tuples or InitialData; the
    energy is recomputed per parameter set.  Output ordering follows the
    grid indices; per-point errors are captured in the report.  With
    workers > 1 the points run in separate processes and the result is
    identical to the serial run.  When archive_dir is given, every
    trajectory artifact is written there and referenced by relative path.
    """
    if settings is None:
        settings = IntegratorSettings()
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
    params_grid = list(params_grid)
    values_grid = [
        (d.a1, d.a2, d.b1, d.b2) if isinstance(d, InitialData) else tuple(d)
        for d in initial_grid
    ]
    payloads = []
    for pi, params in enumerate(params_grid):
        for ii, values in enumerate(values_grid):
            payloads.append(((pi, ii), params, values, settings, mode, archive_dir))

    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point, payloads))
    else:
        records = [_sweep_point(p) for p in payloads]

    counts: dict[str, int] = {}
    failures = []
    for record in records:
        counts[record["verdict"]] = counts.get(record["verdict"], 0) + 1
        if record.get("anomaly"):
            failures.append(record)

    summary = {"mode": mode, "grid": [len(params_grid), len(values_grid)]}
    return ExperimentReport(
        kind="sweep",
        seed=seed,
        n_runs=len(records),
        counts=counts,
        failures=failures,
        runs=records,
        summary=summary,
    )
