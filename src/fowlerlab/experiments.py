"""Batch drivers: sign-change runs, entire-orbit shooting, semi-singular
search, and parameter sweeps.

Random draws come from a counter-based generator keyed by (seed, index), so
results are independent of execution order and parallelism.  Reports carry
no timing metadata; identical seed and spec give bit-identical JSON.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, serialize
from .classify import BOTH_SINGULAR, SEMI_SINGULAR, classify
from .dynamics import IntegratorSettings, Trajectory, integrate
from .errors import (
    BracketFailure,
    DomainError,
    FowlerLabError,
    NoPositiveSolution,
    SamplerDegenerate,
)
from .invariants import monitor, potential_arrays, psi, psi_arrays
from .params import SystemParams, cylinder_amplitudes, solve_coupling
from .state import FowlerState

#: Rejection attempts allowed per accepted draw before giving up.
MAX_REJECTION_FACTOR = 200
#: Most trials that a shoot may place by Newton from g's trial, and most
#: one-ulp creeps (a proposal that rounds onto its own trial): later ones
#: gallop and bisect.  Over 180 bench-style shoots, Newton placed 1 to 5
#: trials, creeps included; in the 107 that then galloped, the gallop
#: started at most 23 ulps (median 2) from the apex.
#: Near the apex W is noise-limited, a few ulps wide at N = 3 and 4 and
#: about 20 at N = 5: at (N, beta) = (4, 2) Newton crept up 1 ulp a trial,
#: and a creep counted as a Newton trial sent the shoot to the lam-scaled
#: end one trial short of the apex.
_NEWTON_LAST_TRIAL = 4
#: Cap on the trials after g (not counting the lam-scaled bracket ends)
#: that close the bracket to adjacent floats.  The upper end starts at
#: lam[0] and doubles at most 10 times on the apex energy's sign and 10
#: more on its own trial, so the widest bracket is lam[0] * 2**20, with its
#: lower end above lam[0] * 2**-7: it spans at most 2**80 ulps of either
#: end.  Newton's trials and creeps are at most 2 * _NEWTON_LAST_TRIAL.  A
#: gallop from an end, at 4**j ulps for j = 0, 1, ..., leaves the bracket
#: by j = 40 (41 trials); crossing at j leaves 3 * 4**(j - 1) ulps, which
#: 2j <= 80 halvings close, as 80 close the whole bracket.
SHOOT_TRIALS = 2 * _NEWTON_LAST_TRIAL + 41 + 80
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

    kind "uniform_box" draws all four values uniformly on [-1, 1];
    "near_cylinder" perturbs the equilibrium with Gaussian noise of size
    0.05 * ||equilibrium||, a ray_fraction of the draws constrained to the
    proportional invariant ray (which is guaranteed to stay bounded), and
    rejects draws that are not positive.
    projection: "psi_positive" rejects draws with energy below 1e-3;
    "psi_zero" rescales (b1, b2) onto the zero-energy surface and requires
    |a1 b2 - a2 b1| >= DET_FLOOR; "psi_negative" rejects nonnegative
    energy; "none" accepts everything.
    """

    kind: str = "uniform_box"
    projection: str = "none"
    ray_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in ("uniform_box", "near_cylinder"):
            raise DomainError(f"unknown sampler kind {self.kind!r}")
        if self.projection not in ("none", "psi_positive", "psi_zero", "psi_negative"):
            raise DomainError(f"unknown sampler projection {self.projection!r}")


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
        a1, a2, b1, b2 = rng.uniform(-1.0, 1.0, size=4)
    else:
        c1, c2 = cylinder_amplitudes(params)
        base = np.array([c1, c2, 0.0, 0.0])
        sigma = 0.05 * float(np.linalg.norm(base))
        if rng.uniform() < spec.ray_fraction:
            # Perturb along the proportional invariant manifold: the orbit
            # reduces to the scalar problem and stays bounded.
            kl = solve_coupling(params)
            da, db = rng.normal(0.0, sigma, size=2)
            w0 = c1 / kl.k + da
            a1, a2 = kl.k * w0, kl.l * w0
            b1, b2 = kl.k * db, kl.l * db
        else:
            a1, a2, b1, b2 = base + rng.normal(0.0, sigma, size=4)
        if not (a1 > 0.0 and a2 > 0.0):
            return None, "nonpositive"

    if spec.projection == "psi_zero":
        scaled = _project_psi_zero(params, a1, a2, b1, b2)
        if scaled is None:
            return None, "degenerate_projection"
        b1, b2 = scaled
        data = InitialData.from_values(params, a1, a2, b1, b2)
        if abs(data.determinant()) < DET_FLOOR:
            return None, "determinant"
        return data, None

    data = InitialData.from_values(params, a1, a2, b1, b2)
    if spec.projection == "psi_positive" and not data.psi0 > 1e-3:
        return None, "psi_sign"
    if spec.projection == "psi_negative" and not data.psi0 < 0.0:
        return None, "psi_sign"
    return data, None


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated result of a batch run.

    runs holds one record per run, each with its verdict; n_runs and counts
    are computed from them.  failures lists the runs violating the
    theorem-level expectation of the experiment kind.
    """

    kind: str
    seed: int
    runs: list
    failures: list
    summary: dict

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def counts(self) -> dict:
        """Runs per verdict label, in the order the labels first occur."""
        return dict(Counter(run["verdict"] for run in self.runs))


def _initial_as_list(data: InitialData) -> list[float]:
    return [data.a1, data.a2, data.b1, data.b2, data.psi0]


def _nearest_event(traj: Trajectory, kind: str):
    """The event of this kind closest to t = 0 (the earlier one on a tie)."""
    found = [ev for ev in traj.events if ev.kind == kind]
    return min(found, key=lambda ev: abs(ev.t)) if found else None


def _collect_draws(
    params: SystemParams, spec: SamplerSpec, n_runs: int, seed: int
) -> tuple[list[tuple[int, InitialData]], dict]:
    if n_runs < 0:
        raise DomainError(f"n_runs must be nonnegative, got {n_runs!r}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
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
    if w1_old < 0.0 < w1 or w1 < 0.0 < w1_old or w2_old < 0.0 < w2 or w2 < 0.0 < w2_old:
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
    run's, bit for bit, and the SignChange events are read at the nodes by
    the same test (dynamics._bracketed_zeros), so the cut orbit holds every
    crossing between its ends that the whole window holds.  A node test
    sees a flip late (a double crossing inside one step), never early, so
    the first crossing each way, and with it the nearest one, lies between
    those ends.
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

    runs = []
    for index, data in draws:
        traj = _crossing_trajectory(params, data, window)
        event = _nearest_event(traj, "SignChange")
        runs.append({
            "index": index,
            "initial": _initial_as_list(data),
            "verdict": classify(params, traj).verdict,
            "sign_change_t": None if event is None else event.t,
            "sign_change_component": None if event is None else event.component,
        })

    times = [abs(run["sign_change_t"]) for run in runs if run["sign_change_t"] is not None]
    summary = {
        "projection": spec.projection,
        "horizon": horizon,
        "rejected": rejected,
        "detection_rate": len(times) / len(runs) if runs else None,
        "max_abs_event_t": max(times) if times else None,
    }
    failures = [run for run in runs if run["sign_change_t"] is None]
    return ExperimentReport(kind="sign_change", seed=seed, runs=runs, failures=failures,
                            summary=summary)


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
                settings: IntegratorSettings) -> tuple[bool, dynamics.Segment | None]:
    """Whether the trial from this apex changes sign, and the trial's
    forward Segment (None when the data are not integrated)."""
    # Symmetric apex data: forward integration alone decides the dichotomy.
    y0 = (apex_w1, ratio * apex_w1, 0.0, 0.0)
    if max(y0[0], y0[1]) >= settings.blowup_threshold:
        # integrate stops such data at once with BlowUp: no sign change.
        return False, None
    # Looked up at call time, so a wrapper set on dynamics.solve_ivp sees it.
    seg = dynamics.solve_ivp(fun, 0.0, y0, t_end, settings, "signed", _first_turn)
    return seg.event == ("SignChange", None), seg


def _window_end_value(run: dynamics.Segment, delta: float, t_end: float) -> float:
    """w1 at t_end continued from the trial's last node by the linearisation
    w'' = delta**2 w at the origin: it changes sign at the window's own
    dichotomy, and it is w1 itself on a trial that reached t_end.  NaN when
    the continuation overflows (a trial that stopped far from t_end)."""
    s = delta * (t_end - float(run.t[-1]))
    try:
        return float(run.y[0, -1]) * math.cosh(s) + float(run.y[2, -1]) / delta * math.sinh(s)
    except OverflowError:
        return math.nan


def _window_end_slope(run: dynamics.Segment, delta: float, ratio: float, t_end: float) -> float:
    """d/dpsi of _window_end_value under the same linearisation.

    On the ray w2 = ratio * w1, w1 = alpha e^(-delta t) + beta e^(delta t)
    has energy psi ~ -2 delta**2 (1 + ratio**2) alpha beta.  A change of
    energy moves the growing part beta and leaves the decaying alpha, read
    from the last node (t_n, w1_n, w1'_n), so the slope is
    -e^(delta (T - t_n)) / (delta**2 (1 + ratio**2) (w1_n - w1'_n / delta)).
    NaN where that overflows or the decaying part is zero."""
    s = delta * (t_end - float(run.t[-1]))
    decaying = float(run.y[0, -1]) - float(run.y[2, -1]) / delta
    try:
        grow = math.exp(s)
    except OverflowError:
        return math.nan
    return -grow / (delta**2 * (1.0 + ratio**2) * decaying) if decaying else math.nan


def _apex_energy(params: SystemParams, ratio: float, apex_w1: float) -> float:
    # Conserved along the trial orbit, nearly linear in the apex, and zero at
    # the homoclinic one: the guide whose root is the first shooting trial.
    return float(psi_arrays(params, apex_w1, ratio * apex_w1, 0.0, 0.0))


def _newton(params: SystemParams, ratio: float, t_end: float, apex: float,
            run: dynamics.Segment | None) -> float:
    """Newton's next apex from this trial, apex - W / W'.

    W is the trial's window-end value; W' is its slope in the energy
    (_window_end_slope, from the trial's tail) times the energy's slope in
    the apex, a central difference of _apex_energy (no integration).  NaN
    when the run is missing (BlowUp data) or W' is zero."""
    if run is None:
        return math.nan
    h = 2.0**-20 * apex
    guide_slope = (_apex_energy(params, ratio, apex + h)
                   - _apex_energy(params, ratio, apex - h)) / (2.0 * h)
    slope = _window_end_slope(run, params.delta, ratio, t_end) * guide_slope
    if slope == 0.0:
        return math.nan
    return apex - _window_end_value(run, params.delta, t_end) / slope


def shoot_entire(
    params: SystemParams, settings: IntegratorSettings | None = None
) -> tuple[InitialData, Trajectory]:
    """One-parameter shooting for the homoclinic zero-energy orbit.

    Apex states (derivatives zero, component ratio fixed by the coupling
    pair) are bracketed on the apex amplitude: above the homoclinic the orbit
    changes sign, below it stays positive and returns.  Each trial stops at
    its first event: a component below zero (above), or a minimum of w1 or
    the window end (below).  On the proportional ray the orbit solves the
    scalar Fowler equation, whose energy sign fixes which comes first; after
    a minimum a negative-energy orbit is periodic and never reaches zero.
    Only a trial's verdict moves an end of the bracket.  The first trial is
    g, the root of the apex energy, which is zero at the homoclinic apex:
    the bracket starts at [0.05 k lam[0], lam[0]], the lower end's energy
    must be negative, and the upper end doubles, up to 10 times, until its
    energy is positive (on the ray the energy grows like a**(2p), 2p > 2);
    g is then bisected on the energy's sign without integrating.  Each
    trial's run gives W, w1 continued from its last node to t_span[1] by
    the linearisation w'' = delta**2 w at the origin (_window_end_value),
    which changes sign at the window's own dichotomy.  The next trials are
    placed by Newton on W from the latest trial, at a - W / W' (_newton):
    W' is W's slope in the energy under the same linearisation
    (_window_end_slope) times the energy's slope in the apex.  A proposal
    that rounds onto its own trial creeps one ulp toward the open side.  A
    proposal that is not finite or not strictly inside the bracket (a run
    missing for BlowUp data, or a W that overflows), or one past
    _NEWTON_LAST_TRIAL Newton trials or creeps, ends Newton's trials.  An
    end of the bracket that no trial settled then runs its own trial: the
    lower must stay positive, the upper doubles until it changes sign.  The
    trials then gallop from the end the latest trial moved, toward the
    other side, by 1, 4, 16, ... ulps until one lands across or would leave
    the bracket (and so is the midpoint); the rest bisect.  The bracket
    closes to adjacent floats within SHOOT_TRIALS trials after g's.
    The converged orbit is integrate's from the apex data, bit for bit,
    and takes no run of its own when it can: its forward half is the trial
    from the converged apex, which is the last trial that stayed positive,
    when that trial reached t_span[1] with no event (its stop rule never
    fired); a trial that stopped at a minimum is not reused, and the orbit
    is integrated afresh.  The apex data are at rest at t = 0, so on a
    symmetric window (t_span[0] == -t_span[1]) the backward half is the
    forward one mirrored; otherwise it is a run.  The orbit must reach both
    window ends, and its end nodes must decay below SHOOT_DECAY_CUT.
    The window must hold the apex time: t_span[0] < 0 < t_span[1].  It must
    also resolve the dichotomy, and not be so long that amplified rounding
    lifts the orbit above the cut: delta * min(-t_span[0], t_span[1]) from
    half to 1.25 times the default exponent _SHOOT_WINDOW_EXPONENT, else
    DomainError.
    """
    if settings is None:
        settings = shoot_settings(params)
    dynamics._require_window(settings.t_span, 0.0, "shooting window must hold the apex time",
                             strict=True)
    # The converged orbit passes the decay cut on any window, so a short one
    # must be refused here.  The apex error falls like exp(-2 delta T): at
    # N = 3 it is 1.3e-2 at delta T = 2.5, 2.3e-7 at 8 and 4.1e-9 at 10.
    # On a long one the rounding that the unstable direction amplifies like
    # exp(delta T) lifts the converged orbit back above the cut, or across
    # zero.  At mu = beta = 1 shoots pass up to delta T = 21.5 at N = 3 and
    # 24 at N = 4 and 5, and fail from 22 at N = 3; with self-couplings drawn
    # from [0.9, 1.1] at (N, beta) = (3, 1), (4, 2), (5, 1), (6, 0.3), 2 of 32
    # fail at 19, 7 of 32 at 20 and none of 96 at 18.  Past 20, refused.
    reach = params.delta * min(-settings.t_span[0], settings.t_span[1])
    least, most = 0.5 * _SHOOT_WINDOW_EXPONENT, 1.25 * _SHOOT_WINDOW_EXPONENT
    if reach < least:
        raise DomainError(f"shooting window too short to resolve the dichotomy: "
                          f"delta * min(-t_span[0], t_span[1]) = {reach!r} < {least!r}, "
                          f"got t_span {settings.t_span!r}")
    if reach > most:
        raise DomainError(f"shooting window too long for the orbit to stay below the decay "
                          f"cut: delta * min(-t_span[0], t_span[1]) = {reach!r} > {most!r}, "
                          f"got t_span {settings.t_span!r}")
    try:
        kl = solve_coupling(params)
    except NoPositiveSolution as exc:
        raise BracketFailure(f"coupling pair unavailable: {exc}") from exc
    ratio = kl.l / kl.k
    t_end = settings.t_span[1]
    fun = dynamics._make_field(params)

    # lo_run is the trial from lo, which stays positive; settled the
    # verdicts trials have given.
    lo, hi = 0.05 * kl.k * params.lam[0], params.lam[0]
    lo_run = None
    settled = set()

    def settle(guess):
        # The trial from guess, or from the midpoint when guess is not inside
        # the bracket: its verdict moves one end.
        nonlocal lo, hi, lo_run
        apex = guess if lo < guess < hi else 0.5 * (lo + hi)
        loses, run = _loses_sign(fun, apex, ratio, t_end, settings)
        if loses:
            hi = apex
        else:
            lo, lo_run = apex, run
        settled.add(loses)
        return apex, loses, run

    def guide_root():
        # The first float in (lo, hi) where the apex energy is positive,
        # bisected on its sign alone (no trial integration), after hi doubles
        # on that sign.
        nonlocal hi
        if not _apex_energy(params, ratio, lo) < 0.0:
            raise BracketFailure(f"apex energy at the lower shooting endpoint {lo!r} "
                                 f"is not negative")
        grow = 0
        while not _apex_energy(params, ratio, hi) > 0.0:
            if grow == 10:
                raise BracketFailure(f"apex energy not positive at {hi!r} after 10 doublings "
                                     f"of the upper shooting endpoint")
            hi *= 2.0
            grow += 1
        return dynamics._event_root(lambda a: _apex_energy(params, ratio, a) > 0.0, lo, hi)

    def run_ends():
        # An end that no trial has settled runs its own trial.
        nonlocal lo_run, hi
        if False not in settled:
            loses, lo_run = _loses_sign(fun, lo, ratio, t_end, settings)
            if loses:
                raise BracketFailure("lower shooting endpoint already changes sign")
        if True not in settled:
            grow = 0
            loses, _ = _loses_sign(fun, hi, ratio, t_end, settings)
            while not loses:
                if max(hi, ratio * hi) >= settings.blowup_threshold:
                    # Larger apexes count as staying positive: the bracket cannot close.
                    raise BracketFailure(f"no sign-losing apex below blowup_threshold="
                                         f"{settings.blowup_threshold!r}: apex {hi!r} reaches it")
                hi *= 2.0
                grow += 1
                if grow > 10:
                    raise BracketFailure("no sign-losing apex found while expanding the bracket")
                loses, _ = _loses_sign(fun, hi, ratio, t_end, settings)
        settled.update((False, True))

    # Trials go to Newton from g's trial, then gallop from an end, then bisect.
    apex, loses, run = settle(guide_root())
    stage = "newton"
    trials = creeps = 0
    # An end that no trial has settled still runs, even on a closed bracket.
    while 0.5 * (lo + hi) not in (lo, hi) or len(settled) < 2:
        guess = math.nan
        if stage == "newton":
            # From the latest trial.
            if trials - creeps < _NEWTON_LAST_TRIAL:
                guess = _newton(params, ratio, t_end, apex, run)
            if guess == apex and creeps < _NEWTON_LAST_TRIAL:
                # Rounded onto its own trial: creep one ulp toward the open side.
                guess = math.nextafter(apex, lo if loses else hi)
                creeps += 1
            if not lo < guess < hi:
                # The latest trial's apex is the end it moved: gallop from it.
                run_ends()
                stage, origin, upward, gap = "gallop", apex, not loses, 1.0
                continue
        elif stage == "gallop":
            guess = origin + (gap if upward else -gap) * math.ulp(origin)
        if trials == SHOOT_TRIALS:
            raise BracketFailure(f"shooting bracket [{lo!r}, {hi!r}] still open after "
                                 f"{SHOOT_TRIALS} trials")
        trials += 1
        apex, loses, run = settle(guess)
        if stage == "gallop":
            if apex == guess and loses != upward:
                gap *= 4.0  # still on the origin's side of the dichotomy
            else:
                stage = "bisect"
    # The largest apex that never changes sign within the window.
    apex = lo

    data = InitialData.from_values(params, apex, ratio * apex, 0.0, 0.0)
    if lo_run is not None and lo_run.status == 0:
        # The trial reached t_span[1]: its stop rule never fired, so it is
        # integrate's forward half, bit for bit.
        def solve(fun, t0, start):
            return lo_run, dynamics._backward_half(fun, t0, start, lo_run, settings, "signed")

        traj = dynamics._two_sided(params, data.state(), settings, "signed", solve)
    else:
        traj = integrate(params, data.state(), settings, mode="signed")
    if _nearest_event(traj, "SignChange") is not None:
        raise BracketFailure("converged orbit still changes sign")
    if traj.t_min != settings.t_span[0] or traj.t_max != settings.t_span[1]:
        raise BracketFailure("converged orbit does not reach both window ends")
    if float(np.max(np.abs(traj.y[:2, [0, -1]]))) > SHOOT_DECAY_CUT:
        raise BracketFailure(
            "converged orbit does not decay below the cut at the window ends"
        )
    return data, traj


#: The semi-singular search's draws: positive, near the cylinder, psi < 0.
_SEMI_SPEC = SamplerSpec(kind="near_cylinder", projection="psi_negative")


def semi_singular_search(
    params: SystemParams,
    n_runs: int = 200,
    settings: IntegratorSettings | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Hunt for semi-singular behaviour, expected to find none for N >= 4.

    Positive near-equilibrium data with negative energy (_SEMI_SPEC) are
    integrated in positivity-constrained mode and classified; every
    SemiSingularCandidate is recorded as a failure.  The report logs the
    window infimum of each component for both-singular candidates (the
    lower-bound statistic).  Runs are not monitored: a run record keeps only
    the verdict, K, inf_w and the anomaly flag, none of which reads the
    lemma monitors.
    """
    if params.N < 4:
        raise DomainError("semi-singular search is specified for N >= 4")
    if settings is None:
        settings = IntegratorSettings()

    draws, rejected = _collect_draws(params, _SEMI_SPEC, n_runs, seed)
    runs = []
    for index, data in draws:
        result = classify(params, integrate(params, data.state(), settings, mode="positive"))
        runs.append({
            "index": index,
            "initial": _initial_as_list(data),
            "verdict": result.verdict,
            "K_value": result.K_value,
            "inf_w": result.evidence.get("inf_w"),
            "anomaly": result.evidence.get("anomaly", False),
        })

    failures = [run for run in runs if run["verdict"] == SEMI_SINGULAR]
    lower_bounds = [run["inf_w"][0] for run in runs if run["verdict"] == BOTH_SINGULAR]
    summary = {
        "rejected": rejected,
        "semi_singular_found": len(failures),
        "lower_bound_stat": {
            "count": len(lower_bounds),
            "min": min(lower_bounds) if lower_bounds else None,
            "median": float(np.median(lower_bounds)) if lower_bounds else None,
        },
    }
    return ExperimentReport(kind="semi_singular_search", seed=seed, runs=runs,
                            failures=failures, summary=summary)


def _sweep_point(payload):
    (pi, ii), params, values, settings, mode, archive_dir = payload
    record = {"params_index": pi, "initial_index": ii, "initial": list(values)}
    try:
        data = InitialData.from_values(params, *values)
        record["initial"] = _initial_as_list(data)
        traj = integrate(params, data.state(), settings, mode=mode)
        # Only the archived artifact carries the monitor report.
        report = monitor(params, traj) if archive_dir is not None and len(traj.t) > 1 else None
        verdict_obj = classify(params, traj, report)
        record["verdict"] = verdict_obj.verdict
        record["K_value"] = verdict_obj.K_value
        record["anomaly"] = verdict_obj.evidence.get("anomaly", False)
        record["events"] = verdict_obj.evidence["events"]
        record["certified"] = traj.certified
        if archive_dir is not None:
            # Per-run artifact on its own path; the record carries the
            # relative name.
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


# The sweep's worker pool, kept across calls: (pid that started it, size,
# executor, its exit hook), or None.
_POOL = None


def _close_pool() -> None:
    """Shut down the kept pool if this process started it, then forget it.
    A forked child only drops its parent's pool: the workers are not its own."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[3].cancel()
        _POOL[2].shutdown(wait=True)
    _POOL = None


def _exit_with_parent() -> None:
    """Pool initializer: the worker exits once its parent is gone, as when
    the process that started the pool is killed without its exit hooks;
    otherwise the orphan would wait on the call queue forever."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def _pool_map(size: int, payloads) -> list:
    """_sweep_point over payloads on the kept pool of size workers, started
    (or restarted at another size) on first use; a pool found broken, say
    by a worker that died while idle, is replaced and the call run once
    more, which gives the same records since points are pure."""
    global _POOL
    # Imported here: the pool's modules cost every process that never runs
    # one about 15 ms.  A fork-started pool launches all its workers at once.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing.util import Finalize

    for retry in (False, True):
        if _POOL is None or _POOL[:2] != (os.getpid(), size):
            _close_pool()
            # The exit hook runs in multiprocessing's exit function: at
            # interpreter exit, and in a multiprocessing child before it
            # joins its children, which idle workers would never let end.
            # Its priority is above the 10 at which that function closes
            # the pool's queues, after which no worker hears the stop.
            executor = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
            _POOL = (os.getpid(), size, executor, Finalize(None, _close_pool, exitpriority=100))
        try:
            return list(_POOL[2].map(_sweep_point, payloads))
        except BrokenProcessPool:
            _close_pool()
            if retry:
                raise


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
    identical to the serial run.  The worker processes, no more than the
    grid's points, are kept for later pooled sweeps of the same size and
    exit with this process, even a killed one; they run the package as it
    was when the pool started, so code changed in this process after that
    (a monkeypatch, say) is not seen there.  When archive_dir is given,
    every trajectory artifact is written there and referenced by relative
    path.  seed only labels the report: a sweep draws nothing.
    """
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers!r}")
    if settings is None:
        settings = IntegratorSettings()
    if archive_dir is not None:
        # Absolute: kept workers stay in the directory they started in.
        archive_dir = os.path.abspath(archive_dir)
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
        records = _pool_map(min(workers, len(payloads)), payloads)
    else:
        records = [_sweep_point(p) for p in payloads]

    summary = {"mode": mode, "grid": [len(params_grid), len(values_grid)]}
    failures = [record for record in records if record.get("anomaly")]
    return ExperimentReport(kind="sweep", seed=seed, runs=records, failures=failures,
                            summary=summary)
