"""Evidence-based classification of integrated orbits.

The sign of the conserved invariant K = sphere_area * Psi splits orbits:
entire candidates sit on K = 0 and decay at rate delta at both window ends;
K < 0 with both components bounded below is both-singular behaviour; K < 0
with exactly one component decaying is semi-singular behaviour, which cannot
occur for N >= 4 and is therefore flagged as an anomaly there.  Finite
windows prove nothing, so every verdict is a candidate backed by a
quantitative evidence record.  The decay rates are medians of the local
rate -w'/w over the nodes of each outer third, read from the node states
the step loop stored, so a fitted orbit is sampled once, for its window
extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import POSITIVITY_FLOOR, Trajectory
from .errors import InsufficientWindow
from .invariants import InvariantReport, potential_arrays
from .params import SystemParams

#: Verdict labels.
ENTIRE = "EntireCandidate"
BOTH_SINGULAR = "BothSingularCandidate"
SEMI_SINGULAR = "SemiSingularCandidate"
SIGN_CHANGING = "SignChanging"
BLOW_UP = "BlowUp"
INCONCLUSIVE = "Inconclusive"

#: |K| below 1e-8 * max(1, scale of the energy terms) counts as zero.
K_TOL_FACTOR = 1e-8
#: Fitted decay rate must sit within 5% of delta.
DECAY_RTOL = 0.05
#: Minimum one-sided coverage (in t) required for a decay fit.
MIN_SIDE_COVER = 10.0
_WINDOW_SAMPLES = 2000
#: Order-of-magnitude separation used by the semi-singular detector.
_SEMI_SEPARATION = 10.0


@dataclass(frozen=True)
class Classification:
    """Verdict plus the quantitative evidence it was drawn from."""

    verdict: str
    K_value: float
    evidence: dict = field(default_factory=dict)


def _decay_fits(traj: Trajectory, end: str) -> list:
    """Decay fits of w1 and w2 at the nodes of the window's outer third
    toward end, from the w and w' the step loop stored there: the rate is
    the median local rate -w'/w (w'/w at the - end), which is delta tanh |t|
    on the bubble and unmoved by the bend that the window's end puts in the
    last nodes; the amplitude is exp of the median of ln w + rate * |t|
    (|t| read as t at the + end and -t at the - end).

    Each entry is [rate, amplitude] with w ~ amplitude * exp(-rate * |t|)
    toward the requested end, or the InsufficientWindow that refuses the
    fit: the side covers less than MIN_SIDE_COVER units (both entries), or
    the component is not positive on the fit region.  The orbit carries no
    terminal event: classify fits none.
    """
    cover = (traj.t_max - traj.t_initial) if end == "+" else (traj.t_initial - traj.t_min)
    if cover < MIN_SIDE_COVER:
        short = InsufficientWindow(f"side {end} covers {cover:.3g} < {MIN_SIDE_COVER} units of t")
        return [short, short]
    third = (traj.t_max - traj.t_min) / 3.0
    nodes = traj.t >= traj.t_max - third if end == "+" else traj.t <= traj.t_min + third
    sign = 1.0 if end == "+" else -1.0
    w, dw = traj.y[:2, nodes], traj.y[2:, nodes]
    positive = (w > 0.0).all(axis=1)
    w, dw = w[positive], dw[positive]
    rates = -sign * _row_medians(dw / w)
    logs = _row_medians(np.log(w) + (rates * sign)[:, None] * traj.t[nodes])
    fitted = iter([[rate, math.exp(log)] for rate, log in zip(rates.tolist(), logs.tolist())])
    return [next(fitted) if ok else InsufficientWindow("component not positive on the fit region")
            for ok in positive.tolist()]


def _row_medians(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=1), float for float (nan, -0.0 and overflow
    included), from one partition: np.median's own partition, mean and nan
    check, without its generic set-up."""
    n = x.shape[1]
    half = n // 2
    part = np.partition(x, [half - 1 + n % 2, half, n - 1], axis=1)
    # The mean's sum starts at +0.0.
    middle = part[:, half] + 0.0 if n % 2 else (0.0 + part[:, half - 1] + part[:, half]) / 2
    return np.where(np.isnan(part[:, -1]), part[:, -1], middle)


def _window_sample(traj: Trajectory) -> np.ndarray:
    """Rows (w1, w2) on _WINDOW_SAMPLES points spanning the whole window."""
    ts = np.linspace(traj.t_min, traj.t_max, _WINDOW_SAMPLES)
    return traj.sample(ts, derivatives=0)


def _k_tolerance(params: SystemParams, traj: Trajectory) -> float:
    """K_TOL_FACTOR * max(1, scale), the scale from the magnitudes of the
    energy terms at the initial state, so that the zero test is meaningful
    for large orbits too; that state is read at its node (t_initial is
    one), which builds no dense output."""
    i0 = int(traj.t.searchsorted(traj.t_initial))
    w1, w2, dw1, dw2 = traj.y[:, i0].tolist()
    kin = 0.5 * (dw1 * dw1 + dw2 * dw2)
    lin = 0.5 * params.delta**2 * (w1 * w1 + w2 * w2)
    pot = float(potential_arrays(params, w1, w2)) / (2.0 * params.p)
    scale = params.sphere_area * (kin + lin + pot)
    return K_TOL_FACTOR * max(1.0, scale)


def classify(
    params: SystemParams, traj: Trajectory, report: InvariantReport | None = None
) -> Classification:
    """Classify an orbit by its invariant value, events, and decay fits.

    A located event is a witnessed fact, so its verdict stands on any orbit.
    An orbit whose integration failed (traj.failure set) and has no such
    event is Inconclusive, with the failure in its evidence.
    """
    k_value = params.sphere_area * traj.psi0
    k_tol = _k_tolerance(params, traj)
    evidence: dict = {
        "k_tol": k_tol,
        "decay_rtol": DECAY_RTOL,
        "semi_separation": _SEMI_SEPARATION,
        "psi0": traj.psi0,
        "drift": traj.drift,
        "certified": traj.certified,
        "window": [traj.t_min, traj.t_max],
        "events": [[e.kind, e.t, e.component] for e in traj.events],
        "anomaly": False,
    }
    if report is not None:
        evidence["monitors"] = {
            "f_margin": list(report.f_margin),
            "lambda_margin": list(report.lambda_margin),
            "gradient_margin": list(report.gradient_margin),
            "pohozaev_match": report.pohozaev_match,
        }
    if traj.failure is not None:
        evidence["failure"] = traj.failure

    kinds = [e.kind for e in traj.events]
    if "SignChange" in kinds:
        return Classification(SIGN_CHANGING, k_value, evidence)
    if "BlowUp" in kinds:
        return Classification(BLOW_UP, k_value, evidence)
    if "PositivityLoss" in kinds:
        evidence["positivity_loss"] = True
        return Classification(SIGN_CHANGING, k_value, evidence)
    if traj.failure is not None:
        # The integrator stopped short of the window: infima and decay fits
        # would read the stretch it reached, not the orbit.
        return Classification(INCONCLUSIVE, k_value, evidence)

    window = _window_sample(traj)
    inf_w = evidence["inf_w"] = window.min(axis=1).tolist()
    evidence["sup_w"] = window.max(axis=1).tolist()

    fits: dict = {}
    for end in ("+", "-"):
        for comp, fit in zip((1, 2), _decay_fits(traj, end)):
            if isinstance(fit, InsufficientWindow):
                evidence.setdefault("fit_errors", []).append([end, comp, str(fit)])
                fit = None
            fits[f"{end}{comp}"] = fit
    evidence["decay"] = fits

    def decays(end: str, comp: int) -> bool:
        fit = fits[f"{end}{comp}"]
        return fit is not None and abs(fit[0] - params.delta) <= DECAY_RTOL * params.delta

    if abs(k_value) < k_tol:
        if all(decays(end, comp) for end in ("+", "-") for comp in (1, 2)):
            return Classification(ENTIRE, k_value, evidence)
        return Classification(INCONCLUSIVE, k_value, evidence)

    if k_value < -k_tol:
        # Semi-singular test at the r -> 0 end: exactly one component decays
        # at rate ~delta while the other stays an order of magnitude above
        # the decaying tail.
        span = traj.t_max - traj.t_min
        for comp, other in ((1, 2), (2, 1)):
            if not decays("+", comp):
                continue
            tail = fits[f"+{comp}"][1] * math.exp(-params.delta * span / 3.0)
            if not decays("+", other) and inf_w[other - 1] > _SEMI_SEPARATION * tail:
                evidence["anomaly"] = params.N >= 4
                evidence["semi_decaying_component"] = comp
                return Classification(SEMI_SINGULAR, k_value, evidence)
        if (
            inf_w[0] > _SEMI_SEPARATION * POSITIVITY_FLOOR
            and inf_w[1] > _SEMI_SEPARATION * POSITIVITY_FLOOR
            and not decays("+", 1)
            and not decays("+", 2)
        ):
            return Classification(BOTH_SINGULAR, k_value, evidence)
        return Classification(INCONCLUSIVE, k_value, evidence)

    # Positive K on a full positive window contradicts the theory; report
    # inconclusively and let the caller's expectation checks flag it.
    evidence["positive_K_without_events"] = True
    return Classification(INCONCLUSIVE, k_value, evidence)
