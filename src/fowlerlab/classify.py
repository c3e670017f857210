"""Evidence-based classification of integrated orbits.

The sign of the conserved invariant K = sphere_area * Psi splits orbits:
entire candidates sit on K = 0 and decay at rate delta at both window ends;
K < 0 with both components bounded below is both-singular behaviour; K < 0
with exactly one component decaying is semi-singular behaviour, which cannot
occur for N >= 4 and is therefore flagged as an anomaly there.  Finite
windows prove nothing, so every verdict is a candidate backed by a
quantitative evidence record.  The decay rates are closed-form
least-squares lines of ln w over one sample of each outer third.
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
#: Samples drawn from the dense interpolant for each decay fit.
_FIT_SAMPLES = 400
_WINDOW_SAMPLES = 2000
#: Order-of-magnitude separation used by the semi-singular detector.
_SEMI_SEPARATION = 10.0


@dataclass(frozen=True)
class Classification:
    """Verdict plus the quantitative evidence it was drawn from."""

    verdict: str
    K_value: float
    evidence: dict = field(default_factory=dict)


def _side_region(traj: Trajectory, end: str) -> tuple[float, float]:
    span = traj.t_max - traj.t_min
    third = span / 3.0
    if end == "+":
        return traj.t_max - third, traj.t_max
    return traj.t_min, traj.t_min + third


def _decay_fits(traj: Trajectory, end: str) -> list:
    """Least-squares decay fits of w1 and w2 on the outer third, from one
    sample of that region: for each component the line through the mean
    point of (t, ln w) with slope sum (t - tm)(ln w - ym) / sum (t - tm)^2,
    tm and ym the means.

    Each entry is (rate, amplitude) with w ~ amplitude * exp(-rate * |t|)
    toward the requested end, or the InsufficientWindow that refuses the
    fit: the side covers less than MIN_SIDE_COVER units (both entries), or
    the component is not positive on the fit region.  The orbit carries no
    terminal event: classify fits none.
    """
    cover = (traj.t_max - traj.t_initial) if end == "+" else (traj.t_initial - traj.t_min)
    if cover < MIN_SIDE_COVER:
        short = InsufficientWindow(f"side {end} covers {cover:.3g} < {MIN_SIDE_COVER} units of t")
        return [short, short]
    lo, hi = _side_region(traj, end)
    ts = np.linspace(lo, hi, _FIT_SAMPLES)
    t_mean = ts.mean()
    tc = ts - t_mean
    fits: list = []
    for w in traj.sample(ts, derivatives=0):
        if np.any(w <= 0.0):
            fits.append(InsufficientWindow("component not positive on the fit region"))
            continue
        y = np.log(w)
        y_mean = y.mean()
        slope = float(tc @ (y - y_mean) / (tc @ tc))
        rate = -slope if end == "+" else slope
        fits.append((rate, math.exp(y_mean - slope * t_mean)))
    return fits


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

    w1, w2 = _window_sample(traj)
    inf_w = (float(np.min(w1)), float(np.min(w2)))
    sup_w = (float(np.max(w1)), float(np.max(w2)))
    evidence["inf_w"] = list(inf_w)
    evidence["sup_w"] = list(sup_w)

    fits: dict = {}
    for end in ("+", "-"):
        for comp, fit in zip((1, 2), _decay_fits(traj, end)):
            if isinstance(fit, InsufficientWindow):
                fits[(end, comp)] = None
                evidence.setdefault("fit_errors", []).append([end, comp, str(fit)])
            else:
                fits[(end, comp)] = fit
    evidence["decay"] = {
        f"{end}{comp}": (None if fits[(end, comp)] is None else list(fits[(end, comp)]))
        for end in ("+", "-")
        for comp in (1, 2)
    }

    def decays(end: str, comp: int) -> bool:
        fit = fits[(end, comp)]
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
            tail = fits[("+", comp)][1] * math.exp(-params.delta * span / 3.0)
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
