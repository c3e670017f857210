"""Conserved and bounded quantities, and the lemma monitors along orbits.

The transformed system conserves

    Psi = (|w1'|^2 + |w2'|^2 - d^2 w1^2 - d^2 w2^2)/2
          + (mu1 |w1|^(2p) + 2 beta |w1|^p |w2|^p + mu2 |w2|^(2p)) / (2p)

which equals the radial Pohozaev surface functional divided by the unit
sphere area.  The auxiliary pair f_i = -|wi'|^2/2 + d^2 wi^2/2
- mu_i wi^(2p)/(2p) satisfies f1 + f2 = (beta/p) w1^p w2^p - Psi identically
and shares the monotonicity of w_i along solutions.
The module also owns the radial map t = -ln r, w = r^delta (u, v).

Every formula works on floats and, elementwise, on arrays.  monitor takes
two samples of the interpolant: its grid, with the rows up to w'', from
which f_i' is read exactly (so the monotone test reads the interpolant's
defect), and the Pohozaev grid, on which the radial map and the functional
run as one array formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .params import SystemParams
from .state import FowlerState

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import Trajectory

#: Shared tolerance separating "theorem margin" from roundoff in monitors.
MONITOR_TOL = 1e-9
#: The coupled monotonicity test judges a sign where the coupling term
#: exceeds this many error budgets of the steps (monitor).
MONOTONE_BUDGETS = 10.0
#: Dense samples inserted per accepted step when monitoring.
SAMPLES_PER_STEP = 10
#: Radii used for the Pohozaev cross-check grid.
POHOZAEV_GRID = 100


def potential_arrays(params: SystemParams, w1, w2):
    """Potential part of 2p Psi: mu1|w1|^2p + 2 beta|w1|^p|w2|^p + mu2|w2|^2p."""
    p = params.p
    a1 = np.abs(w1)
    a2 = np.abs(w2)
    return (
        params.mu1 * a1 ** (2.0 * p)
        + 2.0 * params.beta * a1**p * a2**p
        + params.mu2 * a2 ** (2.0 * p)
    )


def psi_arrays(params: SystemParams, w1, w2, dw1, dw2):
    """Conserved energy evaluated elementwise on arrays (or scalars)."""
    kinetic = 0.5 * (
        dw1 * dw1 + dw2 * dw2 - params.delta**2 * (w1 * w1 + w2 * w2)
    )
    return kinetic + potential_arrays(params, w1, w2) / (2.0 * params.p)


def psi(params: SystemParams, state: FowlerState) -> float:
    """Conserved energy of a phase point.

    Absolute values are applied to the powers so the formula also covers the
    signed extension used by the sign-change experiments.
    """
    return float(psi_arrays(params, state.w1, state.w2, state.dw1, state.dw2))


def _require_finite(values, what: str, name: str, at) -> None:
    """DomainError naming the first point of at (t or r, by name) where
    one of the arrays values is not finite."""
    bad = ~np.logical_and.reduce([np.isfinite(x) for x in values])
    if bad.any():
        first = float(np.broadcast_to(at, bad.shape)[bad][0])
        raise DomainError(f"{what} out of float range at {name} = {first!r}")


def to_radial(params: SystemParams, state):
    """Map phase points back to radial data (r, u, v, u', v'):
    r = exp(-t), (u, v) = r^(-delta) w and (u', v') = -r^(-delta-1) (w' + delta w).

    state is a FowlerState, which gives five floats, or a pair (t, y) of
    times and rows (w1, w2, w1', w2'), which gives five arrays.  The map runs
    on arrays either way, so a point's floats are its array result's.
    DomainError where a value leaves the float range, which for N = 3 starts
    near |t| = 473; the message names the first such t.
    """
    point = isinstance(state, FowlerState)
    if point:
        t, y = np.array([state.t]), state.as_array()[:, None]
    else:
        t, y = np.asarray(state[0], dtype=float), state[1]
    w1, w2, dw1, dw2 = y
    delta = params.delta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(-t)
        scale = r ** (-delta)
        dscale = -(r ** (-delta - 1.0))
        out = (r, scale * w1, scale * w2, dscale * (dw1 + delta * w1), dscale * (dw2 + delta * w2))
    _require_finite(out, "radial map", "t", t)
    return tuple(float(x[0]) for x in out) if point else out


def f_arrays(params: SystemParams, w1, w2, dw1, dw2):
    """Auxiliary pair (f1, f2) evaluated elementwise."""
    p = params.p
    d2 = params.delta**2
    f1 = -0.5 * dw1 * dw1 + 0.5 * d2 * w1 * w1 - params.mu1 / (2.0 * p) * np.abs(w1) ** (2.0 * p)
    f2 = -0.5 * dw2 * dw2 + 0.5 * d2 * w2 * w2 - params.mu2 / (2.0 * p) * np.abs(w2) ** (2.0 * p)
    return f1, f2


def pohozaev_system(params: SystemParams, r, radial_data):
    """Radial Pohozaev surface functional K(r; u, v), on floats and,
    elementwise, on arrays.

    radial_data is the tuple (u, v, du, dv) at radius r; the surface integral
    reduces exactly to sphere_area * r^(N-1) times the constant integrand
    because radial symmetry is an input assumption.  DomainError where a
    radius is not positive or the value leaves the float range; the
    message names the first such r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError(f"radius must be positive, got {float(r[r <= 0.0][0])!r}")
    u, v, du, dv = radial_data
    delta = params.delta
    p = params.p
    with np.errstate(over="ignore", invalid="ignore"):
        grad2 = du * du + dv * dv
        au, av = np.abs(u), np.abs(v)
        bulk = (
            params.mu1 * au ** params.two_star
            + params.mu2 * av ** params.two_star
            + 2.0 * params.beta * au ** p * av ** p
        )
        integrand = (
            delta * (u * du + v * dv)
            - 0.5 * r * grad2
            + r * grad2
            + r / params.two_star * bulk
        )
        value = params.sphere_area * r ** (params.N - 1) * integrand
    _require_finite((value,), "Pohozaev functional", "r", r)
    return value


@dataclass(frozen=True)
class InvariantReport:
    """Worst-case margins of every monitored inequality along a trajectory.

    Margins are signed (positive = inequality holds); the booleans derive
    from the margins with the shared tolerance MONITOR_TOL.  A violation on a
    certified positive orbit flags either a non-solution orbit (expected for
    generic data) or an integration fault (for closed-form solutions).
    """

    psi_drift: float
    f_margin: tuple[float, float]
    f_positive: tuple[bool, bool]
    lambda_margin: tuple[float, float]
    lambda_bound: tuple[bool, bool]
    gradient_margin: tuple[float, float]
    gradient_bound: tuple[bool, bool]
    f_w_monotone_coupling: bool
    pohozaev_match: float


def _monitor_times(traj: "Trajectory") -> np.ndarray:
    nodes = traj.t
    inner = np.linspace(nodes[:-1], nodes[1:], SAMPLES_PER_STEP + 2, axis=1)[:, 1:-1]
    return np.unique(np.concatenate([nodes, inner.ravel()]))


def monitor(params: SystemParams, traj: "Trajectory") -> InvariantReport:
    """Evaluate every lemma monitor on nodes plus dense per-step samples,
    from two samples of the interpolant: that grid, and the Pohozaev grid."""
    ts = _monitor_times(traj)
    w1, w2, dw1, dw2, ddw1, ddw2 = traj.sample(ts, derivatives=2)

    psis = psi_arrays(params, w1, w2, dw1, dw2)
    psi_drift = float(np.max(np.abs(psis - traj.psi0))) if psis.size else 0.0

    f1, f2 = f_arrays(params, w1, w2, dw1, dw2)
    f_margin = (float(np.min(f1)), float(np.min(f2)))
    lambda_margin = (
        float(params.lam[0] - np.max(w1)),
        float(params.lam[1] - np.max(w2)),
    )
    gradient_margin = (
        float(np.min(params.delta * w1 - np.abs(dw1))),
        float(np.min(params.delta * w2 - np.abs(dw2))),
    )

    # Coupled monotonicity: sign(f_i') must match sign(w_i') wherever it is
    # resolvable.  On the interpolant f_i' = w_i' (d^2 w_i - mu_i
    # |w_i|^(2p-2) w_i - w_i''); along a solution the bracket is the
    # coupling term c_i = beta |w_j|^p |w_i|^(p-2) w_i, on the interpolant
    # c_i minus the defect w_i'' - F_i(w), so the test reads the defect.
    # The steps were held to the budget atol + rtol m, m the magnitude of
    # the bracket's terms; a sign is judged where |w_i'| > MONITOR_TOL and
    # |c_i| exceeds MONOTONE_BUDGETS budgets.  Two powers serve both
    # components, as in the field: P = |w|^(p-1) and X = P |w| = |w|^p.
    rtol, atol = traj.settings.rel_tol, traj.settings.abs_tol
    d2 = params.delta**2
    mags = (np.abs(w1), np.abs(w2))
    powers = [mag ** (params.p - 1.0) for mag in mags]
    xs = [pw * mag for pw, mag in zip(powers, mags)]
    monotone_ok = True
    for i, (w, dw, ddw, mu) in enumerate(((w1, dw1, ddw1, params.mu1),
                                          (w2, dw2, ddw2, params.mu2))):
        self_term = mu * xs[i] * powers[i]  # mu |w_i|^(2p-1)
        df = dw * (d2 * w - np.copysign(self_term, w) - ddw)
        coupling = params.beta * xs[1 - i] * powers[i]
        budget = atol + rtol * (d2 * mags[i] + self_term + np.abs(ddw))
        mask = (np.abs(dw) > MONITOR_TOL) & (coupling > MONOTONE_BUDGETS * budget)
        if np.any(mask & (np.sign(df) != np.sign(dw))):
            monotone_ok = False

    # Pohozaev cross-check on a log-spaced radius grid (uniform in t).
    grid = np.linspace(traj.t_min, traj.t_max, POHOZAEV_GRID)
    gw1, gw2, gdw1, gdw2 = traj.sample(grid)
    r, u, v, du, dv = to_radial(params, (grid, (gw1, gw2, gdw1, gdw2)))
    k_vals = pohozaev_system(params, r, (u, v, du, dv))
    gpsi = psi_arrays(params, gw1, gw2, gdw1, gdw2)
    match = float(np.max(np.abs(k_vals - params.sphere_area * gpsi)))

    tol = MONITOR_TOL
    return InvariantReport(
        psi_drift=psi_drift,
        f_margin=f_margin,
        f_positive=(f_margin[0] > -tol, f_margin[1] > -tol),
        lambda_margin=lambda_margin,
        lambda_bound=(lambda_margin[0] > -tol, lambda_margin[1] > -tol),
        gradient_margin=gradient_margin,
        gradient_bound=(gradient_margin[0] > -tol, gradient_margin[1] > -tol),
        f_w_monotone_coupling=monotone_ok,
        pohozaev_match=match,
    )
