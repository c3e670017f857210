"""Conserved and bounded quantities, and the lemma monitors along orbits.

The transformed system conserves

    Psi = (|w1'|^2 + |w2'|^2 - d^2 w1^2 - d^2 w2^2)/2
          + (mu1 |w1|^(2p) + 2 beta |w1|^p |w2|^p + mu2 |w2|^(2p)) / (2p)

which equals the radial Pohozaev surface functional divided by the unit
sphere area.  The auxiliary pair f_i = -|wi'|^2/2 + d^2 wi^2/2
- mu_i wi^(2p)/(2p) satisfies f1 + f2 = (beta/p) w1^p w2^p - Psi identically
and shares the monotonicity of w_i along solutions.
The module also owns the radial map t = -ln r, w = r^delta (u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .params import SystemParams, _exponents
from .state import FowlerState

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import Trajectory

#: Shared tolerance separating "theorem margin" from roundoff in monitors.
MONITOR_TOL = 1e-9
#: Central finite-difference step (in t) used for the f' coupling check.
FD_STEP = 1e-6
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


def to_fowler(
    params: SystemParams, r: float, u: float, v: float, du: float, dv: float
) -> FowlerState:
    """Map radial data (r, u, v, u', v') to the logarithmic phase point.

    Inverse of to_radial; the derivative map follows from
    u'(r) = -r^(-delta-1) (w1'(t) + delta w1(t)).
    """
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    delta = params.delta
    t = -math.log(r)
    w1 = r**delta * u
    w2 = r**delta * v
    dw1 = -(r ** (delta + 1.0)) * du - delta * w1
    dw2 = -(r ** (delta + 1.0)) * dv - delta * w2
    return FowlerState(t=t, w1=w1, w2=w2, dw1=dw1, dw2=dw2)


def to_radial(params: SystemParams, state: FowlerState) -> tuple[float, float, float, float, float]:
    """Map a phase point back to radial data (r, u, v, u', v').

    DomainError where r or its powers leave the float range, which for
    N = 3 starts near |t| = 473.
    """
    delta = params.delta
    try:
        r = math.exp(-state.t)
        u = r ** (-delta) * state.w1
        v = r ** (-delta) * state.w2
        du = -(r ** (-delta - 1.0)) * (state.dw1 + delta * state.w1)
        dv = -(r ** (-delta - 1.0)) * (state.dw2 + delta * state.w2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"radial map out of float range at t = {state.t!r}") from exc
    return r, u, v, du, dv


def f_arrays(params: SystemParams, w1, w2, dw1, dw2):
    """Auxiliary pair (f1, f2) evaluated elementwise."""
    p = params.p
    d2 = params.delta**2
    f1 = -0.5 * dw1 * dw1 + 0.5 * d2 * w1 * w1 - params.mu1 / (2.0 * p) * np.abs(w1) ** (2.0 * p)
    f2 = -0.5 * dw2 * dw2 + 0.5 * d2 * w2 * w2 - params.mu2 / (2.0 * p) * np.abs(w2) ** (2.0 * p)
    return f1, f2


def f_pair(params: SystemParams, state: FowlerState) -> tuple[float, float]:
    """Auxiliary pair (f1, f2) at a phase point."""
    f1, f2 = f_arrays(params, state.w1, state.w2, state.dw1, state.dw2)
    return float(f1), float(f2)


def pohozaev_system(params: SystemParams, r: float, radial_data) -> float:
    """Radial Pohozaev surface functional K(r; u, v).

    radial_data is the tuple (u, v, du, dv) at radius r; the surface integral
    reduces exactly to sphere_area * r^(N-1) times the constant integrand
    because radial symmetry is an input assumption.  DomainError where a
    power leaves the float range.
    """
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    u, v, du, dv = radial_data
    delta = params.delta
    grad2 = du * du + dv * dv
    p = params.p
    try:
        bulk = (
            params.mu1 * abs(u) ** params.two_star
            + params.mu2 * abs(v) ** params.two_star
            + 2.0 * params.beta * abs(u) ** p * abs(v) ** p
        )
        integrand = (
            delta * (u * du + v * dv)
            - 0.5 * r * grad2
            + r * grad2
            + r / params.two_star * bulk
        )
        return params.sphere_area * r ** (params.N - 1) * integrand
    except OverflowError as exc:
        raise DomainError(f"Pohozaev functional out of float range at r = {r!r}") from exc


def pohozaev_scalar(N: int, coefficient: float, r: float, u: float, du: float) -> float:
    """Pohozaev functional P(r; u) of the scalar equation -Lap u = c u^(2*-1).

    Serves as the decoupled (beta -> 0) oracle for the system functional.
    """
    if int(N) != N or N < 3:
        raise DomainError(f"dimension N must be an integer >= 3, got {N!r}")
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    N = int(N)
    delta, _, two_star, sphere_area = _exponents(N)
    integrand = (
        delta * u * du
        - 0.5 * r * du * du
        + r * du * du
        + r / two_star * coefficient * abs(u) ** two_star
    )
    return sphere_area * r ** (N - 1) * integrand


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

    def all_pass(self) -> bool:
        return (
            all(self.f_positive)
            and all(self.lambda_bound)
            and all(self.gradient_bound)
            and self.f_w_monotone_coupling
        )


def _monitor_times(traj: "Trajectory") -> np.ndarray:
    nodes = traj.t
    inner = np.linspace(nodes[:-1], nodes[1:], SAMPLES_PER_STEP + 2, axis=1)[:, 1:-1]
    return np.unique(np.concatenate([nodes, inner.ravel()]))


def monitor(params: SystemParams, traj: "Trajectory") -> InvariantReport:
    """Evaluate every lemma monitor on nodes plus dense per-step samples."""
    ts = _monitor_times(traj)
    w1, w2, dw1, dw2 = traj.sample(ts)

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

    # Coupled monotonicity: sign(f_i') must match sign(w_i') wherever the
    # derivative is resolvable.  f' is taken by central differences on the
    # dense interpolant, which validates the interpolant as well.
    inside = (ts > traj.t_min + FD_STEP) & (ts < traj.t_max - FD_STEP)
    interior = ts[inside]
    monotone_ok = True
    if interior.size:
        up = traj.sample(interior + FD_STEP)
        dn = traj.sample(interior - FD_STEP)
        f1_up, f2_up = f_arrays(params, *up)
        f1_dn, f2_dn = f_arrays(params, *dn)
        p = params.p
        for fd, dw, wi, wj in (
            ((f1_up - f1_dn) / (2.0 * FD_STEP), dw1[inside], w1[inside], w2[inside]),
            ((f2_up - f2_dn) / (2.0 * FD_STEP), dw2[inside], w2[inside], w1[inside]),
        ):
            scale = params.beta * np.abs(wi) ** (p - 1.0) * np.abs(wj) ** p * np.abs(dw)
            mask = (np.abs(dw) > MONITOR_TOL) & (scale > 100.0 * FD_STEP**2)
            if np.any(np.sign(fd[mask]) != np.sign(dw[mask])):
                monotone_ok = False

    # Pohozaev cross-check on a log-spaced radius grid (uniform in t).
    grid = np.linspace(traj.t_min, traj.t_max, POHOZAEV_GRID)
    gw1, gw2, gdw1, gdw2 = traj.sample(grid)
    gpsi = psi_arrays(params, gw1, gw2, gdw1, gdw2)
    match = 0.0
    for tcur, a, b, c, d, pval in zip(grid, gw1, gw2, gdw1, gdw2, gpsi):
        r, u, v, du, dv = to_radial(params, FowlerState.from_array(tcur, (a, b, c, d)))
        k_val = pohozaev_system(params, r, (u, v, du, dv))
        match = max(match, abs(k_val - params.sphere_area * float(pval)))

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
