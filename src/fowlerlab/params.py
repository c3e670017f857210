"""Problem parameters, derived exponents, and closed-form solution families.

The elliptic system under study is

    -Lap u = mu1 * u^(2s-1) + beta * u^(s-1) * v^s
    -Lap v = mu2 * v^(2s-1) + beta * v^(s-1) * u^s      (s = 2*/2, 2* = 2N/(N-2))

on R^N minus the origin.  In the logarithmic radial variable the system
becomes an autonomous conservative ODE system; this module owns the
coefficients, the exponents derived from them, the (k, l) amplitude pair of
the explicit entire family, and the constant (cylinder) equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, DomainError, NoPositiveSolution
from .state import FowlerState

#: Residual tolerance for the coupling / equilibrium root (both equations).
ROOT_RESIDUAL_TOL = 1e-12
#: Total iteration cap for bisection plus Newton polish.
ROOT_ITERATION_CAP = 200
#: Search interval for the component ratio s = l/k.
RATIO_BRACKET = (1e-8, 1e8)
#: Bisection steps taken before switching to Newton.
BISECTION_STEPS = 60
#: Log-grid resolution used to hunt for a sign change when the bracket
#: endpoints agree in sign.
_SCAN_POINTS = 512
#: Scale of the standard member of the entire family (apex at t = 0).
STANDARD_EPS = 1.0


@dataclass(frozen=True)
class SystemParams:
    """Dimension, coefficients, and everything derived from them.

    delta = (N-2)/2, p = N/(N-2) = 2*/2, two_star = 2p.  lam holds the
    amplitude bounds (p*delta^2/mu_i)^(1/(2p-2)) valid for any global
    positive orbit; lam_star the local-minimum bounds with p replaced by 1.
    """

    N: int
    mu1: float
    mu2: float
    beta: float
    delta: float
    p: float
    two_star: float
    sphere_area: float
    lam: tuple[float, float]
    lam_star: tuple[float, float]


@dataclass(frozen=True)
class CouplingSolution:
    """Positive amplitude pair (k, l) with the defect of both equations."""

    k: float
    l: float
    residuals: tuple[float, float]


def _exponents(N) -> tuple[float, float, float, float]:
    """(delta, p, two_star, sphere_area) of the dimension N.

    The one dimension check, shared by every function of N: DomainError
    unless N is an integer >= 3 whose sphere area is finite (it overflows
    from N = 344).
    """
    if N % 1 != 0:  # also inf and nan, which a sweep config can hold
        raise DomainError(f"dimension N must be an integer, got {N!r}")
    N = int(N)
    if N < 3:
        raise DomainError(f"dimension N must be >= 3, got {N}")
    delta = (N - 2) / 2.0
    p = N / (N - 2.0)
    try:
        # Closed Gamma-function formula for the area of the unit sphere in R^N.
        sphere_area = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    except OverflowError:
        raise DomainError(f"dimension N={N} overflows the sphere area") from None
    return delta, p, 2.0 * p, sphere_area


def make_params(N: int, mu1: float, mu2: float, beta: float) -> SystemParams:
    """Validate the inputs and populate every derived field.

    Raises DomainError unless N passes _exponents and mu1, mu2, beta > 0.
    """
    delta, p, two_star, sphere_area = _exponents(N)
    N = int(N)
    for name, value in (("mu1", mu1), ("mu2", mu2), ("beta", beta)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"coefficient {name} must be positive, got {value!r}")

    try:  # lam overflows from N = 288 at mu = 1, earlier for small mu
        q = 1.0 / (2.0 * p - 2.0)
        d2 = delta * delta
        lam = ((p * d2 / mu1) ** q, (p * d2 / mu2) ** q)
        lam_star = ((d2 / mu1) ** q, (d2 / mu2) ** q)
    except OverflowError:
        raise DomainError(f"N={N}, mu1={mu1!r}, mu2={mu2!r} overflow a derived constant") from None
    return SystemParams(
        N=N,
        mu1=float(mu1),
        mu2=float(mu2),
        beta=float(beta),
        delta=delta,
        p=p,
        two_star=two_star,
        sphere_area=sphere_area,
        lam=lam,
        lam_star=lam_star,
    )


def _ratio_g(params: SystemParams, s: float) -> float:
    # g(s) = mu2 s^(2p-2) + beta s^(p-2) - beta s^p - mu1; roots are the
    # admissible component ratios s = l/k (independent of the common
    # right-hand side of the two amplitude equations).
    p = params.p
    return (
        params.mu2 * s ** (2.0 * p - 2.0)
        + params.beta * s ** (p - 2.0)
        - params.beta * s**p
        - params.mu1
    )


def _ratio_g_prime(params: SystemParams, s: float) -> float:
    p = params.p
    return (
        (2.0 * p - 2.0) * params.mu2 * s ** (2.0 * p - 3.0)
        + (p - 2.0) * params.beta * s ** (p - 3.0)
        - p * params.beta * s ** (p - 1.0)
    )


def _find_ratio_bracket(params: SystemParams) -> tuple[float, float]:
    # A genuine root requires a strict sign change: tangential zeros (the
    # reduced function touching zero by roundoff) occur exactly at the
    # degenerate boundary where one amplitude collapses to zero, which is
    # not an admissible positive pair.
    lo, hi = RATIO_BRACKET
    g_lo = _ratio_g(params, lo)
    g_hi = _ratio_g(params, hi)
    if g_lo * g_hi < 0.0:
        return lo, hi
    # Endpoints agree in sign (possible for N = 4): hunt on a log grid.
    grid = [lo * (hi / lo) ** (i / (_SCAN_POINTS - 1)) for i in range(_SCAN_POINTS)]
    prev_s, prev_g = grid[0], g_lo
    for s in grid[1:]:
        g = _ratio_g(params, s)
        if g == 0.0:
            continue
        if prev_g * g < 0.0:
            return prev_s, s
        prev_s, prev_g = s, g
    raise NoPositiveSolution(
        f"no positive component ratio for N={params.N}, mu=({params.mu1}, "
        f"{params.mu2}), beta={params.beta}"
    )


def _positive_ratio_root(params: SystemParams) -> float:
    """Root of the reduced ratio equation: bracket, bisect, Newton polish."""
    if params.mu1 == params.mu2:
        # Symmetric coefficients force the symmetric ratio; the reduced
        # equation can vanish identically for N = 4, so skip the search.
        return 1.0
    if params.p == 2.0:
        # N = 4: the powers coincide and the equation is exactly quadratic,
        # s^2 = (mu1 - beta)/(mu2 - beta).  Existence genuinely fails when
        # beta lies between the coefficients (the would-be solution has one
        # amplitude collapsing to zero).
        num = params.mu1 - params.beta
        den = params.mu2 - params.beta
        if num == 0.0 or den == 0.0 or (num > 0.0) != (den > 0.0):
            raise NoPositiveSolution(
                f"N=4 with beta={params.beta} between mu1={params.mu1} and "
                f"mu2={params.mu2} admits no positive amplitude pair"
            )
        return math.sqrt(num / den)
    lo, hi = _find_ratio_bracket(params)
    g_lo = _ratio_g(params, lo)
    iterations = 0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = _ratio_g(params, mid)
        iterations += 1
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    s = 0.5 * (lo + hi)
    while iterations < ROOT_ITERATION_CAP:
        g = _ratio_g(params, s)
        gp = _ratio_g_prime(params, s)
        if gp == 0.0:
            break
        step = g / gp
        s_new = s - step
        if not (lo <= s_new <= hi):
            s_new = 0.5 * (lo + hi)
        iterations += 1
        if s_new == s:
            break
        s = s_new
        if abs(step) < 1e-17 * max(1.0, abs(s)):
            break
    return s


def _amplitudes_for_ratio(params: SystemParams, s: float, rhs_value: float) -> tuple[float, float]:
    # First amplitude from  a1^(2p-2) * (mu1 + beta s^p) = rhs_value.
    a1 = (rhs_value / (params.mu1 + params.beta * s**params.p)) ** (
        1.0 / (2.0 * params.p - 2.0)
    )
    return a1, s * a1


def _amplitude_residuals(
    params: SystemParams, a1: float, a2: float, rhs_value: float
) -> tuple[float, float]:
    p = params.p
    r1 = params.mu1 * a1 ** (2.0 * p - 2.0) + params.beta * a1 ** (p - 2.0) * a2**p - rhs_value
    r2 = params.mu2 * a2 ** (2.0 * p - 2.0) + params.beta * a2 ** (p - 2.0) * a1**p - rhs_value
    return r1, r2


def _solve_amplitude_system(params: SystemParams, rhs_value: float) -> tuple[float, float, tuple[float, float]]:
    s = _positive_ratio_root(params)
    a1, a2 = _amplitudes_for_ratio(params, s, rhs_value)
    res = _amplitude_residuals(params, a1, a2, rhs_value)
    if max(abs(res[0]), abs(res[1])) > ROOT_RESIDUAL_TOL * max(1.0, rhs_value):
        raise ConvergenceFailure(
            f"amplitude system residuals {res} exceed {ROOT_RESIDUAL_TOL}"
        )
    return a1, a2, res


def solve_coupling(params: SystemParams) -> CouplingSolution:
    """Positive pair (k, l) scaling the shared entire profile.

    Reduces the two amplitude equations to a scalar equation in the ratio
    s = l/k, brackets a root on RATIO_BRACKET by sign change, bisects, and
    polishes by Newton.  Raises NoPositiveSolution when no bracket exists
    (possible for N = 4 with beta between mu1 and mu2) and
    ConvergenceFailure if the residual tolerance is missed.
    """
    k, l, res = _solve_amplitude_system(params, 1.0)
    return CouplingSolution(k=k, l=l, residuals=res)


def cylinder_amplitudes(params: SystemParams) -> tuple[float, float]:
    """Positive constants (C1, C2) of the constant equilibrium orbit.

    Same ratio reduction as solve_coupling with right-hand side delta^2.
    """
    d2 = params.delta**2
    c1, c2, _ = _solve_amplitude_system(params, d2)
    return c1, c2


def cylinder_state(params: SystemParams) -> tuple[FowlerState, float]:
    """Constant phase point of the system and its conserved energy.

    The energy of the constant orbit is -(delta^2/N) * (C1^2 + C2^2) < 0.
    """
    c1, c2 = cylinder_amplitudes(params)
    energy = -(params.delta**2 / params.N) * (c1 * c1 + c2 * c2)
    return FowlerState(t=0.0, w1=c1, w2=c2, dw1=0.0, dw2=0.0), energy


def bubble_amplitude(N: int) -> float:
    """Prefactor [N(N-2)]^((N-2)/4) of the standard entire profile.

    DomainError unless N passes _exponents and the prefactor is finite (it
    overflows from N = 258).
    """
    _exponents(N)
    try:
        return (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
    except OverflowError:
        raise DomainError(f"dimension N={N} overflows the bubble prefactor") from None


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:  # NaN too
        raise DomainError(f"eps must be positive and finite, got {eps!r}")


def scalar_bubble_radial(N: int, eps: float, r: float) -> float:
    """U(r) = [N(N-2)]^((N-2)/4) * (eps / (eps^2 + r^2))^((N-2)/2)."""
    _require_eps(eps)
    if not 0.0 <= r < math.inf:  # NaN too
        raise DomainError(f"radius must be nonnegative and finite, got {r!r}")
    delta = _exponents(N)[0]
    return bubble_amplitude(N) * (eps / (eps * eps + r * r)) ** delta


def bubble_radial(params: SystemParams, eps: float, r: float) -> tuple[float, float]:
    """The radial entire solution pair (k U(r), l U(r)) centred at the origin."""
    coupling = solve_coupling(params)
    u = scalar_bubble_radial(params.N, eps, r)
    return coupling.k * u, coupling.l * u


def bubble_fowler(params: SystemParams, eps: float, t: float) -> FowlerState:
    """Phase point of the entire family in the logarithmic variable.

    The scaled profile is W(t) = [N(N-2)]^(delta/2) * (2 cosh(t + ln eps))^(-delta),
    a homoclinic orbit with zero conserved energy; components are (k W, l W).
    """
    _require_eps(eps)
    coupling = solve_coupling(params)
    delta = params.delta
    tau = t + math.log(eps)
    w = bubble_amplitude(params.N) * (2.0 * math.cosh(tau)) ** (-delta)
    dw = -delta * math.tanh(tau) * w
    return FowlerState(
        t=float(t),
        w1=coupling.k * w,
        w2=coupling.l * w,
        dw1=coupling.k * dw,
        dw2=coupling.l * dw,
    )
