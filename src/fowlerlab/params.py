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


def _event_root(crossed, ta, tb):
    """First float from ta toward tb at which crossed(t) holds, by bisection
    down to adjacent floats; crossed(ta) is false and crossed(tb) true."""
    while True:
        tm = 0.5 * (ta + tb)
        if tm == ta or tm == tb:
            return tb
        if crossed(tm):
            tb = tm
        else:
            ta = tm


def _exp_sum(terms, x: float) -> float:
    # sum c e^(e x) over its largest exponential, so that none overflows.
    top = max(e * x for e, _ in terms)
    return sum(c * math.exp(e * x - top) for e, c in terms)


def _power_sum(terms, s: float) -> float:
    # sum c s^e over its largest power, so that none overflows.
    top = terms[-1][0] if s > 1.0 else terms[0][0]
    return sum(c * s ** (e - top) for e, c in terms)


def _root_pieces(terms) -> list[tuple[float, float, float]]:
    """(a, b, sign) in x for each real root of sum c e^(e x), sorted, terms
    (e, c) by rising e: the sum has the sign at a and not at b.

    By Rolle the roots of the next level, the derivative of e^(-e0 x) times
    the sum (the other terms, each times e - e0), cut the line into pieces
    on which the sum is monotone; a piece whose ends differ in sign holds
    one root.  The outer ends step out until each has its dominant term's
    sign.  Two terms have one root at most, in closed form.
    """
    (e0, c0), (e1, c1) = terms[:2]
    if len(terms) == 2:
        if (c0 > 0.0) == (c1 > 0.0):
            return []
        x = (math.log(abs(c0)) - math.log(abs(c1))) / (e1 - e0)
        return [(x, x, 1.0)]
    level = [(e, c * (e - e0)) for e, c in terms[1:]]
    cuts = [_event_root(lambda x: sign * _exp_sum(level, x) <= 0.0, a, b)
            for a, b, sign in _root_pieces(level)] or [0.0]
    first, last, step = math.copysign(1.0, c0), math.copysign(1.0, terms[-1][1]), 1.0
    while (first * _exp_sum(terms, cuts[0] - step) <= 0.0
           or last * _exp_sum(terms, cuts[-1] + step) <= 0.0):
        step *= 2.0
    xs = [cuts[0] - step, *cuts, cuts[-1] + step]
    fs = [_exp_sum(terms, x) for x in xs]
    # A cut where the sum is zero is a multiple root, and a piece of its own.
    return [(a, a if fa == 0.0 else b, math.copysign(1.0, fa))
            for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])
            if fa == 0.0 or math.copysign(1.0, fa) * fb < 0.0]


def _ratio_roots(params: SystemParams) -> list[float]:
    """Every positive root of g(s) = mu2 s^(2p-2) + beta s^(p-2) - beta s^p
    - mu1, sorted, for N != 4: the component ratios s = l/k of the pairs,
    whatever the right-hand side of the two amplitude equations.

    g is a sum of four powers whose coefficients change sign three times by
    rising exponent, so by Laguerre's rule of signs it has at most three
    positive roots, and its ends differ in sign: there are one or three.
    They are isolated in x = ln s (_root_pieces) and bisected in s, where
    each power is rounded once.
    """
    p = params.p
    terms = sorted([(2.0 * p - 2.0, params.mu2), (p - 2.0, params.beta),
                    (p, -params.beta), (0.0, -params.mu1)])
    return [_event_root(lambda s: sign * _power_sum(terms, s) <= 0.0, math.exp(a), math.exp(b))
            for a, b, sign in _root_pieces(terms)]


def _pair_ratio(params: SystemParams) -> float:
    """Ratio s = l/k of the pair returned: the root of g nearest 1 in |ln s|."""
    if params.mu1 == params.mu2:
        # s = 1 is then a root, and the nearest one.  It is not bisected:
        # in floats g(1.0) is not always 0.0, and at N = 4 with beta = mu
        # g vanishes identically.
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
    return min(_ratio_roots(params), key=lambda s: abs(math.log(s)))


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
    try:
        s = _pair_ratio(params)
        a1, a2 = _amplitudes_for_ratio(params, s, rhs_value)
        res = _amplitude_residuals(params, a1, a2, rhs_value)
        if not all(map(math.isfinite, (a1, a2, *res))):
            raise OverflowError  # a float product overflows silently, a power raises
    except (OverflowError, ZeroDivisionError):  # 0.0 to a negative power
        raise DomainError(f"N={params.N}, mu=({params.mu1!r}, {params.mu2!r}), beta="
                          f"{params.beta!r} put the amplitude pair out of float range") from None
    if max(abs(res[0]), abs(res[1])) > ROOT_RESIDUAL_TOL * max(1.0, rhs_value):
        raise ConvergenceFailure(
            f"amplitude system residuals {res} exceed {ROOT_RESIDUAL_TOL}"
        )
    return a1, a2, res


def solve_coupling(params: SystemParams) -> CouplingSolution:
    """Positive pair (k, l) scaling the shared entire profile.

    Reduces the two amplitude equations to a scalar equation g(s) = 0 in
    the ratio s = l/k, which has one or three positive roots for N != 4
    (_ratio_roots), each a pair; the pair returned is the one whose ratio
    is nearest 1 in |ln s|, so s = 1 when mu1 == mu2.  N = 4 is solved in
    closed form.  Raises NoPositiveSolution when N = 4 and beta lies
    between mu1 and mu2 (no positive pair exists), DomainError when the
    pair is out of float range, and ConvergenceFailure if the residual
    tolerance is missed.
    """
    k, l, res = _solve_amplitude_system(params, 1.0)
    return CouplingSolution(k=k, l=l, residuals=res)


def cylinder_amplitudes(params: SystemParams) -> tuple[float, float]:
    """Positive constants (C1, C2) of the constant equilibrium orbit.

    Same ratio reduction, and the same choice of pair (the ratio nearest 1
    in |ln s|), as solve_coupling, with right-hand side delta^2.
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
    dw = 0.0 - delta * math.tanh(tau) * w  # +0.0 at the apex, not -0.0
    return FowlerState(
        t=float(t),
        w1=coupling.k * w,
        w2=coupling.l * w,
        dw1=coupling.k * dw,
        dw2=coupling.l * dw,
    )
