"""The vector field and the adaptive integrator with dense output and event
detection, in the logarithmic radial variables of fowlerlab.invariants.

The field is the signed continuous extension |w|^(q-1) w of the
positive-cone powers; positivity-constrained runs terminate at
POSITIVITY_FLOOR instead of crossing zero (the field is not Lipschitz at
w = 0 when N >= 5).  Its one text is _CONE, which _stage_field extends to
every sign, on the system's constants (_cone): the body of _make_field and
of every stage of solve_ivp, both rendered at import from one template.

Integration uses the package's own DOP853 pair (Dormand-Prince 8(5,3),
Hairer-Norsett-Wanner II.5 and II.10) in both time directions from the
initial point.  The step loop is scalar Python on the four state
components; its trial step is written out from one table of coefficients
(_TABLEAU), in Nystrom form (Hairer-Norsett-Wanner II.14, _nystrom_weights),
since the field does not depend on w'.

Dense output is a per-step degree-9 Hermite in the node values of w and
its first four derivatives: w'' is the step loop's acceleration there, and
the third and fourth come from the field's Jacobian and Hessian
(_field_jet).  A step on which a component changes sign or touches zero,
where the field is not smooth, or whose derivative data are not finite
keeps the quintic Hermite in (w, w', w'').  That rule lives in
_step_polynomials on floats and in Trajectory._interpolant on arrays.
Every event is located on one step's float polynomial by one bisection
(_event_root), and its state is read on the same coefficients, so no event
builds the interpolant: a terminal event on the step that crosses it, a
sign change of a signed orbit on the step between two nodes of opposite
signs, or at a node exactly zero between them (_bracketed_zeros).  sample
takes arrays of times, and its derivative rows go only as far as the
caller's count.  A loaded trajectory rebuilds the accelerations with the
field at its nodes, so sampling is bit-identical after a serialization
round trip.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .invariants import psi_arrays
from .params import SystemParams, _event_root
from .state import FowlerState

#: Certification bound: max |Psi - Psi(0)| <= factor * max(1, |Psi(0)|).
DRIFT_CERT_FACTOR = 1e-8
#: Positive-mode runs stop where a component falls to this floor, short of
#: w = 0, where the field is not Lipschitz for N >= 5.
POSITIVITY_FLOOR = 1e-14

_EVENT_ORDER = {"SignChange": 0, "PositivityLoss": 1, "BlowUp": 2}


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances, window, and event thresholds for a single integration.

    The tolerances bound DOP853's error norm on each step (solve_ivp).
    max_step defaults to 1 so near-equilibrium orbits keep a dense node
    grid instead of taking window-sized steps whose stage arithmetic
    amplifies rounding: at the N = 5 cylinder the nodes stay within 3e-15
    of the constant orbit, against 3e-13 with steps as long as the window.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_span: tuple[float, float] = (-30.0, 30.0)
    max_step: float = 1.0
    blowup_threshold: float = 1e3

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            # An infinite tolerance checks no step, and 0 * inf makes it NaN.
            raise DomainError(f"tolerances must be positive and finite, got rel_tol "
                              f"{self.rel_tol!r}, abs_tol {self.abs_tol!r}")
        if not all(math.isfinite(end) for end in self.t_span):
            # The step loop would never reach an infinite end.
            raise DomainError(f"t_span ends must be finite, got {self.t_span!r}")
        if not self.t_span[0] < self.t_span[1]:
            raise DomainError(f"degenerate t_span {self.t_span!r}")
        if not self.max_step > 0.0:  # NaN too: it would lift the step bound
            raise DomainError(f"max_step must be positive, got {self.max_step!r}")
        if not 0.0 < self.blowup_threshold < math.inf:  # an artifact cannot hold inf
            raise DomainError(
                f"blowup_threshold must be positive and finite, got {self.blowup_threshold!r}"
            )


@dataclass(frozen=True)
class Event:
    """A located orbit event; t is bisected to adjacent floats (_event_root)."""

    kind: str
    t: float
    state: FowlerState
    component: int | None = None

    def sort_key(self):
        return (self.t, self.component or 0, _EVENT_ORDER.get(self.kind, 9))


def _cone(params: SystemParams) -> tuple[float, ...]:
    """The field's constants (d2, mu1, mu2, beta, p, p1, q1): delta^2, the
    couplings, p, p - 1 and 2p - 1, by the names _CONE and _field_jet use."""
    p = params.p
    return (params.delta**2, params.mu1, params.mu2, params.beta, p, p - 1.0, 2.0 * p - 1.0)


def _field_jet(cone, mu, x, y, vx, vy, ax, ay):
    """(x''', x''''), the third and fourth derivatives of component x along
    the orbit: J(w) w' and J(w) w'' + H(w)[w', w'] for the row of the
    signed field with self-coupling mu, whose other component is y; cone is
    the field's constants (_cone).

    Works on floats and, elementwise, on arrays (x and y the two rows, mu a
    column).  |x|^(p-2) is unbounded at x = 0 when p < 2, and its second
    derivative has a 1/|x| factor at every p: off x = 0 only.
    """
    d2, _, _, beta, p, p1, q1 = cone
    mx, my = abs(x), abs(y)
    px, py = mx ** (p - 2.0), my ** (p - 2.0)
    sx, sy = px * x, py * y  # |x|^(p-1) sgn x and |y|^(p-1) sgn y
    yp = py * my * my  # |y|^p
    gx = d2 - mu * q1 * (px * mx) ** 2 - beta * p1 * yp * px
    gy = -beta * p * sy * sx
    gxx = -(mu * q1 * (q1 - 1.0) * px * sx + beta * p1 * (p1 - 1.0) * yp * sx / (mx * mx))
    gxy = -beta * p * p1 * sy * px
    gyy = -beta * p * (p - 1.0) * py * sx
    return (gx * vx + gy * vy,
            gx * ax + gy * ay + gxx * vx * vx + 2.0 * gxy * vx * vy + gyy * vy * vy)


def _quintic(y0, y1, d0, d1, a0, a1, h):
    """Quintic Hermite coefficients (c0, ..., c5) in s = (tau - t0) / h.

    Matches value y, first derivative d, and second derivative a at both
    ends of a step of signed length h; works on floats and, elementwise, on
    arrays of steps.
    """
    d0, d1 = d0 * h, d1 * h
    a0, a1 = a0 * h * h, a1 * h * h
    r1 = y1 - y0 - d0 - 0.5 * a0
    r2 = d1 - d0 - a0
    r3 = a1 - a0
    return (
        y0,
        d0,
        0.5 * a0,
        10.0 * r1 - 4.0 * r2 + 0.5 * r3,
        -15.0 * r1 + 7.0 * r2 - r3,
        6.0 * r1 - 3.0 * r2 + 0.5 * r3,
    )


def _hermite9(y0, y1, d0, d1, a0, a1, j0, j1, k0, k1, h):
    """Degree-9 Hermite coefficients (c0, ..., c9) in s = (tau - t0) / h.

    Matches value y and derivatives d, a, j, k of orders 1 to 4 at both
    ends of a step of signed length h; works on floats and, elementwise, on
    arrays of steps.  Powers of h are products, so a step and its mirror
    image (h, d, j negated) give the same coefficients.
    """
    hh = h * h
    d0, d1 = d0 * h, d1 * h
    a0, a1 = a0 * hh, a1 * hh
    j0, j1 = j0 * (hh * h), j1 * (hh * h)
    k0, k1 = k0 * (hh * hh), k1 * (hh * hh)
    c2, c3, c4 = 0.5 * a0, j0 / 6.0, k0 / 24.0
    r0 = y1 - (y0 + d0 + c2 + c3 + c4)
    r1 = d1 - (d0 + a0 + 0.5 * j0 + k0 / 6.0)
    r2 = a1 - (a0 + j0 + 0.5 * k0)
    r3 = j1 - (j0 + k0)
    r4 = k1 - k0
    return (
        y0, d0, c2, c3, c4,
        126.0 * r0 - 56.0 * r1 + 10.5 * r2 - r3 + r4 / 24.0,
        -420.0 * r0 + 196.0 * r1 - 38.5 * r2 + 23.0 * r3 / 6.0 - r4 / 6.0,
        540.0 * r0 - 260.0 * r1 + 53.0 * r2 - 5.5 * r3 + 0.25 * r4,
        -315.0 * r0 + 155.0 * r1 - 32.5 * r2 + 3.5 * r3 - r4 / 6.0,
        70.0 * r0 - 35.0 * r1 + 7.5 * r2 - 5.0 * r3 / 6.0 + r4 / 24.0,
    )


def _keeps_signs(w1, w2, z1, z2):
    """Whether both components keep one strict sign from node values
    (w1, w2) to (z1, z2), the condition for the degree-9 Hermite on a step;
    on floats and, elementwise, on arrays of steps."""
    return (w1 * z1 > 0.0) & (w2 * z2 > 0.0)


def _step_polynomials(cone, old, new, h):
    """The two components' coefficients on one step, from the node data old
    and new, each (w1, w2, w1', w2', w1'', w2'') as floats: degree 9 where
    the field's jet (_field_jet, cone its constants) applies, else the
    quintic (_quintic).

    The quintic is kept where a component changes sign or touches zero over
    the step (the solution is not smooth there; _keeps_signs), and where
    the jet or the degree-9 coefficients are not finite.
    """
    w1, w2, v1, v2, a1, a2 = old
    z1, z2, u1, u2, b1, b2 = new
    if _keeps_signs(w1, w2, z1, z2):
        try:
            j1, k1 = _field_jet(cone, cone[1], w1, w2, v1, v2, a1, a2)
            j2, k2 = _field_jet(cone, cone[2], w2, w1, v2, v1, a2, a1)
            i1, l1 = _field_jet(cone, cone[1], z1, z2, u1, u2, b1, b2)
            i2, l2 = _field_jet(cone, cone[2], z2, z1, u2, u1, b2, b1)
        except (OverflowError, ZeroDivisionError):
            pass
        else:
            c1 = _hermite9(w1, z1, v1, u1, a1, b1, j1, i1, k1, l1, h)
            c2 = _hermite9(w2, z2, v2, u2, a2, b2, j2, i2, k2, l2, h)
            if all(map(math.isfinite, c1 + c2)):
                return c1, c2
    return _quintic(w1, z1, v1, u1, a1, b1, h), _quintic(w2, z2, v2, u2, a2, b2, h)


def _poly_value(c, s):
    """Horner's value of the polynomial with coefficients c (lowest first)."""
    val = c[-1]
    for ck in c[-2::-1]:
        val = val * s + ck
    return val


def _poly_derivative(c, s, order=1):
    """d^order/ds^order of the polynomial, order >= 1, by Horner on the
    coefficients k!/(k - order)! c[k]; divide by h**order for the derivative
    in tau."""
    top = len(c) - 1
    dv = float(math.perm(top, order)) * c[top]
    for k in range(top - 1, order - 1, -1):
        dv = dv * s + float(math.perm(k, order)) * c[k]
    return dv


@dataclass
class Trajectory:
    """Dense-output integration result with events and invariant logs.

    Nodes are the accepted integrator steps, strictly increasing in t, each
    carrying the conserved energy; drift is max |psi - psi0| over nodes.
    """

    params: SystemParams
    settings: IntegratorSettings
    mode: str
    t: np.ndarray
    y: np.ndarray  # shape (4, n): w1, w2, w1', w2'
    psi: np.ndarray
    events: tuple[Event, ...]
    psi0: float
    drift: float
    t_initial: float
    failure: str | None = None
    #: Node accelerations (w1'', w2''), shape (2, n): the step loop's own
    #: field values; rebuilt from the field at the nodes when absent.
    acc: np.ndarray | None = field(default=None, repr=False, compare=False)
    _coeffs: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def certified(self) -> bool:
        """Completed without step failure and drift within the energy budget."""
        return self.failure is None and self.drift <= DRIFT_CERT_FACTOR * max(
            1.0, abs(self.psi0)
        )

    def _node_accelerations(self) -> np.ndarray:
        """acc, rebuilt from the field at the nodes when absent (loaded or
        built by hand): what the step loop computed there, bit for bit."""
        if self.acc is None:
            fun = _make_field(self.params)
            self.acc = np.array(list(map(fun, self.y[0].tolist(), self.y[1].tolist()))).T
        return self.acc

    def _interpolant(self):
        """Per component a (10, n - 1) array of step coefficients, one
        contiguous row per coefficient, gathered row by row in sample; and
        the steps h.  _step_polynomials's rule on every step, on arrays,
        the quintic padded with zeros.  Built on the first sample, then kept.
        """
        if self._coeffs is None:
            cone = _cone(self.params)
            h = np.diff(self.t)
            w, v, a = self.y[:2], self.y[2:], self._node_accelerations()
            # Both components at once: row i's other component is row 1 - i.
            mu = np.array([[cone[1]], [cone[2]]])
            with np.errstate(all="ignore"):
                jet, snap = _field_jet(cone, mu, w, w[::-1], v, v[::-1], a, a[::-1])
                coeffs = np.array(_hermite9(w[:, :-1], w[:, 1:], v[:, :-1], v[:, 1:], a[:, :-1],
                                            a[:, 1:], jet[:, :-1], jet[:, 1:], snap[:, :-1],
                                            snap[:, 1:], h))
                rough = ~(_keeps_signs(w[0, :-1], w[1, :-1], w[0, 1:], w[1, 1:])
                          & np.isfinite(coeffs).all(axis=(0, 1)))
            if rough.any():
                k = np.flatnonzero(rough)
                coeffs[:6, :, k] = _quintic(w[:, k], w[:, k + 1], v[:, k], v[:, k + 1], a[:, k],
                                            a[:, k + 1], h[k])
                coeffs[6:, :, k] = 0.0
            self._coeffs = (coeffs[:, 0], coeffs[:, 1], h)
        return self._coeffs

    def sample(self, tq, *, derivatives: int = 1) -> np.ndarray:
        """Dense rows at query times within cover: (w1, w2), then the two
        rows of each derivative order up to derivatives (0, 1 or 2), so
        (w1, w2, w1', w2') by default and (w1, ..., w1'', w2'') at 2.

        A time outside the cover takes the nearest step's polynomial.  The
        rows of each order are the same floats whatever the count.
        """
        rows = 2 * (derivatives + 1)
        if len(self.t) < 2:
            # Degenerate single-node trajectory (e.g. immediate blow-up).
            node = np.concatenate([self.y, self._node_accelerations()])
            return np.tile(node[:rows, :1], (1, np.size(tq)))
        c1, c2, h = self._interpolant()
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        idx = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(h) - 1)
        hq = h[idx]
        s = (tq - self.t[idx]) / hq
        out = np.empty((rows, len(tq)))
        for row, c in ((0, c1), (1, c2)):
            cc = [ck[idx] for ck in c]
            out[row] = _poly_value(cc, s)
            scale = 1.0
            for order in range(1, derivatives + 1):
                scale *= hq
                out[row + 2 * order] = _poly_derivative(cc, s, order) / scale
        return out


#: Step-size controller of the Dormand-Prince pair (Hairer-Norsett-Wanner
#: II.4): safety factor, bounds on the step change, and the exponent
#: -1/(q+1) for the error estimator of order q = 7.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0

#: The DOP853 pair (Hairer-Norsett-Wanner II.5 and II.10, as scipy's DOP853
#: holds it): stage rows A, row j combining stages 0..j-1; the eighth-order
#: weights B; and the error weights E5 and E3, eighth- minus embedded fifth-
#: and third-order, on the twelve stages (the field at the new node, the
#: thirteenth, weighs zero in both).
_TABLEAU = (
    ((),
     (0.05260015195876773,),
     (0.0197250569845379, 0.0591751709536137),
     (0.02958758547680685, 0.0, 0.08876275643042054),
     (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
     (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
     (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
     (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
      -0.015319437748624402, 0.008273789163814023),
     (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
      27.59209969944671, 20.154067550477894, -43.48988418106996),
     (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
      21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
     (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
      -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
      -3.0467644718982196),
     (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
      -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
      12.360567175794303, 0.6433927460157636)),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294),
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082),
)
#: The field's accelerations (b1, b2) at a point (x, y) of the open positive
#: cone, in two powers per component, P = w**p1 and X = P w = w**p: the one
#: text of the field, which _stage_field extends to every sign.
_CONE = ("P1 = {x}**p1",
         "X1 = P1 * {x}",
         "P2 = {y}**p1",
         "X2 = P2 * {y}",
         "{b1} = d2 * {x} - (mu1 * X1 + beta * X2) * P1",
         "{b2} = d2 * {y} - (mu2 * X2 + beta * X1) * P2")


def _rms(x1, x2, x3, x4):
    return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4) / 2.0


def _error_norm(err5, err3):
    """DOP853's error norm (Hairer-Norsett-Wanner II.10, as scipy's DOP853
    computes it) from the sums of squares err5 and err3 of the four error
    rows, E5 and E3 over the stages, each times h and over its tolerance
    scale: err5 / sqrt(4 (err5 + 0.01 err3)).

    0.0 when the denominator is zero: err5 is zero then, and err3 zero or so
    small that 0.01 err3 underflows.  Scaling a row by h before the
    tolerance keeps it finite on a small step where the row alone, over a
    tiny atol, would not be; rows that still overflow, and a NaN, give inf,
    a rejected step.
    """
    denom = math.sqrt(4.0 * (err5 + 0.01 * err3))
    if denom == 0.0:
        return 0.0
    return err5 / denom if denom < math.inf else math.inf


def _initial_step(field, y, f, direction, span, max_step, rtol, atol):
    """Starting step from the field's size and change (Hairer-Norsett-Wanner
    II.4), for an error estimator of order 7."""
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = _rms(*(yi / si for yi, si in zip(y, scale)))
    d1 = _rms(*(fi / si for fi, si in zip(f, scale)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if h0 == 0.0:
        # Underflowed (a tiny atol against a large field): the step loop
        # raises it to its minimum step.
        return 0.0
    y1 = [yi + h0 * direction * fi for yi, fi in zip(y, f)]
    f1 = (y1[2], y1[3], *field(y1[0], y1[1]))
    d2 = _rms(*((b - a) / si for a, b, si in zip(f, f1, scale))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span, max_step)


@dataclass
class Segment:
    """One direction of an integration: accepted nodes t (n,) and y (4, n),
    the field's accelerations (w1'', w2'') at the nodes acc (2, n), stage
    field evaluations nfev (counted as scipy counts them; the evaluation at
    a located event node is not a stage), status 0 (reached t_bound),
    1 (terminal event, located at the last node, or a stop predicate's
    label), or -1 (step size underflow), and h, the step size the
    controller proposed after the last node.

    A segment stopped by its predicate resumes from its last node with
    solve_ivp(..., h=seg.h) toward the same t_bound: the chunks' nodes,
    acc, status and event are the uninterrupted run's, bit for bit, and
    their nfev sum to its nfev."""

    t: np.ndarray
    y: np.ndarray
    acc: np.ndarray
    nfev: int
    status: int
    event: tuple[str, int | None] | None = None
    h: float = math.nan


def _stage_field(x: str, y: str, b1: str, b2: str) -> list[str]:
    """Lines that set b1, b2 to the field at (x, y): the body of _make_field,
    and of each stage point and new node of solve_ivp's trial step.

    _CONE on the open positive cone; elsewhere _CONE on the magnitudes
    m1, m2 = |x|, |y|, each component whose w is negative negated as
    0.0 - b.  Rounding to nearest is sign-symmetric, so this is the signed
    formula |w|^(q-1) w; 0.0 - b, not -b, keeps the +0.0 that formula gives
    where the terms cancel exactly.  A power that overflows raises
    OverflowError.
    """
    def cone(x, y):
        return ["    " + line.format(x=x, y=y, b1=b1, b2=b2) for line in _CONE]

    return [f"if {x} > 0.0 and {y} > 0.0:",
            *cone(x, y),
            "else:",
            f"    m1 = abs({x})",
            f"    m2 = abs({y})",
            *cone("m1", "m2"),
            f"    if {x} < 0.0:",
            f"        {b1} = 0.0 - {b1}",
            f"    if {y} < 0.0:",
            f"        {b2} = 0.0 - {b2}"]


def _nystrom_weights():
    """DOP853's weights in Nystrom form (Hairer-Norsett-Wanner II.14), for
    w'' = f(w), each rounded once from its exact value, computed in Fraction
    arithmetic on the float literals of _TABLEAU:

    - c, the nodes A . 1, and Abar = A . A, stage k's position being
      w + h (c[k] v + h sum_m Abar[k][m] b_m);
    - BA = B . A, the new node's w + h (v + h sum_m BA[m] b_m);
    - E5A and E3A, E5 . A and E3 . A, the position error rows'
      h^2 sum_m EA[m] b_m.

    The float literals meet DOP853's simplifying assumptions only to
    rounding; the exact values are taken: sum B = 1 and sum E5 = sum E3 = 0
    (the weights of v), and BA[m] = B[m] (1 - c[m]) = 0 where B[m] = 0.
    """
    A = [[Fraction(a) for a in row] for row in _TABLEAU[0]]
    B, E5, E3 = _TABLEAU[1:]

    def times_a(row):
        # The weight of each stage's acceleration b_m in sum_j row[j] V_j,
        # V_j = v + h sum_m A[j][m] b_m.
        out = [Fraction(0)] * len(B)
        for r, a_row in zip(row, A):
            if r:
                weight = Fraction(r)
                for m, a in enumerate(a_row):
                    if a:
                        out[m] += weight * a
        return out

    def rounded(row):
        return [float(x) for x in times_a(row)]

    c = [float(sum(row)) for row in A]
    ba = [0.0 if b == 0.0 else float(x) for b, x in zip(B, times_a(B))]
    return c, [rounded(row) for row in _TABLEAU[0]], ba, rounded(E5), rounded(E3)


def _combo(weights, names) -> str:
    """sum_k weights[k] * names[k] over the nonzero weights, as text: each
    weight the repr of its magnitude, its sign the operator."""
    text = "".join(f" {'-' if a < 0.0 else '+'} {abs(a)!r} * {name}"
                   for a, name in zip(weights, names) if a)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _fill(template: str, mark: str, lines: list[str]) -> str:
    """template with its line mark replaced by lines, at the mark's indent."""
    head, _, tail = template.partition(mark + "\n")
    indent = head[head.rindex("\n") + 1:]
    return head + ("\n" + indent).join(lines) + "\n" + tail


def _render_solve_ivp(template: str) -> str:
    """template with its <field> line written out as the field at (x, y)
    (_stage_field) and its <trial step> line from _TABLEAU and _CONE.

    The trial step is DOP853 in Nystrom form (_nystrom_weights): stages
    2-12 are each a position x1, x2 from the old node and the earlier
    stages' accelerations, then the field there (_stage_field), with no
    stage velocities; then the new node's position and velocity and the
    field there; then the error terms e1..e4 from E5 and f1..f4 from E3,
    the position rows times h * h and the velocity rows times h.  Every
    product is written so that h -> -h and v -> -v give the same floats
    (_mirror).
    """
    _, B, E5, E3 = _TABLEAU
    c, abar, ba, e5a, e3a = _nystrom_weights()
    last = len(B)  # the new node's stage

    def acc(i):
        # Component i's accelerations: the old node's, then the stages'.
        return [f"a{i}"] + [f"b{i}_{k + 1}" for k in range(1, last)]

    lines = []
    for k in range(1, last):
        for i in (1, 2):
            inner = f" + ({_combo(abar[k], acc(i))}) * h" if any(abar[k]) else ""
            lines.append(f"x{i} = w{i} + ({c[k]!r} * v{i}{inner}) * h")
        lines += _stage_field("x1", "x2", f"b1_{k + 1}", f"b2_{k + 1}")
    lines += [f"w{i}_new = w{i} + h * (v{i} + h * ({_combo(ba, acc(i))}))" for i in (1, 2)]
    lines += [f"v{i}_new = v{i} + h * ({_combo(B, acc(i))})" for i in (1, 2)]
    lines += _stage_field("w1_new", "w2_new", "a1_new", "a2_new")
    for e, E, EA in (("e", E5, e5a), ("f", E3, e3a)):
        lines += [f"{e}{i} = ({_combo(EA, acc(i))}) * h * h" for i in (1, 2)]
        lines += [f"{e}{i + 2} = ({_combo(E, acc(i))}) * h" for i in (1, 2)]
    template = _fill(template, "<field>", _stage_field("x", "y", "b1", "b2"))
    return _fill(template, "<trial step>", lines)


_SOLVE_IVP_TEMPLATE = '''\
def _make_field(params):
    """Scalar (w1, w2) -> (w1'', w2''): the field of the system params.

    The signed continuous extension |w|^(q-1) w of the positive-cone powers,
    from two powers per component: P = |w|^(p-1) and X = P |w| = |w|^p, so
    that mu1 |w1|^(2p-2) w1 is mu1 X1 P1 sgn w1 and beta |w2|^p |w1|^(p-2) w1
    is beta X2 P1 sgn w1.  Its body is _stage_field's lines at (x, y), which
    solve_ivp writes out at every stage point and new node too.
    """
    d2, mu1, mu2, beta, _, p1, _ = _cone(params)

    def field(x, y):
        <field>
        return b1, b2

    return field


def solve_ivp(params, t0, y0, t_bound, settings, mode, stop=None, h=None):
    """The package's own DOP853 solver for the field of the system params,
    from t0 toward t_bound.

    y0 is the four floats (w1, w2, w1', w2').  This source is rendered at
    import (_render_solve_ivp): its trial step is written out from _TABLEAU
    in Nystrom form, with the field's lines (_stage_field) at each stage
    point and new node; the field (_make_field) is called only at t0, in
    the initial-step estimate and at an event node.  The step-size control
    is that of Hairer-Norsett-Wanner II.4 and II.10 (as in scipy's DOP853):
    the combined error norm of _error_norm, its rows scaled by
    atol + rtol * max(|y|, |y_new|), no step growth right after a
    rejection, and failure once the step falls below 10 ulp(t); the first
    step of a fresh run from data at rest (both velocities zero) grows by
    the full factor.  A trial step that overflows, or whose new node's
    acceleration is not finite, is rejected like one with an infinite
    error.

    Terminal events are BlowUp (max |w_i| rises to blowup_threshold) and, in
    positive mode, PositivityLoss of component i (w_i falls to
    POSITIVITY_FLOOR), rising and falling along the direction of
    integration.  They are tested once per accepted step and the earliest
    is bisected to adjacent floats on the step's polynomial
    (_step_polynomials); the event point becomes the last node.  Otherwise
    the optional predicate stop(t_new, w1_old, w2_old, w1'_old, w1_new,
    w2_new, w1'_new), given the step's old node and its new one, is asked
    at each new node; a label it returns ends the segment at that node,
    unrefined, with event (label, None).  So a stopped segment's nodes are
    a prefix of the unstopped run's, bit for bit.  Returns a Segment.

    With h None the run is fresh: its first step is the initial-step
    estimate, and nfev counts that estimate's two field evaluations.  A
    given h resumes a stopped run from its last node (t0, y0) toward the
    same t_bound, with the step it proposed there (Segment.h): nfev counts
    from 0 and the rule for the first step from rest does not apply, so
    the resumed run takes the uninterrupted run's remaining steps.
    """
    rtol, atol, max_step = settings.rel_tol, settings.abs_tol, settings.max_step
    # The trial step writes the field out (_stage_field): a call's frame and
    # returned tuple cost more than its arithmetic.
    cone = _cone(params)
    d2, mu1, mu2, beta, _, p1, _ = cone
    field = _make_field(params)
    threshold = settings.blowup_threshold
    floor = POSITIVITY_FLOOR
    positive = mode == "positive"
    direction = 1.0 if t_bound >= t0 else -1.0
    t = t0
    w1, w2, v1, v2 = y0
    a1, a2 = field(w1, w2)
    if h is None:
        h_abs = _initial_step(
            field, y0, (v1, v2, a1, a2), direction, abs(t_bound - t0), max_step, rtol, atol
        )
        nfev = 2
    else:
        h_abs = h
        nfev = 0
    rest = h is None and v1 == 0.0 == v2
    ts, w1s, w2s, v1s, v2s, a1s, a2s = [t], [w1], [w2], [v1], [v2], [a1], [a2]
    status = None
    event = None
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        # The old node's magnitudes, for the error scale and the BlowUp test.
        o1, o2, o3, o4 = abs(w1), abs(w2), abs(v1), abs(v2)
        while True:
            if not h_abs >= min_step:  # NaN too: such a step never ends
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            nfev += 12
            try:
                # Stage k is (b1_k, b2_k), the field's accelerations at the
                # stage positions x1, x2.
                <trial step>
                # The new node's acceleration weighs nothing in the error
                # rows: one that is not finite rejects the trial too.
                if not a1_new - a1_new == 0.0 == a2_new - a2_new:
                    raise OverflowError
                # Both error rows over atol + rtol * max(old, new) magnitude:
                # n if n > o else o is max(o, n), ties and NaN too.
                n1, n2, n3, n4 = abs(w1_new), abs(w2_new), abs(v1_new), abs(v2_new)
                s = atol + (n1 if n1 > o1 else o1) * rtol
                e1 /= s
                f1 /= s
                s = atol + (n2 if n2 > o2 else o2) * rtol
                e2 /= s
                f2 /= s
                s = atol + (n3 if n3 > o3 else o3) * rtol
                e3 /= s
                f3 /= s
                s = atol + (n4 if n4 > o4 else o4) * rtol
                e4 /= s
                f4 /= s
                error_norm = _error_norm(e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4,
                                         f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4)
            except OverflowError:
                error_norm = math.inf
            if error_norm < 1.0:
                if error_norm == 0.0 or rest and len(ts) == 1:
                    # From data at rest the velocity rows are scaled by atol
                    # alone, and the first step's norm is rounding noise: a
                    # factor drawn from it would put runs from neighbouring
                    # data on different step grids.
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # NaN norms land here too, and max() then picks _MIN_FACTOR.
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        crossings = []
        if (o2 if o2 > o1 else o1) <= threshold <= (n2 if n2 > n1 else n1):
            crossings.append(("BlowUp", None, lambda w: max(abs(w[0]), abs(w[1])) >= threshold))
        if positive:
            if w1 >= floor >= w1_new:
                crossings.append(("PositivityLoss", 1, lambda w: w[0] <= floor))
            if w2 >= floor >= w2_new:
                crossings.append(("PositivityLoss", 2, lambda w: w[1] <= floor))
        if crossings:
            # Locate each on the step's polynomial and stop at the earliest
            # in the direction of integration.
            c1, c2 = _step_polynomials(cone, (w1, w2, v1, v2, a1, a2),
                                       (w1_new, w2_new, v1_new, v2_new, a1_new, a2_new), h)

            def at(tau):
                s = (tau - t) / h
                return _poly_value(c1, s), _poly_value(c2, s)

            roots = [
                (_event_root(lambda tau: crossed(at(tau)), t, t_new), kind, comp)
                for kind, comp, crossed in crossings
            ]
            t_new, kind, comp = min(roots, key=lambda r: direction * r[0])
            s = (t_new - t) / h
            w1_new, w2_new = _poly_value(c1, s), _poly_value(c2, s)
            v1_new, v2_new = _poly_derivative(c1, s) / h, _poly_derivative(c2, s) / h
            # The last stage is the trial end's; the event point needs its own.
            a1_new, a2_new = field(w1_new, w2_new)
            event = (kind, comp)
            status = 1
        elif stop is not None and (
            label := stop(t_new, w1, w2, v1, w1_new, w2_new, v1_new)
        ) is not None:
            event = (label, None)
            status = 1
        elif direction * (t_new - t_bound) >= 0.0:
            status = 0

        t, w1, w2, v1, v2, a1, a2 = t_new, w1_new, w2_new, v1_new, v2_new, a1_new, a2_new
        ts.append(t)
        w1s.append(w1)
        w2s.append(w2)
        v1s.append(v1)
        v2s.append(v2)
        a1s.append(a1)
        a2s.append(a2)
    return Segment(t=np.array(ts), y=np.array([w1s, w2s, v1s, v2s]), acc=np.array([a1s, a2s]),
                   nfev=nfev, status=status, event=event, h=h_abs)
'''

#: The source of _make_field and solve_ivp as rendered, which inspect.getsource
#: and tracebacks show.
_SOLVE_IVP_SOURCE = _render_solve_ivp(_SOLVE_IVP_TEMPLATE)
_SOLVE_IVP_FILE = "<fowlerlab.dynamics.solve_ivp>"
# The unit imports math and numpy first, as this module does, so that CPython
# compiles math.nextafter and np.array to the same instructions as here.
_unit = "import math\nimport numpy as np\n" + _SOLVE_IVP_SOURCE
_SOLVE_IVP_LINES = {_SOLVE_IVP_FILE: (len(_unit), None, _unit.splitlines(True), _SOLVE_IVP_FILE)}


class _LineCache(dict):
    """linecache's cache, which keeps solve_ivp's rendered source through a
    clear (linecache.clearcache): linecache cannot read a "<...>" file back,
    so without the entry inspect.getsource and tracebacks through the step
    loop would find no source."""

    def clear(self):
        super().clear()
        self.update(_SOLVE_IVP_LINES)


linecache.cache = _LineCache(linecache.cache)
linecache.cache.update(_SOLVE_IVP_LINES)
exec(compile(_unit, _SOLVE_IVP_FILE, "exec"), globals())  # defines _make_field, solve_ivp


def _mirror(seg: Segment) -> Segment:
    """The segment solve_ivp returns toward -t_bound, given its run toward
    t_bound, when t0 and both initial velocities are +0.0.

    The field is time-reversible: (t, w, w') -> (-t, w, -w') maps orbits to
    orbits, and such data are their own image.  The step loop is too, float
    for float: every step size, stage, error norm and event root of the
    backward run is the forward one's with t and w' negated, and w, w'',
    nfev, status, event and the proposed step h equal.  0.0 - x, not -x,
    keeps the +0.0 the backward run has at t0 and at any other exact zero.
    """
    return Segment(t=0.0 - seg.t, y=np.concatenate([seg.y[:2], 0.0 - seg.y[2:]]), acc=seg.acc,
                   nfev=seg.nfev, status=seg.status, event=seg.event, h=seg.h)


def _require_window(t_span, t: float, message: str, strict: bool = False) -> None:
    """DomainError unless t_span holds t (strictly inside when strict)."""
    t_lo, t_hi = t_span
    if not (t_lo < t < t_hi if strict else t_lo <= t <= t_hi):
        raise DomainError(f"{message} {t!r}, got t_span {t_span!r}")


def integrate(
    params: SystemParams,
    initial: FowlerState,
    settings: IntegratorSettings | None = None,
    mode: str = "positive",
) -> Trajectory:
    """Integrate forward and backward from the initial point over t_span.

    Terminal events: BlowUp always (a component magnitude crosses the
    threshold), PositivityLoss only in positivity-constrained mode.  In
    signed mode zero crossings of each component are recorded as
    non-terminal SignChange events, read at the nodes: a step between
    nodes of opposite signs holds one, bisected to adjacent floats on its
    polynomial by the same _event_root as the terminal events, and a node
    exactly at zero between them is one (_bracketed_zeros).  Step-size
    underflow is reported on the trajectory (flagged uncertified), never
    raised.  The window must hold the initial time.

    Data at rest at t = 0 (t0 and both velocities +0.0) on a symmetric
    window (t_span[0] == -t_span[1]) take one run: the backward half is the
    forward one mirrored (_mirror), bit for bit what a backward run returns.
    """
    if settings is None:
        settings = IntegratorSettings()
    _require_window(settings.t_span, initial.t, "integration window must hold the initial time")
    t_lo, t_hi = settings.t_span

    def solve(t0, start):
        # solve_ivp is looked up on the module at call time, so a wrapper set
        # on that attribute (bench/tracing.py) sees every call.
        forward = solve_ivp(params, t0, start, t_hi, settings, mode) if t_hi > t0 else None
        if t_lo == -t_hi and all(x == 0.0 and math.copysign(1.0, x) > 0.0
                                 for x in (t0, start[2], start[3])):
            # A -0.0 would not survive the mirror.
            return forward, _mirror(forward)
        return forward, solve_ivp(params, t0, start, t_lo, settings, mode) if t_lo < t0 else None

    return _two_sided(params, initial, settings, mode, solve)


def _two_sided(params, initial, settings, mode, solve) -> Trajectory:
    """The Trajectory of the two Segments solve(t0, start) returns.

    solve gives (forward, backward), either None for a side not integrated.
    The nodes run in increasing t: the backward segment reversed, then the
    forward one, with the shared initial node once.  Only BlowUp and
    PositivityLoss ends become Events; a stop predicate's label does not.
    Data already at the blow-up threshold are not integrated at all; data
    whose energy is not finite raise DomainError.
    """
    if mode not in ("positive", "signed"):
        raise DomainError(f"unknown integration mode {mode!r}")
    if mode == "positive" and not (
        initial.w1 > POSITIVITY_FLOOR and initial.w2 > POSITIVITY_FLOOR
    ):
        raise DomainError(
            "positivity-constrained integration requires strictly positive data"
        )

    t0 = initial.t
    y0 = initial.as_array()
    psi0 = float(psi_arrays(params, initial.w1, initial.w2, initial.dw1, initial.dw2))
    if not math.isfinite(psi0):
        # Neither the drift nor an artifact could hold it.
        raise DomainError(f"initial energy is not finite: {psi0!r}")
    if max(abs(initial.w1), abs(initial.w2)) >= settings.blowup_threshold:
        # Data already outside the certified box: immediate terminal event.
        event = Event(kind="BlowUp", t=t0, state=initial, component=None)
        return Trajectory(
            params=params,
            settings=settings,
            mode=mode,
            t=np.array([t0]),
            y=y0.reshape(4, 1),
            psi=np.array([psi0]),
            events=(event,),
            psi0=psi0,
            drift=0.0,
            t_initial=t0,
        )

    forward, backward = solve(t0, tuple(y0.tolist()))
    segments = [seg for seg in (forward, backward) if seg is not None]
    events = [
        Event(kind=seg.event[0], t=float(seg.t[-1]), component=seg.event[1],
              state=FowlerState.from_array(seg.t[-1], seg.y[:, -1]))
        for seg in segments
        if seg.event is not None and seg.event[0] in ("BlowUp", "PositivityLoss")
    ]
    failure = "StepSizeUnderflow" if any(seg.status == -1 for seg in segments) else None

    def nodes(name):
        parts = [getattr(backward, name)[..., ::-1]] if backward is not None else []
        if forward is not None:
            parts.append(getattr(forward, name)[..., 1 if parts else 0:])
        return np.concatenate(parts, axis=-1)

    t, y = nodes("t"), nodes("y")

    psi_nodes = np.asarray(psi_arrays(params, y[0], y[1], y[2], y[3]), dtype=float)
    drift = float(np.max(np.abs(psi_nodes - psi0))) if psi_nodes.size else 0.0

    traj = Trajectory(
        params=params,
        settings=settings,
        mode=mode,
        t=t,
        y=y,
        psi=psi_nodes,
        events=(),
        psi0=psi0,
        drift=drift,
        t_initial=t0,
        failure=failure,
        acc=nodes("acc"),
    )

    if mode == "signed" and len(t) >= 2:
        events.extend(_sign_change_events(traj))
    traj.events = tuple(sorted(events, key=Event.sort_key))
    return traj


def _bracketed_zeros(traj: Trajectory, row: int) -> list[FowlerState]:
    """The states at the zero crossings of component row 0 (w1) or 1 (w2),
    read at the nodes.

    Each pair of consecutive nonzero nodes of opposite signs is one
    crossing.  One step apart, it is bisected on that step's polynomial
    (_step_polynomials; the quintic, as the row changes sign there) to the
    first float at which the row is zero or past it (_event_root), and its
    state is read on the same coefficients; otherwise it sits at the first
    zero node between them.  A crossing on a node takes that node's state.
    A zero node between nodes of one sign is a touch, not a crossing.
    """
    t, y = traj.t.tolist(), traj.y
    vv = y[row]
    nz = np.flatnonzero(vv != 0.0)
    flips = np.flatnonzero(vv[nz[:-1]] * vv[nz[1:]] < 0.0)
    if not flips.size:
        return []
    cone = _cone(traj.params)
    nodes = np.concatenate([y, traj._node_accelerations()])
    states = []
    for a, b in zip(nz[flips].tolist(), nz[flips + 1].tolist()):
        k = a + 1  # the first zero node, or the step's end node
        if b == k:
            ta, h = t[a], t[b] - t[a]
            c1, c2 = _step_polynomials(cone, nodes[:, a].tolist(), nodes[:, b].tolist(), h)
            c = (c1, c2)[row]
            sign = math.copysign(1.0, vv[a])
            te = _event_root(lambda x: sign * _poly_value(c, (x - ta) / h) <= 0.0, ta, t[b])
            if te < t[b]:
                s = (te - ta) / h
                states.append(FowlerState(te, _poly_value(c1, s), _poly_value(c2, s),
                                          _poly_derivative(c1, s) / h,
                                          _poly_derivative(c2, s) / h))
                continue
        states.append(FowlerState.from_array(t[k], y[:, k]))
    return states


def _sign_change_events(traj: Trajectory) -> list[Event]:
    return [
        Event(kind="SignChange", t=state.t, state=state, component=comp)
        for comp in (1, 2)
        for state in _bracketed_zeros(traj, comp - 1)
    ]
