"""The vector field and the adaptive integrator with dense output and event
detection, in the logarithmic radial variables of fowlerlab.invariants.

Integration uses the package's own embedded Runge-Kutta 5(4) pair
(Dormand-Prince, Hairer-Norsett-Wanner II.4-5) in both time directions
from the initial point; the step loop is scalar Python on the four state
components.  Dense output is a per-step quintic Hermite built from node
values, derivatives, and the accelerations the step loop computed there
(the first-same-as-last stage; at an event node, the field at the located
state).  Terminal events are located on the step's quintic, which is the
interpolant's own on every step that does not end in an event, and the
other crossings on the interpolant, all by one bisection (_event_root).  A
loaded trajectory rebuilds the accelerations with the same scalar field at
the stored nodes, so sampling is bit-identical after a serialization round
trip.  The field (_make_field) is the signed continuous extension
|w|^(q-1) w of the positive-cone powers; on the positive cone both forms
agree, and positivity-constrained runs terminate at POSITIVITY_FLOOR instead
of crossing zero (the field is not Lipschitz at w = 0 when N >= 5).  The
step loop evaluates the positive-cone branch inline, from the constants
_make_field attaches to the field, at every stage point and new node inside
the open cone; elsewhere it calls the field.  Both give the same floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .invariants import psi_arrays
from .params import SystemParams
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

    max_step defaults to 1 so near-equilibrium orbits keep a dense node
    grid (sub-1e-13 node accuracy at the constant orbit) instead of taking
    window-sized steps whose stage arithmetic amplifies rounding.
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


def _make_field(params: SystemParams) -> Callable[[float, float], tuple[float, float]]:
    """Scalar (w1, w2) -> (w1'', w2''): the field the integrator steps on.

    The signed formula, with a first branch for the open positive cone that
    drops the abs and copysign calls and returns the same floats.  That
    branch's constants ride on the callable as _cone, so that solve_ivp can
    evaluate it inline.
    """
    p = params.p
    d2 = params.delta**2
    mu1, mu2, beta = params.mu1, params.mu2, params.beta
    p1 = p - 1.0
    q1 = 2.0 * p - 1.0

    def field(w1, w2):
        if w1 > 0.0 and w2 > 0.0:
            # |w| = w here, and copysign leaves the nonnegative powers as they are.
            dd1 = d2 * w1 - mu1 * w1**q1 - beta * w2**p * w1**p1
            dd2 = d2 * w2 - mu2 * w2**q1 - beta * w1**p * w2**p1
            return dd1, dd2
        a1 = abs(w1)
        a2 = abs(w2)
        dd1 = d2 * w1 - mu1 * math.copysign(a1**q1, w1) - beta * a2**p * math.copysign(a1**p1, w1)
        dd2 = d2 * w2 - mu2 * math.copysign(a2**q1, w2) - beta * a1**p * math.copysign(a2**p1, w2)
        return dd1, dd2

    field._cone = (d2, mu1, mu2, beta, p, p1, q1)
    return field


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


def _quintic_value(c, s):
    val = c[5]
    for k in (4, 3, 2, 1, 0):
        val = val * s + c[k]
    return val


def _quintic_slope(c, s):
    """d/ds of the quintic; divide by h for the derivative in tau."""
    dv = 5.0 * c[5]
    for k, m in ((4, 4.0), (3, 3.0), (2, 2.0), (1, 1.0)):
        dv = dv * s + m * c[k]
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

    def _interpolant(self):
        if self._coeffs is None:
            if self.acc is None:
                # Loaded or built by hand: the field at the nodes is what the
                # step loop computed there, bit for bit.
                fun = _make_field(self.params)
                self.acc = np.array(list(map(fun, self.y[0].tolist(), self.y[1].tolist()))).T
            h = np.diff(self.t)
            # Per component a (6, n - 1) array: one contiguous row per
            # coefficient, gathered row by row in sample.
            self._coeffs = tuple(
                np.array(_quintic(w[:-1], w[1:], dw[:-1], dw[1:], a[:-1], a[1:], h))
                for w, dw, a in zip(self.y[:2], self.y[2:], self.acc)
            ) + (h,)
        return self._coeffs

    def sample(self, tq) -> np.ndarray:
        """Dense state arrays (w1, w2, w1', w2') at query times within cover."""
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        if len(self.t) < 2:
            # Degenerate single-node trajectory (e.g. immediate blow-up).
            return np.tile(self.y[:, :1], (1, len(tq)))
        c1, c2, h = self._interpolant()
        idx = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(h) - 1)
        hq = h[idx]
        s = (tq - self.t[idx]) / hq
        out = np.empty((4, len(tq)))
        for row, c in ((0, c1), (1, c2)):
            cc = [ck[idx] for ck in c]
            out[row] = _quintic_value(cc, s)
            out[row + 2] = _quintic_slope(cc, s) / hq
        return out

    def sample_state(self, t: float) -> FowlerState:
        return FowlerState.from_array(t, self.sample(t)[:, 0])


#: Step-size controller of the Dormand-Prince pair (Hairer-Norsett-Wanner
#: II.4): safety factor, bounds on the step change, and the exponent
#: -1/(q+1) for the error estimator of order q = 4.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 5.0


def _rms(x1, x2, x3, x4):
    return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4) / 2.0


def _initial_step(field, y, f, direction, span, max_step, rtol, atol):
    """Starting step from the field's size and change (Hairer-Norsett-Wanner
    II.4), for an error estimator of order 4."""
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
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    return min(100.0 * h0, h1, span, max_step)


@dataclass
class Segment:
    """One direction of an integration: accepted nodes t (n,) and y (4, n),
    the field's accelerations (w1'', w2'') at the nodes acc (2, n), stage
    field evaluations nfev (counted as scipy counts them; the evaluation at
    a located event node is not a stage), and status 0 (reached t_bound),
    1 (terminal event, located at the last node), or -1 (step size
    underflow)."""

    t: np.ndarray
    y: np.ndarray
    acc: np.ndarray
    nfev: int
    status: int
    event: tuple[str, int | None] | None = None


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


def solve_ivp(field, t0, y0, t_bound, settings, mode, stop=None):
    """The package's own Dormand-Prince 5(4) solver, from t0 toward t_bound.

    field is the scalar acceleration map (w1, w2) -> (w1'', w2'') and y0
    the four floats (w1, w2, w1', w2').  A field from _make_field carries
    its positive-cone constants (_cone): at each stage point and new node
    with both components > 0.0 the step loop evaluates that branch itself,
    float for float the call's result.  Off the cone, at an event node, in
    the initial-step estimate, and for any field without _cone, field is
    called.  The tableau and the step-size control are those of
    Hairer-Norsett-Wanner II.4-5 (as in scipy's RK45): RMS error
    norm scaled by atol + rtol * max(|y|, |y_new|), no step growth right
    after a rejection, and failure once the step falls below 10 ulp(t).  A
    trial step that overflows is rejected like one with an infinite error.

    Terminal events are BlowUp (max |w_i| rises to blowup_threshold) and, in
    positive mode, PositivityLoss of component i (w_i falls to
    POSITIVITY_FLOOR), rising and falling along the direction of
    integration.  They are tested once per accepted step and the
    earliest is bisected to adjacent floats on the step's quintic Hermite;
    the event point becomes the last node.  Otherwise the optional predicate
    stop(t_new, w1_old, w2_old, w1'_old, w1_new, w2_new, w1'_new), given the
    step's old node and its new one, is asked at each new node; a label it
    returns ends the segment at that node, unrefined, with event
    (label, None).  So a stopped segment's nodes are a prefix of the
    unstopped run's, bit for bit.  Returns a Segment.
    """
    rtol, atol, max_step = settings.rel_tol, settings.abs_tol, settings.max_step
    # A field call's frame and returned tuple cost more than the cone
    # branch's arithmetic, which is written out below in the same order.
    cone = getattr(field, "_cone", None)
    inline = cone is not None
    d2, mu1, mu2, beta, p, p1, q1 = cone if inline else (0.0,) * 7
    threshold = settings.blowup_threshold
    floor = POSITIVITY_FLOOR
    positive = mode == "positive"
    direction = 1.0 if t_bound >= t0 else -1.0
    t = t0
    w1, w2, v1, v2 = y0
    a1, a2 = field(w1, w2)
    h_abs = _initial_step(
        field, y0, (v1, v2, a1, a2), direction, abs(t_bound - t0), max_step, rtol, atol
    )
    nfev = 2
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
            nfev += 6
            try:
                # Stage j is k_j = (v1_j, v2_j, b1_j, b2_j): the stage
                # velocities and the field's accelerations there.
                x1 = w1 + (0.2 * v1) * h
                x2 = w2 + (0.2 * v2) * h
                v1_2 = v1 + (0.2 * a1) * h
                v2_2 = v2 + (0.2 * a2) * h
                if inline and x1 > 0.0 and x2 > 0.0:
                    b1_2 = d2 * x1 - mu1 * x1**q1 - beta * x2**p * x1**p1
                    b2_2 = d2 * x2 - mu2 * x2**q1 - beta * x1**p * x2**p1
                else:
                    b1_2, b2_2 = field(x1, x2)
                x1 = w1 + (3 / 40 * v1 + 9 / 40 * v1_2) * h
                x2 = w2 + (3 / 40 * v2 + 9 / 40 * v2_2) * h
                v1_3 = v1 + (3 / 40 * a1 + 9 / 40 * b1_2) * h
                v2_3 = v2 + (3 / 40 * a2 + 9 / 40 * b2_2) * h
                if inline and x1 > 0.0 and x2 > 0.0:
                    b1_3 = d2 * x1 - mu1 * x1**q1 - beta * x2**p * x1**p1
                    b2_3 = d2 * x2 - mu2 * x2**q1 - beta * x1**p * x2**p1
                else:
                    b1_3, b2_3 = field(x1, x2)
                x1 = w1 + (44 / 45 * v1 - 56 / 15 * v1_2 + 32 / 9 * v1_3) * h
                x2 = w2 + (44 / 45 * v2 - 56 / 15 * v2_2 + 32 / 9 * v2_3) * h
                v1_4 = v1 + (44 / 45 * a1 - 56 / 15 * b1_2 + 32 / 9 * b1_3) * h
                v2_4 = v2 + (44 / 45 * a2 - 56 / 15 * b2_2 + 32 / 9 * b2_3) * h
                if inline and x1 > 0.0 and x2 > 0.0:
                    b1_4 = d2 * x1 - mu1 * x1**q1 - beta * x2**p * x1**p1
                    b2_4 = d2 * x2 - mu2 * x2**q1 - beta * x1**p * x2**p1
                else:
                    b1_4, b2_4 = field(x1, x2)
                x1 = w1 + (19372 / 6561 * v1 - 25360 / 2187 * v1_2 + 64448 / 6561 * v1_3
                           - 212 / 729 * v1_4) * h
                x2 = w2 + (19372 / 6561 * v2 - 25360 / 2187 * v2_2 + 64448 / 6561 * v2_3
                           - 212 / 729 * v2_4) * h
                v1_5 = v1 + (19372 / 6561 * a1 - 25360 / 2187 * b1_2 + 64448 / 6561 * b1_3
                             - 212 / 729 * b1_4) * h
                v2_5 = v2 + (19372 / 6561 * a2 - 25360 / 2187 * b2_2 + 64448 / 6561 * b2_3
                             - 212 / 729 * b2_4) * h
                if inline and x1 > 0.0 and x2 > 0.0:
                    b1_5 = d2 * x1 - mu1 * x1**q1 - beta * x2**p * x1**p1
                    b2_5 = d2 * x2 - mu2 * x2**q1 - beta * x1**p * x2**p1
                else:
                    b1_5, b2_5 = field(x1, x2)
                x1 = w1 + (9017 / 3168 * v1 - 355 / 33 * v1_2 + 46732 / 5247 * v1_3
                           + 49 / 176 * v1_4 - 5103 / 18656 * v1_5) * h
                x2 = w2 + (9017 / 3168 * v2 - 355 / 33 * v2_2 + 46732 / 5247 * v2_3
                           + 49 / 176 * v2_4 - 5103 / 18656 * v2_5) * h
                v1_6 = v1 + (9017 / 3168 * a1 - 355 / 33 * b1_2 + 46732 / 5247 * b1_3
                             + 49 / 176 * b1_4 - 5103 / 18656 * b1_5) * h
                v2_6 = v2 + (9017 / 3168 * a2 - 355 / 33 * b2_2 + 46732 / 5247 * b2_3
                             + 49 / 176 * b2_4 - 5103 / 18656 * b2_5) * h
                if inline and x1 > 0.0 and x2 > 0.0:
                    b1_6 = d2 * x1 - mu1 * x1**q1 - beta * x2**p * x1**p1
                    b2_6 = d2 * x2 - mu2 * x2**q1 - beta * x1**p * x2**p1
                else:
                    b1_6, b2_6 = field(x1, x2)
                w1_new = w1 + h * (35 / 384 * v1 + 500 / 1113 * v1_3 + 125 / 192 * v1_4
                                   - 2187 / 6784 * v1_5 + 11 / 84 * v1_6)
                w2_new = w2 + h * (35 / 384 * v2 + 500 / 1113 * v2_3 + 125 / 192 * v2_4
                                   - 2187 / 6784 * v2_5 + 11 / 84 * v2_6)
                v1_new = v1 + h * (35 / 384 * a1 + 500 / 1113 * b1_3 + 125 / 192 * b1_4
                                   - 2187 / 6784 * b1_5 + 11 / 84 * b1_6)
                v2_new = v2 + h * (35 / 384 * a2 + 500 / 1113 * b2_3 + 125 / 192 * b2_4
                                   - 2187 / 6784 * b2_5 + 11 / 84 * b2_6)
                if inline and w1_new > 0.0 and w2_new > 0.0:
                    a1_new = d2 * w1_new - mu1 * w1_new**q1 - beta * w2_new**p * w1_new**p1
                    a2_new = d2 * w2_new - mu2 * w2_new**q1 - beta * w1_new**p * w2_new**p1
                else:
                    a1_new, a2_new = field(w1_new, w2_new)
                # Error estimate: the fifth- minus the embedded fourth-order
                # weights, on all seven stages (the seventh is the new field).
                e1 = (-71 / 57600 * v1 + 71 / 16695 * v1_3 - 71 / 1920 * v1_4
                      + 17253 / 339200 * v1_5 - 22 / 525 * v1_6 + 1 / 40 * v1_new) * h
                e2 = (-71 / 57600 * v2 + 71 / 16695 * v2_3 - 71 / 1920 * v2_4
                      + 17253 / 339200 * v2_5 - 22 / 525 * v2_6 + 1 / 40 * v2_new) * h
                e3 = (-71 / 57600 * a1 + 71 / 16695 * b1_3 - 71 / 1920 * b1_4
                      + 17253 / 339200 * b1_5 - 22 / 525 * b1_6 + 1 / 40 * a1_new) * h
                e4 = (-71 / 57600 * a2 + 71 / 16695 * b2_3 - 71 / 1920 * b2_4
                      + 17253 / 339200 * b2_5 - 22 / 525 * b2_6 + 1 / 40 * a2_new) * h
                # The RMS norm of _rms, scaled by atol + rtol * max(old, new)
                # magnitude: n if n > o else o is max(o, n), ties and NaN too.
                n1, n2, n3, n4 = abs(w1_new), abs(w2_new), abs(v1_new), abs(v2_new)
                e1 /= atol + (n1 if n1 > o1 else o1) * rtol
                e2 /= atol + (n2 if n2 > o2 else o2) * rtol
                e3 /= atol + (n3 if n3 > o3 else o3) * rtol
                e4 /= atol + (n4 if n4 > o4 else o4) * rtol
                error_norm = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4) / 2.0
            except OverflowError:
                error_norm = math.inf
            if error_norm < 1.0:
                if error_norm == 0.0:
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
            # Locate each on the step's quintic Hermite and stop at the
            # earliest in the direction of integration.
            c1 = _quintic(w1, w1_new, v1, v1_new, a1, a1_new, h)
            c2 = _quintic(w2, w2_new, v2, v2_new, a2, a2_new, h)

            def at(tau):
                s = (tau - t) / h
                return _quintic_value(c1, s), _quintic_value(c2, s)

            roots = [
                (_event_root(lambda tau: crossed(at(tau)), t, t_new), kind, comp)
                for kind, comp, crossed in crossings
            ]
            t_new, kind, comp = min(roots, key=lambda r: direction * r[0])
            s = (t_new - t) / h
            w1_new, w2_new = _quintic_value(c1, s), _quintic_value(c2, s)
            v1_new, v2_new = _quintic_slope(c1, s) / h, _quintic_slope(c2, s) / h
            # The seventh stage is the trial end's; the event point needs its own.
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
                   nfev=nfev, status=status, event=event)


def _mirror(seg: Segment) -> Segment:
    """The segment solve_ivp returns toward -t_bound, given its run toward
    t_bound, when t0 and both initial velocities are +0.0.

    The field is time-reversible: (t, w, w') -> (-t, w, -w') maps orbits to
    orbits, and such data are their own image.  The step loop is too, float
    for float: every step size, stage, error norm and event root of the
    backward run is the forward one's with t and w' negated, and w, w'',
    nfev, status and event equal.  0.0 - x, not -x, keeps the +0.0 the
    backward run has at t0 and at any other exact zero.
    """
    return Segment(t=0.0 - seg.t, y=np.concatenate([seg.y[:2], 0.0 - seg.y[2:]]), acc=seg.acc,
                   nfev=seg.nfev, status=seg.status, event=seg.event)


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
    non-terminal SignChange events, bisected to adjacent floats on the dense
    interpolant by the same _event_root as the terminal events.  Step-size
    underflow is reported on the trajectory (flagged uncertified), never
    raised.  The window must hold the initial time.

    Data at rest at t = 0 (t0 and both velocities +0.0) on a symmetric
    window (t_span[0] == -t_span[1]) take one run: the backward half is the
    forward one mirrored (_mirror), bit for bit what a backward run returns.
    """
    if settings is None:
        settings = IntegratorSettings()
    _require_window(settings.t_span, initial.t, "integration window must hold the initial time")
    t_hi = settings.t_span[1]

    def solve(fun, t0, start):
        # solve_ivp is looked up on the module at call time, so a wrapper set
        # on that attribute (bench/tracing.py) sees every call.
        forward = solve_ivp(fun, t0, start, t_hi, settings, mode) if t_hi > t0 else None
        return forward, _backward_half(fun, t0, start, forward, settings, mode)

    return _two_sided(params, initial, settings, mode, solve)


def _backward_half(fun, t0, start, forward, settings, mode):
    """integrate's Segment from t0 toward t_span[0], given its forward one
    (None when t_span[0] == t0).

    Data at rest at t = 0 on a symmetric window: the backward run is the
    forward one mirrored.  A -0.0 would not survive the mirror.
    """
    t_lo, t_hi = settings.t_span
    if t_lo == -t_hi and all(x == 0.0 and math.copysign(1.0, x) > 0.0
                             for x in (t0, start[2], start[3])):
        return _mirror(forward)
    return solve_ivp(fun, t0, start, t_lo, settings, mode) if t_lo < t0 else None


def _two_sided(params, initial, settings, mode, solve) -> Trajectory:
    """The Trajectory of the two Segments solve(field, t0, start) returns.

    solve gives (forward, backward), either None for a side not integrated.
    The nodes run in increasing t: the backward segment reversed, then the
    forward one, with the shared initial node once.  Only BlowUp and
    PositivityLoss ends become Events; a stop predicate's label does not.
    Data already at the blow-up threshold are not integrated at all.
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

    forward, backward = solve(_make_field(params), t0, tuple(y0.tolist()))
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


#: Sub-samples per accepted step when scanning the interpolant for events.
_SCAN_PER_STEP = 6


def _scan_grid(traj: Trajectory) -> np.ndarray:
    """Dense event-scan grid: _SCAN_PER_STEP points per step, shared ends."""
    t0s = traj.t[:-1]
    h = np.diff(traj.t)
    frac = np.linspace(0.0, 1.0, _SCAN_PER_STEP)
    grid = t0s[:, None] + h[:, None] * frac[None, :]
    # Collapse duplicated interval endpoints into one strictly sorted axis.
    flat = grid.ravel()
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = flat[1:] > flat[:-1]
    return flat[keep]


def _row_function(traj: Trajectory, row: int) -> Callable[[float], float]:
    """Scalar x -> traj.sample(x)[row, 0] for row 0 (w1) or 1 (w2), bit for
    bit, without numpy calls."""
    c1, c2, h = traj._interpolant()
    coeffs = (c2 if row else c1).T.tolist()
    nodes = traj.t.tolist()
    steps = h.tolist()
    last = len(steps) - 1

    def f(x):
        i = min(max(bisect_right(nodes, x) - 1, 0), last)
        s = (x - nodes[i]) / steps[i]
        return _quintic_value(coeffs[i], s)

    return f


def _bracketed_zeros(traj: Trajectory, row: int, tt: np.ndarray, vv: np.ndarray) -> list[float]:
    """Zero crossings of component row 0 (w1) or 1 (w2), sampled as vv on
    the grid tt, bisected to adjacent floats.

    Each root is the first float of its bracket at which the row is zero or
    past it (_event_root).  Exact zeros at grid points count only when the
    surrounding nonzero values straddle the axis (a tangential touch is not
    a crossing).
    """
    nz = vv != 0.0
    t_nz = tt[nz]
    v_nz = vv[nz]
    crossings = np.nonzero(v_nz[:-1] * v_nz[1:] < 0.0)[0]
    if not len(crossings):
        return []
    f = _row_function(traj, row)
    return [
        _event_root(lambda x, sign=math.copysign(1.0, v_nz[i]): sign * f(x) <= 0.0,
                    float(t_nz[i]), float(t_nz[i + 1]))
        for i in crossings
    ]


def _sign_change_events(traj: Trajectory) -> list[Event]:
    tt = _scan_grid(traj)
    sampled = traj.sample(tt)
    return [
        Event(kind="SignChange", t=te, state=traj.sample_state(te), component=comp)
        for comp in (1, 2)
        for te in _bracketed_zeros(traj, comp - 1, tt, sampled[comp - 1])
    ]
