import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowlerlab import (
    FowlerState,
    IntegratorSettings,
    bubble_fowler,
    cylinder_state,
    integrate,
    make_params,
    to_radial,
)
from fowlerlab.dynamics import _make_field, _row_function
from fowlerlab.errors import DomainError
from fowlerlab.serialize import load_trajectory, save_trajectory

mpmath.mp.dps = 50


def to_fowler(params, r, u, v, du, dv):
    """Map radial data (r, u, v, u', v') to the logarithmic phase point.

    Inverse of to_radial, kept here as its oracle; the derivative map
    follows from u'(r) = -r^(-delta-1) (w1'(t) + delta w1(t)).
    """
    delta = params.delta
    t = -math.log(r)
    w1 = r**delta * u
    w2 = r**delta * v
    dw1 = -(r ** (delta + 1.0)) * du - delta * w1
    dw2 = -(r ** (delta + 1.0)) * dv - delta * w2
    return FowlerState(t=t, w1=w1, w2=w2, dw1=dw1, dw2=dw2)


class TestSettingsAndState:
    def test_settings_validation(self):
        with pytest.raises(DomainError):
            IntegratorSettings(rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegratorSettings(abs_tol=-1e-12)
        with pytest.raises(DomainError):
            IntegratorSettings(t_span=(3.0, 3.0))
        with pytest.raises(DomainError):
            IntegratorSettings(blowup_threshold=0.0)
        with pytest.raises(DomainError, match="blowup_threshold must be positive and finite"):
            IntegratorSettings(blowup_threshold=math.inf)

    @pytest.mark.parametrize("span", [(-5.0, math.inf), (-math.inf, 5.0), (math.nan, 5.0)])
    def test_window_ends_must_be_finite(self, span):
        # The step loop never reaches an infinite end (max_step is 1).
        with pytest.raises(DomainError, match="finite"):
            IntegratorSettings(t_span=span)

    @pytest.mark.parametrize("max_step", [0.0, -1.0, math.nan])
    def test_max_step_must_be_positive(self, max_step):
        with pytest.raises(DomainError, match="max_step must be positive"):
            IntegratorSettings(max_step=max_step)
        assert IntegratorSettings(max_step=math.inf).max_step == math.inf

    def test_state_requires_finite_components(self):
        with pytest.raises(DomainError):
            FowlerState(0.0, float("nan"), 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            FowlerState(0.0, 1.0, float("inf"), 0.0, 0.0)

    def test_event_tie_ordering(self, p3):
        # Simultaneous events order by component index, then kind.
        from fowlerlab import Event

        state = FowlerState(0.0, 0.1, 0.1, 0.0, 0.0)
        events = [
            Event(kind="PositivityLoss", t=1.0, state=state, component=2),
            Event(kind="SignChange", t=1.0, state=state, component=2),
            Event(kind="SignChange", t=1.0, state=state, component=1),
            Event(kind="BlowUp", t=0.5, state=state, component=None),
        ]
        ordered = sorted(events, key=Event.sort_key)
        assert [(e.t, e.component, e.kind) for e in ordered] == [
            (0.5, None, "BlowUp"),
            (1.0, 1, "SignChange"),
            (1.0, 2, "SignChange"),
            (1.0, 2, "PositivityLoss"),
        ]

    def test_unknown_mode_rejected(self, p3):
        with pytest.raises(DomainError):
            integrate(p3, FowlerState(0.0, 0.5, 0.5, 0.0, 0.0), mode="mystery")


class TestRhs:
    def test_equilibrium_is_fixed_point(self, p3):
        state, _ = cylinder_state(p3)
        assert max(abs(v) for v in _make_field(p3)(state.w1, state.w2)) < 1e-14

    def test_hand_value_against_mp(self, p3):
        out = _make_field(p3)(0.5, 0.5)
        w = mpmath.mpf("0.5")
        oracle = mpmath.mpf("0.25") * w - w**5 - w**2 * w**3
        assert out[0] == pytest.approx(float(oracle), rel=1e-15)
        assert out[0] == 0.0625
        assert out[1] == out[0]

    def test_signed_extension_zero_component(self):
        # |w1|^(p-2) w1 extends continuously by 0 for every dimension,
        # including N >= 5 where p < 2.
        for N in (3, 4, 5, 7):
            p = make_params(N, 1, 1, 1)
            assert _make_field(p)(0.0, 0.7)[0] == 0.0

    def test_odd_symmetry(self, p5):
        field = _make_field(p5)
        plus = field(0.4, 0.3)
        minus = field(-0.4, -0.3)
        assert plus[0] == pytest.approx(-minus[0], rel=1e-15)
        assert plus[1] == pytest.approx(-minus[1], rel=1e-15)


def _signed_field(params, w1, w2):
    """The field's signed formula, kept here as the reference for its
    positive-cone branch."""
    p, d2 = params.p, params.delta**2
    mu1, mu2, beta = params.mu1, params.mu2, params.beta
    a1, a2 = abs(w1), abs(w2)
    dd1 = (d2 * w1 - mu1 * math.copysign(a1 ** (2.0 * p - 1.0), w1)
           - beta * a2**p * math.copysign(a1 ** (p - 1.0), w1))
    dd2 = (d2 * w2 - mu2 * math.copysign(a2 ** (2.0 * p - 1.0), w2)
           - beta * a1**p * math.copysign(a2 ** (p - 1.0), w2))
    return dd1, dd2


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class TestFieldBranches:
    POSITIVE = (5e-324, 1e-300, 0.3, 1.0, 1.7, 1e100, 1e300, math.inf)
    OTHER = ((0.0, 0.7), (0.7, 0.0), (-0.0, 0.7), (0.0, 0.0), (-0.4, 0.3),
             (0.4, -0.3), (-0.4, -0.3), (-1e-300, 1e100), (-math.inf, 1.0))

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_matches_the_signed_formula_bit_for_bit(self, N):
        params = make_params(N, 1.0, 1.3, 0.7)
        field = _make_field(params)
        pairs = [(a, b) for a in self.POSITIVE for b in self.POSITIVE] + list(self.OTHER)
        overflowed = 0
        for w1, w2 in pairs:
            try:
                expected = _signed_field(params, w1, w2)
            except OverflowError:
                overflowed += 1
                with pytest.raises(OverflowError):
                    field(w1, w2)
                continue
            assert _bits(field(w1, w2)) == _bits(expected), (w1, w2)
        # 1e300 overflows a pow in every dimension, 1e100 only for N = 3.
        assert overflowed > 0


class TestTransforms:
    def test_unit_cylinder_profile(self, p3):
        # u(r) = r^(-delta) maps to w == 1, w' == 0.
        for r in (0.25, 1.0, 7.5):
            d = p3.delta
            u = r**-d
            du = -d * r ** (-d - 1.0)
            state = to_fowler(p3, r, u, u, du, du)
            assert state.w1 == pytest.approx(1.0, rel=1e-13)
            assert abs(state.dw1) < 1e-13

    def test_bubble_derivative_at_unit_radius(self, p3):
        # Finite-difference oracle for d/dr of the radial profile at r=1;
        # the transformed derivative must vanish there (profile symmetry).
        from fowlerlab import bubble_radial

        h = 1e-6
        up, _ = bubble_radial(p3, 1.0, 1.0 + h)
        dn, _ = bubble_radial(p3, 1.0, 1.0 - h)
        u, v = bubble_radial(p3, 1.0, 1.0)
        du = (up - dn) / (2 * h)
        state = to_fowler(p3, 1.0, u, v, du, du)
        assert abs(state.t) < 1e-15
        assert abs(state.dw1) < 1e-9
        exact = bubble_fowler(p3, 1.0, 0.0)
        assert state.w1 == pytest.approx(exact.w1, rel=1e-12)

    def test_round_trip_bulk(self, p5):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            t = rng.uniform(-8, 8)
            w1, w2 = rng.uniform(0.05, 3.0, size=2)
            dw1, dw2 = rng.uniform(-2.0, 2.0, size=2)
            state = FowlerState(t, w1, w2, dw1, dw2)
            back = to_fowler(p5, *to_radial(p5, state))
            for a, b in zip(
                (state.t, state.w1, state.w2, state.dw1, state.dw2),
                (back.t, back.w1, back.w2, back.dw1, back.dw2),
            ):
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        assert worst < 1e-13

    @given(
        st.floats(-6.0, 6.0),
        st.floats(0.05, 2.0),
        st.floats(0.05, 2.0),
        st.floats(-1.5, 1.5),
        st.floats(-1.5, 1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_radial_first(self, t, u, v, du, dv):
        p = make_params(3, 1, 1, 1)
        r = math.exp(-t)
        state = to_fowler(p, r, u, v, du, dv)
        r2, u2, v2, du2, dv2 = to_radial(p, state)
        assert r2 == pytest.approx(r, rel=1e-13)
        assert u2 == pytest.approx(u, rel=1e-12, abs=1e-12)
        assert du2 == pytest.approx(du, rel=1e-12, abs=1e-12)
        assert dv2 == pytest.approx(dv, rel=1e-12, abs=1e-12)


class TestIntegrate:
    def test_cylinder_stays_at_equilibrium(self, p3, cylinder_traj):
        state, _ = cylinder_state(p3)
        assert cylinder_traj.drift < 1e-12
        assert np.max(np.abs(cylinder_traj.y[0] - state.w1)) < 1e-12
        assert np.max(np.abs(cylinder_traj.y[1] - state.w2)) < 1e-12
        assert np.max(np.abs(cylinder_traj.y[2:])) < 1e-12
        assert cylinder_traj.events == ()
        assert cylinder_traj.certified

    def test_bubble_drift_and_envelope(self, p3, bubble_traj):
        assert bubble_traj.drift < 1e-9
        # Closed form w = k A (2 cosh t)^(-delta): for |t| >= 10 the orbit
        # tracks (2^delta w(0)) e^(-delta |t|) within 10%.
        w0 = bubble_fowler(p3, 1.0, 0.0).w1
        amp = 2**p3.delta * w0
        mask = np.abs(bubble_traj.t) >= 10.0
        ratio = bubble_traj.y[0][mask] / (amp * np.exp(-p3.delta * np.abs(bubble_traj.t[mask])))
        assert np.all(ratio > 0.9) and np.all(ratio < 1.1)

    def test_bubble_tracks_closed_form(self, p3, bubble_traj):
        w_exact = bubble_fowler(p3, 1.0, 0.0).w1 * (np.cosh(bubble_traj.t)) ** (-p3.delta)
        assert np.max(np.abs(bubble_traj.y[0] - w_exact)) < 1e-6

    def test_signed_orbit_has_sign_change(self, p3):
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-50.0, 50.0)), mode="signed")
        assert traj.psi0 == pytest.approx(0.0379166666, abs=1e-9)
        kinds = [e.kind for e in traj.events]
        assert "SignChange" in kinds
        # the crossing state sits on the axis to within adjacent floats in t
        ev = next(e for e in traj.events if e.kind == "SignChange")
        comp = ev.component
        val = ev.state.w1 if comp == 1 else ev.state.w2
        slope = ev.state.dw1 if comp == 1 else ev.state.dw2
        assert abs(val) <= 4 * abs(slope) * math.ulp(ev.t)

    def test_time_reversal(self, p3, perturbed_traj):
        start = perturbed_traj.sample_state(0.0)
        fwd = integrate(p3, start, IntegratorSettings(t_span=(0.0, 10.0)))
        end = fwd.sample_state(10.0)
        flipped = FowlerState(0.0, end.w1, end.w2, -end.dw1, -end.dw2)
        back = integrate(p3, flipped, IntegratorSettings(t_span=(0.0, 10.0)))
        final = back.sample_state(10.0)
        assert final.w1 == pytest.approx(start.w1, abs=1e-8)
        assert final.w2 == pytest.approx(start.w2, abs=1e-8)
        assert final.dw1 == pytest.approx(-start.dw1, abs=1e-8)
        assert final.dw2 == pytest.approx(-start.dw2, abs=1e-8)

    def test_tolerance_halving_convergence(self, p3):
        state, _ = cylinder_state(p3)
        bumped = FowlerState(0.0, state.w1 + 0.05, state.w2, 0.0, 0.02)
        coarse = IntegratorSettings(t_span=(0.0, 12.0))
        fine = IntegratorSettings(rel_tol=0.5e-10, abs_tol=0.5e-12, t_span=(0.0, 12.0))
        a = integrate(p3, bumped, coarse)
        b = integrate(p3, bumped, fine)
        diff = np.max(np.abs(a.sample_state(12.0).as_array() - b.sample_state(12.0).as_array()))
        scale = np.max(np.abs(a.y))
        budget = 10.0 * len(a.t) * (coarse.rel_tol * scale + coarse.abs_tol)
        assert diff < budget

    def test_positive_mode_terminates_at_floor(self, p3):
        # psi > 0 forces loss of positivity; no node may cross below zero first.
        state = FowlerState(0.0, 0.5, 0.5, 0.3, -0.3)
        traj = integrate(p3, state, IntegratorSettings(t_span=(-30.0, 30.0)))
        kinds = [e.kind for e in traj.events]
        assert "PositivityLoss" in kinds
        assert np.min(traj.y[0]) > 0.0
        assert np.min(traj.y[1]) > 0.0

    def test_positive_mode_rejects_nonpositive_data(self, p3):
        with pytest.raises(DomainError):
            integrate(p3, FowlerState(0.0, -0.1, 0.5, 0.0, 0.0))

    @pytest.mark.parametrize("span", [(5.0, 30.0), (-30.0, -5.0)])
    def test_window_must_hold_the_initial_time(self, p3, span):
        with pytest.raises(DomainError, match="window must hold the initial time 0.0"):
            integrate(p3, cylinder_state(p3)[0], IntegratorSettings(t_span=span))
        with pytest.raises(DomainError, match="initial time 40.0"):
            integrate(p3, bubble_fowler(p3, 1.0, 40.0), IntegratorSettings(t_span=(-30.0, 30.0)))

    @pytest.mark.parametrize("span", [(0.0, 5.0), (-5.0, 0.0), (-1.0, 5.0)])
    def test_window_may_end_at_the_initial_time(self, p3, span):
        traj = integrate(p3, cylinder_state(p3)[0], IntegratorSettings(t_span=span))
        assert (traj.t[0], traj.t[-1]) == span

    def test_initial_outside_box_is_immediate_blowup(self, p3):
        traj = integrate(p3, FowlerState(0.0, 1500.0, 1500.0, 0.0, 0.0))
        assert len(traj.t) == 1
        assert traj.events[0].kind == "BlowUp"
        assert traj.events[0].t == 0.0

    def test_blowup_crossing_from_inside(self, p3):
        # The conserved energy bounds every orbit, so crossing the default
        # box needs data already carrying box-scale energy: launch just
        # below the threshold with enough kinetic energy to clear it.
        state = FowlerState(0.0, 950.0, 0.5, 3.2e8, 0.0)
        traj = integrate(p3, state, IntegratorSettings(t_span=(0.0, 1.0)), mode="signed")
        blowups = [e for e in traj.events if e.kind == "BlowUp"]
        assert blowups
        ev = blowups[0]
        assert 0.0 < ev.t < 1e-5
        assert max(abs(ev.state.w1), abs(ev.state.w2)) == pytest.approx(1e3, rel=1e-9)
        assert [e.kind for e in traj.events] == ["BlowUp"]

    def test_interpolant_continuous_at_joins(self, perturbed_traj):
        eps = 1e-9
        inner = perturbed_traj.t[3:-3]
        left = perturbed_traj.sample(inner - eps)
        right = perturbed_traj.sample(inner + eps)
        assert np.max(np.abs(left - right)) < 1e-7 * max(1.0, np.max(np.abs(left)))

    def test_dense_output_matches_nodes(self, perturbed_traj):
        mid = len(perturbed_traj.t) // 2
        ts = perturbed_traj.t[mid - 3 : mid + 3]
        vals = perturbed_traj.sample(ts)
        assert np.allclose(vals[0], perturbed_traj.y[0][mid - 3 : mid + 3], atol=1e-13)

    def test_dense_output_interpolates_quintic(self, p3, perturbed_traj):
        # Between nodes the interpolant must stay consistent with the flow:
        # compare against a fresh integration started at the midpoint value.
        i = len(perturbed_traj.t) // 2
        tm = 0.5 * (perturbed_traj.t[i] + perturbed_traj.t[i + 1])
        state = perturbed_traj.sample_state(float(tm))
        resumed = integrate(p3, state, IntegratorSettings(t_span=(tm, tm + 1.0)))
        target = perturbed_traj.sample_state(float(tm) + 1.0)
        got = resumed.sample_state(float(tm) + 1.0)
        assert got.w1 == pytest.approx(target.w1, abs=1e-9)
        assert got.dw1 == pytest.approx(target.dw1, abs=1e-9)

    def test_sample_equals_row_function_bit_for_bit(self, p5, tmp_path):
        state, _ = cylinder_state(p5)
        bumped = FowlerState(0.0, state.w1 + 2e-2, state.w2 - 1e-2, 0.01, 0.0)
        fresh = integrate(p5, bumped, IntegratorSettings(t_span=(-12.0, 12.0)))
        save_trajectory(fresh, tmp_path / "orbit.json")
        loaded = load_trajectory(tmp_path / "orbit.json")
        rng = np.random.default_rng(11)
        tq = np.concatenate([rng.uniform(fresh.t_min, fresh.t_max, 300), fresh.t[::7]])
        for traj in (fresh, loaded):
            sampled = traj.sample(tq)
            for row in range(2):
                f = _row_function(traj, row)
                assert [f(x) for x in tq.tolist()] == sampled[row].tolist()

