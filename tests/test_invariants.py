import functools
import math

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
    monitor,
    pohozaev_system,
    psi,
    scalar_bubble_radial,
    to_radial,
)
from fowlerlab.dynamics import Trajectory
from fowlerlab.errors import DomainError
from fowlerlab.experiments import _SEMI_SPEC, _collect_draws, draw_initial
from fowlerlab.invariants import (
    MONITOR_TOL,
    POHOZAEV_GRID,
    SAMPLES_PER_STEP,
    _monitor_times,
    f_arrays,
    psi_arrays,
)
from fowlerlab.params import _exponents

mpmath.mp.dps = 60


def mp_psi(N, mu1, mu2, beta, w1, w2, dw1, dw2):
    """Arbitrary-precision oracle for the conserved energy."""
    N = mpmath.mpf(N)
    delta = (N - 2) / 2
    p = N / (N - 2)
    w1, w2, dw1, dw2 = map(mpmath.mpf, (w1, w2, dw1, dw2))
    kin = (dw1**2 + dw2**2 - delta**2 * (w1**2 + w2**2)) / 2
    pot = (
        mu1 * abs(w1) ** (2 * p)
        + 2 * beta * abs(w1) ** p * abs(w2) ** p
        + mu2 * abs(w2) ** (2 * p)
    ) / (2 * p)
    return kin + pot


def pohozaev_scalar(N, coefficient, r, u, du):
    """Pohozaev functional P(r; u) of the scalar equation -Lap u = c u^(2*-1),
    the decoupled (beta -> 0) oracle for the system functional."""
    delta, _, two_star, sphere_area = _exponents(N)
    integrand = (
        delta * u * du
        - 0.5 * r * du * du
        + r * du * du
        + r / two_star * coefficient * abs(u) ** two_star
    )
    return sphere_area * r ** (N - 1) * integrand


#: The central-difference step of the f' oracle.
FD_STEP = 1e-6


def fd_monotone_coupling(params, traj):
    """Oracle for InvariantReport.f_w_monotone_coupling: f_i' by central
    differences of f_arrays on the interpolant, FD_STEP apart, at the
    monitor grid's points more than FD_STEP inside the window; a sign is
    judged where |w_i'| > MONITOR_TOL and the predicted
    |f_i'| = beta |w_i|^(p-1) |w_j|^p |w_i'| exceeds 100 FD_STEP^2, the
    difference quotient's rounding for |f| ~ 1."""
    ts = _monitor_times(traj)
    w1, w2, dw1, dw2 = traj.sample(ts)
    inside = (ts > traj.t_min + FD_STEP) & (ts < traj.t_max - FD_STEP)
    f_up = f_arrays(params, *traj.sample(ts[inside] + FD_STEP))
    f_dn = f_arrays(params, *traj.sample(ts[inside] - FD_STEP))
    for up, dn, dw, wi, wj in ((f_up[0], f_dn[0], dw1, w1, w2), (f_up[1], f_dn[1], dw2, w2, w1)):
        fd = (up - dn) / (2.0 * FD_STEP)
        dw, wi, wj = dw[inside], wi[inside], wj[inside]
        scale = params.beta * np.abs(wi) ** (params.p - 1.0) * np.abs(wj) ** params.p * np.abs(dw)
        mask = (np.abs(dw) > MONITOR_TOL) & (scale > 100.0 * FD_STEP**2)
        if np.any(np.sign(fd[mask]) != np.sign(dw[mask])):
            return False
    return True


@functools.cache
def monotone_corpus():
    """The N = 3 bubble on (-8, 8), then 40 near-cylinder psi < 0 draws (the
    semi-singular search's sampler, seed 0) at each of N = 3, 4, 5, 6 on
    (-15, 15), in positive mode: (params, trajectory) pairs."""
    p3 = make_params(3, 1.0, 1.0, 1.0)
    orbits = [(p3, integrate(p3, bubble_fowler(p3, 1.0, 0.0),
                             IntegratorSettings(t_span=(-8.0, 8.0))))]
    window = IntegratorSettings(t_span=(-15.0, 15.0))
    for N, beta in ((3, 1.0), (4, 0.5), (5, 1.0), (6, 0.3)):
        params = make_params(N, 1.0, 1.0, beta)
        draws, _ = _collect_draws(params, _SEMI_SPEC, 40, 0)
        orbits += [(params, integrate(params, data.state(), window)) for _, data in draws]
    return orbits


def scalar_pohozaev_match(params, traj):
    """Oracle for InvariantReport.pohozaev_match, point by point in Python
    floats: the radial map and the functional by math.exp and float
    powers on the 100-point grid, against sphere_area * Psi.  Returns the
    list of K values and the match."""
    grid = np.linspace(traj.t_min, traj.t_max, POHOZAEV_GRID)
    rows = traj.sample(grid)
    delta, p, two_star = params.delta, params.p, params.two_star
    ks, match = [], 0.0
    for t, w1, w2, dw1, dw2 in zip(grid.tolist(), *rows.tolist()):
        r = math.exp(-t)
        u, v = r ** (-delta) * w1, r ** (-delta) * w2
        du = -(r ** (-delta - 1.0)) * (dw1 + delta * w1)
        dv = -(r ** (-delta - 1.0)) * (dw2 + delta * w2)
        grad2 = du * du + dv * dv
        bulk = (params.mu1 * abs(u) ** two_star + params.mu2 * abs(v) ** two_star
                + 2.0 * params.beta * abs(u) ** p * abs(v) ** p)
        integrand = (delta * (u * du + v * dv) - 0.5 * r * grad2 + r * grad2
                     + r / two_star * bulk)
        k = params.sphere_area * r ** (params.N - 1) * integrand
        ks.append(k)
        match = max(match, abs(k - params.sphere_area * float(psi_arrays(params, w1, w2, dw1, dw2))))
    return ks, match


def scalar_bubble_slope(N, mu, eps, r):
    # d/dr of mu^(-1/(2p-2)) * U_eps(r); closed form of the profile derivative.
    delta = (N - 2) / 2.0
    p = N / (N - 2.0)
    scale = mu ** (-1.0 / (2 * p - 2.0))
    u = scale * scalar_bubble_radial(N, eps, r)
    return u, -2.0 * delta * r / (eps * eps + r * r) * u


class TestPsi:
    def test_zero_state(self, p3):
        assert psi(p3, FowlerState(0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_hand_example(self, p3):
        value = psi(p3, FowlerState(0.0, 0.5, 0.5, 0.3, -0.3))
        oracle = float(mp_psi(3, 1, 1, 1, 0.5, 0.5, 0.3, -0.3))
        assert value == pytest.approx(oracle, rel=1e-15)
        assert value == pytest.approx(0.0379167, abs=5e-8)

    def test_cylinder_closed_form(self, p3):
        state, energy = cylinder_state(p3)
        assert psi(p3, state) == pytest.approx(energy, abs=1e-16)
        assert psi(p3, state) == pytest.approx(-0.0589256, abs=5e-8)

    @given(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mp_oracle(self, w1, w2, dw1, dw2):
        p = make_params(5, 1.2, 0.7, 2.0)
        value = psi(p, FowlerState(0.0, w1, w2, dw1, dw2))
        oracle = float(mp_psi(5, 1.2, 0.7, 2.0, w1, w2, dw1, dw2))
        assert value == pytest.approx(oracle, rel=1e-13, abs=1e-15)


class TestFPair:
    def test_zero_state(self, p3):
        assert f_arrays(p3, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_cylinder_closed_form(self, p3):
        state, energy = cylinder_state(p3)
        f1, f2 = f_arrays(p3, state.w1, state.w2, state.dw1, state.dw2)
        c = mpmath.mpf(8) ** mpmath.mpf("-0.25")
        oracle = float(mpmath.mpf("0.125") * c**2 - c**6 / 6)
        assert f1 == pytest.approx(oracle, rel=1e-13)
        assert f1 == pytest.approx(0.0368285, abs=5e-8)
        assert f2 == f1
        # Identity: f1 + f2 = (beta/p) w1^p w2^p - psi on the constant orbit.
        rhs_val = float(c**6 / 3) - energy
        assert f1 + f2 == pytest.approx(rhs_val, abs=1e-15)

    def test_positive_at_bubble_apex(self, p3):
        apex = bubble_fowler(p3, 1.0, 0.0)
        f1, f2 = f_arrays(p3, apex.w1, apex.w2, apex.dw1, apex.dw2)
        expected = 0.5 * p3.delta**2 * apex.w1**2 - p3.mu1 / 6.0 * apex.w1**6
        assert f1 == pytest.approx(expected, rel=1e-14)
        assert f1 > 0

    @given(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_identity(self, w1, w2, dw1, dw2):
        # f1 + f2 + psi = (beta/p)|w1|^p |w2|^p is an algebraic identity.
        p = make_params(5, 0.8, 1.7, 1.1)
        state = FowlerState(0.0, w1, w2, dw1, dw2)
        f1, f2 = f_arrays(p, w1, w2, dw1, dw2)
        coupling = p.beta / p.p * abs(w1) ** p.p * abs(w2) ** p.p
        scale = max(1.0, abs(f1), abs(f2), abs(coupling))
        assert abs(f1 + f2 - (coupling - psi(p, state))) < 1e-14 * scale


class TestPohozaevSystem:
    def test_cylinder_r_independent(self, p3):
        state, energy = cylinder_state(p3)
        target = p3.sphere_area * energy
        for r in (0.1, 1.0, 10.0):
            shifted = FowlerState(-math.log(r), state.w1, state.w2, 0.0, 0.0)
            _, u, v, du, dv = to_radial(p3, shifted)
            assert pohozaev_system(p3, r, (u, v, du, dv)) == pytest.approx(
                target, rel=1e-12
            )

    def test_bubble_vanishes(self, p3):
        for r in (0.1, 1.0, 10.0):
            state = bubble_fowler(p3, 1.0, -math.log(r))
            _, u, v, du, dv = to_radial(p3, state)
            assert abs(pohozaev_system(p3, r, (u, v, du, dv))) < 1e-10

    def test_zero_data(self, p3):
        assert pohozaev_system(p3, 2.0, (0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_rejects_nonpositive_radius(self, p3):
        with pytest.raises(DomainError):
            pohozaev_system(p3, 0.0, (1.0, 1.0, 0.0, 0.0))

    def test_identity_along_trajectories(self, p3, bubble_traj, cylinder_traj, perturbed_traj):
        # K(r; u, v) = sphere_area * Psi(t) pointwise along any orbit.
        for traj in (bubble_traj, cylinder_traj, perturbed_traj):
            ts = np.linspace(traj.t_min, traj.t_max, 100)
            w1, w2, dw1, dw2 = traj.sample(ts)
            for i, t in enumerate(ts):
                state = FowlerState(float(t), w1[i], w2[i], dw1[i], dw2[i])
                r, u, v, du, dv = to_radial(p3, state)
                k_val = pohozaev_system(p3, r, (u, v, du, dv))
                s_psi = p3.sphere_area * psi(p3, state)
                assert abs(k_val - s_psi) < 1e-9 * max(1.0, abs(s_psi))


class TestPohozaevScalar:
    def test_scalar_bubble_vanishes(self):
        for N, mu in [(3, 1.0), (5, 2.0)]:
            for r in (0.2, 1.0, 5.0):
                u, du = scalar_bubble_slope(N, mu, 1.0, r)
                assert abs(pohozaev_scalar(N, mu, r, u, du)) < 1e-10

    def test_scalar_cylinder_negative_constant(self):
        # u = C r^(-delta) with delta^2 C = mu C^(2*-1).
        N, mu = 3, 1.0
        delta = 0.5
        two_star = 6.0
        c = (delta**2 / mu) ** (1.0 / (two_star - 2.0))
        values = []
        for r in (0.5, 1.0, 2.0):
            u = c * r**-delta
            du = -delta * c * r ** (-delta - 1.0)
            values.append(pohozaev_scalar(N, mu, r, u, du))
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[1] == pytest.approx(values[2], rel=1e-12)
        assert values[0] < 0
        # scalar analogue of the constant-orbit energy: -(delta^2/N) C^2 * area
        sphere = 4 * math.pi
        oracle = -sphere * delta**2 / N * c * c
        assert values[0] == pytest.approx(oracle, rel=1e-12)

    def test_zero_profile(self):
        assert pohozaev_scalar(3, 1.0, 1.0, 0.0, 0.0) == 0.0

    def test_beta_to_zero_degeneration(self):
        # With beta ~ 0 and decoupled scalar profiles, the system functional
        # splits into the sum of the scalar ones.
        N = 5
        p = make_params(N, 1.0, 2.0, 1e-12)
        for r in (0.5, 1.0, 3.0):
            u, du = scalar_bubble_slope(N, 1.0, 1.0, r)
            v, dv = scalar_bubble_slope(N, 2.0, 2.0, r)
            total = pohozaev_system(p, r, (u, v, du, dv))
            split = pohozaev_scalar(N, 1.0, r, u, du) + pohozaev_scalar(N, 2.0, r, v, dv)
            assert total == pytest.approx(split, abs=1e-8)


class TestMonitor:
    def test_bubble_all_pass(self, p3, bubble_traj):
        report = monitor(p3, bubble_traj)
        assert all(report.f_positive) and all(report.lambda_bound)
        assert all(report.gradient_bound) and report.f_w_monotone_coupling
        assert report.psi_drift < 1e-9
        assert report.pohozaev_match < 1e-9
        assert report.lambda_margin[0] > 0.1

    def test_cylinder_all_pass(self, p3, cylinder_traj):
        report = monitor(p3, cylinder_traj)
        assert all(report.f_positive) and all(report.lambda_bound)
        assert all(report.gradient_bound) and report.f_w_monotone_coupling
        state, _ = cylinder_state(p3)
        assert report.lambda_margin[0] == pytest.approx(p3.lam[0] - state.w1, abs=1e-10)
        assert report.f_margin[0] > 0.03
        assert report.gradient_margin[0] > 0.29

    def test_lambda_violation_flagged(self, p3):
        start = FowlerState(0.0, p3.lam[0] + 0.1, 0.05, 0.0, 0.0)
        traj = integrate(p3, start, IntegratorSettings(t_span=(0.0, 2.0)))
        report = monitor(p3, traj)
        assert not report.lambda_bound[0]
        assert report.lambda_margin[0] < -0.09

    def test_derivative_coupling_against_prediction(self, p3, perturbed_traj):
        # f_i' = beta w_i^(p-1) w_j^p w_i' along the orbit; check by central
        # differences on the dense interpolant at 100 interior points.
        from fowlerlab.invariants import f_arrays

        h = 1e-6
        ts = np.linspace(perturbed_traj.t_min + 1, perturbed_traj.t_max - 1, 100)
        up = perturbed_traj.sample(ts + h)
        dn = perturbed_traj.sample(ts - h)
        here = perturbed_traj.sample(ts)
        f1u, f2u = f_arrays(p3, *up)
        f1d, f2d = f_arrays(p3, *dn)
        fd1 = (f1u - f1d) / (2 * h)
        fd2 = (f2u - f2d) / (2 * h)
        pred1 = p3.beta * here[0] ** (p3.p - 1) * here[1] ** p3.p * here[2]
        pred2 = p3.beta * here[1] ** (p3.p - 1) * here[0] ** p3.p * here[3]
        assert np.max(np.abs(fd1 - pred1)) < 1e-8
        assert np.max(np.abs(fd2 - pred2)) < 1e-8

    def test_monitor_times_match_per_step_linspace(self, bubble_traj, perturbed_traj):
        # The broadcast grid reproduces the per-step loop bit for bit.
        for traj in (bubble_traj, perturbed_traj):
            nodes = traj.t
            loop = [nodes] + [
                np.linspace(a, b, SAMPLES_PER_STEP + 2)[1:-1]
                for a, b in zip(nodes[:-1], nodes[1:])
            ]
            assert _monitor_times(traj).tolist() == np.unique(np.concatenate(loop)).tolist()

    def test_monotone_coupling_flag(self, p3, perturbed_traj):
        assert monitor(p3, perturbed_traj).f_w_monotone_coupling

    def test_monotone_flag_equals_the_central_difference_oracle(self):
        # The False orbits are N = 5 draws that reach the positivity floor,
        # whose last steps' interpolants have defects up to 1e5 there.
        orbits = monotone_corpus()
        flags = [monitor(params, traj).f_w_monotone_coupling for params, traj in orbits]
        assert flags == [fd_monotone_coupling(params, traj) for params, traj in orbits]
        assert len(flags) == 161 and flags.count(False) == 20
        assert all(flags[:81]) and all(flags[121:])

    def test_monotone_flag_reads_a_defect_at_the_window_end(self):
        # An N = 5 draw whose steps into the positivity floor, each about
        # 1e-6 long, have defects of 1e3-1e4: the oracle's shifted samples
        # cannot reach within FD_STEP of the window ends, the interpolant's
        # own w'' can.
        params = make_params(5, 1.0, 1.0, 1.0)
        data, _ = draw_initial(params, _SEMI_SPEC, 7, 39)
        traj = integrate(params, data.state(), IntegratorSettings(t_span=(-15.0, 15.0)))
        assert {event.kind for event in traj.events} == {"PositivityLoss"}
        assert fd_monotone_coupling(params, traj)
        assert not monitor(params, traj).f_w_monotone_coupling

    def test_pohozaev_check_equals_the_scalar_loop(self, p3, bubble_traj, cylinder_traj,
                                                   perturbed_traj):
        # Bound from the measurement: the K values differ by at most
        # 3.5e-14 sphere_area and the matches by 7.3e-15 sphere_area over
        # these fixtures and the 161 orbits of monotone_corpus.
        orbits = [(p3, bubble_traj), (p3, cylinder_traj), (p3, perturbed_traj)]
        for params, traj in orbits + monotone_corpus()[::20]:
            ks, match = scalar_pohozaev_match(params, traj)
            grid = np.linspace(traj.t_min, traj.t_max, POHOZAEV_GRID)
            r, u, v, du, dv = to_radial(params, (grid, traj.sample(grid)))
            bound = 1e-13 * params.sphere_area
            assert np.max(np.abs(pohozaev_system(params, r, (u, v, du, dv)) - ks)) < bound
            assert abs(monitor(params, traj).pohozaev_match - match) < bound

    def test_monitor_samples_its_grid_and_the_pohozaev_grid(self, p3, perturbed_traj,
                                                           monkeypatch):
        # f' comes from the interpolant's w'', not from shifted samples.
        sampled, inner = [], Trajectory.sample

        def sample(self, tq, **kw):
            sampled.append((np.asarray(tq).tolist(), kw))
            return inner(self, tq, **kw)

        monkeypatch.setattr(Trajectory, "sample", sample)
        monitor(p3, perturbed_traj)
        grid = np.linspace(perturbed_traj.t_min, perturbed_traj.t_max, POHOZAEV_GRID)
        assert sampled == [(_monitor_times(perturbed_traj).tolist(), {"derivatives": 2}),
                           (grid.tolist(), {})]

    def test_margins_define_booleans(self, p3, perturbed_traj):
        report = monitor(p3, perturbed_traj)
        for margin, flag in (
            (report.f_margin, report.f_positive),
            (report.lambda_margin, report.lambda_bound),
            (report.gradient_margin, report.gradient_bound),
        ):
            for m, b in zip(margin, flag):
                assert b == (m > -MONITOR_TOL)
