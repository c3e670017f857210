import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowlerlab import (
    bubble_amplitude,
    bubble_fowler,
    bubble_radial,
    cylinder_state,
    make_params,
    psi,
    scalar_bubble_radial,
    solve_coupling,
)
from fowlerlab.errors import DomainError, NoPositiveSolution
from fowlerlab.params import ROOT_RESIDUAL_TOL, _ratio_roots, cylinder_amplitudes

mpmath.mp.dps = 60


def mp_lambda(N, mu, star=False):
    """Arbitrary-precision oracle for the amplitude bounds."""
    N = mpmath.mpf(N)
    delta = (N - 2) / 2
    p = N / (N - 2)
    top = delta**2 if star else p * delta**2
    return (top / mpmath.mpf(mu)) ** (1 / (2 * p - 2))


params_strategy = st.tuples(
    st.sampled_from([3, 5, 6, 7]),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)


class TestMakeParams:
    def test_n3_constants(self):
        p = make_params(3, 1, 1, 1)
        assert p.delta == 0.5
        assert p.p == 3.0
        assert p.two_star == 6.0
        assert p.sphere_area == pytest.approx(4 * math.pi, rel=1e-14)

    def test_n4_constants(self):
        p = make_params(4, 1, 1, 1)
        assert p.delta == 1.0
        assert p.p == 2.0
        assert p.two_star == 4.0

    def test_lambda_against_mp_oracle(self):
        p = make_params(3, 1, 1, 1)
        assert p.lam[0] == pytest.approx(float(mp_lambda(3, 1)), rel=1e-14)
        assert p.lam[0] == pytest.approx(0.930605, abs=5e-7)
        assert p.lam_star[0] == pytest.approx(float(mp_lambda(3, 1, star=True)), rel=1e-14)

    @pytest.mark.parametrize(
        "bad",
        [(2, 1, 1, 1), (3, 0, 1, 1), (3, 1, -2, 1), (3, 1, 1, 0.0), (3.5, 1, 1, 1)],
    )
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(DomainError):
            make_params(*bad)

    @given(params_strategy)
    @settings(max_examples=100, deadline=None)
    def test_lambda_star_below_lambda(self, quad):
        p = make_params(*quad)
        assert p.lam_star[0] < p.lam[0]
        assert p.lam_star[1] < p.lam[1]
        # exact identities among the derived exponents
        assert p.two_star == 2.0 * p.p
        assert p.delta == (p.N - 2) / 2.0

    def test_sphere_area_half_integer_gamma(self):
        # closed form sigma_{N-1} = 2 pi^{N/2} / Gamma(N/2)
        for N in range(3, 12):
            p = make_params(N, 1, 1, 1)
            exact = float(2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2))
            assert p.sphere_area == pytest.approx(exact, rel=1e-13)


class TestSolveCoupling:
    def test_n4_symmetric_beta2_closed_form(self):
        p = make_params(4, 1, 1, 2)
        sol = solve_coupling(p)
        assert sol.k == pytest.approx(1 / math.sqrt(3), rel=1e-14)
        assert sol.l == sol.k
        assert max(abs(r) for r in sol.residuals) < 1e-12

    def test_n4_asymmetric_closed_form(self):
        # For N=4 the ratio equation is quadratic: k^2 = (mu2-beta)/(mu1 mu2 - beta^2).
        for mu1, mu2, beta in [(1.0, 2.0, 0.5), (1.0, 2.0, 6.0)]:
            p = make_params(4, mu1, mu2, beta)
            sol = solve_coupling(p)
            k2 = (mu2 - beta) / (mu1 * mu2 - beta * beta)
            assert sol.k**2 == pytest.approx(k2, rel=1e-12)
            assert max(abs(r) for r in sol.residuals) < 1e-12

    def test_symmetric_closed_form_any_n(self):
        for N in (3, 4, 5, 6):
            for beta in (0.5, 1.0, 3.0):
                p = make_params(N, 1.0, 1.0, beta)
                sol = solve_coupling(p)
                expected = (1.0 + beta) ** (-1.0 / (2 * p.p - 2))
                assert sol.k == pytest.approx(expected, rel=1e-14)
                assert sol.l == sol.k

    def test_n3_symmetric_value(self):
        sol = solve_coupling(make_params(3, 1, 1, 1))
        assert sol.k == pytest.approx(2 ** -0.25, rel=1e-14)
        assert sol.k == pytest.approx(0.840896, abs=5e-7)

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
    def test_n4_between_coefficients_has_no_solution(self, beta):
        p = make_params(4, 1.0, 2.0, beta)
        with pytest.raises(NoPositiveSolution):
            solve_coupling(p)

    def test_n5_asymmetric_unique_root_oracle(self):
        p = make_params(5, 1.0, 2.0, 1.0)
        # Oracle: dense log-grid scan showing exactly one bracketed root.
        grid = np.logspace(-8, 8, 200001)
        g = (p.mu2 * grid ** (2 * p.p - 2) + p.beta * grid ** (p.p - 2)
             - p.beta * grid**p.p - p.mu1)
        flips = np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
        assert flips == 1
        sol = solve_coupling(p)
        assert max(abs(r) for r in sol.residuals) < 1e-12
        s = sol.l / sol.k
        i = np.searchsorted(grid, s)
        assert g[i - 1] * g[i] < 0  # the returned ratio sits in the scanned bracket

    def test_pair_out_of_float_range_is_a_domain_error(self):
        # k = (1/(mu + beta))^((N-2)/4) is about 1e-312 here, and k^(p-2)
        # overflows.
        with pytest.raises(DomainError, match="out of float range"):
            solve_coupling(make_params(200, 1e6, 1e6, 1e6))

    @pytest.mark.parametrize("mu1, mu2", [(1.0, 1e6), (1e3, 1e6), (1e6, 1.0), (1e6, 1e3)])
    def test_a_residual_that_overflows_is_a_domain_error(self, mu1, mu2):
        # The pair itself is finite, about 3e-308 and 5e-308, but the power
        # a^(p-2) of the smaller amplitude overflows a float product in the
        # residual, to inf and not to an OverflowError.  These are the only
        # sets of N = 10, 20, 50, 100, 200 over mu1, mu2, beta in {1e-6,
        # 1e-3, 1, 1e3, 1e6} that missed the residual tolerance.
        with pytest.raises(DomainError, match="out of float range"):
            solve_coupling(make_params(200, mu1, mu2, 1e6))

    @given(params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_residuals_below_tolerance(self, quad):
        p = make_params(*quad)
        sol = solve_coupling(p)
        assert sol.k > 0 and sol.l > 0
        assert max(abs(r) for r in sol.residuals) < ROOT_RESIDUAL_TOL

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_n4_symmetric_every_beta(self, beta):
        p = make_params(4, 1.0, 1.0, beta)
        sol = solve_coupling(p)
        assert sol.k == pytest.approx((1.0 + beta) ** -0.5, rel=1e-13)


#: Sets whose ratio equation has three positive roots; the N = 6 one is
#: test_07's, whose cylinder therefore has three amplitude pairs too.
THREE_ROOT_SETS = [(3, 1.0, 1.0, 3.0), (3, 0.1, 0.1, 1.0), (3, 1.0, 1.2, 3.0),
                   (5, 1.0, 1.0, 0.5), (6, 1.0, 1.0, 0.3)]
#: Most ulps between a float ratio and the 30-digit root it stands for
#: (2.2 measured on THREE_ROOT_SETS).
RATIO_ULPS = 3.0


def mp_ratio_root(quad, lo, hi):
    """30-digit root of g(s) = mu2 s^(2p-2) + beta s^(p-2) - beta s^p - mu1,
    exact p = N/(N-2), by a bracketing solver on (lo, hi), whose ends it
    checks to differ in sign."""
    N, mu1, mu2, beta = quad
    with mpmath.workdps(30):
        p = mpmath.mpf(N) / (N - 2)
        g = lambda s: mu2 * s ** (2 * p - 2) + beta * s ** (p - 2) - beta * s**p - mu1
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        assert g(lo) * g(hi) < 0
        return mpmath.findroot(g, (lo, hi), solver="anderson")


class TestRatioRoots:
    @pytest.mark.parametrize("quad", THREE_ROOT_SETS)
    def test_three_roots_against_mp_oracle(self, quad):
        # Three distinct verified roots are all of them: g is a sum of four
        # powers, which has at most three positive roots.
        roots = _ratio_roots(make_params(*quad))
        assert len(roots) == 3 and roots[0] < roots[1] < roots[2]
        for s in roots:
            exact = mp_ratio_root(quad, s * (1 - 2.0**-20), s * (1 + 2.0**-20))
            assert abs(mpmath.mpf(s) - exact) <= RATIO_ULPS * math.ulp(s)

    def test_pair_is_the_ratio_nearest_one(self):
        # The asymmetric set's ratios are 0.379793, 1.14134 and 1.95981.
        sol = solve_coupling(make_params(3, 1.0, 1.2, 3.0))
        assert sol.l / sol.k == pytest.approx(1.14134, abs=5e-6)
        for quad in THREE_ROOT_SETS:
            if quad[1] == quad[2]:
                sol = solve_coupling(make_params(*quad))
                assert sol.l == sol.k

    @pytest.mark.parametrize("N", [3, 5, 6, 7])
    def test_extreme_coefficients_solve(self, N):
        # Coefficients six orders apart put roots far outside (1e-8, 1e8).
        values = [1e-6, 1e-3, 1.0, 1e3, 1e6]
        for mu1, mu2, beta in itertools.product(values, repeat=3):
            p = make_params(N, mu1, mu2, beta)
            assert len(_ratio_roots(p)) in (1, 3)
            sol = solve_coupling(p)
            assert sol.k > 0 and sol.l > 0
            assert max(abs(r) for r in sol.residuals) <= ROOT_RESIDUAL_TOL
            assert min(cylinder_amplitudes(p)) > 0


class TestCylinder:
    def test_n3_symmetric_closed_form(self):
        p = make_params(3, 1, 1, 1)
        state, energy = cylinder_state(p)
        c = (1.0 / 8.0) ** 0.25
        assert state.w1 == pytest.approx(c, rel=1e-13)
        assert state.w2 == pytest.approx(c, rel=1e-13)
        assert state.w1 == pytest.approx(0.594604, abs=5e-7)
        exact = float(-(mpmath.mpf(1) / 12) / mpmath.sqrt(2))
        assert energy == pytest.approx(exact, rel=1e-13)
        assert energy == pytest.approx(-0.0589256, abs=5e-8)

    def test_psi_matches_energy_exactly(self, p3):
        state, energy = cylinder_state(p3)
        assert abs(psi(p3, state) - energy) < 10 * np.finfo(float).eps

    @given(params_strategy)
    @settings(max_examples=40, deadline=None)
    def test_inside_lemma_box(self, quad):
        p = make_params(*quad)
        state, energy = cylinder_state(p)
        assert 0 < state.w1 < p.lam_star[0] <= p.lam[0]
        assert 0 < state.w2 < p.lam_star[1] <= p.lam[1]
        assert energy < 0
        assert abs(psi(p, state) - energy) < 1e-14 * max(1.0, abs(energy))


class TestBubble:
    def test_apex_value_n3(self, p3):
        u, v = bubble_radial(p3, 1.0, 0.0)
        k = solve_coupling(p3).k
        oracle = float(mpmath.mpf(3) ** mpmath.mpf("0.25"))
        assert oracle == pytest.approx(1.316074, abs=5e-7)
        assert u == pytest.approx(k * oracle, rel=1e-14)
        assert v == u

    def test_far_field_asymptotics(self):
        for N, eps in [(3, 1.0), (5, 0.7)]:
            p = make_params(N, 1, 1, 1)
            sol = solve_coupling(p)
            r = 1e8
            u, _ = bubble_radial(p, eps, r)
            limit = sol.k * bubble_amplitude(N) * eps ** ((N - 2) / 2.0)
            assert u * r ** (N - 2) == pytest.approx(limit, rel=1e-10)

    def test_fowler_image_at_origin_time(self, p3):
        state = bubble_fowler(p3, 1.0, 0.0)
        k = solve_coupling(p3).k
        oracle = float(mpmath.mpf(3) ** mpmath.mpf("0.25") / mpmath.sqrt(2))
        assert oracle == pytest.approx(0.930605, abs=5e-7)
        assert state.w1 == pytest.approx(k * oracle, rel=1e-14)
        assert state.dw1 == 0.0

    def test_fowler_energy_vanishes_along_orbit(self, p3):
        vals = [abs(psi(p3, bubble_fowler(p3, 1.0, t))) for t in np.linspace(-12, 12, 100)]
        assert max(vals) < 1e-10

    def test_eps_translates_time(self, p3):
        # w(t; eps) is the eps=1 profile shifted by ln eps.
        eps = 2.5
        a = bubble_fowler(p3, eps, 1.0)
        b = bubble_fowler(p3, 1.0, 1.0 + math.log(eps))
        assert a.w1 == pytest.approx(b.w1, rel=1e-14)
        assert a.dw1 == pytest.approx(b.dw1, rel=1e-14)

    def test_scalar_profile_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            scalar_bubble_radial(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            scalar_bubble_radial(3, 1.0, -1.0)
        # 2 would divide by zero, 3.5 is no dimension, 258 overflows the
        # prefactor and 400 also the sphere area.
        for N in (2, 3.5, 258, 400):
            with pytest.raises(DomainError, match="dimension N"):
                scalar_bubble_radial(N, 1.0, 1.0)

    @pytest.mark.parametrize("N", [1, 2, 3.5, 258, math.inf, math.nan])
    def test_amplitude_rejects_bad_dimensions(self, N):
        # N = 1 would give a complex number.
        with pytest.raises(DomainError, match="dimension N"):
            bubble_amplitude(N)

    def test_last_finite_prefactor(self):
        assert bubble_amplitude(257) == (257 * 255.0) ** (255.0 / 4.0)
        with pytest.raises(DomainError, match="N=258 overflows the bubble prefactor"):
            bubble_amplitude(258)

    def test_params_do_not_need_the_prefactor(self):
        # Only the bubble helpers use it, so make_params takes N past 258.
        assert make_params(260, 1, 1, 1).N == 260
        assert make_params(300, 100, 100, 1).N == 300

    def test_propagates_no_positive_solution(self):
        p = make_params(4, 1.0, 2.0, 1.5)
        with pytest.raises(NoPositiveSolution):
            bubble_radial(p, 1.0, 1.0)
