import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from selfnorm import mixture
from selfnorm.constants import DomainError
from selfnorm.mixture import (BracketError, Density, GaussianMixture, PointMasses,
                              RobbinsSiegmund, boundary, crossing_bound,
                              general_r_asymptotic, log_psi, measure_from_json,
                              measure_to_json, mv_boundary_test, mv_statistic,
                              psi, rs_asymptotic)

C_2SQRTPI = 2.0 * math.sqrt(math.pi)


def atom_boundary(v, c, lam, w, r=2.0):
    return (math.log(c / w) + lam**r * v / r) / lam


class TestPsi:
    def test_single_atom_closed_form(self):
        F = PointMasses(atoms=((0.3, 2.0),))
        for u, v in ((0.0, 1.0), (5.0, 10.0), (-3.0, 0.5)):
            want = 2.0 * math.exp(0.3 * u - 0.09 * v / 2.0)
            assert psi(u, v, F) == pytest.approx(want, rel=1e-12)

    def test_atom_sum(self):
        F = PointMasses(atoms=((0.1, 1.0), (0.4, 0.5)))
        want = math.exp(0.1 * 2 - 0.01 * 3 / 2) + 0.5 * math.exp(0.4 * 2 - 0.16 * 3 / 2)
        assert psi(2.0, 3.0, F) == pytest.approx(want, rel=1e-12)

    def test_small_v_limit_is_total_mass(self):
        F = PointMasses(atoms=((0.2, 1.5), (0.5, 0.5)))
        assert psi(0.0, 1e-12, F) == pytest.approx(F.total_mass, rel=1e-10)
        D = Density(f=lambda lam: np.ones_like(lam), lambda0=1.0)
        assert psi(0.0, 1e-10, D) == pytest.approx(1.0, rel=1e-8)

    def test_rs_golden_value(self):
        # independent high-precision quadrature oracle (substituted integrand
        # with an analytic tail), frozen
        F = RobbinsSiegmund(1.0)
        assert psi(0.0, 1.0, F) == pytest.approx(1.44001136121338569, rel=1e-9)

    def test_rs_golden_value_to_fixed_rule_precision(self):
        # the same frozen oracle, held to the accuracy of the fixed
        # Gauss-Legendre rule rather than the adaptive target
        F = RobbinsSiegmund(1.0)
        assert psi(0.0, 1.0, F) == pytest.approx(1.44001136121338569, rel=1e-13)

    @pytest.mark.parametrize("F", [
        PointMasses(atoms=((0.1, 1.0), (0.4, 0.5))),
        RobbinsSiegmund(1.0),
        Density(f=lambda lam: np.ones_like(lam), lambda0=1.0),
    ], ids=["point_masses", "robbins_siegmund", "density"])
    def test_slope_is_u_derivative(self, F):
        for u, v in ((-3.0, 0.5), (2.0, 10.0), (40.0, 1e3)):
            h = 1e-4 * max(1.0, abs(u))
            up, _ = log_psi(u + h, v, F)
            down, _ = log_psi(u - h, v, F)
            _, slope = log_psi(u, v, F)
            assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-6)

    def test_broadcasts_over_u_and_v(self):
        F = RobbinsSiegmund(1.0)
        us, vs = np.array([[0.0], [3.0]]), np.array([1.0, 50.0, 1e4])
        lp, slope = log_psi(us, vs, F)
        assert lp.shape == slope.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one, one_slope = log_psi(us[i, 0], vs[j], F)
                assert (lp[i, j], slope[i, j]) == (one, one_slope)

    def test_rs_total_mass(self):
        assert RobbinsSiegmund(1.0).total_mass == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert RobbinsSiegmund(2.0).total_mass == pytest.approx(
            math.log(2.0) ** -2.0 / 2.0, rel=1e-15)

    def test_strictly_increasing_in_u(self):
        F = RobbinsSiegmund(1.0)
        us = np.linspace(-5.0, 20.0, 12)
        vals = [psi(float(u), 4.0, F) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_strictly_decreasing_in_v(self):
        F = RobbinsSiegmund(1.0)
        vs = np.logspace(-2, 4, 10)
        vals = [psi(1.0, float(v), F) for v in vs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBoundary:
    def test_single_atom_matches_closed_form(self):
        F = PointMasses(atoms=((0.3, 2.0),))
        for v, c in ((1.0, 5.0), (100.0, 2.0), (1e6, 50.0)):
            want = atom_boundary(v, c, 0.3, 2.0)
            assert abs(boundary(v, c, F) - want) <= 1e-8 * (1.0 + abs(want))

    def test_round_trip(self):
        F = RobbinsSiegmund(1.0)
        for v in (10.0, 1e3, 1e6):
            for c in (2.0, 20.0):
                u = boundary(v, c, F)
                assert abs(psi(u, v, F) - c) <= 1e-8 * c

    def test_round_trip_order_r(self):
        F = RobbinsSiegmund(1.0)
        u = boundary(1e4, 5.0, F, r=1.5)
        assert abs(psi(u, 1e4, F, r=1.5) - 5.0) <= 1e-8 * 5.0

    def test_midpoint_concavity(self):
        F = RobbinsSiegmund(1.0)
        vs = np.geomspace(10.0, 1e8, 15)
        b = np.array([boundary(float(v), 10.0, F) for v in vs])
        mids = np.array([boundary(0.5 * (float(vs[i]) + float(vs[i + 2])), 10.0, F)
                         for i in range(len(vs) - 2)])
        assert np.all(mids >= 0.5 * (b[:-2] + b[2:]) - 1e-9 * np.abs(mids))

    def test_slope_limit_single_atom(self):
        # beta(v)/v approaches lam/2 when the support infimum is lam
        F = PointMasses(atoms=((0.3, 1.0),))
        assert boundary(1e10, 5.0, F) / 1e10 == pytest.approx(0.15, rel=1e-6)

    def test_uniform_density_growth(self):
        # bounded density with positive infimum: beta ~ sqrt(v log v)
        D = Density(f=lambda lam: np.ones_like(lam), lambda0=1.0)
        ratios = [boundary(v, 10.0, D) / math.sqrt(v * math.log(v))
                  for v in (1e4, 1e6, 1e8)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert abs(ratios[-1] - 1.0) < 0.15

    def test_engine_regression_against_asymptotics(self):
        # frozen ratios, verified independently with high-precision quadrature
        # and bisection; regression-guards the quadrature + root-finder pair
        F = RobbinsSiegmund(1.0)
        got6 = boundary(1e6, C_2SQRTPI, F) / rs_asymptotic(1e6, C_2SQRTPI, 1.0)
        got8 = boundary(1e8, C_2SQRTPI, F) / rs_asymptotic(1e8, C_2SQRTPI, 1.0)
        got_r = boundary(1e10, C_2SQRTPI, F, r=1.5) / general_r_asymptotic(1e10, 1.5)
        assert got6 == pytest.approx(0.8983209309291558, rel=1e-9)
        assert got8 == pytest.approx(0.9285842734315176, rel=1e-9)
        assert got_r == pytest.approx(1.2231034869333133, rel=1e-9)


def reference_rs(u, v, delta, r):
    """log psi and its u-derivative for the Robbins-Siegmund density by
    adaptive quadrature in w = log(1/lambda), split around the peak of the
    integrand, plus the tail mass past 40 + log max(|u|, v, 1), where the
    exponential factor is 1 to machine precision."""
    lam_star = min((u / v) ** (1.0 / (r - 1.0)), math.exp(-2.0)) if u > 0 else 0.0
    m = max(lam_star * u - lam_star**r * v / r, 0.0)
    big_w = 40.0 + math.log(max(abs(u), v, 1.0))
    w_star = -math.log(lam_star) if lam_star > 0 else big_w

    def g(w, power):
        lam = math.exp(-w)
        return lam**power * math.exp(lam * u - lam**r * v / r - m) / (w * math.log(w) ** (1.0 + delta))

    pts = sorted({2.0, big_w} | {w_star + k for k in (-4.0, -1.0, 0.0, 1.0, 4.0)
                                  if 2.0 < w_star + k < big_w})
    total, moment = (math.fsum(integrate.quad(g, a, b, args=(power,), epsabs=0.0, epsrel=1e-13,
                                              limit=500)[0] for a, b in zip(pts, pts[1:]))
                     for power in (0, 1))
    total += math.exp(-m) * math.log(big_w) ** -delta / delta
    return m + math.log(total), moment / total


def reference_log_psi_atoms(u, v, atoms, r):
    exps = [math.log(w) + lam * u - lam**r * v / r for lam, w in atoms]
    m = max(exps)
    return m + math.log(math.fsum(math.exp(e - m) for e in exps))


def reference_root(f, near):
    """brentq on f in a bracket of relative width 1e-6 around `near`; a root
    outside it makes brentq raise."""
    half = 1e-6 * (1.0 + abs(near))
    return optimize.brentq(f, near - half, near + half, xtol=1e-13, rtol=1e-15,
                           maxiter=200)


class TestRobbinsSiegmundRule:
    """The fixed rule of `RobbinsSiegmund.log_psi`: 1/4-wide panels up to w_s,
    4-wide panels from w_s to W, and the closed-form tail past W."""

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("r", [2.0, 1.5])
    @pytest.mark.parametrize("v", [1e-3, 1.0, 30.0, 1e3, 1e5, 1.6e6, 1e8])
    def test_matches_adaptive_quadrature(self, v, r, delta):
        # on both sides of the root beta, where the peak of the integrand
        # moves across the fine panels and the 4-wide ones start past it, and
        # at u = 0, where Newton starts and w_s is 6 for v < e^(2r)
        F = RobbinsSiegmund(delta)
        beta = boundary(v, 10.0 * F.total_mass, F, r)
        for u in (-beta, 0.0, beta / 2.0, beta, 2.0 * beta):
            lp, slope = log_psi(u, v, F, r)
            want_lp, want_slope = reference_rs(u, v, delta, r)
            assert abs(lp - want_lp) <= 1e-12 * max(1.0, abs(want_lp)), (u, lp, want_lp)
            assert slope == pytest.approx(want_slope, rel=1e-12), (u, slope, want_slope)

    @settings(max_examples=40, deadline=None)
    @given(delta=st.sampled_from([0.5, 1.0, 2.0]), r=st.sampled_from([2.0, 1.5, 1.1]),
           log_v=st.lists(st.floats(-4.0, 8.0), min_size=14, max_size=14),
           z=st.lists(st.floats(-4.0, 4.0), min_size=16, max_size=16),
           order=st.permutations(range(16)))
    def test_row_alone_is_the_row_in_a_batch(self, delta, r, log_v, z, order):
        # v spans 1e-4..1e8 and u takes both signs, so the slab mixes rows
        # whose fine and coarse panels split at different w_s and end at
        # different W; alone, a row also reads node constants built to a
        # shorter length
        F = RobbinsSiegmund(delta)
        v = 10.0 ** np.array([-4.0, 8.0] + log_v)[list(order)]
        z = np.array([-abs(z[0]) - 0.1, abs(z[1]) + 0.1] + z[2:])
        u = z * np.sqrt(v + 1.0) * 3.0
        lp, slope = log_psi(u, v, F, r)
        for i in range(16):
            one_lp, one_slope = log_psi(u[i], v[i], F, r)
            assert (one_lp, one_slope) == (lp[i], slope[i]), (u[i], v[i])


class TestBoundaryArray:
    CASES = [(RobbinsSiegmund(1.0), 10.0 / math.log(2.0), 2.0),
             (RobbinsSiegmund(0.5), 2.0, 1.5),
             (PointMasses(atoms=((0.3, 0.5), (1.0, 0.5))), 5.0, 2.0)]

    @pytest.mark.parametrize("F, c, r", CASES, ids=["rs", "rs_order_r", "point_masses"])
    def test_batch_invariance(self, F, c, r):
        # 37 v's across several row slabs and panel counts: each element is the
        # same bits alone, in the batch, reversed, and in a 2-D array
        vs = np.geomspace(1e-4, 1e12, 37)
        batch = boundary(vs, c, F, r)
        assert batch.shape == vs.shape
        for v, b in zip(vs, batch):
            assert boundary(float(v), c, F, r) == b
        assert np.array_equal(boundary(vs[::-1], c, F, r)[::-1], batch)
        square = np.geomspace(1e-4, 1e12, 36).reshape(6, 6)
        assert np.array_equal(boundary(square, c, F, r),
                              boundary(square.ravel(), c, F, r).reshape(6, 6))

    def test_scalar_in_float_out(self):
        F = RobbinsSiegmund(1.0)
        assert isinstance(boundary(10.0, 5.0, F), float)
        assert boundary(np.array([]), 5.0, F).shape == (0,)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_rs_matches_adaptive_reference(self, delta, r):
        F = RobbinsSiegmund(delta)
        vs = np.array([1e-4, 1.0, 1e4, 1e10, 1e20])
        # c = 1e150 puts a layer of width ~1/(lambda0 u) at w = 2 for small v
        for c in (0.5 * F.total_mass, 10.0 * F.total_mass, 1e150):
            got = boundary(vs, c, F, r)
            for v, u in zip(vs, got):
                want = reference_root(
                    lambda x: reference_rs(x, v, delta, r)[0] - math.log(c), u)
                assert u == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_point_masses_match_reference(self):
        atoms = ((0.3, 0.5), (1.0, 0.5))
        F = PointMasses(atoms=atoms)
        vs = np.geomspace(1e-4, 1e8, 13)
        for c in (0.4, 5.0, 1e3):
            got = boundary(vs, c, F)
            for v, u in zip(vs, got):
                want = reference_root(
                    lambda x: reference_log_psi_atoms(x, v, atoms, 2.0) - math.log(c), u)
                assert u == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_density_residual(self):
        D = Density(f=lambda lam: np.ones_like(lam), lambda0=1.0)
        vs = np.array([1e-2, 10.0, 1e4])
        us = boundary(vs, 10.0, D)
        lp, _ = log_psi(us, vs, D)
        assert np.all(np.abs(lp - math.log(10.0)) <= 2e-9)

    def test_unreachable_level_raises(self):
        # psi(u, 1) = 0.05 needs loglog|u| near 20: no double reaches it
        with pytest.raises(BracketError):
            boundary(1.0, 0.05, RobbinsSiegmund(1.0))


class TestAsymptotics:
    def test_rs_reference_term_vanishes(self):
        v = 1e10
        l2 = math.log(math.log(v))
        l3 = math.log(l2)
        want = math.sqrt(2.0 * v * (l2 + 2.5 * l3))
        assert rs_asymptotic(v, C_2SQRTPI, 1.0) == pytest.approx(want, rel=1e-14)

    def test_rs_extra_log_term(self):
        v = 1e10
        base = rs_asymptotic(v, C_2SQRTPI, 1.0)
        bigger = rs_asymptotic(v, 2.0 * C_2SQRTPI, 1.0)
        assert bigger**2 - base**2 == pytest.approx(2.0 * v * math.log(2.0), rel=1e-9)

    def test_rs_domain(self):
        with pytest.raises(DomainError):
            rs_asymptotic(2.0, 1.0, 1.0)

    def test_general_r2_consistency(self):
        v = 1e6
        want = math.sqrt(2.0 * v * math.log(math.log(v)))
        assert general_r_asymptotic(v, 2.0) == pytest.approx(want, rel=1e-14)

    def test_general_r15_value(self):
        v = math.exp(math.exp(2.0))
        want = v ** (2.0 / 3.0) * (1.5 * 2.0 / 0.5) ** (1.0 / 3.0)
        assert general_r_asymptotic(v, 1.5) == pytest.approx(want, rel=1e-14)

    def test_general_domain(self):
        with pytest.raises(DomainError):
            general_r_asymptotic(1.0, 2.0)
        with pytest.raises(DomainError):
            general_r_asymptotic(1e6, 1.0)


class TestCrossingBound:
    def test_values(self):
        F = PointMasses(atoms=((0.2, 0.7),))
        assert crossing_bound(F.total_mass, F) == 1.0
        assert crossing_bound(2.0 * F.total_mass, F) == pytest.approx(0.5, rel=1e-15)
        assert crossing_bound(0.01, F) == 1.0  # capped at a probability

    def test_density_mass(self):
        # f = 1 on (0, 1) has mass 1, by quadrature
        F = Density(f=lambda lam: 1.0 + 0.0 * lam, lambda0=1.0)
        assert crossing_bound(4.0, F) == pytest.approx(0.25, rel=1e-12)


class TestMultivariate:
    def test_empty_state(self):
        G = GaussianMixture(np.eye(2))
        assert mv_statistic(np.zeros(2), np.zeros((2, 2)), G) == 0.0

    def test_scalar_reduction(self):
        G = GaussianMixture(np.eye(1))
        q, a = 0.7, 1.3
        want = 0.5 * (-math.log1p(q) + a * a / (1.0 + q))
        assert mv_statistic(np.array([a]), np.array([[q]]), G) == pytest.approx(want, rel=1e-13)

    def test_hand_value_dim2(self):
        G = GaussianMixture(np.eye(2))
        got = mv_statistic(np.array([1.0, 1.0]), np.eye(2), G)
        assert got == pytest.approx(0.5 * (1.0 - 2.0 * math.log(2.0)), rel=1e-13)

    def test_threshold_equivalence(self):
        rng = np.random.default_rng(5)
        G = GaussianMixture(np.array([[2.0, 0.3], [0.3, 1.0]]))
        for _ in range(50):
            x = rng.standard_normal((2, 4))
            Q = x @ x.T
            s = 2.0 * rng.standard_normal(2)
            c = float(rng.uniform(1.01, 3.0))
            want = mv_statistic(s, Q, G) >= math.log(c)
            assert mv_boundary_test(s, Q, G, c) == want

    def test_zero_state_never_crosses(self):
        G = GaussianMixture(np.eye(3))
        assert not mv_boundary_test(np.zeros(3), np.zeros((3, 3)), G, 1.5)

    def test_invalid_precision(self):
        with pytest.raises(DomainError):
            GaussianMixture(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite

    def test_non_symmetric_precision(self):
        # positive definite in its symmetric part, but not symmetric
        with pytest.raises(DomainError, match="precision must be symmetric"):
            GaussianMixture(np.array([[2.0, 0.5], [0.0, 2.0]]))

    def test_c_must_exceed_one(self):
        G = GaussianMixture(np.eye(2))
        with pytest.raises(DomainError):
            mv_boundary_test(np.zeros(2), np.zeros((2, 2)), G, 1.0)


class TestSerialization:
    def test_point_masses_round_trip(self):
        F = PointMasses(atoms=((0.1, 1.0), (0.4, 0.5)))
        back = measure_from_json(json.dumps(measure_to_json(F)))
        assert isinstance(back, PointMasses)
        assert back.atoms == F.atoms

    def test_rs_round_trip(self):
        obj = measure_to_json(RobbinsSiegmund(1.5))
        assert obj["type"] == "density_rs"
        back = measure_from_json(obj)
        assert isinstance(back, RobbinsSiegmund) and back.delta == 1.5

    def test_gaussian_round_trip(self):
        G = GaussianMixture(np.array([[2.0, 0.3], [0.3, 1.0]]))
        back = measure_from_json(measure_to_json(G))
        assert isinstance(back, GaussianMixture)
        assert np.allclose(back.precision, G.precision)

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            measure_from_json({"type": "nope"})

    EXAMPLES = {"point_masses": {"type": "point_masses", "atoms": [[0.1, 1.0], [0.4, 0.5]]},
                "density_rs": {"type": "density_rs", "delta": 1.5},
                "gaussian": {"type": "gaussian", "precision": [[2.0, 0.3], [0.3, 1.0]]}}

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_json_round_trip(self, kind):
        # every type in the measure table is read and written back key for
        # key by the table-driven pair
        obj = self.EXAMPLES[kind]
        assert set(self.EXAMPLES) == set(mixture._MEASURES)
        m = measure_from_json(json.dumps(obj))
        assert type(m) is mixture._MEASURES[kind]
        assert measure_to_json(m) == obj
        assert json.loads(json.dumps(measure_to_json(m))) == obj


class TestValidation:
    def test_point_masses_invariants(self):
        with pytest.raises(DomainError):
            PointMasses(atoms=((0.0, 1.0),))
        with pytest.raises(DomainError):
            PointMasses(atoms=((0.5, -1.0),))

    def test_rs_delta(self):
        with pytest.raises(DomainError):
            RobbinsSiegmund(0.0)

    def test_density_support(self):
        with pytest.raises(DomainError):
            Density(f=lambda lam: np.ones_like(lam), lambda0=1.0, support_low=2.0)

    def test_boundary_c_positive(self):
        F = PointMasses(atoms=((0.3, 1.0),))
        with pytest.raises(DomainError):
            boundary(1.0, 0.0, F)


@pytest.mark.parametrize("call", [
    lambda: RobbinsSiegmund(math.nan),
    lambda: measure_from_json({"type": "density_rs", "delta": math.nan}),
    lambda: PointMasses(atoms=((math.nan, 1.0),)),
    lambda: PointMasses(atoms=((0.3, math.nan),)),
    lambda: boundary(np.array([10.0]), math.nan, RobbinsSiegmund(1.0)),
    lambda: crossing_bound(math.nan, RobbinsSiegmund(1.0)),
    lambda: rs_asymptotic(math.nan, 10.0, 1.0),
    lambda: rs_asymptotic(1e6, 10.0, math.nan),
    lambda: rs_asymptotic(1e6, 10.0, math.inf),
    lambda: rs_asymptotic(1e6, 10.0, -5.0),
    lambda: rs_asymptotic(1e6, math.inf, 1.0),
    lambda: general_r_asymptotic(math.nan, 2.0),
    lambda: mv_boundary_test(np.zeros(1), np.eye(1), GaussianMixture(np.eye(1)), math.nan),
], ids=["rs_delta", "rs_delta_json", "atom_position", "atom_weight", "boundary_c",
        "crossing_bound_c", "rs_asymptotic_v", "rs_asymptotic_delta", "rs_asymptotic_delta_inf",
        "rs_asymptotic_delta_negative", "rs_asymptotic_c_inf", "general_asymptotic_v",
        "mv_test_c"])
def test_nan_refused(call):
    # a NaN passed each `x <= 0.0` guard: density_rs with delta NaN ended in
    # BracketError
    with pytest.raises(DomainError):
        call()
