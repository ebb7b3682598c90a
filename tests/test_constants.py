import math

import numpy as np
import pytest
from scipy import integrate

from selfnorm import constants
from selfnorm.constants import (DEFAULT_ALPHA, DEFAULT_DELTA, DomainError,
                                LConfig, L_eval, NormalizationError, c_gamma,
                                c_gamma_r, c_r, c_r_gamma_part, c_r_upper_bound,
                                g_eval, gamma_fn, h_of_lambda,
                                l_growth_certificate, l_growth_violations,
                                lil_constants, normalize_L,
                                unnormalized_integral, y_w_and_g_phi)

SQRT2 = math.sqrt(2.0)

# alpha large enough that both growth bounds hold for every y
BIG_ALPHA = math.exp(math.exp(4.0))
# the shift e^{e^e}, too small for the square bound (sup 3.583 at y ~ 2.4e7)
E_E_E = math.exp(math.exp(math.e))


def series_c_gamma(g, terms=2000):
    return math.fsum(g ** (j - 2) / j for j in range(2, terms + 2))


class TestCGamma:
    def test_limit_at_zero(self):
        assert c_gamma(0.0) == 0.5

    @pytest.mark.parametrize("g", [0.1 * k for k in range(1, 10)])
    def test_matches_series(self, g):
        assert c_gamma(g) == pytest.approx(series_c_gamma(g), abs=1e-12)

    def test_closed_form_at_half(self):
        assert c_gamma(0.5) == pytest.approx(-(0.5 + math.log(0.5)) / 0.25, rel=1e-15)

    def test_strictly_increasing(self):
        gs = np.linspace(0.0, 0.999, 200)
        vals = [c_gamma(float(g)) for g in gs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_continuity_at_series_switch(self):
        lo, hi = c_gamma(1e-4 - 1e-9), c_gamma(1e-4 + 1e-9)
        assert abs(hi - lo) < 1e-8

    def test_diverges_logarithmically_near_one(self):
        # C_gamma ~ -log(1 - gamma) as gamma -> 1
        assert c_gamma(1.0 - 1e-6) > 10.0
        assert c_gamma(1.0 - 1e-12) > c_gamma(1.0 - 1e-6) + 10.0

    @pytest.mark.parametrize("g", [-0.1, 1.0, 1.5, math.nan])
    def test_domain(self, g):
        with pytest.raises(DomainError):
            c_gamma(g)


class TestCRGamma:
    @pytest.mark.parametrize("g", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_r2_reduces_to_c_gamma(self, g):
        assert c_r_gamma_part(g, 2.0) == pytest.approx(c_gamma(g), rel=1e-15)

    def test_closed_form(self):
        want = -(0.5 + math.log(0.5)) / 0.5**1.5
        assert c_r_gamma_part(0.5, 1.5) == pytest.approx(want, rel=1e-15)

    def test_small_gamma_limit(self):
        assert c_r_gamma_part(1e-6, 2.0) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("g", np.geomspace(1e-12, 0.9, 49).tolist())
    def test_r2_is_c_gamma_bit_for_bit(self, g):
        # one formula for C_gamma on either side of the series' 1e-4 switch
        assert c_r_gamma_part(g, 2.0).hex() == c_gamma(g).hex()

    @pytest.mark.parametrize("r", [2.0, 1.5])
    @pytest.mark.parametrize("g", [1e-6, 1e-9, 1e-12])
    def test_small_gamma_keeps_its_digits(self, g, r):
        # gamma^(2-r) sum_{j>=2} gamma^(j-2)/j; the closed form cancels to
        # relative errors of 1.9e-10 at 1e-6 and 4.8e-5 at 1e-12
        want = g ** (2.0 - r) * math.fsum(g ** (j - 2) / j for j in range(2, 8))
        assert c_r_gamma_part(g, r) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("g,r", [(0.0, 2.0), (1.0, 2.0), (0.5, 1.0), (0.5, 2.5)])
    def test_domain(self, g, r):
        with pytest.raises(DomainError):
            c_r_gamma_part(g, r)


class TestCR:
    def test_r2_is_half(self):
        assert c_r(2.0) == pytest.approx(0.5, abs=1e-6)

    def test_upper_bound_r15(self):
        assert c_r_upper_bound(1.5) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert c_r(1.5) <= 1.0 / 3.0 + 1e-12

    def test_upper_bound_convention_at_two(self):
        # (r-1)^(r-1) (2-r)^(2-r) / r with 0^0 = 1
        assert c_r_upper_bound(2.0) == 0.5

    @pytest.mark.parametrize("r", [1.1, 1.25, 1.5, 1.75, 2.0])
    def test_defining_inequality(self, r):
        c = c_r(r)
        x = np.logspace(-8, 2, 5000)
        assert np.all(np.exp(x - c * x**r) <= 1.0 + x + 1e-12 * (1.0 + x))

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_smaller_c_fails(self, r):
        c = 0.98 * c_r(r)
        x = np.logspace(-8, 2, 5000)
        assert np.any(np.exp(x - c * x**r) > 1.0 + x)

    def test_domain(self):
        for r in (1.0, 2.1):
            with pytest.raises(DomainError):
                c_r(r)

    def test_memoized_values_are_bit_equal(self):
        # float.hex of each c_r as computed before it was memoized
        pinned = {1.1: "0x1.42cbaddd1b96dp-1", 1.5: "0x1.46a9dea4a21dbp-2",
                  1.75: "0x1.45c4ae7ecdb96p-2", 2.0: "0x1.0000000000000p-1"}
        c_r.cache_clear()
        for _ in range(3):
            assert {r: c_r(r).hex() for r in pinned} == pinned
        assert c_r.cache_info().misses == len(pinned)


class TestCGammaR:
    def test_is_pointwise_max(self):
        assert c_gamma_r(0.5, 2.0) == max(c_r(2.0), c_gamma(0.5))
        assert c_gamma_r(0.5, 2.0) == pytest.approx(c_gamma(0.5), rel=1e-12)

    def test_small_gamma_r2(self):
        assert c_gamma_r(1e-6, 2.0) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("g", [1e-4, 0.01, 0.1, 0.2, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("r", [1.1, 1.2, 1.5, 1.9, 2.0])
    def test_max_bit_for_bit(self, g, r):
        # points on both sides of c_r's cap: (0.1, 1.5) runs c_r, (0.5, 1.5)
        # does not
        assert c_gamma_r(g, r).hex() == max(c_r(r), c_r_gamma_part(g, r)).hex()

    @pytest.mark.parametrize("g, r", [(0.5, 1.5)] + [(g, 2.0) for g in
                                                      (1e-4, 0.01, 0.5, 0.9)])
    def test_skips_c_r_above_its_cap(self, g, r, monkeypatch):
        def refuse(r):
            raise AssertionError("c_r computed")
        monkeypatch.setattr(constants, "c_r", refuse)
        assert c_gamma_r(g, r) == c_r_gamma_part(g, r)

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("r", [1.2, 1.5, 2.0])
    def test_defining_inequality_from_minus_gamma(self, g, r):
        c = c_gamma_r(g, r)
        x = np.concatenate([np.linspace(-g, 0.0, 2000),
                            np.logspace(-8, 2, 3000)])
        lhs = np.exp(x - c * np.abs(x) ** r)
        assert np.all(lhs <= 1.0 + x + 1e-10 * (1.0 + np.abs(x)))


class TestHOfLambda:
    @pytest.mark.parametrize("lam", [0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_residual(self, lam):
        h = h_of_lambda(lam)
        res = h - math.log1p(h) - lam * lam
        assert abs(res) < 1e-12 * max(1.0, lam * lam)

    def test_value_at_one(self):
        assert h_of_lambda(1.0) == pytest.approx(2.14619322062058, abs=1e-10)

    def test_strictly_increasing(self):
        lams = np.logspace(-3, 1, 50)
        hs = [h_of_lambda(float(l)) for l in lams]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            h_of_lambda(0.0)


class TestLilConstants:
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_defining_identity(self, lam):
        k = lil_constants(lam)
        lhs = k.gamma * k.b_lambda / lam - k.gamma**2 * c_gamma(k.gamma) / lam**2
        assert lhs == pytest.approx(1.0, abs=1e-10)

    def test_b_lambda_small_lambda_limit(self):
        assert abs(lil_constants(0.001).b_lambda - SQRT2) < 1e-3

    @pytest.mark.parametrize("lam", [0.001, 0.1, 1.0, 5.0])
    def test_gamma_in_unit_interval(self, lam):
        k = lil_constants(lam)
        assert 0.0 < k.gamma < 1.0
        assert k.b_lambda == pytest.approx(k.h / lam, rel=1e-15)
        assert k.a_lambda == pytest.approx(lam / (k.gamma * c_gamma(k.gamma)), rel=1e-15)

    def test_b_lambda_increasing_and_above_sqrt2(self):
        lams = np.logspace(-3, 1, 30)
        bs = [lil_constants(float(l)).b_lambda for l in lams]
        assert all(b > a for a, b in zip(bs, bs[1:]))
        assert all(b >= SQRT2 - 1e-6 for b in bs)


class TestLNormalization:
    def test_default_integral_golden(self):
        beta = 2.0 * unnormalized_integral(E_E_E, 1.0)
        assert beta == pytest.approx(2.72612588701258254698, rel=1e-9)

    def test_round_trip(self):
        # int_1^inf dx/(x L(x)) = 1/2 by a quadrature independent of the
        # closed-form split: L_eval in s = log x up to S = log a + 60, where
        # L(e^s) = beta s log s (loglog s)^(1+delta) to relative e^-60, and
        # the exact tail (loglog S)^-delta / (delta beta) beyond it
        cfg = normalize_L(BIG_ALPHA, 1.0)
        S = math.log(cfg.alpha) + 60.0
        pts = np.linspace(0.0, S, 41)
        head = sum(integrate.quad(lambda s: 1.0 / L_eval(math.exp(s), cfg), a, b,
                                  epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(pts[:-1], pts[1:]))
        tail = math.log(math.log(S)) ** -cfg.delta / (cfg.delta * cfg.beta)
        assert head + tail == pytest.approx(0.5, rel=1e-10)

    def test_quadrature_error_estimate_is_checked(self, monkeypatch):
        # a quadrature that reports a large error must not yield a config
        # constants imports scipy.integrate at the call, so the patch is seen
        quad = integrate.quad
        monkeypatch.setattr(integrate, "quad",
                            lambda *a, **k: (quad(*a, **k)[0], 1e-6))
        with pytest.raises(NormalizationError, match="quadrature error"):
            normalize_L(BIG_ALPHA, 1.0)

    def test_default_alpha_fails_growth_check(self):
        # the square growth bound is violated for the shift e^{e^e}; the
        # constructor refuses rather than returning a bad config
        with pytest.raises(NormalizationError):
            normalize_L(E_E_E, 1.0)

    def test_growth_violations_lists_square_failures(self):
        beta = 2.0 * unnormalized_integral(E_E_E, 1.0)
        cfg = LConfig(alpha=E_E_E, delta=1.0, beta=beta)
        bad = l_growth_violations(cfg)
        assert bad and all(v[0] == "square" for v in bad)

    def test_defaults_normalize(self):
        cfg = normalize_L()
        assert (cfg.alpha, cfg.delta) == (DEFAULT_ALPHA, DEFAULT_DELTA)
        assert l_growth_violations(cfg) == []

    def test_default_square_sup_below_three(self):
        cert = l_growth_certificate(DEFAULT_ALPHA, DEFAULT_DELTA)
        assert cert.square == pytest.approx(2.8967, abs=1e-4)
        assert math.exp(cert.square_log_y) == pytest.approx(6.6e24, rel=0.02)
        assert cert.square <= cert.square_upper < 3.0
        assert cert.elasticity <= cert.elasticity_upper < 1.0

    def test_square_violation_beyond_old_grid(self):
        # the old 37-point grid stopped at y = 1e12 and passed this shift; the
        # ratio peaks at 3.152 near y = 3.5e13
        cfg = LConfig(alpha=1e6 * E_E_E, delta=1.0, beta=1.0)
        bad = l_growth_violations(cfg)
        assert [v[0] for v in bad] == ["square"]
        assert bad[0][1] == pytest.approx(3.5e13, rel=0.02)
        assert bad[0][2] == pytest.approx(3.1517, abs=1e-4)

    @pytest.mark.parametrize("alpha", [E_E_E, 1e6 * E_E_E, BIG_ALPHA, 1e300])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_certificate_brackets_dense_scan(self, alpha, delta):
        # independent scan in t = log y, far past both peaks
        la = math.log(alpha)

        def log_l(t):
            w1 = np.logaddexp(t, la)
            return np.log(w1 * np.log(w1)) + (1.0 + delta) * np.log(np.log(np.log(w1)))

        t = np.linspace(0.0, 4.0 * la + 200.0, 400_001)
        square = np.exp(log_l(2.0 * t) - log_l(t)).max()
        w1 = np.logaddexp(t - 60.0, la)
        w2 = np.log(w1)
        elastic = (np.exp(t - 60.0 - w1)
                   * (1.0 + 1.0 / w2 + (1.0 + delta) / (w2 * np.log(w2))) / w1).max()
        cert = l_growth_certificate(alpha, delta)
        assert square <= cert.square_upper
        assert cert.square == pytest.approx(square, rel=1e-7)
        assert elastic <= cert.elasticity_upper
        assert cert.elasticity == pytest.approx(elastic, rel=1e-7)

    def test_certificate_domain(self):
        with pytest.raises(DomainError):
            l_growth_certificate(math.exp(math.e), 1.0)
        with pytest.raises(DomainError):
            l_growth_certificate(BIG_ALPHA, 0.0)

    def test_large_shift_integral_matches_direct_quadrature(self):
        # int_1^inf dx/(x l(x+a)) in s = log x without the closed-form split:
        # quadrature up to S = log a + 60, where l(e^s + a) = l(e^s) to
        # relative e^-60, and the exact tail (loglog S)^-delta / delta
        la, delta = math.log(BIG_ALPHA), 1.0

        def f(s):
            w1 = float(np.logaddexp(s, la))
            return 1.0 / (w1 * math.log(w1) * math.log(math.log(w1)) ** (1.0 + delta))

        S = la + 60.0
        pts = np.linspace(0.0, S, 41)
        head = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(pts[:-1], pts[1:]))
        direct = head + math.log(math.log(S)) ** (-delta) / delta
        assert unnormalized_integral(BIG_ALPHA, delta) == pytest.approx(direct, rel=1e-10)

    def test_big_alpha_has_no_violations(self):
        cfg = normalize_L(BIG_ALPHA, 1.0)
        assert l_growth_violations(cfg) == []

    def test_beta_scales_linearly(self):
        cfg = normalize_L(BIG_ALPHA, 1.0)
        double = LConfig(alpha=cfg.alpha, delta=cfg.delta, beta=2.0 * cfg.beta)
        ys = np.logspace(0, 8, 9)
        assert np.allclose(L_eval(ys, double), 2.0 * L_eval(ys, cfg), rtol=1e-15)


class TestLEval:
    def setup_method(self):
        self.cfg = normalize_L(BIG_ALPHA, 1.0)

    def test_monotone(self):
        ys = np.logspace(-6, 12, 100)
        vals = L_eval(ys, self.cfg)
        assert np.all(np.diff(vals) >= 0.0)

    def test_scale_growth_bound(self):
        ys = np.logspace(-6, 12, 37)
        for c in np.logspace(0, 6, 13):
            assert np.all(L_eval(c * ys, self.cfg) <= 3.0 * c * L_eval(ys, self.cfg) * (1 + 1e-12))

    def test_square_growth_bound(self):
        ys = np.logspace(0, 12, 25)
        assert np.all(L_eval(ys**2, self.cfg) <= 3.0 * L_eval(ys, self.cfg) * (1 + 1e-12))

    def test_domain(self):
        with pytest.raises(DomainError):
            L_eval(-1.0, self.cfg)


class TestGEval:
    def test_below_threshold(self):
        assert g_eval(0.5) == 0.0

    def test_at_one(self):
        assert g_eval(1.0) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_at_three(self):
        assert g_eval(3.0) == pytest.approx(math.exp(4.5) / 3.0, rel=1e-14)

    def test_overflow_sentinel(self):
        assert g_eval(1e6) == math.inf


class TestYwGPhi:
    @pytest.mark.parametrize("w", [1.0, 1.5, 3.0, 10.0])
    def test_r2_matches_g(self, w):
        y_w, g = y_w_and_g_phi(w, 2.0)
        assert y_w == w
        assert g == pytest.approx(g_eval(w), rel=1e-13)

    @pytest.mark.parametrize("r", [1.2, 1.5, 2.0])
    def test_w_equals_one(self, r):
        y_w, g = y_w_and_g_phi(1.0, r)
        assert y_w == 1.0
        assert g == pytest.approx(math.exp(1.0 - 1.0 / r), rel=1e-14)

    def test_r15_w2(self):
        y_w, g = y_w_and_g_phi(2.0, 1.5)
        assert y_w == pytest.approx(4.0, rel=1e-15)
        assert g == pytest.approx(0.25 * math.exp(8.0 - 4.0**1.5 / 1.5), rel=1e-13)

    def test_domain(self):
        for w, r in ((0.0, 2.0), (1.0, 1.0), (1.0, 2.5)):
            with pytest.raises(DomainError):
                y_w_and_g_phi(w, r)


class TestGammaFn:
    def test_identities(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_domain(self):
        for p in (0.0, -1.0, 51.0):
            with pytest.raises(DomainError):
                gamma_fn(p)


@pytest.mark.parametrize("call", [
    lambda: h_of_lambda(math.nan),
    lambda: lil_constants(math.nan),
    lambda: unnormalized_integral(math.nan, 1.0),
    lambda: unnormalized_integral(BIG_ALPHA, math.nan),
    lambda: l_growth_certificate(BIG_ALPHA, math.nan),
    lambda: L_eval(math.nan, LConfig(alpha=BIG_ALPHA, delta=1.0, beta=1.0)),
    lambda: y_w_and_g_phi(math.nan, 2.0),
], ids=["h_lambda", "lil_lambda", "integral_alpha", "integral_delta", "certificate_delta",
        "L_y", "y_w"])
def test_nan_refused(call):
    # a NaN passed each `x <= 0.0` guard (`selfnorm constants --gamma nan`
    # printed nan and exited 0)
    with pytest.raises(DomainError):
        call()
