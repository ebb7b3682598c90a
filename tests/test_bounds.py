import math

import numpy as np
import pytest

from selfnorm.bounds import (DEFAULT_LOG_FLOOR, SelfNormSample, cor22_statistic,
                             lil_statistic, mgf_bound, moment_bound_cor22,
                             moment_bound_thm21, tail_bound_cor22,
                             thm21_integrand, universal_statistic)
from selfnorm.constants import DomainError

SQRT2 = math.sqrt(2.0)


class TestSample:
    def test_rejects_nonpositive_normalizer(self):
        with pytest.raises(DomainError):
            SelfNormSample(a=1.0, b=0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            SelfNormSample(a=1.0, b=1.0, r=2.5)


class TestIntegrand:
    def test_zero_numerator(self):
        assert thm21_integrand(SelfNormSample(0.0, 1.0), 1.0) == pytest.approx(
            1.0 / SQRT2, rel=1e-15)

    def test_vanishes_for_large_normalizer(self):
        assert thm21_integrand(SelfNormSample(0.0, 1e12), 1.0) < 1e-11

    def test_hand_value(self):
        got = thm21_integrand(SelfNormSample(2.0, 1.0), 1.0)
        assert got == pytest.approx(math.e / SQRT2, rel=1e-14)

    def test_prefactor_cap(self):
        for a, b, y in ((0.3, 0.8, 2.0), (5.0, 1.0, 0.1), (-4.0, 3.0, 1.0)):
            s = SelfNormSample(a, b)
            assert 0.0 < thm21_integrand(s, y) <= math.exp(0.5 * a * a / (b * b))

    def test_domain(self):
        with pytest.raises(DomainError):
            thm21_integrand(SelfNormSample(0.0, 1.0), 0.0)


class TestAnalyticBounds:
    def test_mgf_values(self):
        assert mgf_bound(1e-12) == pytest.approx(SQRT2, rel=1e-10)
        assert mgf_bound(1.0) == pytest.approx(SQRT2 * math.e, rel=1e-15)

    def test_mgf_monotone(self):
        xs = np.linspace(0.01, 5.0, 50)
        vals = [mgf_bound(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ratio_moment_values(self):
        assert moment_bound_thm21(2.0) == pytest.approx(4.0 * SQRT2, rel=1e-14)
        assert moment_bound_thm21(1.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
        assert moment_bound_thm21(4.0) == pytest.approx(32.0 * SQRT2, rel=1e-14)

    def test_tail_values(self):
        assert tail_bound_cor22(SQRT2) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert tail_bound_cor22(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert tail_bound_cor22(1.0) == 1.0
        assert tail_bound_cor22(-3.0) == 1.0

    def test_normalized_moment_values(self):
        assert moment_bound_cor22(2.0) == pytest.approx(4.0, rel=1e-14)
        want = SQRT2 + math.sqrt(math.pi / 2.0)
        assert moment_bound_cor22(1.0) == pytest.approx(want, rel=1e-14)

    def test_normalized_moment_monotone_positive(self):
        ps = np.linspace(0.5, 20.0, 40)
        vals = [moment_bound_cor22(float(p)) for p in ps]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for fn in (moment_bound_thm21, moment_bound_cor22, mgf_bound):
            with pytest.raises(DomainError):
                fn(0.0)


class TestCor22Statistic:
    def test_zero(self):
        assert cor22_statistic(SelfNormSample(0.0, 3.0), 2.0) == 0.0

    def test_matched_normalizer(self):
        y = 4.0
        s = SelfNormSample(1.7, math.sqrt(y))
        want = 1.7 / math.sqrt(2.0 * y * (1.0 + 0.5 * math.log(2.0)))
        assert cor22_statistic(s, y) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("t", [0.1, 2.0, 100.0])
    def test_scale_invariance(self, t):
        base = cor22_statistic(SelfNormSample(1.3, 0.7), 2.0)
        scaled = cor22_statistic(SelfNormSample(t * 1.3, t * 0.7), t * t * 2.0)
        assert scaled == pytest.approx(base, rel=1e-13)


class TestLilStatistic:
    def test_zero(self):
        assert lil_statistic(0.0, 100.0) == 0.0

    def test_unit_iterated_log(self):
        b = math.exp(math.e)  # loglog b = 1
        assert lil_statistic(5.0, b) == pytest.approx(5.0 / b, rel=1e-14)

    def test_floor_applies_below(self):
        floor = DEFAULT_LOG_FLOOR
        small = lil_statistic(1.0, 0.5)
        want = 1.0 / (floor * math.log(math.log(floor)) ** 0.5)
        assert small == pytest.approx(want, rel=1e-14)

    def test_order_exponent(self):
        b = 100.0
        got = lil_statistic(1.0, b, r=1.5)
        want = 1.0 / (b * math.log(math.log(b)) ** (0.5 / 1.5))
        assert got == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            lil_statistic(1.0, 10.0, floor=1.0)
        with pytest.raises(DomainError):
            lil_statistic(1.0, -1.0)


class TestUniversalStatistic:
    def test_centered_is_zero(self):
        assert universal_statistic(3.3, 3.3, 50.0) == 0.0

    def test_oddness(self):
        v = universal_statistic(5.0, 2.0, 40.0)
        assert universal_statistic(-5.0, -2.0, 40.0) == pytest.approx(-v, rel=1e-15)

    def test_hand_value(self):
        v_n = 100.0
        want = 3.0 / (v_n * math.sqrt(math.log(math.log(v_n))))
        assert universal_statistic(3.0, 0.0, v_n) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            universal_statistic(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            universal_statistic(1.0, 0.0, 10.0, floor=2.0)


@pytest.mark.parametrize("call", [
    lambda: SelfNormSample(a=1.0, b=math.nan),
    lambda: thm21_integrand(SelfNormSample(0.0, 1.0), math.nan),
    lambda: mgf_bound(math.nan),
    lambda: cor22_statistic(SelfNormSample(0.0, 1.0), math.nan),
    lambda: lil_statistic(1.0, math.nan),
    lambda: lil_statistic(1.0, 10.0, floor=math.nan),
    lambda: universal_statistic(1.0, 0.0, math.nan),
    lambda: SelfNormSample(a=math.nan, b=1.0),
    lambda: SelfNormSample(a=True, b=1.0),
    lambda: SelfNormSample(a=1.0, b=math.inf),
], ids=["sample_b", "integrand_y", "mgf_x", "cor22_y", "lil_b", "lil_floor", "universal_v",
        "sample_a", "sample_a_bool", "sample_b_inf"])
def test_nan_refused(call):
    # a NaN passed each `x <= 0.0` guard and gave a NaN
    with pytest.raises(DomainError):
        call()
