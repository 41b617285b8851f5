import math

import numpy as np
import pytest

from deferauction.finance import (
    annual_instalment,
    annuity_factor,
    compound_factor,
    discounted_instalment_sum,
    match_upfront_budget,
    npv,
    total_revenue,
)


def compound_oracle(r: float, t: int) -> float:
    """Repeated multiplication, independent of the pow-based implementation."""
    factor = 1.0
    for _ in range(t):
        factor *= 1.0 + r
    return factor


def npv_oracle(pairs, delta: float) -> float:
    return sum(a / (1.0 + delta) ** y for y, a in pairs)


class TestCompoundFactor:
    def test_zero_rate(self):
        assert compound_factor(0.0, 10) == 1.0

    def test_three_percent_ten_years(self):
        expected = compound_oracle(0.03, 10)  # 1.3439163793441222
        assert compound_factor(0.03, 10) == pytest.approx(expected, abs=1e-12)
        assert compound_factor(0.03, 10) == pytest.approx(1.343916, abs=1e-6)

    def test_zero_period(self):
        assert compound_factor(0.03, 0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compound_factor(-0.1, 5)


class TestAnnualInstalment:
    def test_worked_example(self):
        # compound oracle x (10_000 - 4_000) / 10 = 806.3498276
        expected = compound_oracle(0.03, 10) * 6_000 / 10
        assert annual_instalment(10_000, 4_000, 0.03, 10, 10) == pytest.approx(expected, abs=1e-9)
        assert annual_instalment(10_000, 4_000, 0.03, 10, 10) == pytest.approx(806.35, abs=0.01)

    def test_no_loan(self):
        assert annual_instalment(5_000, 5_000, 0.03, 10, 10) == 0.0

    def test_zero_rate(self):
        assert annual_instalment(5_000, 1_000, 0.0, 10, 10) == pytest.approx(400.0)

    def test_rejects_downpayment_above_payment(self):
        with pytest.raises(ValueError):
            annual_instalment(5_000, 5_001, 0.03, 10, 10)


class TestTotalRevenue:
    def test_worked_example(self):
        expected = 4_000 + compound_oracle(0.03, 10) * 6_000  # 12_063.4982761
        assert total_revenue(10_000, 4_000, 0.03, 10) == pytest.approx(expected, abs=1e-9)
        assert total_revenue(10_000, 4_000, 0.03, 10) == pytest.approx(12_063.50, abs=0.01)

    def test_full_downpayment_no_interest(self):
        assert total_revenue(7_000, 7_000, 0.03, 10) == pytest.approx(7_000.0)

    def test_zero_rate_equals_payment(self):
        for c in (0.0, 2_500.0, 7_000.0):
            assert total_revenue(7_000, c, 0.0, 10) == pytest.approx(7_000.0)

    def test_never_below_payment(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v1 = rng.uniform(100, 20_000)
            c = rng.uniform(0, v1)
            r = rng.uniform(0, 0.15)
            assert total_revenue(v1, c, r, 10) >= v1 - 1e-9

    def test_instalment_slope_in_downpayment(self):
        # affine in c with slope -(1+r)^t/x, checked by two-point difference
        v1, r, t, x = 9_000.0, 0.04, 10, 10
        slope = -compound_oracle(r, t) / x
        m1 = annual_instalment(v1, 1_000.0, r, t, x)
        m2 = annual_instalment(v1, 4_000.0, r, t, x)
        assert (m2 - m1) / 3_000.0 == pytest.approx(slope, rel=1e-12)


class TestNpv:
    def test_year_zero_undiscounted(self):
        assert npv([100.0], 0.07) == 100.0

    def test_instalment_stream(self):
        pairs = [(y, 760_000.0) for y in range(1, 11)]
        expected = npv_oracle(pairs, 0.03)  # 6_482_954.156
        spending = [0.0] + [760_000.0] * 10
        assert npv(spending, 0.03) == pytest.approx(expected, abs=1e-6)
        assert npv(spending, 0.03) == pytest.approx(6_482_954, abs=1.0)

    def test_zero_rate_is_plain_sum(self):
        spending = [10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 30.5]
        assert npv(spending, 0.0) == pytest.approx(60.5)

    def test_linear_in_streams(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = [0.0] * 30
            b = [0.0] * 30
            for y in rng.choice(30, size=5, replace=False):
                a[y] = float(rng.normal(0, 1e5))
            for y in rng.choice(30, size=4, replace=False):
                b[y] = float(rng.normal(0, 1e5))
            both = [x + y for x, y in zip(a, b)]
            assert npv(both, 0.03) == pytest.approx(npv(a, 0.03) + npv(b, 0.03), abs=1e-6)


class TestDiscountedInstalmentSum:
    def test_worked_example(self):
        expected = npv_oracle([(i, 268.78) for i in range(1, 11)], 0.03)  # 2_292.748
        assert discounted_instalment_sum(268.78, 10, 0.03) == pytest.approx(expected, abs=1e-9)
        assert discounted_instalment_sum(268.78, 10, 0.03) == pytest.approx(2_292.76, abs=0.05)

    def test_zero_rate(self):
        assert discounted_instalment_sum(125.0, 8, 0.0) == pytest.approx(1_000.0)

    def test_zero_instalment(self):
        assert discounted_instalment_sum(0.0, 10, 0.03) == 0.0


class TestMatchUpfrontBudget:
    def test_worked_example(self):
        total = 5_000_000 + npv_oracle([(i, 760_000.0) for i in range(1, 11)], 0.03)
        assert total == pytest.approx(11_482_954, abs=1.0)
        due = sum(1.03 ** (-y) for y in range(11))
        expected = total / due  # 1_204_901.34
        budget = match_upfront_budget(5_000_000, 760_000, 10, 0.03, 11)
        assert budget == pytest.approx(expected, abs=1e-6)
        assert budget == pytest.approx(1_204_900, abs=100)

    def test_single_year_horizon(self):
        assert match_upfront_budget(5_000_000, 0.0, 10, 0.03, 1) == pytest.approx(5_000_000)

    def test_zero_rate_is_arithmetic_mean(self):
        budget = match_upfront_budget(5_000_000, 760_000, 10, 0.0, 11)
        assert budget == pytest.approx((5_000_000 + 10 * 760_000) / 11, abs=1e-6)
        assert budget == pytest.approx(1_145_455, abs=1.0)

    def test_round_trip_npv_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            initial = float(rng.uniform(1e5, 1e7))
            instalment = float(rng.uniform(0, 1e6))
            years = int(rng.integers(1, 25))
            delta = float(rng.uniform(0, 0.1))
            horizon = int(rng.integers(1, 30))
            budget = match_upfront_budget(initial, instalment, years, delta, horizon)
            matched = npv([budget] * horizon, delta)
            deferred = initial + discounted_instalment_sum(instalment, years, delta)
            assert matched == pytest.approx(deferred, abs=0.01)


def test_annuity_factor_matches_direct_sum():
    assert annuity_factor(10, 0.03) == pytest.approx(
        sum(1.03 ** (-i) for i in range(1, 11)), abs=1e-12
    )
    assert math.isclose(annuity_factor(10, 0.0), 10.0)
