"""Payment arithmetic: compounding, instalments, NPV, and budget matching.

All functions are pure. Discounting follows the year-0-undiscounted
convention: a cash flow in year y is worth amount * (1+delta)^(-y) today.
"""
from __future__ import annotations

from collections.abc import Sequence


def compound_factor(r: float, t: int) -> float:
    """(1+r)^t, the growth factor of r compounded over t periods."""
    if r < 0 or t < 0:
        raise ValueError("compound_factor requires r >= 0 and t >= 0")
    return (1.0 + r) ** t


def annual_instalment(v1: float, c: float, r: float, t: int, x: int) -> float:
    """Annual instalment repaying the loan (v1 - c) with t years of interest over x payments.

    m = (1+r)^t (v1 - c) / x. The downpayment may not exceed the conservation
    payment: a negative loan has no instalment and must be handled as
    non-participation by the caller.
    """
    if x < 1:
        raise ValueError("instalment count x must be >= 1")
    if c > v1:
        raise ValueError("downpayment exceeds the conservation payment (negative loan)")
    return compound_factor(r, t) * (v1 - c) / x


def total_revenue(v1: float, c: float, r: float, t: int) -> float:
    """Total landowner revenue: downpayment plus loan payback with interest.

    R = c + (1+r)^t (v1 - c).
    """
    if c > v1:
        raise ValueError("downpayment exceeds the conservation payment (negative loan)")
    return c + compound_factor(r, t) * (v1 - c)


def npv(spending: Sequence[float], delta: float) -> float:
    """Net present value at discount rate delta of a yearly stream; index = year."""
    if delta < 0:
        raise ValueError("discount rate must be >= 0")
    return sum(a * (1.0 + delta) ** (-y) for y, a in enumerate(spending))


def discounted_instalment_sum(m: float, periods: int, delta: float) -> float:
    """Present value of `m` paid at the end of each of the next `periods` years."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    return sum(m * (1.0 + delta) ** (-i) for i in range(1, periods + 1))


def annuity_factor(periods: int, delta: float) -> float:
    """Present value of 1 paid at the end of each of the next `periods` years."""
    return discounted_instalment_sum(1.0, periods, delta)


def match_upfront_budget(
    initial: float,
    instalment_cost_per_year: float,
    years: int,
    delta: float,
    horizon: int,
) -> float:
    """Constant annual budget, paid in years 0..horizon-1, NPV-equal to a deferred stream.

    The deferred stream is `initial` at year 0 plus `instalment_cost_per_year`
    in each of years 1..years. Payments on both sides start at year 0
    (annuity-due), since both mechanisms begin conserving immediately.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    deferred_npv = initial
    if years >= 1:
        deferred_npv += discounted_instalment_sum(instalment_cost_per_year, years, delta)
    due_factor = sum((1.0 + delta) ** (-y) for y in range(horizon))
    return deferred_npv / due_factor
