"""Payment arithmetic: compounding, instalments, NPV, and budget matching.

All functions are pure. Discounting follows the year-0-undiscounted
convention: a cash flow in year y is worth amount * (1+delta)^(-y) today.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def compound_factor(r: float, t: int) -> float:
    """(1+r)^t, the growth factor of r compounded over t periods."""
    if r < 0 or t < 0:
        raise ValueError("compound_factor requires r >= 0 and t >= 0")
    return (1.0 + r) ** t


def ordered_sum(values) -> float:
    """The sum of `values` added left to right from 0.0, as a Python float.

    This is the plain floating-point fold of Python 3.11's builtin `sum`, on
    every supported Python (3.12's `sum` compensates rounding), so totals are
    reproducible bit for bit. inf - inf gives NaN without a warning, as in `sum`.
    """
    values = np.asarray(values, dtype=float)
    if not len(values):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # Adding from the first value instead of from 0.0 changes only the sign
        # of a sum of -0.0s, and the final + 0.0 turns -0.0 into 0.0.
        return float(np.add.accumulate(values)[-1]) + 0.0


def npv(spending: Sequence[float], delta: float) -> float:
    """Net present value at discount rate delta of a yearly stream; index = year."""
    if delta < 0:
        raise ValueError("discount rate must be >= 0")
    return ordered_sum([a * (1.0 + delta) ** (-y) for y, a in enumerate(spending)])


def discounted_instalment_sum(m, periods: int, delta: float):
    """Present value of `m` paid at the end of each of the next `periods` years.

    `m` is a number or an array of per-site instalments; the terms are added
    one year at a time from 0.0, so each element equals the scalar result bit
    for bit.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    total = 0.0
    for i in range(1, periods + 1):
        total = total + m * (1.0 + delta) ** (-i)
    return total


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
    due_factor = ordered_sum([(1.0 + delta) ** (-y) for y in range(horizon)])
    return deferred_npv / due_factor
