"""Deferred-payment conservation auction simulator.

Landowners bid the downpayment they require to enroll a stand; the balance of
the conservation payment becomes an interest-bearing loan to the buyer, repaid
in annual instalments. The package computes optimal bids, program supply,
budget-constrained site selection under deferred and up-front payment
mechanisms with harvest risk, and full NPV cost/benefit accounting.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    AmenityParams,
    Mechanism,
    SchemeConfig,
    SiteRecord,
    SiteType,
    Species,
    validate_site,
)
