from __future__ import annotations

import pytest

from oracle import SiteRecord, site_table
from deferauction.model import SchemeConfig, SiteType, Species
from deferauction.simulation import site_columns
from deferauction.streams import PHI_STREAM, rng_stream


def make_site(
    site_id: str = "s1",
    site_type: SiteType = SiteType.MESIC_HEATH,
    stand_age: float = 100.0,
    stand_volume: float = 250.0,
    dominant_species: Species = Species.CONIFER,
    broadleaf_share: float = 0.2,
    deadwood: float = 10.0,
    timber_value: float = 6_600.0,
    opportunity_cost_v0: float = 6_000.0,
    commercial_rotation_age: float = 80.0,
    area_ha: float = 10.0,
    land_payment: float = 400.0,
) -> SiteRecord:
    return SiteRecord(
        id=site_id,
        site_type=site_type,
        stand_age=stand_age,
        stand_volume=stand_volume,
        dominant_species=dominant_species,
        broadleaf_share=broadleaf_share,
        deadwood=deadwood,
        timber_value=timber_value,
        opportunity_cost_v0=opportunity_cost_v0,
        commercial_rotation_age=commercial_rotation_age,
        area_ha=area_ha,
        land_payment=land_payment,
    )


def is_old_growth(site: SiteRecord) -> bool:
    """The old-growth flag that site_columns computes for `site`."""
    columns = site_columns(site_table([site]), SchemeConfig(), rng_stream(1, PHI_STREAM))
    return bool(columns.old_growth[0])


@pytest.fixture
def base_config() -> SchemeConfig:
    """r=3%, t=x=10, belief cap 8000: the worked-example configuration."""
    return SchemeConfig(bid_cap_hi=8_000.0)
