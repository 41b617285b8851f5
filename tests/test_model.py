import dataclasses

import pytest

from conftest import make_site
from deferauction.model import (
    MAX_YEARS,
    AmenityParams,
    ConfigError,
    SchemeConfig,
    SiteType,
    Species,
    Violation,
    require_valid_scheme,
    validate_scheme,
)
from oracle import conservation_payment, validate_site


class TestValidateSite:
    def test_well_formed_site_passes(self):
        assert validate_site(make_site()) == []

    def test_zero_area_flagged(self):
        violations = validate_site(make_site(area_ha=0.0))
        assert [v.field for v in violations] == ["area_ha"]

    def test_species_share_mismatch_flagged(self):
        site = make_site(broadleaf_share=0.8, dominant_species=Species.CONIFER)
        violations = validate_site(site)
        assert any("dominant_species" in v.rule for v in violations)

    def test_share_at_half_means_broadleaf(self):
        assert validate_site(make_site(broadleaf_share=0.5, dominant_species=Species.BROADLEAF)) == []
        assert validate_site(make_site(broadleaf_share=0.5, dominant_species=Species.CONIFER)) != []

    def test_negative_money_flagged(self):
        violations = validate_site(make_site(timber_value=-1.0))
        assert [v.field for v in violations] == ["timber_value"]

    def test_non_finite_flagged(self):
        assert validate_site(make_site(deadwood=float("nan"))) != []


class TestConservationPayment:
    def test_timber_plus_land(self):
        assert conservation_payment(make_site(timber_value=6_900, land_payment=400)) == 7_300

    def test_bare_land(self):
        assert conservation_payment(make_site(timber_value=0.0)) == 400

    def test_additive(self):
        assert conservation_payment(make_site(timber_value=9_600, land_payment=400)) == 10_000

    def test_independent_of_scheme(self):
        site = make_site()
        assert conservation_payment(site) == site.timber_value + site.land_payment


class TestValidateScheme:
    def test_defaults_pass(self):
        assert validate_scheme(SchemeConfig()) == []

    @pytest.mark.parametrize(
        "amenity, accepted",
        [
            (AmenityParams(phi_mean=0.05, phi_sd=0.0), False),
            (AmenityParams(phi_mean=0.1, phi_sd=0.0), True),
            (AmenityParams(phi_mean=-1.0, phi_sd=0.2), False),
            (AmenityParams(phi_mean=float("nan")), False),
            (AmenityParams(phi_mean=-0.4, phi_sd=0.2), True),
        ],
    )
    def test_phi_draw_must_be_acceptable(self, amenity, accepted):
        violations = validate_scheme(SchemeConfig(amenity=amenity))
        assert (violations == []) is accepted
        assert all(v.field == "amenity.phi_mean" for v in violations)

    def test_omega_violation_rejected(self):
        # 1.2^10 = 6.19 > x = 5, so omega < 0
        cfg = SchemeConfig(interest_rate_r=0.20, lending_period_t=10, instalment_count_x=5)
        violations = validate_scheme(cfg)
        assert any("omega" in v.rule for v in violations)
        with pytest.raises(ConfigError):
            require_valid_scheme(cfg)

    @pytest.mark.parametrize(
        "field, zero_rate",
        [
            ("lending_period_t", True),
            ("instalment_count_x", True),
            ("horizon_years", False),
            ("harvest_window", False),
        ],
    )
    def test_year_fields_are_bounded(self, field, zero_rate):
        # at r = 0, omega = 1 - 1/x stays in (0, 1) however long the lending period
        base = SchemeConfig(interest_rate_r=0.0) if zero_rate else SchemeConfig()
        at_bound = dataclasses.replace(base, **{field: MAX_YEARS})
        assert validate_scheme(at_bound) == []
        for huge in (MAX_YEARS + 1, 10**12):
            cfg = dataclasses.replace(base, **{field: huge})
            assert validate_scheme(cfg) == [Violation(field, f"must be <= {MAX_YEARS}")]

    def test_belief_cap_order(self):
        cfg = SchemeConfig(bid_cap_lo=500.0, bid_cap_hi=400.0)
        assert any(v.field == "bid_cap_hi" for v in validate_scheme(cfg))

    def test_horizon_defaults_to_lending_period_plus_one(self):
        assert SchemeConfig().horizon == 11
        assert SchemeConfig(lending_period_t=20).horizon == 21
        assert SchemeConfig(horizon_years=5).horizon == 5

    def test_landowner_discount_falls_back(self):
        assert SchemeConfig().landowner_discount_rate == 0.03
        cfg = SchemeConfig(participation_discount_rate=0.07)
        assert cfg.landowner_discount_rate == 0.07


def omega_of(cfg: SchemeConfig) -> float:
    return 1.0 - (1.0 + cfg.interest_rate_r) ** cfg.lending_period_t / cfg.instalment_count_x


class TestOmegaMonotonicity:
    def test_in_unit_interval_on_grid(self):
        for r in (0.0, 0.01, 0.03, 0.05):
            for t in (1, 5, 10, 20):
                for x in (10, 20, 40):
                    cfg = SchemeConfig(interest_rate_r=r, lending_period_t=t, instalment_count_x=x)
                    if validate_scheme(cfg):
                        continue
                    assert 0.0 < omega_of(cfg) < 1.0

    def test_decreasing_in_rate_and_period_increasing_in_count(self):
        base = SchemeConfig(interest_rate_r=0.03, lending_period_t=10, instalment_count_x=20)
        up_r = dataclasses.replace(base, interest_rate_r=0.04)
        up_t = dataclasses.replace(base, lending_period_t=11)
        up_x = dataclasses.replace(base, instalment_count_x=21)
        assert omega_of(up_r) < omega_of(base)
        assert omega_of(up_t) < omega_of(base)
        assert omega_of(up_x) > omega_of(base)


def test_site_types_cover_exactly_six():
    assert len(SiteType) == 6
