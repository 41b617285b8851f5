import dataclasses

import numpy as np
import pytest

from conftest import make_site
from deferauction.ecology import (
    DEFAULT_ELITE_TABLE,
    EliteComponent,
    EliteDataError,
    EliteTable,
    amenity_value,
    elite_index,
    is_old_growth,
    load_elite_table,
)
from deferauction.model import ConfigError, SchemeConfig, SiteType, Species
from oracle import OwnerKind, amenity_pair, classify_landowner, make_owner


def amenity_oracle(h, phi=1.0, d0=0.04, d1=0.95, k_max=23_500.0):
    return 1.0 / (1.0 / (phi * k_max) + d0 * d1**h)


CFG = SchemeConfig()


class TestAmenityValue:
    def test_at_age_zero(self):
        assert amenity_value(0.0, 1.0, CFG) == pytest.approx(amenity_oracle(0), abs=1e-9)
        assert amenity_value(0.0, 1.0, CFG) == pytest.approx(24.97, abs=0.01)

    def test_at_age_hundred(self):
        assert amenity_value(100.0, 1.0, CFG) == pytest.approx(amenity_oracle(100), abs=1e-6)
        assert amenity_value(100.0, 1.0, CFG) == pytest.approx(3_579.4, abs=0.5)

    def test_saturates_at_scaled_maximum(self):
        assert amenity_value(10_000.0, 1.0, CFG) == pytest.approx(23_500.0, abs=1.0)

    def test_strictly_increasing_and_bounded(self):
        for phi in (0.5, 1.0, 1.8):
            values = [amenity_value(h, phi, CFG) for h in np.linspace(0, 400, 81)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < phi * 23_500.0 for v in values)

    def test_increasing_in_phi(self):
        assert amenity_value(120.0, 1.2, CFG) > amenity_value(120.0, 0.8, CFG)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            amenity_value(-1.0, 1.0, CFG)
        with pytest.raises(ValueError):
            amenity_value(10.0, 0.0, CFG)


class TestAmenityPair:
    def test_older_stand_gains(self):
        site = make_site(stand_age=150.0, commercial_rotation_age=80.0)
        a0, a1 = amenity_pair(site, 1.0, CFG)
        assert a1 > a0
        assert a1 == pytest.approx(amenity_oracle(200), abs=1e-6)

    def test_equal_when_lookahead_matches_rotation(self):
        site = make_site(stand_age=30.0, commercial_rotation_age=80.0)
        a0, a1 = amenity_pair(site, 1.0, CFG)
        assert a0 == pytest.approx(a1, abs=1e-9)

    def test_worked_values(self):
        site = make_site(stand_age=100.0, commercial_rotation_age=80.0)
        a0, a1 = amenity_pair(site, 1.0, CFG)
        assert a0 == pytest.approx(amenity_oracle(80), abs=1.0)  # 1_422.13
        assert a1 == pytest.approx(amenity_oracle(150), abs=10.0)  # 16_454.03


def index_of(site, table=DEFAULT_ELITE_TABLE):
    return float(elite_index([site], table)[0])


class TestEliteIndex:
    def test_reference_state_scores_one(self):
        site = make_site(deadwood=25.0, stand_age=180.0, broadleaf_share=0.2)
        assert index_of(site) == pytest.approx(1.0)

    def test_fully_degraded_single_component(self):
        table = EliteTable(
            components=(
                EliteComponent("deadwood", weight=1.0, reference=20.0, applicable_site_types=frozenset(SiteType)),
            )
        )
        assert index_of(make_site(deadwood=0.0), table) == 0.0

    def test_two_component_hand_case(self):
        table = EliteTable(
            components=(
                EliteComponent("deadwood", weight=0.6, reference=20.0, applicable_site_types=frozenset(SiteType)),
                EliteComponent("stand_age", weight=0.4, reference=150.0, applicable_site_types=frozenset(SiteType)),
            )
        )
        site = make_site(deadwood=10.0, stand_age=150.0)
        assert index_of(site, table) == pytest.approx(0.7)

    def test_range_and_reference_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            site = make_site(
                site_type=SiteType(list(SiteType)[rng.integers(0, 6)].value),
                deadwood=float(rng.uniform(0, 60)),
                stand_age=float(rng.uniform(0, 250)),
                broadleaf_share=float(rng.uniform(0, 0.49)),
            )
            value = index_of(site)
            assert 0.0 <= value <= 1.0
            at_reference = (
                site.deadwood >= 20.0
                and site.stand_age >= 150.0
                and (
                    site.site_type not in (SiteType.HERB_RICH, SiteType.HERB_RICH_HEATH)
                    or site.broadleaf_share >= 0.2
                )
            )
            assert (value == pytest.approx(1.0)) == at_reference

    def test_monotone_in_each_component(self):
        site = make_site(deadwood=5.0, stand_age=90.0)
        richer_deadwood = dataclasses.replace(site, deadwood=12.0)
        older = dataclasses.replace(site, stand_age=140.0)
        assert index_of(richer_deadwood) > index_of(site)
        assert index_of(older) > index_of(site)

    def test_missing_component_data_names_component(self):
        table = EliteTable(
            components=(
                EliteComponent("burnt_area", weight=0.5, reference=1.0, applicable_site_types=frozenset(SiteType)),
            )
        )
        with pytest.raises(EliteDataError, match="burnt_area"):
            index_of(make_site(), table)

    def test_broadleaf_component_only_on_fertile_types(self):
        fertile = make_site(site_type=SiteType.HERB_RICH, broadleaf_share=0.0,
                            dominant_species=Species.CONIFER, deadwood=25.0, stand_age=200.0)
        poor = make_site(site_type=SiteType.XERIC_HEATH, broadleaf_share=0.0,
                         dominant_species=Species.CONIFER, deadwood=25.0, stand_age=200.0)
        assert index_of(poor) == pytest.approx(1.0)
        assert index_of(fertile) < 1.0


OLD_GROWTH_CELLS = [
    (SiteType.HERB_RICH, Species.BROADLEAF, 70.0),
    (SiteType.HERB_RICH, Species.CONIFER, 100.0),
    (SiteType.HERB_RICH_HEATH, Species.BROADLEAF, 80.0),
    (SiteType.HERB_RICH_HEATH, Species.CONIFER, 100.0),
    (SiteType.MESIC_HEATH, Species.BROADLEAF, 80.0),
    (SiteType.MESIC_HEATH, Species.CONIFER, 120.0),
    (SiteType.SUB_XERIC_HEATH, Species.CONIFER, 140.0),
    (SiteType.XERIC_HEATH, Species.CONIFER, 140.0),
    (SiteType.BARREN_HEATH, Species.CONIFER, 140.0),
]


class TestOldGrowth:
    @pytest.mark.parametrize("site_type,species,threshold", OLD_GROWTH_CELLS)
    def test_inclusive_boundary_per_cell(self, site_type, species, threshold):
        share = 0.8 if species is Species.BROADLEAF else 0.2
        at = make_site(site_type=site_type, dominant_species=species, broadleaf_share=share,
                       stand_age=threshold)
        below = dataclasses.replace(at, stand_age=threshold - 1)
        assert is_old_growth(at)
        assert not is_old_growth(below)

    def test_poor_types_ignore_species(self):
        for species, share in ((Species.BROADLEAF, 0.8), (Species.CONIFER, 0.2)):
            site = make_site(site_type=SiteType.BARREN_HEATH, dominant_species=species,
                             broadleaf_share=share, stand_age=140.0)
            assert is_old_growth(site)

    def test_monotone_in_age(self):
        ages = np.linspace(0, 250, 101)
        flags = [
            is_old_growth(make_site(stand_age=float(a), site_type=SiteType.MESIC_HEATH))
            for a in ages
        ]
        assert flags == sorted(flags)


class TestClassifyLandowner:
    def test_older_than_rotation_is_hartmanian(self):
        assert classify_landowner(make_site(stand_age=100, commercial_rotation_age=80)) is OwnerKind.HARTMANIAN

    def test_at_rotation_is_faustmannian(self):
        assert classify_landowner(make_site(stand_age=80, commercial_rotation_age=80)) is OwnerKind.FAUSTMANNIAN

    def test_young_stand_is_faustmannian(self):
        assert classify_landowner(make_site(stand_age=6, commercial_rotation_age=80)) is OwnerKind.FAUSTMANNIAN

    def test_make_owner_profiles(self):
        young = make_site(stand_age=50.0, commercial_rotation_age=80.0)
        old = make_site(stand_age=130.0, commercial_rotation_age=80.0)
        f = make_owner(young, 1.3, CFG)
        h = make_owner(old, 1.3, CFG)
        assert f.kind is OwnerKind.FAUSTMANNIAN and f.a0 == f.a1 == 0.0
        assert h.kind is OwnerKind.HARTMANIAN and h.a1 > h.a0 > 0.0


def test_elite_table_round_trips_through_csv(tmp_path):
    path = tmp_path / "elite.csv"
    path.write_text(
        "component,site_types,weight,reference\n"
        "deadwood,all,0.5,18\n"
        "stand_age,all,0.3,120\n"
        "broadleaf_share,herb_rich;herb_rich_heath,0.2,0.25\n",
        encoding="utf-8",
    )
    table = load_elite_table(path)
    assert len(table.components) == 3
    assert table.for_site_type(SiteType.BARREN_HEATH)[0].reference == 18.0
    assert len(table.for_site_type(SiteType.HERB_RICH)) == 3


def test_elite_table_rejects_uncovered_site_type(tmp_path):
    path = tmp_path / "elite.csv"
    path.write_text(
        "component,site_types,weight,reference\ndeadwood,herb_rich,0.5,18\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="no applicable component"):
        load_elite_table(path)


@pytest.mark.parametrize(
    "row",
    ["deadwood,all,2,20", "deadwood,all", "deadwood,swamp,0.5,20", "burnt_area,all,0.5,1"],
    ids=["weight-above-one", "short-row", "unknown-site-type", "not-a-site-attribute"],
)
def test_elite_table_content_errors_are_config_errors(tmp_path, row):
    path = tmp_path / "elite.csv"
    path.write_text(f"component,site_types,weight,reference\n{row}\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_elite_table(path)


def test_default_table_covers_every_type():
    for site_type in SiteType:
        assert DEFAULT_ELITE_TABLE.for_site_type(site_type)
