"""Ecological valuation: amenity benefits, habitat-condition index, old-growth rules.

The habitat index multiplies per-component condition factors
(1 - weight * degradation) over the components applicable to a site's type,
so it always lies in [0, 1] with 1 at the reference state.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .model import (
    AmenityParams,
    ConfigError,
    LandownerProfile,
    OwnerKind,
    SchemeConfig,
    SiteRecord,
    SiteType,
    Species,
)

AMENITY_LOOKAHEAD_YEARS = 50.0

# Minimum stand age qualifying as old growth, by (site type, dominant species).
# The three poorest types use one species-independent threshold.
OLD_GROWTH_THRESHOLDS: dict[SiteType, dict[Species, float]] = {
    SiteType.HERB_RICH: {Species.BROADLEAF: 70.0, Species.CONIFER: 100.0},
    SiteType.HERB_RICH_HEATH: {Species.BROADLEAF: 80.0, Species.CONIFER: 100.0},
    SiteType.MESIC_HEATH: {Species.BROADLEAF: 80.0, Species.CONIFER: 120.0},
    SiteType.SUB_XERIC_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
    SiteType.XERIC_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
    SiteType.BARREN_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
}


class EliteDataError(ValueError):
    """A component applies to the site's type but the site carries no data for it."""


@dataclass(frozen=True)
class EliteComponent:
    """One structural component of the habitat index."""

    name: str
    weight: float
    reference: float
    applicable_site_types: frozenset[SiteType]

    def applies_to(self, site_type: SiteType) -> bool:
        return site_type in self.applicable_site_types


@dataclass(frozen=True)
class EliteTable:
    components: tuple[EliteComponent, ...]

    def for_site_type(self, site_type: SiteType) -> list[EliteComponent]:
        return [c for c in self.components if c.applies_to(site_type)]


_ALL_TYPES = frozenset(SiteType)
_FERTILE_TYPES = frozenset({SiteType.HERB_RICH, SiteType.HERB_RICH_HEATH})

# Default component table. These weights and references are calibration
# defaults chosen for this simulator, not published reference values; override
# with a table file where real ones are available. The burnt-area component of
# poor heath types is omitted (its observed extent is fixed at zero).
DEFAULT_ELITE_TABLE = EliteTable(
    components=(
        EliteComponent("deadwood", weight=0.6, reference=20.0, applicable_site_types=_ALL_TYPES),
        EliteComponent("stand_age", weight=0.4, reference=150.0, applicable_site_types=_ALL_TYPES),
        EliteComponent(
            "broadleaf_share", weight=0.2, reference=0.2, applicable_site_types=_FERTILE_TYPES
        ),
    )
)

# Site attributes that can serve as component observations.
_COMPONENT_SOURCES = {
    "deadwood": lambda site: site.deadwood,
    "stand_age": lambda site: site.stand_age,
    "broadleaf_share": lambda site: site.broadleaf_share,
}


def amenity_value(h: float, phi: float, cfg: SchemeConfig) -> float:
    """Amenity value of a stand of age h under preference scale phi.

    Logistic in stand age: A(h) = 1 / (1/(phi*k_max) + d0*d1^h), increasing in
    h and saturating at phi*k_max.
    """
    if h < 0:
        raise ValueError("stand age must be >= 0")
    if phi <= 0:
        raise ValueError("phi must be > 0")
    am: AmenityParams = cfg.amenity
    return 1.0 / (1.0 / (phi * am.k_max) + am.d0 * am.d1**h)


def amenity_pair(site: SiteRecord, phi: float, cfg: SchemeConfig) -> tuple[float, float]:
    """(a0, a1): amenity value under the owner's harvest plan vs. under conservation.

    a0 evaluates the curve at the commercial rotation age; a1 at the current
    stand age plus a 50-year conservation lookahead.
    """
    a0 = amenity_value(site.commercial_rotation_age, phi, cfg)
    a1 = amenity_value(site.stand_age + AMENITY_LOOKAHEAD_YEARS, phi, cfg)
    return a0, a1


def elite_index(site: SiteRecord, table: EliteTable = DEFAULT_ELITE_TABLE) -> float:
    """Habitat condition index in [0, 1] for a site under a component table.

    Multiplies 1 - weight * (1 - min(current/reference, 1)) over the
    components applicable to the site's type. The ratio clamp keeps every
    factor, and hence the index, within [0, 1].
    """
    components = table.for_site_type(site.site_type)
    if not components:
        raise EliteDataError(f"no components apply to site type {site.site_type.value}")
    index = 1.0
    for comp in components:
        source = _COMPONENT_SOURCES.get(comp.name)
        if source is None:
            raise EliteDataError(
                f"missing component data: site records carry no observation for '{comp.name}'"
            )
        ratio = min(source(site) / comp.reference, 1.0)
        index *= 1.0 - comp.weight * (1.0 - ratio)
    return index


def is_old_growth(site: SiteRecord) -> bool:
    """Whether the stand meets the old-growth age threshold for its type and species."""
    threshold = OLD_GROWTH_THRESHOLDS[site.site_type][site.dominant_species]
    return site.stand_age >= threshold


def classify_landowner(site: SiteRecord) -> OwnerKind:
    """Hartmanian if the stand is older than its commercial rotation age, else Faustmannian."""
    if site.stand_age > site.commercial_rotation_age:
        return OwnerKind.HARTMANIAN
    return OwnerKind.FAUSTMANNIAN


def make_owner(site: SiteRecord, phi: float, cfg: SchemeConfig) -> LandownerProfile:
    """Build the landowner profile for a site, using phi only for Hartmanian owners."""
    kind = classify_landowner(site)
    if kind is OwnerKind.FAUSTMANNIAN:
        return LandownerProfile(kind=kind)
    a0, a1 = amenity_pair(site, phi, cfg)
    return LandownerProfile(kind=kind, phi=phi, a0=a0, a1=a1)


def load_elite_table(path: str | Path) -> EliteTable:
    """Load a component table from CSV: component,site_types,weight,reference.

    `site_types` is either `all` or a semicolon-separated list of site type
    names (e.g. `herb_rich;mesic_heath`). A table that cannot serve as the
    habitat index raises ConfigError naming the component or column at fault.
    """
    components: list[EliteComponent] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"component", "site_types", "weight", "reference"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"elite table must have columns {sorted(required)}")
        for row in reader:
            name = row["component"].strip()
            if name not in _COMPONENT_SOURCES:
                raise ConfigError(
                    f"component {name}: not a site attribute "
                    f"(one of {', '.join(_COMPONENT_SOURCES)})"
                )
            raw_types = row["site_types"].strip()
            try:
                if raw_types.lower() == "all":
                    types = _ALL_TYPES
                else:
                    types = frozenset(
                        SiteType(t.strip()) for t in raw_types.split(";") if t.strip()
                    )
                weight = float(row["weight"])
                reference = float(row["reference"])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"component {name}: {err}") from None
            if not 0.0 < weight <= 1.0:
                raise ConfigError(f"component {name}: weight must be in (0, 1]")
            if not reference > 0:
                raise ConfigError(f"component {name}: reference must be > 0")
            components.append(
                EliteComponent(
                    name=name,
                    weight=weight,
                    reference=reference,
                    applicable_site_types=types,
                )
            )
    table = EliteTable(components=tuple(components))
    for site_type in SiteType:
        if not table.for_site_type(site_type):
            raise ConfigError(f"site type {site_type.value} has no applicable component")
    return table
