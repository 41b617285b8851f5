"""Ecological valuation: amenity benefits, habitat-condition index, old-growth rules.

The habitat index multiplies per-component condition factors
(1 - weight * degradation) over the components applicable to a site's type,
so it always lies in [0, 1] with 1 at the reference state.
"""
from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    AmenityParams,
    ConfigError,
    SchemeConfig,
    SiteRecord,
    SiteType,
    Species,
    utf8_lines,
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
COMPONENT_SOURCES = ("deadwood", "stand_age", "broadleaf_share")


def amenity_value(h, phi, cfg: SchemeConfig):
    """Amenity value of stands of age h under preference scales phi.

    Logistic in stand age: A(h) = 1 / (1/(phi*k_max) + d0*d1^h), increasing in
    h and saturating at phi*k_max. h and phi are numbers or arrays that broadcast
    together.
    """
    h = np.asarray(h, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(h < 0):
        raise ValueError("stand age must be >= 0")
    if np.any(phi <= 0):
        raise ValueError("phi must be > 0")
    am: AmenityParams = cfg.amenity
    # Python's float power: numpy's differs from it by an ulp in some calls.
    decay = np.array([am.d1**age for age in h.ravel().tolist()]).reshape(h.shape)
    return 1.0 / (1.0 / (phi * am.k_max) + am.d0 * decay)


def amenity_gain(
    stand_age: np.ndarray, rotation_age: np.ndarray, phi: np.ndarray, cfg: SchemeConfig
) -> np.ndarray:
    """a1 - a0: amenity value under conservation minus under the owner's harvest plan.

    a0 evaluates the curve at the commercial rotation age; a1 at the current
    stand age plus a 50-year conservation lookahead.
    """
    a0 = amenity_value(rotation_age, phi, cfg)
    a1 = amenity_value(stand_age + AMENITY_LOOKAHEAD_YEARS, phi, cfg)
    return a1 - a0


def elite_index(
    sites: Sequence[SiteRecord], table: EliteTable = DEFAULT_ELITE_TABLE
) -> np.ndarray:
    """Habitat condition index in [0, 1] of each site under a component table.

    Multiplies 1 - weight * (1 - min(current/reference, 1)) over the
    components applicable to a site's type, in table order. The ratio clamp
    keeps every factor, and hence the index, within [0, 1].
    """
    types = list(SiteType)
    codes = {site_type: code for code, site_type in enumerate(types)}
    type_codes = np.fromiter((codes[s.site_type] for s in sites), np.intp, len(sites))
    present = set(type_codes.tolist())
    for code, site_type in enumerate(types):
        if code in present and not table.for_site_type(site_type):
            raise EliteDataError(f"no components apply to site type {site_type.value}")
    index = np.ones(len(sites))
    for comp in table.components:
        applies = np.array([comp.applies_to(t) for t in types])[type_codes]
        if not applies.any():
            continue
        if comp.name not in COMPONENT_SOURCES:
            raise EliteDataError(
                f"missing component data: site records carry no observation for '{comp.name}'"
            )
        current = np.fromiter((getattr(s, comp.name) for s in sites), float, len(sites))
        factor = 1.0 - comp.weight * (1.0 - np.minimum(current / comp.reference, 1.0))
        index = np.where(applies, index * factor, index)
    return index


def load_elite_table(path: str | Path) -> EliteTable:
    """Load a component table from CSV: component,site_types,weight,reference.

    `site_types` is either `all` or a semicolon-separated list of site type
    names (e.g. `herb_rich;mesic_heath`). A table that cannot serve as the
    habitat index raises ConfigError naming the component or column at fault;
    text that is not UTF-8 raises LoadError naming its first bad byte.
    """
    components: list[EliteComponent] = []
    reader = csv.DictReader(utf8_lines(Path(path)))
    required = {"component", "site_types", "weight", "reference"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ConfigError(f"elite table must have columns {sorted(required)}")
    for row in reader:
        name = row["component"].strip()
        if name not in COMPONENT_SOURCES:
            raise ConfigError(
                f"component {name}: not a site attribute "
                f"(one of {', '.join(COMPONENT_SOURCES)})"
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
