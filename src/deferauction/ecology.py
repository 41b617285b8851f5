"""Ecological valuation: amenity benefits, habitat-condition index, old-growth rules.

The habitat index multiplies per-component condition factors
(1 - weight * degradation) over the components applicable to a site's type,
so it always lies in [0, 1] with 1 at the reference state.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    SITE_TYPES,
    AmenityParams,
    ConfigError,
    SchemeConfig,
    SiteTable,
    SiteType,
    csv_rows,
)

AMENITY_LOOKAHEAD_YEARS = 50.0

# Minimum stand age qualifying as old growth, indexed [type code, broadleaf]:
# (conifer, broadleaf dominance) per site type in SiteType order. The three
# poorest types use one species-independent threshold.
OLD_GROWTH_THRESHOLDS = np.array(
    [[100.0, 70.0], [100.0, 80.0], [120.0, 80.0], [140.0, 140.0], [140.0, 140.0], [140.0, 140.0]]
)


# Site attributes that can serve as component observations.
COMPONENT_SOURCES = ("deadwood", "stand_age", "broadleaf_share")


@dataclass(frozen=True)
class EliteComponent:
    """One structural component of the habitat index."""

    name: str
    weight: float
    reference: float
    applicable_site_types: frozenset[SiteType]


@dataclass(frozen=True)
class EliteTable:
    """The habitat index's components; one ConfigError names every rule a table breaks.

    Each component names a site attribute in COMPONENT_SOURCES and has a
    weight in (0, 1] and a reference > 0; every site type has a component.
    """

    components: tuple[EliteComponent, ...]

    def __post_init__(self) -> None:
        attribute = f"not a site attribute (one of {', '.join(COMPONENT_SOURCES)})"
        rules = []
        for c in self.components:
            rules += [
                (f"component {c.name}", c.name in COMPONENT_SOURCES, attribute),
                (f"component {c.name}", 0.0 < c.weight <= 1.0, "weight must be in (0, 1]"),
                (f"component {c.name}", c.reference > 0, "reference must be > 0"),
            ]
        for t in SiteType:
            rules.append((f"site type {t.value}", self.for_site_type(t), "has no applicable component"))
        if broken := [f"{field}: {rule}" for field, ok, rule in rules if not ok]:
            raise ConfigError("; ".join(broken))

    def for_site_type(self, site_type: SiteType) -> list[EliteComponent]:
        return [c for c in self.components if site_type in c.applicable_site_types]


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


def elite_index(sites: SiteTable, table: EliteTable = DEFAULT_ELITE_TABLE) -> np.ndarray:
    """Habitat condition index in [0, 1] of each site under a component table.

    Multiplies 1 - weight * (1 - min(current/reference, 1)) over the
    components applicable to a site's type, in table order. The ratio clamp
    keeps every factor, and hence the index, within [0, 1].
    """
    index = np.ones(len(sites))
    for comp in table.components:
        applies = np.array([t in comp.applicable_site_types for t in SITE_TYPES])[sites.type_code]
        if not applies.any():
            continue
        current = getattr(sites, comp.name)
        factor = 1.0 - comp.weight * (1.0 - np.minimum(current / comp.reference, 1.0))
        index = np.where(applies, index * factor, index)
    return index


def load_elite_table(path: str | Path) -> EliteTable:
    """Load a component table from CSV: component,site_types,weight,reference.

    `site_types` is either `all` or a semicolon-separated list of site type
    names (e.g. `herb_rich;mesic_heath`). A table that cannot serve as the
    habitat index raises ConfigError naming the file and the component or
    column at fault; text that is not UTF-8, or a row the csv module cannot
    read, raises LoadError naming the byte or the line.
    """
    path = Path(path)
    components: list[EliteComponent] = []
    rows = csv_rows(path)
    header = next(rows, None)
    required = ("component", "site_types", "weight", "reference")
    try:
        if header is None or not set(required).issubset(header):
            raise ConfigError(f"elite table must have columns {sorted(required)}")
        for cells in filter(None, rows):  # blank lines are not rows
            row = dict(zip(header, cells))
            name = row.get("component", "").strip()
            short = [column for column in required if column not in row]
            if short:
                raise ConfigError(f"component {name}: row has no {', '.join(short)} cell")
            raw_types = row["site_types"].strip()
            try:
                types = _ALL_TYPES if raw_types.lower() == "all" else frozenset(
                    SiteType(t.strip()) for t in raw_types.split(";") if t.strip()
                )
                weight, reference = float(row["weight"]), float(row["reference"])
            except ValueError as err:
                raise ConfigError(f"component {name}: {err}") from None
            components.append(EliteComponent(name, weight, reference, types))
        return EliteTable(components=tuple(components))
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
