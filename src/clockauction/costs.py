"""Deployment cost model: tower deficits plus fibre backhaul per tier.

The tower deficit for a (bidder, area, tier) is the number of towers needed to
reach the tier's population-coverage target (at 20,000 people per tower) minus
the bidder's existing towers in the area.  Cost = new towers * per-tower cost
+ new towers * spacing(area class) * fibre cost per km, with the fibre rate
adjusted for market/inflation/currency and optionally weighted by population
density or land area.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .core import (AREA_CLASSES, MAX_CENTS, Money, ProductCatalog, cents, csv_text,
                   dollars_to_cents, integer, plain, read_csv)
from .errors import ValidationError
from .tiered import TIERS, TieredValuationAdjustment

# Tier coverage targets per area class (population fraction reached within
# five years).  The real thresholds vary by service area; these defaults span
# the 5%-70% range and are overridable via config.
DEFAULT_COVERAGE_TARGETS: dict[tuple[str, str], float] = {
    ("metro", "low"): 0.50, ("metro", "medium"): 0.60, ("metro", "high"): 0.70,
    ("urban", "low"): 0.40, ("urban", "medium"): 0.50, ("urban", "high"): 0.60,
    ("rural", "low"): 0.20, ("rural", "medium"): 0.30, ("rural", "high"): 0.40,
    ("remote", "low"): 0.05, ("remote", "medium"): 0.10, ("remote", "high"): 0.20,
}
DEFAULT_SPACING_KM = {"metro": 1.0, "urban": 1.0, "rural": 7.5, "remote": 15.0}
# the largest factor one weighting puts on the fibre cost; two can apply
MAX_WEIGHT = 2.0


@dataclass(frozen=True)
class AreaStats:
    area_id: str
    area_class: str
    population: int
    land_area_km2: float

    def __post_init__(self):
        if self.area_class not in AREA_CLASSES:
            raise ValidationError(f"area {self.area_id}: unknown area_class {self.area_class!r}")
        # a float must hold it, as it holds money
        if integer(self.population, f"area {self.area_id}: population", least=0) > MAX_CENTS:
            raise ValidationError(f"area {self.area_id}: population above 2**53")
        if not math.isfinite(self.land_area_km2) or self.land_area_km2 < 0:
            raise ValidationError(f"area {self.area_id}: land area must be finite and >= 0, "
                                  f"not {self.land_area_km2!r}")

    def density(self) -> float:
        return self.population / self.land_area_km2 if self.land_area_km2 > 0 else 0.0


def load_demographics(path, areas: dict[str, str] | None = None) -> dict[str, AreaStats]:
    """CSV columns: area_id, area_class, population, land_area_km2; one row
    per area, and one for each area of `areas`, the catalog's {area_id:
    area_class}, in its class there."""
    areas = areas or {}

    def area(area_id, cls, pop, land):
        if areas.get(area_id, cls) != cls:
            raise ValidationError(f"area {area_id!r} is {areas[area_id]!r} in the catalog, "
                                  f"not {cls!r}")
        return AreaStats(area_id, cls, int(plain(pop)), float(plain(land)))
    demographics = {a.area_id: a for a in read_csv(
        path, ["area_id", "area_class", "population", "land_area_km2"], area,
        key=lambda a: a.area_id)}
    missing = sorted(set(areas) - set(demographics))
    if missing:
        raise ValidationError(f"{path}: areas without demographics: {missing}")
    return demographics


@dataclass(frozen=True)
class TowerInventory:
    """Existing unique-tower counts per (bidder, area)."""
    counts: dict[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "counts", {key: self.checked(key, n)
                                            for key, n in self.counts.items()})

    @staticmethod
    def checked(key: tuple[str, str], n: int) -> int:
        return integer(n, f"tower count for {key}", least=0)

    def existing(self, bidder: str, area: str) -> int:
        key = (bidder, area)
        if key not in self.counts:
            warnings.warn(f"no tower inventory for {key}; assuming 0", stacklevel=2)
            return 0
        return self.counts[key]

    def bidders(self) -> tuple[str, ...]:
        return tuple(sorted({b for b, _ in self.counts}))


def load_inventory(path) -> TowerInventory:
    """CSV columns: bidder_id, area_id, tower_count; one row per (bidder, area)."""
    return TowerInventory(counts=dict(read_csv(
        path, ["bidder_id", "area_id", "tower_count"],
        lambda bidder, area, n: ((bidder, area),
                                 TowerInventory.checked((bidder, area), int(plain(n)))),
        key=lambda kv: kv[0])))


@dataclass(frozen=True)
class CostParameters:
    tower_cost_low: Money = dollars_to_cents("286176")
    tower_cost_high: Money = dollars_to_cents("360481")
    fibre_cost_per_km: Money = dollars_to_cents("50000")  # pre-adjustment rate
    market_markup: float = 0.10
    inflation: float = 0.10
    currency_premium: float = 0.30
    pop_per_tower: int = 20_000
    spacing_km: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SPACING_KM))
    # The quoted per-tower dollar range is treated as already adjusted; the
    # three multiplicative factors then apply to the fibre rate only.  Set
    # False to apply them to towers as well.
    tower_costs_post_adjustment: bool = True
    coverage_targets: dict[tuple[str, str], float] = field(
        default_factory=lambda: dict(DEFAULT_COVERAGE_TARGETS))

    def __post_init__(self):
        """Check each value's range, which is finite; the adjustment rates keep
        the factor positive, and no class's coverage target falls from one
        tier to a stricter one.  One tower with its fibre, at any cost level,
        area class and weighting, must cost at most MAX_CENTS, so every cost
        is finite."""
        integer(self.pop_per_tower, "pop_per_tower", least=1)
        for k in ("tower_cost_low", "tower_cost_high", "fibre_cost_per_km"):
            cents(getattr(self, k), k)
        flag = self.tower_costs_post_adjustment
        for bad, rule, value in [
                *((not -1 < getattr(self, k) < math.inf, f"{k} must be > -1 and finite",
                   getattr(self, k))
                  for k in ("market_markup", "inflation", "currency_premium")),
                *((not 0 <= v < math.inf, f"spacing_km {k} must be >= 0 and finite", v)
                  for k, v in self.spacing_km.items()),
                *((not 0 <= v <= 1, f"coverage_targets {c} {t} must be in [0, 1]", v)
                  for (c, t), v in self.coverage_targets.items()),
                (not isinstance(flag, bool), "tower_costs_post_adjustment must be true or false",
                 flag)]:
            if bad:
                raise ValidationError(f"{rule}, not {value!r}")
        for c in dict.fromkeys(c for c, _ in self.coverage_targets):
            held = {t: self.coverage_targets[(c, t)] for t in TIERS
                    if (c, t) in self.coverage_targets}
            if list(held.values()) != sorted(held.values()):
                raise ValidationError(f"coverage_targets {c} must not fall from one tier to a "
                                      f"stricter one, not {held!r}")
        most = (max(map(self.tower_cost, ("low", "mid", "high"))) + MAX_WEIGHT ** 2
                * max(self.spacing_km.values(), default=0.0) * self.fibre_rate())
        if not most <= MAX_CENTS:
            raise ValidationError(f"one tower with its fibre may cost {most!r} cents, "
                                  "above 2**53")

    @property
    def tower_cost_mid(self) -> float:
        return (self.tower_cost_low + self.tower_cost_high) / 2

    @property
    def adjustment_factor(self) -> float:
        return ((1 + self.market_markup) * (1 + self.inflation)
                * (1 + self.currency_premium))

    def tower_cost(self, level: str) -> float:
        base = {"low": float(self.tower_cost_low),
                "mid": self.tower_cost_mid,
                "high": float(self.tower_cost_high)}[level]
        if not self.tower_costs_post_adjustment:
            base *= self.adjustment_factor
        return base

    def fibre_rate(self) -> float:
        return self.fibre_cost_per_km * self.adjustment_factor


@dataclass(frozen=True)
class CostScenario:
    name: str
    base_cost_level: str  # low | mid | high
    weighting: str        # none | population | area | both


SCENARIOS = {
    "none": CostScenario("NoWeighting", "mid", "none"),
    "pop-high": CostScenario("PopulationWeightedHigh", "high", "population"),
    "area-mid": CostScenario("AreaWeightedMid", "mid", "area"),
    "combined": CostScenario("CombinedMid", "mid", "both"),
}


def towers_needed(population: int, coverage_target: float, existing: int,
                  pop_per_tower: int) -> int:
    if not 0 <= coverage_target <= 1:
        raise ValidationError("coverage target must be in [0, 1]")
    required = math.ceil(population * coverage_target / pop_per_tower)
    return max(0, required - existing)


def _clamp(x: float, lo: float = 0.5, hi: float = MAX_WEIGHT) -> float:
    return max(lo, min(hi, x))


@dataclass(frozen=True)
class WeightingRefs:
    """National medians used as reference points for the weighting ratios."""
    density: float
    area_km2: float

    @staticmethod
    def from_demographics(demographics: dict[str, AreaStats]) -> "WeightingRefs":
        import statistics
        densities = sorted(a.density() for a in demographics.values())
        areas = sorted(a.land_area_km2 for a in demographics.values())
        if not densities:
            raise ValidationError("empty demographics")
        return WeightingRefs(density=statistics.median(densities),
                             area_km2=statistics.median(areas))


def _fibre_multiplier(area: AreaStats, scenario: CostScenario,
                      refs: WeightingRefs) -> float:
    mult = 1.0
    if scenario.weighting in ("population", "both"):
        density = area.density()
        mult *= _clamp(refs.density / density) if density > 0 else MAX_WEIGHT
    if scenario.weighting in ("area", "both"):
        mult *= _clamp(area.land_area_km2 / refs.area_km2) if refs.area_km2 > 0 else 1.0
    return mult


def deployment_cost(area: AreaStats, bidder: str, tier: str,
                    scenario: CostScenario, params: CostParameters,
                    inventory: TowerInventory, refs: WeightingRefs) -> Money:
    """Total cents to meet `tier` obligations in `area` for `bidder`."""
    target = params.coverage_targets[(area.area_class, tier)]
    new_towers = towers_needed(area.population, target,
                               inventory.existing(bidder, area.area_id),
                               params.pop_per_tower)
    if new_towers == 0:
        return 0
    tower_component = new_towers * params.tower_cost(scenario.base_cost_level)
    spacing = params.spacing_km[area.area_class]
    fibre_component = (new_towers * spacing * params.fibre_rate()
                       * _fibre_multiplier(area, scenario, refs))
    return int(round(tower_component + fibre_component))


def build_cost_table(catalog: ProductCatalog, demographics: dict[str, AreaStats],
                     inventory: TowerInventory, scenario: CostScenario,
                     params: CostParameters,
                     bidders: tuple[str, ...] | None = None
                     ) -> TieredValuationAdjustment:
    """Full (bidder, area, tier) cost table for the catalog's areas."""
    areas = sorted({p.area_id for p in catalog})
    missing = [a for a in areas if a not in demographics]
    if missing:
        raise ValidationError(f"areas without demographics: {missing}")
    if bidders is None:
        bidders = inventory.bidders()
    refs = WeightingRefs.from_demographics(demographics)
    costs = {}
    for bidder in sorted(bidders):
        for area_id in areas:
            for tier in TIERS:
                costs[(bidder, area_id, tier)] = deployment_cost(
                    demographics[area_id], bidder, tier, scenario, params,
                    inventory, refs)
    return TieredValuationAdjustment(costs=costs)


def cost_table_to_csv(table: TieredValuationAdjustment) -> str:
    return csv_text([("bidder_id", "area_id", "tier", "cost_cents"), *(
        (*key, cost) for key, cost in sorted(
            table.costs.items(), key=lambda kv: (kv[0][0], kv[0][1], TIERS.index(kv[0][2]))))])


def cost_table_from_csv(path) -> TieredValuationAdjustment:
    """Inverse of cost_table_to_csv; skips `#` lines such as the manifest.
    Costs that fall from one tier to the next are an error naming the file."""
    rows = read_csv(
        path, ["bidder_id", "area_id", "tier", "cost_cents"],
        lambda bidder, area, tier, cost: (
            (bidder, area, tier), TieredValuationAdjustment.checked(tier, int(plain(cost)))),
        key=lambda kv: kv[0])
    try:
        return TieredValuationAdjustment(costs=dict(rows))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
