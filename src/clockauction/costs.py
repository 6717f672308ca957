"""Deployment cost model: tower deficits plus fibre backhaul per tier.

The tower deficit for a (bidder, area, tier) is the number of towers needed to
reach the tier's population-coverage target (at 20,000 people per tower) minus
the bidder's existing towers in the area.  Cost = new towers * per-tower cost
+ new towers * spacing(area class) * fibre cost per km, with the fibre rate
adjusted for market/inflation/currency and optionally weighted by population
density or land area.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

from .core import Money, ProductCatalog, dollars_to_cents
from .errors import ParseError, ValidationError
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


@dataclass(frozen=True)
class AreaStats:
    area_id: str
    area_class: str
    population: int
    land_area_km2: float

    def density(self) -> float:
        return self.population / self.land_area_km2 if self.land_area_km2 > 0 else 0.0


def load_demographics(path) -> dict[str, AreaStats]:
    """CSV columns: area_id, area_class, population, land_area_km2."""
    required = ["area_id", "area_class", "population", "land_area_km2"]
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise ParseError(f"{path}: demographics header must contain {required}")
        for lineno, row in enumerate(reader, start=2):
            try:
                stats = AreaStats(area_id=row["area_id"].strip(),
                                  area_class=row["area_class"].strip(),
                                  population=int(row["population"]),
                                  land_area_km2=float(row["land_area_km2"]))
            except (KeyError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            out[stats.area_id] = stats
    return out


@dataclass(frozen=True)
class TowerInventory:
    """Existing unique-tower counts per (bidder, area)."""
    counts: dict[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        for key, n in self.counts.items():
            if n < 0:
                raise ValidationError(f"negative tower count for {key}")

    def existing(self, bidder: str, area: str) -> int:
        key = (bidder, area)
        if key not in self.counts:
            warnings.warn(f"no tower inventory for {key}; assuming 0", stacklevel=2)
            return 0
        return self.counts[key]

    def bidders(self) -> tuple[str, ...]:
        return tuple(sorted({b for b, _ in self.counts}))


def load_inventory(path) -> TowerInventory:
    """CSV columns: bidder_id, area_id, tower_count."""
    required = ["bidder_id", "area_id", "tower_count"]
    counts = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise ParseError(f"{path}: inventory header must contain {required}")
        for lineno, row in enumerate(reader, start=2):
            try:
                counts[(row["bidder_id"].strip(), row["area_id"].strip())] = \
                    int(row["tower_count"])
            except (KeyError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return TowerInventory(counts=counts)


@dataclass(frozen=True)
class CostParameters:
    tower_cost_low: Money = dollars_to_cents("286176")
    tower_cost_high: Money = dollars_to_cents("360481")
    fibre_cost_per_km: Money = dollars_to_cents("50000")  # pre-adjustment rate
    market_markup: float = 0.10
    inflation: float = 0.10
    currency_premium: float = 0.30
    pop_per_tower: int = 20_000
    spacing_km: dict[str, float] = field(default_factory=lambda: {
        "metro": 1.0, "urban": 1.0, "rural": 7.5, "remote": 15.0})
    # The quoted per-tower dollar range is treated as already adjusted; the
    # three multiplicative factors then apply to the fibre rate only.  Set
    # False to apply them to towers as well.
    tower_costs_post_adjustment: bool = True
    coverage_targets: dict[tuple[str, str], float] = field(
        default_factory=lambda: dict(DEFAULT_COVERAGE_TARGETS))

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


def _clamp(x: float, lo: float = 0.5, hi: float = 2.0) -> float:
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
        mult *= _clamp(refs.density / density) if density > 0 else 2.0
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
    lines = ["bidder_id,area_id,tier,cost_cents"]
    for (bidder, area, tier), cost in sorted(
            table.costs.items(), key=lambda kv: (kv[0][0], kv[0][1], TIERS.index(kv[0][2]))):
        lines.append(f"{bidder},{area},{tier},{cost}")
    return "\n".join(lines) + "\n"


def cost_table_from_csv(text: str, source: str = "cost table"
                        ) -> TieredValuationAdjustment:
    """Inverse of cost_table_to_csv; skips `#` lines such as the manifest."""
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
                if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    required = ["bidder_id", "area_id", "tier", "cost_cents"]
    if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
        raise ParseError(f"{source}: cost table header must contain {required}")
    costs = {}
    for row in reader:
        try:
            costs[(row["bidder_id"], row["area_id"], row["tier"])] = int(row["cost_cents"])
        except (TypeError, ValueError) as exc:
            lineno = numbered[reader.line_num - 1][0]
            raise ParseError(f"{source}:{lineno}: {exc}") from exc
    return TieredValuationAdjustment(costs=costs)
