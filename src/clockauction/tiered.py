"""Extended auction with three deployment tiers per product.

Every product is offered at Low, Medium and High deployment levels sharing
one supply.  Overdemand is hierarchical (a tier counts demand at itself plus
all stricter tiers), so higher commitments see less frequent price increases.
Bidder utility subtracts a lump-sum deployment cost once per (area, tier)
engaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import PriceVector, ProductCatalog, RoundRecord
from .errors import ValidationError
from .engine import (AuctionConfig, AuctionTrace, BidderAgent, Market,
                     choose_base, run_rounds, trace_summary, trace_to_jsonl)
from .estimation import ValuationModel
from .ingest import BundleBase
from .solver import EQ, LE, LinearProgram, MixedIntegerProgram, solve_mip

TIERS = ("low", "medium", "high")
TIER_RANK = {t: i for i, t in enumerate(TIERS)}


@dataclass(frozen=True)
class TieredValuationAdjustment:
    """Lump-sum deployment cost per (bidder, area, tier), in cents."""
    costs: dict[tuple[str, str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "costs", dict(self.costs))
        grouped: dict[tuple[str, str], dict[str, int]] = {}
        for (bidder, area, tier), cost in self.costs.items():
            if tier not in TIER_RANK:
                raise ValidationError(f"unknown tier {tier!r}")
            if cost < 0:
                raise ValidationError("negative deployment cost")
            grouped.setdefault((bidder, area), {})[tier] = cost
        for key, per_tier in grouped.items():
            ordered = [per_tier.get(t, 0) for t in TIERS]
            if ordered != sorted(ordered):
                raise ValidationError(f"costs not monotone in tier for {key}")

    def cost(self, bidder: str, area: str, tier: str) -> int:
        try:
            return self.costs[(bidder, area, tier)]
        except KeyError:
            raise ValidationError(
                f"no deployment cost for ({bidder}, {area}, {tier})") from None

    @staticmethod
    def zero(bidders, areas) -> "TieredValuationAdjustment":
        return TieredValuationAdjustment(
            {(b, a, t): 0 for b in bidders for a in areas for t in TIERS})


def tier_overdemand(demands: dict[str, int], supply: int) -> dict[str, bool]:
    """Hierarchical overdemand: a tier is overdemanded when demand at itself
    plus all stricter tiers exceeds the shared supply."""
    for t, d in demands.items():
        if d < 0:
            raise ValidationError(f"negative demand at tier {t!r}")
    d_low = demands.get("low", 0)
    d_med = demands.get("medium", 0)
    d_high = demands.get("high", 0)
    return {
        "high": d_high > supply,
        "medium": d_med + d_high > supply,
        "low": d_low + d_med + d_high > supply,
    }


# A tiered bid assigns each demanded product one tier and one quantity.
TieredBundle = dict[str, tuple[str, int]]  # product_id -> (tier, quantity)


TieredRoundRecord = RoundRecord  # one record type; tiered keys are (product, tier)


@dataclass
class TieredAuctionTrace(AuctionTrace):
    deployment_costs: dict[str, int] = field(default_factory=dict)


def _best_tiered_copies(base: BundleBase, model: ValuationModel,
                        prices: PriceVector, eligibility: int,
                        catalog: ProductCatalog, bidder_id: str,
                        adjustment: TieredValuationAdjustment
                        ) -> tuple[TieredBundle, float] | None:
    """Level and tier choice for one base: BEST_COPIES with a tier layer plus
    binary (area, tier) engagement variables carrying the lump-sum costs."""
    lp = LinearProgram()
    binaries: list[str] = []
    level_vars: dict[tuple[str, str, int], str] = {}
    area_of = {j: catalog.get(j).area_id for j in base.quantities}
    areas = sorted(set(area_of.values()))

    min_cost = 0
    for j, base_q in sorted(base.quantities.items()):
        levels = [q for q in model.ladder(j) if q >= base_q]
        if not levels:
            raise ValidationError(f"base quantity of {j!r} off the model ladder")
        min_cost += levels[0] * catalog.get(j).eligibility_points
        for t in TIERS:
            for q in levels:
                name = f"I::{j}::{t}::{q}"
                lp.add_variable(name, lb=0.0, ub=1.0)
                binaries.append(name)
                level_vars[(j, t, q)] = name
    if min_cost > eligibility:
        return None

    engage_vars: dict[tuple[str, str], str] = {}
    for a in areas:
        for t in TIERS:
            name = f"Y::{a}::{t}"
            lp.add_variable(name, lb=0.0, ub=1.0)
            binaries.append(name)
            engage_vars[(a, t)] = name

    objective: dict[str, float] = {}
    for (j, t, q), name in level_vars.items():
        utility = model.cumulative_value(j, q) - q * prices[(j, t)]
        objective[name] = -utility  # minimize negative utility
    for (a, t), name in engage_vars.items():
        objective[name] = float(adjustment.cost(bidder_id, a, t))
    lp.objective = objective

    for j in sorted(base.quantities):
        lp.add_constraint(
            {name: 1.0 for (jj, t, q), name in level_vars.items() if jj == j},
            EQ, 1.0)
    lp.add_constraint(
        {name: float(q * catalog.get(j).eligibility_points)
         for (j, t, q), name in level_vars.items()},
        LE, float(eligibility))
    for (j, t, q), name in level_vars.items():
        lp.add_constraint({name: 1.0, engage_vars[(area_of[j], t)]: -1.0}, LE, 0.0)

    sol = solve_mip(MixedIntegerProgram(lp=lp, binaries=binaries))
    if sol.status == "infeasible":
        return None
    bundle: TieredBundle = {}
    for (j, t, q), name in level_vars.items():
        if sol.values[name] > 0.5:
            bundle[j] = (t, q)
    utility = -sol.objective_value  # includes the engaged deployment costs
    return bundle, utility


def _myopic_tiered_bid(agent: BidderAgent, prices: PriceVector,
                       catalog: ProductCatalog, eligibility: int,
                       adjustment: TieredValuationAdjustment
                       ) -> TieredBundle | None:
    def solve(base):
        result = _best_tiered_copies(base, agent.model, prices, eligibility,
                                     catalog, agent.bidder_id, adjustment)
        if result is None:
            return None
        bundle, inner_u = result
        return bundle, inner_u + agent.model.base_values.get(base.base_id, 0.0)
    return choose_base(agent, solve)


def run_extended_auction(config: AuctionConfig, agents: list[BidderAgent],
                         adjustment: TieredValuationAdjustment) -> TieredAuctionTrace:
    """The standard round loop over (product, tier) pairs; hierarchical
    overdemand decides which tier prices escalate from a shared opening."""
    catalog = config.catalog

    def over(aggregate):
        out = {}
        for j in catalog.ids():
            flags = tier_overdemand({t: aggregate[(j, t)] for t in TIERS},
                                    catalog.get(j).supply)
            out.update({(j, t): flags[t] for t in TIERS})
        return out

    trace = run_rounds(config, agents, Market(
        product_of={(j, t): j for j in catalog.ids() for t in TIERS},
        bid=lambda agent, prices, elig: _myopic_tiered_bid(
            agent, prices, catalog, elig, adjustment),
        demand=lambda bid: {(j, t): q for j, (t, q) in bid.items()},
        empty={},
        overdemanded=over))
    deployment_costs = {}
    for bidder, bundle in trace.final_allocation.items():
        engaged = {(catalog.get(j).area_id, t) for j, (t, q) in bundle.items()}
        deployment_costs[bidder] = sum(
            adjustment.cost(bidder, a, t) for (a, t) in sorted(engaged))
    return TieredAuctionTrace(**vars(trace), deployment_costs=deployment_costs)


# ---------------------------------------------------------------------------
# coverage reporting


@dataclass(frozen=True)
class CoverageSummary:
    licenses_by_class_tier: dict[str, dict[str, int]]
    additional_population: int


def coverage_report(trace: TieredAuctionTrace, catalog: ProductCatalog,
                    demographics, coverage_targets: dict[tuple[str, str], float]
                    ) -> CoverageSummary:
    """License counts per area-class and tier, plus population newly reached
    within five years by Medium/High commitments relative to the Low baseline.

    Population in an area counts once, at the strongest tier any license in
    that area carries.
    """
    by_class_tier: dict[str, dict[str, int]] = {}
    strongest: dict[str, str] = {}
    for bundle in trace.final_allocation.values():
        for j, (t, q) in bundle.items():
            product = catalog.get(j)
            if product.area_id not in demographics:
                raise ValidationError(f"no demographics for area {product.area_id!r}")
            by_class_tier.setdefault(product.area_class, {}).setdefault(t, 0)
            by_class_tier[product.area_class][t] += q
            prev = strongest.get(product.area_id)
            if prev is None or TIER_RANK[t] > TIER_RANK[prev]:
                strongest[product.area_id] = t

    additional = 0.0
    for area_id, tier in sorted(strongest.items()):
        stats = demographics[area_id]
        low = coverage_targets[(stats.area_class, "low")]
        delta = coverage_targets[(stats.area_class, tier)] - low
        additional += delta * stats.population
    return CoverageSummary(licenses_by_class_tier=by_class_tier,
                           additional_population=int(round(additional)))


# one writer and one summary serve both auctions
tiered_trace_to_jsonl = trace_to_jsonl
tiered_trace_summary = trace_summary
