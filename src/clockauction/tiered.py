"""Extended auction with three deployment tiers per product.

Every product is offered at Low, Medium and High deployment levels sharing
one supply.  Overdemand is hierarchical (a tier counts demand at itself plus
all stricter tiers), so higher commitments see less frequent price increases.
Bidder utility subtracts a lump-sum deployment cost once per (area, tier)
engaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import PriceVector, ProductCatalog
from .errors import ValidationError
from .engine import (ORACLE_MEMO, AuctionConfig, AuctionTrace, BaseChoice, BidderAgent,
                     Bundles, Market, choose_base, copies_choice, copies_mip,
                     copies_objective, level_choices, run_rounds)
from .estimation import ValuationModel
from .ingest import BundleBase
from .solver import LE, solve_mip

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
            grouped.setdefault((bidder, area), {})[tier] = self.checked(tier, cost)
        for key, per_tier in grouped.items():
            ordered = [per_tier.get(t, 0) for t in TIERS]
            if ordered != sorted(ordered):
                raise ValidationError(f"costs not monotone in tier for {key}")

    @staticmethod
    def checked(tier: str, cost: int) -> int:
        """One entry's cost, if its tier is known and the cost nonnegative."""
        if tier not in TIER_RANK:
            raise ValidationError(f"unknown tier {tier!r}")
        if cost < 0:
            raise ValidationError("negative deployment cost")
        return cost

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
    over, stricter = {}, 0
    for t in reversed(TIERS):
        stricter += demands.get(t, 0)
        over[t] = stricter > supply
    return over


# A tiered bid assigns each demanded product one tier and one quantity.
TieredBundle = dict[str, tuple[str, int]]  # product_id -> (tier, quantity)


@dataclass
class TieredAuctionTrace(AuctionTrace):
    deployment_costs: dict[str, int] = field(default_factory=dict)


class _Frame:
    """The price-free part of one bidder's tiered oracle on one base at one
    eligibility, which a run builds once and keeps in ORACLE_MEMO: each
    product's levels with their cumulative values, the (area, tier)
    engagements' costs and the engagement each (tier, level) option needs,
    the base value, the enumeration's `Bundles` (None above MAX_BUNDLES
    bundles) and, from the first resolve on, the MIP with its rows compiled."""

    def __init__(self, choices: dict[str, tuple[int, ...]], base: BundleBase,
                 model: ValuationModel, eligibility: int, catalog: ProductCatalog,
                 bidder_id: str, adjustment: TieredValuationAdjustment):
        self.levels = {j: [(q, model.cumulative_value(j, q)) for q in levels]
                       for j, levels in choices.items()}
        area_of = {j: catalog.get(j).area_id for j in choices}
        engage = {(a, t): f"Y::{a}::{t}" for a in sorted(set(area_of.values())) for t in TIERS}
        self.costs = {name: float(adjustment.cost(bidder_id, a, t))
                      for (a, t), name in engage.items()}
        quantities = {j: {(t, q): q for t in TIERS for q in levels}
                      for j, levels in choices.items()}
        self.needs = {(j, c): engage[(area_of[j], c[0])] for j, o in quantities.items() for c in o}
        self.base_value = model.base_values.get(base.base_id, 0.0)
        self.bundles = (Bundles(quantities, catalog, eligibility, self.needs, self.costs)
                        if Bundles.enumerable(quantities) else None)
        self.catalog, self.eligibility = catalog, eligibility
        self.mip = None

    def options(self, prices: PriceVector) -> dict:
        """`copies_mip`'s options at `prices`: per product {(tier, level):
        (level, cumulative value - level * price)}."""
        return {j: {(t, q): (q, value - q * prices[(j, t)]) for t in TIERS for q, value in levels}
                for j, levels in self.levels.items()}

    def solve(self, options: dict) -> tuple[dict, float] | None:
        """(bid, utility net of the engaged costs, plus the base value) of
        the MIP at the prices of `options`, None when it is infeasible.  The
        MIP is BEST_COPIES over the options plus binary engagement variables
        carrying the lump-sum costs; a level at a tier needs its area engaged
        at that tier."""
        if self.mip is None:
            lp, binary = copies_mip(options, self.catalog, self.eligibility)
            for name in self.costs:
                lp.add_variable(name, lb=0.0, ub=1.0)
            for option, name in binary.items():
                lp.add_constraint({name: 1.0, self.needs[option]: -1.0}, LE, 0.0)
            self.mip = lp, binary
        lp, binary = self.mip
        sol = solve_mip(lp.with_objective({**copies_objective(options, binary), **self.costs}),
                        [*binary.values(), *self.costs],
                        None if self.bundles is None else self.bundles.exact(options, binary))
        if sol.status == "infeasible":
            return None
        bundle = {j: c for (j, c), name in binary.items() if sol.values[name] > 0.5}
        return bundle, -sol.objective_value + self.base_value


def _best_tiered_copies(base: BundleBase, model: ValuationModel,
                        prices: PriceVector, eligibility: int,
                        catalog: ProductCatalog, bidder_id: str,
                        adjustment: TieredValuationAdjustment) -> BaseChoice | None:
    """Level and tier choice for one base, as `choose_base`'s entry: its
    utility is net of the engaged deployment costs plus the base value.  The
    base's `_Frame` comes from the run's ORACLE_MEMO, under (bidder, base,
    eligibility), or is built for this call alone outside a run; the call
    adds the utilities at `prices`.  The frame's MIP runs only where
    `copies_choice` cannot name its bid or `choose_base` must resolve the
    base."""
    frames = ORACLE_MEMO.get()
    if frames is None:
        frames = {}
    key = (bidder_id, base.base_id, eligibility)
    if key not in frames:
        choices = level_choices(base, model, catalog, eligibility)
        frames[key] = None if choices is None else _Frame(
            choices, base, model, eligibility, catalog, bidder_id, adjustment)
    frame = frames[key]
    if frame is None:
        return None
    options = frame.options(prices)
    return copies_choice(options, frame.bundles, frame.base_value, lambda: frame.solve(options))


def _myopic_tiered_bid(agent: BidderAgent, prices: PriceVector,
                       catalog: ProductCatalog, eligibility: int,
                       adjustment: TieredValuationAdjustment, memo: dict
                       ) -> TieredBundle | None:
    return choose_base(
        agent, lambda base: _best_tiered_copies(
            base, agent.model, prices, eligibility, catalog, agent.bidder_id, adjustment),
        memo, eligibility,
        lambda base: tuple(prices[(j, t)] for j in base.quantities for t in TIERS))


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
        bid=lambda agent, prices, elig, memo: _myopic_tiered_bid(
            agent, prices, catalog, elig, adjustment, memo),
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

