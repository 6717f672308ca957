"""Extended auction with three deployment tiers per product.

Every product is offered at Low, Medium and High deployment levels sharing
one supply.  Overdemand is hierarchical (a tier counts demand at itself plus
all stricter tiers), so higher commitments see less frequent price increases.
Bidder utility subtracts a lump-sum deployment cost once per (area, tier)
engaged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PriceVector, ProductCatalog, cents
from .errors import ValidationError
from .engine import (AuctionConfig, AuctionTrace, BaseChoice, BidderAgent, Frame, Market,
                     choose_base, oracle_frame, run_rounds)
from .estimation import ValuationModel
from .ingest import BundleBase
from .solver import solve_mip

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
            try:
                grouped.setdefault((bidder, area), {})[tier] = self.checked(tier, cost)
            except ValidationError as exc:
                raise ValidationError(f"({bidder}, {area}, {tier}): {exc}") from None
        for key, per_tier in grouped.items():
            ordered = [per_tier[t] for t in TIERS if t in per_tier]
            if ordered != sorted(ordered):
                raise ValidationError(f"costs not monotone in tier for {key}")

    @staticmethod
    def checked(tier: str, cost: int) -> int:
        """One entry's cost, if its tier is known and the cost whole cents
        between 0 and MAX_CENTS, which a float holds exactly."""
        if tier not in TIER_RANK:
            raise ValidationError(f"unknown tier {tier!r}")
        return cents(cost, "deployment cost")

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


def _best_tiered_copies(base: BundleBase, model: ValuationModel,
                        prices: PriceVector, eligibility: int,
                        catalog: ProductCatalog, bidder_id: str,
                        adjustment: TieredValuationAdjustment, memo: dict) -> BaseChoice | None:
    """Level and tier choice for one base, as `choose_base`'s entry: its
    utility is net of the engaged deployment costs plus the base value.  The
    base's `engine.Frame`, which `memo` keeps, holds each (tier, level)
    option, the (area, tier) engagements' costs and the engagement each
    option needs; the call adds the utilities at `prices`.  Its MIP runs
    only where the base wins and the frame's entry cannot name its bid."""
    def build(choices):
        area_of = {j: catalog.get(j).area_id for j in choices}
        engage = {(a, t): f"Y::{a}::{t}" for a in sorted(set(area_of.values())) for t in TIERS}
        return Frame({j: [((t, q), q, model.cumulative_value(j, q), (j, t))
                          for t in TIERS for q in levels] for j, levels in choices.items()},
                     model.base_values.get(base.base_id, 0.0), catalog, eligibility,
                     needs={(j, (t, q)): engage[(area_of[j], t)]
                            for j, levels in choices.items() for t in TIERS for q in levels},
                     costs={name: float(adjustment.cost(bidder_id, a, t))
                            for (a, t), name in engage.items()})

    frame = oracle_frame(bidder_id, base, model, catalog, eligibility, memo, build)
    return None if frame is None else frame.choice(frame.options(prices), solve_mip)


def _myopic_tiered_bid(agent: BidderAgent, prices: PriceVector,
                       catalog: ProductCatalog, eligibility: int,
                       adjustment: TieredValuationAdjustment, memo: dict
                       ) -> TieredBundle | None:
    return choose_base(
        agent, lambda base: _best_tiered_copies(
            base, agent.model, prices, eligibility, catalog, agent.bidder_id, adjustment, memo),
        memo, eligibility,
        lambda base: tuple(prices[(j, t)] for j in base.quantities for t in TIERS))


def run_extended_auction(config: AuctionConfig, agents: list[BidderAgent],
                         adjustment: TieredValuationAdjustment) -> AuctionTrace:
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

    return run_rounds(config, agents, Market(
        product_of={(j, t): j for j in catalog.ids() for t in TIERS},
        bid=lambda agent, prices, elig, memo: _myopic_tiered_bid(
            agent, prices, catalog, elig, adjustment, memo),
        demand=lambda bid: {(j, t): q for j, (t, q) in bid.items()},
        empty={},
        overdemanded=over))


# ---------------------------------------------------------------------------
# the sections a tiered run adds to its summary


def deployment_costs(trace: AuctionTrace, catalog: ProductCatalog,
                     adjustment: TieredValuationAdjustment) -> dict[str, int]:
    """The summary's `deployment_costs_cents`: per bidder, in sorted order,
    the cost of each (area, tier) its final bid engages, paid once."""
    return {bidder: sum(adjustment.cost(bidder, a, t) for a, t in sorted(
                {(catalog.get(j).area_id, t) for j, (t, q) in bundle.items()}))
            for bidder, bundle in sorted(trace.final_allocation.items())}


def coverage_report(trace: AuctionTrace, catalog: ProductCatalog,
                    demographics, coverage_targets: dict[tuple[str, str], float]) -> dict:
    """The summary's `coverage` section of a tiered trace: license counts per
    area class and tier (`licenses_by_class_tier`), and the population newly
    reached within five years by Medium/High commitments relative to the Low
    baseline (`additional_population`).

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
    return {"licenses_by_class_tier": by_class_tier,
            "additional_population": int(round(additional))}

