"""End-to-end orchestration: log -> smooth -> estimate -> agents -> replay.

Bid-log CSVs carry no prices, so per-round start prices are reconstructed by
replaying the posted-price rule on the raw log's aggregate demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IncrementSchedule, PriceVector, ProductCatalog, aggregate_demand
from .engine import (AuctionConfig, AuctionTrace, BidderAgent, compare_allocations,
                     overdemanded, price_step, run_auction)
from .errors import ValidationError
from .estimation import (EstimationReport, ValuationModel, estimate,
                         reconstruct_eligibility)
from .ingest import (BidRow, BundleSpace, RawBidLog,
                     build_bundle_space, smooth_monotone)


def reconstruct_prices(log: RawBidLog, catalog: ProductCatalog,
                       increments: IncrementSchedule
                       ) -> tuple[dict[int, PriceVector], dict[int, PriceVector]]:
    """(start, posted) price vectors per round, replayed from aggregate demand
    with the round loop's price step."""
    R = log.num_rounds()
    if R == 0:
        raise ValidationError("empty bid log")
    product_of = {j: j for j in catalog.ids()}
    start_prices: dict[int, PriceVector] = {}
    posted_prices: dict[int, PriceVector] = {}
    start = PriceVector({j: catalog.get(j).opening_price for j in product_of})
    for rnd in range(1, R + 1):
        bundles = [log.bundle(bidder, rnd) for bidder in log.bidders()]
        aggregate = {j: aggregate_demand(bundles, j) for j in product_of}
        _, posted = price_step(start, rnd, overdemanded(aggregate, catalog),
                               product_of, increments)
        start_prices[rnd] = start
        posted_prices[rnd] = posted
        start = posted
    return start_prices, posted_prices


@dataclass(frozen=True)
class BidderEstimate:
    model: ValuationModel
    space: BundleSpace
    report: EstimationReport


def estimate_all(raw: RawBidLog, catalog: ProductCatalog,
                 increments: IncrementSchedule, backend: str = "highs"
                 ) -> dict[str, BidderEstimate]:
    """Smooth the log and run the valuation LP for every bidder in it."""
    smoothed = smooth_monotone(raw)
    start_prices, _ = reconstruct_prices(raw, catalog, increments)
    out = {}
    for bidder in smoothed.bidders():
        space = build_bundle_space(smoothed, bidder)
        if not space.bases:
            continue  # bidder never demanded anything
        eligibility = reconstruct_eligibility(space, smoothed, catalog)
        model, report = estimate(space, smoothed, start_prices, eligibility,
                                 catalog, backend=backend)
        out[bidder] = BidderEstimate(model=model, space=space, report=report)
    return out


def agents_from_estimates(estimates: dict[str, BidderEstimate]) -> list[BidderAgent]:
    return [BidderAgent(bidder_id=bidder, model=est.model, space=est.space)
            for bidder, est in sorted(estimates.items())]


def trace_to_bidlog(trace: AuctionTrace) -> RawBidLog:
    rows = []
    for record in trace.rounds:
        for bidder, bundle in sorted(record.bids.items()):
            for j, q in bundle.quantities.items():
                rows.append(BidRow(round=record.round, bidder_id=bidder,
                                   product_id=j, quantity=q))
    return RawBidLog(rows=tuple(rows))


@dataclass(frozen=True)
class RoundTripResult:
    original: AuctionTrace
    replayed: AuctionTrace
    rmse_per_bidder: dict[str, float]
    rmse_mean: float


def roundtrip(config: AuctionConfig, agents: list[BidderAgent],
              backend: str = "highs") -> RoundTripResult:
    """Simulate with known agents, estimate from the resulting log, replay
    with the estimated valuations, and compare final allocations."""
    original = run_auction(config, agents)
    raw = trace_to_bidlog(original)
    estimates = estimate_all(raw, config.catalog, config.increments, backend=backend)
    # a bidder that never bid is re-simulated with its own agent
    replayed = run_auction(config, [
        BidderAgent(bidder_id=a.bidder_id, model=estimates[a.bidder_id].model,
                    space=estimates[a.bidder_id].space)
        if a.bidder_id in estimates else a for a in agents])
    # both runs allocate to every agent, exited ones included
    per_bidder, mean = compare_allocations(original.final_allocation,
                                           replayed.final_allocation, config.catalog)
    return RoundTripResult(original=original, replayed=replayed,
                           rmse_per_bidder=per_bidder, rmse_mean=mean)
