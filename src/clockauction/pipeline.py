"""End-to-end orchestration: log -> smooth -> estimate -> agents -> replay.

Bid-log CSVs carry no prices, so per-round start prices are reconstructed by
replaying the posted-price rule on the raw log's aggregate demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IncrementSchedule, PriceVector, ProductCatalog
from .engine import (AuctionConfig, AuctionTrace, BidderAgent, compare_allocations,
                     overdemanded, price_step, run_auction)
from .errors import ValidationError
from .estimation import EstimationReport, estimate, reconstruct_eligibility
from .ingest import RawBidLog, build_bundle_space, smooth_monotone


def reconstruct_prices(log: RawBidLog, catalog: ProductCatalog,
                       increments: IncrementSchedule) -> dict[int, PriceVector]:
    """Start price vector per round, replayed from aggregate demand with the
    round loop's price step."""
    demand = log.demand()
    if not demand:
        raise ValidationError("empty bid log")
    ids = catalog.ids()
    start_prices: dict[int, PriceVector] = {}
    start = PriceVector({j: catalog.get(j).opening_price for j in ids})
    for rnd, totals in enumerate(demand, start=1):
        aggregate = {j: totals.get(j, 0) for j in ids}
        start_prices[rnd] = start
        _, start = price_step(start, overdemanded(aggregate, catalog), ids, increments)
    return start_prices


@dataclass
class BidderEstimate(BidderAgent):
    """A bidder's estimated agent, which replays as it is, and its report."""
    report: EstimationReport


def estimate_all(raw: RawBidLog, catalog: ProductCatalog, increments: IncrementSchedule,
                 keep_lp: bool = False) -> dict[str, BidderEstimate]:
    """Smooth the log and run the valuation LP for every bidder in it; with
    `keep_lp` each report keeps its LP."""
    smoothed = smooth_monotone(raw)
    start_prices = reconstruct_prices(raw, catalog, increments)
    out = {}
    for bidder in smoothed.bidders():
        space = build_bundle_space(smoothed, bidder)
        if not space.bases:
            continue  # bidder never demanded anything
        eligibility = reconstruct_eligibility(space, catalog)
        model, report = estimate(space, start_prices, eligibility, catalog, keep_lp)
        out[bidder] = BidderEstimate(bidder, model, space, report)
    return out


def trace_to_bidlog(trace: AuctionTrace) -> RawBidLog:
    return RawBidLog.from_rows((record.round, bidder, j, q) for record in trace.rounds
                               for bidder, bundle in record.bids.items()
                               for j, q in bundle.quantities.items())


@dataclass(frozen=True)
class RoundTripResult:
    original: AuctionTrace
    replayed: AuctionTrace
    rmse_per_bidder: dict[str, float]
    rmse_mean: float


def roundtrip(config: AuctionConfig, agents: list[BidderAgent]) -> RoundTripResult:
    """Simulate with known agents, estimate from the resulting log, replay
    with the estimated valuations, and compare final allocations."""
    original = run_auction(config, agents)
    raw = trace_to_bidlog(original)
    estimates = estimate_all(raw, config.catalog, config.increments)
    # a bidder that never bid is re-simulated with its own agent
    replayed = run_auction(config, [estimates.get(a.bidder_id, a) for a in agents])
    # both runs allocate to every agent, exited ones included
    per_bidder, mean = compare_allocations(original.final_allocation,
                                           replayed.final_allocation, config.catalog)
    return RoundTripResult(original=original, replayed=replayed,
                           rmse_per_bidder=per_bidder, rmse_mean=mean)
