"""Deployment-tiered counterfactual: the same product sold at Low, Medium and
High coverage commitments sharing one supply.  Overdemand is hierarchical, so
stricter tiers see fewer price increases and end up cheaper per license; the
deployment cost table decides whether that discount is worth taking.

Run:  python3 demos/demo_extended_auction.py
"""

from clockauction.core import (IncrementSchedule, Product, ProductCatalog,
                               cents_to_dollars)
from clockauction.costs import AreaStats, DEFAULT_COVERAGE_TARGETS
from clockauction.engine import AuctionConfig, BidderAgent
from clockauction.estimation import ValuationModel
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.tiered import (TIERS, TieredValuationAdjustment, coverage_report,
                                 deployment_costs, run_extended_auction)


def unit_agent(bidder: str, product: str, value_cents: int) -> BidderAgent:
    model = ValuationModel(bidder, {f"{bidder}/base0": float(value_cents)},
                           {(product, 1): 0.0})
    space = BundleSpace(
        bidder_id=bidder,
        bases=(BundleBase(f"{bidder}/base0", {product: 1}),),
        ladders={product: CopyLadder(product, (1,))}, observed={})
    return BidderAgent(bidder_id=bidder, model=model, space=space)


def main() -> None:
    catalog = ProductCatalog(products=(
        Product("P1", "A1", "urban", 1, 1, 100_000_00),))
    demographics = {"A1": AreaStats("A1", "urban", 250_000, 180.0)}

    # an incumbent with towers on the ground faces no extra deployment cost;
    # the entrant pays a lump sum that grows with the commitment tier
    adjustment = TieredValuationAdjustment({
        ("incumbent", "A1", "low"): 0,
        ("incumbent", "A1", "medium"): 0,
        ("incumbent", "A1", "high"): 0,
        ("entrant", "A1", "low"): 0,
        ("entrant", "A1", "medium"): 8_000_00,
        ("entrant", "A1", "high"): 20_000_00,
    })

    agents = [unit_agent("incumbent", "P1", 400_000_00),
              unit_agent("entrant", "P1", 250_000_00)]
    config = AuctionConfig(catalog=catalog,
                           increments=IncrementSchedule.constant(0.1),
                           max_rounds=100)
    trace = run_extended_auction(config, agents, adjustment)

    print(f"finished in {trace.rounds_used} rounds, "
          f"revenue ${cents_to_dollars(trace.revenue)}\n")
    print("round-by-round posted prices for P1 (Low / Medium / High):")
    for record in trace.rounds:
        l, m, h = (record.posted[("P1", t)] for t in TIERS)
        bids = {b: {j: f"{t}:{q}" for j, (t, q) in bundle.items()}
                for b, bundle in record.bids.items() if bundle}
        print(f"  r{record.round:2d}  {cents_to_dollars(l):>12} / "
              f"{cents_to_dollars(m):>12} / {cents_to_dollars(h):>12}   {bids}")

    print("\nfinal allocation:")
    costs = deployment_costs(trace, catalog, adjustment)
    for bidder, bundle in sorted(trace.final_allocation.items()):
        print(f"  {bidder}: {bundle or '-'}  "
              f"(deployment cost ${cents_to_dollars(costs[bidder])})")

    cov = coverage_report(trace, catalog, demographics, DEFAULT_COVERAGE_TARGETS)
    print(f"\nlicenses by class and tier: {cov['licenses_by_class_tier']}")
    print(f"population newly covered vs an all-Low outcome: "
          f"{cov['additional_population']:,}")


if __name__ == "__main__":
    main()
