"""Clock-auction round loop with myopic bidders.

Each round, every agent picks the utility-maximizing bundle at the round's
start prices: per base, a small MIP (BEST_COPIES) chooses one ladder level
per product under the eligibility budget; the outer strategy adds the base
complementarity value and keeps the best base.  Overdemanded products move to
the clock price; the loop ends when every product clears.  The same loop
(`run_rounds`) runs the deployment-tiered auction over (product, tier) keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from .core import (Bundle, EMPTY_BUNDLE, IncrementSchedule, PriceVector,
                   ProductCatalog, RoundRecord, clock_price, step_price)
from .errors import ValidationError
from .estimation import ValuationModel, bundle_utility, initial_eligibility
from .ingest import BundleBase, BundleSpace
from .solver import EQ, LE, LinearProgram, MixedIntegerProgram, solve_mip


@dataclass
class AuctionConfig:
    catalog: ProductCatalog
    increments: IncrementSchedule
    max_rounds: int = 200
    activity_rule: float = 1.0  # next eligibility = rule * cost of current bid

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be >= 1")


@dataclass
class BidderAgent:
    bidder_id: str
    model: ValuationModel
    space: BundleSpace
    eligibility: int | None = None  # None: cost of the maximal variant

    def start_eligibility(self, catalog: ProductCatalog) -> int:
        if self.eligibility is not None:
            return self.eligibility
        return initial_eligibility(self.space, catalog)


@dataclass
class AuctionTrace:
    rounds: list[RoundRecord]
    final_allocation: dict[str, Bundle]
    revenue: int
    rounds_used: int
    truncated: bool = False


def best_copies(base: BundleBase, model: ValuationModel, prices: PriceVector,
                eligibility: int, catalog: ProductCatalog) -> Bundle | None:
    """Utility-maximizing ladder levels for one base via a binary MIP.

    One binary per (product, ladder level >= base level); objective uses the
    cumulative increment value up to the chosen level minus quantity * price.
    Returns None when even the minimum levels exceed the eligibility budget.
    """
    choices: dict[str, list[int]] = {}
    utilities: dict[tuple[str, int], float] = {}
    for j, base_q in base.quantities.items():
        levels = [q for q in model.ladder(j) if q >= base_q]
        if not levels:
            raise ValidationError(f"base quantity of {j!r} off the model ladder")
        choices[j] = levels
        for q in levels:
            utilities[(j, q)] = model.cumulative_value(j, q) - q * prices[j]

    min_cost = sum(choices[j][0] * catalog.get(j).eligibility_points
                   for j in choices)
    if min_cost > eligibility:
        return None

    # fast path: with eligibility slack at the per-product argmax levels the
    # products decouple and the MIP is unnecessary
    # utility ties go to the higher quantity: under minimal estimated
    # marginals a bidder is exactly indifferent at the last price where it
    # still held the larger level, and held it
    greedy = {j: max(choices[j], key=lambda q: (utilities[(j, q)], q))
              for j in choices}
    greedy_cost = sum(q * catalog.get(j).eligibility_points for j, q in greedy.items())
    if greedy_cost <= eligibility:
        return Bundle(greedy)

    lp = LinearProgram()
    names: dict[tuple[str, int], str] = {}
    binaries = []
    for j in sorted(choices):
        for q in choices[j]:
            name = f"I::{j}::{q}"
            lp.add_variable(name, lb=0.0, ub=1.0)
            names[(j, q)] = name
            binaries.append(name)
    lp.objective = {names[(j, q)]: -utilities[(j, q)] for (j, q) in names}
    for j in sorted(choices):
        lp.add_constraint({names[(j, q)]: 1.0 for q in choices[j]}, EQ, 1.0)
    lp.add_constraint(
        {names[(j, q)]: float(q * catalog.get(j).eligibility_points)
         for (j, q) in names},
        LE, float(eligibility))
    sol = solve_mip(MixedIntegerProgram(lp=lp, binaries=binaries))
    if sol.status == "infeasible":
        return None
    quantities = {}
    for (j, q), name in names.items():
        if sol.values[name] > 0.5:
            quantities[j] = q
    return Bundle(quantities)


def choose_base(agent: BidderAgent, solve: Callable) -> Any | None:
    """Best bid across bases; `solve(base)` gives (bid, utility with the base
    value) or None.  Strict > keeps the lower-indexed base on a tie; the bid
    stands if its utility is >= 0, else the bidder exits (None)."""
    best_u = -math.inf
    best_bid = None
    for base in agent.space.bases:
        result = solve(base)
        if result is not None and result[1] > best_u:
            best_bid, best_u = result
    return best_bid if best_bid is not None and best_u >= 0 else None


def myopic_bid(agent: BidderAgent, prices: PriceVector, catalog: ProductCatalog,
               eligibility: int) -> Bundle | None:
    """best_copies per base, then the base choice of choose_base."""
    def solve(base):
        bundle = best_copies(base, agent.model, prices, eligibility, catalog)
        if bundle is None:
            return None
        return bundle, bundle_utility(agent.model, bundle, base, prices)
    return choose_base(agent, solve)


# ---------------------------------------------------------------------------
# the round loop shared by the standard and the tiered auction


@dataclass(frozen=True)
class Market:
    """What an auction format adds to the round loop.  Prices and demand are
    kept per market key: a product id, or a (product, tier) pair."""
    product_of: dict[Hashable, str]  # market key -> product id, in trace order
    bid: Callable                    # (agent, start prices, eligibility) -> bid, None to exit
    demand: Callable                 # bid -> {market key: quantity}
    empty: Any                       # the bid of an exited bidder
    overdemanded: Callable           # aggregate per key -> {market key: bool}


def overdemanded(aggregate: Mapping[str, int],
                 catalog: ProductCatalog) -> dict[str, bool]:
    """The standard rule: aggregate demand above supply."""
    return {j: q > catalog.get(j).supply for j, q in aggregate.items()}


def price_step(start: PriceVector, rnd: int, over: Mapping[Hashable, bool],
               product_of: Mapping[Hashable, str], increments: IncrementSchedule
               ) -> tuple[PriceVector, PriceVector]:
    """(clock, posted) prices of round `rnd`; the clock is one increment up
    and is posted where the key is overdemanded."""
    clock = PriceVector({k: clock_price(start[k], increments(j, rnd))
                         for k, j in product_of.items()})
    posted = PriceVector({k: step_price(start[k], clock[k], over[k])
                          for k in product_of})
    return clock, posted


def run_rounds(config: AuctionConfig, agents: list[BidderAgent],
               market: Market) -> AuctionTrace:
    """Rounds of bids at start prices, exits and the activity rule, until no
    key is overdemanded or `max_rounds` truncates the run."""
    if not agents:
        raise ValidationError("need at least one agent")
    catalog = config.catalog
    keys = market.product_of
    points = {k: catalog.get(j).eligibility_points for k, j in keys.items()}
    start = PriceVector({k: catalog.get(j).opening_price for k, j in keys.items()})
    eligibility = {a.bidder_id: a.start_eligibility(catalog) for a in agents}
    exited: set[str] = set()

    rounds: list[RoundRecord] = []
    while True:
        rnd = len(rounds) + 1
        bids = {}
        for agent in agents:
            bid = (None if agent.bidder_id in exited else
                   market.bid(agent, start, eligibility[agent.bidder_id]))
            if bid is None:
                # exit is permanent: zero demand and zero eligibility onward
                exited.add(agent.bidder_id)
                eligibility[agent.bidder_id] = 0
                bid = market.empty
            bids[agent.bidder_id] = bid

        aggregate = dict.fromkeys(keys, 0)
        for bid in bids.values():
            for k, q in market.demand(bid).items():
                aggregate[k] += q
        over = market.overdemanded(aggregate)
        clock, posted = price_step(start, rnd, over, keys, config.increments)
        rounds.append(RoundRecord(
            round=rnd, start=start, clock=clock, posted=posted,
            aggregate=aggregate, bids=bids, eligibility=dict(eligibility)))

        for agent in agents:
            if agent.bidder_id not in exited:
                cost = sum(q * points[k] for k, q in
                           market.demand(bids[agent.bidder_id]).items())
                eligibility[agent.bidder_id] = min(
                    eligibility[agent.bidder_id],
                    int(config.activity_rule * cost))

        if not any(over.values()) or rnd >= config.max_rounds:
            return _final(rounds, market.demand, over)
        start = posted


def _final(rounds: list[RoundRecord], demand: Callable,
           over: Mapping[Hashable, bool]) -> AuctionTrace:
    """The trace of a finished run; still overdemanded means truncated."""
    final = rounds[-1]
    revenue = sum(q * final.posted[k] for bid in final.bids.values()
                  for k, q in demand(bid).items())
    return AuctionTrace(rounds=rounds, final_allocation=dict(final.bids),
                        revenue=revenue, rounds_used=len(rounds),
                        truncated=any(over.values()))


def run_auction(config: AuctionConfig, agents: list[BidderAgent]) -> AuctionTrace:
    catalog = config.catalog
    return run_rounds(config, agents, Market(
        product_of={j: j for j in catalog.ids()},
        bid=lambda agent, prices, elig: myopic_bid(agent, prices, catalog, elig),
        demand=lambda bundle: bundle.quantities,
        empty=EMPTY_BUNDLE,
        overdemanded=lambda aggregate: overdemanded(aggregate, catalog)))


def compare_allocations(a: dict[str, Bundle], b: dict[str, Bundle],
                        catalog: ProductCatalog) -> tuple[dict[str, float], float]:
    """Per-bidder RMSE of final quantities over all catalog products, plus the
    mean across bidders."""
    if set(a) != set(b):
        raise ValidationError("allocations cover different bidder sets")
    per_bidder = {}
    for bidder in sorted(a):
        sq = [(a[bidder][j] - b[bidder][j]) ** 2 for j in catalog.ids()]
        per_bidder[bidder] = math.sqrt(sum(sq) / len(sq)) if sq else 0.0
    aggregate = sum(per_bidder.values()) / len(per_bidder) if per_bidder else 0.0
    return per_bidder, aggregate


# ---------------------------------------------------------------------------
# trace serialization (JSON-lines rounds + summary), shared by both auctions


def _keyed_doc(values: Mapping[Hashable, int]) -> dict:
    # a (product, tier) key is written "product::tier"
    return {k if isinstance(k, str) else "::".join(k): v for k, v in values.items()}


def _bid_doc(bid) -> dict:
    """{product: quantity}, or {product: [tier, quantity]} for a tiered bid."""
    if isinstance(bid, Bundle):
        return dict(bid.quantities)
    return {j: [t, q] for j, (t, q) in bid.items()}


def round_to_json(record: RoundRecord) -> str:
    doc = {
        "round": record.round,
        "start": _keyed_doc(record.start.prices),
        "clock": _keyed_doc(record.clock.prices),
        "posted": _keyed_doc(record.posted.prices),
        "aggregate": _keyed_doc(record.aggregate),
        "bids": {bidder: _bid_doc(bid) for bidder, bid in record.bids.items()},
        "eligibility": dict(record.eligibility),
    }
    return json.dumps(doc, sort_keys=True)


def trace_to_jsonl(trace: AuctionTrace, catalog: ProductCatalog | None = None) -> str:
    """One JSON line per round; `catalog` is accepted but not needed."""
    return "\n".join(round_to_json(r) for r in trace.rounds) + "\n"


def trace_from_jsonl(text: str, catalog: ProductCatalog) -> AuctionTrace:
    """Rebuild a standard auction's trace from its JSON-lines form (inverse
    of trace_to_jsonl); truncated when the final round is still overdemanded."""
    rounds = []
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        rounds.append(RoundRecord(
            round=doc["round"],
            start=PriceVector(doc["start"]),
            clock=PriceVector(doc["clock"]),
            posted=PriceVector(doc["posted"]),
            aggregate=doc["aggregate"],
            bids={bidder: Bundle(q) for bidder, q in doc["bids"].items()},
            eligibility=doc["eligibility"],
        ))
    if not rounds:
        raise ValidationError("empty trace")
    return _final(rounds, lambda bundle: bundle.quantities,
                  overdemanded(rounds[-1].aggregate, catalog))


def trace_summary(trace: AuctionTrace) -> dict:
    summary = {
        "final_allocation": {bidder: _bid_doc(bid)
                             for bidder, bid in sorted(trace.final_allocation.items())},
        "revenue_cents": trace.revenue,
        "rounds_used": trace.rounds_used,
        "truncated": trace.truncated,
    }
    if hasattr(trace, "deployment_costs"):  # a tiered trace
        summary["deployment_costs_cents"] = dict(sorted(trace.deployment_costs.items()))
    return summary
