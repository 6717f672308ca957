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

from .core import (Bundle, EMPTY_BUNDLE, INPUT_ERRORS, IncrementSchedule,
                   PriceVector, ProductCatalog, RoundRecord, clock_price,
                   eligibility_cost, input_error, read_lines, step_price)
from .errors import ValidationError
from .estimation import ValuationModel, bundle_utility, initial_eligibility
from .ingest import BundleBase, BundleSpace
from .solver import EQ, LE, LinearProgram, phase1_memo, solve_mip


@dataclass
class AuctionConfig:
    catalog: ProductCatalog
    increments: IncrementSchedule
    max_rounds: int = 200

    def __post_init__(self):
        n = self.max_rounds
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"max_rounds must be an integer >= 1, not {n!r}")


@dataclass
class BidderAgent:
    bidder_id: str
    model: ValuationModel
    space: BundleSpace


@dataclass
class AuctionTrace:
    rounds: list[RoundRecord]
    final_allocation: dict[str, Bundle]
    revenue: int
    rounds_used: int
    truncated: bool = False


def level_choices(base: BundleBase, model: ValuationModel, catalog: ProductCatalog,
                  eligibility: int) -> dict[str, tuple[int, ...]] | None:
    """Model ladder levels at or above each base quantity, by sorted product;
    None when even the lowest levels exceed the eligibility budget."""
    choices = {}
    for j, base_q in sorted(base.quantities.items()):
        choices[j] = tuple(q for q in model.ladder(j) if q >= base_q)
        if not choices[j]:
            raise ValidationError(f"base quantity of {j!r} off the model ladder")
    min_cost = eligibility_cost({j: levels[0] for j, levels in choices.items()}, catalog)
    return None if min_cost > eligibility else choices


def copies_mip(options: Mapping[str, Mapping[Hashable, tuple[int, float]]],
               catalog: ProductCatalog, eligibility: int
               ) -> tuple[LinearProgram, dict[tuple[str, Hashable], str]]:
    """BEST_COPIES as a binary MIP over `options`, per product {choice:
    (quantity, utility)}: one binary per option (sorted product, then choice
    order) minimizing -utility, one exactly-one row per product, then the
    eligibility row.  Returns its LP and the (product, choice) -> binary map."""
    lp = LinearProgram()
    binary: dict[tuple[str, Hashable], str] = {}
    for j in sorted(options):
        for c in options[j]:
            binary[(j, c)] = lp.add_variable(f"I{len(binary)}", lb=0.0, ub=1.0)
    lp.objective = {name: -options[j][c][1] for (j, c), name in binary.items()}
    for j in sorted(options):
        lp.add_constraint({binary[(j, c)]: 1.0 for c in options[j]}, EQ, 1.0)
    lp.add_constraint({name: float(options[j][c][0] * catalog.get(j).eligibility_points)
                       for (j, c), name in binary.items()}, LE, float(eligibility))
    return lp, binary


def best_copies(base: BundleBase, model: ValuationModel, prices: PriceVector,
                eligibility: int, catalog: ProductCatalog) -> Bundle | None:
    """Utility-maximizing ladder levels for one base: the cumulative increment
    value up to the chosen level minus quantity * price, through `copies_mip`
    unless the per-product argmax levels fit the budget.  Returns None when
    even the minimum levels exceed the eligibility budget."""
    choices = level_choices(base, model, catalog, eligibility)
    if choices is None:
        return None
    options = {j: {q: (q, model.cumulative_value(j, q) - q * prices[j]) for q in levels}
               for j, levels in choices.items()}

    # fast path: with eligibility slack at the per-product argmax levels the
    # products decouple and the MIP is unnecessary
    # utility ties go to the higher quantity: under minimal estimated
    # marginals a bidder is exactly indifferent at the last price where it
    # still held the larger level, and held it
    greedy = {j: max(o, key=lambda q: (o[q][1], q)) for j, o in options.items()}
    if eligibility_cost(greedy, catalog) <= eligibility:
        return Bundle(greedy)

    lp, binary = copies_mip(options, catalog, eligibility)
    sol = solve_mip(lp, list(binary.values()))
    if sol.status == "infeasible":
        return None
    return Bundle({j: q for (j, q), name in binary.items() if sol.values[name] > 0.5})


def choose_base(agent: BidderAgent, solve: Callable, memo: dict, eligibility: int,
                prices: Callable) -> Any | None:
    """Best bid across bases; `solve(base)` gives (bid, utility with the base
    value) or None, a function of the bidder, base, eligibility and
    `prices(base)` (the start prices of the base's market keys) that `memo`
    keeps for the run.  Strict > keeps the lower-indexed base on a tie; the
    bid stands if its utility is >= 0, else the bidder exits (None)."""
    best_u = -math.inf
    best_bid = None
    for base in agent.space.bases:
        key = (agent.bidder_id, base.base_id, eligibility, prices(base))
        if key not in memo:
            memo[key] = solve(base)
        result = memo[key]
        if result is not None and result[1] > best_u:
            best_bid, best_u = result
    return best_bid if best_bid is not None and best_u >= 0 else None


def myopic_bid(agent: BidderAgent, prices: PriceVector, catalog: ProductCatalog,
               eligibility: int, memo: dict) -> Bundle | None:
    """best_copies per base, then the base choice of choose_base."""
    def solve(base):
        bundle = best_copies(base, agent.model, prices, eligibility, catalog)
        if bundle is None:
            return None
        return bundle, bundle_utility(agent.model, bundle, base, prices)
    return choose_base(agent, solve, memo, eligibility,
                       lambda base: tuple(prices[j] for j in base.quantities))


# ---------------------------------------------------------------------------
# the round loop shared by the standard and the tiered auction


@dataclass(frozen=True)
class Market:
    """What an auction format adds to the round loop.  Prices and demand are
    kept per market key: a product id, or a (product, tier) pair."""
    product_of: dict[Hashable, str]  # market key -> product id, in trace order
    bid: Callable                    # (agent, start prices, eligibility, memo) -> bid, None to exit
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


@phase1_memo()
def run_rounds(config: AuctionConfig, agents: list[BidderAgent],
               market: Market) -> AuctionTrace:
    """Rounds of bids at start prices, exits and the activity rule, until no
    key is overdemanded or `max_rounds` truncates the run.  The run owns its
    oracle memo (`choose_base`'s, passed to each bid) and its phase-1 memo: the
    oracle MIPs repeat their constraint rows across rounds at new prices."""
    if not agents:
        raise ValidationError("need at least one agent")
    if len({a.bidder_id for a in agents}) < len(agents):
        raise ValidationError("duplicate bidder ids")
    catalog = config.catalog
    keys = market.product_of
    start = PriceVector({k: catalog.get(j).opening_price for k, j in keys.items()})
    eligibility = {a.bidder_id: initial_eligibility(a.space, catalog) for a in agents}
    exited: set[str] = set()
    memo: dict = {}

    rounds: list[RoundRecord] = []
    while True:
        rnd = len(rounds) + 1
        bids = {}
        for agent in agents:
            bid = (None if agent.bidder_id in exited else
                   market.bid(agent, start, eligibility[agent.bidder_id], memo))
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

        # activity rule: next eligibility is at most the bid's points (one key per product)
        for bidder, bid in bids.items():
            if bidder not in exited:
                cost = eligibility_cost({keys[k]: q for k, q in market.demand(bid).items()},
                                        catalog)
                eligibility[bidder] = min(eligibility[bidder], cost)

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
        bid=lambda agent, prices, elig, memo: myopic_bid(agent, prices, catalog, elig, memo),
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


def trace_to_jsonl(trace: AuctionTrace) -> str:
    """One JSON line per round."""
    return "\n".join(round_to_json(r) for r in trace.rounds) + "\n"


def trace_from_jsonl(path, catalog: ProductCatalog) -> AuctionTrace:
    """Read a standard auction's trace (truncated if its final round is still
    overdemanded); a malformed or tiered round is an input error at `path:line`."""
    rounds, over = [], {}
    for n, line in read_lines(path):
        try:
            doc = json.loads(line)
            bids = doc["bids"]
            if any(isinstance(q, list) for bid in bids.values() for q in bid.values()):
                raise ValidationError("a tiered bid; report compares standard-auction traces")
            rounds.append(RoundRecord(
                round=doc["round"], start=PriceVector(doc["start"]),
                clock=PriceVector(doc["clock"]), posted=PriceVector(doc["posted"]),
                aggregate=doc["aggregate"], eligibility=doc["eligibility"],
                bids={bidder: Bundle(q) for bidder, q in bids.items()}))
            over = overdemanded(rounds[-1].aggregate, catalog)
        except INPUT_ERRORS as exc:
            raise input_error(f"{path}:{n}", exc) from exc
    if not rounds:
        raise ValidationError(f"{path}: empty trace")
    return _final(rounds, lambda bundle: bundle.quantities, over)


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
