"""Clock-auction round loop with myopic bidders.

Each round, every agent picks the utility-maximizing bundle at the round's
start prices: per base, BEST_COPIES chooses one ladder level per product
under the eligibility budget; the outer strategy adds the base
complementarity value and keeps the best base.  Money is whole cents, so
every utility is an exact integer and bases compare exactly.  Both oracles
work from one `Frame` per (bidder, base, eligibility): past the standard
greedy fast path, an exact knapsack DP over its options gives the utility
and, where one bundle alone attains it, the bid; its MIP, bounded at each
node by the same DP, runs only when the winning base's optimum is tied.
Overdemanded products move to the clock price; the loop ends when every
product clears.
The same loop (`run_rounds`) runs the deployment-tiered auction over
(product, tier) keys.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

from .core import (Bundle, EMPTY_BUNDLE, INPUT_ERRORS, IncrementSchedule,
                   PriceVector, ProductCatalog, RoundRecord, check_bidder_id, clock_price,
                   eligibility_cost, finite_json, input_error, integer, read_lines,
                   step_price)
from .errors import SolverError, ValidationError
from .estimation import ValuationModel, initial_eligibility
from .ingest import BundleBase, BundleSpace
from .solver import EQ, LE, LinearProgram, Rows, solve_mip


@dataclass
class AuctionConfig:
    catalog: ProductCatalog
    increments: IncrementSchedule
    max_rounds: int = 200

    def __post_init__(self):
        integer(self.max_rounds, "max_rounds", least=1)


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


@dataclass
class BaseChoice:
    """One base's entry for `choose_base`.  `utility` is the exact utility of
    the base's best bid, base value included, in whole cents; `bid` is that
    bid where it is already known, else None.  `solve()` runs the MIP and
    gives (bid, utility); `resolve` calls it at most once.  An entry without
    `solve` holds the oracle's answer."""
    utility: float
    bid: Any = None
    solve: Callable[[], tuple[Any, float]] | None = None

    def resolve(self) -> "BaseChoice":
        """The entry with the MIP's bid, whose utility must be the entry's
        exactly: the MIP only chooses among the tied optima; else SolverError."""
        if self.solve is not None:
            bid, utility = self.solve()
            if utility != self.utility:
                raise SolverError(f"the MIP's bid is worth {utility!r}, "
                                  f"the exact optimum {self.utility!r}")
            self.bid, self.solve = bid, None
        return self


def _keep(best: dict, key, value: float, alone: bool, found) -> None:
    """Keep in `best[key]` (value, alone, found) for the highest value that
    reaches `key`: whether one candidate alone attains it, and the first one
    that does."""
    kept = best.get(key)
    if kept is None or value > kept[0]:
        best[key] = (value, alone, found)
    elif value == kept[0]:
        best[key] = (value, False, kept[2])


class Frame:
    """The price-free part of one bidder's oracle on one base at one
    eligibility, which a run builds once and keeps in its oracle memo.  `levels`
    gives each product's options, by sorted product, as (choice, quantity,
    cumulative value, price key): (level, level, value, product) in the
    standard auction, ((tier, level), level, value, (product, tier)) in the
    tiered one, whose frames also carry `costs`, each (area, tier)
    engagement's lump-sum cost, and `needs`, the engagement each (product,
    choice) needs.  `bid` makes a bid of {product: choice}.  One exact
    knapsack DP over the options (`best`) gives every answer the oracle
    needs: each entry's utility and its bid where the optimum is unique, and
    each node bound of the MIP.  The MIP is built at the first solve; every
    solve re-prices a copy that shares its rows (`solver.Rows`), and their
    memo of simplex starts."""

    def __init__(self, levels: dict[str, list[tuple[Hashable, int, float, Hashable]]],
                 base_value: float, catalog: ProductCatalog, eligibility: int,
                 bid: Callable[[dict], Any] = dict,
                 needs: Mapping[tuple[str, Hashable], str] | None = None,
                 costs: Mapping[str, float] | None = None):
        self.levels, self.base_value, self.bid = levels, base_value, bid
        self.catalog, self.eligibility = catalog, eligibility
        self.needs, self.costs = needs or {}, costs or {}
        self.mip = None

    @functools.cached_property
    def walk(self) -> list[tuple[str, list[tuple], set[str]]]:
        """The DP's price-free part, per product in sorted order: its options
        as (choice, eligibility points, shared engagement, own engagement),
        and the shared engagements that no later product needs.  An
        engagement is shared when two or more products need it, else it is
        the one product's own (None where an option needs none)."""
        users: dict[str, set[str]] = {}
        for (j, _), e in self.needs.items():
            users.setdefault(e, set()).add(j)
        last = {e: max(products) for e, products in users.items() if len(products) > 1}
        walk = []
        for j in sorted(self.levels):
            points = self.catalog.get(j).eligibility_points
            options = []
            for c, q, *_ in self.levels[j]:
                e = self.needs.get((j, c))
                options.append((c, q * points, *((e, None) if e in last else (None, e))))
            walk.append((j, options, {e for e, k in last.items() if k == j}))
        return walk

    def best(self, options: dict, blocked=(), forced=()) -> tuple[float, dict | None] | None:
        """The best bundle of `options` (per product {choice: (quantity,
        utility)}, one choice per product) within the eligibility, without the
        (product, choice) options in `blocked` and with the engagements in
        `forced` paid whether or not the bundle needs them: (its utility less
        the costs of the engagements it pays, its {product: choice} if no
        other bundle attains that, else None); None when no bundle fits.
        A multiple-choice knapsack DP over the products in sorted order,
        whose states are (eligibility used, shared engagements paid that a
        later product needs); each keeps its best utility, whether one
        partial bundle alone attains it, and that bundle.  An own engagement's
        cost is folded into its options, and options of equal points and
        shared engagement are merged first.  Money is whole cents, so every
        sum is exact."""
        cost = {e: 0.0 if e in forced else c for e, c in self.costs.items()}
        states = {(0, frozenset()): (-sum(self.costs[e] for e in forced), True, ())}
        for j, choices, closing in self.walk:
            merged: dict[tuple, tuple] = {}  # (points, shared) -> (utility, alone, choice)
            for c, points, shared, own in choices:
                if (j, c) not in blocked:
                    u = options[j][c][1]
                    _keep(merged, (points, shared), u if own is None else u - cost[own], True, c)
            reached: dict[tuple, tuple] = {}
            for (used, paid), (v, unique, chosen) in states.items():
                for (points, shared), (u, alone, c) in merged.items():
                    if used + points <= self.eligibility:
                        value, now = v + u, paid
                        if shared is not None and shared not in paid:
                            value, now = value - cost[shared], paid | {shared}
                        _keep(reached, (used + points, now - closing), value, unique and alone,
                              (*chosen, (j, c)))
            states = reached
        final: dict[None, tuple] = {}
        for value, unique, chosen in states.values():
            _keep(final, None, value, unique, chosen)
        if not final:
            return None
        optimum, unique, chosen = final[None]
        return optimum, dict(chosen) if unique else None

    def options(self, prices: PriceVector) -> dict:
        """The options at `prices`: per product {choice: (quantity,
        cumulative value - quantity * price)}."""
        return {j: {c: (q, value - q * prices[key]) for c, q, value, key in levels}
                for j, levels in self.levels.items()}

    def solve(self, options: dict, solve_mip: Callable) -> tuple[Any, float] | None:
        """(bid, utility) of BEST_COPIES at the prices of `options` as a binary
        MIP that `solve_mip` solves, None when it is infeasible; the utility
        is the base value plus the chosen options' utilities less the costs
        of the engagements they need, exact in whole cents.
        One binary per option (by product, then choice) minimizes -utility,
        and one per engagement carries its cost; one exactly-one row per
        product, the eligibility row, then one row per option that needs an
        engagement.  Each node's bound is `best` without the options its
        fixed binaries rule out (an option at 0, the product's other options
        at 1, the options of an engagement at 0) and with the engagements
        fixed at 1 paid."""
        if self.mip is None:
            # the binaries are the first columns, in (product, choice) order, so
            # the product rows and then the eligibility row list them in turn
            choices = [(j, c) for j, levels in self.levels.items() for c, *_ in levels]
            binary = {option: f"I{k}" for k, option in enumerate(choices)}
            column = {key: k for k, key in enumerate([*choices, *self.costs])}
            products, n, links = len(self.levels), len(choices), len(self.needs)
            lp = LinearProgram([*binary.values(), *self.costs], None, Rows(
                list(itertools.accumulate([*map(len, self.levels.values()), n, *[2] * links],
                                          initial=0)),
                [*range(n), *range(n),
                 *[column[key] for link in self.needs.items() for key in link]],
                [1.0] * n + [float(q * self.catalog.get(j).eligibility_points)
                             for j, levels in self.levels.items() for _, q, *_ in levels]
                + [1.0, -1.0] * links,
                [1.0] * products + [float(self.eligibility)] + [0.0] * links,
                [EQ] * products + [LE] * (1 + links)))
            lp.ub = [1.0] * len(column)
            self.mip = lp, binary
        lp, binary = self.mip
        option = {name: key for key, name in binary.items()}

        def exact(fixed: dict[str, float]) -> float:
            blocked, forced = set(), set()
            for name, v in fixed.items():
                if name in option:
                    j, c = option[name]
                    blocked.update([(j, other) for other in options[j] if other != c]
                                   if v else [(j, c)])
                elif v:
                    forced.add(name)
                else:
                    blocked.update(key for key, e in self.needs.items() if e == name)
            best = self.best(options, blocked, forced)
            return math.inf if best is None else -best[0]

        mip = copy.copy(lp)  # shares the rows, and so their memo of simplex starts
        # by column, each 0.0 plus its coefficient, so a zero utility costs +0.0
        mip.costs = [0.0 + coef for coef in [*(-options[j][c][1] for j, c in binary),
                                             *self.costs.values()]]
        sol = solve_mip(mip, [*binary.values(), *self.costs], exact)
        if sol.status == "infeasible":
            return None
        chosen = [(j, c) for (j, c), name in binary.items() if sol.values[name] > 0.5]
        engaged = {self.needs[option] for option in chosen if option in self.needs}
        utility = sum(options[j][c][1] for j, c in chosen) - sum(self.costs[e] for e in engaged)
        return self.bid(dict(chosen)), self.base_value + utility

    def choice(self, options: dict, solve_mip: Callable) -> BaseChoice:
        """The `choose_base` entry at the prices of `options`: the base value
        plus `best`'s utility, and `best`'s bid where one bundle alone attains
        it; some bundle fits, as `oracle_frame` builds no frame where none
        does.  Its `solve` is `Frame.solve`'s, whose bundle attains the same
        exact optimum."""
        utility, chosen = self.best(options)
        return BaseChoice(self.base_value + utility, None if chosen is None else self.bid(chosen),
                          functools.partial(self.solve, options, solve_mip))


def oracle_frame(bidder_id: str, base: BundleBase, model: ValuationModel,
                 catalog: ProductCatalog, eligibility: int, memo: dict,
                 build: Callable[[dict[str, tuple[int, ...]]], Frame]) -> Frame | None:
    """The `Frame` of the bidder on `base` at `eligibility`, which `memo`, the
    run's oracle memo, keeps under (bidder, base, eligibility).  `build`
    makes it from the model ladder levels at or above each base quantity, by
    sorted product; None when even the lowest levels exceed the eligibility
    budget."""
    key = (bidder_id, base.base_id, eligibility)
    if key not in memo:
        choices = {}
        for j, base_q in sorted(base.quantities.items()):
            choices[j] = tuple(q for q in model.ladder(j) if q >= base_q)
            if not choices[j]:
                raise ValidationError(f"base quantity of {j!r} off the model ladder")
        lowest = eligibility_cost({j: levels[0] for j, levels in choices.items()}, catalog)
        memo[key] = None if lowest > eligibility else build(choices)
    return memo[key]


def best_copies(base: BundleBase, model: ValuationModel, prices: PriceVector,
                eligibility: int, catalog: ProductCatalog, memo: dict) -> BaseChoice | None:
    """`choose_base`'s entry for one base: the ladder levels that maximize the
    cumulative increment value up to the chosen level minus quantity *
    price, plus the base value.  The per-product argmax levels are the bid
    when they fit the budget; else the entry is the frame's, which `memo`
    keeps.  None when even the minimum levels exceed the eligibility
    budget."""
    frame = oracle_frame(
        model.bidder_id, base, model, catalog, eligibility, memo, lambda choices: Frame(
            {j: [(q, q, model.cumulative_value(j, q), j) for q in levels]
             for j, levels in choices.items()},
            model.base_values.get(base.base_id, 0.0), catalog, eligibility, Bundle))
    if frame is None:
        return None
    options = frame.options(prices)

    # fast path: with eligibility slack at the per-product argmax levels the
    # products decouple and the MIP is unnecessary
    # utility ties go to the higher quantity: under minimal estimated
    # marginals a bidder is exactly indifferent at the last price where it
    # still held the larger level, and held it
    greedy = {j: max(o, key=lambda q: (o[q][1], q)) for j, o in options.items()}
    if eligibility_cost(greedy, catalog) <= eligibility:
        return BaseChoice(frame.base_value + sum(options[j][q][1] for j, q in greedy.items()),
                          Bundle(greedy))
    return frame.choice(options, solve_mip)


def choose_base(agent: BidderAgent, solve: Callable, memo: dict, eligibility: int,
                prices: Callable) -> Any | None:
    """Best bid across bases; `solve(base)` gives the base's `BaseChoice`, or
    None when no bid fits, a function of the bidder, base, eligibility and
    `prices(base)` (the start prices of the base's market keys) that `memo`
    keeps for the run, resolved MIPs included.  The rule, on the entries'
    exact utilities: the strict maximum, the lower-indexed base on a tie,
    whose bid stands if its utility is >= 0, else the bidder exits (None).
    Only the winner's MIP runs, and only when its bid is unknown."""
    entries = []
    for base in agent.space.bases:
        key = (agent.bidder_id, base.base_id, eligibility, prices(base))
        if key not in memo:
            memo[key] = solve(base)
        if memo[key] is not None:
            entries.append(memo[key])
    best = max(entries, key=lambda entry: entry.utility, default=None)  # the first on a tie
    if best is None or best.utility < 0:
        return None
    return (best if best.bid is not None else best.resolve()).bid


def myopic_bid(agent: BidderAgent, prices: PriceVector, catalog: ProductCatalog,
               eligibility: int, memo: dict) -> Bundle | None:
    """best_copies per base, then the base choice of choose_base."""
    return choose_base(agent, lambda base: best_copies(base, agent.model, prices, eligibility,
                                                       catalog, memo),
                       memo, eligibility, lambda base: tuple(prices[j] for j in base.quantities))


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


def price_step(start: PriceVector, over: Mapping[Hashable, bool], keys: Iterable[Hashable],
               increments: IncrementSchedule) -> tuple[PriceVector, PriceVector]:
    """(clock, posted) prices of `keys` after a round that started at
    `start`: the clock is one increment, `increments.delta`, up, and is
    posted where the key is overdemanded."""
    clock = PriceVector({k: clock_price(start[k], increments.delta) for k in keys})
    posted = PriceVector({k: step_price(start[k], clock[k], over[k]) for k in keys})
    return clock, posted


def run_rounds(config: AuctionConfig, agents: list[BidderAgent],
               market: Market) -> AuctionTrace:
    """Rounds of bids at start prices, exits and the activity rule, until no
    key is overdemanded or `max_rounds` truncates the run.  The run owns its
    oracle memo, which it passes to each bid: `choose_base` keeps its
    entries there and the oracles their frames, and so the frames' MIP rows
    with their memos of simplex starts (the oracle MIPs repeat their rows
    across rounds at new prices).  Nothing of it outlives the run."""
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
        clock, posted = price_step(start, over, keys, config.increments)
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
    overdemanded).  Its rounds are numbered 1, 2, ... in order; each round
    prices every catalog product and gives its aggregate demand, the sum of
    its bids, which are of catalog products; every price, quantity and
    eligibility is an integer >= 0, and every bidder id can be part of a file
    name.  Anything else, or a tiered round, is an input error at `path:line`."""
    products = set(catalog.ids())

    def per_product(doc, what: str, every: bool = True) -> dict[str, int]:
        """{product: integer >= 0}; its products are the catalog's, or
        some of them unless `every`."""
        unknown, missing = set(doc) - products, products - set(doc)
        if unknown:
            raise ValidationError(f"{what}: products {sorted(unknown)} are not in the catalog")
        if every and missing:
            raise ValidationError(f"{what}: no entry for products {sorted(missing)}")
        return {j: integer(q, f"{what} of {j!r}", least=0) for j, q in doc.items()}

    rounds, over = [], {}
    for n, line in read_lines(path):
        try:
            doc = finite_json(line)
            bids = doc["bids"]
            if any(isinstance(q, list) for bid in bids.values() for q in bid.values()):
                raise ValidationError("a tiered bid; report compares standard-auction traces")
            for bidder in (*doc["eligibility"], *bids):
                check_bidder_id(bidder)
            if integer(doc["round"], "round", least=0) != len(rounds) + 1:
                raise ValidationError(
                    f"round {doc['round']} where round {len(rounds) + 1} belongs")
            rounds.append(RoundRecord(
                round=doc["round"],
                **{name: PriceVector(per_product(doc[name], f"{name} price"))
                   for name in ("start", "clock", "posted")},
                aggregate=per_product(doc["aggregate"], "aggregate demand"),
                eligibility={bidder: integer(e, f"eligibility of {bidder!r}", least=0)
                             for bidder, e in doc["eligibility"].items()},
                bids={bidder: Bundle(per_product(q, f"bid of {bidder!r}", every=False))
                      for bidder, q in bids.items()}))
            record = rounds[-1]
            for j in sorted(products):
                summed = sum(bid[j] for bid in record.bids.values())
                if record.aggregate[j] != summed:
                    raise ValidationError(f"aggregate demand of {j!r} is "
                                          f"{record.aggregate[j]}, but its bids sum to {summed}")
            over = overdemanded(record.aggregate, catalog)
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
