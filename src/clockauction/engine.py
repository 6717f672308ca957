"""Clock-auction round loop with myopic bidders.

Each round, every agent picks the utility-maximizing bundle at the round's
start prices: per base, BEST_COPIES chooses one ladder level per product
under the eligibility budget; the outer strategy adds the base
complementarity value and keeps the best base.  Both oracles work from one
`Frame` per (bidder, base, eligibility): past the standard greedy fast path,
an exact enumeration of its bundles names the bid, and its MIP runs only
when the enumeration cannot.  Overdemanded products move to the clock
price; the loop ends when every product clears.  The same loop
(`run_rounds`) runs the deployment-tiered auction over (product, tier) keys.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

import numpy as np

from .core import (Bundle, EMPTY_BUNDLE, INPUT_ERRORS, IncrementSchedule,
                   PriceVector, ProductCatalog, RoundRecord, check_bidder_id, clock_price,
                   eligibility_cost, finite_json, input_error, read_lines, step_price)
from .errors import ValidationError
from .estimation import ValuationModel, bundle_utility, initial_eligibility
from .ingest import BundleBase, BundleSpace
from .solver import EQ, LE, LinearProgram, Rows, mip_margin, solve_mip


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


# the most bundles an enumeration holds; larger oracle MIPs branch without it
MAX_BUNDLES = 4096


class Bundles:
    """Every bundle of a base's options (one option per product) as NumPy
    tables with one axis per product, sorted, along its options in order:
    the price-free part of the enumeration, built from each option's
    quantity in `quantities` {product: {choice: quantity}}.  `engaged` marks
    the engagements each bundle needs, `fits` the bundles whose eligibility
    fits, and `paid` is each bundle's lump-sum engagement costs.  `needs`
    maps an option to the engagement it needs, and `costs` each engagement
    to its cost (the tiered oracle's)."""

    def __init__(self, quantities: Mapping[str, Mapping[Hashable, int]],
                 catalog: ProductCatalog, eligibility: int,
                 needs: Mapping[tuple[str, Hashable], Hashable] | None = None,
                 costs: Mapping[Hashable, float] | None = None):
        products = sorted(quantities)
        self.sizes = [len(quantities[j]) for j in products]
        self.keys = [(j, c) for j in products for c in quantities[j]]
        starts = np.cumsum([0, *self.sizes]).tolist()
        self.spans = [slice(*span) for span in zip(starts, starts[1:])]
        self.axes = [tuple(n if axis == k else 1 for axis in range(len(self.sizes)))
                     for k, n in enumerate(self.sizes)]
        self.pair = {name: k for k, name in enumerate(costs or {})}
        self.cost = np.array([costs[name] for name in self.pair], dtype=float)
        self.uses = np.zeros((len(self.keys), len(self.pair)), dtype=bool)
        if needs:
            self.uses[range(len(self.keys)), [self.pair[needs[key]] for key in self.keys]] = True
        self.engaged = self.table(self.uses, np.logical_or)
        self.fits = self.table([quantities[j][c] * catalog.get(j).eligibility_points
                                for j, c in self.keys]) <= eligibility
        self.paid = self.engaged @ self.cost

    @staticmethod
    def enumerable(options: Mapping[str, Mapping]) -> bool:
        """Whether `options` has bundles, at most MAX_BUNDLES of them."""
        return bool(options) and math.prod(map(len, options.values())) <= MAX_BUNDLES

    def table(self, per_option, combine=np.add) -> np.ndarray:
        """Rows per option combined across the products into the bundle
        table, each product's rows along its own axis."""
        per_option = np.asarray(per_option)
        return functools.reduce(combine, [per_option[span].reshape(axes + per_option.shape[1:])
                                          for span, axes in zip(self.spans, self.axes)])

    def value(self, options: Mapping[str, Mapping[Hashable, tuple[int, float]]]) -> np.ndarray:
        """Each bundle's objective in `Frame.solve`'s MIP over `options`, per
        product {choice: (quantity, utility)} with these quantities: -utility
        plus `paid`, inf where its eligibility does not fit."""
        utilities = self.table([options[j][c][1] for j, c in self.keys])
        return np.where(self.fits, self.paid - utilities, math.inf)

    def exact(self, options: Mapping[str, Mapping[Hashable, tuple[int, float]]],
              binary: Mapping[tuple[str, Hashable], str]) -> Callable[[dict[str, float]], float]:
        """The exact optimum of each branch-and-bound node of `Frame.solve`'s
        MIP over `options`, as `solve_mip`'s `exact`; `binary` names the
        options' binaries and the keys of `costs` the engagement binaries.
        `exact(fixed)` blocks the options that the node's fixed binaries rule
        out and adds the costs of the forced engagements a bundle does not
        pay already; inf when no fitting bundle is left."""
        value = self.value(options)
        keys, pair, uses, cost = self.keys, self.pair, self.uses, self.cost
        option = {binary[key]: (i, span) for span in self.spans
                  for i, key in enumerate(keys[span], span.start)}

        def exact(fixed: dict[str, float]) -> float:
            blocked = np.zeros(len(keys))
            forced = []
            for name, v in fixed.items():
                if name in option:
                    i, span = option[name]
                    if v:  # the product's other options are out
                        kept = blocked[i]
                        blocked[span] = math.inf
                        blocked[i] = kept
                    else:
                        blocked[i] = math.inf
                elif v:
                    forced.append(pair[name])
                else:
                    blocked[uses[:, pair[name]]] = math.inf
            total = value + self.table(blocked)
            if forced:  # their costs, where the bundle does not pay them already
                total += (~self.engaged[..., forced] * cost[forced]).sum(axis=-1)
            return float(total.min())
        return exact


@dataclass
class BaseChoice:
    """One base's entry for `choose_base`.  `utility` is the exact utility of
    the base's best bid, base value included, and lies within `tolerance` of
    the utility the oracle's MIP gives; `bid` is the MIP's bid where it is
    already known, else None.  `solve()` runs the MIP and gives (bid,
    utility); `resolve` calls it at most once.  An entry without `solve`
    holds the oracle's answer: its bid and utility, tolerance 0."""
    utility: float
    bid: Any = None
    tolerance: float = 0.0
    solve: Callable[[], tuple[Any, float]] | None = None

    def resolve(self) -> "BaseChoice":
        """The entry with the MIP's bid and utility, tolerance 0."""
        if self.solve is not None:
            (self.bid, self.utility), self.tolerance, self.solve = self.solve(), 0.0, None
        return self


class Frame:
    """The price-free part of one bidder's oracle on one base at one
    eligibility, which a run builds once and keeps in ORACLE_MEMO.  `levels`
    gives each product's options, by sorted product, as (choice, quantity,
    cumulative value, price key): (level, level, value, product) in the
    standard auction, ((tier, level), level, value, (product, tier)) in the
    tiered one, whose frames also carry `costs`, each (area, tier)
    engagement's lump-sum cost, and `needs`, the engagement each (product,
    choice) needs.  `bid` makes a bid of {product: choice}.  The
    enumeration's `Bundles` (None above MAX_BUNDLES bundles) is built at its
    first use, and the MIP at the first solve; every solve re-prices a copy
    that shares its rows (`solver.Rows`), and their phase-1 memo."""

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
    def bundles(self) -> Bundles | None:
        quantities = {j: {c: q for c, q, _, _ in levels} for j, levels in self.levels.items()}
        return (Bundles(quantities, self.catalog, self.eligibility, self.needs, self.costs)
                if Bundles.enumerable(quantities) else None)

    def options(self, prices: PriceVector) -> dict:
        """The options at `prices`: per product {choice: (quantity,
        cumulative value - quantity * price)}."""
        return {j: {c: (q, value - q * prices[key]) for c, q, value, key in levels}
                for j, levels in self.levels.items()}

    def solve(self, options: dict, solve_mip: Callable,
              utility: Callable[[Any], float] | None = None) -> tuple[Any, float] | None:
        """(bid, utility) of BEST_COPIES at the prices of `options` as a binary
        MIP that `solve_mip` solves, None when it is infeasible; the utility
        is `utility(bid)`, by default the base value less the MIP's objective.
        One binary per option (by product, then choice) minimizes -utility,
        and one per engagement carries its cost; one exactly-one row per
        product, the eligibility row, then one row per option that needs an
        engagement."""
        if self.mip is None:
            # the binaries are the first columns, in (product, choice) order, so
            # the product rows and then the eligibility row list them in turn
            choices = [(j, c) for j, levels in self.levels.items() for c, *_ in levels]
            binary = {option: f"I{k}" for k, option in enumerate(choices)}
            column = {key: k for k, key in enumerate([*choices, *self.costs])}
            products, n, links = len(self.levels), len(choices), len(self.needs)
            lp = LinearProgram([*binary.values(), *self.costs], None, Rows(
                np.cumsum([0, *map(len, self.levels.values()), n, *[2] * links]),
                np.array([*range(n), *range(n),
                          *[column[key] for link in self.needs.items() for key in link]],
                         dtype=np.intp),
                np.array([1.0] * n + [float(q * self.catalog.get(j).eligibility_points)
                                      for j, levels in self.levels.items() for _, q, *_ in levels]
                         + [1.0, -1.0] * links),
                [1.0] * products + [float(self.eligibility)] + [0.0] * links,
                [EQ] * products + [LE] * (1 + links), len(column)))
            lp.ub = [1.0] * len(column)
            self.mip = lp, binary
        lp, binary = self.mip
        objective = {name: -options[j][c][1] for (j, c), name in binary.items()}
        mip = copy.copy(lp)  # shares the rows, and so their phase-1 memo
        mip.objective = {**objective, **self.costs}
        sol = solve_mip(mip, [*binary.values(), *self.costs],
                        None if self.bundles is None else self.bundles.exact(options, binary))
        if sol.status == "infeasible":
            return None
        bid = self.bid({j: c for (j, c), name in binary.items() if sol.values[name] > 0.5})
        return bid, self.base_value - sol.objective_value if utility is None else utility(bid)

    def choice(self, options: dict, solve_mip: Callable,
               utility: Callable[[Any], float] | None = None) -> BaseChoice | None:
        """The `choose_base` entry at the prices of `options`, whose `solve`
        is `Frame.solve`'s.  The enumeration gives the exact utility.  The
        MIP's objective lies within the MIP's margin (`solver.mip_margin`) of
        the optimum, or `solve_mip` raises; the tolerance is twice the margin
        of its costs and the base value, which also covers the rounding of
        adding the base value.  The bid is the enumeration's argmin when no
        other fitting bundle lies within twice the margin of the optimum: the
        MIP's bundle is within one margin, plus INT_TOL per binary it
        rounds.  Without an enumeration the MIP runs at once; None when no
        bundle fits."""
        solve = functools.partial(self.solve, options, solve_mip, utility)
        if self.bundles is None:
            result = solve()
            return None if result is None else BaseChoice(result[1], result[0])
        value = self.bundles.value(options)
        optimum = float(value.min())
        if optimum == math.inf:  # as solve_mip would find; oracle_frame rules it out
            return None
        coefficients = [u for o in options.values() for _, u in o.values()]
        coefficients += self.bundles.cost.tolist()
        margin = mip_margin(coefficients)
        bid = None
        if np.count_nonzero(value <= optimum + 2 * margin) == 1:
            at = np.unravel_index(int(value.argmin()), value.shape)
            bid = self.bid({j: list(options[j])[int(i)] for j, i in zip(sorted(options), at)})
        return BaseChoice(self.base_value - optimum, bid,
                          2 * mip_margin([*coefficients, self.base_value]), solve)


def oracle_frame(bidder_id: str, base: BundleBase, model: ValuationModel,
                 catalog: ProductCatalog, eligibility: int,
                 build: Callable[[dict[str, tuple[int, ...]]], Frame]) -> Frame | None:
    """The `Frame` of the bidder on `base` at `eligibility`: the run's, which
    ORACLE_MEMO keeps under (bidder, base, eligibility), or outside a run one
    for this call alone.  `build` makes it from the model ladder levels at or
    above each base quantity, by sorted product; None when even the lowest
    levels exceed the eligibility budget."""
    frames = ORACLE_MEMO.get()
    if frames is None:
        frames = {}
    key = (bidder_id, base.base_id, eligibility)
    if key not in frames:
        choices = {}
        for j, base_q in sorted(base.quantities.items()):
            choices[j] = tuple(q for q in model.ladder(j) if q >= base_q)
            if not choices[j]:
                raise ValidationError(f"base quantity of {j!r} off the model ladder")
        lowest = eligibility_cost({j: levels[0] for j, levels in choices.items()}, catalog)
        frames[key] = None if lowest > eligibility else build(choices)
    return frames[key]


def best_copies(base: BundleBase, model: ValuationModel, prices: PriceVector,
                eligibility: int, catalog: ProductCatalog) -> BaseChoice | None:
    """`choose_base`'s entry for one base: the ladder levels that maximize the
    cumulative increment value up to the chosen level minus quantity *
    price, plus the base value.  The per-product argmax levels are the bid
    when they fit the budget; else the entry is the frame's, whose resolved
    utility is the MIP bundle's `bundle_utility`.  None when even the
    minimum levels exceed the eligibility budget."""
    frame = oracle_frame(model.bidder_id, base, model, catalog, eligibility, lambda choices: Frame(
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
        bundle = Bundle(greedy)
        return BaseChoice(bundle_utility(model, bundle, base, prices), bundle)
    return frame.choice(options, solve_mip,
                        lambda bundle: bundle_utility(model, bundle, base, prices))


def choose_base(agent: BidderAgent, solve: Callable, memo: dict, eligibility: int,
                prices: Callable) -> Any | None:
    """Best bid across bases; `solve(base)` gives the base's `BaseChoice`, or
    None when no bid fits, a function of the bidder, base, eligibility and
    `prices(base)` (the start prices of the base's market keys) that `memo`
    keeps for the run, resolved MIPs included.  The rule, on the MIPs'
    utilities: strict > keeps the lower-indexed base on a tie, and the bid
    stands if its utility is >= 0, else the bidder exits (None).  When the
    exact winner leads every other base by more than their summed tolerances
    and its utility is more than its tolerance from 0, the rule picks it and
    its exit, and only an unknown winning bid runs its MIP.  Otherwise every
    base is resolved and the rule runs as written."""
    entries = []
    for base in agent.space.bases:
        key = (agent.bidder_id, base.base_id, eligibility, prices(base))
        if key not in memo:
            memo[key] = solve(base)
        if memo[key] is not None:
            entries.append(memo[key])
    if not entries:
        return None
    best = max(entries, key=lambda entry: entry.utility)
    if abs(best.utility) > best.tolerance and all(
            best.utility - entry.utility > best.tolerance + entry.tolerance
            for entry in entries if entry is not best):
        if best.utility < 0:
            return None
        return (best if best.bid is not None else best.resolve()).bid
    best_u = -math.inf
    best_bid = None
    for entry in map(BaseChoice.resolve, entries):
        if entry.utility > best_u:
            best_bid, best_u = entry.bid, entry.utility
    return best_bid if best_bid is not None and best_u >= 0 else None


def myopic_bid(agent: BidderAgent, prices: PriceVector, catalog: ProductCatalog,
               eligibility: int, memo: dict) -> Bundle | None:
    """best_copies per base, then the base choice of choose_base."""
    return choose_base(agent, lambda base: best_copies(base, agent.model, prices, eligibility,
                                                       catalog),
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


# the oracle memo of the run in progress, None outside `run_rounds`
ORACLE_MEMO: ContextVar[dict | None] = ContextVar("oracle_memo", default=None)


@contextmanager
def oracle_memo():
    """A new ORACLE_MEMO for the block."""
    token = ORACLE_MEMO.set({})
    try:
        yield
    finally:
        ORACLE_MEMO.reset(token)


@oracle_memo()
def run_rounds(config: AuctionConfig, agents: list[BidderAgent],
               market: Market) -> AuctionTrace:
    """Rounds of bids at start prices, exits and the activity rule, until no
    key is overdemanded or `max_rounds` truncates the run.  The run owns its
    oracle memo (`choose_base`'s, passed to each bid, and ORACLE_MEMO while
    it runs, where the oracles keep their frames), and so the frames' MIP
    rows with their phase-1 memos: the oracle MIPs repeat their rows across
    rounds at new prices."""
    if not agents:
        raise ValidationError("need at least one agent")
    if len({a.bidder_id for a in agents}) < len(agents):
        raise ValidationError("duplicate bidder ids")
    catalog = config.catalog
    keys = market.product_of
    start = PriceVector({k: catalog.get(j).opening_price for k, j in keys.items()})
    eligibility = {a.bidder_id: initial_eligibility(a.space, catalog) for a in agents}
    exited: set[str] = set()
    memo = ORACLE_MEMO.get()

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


def _count(value, what: str) -> int:
    """`value` if it is an integer >= 0 and not a bool, else a ValidationError
    naming `what`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(f"{what} must be an integer >= 0, not {value!r}")
    return value


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
        return {j: _count(q, f"{what} of {j!r}") for j, q in doc.items()}

    rounds, over = [], {}
    for n, line in read_lines(path):
        try:
            doc = finite_json(line)
            bids = doc["bids"]
            if any(isinstance(q, list) for bid in bids.values() for q in bid.values()):
                raise ValidationError("a tiered bid; report compares standard-auction traces")
            for bidder in (*doc["eligibility"], *bids):
                check_bidder_id(bidder)
            if _count(doc["round"], "round") != len(rounds) + 1:
                raise ValidationError(
                    f"round {doc['round']} where round {len(rounds) + 1} belongs")
            rounds.append(RoundRecord(
                round=doc["round"],
                **{name: PriceVector(per_product(doc[name], f"{name} price"))
                   for name in ("start", "clock", "posted")},
                aggregate=per_product(doc["aggregate"], "aggregate demand"),
                eligibility={bidder: _count(e, f"eligibility of {bidder!r}")
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
