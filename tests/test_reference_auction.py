"""A second, independent implementation of both auctions for small
instances.  The reference enumerates every bundle of every base with
`itertools.product`, applies the documented base rule, steps prices with
`core.clock_price`, keeps the 100% activity rule and permanent exit, and
decides tier overdemand with `tiered.tier_overdemand`.  It has no rule for
ties inside a base: where the winning base's best bundle is not unique (where
the engine runs a MIP, or its greedy path takes the higher level) the draw
is discarded.  On every
other draw `trace_to_jsonl` must give the same bytes for `run_auction` and
`run_extended_auction` as for the reference."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from clockauction import engine
from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, RoundRecord, clock_price)
from clockauction.engine import AuctionConfig, BidderAgent, run_auction, trace_to_jsonl
from clockauction.estimation import ValuationModel
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.tiered import (TIERS, TieredValuationAdjustment, run_extended_auction,
                                 tier_overdemand)


class Tie(Exception):
    """The winning base's best bundle is not unique."""


def reference_bid(agent, catalog, prices, eligibility, costs):
    """The myopic bid as {product: (tier, quantity)} (tier None in the
    standard auction), None to exit.  Per base, every bundle of the model's
    ladder levels at or above the base quantities (times the tiers) within
    the eligibility: the base value plus each level's cumulative value less
    its quantity at its price, less each engaged (area, tier)'s cost once.
    The base with the strictly highest utility wins, the first on a tie;
    the bidder exits when that utility is below 0."""
    tiers = (None,) if costs is None else TIERS
    best = None  # (utility, the bundles that attain it)
    for base in agent.space.bases:
        products, top = sorted(base.quantities), None
        for bundle in itertools.product(*[[(t, q) for t in tiers for q in agent.model.ladder(j)
                                           if q >= base.quantities[j]] for j in products]):
            bid = dict(zip(products, bundle))
            if sum(catalog.get(j).eligibility_points * q for j, (_, q) in bid.items()) \
                    > eligibility:
                continue
            utility = agent.model.base_values[base.base_id] + sum(
                agent.model.cumulative_value(j, q) - q * prices[j if t is None else (j, t)]
                for j, (t, q) in bid.items())
            if costs is not None:
                utility -= sum(costs.cost(agent.bidder_id, area, t) for area, t in
                               {(catalog.get(j).area_id, t) for j, (t, _) in bid.items()})
            if top is None or utility > top[0]:
                top = (utility, [bid])
            elif utility == top[0]:
                top[1].append(bid)
        if top is not None and (best is None or top[0] > best[0]):
            best = top
    if best is None or best[0] < 0:
        return None
    if len(best[1]) > 1:
        raise Tie
    return best[1][0]


def reference_auction(config, agents, costs=None) -> list[RoundRecord]:
    """The rounds of the standard auction, or of the tiered one with `costs`."""
    catalog, delta = config.catalog, config.increments.delta
    tiers = (None,) if costs is None else TIERS
    key = lambda j, t: j if t is None else (j, t)
    keys = [key(j, t) for j in catalog.ids() for t in tiers]
    start = {key(j, t): catalog.get(j).opening_price for j in catalog.ids() for t in tiers}
    points = lambda bid: sum(catalog.get(j).eligibility_points * q for j, (_, q) in bid.items())
    eligibility = {a.bidder_id: max(points({j: (None, a.space.ladders[j].levels[-1])
                                            for j in base.quantities})
                                    for base in a.space.bases) for a in agents}
    exited, rounds = set(), []
    while True:
        bids, aggregate = {}, dict.fromkeys(keys, 0)
        for agent in agents:
            bid = None if agent.bidder_id in exited else reference_bid(
                agent, catalog, start, eligibility[agent.bidder_id], costs)
            if bid is None:  # an exit is for good
                exited.add(agent.bidder_id)
                eligibility[agent.bidder_id] = 0
                bid = {}
            bids[agent.bidder_id] = bid
            for j, (t, q) in bid.items():
                aggregate[key(j, t)] += q
        if costs is None:
            over = {j: aggregate[j] > catalog.get(j).supply for j in keys}
        else:
            over = {(j, t): flag for j in catalog.ids() for t, flag in tier_overdemand(
                {t: aggregate[(j, t)] for t in TIERS}, catalog.get(j).supply).items()}
        clock = {k: clock_price(start[k], delta) for k in keys}
        posted = {k: clock[k] if over[k] else start[k] for k in keys}
        rounds.append(RoundRecord(
            round=len(rounds) + 1, start=PriceVector(start), clock=PriceVector(clock),
            posted=PriceVector(posted), aggregate=aggregate,
            bids={b: Bundle({j: q for j, (_, q) in bid.items()}) if costs is None else bid
                  for b, bid in bids.items()},
            eligibility=dict(eligibility)))
        for bidder, bid in bids.items():  # the 100% activity rule
            if bidder not in exited:
                eligibility[bidder] = min(eligibility[bidder], points(bid))
        if not any(over.values()) or len(rounds) >= config.max_rounds:
            return rounds
        start = posted


# deployment costs of the (low, medium, high) tiers, in $50; the last two,
# zero and two equal, make the tiers' options tie where their prices do
COSTS = [(0, 1, 3), (1, 2, 6), (0, 3, 4), (2, 5, 9), (1, 4, 5), (0, 2, 8), (0, 1, 1), (0, 0, 0)]


@st.composite
def instances(draw, tiered: bool):
    """(config, agents, deployment costs or None): at most 5 products in 3
    areas, 4 bidders of 1-2 bases of 1-3 products, and 3 ladder levels;
    each (bidder, area)'s three tier costs are one of COSTS."""
    n = draw(st.integers(1, 5))
    catalog = ProductCatalog(tuple(Product(
        id=f"P{i}", area_id=f"A{draw(st.integers(0, 2))}", area_class="urban",
        supply=draw(st.integers(1, 4)), eligibility_points=draw(st.integers(1, 3)),
        opening_price=draw(st.integers(1, 20)) * 100_00) for i in range(n)))
    agents = []
    for b in range(draw(st.integers(1, 4))):
        ladders, marginals, bases, base_values = {}, {}, [], {}
        for k in range(draw(st.integers(1, 2))):
            chosen = draw(st.lists(st.sampled_from(catalog.ids()), min_size=1, max_size=3,
                                   unique=True))
            for j in chosen:
                if j not in ladders:
                    levels = draw(st.lists(st.integers(1, catalog.get(j).supply), min_size=1,
                                           max_size=3, unique=True).map(sorted))
                    ladders[j] = CopyLadder(j, tuple(levels))
                    steps, price = len(levels) - 1, catalog.get(j).opening_price
                    tenths = draw(st.lists(st.integers(0, 40), min_size=steps, max_size=steps))
                    # whole tenths of the opening price plus a cent, so that
                    # no marginal equals a price, all whole dollars
                    marginals[(j, levels[0])] = 0.0
                    marginals.update({(j, q): price * v / 10 + 1 for q, v in
                                      zip(levels[1:], sorted(tenths, reverse=True))})
            base_id = f"B{b}/base{k}"
            bases.append(BundleBase(base_id, {j: draw(st.sampled_from(ladders[j].levels))
                                              for j in chosen}))
            opening = sum(catalog.get(j).opening_price * q for j, q in bases[-1].quantities.items())
            base_values[base_id] = opening * draw(st.integers(5, 40)) / 10
        bidder = f"B{b}"
        agents.append(BidderAgent(bidder, ValuationModel(bidder, base_values, marginals),
                                  BundleSpace(bidder, tuple(bases), ladders, observed={})))
    config = AuctionConfig(catalog, IncrementSchedule(draw(st.sampled_from((0.1, 0.15, 0.2)))),
                           max_rounds=60)
    if not tiered:
        return config, agents, None
    costs = {}
    for agent in agents:
        for area in sorted({p.area_id for p in catalog}):
            rising = draw(st.sampled_from(COSTS))
            costs.update({(agent.bidder_id, area, t): c * 50_00 for t, c in zip(TIERS, rising)})
    return config, agents, TieredValuationAdjustment(costs)


def check(config, agents, costs):
    try:
        want = reference_auction(config, agents, costs)
    except Tie:
        assume(False)
    got = run_auction(config, agents) if costs is None else \
        run_extended_auction(config, agents, costs)
    assert trace_to_jsonl(got) == trace_to_jsonl(SimpleNamespace(rounds=want))


# no shrinking: each shrink step replays both auctions, so a failure took
# minutes to report; the failing draw as found is reported at once
@settings(derandomize=True, max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(instances(tiered=False))
def test_the_standard_auction_matches_the_reference(instance):
    check(*instance)


@settings(derandomize=True, max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(instances(tiered=True))
def test_the_tiered_auction_matches_the_reference(instance):
    check(*instance)


@pytest.mark.parametrize("reference_test", [test_the_standard_auction_matches_the_reference,
                                            test_the_tiered_auction_matches_the_reference])
def test_a_price_step_that_never_posts_the_last_key_fails(reference_test, monkeypatch):
    """The engine's price step with the last market key never overdemanded,
    so its price is never posted: each reference test must catch it."""
    real = engine.price_step

    def mutant(start, over, keys, increments):
        keys = list(keys)
        return real(start, {**over, keys[-1]: False}, keys, increments)

    monkeypatch.setattr(engine, "price_step", mutant)
    with pytest.raises(AssertionError):
        reference_test()
