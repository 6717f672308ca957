import itertools

import numpy as np
import pytest

from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, eligibility_cost)
from clockauction.engine import (AuctionConfig, BidderAgent, best_copies,
                                 compare_allocations, myopic_bid, run_auction,
                                 trace_from_jsonl, trace_to_jsonl,
                                 trace_summary)
from clockauction.errors import ValidationError
from clockauction.estimation import ValuationModel, bundle_utility
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.synthetic import random_setup


def make_catalog(specs):
    """specs: product_id -> (supply, eligibility_points, opening_price_cents)."""
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=s,
                eligibility_points=e, opening_price=p)
        for j, (s, e, p) in specs.items()))


def single_product_model(levels, marginals, base_value=0.0, bidder="X"):
    m = {("A", levels[0]): 0.0}
    for lvl, v in zip(levels[1:], marginals):
        m[("A", lvl)] = v
    return ValuationModel(bidder_id=bidder,
                          base_values={f"{bidder}/base0": base_value}, marginals=m)


class TestBestCopies:
    def test_interior_level_wins(self):
        # ladder (1, 2, 3), increments worth 400 then 200/unit, price 300:
        # utilities are -300, -200, -300 so level 2 is chosen
        model = single_product_model([1, 2, 3], [4_00, 2_00], base_value=10_00)
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 1, 1_00)})
        bundle = best_copies(base, model, PriceVector({"A": 3_00}), 10, catalog)
        assert bundle == Bundle({"A": 2})

    def test_zero_eligibility_returns_none(self):
        model = single_product_model([1], [])
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 2, 1_00)})
        assert best_copies(base, model, PriceVector({"A": 0}), 1, catalog) is None

    def test_zero_prices_take_max_levels(self):
        model = single_product_model([1, 2, 4], [5_00, 3_00])
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 1, 1_00)})
        bundle = best_copies(base, model, PriceVector({"A": 0}), 100, catalog)
        assert bundle == Bundle({"A": 4})

    def test_tight_budget_forces_tradeoff(self):
        # two products, each worth raising, but only one fits the budget;
        # the MIP must pick the one with the larger utility gain
        model = ValuationModel(
            bidder_id="X", base_values={"X/base0": 0.0},
            marginals={("A", 1): 0.0, ("A", 2): 10_00,
                       ("B", 1): 0.0, ("B", 2): 4_00})
        base = BundleBase("X/base0", {"A": 1, "B": 1})
        catalog = make_catalog({"A": (5, 2, 1_00), "B": (5, 2, 1_00)})
        prices = PriceVector({"A": 1_00, "B": 1_00})
        # budget 6 covers (2, 1) or (1, 2) but not (2, 2)
        bundle = best_copies(base, model, prices, 6, catalog)
        assert bundle == Bundle({"A": 2, "B": 1})

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(4242)
        for _ in range(80):
            n = int(rng.integers(1, 4))
            products = {}
            ladders = {}
            marginals = {}
            base_q = {}
            for i in range(n):
                j = f"P{i}"
                supply = int(rng.integers(1, 6))
                levels = sorted(rng.choice(np.arange(1, supply + 1),
                                           size=int(rng.integers(1, supply + 1)),
                                           replace=False))
                ladders[j] = [int(v) for v in levels]
                products[j] = (supply, int(rng.integers(1, 4)),
                               int(rng.integers(1, 500)))
                vals = np.sort(rng.integers(0, 800, size=len(levels)))[::-1]
                marginals[(j, ladders[j][0])] = 0.0
                for lvl, v in zip(ladders[j][1:], vals[1:]):
                    marginals[(j, lvl)] = float(v)
                base_q[j] = ladders[j][int(rng.integers(0, len(ladders[j])))]
            catalog = make_catalog(products)
            model = ValuationModel("X", {"X/base0": 0.0}, marginals)
            base = BundleBase("X/base0", base_q)
            prices = PriceVector({j: int(rng.integers(0, 600)) for j in products})
            elig = int(rng.integers(0, 25))

            got = best_copies(base, model, prices, elig, catalog)

            def utility(combo):
                b = Bundle(dict(combo))
                return bundle_utility(model, b, base, prices)

            feasible = []
            options = [[(j, q) for q in ladders[j] if q >= base_q[j]]
                       for j in sorted(base_q)]
            for combo in itertools.product(*options):
                b = Bundle(dict(combo))
                if eligibility_cost(b, catalog) <= elig:
                    feasible.append(combo)
            if not feasible:
                assert got is None
            else:
                best = max(utility(c) for c in feasible)
                assert got is not None
                assert utility(tuple(sorted(got.quantities.items()))) == best


def agent_for(model, bases, ladders, bidder="X"):
    space = BundleSpace(bidder_id=bidder, bases=tuple(bases), ladders=ladders,
                        observed={})
    return BidderAgent(bidder_id=bidder, model=model, space=space)


class TestMyopicBid:
    def catalog(self):
        return make_catalog({"A": (5, 1, 1_00), "B": (5, 1, 1_00)})

    def test_picks_better_base(self):
        model = ValuationModel(
            "X", {"X/base0": 3_00, "X/base1": 9_00},
            {("A", 1): 0.0, ("B", 1): 0.0})
        agent = agent_for(model,
                          [BundleBase("X/base0", {"A": 1}),
                           BundleBase("X/base1", {"B": 1})],
                          {"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))})
        prices = PriceVector({"A": 1_00, "B": 1_00})
        assert myopic_bid(agent, prices, self.catalog(), 10) == Bundle({"B": 1})

    def test_tie_keeps_lower_indexed_base(self):
        model = ValuationModel(
            "X", {"X/base0": 5_00, "X/base1": 5_00},
            {("A", 1): 0.0, ("B", 1): 0.0})
        agent = agent_for(model,
                          [BundleBase("X/base0", {"A": 1}),
                           BundleBase("X/base1", {"B": 1})],
                          {"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))})
        prices = PriceVector({"A": 1_00, "B": 1_00})
        assert myopic_bid(agent, prices, self.catalog(), 10) == Bundle({"A": 1})

    def test_negative_utility_exits(self):
        model = ValuationModel("X", {"X/base0": 50}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        assert myopic_bid(agent, PriceVector({"A": 1_00}), self.catalog(), 10) is None

    def test_zero_utility_still_bids(self):
        model = ValuationModel("X", {"X/base0": 1_00}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        assert myopic_bid(agent, PriceVector({"A": 1_00}), self.catalog(), 10) == \
            Bundle({"A": 1})


class TestRunAuction:
    def test_no_overdemand_single_round(self):
        catalog = make_catalog({"A": (2, 1, 1_00)})
        model = ValuationModel("X", {"X/base0": 10_00}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1))
        trace = run_auction(config, [agent])
        assert trace.rounds_used == 1
        assert not trace.truncated
        assert trace.final_allocation["X"] == Bundle({"A": 1})
        # cleared in round 1 at the opening price
        assert trace.revenue == 1_00

    def test_two_bidder_escalation(self):
        # supply 1, both bidders want it; prices climb until the weaker
        # valuation goes under water and its holder exits
        catalog = make_catalog({"A": (1, 1, 100_00)})

        def bidder(bid, value):
            model = ValuationModel(bid, {f"{bid}/base0": value}, {("A", 1): 0.0})
            return agent_for(model, [BundleBase(f"{bid}/base0", {"A": 1})],
                             {"A": CopyLadder("A", (1,))}, bidder=bid)

        strong = bidder("S", 200_00)
        weak = bidder("W", 130_00)
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1))
        trace = run_auction(config, [strong, weak])
        assert trace.rounds_used > 1
        assert trace.final_allocation["S"] == Bundle({"A": 1})
        assert trace.final_allocation["W"] == Bundle({})
        # 100 -> 110 -> 121 -> 133.1: W drops once the start price passes 130
        assert trace.rounds[-1].start["A"] > 130_00
        # posted prices never decrease across rounds
        for prev, cur in zip(trace.rounds, trace.rounds[1:]):
            assert cur.posted["A"] >= prev.posted["A"]

    def test_all_exit_first_round(self):
        catalog = make_catalog({"A": (1, 1, 100_00)})
        model = ValuationModel("X", {"X/base0": 0.0}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1))
        trace = run_auction(config, [agent])
        assert trace.rounds_used == 1
        assert trace.revenue == 0
        assert trace.final_allocation["X"] == Bundle({})

    def test_truncation_flag(self):
        catalog = make_catalog({"A": (1, 1, 1_00)})

        def bidder(bid):
            model = ValuationModel(bid, {f"{bid}/base0": 10**12}, {("A", 1): 0.0})
            return agent_for(model, [BundleBase(f"{bid}/base0", {"A": 1})],
                             {"A": CopyLadder("A", (1,))}, bidder=bid)

        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1),
                               max_rounds=5)
        trace = run_auction(config, [bidder("X"), bidder("Y")])
        assert trace.truncated
        assert trace.rounds_used == 5


class TestEngineInvariants:
    @pytest.mark.parametrize("seed", [11, 37, 101])
    def test_monotone_prices_and_eligibility(self, seed):
        config, agents = random_setup(seed, n_bidders=4, n_products=8)
        trace = run_auction(config, agents)
        assert not trace.truncated
        ids = config.catalog.ids()
        for prev, cur in zip(trace.rounds, trace.rounds[1:]):
            assert all(cur.posted[j] >= prev.posted[j] for j in ids)
            assert cur.start == prev.posted
            for bidder in prev.eligibility:
                assert cur.eligibility[bidder] <= prev.eligibility[bidder]
        # termination condition: nothing overdemanded in the last round
        last = trace.rounds[-1]
        assert all(last.aggregate[j] <= config.catalog.get(j).supply for j in ids)

    def test_byte_determinism(self):
        config, agents = random_setup(55, n_bidders=4, n_products=8)
        a = trace_to_jsonl(run_auction(config, agents), config.catalog)
        config2, agents2 = random_setup(55, n_bidders=4, n_products=8)
        b = trace_to_jsonl(run_auction(config2, agents2), config2.catalog)
        assert a == b


class TestCompareAllocations:
    def catalog16(self):
        return make_catalog({f"P{i:02d}": (4, 1, 1_00) for i in range(16)})

    def test_identical_is_zero(self):
        alloc = {"X": Bundle({"P00": 2})}
        per, mean = compare_allocations(alloc, dict(alloc), self.catalog16())
        assert per == {"X": 0.0} and mean == 0.0

    def test_single_unit_difference(self):
        a = {"X": Bundle({"P00": 2})}
        b = {"X": Bundle({"P00": 1})}
        per, mean = compare_allocations(a, b, self.catalog16())
        # one squared unit over 16 products: sqrt(1/16) = 0.25
        assert per["X"] == pytest.approx(0.25)
        assert mean == pytest.approx(0.25)

    def test_mean_over_bidders(self):
        a = {"X": Bundle({"P00": 2}), "Y": Bundle({})}
        b = {"X": Bundle({"P00": 1}), "Y": Bundle({})}
        _, mean = compare_allocations(a, b, self.catalog16())
        assert mean == pytest.approx(0.125)

    def test_mismatched_bidders_rejected(self):
        with pytest.raises(ValidationError):
            compare_allocations({"X": Bundle({})}, {"Y": Bundle({})},
                                self.catalog16())


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        config, agents = random_setup(3, n_bidders=3, n_products=6)
        trace = run_auction(config, agents)
        text = trace_to_jsonl(trace, config.catalog)
        again = trace_from_jsonl(text, config.catalog)
        assert again.truncated == trace.truncated
        assert again.revenue == trace.revenue
        assert again.rounds_used == trace.rounds_used
        assert again.final_allocation == trace.final_allocation
        assert trace_to_jsonl(again, config.catalog) == text
        assert trace_summary(again) == trace_summary(trace)
