import numpy as np
import pytest

from clockauction.core import (Bundle, IncrementSchedule, Product,
                               ProductCatalog)
from clockauction.costs import AreaStats, DEFAULT_COVERAGE_TARGETS
from clockauction.engine import AuctionConfig, BidderAgent, run_auction
from clockauction.errors import ValidationError
from clockauction.estimation import ValuationModel
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.tiered import (TIERS, TieredValuationAdjustment,
                                 coverage_report, run_extended_auction,
                                 tier_overdemand, tiered_trace_summary,
                                 tiered_trace_to_jsonl)


def make_catalog(specs):
    """specs: product_id -> (area_id, area_class, supply, opening_price_cents)."""
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=a, area_class=c, supply=s, eligibility_points=1,
                opening_price=p)
        for j, (a, c, s, p) in specs.items()))


def unit_agent(bidder, product, value):
    """Agent wanting one copy of one product, complementarity value `value`."""
    model = ValuationModel(bidder, {f"{bidder}/base0": value},
                           {(product, 1): 0.0})
    space = BundleSpace(
        bidder_id=bidder,
        bases=(BundleBase(f"{bidder}/base0", {product: 1}),),
        ladders={product: CopyLadder(product, (1,))}, observed={})
    return BidderAgent(bidder_id=bidder, model=model, space=space)


class TestTierOverdemand:
    def test_only_low_overdemanded(self):
        assert tier_overdemand({"low": 2, "medium": 1, "high": 2}, 4) == \
            {"low": True, "medium": False, "high": False}

    def test_high_cascades_downward(self):
        assert tier_overdemand({"low": 0, "medium": 0, "high": 5}, 4) == \
            {"low": True, "medium": True, "high": True}

    def test_no_demand(self):
        assert tier_overdemand({}, 4) == \
            {"low": False, "medium": False, "high": False}

    def test_boundary_is_strict(self):
        assert tier_overdemand({"low": 4}, 4)["low"] is False
        assert tier_overdemand({"low": 5}, 4)["low"] is True

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError):
            tier_overdemand({"low": -1}, 4)

    def test_hierarchy_implications(self):
        # overdemand at a stricter tier always implies it at looser tiers
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = int(rng.integers(1, 7))
            demands = {t: int(rng.integers(0, 2 * s + 1)) for t in TIERS}
            over = tier_overdemand(demands, s)
            assert not (over["high"] and not over["medium"])
            assert not (over["medium"] and not over["low"])


class TestAdjustment:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TieredValuationAdjustment({("B", "A1", "low"): -1})
        with pytest.raises(ValidationError):
            TieredValuationAdjustment({("B", "A1", "sideways"): 0})
        with pytest.raises(ValidationError):  # high cheaper than low
            TieredValuationAdjustment({("B", "A1", "low"): 10,
                                       ("B", "A1", "high"): 5})

    def test_zero_helper_and_missing_key(self):
        adj = TieredValuationAdjustment.zero(["B"], ["A1"])
        assert adj.cost("B", "A1", "high") == 0
        with pytest.raises(ValidationError):
            adj.cost("B", "A2", "high")


class TestExtendedAuction:
    def catalog(self):
        return make_catalog({"P1": ("A1", "urban", 1, 100_00)})

    def test_costly_strict_tiers_push_bid_to_low(self):
        # equal tier prices at the opening, so only the lump-sum deployment
        # cost differentiates the tiers: the bid lands on the cheapest one
        adj = TieredValuationAdjustment(
            {("X", "A1", "low"): 0, ("X", "A1", "medium"): 40_00,
             ("X", "A1", "high"): 90_00})
        config = AuctionConfig(catalog=self.catalog(),
                               increments=IncrementSchedule.constant(0.1))
        trace = run_extended_auction(config, [unit_agent("X", "P1", 500_00)], adj)
        assert trace.rounds_used == 1
        assert trace.final_allocation["X"] == {"P1": ("low", 1)}
        assert trace.deployment_costs["X"] == 0

    def test_low_price_escalation_flips_to_higher_tier(self):
        # two bidders chase the cheapest viable tier; the Low price escalates
        # away from them while Medium/High stay put, so as soon as the spread
        # beats the deployment cost a stricter tier becomes attractive
        adj = TieredValuationAdjustment(
            {(b, "A1", t): (0 if t == "low" else 5_00)
             for b in ("X", "Y") for t in TIERS})
        config = AuctionConfig(catalog=self.catalog(),
                               increments=IncrementSchedule.constant(0.1))
        agents = [unit_agent("X", "P1", 400_00), unit_agent("Y", "P1", 150_00)]
        trace = run_extended_auction(config, agents, adj)
        assert not trace.truncated
        tiers_bid = {t for record in trace.rounds
                     for bundle in record.bids.values()
                     for (t, _) in bundle.values()}
        assert "low" in tiers_bid and tiers_bid != {"low"}

    def test_clock_below_start_rejected_like_standard_auction(self):
        # a 40-cent opening price has a clock of $0 after dollar rounding;
        # both auctions share the posted-price step that rejects it
        catalog = make_catalog({"P1": ("A1", "urban", 1, 40)})
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1))
        agents = lambda: [unit_agent("X", "P1", 500_00),
                          unit_agent("Y", "P1", 400_00)]
        with pytest.raises(ValidationError, match="clock price below start"):
            run_auction(config, agents())
        adj = TieredValuationAdjustment.zero(["X", "Y"], ["A1"])
        with pytest.raises(ValidationError, match="clock price below start"):
            run_extended_auction(config, agents(), adj)

    def test_price_gradient_and_supply(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            supply = int(rng.integers(1, 3))
            catalog = make_catalog({"P1": ("A1", "urban", supply, 100_00)})
            n = int(rng.integers(2, 4))
            agents = [unit_agent(f"B{i}", "P1",
                                 int(rng.integers(120, 400)) * 100)
                      for i in range(n)]
            steps = {i: int(rng.integers(0, 8)) * 100 for i in range(n)}
            adj = TieredValuationAdjustment(
                {(f"B{i}", "A1", t): TIERS.index(t) * steps[i]
                 for i in range(n) for t in TIERS})
            config = AuctionConfig(catalog=catalog,
                                   increments=IncrementSchedule.constant(0.1),
                                   max_rounds=60)
            trace = run_extended_auction(config, agents, adj)
            assert not trace.truncated
            for record in trace.rounds:
                # stricter commitments never cost more per license
                assert record.posted[("P1", "high")] <= \
                    record.posted[("P1", "medium")] <= record.posted[("P1", "low")]
            won = sum(q for bundle in trace.final_allocation.values()
                      for (_, q) in bundle.values())
            assert won <= supply

    def test_deterministic_serialization(self):
        adj = TieredValuationAdjustment.zero(["X", "Y"], ["A1"])
        config = AuctionConfig(catalog=self.catalog(),
                               increments=IncrementSchedule.constant(0.1),
                               max_rounds=40)
        agents = lambda: [unit_agent("X", "P1", 300_00),
                          unit_agent("Y", "P1", 150_00)]
        a = run_extended_auction(config, agents(), adj)
        b = run_extended_auction(config, agents(), adj)
        assert tiered_trace_to_jsonl(a) == tiered_trace_to_jsonl(b)
        assert tiered_trace_summary(a) == tiered_trace_summary(b)
        assert a.revenue == sum(
            q * a.rounds[-1].posted[(j, t)]
            for bundle in a.final_allocation.values()
            for j, (t, q) in bundle.items())


class TestCoverageReport:
    def demographics(self):
        return {"A1": AreaStats("A1", "metro", 100_000, 50.0),
                "A2": AreaStats("A2", "rural", 40_000, 900.0)}

    def trace_with(self, allocation):
        from clockauction.tiered import TieredAuctionTrace, TieredRoundRecord
        record = TieredRoundRecord(round=1, start={}, clock={}, posted={},
                                   aggregate={}, bids=allocation, eligibility={})
        return TieredAuctionTrace(rounds=[record], final_allocation=allocation,
                                  revenue=0, rounds_used=1)

    def catalog(self):
        return make_catalog({"P1": ("A1", "metro", 3, 100_00),
                             "P2": ("A2", "rural", 3, 100_00)})

    def test_all_low_adds_nothing(self):
        trace = self.trace_with({"X": {"P1": ("low", 2), "P2": ("low", 1)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        assert summary.additional_population == 0
        assert summary.licenses_by_class_tier == {"metro": {"low": 2},
                                                  "rural": {"low": 1}}

    def test_high_tier_adds_target_delta(self):
        trace = self.trace_with({"X": {"P1": ("high", 1)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        # metro: 70% - 50% of 100,000
        assert summary.additional_population == 20_000

    def test_area_counted_once_at_strongest_tier(self):
        trace = self.trace_with({"X": {"P1": ("high", 1)},
                                 "Y": {"P1": ("medium", 2)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        assert summary.additional_population == 20_000

    def test_missing_demographics_rejected(self):
        trace = self.trace_with({"X": {"P1": ("low", 1)}})
        with pytest.raises(ValidationError):
            coverage_report(trace, self.catalog(), {}, DEFAULT_COVERAGE_TARGETS)
