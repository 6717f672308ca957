import functools
import gc
import hashlib
import json
import re
import weakref

import numpy as np
import pytest

import clockauction.engine as engine
import clockauction.solver as solver
from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, RoundRecord)
from clockauction.costs import AreaStats, DEFAULT_COVERAGE_TARGETS
from clockauction.engine import (AuctionConfig, AuctionTrace, BidderAgent, run_auction,
                                 trace_summary, trace_to_jsonl)
from clockauction.errors import ValidationError
from clockauction.estimation import ValuationModel, initial_eligibility
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.pipeline import estimate_all, trace_to_bidlog
from clockauction.synthetic import random_setup
import clockauction.tiered as tiered
from clockauction.tiered import (TIERS, TieredValuationAdjustment,
                                 coverage_report, deployment_costs,
                                 run_extended_auction)
from test_solver import lp_min


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


def tier_flags(demands, supply):
    """`engine.overdemanded` per tier of one product P of `supply`."""
    catalog = make_catalog({"P": ("A1", "urban", supply, 100_00)})
    over = engine.overdemanded({("P", t): demands.get(t, 0) for t in TIERS}, catalog)
    return {t: over[("P", t)] for t in TIERS}


class TestTierOverdemand:
    def test_only_low_overdemanded(self):
        assert tier_flags({"low": 2, "medium": 1, "high": 2}, 4) == \
            {"low": True, "medium": False, "high": False}

    def test_high_cascades_downward(self):
        assert tier_flags({"low": 0, "medium": 0, "high": 5}, 4) == \
            {"low": True, "medium": True, "high": True}

    def test_no_demand(self):
        assert tier_flags({}, 4) == \
            {"low": False, "medium": False, "high": False}

    def test_boundary_is_strict(self):
        assert tier_flags({"low": 4}, 4)["low"] is False
        assert tier_flags({"low": 5}, 4)["low"] is True

    def test_a_product_key_is_the_one_tier_case(self):
        """A product id is its product's only key: demand above supply.  Tier
        keys count only their own product's stricter tiers."""
        catalog = make_catalog({"P": ("A1", "urban", 4, 100_00),
                                "Q": ("A2", "urban", 2, 100_00)})
        assert engine.overdemanded({"P": 4, "Q": 3}, catalog) == {"P": False, "Q": True}
        over = engine.overdemanded({("P", "low"): 0, ("P", "medium"): 0, ("P", "high"): 3,
                                    ("Q", "low"): 1, ("Q", "medium"): 0, ("Q", "high"): 2},
                                   catalog)
        assert over == {("P", "low"): False, ("P", "medium"): False, ("P", "high"): False,
                        ("Q", "low"): True, ("Q", "medium"): False, ("Q", "high"): False}

    def test_hierarchy_implications(self):
        # overdemand at a stricter tier always implies it at looser tiers
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = int(rng.integers(1, 7))
            demands = {t: int(rng.integers(0, 2 * s + 1)) for t in TIERS}
            over = tier_flags(demands, s)
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

    @pytest.mark.parametrize("costs, falling", [
        pytest.param({"low": 5, "high": 10}, False, id="no-medium"),
        pytest.param({"medium": 5, "high": 10}, False, id="no-low"),
        pytest.param({"low": 5, "medium": 10}, False, id="no-high"),
        pytest.param({"low": 10, "high": 5}, True, id="falling-without-medium"),
        pytest.param({"medium": 10, "high": 5}, True, id="falling-without-low"),
        pytest.param({"low": 10, "medium": 5, "high": 20}, True, id="falling-once")])
    def test_monotone_over_the_tiers_present(self, costs, falling):
        """Costs may not fall from one tier to a stricter one among the tiers
        a (bidder, area) has; a tier it lacks has no cost, not cost 0, and
        asking for it is the error."""
        table = {("B", "A1", tier): cost for tier, cost in costs.items()}
        if falling:
            with pytest.raises(ValidationError,
                               match=re.escape("costs not monotone in tier for ('B', 'A1')")):
                TieredValuationAdjustment(table)
            return
        adj = TieredValuationAdjustment(table)
        missing = next(t for t in TIERS if t not in costs)
        with pytest.raises(ValidationError, match=re.escape(f"(B, A1, {missing})")):
            adj.cost("B", "A1", missing)

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
        assert deployment_costs(trace, config.catalog, adj) == {"X": 0}

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
        with pytest.raises(ValidationError, match=r"price of P1: .*\$0\.40"):
            run_auction(config, agents())
        adj = TieredValuationAdjustment.zero(["X", "Y"], ["A1"])
        with pytest.raises(ValidationError, match=r"price of P1::\w+: .*\$0\.40"):
            run_extended_auction(config, agents(), adj)

    def test_overdemanded_price_that_cannot_rise_rejected_in_round_1(self):
        # $4.00 * 1.1 rounds back to $4.00: an overdemanded price that would
        # stall until max_rounds is refused in the first round of either auction
        catalog = make_catalog({"A": ("A1", "urban", 1, 4_00)})
        config = AuctionConfig(catalog=catalog, increments=IncrementSchedule.constant(0.1),
                               max_rounds=1)
        agents = lambda: [unit_agent("X", "A", 500_00), unit_agent("Y", "A", 400_00)]
        message = r"price of A{}: its clock at delta 0\.1 does not rise above its start " \
                  r"price \$4\.00"
        with pytest.raises(ValidationError, match=message.format("")):
            run_auction(config, agents())
        adj = TieredValuationAdjustment.zero(["X", "Y"], ["A1"])
        with pytest.raises(ValidationError, match=message.format("::low")):
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
        assert trace_to_jsonl(a) == trace_to_jsonl(b)
        assert trace_summary(a) == trace_summary(b)
        assert a.revenue == sum(
            q * a.rounds[-1].posted[(j, t)]
            for bundle in a.final_allocation.values()
            for j, (t, q) in bundle.items())


def test_deployment_costs_pay_each_engaged_area_and_tier_once():
    """Two licenses of one area at one tier pay its cost once, another tier
    of that area pays its own, and a bidder that wins nothing pays 0; the
    bidders come in sorted order."""
    catalog = make_catalog({"P1": ("A1", "urban", 3, 100_00), "P2": ("A1", "urban", 3, 100_00),
                            "P3": ("A2", "rural", 3, 100_00)})
    adj = TieredValuationAdjustment(
        {(b, a, t): 100 * (k + 1) + (1000 if a == "A2" else 0)
         for b in "XYZ" for a in ("A1", "A2") for k, t in enumerate(TIERS)})
    allocation = {"Z": {"P1": ("low", 1), "P2": ("medium", 1)}, "Y": {},
                  "X": {"P1": ("low", 2), "P2": ("low", 1), "P3": ("high", 1)}}
    trace = AuctionTrace(rounds=[], final_allocation=allocation, revenue=0, rounds_used=0)
    costs = deployment_costs(trace, catalog, adj)
    assert list(costs.items()) == [("X", 100 + 1300), ("Y", 0), ("Z", 100 + 200)]


def tiered_text(trace, catalog, adjustment):
    """The run's trace and its sorted-key JSON summary as `simulate-extended`
    writes them, less the manifest and revenue keys: `trace_summary` with
    the `deployment_costs_cents` section."""
    summary = {**trace_summary(trace),
               "deployment_costs_cents": deployment_costs(trace, catalog, adjustment)}
    return trace_to_jsonl(trace) + json.dumps(summary, sort_keys=True)


# sha256 of `tiered_text`, recorded before the simplex tableau was built in
# one pass; zero costs tie the three tiers, so the branch-and-bound order
# decides the bids
BB_DIGESTS = {
    0: "ac859613dc6122444551ec31fb4133e268e05c8b46814bc60d4fef783dd0a936",
    1: "64654941eecee638034279675e7f1f96b64bdc19ccce4066bedb949f51e6e5a9",
    2: "2a123ba6856616978d13f17965f1f100f58a3f6f6705f86dfd31b50388ba80b4",
}
# recorded from the dive, which takes the first exact optimum of the search
# that tries 0 first.  The branch and bound before it wrote other bytes on
# these seeds: it kept a later incumbent whose LP objective read lower by
# float noise alone, so at seed 75 it took P02 at medium where the dive
# takes it at low, both bundles worth exactly 23,554,212 cents, their
# objectives 23554212.000000007 and 23554212.000000015
TIE_DIGESTS = {
    75: "c8b5c3ee3a016982ded595e3715ef4813740dff7aa63c34c6b4fafe97008798b",
    89: "424195f83c71d35a4cdd2d5e0709fdaf06734910173acb272a85b02a15538135",
}


@pytest.mark.parametrize("seed", sorted({**BB_DIGESTS, **TIE_DIGESTS}))
def test_bb_path_trace_digest(seed, monkeypatch):
    calls = []
    solve_mip = tiered.solve_mip
    monkeypatch.setattr(tiered, "solve_mip",
                        lambda *a: calls.append(1) or solve_mip(*a))
    config, agents = random_setup(seed, n_bidders=4, n_products=8, n_bases=2)
    adj = TieredValuationAdjustment.zero([a.bidder_id for a in agents],
                                         sorted({p.area_id for p in config.catalog}))
    trace = run_extended_auction(config, agents, adj)
    assert calls, "no oracle call reached the MIP"
    text = tiered_text(trace, config.catalog, adj)
    assert hashlib.sha256(text.encode()).hexdigest() == {**BB_DIGESTS, **TIE_DIGESTS}[seed]


def test_the_memo_keys_every_tier_price():
    """`choose_base` keeps an answer under the prices of every market key of
    the base: a question that differs from an earlier one only at stricter
    tiers is asked anew.  No run asks such a pair, since the low tier is
    overdemanded whenever a stricter one is, so its price pins the others."""
    catalog = make_catalog({"P": ("A1", "urban", 1, 100_00)})
    market = tiered.tiered_market(catalog, TieredValuationAdjustment.zero(["X"], ["A1"]))
    agent, memo = unit_agent("X", "P", 300_00), {}

    def bid(*prices):
        at = PriceVector({("P", t): p for t, p in zip(TIERS, prices)})
        return engine.choose_base(agent, market, at, 1, memo)

    assert bid(200_00, 200_00, 100_00) == {"P": ("high", 1)}
    assert bid(200_00, 210_00, 250_00) == {"P": ("low", 1)}


def test_oracle_memo_is_exact_and_per_run(monkeypatch):
    """No two MIPs of a run ask the same oracle question, and a second run in
    the same process solves as many MIPs and writes the same bytes.  A MIP
    runs when its entry is resolved, so the entry records its question."""
    mip_keys = []
    oracle = tiered._best_tiered_copies

    def recording_oracle(base, model, prices, eligibility, catalog, bidder_id, adjustment,
                         memo):
        key = (bidder_id, base.base_id, eligibility,
               tuple(prices[(j, t)] for j in base.quantities for t in TIERS))
        entry = oracle(base, model, prices, eligibility, catalog, bidder_id, adjustment, memo)
        if entry is not None and entry.solve is not None:
            solve = entry.solve
            entry.solve = lambda: mip_keys.append(key) or solve()
        return entry

    monkeypatch.setattr(tiered, "_best_tiered_copies", recording_oracle)
    config, agents = random_setup(0, n_bidders=4, n_products=8, n_bases=2)
    adj = TieredValuationAdjustment.zero([a.bidder_id for a in agents],
                                         sorted({p.area_id for p in config.catalog}))
    runs = []
    for _ in range(2):
        mip_keys.clear()
        trace = run_extended_auction(config, agents, adj)
        assert mip_keys and len(set(mip_keys)) == len(mip_keys)
        text = tiered_text(trace, config.catalog, adj)
        runs.append((hashlib.sha256(text.encode()).hexdigest(), len(mip_keys)))
    assert runs[0] == runs[1]
    assert runs[0][0] == BB_DIGESTS[0]


def zero_cost_run():
    """The zero-cost tiered run of `random_setup(1, 4, 8, n_bases=2)`: its
    trace, catalog and adjustment."""
    config, agents = random_setup(1, n_bidders=4, n_products=8, n_bases=2)
    adj = TieredValuationAdjustment.zero([a.bidder_id for a in agents],
                                         sorted({p.area_id for p in config.catalog}))
    return run_extended_auction(config, agents, adj), config.catalog, adj


def test_phase1_memo_lives_for_one_run(monkeypatch):
    """The oracle MIPs of a run are re-priced copies of their frames' MIPs
    and share their rows, which hold the phase-1 memo, across rounds; no
    rows outlive the run, and a second run writes the same bytes."""
    rows, memos = [], []
    solve_mip = tiered.solve_mip

    def record(lp, *args):
        rows.append(weakref.ref(lp.rows))
        memos.append(lp.rows.phase1)
        return solve_mip(lp, *args)

    monkeypatch.setattr(tiered, "solve_mip", record)
    texts = []
    for _ in range(2):
        rows.clear()
        memos.clear()
        run = zero_cost_run()
        assert len({id(memo) for memo in memos}) < len(memos) and all(memos)
        gc.collect()
        assert all(ref() is None for ref in rows)
        texts.append(tiered_text(*run))
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == BB_DIGESTS[1]


def test_phase1_runs_once_per_rows_and_bounds(monkeypatch):
    """The zero-cost run of `test_phase1_memo_lives_for_one_run` solves 38
    simplex LPs and builds the tableau of and runs phase 1 on only 10 of
    them, one per frame MIP and fixings met; the memo serves the rest their
    start of phase 2.  A memo keyed more finely than by rows and bounds
    solves more."""
    counts = {"simplex": 0, "phase1": 0, "tableau": 0}
    solve_lp, phase1, tableau = solver.solve_lp, solver._phase1, solver._tableau

    def count(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(solver, "solve_lp", count("simplex", solve_lp))
    monkeypatch.setattr(solver, "_phase1", count("phase1", phase1))
    monkeypatch.setattr(solver, "_tableau", count("tableau", tableau))
    zero_cost_run()
    assert counts == {"simplex": 38, "phase1": 10, "tableau": 10}


@pytest.mark.parametrize("seed", range(6))
def test_frame_entries_equal_fresh_ones(seed, monkeypatch):
    """Over a run's kind of price sequence, each oracle entry built from the
    run's frame of its (bidder, base, eligibility) equals one built from a
    frame of its own: utility by float.hex, bid by repr, and each answer
    of the frame's DP (the entry's and every node bound's) by repr; so does
    each resolve's (bid, utility).  Odd seeds have zero deployment costs,
    where tiers tie."""
    rng = np.random.default_rng(seed)
    config, agents = random_setup(seed, n_bidders=2, n_products=int(rng.integers(3, 7)),
                                  n_bases=2)
    catalog = config.catalog
    areas = sorted({p.area_id for p in catalog})
    bidders = [a.bidder_id for a in agents]
    adjustment = TieredValuationAdjustment.zero(bidders, areas) if seed % 2 else \
        TieredValuationAdjustment({(b, a, t): int(c) for b in bidders for a in areas
                                   for t, c in zip(TIERS, sorted(rng.integers(0, 3 * 10**7, 3)))})
    answered, frames = [], []
    best, frame = engine.Frame.best, engine.Frame.__init__

    def recorded(self, *args):
        answer = best(self, *args)
        answered.append(repr(answer))
        return answer

    monkeypatch.setattr(engine.Frame, "best", recorded)
    monkeypatch.setattr(engine.Frame, "__init__",
                        lambda self, *a, **k: frames.append(1) or frame(self, *a, **k))

    # rounds of rising prices on random keys, each agent's eligibility falling once
    prices = {(j, t): catalog.get(j).opening_price for j in catalog.ids() for t in TIERS}
    calls = []
    for rnd in range(8):
        for agent in agents:
            eligibility = initial_eligibility(agent.space, catalog) - (rnd >= 4)
            calls += [(agent, base, eligibility, PriceVector(prices)) for base in agent.space.bases]
        prices = {k: int(p * 1.1) if rng.random() < 0.5 else p for k, p in prices.items()}

    def answers(memo=None):
        """The answers with one memo for all calls, or without `memo` a new
        one per call."""
        out = []
        for agent, base, eligibility, at in calls:
            answered.clear()
            entry = tiered._best_tiered_copies(base, agent.model, at, eligibility, catalog,
                                               agent.bidder_id, adjustment,
                                               {} if memo is None else memo)
            if entry is None:
                out.append(None)
                continue
            asked = (entry.utility.hex(), repr(entry.bid))
            entry.resolve()
            out.append((asked, repr(entry.bid), entry.utility.hex(),
                        list(answered)))
        return out

    framed = answers({})
    assert 0 < len(frames) < len(calls)
    frames.clear()
    assert framed == answers()
    assert len(frames) == len(calls)
    assert sum(answer is not None for answer in framed) > len(calls) // 2


def test_frames_live_for_one_run(monkeypatch):
    """A run builds one frame per (bidder, base, eligibility) it asks about,
    and each frame's DP builds its price-free part once: resolving an entry
    builds none.  A second
    run builds its own frames, and none outlives its run."""
    frames, walks, mips = [], [], []
    frame, walk, solve_mip = engine.Frame.__init__, engine.Frame.walk.func, tiered.solve_mip
    monkeypatch.setattr(engine.Frame, "__init__",
                        lambda self, *a, **k: frames.append(weakref.ref(self)) or
                        frame(self, *a, **k))
    counted = functools.cached_property(lambda self: walks.append(1) or walk(self))
    counted.__set_name__(engine.Frame, "walk")
    monkeypatch.setattr(engine.Frame, "walk", counted)
    monkeypatch.setattr(tiered, "solve_mip", lambda *a: mips.append(1) or solve_mip(*a))
    config, agents = random_setup(0, n_bidders=4, n_products=8, n_bases=2)
    adj = TieredValuationAdjustment.zero([a.bidder_id for a in agents],
                                         sorted({p.area_id for p in config.catalog}))
    runs = []
    for _ in range(2):
        frames.clear(), walks.clear(), mips.clear()
        trace = run_extended_auction(config, agents, adj)
        gc.collect()
        assert all(ref() is None for ref in frames)
        assert mips and len(walks) == len(frames)
        text = tiered_text(trace, config.catalog, adj)
        runs.append((hashlib.sha256(text.encode()).hexdigest(), len(frames), len(mips)))
    assert runs[0] == runs[1]
    assert runs[0][0] == BB_DIGESTS[0]


def row_at_a_time(frame):
    """`frame`'s MIP and its choices, its columns and rows written one at a
    time, each row a dict, and made whole by `lp_min`: a column per
    (product, choice) key, then one per engagement key."""
    choices = [(j, c) for j, levels in frame.levels.items() for c, *_ in levels]
    rows = [({(j, c): 1.0 for c, *_ in levels}, solver.EQ, 1.0)
            for j, levels in frame.levels.items()]
    rows.append(({(j, c): float(q * frame.catalog.get(j).eligibility_points)
                  for j, levels in frame.levels.items() for c, q, *_ in levels},
                 solver.LE, float(frame.eligibility)))
    rows += [({option: 1.0, engagement: -1.0}, solver.LE, 0.0)
             for option, engagement in frame.needs.items()]
    return lp_min({}, [(key, 0.0, 1.0) for key in [*choices, *frame.costs]], rows), choices


def feasible(lp, choices, exact):
    """A stand-in for `solve_mip` that answers at once: every column at 0."""
    return solver.Solution("optimal", dict.fromkeys(lp.names, 0.0), 0.0)


@pytest.mark.parametrize("auction", ["standard", "tiered"])
def test_frame_mips_equal_the_row_at_a_time_build(auction, monkeypatch):
    """Every frame of a run builds the MIP that writing its columns and rows
    one at a time builds, bit for bit: the same columns, bounds and costs,
    and the same arrays in its rows, so phase 1 and each simplex solve see
    the same input."""
    frames, init = [], engine.Frame.__init__
    monkeypatch.setattr(engine.Frame, "__init__",
                        lambda self, *a, **k: frames.append(self) or init(self, *a, **k))
    config, agents = random_setup(5, n_bidders=3, n_products=6, n_bases=2)
    if auction == "standard":
        run_auction(config, agents)
    else:
        areas = sorted({p.area_id for p in config.catalog})
        run_extended_auction(config, agents, TieredValuationAdjustment(
            {(a.bidder_id, area, t): 10**6 * (k + 1) for a in agents for area in areas
             for k, t in enumerate(TIERS)}))
    assert frames and (auction == "standard" or all(f.needs and f.costs for f in frames))
    for frame in frames:
        prices = PriceVector({key: 0 for levels in frame.levels.values() for *_, key in levels})
        frame.solve(frame.options(prices), feasible)
        (lp, choices), (reference, expected) = frame.mip, row_at_a_time(frame)
        assert choices == expected
        assert (lp.names, lp.lb, lp.ub, lp.costs) == \
            (reference.names, reference.lb, reference.ub, reference.costs)
        rows, want = lp.rows, reference.rows
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(rows, name), getattr(want, name)
            assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), name
        assert (rows.rhs, rows.relations) == (want.rhs, want.relations)


def test_the_counted_views_are_the_columns_and_rows(monkeypatch):
    """The benchmark's spans count an LP's `variables` and `constraints`:
    on each `estimate` LP and on a frame's MIP their lengths are the LP's
    columns and rows."""
    frames, init = [], engine.Frame.__init__
    monkeypatch.setattr(engine.Frame, "__init__",
                        lambda self, *a, **k: frames.append(self) or init(self, *a, **k))
    config, agents = random_setup(5, n_bidders=3, n_products=6, n_bases=2)
    estimates = estimate_all(trace_to_bidlog(run_auction(config, agents)), config.catalog,
                             config.increments, keep_lp=True)
    frame = frames[0]
    prices = PriceVector({key: 0 for levels in frame.levels.values() for *_, key in levels})
    frame.solve(frame.options(prices), feasible)
    lps = [est.report.lp for est in estimates.values()] + [frame.mip[0]]
    for lp in lps:
        assert len(lp.variables) == len(lp.names) > 0
        assert len(lp.constraints) == len(lp.rows.rhs) > 0


class TestCoverageReport:
    def demographics(self):
        return {"A1": AreaStats("A1", "metro", 100_000, 50.0),
                "A2": AreaStats("A2", "rural", 40_000, 900.0)}

    def trace_with(self, allocation):
        record = RoundRecord(round=1, start={}, clock={}, posted={},
                             aggregate={}, bids=allocation, eligibility={})
        return AuctionTrace(rounds=[record], final_allocation=allocation,
                            revenue=0, rounds_used=1)

    def catalog(self):
        return make_catalog({"P1": ("A1", "metro", 3, 100_00),
                             "P2": ("A2", "rural", 3, 100_00)})

    def test_all_low_adds_nothing(self):
        trace = self.trace_with({"X": {"P1": ("low", 2), "P2": ("low", 1)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        assert summary["additional_population"] == 0
        assert summary["licenses_by_class_tier"] == {"metro": {"low": 2},
                                                     "rural": {"low": 1}}

    def test_high_tier_adds_target_delta(self):
        trace = self.trace_with({"X": {"P1": ("high", 1)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        # metro: 70% - 50% of 100,000
        assert summary["additional_population"] == 20_000

    def test_area_counted_once_at_strongest_tier(self):
        trace = self.trace_with({"X": {"P1": ("high", 1)},
                                 "Y": {"P1": ("medium", 2)}})
        summary = coverage_report(trace, self.catalog(), self.demographics(),
                                  DEFAULT_COVERAGE_TARGETS)
        assert summary["additional_population"] == 20_000

    def test_missing_demographics_rejected(self):
        trace = self.trace_with({"X": {"P1": ("low", 1)}})
        with pytest.raises(ValidationError):
            coverage_report(trace, self.catalog(), {}, DEFAULT_COVERAGE_TARGETS)
