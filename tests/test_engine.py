import gc
import hashlib
import itertools
import json
import weakref

import numpy as np
import pytest

from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, eligibility_cost)
import clockauction.engine as engine
from clockauction.engine import (AuctionConfig, BidderAgent, best_copies,
                                 compare_allocations, myopic_bid, run_auction,
                                 trace_from_jsonl, trace_to_jsonl,
                                 trace_summary)
from clockauction.errors import SolverError, ValidationError
from clockauction.estimation import ValuationModel, bundle_utility
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.pipeline import roundtrip
from clockauction.synthetic import random_setup
from clockauction.tiered import (TIERS, TieredValuationAdjustment,
                                 _best_tiered_copies)


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


def copies_bid(base, model, prices, eligibility, catalog):
    """The bid of `best_copies`' entry that the auction uses: the known bid,
    else the resolved one; None when no bid fits."""
    entry = best_copies(base, model, prices, eligibility, catalog, {})
    return None if entry is None else (entry if entry.bid is not None else entry.resolve()).bid


class TestBestCopies:
    def test_interior_level_wins(self):
        # ladder (1, 2, 3), increments worth 400 then 200/unit, price 300:
        # utilities are -300, -200, -300 so level 2 is chosen
        model = single_product_model([1, 2, 3], [4_00, 2_00], base_value=10_00)
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 1, 1_00)})
        bundle = copies_bid(base, model, PriceVector({"A": 3_00}), 10, catalog)
        assert bundle == Bundle({"A": 2})

    def test_zero_eligibility_returns_none(self):
        model = single_product_model([1], [])
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 2, 1_00)})
        assert best_copies(base, model, PriceVector({"A": 0}), 1, catalog, {}) is None

    def test_zero_prices_take_max_levels(self):
        model = single_product_model([1, 2, 4], [5_00, 3_00])
        base = BundleBase("X/base0", {"A": 1})
        catalog = make_catalog({"A": (5, 1, 1_00)})
        bundle = copies_bid(base, model, PriceVector({"A": 0}), 100, catalog)
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
        bundle = copies_bid(base, model, prices, 6, catalog)
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

            got = copies_bid(base, model, prices, elig, catalog)

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


def standard_oracle(base, model, eligibility, catalog):
    prices = PriceVector({j: 0 for j in catalog.ids()})
    return best_copies(base, model, prices, eligibility, catalog, {})


def tiered_oracle(base, model, eligibility, catalog):
    prices = PriceVector({(j, t): 0 for j in catalog.ids() for t in TIERS})
    adjustment = TieredValuationAdjustment.zero(["X"], [p.area_id for p in catalog])
    return _best_tiered_copies(base, model, prices, eligibility, catalog, "X",
                               adjustment, {})


@pytest.mark.parametrize("oracle", [standard_oracle, tiered_oracle],
                         ids=["standard", "tiered"])
def test_oracle_ladder_edges(oracle):
    model = single_product_model([1, 2], [5_00])
    catalog = make_catalog({"A": (5, 2, 1_00)})
    # a base quantity above every model ladder level
    with pytest.raises(ValidationError, match="off the model ladder"):
        oracle(BundleBase("X/base0", {"A": 3}), model, 100, catalog)
    # the lowest level costs 2 points, over a budget of 1
    assert oracle(BundleBase("X/base0", {"A": 1}), model, 1, catalog) is None


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
        assert myopic_bid(agent, prices, self.catalog(), 10, {}) == Bundle({"B": 1})

    def test_tie_keeps_lower_indexed_base(self):
        model = ValuationModel(
            "X", {"X/base0": 5_00, "X/base1": 5_00},
            {("A", 1): 0.0, ("B", 1): 0.0})
        agent = agent_for(model,
                          [BundleBase("X/base0", {"A": 1}),
                           BundleBase("X/base1", {"B": 1})],
                          {"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))})
        prices = PriceVector({"A": 1_00, "B": 1_00})
        assert myopic_bid(agent, prices, self.catalog(), 10, {}) == Bundle({"A": 1})

    def test_negative_utility_exits(self):
        model = ValuationModel("X", {"X/base0": 50}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        assert myopic_bid(agent, PriceVector({"A": 1_00}), self.catalog(), 10, {}) is None

    def test_zero_utility_still_bids(self):
        model = ValuationModel("X", {"X/base0": 1_00}, {("A", 1): 0.0})
        agent = agent_for(model, [BundleBase("X/base0", {"A": 1})],
                          {"A": CopyLadder("A", (1,))})
        assert myopic_bid(agent, PriceVector({"A": 1_00}), self.catalog(), 10, {}) == \
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
        catalog = make_catalog({"A": (1, 1, 100_00)})

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

    def test_duplicate_bidder_ids_rejected(self):
        # bids, eligibility and the oracle memo are all kept per bidder id
        catalog = make_catalog({"A": (2, 1, 1_00)})
        agents = [agent_for(ValuationModel("X", {"X/base0": value}, {("A", 1): 0.0}),
                            [BundleBase("X/base0", {"A": 1})], {"A": CopyLadder("A", (1,))})
                  for value in (10_00, 50)]
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1))
        with pytest.raises(ValidationError, match="duplicate bidder ids"):
            run_auction(config, agents)


def standard_mip_setup():
    """Three bidders on one product S whose price climbs; two of them then
    turn to a second base with less eligibility than its argmax levels need,
    so the standard oracle goes past its fast path: W's base has seven
    products of four levels each, 4**7 bundles, and one of them alone is
    best, so the frame's DP names the bid; V's has two identical products
    that tie under its budget, so its MIP runs when choose_base resolves
    the entry."""
    wide = [f"P{i}" for i in range(7)]
    catalog = make_catalog({"S": (4, 3, 100_00), "A": (2, 2, 10_00), "B": (2, 2, 10_00),
                            **{j: (4, 1, 10_00) for j in wide}})

    def agent(bidder, copies, value, ladders, marginals):
        bases = [BundleBase(f"{bidder}/base0", {"S": copies}),
                 BundleBase(f"{bidder}/base1", {j: 1 for j in ladders})]
        model = ValuationModel(bidder, {f"{bidder}/base0": value, f"{bidder}/base1": 50_00},
                               {("S", copies): 0.0, **marginals})
        return agent_for(model, bases, {"S": CopyLadder("S", (copies,)),
                                        **{j: CopyLadder(j, v) for j, v in ladders.items()}},
                         bidder=bidder)

    w = agent("W", 4, 600_00, {j: (1, 2, 3, 4) for j in wide},
              {(j, q): 0.0 if q == 1 else float(11_00 + 1_37 * i - 1_00 * q)
               for i, j in enumerate(wide) for q in (1, 2, 3, 4)})
    v = agent("V", 2, 300_00, {"A": (1, 2), "B": (1, 2)},
              {(j, q): 0.0 if q == 1 else 30_00.0 for j in "AB" for q in (1, 2)})
    x = agent("X", 4, 10**9, {}, {})
    return AuctionConfig(catalog, IncrementSchedule.constant(0.1)), [w, v, x]


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

    # sha256 of trace_to_jsonl + sorted-key JSON summary; seeds 0-2 at three
    # bases recorded before the two oracles shared one MIP builder, the rest
    # before the standard oracle's MIP became lazy, when every one of these
    # runs reached best_copies' MIP
    MIP_DIGESTS = {
        (0, 2): "defdb91ed0c44c5b0370e41f3aa35346c4334014a86d2dec029ab7e770c37267",
        (1, 2): "5aafd3924eb8c7b8aa190b4f45d43b26aae44d785ad2c897a60d4e4fa689f5a6",
        (2, 2): "86ff6225edddc5cc02335ac05eefaf96b37b7e1f4d34aa4ddaa0cab174ffdc84",
        (3, 2): "58ca72d98a7fbfba4e1c4dc7ffdd7e95f0c6bbf4cf0e2d8d26dc47fe291358ff",
        (4, 2): "ce10f12aec617f71ff5334f1795b2ca388cd088dc201ff1cb83fdc92ffd495c4",
        (5, 2): "824f9db743f22c9129b4bc6380462417922ce97fec1988f6083e281eac2dad2e",
        (6, 2): "8e6bf493f1dfb6bb451022e864732cca65383dee6bddd6822f459a0d289b6ab9",
        (7, 2): "d8ff80e6f7ac354b517e18077e92a08f662908decf27e2c29c09d10cbae319ed",
        (8, 2): "d3ab0d58e6d06a8d24008218b470a17ceab425ca09f37c7f53e51a68c133af3c",
        (9, 2): "5b0b56db1189810cd6f666fc490adf2053f3f628a066f9c55c834d56d470997f",
        (10, 2): "ef4a5d5befa615c7779a6d88475a07306f11d586909dbfb42d43556fc614cdce",
        (11, 2): "3dea03116dd30b1644af77e72580d6798cb564a9f43202fb3186885985855070",
        (0, 3): "6c0a49367b27fab8f6f424e393940fab7245009a46064e984308658e0e0a41f9",
        (1, 3): "32d4e3e397dcf2be0a9b035653a7bca66ce9f6abfca77ae1710535156fcef3cc",
        (2, 3): "76d8b32996a8a987d5d494bc9025f8635cf22b42ce268d52bb65ad4fa2f9eb71",
        (3, 3): "e208e80aa80b99a1df07acbc2c6d7e93fa4581fc0f618121f09986cd6192273d",
        (4, 3): "67687b6035b22057171cfa2bf1d8b466cf9568cd44194a16e1bd25bea8e32e6d",
        (5, 3): "1e02ff956b115eb44356c552846931e3baca84cfb6ac6fcbd70796afde2d9a51",
        (6, 3): "d83aab17189e8b894633df3bad69603a2b75cd0de68e88dde4ca2988c309ce88",
        (7, 3): "d095876a7222cc25ec577c8ce7fffcf6adcef4229694532ec0a243c7305d6908",
        (8, 3): "6f2acd66834c855a515eb3eb92b3b0faaab98cdb5e082d5670928d4b064f6b09",
        (9, 3): "71185bb762f68584ba12dabe06fbbbd90ad86ac73557cece8272950bc5875d58",
        (10, 3): "405469c4ac896c86ba8b78834fb066b0229d27c361afabf90b83478ae90f97a5",
        (11, 3): "d25efc2fe672be63ce3c8a18a2db56c0b052cec178d374c9f064ae3b942c3855",
    }

    @pytest.mark.parametrize("seed, n_bases", sorted(MIP_DIGESTS))
    def test_mip_path_trace_digest(self, seed, n_bases, monkeypatch):
        reached = []  # one per Frame.choice call, past the fast path
        choice = engine.Frame.choice
        monkeypatch.setattr(engine.Frame, "choice",
                            lambda self, *a: reached.append(1) or choice(self, *a))
        config, agents = random_setup(seed, n_bidders=8, n_products=24, n_bases=n_bases)
        trace = run_auction(config, agents)
        assert reached, "no best_copies call reached the frame's DP"
        text = trace_to_jsonl(trace) + json.dumps(trace_summary(trace), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.MIP_DIGESTS[seed, n_bases]

    # the digest of `standard_mip_setup`'s run, recorded while every standard
    # MIP ran in best_copies
    STANDARD_MIP_DIGEST = "80aa252cccc2eaadc21f469aa8ff5f0dad846b85524e639014f0d86c54eaad10"

    def test_phase1_memo_lives_for_one_run(self, monkeypatch):
        """The oracle MIPs of a run are re-priced copies of their frames'
        MIPs and share their rows, which hold the phase-1 memo; no frame and
        no rows outlive the run, also on an error, and a second run writes
        the same bytes."""
        rows, memos, frames = [], [], []
        solve_mip, frame = engine.solve_mip, engine.Frame.__init__

        def record(lp, *args):
            rows.append(weakref.ref(lp.rows))
            memos.append(lp.rows.phase1)
            return solve_mip(lp, *args)

        monkeypatch.setattr(engine, "solve_mip", record)
        monkeypatch.setattr(engine.Frame, "__init__", lambda self, *a, **k:
                            frames.append(weakref.ref(self)) or frame(self, *a, **k))
        config, agents = standard_mip_setup()
        texts = []
        for _ in range(2):
            rows.clear()
            memos.clear()
            frames.clear()
            trace = run_auction(config, agents)
            gc.collect()
            assert rows and all(memos) and all(ref() is None for ref in rows)
            assert frames and all(ref() is None for ref in frames)
            texts.append(trace_to_jsonl(trace)
                         + json.dumps(trace_summary(trace), sort_keys=True))
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0].encode()).hexdigest() == self.STANDARD_MIP_DIGEST
        with pytest.raises(ValidationError):
            run_auction(config, agents + agents[:1])

        def fail(*args):
            raise SolverError("the run's MIP")

        monkeypatch.setattr(engine, "solve_mip", fail)
        frames.clear()
        with pytest.raises(SolverError):
            run_auction(config, agents)
        gc.collect()
        assert frames and all(ref() is None for ref in frames)

    def test_oracle_memo_is_exact_and_per_run(self, monkeypatch):
        """No two entries of a frame's DP and no two MIPs of a run ask the
        same oracle question, and a second run in the same process asks as
        many and writes the same bytes.  A MIP runs when its entry is
        resolved, so the entry records its question again."""
        asked, dp_keys, mip_keys = [], [], []
        oracle, choice, solve_mip = engine.best_copies, engine.Frame.choice, engine.solve_mip

        def recording_oracle(base, model, prices, eligibility, catalog, memo):
            key = (model.bidder_id, base.base_id, eligibility,
                   tuple(prices[j] for j in base.quantities))
            asked.append(key)
            entry = oracle(base, model, prices, eligibility, catalog, memo)
            if entry is not None and entry.solve is not None:
                solve = entry.solve
                entry.solve = lambda: asked.append(key) or solve()
            return entry

        monkeypatch.setattr(engine, "best_copies", recording_oracle)
        monkeypatch.setattr(engine.Frame, "choice",
                            lambda self, *a: dp_keys.append(asked[-1]) or choice(self, *a))
        monkeypatch.setattr(engine, "solve_mip",
                            lambda *a: mip_keys.append(asked[-1]) or solve_mip(*a))
        config, agents = standard_mip_setup()
        runs = []
        for _ in range(2):
            dp_keys.clear(), mip_keys.clear()
            trace = run_auction(config, agents)
            assert len(dp_keys) == 2 and len(set(dp_keys)) == len(dp_keys)
            assert len(mip_keys) == 1 and set(mip_keys) <= set(dp_keys)
            text = trace_to_jsonl(trace) + json.dumps(trace_summary(trace), sort_keys=True)
            runs.append((hashlib.sha256(text.encode()).hexdigest(), len(dp_keys),
                         len(mip_keys)))
        assert runs[0] == runs[1]
        assert runs[0][0] == self.STANDARD_MIP_DIGEST

    def test_wide_frame_bids_without_a_mip(self, monkeypatch):
        """W's base of 4**7 bundles, whose optimum one bundle alone attains,
        takes its bid from the frame's DP and never builds its MIP; only V's
        tied base runs one, and the run writes STANDARD_MIP_DIGEST."""
        entries, mips = [], []
        choice, solve_mip = engine.Frame.choice, engine.solve_mip

        def recorded(self, *args):
            entries.append((self, choice(self, *args)))
            return entries[-1][1]

        monkeypatch.setattr(engine.Frame, "choice", recorded)
        monkeypatch.setattr(engine, "solve_mip", lambda *a: mips.append(1) or solve_mip(*a))
        trace = run_auction(*standard_mip_setup())
        wide = [(frame, entry) for frame, entry in entries if len(frame.levels) == 7]
        assert wide and all(entry.bid is not None and frame.mip is None for frame, entry in wide)
        assert len(mips) == 1
        text = trace_to_jsonl(trace) + json.dumps(trace_summary(trace), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.STANDARD_MIP_DIGEST

    def test_byte_determinism(self):
        config, agents = random_setup(55, n_bidders=4, n_products=8)
        a = trace_to_jsonl(run_auction(config, agents))
        config2, agents2 = random_setup(55, n_bidders=4, n_products=8)
        b = trace_to_jsonl(run_auction(config2, agents2))
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
    def test_jsonl_round_trip(self, tmp_path):
        config, agents = random_setup(3, n_bidders=3, n_products=6)
        trace = run_auction(config, agents)
        text = trace_to_jsonl(trace)
        (tmp_path / "trace.jsonl").write_text(text)
        again = trace_from_jsonl(tmp_path / "trace.jsonl", config.catalog)
        assert again.truncated == trace.truncated
        assert again.revenue == trace.revenue
        assert again.rounds_used == trace.rounds_used
        assert again.final_allocation == trace.final_allocation
        assert trace_to_jsonl(again) == text
        assert trace_summary(again) == trace_summary(trace)


def relabelled(config, agents, seed):
    """The instance with its product, area and bidder ids permuted (by
    `seed`) onto new labels, which sort in another order, the money kept;
    and the map from each new id back to its old one.  The catalog and the
    agents come in the order of their new ids, as a relabelled input file
    would give them."""
    rng = np.random.default_rng(seed)
    old = list(config.catalog)
    perm = rng.permutation(len(old)).tolist()
    pid = {p.id: f"Q{k:02d}" for p, k in zip(old, perm)}
    catalog = ProductCatalog(products=tuple(sorted(
        (Product(id=pid[p.id], area_id=f"R{k:02d}", area_class=p.area_class,
                 supply=p.supply, eligibility_points=p.eligibility_points,
                 opening_price=p.opening_price) for p, k in zip(old, perm)),
        key=lambda p: p.id)))
    bperm = rng.permutation(len(agents)).tolist()
    bid = {a.bidder_id: f"C{k:02d}" for a, k in zip(agents, bperm)}
    moved = []
    for agent in agents:
        bidder = bid[agent.bidder_id]
        base_ids = {base.base_id: f"{bidder}/base{n}"
                    for n, base in enumerate(agent.space.bases)}
        model = ValuationModel(
            bidder_id=bidder,
            base_values={base_ids[b]: v for b, v in agent.model.base_values.items()},
            marginals={(pid[j], level): v for (j, level), v in agent.model.marginals.items()})
        space = BundleSpace(
            bidder_id=bidder,
            bases=tuple(BundleBase(base_ids[base.base_id],
                                   {pid[j]: q for j, q in base.quantities.items()})
                        for base in agent.space.bases),
            ladders={pid[j]: CopyLadder(pid[j], ladder.levels)
                     for j, ladder in agent.space.ladders.items()},
            observed={})
        moved.append(BidderAgent(bidder_id=bidder, model=model, space=space))
    moved.sort(key=lambda a: a.bidder_id)
    back = {new: old for new, old in [*zip(pid.values(), pid), *zip(bid.values(), bid)]}
    return AuctionConfig(catalog, config.increments, config.max_rounds), moved, back


def mapped(doc, back):
    """`doc` with every dict key in `back` replaced by its value."""
    if isinstance(doc, dict):
        return {back.get(k, k): mapped(v, back) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(mapped(v, back) for v in doc)
    return doc


def outcome(trace):
    """Every round of `trace` as its JSON document, and its summary."""
    return [json.loads(line) for line in trace_to_jsonl(trace).splitlines()], \
        trace_summary(trace)


class TestRelabelling:
    """Labels do not decide an outcome: with its product, area and bidder
    ids permuted and the money kept, an instance gives the same rounds,
    bids, prices and summary under the old labels."""

    @pytest.mark.parametrize("n_bases", [1, 2])
    def test_standard_auction(self, n_bases):
        for seed in range(20):
            config, agents = random_setup(seed, 4, 8, n_bases=n_bases)
            config_b, agents_b, back = relabelled(config, agents, seed)
            assert mapped(outcome(run_auction(config_b, agents_b)), back) == \
                outcome(run_auction(config, agents)), seed

    @pytest.mark.parametrize("n_bases", [1, 2])
    def test_roundtrip_replay(self, n_bases):
        """`pipeline.roundtrip`: the auction, the estimation from its bid log
        and the replay on the estimated models."""
        for seed in range(12):
            config, agents = random_setup(seed, 4, 8, n_bases=n_bases)
            config_b, agents_b, back = relabelled(config, agents, seed)
            a, b = roundtrip(config, agents), roundtrip(config_b, agents_b)
            assert mapped(outcome(b.replayed), back) == outcome(a.replayed), seed
            assert mapped(b.rmse_per_bidder, back) == a.rmse_per_bidder, seed
