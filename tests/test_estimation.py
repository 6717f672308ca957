import json
import math
import re

import numpy as np
import pytest

from clockauction import estimation
from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, eligibility_cost)
from clockauction.errors import ValidationError
from clockauction.estimation import (BLOCKS, EstimationReport, ValuationModel,
                                     bundle_utility, bundle_value,
                                     estimate, initial_eligibility,
                                     model_from_json, model_to_json,
                                     reconstruct_eligibility, shortfalls)
from clockauction.ingest import (BundleBase, BundleSpace, CopyLadder,
                                 RawBidLog, build_bundle_space, enumerate_variants,
                                 smooth_monotone)
from clockauction.pipeline import estimate_all, reconstruct_prices, trace_to_bidlog
from clockauction.solver import GE, Solution
from clockauction.synthetic import random_setup
from clockauction.engine import run_auction
from test_solver import columns, constraints, lp_min


def make_catalog(specs):
    """specs: product_id -> (supply, eligibility_points)."""
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=s,
                eligibility_points=e, opening_price=100_00)
        for j, (s, e) in specs.items()))


def space_of(series_by_product, bidder="X"):
    log = RawBidLog.from_rows((rnd, bidder, j, q) for j, series in series_by_product.items()
                              for rnd, q in enumerate(series, start=1))
    return build_bundle_space(smooth_monotone(log), bidder)


class TestValuationModel:
    def model(self):
        return ValuationModel(
            bidder_id="X",
            base_values={"X/base0": 10_00},
            marginals={("A", 2): 0.0, ("A", 4): 3_00})

    def test_cumulative_value(self):
        m = self.model()
        assert m.cumulative_value("A", 2) == 0.0
        # increment 2 -> 4 is worth (4 - 2) * 300 cents
        assert m.cumulative_value("A", 4) == 6_00

    def test_bundle_value_adds_base(self):
        m = self.model()
        base = BundleBase("X/base0", {"A": 2})
        assert bundle_value(m, Bundle({"A": 4}), base) == 16_00
        assert bundle_value(m, Bundle({"A": 2}), base) == 10_00

    def test_bundle_utility(self):
        m = self.model()
        base = BundleBase("X/base0", {"A": 2})
        prices = PriceVector({"A": 3_00})
        # 1600 - 4 * 300
        assert bundle_utility(m, Bundle({"A": 4}), base, prices) == 4_00
        assert bundle_utility(m, Bundle({}), base, prices) == 0.0

    def test_off_ladder_rejected(self):
        with pytest.raises(ValidationError):
            self.model().cumulative_value("A", 3)

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):  # first level must be zero
            ValuationModel("X", {}, {("A", 1): 5.0, ("A", 2): 3.0})
        with pytest.raises(ValidationError):  # diminishing returns
            ValuationModel("X", {}, {("A", 1): 0.0, ("A", 2): 3.0, ("A", 3): 9.0})
        with pytest.raises(ValidationError):  # nonnegativity
            ValuationModel("X", {"b": -1.0}, {})

    @pytest.mark.parametrize("base_values, marginals", [
        pytest.param({"b": 1.5}, {}, id="base-value"),
        pytest.param({}, {("A", 1): 0.0, ("A", 2): 0.25}, id="marginal"),
        pytest.param({}, {("A", 1): 1e-9}, id="first-level"),
        pytest.param({"b": math.nan}, {}, id="nan"),
        pytest.param({"b": math.inf}, {}, id="inf")])
    def test_values_are_whole_cents(self, base_values, marginals):
        with pytest.raises(ValidationError):
            ValuationModel("X", base_values, marginals)

    def test_cumulative_values_match_the_per_call_walk(self):
        """Each level's cumulative value is, bit for bit, the walk that summed
        it on every call: `total += (level - prev) * marginal` in level order."""
        def walk(marginals, j, quantity):
            levels = sorted(level for k, level in marginals if k == j)
            total = 0.0
            for prev, level in zip(levels, levels[1:]):
                if level > quantity:
                    break
                total += (level - prev) * marginals[(j, level)]
            return total

        rng = np.random.default_rng(39)
        for _ in range(200):
            marginals = {}
            for j in ("A", "B", "C")[:rng.integers(1, 4)]:
                levels = sorted(rng.choice(np.arange(1, 60), rng.integers(1, 8), replace=False))
                values = sorted(rng.integers(0, 10**9, len(levels) - 1), reverse=True)
                marginals[(j, int(levels[0]))] = 0.0
                for level, v in zip(levels[1:], values):
                    marginals[(j, int(level))] = float(v) if rng.random() < 0.5 else int(v)
            keys = list(marginals)
            rng.shuffle(keys)
            marginals = {k: marginals[k] for k in keys}
            m = ValuationModel("X", {"X/base0": float(rng.integers(0, 10**6))}, marginals)
            products = list(dict.fromkeys(j for j, _ in keys))
            for j in products:
                levels = m.ladder(j)
                assert levels == tuple(sorted(level for k, level in marginals if k == j))
                for q in levels:
                    assert m.cumulative_value(j, q).hex() == walk(marginals, j, q).hex()
            base = BundleBase("X/base0", {j: int(rng.choice(m.ladder(j))) for j in products})
            bundle = Bundle({j: int(rng.choice([q for q in m.ladder(j) if q >= b]))
                             for j, b in base.quantities.items()})
            expected = m.base_values["X/base0"]
            for j, q in bundle.quantities.items():
                expected += walk(marginals, j, q)
            assert bundle_value(m, bundle, base).hex() == expected.hex()

    def test_an_unknown_product_is_not_off_its_ladder(self):
        with pytest.raises(ValidationError, match="no ladder for product 'B'"):
            self.model().cumulative_value("B", 2)
        with pytest.raises(ValidationError, match="quantity 3 off the ladder of 'A'"):
            self.model().cumulative_value("A", 3)

    def test_values_total_below_2_53_cents(self):
        """Base values plus each ladder's top cumulative value (the width
        times the marginal per level) must stay below 2**53 cents."""
        ladder = {("A", 1): 0.0, ("A", 3): 1.0, ("A", 4): 1.0}  # 2 + 1 cents at the top
        ValuationModel("X", {"b": float(2**53 - 4)}, ladder)
        with pytest.raises(ValidationError, match=r"2\*\*53"):
            ValuationModel("X", {"b": float(2**53 - 3)}, ladder)
        with pytest.raises(ValidationError, match=r"2\*\*53"):
            ValuationModel("X", {"b": float(2**52), "c": float(2**52)}, {})


class TestEligibility:
    def test_initial_is_max_variant(self):
        space = space_of({"A": [3, 1], "B": [2, 2]})
        catalog = make_catalog({"A": (5, 2), "B": (5, 3)})
        # maximal variant: A at 3 (2 pts), B at 2 (3 pts)
        assert initial_eligibility(space, catalog) == 3 * 2 + 2 * 3

    def test_activity_rule_series(self):
        space = space_of({"A": [3, 1, 1]})
        catalog = make_catalog({"A": (5, 2)})
        series = reconstruct_eligibility(space, catalog)
        assert series == {1: 6, 2: 6, 3: 2}

    def test_exit_zeroes_eligibility(self):
        space = space_of({"A": [2, 2, 0]})
        catalog = make_catalog({"A": (5, 1)})
        series = reconstruct_eligibility(space, catalog)
        assert series[3] == 2  # eligibility held entering the exit round
        # after an exit the running eligibility is zero; with more rounds it
        # would stay zero (cost of the empty bundle)
        assert series == {1: 2, 2: 2, 3: 2}

    def test_replay_and_estimation_share_the_activity_rule(self):
        # from round 2 on, the eligibility the replay gave a bidding bidder is
        # the one estimation reconstructs from the bids alone (round 1 rests
        # on the true ladders, which the log does not show)
        checks = 0
        for seed in range(40):
            config, agents = random_setup(seed, n_bidders=6, n_products=12,
                                          n_bases=1 + seed % 3)
            trace = run_auction(config, agents)
            log = trace_to_bidlog(trace)
            for bidder in log.bidders():
                series = reconstruct_eligibility(build_bundle_space(log, bidder),
                                                 config.catalog)
                for record in trace.rounds[1:]:
                    if record.bids[bidder]:
                        assert record.eligibility[bidder] == series[record.round], \
                            (seed, bidder, record.round)
                        checks += 1
        assert checks > 1000


class TestLpStructure:
    def test_single_round_single_variant(self):
        space = space_of({"A": [1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 100_00})}
        lp = estimate(space, prices, {1: 1}, catalog, keep_lp=True)[1].lp
        # one base, one variant, ladder of one level: only the positive-utility
        # row survives (no alternatives, no neighbors, no increments)
        assert constraints(lp) == [({"vb::X/base0": 1.0}, GE, 100_00)]

    def test_marginal_rationality_neighbors_only(self):
        space = space_of({"A": [5, 3, 3, 2]})
        catalog = make_catalog({"A": (6, 1)})
        prices = {r: PriceVector({"A": 100_00}) for r in (1, 2, 3, 4)}
        elig = reconstruct_eligibility(space, catalog)
        lp = estimate(space, prices, elig, catalog, keep_lp=True)[1].lp
        # round 2 holds 3 on ladder (2, 3, 5): neighbor rows may touch the
        # increments to 3 and to 5, never a non-neighbor pattern beyond them
        names = set(lp.names)
        assert "vm::A::3" in names and "vm::A::5" in names and "vm::A::2" not in names

    def test_eligibility_filters_alternatives(self):
        space = space_of({"A": [2, 1]})
        catalog = make_catalog({"A": (5, 3)})
        prices = {1: PriceVector({"A": 100_00}), 2: PriceVector({"A": 110_00})}
        # with full eligibility round 2 sees the (A: 2) alternative...
        lp_full = estimate(space, prices, {1: 6, 2: 6}, catalog, keep_lp=True)[1].lp
        # ...with eligibility 3 it cannot afford it
        lp_cut = estimate(space, prices, {1: 6, 2: 3}, catalog, keep_lp=True)[1].lp
        n_full = sum(1 for n in lp_full.names if n.startswith("sl::2"))
        n_cut = sum(1 for n in lp_cut.names if n.startswith("sl::2"))
        assert n_full == 1 and n_cut == 0


class TestEstimate:
    def test_lp_kept_only_on_request(self):
        config, agents = random_setup(3000, n_bidders=4, n_products=8)
        raw = trace_to_bidlog(run_auction(config, agents))
        plain = estimate_all(raw, config.catalog, config.increments)
        kept = estimate_all(raw, config.catalog, config.increments, keep_lp=True)
        assert plain and all(est.report.lp is None for est in plain.values())
        assert all(est.report.lp.rows.rhs for est in kept.values())
        assert ({b: (e.model, e.report) for b, e in plain.items()}
                == {b: (e.model, e.report) for b, e in kept.items()})

    def test_zero_prices_give_zero_values(self):
        space = space_of({"A": [1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 0})}
        model, report = estimate(space, prices, {1: 1}, catalog)
        assert model.base_values["X/base0"] == pytest.approx(0.0, abs=1e-6)
        assert report.slack_total_cents == pytest.approx(0.0, abs=1e-6)
        assert not report.fallback_used and not report.violations

    def test_irrational_switch_forces_slack(self):
        # round 1 buys A while B is free; round 2 buys B while A is free: no
        # valuation rationalizes both, so total revealed-preference slack is
        # pinned at the cycle deficit (2 * 1000 cents) and each base value at
        # the positive-utility floor (1000 cents)
        bases = (BundleBase("X/bA", {"A": 1}), BundleBase("X/bB", {"B": 1}))
        ladders = {"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))}
        space = BundleSpace(
            bidder_id="X", bases=bases, ladders=ladders,
            observed={1: (Bundle({"A": 1}), "X/bA"), 2: (Bundle({"B": 1}), "X/bB")})
        catalog = make_catalog({"A": (5, 1), "B": (5, 1)})
        prices = {1: PriceVector({"A": 10_00, "B": 0}),
                  2: PriceVector({"A": 0, "B": 10_00})}
        model, report = estimate(space, prices, {1: 2, 2: 2}, catalog)
        assert report.slack_total_cents == pytest.approx(20_00, abs=1e-4)
        assert report.base_value_total_cents == pytest.approx(20_00, abs=1e-4)
        assert not report.fallback_used

    def test_infeasible_log_uses_fallback(self):
        # ladder (1, 2): holding 2 at price 10 forces the increment value up
        # to 1000, holding 1 at price 3 forces it down to 300; the hard system
        # is empty, so the penalized re-solve must kick in
        space = space_of({"A": [2, 1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 10_00}), 2: PriceVector({"A": 3_00})}
        model, report = estimate(space, prices, {1: 2, 2: 2}, catalog)
        assert report.fallback_used
        assert report.status == "optimal"
        assert report.slack_total_cents > 0

    def test_consistent_synthetic_log_has_zero_slack(self):
        config, agents = random_setup(2024, n_bidders=3, n_products=6)
        trace = run_auction(config, agents)
        raw = trace_to_bidlog(trace)
        estimates = estimate_all(raw, config.catalog, config.increments)
        assert estimates
        for est in estimates.values():
            assert est.report.slack_total_cents == pytest.approx(0.0, abs=1e-4)
            assert not est.report.fallback_used
            assert not est.report.violations


class TestShortfalls:
    """The report accounts for the model as written, row by row, in cents."""

    def instance(self):
        # holding 4 at 10.00, then 2 at 20.00, on the ladder (2, 4): the step
        # from 2 to 4 is worth 10.00 a unit at least and at most 20.00, so the
        # least model values it at exactly 10.00 and the base at 40.00
        space = space_of({"A": [4, 2]})
        catalog = make_catalog({"A": (6, 1)})
        prices = {1: PriceVector({"A": 10_00}), 2: PriceVector({"A": 20_00})}
        return space, prices, reconstruct_eligibility(space, catalog), catalog

    def test_one_cent_off_a_marginal_is_that_shortfall_on_the_rows_it_breaks(self):
        """One cent less on the marginal of the step to 4 breaks round 1's
        rows against holding 2, the (b) row and the (c) row, each by the
        step's width, 2 cents; every other row still holds."""
        space, prices, eligibility, catalog = self.instance()
        model, report = estimate(space, prices, eligibility, catalog, keep_lp=True)
        assert model.marginals[("A", 4)] == 10_00 and model.base_values["X/base0"] == 40_00
        lp = report.lp
        assert shortfalls(lp, model) == [0] * len(lp.rows.rhs)
        moved = ValuationModel("X", model.base_values, {**model.marginals, ("A", 4): 9_99})
        short = {i: cents for i, cents in enumerate(shortfalls(lp, moved)) if cents}
        assert short == {1: 2, 2: 2}
        _, kinds = estimation._build(space, prices, eligibility, catalog)
        assert [BLOCKS[kinds[i]] for i in short] == ["marginal_rationality",
                                                    "revealed_preference"]
        rows = constraints(lp)
        assert [rows[i][0]["vm::A::4"] for i in short] == [2.0, 2.0]
        assert "sl::1::0" in rows[2][0]

    @pytest.mark.parametrize("coefficient, rhs", [(0.5, 0.0), (1.0, 0.5)],
                             ids=["coefficient", "right-hand-side"])
    def test_a_row_not_in_whole_numbers_is_refused(self, coefficient, rhs):
        model, report = estimate(*self.instance(), keep_lp=True)
        lp = report.lp
        lp = lp_min(dict(zip(lp.names, lp.costs)), columns(lp),
                    [*constraints(lp), ({"vm::A::4": coefficient}, GE, rhs)])
        with pytest.raises(ValidationError, match="X: an LP row is not in whole numbers"):
            shortfalls(lp, model)

    def test_values_just_below_whole_cents_are_written_as_the_nearest_cent(self, monkeypatch):
        """HiGHS's point a hair below every whole cent: the model and the
        report are those of the point itself.  Rounding down would write each
        value a cent short and break rows of every block."""
        config, agents = random_setup(2024, n_bidders=3, n_products=6)
        raw = trace_to_bidlog(run_auction(config, agents))
        exact = {b: (e.model, e.report) for b, e in
                 estimate_all(raw, config.catalog, config.increments).items()}
        single = estimate(*self.instance())
        real = estimation.solve_lp

        def below(lp, backend):
            sol = real(lp, backend=backend)
            return Solution(sol.status, {name: math.nextafter(value, -math.inf)
                                         for name, value in sol.values.items()},
                            sol.objective_value)
        monkeypatch.setattr(estimation, "solve_lp", below)
        assert estimate(*self.instance()) == single
        assert {b: (e.model, e.report) for b, e in
                estimate_all(raw, config.catalog, config.increments).items()} == exact
        assert any(model.marginals for model, _ in exact.values())


class TestSerialization:
    def test_json_round_trip(self):
        config, agents = random_setup(7, n_bidders=2, n_products=5)
        trace = run_auction(config, agents)
        estimates = estimate_all(trace_to_bidlog(trace), config.catalog,
                                 config.increments)
        for bidder, est in estimates.items():
            text = model_to_json(est.model, est.space)
            model, space = model_from_json(text)
            assert model.bidder_id == bidder
            assert model.base_values == est.model.base_values
            assert model.marginals == est.model.marginals
            assert tuple(b.quantities for b in space.bases) == \
                tuple(b.quantities for b in est.space.bases)
            # serialization is deterministic
            assert model_to_json(model, space) == text

    def test_duplicate_base_id_rejected(self):
        config, agents = random_setup(7, n_bidders=1, n_products=5, n_bases=2)
        doc = json.loads(model_to_json(agents[0].model, agents[0].space))
        doc["bases"][1]["base_id"] = doc["bases"][0]["base_id"]
        with pytest.raises(ValidationError, match="duplicate base_id"):
            model_from_json(json.dumps(doc))


def dict_reference(space, start_prices, eligibility, catalog, mr_slack_weight=None):
    """The valuation LP built one row dict at a time, each row as the
    difference of two utilities given as (coefficients, cost): its nonzero
    coefficients, and the observed bundle's cost less the alternative's
    (sitting out is the alternative with no terms and cost 0).  The
    reference for `estimation._build`, whose arrays must hold the same bits.
    Returns the LP that `lp_min` makes of the dicts, each row's block and each row's right-hand side in
    Python integers."""
    def vb(base_id):
        return f"vb::{base_id}"

    def vm(j, level):
        return f"vm::{j}::{level}"

    def utility_terms(bundle, base_id, prices):
        coeffs, cost = {vb(base_id): 1.0}, 0
        for j, q in bundle.quantities.items():
            levels = space.ladders[j].levels
            for prev, level in zip(levels, levels[1:]):
                if level > q:
                    break
                coeffs[vm(j, level)] = coeffs.get(vm(j, level), 0.0) + (level - prev)
            cost += q * prices[j]
        return coeffs, cost

    def preference(observed, alternative):
        (u_coeffs, u_cost), (a_coeffs, a_cost) = observed, alternative
        coeffs = dict(u_coeffs)
        for name, coef in a_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) - coef
        return {name: coef for name, coef in coeffs.items() if coef}, u_cost - a_cost

    variables, objective, rows, blocks, cents = [], {}, [], [], []

    def column(name, weight):
        variables.append((name, 0.0, None))
        objective[name] = weight
        return name

    for base in space.bases:
        column(vb(base.base_id), 1.0)
    for j in sorted(space.ladders):
        for level in space.ladders[j].levels[1:]:
            column(vm(j, level), 1e-6)
    variants = [(variant, base.base_id, eligibility_cost(variant, catalog))
                for base in space.bases for variant in enumerate_variants(base, space.ladders)]

    def add(coeffs, rhs, block):
        rows.append((coeffs, GE, rhs))
        blocks.append(block)
        cents.append(rhs)

    for rnd in sorted(space.observed):
        bundle, base_id = space.observed[rnd]
        prices = start_prices[rnd]
        u = ({}, 0)
        if bundle:
            u = utility_terms(bundle, base_id, prices)
            add(*preference(u, ({}, 0)), "positive_utility")
            for j, q in bundle.quantities.items():
                ladder = space.ladders[j]
                k = ladder.index_of(q)
                for k2 in (k - 1, k + 1):
                    if not 1 <= k2 <= len(ladder.levels):
                        continue
                    step = Bundle({**bundle.quantities, j: ladder.levels[k2 - 1]})
                    coeffs, rhs = preference(u, utility_terms(step, base_id, prices))
                    if mr_slack_weight is not None:
                        coeffs[column(f"ms::{rnd}::{j}::{k2}", mr_slack_weight)] = 1.0
                    add(coeffs, rhs, "marginal_rationality")
        eligible = [(alt, alt_base) for alt, alt_base, cost in variants
                    if cost <= eligibility[rnd] and alt.key() != bundle.key()]
        for n, (alt, alt_base) in enumerate(eligible):
            coeffs, rhs = preference(u, utility_terms(alt, alt_base, start_prices[rnd]))
            coeffs[column(f"sl::{rnd}::{n}", 1.0)] = 1.0
            add(coeffs, rhs, "revealed_preference")
    for j in sorted(space.ladders):
        levels = space.ladders[j].levels
        for a, b in zip(levels[1:], levels[2:]):
            add({vm(j, a): 1.0, vm(j, b): -1.0}, 0, "diminishing_returns")
    return lp_min(objective, variables, rows), blocks, cents


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def assert_builds_match(space, start_prices, eligibility, catalog, weight):
    """`_build` against `dict_reference`: names and cost bits of the columns;
    each row's columns and value bits in order, its rhs bits and relation;
    the block labels.  Returns the built LP and the reference's right-hand
    sides in Python integers."""
    built, kinds = estimation._build(space, start_prices, eligibility, catalog, weight)
    lp, blocks, cents = dict_reference(space, start_prices, eligibility, catalog, weight)
    rows, names = built.rows, built.names
    assert names == lp.names
    assert bits(built.costs) == bits(lp.costs)
    assert len(rows.rhs) == len(lp.rows.rhs)
    got = [([names[k] for k in rows.indices[a:b]], bits(rows.data[a:b]))
           for a, b in zip(rows.indptr[:-1].tolist(), rows.indptr[1:].tolist())]
    assert got == [(list(coeffs), bits(list(coeffs.values())))
                   for coeffs, _, _ in constraints(lp)]
    assert bits(rows.rhs) == bits(lp.rows.rhs)
    assert rows.relations == lp.rows.relations
    assert [BLOCKS[k] for k in kinds] == blocks
    return built, cents


class TestBuilderMatchesDictReference:
    @pytest.mark.parametrize("n_bases", [1, 2, 3])
    def test_random_auctions(self, n_bases):
        """Every bidder of twelve random auctions, at the reconstructed and at
        zero prices, with and without marginal-rationality slack."""
        seen = 0
        for seed in range(12):
            config, agents = random_setup(seed, 8, 24, n_bases=n_bases)
            raw = trace_to_bidlog(run_auction(config, agents))
            smoothed = smooth_monotone(raw)
            start = reconstruct_prices(raw, config.catalog, config.increments)
            free = {rnd: PriceVector({j: 0 for j in prices.prices})
                    for rnd, prices in start.items()}
            for bidder in smoothed.bidders():
                space = build_bundle_space(smoothed, bidder)
                if not space.bases:
                    continue
                eligibility = reconstruct_eligibility(space, config.catalog)
                for prices in (start, free):
                    for weight in (None, 10.0):
                        built, cents = assert_builds_match(space, prices, eligibility,
                                                           config.catalog, weight)
                        # every row lists only the columns where the two
                        # utilities differ, over cost(observed) - cost(alternative)
                        assert 0.0 not in built.rows.data.tolist()
                        assert [int(r) for r in built.rows.rhs] == cents
                        seen += len(cents)
        assert seen

    def test_forced_slack_and_fallback_logs(self):
        catalog = make_catalog({"A": (5, 1), "B": (5, 1)})
        switch = BundleSpace(
            bidder_id="X", bases=(BundleBase("X/bA", {"A": 1}), BundleBase("X/bB", {"B": 1})),
            ladders={"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))},
            observed={1: (Bundle({"A": 1}), "X/bA"), 2: (Bundle({"B": 1}), "X/bB")})
        for weight in (None, 10.0):
            assert_builds_match(switch, {1: PriceVector({"A": 10_00, "B": 0}),
                                         2: PriceVector({"A": 0, "B": 10_00})},
                                {1: 2, 2: 2}, catalog, weight)
        holding = space_of({"A": [2, 1]})
        prices = {1: PriceVector({"A": 10_00}), 2: PriceVector({"A": 3_00})}
        assert estimate(holding, prices, {1: 2, 2: 2}, catalog)[1].fallback_used
        for weight in (None, 10.0):
            assert_builds_match(holding, prices, {1: 2, 2: 2}, catalog, weight)


@pytest.mark.parametrize("observed, prices, message", [
    pytest.param({1: (Bundle({"A": 1}), "X/bZ")}, {}, "observed base 'X/bZ' is not one "
                 "of the bases", id="unknown-base"),
    pytest.param({}, {2: None}, "no start prices for round 2", id="no-start-prices"),
    pytest.param({1: (Bundle({"A": 1}), None)}, {}, "round 1: observed bundle has no base",
                 id="no-base"),
    pytest.param({}, {2: PriceVector({"A": 0})}, "no price for product 'B'",
                 id="no-price"),
    pytest.param({}, {1: PriceVector({"A": 2**53, "B": 0})},
                 "X: a bundle costs 2**53 cents or more", id="cost-2-53"),
])
def test_build_refusals(observed, prices, message):
    """Each input `_build` refuses, made by one change to the switching
    log of `test_forced_slack_and_fallback_logs`."""
    catalog = make_catalog({"A": (5, 1), "B": (5, 1)})
    space = BundleSpace(
        bidder_id="X", bases=(BundleBase("X/bA", {"A": 1}), BundleBase("X/bB", {"B": 1})),
        ladders={"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))},
        observed={1: (Bundle({"A": 1}), "X/bA"), 2: (Bundle({"B": 1}), "X/bB"),
                  **observed})
    start = {1: PriceVector({"A": 10_00, "B": 0}), 2: PriceVector({"A": 0, "B": 10_00}),
             **prices}
    start = {rnd: vector for rnd, vector in start.items() if vector is not None}
    with pytest.raises(ValidationError, match=re.escape(message)):
        estimation._build(space, start, {1: 2, 2: 2}, catalog)
