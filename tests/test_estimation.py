import pytest

from clockauction.core import (Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog)
from clockauction.errors import ValidationError
from clockauction.estimation import (EstimationReport, ValuationModel,
                                     bundle_utility, bundle_value,
                                     estimate, initial_eligibility,
                                     model_from_json, model_to_json,
                                     reconstruct_eligibility)
from clockauction.ingest import (BidRow, BundleBase, BundleSpace, CopyLadder,
                                 RawBidLog, build_bundle_space, smooth_monotone)
from clockauction.pipeline import estimate_all, trace_to_bidlog
from clockauction.solver import GE
from clockauction.synthetic import random_setup
from clockauction.engine import run_auction


def make_catalog(specs):
    """specs: product_id -> (supply, eligibility_points)."""
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=s,
                eligibility_points=e, opening_price=100_00)
        for j, (s, e) in specs.items()))


def space_of(series_by_product, bidder="X"):
    rows = []
    for j, series in series_by_product.items():
        for rnd, q in enumerate(series, start=1):
            rows.append(BidRow(round=rnd, bidder_id=bidder, product_id=j, quantity=q))
    return build_bundle_space(smooth_monotone(RawBidLog(rows=tuple(rows))), bidder)


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


class TestLpStructure:
    def test_single_round_single_variant(self):
        space = space_of({"A": [1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 100_00})}
        lp = estimate(space, prices, {1: 1}, catalog)[1].lp
        # one base, one variant, ladder of one level: only the positive-utility
        # row survives (no alternatives, no neighbors, no increments)
        assert len(lp.constraints) == 1
        con = lp.constraints[0]
        assert con.relation == GE
        assert con.coeffs == {"vb::X/base0": 1.0}
        assert con.rhs == 100_00

    def test_marginal_rationality_neighbors_only(self):
        space = space_of({"A": [5, 3, 3, 2]})
        catalog = make_catalog({"A": (6, 1)})
        prices = {r: PriceVector({"A": 100_00}) for r in (1, 2, 3, 4)}
        elig = reconstruct_eligibility(space, catalog)
        lp = estimate(space, prices, elig, catalog)[1].lp
        # round 2 holds 3 on ladder (2, 3, 5): neighbor rows may touch the
        # increments to 3 and to 5, never a non-neighbor pattern beyond them
        names = {v.name for v in lp.variables}
        assert "vm::A::3" in names and "vm::A::5" in names and "vm::A::2" not in names

    def test_eligibility_filters_alternatives(self):
        space = space_of({"A": [2, 1]})
        catalog = make_catalog({"A": (5, 3)})
        prices = {1: PriceVector({"A": 100_00}), 2: PriceVector({"A": 110_00})}
        # with full eligibility round 2 sees the (A: 2) alternative...
        lp_full = estimate(space, prices, {1: 6, 2: 6}, catalog)[1].lp
        # ...with eligibility 3 it cannot afford it
        lp_cut = estimate(space, prices, {1: 6, 2: 3}, catalog)[1].lp
        n_full = sum(1 for n in (v.name for v in lp_full.variables) if n.startswith("sl::2"))
        n_cut = sum(1 for n in (v.name for v in lp_cut.variables) if n.startswith("sl::2"))
        assert n_full == 1 and n_cut == 0


@pytest.mark.parametrize("backend", ["builtin", "highs"])
class TestEstimate:
    def test_zero_prices_give_zero_values(self, backend):
        space = space_of({"A": [1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 0})}
        model, report = estimate(space, prices, {1: 1}, catalog, backend=backend)
        assert model.base_values["X/base0"] == pytest.approx(0.0, abs=1e-6)
        assert report.slack_total == pytest.approx(0.0, abs=1e-6)
        assert not report.fallback_used and not report.violations

    def test_irrational_switch_forces_slack(self, backend):
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
        model, report = estimate(space, prices, {1: 2, 2: 2}, catalog,
                                 backend=backend)
        assert report.slack_total == pytest.approx(20_00, abs=1e-4)
        assert report.base_value_total == pytest.approx(20_00, abs=1e-4)
        assert not report.fallback_used

    def test_infeasible_log_uses_fallback(self, backend):
        # ladder (1, 2): holding 2 at price 10 forces the increment value up
        # to 1000, holding 1 at price 3 forces it down to 300; the hard system
        # is empty, so the penalized re-solve must kick in
        space = space_of({"A": [2, 1]})
        catalog = make_catalog({"A": (5, 1)})
        prices = {1: PriceVector({"A": 10_00}), 2: PriceVector({"A": 3_00})}
        model, report = estimate(space, prices, {1: 2, 2: 2}, catalog,
                                 backend=backend)
        assert report.fallback_used
        assert report.status == "optimal"
        assert report.slack_total > 0

    def test_consistent_synthetic_log_has_zero_slack(self, backend):
        config, agents = random_setup(2024, n_bidders=3, n_products=6)
        trace = run_auction(config, agents)
        raw = trace_to_bidlog(trace)
        estimates = estimate_all(raw, config.catalog, config.increments,
                                 backend=backend)
        assert estimates
        for est in estimates.values():
            assert est.report.slack_total == pytest.approx(0.0, abs=1e-4)
            assert not est.report.fallback_used
            assert not est.report.violations


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
