import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clockauction
from clockauction.core import (Bundle, PriceVector, Product, ProductCatalog,
                               clock_price, dollars_to_cents, eligibility_cost,
                               step_price)
from clockauction.engine import overdemanded
from clockauction.errors import ParseError, ValidationError
from clockauction.ingest import BidRow, RawBidLog


def d(x):
    return dollars_to_cents(x)


def make_catalog(points):
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=10,
                eligibility_points=e, opening_price=d("100"))
        for j, e in points.items()))


class TestClockPrice:
    def test_ten_percent(self):
        assert clock_price(d("100000"), 0.10) == d("110000")

    def test_zero_start(self):
        assert clock_price(0, 0.20) == 0

    def test_round_half_up_to_dollar(self):
        # 1333 * 1.15 = 1532.95 -> 1533
        assert clock_price(d("1333"), 0.15) == d("1533")

    def test_delta_out_of_range(self):
        with pytest.raises(ValidationError):
            clock_price(d("100"), 0.25)
        with pytest.raises(ValidationError):
            clock_price(d("100"), 0.05)

    def test_monotone_in_both_arguments(self):
        starts = [0, d("1"), d("137"), d("1333"), d("99999")]
        deltas = [0.1, 0.12, 0.15, 0.2]
        for delta in deltas:
            values = [clock_price(s, delta) for s in starts]
            assert values == sorted(values)
        for start in starts:
            values = [clock_price(start, delta) for delta in deltas]
            assert values == sorted(values)


def fraction_clock_price(start, delta):
    """start * (1 + delta) rounded half-up to a dollar, in exact rationals."""
    dollars = Fraction(start, 100) * (1 + Fraction(delta).limit_denominator(10_000))
    return (dollars + Fraction(1, 2)).__floor__() * 100


class TestClockPriceReference:
    @pytest.mark.parametrize("delta", [0.1, 0.15, 0.2])
    def test_every_cent_to_200_dollars(self, delta):
        assert all(clock_price(start, delta) == fraction_clock_price(start, delta)
                   for start in range(20_001))

    @settings(max_examples=500, deadline=None)
    @given(start=st.integers(0, 10**12), delta=st.floats(0.1, 0.2))
    def test_matches_fractions(self, start, delta):
        assert clock_price(start, delta) == fraction_clock_price(start, delta)

    def test_negative_start(self):
        with pytest.raises(ValidationError):
            clock_price(-1, 0.1)


class TestAggregateDemand:
    """Aggregate demand per product and round is `RawBidLog.demand()`."""

    @staticmethod
    def log(quantities):
        return RawBidLog(rows=tuple(BidRow(1, f"B{i}", "A", q)
                                    for i, q in enumerate(quantities)))

    def test_sum(self):
        assert self.log([2, 3, 1]).demand() == [{"A": 6}]

    def test_empty(self):
        assert RawBidLog(rows=()).demand() == []

    def test_zero_demand(self):
        assert self.log([0, 0, 0]).demand() == [{"A": 0}]


class TestPostedPrice:
    """The posted price is `step_price` of `overdemanded`: the clock price
    when demand exceeds supply, else the start price."""

    @staticmethod
    def posted(start, clock, aggregate, supply):
        catalog = ProductCatalog(products=(Product("A", "area-A", "urban", supply, 1, 0),))
        return step_price(start, clock, overdemanded({"A": aggregate}, catalog)["A"])

    def test_overdemand_moves_to_clock(self):
        assert self.posted(d("100"), d("110"), 7, 5) == d("110")

    def test_demand_equal_supply_clears(self):
        assert self.posted(d("100"), d("110"), 5, 5) == d("100")

    def test_no_demand(self):
        assert self.posted(d("100"), d("110"), 0, 5) == d("100")

    def test_always_start_or_clock(self):
        for agg in range(12):
            assert self.posted(d("7"), d("8"), agg, 5) in (d("7"), d("8"))

    def test_clock_below_start_rejected(self):
        with pytest.raises(ValidationError):
            step_price(d("100"), d("99"), True)


class TestPriceVector:
    def test_missing_price(self):
        with pytest.raises(ValidationError):
            PriceVector({})["A"]


class TestIoLayers:
    FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}

    def test_only_core_opens_files(self):
        """Inputs are read by `core.read_document` and artifacts written by
        `core.atomic_write`; no other code in the package touches a file."""
        openers, with_open = set(), set()
        for path in Path(clockauction.__file__).parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            if "open(" in text:
                with_open.add(path.name)
            for fn in ast.walk(ast.parse(text)):
                if isinstance(fn, ast.FunctionDef) and self.FILE_CALLS & {
                        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                        for call in ast.walk(fn) if isinstance(call, ast.Call)}:
                    openers.add((path.name, fn.name))
        assert with_open == {"core.py"}
        assert openers == {("core.py", "read_document"), ("core.py", "atomic_write")}


class TestEligibilityCost:
    def test_weighted_sum(self):
        catalog = make_catalog({"A": 2, "B": 3})
        assert eligibility_cost(Bundle({"A": 2, "B": 1}), catalog) == 7

    def test_empty(self):
        assert eligibility_cost(Bundle({}), make_catalog({"A": 2})) == 0

    def test_zero_point_product(self):
        catalog = make_catalog({"A": 0})
        assert eligibility_cost(Bundle({"A": 5}), catalog) == 0

    def test_unknown_product(self):
        with pytest.raises(ValidationError):
            eligibility_cost(Bundle({"Z": 1}), make_catalog({"A": 1}))

    def test_additive(self):
        catalog = make_catalog({"A": 2, "B": 3})
        total = eligibility_cost(Bundle({"A": 1, "B": 2}), catalog)
        assert total == (eligibility_cost(Bundle({"A": 1}), catalog)
                         + eligibility_cost(Bundle({"B": 2}), catalog))


class TestCatalogCsv:
    HEADER = "product_id,area_id,area_class,supply,eligibility_points,opening_price_cad\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(self.HEADER + "P1,A1,urban,3,2,125000\nP2,A2,rural,1,1,80000\n")
        catalog = ProductCatalog.from_csv(path)
        assert len(catalog) == 2
        assert catalog.get("P1").opening_price == d("125000")
        assert catalog.get("P2").area_class == "rural"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("product,supply\nP1,3\n")
        with pytest.raises(ParseError):
            ProductCatalog.from_csv(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(self.HEADER + "P1,A1,urban,3,2,1\nP1,A1,urban,3,2,1\n")
        with pytest.raises(ValidationError):
            ProductCatalog.from_csv(path)

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            Product(id="P", area_id="A", area_class="urban", supply=0,
                    eligibility_points=1, opening_price=1)
        with pytest.raises(ValidationError):
            Product(id="P", area_id="A", area_class="nowhere", supply=1,
                    eligibility_points=1, opening_price=1)


class TestBundle:
    def test_sparse_absent_is_zero(self):
        b = Bundle({"A": 2, "B": 0})
        assert b["B"] == 0
        assert b["C"] == 0
        assert b.support() == {"A"}

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Bundle({"A": -1})
