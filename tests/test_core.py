import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clockauction
from clockauction.core import (MAX_CENTS, Bundle, IncrementSchedule, PriceVector, Product,
                               ProductCatalog, atomic_write, cents, clock_price, csv_text,
                               dollars_to_cents, eligibility_cost, read_csv)
from clockauction.costs import AreaStats, CostParameters, TowerInventory
from clockauction.engine import overdemanded, price_step
from clockauction.errors import ParseError, ValidationError
from clockauction.estimation import ValuationModel
from clockauction.ingest import RawBidLog
from clockauction.tiered import TieredValuationAdjustment


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
        return RawBidLog.from_rows((1, f"B{i}", "A", q) for i, q in enumerate(quantities))

    def test_sum(self):
        assert self.log([2, 3, 1]).demand() == [{"A": 6}]

    def test_empty(self):
        assert RawBidLog.from_rows(()).demand() == []

    def test_zero_demand(self):
        assert self.log([0, 0, 0]).demand() == [{"A": 0}]


class TestPostedPrice:
    """The posted price `price_step` gives on `overdemanded`: the clock price
    when demand exceeds supply, else the start price."""

    @staticmethod
    def posted(start, aggregate, supply, delta=0.1):
        catalog = ProductCatalog(products=(Product("A", "area-A", "urban", supply, 1, 0),))
        clock, posted = price_step(PriceVector({"A": start}),
                                   overdemanded({"A": aggregate}, catalog), ["A"],
                                   IncrementSchedule.constant(delta))
        assert clock["A"] == clock_price(start, delta)
        return posted["A"]

    def test_overdemand_moves_to_clock(self):
        assert self.posted(d("100"), 7, 5) == d("110")
        assert self.posted(d("4"), 7, 5, delta=0.2) == d("5")

    def test_demand_equal_supply_clears(self):
        assert self.posted(d("100"), 5, 5) == d("100")

    def test_no_demand(self):
        assert self.posted(d("100"), 0, 5) == d("100")

    def test_always_start_or_clock(self):
        for agg in range(12):
            assert self.posted(d("7"), agg, 5) in (d("7"), d("8"))

    def test_clock_below_start_rejected(self):
        # $4.09 * 1.1 rounds to $4.00, overdemanded or not
        for aggregate in (7, 0):
            with pytest.raises(ValidationError,
                               match=r"price of A: .* delta 0\.1 .* start price \$4\.09"):
                self.posted(d("4.09"), aggregate, 5)

    @pytest.mark.parametrize("start", ["0", "1", "4"])
    def test_overdemanded_price_that_cannot_rise_rejected(self, start):
        # at delta 0.1 a whole-dollar start below $5 rounds back to itself: the
        # price would stall
        with pytest.raises(ValidationError, match=rf"price of A: .* start price \${start}\.00"):
            self.posted(d(start), 7, 5)
        assert self.posted(d(start), 5, 5) == d(start)


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

    def test_atomic_write_leaves_no_temporary_file(self, tmp_path):
        """A write that succeeds, and one that fails in the write, each leave
        no `.tmp` behind; the failed one keeps the old file."""
        path = tmp_path / "out.txt"
        atomic_write(path, "new\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, "\ud800")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_a_row_that_begins_with_a_hash_is_written_quoted(self, tmp_path):
        """`read_csv` skips a line that begins with `#` as a comment, so
        `csv_text` quotes a row whose first field begins with one; a `#`
        later in a row is written bare."""
        rows = [("id", "note"), ("#1", "a"), ("#2", "b,c"), ("plain", "#3")]
        text = csv_text(rows)
        assert text == 'id,note\n"#1","a"\n"#2","b,c"\nplain,#3\n'
        (tmp_path / "rows.csv").write_text(f"# a comment\n{text}")
        assert read_csv(tmp_path / "rows.csv", ["id", "note"], lambda *row: row,
                        key=lambda row: row[0]) == rows[1:]


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

    def test_a_byte_order_mark_is_read(self, tmp_path):
        """A catalog saved as "CSV UTF-8" by a spreadsheet begins with a
        byte-order mark, which is not part of its first column's name."""
        path = tmp_path / "catalog.csv"
        path.write_text(self.HEADER + "P1,A1,urban,3,2,125000\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ProductCatalog.from_csv(path).ids() == ("P1",)

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

    def test_an_area_has_one_class(self, tmp_path):
        """Two products of one area in two classes are refused, naming both;
        read from a file, the error names the file."""
        path = tmp_path / "catalog.csv"
        path.write_text(self.HEADER + "A,X1,rural,1,1,1\nB,X2,urban,1,1,1\n"
                        "C,X1,metro,1,1,1\nD,X1,rural,1,1,1\n")
        with pytest.raises(ValidationError) as caught:
            ProductCatalog.from_csv(path)
        assert str(caught.value) == f"{path}: area 'X1' is 'rural' for product A, " \
            "but 'metro' for product C"

    def test_eligibility_points_over_the_supply_fit_a_float(self, tmp_path):
        """A catalog's points over its whole supply, which bound every
        bundle's points and every eligibility, may total 2**53, the most a
        float holds exactly, and no more; read from a file, the error names
        the file."""
        two = Product("A", "XA", "rural", 2, 2**52, 0)
        assert len(ProductCatalog((two,))) == 1
        with pytest.raises(ValidationError, match=r"total 9007199254740993, above 2\*\*53"):
            ProductCatalog((two, Product("B", "XB", "rural", 1, 1, 0)))
        path = tmp_path / "catalog.csv"
        path.write_text(self.HEADER + f"A,XA,rural,2,{2**52},1\nB,XB,rural,1,1,1\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: eligibility"):
            ProductCatalog.from_csv(path)


class TestAmounts:
    """One check per kind of amount: money through `cents`, counts through
    `integer`, each naming the value it refuses."""
    MONEY = "must be >= 0 cents and at most 2**53, in whole cents, not"

    @pytest.mark.parametrize("value", [0, 2**53, 7.0])
    def test_whole_cents_in_range(self, value):
        assert cents(value, "x") == value and type(cents(value, "x")) is int

    @pytest.mark.parametrize("value", [-1, 0.5, math.nan, math.inf, -math.inf,
                                       MAX_CENTS + 1, 10**402])
    def test_anything_else_is_refused(self, value):
        """Past the float range too: the range is checked before `float`,
        which would overflow on 10**402 (a config's 1e400 dollars)."""
        with pytest.raises(ValidationError) as caught:
            cents(value, "tower_cost_low")
        assert str(caught.value) == f"tower_cost_low {self.MONEY} {value!r}"

    @pytest.mark.parametrize("make, what", [
        (lambda v: Product("P", "A", "urban", 1, 1, v), "product P: opening price"),
        (lambda v: ValuationModel("b", {"b/base0": v}, {("A", 1): 0.0}),
         "base value for b/base0"),
        (lambda v: ValuationModel("b", {}, {("A", 1): 0.0, ("A", 2): v}),
         "marginal for (A, 2)"),
        (lambda v: TieredValuationAdjustment({("b", "A", "low"): v}),
         "(b, A, low): deployment cost"),
        (lambda v: CostParameters(tower_cost_high=v), "tower_cost_high"),
        (lambda v: CostParameters(fibre_cost_per_km=v), "fibre_cost_per_km")])
    @pytest.mark.parametrize("value", [-1, 0.5, MAX_CENTS + 1])
    def test_each_money_field_names_itself(self, make, what, value):
        with pytest.raises(ValidationError, match=re.escape(f"{what} {self.MONEY} {value!r}")):
            make(value)

    @pytest.mark.parametrize("make, what, least", [
        (lambda n: Product("P", "A", "urban", n, 1, 0), "product P: supply", 1),
        (lambda n: Product("P", "A", "urban", 1, n, 0), "product P: eligibility points", 0),
        (lambda n: AreaStats("A", "urban", n, 1.0), "area A: population", 0),
        (lambda n: TowerInventory({("b", "A"): n}), "tower count for ('b', 'A')", 0)])
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_each_count_names_itself(self, make, what, least, value):
        with pytest.raises(ValidationError, match=re.escape(
                f"{what} must be an integer >= {least}, not {value!r}")):
            make(value)


class TestDollars:
    @pytest.mark.parametrize("text, cents", [
        ("1234.56", 123456), ("1,234.56", 123456), ("1,234,567", 123456700),
        (" -1 ", -100), ("+.5", 50), ("1.", 100), ("1E3", 100000), ("1e-2", 1),
        (1e3, 100000), (1200, 120000), ("1e400", 10**402), ("0e10000000", 0),
        ("0e-10000000", 0)])
    def test_decimal_amounts(self, text, cents):
        assert dollars_to_cents(text) == cents

    @pytest.mark.parametrize("text, message", [
        ("1e10000000", "amount far past"), ("-1e1000", "amount far past"),
        ("1e-10000000", "sub-cent amount"), ("0.001", "sub-cent amount")])
    def test_exponent_read_from_the_text(self, text, message):
        """An amount whose first digit is past 10**999 dollars or under a cent
        is refused without building the number its exponent names."""
        with pytest.raises(ValidationError, match=message):
            dollars_to_cents(text)

    @pytest.mark.parametrize("text", ["1/2", "1/0", "1,0,0", "1,23", "12,3456", ",100",
                                      "1,000,", "nan", "inf", "", ".",
                                      "e5", "1e", "-", True])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(ValueError, match="is not a dollar amount"):
            dollars_to_cents(text)


class TestBundle:
    def test_sparse_absent_is_zero(self):
        b = Bundle({"A": 2, "B": 0})
        assert b["B"] == 0
        assert b["C"] == 0
        assert b.support() == {"A"}

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Bundle({"A": -1})
