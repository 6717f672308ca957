import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from clockauction.core import (Bundle, PriceVector, Product, ProductCatalog, RoundRecord,
                               dollars_to_cents)
from clockauction.engine import AuctionTrace
from clockauction.errors import ParseError, ValidationError
from clockauction.ingest import (BundleBase, CopyLadder, RawBidLog,
                                 build_bundle_space, build_ladders,
                                 enumerate_variants, parse_bid_log,
                                 smooth_monotone, write_bid_log)
from clockauction.pipeline import trace_to_bidlog


def make_catalog(supplies):
    return ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=s,
                eligibility_points=1, opening_price=dollars_to_cents("100"))
        for j, s in supplies.items()))


def log_from_series(series_by_product, bidder="X"):
    return RawBidLog.from_rows((rnd, bidder, j, q) for j, series in series_by_product.items()
                               for rnd, q in enumerate(series, start=1))


class TestParse:
    HEADER = "round,bidder_id,product_id,quantity\n"

    def write(self, tmp_path, body):
        path = tmp_path / "bids.csv"
        path.write_text(self.HEADER + body)
        return path

    def test_basic(self, tmp_path):
        catalog = make_catalog({"A": 5, "B": 5})
        path = self.write(tmp_path, "1,X,A,3\n1,X,B,1\n2,X,A,2\n")
        log = parse_bid_log(path, catalog)
        assert log.bidders() == ("X",)
        assert log.num_rounds("X") == 2
        assert log.bundle("X", 1) == Bundle({"A": 3, "B": 1})
        assert log.series("X", "B") == [1, 0]

    def test_negative_quantity(self, tmp_path):
        path = self.write(tmp_path, "1,X,A,-1\n")
        with pytest.raises(ValidationError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_unknown_product(self, tmp_path):
        path = self.write(tmp_path, "1,X,Z,1\n")
        with pytest.raises(ValidationError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_quantity_exceeds_supply(self, tmp_path):
        path = self.write(tmp_path, "1,X,A,6\n")
        with pytest.raises(ValidationError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_duplicate_row(self, tmp_path):
        path = self.write(tmp_path, "1,X,A,1\n1,X,A,2\n")
        with pytest.raises(ValidationError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_non_contiguous_rounds(self, tmp_path):
        path = self.write(tmp_path, "1,X,A,1\n3,X,A,1\n")
        with pytest.raises(ValidationError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bids.csv"
        path.write_text("round,bidder,qty\n1,X,1\n")
        with pytest.raises(ParseError):
            parse_bid_log(path, make_catalog({"A": 5}))

    def test_write_round_trip(self, tmp_path):
        catalog = make_catalog({"A": 5, "B": 5})
        log = log_from_series({"A": [3, 2], "B": [1, 1]})
        path = tmp_path / "out.csv"
        write_bid_log(log, path)
        again = parse_bid_log(path, catalog)
        for rnd in (1, 2):
            assert again.bundle("X", rnd) == log.bundle("X", rnd)


class TestSmoothing:
    def test_dip_raised(self):
        log = log_from_series({"A": [3, 1, 2]})
        assert smooth_monotone(log).series("X", "A") == [3, 2, 2]

    def test_already_monotone_unchanged(self):
        log = log_from_series({"A": [5, 4, 4]})
        assert smooth_monotone(log).series("X", "A") == [5, 4, 4]

    def test_late_entry_backfilled(self):
        log = log_from_series({"A": [0, 2, 1]})
        assert smooth_monotone(log).series("X", "A") == [2, 2, 1]

    def test_final_round_preserved(self):
        log = log_from_series({"A": [1, 4, 0, 3]})
        assert smooth_monotone(log).series("X", "A")[-1] == 3

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12))
    def test_non_increasing_and_idempotent(self, series):
        log = log_from_series({"A": series})
        smoothed = smooth_monotone(log)
        out = smoothed.series("X", "A")
        assert all(a >= b for a, b in zip(out, out[1:]))
        assert out[-1] == series[-1]
        assert all(a >= b for a, b in zip(out, series))
        assert smooth_monotone(smoothed).series("X", "A") == out


class TestLadders:
    def test_distinct_ascending(self):
        log = RawBidLog.from_rows(log_from_series({"A": [5, 3, 3, 1]}).rows)
        ladders = build_ladders(log, "X")
        assert ladders["A"].levels == (1, 3, 5)

    def test_zero_rounds_dropped_from_levels(self):
        log = RawBidLog.from_rows(log_from_series({"A": [2, 2, 0]}).rows)
        assert build_ladders(log, "X")["A"].levels == (2,)

    def test_index_of(self):
        ladder = CopyLadder("A", (1, 3, 5))
        assert ladder.index_of(1) == 1
        assert ladder.index_of(5) == 3
        with pytest.raises(ValidationError):
            ladder.index_of(2)

    def test_ladder_validation(self):
        with pytest.raises(ValidationError):
            CopyLadder("A", (3, 1))
        with pytest.raises(ValidationError):
            CopyLadder("A", (0, 1))


class TestBases:
    def test_min_quantities_per_support(self):
        # same support {A, B} in both rounds: base takes per-product minimums
        log = RawBidLog.from_rows(log_from_series({"A": [4, 4], "B": [5, 3]}).rows)
        bases = build_bundle_space(log, "X").bases
        assert len(bases) == 1
        assert bases[0].quantities == {"A": 4, "B": 3}

    def test_support_change_creates_second_base(self):
        log = RawBidLog.from_rows(log_from_series({"A": [2, 2, 0], "B": [0, 0, 1]}).rows)
        bases = build_bundle_space(log, "X").bases
        assert [b.quantities for b in bases] == [{"A": 2}, {"B": 1}]
        assert bases[0].base_id == "X/base0"

    def test_single_round(self):
        log = RawBidLog.from_rows(log_from_series({"A": [3]}).rows)
        assert build_bundle_space(log, "X").bases[0].quantities == {"A": 3}

    def test_empty_rounds_skipped(self):
        log = RawBidLog.from_rows(log_from_series({"A": [2, 0]}).rows)
        bases = build_bundle_space(log, "X").bases
        assert len(bases) == 1


class TestVariants:
    def test_cartesian_product_above_base(self):
        base = BundleBase("X/base0", {"A": 3, "B": 1})
        ladders = {"A": CopyLadder("A", (1, 3, 5)), "B": CopyLadder("B", (1, 2))}
        variants = enumerate_variants(base, ladders)
        keys = {tuple(sorted(v.quantities.items())) for v in variants}
        assert keys == {(("A", 3), ("B", 1)), (("A", 3), ("B", 2)),
                        (("A", 5), ("B", 1)), (("A", 5), ("B", 2))}

    def test_count_is_product_of_tail_lengths(self):
        base = BundleBase("X/base0", {"A": 1, "B": 2})
        ladders = {"A": CopyLadder("A", (1, 2, 4)), "B": CopyLadder("B", (1, 2, 3))}
        assert len(enumerate_variants(base, ladders)) == 3 * 2

    def test_base_off_ladder_rejected(self):
        base = BundleBase("X/base0", {"A": 2})
        with pytest.raises(ValidationError):
            enumerate_variants(base, {"A": CopyLadder("A", (1, 3))})


class TestBundleSpace:
    def test_observed_maps_to_base(self):
        raw = log_from_series({"A": [2, 2, 0], "B": [3, 1, 1]})
        space = build_bundle_space(smooth_monotone(raw), "X")
        assert space.observed[1] == (Bundle({"A": 2, "B": 3}), "X/base0")
        assert space.observed[3] == (Bundle({"B": 1}), "X/base1")
        # every observed bundle is among the variants of its own base
        for bundle, base_id in space.observed.values():
            if base_id is None:
                continue
            base = next(b for b in space.bases if b.base_id == base_id)
            variants = enumerate_variants(base, space.ladders)
            assert bundle in variants

    def test_exit_round_maps_to_none(self):
        raw = log_from_series({"A": [2, 0]})
        space = build_bundle_space(smooth_monotone(raw), "X")
        assert space.observed[2] == (Bundle({}), None)


BIDDERS, PRODUCTS = ("X", "Y", "Z"), ("A", "B", "C")


class TestIndexOracle:
    """Every query of the indexed log against a scan of its rows.  Rows may
    have zero quantities and round gaps, a bidder may have only zero rows,
    and "W"/"Q" are a bidder and a product the log never names."""

    @staticmethod
    def scan_series(rows, bidder, product):
        out = [0] * max((rnd for rnd, b, _, _ in rows if b == bidder), default=0)
        for rnd, b, j, q in rows:
            if b == bidder and j == product:
                out[rnd - 1] = q
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(1, 6), st.sampled_from(BIDDERS), st.sampled_from(PRODUCTS)),
        st.integers(0, 4), max_size=30))
    def test_queries_match_row_scan(self, cells):
        rows = [(rnd, b, j, q) for (rnd, b, j), q in cells.items()]
        log = RawBidLog.from_rows(rows)
        assert log.bidders() == tuple(sorted({b for _, b, _, _ in rows}))
        assert log.num_rounds() == max((rnd for rnd, _, _, _ in rows), default=0)
        for b in BIDDERS + ("W",):
            mine = [r for r in rows if r[1] == b]
            assert log.num_rounds(b) == max((rnd for rnd, _, _, _ in mine), default=0)
            assert log.products(b) == tuple(sorted({j for _, _, j, q in mine if q > 0}))
            for j in PRODUCTS + ("Q",):
                assert log.series(b, j) == self.scan_series(rows, b, j)
            for rnd in range(0, 8):
                assert log.bundle(b, rnd) == Bundle({
                    j: q for r, _, j, q in mine if r == rnd})
        demand = [{j: q for j, q in totals.items() if q} for totals in log.demand()]
        assert demand == [
            {j: q for j in PRODUCTS
             if (q := sum(n for r, _, k, n in rows if r == rnd and k == j))}
            for rnd in range(1, log.num_rounds() + 1)]

        smoothed = []
        for b in sorted({b for _, b, _, _ in rows}):
            for j in sorted({j for _, c, j, _ in rows if c == b}):
                series = self.scan_series(rows, b, j)
                smoothed += [(rnd, b, j, max(series[rnd - 1:]))
                             for rnd in range(1, len(series) + 1)]
        assert smooth_monotone(log).rows == tuple(sorted(smoothed))
        assert log.rows == tuple(sorted(rows))
        assert RawBidLog.from_rows(reversed(rows)) == log

    def test_equal_rows_in_any_order_are_equal_logs(self):
        a, b, c = (1, "X", "A", 2), (1, "Y", "B", 0), (2, "X", "B", 1)
        assert RawBidLog.from_rows([a, b, c]) == RawBidLog.from_rows([c, b, a])
        # an explicit zero row is a row of its own
        assert RawBidLog.from_rows([a, c]) != RawBidLog.from_rows([a, b, c])


@st.composite
def bid_log_rows(draw):
    """The rows of a valid bid log, in any order: each bidder bids in rounds
    1..R and names one or more products each round, with quantities that may
    be explicit zeros."""
    rows = []
    for b in draw(st.lists(st.sampled_from(BIDDERS), min_size=1, unique=True)):
        for rnd in range(1, draw(st.integers(1, 4)) + 1):
            named = draw(st.dictionaries(st.sampled_from(PRODUCTS), st.integers(0, 3),
                                         min_size=1))
            rows += [(rnd, b, j, q) for j, q in named.items()]
    return draw(st.permutations(rows))


class TestRowsRoundTrip:
    """`ingest` writes back every row it read, explicit zeros and bidders
    with only zero rows included; a trace's log holds its nonzero bids."""
    HEADER = "round,bidder_id,product_id,quantity\n"

    @classmethod
    def csv(cls, rows):
        return cls.HEADER + "".join(f"{r},{b},{j},{q}\n" for r, b, j, q in rows)

    @settings(max_examples=150, deadline=None)
    @given(bid_log_rows())
    @example([(2, "X", "A", 0), (1, "Y", "B", 1), (1, "X", "B", 0), (2, "Y", "B", 0)])
    def test_ingest_writes_every_row(self, rows):
        catalog = make_catalog({j: 5 for j in PRODUCTS})
        with tempfile.TemporaryDirectory() as tmp:
            source, written = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
            source.write_text(self.csv(rows))
            log = parse_bid_log(source, catalog)
            write_bid_log(log, written)
            assert written.read_text() == self.csv(sorted(rows))
            assert len(log.rows) == len(rows)
            assert parse_bid_log(written, catalog) == log

        by_round: dict[int, dict[str, dict[str, int]]] = {}
        for rnd, b, j, q in rows:
            by_round.setdefault(rnd, {}).setdefault(b, {})[j] = q
        free = PriceVector({})
        trace = AuctionTrace(rounds=[
            RoundRecord(round=rnd, start=free, clock=free, posted=free, aggregate={},
                        bids={b: Bundle(q) for b, q in by_round[rnd].items()},
                        eligibility={})
            for rnd in sorted(by_round)], final_allocation={}, revenue=0,
            rounds_used=len(by_round))
        assert trace_to_bidlog(trace) == RawBidLog.from_rows(r for r in rows if r[3])
