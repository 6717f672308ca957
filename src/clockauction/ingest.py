"""Bid-log parsing and preprocessing.

Raw round-by-round demand is smoothed to be non-increasing per (bidder,
product) via the suffix maximum, which raises earlier demands and leaves the
final round untouched.  From the smoothed log we derive per-product copy
ladders (distinct nonzero quantities), bundle bases (minimal configuration per
observed product-support set) and their variants.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate, product as iproduct

from .core import Bundle, EMPTY_BUNDLE, ProductCatalog, atomic_write, read_csv
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class BidRow:
    round: int
    bidder_id: str
    product_id: str
    quantity: int


@dataclass(frozen=True)
class RawBidLog:
    """Bid rows, indexed once when the log is made: per bidder, per product
    (both sorted), the zero-filled quantity in each round 1..R, R being the
    bidder's last round in the log.  Every query answers from that map; a
    repeated (round, bidder, product) keeps its last row."""
    rows: tuple[BidRow, ...]

    def __post_init__(self):
        rounds: dict[str, int] = {}
        for r in self.rows:
            rounds[r.bidder_id] = max(rounds.get(r.bidder_id, 0), r.round)
        series: dict[str, dict[str, list[int]]] = {b: {} for b in rounds}
        for r in self.rows:
            series[r.bidder_id].setdefault(
                r.product_id, [0] * rounds[r.bidder_id])[r.round - 1] = r.quantity
        # kept outside the dataclass fields, so equality stays on the rows;
        # tuples so no caller can change them
        object.__setattr__(self, "_rounds", rounds)
        object.__setattr__(self, "_series", {
            b: {j: tuple(q) for j, q in sorted(series[b].items())} for b in sorted(series)})

    def bidders(self) -> tuple[str, ...]:
        return tuple(self._series)

    def num_rounds(self, bidder_id: str | None = None) -> int:
        if bidder_id is None:
            return max(self._rounds.values(), default=0)
        return self._rounds.get(bidder_id, 0)

    def series(self, bidder_id: str, product_id: str) -> list[int]:
        """Quantity per round (1..R for this bidder), zero-filled."""
        by_product = self._series.get(bidder_id, {})
        return list(by_product.get(product_id, (0,) * self.num_rounds(bidder_id)))

    def bundle(self, bidder_id: str, rnd: int) -> Bundle:
        if not 1 <= rnd <= self.num_rounds(bidder_id):
            return EMPTY_BUNDLE
        q = {j: s[rnd - 1] for j, s in self._series[bidder_id].items() if s[rnd - 1] > 0}
        return Bundle(q) if q else EMPTY_BUNDLE

    def products(self, bidder_id: str) -> tuple[str, ...]:
        return tuple(j for j, s in self._series.get(bidder_id, {}).items() if max(s) > 0)

    def demand(self) -> list[dict[str, int]]:
        """Aggregate quantity per product in each round 1..num_rounds()."""
        totals: list[dict[str, int]] = [{} for _ in range(self.num_rounds())]
        for by_product in self._series.values():
            for j, series in by_product.items():
                for aggregate, q in zip(totals, series):
                    aggregate[j] = aggregate.get(j, 0) + q
        return totals


@dataclass(frozen=True)
class CopyLadder:
    product_id: str
    levels: tuple[int, ...]  # ascending, distinct, nonzero

    def __post_init__(self):
        if list(self.levels) != sorted(set(self.levels)) or any(v <= 0 for v in self.levels):
            raise ValidationError(f"ladder for {self.product_id}: levels must be "
                                  "ascending distinct positive quantities")

    def index_of(self, quantity: int) -> int:
        """1-based level index of a quantity on this ladder."""
        try:
            return self.levels.index(quantity) + 1
        except ValueError:
            raise ValidationError(
                f"quantity {quantity} not on ladder of {self.product_id}") from None


@dataclass(frozen=True)
class BundleBase:
    base_id: str
    quantities: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "quantities", dict(sorted(self.quantities.items())))

    def support(self) -> frozenset[str]:
        return frozenset(self.quantities)


@dataclass(frozen=True)
class BundleSpace:
    bidder_id: str
    bases: tuple[BundleBase, ...]
    ladders: dict[str, CopyLadder]
    observed: dict[int, tuple[Bundle, str | None]]  # round -> (bundle, base_id)


def parse_bid_log(path, catalog: ProductCatalog) -> RawBidLog:
    """Load a bid log CSV with columns round, bidder_id, product_id, quantity."""
    def bid_row(rnd, bidder_id, product_id, quantity) -> BidRow:
        rec = BidRow(int(rnd), bidder_id, product_id, int(quantity))
        if rec.round < 1:
            raise ParseError("round must be >= 1")
        if rec.quantity < 0:
            raise ValidationError("negative quantity")
        if rec.quantity > catalog.get(product_id).supply:
            raise ValidationError(f"quantity {rec.quantity} exceeds supply of {product_id!r}")
        return rec

    rows = read_csv(path, ["round", "bidder_id", "product_id", "quantity"], bid_row,
                    key=lambda r: (r.round, r.bidder_id, r.product_id))
    have = {(r.bidder_id, r.round) for r in rows}
    gaps = sorted({b for b, rnd in have if rnd > 1 and (b, rnd - 1) not in have})
    if gaps:
        raise ValidationError(f"{path}: rounds not contiguous from 1 for bidders {gaps}")
    return RawBidLog(rows=tuple(rows))


def write_bid_log(log: RawBidLog, path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["round", "bidder_id", "product_id", "quantity"])
    for row in sorted(log.rows, key=lambda r: (r.round, r.bidder_id, r.product_id)):
        writer.writerow([row.round, row.bidder_id, row.product_id, row.quantity])
    atomic_write(path, text.getvalue())


def smooth_monotone(log: RawBidLog) -> RawBidLog:
    """Suffix maximum per (bidder, product): c'^r = max_{r' >= r} c^{r'}.

    Non-increasing by construction and preserves the final-round quantity,
    so final allocations survive smoothing verbatim.
    """
    rows = []
    for bidder, by_product in log._series.items():
        for product_id, series in by_product.items():
            smoothed = list(accumulate(reversed(series), max))[::-1]
            rows.extend(BidRow(round=r, bidder_id=bidder, product_id=product_id,
                               quantity=q) for r, q in enumerate(smoothed, start=1))
    return RawBidLog(rows=tuple(rows))


def build_ladders(log: RawBidLog, bidder_id: str) -> dict[str, CopyLadder]:
    """Ascending distinct nonzero quantities per product; all-zero products drop."""
    return {j: CopyLadder(j, tuple(sorted({q for q in log.series(bidder_id, j) if q > 0})))
            for j in log.products(bidder_id)}


def enumerate_variants(base: BundleBase, ladders: dict[str, CopyLadder]) -> list[Bundle]:
    """Cartesian product over base products of ladder levels >= the base level."""
    per_product = []
    for j, base_q in base.quantities.items():
        ladder = ladders.get(j)
        if ladder is None:
            raise ValidationError(f"no ladder for base product {j!r}")
        ladder.index_of(base_q)  # base quantity must sit on the ladder
        per_product.append([(j, q) for q in ladder.levels if q >= base_q])
    return [Bundle(dict(combo)) for combo in iproduct(*per_product)]


def build_bundle_space(log: RawBidLog, bidder_id: str) -> BundleSpace:
    """Ladders, bases and a round -> (bundle, base) map for one bidder, from
    one walk of its rounds.  One base per distinct nonzero product-support
    set, in order of first appearance; a base quantity is the minimum
    observed among rounds sharing that support.  A round where the bidder
    sits out maps to no base (value 0)."""
    mins: dict[frozenset, dict[str, int]] = {}
    bundles = []
    for rnd in range(1, log.num_rounds(bidder_id) + 1):
        bundle = log.bundle(bidder_id, rnd)
        if bundle:
            base = mins.setdefault(bundle.support(), dict(bundle.quantities))
            for j, q in bundle.quantities.items():
                base[j] = min(base[j], q)
        bundles.append(bundle)
    ids = {support: f"{bidder_id}/base{i}" for i, support in enumerate(mins)}
    bases = tuple(BundleBase(base_id=ids[s], quantities=q) for s, q in mins.items())
    observed = {rnd: (bundle, ids.get(bundle.support()))
                for rnd, bundle in enumerate(bundles, start=1)}
    return BundleSpace(bidder_id=bidder_id, bases=bases,
                       ladders=build_ladders(log, bidder_id), observed=observed)
