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
from typing import Iterable

from .core import Bundle, ProductCatalog, atomic_write, check_bidder_id, plain, read_csv
from .errors import ParseError, ValidationError

Row = tuple[int, str, str, int]  # (round, bidder_id, product_id, quantity)


@dataclass(frozen=True)
class RawBidLog:
    """A bid log as its series: per bidder, per product (both sorted), the
    quantity in each round 1..R, R being the bidder's last round in the log.
    A round with no row for the product holds None, which reads as 0, so
    `rows` gives back the rows the log was made from, and two logs are equal
    when their rows are, in any order."""
    cells: dict[str, dict[str, tuple[int | None, ...]]]

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> RawBidLog:
        """The log of (round, bidder_id, product_id, quantity) rows; a
        repeated (round, bidder_id, product_id) keeps its last row."""
        cells: dict[str, dict[str, dict[int, int]]] = {}
        for rnd, bidder, product_id, q in rows:
            cells.setdefault(bidder, {}).setdefault(product_id, {})[rnd] = q
        rounds = {b: range(1, max(map(max, by_product.values())) + 1)
                  for b, by_product in cells.items()}
        return cls({b: {j: tuple(map(s.get, rounds[b])) for j, s in sorted(cells[b].items())}
                    for b in sorted(cells)})

    @property
    def rows(self) -> tuple[Row, ...]:
        """The cells that hold a row, in (round, bidder, product) order."""
        return tuple(sorted((rnd, b, j, q) for b, by_product in self.cells.items()
                            for j, s in by_product.items()
                            for rnd, q in enumerate(s, start=1) if q is not None))

    def bidders(self) -> tuple[str, ...]:
        return tuple(self.cells)

    def num_rounds(self, bidder_id: str | None = None) -> int:
        if bidder_id is None:
            return max(map(self.num_rounds, self.cells), default=0)
        return len(next(iter(self.cells.get(bidder_id, {}).values()), ()))

    def series(self, bidder_id: str, product_id: str) -> list[int]:
        """Quantity per round (1..R for this bidder), zero-filled."""
        cells = self.cells.get(bidder_id, {}).get(product_id)
        return [q or 0 for q in cells] if cells else [0] * self.num_rounds(bidder_id)

    def bundle(self, bidder_id: str, rnd: int) -> Bundle:
        return Bundle({j: s[rnd - 1] for j, s in self.cells.get(bidder_id, {}).items()
                       if 1 <= rnd <= len(s) and s[rnd - 1]})

    def products(self, bidder_id: str) -> tuple[str, ...]:
        return tuple(j for j, s in self.cells.get(bidder_id, {}).items() if any(s))

    def demand(self) -> list[dict[str, int]]:
        """Aggregate quantity per product in each round 1..num_rounds()."""
        totals: list[dict[str, int]] = [{} for _ in range(self.num_rounds())]
        for by_product in self.cells.values():
            for j, series in by_product.items():
                for aggregate, q in zip(totals, series):
                    aggregate[j] = aggregate.get(j, 0) + (q or 0)
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

    def check(self, catalog: ProductCatalog) -> None:
        """ValidationError unless every base and ladder product is in
        `catalog`, every base quantity is a level of its product's ladder,
        and no ladder level exceeds its product's supply."""
        for base in self.bases:
            for j, q in base.quantities.items():
                catalog.get(j)
                if j not in self.ladders:
                    raise ValidationError(f"base {base.base_id!r}: no ladder for {j!r}")
                if q not in self.ladders[j].levels:
                    raise ValidationError(f"base {base.base_id!r}: quantity {q} of {j!r} "
                                          "is not on its ladder")
        for j, ladder in self.ladders.items():
            supply = catalog.get(j).supply
            if ladder.levels[-1] > supply:
                raise ValidationError(f"ladder of {j!r} goes to {ladder.levels[-1]}, "
                                      f"above its supply {supply}")


def parse_bid_log(path, catalog: ProductCatalog) -> RawBidLog:
    """Load a bid log CSV with columns round, bidder_id, product_id, quantity."""
    def bid_row(rnd, bidder_id, product_id, quantity) -> Row:
        rnd, quantity = int(plain(rnd)), int(plain(quantity))
        if rnd < 1:
            raise ParseError("round must be >= 1")
        if quantity < 0:
            raise ValidationError("negative quantity")
        if quantity > catalog.get(product_id).supply:
            raise ValidationError(f"quantity {quantity} exceeds supply of {product_id!r}")
        return rnd, check_bidder_id(bidder_id), product_id, quantity

    rows = read_csv(path, ["round", "bidder_id", "product_id", "quantity"], bid_row,
                    key=lambda r: r[:3])
    if not rows:
        raise ValidationError(f"{path}: no bid rows")
    have = {(b, rnd) for rnd, b, _, _ in rows}
    gaps = sorted({b for b, rnd in have if rnd > 1 and (b, rnd - 1) not in have})
    if gaps:
        raise ValidationError(f"{path}: rounds not contiguous from 1 for bidders {gaps}")
    return RawBidLog.from_rows(rows)


def write_bid_log(log: RawBidLog, path) -> None:
    text = io.StringIO()
    csv.writer(text).writerows([("round", "bidder_id", "product_id", "quantity"), *log.rows])
    atomic_write(path, text.getvalue())


def smooth_monotone(log: RawBidLog) -> RawBidLog:
    """Suffix maximum per (bidder, product): c'^r = max_{r' >= r} c^{r'}.

    Non-increasing by construction, with a quantity in every cell; it keeps
    the final-round quantity, so final allocations survive smoothing verbatim.
    """
    return RawBidLog({
        b: {j: tuple(accumulate((q or 0 for q in reversed(s)), max))[::-1]
            for j, s in by_product.items()}
        for b, by_product in log.cells.items()})


def build_ladders(log: RawBidLog, bidder_id: str) -> dict[str, CopyLadder]:
    """Ascending distinct nonzero quantities per product; all-zero products drop."""
    return {j: CopyLadder(j, tuple(sorted({q for q in log.series(bidder_id, j) if q > 0})))
            for j in log.products(bidder_id)}


def variant_keys(base: BundleBase, ladders: dict[str, CopyLadder]) -> list[tuple]:
    """The `Bundle.key()` of each of `enumerate_variants`, in its order,
    without making the bundles."""
    per_product = []
    for j, base_q in base.quantities.items():
        ladder = ladders.get(j)
        if ladder is None:
            raise ValidationError(f"no ladder for base product {j!r}")
        ladder.index_of(base_q)  # base quantity must sit on the ladder
        per_product.append([(j, q) for q in ladder.levels if q >= base_q])
    return list(iproduct(*per_product))


def enumerate_variants(base: BundleBase, ladders: dict[str, CopyLadder]) -> list[Bundle]:
    """Cartesian product over base products of ladder levels >= the base level."""
    return [Bundle(dict(key)) for key in variant_keys(base, ladders)]


def build_bundle_space(log: RawBidLog, bidder_id: str) -> BundleSpace:
    """Ladders, bases and a round -> (bundle, base) map for one bidder, from
    one walk of its rounds' columns, with one `Bundle` per distinct column.
    One base per distinct nonzero product-support set, in order of first
    appearance; a base quantity is the minimum observed among rounds sharing
    that support.  A round where the bidder sits out maps to no base (value 0)."""
    by_product = log.cells.get(bidder_id, {})
    columns = list(zip(*by_product.values()))
    bundles = {column: Bundle({j: q for j, q in zip(by_product, column) if q})
               for column in dict.fromkeys(columns)}
    mins: dict[frozenset, dict[str, int]] = {}
    for bundle in filter(None, bundles.values()):
        base = mins.setdefault(bundle.support(), dict(bundle.quantities))
        for j, q in bundle.quantities.items():
            base[j] = min(base[j], q)
    ids = {support: f"{bidder_id}/base{i}" for i, support in enumerate(mins)}
    bases = tuple(BundleBase(base_id=ids[s], quantities=q) for s, q in mins.items())
    placed = {column: (bundle, ids.get(bundle.support())) for column, bundle in bundles.items()}
    observed = {rnd: placed[column] for rnd, column in enumerate(columns, start=1)}
    return BundleSpace(bidder_id=bidder_id, bases=bases,
                       ladders=build_ladders(log, bidder_id), observed=observed)
