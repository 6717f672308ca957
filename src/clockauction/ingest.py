"""Bid-log parsing and preprocessing.

Raw round-by-round demand is smoothed to be non-increasing per (bidder,
product) via the suffix maximum, which raises earlier demands and leaves the
final round untouched.  From the smoothed log we derive per-product copy
ladders (distinct nonzero quantities), bundle bases (minimal configuration per
observed product-support set) and their variants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product as iproduct

from .core import Bundle, EMPTY_BUNDLE, ProductCatalog, read_csv
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class BidRow:
    round: int
    bidder_id: str
    product_id: str
    quantity: int


@dataclass(frozen=True)
class RawBidLog:
    rows: tuple[BidRow, ...]

    def bidders(self) -> tuple[str, ...]:
        return tuple(sorted({r.bidder_id for r in self.rows}))

    def num_rounds(self, bidder_id: str | None = None) -> int:
        rounds = [r.round for r in self.rows
                  if bidder_id is None or r.bidder_id == bidder_id]
        return max(rounds) if rounds else 0

    def series(self, bidder_id: str, product_id: str) -> list[int]:
        """Quantity per round (1..R for this bidder), zero-filled."""
        R = self.num_rounds(bidder_id)
        out = [0] * R
        for r in self.rows:
            if r.bidder_id == bidder_id and r.product_id == product_id:
                out[r.round - 1] = r.quantity
        return out

    def bundle(self, bidder_id: str, rnd: int) -> Bundle:
        q = {r.product_id: r.quantity for r in self.rows
             if r.bidder_id == bidder_id and r.round == rnd and r.quantity > 0}
        return Bundle(q) if q else EMPTY_BUNDLE

    def products(self, bidder_id: str) -> tuple[str, ...]:
        return tuple(sorted({r.product_id for r in self.rows
                             if r.bidder_id == bidder_id and r.quantity > 0}))


class SmoothedBidLog(RawBidLog):
    """Same shape as RawBidLog; per-(bidder, product) series are non-increasing."""


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

    def base(self, base_id: str) -> BundleBase:
        for b in self.bases:
            if b.base_id == base_id:
                return b
        raise ValidationError(f"unknown base {base_id!r}")


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "bidder_id", "product_id", "quantity"])
        for row in sorted(log.rows, key=lambda r: (r.round, r.bidder_id, r.product_id)):
            writer.writerow([row.round, row.bidder_id, row.product_id, row.quantity])


def smooth_monotone(log: RawBidLog) -> SmoothedBidLog:
    """Suffix maximum per (bidder, product): c'^r = max_{r' >= r} c^{r'}.

    Non-increasing by construction and preserves the final-round quantity,
    so final allocations survive smoothing verbatim.
    """
    rows = []
    for bidder in log.bidders():
        R = log.num_rounds(bidder)
        for product_id in sorted({r.product_id for r in log.rows if r.bidder_id == bidder}):
            series = log.series(bidder, product_id)
            smoothed = list(series)
            for r in range(R - 2, -1, -1):
                smoothed[r] = max(smoothed[r], smoothed[r + 1])
            for r, q in enumerate(smoothed, start=1):
                rows.append(BidRow(round=r, bidder_id=bidder,
                                   product_id=product_id, quantity=q))
    return SmoothedBidLog(rows=tuple(rows))


def build_ladders(log: SmoothedBidLog, bidder_id: str) -> dict[str, CopyLadder]:
    """Ascending distinct nonzero quantities per product; all-zero products drop."""
    ladders = {}
    for product_id in log.products(bidder_id):
        levels = sorted({q for q in log.series(bidder_id, product_id) if q > 0})
        if levels:
            ladders[product_id] = CopyLadder(product_id, tuple(levels))
    return ladders


def extract_bases(log: SmoothedBidLog, bidder_id: str) -> list[BundleBase]:
    """One base per distinct nonzero product-support set; base quantity is the
    minimum observed among rounds sharing that support."""
    by_support: dict[frozenset, dict[str, int]] = {}
    order: list[frozenset] = []
    for rnd in range(1, log.num_rounds(bidder_id) + 1):
        bundle = log.bundle(bidder_id, rnd)
        if not bundle:
            continue  # bidder sits out: maps to the empty base, value 0
        support = bundle.support()
        if support not in by_support:
            by_support[support] = dict(bundle.quantities)
            order.append(support)
        else:
            mins = by_support[support]
            for j, q in bundle.quantities.items():
                mins[j] = min(mins[j], q)
    return [BundleBase(base_id=f"{bidder_id}/base{i}", quantities=by_support[s])
            for i, s in enumerate(order)]


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


def build_bundle_space(log: SmoothedBidLog, bidder_id: str) -> BundleSpace:
    """Ladders, bases and a round -> (bundle, base) map for one bidder."""
    ladders = build_ladders(log, bidder_id)
    bases = extract_bases(log, bidder_id)
    by_support = {b.support(): b for b in bases}
    observed = {}
    for rnd in range(1, log.num_rounds(bidder_id) + 1):
        bundle = log.bundle(bidder_id, rnd)
        base = by_support.get(bundle.support()) if bundle else None
        if bundle and base is None:
            raise ValidationError(
                f"bidder {bidder_id!r} round {rnd}: bundle support not among bases")
        observed[rnd] = (bundle, base.base_id if base else None)
    return BundleSpace(bidder_id=bidder_id, bases=tuple(bases),
                       ladders=ladders, observed=observed)
