"""Shared domain types and the elementary clock-auction price/demand formulas.

Money is handled as integer cents everywhere; prices in the auction are whole
dollars, so integer cents remove float drift from price ladders compounded
over ~100 rounds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
import os
import re
from contextvars import ContextVar
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

from .errors import ClockAuctionError, ParseError, ValidationError

AREA_CLASSES = ("metro", "urban", "rural", "remote")

Money = int  # cents
# the most cents a float holds exactly, and so whole-cent sums below it
MAX_CENTS = 2**53


def integer(value, what: str, least: int | None = None) -> int:
    """`value`, read from JSON or YAML, if it is an int (not a bool) of at
    least `least`, where given; else a ValidationError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, int) or \
            least is not None and value < least:
        at_least = "" if least is None else f" >= {least}"
        raise ValidationError(f"{what} must be an integer{at_least}, not {value!r}")
    return value


def number(value, what: str) -> float:
    """`value`, read from JSON or YAML, as a float if it is an int or a float
    (not a bool or text); else a ValidationError that `what`, if any, begins."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, not {value!r}".lstrip())
    return float(value)


def plain(text: str) -> str:
    """A numeric CSV field if it is ASCII without `_`, else a ValueError:
    `int`, `float` and `Fraction` read `1_0` as 10 and `\u0662` as 2."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return text


# a decimal number with its sign and exponent, commas only between groups of
# three digits: not `1/2`, nor `1,0,0`, which reads as 100 once commas are dropped
_DOLLARS = re.compile(r"[-+]?(?=\.?\d)(\d{1,3}(,\d{3})+|\d*)(\.\d*)?([eE][-+]?\d+)?")


def dollars_to_cents(text: str | float | int) -> Money:
    """Parse a dollar amount ("1,234.56", 1234.5, 1200) into integer cents."""
    text = plain(str(text).strip())
    if not _DOLLARS.fullmatch(text):
        raise ValueError(f"{text!r} is not a dollar amount")
    amount = Decimal(text.replace(",", ""))
    # the power of ten of its first digit, read from the text, so that no
    # exponent has Fraction build a number of millions of digits
    if amount and amount.adjusted() > 999:
        raise ValidationError(f"amount far past 2**53 cents: {text!r}")
    if amount and amount.adjusted() < -2 or (cents := Fraction(amount) * 100).denominator != 1:
        raise ValidationError(f"sub-cent amount not representable: {text!r}")
    return int(cents)


def cents_to_dollars(cents: Money) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


@dataclass(frozen=True)
class Product:
    id: str
    area_id: str
    area_class: str
    supply: int
    eligibility_points: int
    opening_price: Money

    def __post_init__(self):
        if self.supply < 1:
            raise ValidationError(f"product {self.id}: supply must be >= 1")
        if self.eligibility_points < 0:
            raise ValidationError(f"product {self.id}: negative eligibility points")
        if self.opening_price < 0:
            raise ValidationError(f"product {self.id}: negative opening price")
        if self.opening_price > MAX_CENTS:  # a float must hold it, as it holds money
            raise ValidationError(f"product {self.id}: opening price above 2**53 cents")
        if self.area_class not in AREA_CLASSES:
            raise ValidationError(
                f"product {self.id}: area_class {self.area_class!r} not in {AREA_CLASSES}"
            )


@dataclass(frozen=True)
class ProductCatalog:
    products: tuple[Product, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {}
        for p in self.products:
            if p.id in by_id:
                raise ValidationError(f"duplicate product id {p.id!r}")
            by_id[p.id] = p
        object.__setattr__(self, "_by_id", by_id)

    def __iter__(self):
        return iter(self.products)

    def __len__(self):
        return len(self.products)

    def get(self, product_id: str) -> Product:
        try:
            return self._by_id[product_id]
        except KeyError:
            raise ValidationError(f"unknown product {product_id!r}") from None

    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.products)

    @staticmethod
    def from_csv(path) -> "ProductCatalog":
        """Load a catalog from CSV with columns
        product_id, area_id, area_class, supply, eligibility_points, opening_price_cad."""
        return ProductCatalog(products=tuple(read_csv(
            path, ["product_id", "area_id", "area_class", "supply",
                   "eligibility_points", "opening_price_cad"],
            lambda pid, area, area_class, supply, points, price: Product(
                pid, area, area_class, int(plain(supply)), int(plain(points)),
                dollars_to_cents(price)),
            key=lambda p: p.id)))


@dataclass(frozen=True)
class Bundle:
    """Sparse demand vector: absent product means quantity 0."""
    quantities: Mapping[str, int]

    def __post_init__(self):
        clean = {j: int(q) for j, q in self.quantities.items() if q != 0}
        for j, q in clean.items():
            if q < 0:
                raise ValidationError(f"negative quantity for product {j!r}")
        object.__setattr__(self, "quantities", dict(sorted(clean.items())))

    def __getitem__(self, product_id: str) -> int:
        return self.quantities.get(product_id, 0)

    def __bool__(self) -> bool:
        return bool(self.quantities)

    def support(self) -> frozenset[str]:
        return frozenset(self.quantities)

    def key(self) -> tuple:
        return tuple(sorted(self.quantities.items()))


EMPTY_BUNDLE = Bundle({})


def check_bidder_id(bidder_id: str) -> str:
    """`bidder_id` if it can be part of a file name: not empty, no `/`, `\\` or NUL."""
    if not bidder_id or "/" in bidder_id or "\\" in bidder_id or "\0" in bidder_id:
        raise ValidationError(f"bidder id {bidder_id!r} cannot be part of a file name")
    return bidder_id


@dataclass(frozen=True)
class PriceVector:
    prices: Mapping[str, Money]

    def __post_init__(self):
        for j, p in self.prices.items():
            if p < 0:
                raise ValidationError(f"negative price for product {j!r}")
        object.__setattr__(self, "prices", dict(self.prices))

    def __getitem__(self, product_id: str) -> Money:
        try:
            return self.prices[product_id]
        except KeyError:
            raise ValidationError(f"no price for product {product_id!r}") from None


@dataclass(frozen=True)
class RoundRecord:
    round: int
    start: PriceVector
    clock: PriceVector
    posted: PriceVector
    aggregate: Mapping[str, int]
    bids: Mapping[str, Bundle]
    eligibility: Mapping[str, int]


@dataclass(frozen=True)
class IncrementSchedule:
    """The price increment `delta`, a fraction in [0.1, 0.2]: every round
    raises each clock by it, on every product."""
    delta: float

    def __post_init__(self):
        _check_delta(number(self.delta, "price increment"))

    @staticmethod
    def constant(value: float) -> "IncrementSchedule":
        return IncrementSchedule(value)


def _check_delta(delta: float) -> None:
    if not (0.1 <= delta <= 0.2):
        raise ValidationError(f"price increment {delta} outside [0.1, 0.2]")


@lru_cache
def _rate(delta: float) -> tuple[int, int]:
    """1 + delta as an exact fraction n/d, so 0.15 behaves as 23/20, not its
    float neighbour."""
    _check_delta(delta)
    rate = 1 + Fraction(delta).limit_denominator(10_000)
    return rate.numerator, rate.denominator


def clock_price(start: Money, delta: float) -> Money:
    """Clock price = start * (1 + delta), rounded half-up to the nearest dollar."""
    if start < 0:
        raise ValidationError("negative start price")
    n, d = _rate(delta)
    # floor(start/100 * n/d + 1/2) dollars, in integers
    return (2 * start * n + 100 * d) // (200 * d) * 100


def step_price(start: Money, clock: Money, overdemanded: bool) -> Money:
    """Clock price when overdemanded, else the start price; a clock below its
    start (a sub-dollar price rounded down) is rejected."""
    if clock < start:
        raise ValidationError("clock price below start price")
    return clock if overdemanded else start


def eligibility_cost(bundle: Bundle | Mapping[str, int], catalog: ProductCatalog) -> int:
    """Eligibility points times quantity, summed over a bundle or a
    {product: quantity} map."""
    quantities = bundle.quantities if isinstance(bundle, Bundle) else bundle
    return sum(catalog.get(j).eligibility_points * q for j, q in quantities.items())


# What converting a malformed row or document raises (see input_error).
INPUT_ERRORS = (ParseError, ValidationError, ValueError, LookupError,
                TypeError, AttributeError, ArithmeticError)


def input_error(where: str, exc: Exception) -> ClockAuctionError:
    """`exc`, met while reading `where` (a file or `file:line`), to raise: a
    ValidationError stays one, any other error becomes a ParseError, and a
    KeyError names the key that is missing."""
    kind = ValidationError if isinstance(exc, ValidationError) else ParseError
    if isinstance(exc, KeyError):
        return kind(f"{where}: missing key {exc}")
    return kind(f"{where}: {getattr(exc, 'strerror', None) or exc}")


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflow are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {text}")
    return value


def finite_json(text: str):
    """The JSON document `text`, whose numbers must all be finite."""
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


# path -> sha256 prefix of the bytes read_document parsed from it, recorded
# while a CLI command runs, for its run manifest; outside one, None
DIGESTS: ContextVar[dict[str, str] | None] = ContextVar("digests", default=None)


def read_document(path, parse: Callable[[str], object]):
    """`parse` of the file's UTF-8 text, its bytes read once and their digest
    recorded in DIGESTS; failing to read or parse it is an input error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if (digests := DIGESTS.get()) is not None:
            digests[os.fspath(path)] = hashlib.sha256(data).hexdigest()[:16]
        return parse(data.decode("utf-8"))
    except (OSError, *INPUT_ERRORS) as exc:
        raise input_error(str(path), exc) from exc


def atomic_write(path, text: str) -> None:
    """Write `text` to a temporary file, then rename it over `path`, so no
    reader ever sees a partial file; if the write or the rename fails, the
    temporary file goes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, line) for each line that is neither blank nor a `#` comment."""
    return read_document(path, lambda text: [
        (n, line) for n, line in enumerate(io.StringIO(text, newline=""), start=1)
        if line.strip() and not line.startswith("#")])


def csv_text(rows) -> str:
    """`rows` as CSV, each line ended by "\n", a field quoted only where it
    holds a `,`, a `"` or a line break, as `read_csv` reads it back."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def read_csv(path, required: list[str], parse_row: Callable, key: Callable) -> list:
    """`parse_row(*fields)` for each row of the CSV file at `path`, skipping
    `#` and blank lines.  The header must name every `required` column
    once; each row passes those fields, stripped and in that order.  A row
    too short to hold them, a malformed field and a repeated `key(value)`
    are input errors at `path:line`.  Every reader names two or more
    columns."""
    kept = read_lines(path)
    reader = csv.reader(line for _, line in kept)
    header = [c.strip() for c in next(reader, [])]
    if not set(required) <= set(header):
        raise ParseError(f"{path}: header must contain {required}")
    for c in required:
        if header.count(c) > 1:
            raise ParseError(f"{path}: header repeats column {c!r}")
    at = [header.index(c) for c in required]
    fields, width = operator.itemgetter(*at), max(at) + 1
    values, ends = [], {}  # ends: key -> the kept line that ends its row
    try:
        for row in reader:
            if len(row) < width:
                missing = header[min(i for i in at if i >= len(row))]
                raise ParseError(f"missing column {missing!r}: the row has {len(row)} fields")
            value = parse_row(*map(str.strip, fields(row)))
            k = key(value)
            if k in ends:
                raise ValidationError(f"{k!r} repeats line {kept[ends[k] - 1][0]}")
            ends[k] = reader.line_num
            values.append(value)
    except (csv.Error, *INPUT_ERRORS) as exc:
        raise input_error(f"{path}:{kept[reader.line_num - 1][0]}", exc) from exc
    return values
