"""Shared domain types and the elementary clock-auction price/demand formulas.

Money is handled as integer cents everywhere; prices in the auction are whole
dollars, so integer cents remove float drift from price ladders compounded
over ~100 rounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import ParseError, ValidationError

AREA_CLASSES = ("metro", "urban", "rural", "remote")

Money = int  # cents


def dollars_to_cents(text: str | float | int) -> Money:
    """Parse a dollar amount ("1234.56", 1234.5, 1200) into integer cents."""
    frac = Fraction(str(text).replace(",", "").strip())
    cents = frac * 100
    if cents.denominator != 1:
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

    def __contains__(self, product_id: str) -> bool:
        return product_id in self._by_id

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
        required = ["product_id", "area_id", "area_class", "supply",
                    "eligibility_points", "opening_price_cad"]
        products = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
                raise ParseError(f"{path}: catalog header must contain {required}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    products.append(Product(
                        id=row["product_id"].strip(),
                        area_id=row["area_id"].strip(),
                        area_class=row["area_class"].strip(),
                        supply=int(row["supply"]),
                        eligibility_points=int(row["eligibility_points"]),
                        opening_price=dollars_to_cents(row["opening_price_cad"]),
                    ))
                except (KeyError, ValueError) as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
        return ProductCatalog(products=tuple(products))


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

    def get(self, product_id: str, default: Money | None = None) -> Money | None:
        return self.prices.get(product_id, default)


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
    """Per-product, per-round price increment fraction, constrained to [0.1, 0.2]."""
    delta: Callable[[str, int], float]

    @staticmethod
    def constant(value: float) -> "IncrementSchedule":
        _check_delta(value)
        return IncrementSchedule(delta=lambda product_id, rnd: value)

    def __call__(self, product_id: str, rnd: int) -> float:
        value = self.delta(product_id, rnd)
        _check_delta(value)
        return value


def _check_delta(delta: float) -> None:
    if not (0.1 <= delta <= 0.2):
        raise ValidationError(f"price increment {delta} outside [0.1, 0.2]")


def clock_price(start: Money, delta: float) -> Money:
    """Clock price = start * (1 + delta), rounded half-up to the nearest dollar."""
    if start < 0:
        raise ValidationError("negative start price")
    _check_delta(delta)
    # exact rational arithmetic so 0.15 behaves as 3/20, not its float neighbour
    f = Fraction(delta).limit_denominator(10_000)
    dollars = Fraction(start, 100) * (1 + f)
    rounded = (dollars + Fraction(1, 2)).__floor__()
    return int(rounded) * 100


def aggregate_demand(bids: Iterable[Bundle], product_id: str) -> int:
    return sum(b[product_id] for b in bids)


def posted_price(start: Money, clock: Money, aggregate: int, supply: int) -> Money:
    """Clock price if the product is overdemanded, else the start price."""
    return step_price(start, clock, aggregate > supply)


def step_price(start: Money, clock: Money, overdemanded: bool) -> Money:
    """Clock price when overdemanded, else the start price; a clock below its
    start (a sub-dollar price rounded down) is rejected."""
    if clock < start:
        raise ValidationError("clock price below start price")
    return clock if overdemanded else start


def payment(final_bundle: Bundle, final_posted: PriceVector) -> Money:
    return sum(final_posted[j] * q for j, q in final_bundle.quantities.items())


def eligibility_cost(bundle: Bundle, catalog: ProductCatalog) -> int:
    return sum(catalog.get(j).eligibility_points * q
               for j, q in bundle.quantities.items())
