"""Seeded generators for synthetic catalogs, valuation models and agents.

Used by the demos and the verification suite: every generator takes a numpy
Generator (or a seed) so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .core import AREA_CLASSES, IncrementSchedule, Product, ProductCatalog
from .engine import AuctionConfig, BidderAgent
from .estimation import ValuationModel
from .ingest import BundleBase, BundleSpace, CopyLadder

PRICE_RANGE = (50_000, 400_000)   # opening prices, whole dollars
PRODUCTS_PER_BASE = (2, 3)        # products in each base, inclusive range
VALUE_SCALE = (1.5, 4.0)          # top marginal value / opening price


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_catalog(rng, n_products: int = 10, max_supply: int = 6) -> ProductCatalog:
    """Products P00..; opening prices in whole dollars (cents internally)."""
    rng = _rng(rng)
    products = []
    for i in range(n_products):
        supply = int(rng.integers(1, max_supply + 1))
        price = int(rng.integers(PRICE_RANGE[0], PRICE_RANGE[1] + 1)) * 100
        products.append(Product(
            id=f"P{i:02d}",
            area_id=f"A{i:02d}",
            area_class=AREA_CLASSES[i % len(AREA_CLASSES)],
            supply=supply,
            eligibility_points=int(rng.integers(1, 5)),
            opening_price=price,
        ))
    return ProductCatalog(products=tuple(products))


def random_agent(rng, bidder_id: str, catalog: ProductCatalog,
                 n_bases: int = 1) -> BidderAgent:
    """An agent with known valuations: diminishing marginals set as multiples
    of opening prices so early rounds have headroom to bid."""
    rng = _rng(rng)
    ids = list(catalog.ids())
    bases = []
    ladders: dict[str, CopyLadder] = {}
    base_values = {}
    marginals: dict[tuple[str, int], float] = {}

    for b in range(n_bases):
        k = int(rng.integers(PRODUCTS_PER_BASE[0], PRODUCTS_PER_BASE[1] + 1))
        chosen = sorted(rng.choice(len(ids), size=min(k, len(ids)), replace=False))
        quantities = {}
        for idx in chosen:
            product = catalog.products[idx]
            j = product.id
            if j not in ladders:
                n_levels = int(rng.integers(1, min(4, product.supply) + 1))
                levels = sorted(rng.choice(
                    np.arange(1, product.supply + 1), size=n_levels, replace=False))
                ladders[j] = CopyLadder(j, tuple(int(v) for v in levels))
                # descending marginal values, anchored to the opening price
                top = product.opening_price * rng.uniform(*VALUE_SCALE)
                scale = np.sort(rng.uniform(0.3, 1.0, size=len(levels)))[::-1]
                marginals[(j, ladders[j].levels[0])] = 0.0
                for lvl, s in zip(ladders[j].levels[1:], scale[1:]):
                    marginals[(j, lvl)] = float(int(top * s))
            quantities[j] = ladders[j].levels[0]
        base_id = f"{bidder_id}/base{b}"
        bases.append(BundleBase(base_id=base_id, quantities=quantities))
        # the base value must at least cover the minimum quantities at opening
        min_cost = sum(catalog.get(j).opening_price * q for j, q in quantities.items())
        base_values[base_id] = float(int(min_cost * rng.uniform(1.1, 2.0)))

    model = ValuationModel(bidder_id=bidder_id, base_values=base_values,
                           marginals=marginals)
    space = BundleSpace(bidder_id=bidder_id, bases=tuple(bases),
                        ladders=ladders, observed={})
    return BidderAgent(bidder_id=bidder_id, model=model, space=space)


def random_setup(seed, n_bidders: int = 5, n_products: int = 10,
                 max_supply: int = 6, n_bases: int = 1, delta: float = 0.1,
                 max_rounds: int = 200) -> tuple[AuctionConfig, list[BidderAgent]]:
    rng = _rng(seed)
    catalog = random_catalog(rng, n_products=n_products, max_supply=max_supply)
    agents = [random_agent(rng, f"B{i}", catalog, n_bases=n_bases)
              for i in range(n_bidders)]
    config = AuctionConfig(catalog=catalog,
                           increments=IncrementSchedule.constant(delta),
                           max_rounds=max_rounds)
    return config, agents
