"""Batch report artifacts: RMSE/revenue summaries, bidding heatmaps (CSV and
SVG), and final-price scatter pairs.

CSVs are the contract; the SVG heatmaps are conveniences rendered with a fixed
quantile color ramp.  Every artifact embeds the run-manifest hash; the CLI
writes each through `core.atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass

from .core import EMPTY_BUNDLE, ProductCatalog, cents_to_dollars
from .engine import AuctionTrace, compare_allocations
from .ingest import RawBidLog

TOOL_VERSION = "0.1.0"
DETERMINISM = "seed-free; outputs are pure functions of the inputs"

# quantile color ramp (light -> dark) applied to nonzero cells
RAMP = ("#f7fbff", "#c6dbef", "#6baed6", "#2171b5", "#08306b")
CELL = 12  # heatmap cell side, in SVG pixels


@dataclass(frozen=True)
class RunManifest:
    inputs: dict[str, str]
    config_hash: str = ""
    scenario: str = ""

    def _payload(self) -> dict:
        """The fields the hash covers."""
        return {"inputs": dict(sorted(self.inputs.items())),
                "config_hash": self.config_hash,
                "scenario": self.scenario,
                "tool_version": TOOL_VERSION}

    def hash(self) -> str:
        payload = json.dumps(self._payload(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps({**self._payload(), "determinism": DETERMINISM,
                           "manifest_hash": self.hash()}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# heatmaps


def heatmap_matrix(log: RawBidLog, bidder_id: str) -> tuple[list[str], list[list[int]]]:
    """(product ids, rounds x products quantity matrix) for one bidder."""
    products = list(log.products(bidder_id))
    columns = [log.series(bidder_id, j) for j in products]
    return products, [[s[r] for s in columns] for r in range(log.num_rounds(bidder_id))]


def heatmap_csv(log: RawBidLog, bidder_id: str, manifest_hash: str) -> str:
    products, matrix = heatmap_matrix(log, bidder_id)
    lines = [f"# manifest {manifest_hash}", "round," + ",".join(products)]
    for rnd, row in enumerate(matrix, start=1):
        lines.append(f"{rnd}," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _quantile_color(value: int, sorted_nonzero: list[int]) -> str:
    if value == 0 or not sorted_nonzero:
        return "#ffffff"
    q = bisect_right(sorted_nonzero, value) / len(sorted_nonzero)
    idx = min(len(RAMP) - 1, int(q * len(RAMP)))
    return RAMP[idx]


def heatmap_svg(log: RawBidLog, bidder_id: str, manifest_hash: str) -> str:
    products, matrix = heatmap_matrix(log, bidder_id)
    nonzero = sorted(v for row in matrix for v in row if v)
    width = CELL * max(1, len(products))
    height = CELL * max(1, len(matrix))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<desc>bidding heatmap {bidder_id}; manifest {manifest_hash}</desc>",
    ]
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            color = _quantile_color(value, nonzero)
            parts.append(f'<rect x="{c * CELL}" y="{r * CELL}" width="{CELL}" '
                         f'height="{CELL}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# trace comparison


def compare_traces(a: AuctionTrace, b: AuctionTrace, catalog: ProductCatalog) -> dict:
    """comparison.json's document, but for its manifest hash: the final
    allocations' RMSE per bidder and its mean, the revenue gap of `b` below
    `a` in percent, and each trace's revenue (in cents and in dollars),
    rounds, licenses won and truncation, suffixed `_a` and `_b`."""
    bidders = set(a.final_allocation) | set(b.final_allocation)
    alloc_a = {x: a.final_allocation.get(x, EMPTY_BUNDLE) for x in bidders}
    alloc_b = {x: b.final_allocation.get(x, EMPTY_BUNDLE) for x in bidders}
    per_bidder, mean = compare_allocations(alloc_a, alloc_b, catalog)
    doc = {"rmse_per_bidder": per_bidder, "rmse_mean": mean,
           "revenue_gap_pct": 100.0 * (a.revenue - b.revenue) / a.revenue if a.revenue else 0.0}
    for side, t in (("a", a), ("b", b)):
        doc.update({f"revenue_{side}_cents": t.revenue,
                    f"revenue_{side}": cents_to_dollars(t.revenue),
                    f"rounds_{side}": t.rounds_used,
                    f"units_{side}": sum(q for bundle in t.final_allocation.values()
                                         for q in bundle.quantities.values()),
                    f"truncated_{side}": t.truncated})
    return doc


def final_price_scatter_csv(a: AuctionTrace, b: AuctionTrace,
                            catalog: ProductCatalog, manifest_hash: str) -> str:
    """Per-product final posted prices in the two traces (cents)."""
    lines = [f"# manifest {manifest_hash}", "product_id,final_price_a_cents,final_price_b_cents"]
    pa = a.rounds[-1].posted
    pb = b.rounds[-1].posted
    for j in catalog.ids():
        lines.append(f"{j},{pa[j]},{pb[j]}")
    return "\n".join(lines) + "\n"
