"""Batch report artifacts: RMSE/revenue summaries, bidding heatmaps (CSV and
SVG), and final-price scatter pairs.

CSVs are the contract; the SVG heatmaps are conveniences rendered with a fixed
quantile color ramp.  Every artifact embeds the run-manifest hash; the CLI
writes each through `core.atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import EMPTY_BUNDLE, ProductCatalog, cents_to_dollars
from .engine import AuctionTrace, compare_allocations
from .ingest import RawBidLog

TOOL_VERSION = "0.1.0"

# quantile color ramp (light -> dark) applied to nonzero cells
RAMP = ("#f7fbff", "#c6dbef", "#6baed6", "#2171b5", "#08306b")


@dataclass(frozen=True)
class RunManifest:
    inputs: dict[str, str]
    config_hash: str = ""
    scenario: str = ""
    tool_version: str = TOOL_VERSION
    determinism: str = "seed-free; outputs are pure functions of the inputs"

    def hash(self) -> str:
        payload = json.dumps({
            "inputs": dict(sorted(self.inputs.items())),
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "tool_version": self.tool_version,
        }, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps({
            "inputs": dict(sorted(self.inputs.items())),
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "tool_version": self.tool_version,
            "determinism": self.determinism,
            "manifest_hash": self.hash(),
        }, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# heatmaps


def heatmap_matrix(log: RawBidLog, bidder_id: str) -> tuple[list[str], list[list[int]]]:
    """(product ids, rounds x products quantity matrix) for one bidder."""
    products = list(log.products(bidder_id))
    columns = [log.series(bidder_id, j) for j in products]
    return products, [[s[r] for s in columns] for r in range(log.num_rounds(bidder_id))]


def heatmap_csv(log: RawBidLog, bidder_id: str, manifest_hash: str = "") -> str:
    products, matrix = heatmap_matrix(log, bidder_id)
    lines = []
    if manifest_hash:
        lines.append(f"# manifest {manifest_hash}")
    lines.append("round," + ",".join(products))
    for rnd, row in enumerate(matrix, start=1):
        lines.append(f"{rnd}," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _quantile_color(value: int, sorted_nonzero: list[int]) -> str:
    if value == 0 or not sorted_nonzero:
        return "#ffffff"
    below = sum(1 for v in sorted_nonzero if v <= value)
    q = below / len(sorted_nonzero)
    idx = min(len(RAMP) - 1, int(q * len(RAMP)))
    return RAMP[idx]


def heatmap_svg(log: RawBidLog, bidder_id: str, manifest_hash: str = "",
                cell: int = 12) -> str:
    products, matrix = heatmap_matrix(log, bidder_id)
    nonzero = sorted(v for row in matrix for v in row if v)
    width = cell * max(1, len(products))
    height = cell * max(1, len(matrix))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<desc>bidding heatmap {bidder_id}; manifest {manifest_hash}</desc>",
    ]
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            color = _quantile_color(value, nonzero)
            parts.append(f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" '
                         f'height="{cell}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# trace comparison


@dataclass(frozen=True)
class TraceComparison:
    rmse_per_bidder: dict[str, float]
    rmse_mean: float
    revenue_a: int
    revenue_b: int
    revenue_gap_pct: float
    rounds_a: int
    rounds_b: int
    units_a: int
    units_b: int
    truncated_a: bool
    truncated_b: bool


def compare_traces(a: AuctionTrace, b: AuctionTrace,
                   catalog: ProductCatalog) -> TraceComparison:
    bidders = set(a.final_allocation) | set(b.final_allocation)
    alloc_a = {x: a.final_allocation.get(x, EMPTY_BUNDLE) for x in bidders}
    alloc_b = {x: b.final_allocation.get(x, EMPTY_BUNDLE) for x in bidders}
    per_bidder, mean = compare_allocations(alloc_a, alloc_b, catalog)
    gap = 0.0
    if a.revenue:
        gap = 100.0 * (a.revenue - b.revenue) / a.revenue
    units = lambda t: sum(q for bundle in t.final_allocation.values()
                          for q in bundle.quantities.values())
    return TraceComparison(
        rmse_per_bidder=per_bidder, rmse_mean=mean,
        revenue_a=a.revenue, revenue_b=b.revenue, revenue_gap_pct=gap,
        rounds_a=a.rounds_used, rounds_b=b.rounds_used,
        units_a=units(a), units_b=units(b),
        truncated_a=a.truncated, truncated_b=b.truncated)


def comparison_to_json(cmp: TraceComparison, manifest_hash: str = "") -> str:
    return json.dumps({
        "manifest_hash": manifest_hash,
        "rmse_per_bidder": dict(sorted(cmp.rmse_per_bidder.items())),
        "rmse_mean": cmp.rmse_mean,
        "revenue_a_cents": cmp.revenue_a,
        "revenue_b_cents": cmp.revenue_b,
        "revenue_a": cents_to_dollars(cmp.revenue_a),
        "revenue_b": cents_to_dollars(cmp.revenue_b),
        "revenue_gap_pct": cmp.revenue_gap_pct,
        "rounds_a": cmp.rounds_a,
        "rounds_b": cmp.rounds_b,
        "units_a": cmp.units_a,
        "units_b": cmp.units_b,
        "truncated_a": cmp.truncated_a,
        "truncated_b": cmp.truncated_b,
    }, indent=2, sort_keys=True)


def final_price_scatter_csv(a: AuctionTrace, b: AuctionTrace,
                            catalog: ProductCatalog, manifest_hash: str = "") -> str:
    """Per-product final posted prices in the two traces (cents)."""
    lines = []
    if manifest_hash:
        lines.append(f"# manifest {manifest_hash}")
    lines.append("product_id,final_price_a_cents,final_price_b_cents")
    pa = a.rounds[-1].posted
    pb = b.rounds[-1].posted
    for j in catalog.ids():
        lines.append(f"{j},{pa[j]},{pb[j]}")
    return "\n".join(lines) + "\n"
