"""Span recorder for the traced benchmark run.

Wraps the package's public layer functions at the module attributes where
their callers look them up (``from .solver import solve_lp`` binds a name in
``estimation``, so that binding is the one wrapped), records one span per
call with a parent link, and restores the originals afterwards.  Nothing in
``src/`` is edited.  A wrapped name that no longer exists raises, so a
renamed layer shows up as an error instead of as a silent zero.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    run: int                  # the workload run (request) this span belongs to
    parent: int | None        # index of the enclosing span, None at the top
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_size(args, result):
    lp = args["lp"]
    return {"rows": len(lp.constraints), "vars": len(lp.variables)}


# (module, attribute, span name, static attributes, attributes from
# (bound arguments, result)).  Every binding a package caller looks up.
TARGETS = [
    ("clockauction.cli", "main", "cli.main", {}, None),
    ("clockauction.cli", "parse_bid_log", "ingest.parse_bid_log", {},
     lambda a, r: {"rows": len(r.rows)}),
    ("clockauction.cli", "smooth_monotone", "ingest.smooth_monotone", {}, None),
    ("clockauction.cli", "build_bundle_space", "ingest.build_bundle_space", {}, None),
    ("clockauction.cli", "reconstruct_prices", "pipeline.reconstruct_prices", {}, None),
    ("clockauction.cli", "estimate_all", "pipeline.estimate_all", {}, None),
    ("clockauction.cli", "run_auction", "engine.run_auction", {},
     lambda a, r: {"rounds": r.rounds_used}),
    ("clockauction.cli", "run_extended_auction", "tiered.run_extended_auction", {},
     lambda a, r: {"rounds": r.rounds_used}),
    ("clockauction.pipeline", "smooth_monotone", "ingest.smooth_monotone", {}, None),
    ("clockauction.pipeline", "build_bundle_space", "ingest.build_bundle_space", {}, None),
    ("clockauction.pipeline", "reconstruct_prices", "pipeline.reconstruct_prices", {}, None),
    ("clockauction.pipeline", "estimate_all", "pipeline.estimate_all", {}, None),
    ("clockauction.pipeline", "estimate", "estimation.estimate", {},
     lambda a, r: {"fallback": bool(r[1].fallback_used)}),
    ("clockauction.pipeline", "run_auction", "engine.run_auction", {},
     lambda a, r: {"rounds": r.rounds_used}),
    ("clockauction.estimation", "solve_lp", "solver.solve_lp",
     {"caller": "estimation"}, _lp_size),
    ("clockauction.solver", "solve_lp", "solver.solve_lp", {"caller": "solver"}, None),
    ("clockauction.engine", "solve_mip", "solver.solve_mip", {"caller": "engine"}, None),
    ("clockauction.tiered", "solve_mip", "solver.solve_mip", {"caller": "tiered"}, None),
    ("clockauction.engine", "best_copies", "engine.best_copies", {}, None),
]


class Recorder:
    """In-memory spans; `install` wraps the targets, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for module_name, attr, name, static, dynamic in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(f"traced layer {module_name}.{attr} not found")
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, static, dynamic))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, static, dynamic):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = dict(static)
            if "backend" in bound.arguments:
                attrs["backend"] = bound.arguments["backend"]
            span = Span(name, self.run, stack[-1] if stack else None, 0.0, attrs=attrs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if dynamic is not None:
                attrs.update(dynamic(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


LAYER_UNITS = {
    "ingest.parse_bid_log_s": "s", "ingest.rows": "count",
    "ingest.smooth_monotone_s": "s", "ingest.build_bundle_space_s": "s",
    "ingest.build_bundle_space_calls": "count", "pipeline.reconstruct_prices_s": "s",
    "pipeline.estimate_all_self_s": "s", "estimation.estimate_self_s": "s",
    "estimation.lp_rows": "count", "estimation.lp_vars": "count",
    "estimation.fallbacks": "count", "solver.highs_calls": "count",
    "solver.highs_s": "s", "solver.mip_calls": "count", "solver.mip_s": "s",
    "solver.simplex_calls": "count", "solver.simplex_s": "s",
    "solver.bb_nodes_per_mip": "nodes/mip", "engine.best_copies_calls": "count",
    "engine.best_copies_s": "s", "engine.fast_path_ratio": "ratio",
    "engine.run_auction_self_s": "s", "engine.rounds": "count",
    "tiered.oracle_mip_calls": "count", "tiered.run_extended_auction_self_s": "s",
    "tiered.rounds": "count", "cli.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one workload run."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def with_attr(name, key, value):
        return [s for s in spans if s.name == name and s.attrs.get(key) == value]

    highs = with_attr("solver.solve_lp", "backend", "highs")
    simplex = with_attr("solver.solve_lp", "backend", "builtin")
    estimation_lps = with_attr("solver.solve_lp", "caller", "estimation")
    mips = [i for i, s in enumerate(spans) if s.name == "solver.solve_mip"]
    mip_set = set(mips)
    bb_nodes = sum(1 for s in simplex if s.parent in mip_set)
    copies = [i for i, s in enumerate(spans) if s.name == "engine.best_copies"]
    reached_mip = {spans[i].parent for i in mips}
    fast = sum(1 for i in copies if i not in reached_mip)

    def rounds(name):
        return sum(s.attrs.get("rounds", 0) for s in spans if s.name == name)

    return {
        "ingest.parse_bid_log_s": total.get("ingest.parse_bid_log", 0.0),
        "ingest.rows": sum(s.attrs.get("rows", 0) for s in spans
                           if s.name == "ingest.parse_bid_log"),
        "ingest.smooth_monotone_s": total.get("ingest.smooth_monotone", 0.0),
        "ingest.build_bundle_space_s": total.get("ingest.build_bundle_space", 0.0),
        "ingest.build_bundle_space_calls": calls.get("ingest.build_bundle_space", 0),
        "pipeline.reconstruct_prices_s": total.get("pipeline.reconstruct_prices", 0.0),
        "pipeline.estimate_all_self_s": self_total.get("pipeline.estimate_all", 0.0),
        "estimation.estimate_self_s": self_total.get("estimation.estimate", 0.0),
        "estimation.lp_rows": sum(s.attrs.get("rows", 0) for s in estimation_lps),
        "estimation.lp_vars": sum(s.attrs.get("vars", 0) for s in estimation_lps),
        "estimation.fallbacks": sum(1 for s in spans if s.name == "estimation.estimate"
                                    and s.attrs.get("fallback")),
        "solver.highs_calls": len(highs),
        "solver.highs_s": sum(s.duration for s in highs),
        "solver.mip_calls": len(mips),
        "solver.mip_s": total.get("solver.solve_mip", 0.0),
        "solver.simplex_calls": len(simplex),
        "solver.simplex_s": sum(s.duration for s in simplex),
        "solver.bb_nodes_per_mip": bb_nodes / len(mips) if mips else 0.0,
        "engine.best_copies_calls": len(copies),
        "engine.best_copies_s": total.get("engine.best_copies", 0.0),
        "engine.fast_path_ratio": fast / len(copies) if copies else 0.0,
        "engine.run_auction_self_s": self_total.get("engine.run_auction", 0.0),
        "engine.rounds": rounds("engine.run_auction"),
        "tiered.oracle_mip_calls": len(with_attr("solver.solve_mip", "caller", "tiered")),
        "tiered.run_extended_auction_self_s":
            self_total.get("tiered.run_extended_auction", 0.0),
        "tiered.rounds": rounds("tiered.run_extended_auction"),
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
