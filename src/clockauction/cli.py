"""Command-line front end.

Subcommands: ingest, smooth, estimate, simulate, simulate-extended,
cost-table, report, roundtrip-check.  Exit codes: 0 success, 2 validation
error, 3 solver failure, 4 truncated auction.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import costs as costmod
from .core import (DIGESTS, INPUT_ERRORS, IncrementSchedule, ProductCatalog,
                   atomic_write, cents_to_dollars, dollars_to_cents, input_error,
                   number, read_document)
from .engine import (AuctionConfig, BidderAgent, compare_allocations, run_auction,
                     trace_from_jsonl, trace_summary, trace_to_jsonl)
from .errors import ParseError, SolverError, ValidationError
from .estimation import model_from_json, model_to_json
# build_bundle_space and reconstruct_prices have no caller here; they stay
# bound because the traced benchmark wraps them at this module (bench/spans.py)
from .ingest import build_bundle_space, parse_bid_log, smooth_monotone, write_bid_log
from .pipeline import estimate_all, reconstruct_prices, trace_to_bidlog
from .report import (RunManifest, compare_traces, final_price_scatter_csv, heatmap_csv,
                     heatmap_svg)
from .solver import write_lp_format
from .tiered import TIERS, coverage_report, deployment_costs, run_extended_auction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_TRUNCATED = 4


def _block(value, key: str) -> dict:
    """The config block `value` under `key`; an empty block reads as none."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a mapping, not {value!r}")
    return value


def _overlay(defaults: dict, block, key: str, tiers: bool = False) -> dict:
    """`defaults`, keyed by area class (or by (area class, tier) with `tiers`),
    with the config's block of area classes (and tiers) under `key` laid over them."""
    entries = _block(block, repr(key)).items()
    if tiers:
        entries = [((area_class, tier), value) for area_class, per_tier in entries
                   for tier, value in _block(per_tier, f"{key}: {area_class!r}").items()]
    out = dict(defaults)
    for k, value in entries:
        if k not in defaults:
            raise ValidationError(f"{key}: unknown area class{' or tier' if tiers else ''} {k!r}")
        with _naming(f"{key}: {k!r}"):
            out[k] = number(value, "")
    return out


@contextmanager
def _naming(key: str):
    """Raise an error in reading the config value under `key` as an input
    error that names the key."""
    try:
        yield
    except INPUT_ERRORS as exc:
        raise input_error(key, exc) from exc


# the YAML keys the program reads: these at the top level, and under `cost:`
# spacing_km and those of _COST_KEYS, each -> (CostParameters field, conversion)
_CONFIG_KEYS = ("delta", "max_rounds", "coverage_targets", "cost")
_COST_KEYS = {
    "tower_cost_low_cad": ("tower_cost_low", dollars_to_cents),
    "tower_cost_high_cad": ("tower_cost_high", dollars_to_cents),
    "fibre_cost_per_km_cad": ("fibre_cost_per_km", dollars_to_cents),
    **{rate: (rate, functools.partial(number, what=""))
       for rate in ("market_markup", "inflation", "currency_premium")},
    "pop_per_tower": ("pop_per_tower", lambda n: n),
    "tower_costs_post_adjustment": ("tower_costs_post_adjustment", lambda b: b),
}


def _load_config(path: str | None, catalog: ProductCatalog
                 ) -> tuple[AuctionConfig, costmod.CostParameters]:
    """The auction and cost settings of a YAML config, its values converted
    as the file is read; no config, like an empty block, reads as no
    settings, and a key the program does not read (a typo, say) is an error."""
    def settings(cfg):
        cfg = cfg or {}
        if not isinstance(cfg, dict):
            raise ValidationError(f"a config is a mapping of settings, not {cfg!r}")
        cost = _block(cfg.get("cost"), "'cost'")
        unread = [*(repr(k) for k in cfg if k not in _CONFIG_KEYS),
                  *(f"cost: {k!r}" for k in cost if k not in (*_COST_KEYS, "spacing_km"))]
        if unread:
            raise ValidationError(f"unknown config key {', '.join(unread)}")
        with _naming("'delta'"):
            increments = IncrementSchedule.constant(cfg.get("delta", 0.1))
        with _naming("'max_rounds'"):
            auction = AuctionConfig(catalog=catalog, increments=increments,
                                    max_rounds=cfg.get("max_rounds", 200))
        # laid over the defaults, then each cost value set in turn: its error names its key
        params = costmod.CostParameters(
            coverage_targets=_overlay(costmod.DEFAULT_COVERAGE_TARGETS,
                                      cfg.get("coverage_targets"), "coverage_targets", True),
            spacing_km=_overlay(costmod.DEFAULT_SPACING_KM, cost.get("spacing_km"), "spacing_km"))
        for key, (field, convert) in _COST_KEYS.items():
            if key in cost:
                with _naming(f"cost: {key!r}"):
                    params = replace(params, **{field: convert(cost[key])})
        return auction, params
    if not path:
        return settings(None)
    import yaml  # only a run with a config loads PyYAML

    class Loader(yaml.SafeLoader):
        """PyYAML's safe loader, except that a key repeated in one mapping is
        an error, not a silent overwrite, and that a number reads as in YAML
        1.2 and JSON: PyYAML reads one with an exponent but no dot, or no sign
        after the `e` (`1e-1`, `1.0e3`), as text.  Such a number is its float
        when that is finite, else (`1e400`) it stays text."""

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and \
                        key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node, deep=deep)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
            return super().construct_mapping(node, deep=deep)

        def construct_exponent(self, node):
            text = self.construct_scalar(node)
            return value if math.isfinite(value := float(text)) else text
    Loader.add_implicit_resolver("tag:clockauction:exponent", re.compile(
        r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+\Z"), list("-+0123456789."))
    Loader.add_constructor("tag:clockauction:exponent", Loader.construct_exponent)
    try:
        return read_document(path, lambda text: settings(yaml.load(text, Loader=Loader)))
    except yaml.YAMLError as exc:  # its message gives the line and column
        raise ParseError(f"{path}: {' '.join(str(exc).split())}") from exc


def _manifest(args, **inputs) -> RunManifest:
    """The run manifest, naming each input by the digest of the bytes parsed."""
    digest = lambda path: DIGESTS.get()[os.fspath(path)]
    return RunManifest(inputs={k: digest(v) for k, v in inputs.items() if v},
                       config_hash=digest(args.config) if args.config else "",
                       scenario=getattr(args, "scenario", "") or "")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_models(models_dir: str, catalog: ProductCatalog):
    """An agent per model file, each checked against the catalog; two files
    of one bidder id are an error naming both."""
    def parse(text):
        model, space = model_from_json(text)
        space.check(catalog)
        return model, space
    agents, files = [], {}
    for path in sorted(Path(models_dir).glob("model_*.json")):
        model, space = read_document(path, parse)
        if model.bidder_id in files:
            raise ValidationError(f"{files[model.bidder_id]} and {path}: duplicate bidder id "
                                  f"{model.bidder_id!r}")
        files[model.bidder_id] = path
        agents.append(BidderAgent(bidder_id=model.bidder_id, model=model, space=space))
    if not agents:
        raise ValidationError(f"no model_*.json files in {models_dir}")
    return agents


# ---------------------------------------------------------------------------
# subcommands: (args, catalog, auction settings, cost settings) -> exit code


def cmd_ingest(args, catalog, auction, params) -> int:
    log = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    write_bid_log(log, out / "bids.csv")
    print(f"validated {len(log.rows)} rows, {len(log.bidders())} bidders, "
          f"{log.num_rounds()} rounds")
    return EXIT_OK


def cmd_smooth(args, catalog, auction, params) -> int:
    log = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    write_bid_log(smooth_monotone(log), out / "smoothed.csv")
    print(f"wrote {out / 'smoothed.csv'}")
    return EXIT_OK


def cmd_estimate(args, catalog, auction, params) -> int:
    raw = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    if args.dump_lp:  # before the solves, so that a bad path fails at once
        Path(args.dump_lp).mkdir(parents=True, exist_ok=True)
    estimates = estimate_all(raw, catalog, auction.increments, keep_lp=bool(args.dump_lp))
    reports = {}
    for bidder, est in sorted(estimates.items()):
        if args.dump_lp:
            write_lp_format(est.report.lp, Path(args.dump_lp) / f"estimation_{bidder}.lp")
        atomic_write(out / f"model_{bidder}.json", model_to_json(est.model, est.space))
        reports[bidder] = {k: v for k, v in vars(est.report).items() if k != "lp"}
    manifest = _manifest(args, catalog=args.catalog, bids=args.bids)
    atomic_write(out / "estimation_report.json", json.dumps(
        {"manifest_hash": manifest.hash(), "bidders": reports},
        indent=2, sort_keys=True))
    atomic_write(out / "manifest.json", manifest.to_json())
    print(f"estimated {len(estimates)} bidders -> {out}")
    return EXIT_OK


def _write_run(out: Path, suffix: str, trace, manifest: RunManifest,
               **extra) -> int:
    """Trace, summary and manifest of an auction run; the exit code."""
    atomic_write(out / f"trace{suffix}.jsonl", trace_to_jsonl(trace))
    summary = trace_summary(trace)
    summary.update(extra, manifest_hash=manifest.hash(),
                   revenue=cents_to_dollars(trace.revenue))
    atomic_write(out / f"summary{suffix}.json",
                 json.dumps(summary, indent=2, sort_keys=True))
    atomic_write(out / "manifest.json", manifest.to_json())
    print(f"{trace.rounds_used} rounds, revenue {cents_to_dollars(trace.revenue)}"
          + (" (TRUNCATED)" if trace.truncated else ""))
    return EXIT_TRUNCATED if trace.truncated else EXIT_OK


def cmd_simulate(args, catalog, auction, params) -> int:
    agents = _load_models(args.models, catalog)
    trace = run_auction(auction, agents)
    return _write_run(_out_dir(args), "", trace,
                      _manifest(args, catalog=args.catalog))


def cmd_simulate_extended(args, catalog, auction, params) -> int:
    agents = _load_models(args.models, catalog)
    table = costmod.cost_table_from_csv(args.cost_table)
    # each (bidder, area, tier) of a base product: round 1's frames ask for them all
    needed = [(a.bidder_id, catalog.get(j).area_id, t) for a in agents
              for base in a.space.bases for j in sorted(base.quantities) for t in TIERS]
    missing = [key for key in needed if key not in table.costs]
    if missing:
        raise ValidationError(f"--cost-table {args.cost_table}: no deployment cost for "
                              f"({', '.join(missing[0])})")
    demographics = (costmod.load_demographics(args.demographics,
                                              areas={p.area_id: p.area_class for p in catalog})
                    if args.demographics else None)
    trace = run_extended_auction(auction, agents, table)
    extra = {} if demographics is None else {
        "coverage": coverage_report(trace, catalog, demographics, params.coverage_targets)}
    return _write_run(_out_dir(args), "_tiered", trace,
                      _manifest(args, catalog=args.catalog, cost_table=args.cost_table),
                      deployment_costs_cents=deployment_costs(trace, catalog, table), **extra)


def cmd_cost_table(args, catalog, auction, params) -> int:
    demographics = costmod.load_demographics(args.demographics,
                                             areas={p.area_id: p.area_class for p in catalog})
    inventory = costmod.load_inventory(args.inventory)
    scenario = costmod.SCENARIOS[args.scenario]
    table = costmod.build_cost_table(catalog, demographics, inventory,
                                     scenario, params)
    out = _out_dir(args)
    manifest = _manifest(args, catalog=args.catalog,
                         demographics=args.demographics, inventory=args.inventory)
    text = f"# manifest {manifest.hash()}\n" + costmod.cost_table_to_csv(table)
    atomic_write(out / f"cost_table_{args.scenario}.csv", text)
    atomic_write(out / "manifest.json", manifest.to_json())
    print(f"wrote {out / f'cost_table_{args.scenario}.csv'}")
    return EXIT_OK


def cmd_report(args, catalog, auction, params) -> int:
    trace_a = trace_from_jsonl(args.trace_a, catalog)
    trace_b = trace_from_jsonl(args.trace_b, catalog)
    out = _out_dir(args)
    manifest = _manifest(args, catalog=args.catalog,
                         trace_a=args.trace_a, trace_b=args.trace_b)
    h = manifest.hash()
    cmp = compare_traces(trace_a, trace_b, catalog)
    atomic_write(out / "comparison.json",
                 json.dumps({"manifest_hash": h, **cmp}, indent=2, sort_keys=True))
    atomic_write(out / "final_price_scatter.csv",
                 final_price_scatter_csv(trace_a, trace_b, catalog, h))
    for label, trace in (("a", trace_a), ("b", trace_b)):
        log = trace_to_bidlog(trace)
        for bidder in log.bidders():
            atomic_write(out / f"heatmap_{label}_{bidder}.csv",
                         heatmap_csv(log, bidder, h))
            atomic_write(out / f"heatmap_{label}_{bidder}.svg",
                         heatmap_svg(log, bidder, h))
    atomic_write(out / "manifest.json", manifest.to_json())
    print(f"rmse_mean={cmp['rmse_mean']:.4f} revenue_gap={cmp['revenue_gap_pct']:.2f}% "
          f"rounds {cmp['rounds_a']} vs {cmp['rounds_b']}")
    return EXIT_OK


def cmd_roundtrip_check(args, catalog, auction, params) -> int:
    raw = parse_bid_log(args.bids, catalog)
    estimates = estimate_all(raw, catalog, auction.increments)
    trace = run_auction(auction, [estimates[b] for b in sorted(estimates)])
    # each bidder's bundle in the auction's last round: a bidder whose rows stop
    # early has exited and holds nothing
    actual = {b: raw.bundle(b, raw.num_rounds()) for b in estimates}
    per_bidder, mean = compare_allocations(actual, trace.final_allocation, catalog)
    for bidder, rmse in sorted(per_bidder.items()):
        print(f"{bidder}: RMSE {rmse:.4f}")
    print(f"mean RMSE {mean:.4f}; simulated revenue "
          f"{cents_to_dollars(trace.revenue)} over {trace.rounds_used} rounds")
    return EXIT_TRUNCATED if trace.truncated else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockauction",
        description="Clock-auction valuation recovery, replay, and "
                    "deployment-tier counterfactuals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bids=False, models=False, config=True, out=True):
        p.add_argument("--catalog", required=True, help="product catalog CSV")
        if config:
            p.add_argument("--config", help="YAML config file")
        if out:
            p.add_argument("--out", help="output directory (default: cwd)")
        if bids:
            p.add_argument("--bids", required=True, help="bid log CSV")
        if models:
            p.add_argument("--models", required=True,
                           help="directory of model_*.json files")

    p = sub.add_parser("ingest", help="validate a bid log")
    common(p, bids=True, config=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("smooth", help="monotone-smooth a bid log")
    common(p, bids=True, config=False)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("estimate", help="recover lower-bound valuations")
    common(p, bids=True)
    p.add_argument("--dump-lp", help="directory for LP text dumps: each bidder's "
                   "LP as first solved, without the fallback's slack")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="replay the clock auction")
    common(p, models=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("simulate-extended", help="run the deployment-tiered auction")
    common(p, models=True)
    p.add_argument("--cost-table", required=True, help="cost table CSV")
    p.add_argument("--demographics", help="demographics CSV (for coverage report)")
    p.set_defaults(func=cmd_simulate_extended)

    p = sub.add_parser("cost-table", help="build a deployment cost table")
    common(p)
    p.add_argument("--demographics", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--scenario", default="none", choices=sorted(costmod.SCENARIOS))
    p.set_defaults(func=cmd_cost_table)

    p = sub.add_parser("report", help="compare two traces and emit artifacts")
    common(p)
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("roundtrip-check",
                       help="smooth, estimate, replay, and compare final bundles")
    common(p, bids=True, out=False)
    p.set_defaults(func=cmd_roundtrip_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    token = DIGESTS.set({})
    try:
        catalog = ProductCatalog.from_csv(args.catalog)
        return args.func(args, catalog, *_load_config(getattr(args, "config", None), catalog))
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a failed write: a failed read is already an input error
        # a failed rename names the temporary file first and its target second
        where = f"{exc.filename2 or exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        DIGESTS.reset(token)


if __name__ == "__main__":
    sys.exit(main())
