"""Command-line front end.

Subcommands: ingest, smooth, estimate, simulate, simulate-extended,
cost-table, report, roundtrip-check.  Exit codes: 0 success, 2 validation
error, 3 solver failure, 4 truncated auction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from . import costs as costmod
from .core import IncrementSchedule, ProductCatalog, cents_to_dollars
from .engine import (AuctionConfig, BidderAgent, compare_allocations, run_auction,
                     trace_from_jsonl, trace_summary, trace_to_jsonl)
from .errors import ParseError, SolverError, ValidationError
from .estimation import model_from_json, model_to_json, reconstruct_eligibility
from .ingest import build_bundle_space, parse_bid_log, smooth_monotone, write_bid_log
from .pipeline import (agents_from_estimates, estimate_all, reconstruct_prices,
                       trace_to_bidlog)
from .report import (RunManifest, atomic_write, comparison_to_json,
                     compare_traces, final_price_scatter_csv, hash_file,
                     heatmap_csv, heatmap_svg)
from .solver import write_lp_format
from .tiered import coverage_report, run_extended_auction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_TRUNCATED = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh) or {}


def _increments(cfg: dict) -> IncrementSchedule:
    return IncrementSchedule.constant(float(cfg.get("delta", 0.1)))


def _auction_config(catalog: ProductCatalog, cfg: dict) -> AuctionConfig:
    return AuctionConfig(catalog=catalog, increments=_increments(cfg),
                         max_rounds=int(cfg.get("max_rounds", 200)),
                         activity_rule=float(cfg.get("activity_rule", 1.0)))


def _coverage_targets(cfg: dict) -> dict:
    raw = cfg.get("coverage_targets")
    if not raw:
        return dict(costmod.DEFAULT_COVERAGE_TARGETS)
    return {(area_class, tier): float(v)
            for area_class, tiers in raw.items() for tier, v in tiers.items()}


def _cost_params(cfg: dict) -> costmod.CostParameters:
    c = cfg.get("cost", {})
    kwargs = {}
    from .core import dollars_to_cents
    if "tower_cost_low_cad" in c:
        kwargs["tower_cost_low"] = dollars_to_cents(c["tower_cost_low_cad"])
    if "tower_cost_high_cad" in c:
        kwargs["tower_cost_high"] = dollars_to_cents(c["tower_cost_high_cad"])
    if "fibre_cost_per_km_cad" in c:
        kwargs["fibre_cost_per_km"] = dollars_to_cents(c["fibre_cost_per_km_cad"])
    for key in ("market_markup", "inflation", "currency_premium"):
        if key in c:
            kwargs[key] = float(c[key])
    if "pop_per_tower" in c:
        kwargs["pop_per_tower"] = int(c["pop_per_tower"])
    if "spacing_km" in c:
        kwargs["spacing_km"] = {k: float(v) for k, v in c["spacing_km"].items()}
    if "tower_costs_post_adjustment" in c:
        kwargs["tower_costs_post_adjustment"] = bool(c["tower_costs_post_adjustment"])
    kwargs["coverage_targets"] = _coverage_targets(cfg)
    return costmod.CostParameters(**kwargs)


def _manifest(args, **inputs) -> RunManifest:
    config_hash = hash_file(args.config) if getattr(args, "config", None) else ""
    return RunManifest(inputs={k: hash_file(v) for k, v in inputs.items() if v},
                       config_hash=config_hash,
                       scenario=getattr(args, "scenario", "") or "")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_models(models_dir: str):
    agents = []
    for path in sorted(Path(models_dir).glob("model_*.json")):
        model, space = model_from_json(path.read_text(encoding="utf-8"))
        agents.append(BidderAgent(bidder_id=model.bidder_id, model=model, space=space))
    if not agents:
        raise ValidationError(f"no model_*.json files in {models_dir}")
    return agents


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    catalog = ProductCatalog.from_csv(args.catalog)
    log = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    write_bid_log(log, out / "bids.csv")
    print(f"validated {len(log.rows)} rows, {len(log.bidders())} bidders, "
          f"{log.num_rounds()} rounds")
    return EXIT_OK


def cmd_smooth(args) -> int:
    catalog = ProductCatalog.from_csv(args.catalog)
    log = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    write_bid_log(smooth_monotone(log), out / "smoothed.csv")
    print(f"wrote {out / 'smoothed.csv'}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    catalog = ProductCatalog.from_csv(args.catalog)
    raw = parse_bid_log(args.bids, catalog)
    out = _out_dir(args)
    if args.dump_lp:
        Path(args.dump_lp).mkdir(parents=True, exist_ok=True)
        from .estimation import build_lp
        smoothed = smooth_monotone(raw)
        start_prices, _ = reconstruct_prices(raw, catalog, _increments(cfg))
        for bidder in smoothed.bidders():
            space = build_bundle_space(smoothed, bidder)
            if not space.bases:
                continue
            elig = reconstruct_eligibility(space, smoothed, catalog)
            lp = build_lp(space, smoothed, start_prices, elig, catalog)
            write_lp_format(lp, Path(args.dump_lp) / f"estimation_{bidder}.lp")
    estimates = estimate_all(raw, catalog, _increments(cfg), backend=args.backend)
    reports = {}
    for bidder, est in sorted(estimates.items()):
        atomic_write(out / f"model_{bidder}.json", model_to_json(est.model, est.space))
        reports[bidder] = {
            "status": est.report.status,
            "slack_total_cents": est.report.slack_total,
            "base_value_total_cents": est.report.base_value_total,
            "violations": est.report.violations,
            "fallback_used": est.report.fallback_used,
        }
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


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    catalog = ProductCatalog.from_csv(args.catalog)
    agents = _load_models(args.models)
    trace = run_auction(_auction_config(catalog, cfg), agents)
    return _write_run(_out_dir(args), "", trace,
                      _manifest(args, catalog=args.catalog))


def cmd_simulate_extended(args) -> int:
    cfg = _load_config(args.config)
    catalog = ProductCatalog.from_csv(args.catalog)
    agents = _load_models(args.models)
    table = costmod.cost_table_from_csv(
        Path(args.cost_table).read_text(encoding="utf-8"), args.cost_table)
    trace = run_extended_auction(_auction_config(catalog, cfg), agents, table)
    extra = {}
    if args.demographics:
        demographics = costmod.load_demographics(args.demographics)
        cov = coverage_report(trace, catalog, demographics, _coverage_targets(cfg))
        extra["coverage"] = {
            "licenses_by_class_tier": cov.licenses_by_class_tier,
            "additional_population": cov.additional_population,
        }
    return _write_run(_out_dir(args), "_tiered", trace,
                      _manifest(args, catalog=args.catalog, cost_table=args.cost_table),
                      **extra)


def cmd_cost_table(args) -> int:
    cfg = _load_config(args.config)
    catalog = ProductCatalog.from_csv(args.catalog)
    demographics = costmod.load_demographics(args.demographics)
    inventory = costmod.load_inventory(args.inventory)
    scenario = costmod.SCENARIOS[args.scenario]
    params = _cost_params(cfg)
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


def cmd_report(args) -> int:
    catalog = ProductCatalog.from_csv(args.catalog)
    trace_a = trace_from_jsonl(Path(args.trace_a).read_text(encoding="utf-8"), catalog)
    trace_b = trace_from_jsonl(Path(args.trace_b).read_text(encoding="utf-8"), catalog)
    out = _out_dir(args)
    manifest = _manifest(args, catalog=args.catalog,
                         trace_a=args.trace_a, trace_b=args.trace_b)
    h = manifest.hash()
    cmp = compare_traces(trace_a, trace_b, catalog)
    atomic_write(out / "comparison.json", comparison_to_json(cmp, h))
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
    print(f"rmse_mean={cmp.rmse_mean:.4f} revenue_gap={cmp.revenue_gap_pct:.2f}% "
          f"rounds {cmp.rounds_a} vs {cmp.rounds_b}")
    return EXIT_OK


def cmd_roundtrip_check(args) -> int:
    cfg = _load_config(args.config)
    catalog = ProductCatalog.from_csv(args.catalog)
    raw = parse_bid_log(args.bids, catalog)
    smoothed = smooth_monotone(raw)
    estimates = estimate_all(raw, catalog, _increments(cfg), backend=args.backend)
    trace = run_auction(_auction_config(catalog, cfg), agents_from_estimates(estimates))
    actual = {b: smoothed.bundle(b, smoothed.num_rounds(b)) for b in estimates}
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

    def common(p, bids=False, models=False):
        p.add_argument("--catalog", required=True, help="product catalog CSV")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (default: cwd)")
        if bids:
            p.add_argument("--bids", required=True, help="bid log CSV")
        if models:
            p.add_argument("--models", required=True,
                           help="directory of model_*.json files")

    p = sub.add_parser("ingest", help="validate a bid log")
    common(p, bids=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("smooth", help="monotone-smooth a bid log")
    common(p, bids=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("estimate", help="recover lower-bound valuations")
    common(p, bids=True)
    p.add_argument("--dump-lp", help="directory for LP text dumps")
    p.add_argument("--backend", default="highs", choices=["highs", "builtin"])
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
    common(p, bids=True)
    p.add_argument("--backend", default="highs", choices=["highs", "builtin"])
    p.set_defaults(func=cmd_roundtrip_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
