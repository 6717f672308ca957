import json

import pytest

from clockauction.cli import main
from clockauction.core import cents_to_dollars
from clockauction.costs import AreaStats
from clockauction.engine import run_auction
from clockauction.estimation import model_to_json
from clockauction.ingest import write_bid_log
from clockauction.pipeline import trace_to_bidlog
from clockauction.report import (RunManifest, compare_traces, heatmap_csv,
                                 heatmap_matrix, heatmap_svg)
from clockauction.synthetic import random_setup


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Catalog CSV, a simulated bid log, model files and demographics."""
    root = tmp_path_factory.mktemp("cli")
    config, agents = random_setup(91, n_bidders=4, n_products=6, max_supply=4)
    catalog = config.catalog

    lines = ["product_id,area_id,area_class,supply,eligibility_points,opening_price_cad"]
    for p in catalog:
        lines.append(f"{p.id},{p.area_id},{p.area_class},{p.supply},"
                     f"{p.eligibility_points},{cents_to_dollars(p.opening_price)}")
    (root / "catalog.csv").write_text("\n".join(lines) + "\n")

    trace = run_auction(config, agents)
    write_bid_log(trace_to_bidlog(trace), root / "bids.csv")

    models = root / "models"
    models.mkdir()
    for agent in agents:
        (models / f"model_{agent.bidder_id}.json").write_text(
            model_to_json(agent.model, agent.space))

    demo = ["area_id,area_class,population,land_area_km2"]
    for i, p in enumerate(catalog):
        demo.append(f"{p.area_id},{p.area_class},{20000 * (i + 1)},{50.0 * (i + 1)}")
    (root / "demographics.csv").write_text("\n".join(demo) + "\n")

    inv = ["bidder_id,area_id,tower_count"]
    for agent in agents:
        for p in catalog:
            inv.append(f"{agent.bidder_id},{p.area_id},1")
    (root / "inventory.csv").write_text("\n".join(inv) + "\n")

    return root


def run(argv):
    return main([str(a) for a in argv])


class TestCliPipeline:
    def test_ingest(self, workspace, tmp_path):
        code = run(["ingest", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", tmp_path])
        assert code == 0
        assert (tmp_path / "bids.csv").exists()

    def test_ingest_validation_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("round,bidder_id,product_id,quantity\n1,X,NOPE,1\n")
        code = run(["ingest", "--catalog", workspace / "catalog.csv",
                    "--bids", bad, "--out", tmp_path])
        assert code == 2

    def test_smooth(self, workspace, tmp_path):
        code = run(["smooth", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", tmp_path])
        assert code == 0
        assert (tmp_path / "smoothed.csv").exists()

    def test_estimate_simulate_report(self, workspace, tmp_path):
        est = tmp_path / "est"
        code = run(["estimate", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", est,
                    "--dump-lp", est / "lp"])
        assert code == 0
        models = sorted(est.glob("model_*.json"))
        assert models
        assert list((est / "lp").glob("estimation_*.lp"))
        report = json.loads((est / "estimation_report.json").read_text())
        assert report["manifest_hash"]
        for doc in report["bidders"].values():
            assert doc["status"] == "optimal"

        sim_a = tmp_path / "sim_a"
        code = run(["simulate", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models", "--out", sim_a])
        assert code == 0
        sim_b = tmp_path / "sim_b"
        code = run(["simulate", "--catalog", workspace / "catalog.csv",
                    "--models", est, "--out", sim_b])
        assert code == 0

        rep = tmp_path / "rep"
        code = run(["report", "--catalog", workspace / "catalog.csv",
                    "--trace-a", sim_a / "trace.jsonl",
                    "--trace-b", sim_b / "trace.jsonl", "--out", rep])
        assert code == 0
        cmp_doc = json.loads((rep / "comparison.json").read_text())
        # replaying the estimated models reproduces the original run here
        assert cmp_doc["rmse_mean"] == 0.0
        assert cmp_doc["revenue_a_cents"] == cmp_doc["revenue_b_cents"]
        assert (rep / "final_price_scatter.csv").exists()
        assert list(rep.glob("heatmap_a_*.csv")) and list(rep.glob("heatmap_a_*.svg"))
        # artifacts embed the manifest hash
        manifest = json.loads((rep / "manifest.json").read_text())
        scatter = (rep / "final_price_scatter.csv").read_text()
        assert scatter.startswith(f"# manifest {manifest['manifest_hash']}")

    def test_cost_table_and_extended(self, workspace, tmp_path):
        ct = tmp_path / "ct"
        code = run(["cost-table", "--catalog", workspace / "catalog.csv",
                    "--demographics", workspace / "demographics.csv",
                    "--inventory", workspace / "inventory.csv",
                    "--scenario", "none", "--out", ct])
        assert code == 0
        table = ct / "cost_table_none.csv"
        assert table.exists()
        body = table.read_text()
        assert body.startswith("# manifest ")
        # the cost-table output, manifest line included, feeds straight in
        ext = tmp_path / "ext"
        code = run(["simulate-extended", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models",
                    "--cost-table", table,
                    "--demographics", workspace / "demographics.csv",
                    "--out", ext])
        assert code in (0, 4)
        summary = json.loads((ext / "summary_tiered.json").read_text())
        assert "coverage" in summary and "revenue_cents" in summary

    def test_bad_cost_is_parse_error(self, workspace, tmp_path, capsys):
        table = tmp_path / "bad_costs.csv"
        table.write_text("# manifest 0\nbidder_id,area_id,tier,cost_cents\n"
                         "X,A1,low,1.5\n")
        code = run(["simulate-extended", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models", "--cost-table", table,
                    "--out", tmp_path / "ext"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{table}:3:" in err and "Traceback" not in err

    def test_report_flags_truncated_trace(self, workspace, tmp_path):
        config = tmp_path / "short.yaml"
        config.write_text("max_rounds: 1\n")
        short, full = tmp_path / "short", tmp_path / "full"
        assert run(["simulate", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models", "--config", config,
                    "--out", short]) == 4
        assert run(["simulate", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models", "--out", full]) == 0
        rep = tmp_path / "rep"
        assert run(["report", "--catalog", workspace / "catalog.csv",
                    "--trace-a", short / "trace.jsonl",
                    "--trace-b", full / "trace.jsonl", "--out", rep]) == 0
        cmp_doc = json.loads((rep / "comparison.json").read_text())
        assert cmp_doc["truncated_a"] is True
        assert cmp_doc["truncated_b"] is False

    def test_roundtrip_check(self, workspace, tmp_path):
        code = run(["roundtrip-check", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", tmp_path])
        assert code == 0

    def test_simulate_determinism(self, workspace, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["simulate", "--catalog", workspace / "catalog.csv",
                        "--models", workspace / "models", "--out", out]) == 0
        assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestManifest:
    def test_hash_is_stable_and_input_sensitive(self):
        a = RunManifest(inputs={"catalog": "aa", "bids": "bb"}, scenario="none")
        b = RunManifest(inputs={"bids": "bb", "catalog": "aa"}, scenario="none")
        c = RunManifest(inputs={"catalog": "aa", "bids": "cc"}, scenario="none")
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        doc = json.loads(a.to_json())
        assert doc["manifest_hash"] == a.hash()


class TestHeatmaps:
    def trace_log(self):
        config, agents = random_setup(13, n_bidders=3, n_products=5)
        trace = run_auction(config, agents)
        return trace, config, trace_to_bidlog(trace)

    def test_matrix_totals_match_log(self):
        trace, config, log = self.trace_log()
        for bidder in log.bidders():
            products, matrix = heatmap_matrix(log, bidder)
            total = sum(sum(row) for row in matrix)
            expected = sum(r.quantity for r in log.rows if r.bidder_id == bidder)
            assert total == expected

    def test_csv_embeds_manifest_and_parses(self):
        _, _, log = self.trace_log()
        bidder = log.bidders()[0]
        text = heatmap_csv(log, bidder, manifest_hash="deadbeef")
        lines = text.splitlines()
        assert lines[0] == "# manifest deadbeef"
        assert lines[1].startswith("round,")
        assert len(lines) == 2 + log.num_rounds(bidder)

    def test_svg_well_formed(self):
        _, _, log = self.trace_log()
        bidder = log.bidders()[0]
        svg = heatmap_svg(log, bidder, manifest_hash="deadbeef")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "deadbeef" in svg
        assert svg.count("<rect ") == len(log.products(bidder)) * log.num_rounds(bidder)


class TestCompareTraces:
    def test_self_comparison_is_exact(self):
        config, agents = random_setup(29, n_bidders=3, n_products=5)
        trace = run_auction(config, agents)
        cmp = compare_traces(trace, trace, config.catalog)
        assert cmp.rmse_mean == 0.0
        assert cmp.revenue_gap_pct == 0.0
        assert cmp.units_a == cmp.units_b
