import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clockauction import cli
from clockauction.cli import main
from clockauction.core import cents_to_dollars
from clockauction.core import ProductCatalog
from clockauction.costs import (DEFAULT_COVERAGE_TARGETS, DEFAULT_SPACING_KM, SCENARIOS,
                                AreaStats, CostParameters, build_cost_table, cost_table_from_csv,
                                load_demographics, load_inventory)
from clockauction.engine import run_auction, trace_to_jsonl
from clockauction.estimation import model_to_json
from clockauction.ingest import write_bid_log
from clockauction.pipeline import trace_to_bidlog
from clockauction.report import (RunManifest, compare_traces, heatmap_csv,
                                 heatmap_matrix, heatmap_svg)
from clockauction.synthetic import random_setup


def write_catalog(catalog, path):
    lines = ["product_id,area_id,area_class,supply,eligibility_points,opening_price_cad"]
    for p in catalog:
        lines.append(f"{p.id},{p.area_id},{p.area_class},{p.supply},"
                     f"{p.eligibility_points},{cents_to_dollars(p.opening_price)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Catalog CSV, a simulated bid log, model files and demographics."""
    root = tmp_path_factory.mktemp("cli")
    config, agents = random_setup(91, n_bidders=4, n_products=6, max_supply=4)
    catalog = config.catalog
    write_catalog(catalog, root / "catalog.csv")

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

    def test_smooth_failed_rename_keeps_old_file(self, workspace, tmp_path, monkeypatch):
        (tmp_path / "smoothed.csv").write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(os, "replace", fail)
        code, err = run_captured(["smooth", "--catalog", workspace / "catalog.csv",
                                  "--bids", workspace / "bids.csv", "--out", tmp_path])
        assert (code, err) == (2, "error: rename failed\n")
        assert (tmp_path / "smoothed.csv").read_text() == "old\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_hashes_parsed_bytes(self, workspace, tmp_path, monkeypatch):
        """A bid log replaced after it was parsed leaves the manifest naming
        the bytes that were estimated, and --dump-lp writes one LP per
        estimated bidder."""
        bids = tmp_path / "bids.csv"
        original = (workspace / "bids.csv").read_bytes()
        bids.write_bytes(original)
        real = cli.estimate_all

        def swap_then_estimate(*args, **kwargs):
            bids.write_text("round,bidder_id,product_id,quantity\n")
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "estimate_all", swap_then_estimate)
        out = tmp_path / "est"
        assert run(["estimate", "--catalog", workspace / "catalog.csv", "--bids", bids,
                    "--out", out, "--dump-lp", out / "lp"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["bids"] == hashlib.sha256(original).hexdigest()[:16]
        estimated = json.loads((out / "estimation_report.json").read_text())["bidders"]
        assert sorted(p.name for p in (out / "lp").iterdir()) == sorted(
            f"estimation_{b}.lp" for b in estimated)

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

    def cost_table(self, workspace, config, out):
        return run(["cost-table", "--catalog", workspace / "catalog.csv",
                    "--demographics", workspace / "demographics.csv",
                    "--inventory", workspace / "inventory.csv",
                    "--config", config, "--out", out])

    def test_partial_coverage_targets(self, workspace, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("coverage_targets:\n  metro: {low: 0.2}\n")
        assert self.cost_table(workspace, config, tmp_path) == 0
        catalog = ProductCatalog.from_csv(workspace / "catalog.csv")
        demographics = load_demographics(workspace / "demographics.csv")
        inventory = load_inventory(workspace / "inventory.csv")
        targets = {**DEFAULT_COVERAGE_TARGETS, ("metro", "low"): 0.2}
        expected = build_cost_table(catalog, demographics, inventory, SCENARIOS["none"],
                                    CostParameters(coverage_targets=targets))
        default = build_cost_table(catalog, demographics, inventory, SCENARIOS["none"],
                                   CostParameters())
        table = cost_table_from_csv(tmp_path / "cost_table_none.csv")
        assert table == expected and table != default

    def test_partial_spacing_km(self, workspace, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("cost:\n  spacing_km: {rural: 2.0}\n")
        assert self.cost_table(workspace, config, tmp_path) == 0
        catalog = ProductCatalog.from_csv(workspace / "catalog.csv")
        demographics = load_demographics(workspace / "demographics.csv")
        inventory = load_inventory(workspace / "inventory.csv")
        spacing = {**DEFAULT_SPACING_KM, "rural": 2.0}
        expected = build_cost_table(catalog, demographics, inventory, SCENARIOS["none"],
                                    CostParameters(spacing_km=spacing))
        default = build_cost_table(catalog, demographics, inventory, SCENARIOS["none"],
                                   CostParameters())
        table = cost_table_from_csv(tmp_path / "cost_table_none.csv")
        assert table == expected
        # only the rural areas' costs move; every other class keeps its spacing
        changed = {key[1] for key, cost in table.costs.items() if cost != default.costs[key]}
        assert changed and changed <= {p.area_id for p in catalog if p.area_class == "rural"}

    def test_empty_blocks_read_as_no_overrides(self, workspace, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("cost:\ncoverage_targets:\n")
        assert self.cost_table(workspace, config, tmp_path / "empty") == 0
        assert run(["cost-table", "--catalog", workspace / "catalog.csv",
                    "--demographics", workspace / "demographics.csv",
                    "--inventory", workspace / "inventory.csv",
                    "--out", tmp_path / "none"]) == 0
        assert (cost_table_from_csv(tmp_path / "empty" / "cost_table_none.csv")
                == cost_table_from_csv(tmp_path / "none" / "cost_table_none.csv"))

    @pytest.mark.parametrize("text", [
        pytest.param("coverage_targets:\n  metr: {low: 0.5}\n", id="area-class"),
        pytest.param("coverage_targets:\n  metro: {lo: 0.5}\n", id="tier"),
        pytest.param("coverage_targets:\n  metro: {low: 1.5}\n", id="above-one")])
    def test_bad_coverage_target(self, workspace, tmp_path, capsys, text):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        assert self.cost_table(workspace, config, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{config}:" in err and "Traceback" not in err

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

    def test_manifest_names_config(self, workspace, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("delta: 0.15\n")
        digest = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
        sim, rep = tmp_path / "sim", tmp_path / "rep"
        assert run(["simulate", "--catalog", workspace / "catalog.csv", "--config", config,
                    "--models", workspace / "models", "--out", sim]) == 0
        assert run(["report", "--catalog", workspace / "catalog.csv", "--config", config,
                    "--trace-a", sim / "trace.jsonl", "--trace-b", sim / "trace.jsonl",
                    "--out", rep]) == 0
        for out in (sim, rep):
            assert json.loads((out / "manifest.json").read_text())["config_hash"] == digest

    def test_roundtrip_check(self, workspace, tmp_path):
        code = run(["roundtrip-check", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv"])
        assert code == 0

    @pytest.mark.parametrize("command, option, value", [
        ("ingest", "--config", "auction.yaml"), ("smooth", "--config", "auction.yaml"),
        ("roundtrip-check", "--out", "out"), ("estimate", "--backend", "highs")])
    def test_unread_option_is_refused(self, workspace, tmp_path, command, option, value):
        """An option the command would ignore is a usage error: exit 2 with
        argparse's message, not a traceback."""
        argv = [command, "--catalog", workspace / "catalog.csv",
                "--bids", workspace / "bids.csv", option, value]
        if option != "--out":
            argv += ["--out", tmp_path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            run(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in err.getvalue()

    def test_simulate_determinism(self, workspace, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["simulate", "--catalog", workspace / "catalog.csv",
                        "--models", workspace / "models", "--out", out]) == 0
        assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestArtifactDigests:
    """`estimate --dump-lp`, `smooth` and `report` write the same bytes as
    the scan-per-query bid log did, on a log where most bidders have several
    bases and smoothing raises 23 series."""
    # sha256 over (file name, bytes) of each command's artifacts, recorded
    # before the bid log was indexed
    DIGESTS = {
        "estimate": "0f4bea3c0e5ef9a9892723899bc2c0ece8b08e5184e79012a75589bf8f5fb832",
        "smooth": "2a9c8c9931979ca5507be8c73fe77ddee7f8a167c016e45adcbbe8e21776ed03",
        "report": "bb1c11e7a533734499e2f4ecde00cb204ca10ec484b3f07818119ecce18b6d66"}
    PATTERNS = {"estimate": ["model_*.json", "estimation_report.json",
                             "manifest.json", "lp/estimation_*.lp"],
                "smooth": ["smoothed.csv"],
                "report": ["heatmap_*.csv", "heatmap_*.svg"]}

    @staticmethod
    def digest(directory, patterns):
        h = hashlib.sha256()
        for pattern in patterns:
            paths = sorted(directory.glob(pattern))
            assert paths, pattern
            for path in paths:
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def test_outputs_unchanged(self, tmp_path):
        config, agents = random_setup(3, n_bidders=8, n_products=24, n_bases=3)
        trace = run_auction(config, agents)
        catalog, bids = tmp_path / "catalog.csv", tmp_path / "bids.csv"
        write_catalog(config.catalog, catalog)
        write_bid_log(trace_to_bidlog(trace), bids)
        (tmp_path / "trace.jsonl").write_text(trace_to_jsonl(trace))
        out = {name: tmp_path / name for name in self.DIGESTS}
        assert run(["estimate", "--catalog", catalog, "--bids", bids,
                    "--out", out["estimate"], "--dump-lp", out["estimate"] / "lp"]) == 0
        assert run(["smooth", "--catalog", catalog, "--bids", bids,
                    "--out", out["smooth"]]) == 0
        assert run(["simulate", "--catalog", catalog, "--models", out["estimate"],
                    "--out", tmp_path / "sim"]) == 0
        assert run(["report", "--catalog", catalog, "--trace-a", tmp_path / "trace.jsonl",
                    "--trace-b", tmp_path / "sim" / "trace.jsonl",
                    "--out", out["report"]]) == 0
        assert {name: self.digest(out[name], self.PATTERNS[name])
                for name in self.DIGESTS} == self.DIGESTS


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


# ---------------------------------------------------------------------------
# Malformed input: every reader ends in exit 2, naming `file:line` where the
# fault sits in one row, and never in a traceback.

CSVS = ["catalog", "bids", "demographics", "inventory", "cost_table"]


@pytest.fixture(scope="module")
def inputs(workspace, tmp_path_factory):
    """The five CSVs (the cost table as `cost-table` writes it), the model
    directory, and a standard and a tiered trace."""
    out = tmp_path_factory.mktemp("inputs")
    files = {name: workspace / f"{name}.csv" for name in CSVS[:4]}
    files["models"] = workspace / "models"
    assert run(["cost-table", "--catalog", files["catalog"],
                "--demographics", files["demographics"],
                "--inventory", files["inventory"], "--out", out]) == 0
    files["cost_table"] = out / "cost_table_none.csv"
    assert run(["simulate", "--catalog", files["catalog"],
                "--models", files["models"], "--out", out]) == 0
    assert run(["simulate-extended", "--catalog", files["catalog"],
                "--models", files["models"], "--cost-table", files["cost_table"],
                "--out", out]) in (0, 4)
    files["trace"], files["trace_tiered"] = out / "trace.jsonl", out / "trace_tiered.jsonl"
    return files


def reading(which, files, out):
    """The argv of a subcommand that reads the CSV `which` from `files`."""
    if which in ("catalog", "bids"):
        return ["ingest", "--catalog", files["catalog"], "--bids", files["bids"],
                "--out", out]
    if which in ("demographics", "inventory"):
        return ["cost-table", "--catalog", files["catalog"],
                "--demographics", files["demographics"],
                "--inventory", files["inventory"], "--out", out]
    return ["simulate-extended", "--catalog", files["catalog"],
            "--models", files["models"], "--cost-table", files["cost_table"],
            "--out", out]


def run_captured(argv):
    """(exit code, stderr) of `main`; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue()


def data_lines(lines):
    """Indices of the data rows: after the header, not `#` lines."""
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    return rows[1:]


def with_file(files, which, lines, out):
    """`files` with `which` replaced by `lines` written under `out`."""
    path = out / f"{which}.csv"
    path.write_text("\n".join(lines) + "\n")
    return {**files, which: path}


class TestMalformedInput:
    @pytest.mark.parametrize("which", CSVS)
    def test_short_row_names_its_line(self, inputs, which, tmp_path):
        lines = inputs[which].read_text().splitlines()
        last = data_lines(lines)[-1]
        fields = lines[last].split(",")
        lines[last] = ",".join(fields[:len(fields) // 2])
        files = with_file(inputs, which, lines, tmp_path)
        code, err = run_captured(reading(which, files, tmp_path / "out"))
        assert code == 2
        assert f"{files[which]}:{last + 1}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("which", CSVS)
    def test_missing_file(self, inputs, which, tmp_path):
        files = {**inputs, which: tmp_path / "absent.csv"}
        code, err = run_captured(reading(which, files, tmp_path / "out"))
        assert code == 2
        assert f"{tmp_path / 'absent.csv'}:" in err

    @pytest.mark.parametrize("which", ["demographics", "inventory", "cost_table"])
    def test_duplicate_key(self, inputs, which, tmp_path):
        lines = inputs[which].read_text().splitlines()
        first = data_lines(lines)[0]
        lines.append(lines[first])
        files = with_file(inputs, which, lines, tmp_path)
        code, err = run_captured(reading(which, files, tmp_path / "out"))
        assert code == 2
        assert f"{files[which]}:{len(lines)}:" in err and f"line {first + 1}" in err

    @pytest.mark.parametrize("which, tier, edit, at_line, message", [
        pytest.param("inventory", None, lambda f: f[:2] + ["-3"], True,
                     "negative tower count", id="negative-towers"),
        pytest.param("cost_table", "medium", lambda f: f[:3] + ["-1"], True,
                     "negative deployment cost", id="negative-cost"),
        pytest.param("cost_table", "medium", lambda f: f[:2] + ["sideways", f[3]],
                     True, "unknown tier", id="unknown-tier"),
        pytest.param("cost_table", "low", lambda f: f[:3] + [str(10**12)], False,
                     "not monotone in tier", id="falling-costs"),
        pytest.param("demographics", None, lambda f: None, False,
                     "areas without demographics", id="missing-area")])
    def test_domain_error_names_its_file(self, inputs, which, tier, edit,
                                         at_line, message, tmp_path):
        lines = inputs[which].read_text().splitlines()
        i = next(i for i in data_lines(lines)
                 if tier is None or lines[i].split(",")[2] == tier)
        fields = edit(lines[i].split(","))
        if fields is None:
            del lines[i]
        else:
            lines[i] = ",".join(fields)
        files = with_file(inputs, which, lines, tmp_path)
        code, err = run_captured(reading(which, files, tmp_path / "out"))
        assert code == 2
        where = f"{files[which]}:{i + 1}:" if at_line else f"{files[which]}:"
        assert where in err and message in err and "Traceback" not in err

    def test_extended_checks_demographics_before_the_auction(self, inputs, tmp_path):
        lines = inputs["demographics"].read_text().splitlines()
        del lines[data_lines(lines)[0]]
        files = with_file(inputs, "demographics", lines, tmp_path)
        out = tmp_path / "out"
        code, err = run_captured(reading("cost_table", files, out)
                                 + ["--demographics", files["demographics"]])
        assert code == 2
        assert f"{files['demographics']}: areas without demographics" in err
        assert "Traceback" not in err and not (out / "trace_tiered.jsonl").exists()

    @pytest.mark.parametrize("which", ["catalog", "bids"])
    def test_comment_lines_accepted(self, inputs, which, tmp_path):
        lines = inputs[which].read_text().splitlines()
        lines = ["# manifest 0"] + lines[:2] + ["# a note", ""] + lines[2:]
        files = with_file(inputs, which, lines, tmp_path)
        assert run_captured(reading(which, files, tmp_path / "out"))[0] == 0

    @pytest.mark.parametrize("column, value", [("opening_price_cad", "1/0"),
                                               ("supply", "0")])
    def test_bad_catalog_field(self, inputs, column, value, tmp_path):
        lines = inputs["catalog"].read_text().splitlines()
        fields = lines[1].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[1] = ",".join(fields)
        files = with_file(inputs, "catalog", lines, tmp_path)
        code, err = run_captured(reading("catalog", files, tmp_path / "out"))
        assert code == 2
        assert f"{files['catalog']}:2:" in err

    @pytest.mark.parametrize("case", ["tiered", "cut"])
    def test_report_rejects_trace(self, inputs, case, tmp_path):
        if case == "tiered":
            trace, line = inputs["trace_tiered"], 1
        else:
            lines = inputs["trace"].read_text().splitlines()
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
            trace, line = tmp_path / "cut.jsonl", len(lines)
            trace.write_text("\n".join(lines) + "\n")
        code, err = run_captured(["report", "--catalog", inputs["catalog"],
                                  "--trace-a", inputs["trace"], "--trace-b", trace,
                                  "--out", tmp_path / "rep"])
        assert code == 2
        assert f"{trace}:{line}:" in err
        if case == "tiered":
            assert "standard-auction" in err

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda doc: doc.pop("bases"), id="no-bases"),
        pytest.param(lambda doc: doc.update(marginals=[{}]), id="empty-marginal")])
    def test_bad_model_file(self, inputs, damage, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for path in sorted(inputs["models"].glob("model_*.json")):
            (models / path.name).write_text(path.read_text())
        bad = sorted(models.glob("model_*.json"))[0]
        doc = json.loads(bad.read_text())
        damage(doc)
        bad.write_text(json.dumps(doc))
        code, err = run_captured(["simulate", "--catalog", inputs["catalog"],
                                  "--models", models, "--out", tmp_path / "sim"])
        assert code == 2
        assert f"{bad}:" in err

    @pytest.mark.parametrize("text, named", [
        pytest.param("delta: [1\n", "", id="bad-yaml"),
        pytest.param("delta: abc\n", "", id="bad-delta"),
        pytest.param("cost:\n  pop_per_tower: many\n", "", id="bad-cost-value"),
        pytest.param("activity_rule: 0.9\n", "'activity_rule'", id="unread-key"),
        pytest.param("max_round: 5\n", "'max_round'", id="misspelt-key"),
        pytest.param("cost:\n  tower_cost_lo_cad: 1\n", "cost: 'tower_cost_lo_cad'",
                     id="misspelt-cost-key"),
        pytest.param("5\n", "a config is a mapping of settings, not 5",
                     id="not-a-mapping"),
        pytest.param("cost: 5\n", "'cost' must be a mapping, not 5", id="cost-not-a-mapping"),
        pytest.param("coverage_targets: 5\n", "'coverage_targets' must be a mapping, not 5",
                     id="coverage-targets-not-a-mapping"),
        pytest.param("coverage_targets: {metro: 5}\n",
                     "coverage_targets: 'metro' must be a mapping, not 5",
                     id="area-class-not-a-mapping"),
        pytest.param("cost: {spacing_km: 5}\n", "'spacing_km' must be a mapping, not 5",
                     id="spacing-not-a-mapping"),
        pytest.param("cost: {spacing_km: {suburb: 1}}\n",
                     "spacing_km: unknown area class 'suburb'", id="spacing-unknown-class"),
        pytest.param("cost: {spacing_km: {rural: -1}}\n", "spacing_km rural must be >= 0",
                     id="negative-spacing"),
        pytest.param("cost: {pop_per_tower: 0}\n", "cost: 'pop_per_tower'",
                     id="zero-pop-per-tower"),
        pytest.param("cost: {pop_per_tower: -5}\n", "cost: 'pop_per_tower'",
                     id="negative-pop-per-tower"),
        pytest.param("cost: {pop_per_tower: 2.5}\n", "cost: 'pop_per_tower'",
                     id="fractional-pop-per-tower"),
        pytest.param("cost: {tower_cost_low_cad: -1}\n", "cost: 'tower_cost_low_cad'",
                     id="negative-money"),
        pytest.param("cost: {inflation: -3}\n", "cost: 'inflation'", id="inflation-below-minus-one"),
        pytest.param("cost: {market_markup: -1}\n", "cost: 'market_markup'",
                     id="zero-adjustment-factor"),
        pytest.param("cost: {tower_costs_post_adjustment: 'false'}\n",
                     "cost: 'tower_costs_post_adjustment'", id="boolean-as-string"),
        pytest.param("max_rounds: 2.5\n", "'max_rounds'", id="fractional-max-rounds"),
        pytest.param("max_rounds: true\n", "'max_rounds'", id="boolean-max-rounds"),
        pytest.param("max_rounds: '7'\n", "'max_rounds'", id="string-max-rounds"),
        pytest.param("delta: -0.5\n", "'delta'", id="negative-delta")])
    def test_bad_config(self, inputs, text, named, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(text)
        code, err = run_captured(["simulate", "--catalog", inputs["catalog"],
                                  "--models", inputs["models"], "--config", config,
                                  "--out", tmp_path / "sim"])
        assert code == 2
        assert f"{config}:" in err
        assert named in err

    @pytest.mark.parametrize("command, where", [
        pytest.param("ingest", "out", id="out-is-a-file"),
        pytest.param("estimate", "lp", id="dump-lp-is-a-file"),
        pytest.param("ingest", "out/bids.csv", id="artifact-is-a-directory")])
    def test_unwritable_output(self, inputs, command, where, tmp_path, monkeypatch):
        # a file where `--out` or `--dump-lp` needs a directory, or a
        # directory where an artifact goes; estimate finds out before it
        # solves anything
        taken = tmp_path / where
        if where.endswith(".csv"):
            taken.mkdir(parents=True)
        else:
            taken.write_text("")
        argv = [command, "--catalog", inputs["catalog"], "--bids", inputs["bids"],
                "--out", tmp_path / "out", *(["--dump-lp", taken] if command == "estimate" else [])]
        monkeypatch.setattr(cli, "estimate_all", lambda *a, **k: pytest.fail("estimated"))
        code, err = run_captured(argv)
        assert code == 2
        assert f"error: {taken}: " in err and "Traceback" not in err

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(which=st.sampled_from(CSVS), row=st.integers(0, 10_000),
           op=st.sampled_from(["replace", "drop", "duplicate"]),
           column=st.integers(0, 5), keep=st.integers(0, 5),
           value=st.one_of(
               st.sampled_from(["", "0", "-1", "1/0", "1.5", "nan", "inf", "1e9",
                                "9" * 30, "#", "P00", "A00", "B0", "low", "x y"]),
               st.text(alphabet="0123456789-./#\"', abcPAB", max_size=6)))
    def test_fuzzed_row_never_raises(self, inputs, which, row, op, column, keep,
                                     value):
        lines = inputs[which].read_text().splitlines()
        rows = data_lines(lines)
        i = rows[row % len(rows)]
        fields = lines[i].split(",")
        if op == "replace":
            fields[column % len(fields)] = value
            lines[i] = ",".join(fields)
        elif op == "drop":
            lines[i] = ",".join(fields[:keep % len(fields)])
        else:
            lines.insert(i, lines[i])
        with tempfile.TemporaryDirectory() as tmp:
            files = with_file(inputs, which, lines, Path(tmp))
            code, _ = run_captured(reading(which, files, Path(tmp) / "out"))
        assert code in (0, 2)
