import ast
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ElementTree
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from clockauction import cli, estimation
from clockauction.cli import main
from clockauction.core import cents_to_dollars
from clockauction.core import IncrementSchedule, Product, ProductCatalog, read_csv
from clockauction.costs import (DEFAULT_COVERAGE_TARGETS, DEFAULT_SPACING_KM, SCENARIOS,
                                AreaStats, CostParameters, build_cost_table, cost_table_from_csv,
                                cost_table_to_csv, load_demographics, load_inventory)
from clockauction.engine import run_auction, trace_to_jsonl
from clockauction.estimation import EstimationReport, ValuationModel, model_to_json
from clockauction.ingest import (BundleBase, BundleSpace, CopyLadder, RawBidLog,
                                 parse_bid_log, write_bid_log)
from clockauction.pipeline import estimate_all, roundtrip, trace_to_bidlog
from clockauction.report import (RunManifest, compare_traces, final_price_scatter_csv,
                                 heatmap_csv, heatmap_matrix, heatmap_svg)
from clockauction.solver import GE, LE, Solution, _highspy
from clockauction.synthetic import random_setup
from clockauction.tiered import TIERS, TieredValuationAdjustment


def loaded_scipy(code: str) -> tuple[str, list[str]]:
    """Run `code` in a fresh interpreter: its output, and the scipy modules
    loaded after it."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, cwd=root,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *output, modules = done.stdout.splitlines()
    return "\n".join(output), ast.literal_eval(modules)


def only_highs(modules: list[str]) -> bool:
    """The modules are SciPy's HiGHS extension and its own submodules, as
    solver._highspy loads it: no scipy.optimize, scipy.linalg or scipy.sparse."""
    core = "scipy.optimize._highspy._core"
    return core in modules and all(m == core or m.startswith(core + ".") for m in modules)


def test_importing_the_cli_loads_no_scipy():
    """The command line starts without scipy: the HiGHS adapter loads it at
    its first solve, so a command that solves no LP never pays for it."""
    assert loaded_scipy("import clockauction.cli") == ("", [])


def test_a_highs_solve_loads_only_the_extension():
    _, modules = loaded_scipy(
        "import clockauction.cli\n"
        "from clockauction.solver import LinearProgram, solve_lp\n"
        "lp = LinearProgram(['x'], [-1.0])\n"
        "lp.ub = [1.0]\n"
        "assert solve_lp(lp, backend='highs').status == 'optimal'")
    assert only_highs(modules), modules


def test_estimate_loads_only_the_highs_extension(workspace, tmp_path):
    argv = ["estimate", "--catalog", str(workspace / "catalog.csv"),
            "--bids", str(workspace / "bids.csv"), "--out", str(tmp_path)]
    _, modules = loaded_scipy(f"from clockauction import cli\nassert cli.main({argv!r}) == 0")
    assert only_highs(modules), modules
    assert list(tmp_path.glob("model_*.json"))


def test_pyyaml_is_imported_only_for_a_config(workspace, tmp_path):
    """Importing the CLI, and a command run without --config, leave PyYAML
    unloaded: a run without a config takes the defaults directly."""
    config = tmp_path / "config.yaml"
    config.write_text("delta: 0.1\n")
    argv = ["estimate", "--catalog", str(workspace / "catalog.csv"),
            "--bids", str(workspace / "bids.csv"), "--out", str(tmp_path)]
    check = "print('yaml loaded:', 'yaml' in sys.modules)\n"
    output, _ = loaded_scipy(
        f"import sys\nfrom clockauction import cli\n{check}"
        f"assert cli.main({argv!r}) == 0\n{check}"
        f"assert cli.main({argv + ['--config', str(config)]!r}) == 0\n{check}")
    assert [line for line in output.splitlines() if line.startswith("yaml loaded:")] == \
        ["yaml loaded: False", "yaml loaded: False", "yaml loaded: True"]


# one LP through the adapter and through linprog: min x + 2y - z subject to
# x + y >= 2, x - z <= 1, y + z = 3, all >= 0
ADAPTER = """
from clockauction.solver import EQ, GE, LE, LinearProgram, Rows, solve_lp, _highspy
lp = LinearProgram(["x", "y", "z"], [1.0, 2.0, -1.0],
                   Rows([0, 2, 4, 6], [0, 1, 0, 2, 1, 2], [1.0, 1.0, 1.0, -1.0, 1.0, 1.0],
                        [2.0, 1.0, 3.0], [GE, LE, EQ]))
print(repr(solve_lp(lp, backend="highs")))
"""
LINPROG = """
from scipy.optimize import linprog
res = linprog([1.0, 2.0, -1.0], A_ub=[[-1.0, -1.0, 0.0], [1.0, 0.0, -1.0]], b_ub=[-2.0, 1.0],
              A_eq=[[0.0, 1.0, 1.0]], b_eq=[3.0])
print(res.status, res.x.tolist(), res.fun)
"""
SAME_MODULE = """
import sys
import scipy.optimize._highspy._highs_wrapper as wrapper
print(wrapper._h is _highspy() is sys.modules["scipy.optimize._highspy._core"])
"""


def test_the_adapter_and_linprog_share_one_extension_in_either_order():
    """Loaded by the adapter first or by scipy.optimize first, the extension
    is one module object, which registers HiGHS's types once, and both
    orders give the same answers."""
    adapter_first, _ = loaded_scipy(ADAPTER + LINPROG + SAME_MODULE)
    linprog_first, _ = loaded_scipy(LINPROG + ADAPTER + SAME_MODULE)
    solution, answer, same = adapter_first.splitlines()
    assert solution.startswith("Solution(status='optimal'") and answer.startswith("0 ")
    assert same == "True"
    assert linprog_first.splitlines() == [answer, solution, same]


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

    def test_each_dumped_lp_loads_in_highs_at_the_solved_optimum(self, workspace, tmp_path,
                                                                 monkeypatch):
        """HiGHS's LP reader loads every LP that `estimate --dump-lp` writes:
        its columns in order, with the costs, bounds and row bounds of the
        LP that `estimate` solved bit for bit, and that LP's optimum."""
        estimates, solved = {}, []
        real_estimate_all, real_solve_lp = cli.estimate_all, estimation.solve_lp

        def kept(*args, **kwargs):
            estimates.update(real_estimate_all(*args, **kwargs))
            return estimates

        monkeypatch.setattr(cli, "estimate_all", kept)
        monkeypatch.setattr(estimation, "solve_lp", lambda lp, *a, **k:
                            solved.append((lp, real_solve_lp(lp, *a, **k))) or solved[-1][1])
        out = tmp_path / "est"
        assert run(["estimate", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", out,
                    "--dump-lp", out / "lp"]) == 0
        core = _highspy()
        options = core.HighsOptions()
        options.log_to_console = False
        assert estimates
        for bidder, est in estimates.items():
            lp = est.report.lp
            (objective,) = [sol.objective_value for solved_lp, sol in solved if solved_lp is lp]
            highs = core._Highs()
            highs.passOptions(options)
            assert highs.readModel(str(out / "lp" / f"estimation_{bidder}.lp")) == \
                core.HighsStatus.kOk, bidder
            read = highs.getLp()
            assert (list(read.col_cost_), list(read.col_lower_), list(read.col_upper_)) == \
                (list(lp.costs), lp.lb, lp.ub)
            assert list(zip(read.row_lower_, read.row_upper_)) == [
                (-math.inf if rel == LE else b, math.inf if rel == GE else b)
                for rel, b in zip(lp.rows.relations, lp.rows.rhs)]
            highs.run()
            assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
            assert highs.getInfo().objective_function_value == pytest.approx(objective, abs=1e-6)

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

    @pytest.mark.parametrize("demographics", [False, True])
    def test_extended_summary_prices_each_bidders_deployment(self, workspace, tmp_path,
                                                             demographics):
        """`summary_tiered.json` holds every bidder's deployment cost, with
        or without the coverage section: the cost table's cost of each
        (area, tier) its final bid engages, paid once.  Every (area, tier)
        costs something here, and a different amount."""
        area = {p.id: p.area_id for p in ProductCatalog.from_csv(workspace / "catalog.csv")}
        bidders = {path.stem.removeprefix("model_")
                   for path in (workspace / "models").glob("model_*.json")}
        table = TieredValuationAdjustment(
            {(b, a, t): 100 * (1 + k) + i for b in bidders
             for i, a in enumerate(sorted(set(area.values()))) for k, t in enumerate(TIERS)})
        (tmp_path / "costs.csv").write_text(cost_table_to_csv(table))
        argv = ["simulate-extended", "--catalog", workspace / "catalog.csv",
                "--models", workspace / "models",
                "--cost-table", tmp_path / "costs.csv", "--out", tmp_path / "ext"]
        assert run(argv + (["--demographics", workspace / "demographics.csv"]
                           if demographics else [])) in (0, 4)
        summary = json.loads((tmp_path / "ext" / "summary_tiered.json").read_text())
        assert ("coverage" in summary) == demographics
        costs = summary["deployment_costs_cents"]
        assert set(costs) == set(summary["final_allocation"]) == bidders
        for bidder, bid in summary["final_allocation"].items():
            engaged = {(area[j], tier) for j, (tier, q) in bid.items()}
            assert costs[bidder] == sum(table.cost(bidder, a, t) for a, t in engaged)
        assert any(costs.values())

    def test_estimation_report_entries_are_the_reports(self, workspace, tmp_path):
        """Each bidder's entry of `estimation_report.json` is its
        `EstimationReport`, every field but `lp` under the field's name."""
        assert run(["estimate", "--catalog", workspace / "catalog.csv",
                    "--bids", workspace / "bids.csv", "--out", tmp_path]) == 0
        entries = json.loads((tmp_path / "estimation_report.json").read_text())["bidders"]
        catalog = ProductCatalog.from_csv(workspace / "catalog.csv")
        estimates = estimate_all(parse_bid_log(workspace / "bids.csv", catalog), catalog,
                                 IncrementSchedule.constant(0.1))
        names = {f.name for f in fields(EstimationReport)} - {"lp"}
        assert entries.keys() == estimates.keys()
        for bidder, entry in entries.items():
            assert entry.keys() == names
            assert EstimationReport(**entry) == estimates[bidder].report

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

    @pytest.mark.parametrize("dropped, missing", [
        (["B1,A03,low"], "(B1, A03, low)"),  # B1's base holds P03, in area A03
        (["B1,A05,medium"], "(B1, A05, medium)"),  # its low cost is above 0
        (["B0,A00,low", "B0,A00,medium", "B0,A00,high"], None),  # no base of B0 holds P00
    ], ids=["needed", "needed-medium", "unneeded"])
    def test_cost_table_without_a_needed_row(self, workspace, tmp_path, capsys, dropped,
                                             missing):
        """A cost table without a (bidder, area, tier) that some model's base
        products need is an error naming the table and the first such
        triple, before the auction runs; rows no base needs may be absent."""
        assert run(["cost-table", "--catalog", workspace / "catalog.csv",
                    "--demographics", workspace / "demographics.csv",
                    "--inventory", workspace / "inventory.csv",
                    "--scenario", "none", "--out", tmp_path]) == 0
        table = tmp_path / "cost_table_none.csv"
        lines = table.read_text().splitlines()
        kept = [line for line in lines if not any(line.startswith(row + ",") for row in dropped)]
        assert len(kept) == len(lines) - len(dropped)
        table.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        code = run(["simulate-extended", "--catalog", workspace / "catalog.csv",
                    "--models", workspace / "models", "--cost-table", table,
                    "--out", tmp_path / "ext"])
        err = capsys.readouterr().err
        if missing is None:
            assert code in (0, 4) and err == ""
        else:
            assert (code, err) == (2, f"error: --cost-table {table}: no deployment cost for "
                                      f"{missing}\n")
            assert not (tmp_path / "ext" / "trace_tiered.jsonl").exists()

    def test_a_missing_inventory_row_warns_and_counts_no_towers(self, workspace, tmp_path):
        """A (bidder, area) without an inventory row warns, naming it, and
        costs what it costs with a row of 0 towers."""
        header, first, *rest = (workspace / "inventory.csv").read_text().splitlines()
        assert first == "B0,A00,1"
        tables = {}
        for name, rows in (("absent", rest), ("zero", ["B0,A00,0", *rest])):
            inventory = tmp_path / f"{name}.csv"
            inventory.write_text("\n".join([header, *rows]) + "\n")
            argv = ["cost-table", "--catalog", workspace / "catalog.csv",
                    "--demographics", workspace / "demographics.csv",
                    "--inventory", inventory, "--out", tmp_path / name]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(argv) == 0
            tables[name] = (tmp_path / name / "cost_table_none.csv").read_text()
            assert {str(w.message) for w in caught} == (
                {"no tower inventory for ('B0', 'A00'); assuming 0"} if name == "absent"
                else set())
        # all but the manifest line, whose hash covers the inventory's bytes
        assert tables["absent"].split("\n", 1)[1] == tables["zero"].split("\n", 1)[1]

    @pytest.mark.parametrize("command", ["simulate", "simulate-extended"])
    def test_duplicate_bidder_ids_name_both_files(self, workspace, tmp_path, capsys, command):
        """Two model files of one bidder id are an error naming the id and
        both files."""
        models = tmp_path / "models"
        models.mkdir()
        for path in (workspace / "models").glob("model_*.json"):
            (models / path.name).write_bytes(path.read_bytes())
        (models / "model_B2_copy.json").write_bytes((models / "model_B2.json").read_bytes())
        extra = []
        if command == "simulate-extended":
            assert run(["cost-table", "--catalog", workspace / "catalog.csv",
                        "--demographics", workspace / "demographics.csv",
                        "--inventory", workspace / "inventory.csv",
                        "--scenario", "none", "--out", tmp_path]) == 0
            extra = ["--cost-table", tmp_path / "cost_table_none.csv"]
        code, err = run_captured([command, "--catalog", workspace / "catalog.csv",
                                  "--models", models, *extra, "--out", tmp_path / "out"])
        assert (code, err) == (2, f"error: {models / 'model_B2.json'} and "
                                  f"{models / 'model_B2_copy.json'}: duplicate bidder id 'B2'\n")

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

    @pytest.mark.parametrize("exponent, decimal", [("1e-1", "0.1"), ("1.5e-1", "0.15"),
                                                   ("15E-2", "0.15"), ("+.2e0", "0.2")])
    def test_a_number_with_an_exponent_reads_as_its_float(self, workspace, tmp_path,
                                                           exponent, decimal):
        """`delta: 1e-1` is the number 0.1, as in YAML 1.2 and JSON, not the
        text PyYAML would read: the same trace as `delta: 0.1`."""
        traces = []
        for written in (exponent, decimal):
            config, out = tmp_path / f"{written}.yaml", tmp_path / written
            config.write_text(f"delta: {written}\n")
            assert run(["simulate", "--catalog", workspace / "catalog.csv", "--config", config,
                        "--models", workspace / "models", "--out", out]) == 0
            traces.append((out / "trace.jsonl").read_bytes())
        assert traces[0] == traces[1]

    def test_roundtrip_check(self, workspace, tmp_path, capsys):
        """The replay it prints is `simulate`'s run of the models that
        `estimate` writes for the same log."""
        catalog, bids = workspace / "catalog.csv", workspace / "bids.csv"
        assert run(["roundtrip-check", "--catalog", catalog, "--bids", bids]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        assert run(["estimate", "--catalog", catalog, "--bids", bids,
                    "--out", tmp_path / "est"]) == 0
        assert run(["simulate", "--catalog", catalog, "--models", tmp_path / "est",
                    "--out", tmp_path / "sim"]) == 0
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        assert printed.endswith(f"; simulated revenue {summary['revenue']} over "
                                f"{summary['rounds_used']} rounds")

    def test_a_bidder_whose_rows_are_all_zero(self, workspace, tmp_path):
        """A bidder that never demands anything gets no model and no report
        entry; the others are estimated, replayed and checked as ever."""
        lines = (workspace / "bids.csv").read_text().splitlines()
        product = lines[1].split(",")[2]
        bids = tmp_path / "bids.csv"
        bids.write_text("\n".join([*lines, f"1,Z,{product},0", f"2,Z,{product},0"]) + "\n")
        out = tmp_path / "est"
        assert run(["estimate", "--catalog", workspace / "catalog.csv", "--bids", bids,
                    "--out", out]) == 0
        models = {path.name for path in out.glob("model_*.json")}
        assert models == {path.name for path in (workspace / "models").glob("model_*.json")}
        report = json.loads((out / "estimation_report.json").read_text())
        assert sorted(report["bidders"]) == sorted(name[6:-5] for name in models)
        assert run(["simulate", "--catalog", workspace / "catalog.csv", "--models", out,
                    "--out", tmp_path / "sim"]) == 0
        assert run(["roundtrip-check", "--catalog", workspace / "catalog.csv",
                    "--bids", bids]) == 0

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
    # before the bid log was indexed; "lp", the `--dump-lp` files, re-recorded
    # when the dumps took column numbers and exact numbers, and again when
    # their rows lost their zero terms and a -0.0 right-hand side became 0.0
    DIGESTS = {
        "estimate": "874ca37a79866e753a4e4ce5e6ede341daebb2133163847be1a25120fbf0c39c",
        "lp": "d2d1cb37a36df605f829326d2c4407748966e08d974f12b1a0e9b90e247e7be4",
        "smooth": "2a9c8c9931979ca5507be8c73fe77ddee7f8a167c016e45adcbbe8e21776ed03",
        "report": "bb1c11e7a533734499e2f4ecde00cb204ca10ec484b3f07818119ecce18b6d66"}
    PATTERNS = {"estimate": ["model_*.json", "estimation_report.json", "manifest.json"],
                "lp": ["estimation_*.lp"],
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
        out["lp"] = out["estimate"] / "lp"
        assert run(["estimate", "--catalog", catalog, "--bids", bids,
                    "--out", out["estimate"], "--dump-lp", out["lp"]]) == 0
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
            expected = sum(q for _, b, _, q in log.rows if b == bidder)
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

    # ids that hold XML markup and CSV delimiters
    BIDDERS, PRODUCTS = ("AT&T", "B<2>"), ("A,1", 'B"2')

    def awkward_log(self):
        return RawBidLog.from_rows([(rnd, bidder, j, q) for bidder in self.BIDDERS
                                    for rnd, q in ((1, 2), (2, 1)) for j in self.PRODUCTS])

    def test_svg_escapes_the_bidder_id(self):
        log = self.awkward_log()
        for bidder in self.BIDDERS:
            root = ElementTree.fromstring(heatmap_svg(log, bidder, manifest_hash="deadbeef"))
            assert root.find("{http://www.w3.org/2000/svg}desc").text == \
                f"bidding heatmap {bidder}; manifest deadbeef"

    def test_csvs_quote_product_ids(self):
        log = self.awkward_log()
        manifest, text = heatmap_csv(log, "AT&T", "deadbeef").split("\n", 1)
        assert manifest == "# manifest deadbeef"
        assert list(csv.reader(io.StringIO(text))) == \
            [["round", *self.PRODUCTS], ["1", "2", "2"], ["2", "1", "1"]]
        catalog = ProductCatalog(products=tuple(
            Product(j, "area", "urban", 1, 1, 100) for j in self.PRODUCTS))
        trace = SimpleNamespace(rounds=[SimpleNamespace(posted={"A,1": 300, 'B"2': 400})])
        manifest, text = final_price_scatter_csv(trace, trace, catalog, "deadbeef").split("\n", 1)
        assert manifest == "# manifest deadbeef"
        assert list(csv.reader(io.StringIO(text))) == [
            ["product_id", "final_price_a_cents", "final_price_b_cents"],
            ["A,1", "300", "300"], ['B"2', "400", "400"]]

    def test_scatter_of_a_product_that_begins_with_a_hash_reads_back(self, tmp_path):
        """The scatter's row of a product `#P` is quoted, so the file, its
        manifest line a comment, reads back whole."""
        catalog = ProductCatalog(products=tuple(
            Product(j, "area", "urban", 1, 1, 100) for j in ("#P", "Q")))
        trace = SimpleNamespace(rounds=[SimpleNamespace(posted={"#P": 300, "Q": 400})])
        path = tmp_path / "scatter.csv"
        path.write_text(final_price_scatter_csv(trace, trace, catalog, "deadbeef"))
        assert read_csv(path, ["product_id", "final_price_a_cents", "final_price_b_cents"],
                        lambda *row: row, key=lambda row: row[0]) == \
            [("#P", "300", "300"), ("Q", "400", "400")]


class TestCompareTraces:
    def test_self_comparison_is_exact(self):
        config, agents = random_setup(29, n_bidders=3, n_products=5)
        trace = run_auction(config, agents)
        cmp = compare_traces(trace, trace, config.catalog)
        assert cmp["rmse_mean"] == 0.0
        assert cmp["revenue_gap_pct"] == 0.0
        assert cmp["units_a"] == cmp["units_b"]


class TestComparisonBytes:
    """`report` writes the same comparison.json on three fixed pairs: a trace
    against itself, an auction against its replay on estimated valuations
    (two bases per bidder), and a run cut short at round 3 against the full
    run.  sha256 of each file, recorded before the comparison was a plain
    document."""
    DIGESTS = {
        "self": "5fd99a17193a85c353fb9af97fb9318589570627450f41e6ec881ab830a3aa58",
        "roundtrip": "2d999b0c0db8495fde4f4c8233194770f078f1416dfbb7c78b88fc0b0be0c7cd",
        "truncated": "3eb315c537711e1db865953de6939755e1d7570b1a6d087cb67abf9fd8bab2c3"}

    @staticmethod
    def pair(name):
        if name == "self":
            config, agents = random_setup(29, n_bidders=3, n_products=5)
            trace = run_auction(config, agents)
            return config.catalog, trace, trace
        if name == "roundtrip":
            config, agents = random_setup(2, n_bidders=5, n_products=10, n_bases=2)
            result = roundtrip(config, agents)
            return config.catalog, result.original, result.replayed
        config, agents = random_setup(29, n_bidders=3, n_products=5)
        short = run_auction(replace(config, max_rounds=3), agents)
        return config.catalog, short, run_auction(config, agents)

    @pytest.mark.parametrize("name", ["self", "roundtrip", "truncated"])
    def test_comparison_unchanged(self, name, tmp_path):
        catalog, trace_a, trace_b = self.pair(name)
        write_catalog(catalog, tmp_path / "catalog.csv")
        (tmp_path / "a.jsonl").write_text(trace_to_jsonl(trace_a))
        (tmp_path / "b.jsonl").write_text(trace_to_jsonl(trace_b))
        assert run(["report", "--catalog", tmp_path / "catalog.csv",
                    "--trace-a", tmp_path / "a.jsonl", "--trace-b", tmp_path / "b.jsonl",
                    "--out", tmp_path / "rep"]) == 0
        data = (tmp_path / "rep" / "comparison.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[name]


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


def json_values(doc, key=()):
    """(key path, value) of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield (*key, k), v
        yield from json_values(v, (*key, k))


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

    def test_a_short_bid_row_names_the_missing_column(self, inputs, tmp_path):
        lines = inputs["bids"].read_text().splitlines()
        last = data_lines(lines)[-1]
        lines[last] = ",".join(lines[last].split(",")[:3])
        files = with_file(inputs, "bids", lines, tmp_path)
        code, err = run_captured(reading("bids", files, tmp_path / "out"))
        assert code == 2
        assert err.strip() == f"error: {files['bids']}:{last + 1}: " \
            "missing column 'quantity': the row has 3 fields"

    def test_a_repeated_header_column_is_refused(self, inputs, tmp_path):
        lines = inputs["bids"].read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header] == "round,bidder_id,product_id,quantity"
        lines[header] = "round," + lines[header]
        files = with_file(inputs, "bids", lines, tmp_path)
        code, err = run_captured(reading("bids", files, tmp_path / "out"))
        assert code == 2
        assert err.strip() == f"error: {files['bids']}: header repeats column 'round'"

    @pytest.mark.parametrize("command", ["ingest", "smooth", "estimate", "roundtrip-check"])
    def test_a_bid_log_without_rows_is_refused(self, inputs, command, tmp_path):
        lines = inputs["bids"].read_text().splitlines()
        files = with_file(inputs, "bids", lines[:data_lines(lines)[0]], tmp_path)
        out = [] if command == "roundtrip-check" else ["--out", tmp_path / "out"]
        code, err = run_captured([command, "--catalog", files["catalog"],
                                  "--bids", files["bids"], *out])
        assert (code, err.strip()) == (2, f"error: {files['bids']}: no bid rows")
        assert not (tmp_path / "out").exists()

    def test_a_solver_error_exits_3(self, inputs, monkeypatch, tmp_path):
        monkeypatch.setattr(estimation, "solve_lp",
                            lambda lp, backend: Solution("unbounded", {}, None))
        code, err = run_captured(["estimate", "--catalog", inputs["catalog"],
                                  "--bids", inputs["bids"], "--out", tmp_path / "out"])
        assert code == 3
        assert re.fullmatch(r"solver error: estimation LP for \S+: unbounded", err.strip())

    def test_simulate_without_models_names_the_directory(self, inputs, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "notes.json").write_text("{}")
        code, err = run_captured(["simulate", "--catalog", inputs["catalog"],
                                  "--models", models, "--out", tmp_path / "out"])
        assert (code, err.strip()) == (2, f"error: no model_*.json files in {models}")

    def test_an_overdemanded_price_that_cannot_rise_exits_2(self, tmp_path):
        """At delta 0.1 a $4.00 clock rounds back to $4.00: two bidders for
        the one unit would hold the price there until max_rounds."""
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("product_id,area_id,area_class,supply,eligibility_points,"
                           "opening_price_cad\nA,area-A,urban,1,1,4.00\n")
        models = tmp_path / "models"
        models.mkdir()
        for bidder in ("X", "Y"):
            base = BundleBase(f"{bidder}/base0", {"A": 1})
            space = BundleSpace(bidder, (base,), {"A": CopyLadder("A", (1,))}, {})
            model = ValuationModel(bidder, {base.base_id: 500_00}, {("A", 1): 0.0})
            (models / f"model_{bidder}.json").write_text(model_to_json(model, space))
        start = time.perf_counter()
        code, err = run_captured(["simulate", "--catalog", catalog, "--models", models,
                                  "--out", tmp_path / "out"])
        assert time.perf_counter() - start < 1.0
        assert (code, err.strip()) == (2, "error: price of A: its clock at delta 0.1 does "
                                          "not rise above its start price $4.00")

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
                     "tower count for ('B0', 'A00') must be an integer >= 0, not -3",
                     id="negative-towers"),
        pytest.param("cost_table", "medium", lambda f: f[:3] + ["-1"], True,
                     "deployment cost must be >= 0 cents and at most 2**53, in whole cents, "
                     "not -1", id="negative-cost"),
        pytest.param("cost_table", "medium", lambda f: f[:2] + ["sideways", f[3]],
                     True, "unknown tier", id="unknown-tier"),
        pytest.param("cost_table", "low", lambda f: f[:3] + [str(10**12)], False,
                     "not monotone in tier", id="falling-costs"),
        pytest.param("cost_table", "high", lambda f: f[:3] + [str(2**53 + 1)], True,
                     "deployment cost must be >= 0 cents and at most 2**53, in whole cents, "
                     f"not {2**53 + 1}", id="cost-past-the-float-range"),
        pytest.param("demographics", None, lambda f: None, False,
                     "areas without demographics", id="missing-area"),
        pytest.param("demographics", None, lambda f: f[:2] + ["-1", f[3]], True,
                     "area A00: population must be an integer >= 0, not -1",
                     id="negative-population"),
        pytest.param("demographics", None, lambda f: f[:2] + ["9" * 401, f[3]], True,
                     "population above 2**53", id="population-past-the-float-range"),
        pytest.param("demographics", None, lambda f: f[:3] + ["nan"], True,
                     "land area", id="nan-land-area"),
        pytest.param("demographics", None, lambda f: f[:3] + ["inf"], True,
                     "land area", id="infinite-land-area"),
        pytest.param("demographics", None, lambda f: f[:3] + ["-5"], True,
                     "land area", id="negative-land-area"),
        pytest.param("catalog", None, lambda f: f[:4] + ["-1", f[5]], True,
                     "product P00: eligibility points must be an integer >= 0, not -1",
                     id="negative-points"),
        pytest.param("catalog", None, lambda f: f[:5] + ["-5"], True,
                     "product P00: opening price must be >= 0 cents and at most 2**53, "
                     "in whole cents, not -500", id="negative-opening-price"),
        pytest.param("bids", None, lambda f: ["0", *f[1:]], True,
                     "round must be >= 1", id="round-zero")])
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

    def one_product(self, root, catalog, demographics, base=1):
        """The files, under `root`, of a run over product A: the catalog and
        demographics rows given, and the model of bidder b1, whose base holds
        `base` of A and whose ladder of A has the levels 1 and 3."""
        root.mkdir(exist_ok=True)
        files = {"catalog": root / "catalog.csv", "demographics": root / "demo.csv",
                 "inventory": root / "inventory.csv", "models": root / "models",
                 "cost_table": root / "costs.csv"}
        files["catalog"].write_text("product_id,area_id,area_class,supply,eligibility_points,"
                                    "opening_price_cad\n" + "".join(f"{row},3,1,100\n"
                                                                    for row in catalog))
        files["demographics"].write_text("area_id,area_class,population,land_area_km2\n"
                                         + "".join(f"{row},90000,10\n" for row in demographics))
        files["inventory"].write_text("bidder_id,area_id,tower_count\nb1,X1,0\n")
        files["cost_table"].write_text(cost_table_to_csv(
            TieredValuationAdjustment.zero(["b1"], ["X1"])))
        files["models"].mkdir()
        (files["models"] / "model_b1.json").write_text(json.dumps({
            "bidder_id": "b1",
            "bases": [{"base_id": "b1/base0", "products": {"A": base}, "value_cents": 50000}],
            "marginals": [{"product_id": "A", "level": 1, "value_cents_per_unit": 0},
                          {"product_id": "A", "level": 3, "value_cents_per_unit": 10000}]}))
        return files

    @pytest.mark.parametrize("command", ["simulate", "simulate-extended"])
    def test_a_base_quantity_off_its_ladder_is_refused(self, command, tmp_path):
        """The value of a base's own quantity is a level of its ladder: at 2,
        between the levels 1 and 3, it has none."""
        def argv(files):
            return [command, "--catalog", files["catalog"], "--models", files["models"],
                    "--out", files["models"].parent / "out", *(
                        ["--cost-table", files["cost_table"]]
                        if command == "simulate-extended" else [])]
        off = self.one_product(tmp_path / "off", ["A,X1,rural"], ["X1,rural"], base=2)
        assert run_captured(argv(off)) == (2, f"error: {off['models'] / 'model_b1.json'}: base "
                                              "'b1/base0': quantity 2 of 'A' is not on its "
                                              "ladder\n")
        assert not (tmp_path / "off" / "out").exists()
        on = self.one_product(tmp_path / "on", ["A,X1,rural"], ["X1,rural"], base=3)
        assert run_captured(argv(on)) == (0, "")

    def test_an_area_in_two_classes_is_refused(self, tmp_path):
        files = self.one_product(tmp_path, ["A,X1,rural", "B,X1,metro"], ["X1,remote"])
        assert run_captured(reading("demographics", files, tmp_path / "out")) == (
            2, f"error: {files['catalog']}: area 'X1' is 'rural' for product A, "
               "but 'metro' for product B\n")

    @pytest.mark.parametrize("command", ["cost-table", "simulate-extended"])
    def test_demographics_in_another_class_are_refused(self, command, tmp_path):
        """An area's class is the catalog's: demographics that give it
        another fail at their line, before any area is priced."""
        files = self.one_product(tmp_path, ["A,X1,rural"], ["X0,urban", "X1,metro"])
        argv = (reading("demographics", files, tmp_path / "out") if command == "cost-table"
                else reading("cost_table", files, tmp_path / "out")
                + ["--demographics", files["demographics"]])
        assert run_captured(argv) == (2, f"error: {files['demographics']}:3: area 'X1' is "
                                         "'rural' in the catalog, not 'metro'\n")
        assert not (tmp_path / "out").exists()

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

    def test_extended_rejects_a_population_past_the_float_range(self, inputs, tmp_path):
        lines = inputs["demographics"].read_text().splitlines()
        i = data_lines(lines)[0]
        fields = lines[i].split(",")
        lines[i] = ",".join(fields[:2] + ["9" * 401, fields[3]])
        files = with_file(inputs, "demographics", lines, tmp_path)
        code, err = run_captured(reading("cost_table", files, tmp_path / "out")
                                 + ["--demographics", files["demographics"]])
        assert code == 2
        assert f"{files['demographics']}:{i + 1}:" in err and "population above 2**53" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["catalog", "bids"])
    def test_comment_lines_accepted(self, inputs, which, tmp_path):
        lines = inputs[which].read_text().splitlines()
        lines = ["# manifest 0"] + lines[:2] + ["# a note", ""] + lines[2:]
        files = with_file(inputs, which, lines, tmp_path)
        assert run_captured(reading(which, files, tmp_path / "out"))[0] == 0

    @pytest.mark.parametrize("which", ["catalog", "bids"])
    def test_a_byte_order_mark_is_read(self, inputs, which, tmp_path):
        """A CSV saved as "CSV UTF-8" by a spreadsheet begins with a
        byte-order mark; it reads as the same file without one."""
        path = tmp_path / f"{which}.csv"
        path.write_text(inputs[which].read_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        for out, files in (("plain", inputs), ("marked", {**inputs, which: path})):
            assert run_captured(reading(which, files, tmp_path / out)) == (0, "")
        assert (tmp_path / "marked" / "bids.csv").read_bytes() == \
            (tmp_path / "plain" / "bids.csv").read_bytes()

    def test_a_model_file_with_a_byte_order_mark_is_read(self, inputs, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for path in sorted(inputs["models"].glob("model_*.json")):
            (models / path.name).write_text(path.read_text(), encoding="utf-8-sig")
        for out, where in (("plain", inputs["models"]), ("marked", models)):
            assert run_captured(["simulate", "--catalog", inputs["catalog"],
                                 "--models", where, "--out", tmp_path / out]) == (0, "")
        assert (tmp_path / "marked" / "trace.jsonl").read_bytes() == \
            (tmp_path / "plain" / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("column, value", [("opening_price_cad", "1/0"),
                                               ("opening_price_cad", "9" * 401),
                                               ("opening_price_cad", "1/2"),
                                               ("opening_price_cad", '"1,0,0"'),
                                               ("opening_price_cad", "1e10000000"),
                                               ("supply", "0")])
    def test_bad_catalog_field(self, inputs, column, value, tmp_path):
        """Exit 2 at `file:line`, at once: an exponent alone far past 2**53
        cents is refused before `Fraction` builds its ten million digits."""
        lines = inputs["catalog"].read_text().splitlines()
        fields = lines[1].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[1] = ",".join(fields)
        files = with_file(inputs, "catalog", lines, tmp_path)
        start = time.perf_counter()
        code, err = run_captured(reading("catalog", files, tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"{files['catalog']}:2:" in err

    @pytest.mark.parametrize("which, column, value", [
        pytest.param("bids", "quantity", "1_0", id="underscore-quantity"),
        pytest.param("bids", "quantity", "\u0662", id="arabic-indic-quantity"),
        pytest.param("bids", "round", "\uff11", id="fullwidth-round"),
        pytest.param("catalog", "supply", "1_2", id="underscore-supply"),
        pytest.param("catalog", "opening_price_cad", "1_000", id="underscore-price"),
        pytest.param("catalog", "supply", "\u0663", id="arabic-indic-supply"),
        pytest.param("catalog", "opening_price_cad", "\u0663", id="arabic-indic-price"),
        pytest.param("catalog", "eligibility_points", "\u0661", id="arabic-indic-points"),
        pytest.param("demographics", "population", "2_000", id="underscore-population"),
        pytest.param("demographics", "land_area_km2", "5_0.5", id="underscore-land-area"),
        pytest.param("demographics", "land_area_km2", "\u0665", id="arabic-indic-land-area"),
        pytest.param("inventory", "tower_count", "\u0661", id="arabic-indic-towers"),
        pytest.param("cost_table", "cost_cents", "0_0", id="underscore-cost")])
    def test_numbers_are_plain_ascii_decimals(self, inputs, which, column, value, tmp_path):
        """`int`, `float` and `Fraction` read `1_0` as 10 and `\u0662` as 2; a
        CSV field is a number only as plain ASCII, else exit 2 at `file:line`."""
        lines = inputs[which].read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#")).split(",")
        i = data_lines(lines)[0]
        fields = lines[i].split(",")
        fields[header.index(column)] = value
        lines[i] = ",".join(fields)
        files = with_file(inputs, which, lines, tmp_path)
        code, err = run_captured(reading(which, files, tmp_path / "out"))
        assert code == 2
        assert f"{files[which]}:{i + 1}: {value!r} is not a plain ASCII number" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("line, damage", [
        pytest.param(0, lambda doc: doc.update(round="x"), id="round-a-string"),
        pytest.param(0, lambda doc: doc.update(round=1.5), id="fractional-round"),
        pytest.param(1, lambda doc: doc.update(round=1), id="repeated-round"),
        pytest.param(0, lambda doc: doc.update(round=2), id="reversed-rounds"),
        pytest.param(0, lambda doc: doc.update(round=0), id="round-zero"),
        pytest.param(0, lambda doc: doc.update(round=-3), id="negative-round"),
        pytest.param(0, lambda doc: doc.update(round=True), id="boolean-round"),
        pytest.param(0, lambda doc: next(bid for bid in doc["bids"].values() if bid).update(
            {min(next(bid for bid in doc["bids"].values() if bid)): 1.7}),
                     id="fractional-quantity"),
        pytest.param(0, lambda doc: doc["posted"].update(
            {min(doc["posted"]): math.inf}), id="infinite-price"),
        pytest.param(0, lambda doc: next(iter(doc["bids"].values())).update(NOPE=1),
                     id="product-off-the-catalog"),
        pytest.param(-1, lambda doc: doc["aggregate"].update({min(doc["aggregate"]): 1_000_000}),
                     id="aggregate-not-the-sum-of-bids")])
    def test_report_rejects_malformed_trace(self, inputs, line, damage, tmp_path):
        lines = inputs["trace"].read_text().splitlines()
        assert len(lines) >= 2
        doc = json.loads(lines[line])
        damage(doc)
        lines[line] = json.dumps(doc)
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        code, err = run_captured(["report", "--catalog", inputs["catalog"],
                                  "--trace-a", inputs["trace"], "--trace-b", trace,
                                  "--out", tmp_path / "rep"])
        assert code == 2
        assert f"{trace}:{line % len(lines) + 1}:" in err and "Traceback" not in err

    BAD_BIDDER_IDS = [pytest.param("", id="empty"), pytest.param("x/y", id="slash"),
                      pytest.param("x\\y", id="backslash"), pytest.param("x\0y", id="nul")]

    @pytest.mark.parametrize("bidder", BAD_BIDDER_IDS)
    def test_estimate_rejects_a_bidder_id_that_names_no_file(self, inputs, bidder, tmp_path):
        lines = inputs["bids"].read_text().splitlines()
        first = data_lines(lines)[0]
        renamed = lines[first].split(",")[1]
        for i in data_lines(lines):
            fields = lines[i].split(",")
            if fields[1] == renamed:
                lines[i] = ",".join([fields[0], bidder, *fields[2:]])
        files = with_file(inputs, "bids", lines, tmp_path)
        out = tmp_path / "out"
        code, err = run_captured(["estimate", "--catalog", files["catalog"],
                                  "--bids", files["bids"], "--out", out])
        assert code == 2
        assert f"{files['bids']}:{first + 1}:" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("bidder", BAD_BIDDER_IDS)
    def test_report_rejects_a_bidder_id_that_names_no_file(self, inputs, bidder, tmp_path):
        lines = inputs["trace"].read_text().splitlines()
        doc = json.loads(lines[0])
        renamed = next(b for b, bid in doc["bids"].items() if bid)
        doc["bids"][bidder] = doc["bids"].pop(renamed)
        doc["eligibility"][bidder] = doc["eligibility"].pop(renamed)
        lines[0] = json.dumps(doc)
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rep"
        code, err = run_captured(["report", "--catalog", inputs["catalog"],
                                  "--trace-a", inputs["trace"], "--trace-b", trace,
                                  "--out", out])
        assert code == 2
        assert f"{trace}:1:" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda doc: doc.pop("bases"), id="no-bases"),
        pytest.param(lambda doc: doc.update(marginals=[{}]), id="empty-marginal"),
        pytest.param(lambda doc: doc["bases"][0]["products"].update(nowhere=1),
                     id="base-product-off-the-catalog"),
        pytest.param(lambda doc: doc.update(marginals=[
            m for m in doc["marginals"]
            if m["product_id"] != min(doc["bases"][0]["products"])]),
                     id="base-product-without-a-ladder"),
        pytest.param(lambda doc: doc["marginals"].append(
            {"product_id": "nowhere", "level": 1, "value_cents_per_unit": 0.0}),
                     id="ladder-product-off-the-catalog"),
        pytest.param(lambda doc: doc["marginals"].append(
            {"product_id": min(doc["bases"][0]["products"]), "level": 99,
             "value_cents_per_unit": 0.0}), id="level-above-supply"),
        pytest.param(lambda doc: doc["bases"][0]["products"].update(
            {min(doc["bases"][0]["products"]): 99}), id="base-quantity-above-its-ladder"),
        pytest.param(lambda doc: doc["bases"][0]["products"].update(
            {min(doc["bases"][0]["products"]): 0}), id="zero-base-quantity"),
        pytest.param(lambda doc: doc["bases"][0].update(value_cents=math.nan),
                     id="nan-value"),
        pytest.param(lambda doc: doc["bases"][0].update(value_cents=math.inf),
                     id="infinite-value"),
        pytest.param(lambda doc: doc["marginals"][-1].update(
            value_cents_per_unit=doc["marginals"][-1]["value_cents_per_unit"] + 0.5),
                     id="fractional-cent"),
        pytest.param(lambda doc: doc.update(bidder_id=[]), id="bidder-id-not-a-string"),
        pytest.param(lambda doc: doc.update(bidder_id="x/y"), id="bidder-id-not-a-file-name"),
        # each below was read through int() or float() and so accepted
        pytest.param(lambda doc: doc["marginals"][-1].update(
            level=doc["marginals"][-1]["level"] + 0.5), id="fractional-level"),
        pytest.param(lambda doc: doc["marginals"][-1].update(
            level=str(doc["marginals"][-1]["level"])), id="level-a-string"),
        pytest.param(lambda doc: next(m for m in doc["marginals"] if m["level"] == 1).update(
            level=True), id="boolean-level"),
        pytest.param(lambda doc: doc["bases"][0]["products"].update(
            {j: q + 0.5 for j, q in doc["bases"][0]["products"].items()}),
                     id="fractional-base-quantity"),
        pytest.param(lambda doc: doc["marginals"][-1].update(
            value_cents_per_unit=str(doc["marginals"][-1]["value_cents_per_unit"])),
                     id="value-a-string"),
        pytest.param(lambda doc: doc["bases"][0].update(value_cents=True),
                     id="boolean-value")])
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
        assert f"{bad}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, key", [
        pytest.param(lambda doc: doc.pop("bases"), "bases", id="no-bases"),
        pytest.param(lambda doc: doc["marginals"][-1].pop("value_cents_per_unit"),
                     "value_cents_per_unit", id="marginal-without-a-value")])
    def test_a_model_file_names_its_missing_key(self, inputs, damage, key, tmp_path):
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
        assert err.strip() == f"error: {bad}: missing key {key!r}"

    def test_a_trace_line_names_its_missing_key(self, inputs, tmp_path):
        lines = inputs["trace"].read_text().splitlines()
        doc = json.loads(lines[0])
        del doc["aggregate"]
        lines[0] = json.dumps(doc)
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        code, err = run_captured(["report", "--catalog", inputs["catalog"],
                                  "--trace-a", inputs["trace"], "--trace-b", trace,
                                  "--out", tmp_path / "rep"])
        assert code == 2
        assert err.strip() == f"error: {trace}:1: missing key 'aggregate'"

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
        pytest.param("delta: -0.5\n", "'delta'", id="negative-delta"),
        pytest.param("delta: '0.15'\n", "'delta'", id="string-delta"),
        pytest.param("delta: true\n", "'delta'", id="boolean-delta"),
        pytest.param("cost: {inflation: .inf}\n", "cost: 'inflation'", id="infinite-inflation"),
        pytest.param("cost: {currency_premium: .inf}\n", "cost: 'currency_premium'",
                     id="infinite-currency-premium"),
        pytest.param("cost: {market_markup: .inf}\n", "cost: 'market_markup'",
                     id="infinite-market-markup"),
        pytest.param("cost: {spacing_km: {rural: .inf}}\n", "spacing_km rural",
                     id="infinite-spacing"),
        pytest.param("cost: {tower_cost_low_cad: 1e308}\n",
                     "cost: 'tower_cost_low_cad': tower_cost_low must be >= 0 cents and at most",
                     id="huge-money"),
        pytest.param("cost: {tower_cost_low_cad: 1e400}\n",
                     "cost: 'tower_cost_low_cad': tower_cost_low must be >= 0 cents and at most",
                     id="money-past-the-float-range"),
        pytest.param("cost: {tower_cost_low_cad: '1/2'}\n",
                     "cost: 'tower_cost_low_cad': '1/2' is not a dollar amount",
                     id="ratio-money"),
        pytest.param("cost: {market_markup: 1e308}\n",
                     "cost: 'market_markup': one tower with its fibre may cost inf cents",
                     id="huge-market-markup"),
        pytest.param("cost: {market_markup: true}\n",
                     "cost: 'market_markup': must be a number, not True",
                     id="boolean-market-markup"),
        pytest.param("coverage_targets: {rural: {low: true}}\n",
                     "coverage_targets: ('rural', 'low'): must be a number, not True",
                     id="boolean-coverage-target"),
        pytest.param("cost: {spacing_km: {rural: yes}}\n",
                     "spacing_km: 'rural': must be a number, not True",
                     id="boolean-spacing"),
        pytest.param("delta: 0.1\ndelta: 0.2\n", "repeated key 'delta'", id="repeated-key"),
        pytest.param("cost:\n  inflation: 0.1\n  inflation: 0.2\n", "repeated key 'inflation'",
                     id="repeated-cost-key")])
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
                                "9" * 30, "9" * 401, "#", "P00", "A00", "B0", "low",
                                "x y"]),
               st.text(alphabet="0123456789-./#\"', abcPAB", max_size=6)))
    def test_fuzzed_row_never_raises(self, inputs, which, row, op, column, keep,
                                     value):
        """One row of a CSV changed: exit 0 or 2, never a traceback.  A
        catalog is also replayed by `simulate`, which reads its prices and
        points where `ingest` does not.  The one warning a run may give is
        the inventory's, for a (bidder, area) whose row went."""
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
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            files = with_file(inputs, which, lines, Path(tmp))
            codes = [run_captured(reading(which, files, Path(tmp) / "out"))[0]]
            if which == "catalog":
                codes.append(run_captured(["simulate", "--catalog", files["catalog"],
                                           "--models", files["models"],
                                           "--out", Path(tmp) / "sim"])[0])
        assert all(code in (0, 2) for code in codes)
        assert all(w.category is UserWarning and which == "inventory" and
                   re.fullmatch(r"no tower inventory for \(.*\); assuming 0", str(w.message))
                   for w in caught), [str(w.message) for w in caught]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(command=st.sampled_from(["simulate", "simulate-extended"]),
           which=st.integers(0, 100), at=st.integers(0, 10_000),
           change=st.sampled_from(["missing", "nan", "sign", "type", "float"]),
           value=st.sampled_from(["", "x", None, True, [], {}, 0, 2.5]))
    def test_fuzzed_model_never_raises(self, inputs, command, which, at, change, value):
        """One JSON value of a model file changed, by its type, its sign, to
        NaN or to a float where an integer belongs, or its key removed: exit 0
        or 2, never a traceback."""
        files = sorted(inputs["models"].glob("model_*.json"))
        path = files[which % len(files)]
        doc = json.loads(path.read_text())
        where = list(json_values(doc))
        key, value_at = where[at % len(where)]
        parent = functools.reduce(operator.getitem, key[:-1], doc)
        if change == "missing":
            del parent[key[-1]]
        elif change == "nan":
            parent[key[-1]] = math.nan
        elif change == "sign":
            number = isinstance(value_at, (int, float)) and not isinstance(value_at, bool)
            parent[key[-1]] = -value_at if number else -1
        elif change == "float":
            integer = isinstance(value_at, int) and not isinstance(value_at, bool)
            parent[key[-1]] = value_at + 0.5 if integer else 2.5
        else:
            parent[key[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            models = Path(tmp) / "models"
            models.mkdir()
            for other in files:
                (models / other.name).write_text(
                    json.dumps(doc) if other == path else other.read_text())
            argv = [command, "--catalog", inputs["catalog"], "--models", models,
                    "--out", Path(tmp) / "out"]
            if command == "simulate-extended":
                argv += ["--cost-table", inputs["cost_table"]]
            code, _ = run_captured(argv)
        assert code in (0, 2)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(line=st.integers(0, 1000), at=st.integers(0, 10_000), other=st.integers(0, 1000),
           change=st.sampled_from(["missing", "nan", "sign", "type", "swap"]),
           value=st.sampled_from(["", "x", None, True, [], {}, 0, 2.5]))
    def test_fuzzed_trace_never_raises(self, inputs, line, at, other, change, value):
        """One JSON value of one trace line changed, by its type, its sign or
        to NaN, or its key removed, or two lines swapped: `report` exits 0 or
        2, never with a traceback."""
        lines = inputs["trace"].read_text().splitlines()
        i = line % len(lines)
        if change == "swap":
            j = other % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            doc = json.loads(lines[i])
            where = list(json_values(doc))
            key, value_at = where[at % len(where)]
            parent = functools.reduce(operator.getitem, key[:-1], doc)
            if change == "missing":
                del parent[key[-1]]
            elif change == "nan":
                parent[key[-1]] = math.nan
            elif change == "sign":
                number = isinstance(value_at, (int, float)) and not isinstance(value_at, bool)
                parent[key[-1]] = -value_at if number else -1
            else:
                parent[key[-1]] = value
            lines[i] = json.dumps(doc)
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "trace.jsonl"
            trace.write_text("\n".join(lines) + "\n")
            code, _ = run_captured(["report", "--catalog", inputs["catalog"],
                                    "--trace-a", inputs["trace"], "--trace-b", trace,
                                    "--out", Path(tmp) / "rep"])
        assert code in (0, 2)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(command=st.sampled_from(["estimate", "simulate", "simulate-extended", "report",
                                    "roundtrip-check"]),
           at=st.integers(0, 10_000), change=st.sampled_from(["set", "sign", "drop", "repeat"]),
           value=st.sampled_from(["", "x", None, True, [], {}, 0, 2.5, math.nan, math.inf,
                                  1e308, "1e308", "1e400"]))
    def test_fuzzed_config_never_raises(self, inputs, command, at, change, value):
        """One value of a config that sets every key changed, by its type, its
        sign, to NaN, infinity or 1e308 (as a float, and as the YAML text
        `1e308` or `1e400`, which reads as a string), or one key dropped or
        repeated: every command that takes `--config` exits 0 or 2, never
        with a traceback.  Each config goes to `cost-table`, which reads
        every cost value, and to one other command."""
        doc = {"delta": 0.15, "max_rounds": 200,
               "coverage_targets": {"metro": {"low": 0.5, "high": 0.75},
                                    "rural": {"medium": 0.3}},
               "cost": {"tower_cost_low_cad": 286176, "tower_cost_high_cad": "360481.50",
                        "fibre_cost_per_km_cad": 50000, "market_markup": 0.1,
                        "inflation": 0.1, "currency_premium": 0.3, "pop_per_tower": 20000,
                        "tower_costs_post_adjustment": False,
                        "spacing_km": {"rural": 7.5, "remote": 15}}}
        where = list(json_values(doc))
        key, value_at = where[at % len(where)]
        parent = functools.reduce(operator.getitem, key[:-1], doc)
        if change == "set":
            parent[key[-1]] = value
        elif change == "sign":
            number = isinstance(value_at, (int, float)) and not isinstance(value_at, bool)
            parent[key[-1]] = -value_at if number else -1
        elif change == "float":
            integer = isinstance(value_at, int) and not isinstance(value_at, bool)
            parent[key[-1]] = value_at + 0.5 if integer else 2.5
        elif change == "drop":
            del parent[key[-1]]
        lines = yaml.safe_dump(doc, default_flow_style=False).splitlines()
        if change == "repeat":
            lines.insert(at % len(lines), lines[at % len(lines)])
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
            config.write_text("\n".join(lines) + "\n")
            argv = {"cost-table": ["--demographics", inputs["demographics"],
                                   "--inventory", inputs["inventory"], "--out", out],
                    "estimate": ["--bids", inputs["bids"], "--out", out],
                    "simulate": ["--models", inputs["models"], "--out", out],
                    "simulate-extended": ["--models", inputs["models"],
                                          "--cost-table", inputs["cost_table"],
                                          "--demographics", inputs["demographics"],
                                          "--out", out],
                    "report": ["--trace-a", inputs["trace"], "--trace-b", inputs["trace"],
                               "--out", out],
                    "roundtrip-check": ["--bids", inputs["bids"]]}
            for name in ("cost-table", command):
                code, _ = run_captured([name, "--catalog", inputs["catalog"],
                                        "--config", config, *argv[name]])
                assert code in (0, 2), name
