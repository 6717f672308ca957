"""The benchmark's own test, on tiny inputs.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

assert run.use_checkout() is None
import workloads  # noqa: E402


def bench_result(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench_result(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                        "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["metrics"]["identical_ratio"]["value"] == 1.0
        # wall_s is the median of the measured run times scaled to the
        # reference host speed, and the record keeps both
        record = json.loads((ROOT / ".bench_results" /
                             f"{workload}-seed1-trace0.json").read_text(encoding="utf-8"))
        samples = record["samples"]
        assert result["metrics"]["wall_s"]["value"] == statistics.median(
            t * f for t, f in zip(samples["wall_s"], samples["wall_factor"]))
        assert result["metrics"]["setup_s"]["value"] == statistics.median(
            samples["setup_s"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_result(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def tamper_after(monkeypatch, edit):
    """Let every CLI step run, then apply `edit` to its output directory."""
    from clockauction import cli
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        edit(Path(argv[argv.index("--out") + 1]), argv[0])
        return code

    monkeypatch.setattr(cli, "main", main)


def set_json(path: Path, key: str, value) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")


def report_violation(out: Path, step: str) -> None:
    if step == "estimate":
        report = json.loads((out / "estimation_report.json").read_text())
        next(iter(report["bidders"].values()))["violations"] = {"revealed_preference": 1}
        (out / "estimation_report.json").write_text(json.dumps(report))


def replay_edit(edit):
    """`edit` applied to the output of estimate-log's simulate step only."""
    return lambda out, step: edit(out) if step == "simulate" else None


def worse_bid(out: Path) -> None:
    """Replace one kept bid of the first round by an empty one (an early exit)
    and fix the aggregates, so that only the optimality spot-check can see it."""
    rounds = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    first = rounds[0]
    bidder = next(b for b, bid in sorted(first["bids"].items()) if bid)
    for j, q in first["bids"][bidder].items():
        first["aggregate"][j] -= q
    first["aggregate"] = {j: q for j, q in first["aggregate"].items() if q}
    first["bids"][bidder] = {}
    (out / "trace.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rounds))


@pytest.mark.parametrize("workload, edit", [
    ("estimate-log", replay_edit(lambda out: set_json(out / "summary.json",
                                                      "revenue_cents", 1))),
    ("estimate-log", replay_edit(lambda out: set_json(out / "summary.json",
                                                      "truncated", True))),
    ("estimate-log", replay_edit(lambda out: (out / "trace.jsonl").write_text(
        '{"round": 1}\n'))),
    ("estimate-log", replay_edit(worse_bid)),
    ("tiered-auction",
     lambda out, step: set_json(out / "summary_tiered.json", "final_allocation", {})),
    ("estimate-log", report_violation),
])
def test_tampered_artifact_counts_as_a_failure(tmp_path, monkeypatch, workload, edit):
    bench = run.Bench(workload, 1, "tiny", tmp_path, committed=False)
    _, clean = bench.run_once(0)
    assert clean is not None and bench.failed == 0
    tamper_after(monkeypatch, edit)
    _, digest = bench.run_once(1)
    assert digest is None
    assert bench.failed == 1
    assert bench.attempted == 2 * len(workloads.steps(bench.inst, tmp_path))


def test_changed_bytes_lower_only_identical_ratio(tmp_path, monkeypatch):
    bench = run.Bench("estimate-log", 1, "tiny", tmp_path, committed=False)
    _, clean = bench.run_once(0)
    tamper_after(monkeypatch, lambda out, step: (out / "manifest.json").write_text(
        (out / "manifest.json").read_text() + " "))
    _, digest = bench.run_once(1)
    assert bench.failed == 0
    assert clean == bench.reference["digest"]
    assert digest is not None and digest != clean


def test_a_missing_traced_layer_is_an_error(monkeypatch):
    import spans
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("clockauction.engine", "no_such_layer", "engine.none", {}, None)])
    recorder = spans.Recorder()
    with pytest.raises(RuntimeError, match="no_such_layer"):
        recorder.install()
    from clockauction import engine
    assert not hasattr(engine.best_copies, "__wrapped__")
