"""Benchmark of the clockauction command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It writes the seed's inputs under
`.bench_work/`, discards one warm-up run, then for S seconds runs the
workload's CLI steps through `clockauction.cli.main` in this process, each
run preceded by one set-up measurement in a fresh interpreter and bracketed
by two probes of the host's speed, checking every run's artifacts outside the
timed region.
Times are medians over the window; each run's time is first scaled to the
reference host speed by the probes on either side (bench/hostspeed.py).
With `--trace 1` it alternates untraced and traced runs and reports the
per-layer figures instead of the end-to-end ones.  The last line of
standard output is the result as one JSON object; the full record (sizes,
samples, provenance, spans of the last traced run) goes to
`.bench_results/`.  See bench/README.md.
"""

from __future__ import annotations

import os

# one thread in every numeric library, set before NumPy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# import the CLI and pay the lazy set-up of the first solve of each backend
SETUP_CODE = """\
import clockauction.cli
from clockauction.solver import LinearProgram, solve_lp
lp = LinearProgram()
lp.add_variable("x", 0.0, 1.0)
lp.objective = {"x": -1.0}
assert solve_lp(lp, backend="highs").status == "optimal"
assert solve_lp(lp).status == "optimal"
"""


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(samples) -> list[float]:
    """Seconds at the reference host speed of (measured, factor) samples."""
    return [seconds * factor for seconds, factor in samples]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports the CLI and solves once."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed


def provenance() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Bench:
    """One benchmark invocation: inputs, runs, checks and the figures."""

    def __init__(self, workload: str, seed: int, size: str, work: Path,
                 committed: bool = True):
        """`committed=False` ignores bench/references.json, so the first run
        becomes the reference (used when recording references)."""
        import workloads
        self.workload, self.seed, self.size, self.work = workload, seed, size, work
        self.inst = workloads.generate(workload, seed, size, work / "inputs")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = (load_references().get(size, {}).get(workload, {}).get(str(seed))
                          if committed else None)
        self.reference_source = "committed" if self.reference else "warm-up run"
        self._checked: dict[str, dict] = {}
        self._last_digest: str | None = None
        self.facts: dict = {}

    def run_once(self, index: int) -> tuple[float, str | None]:
        """Run every CLI step once; returns (seconds, artifact digest or None)."""
        import workloads
        from clockauction import cli
        out = self.work / f"run{index}"
        steps = workloads.steps(self.inst, out)
        codes, errors = [], []
        gc.collect()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for _, argv, _ in steps:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a traceback is a failed step, not a crash
                    codes.append(None)
                    errors.append(traceback.format_exc())
                if codes[-1] != 0:
                    break
        elapsed = time.perf_counter() - start
        self.attempted += len(steps)
        if len(codes) < len(steps) or codes[-1] != 0:
            self.failed += len(steps) - sum(1 for c in codes if c == 0)
            self._note(f"run {index}: exit codes {codes}\n{sink.getvalue()}"
                       + "".join(errors))
            shutil.rmtree(out, ignore_errors=True)
            return elapsed, None
        try:
            found = self._validate([d for _, _, d in steps])
        except (KeyError, TypeError, ValueError) as exc:  # malformed artifact
            found = {steps[-1][0]: [f"malformed artifact: {exc!r}"]}
        for name, _, _ in steps:
            if found.get(name):
                self.failed += 1
                self._note(f"run {index}: {name}: " + "; ".join(found[name][:5]))
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, (None if any(found.values()) else self._last_digest)

    def _note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def _validate(self, dirs: list[Path]) -> dict[str, list[str]]:
        """Problems per step; identical artifacts are checked only once."""
        import validity
        self._last_digest = validity.digest(dirs)
        if self._last_digest in self._checked:
            return self._checked[self._last_digest]
        inst, found = self.inst, {}
        if self.workload == "tiered-auction":
            facts = validity.check_auction(dirs[0], inst.catalog, tiered=True)
            found["simulate-extended"] = facts.problems
        else:
            bidders = {b for b, bundle in inst.truth.rounds[0].bids.items() if bundle}
            bad, objective = validity.check_estimate(dirs[0], bidders)
            ref = self.reference["objective"] if self.reference else None
            if ref is None:
                self.reference = {"digest": self._last_digest, "objective": objective}
            elif not validity.objective_matches(objective, ref):
                bad.append(f"objective {objective!r} differs from reference {ref!r}")
            found["estimate"] = bad
            self.facts["objective"] = objective
            facts = validity.check_auction(dirs[1], inst.catalog, tiered=False)
            if not bad and not facts.problems:
                # the replay must bid optimally for the models the estimate wrote
                facts.problems.extend(validity.spot_check(
                    facts, validity.load_agents(dirs[0]), inst.catalog, self.seed))
            found["simulate"] = facts.problems
            if not facts.problems:
                self.facts["roundtrip_rmse"] = roundtrip_rmse(inst, facts)
        self.facts.update(decisions=facts.decisions, emitted_rows=facts.emitted_rows,
                          rounds=len(facts.rounds))
        if self.reference is None:
            self.reference = {"digest": self._last_digest, "objective": None}
        self._checked[self._last_digest] = found
        return found


def roundtrip_rmse(inst, facts) -> float:
    """Mean per-bidder RMSE between the truth auction's final allocation and
    the replay with estimated models."""
    from clockauction.core import Bundle
    from clockauction.engine import compare_allocations
    truth = inst.truth.final_allocation
    replay = facts.summary["final_allocation"]
    _, mean = compare_allocations(
        dict(truth), {b: Bundle(replay.get(b, {})) for b in truth}, inst.catalog)
    return mean


def load_references() -> dict:
    path = BENCH / "references.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def measure(args) -> dict:
    """Warm up, run for `args.seconds`, and collect every figure."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        gen_start = time.perf_counter()
        bench = Bench(args.workload, args.seed, args.size, work)
        generate_s = time.perf_counter() - gen_start
        bench.run_once(0)                                    # warm-up, discarded
        recorder = spans.Recorder()
        # plain holds (measured seconds, factor to reference speed)
        setup, plain, traced, layers, digests, overhead = [], [], [], [], [], []
        probes = []
        last_traced = None
        deadline = time.perf_counter() + args.seconds
        index = 1
        # at least one run of each kind; with tracing, odd runs are traced
        while time.perf_counter() < deadline or index <= 1 + args.trace:
            tracing = bool(args.trace) and index % 2 == 1
            # set-up samples spread over the window like the runs
            setup.append(measure_setup())
            probes.append(hostspeed.probe())
            if tracing:
                recorder.spans.clear()
                recorder.run = index
                recorder.install()
            try:
                elapsed, digest = bench.run_once(index)
            finally:
                recorder.uninstall()
            probes.append(hostspeed.probe())
            factor = hostspeed.scale(probes[-2], probes[-1])
            digests.append(digest)
            if digest is None:
                last_traced = None
            elif tracing:
                traced.append(elapsed)
                layers.append(spans.layer_metrics(recorder.spans))
                last_traced = elapsed
            else:
                plain.append((elapsed, factor))
                # adjacent runs see nearly the same host speed
                if last_traced is not None:
                    overhead.append(last_traced - elapsed)
                last_traced = None
            index += 1
        return {"bench": bench, "setup": setup, "plain": plain, "traced": traced,
                "layers": layers, "digests": digests, "overhead": overhead,
                "probes": probes,
                "generate_s": generate_s,
                "last_spans": list(recorder.spans)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def figures(m: dict) -> tuple[dict, dict]:
    """(end-to-end, per-layer) metrics as {name: {"value", "unit"}}.

    Run times are at the reference host speed (bench/hostspeed.py); set-up
    and per-layer times are as measured."""
    bench = m["bench"]
    wall = _median(_scaled(m["plain"]))
    work_rows = (bench.inst.sizes["rows"] if bench.workload == "estimate-log"
                 else bench.facts.get("emitted_rows", 0))
    ref = bench.reference["digest"] if bench.reference else None
    identical = sum(1 for d in m["digests"] if d is not None and d == ref)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (_median(m["setup"]), "s"),
        "bids_per_s": (bench.facts.get("decisions", 0) / wall if wall else 0.0, "1/s"),
        "log_rows_per_s": (work_rows / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "identical_ratio": (identical / len(m["digests"]), "ratio"),
    }
    per_layer = {}
    if m["layers"]:
        for name, unit in spans.LAYER_UNITS.items():
            values = [layer[name] for layer in m["layers"]]
            # counts repeat exactly from run to run; keep them whole numbers
            per_layer[name] = (statistics.median_low(values) if unit == "count"
                               else _median(values), unit)
        per_layer["trace.overhead_s"] = (_median(m["overhead"]), "s")
    per_layer["roundtrip_rmse"] = (bench.facts.get("roundtrip_rmse", 0.0), "licenses")
    per_layer["fail_ratio"] = (bench.failed / bench.attempted, "ratio")
    return ({k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
            {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()})


def use_checkout() -> str | None:
    """Put this checkout's sources first on the import path; returns an
    error message when they are missing or another copy gets imported."""
    if not (SRC / "clockauction" / "__init__.py").is_file():
        return f"no clockauction sources under {SRC}; run from a source checkout"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import clockauction
    if Path(clockauction.__file__).resolve().parent != SRC / "clockauction":
        return f"imported clockauction from {clockauction.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own test")
    args = parser.parse_args(argv)
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    m = measure(args)
    bench = m["bench"]
    end_to_end, per_layer = figures(m)
    counts = [{k: v for k, v in layer.items() if spans.LAYER_UNITS[k] == "count"}
              for layer in m["layers"]]
    sizes = {**bench.inst.sizes, "auction_rounds": bench.facts.get("rounds"),
             "decisions": bench.facts.get("decisions"),
             "emitted_rows": bench.facts.get("emitted_rows")}
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": sizes,
        # as measured; wall_s is the median of these times their factors
        "samples": {"wall_s": [t for t, _ in m["plain"]],
                    "wall_factor": [f for _, f in m["plain"]],
                    "setup_s": m["setup"], "traced_s": m["traced"],
                    "probe_s": m["probes"], "probe_reference_s": hostspeed.REFERENCE_S},
        "measured_median_wall_s": _median([t for t, _ in m["plain"]]),
        "generate_s": m["generate_s"],
        "reference": bench.reference_source, "digests": m["digests"],
        "objective": bench.facts.get("objective"),
        "attempted": bench.attempted, "failed": bench.failed, "problems": bench.problems,
        "counts_repeat": all(c == counts[0] for c in counts),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "provenance": provenance(),
        "spans": [{"run": s.run, "parent": s.parent, "name": s.name, "start": s.start,
                   "end": s.end, "self_s": own, "attrs": s.attrs}
                  for s, own in zip(m["last_spans"], spans.self_times(m["last_spans"]))],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for text in bench.problems:
        print(f"problem: {text}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {sizes}; {len(m['plain'])} untraced "
          f"and {len(m['traced'])} traced runs; measured median run "
          f"{record['measured_median_wall_s']:.3f} s; record in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": per_layer if args.trace else end_to_end}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
