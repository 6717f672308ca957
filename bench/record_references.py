"""Record the reference artifacts that identical_ratio and the objective check use.

    python3 bench/record_references.py --seeds 0-99 --seeds 1009 [--workload NAME]

Runs each workload once per seed at full size, checks the run, and stores the
SHA-256 digest of its artifacts (and, for estimate-log, the summed estimation
objective) in bench/references.json.  Later runs of a seed found there are
compared with it; other seeds fall back to their own warm-up run.  Record
only at a commit whose outputs are the agreed reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def seed_list(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", action="append", required=True,
                        help="a seed or an inclusive range such as 0-99; repeatable")
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args(argv)
    error = run.use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads
    path = run.BENCH / "references.json"
    run.WORK.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        recorded = {}
        for seed in seed_list(args.seeds):
            work = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-{seed}-", dir=run.WORK))
            try:
                bench = run.Bench(workload, seed, "full", work, committed=False)
                bench.run_once(0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failed:
                print(f"error: {workload} seed {seed} failed:\n"
                      + "\n".join(bench.problems), file=sys.stderr)
                return 1
            recorded[str(seed)] = bench.reference
            print(f"{workload} seed {seed}: {bench.reference['digest'][:16]}", flush=True)
        # merge at the end so that recorders of other workloads can run alongside
        refs = run.load_references()
        refs.setdefault("full", {}).setdefault(workload, {}).update(recorded)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
