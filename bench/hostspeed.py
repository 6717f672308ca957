"""A fixed probe of the host's current speed, independent of the package.

The benchmark runs on shared virtual machines whose speed changes under it:
on the one it was tuned on, every vCPU at once switched between fast and slow
spells (about 1.7 times slower) lasting seconds to minutes, so the median of
a 45-second window moved by a quarter from one window to the next while the
work stayed the same.  A probe timed right before and right after each run
sees the same spells, so a run's time divided by its probes' mean time
measures the work rather than the host.  `scale(before, after)` turns that
ratio into seconds at the reference speed: a run's time as it would read on
a host where the probe takes REFERENCE_S.

The probe mixes what the workloads spend their time on: interpreted loops
over dicts and floats, pivots on a small NumPy tableau one row at a time, and
JSON (de)serialization.  It uses only Python and NumPy, so no change to the
package can speed it up or slow it down.
"""

from __future__ import annotations

import json
import time

import numpy as np

# the probe's time on the 2-vCPU Intel Xeon virtual machine the benchmark was
# tuned on (Python 3.11, NumPy 2.4) in its fast spells; in its slow ones the
# probe took 0.22 to 0.26 s
REFERENCE_S = 0.15


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(180_000):
        acc += (i % 13) * 0.5
        table[i & 511] = table.get(i & 511, 0.0) + acc
    tableau = np.linspace(1.0, 2.0, 16 * 40).reshape(16, 40)
    for k in range(1_800):
        leave = k % 16
        tableau[leave, :] /= tableau[leave, k % 40]
        for i in range(16):
            if i != leave and abs(tableau[i, k % 40]) > 0:
                tableau[i, :] -= 1e-3 * tableau[i, k % 40] * tableau[leave, :]
    doc = {f"B{i:03d}": {f"P{j:03d}": i * j for j in range(20)} for i in range(40)}
    for _ in range(60):
        doc = json.loads(json.dumps(doc, sort_keys=True))
    if not np.isfinite(tableau).all() or len(doc) != 40 or not acc:
        raise RuntimeError("host-speed probe computed a wrong result")
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed, for
    work done between two probes."""
    return REFERENCE_S / ((before + after) / 2)
