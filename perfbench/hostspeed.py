"""Host-speed sampler: the yardstick that end-to-end times are scaled by.

On a shared machine the speed available to one process drifts by up to 2x
over seconds to minutes, and longer runs do not average it out.  A sampler
process runs a fixed probe -- a Python loop of small numpy sorts and
products, the same kind of work the program does -- every ``PERIOD_S``
seconds while the benchmark measures, and records (start, duration) of each
probe on the system-wide monotonic clock.  ``scaled`` turns a measured
interval into the time it would have taken at the probe's reference
duration ``PROBE_REF_S``:

    scaled = measured * PROBE_REF_S / mean probe duration during the interval

The probe is the benchmark's own code, so a change to the program does not
move it.  It keeps about 2% of one CPU busy.

    python3 perfbench/hostspeed.py OUT.json   # samples until stdin closes
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.02
# median probe duration on the host the baseline was measured on (see README)
PROBE_REF_S = 4.0e-4
# an interval shorter than 2 * MARGIN_S is widened to that length around its
# middle, so that it holds several samples
MARGIN_S = 0.1


def _probe(rows) -> float:
    acc = 0.0
    for row in rows:
        acc += float(np.cumprod(1.0 - np.sort(row))[-1])
    return acc


def sample(out: Path) -> None:
    rows = np.random.default_rng(7).random((40, 50))
    _probe(rows)
    print("ready", flush=True)
    samples = []
    while True:
        start = time.monotonic()
        _probe(rows)
        samples.append((start, time.monotonic() - start))
        # waiting on stdin is the pause between probes; EOF ends sampling
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    out.write_text(json.dumps(samples))


class Sampler:
    """Runs ``sample`` in a subprocess from construction until ``stop``."""

    def __init__(self, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("host-speed sampler did not start")
        self.samples: list = []

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode == 0 and self.out.is_file():
            self.samples = json.loads(self.out.read_text())

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe duration over [t0, t1] (monotonic clock) divided by
        the reference duration."""
        if t1 - t0 < 2 * MARGIN_S:
            mid = (t0 + t1) / 2
            t0, t1 = mid - MARGIN_S, mid + MARGIN_S
        inside = [d for start, d in self.samples if t0 <= start <= t1]
        if not inside:
            raise RuntimeError(f"no host-speed samples between {t0:.3f} and {t1:.3f}")
        return statistics.fmean(inside) / PROBE_REF_S

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) / self.slowdown(t0, t1)


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
