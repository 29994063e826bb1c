"""Outside-in span tracer for the rsskm benchmark.

The tracer wraps public names of the program in the namespaces where the
program looks them up (``rsskm.harness.draw_balanced_rss`` rather than
``rsskm.sampling.draw_balanced_rss``, because the harness imported the name),
records one span (name, start, end, parent) per call, and derives per-layer
call counts and self times.  Nothing under ``src/`` changes: the wrappers live
on the imported modules of one process and ``uninstall`` puts the originals
back.

A target that no longer exists (a later change deleted or renamed it) is
skipped, so its layer reports zero calls instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict


def _arg(pos: int, name: str):
    """Counter that reads argument ``name`` (positional index ``pos``)."""

    def read(args, kwargs):
        if name in kwargs:
            return int(kwargs[name])
        return int(args[pos]) if len(args) > pos else 0

    return read


def _size_of_first(args, kwargs):
    times = kwargs["times"] if "times" in kwargs else args[0]
    return int(getattr(times, "size", len(times)))


_LOOKUPS = ("survival_at", "greenwood_at", "cum_hazard_at", "hazard_var_at")

# (module, attribute path, span name or None, counter name, counter function).
# A span name of None records the counter without a span, so the wrapper
# takes no self time away from its caller.
TARGETS = [
    ("rsskm.cli", "run_grid", "harness.grid", None, None),
    ("rsskm.harness", "run_cell", "harness.cell", None, None),
    ("rsskm.harness", "_simulate_batch", None, "harness.reps", _arg(1, "n_reps")),
    ("rsskm.harness", "prepare_model", "models.calibrate", None, None),
    ("rsskm.harness", "draw_balanced_rss", "sampling.draw_rss", None, None),
    ("rsskm.harness", "draw_srs", "sampling.draw_srs", None, None),
    ("rsskm.sampling", "RngStream.generator", "sampling.generator", None, None),
    ("rsskm.harness", "fit_curve_arrays", "survival.fit", "survival.fit.obs", _size_of_first),
    ("rsskm.rss", "fit_curve_arrays", "survival.fit", "survival.fit.obs", _size_of_first),
    *[("rsskm.survival", f"StepSurvivalCurve.{m}", "survival.lookup", None, None)
      for m in _LOOKUPS],
    ("rsskm.harness", "estimate_mixing_matrix", "models.mixing", "models.mixing.sets",
     _arg(2, "n_sets")),
    ("rsskm.cli", "estimate_mixing_matrix", "models.mixing", "models.mixing.sets",
     _arg(2, "n_sets")),
    ("rsskm.harness", "asymptotic_km_variance", "models.kernel", None, None),
    ("rsskm.models", "asymptotic_km_variance", "models.kernel", None, None),
    ("rsskm.cli", "asymptotic_km_variance", "models.kernel", None, None),
    ("rsskm.cli", "rss_kaplan_meier", "rss.rss_km", None, None),
    ("rsskm.rss", "RankedSetSample.from_observations", "rss.from_observations", None, None),
    ("rsskm.cli", "multiplier_bootstrap", "bootstrap.run", None, None),
    ("rsskm.bootstrap", "weighted_km_at", "bootstrap.wkm", None, None),
]


class Tracer:
    """Span recorder for one process; install, run, summarize, uninstall."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        # cleared in place: the wrappers hold references to these objects
        del self.spans[:]
        self.counts.clear()

    def install(self, targets=TARGETS) -> None:
        for module, path, span, counter, count_fn in targets:
            self._wrap(module, path, span, counter, count_fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, module, path, span, counter, count_fn) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = vars(owner).get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, span, counter, count_fn))
        elif callable(original):
            replacement = self._wrapper(original, span, counter, count_fn)
        else:
            return
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def _wrapper(self, fn, name, counter, count_fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def counted(*args, **kwargs):
            counts[counter] += count_fn(args, kwargs)
            return fn(*args, **kwargs)

        if name is None:
            return counted
        call = counted if counter else fn

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self._wrapper(fn, name, None, None)(*args)

    def summarize(self) -> dict:
        """Per span name: calls, summed self time, summed duration, and the
        median and largest single-span duration.

        Self time is a span's duration minus the time covered by its direct
        children; spans nest strictly because the program is single-threaded
        at ``--jobs 1``.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, durations = defaultdict(int), defaultdict(float), defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            durations[name].append(end - start)
        return {
            name: {"calls": calls[name], "self_s": self_s[name],
                   "total_s": sum(durations[name]),
                   "p50_s": statistics.median(durations[name]),
                   "max_s": max(durations[name])}
            for name in calls
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
