"""Per-layer tracing from outside the program.

The tracer replaces public functions of the taghash modules with timing
wrappers for the length of a ``with`` block and puts the originals back when
it ends.  A function is replaced under every name a taghash module binds it
to, because callers resolve the name in their own module
(``taghash.engine.rbf_map`` is the same object as
``taghash.kernel.rbf_map``).  Methods are replaced on their class.

A span's self time is its duration minus the durations of the wrapped calls
it made.  Spans and counters are only recorded while ``phase`` is set, so
untimed checks do not show up.  A function that a later version of the
program renames or fuses away is reported as absent, not an error.
"""
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "taghash"

# (module, qualified name) of every wrapped function, by layer
SPANS = (
    ("engine", "StreamTrainer.process_chunk"),
    ("kernel", "rbf_map"),
    ("kernel", "build_anchor_set"),
    ("semantics", "pool_semantics"),
    ("optimizer", "run_round"),
    ("optimizer", "init_round"),
    ("optimizer", "update_u"),
    ("optimizer", "update_p"),
    ("optimizer", "update_v"),
    ("optimizer", "update_w"),
    ("optimizer", "compute_reweights"),
    ("optimizer", "assemble_q"),
    ("optimizer", "update_b_dcc"),
    ("optimizer", "dcc_bit_column"),
    ("model", "objective_value"),
    ("model", "commit_round"),
    ("dataio", "save_checkpoint"),
    ("dataio", "load_checkpoint"),
    ("codes", "pack_codes"),
    ("codes", "hamming_distances"),
    ("retrieval", "hash_queries"),
    ("retrieval", "hamming_rank"),
    ("retrieval", "snapshot_index"),
    ("evaluation", "EvalJudgments.relevance"),
    ("evaluation", "average_precision"),
    ("evaluation", "mean_average_precision"),
    ("evaluation", "map_per_round"),
)

# spans that only orchestrate other spans; their self time is glue code
GLUE = {"engine.process_chunk", "optimizer.run_round",
        "evaluation.mean_average_precision", "evaluation.map_per_round"}

# metric name -> span, for the spans whose metric says "self"
SELF_NAMES = {"engine.process_chunk_self_s": "engine.process_chunk",
              "optimizer.run_round_self_s": "optimizer.run_round",
              "retrieval.hamming_rank_self_s": "retrieval.hamming_rank",
              "evaluation.mean_average_precision_self_s":
                  "evaluation.mean_average_precision",
              "evaluation.map_per_round_self_s": "evaluation.map_per_round"}

UNITS = {"optimizer.dcc_idle_sweep_ratio": "ratio",
         "dataio.checkpoint_bytes": "bytes", "codes.scan_bytes": "bytes",
         "trace.overhead_ms": "ms", "trace.coverage": "ratio"}

COUNTERS = ("optimizer.dcc_sweeps", "optimizer.bits_flipped",
            "optimizer.clamped_weights", "semantics.tagless_rows",
            "codes.scan_bytes", "evaluation.excluded_queries")


def span_name(module, qualname):
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def unit(metric):
    """Unit of a per-layer metric: seconds for spans, a count otherwise."""
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


class Tracer:
    """Context manager that wraps the SPANS and aggregates them by phase."""

    def __init__(self):
        self.phase = None
        self.absent = []
        self._patches = []          # (owner, attribute, original)
        self._stack = []
        self.self_time = defaultdict(float)    # (phase, span) -> seconds
        self.calls = defaultdict(int)          # (phase, span) -> calls
        self.counts = defaultdict(float)       # (phase, counter) -> total
        self.idle_sweeps = 0
        self.checkpoint_bytes = 0
        self.sweep_flipped = True

    # ------------------------------------------------------------ patching

    def __enter__(self):
        try:
            for module, qualname in SPANS:
                self._wrap(module, qualname)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _wrap(self, module, qualname):
        name = span_name(module, qualname)
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner, attr = mod, qualname
        if mod is not None and "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            owner = getattr(mod, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if owner is None or not inspect.isfunction(original):
            self.absent.append(name)
            return
        wrapper = self._make_wrapper(name, original, HOOKS.get(name))
        if owner is mod:
            for m in self._modules():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        else:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _make_wrapper(self, name, original, hook):
        signature = inspect.signature(original)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return original(*args, **kwargs)
            stack = self._stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self.self_time[phase, name] += took - frame[0]
                self.calls[phase, name] += 1
            if hook is not None:
                start = clock()
                try:
                    hook(self, phase, signature.bind(*args, **kwargs)
                         .arguments, result)
                except (KeyError, TypeError, AttributeError, IndexError):
                    if f"hook:{name}" not in self.absent:
                        self.absent.append(f"hook:{name}")
                took = clock() - start
                if stack:
                    stack[-1][0] += took
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # ----------------------------------------------------------- reporting

    def report(self, per_phase):
        """Per-layer metrics: total in set-up / set-ups + total in loop / ops.

        per_phase maps a phase name to the number of times it ran in the
        traced part of the run.
        """
        def per_unit(table, key):
            return sum(table[phase, key] / n
                       for phase, n in per_phase.items() if n)

        out = {}
        for module, qualname in SPANS:
            name = span_name(module, qualname)
            out[f"{name}_s"] = per_unit(self.self_time, name)
        for metric, name in SELF_NAMES.items():
            out[metric] = out.pop(f"{name}_s")
        for name in COUNTERS:
            out[name] = per_unit(self.counts, name)
        sweeps = sum(self.counts[p, "optimizer.dcc_sweeps"]
                     for p in per_phase)
        out["optimizer.dcc_idle_sweep_ratio"] = \
            self.idle_sweeps / sweeps if sweeps else 0.0
        out["dataio.checkpoint_bytes"] = self.checkpoint_bytes
        return out

    def covered_s(self, phase):
        """Self time inside wrapped spans that do real work, in one phase."""
        return sum(t for (p, name), t in self.self_time.items()
                   if p == phase and name not in GLUE)


# ------------------------------------------------------------------ hooks
# Each hook sees the tracer, the phase, the call's bound arguments by name
# and its result.  They count what a span did from its inputs and output.

def _dcc_bit_column(tr, phase, a, result):
    if a["l"] == 0:
        tr.counts[phase, "optimizer.dcc_sweeps"] += 1
        tr.idle_sweeps += 1
        tr.sweep_flipped = False
    flips = int(np.count_nonzero(result != a["b"][:, a["l"]]))
    tr.counts[phase, "optimizer.bits_flipped"] += flips
    if flips and not tr.sweep_flipped:
        tr.idle_sweeps -= 1
        tr.sweep_flipped = True


def _compute_reweights(tr, phase, a, result):
    tr.counts[phase, "optimizer.clamped_weights"] += int(
        np.count_nonzero(result == 1.0 / a["epsilon_norm"]))


def _pool_semantics(tr, phase, a, result):
    tr.counts[phase, "semantics.tagless_rows"] += int(
        np.count_nonzero(~result.valid_mask))


def _hamming_distances(tr, phase, a, result):
    tr.counts[phase, "codes.scan_bytes"] += np.asarray(a["db_packed"]).nbytes


def _mean_average_precision(tr, phase, a, result):
    tr.counts[phase, "evaluation.excluded_queries"] += result[1]


def _save_checkpoint(tr, phase, a, result):
    tr.checkpoint_bytes = max(tr.checkpoint_bytes, os.path.getsize(a["path"]))


HOOKS = {
    "optimizer.dcc_bit_column": _dcc_bit_column,
    "optimizer.compute_reweights": _compute_reweights,
    "semantics.pool_semantics": _pool_semantics,
    "codes.hamming_distances": _hamming_distances,
    "evaluation.mean_average_precision": _mean_average_precision,
    "dataio.save_checkpoint": _save_checkpoint,
}
