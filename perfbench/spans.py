"""Spans around the call boundaries of the msconv modules, set from outside.

Nothing in ``src/`` knows about tracing.  ``install`` replaces public
functions and ``Tape`` methods with thin wrappers that open a span, call the
original and close the span; ``Wiring.uninstall`` puts the originals back.

A function imported with ``from .x import y`` is a separate binding in every
module that imported it, so a function is patched in every loaded
``msconv.*`` module that holds it, not only where it is defined.  Modules are
looked up in ``sys.modules``: ``msconv.train`` as an attribute of the package
is the ``train`` function, not the module.

Spans live in memory as ``[name, start_ns, end_ns, parent, payload]`` lists.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import weakref

import numpy as np

MIB = 1 << 20

# Every per-layer metric: name, unit, which way is better, and the
# end-to-end metric and workload it should move.  BENCHMARK.json lists the
# same names, units and directions.
LAYER_METRICS = (
    ("tensor.conv2d.calls", "count", "lower", "images_per_s, most on verify"),
    ("tensor.conv2d.s", "s", "lower", "images_per_s, most on verify"),
    ("tensor.conv2d.ms_p50", "ms", "lower", "images_per_s, most on verify"),
    ("tensor.conv2d.ms_p99", "ms", "lower", "images_per_s, most on verify"),
    ("tensor.conv2d.macs", "MAC", "lower", "images_per_s, most on verify"),
    ("tensor.conv2d.gmacs_per_s", "GMAC/s", "higher",
     "images_per_s, most on verify"),
    ("tensor.conv2d.macs_per_byte", "MAC/B", "higher",
     "images_per_s, most on verify"),
    ("tensor.elementwise.s", "s", "lower", "images_per_s on all"),
    ("autograd.record.s", "s", "lower",
     "images_per_s and peak_rss_mb on verify; on train only through "
     "train.accuracy.s"),
    ("autograd.saved_mb", "MiB", "lower", "peak_rss_mb on verify"),
    ("autograd.backward.calls", "count", "lower",
     "images_per_s on train and ablate; zero calls on verify"),
    ("autograd.backward.s", "s", "lower", "images_per_s on train and ablate"),
    ("autograd.backward.self_s", "s", "lower",
     "images_per_s on train and ablate"),
    ("autograd.vjp.conv2d.s", "s", "lower", "images_per_s on train and ablate"),
    ("autograd.vjp.conv2d.gmacs_per_s", "GMAC/s", "higher",
     "images_per_s on train and ablate"),
    ("autograd.vjp.other.s", "s", "lower", "images_per_s on train and ablate"),
    ("block.forward.calls", "count", "lower", "images_per_s on ablate, then train"),
    ("block.forward.s", "s", "lower", "images_per_s on ablate, then train"),
    ("block.fusion.self_s", "s", "lower", "images_per_s on ablate, then train"),
    ("model.forward.s", "s", "lower", "images_per_s on train"),
    ("model.embed.calls", "count", "lower", "images_per_s on verify"),
    ("model.embed.s", "s", "lower", "images_per_s on verify"),
    ("model.embed.ms_p50", "ms", "lower", "images_per_s on verify"),
    ("model.embed.ms_p90", "ms", "lower", "images_per_s on verify"),
    ("model.margin_ce.s", "s", "lower", "images_per_s on train"),
    ("train.step_ms_p50", "ms", "lower", "images_per_s on train and ablate"),
    ("train.step_ms_p90", "ms", "lower", "images_per_s on train and ablate"),
    ("train.sgd_step.s", "s", "lower", "images_per_s on train and ablate"),
    ("train.accuracy.s", "s", "lower", "images_per_s on train and ablate"),
    ("train.evaluate.s", "s", "lower", "images_per_s on ablate and verify"),
    ("data.gen_synthetic.s", "s", "lower", "setup_s on all; images_per_s on ablate"),
    ("data.make_pairs.s", "s", "lower", "setup_s on all; images_per_s on ablate"),
    ("data.load_dataset.s", "s", "lower", "images_per_s on verify"),
    ("data.read_pairs.s", "s", "lower", "images_per_s on verify"),
    ("msct.read.calls", "count", "lower", "images_per_s on verify"),
    ("msct.read.s", "s", "lower", "images_per_s on verify"),
    ("msct.read.mb", "MiB", "lower", "images_per_s on verify"),
    ("msct.write.calls", "count", "lower", "images_per_s on ablate; setup_s"),
    ("msct.write.s", "s", "lower", "images_per_s on ablate; setup_s"),
    ("msct.write.mb", "MiB", "lower", "images_per_s on ablate; setup_s"),
    ("metrics.sweep.s", "s", "lower", "images_per_s on verify"),
    ("metrics.pair_scores.s", "s", "lower", "images_per_s on verify"),
    ("unattributed_s", "s", "lower", "nothing: keeps the layer map honest"),
    ("trace_overhead", "fraction", "lower",
     "nothing: keeps the layer map honest"),
)

# Layers that mostly run during set-up: their figures add one traced set-up
# pass to the per-job figures.
SETUP_LAYERS = ("data.", "msct.")

# Spans each workload must reach, and spans it must never reach.  A name
# ending in "." matches every span under that prefix.
EXPECTED = {
    "train": ("tensor.conv2d", "tensor.elementwise", "autograd.op.",
              "autograd.backward", "autograd.vjp.conv2d", "block.forward",
              "model.forward", "model.embed", "model.margin_ce", "train.run",
              "train.sgd_step", "train.accuracy", "data.gen_synthetic",
              "data.make_pairs"),
    "verify": ("tensor.conv2d", "tensor.elementwise", "autograd.op.",
               "block.forward", "model.forward", "model.embed",
               "train.evaluate", "data.gen_synthetic", "data.make_pairs",
               "data.load_dataset", "data.read_pairs", "msct.read",
               "msct.write", "metrics.sweep", "metrics.pair_scores"),
    "ablate": ("tensor.conv2d", "tensor.elementwise", "autograd.op.",
               "autograd.backward", "autograd.vjp.conv2d", "block.forward",
               "model.forward", "model.embed", "model.margin_ce", "train.run",
               "train.sgd_step", "train.accuracy", "train.evaluate",
               "data.gen_synthetic", "data.make_pairs", "msct.write",
               "metrics.sweep", "metrics.pair_scores"),
}
BYPASSED = {
    "train": ("train.evaluate", "data.load_dataset", "data.read_pairs",
              "msct.", "metrics."),
    "verify": ("autograd.backward", "autograd.vjp.", "model.margin_ce",
               "train.run", "train.sgd_step", "train.accuracy"),
    "ablate": ("data.load_dataset", "data.read_pairs", "msct.read"),
}

# (module, function, span name, payload(args, kwargs, result) or None)
_FUNCTIONS = (
    ("tensor", "conv2d_raw", "tensor.conv2d", lambda a, k, out: (
        out.size * a[1].shape[0] * a[1].shape[1] * a[1].shape[2],
        a[0].nbytes + a[1].nbytes + out.nbytes)),
    *(("tensor", f, "tensor.elementwise", None)
      for f in ("ew_mul", "ew_add", "ew_sub", "global_avg_pool", "fc", "relu",
                "sigmoid")),
    ("block", "block_forward_on_tape", "block.forward", None),
    ("model", "tinynet_forward", "model.forward", None),
    ("model", "tinynet_embed", "model.embed", None),
    ("model", "margin_ce_on_tape", "model.margin_ce", None),
    ("train", "train", "train.run", None),
    ("train", "sgd_step", "train.sgd_step", None),
    ("train", "train_accuracy", "train.accuracy", None),
    ("train", "evaluate_verification", "train.evaluate", None),
    ("data", "gen_synthetic", "data.gen_synthetic", None),
    ("data", "make_pairs", "data.make_pairs", None),
    ("data", "load_dataset", "data.load_dataset", None),
    ("data", "read_pairs", "data.read_pairs", None),
    ("msct", "read_tensor", "msct.read", lambda a, k, out: (
        0, 8 + 4 * max(out.ndim, 1) + 4 * out.size)),
    ("msct", "write_tensor", "msct.write", lambda a, k, out: (
        0, 8 + 4 * max(np.ndim(a[1]), 1) + 4 * np.size(a[1]))),
    ("metrics", "tar_at_far", "metrics.sweep", None),
    ("metrics", "pair_accuracy", "metrics.sweep", None),
    ("metrics", "pair_scores", "metrics.pair_scores", None),
)

# Tape methods that record one op; emit and backward are wrapped apart.
_TAPE_OPS = ("conv2d", "mul", "add", "sub", "gap", "fc", "relu", "sigmoid",
             "one_minus", "half", "scale_channels", "l2_normalize_rows",
             "sum", "mean")


# The measured layers.  viz is on no workload's path and is left out.
LAYERS = ("tensor", "autograd", "block", "model", "train", "data", "msct",
          "metrics", "cli")


def module(name: str):
    """The ``msconv.<name>`` module itself, whatever the package re-exports."""
    return importlib.import_module(f"msconv.{name}")


def _msconv_modules():
    return [m for key, m in list(sys.modules.items())
            if key == "msconv" or key.startswith("msconv.")]


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.max_tape_bytes = 0
        self._tape_bytes = weakref.WeakKeyDictionary()

    def open(self, name: str, payload=None) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, payload])
        self._open.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._open.pop()

    def add_tape_bytes(self, tape, nbytes: int) -> None:
        total = self._tape_bytes.get(tape, 0) + nbytes
        self._tape_bytes[tape] = total
        self.max_tape_bytes = max(self.max_tape_bytes, total)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _spanned(rec: Recorder, name: str, fn, payload=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if payload is not None:
            rec.spans[i][4] = payload(args, kwargs, out)
        return out
    return wrapper


class Wiring:
    """Patched attributes, so they can be put back exactly."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(self, mod_name: str, attr: str, make) -> None:
        """Rebind every ``msconv.*`` reference to ``msconv.<mod>.<attr>``."""
        original = getattr(module(mod_name), attr)
        new = make(original)
        for mod in _msconv_modules():
            if getattr(mod, attr, None) is original:
                self.replace(mod, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def tap(wiring: Wiring, mod_name: str, attr: str, sink: list) -> None:
    """Append the (args, result) of every call of a function to ``sink``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append((args, out))
            return out
        return wrapper
    wiring.replace_everywhere(mod_name, attr, make)


def install(rec: Recorder) -> Wiring:
    """Wrap every traced call boundary; returns the wiring to undo it."""
    for name in LAYERS:
        module(name)
    wiring = Wiring()
    for mod_name, attr, span, payload in _FUNCTIONS:
        wiring.replace_everywhere(
            mod_name, attr, lambda fn, s=span, p=payload: _spanned(rec, s, fn, p))

    tape_cls = module("autograd").Tape
    for op in _TAPE_OPS:
        wiring.replace(tape_cls, op,
                       _spanned(rec, f"autograd.op.{op}", getattr(tape_cls, op)))
    wiring.replace(tape_cls, "backward",
                   _spanned(rec, "autograd.backward", tape_cls.backward))

    emit = tape_cls.emit

    @functools.wraps(emit)
    def traced_emit(self, op_id, inputs, value, vjp):
        rec.add_tape_bytes(self, getattr(value, "nbytes", 8))
        macs = 0
        if op_id == "conv2d":
            kh, kw, c_in, _ = inputs[1].value.shape
            # the input and the weight gradient each cost one forward
            macs = 2 * value.size * kh * kw * c_in
        name = f"autograd.vjp.{op_id}"

        def timed_vjp(g):
            i = rec.open(name, (macs, 0))
            try:
                return vjp(g)
            finally:
                rec.close(i)
        return emit(self, op_id, inputs, value, timed_vjp)

    wiring.replace(tape_cls, "emit", traced_emit)
    return wiring


# -- aggregation ----------------------------------------------------------------

def _durations(spans):
    """(duration_ns, self_ns) per span."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _match(name: str, pattern: str) -> bool:
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


def call_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts


def coverage_problems(workload: str, counts: dict[str, int]) -> list[str]:
    """Expected spans with no calls and bypassed spans with calls."""
    problems = []
    for pat in EXPECTED[workload]:
        if not any(_match(n, pat) for n in counts):
            problems.append(f"expected span {pat} recorded no calls")
    for pat in BYPASSED[workload]:
        hit = sorted(n for n in counts if _match(n, pat))
        if hit:
            problems.append(f"bypassed span {pat} recorded calls: {hit}")
    return problems


def _pct(values_ms, q: int) -> float:
    """q-th percentile of per-call times, or 0.0 when nothing was called."""
    if not values_ms:
        return 0.0
    if len(values_ms) == 1:
        return values_ms[0]
    return statistics.quantiles(values_ms, n=100, method="inclusive")[q - 1]


def layer_metrics(setup_spans, job_spans, jobs: int, max_tape_bytes: int,
                  trace_overhead: float) -> dict[str, float]:
    """Per-layer figures for one job (mean over ``jobs`` traced jobs).

    ``data.*`` and ``msct.*`` figures also include one traced set-up pass.
    Percentiles are over every call.  ``macs`` and ``macs_per_byte`` are
    computed from operand shapes, not counted.
    """
    setup_spans = [s for s in setup_spans if s[0].startswith(SETUP_LAYERS)]
    # name -> integer sums (calls, ns, self ns, MACs, bytes), set-up and job
    sums: dict[str, tuple[list[int], list[int]]] = {}
    per_call_ms: dict[str, list[float]] = {}
    for phase, spans in enumerate((setup_spans, job_spans)):
        for s, d, sf in zip(spans, *_durations(spans)):
            acc = sums.setdefault(s[0], ([0] * 5, [0] * 5))[phase]
            acc[0] += 1
            acc[1] += d
            acc[2] += sf
            if s[4] is not None:
                acc[3] += s[4][0]
                acc[4] += s[4][1]
            per_call_ms.setdefault(s[0], []).append(d * 1e-6)

    def total(pattern: str, field: int) -> float:
        """One set-up pass plus one job, summed over matching span names."""
        out = 0.0
        for name, (setup, job) in sums.items():
            if _match(name, pattern):
                out += setup[field] + job[field] / jobs
        return out

    def calls(name):
        return total(name, 0)

    def secs(name):
        return total(name, 1) * 1e-9

    def self_secs(pattern):
        return total(pattern, 2) * 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    # block time outside its two branch convolutions
    fusion_s = secs("block.forward")
    for s in job_spans:
        if s[0] == "autograd.op.conv2d" and s[3] >= 0 \
                and job_spans[s[3]][0] == "block.forward":
            fusion_s -= (s[2] - s[1]) * 1e-9 / jobs

    # a training step runs from its forward to the end of its SGD update
    steps_ms = []
    step_start = None
    for s in job_spans:
        if s[0] == "model.forward" and s[3] >= 0 \
                and job_spans[s[3]][0] == "train.run":
            step_start = s[1]
        elif s[0] == "train.sgd_step" and step_start is not None:
            steps_ms.append((s[2] - step_start) * 1e-6)
            step_start = None

    conv = "tensor.conv2d"
    vjp_conv = "autograd.vjp.conv2d"
    return {
        "tensor.conv2d.calls": calls(conv),
        "tensor.conv2d.s": secs(conv),
        "tensor.conv2d.ms_p50": _pct(per_call_ms.get(conv, []), 50),
        "tensor.conv2d.ms_p99": _pct(per_call_ms.get(conv, []), 99),
        "tensor.conv2d.macs": total(conv, 3),
        "tensor.conv2d.gmacs_per_s": ratio(total(conv, 3), secs(conv)) * 1e-9,
        "tensor.conv2d.macs_per_byte": ratio(total(conv, 3), total(conv, 4)),
        "tensor.elementwise.s": secs("tensor.elementwise"),
        "autograd.record.s": self_secs("autograd.op."),
        "autograd.saved_mb": max_tape_bytes / MIB,
        "autograd.backward.calls": calls("autograd.backward"),
        "autograd.backward.s": secs("autograd.backward"),
        "autograd.backward.self_s": self_secs("autograd.backward"),
        "autograd.vjp.conv2d.s": secs(vjp_conv),
        "autograd.vjp.conv2d.gmacs_per_s": ratio(total(vjp_conv, 3),
                                                 secs(vjp_conv)) * 1e-9,
        "autograd.vjp.other.s": secs("autograd.vjp.") - secs(vjp_conv),
        "block.forward.calls": calls("block.forward"),
        "block.forward.s": secs("block.forward"),
        "block.fusion.self_s": fusion_s,
        "model.forward.s": secs("model.forward"),
        "model.embed.calls": calls("model.embed"),
        "model.embed.s": secs("model.embed"),
        "model.embed.ms_p50": _pct(per_call_ms.get("model.embed", []), 50),
        "model.embed.ms_p90": _pct(per_call_ms.get("model.embed", []), 90),
        "model.margin_ce.s": secs("model.margin_ce"),
        "train.step_ms_p50": _pct(steps_ms, 50),
        "train.step_ms_p90": _pct(steps_ms, 90),
        "train.sgd_step.s": secs("train.sgd_step"),
        "train.accuracy.s": secs("train.accuracy"),
        "train.evaluate.s": secs("train.evaluate"),
        "data.gen_synthetic.s": secs("data.gen_synthetic"),
        "data.make_pairs.s": secs("data.make_pairs"),
        "data.load_dataset.s": secs("data.load_dataset"),
        "data.read_pairs.s": secs("data.read_pairs"),
        "msct.read.calls": calls("msct.read"),
        "msct.read.s": secs("msct.read"),
        "msct.read.mb": total("msct.read", 4) / MIB,
        "msct.write.calls": calls("msct.write"),
        "msct.write.s": secs("msct.write"),
        "msct.write.mb": total("msct.write", 4) / MIB,
        "metrics.sweep.s": secs("metrics.sweep"),
        "metrics.pair_scores.s": secs("metrics.pair_scores"),
        "unattributed_s": self_secs("job"),
        "trace_overhead": trace_overhead,
    }
