"""One workload in one fresh process; started by run.py.

Plain run (``--trace 0``): import the library, set up ``SETUP_REPEATS``
times, then run jobs back to back for ``--seconds`` and report the
end-to-end metrics.  Traced run (``--trace 1``): set up once with spans on,
run jobs for half the time with spans off and half with spans on, and
report the per-layer metrics of the traced jobs.

Prints human-readable lines, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()
import numpy as np  # noqa: E402

import spans  # noqa: E402

for _layer in spans.LAYERS:
    spans.module(_layer)
IMPORT_S = time.perf_counter() - T_START

from workloads import (FAR_TARGET, WORKLOADS,  # noqa: E402
                       largest_activation_bytes)

SETUP_REPEATS = 5
_SC_LEVEL2_CACHE_SIZE = 191  # glibc sysconf name


def _l2_bytes() -> int | None:
    try:
        import ctypes
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(_SC_LEVEL2_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l2 = _l2_bytes()
    act = largest_activation_bytes(workload.cfg)
    return {
        "commit": _git_commit(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "largest_activation_bytes": act,
        "l2_bytes": l2,
        "activation_over_l2": act / l2 if l2 else None,
    }


def timed_jobs(workload, seconds: float, work: str, rec=None):
    """Jobs back to back until ``seconds`` have passed; at least one."""
    outputs, rates = [], []
    start = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        out_dir = os.path.join(work, f"job{len(outputs)}")
        t0 = time.perf_counter()
        span = rec.open("job") if rec is not None else None
        images, out = workload.job(out_dir)
        if rec is not None:
            rec.close(span)
        rates.append(images / (time.perf_counter() - t0))
        outputs.append(out)
    return outputs, rates


def run(args, work: str) -> tuple[dict, list[tuple[str, bool]]]:
    workload = WORKLOADS[args.workload](args.seed)
    taps = spans.Wiring()
    for mod_name, attr, sink in workload.taps():
        spans.tap(taps, mod_name, attr, sink)
    try:
        if not args.trace:
            setup_times = []
            for k in range(SETUP_REPEATS):
                # each pass sets up from scratch; the last one is kept
                setup_dir = os.path.join(work, f"setup{k}")
                os.makedirs(setup_dir)
                t0 = time.perf_counter()
                workload.setup(setup_dir)
                setup_times.append(time.perf_counter() - t0)
                if k:
                    shutil.rmtree(os.path.join(work, f"setup{k - 1}"))
            outputs, rates = timed_jobs(workload, args.seconds, work)
        else:
            rec = spans.Recorder()
            wiring = spans.install(rec)
            os.makedirs(os.path.join(work, "setup"))
            workload.setup(os.path.join(work, "setup"))
            wiring.uninstall()
            setup_spans = rec.take()
            outputs, rates = timed_jobs(workload, args.seconds / 2,
                                        os.path.join(work, "plain"))
            wiring = spans.install(rec)
            traced, traced_rates = timed_jobs(workload, args.seconds / 2,
                                              os.path.join(work, "traced"), rec)
            wiring.uninstall()
            job_spans = rec.take()
            outputs += traced
    finally:
        taps.uninstall()

    checks = []
    for out in outputs:
        checks += workload.check(out)
    tar = workload.tar()
    checks.append(("tar is a fraction", 0.0 <= tar <= 1.0))

    print("env " + json.dumps(environment(args.root, args.seed, workload)))
    print(f"jobs={len(rates)} images_per_s_per_job="
          f"{[round(r, 1) for r in rates]}")
    if not args.trace:
        print(f"import_s={IMPORT_S:.4f} setup_pass_s="
              f"{[round(t, 4) for t in setup_times]}")
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (IMPORT_S + statistics.median(setup_times), "s"),
            "images_per_s": (statistics.median(rates), "images/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "tar": (tar, "fraction"),
        }, checks

    print(f"traced_jobs={len(traced)} images_per_s_per_traced_job="
          f"{[round(r, 1) for r in traced_rates]}")
    counts = spans.call_counts(setup_spans + job_spans)
    for problem in spans.coverage_problems(args.workload, counts):
        checks.append((f"trace: {problem}", False))
    overhead = statistics.median(rates) / statistics.median(traced_rates) - 1.0
    values = spans.layer_metrics(setup_spans, job_spans, len(traced),
                                 rec.max_tape_bytes, overhead)
    os.makedirs(args.spans_dir, exist_ok=True)
    dump = os.path.join(args.spans_dir,
                        f"spans-{args.workload}-seed{args.seed}.json")
    with open(dump, "w") as fh:
        json.dump({"setup": setup_spans, "jobs": job_spans}, fh)
    print(f"spans={dump}")
    units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    return {name: (values[name], units[name]) for name in units}, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--spans-dir", required=True, dest="spans_dir")
    args = parser.parse_args(argv)

    os.makedirs(args.work)
    try:
        metrics, checks = run(args, args.work)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(f"checks attempted={len(checks)} failed={len(failed)} "
          f"error_rate={len(failed) / len(checks)!r} fraction "
          f"far_target={FAR_TARGET}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
