"""msconv benchmark: run workloads, check their outputs, print the metrics.

    python3 perfbench/run.py --workload train|verify|ablate|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own fresh Python process, started with BLAS pinned
to one thread through the environment, so throughput does not depend on how
many threads the BLAS pool starts on a small shared machine.  The library is
imported from ``src/`` of the checkout this file sits in; nothing is built.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate of the
output checks.  ``--workload all`` runs every workload in turn and prefixes
each metric with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
# one workload must finish within 180 s, including its set-up
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "PYTHONDONTWRITEBYTECODE": "1"}


def run_workload(name: str, args, expected: set[str]) -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(WORK, f"{name}-seed{args.seed}-pid{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work, "--spans-dir", WORK]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}")
    print(f"== workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        raise RuntimeError(f"workload {name} reported {sorted(result['metrics'])}, "
                           f"expected {sorted(expected)}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "msconv", "__init__.py")):
        print(f"error: no msconv sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in bench[kind]}

    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args, expected) for name in chosen}
    except (RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
