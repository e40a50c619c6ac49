"""Benchmark entry point: one workload, one seed, one line of JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload probe-fit --seed 1 --seconds 15 --trace 0

The workload runs in a fresh child process (``child.py``) against the
engine in ``src/``.  With ``--trace 0`` the last line of output carries
the end-to-end metrics; with ``--trace 1`` a second, traced child runs
the same workload and the last line carries the per-layer metrics, each
printed above it with the end-to-end metric it should move.  Lines
before the last are for people: every metric with its unit, the failed
share of operations, the update latencies where there are updates, and
the sizes that make a workload fit or spill.  The exit code is nonzero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics (name, unit), measured with tracing off.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("retrieve_ms_p50", "ms"),
    ("retrieve_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]
#: Wall-clock limit per child: (untraced, traced).  A traced run starts
#: both children and must end within 180 s.
CHILD_TIMEOUT_S = {False: (170, 0), True: (75, 100)}
TMP_DIR = ".perfbench-tmp"
SPANS_DIR = ".perfbench-out"


def run_child(args, traced: bool) -> Optional[Dict[str, Any]]:
    """Run the workload in a fresh process; its parsed JSON, or None."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
        "--tmp", os.path.abspath(TMP_DIR),
    ]
    if traced:
        # One set-up is enough for the snapshot layer's spans.
        command += ["--setup-reps", "1", "--spans-out", os.path.join(
            os.path.abspath(SPANS_DIR),
            "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    timeout = CHILD_TIMEOUT_S[bool(args.trace)][1 if traced else 0]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s child exceeded %ds\n" % (args.workload, timeout))
        return None
    finally:
        _remove_if_empty(TMP_DIR)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("perfbench: child exited with %d\n" % done.returncode)
        return None
    return json.loads(lines[-1])


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def print_run(result: Dict[str, Any]) -> None:
    extra = result["extra"]
    print("== %s seed %d (%s): %d passes, %d ops attempted, %d failed"
          % (result["workload"], result["seed"],
             "traced" if result["traced"] else "untraced",
             extra["passes"], result["attempted"], result["failed"]))
    for name, unit in END_TO_END:
        print("  %-22s %14.4f %s" % (name, result["metrics"][name], unit))
    print("  (times above are at reference speed; raw wall: %s; host slow-down "
          "median %.2fx)" % (", ".join("%s %.4f" % kv for kv in extra["raw_wall"].items()),
                             extra["host_slowdown_p50"]))
    print("  %-22s %14.6f share" % ("failed_op_share", extra["failed_op_share"]))
    if "update_ms_p50" in extra:
        print("  %-22s %14.4f ms" % ("update_ms_p50", extra["update_ms_p50"]))
        print("  %-22s %14.4f ms  (p%d of %d updates)" % (
            "update_ms_p90", extra["update_ms_p90"],
            round(extra["update_tail_percentile"] * 100), extra["update_samples"]))
    print("  retrieve_ms_p90 is p%d of %d measured retrieves"
          % (round(extra["retrieve_tail_percentile"] * 100), extra["retrieve_samples"]))
    for size in result["sizes"]:
        print("  %-7s shape: working set %5d pages vs %4d buffer pages; "
              "%d units vs %d-unit cache; %s"
              % (size["shape"], size["working_set_pages"], size["buffer_pages"],
                 size["num_units"], size["size_cache"],
                 ", ".join("%s %d" % kv for kv in sorted(size["pages"].items()))))
    cache_ratio = extra["cache_hit_ratio"]
    print("  measured hit ratios: buffer %.4f, unit cache %s; I/O pinned for "
          "this seed: %s" % (extra["buffer_hit_ratio"],
                            "n/a" if cache_ratio is None else "%.4f" % cache_ratio,
                            "yes" if extra["io_pinned"] else "no (determinism only)"))
    for problem in result["problems"]:
        print("  PROBLEM: %s" % problem)


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join("src", "repro")):
        sys.stderr.write("perfbench: run from the root of a checkout "
                         "(src/repro not found)\n")
        return 2
    sys.path[:0] = [HERE, os.path.abspath("src")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    untraced = run_child(args, traced=False)
    if untraced is None:
        return 1
    print_run(untraced)
    runs = [untraced]
    if args.trace:
        from layers import LAYER_METRICS

        traced = run_child(args, traced=True)
        if traced is None:
            return 1
        print_run(traced)
        runs.append(traced)
        layer = dict(traced["layers"])
        layer["trace.overhead"] = (
            untraced["metrics"]["ops_per_s"] / traced["metrics"]["ops_per_s"] - 1
        )
        print("== per-layer metrics (per pass of the sweep; .s inclusive, "
              "self_s without child spans)")
        for name, unit, _better, moves in LAYER_METRICS:
            print("  %-30s %16.6f %-10s -> %s" % (name, layer[name], unit, moves))
        print("== self-time budget, s per pass (%d passes)" % traced["extra"]["passes"])
        for layer_name, seconds in traced["budget"]:
            print("  %-34s %10.4f" % (layer_name, seconds))
        if traced.get("spans_file"):
            print("  spans written to %s (%d beyond the record cap kept as totals only)"
                  % (os.path.relpath(traced["spans_file"]), traced["spans_dropped"]))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _better, _moves in LAYER_METRICS}
    else:
        metrics = {name: {"value": untraced["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
