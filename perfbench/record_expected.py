"""Re-record ``expected.json``: each point's I/O, buffer counters and answers.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py --seeds 0-39 [--jobs 2]

Runs one pass of every workload per seed, each in a fresh process, and
writes the per-point signatures (``total_io``, ``par_cost``,
``child_cost``, the ``PoolStats`` delta and the answer digest) that later
runs with the same seed must reproduce.  These counts are the paper's
output, so re-recording them is only right when a change means to alter
what the engine measures, and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload: str, seed: int) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-reps", "1",
         "--tmp", os.path.abspath(".perfbench-tmp"), "--no-expected"],
        env=env, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d is not correct: %s"
                         % (workload, seed, result["problems"]))
    return result["signatures"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-39")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    sys.path[:0] = [HERE, os.path.abspath("src")]
    from workloads import WORKLOADS

    tasks = [(w, s) for w in WORKLOADS for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=args.jobs) as executor:
        results = list(executor.map(lambda task: record(*task), tasks))
    expected = {w: {} for w in WORKLOADS}
    for (workload, seed), signatures in zip(tasks, results):
        expected[workload][str(seed)] = signatures
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=None, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print("recorded %d workload/seed pairs" % len(tasks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
