"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload cayley --seeds 10

Runs ``bench/run.py`` once per seed, one run at a time, with the run length
from BENCHMARK.json.  For each metric it prints the values, the median, the
quartiles and the interquartile distance as a share of the median, next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: seed {seed} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"error: seed {seed} has failed checks:\n{proc.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)

    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        s = spread(xs)
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} ({s / bound:.2f} of it)"
        print(f"{args.workload} {name}: median {q2:.4g} q1 {q1:.4g} q3 {q3:.4g}"
              f" spread {s:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
