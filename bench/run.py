"""trigroup benchmark: four closed-loop workloads, one caller, no threads.

    python3 bench/run.py --workload cayley --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation starts when the previous one returns.  The
untraced run (``--trace 0``) prints the end-to-end metrics; the traced run
(``--trace 1``) alternates untraced passes with passes that have span
wrappers around each module's public functions, and prints the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload, each in its
own process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the work size and the environment.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from harness import Checker, DeterminismGuard, HostClock, median, metric, result_line
from tracing import Tracer, import_times, layer_metric_names, layer_metrics, load_spans
from workloads import WORKLOADS, Context, phase_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACE_PAIRS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--verify", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    """Import trigroup from this checkout's src/ and nowhere else."""
    if not (SRC / "trigroup" / "__init__.py").is_file():
        raise SystemExit(f"error: no trigroup sources under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRIGROUP_SEED", None)
    return env


def environment() -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "trigroup").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy": sympy_version,
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def time_setup(name: str, seed: int, work: Path, repeats: int,
               clock: HostClock) -> list[float]:
    """Fresh interpreter to inputs ready: imports plus input generation."""
    times = []
    for _ in range(repeats):
        elapsed, proc = clock.time(lambda: subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--prepare", str(work)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
        ))
        times.append(elapsed)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up of {name} failed:\n{proc.stderr}")
    return times


def measured_imports() -> dict[str, float]:
    """Cumulative import seconds of trigroup.cli and trigroup.thresholds."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trigroup.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        runs.append(import_times(proc.stderr))
    return {
        "cli.import_s": median([r["trigroup.cli"] for r in runs]),
        "thresholds.import_s": median([r["trigroup.thresholds"] for r in runs]),
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def pass_time(passes: list[dict]) -> float:
    """A pass's operations, each at its median; checks are not timed."""
    return sum(phase_time(passes, phase) for phase in passes[0])


def run_untraced(cls, workload, seconds: float, setups: list[float], clock: HostClock):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < cls.min_passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass())
    primary, secondary, lines = workload.summary(passes)
    setup = median(setups)
    rss = peak_rss_mb(cls.name)
    lines += [
        f"setup_s {setup:.4f} s (median of {len(setups)} fresh interpreters)",
        f"peak_rss_mb {rss:.1f} MB",
        f"primary_s = {cls.primary}, secondary_s = {cls.secondary}",
        clock.describe(),
    ]
    metrics = {
        "setup_s": metric(setup, "s"),
        "primary_s": metric(primary, "s"),
        "secondary_s": metric(secondary, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics, lines


def traced_pass(workload, ctx: Context, index: int) -> tuple[dict, Tracer]:
    tracer = Tracer(f"{workload.name}-{ctx.seed}/pass{index}")
    ctx.tracer, ctx.trace_file = tracer, ctx.work / f"cli-spans-{index}.jsonl"
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            times = workload.run_pass()
    finally:
        tracer.uninstall()
        ctx.tracer = None
    if ctx.trace_file.exists():
        tracer.spans += load_spans(ctx.trace_file)
    return times, tracer


def run_traced(cls, workload, ctx: Context, out_dir: Path):
    """Untraced and traced passes alternate; the per-layer metrics come from
    the first traced pass, the overhead from each operation's median time."""
    workload.check_once()
    plain, traced, tracer = [], [], None
    for i in range(TRACE_PAIRS):
        plain.append(workload.run_pass())
        times, pass_tracer = traced_pass(workload, ctx, i)
        traced.append(times)
        tracer = tracer or pass_tracer
    spans = tracer.spans
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{cls.name}-{ctx.seed}.jsonl"
    trace_path.unlink(missing_ok=True)
    tracer.dump(trace_path)

    values = layer_metrics(spans)
    values.update(measured_imports())
    plain_s, traced_s = pass_time(plain), pass_time(traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    lines = [f"{TRACE_PAIRS} alternating passes, each operation at its median:"
             f" untraced {plain_s:.4f} s, traced {traced_s:.4f} s; {len(spans)} spans of"
             f" the first traced pass written to {trace_path.relative_to(ROOT)}"]
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit in layer_metric_names()]
    metrics = {name: metric(values[name], unit) for name, unit in layer_metric_names()}
    return metrics, lines


def run_workload(args) -> int:
    require_source()
    cls = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{cls.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        clock = HostClock()
        setups = time_setup(cls.name, args.seed, work, 1 if args.trace else SETUP_REPEATS,
                            clock)
        import trigroup.cli

        if Path(trigroup.__file__).resolve().parent != SRC / "trigroup":
            raise SystemExit(f"error: trigroup imported from {trigroup.__file__}")
        os.environ.pop("TRIGROUP_SEED", None)
        checker = Checker()
        guard = DeterminismGuard(checker)
        ctx = Context(ROOT, work, args.seed, child_env(), checker, guard, clock)
        workload = cls(ctx)
        if args.trace:
            metrics, lines = run_traced(cls, workload, ctx, ROOT / ".bench_out")
        else:
            metrics, lines = run_untraced(cls, workload, args.seconds, setups, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {cls.name} seed {args.seed} trace {args.trace}:"
          f" closed loop, 1 caller, no threads")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate {checker.error_rate:.4g} ({checker.failed} failed of"
          f" {checker.attempted} checked operations;"
          f" {ctx.guard.compared} determinism comparisons)")
    for problem in checker.problems:
        print(f"FAILED {problem}")
    print(json.dumps(result_line(checker, metrics)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics prefixed by workload."""
    checker = Checker()
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} failed:\n{proc.stderr}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        checker.attempted += result["attempted"]
        checker.failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps(result_line(checker, metrics)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        require_source()
        WORKLOADS[args.workload].prepare(Path(args.prepare), args.seed)
        return 0
    if args.verify:
        require_source()
        print(json.dumps(WORKLOADS[args.workload].verify(Path(args.verify))))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
