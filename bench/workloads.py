"""The four benchmark workloads.

Each workload has a ``prepare`` step that writes its input files (timed
from a fresh interpreter as ``setup_s``) and a ``run_pass`` that runs its
short operations once each, checks every output, feeds every report's bytes
to the determinism guard and returns ``{phase: {operation: seconds}}``.
Passes repeat until the run's time is up, and at least ``min_passes`` times,
so every operation is timed several times in a run and every report meets
the determinism guard more than once.  ``summary`` turns the passes into the
primary and secondary end-to-end times: a phase's time is the sum over its
operations of each operation's median time in the run.  Every time is a wall
time scaled to a fixed reference speed of the host (see
``harness.HostClock``).

Inputs whose amount of work moves with their seed are fixed, and their work
sizes are checked against constants, so that a kernel doing less work fails
instead of reading as a speed-up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from harness import Checker, DeterminismGuard, HostClock, median, tail
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Context:
    """What a workload needs from the run: paths, seed, checks, tracing."""

    root: Path
    work: Path
    seed: int
    env: dict
    checker: Checker
    guard: DeterminismGuard
    clock: HostClock = field(default_factory=HostClock)
    tracer: Tracer | None = None  # set while a traced pass runs
    trace_file: Path | None = None


def _timed(ctx: Context, fn):
    """Time of ``fn()`` on the run's clock, after a collection, so garbage
    left by the previous operation is not charged to this one."""
    gc.collect()
    return ctx.clock.time(fn)


def _cli_in_process(argv: list[str]) -> int:
    """``trigroup.cli.main`` with its stdout and stderr swallowed; reports
    are read from the ``--out`` file."""
    from trigroup import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _bench_seed(seed: int, *tags) -> int:
    from trigroup.seeding import derive_seed

    return derive_seed(seed, "bench", *tags)


def phase_time(passes: list[dict], phase: str) -> float:
    """The sum over a phase's operations of each one's median time."""
    return sum(median([p[phase][op] for p in passes]) for op in passes[0][phase])


class Workload:
    """Operations timed once per pass; a phase's time sums their median times."""

    name = ""
    min_passes = 5
    primary = secondary = ""  # the phases reported as primary_s, secondary_s

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def run_pass(self) -> dict[str, dict[str, float]]:
        raise NotImplementedError

    def work_size(self) -> str:
        raise NotImplementedError

    def check_once(self) -> None:
        """A costly check made once per traced run, outside the timing."""

    def summary(self, passes: list[dict]) -> tuple[float, float, list[str]]:
        lines = []
        for phase in (self.primary, self.secondary):
            ops = len(passes[0][phase])
            lines.append(
                f"{phase} {phase_time(passes, phase):.4f} s (median of {len(passes)} passes"
                f"{'' if ops == 1 else f' for each of {ops} operations, summed'};"
                f" fastest pass {min(sum(p[phase].values()) for p in passes):.4f} s)"
            )
        lines.append(f"work: {self.work_size()}")
        return phase_time(passes, self.primary), phase_time(passes, self.secondary), lines


# ---------------------------------------------------------------------------
# cli-cold: one cold `python -m trigroup.cli` process per call


class CliCold(Workload):
    name = "cli-cold"
    min_passes = 4  # a session takes about 9 s; four already run past 20 s
    primary = "cli_session_s"
    secondary = "cli_call_p50_s"
    ENUM_PRESENTATION = (3, Fraction(1, 4))
    # one relator on two generators: the radius-4 ball keeps at least 13
    # closed vertices, so delta-est always has triangles to sample
    BALL_PRESENTATION = (2, Fraction(1, 6))
    BALL_RADIUS = 4
    DELTA_SAMPLES = 50
    TRIALS = 2000

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        import trigroup.cli  # noqa: F401  (set-up covers the CLI's imports)
        from trigroup.complexes import (
            abstract_from_walks,
            dumps_complex,
            random_abstract_complex,
        )
        from trigroup.presentation import sample_presentation
        from trigroup.seeding import make_rng

        m, d = CliCold.ENUM_PRESENTATION
        p = sample_presentation(m, d, _bench_seed(seed, "cli"))
        (work / "pres.json").write_text(p.dumps())
        m, d = CliCold.BALL_PRESENTATION
        p = sample_presentation(m, d, _bench_seed(seed, "cli", "ball"))
        (work / "ball-pres.json").write_text(p.dumps())
        Y = random_abstract_complex(make_rng(_bench_seed(seed, "cli", "complex")), max_faces=4)
        (work / "random.json").write_text(dumps_complex(Y))
        # the one-face (e,e,f) complex: the nominal bound fails at m=2 by design
        (work / "eef.json").write_text(dumps_complex(abstract_from_walks([(1, 1, 2)], [1])))

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        w, s = ctx.work, str(ctx.seed)
        ball = str(w / "ball.json")
        self.ball = Path(ball)
        # (argv, expected exit status, output check on the parsed report)
        self.calls = [
            (["sample", "--m", "3", "--d", "1/4", "--seed", s], 0,
             lambda r: len(r["relators"]) > 0),
            (["words", "--m", "3", "--list"], 0,
             lambda r: r["matches"] and len(r["words"]) == r["expected"]),
            (["cancel", "--complex", str(w / "random.json")], 0,
             lambda r: r["cancel"] == sum(r["contributions"])),
            (["red", "--complex", str(w / "random.json")], 0,
             lambda r: r["chain"]["holds"]),
            (["fulfil", "--complex", str(w / "eef.json"), "--m", "2", "--exact"], 1,
             lambda r: not r["all_hold"] and r["all_hold_guaranteed"]),
            (["fulfil", "--complex", str(w / "random.json"), "--m", "3",
              "--trials", str(self.TRIALS), "--seed", s], 0,
             lambda r: 0 <= r["hits"] <= r["trials"] == self.TRIALS),
            (["pipeline", "--d0", "7/20"], 0,
             lambda r: (r["k"], r["delta"], r["L"]) == (3, "40", 128162)),
            (["sweep", "--d0-grid", "3/10,1/3,7/20,19/50"], 0,
             lambda r: len(r["rows"]) == 4),
            (["enum-diagrams", "--presentation", str(w / "pres.json"), "--max-faces", "3",
              "--seed", s], 0,
             lambda r: r["identity_holds"] and r["equivalence_holds"]),
            (["ball", "--presentation", str(w / "ball-pres.json"),
              "--radius", str(self.BALL_RADIUS), "--out", ball], 0, None),
            (["delta-est", "--graph", ball, "--samples", str(self.DELTA_SAMPLES),
              "--seed", s], 0,
             lambda r: (r["samples"], r["radius"]) == (self.DELTA_SAMPLES, self.BALL_RADIUS)),
            (["fig1-demo"], 0, lambda r: r["all_checks_pass"]),
            (["chain-check", "--count", "1000", "--seed", s], 0,
             lambda r: r["violations"] == 0),
        ]

    def _run(self, index: int, argv: list[str]) -> subprocess.CompletedProcess:
        """One cold process; traced passes start it through the shim, which
        writes its spans under the harness span of this call."""
        tracer = self.ctx.tracer
        if tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "trigroup.cli", *argv],
                cwd=self.ctx.root, env=self.ctx.env, capture_output=True,
            )
        with tracer.span(f"bench.{argv[0]}") as span:
            env = dict(self.ctx.env)
            env["BENCH_TRACE_FILE"] = str(self.ctx.trace_file)
            env["BENCH_TRACE_RUN"] = f"{tracer.run_id}/call{index}"
            env["BENCH_TRACE_PARENT"] = span["id"]
            return subprocess.run(
                [sys.executable, str(BENCH_DIR / "cli_shim.py"), *argv],
                cwd=self.ctx.root, env=env, capture_output=True,
            )

    def _call(self, index: int) -> float:
        argv, expected, check = self.calls[index]
        label = f"cli {argv[0]}"
        elapsed, proc = self.ctx.clock.time(lambda: self._run(index, argv))
        checker = self.ctx.checker
        if not checker.expect_exit(label, proc.returncode, expected):
            checker.problems.append(proc.stderr.decode(errors="replace")[-400:])
            return elapsed
        report = self.ball.read_bytes() if argv[0] == "ball" else proc.stdout
        self.ctx.guard.observe(f"cli/{index}", report)
        try:
            doc = json.loads(report)
            ok = doc["meta"]["tool"] == "trigroup" and (check is None or check(doc))
        except (ValueError, KeyError, TypeError) as exc:
            checker.fail(f"{label} report", repr(exc))
        else:
            checker.check(f"{label} report", bool(ok), "output check failed")
        return elapsed

    def run_pass(self) -> dict[str, dict[str, float]]:
        return {self.primary: {i: self._call(i) for i in range(len(self.calls))}}

    def summary(self, passes: list[dict]) -> tuple[float, float, list[str]]:
        # every call is timed once per session; the session is the sum of each
        # call's median time, and the p50 the median of those
        sessions = [p[self.primary] for p in passes]
        per_call = [median([s[i] for s in sessions]) for i in range(len(self.calls))]
        session = sum(per_call)
        p50 = median(per_call)
        calls = [t for s in sessions for t in s.values()]
        n = len(calls)
        lines = [
            f"cli_session_s {session:.4f} s (sum of per-call median times over"
            f" {len(passes)} sessions; fastest session"
            f" {min(sum(s.values()) for s in sessions):.4f} s)",
            f"cli_call_p50_s {p50:.4f} s (median of the {len(per_call)} per-call median"
            f" times; median of all {n} calls {median(calls):.4f} s)",
        ]
        t = tail(calls)
        if t is None:
            lines.append(f"cli_call_tail_s n/a (only {n} calls)")
        else:
            lines.append(f"cli_call_tail_s {t[1]:.4f} s (p{t[0]} of {n} calls)")
        for (argv, _, _), seconds in zip(self.calls, per_call):
            lines.append(f"cli call {argv[0]} {seconds:.4f} s")
        lines.append(f"work: {len(self.calls)} calls per session, {n} calls")
        return session, p50, lines


# ---------------------------------------------------------------------------
# isoperimetry: a deep enumeration through cli.main, then the shallow trend


class Isoperimetry(Workload):
    name = "isoperimetry"
    primary = "isop_deep_s"
    secondary = "isop_trend_s"
    DENSITY = Fraction(17, 50)
    EPSILON = Fraction(1, 25)
    # the deep presentation is fixed, because its diagram count moves by up
    # to a half between presentation seeds; the workload seed drives the
    # trend's presentations instead
    DEEP_M, DEEP_PRESENTATION_SEED = 10, 0
    DEEP_LEVELS = {1: 20, 2: 166, 3: 2463}
    DEEP_VIOLATIONS = 10
    TREND_MS = (10, 40)
    TREND_PRESENTATIONS = 3

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        import trigroup.cli  # noqa: F401
        from trigroup.presentation import sample_presentation

        p = sample_presentation(
            Isoperimetry.DEEP_M, Isoperimetry.DENSITY, Isoperimetry.DEEP_PRESENTATION_SEED
        )
        (work / "deep.json").write_text(p.dumps())

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.deep_out = ctx.work / "deep-report.json"
        self.trend_diagrams = 0

    def _deep(self) -> float:
        argv = ["enum-diagrams", "--presentation", str(self.ctx.work / "deep.json"),
                "--max-faces", "3", "--epsilon", str(self.EPSILON),
                "--seed", str(self.ctx.seed), "--out", str(self.deep_out)]
        elapsed, status = _timed(self.ctx, lambda: _cli_in_process(argv))
        checker = self.ctx.checker
        if checker.expect_exit("enum-diagrams deep", status, 0):
            report = self.deep_out.read_bytes()
            self.ctx.guard.observe("deep", report)
            doc = json.loads(report)
            levels: dict[int, int] = {}
            for row in doc["diagrams"]:
                levels[row["area"]] = levels.get(row["area"], 0) + 1
            checker.check(
                "enum-diagrams deep report",
                doc["identity_holds"] and doc["equivalence_holds"]
                and levels == self.DEEP_LEVELS
                and doc["total"] == sum(self.DEEP_LEVELS.values())
                and doc["violations"] == self.DEEP_VIOLATIONS,
                f"identity, equivalence, violations or diagrams per level {levels} wrong",
            )
        return elapsed

    def _trend(self) -> float:
        from trigroup import enumeration

        elapsed, rep = _timed(self.ctx, lambda: enumeration.sampled_violation_trend(
            self.TREND_MS, self.DENSITY, self.EPSILON, 2,
            self.TREND_PRESENTATIONS, self.ctx.seed,
        ))
        self.ctx.guard.observe("trend", json.dumps(rep, sort_keys=True).encode())
        rows = rep["per_m"]
        self.trend_diagrams = sum(r["diagrams"] for r in rows)
        # at two faces with d + eps = 19/50 no reduced disc can violate the bound
        self.ctx.checker.check(
            "trend report",
            [r["m"] for r in rows] == list(self.TREND_MS)
            and all(r["presentations"] == self.TREND_PRESENTATIONS for r in rows)
            and all(r["diagrams"] > 0 and r["violating_diagrams"] == 0 for r in rows),
            "per-m rows wrong or a violation at two faces",
        )
        return elapsed

    def run_pass(self) -> dict[str, float]:
        return {self.primary: {"deep": self._deep()}, self.secondary: {"trend": self._trend()}}

    def work_size(self) -> str:
        per_level = ", ".join(f"level{a}={n}" for a, n in self.DEEP_LEVELS.items())
        return (f"deep diagrams {per_level}; trend {self.trend_diagrams} diagrams"
                f" over {len(self.TREND_MS) * self.TREND_PRESENTATIONS} presentations")


# ---------------------------------------------------------------------------
# cayley: the baseline ball written by `ball --out`, read by `delta-est`


class Cayley(Workload):
    name = "cayley"
    primary = "ball_build_s"
    secondary = "delta_est_s"
    # the baseline ball: its size depends strongly on the presentation seed
    # (32,001 vertices at seed 1, 6,485 at seed 3), and the cost of an
    # estimate moves by a quarter between sample seeds, so both are fixed
    M, DENSITY, PRESENTATION_SEED, RADIUS = 4, Fraction(1, 6), 1, 6
    VERTICES, CLOSED = 32_001, 6_365
    SAMPLES, SAMPLE_SEED = 5, 1

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        import trigroup.cli  # noqa: F401
        from trigroup.presentation import sample_presentation

        p = sample_presentation(Cayley.M, Cayley.DENSITY, Cayley.PRESENTATION_SEED)
        (work / "ball-pres.json").write_text(p.dumps())

    @staticmethod
    def verify(work: Path) -> dict:
        """Build a reference ball and compare the written ballgraph with it.

        Runs in a child process, so the reference does not count in the
        workload's peak memory.
        """
        from trigroup.cayley import ball_from_json_dict, build_ball
        from trigroup.presentation import TriangularPresentation

        p = TriangularPresentation.loads((work / "ball-pres.json").read_text())
        reference = build_ball(p, Cayley.RADIUS)
        loaded = ball_from_json_dict(json.loads((work / "ball.json").read_bytes()))
        return {
            "equal": loaded == reference,
            "vertices": reference.vertex_count,
            "closed": sum(reference.closed),
        }

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.ball = ctx.work / "ball.json"
        self.estimate = ctx.work / "estimate.json"
        self.round_trip_checked = False

    def _build(self) -> float:
        argv = ["ball", "--presentation", str(self.ctx.work / "ball-pres.json"),
                "--radius", str(self.RADIUS), "--out", str(self.ball)]
        elapsed, status = _timed(self.ctx, lambda: _cli_in_process(argv))
        if self.ctx.checker.expect_exit("ball", status, 0):
            self.ctx.guard.observe("ball", self.ball.read_bytes())
        return elapsed

    def _estimate(self) -> float:
        argv = ["delta-est", "--graph", str(self.ball), "--samples", str(self.SAMPLES),
                "--seed", str(self.SAMPLE_SEED), "--out", str(self.estimate)]
        elapsed, status = _timed(self.ctx, lambda: _cli_in_process(argv))
        if self.ctx.checker.expect_exit("delta-est", status, 0):
            report = self.estimate.read_bytes()
            self.ctx.guard.observe("delta-est", report)
            doc = json.loads(report)
            self.ctx.checker.check(
                "delta-est report",
                doc["samples"] == self.SAMPLES and doc["radius"] == self.RADIUS
                and doc["closed_vertices"] == self.CLOSED and doc["estimate"] >= 0,
                "samples, radius or closed vertices wrong",
            )
        return elapsed

    def _check_round_trip(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", self.name,
             "--verify", str(self.ctx.work)],
            cwd=self.ctx.root, env=self.ctx.env, capture_output=True, text=True,
        )
        try:
            got = json.loads(proc.stdout)
        except ValueError:
            self.ctx.checker.fail("ballgraph round trip", proc.stderr[-400:])
            return
        self.ctx.checker.expect_equal(
            "ballgraph round trip", got,
            {"equal": True, "vertices": self.VERTICES, "closed": self.CLOSED},
        )

    def run_pass(self) -> dict[str, float]:
        times = {self.primary: {"ball": self._build()},
                 self.secondary: {"delta-est": self._estimate()}}
        # later passes must write the same bytes, which the guard checks
        if not self.round_trip_checked:
            self._check_round_trip()
            self.round_trip_checked = True
        return times

    def work_size(self) -> str:
        return (f"{self.VERTICES} vertices, {self.CLOSED} closed,"
                f" {self.SAMPLES} triangles sampled per estimate")


# ---------------------------------------------------------------------------
# structure-sweep: the two-face sweep, then `fulfil --exact` on fixed complexes


class StructureSweep(Workload):
    name = "structure-sweep"
    primary = "sweep_s"
    secondary = "fulfil_exact_s"
    SWEEP_FACES, SWEEP_MS = 2, (1, 2, 3)
    SWEEP = {"structures": 2_381, "per_face_count": {1: 11, 2: 2_370},
             "violations": 116, "guaranteed": 0}
    FULL_SWEEP = {"structures": 1_028_658, "per_face_count": {1: 11, 2: 2_370, 3: 1_026_277},
                  "violations": 5_367, "guaranteed": 0}
    # face walks and labels, with their consistent-tuple counts per level at
    # m=3; renaming and reorienting edges leaves the counts unchanged, so the
    # workload seed does that and the amount of work stays the same
    EXACT_M = 3
    COMPLEXES = {
        "chain": ([(1, 2, 3), (-3, 4, 5), (-5, 6, 7)], [1, 2, 3], [126, 2646, 55566]),
        "fan": ([(1, 2, 3), (-1, 4, 5), (-2, 6, -4)], [1, 2, 3], [126, 2646, 8832]),
        "repeat": ([(1, 2, 3), (1, 4, 5), (2, 6, 7)], [1, 2, 3], [126, 2646, 55566]),
        "disc": ([(1, 2, 3), (-1, 4, 5), (-2, 6, 7), (-3, 8, 9)], [1, 2, 3, 3],
                 [126, 2646, 13230]),
    }

    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        import trigroup.cli  # noqa: F401
        from trigroup.complexes import abstract_from_walks, dumps_complex
        from trigroup.seeding import make_rng

        for name, (walks, labels, _) in StructureSweep.COMPLEXES.items():
            rng = make_rng(_bench_seed(seed, "exact", name))
            edges = max(abs(r) for walk in walks for r in walk)
            rename = list(range(1, edges + 1))
            rng.shuffle(rename)
            sign = [rng.choice((1, -1)) for _ in range(edges)]
            walks = [tuple(sign[abs(r) - 1] * rename[abs(r) - 1] * (1 if r > 0 else -1)
                           for r in walk) for walk in walks]
            (work / f"{name}.json").write_text(dumps_complex(abstract_from_walks(walks, labels)))

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.exact_out = ctx.work / "exact.json"

    def _check_sweep(self, label: str, rep: dict, want: dict) -> None:
        got = {
            "structures": rep["structures"],
            "per_face_count": rep["per_face_count"],
            "violations": len(rep["violations"]),
            "guaranteed": len(rep["guaranteed_violations"]),
        }
        self.ctx.checker.expect_equal(label, got, want)

    def _sweep(self) -> float:
        from trigroup import fulfillment

        elapsed, rep = _timed(
            self.ctx, lambda: fulfillment.ratio_sweep(self.SWEEP_FACES, self.SWEEP_MS))
        self._check_sweep("ratio_sweep totals", rep, self.SWEEP)
        self.ctx.guard.observe("sweep", json.dumps(rep, sort_keys=True).encode())
        return elapsed

    def _exact(self) -> dict[str, float]:
        elapsed = {}
        for name, (_, _, counts) in self.COMPLEXES.items():
            argv = ["fulfil", "--complex", str(self.ctx.work / f"{name}.json"),
                    "--m", str(self.EXACT_M), "--exact", "--out", str(self.exact_out)]
            elapsed[name], status = _timed(self.ctx, lambda: _cli_in_process(argv))
            if not self.ctx.checker.expect_exit(f"fulfil --exact {name}", status, 0):
                continue
            report = self.exact_out.read_bytes()
            self.ctx.guard.observe(f"exact/{name}", report)
            doc = json.loads(report)
            self.ctx.checker.expect_equal(
                f"fulfil --exact {name} counts",
                ([row["count"] for row in doc["levels"]], doc["all_hold"]), (counts, True),
            )
        return elapsed

    def run_pass(self) -> dict[str, float]:
        return {self.primary: {"sweep": self._sweep()}, self.secondary: self._exact()}

    def check_once(self) -> None:
        """Every structure with at most 3 faces: about 30 s, so only the
        traced run makes this check."""
        from trigroup import fulfillment

        rep = fulfillment.ratio_sweep(3, self.SWEEP_MS)
        self._check_sweep("ratio_sweep(3) totals", rep, self.FULL_SWEEP)

    def work_size(self) -> str:
        return (f"{self.SWEEP['structures']} structures swept at m in {self.SWEEP_MS};"
                f" fulfil --exact at m={self.EXACT_M} on {len(self.COMPLEXES)} complexes")


WORKLOADS = {w.name: w for w in (CliCold, Isoperimetry, Cayley, StructureSweep)}
