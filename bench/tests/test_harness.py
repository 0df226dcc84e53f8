"""Tests of the benchmark harness: statistics, span arithmetic and checks.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json
import signal
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from harness import (
    Checker,
    DeterminismGuard,
    PROBE_REFERENCE_S,
    HostClock,
    median,
    probe,
    result_line,
    scaled,
    spread,
    tail,
)
from tracing import (
    Tracer,
    covered,
    import_times,
    layer_metric_names,
    layer_metrics,
    self_times,
)
from workloads import Cayley, CliCold, Context, Isoperimetry, StructureSweep


# ---------------------------------------------------------------------------
# percentiles


@pytest.mark.parametrize(
    "n, percentile, index",
    [(39, 74, 28), (26, 61, 15), (100, 90, 89), (1000, 99, 989)],
)
def test_tail_leaves_ten_beyond(n, percentile, index):
    values = [float(v) for v in range(n)]
    p, value = tail(values[::-1])  # input order must not matter
    assert (p, value) == (percentile, values[index])
    assert sum(v > value for v in values) >= 10


@pytest.mark.parametrize("n", [1, 13, 20])
def test_tail_absent_when_not_above_median(n):
    assert tail([1.0] * n) is None


def test_median_and_spread():
    assert median([3, 1, 2]) == 2
    assert spread([10.0] * 8) == 0
    values = [9, 10, 10, 10, 10, 10, 10, 11]
    assert spread(values) == pytest.approx((10 - 10) / 10)
    assert spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# ---------------------------------------------------------------------------
# host-speed calibration


def test_scaled_time_divides_out_the_host_speed():
    ref = PROBE_REFERENCE_S
    assert scaled(2.0, [ref]) == pytest.approx(2.0)
    assert scaled(2.0, [2 * ref] * 3) == pytest.approx(1.0)  # host at half speed
    # the median probe counts, so one probe slowed by an interrupt does not
    assert scaled(2.0, [2 * ref, 2 * ref, 50 * ref]) == pytest.approx(1.0)


def busy(seconds):
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass
    return 7


def test_host_clock_probes_while_the_operation_runs():
    ref = PROBE_REFERENCE_S
    previous = signal.getsignal(signal.SIGALRM)
    clock = HostClock(probe=lambda: 2 * ref, interval=0.002)
    seconds, value = clock.time(lambda: busy(0.05))
    assert value == 7
    assert len(clock.probes) > 10  # one before, one after, the rest during
    assert seconds == pytest.approx(clock.walls[0] / 2)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert "1 timed operations" in clock.describe()


def test_host_clock_leaves_the_handler_time_out():
    def slow_probe():
        busy(0.001)
        return PROBE_REFERENCE_S

    clock = HostClock(probe=slow_probe, interval=0.004)
    clock.time(lambda: busy(0.1))
    during = len(clock.probes) - 2
    assert during > 5
    assert clock.walls[0] < 0.1 - 0.0005 * during  # each handler call took over 1 ms


def test_host_clock_restores_the_timer_when_the_operation_fails():
    previous = signal.getsignal(signal.SIGALRM)
    clock = HostClock(probe=lambda: PROBE_REFERENCE_S, interval=0.002)
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: busy(0.01) / 0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_is_short():
    assert 0 < probe() < 0.1


# ---------------------------------------------------------------------------
# spans


def span(sid, parent, name, start, end, **attrs):
    s = {"id": sid, "parent": parent, "name": name, "run": "r",
         "start": start, "end": end}
    if attrs:
        s["attrs"] = attrs
    return s


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == 7
    assert covered(0, 10, [(2, 3), (2, 3)]) == 1
    assert covered(5, 6, [(0, 1)]) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        span("a", None, "cli.main", 0.0, 10.0),
        span("b", "a", "cayley.build_ball", 1.0, 4.0),
        span("c", "a", "cayley.ball_to_json_dict", 3.0, 6.0),
        span("d", "b", "complexes.cancel", 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10 - 5)
    assert own["b"] == pytest.approx(3 - 0.5)
    assert own["c"] == pytest.approx(3)
    assert own["d"] == pytest.approx(0.5)


def test_layer_metrics_from_spans():
    spans = [
        span("p", None, "bench.pass", 0.0, 20.0),
        span("t", "p", "enumeration.sampled_violation_trend", 0.0, 10.0),
        span("r", "t", "enumeration.isoperimetric_report", 1.0, 9.0),
        span("g1", "r", "enumeration.enumerate_reduced_diagrams", 1.0, 2.0, level=1),
        span("g2", "r", "enumeration.enumerate_reduced_diagrams", 2.0, 5.0, level=2),
        span("k", "r", "complexes.cancel", 5.0, 6.0),
        span("c1", "p", "fulfillment.count_letter_assignments", 11.0, 12.0),
        span("c2", "c1", "fulfillment.count_letter_assignments", 11.2, 11.6),
        span("b", "p", "cayley.build_ball", 12.0, 14.0, vertices=40, closed=9),
    ]
    m = layer_metrics(spans)
    assert set(m) == {name for name, _ in layer_metric_names()}
    assert m["enumeration.level1_s"] == 1.0 and m["enumeration.level2_s"] == 3.0
    assert m["enumeration.diagrams.level2"] == 1
    assert m["enumeration.level3_s"] == 0
    # self time: trend 10-8, report 8-5, generator 1+3
    assert m["enumeration.self_s"] == pytest.approx(2 + 3 + 4)
    assert m["complexes.cancel.calls"] == 1
    # a nested call of the same function is counted, not double-timed
    assert m["fulfillment.count_letter_assignments.calls"] == 2
    assert m["fulfillment.count_letter_assignments_s"] == pytest.approx(1.0)
    assert m["fulfillment.self_s"] == pytest.approx(1.0)
    assert (m["cayley.vertices"], m["cayley.closed_vertices"]) == (40, 9)
    assert m["cli.main_overhead_s"] == 0 and m["trace.spans"] == len(spans)


def test_tracer_wraps_from_imports_and_restores():
    import trigroup.cli
    from trigroup import cli, complexes, enumeration

    original = complexes.cancel
    tracer = Tracer("t")
    tracer.install()
    try:
        assert enumeration.cancel is complexes.cancel is not original
        assert cli.cancel is complexes.cancel
        budget = enumeration.DiagramBudget(
            2, trigroup.presentation.sample_presentation(2, Fraction(1, 4), 3), Fraction(1, 100)
        )
        report = enumeration.isoperimetric_report(budget)
    finally:
        tracer.uninstall()
    assert complexes.cancel is original and enumeration.cancel is original
    m = layer_metrics(tracer.spans)
    assert m["complexes.cancel.calls"] == report["total"]
    levels = m["enumeration.diagrams.level1"] + m["enumeration.diagrams.level2"]
    assert levels == report["total"]


def test_import_times_parse():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     240000 | sympy\n"
        "import time:        80 |     320000 |   trigroup.thresholds\n"
        "import time:       100 |     380000 | trigroup.cli\n"
    )
    got = import_times(stderr)
    assert got["trigroup.cli"] == pytest.approx(0.38)
    assert got["trigroup.thresholds"] == pytest.approx(0.32)


# ---------------------------------------------------------------------------
# checks and failure counting


def test_checker_counts_failures_and_result_line():
    c = Checker()
    assert c.expect_exit("ok", 0, 0)
    assert not c.expect_exit("wrong", 0, 1)
    assert c.error_rate == 0.5
    line = result_line(c, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert "wrong: exit 0, expected 1" in c.problems


def test_empty_run_is_not_correct():
    line = result_line(Checker(), {})
    assert line["attempted"] >= 1 and line["failed"] == 1 and not line["correct"]


def test_determinism_guard():
    c = Checker()
    g = DeterminismGuard(c)
    g.observe("a", b"report")
    g.observe("a", b"report")
    g.observe("b", b"other")
    assert c.failed == 0 and g.compared == 1
    g.observe("a", b"report!")
    assert c.failed == 1 and g.compared == 2


def make_ctx(tmp_path) -> Context:
    c = Checker()
    return Context(tmp_path, tmp_path, 1, {}, c, DeterminismGuard(c))


def cli_result(argv, status, doc):
    return subprocess.CompletedProcess(argv, status, json.dumps(doc).encode(), b"")


def test_cli_wrong_exit_code_is_a_failure(tmp_path, monkeypatch):
    ctx = make_ctx(tmp_path)
    wl = CliCold(ctx)
    index = next(i for i, (argv, *_) in enumerate(wl.calls) if "--exact" in argv)
    doc = {"all_hold": False, "all_hold_guaranteed": True, "meta": {"tool": "trigroup"}}
    monkeypatch.setattr(wl, "_run", lambda i, argv: cli_result(argv, 1, doc))
    wl._call(index)
    assert ctx.checker.failed == 0
    # the (e,e,f) complex must fail its nominal check: exit 0 is wrong
    monkeypatch.setattr(wl, "_run", lambda i, argv: cli_result(argv, 0, doc))
    wl._call(index)
    assert ctx.checker.failed == 1
    assert ctx.checker.problems[0].startswith("cli fulfil: exit 0, expected 1")


def test_cli_output_check_catches_a_false_identity(tmp_path, monkeypatch):
    ctx = make_ctx(tmp_path)
    wl = CliCold(ctx)
    index = next(i for i, (argv, *_) in enumerate(wl.calls) if argv[0] == "enum-diagrams")
    doc = {"identity_holds": True, "equivalence_holds": False, "meta": {"tool": "trigroup"}}
    monkeypatch.setattr(wl, "_run", lambda i, argv: cli_result(argv, 0, doc))
    wl._call(index)
    assert ctx.checker.failed == 1


def test_cli_session_covers_every_subcommand(tmp_path):
    from trigroup.cli import build_parser

    names = {argv[0] for argv, *_ in CliCold(make_ctx(tmp_path)).calls}
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    assert names == set(sub.choices)


def fake_reports(monkeypatch, *reports, status=0):
    """Stand in for cli.main: write the next report to the --out file."""
    queue = iter(reports)

    def fake_cli(argv):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(next(queue)))
        return status

    monkeypatch.setattr(workloads, "_cli_in_process", fake_cli)


def deep_report(levels, **fields):
    rows = [{"area": a} for a, n in levels.items() for _ in range(n)]
    doc = {"diagrams": rows, "total": len(rows), "violations": Isoperimetry.DEEP_VIOLATIONS,
           "identity_holds": True, "equivalence_holds": True}
    doc.update(fields)
    return doc


def deep_failures(tmp_path, monkeypatch, report, status=0):
    fake_reports(monkeypatch, report, status=status)
    wl = Isoperimetry(make_ctx(tmp_path))
    wl._deep()
    return wl.ctx.checker.failed


def test_deep_report_checks(tmp_path, monkeypatch):
    levels = Isoperimetry.DEEP_LEVELS
    good = deep_report(levels)
    assert deep_failures(tmp_path, monkeypatch, good) == 0
    assert deep_failures(tmp_path, monkeypatch, dict(good, identity_holds=False)) == 1
    assert deep_failures(tmp_path, monkeypatch, dict(good, total=good["total"] + 1)) == 1
    assert deep_failures(tmp_path, monkeypatch, dict(good, violations=0)) == 1
    assert deep_failures(tmp_path, monkeypatch, good, status=1) == 1


def test_deep_report_with_one_diagram_fewer_is_a_failure(tmp_path, monkeypatch):
    # an enumerator that merges two classes does less work; it must fail
    fewer = dict(Isoperimetry.DEEP_LEVELS)
    fewer[3] -= 1
    assert deep_failures(tmp_path, monkeypatch, deep_report(fewer)) == 1


def test_deep_reports_must_repeat_byte_for_byte(tmp_path, monkeypatch):
    good = deep_report(Isoperimetry.DEEP_LEVELS)
    fake_reports(monkeypatch, good, dict(good, epsilon="1/25"))
    wl = Isoperimetry(make_ctx(tmp_path))
    wl._deep()
    wl._deep()
    assert wl.ctx.checker.problems == ["determinism deep: report bytes differ"]


def test_ballgraph_verify_compares_with_a_reference(tmp_path, monkeypatch):
    from trigroup.cayley import ball_to_json_dict, build_ball
    from trigroup.presentation import sample_presentation

    p = sample_presentation(2, Fraction(1, 6), 4)
    (tmp_path / "ball-pres.json").write_text(p.dumps())
    monkeypatch.setattr(Cayley, "RADIUS", 2)
    ball = build_ball(p, 2)
    (tmp_path / "ball.json").write_text(json.dumps(ball_to_json_dict(ball)))
    assert Cayley.verify(tmp_path) == {
        "equal": True, "vertices": ball.vertex_count, "closed": sum(ball.closed),
    }
    (tmp_path / "ball.json").write_text(json.dumps(ball_to_json_dict(build_ball(p, 3))))
    assert not Cayley.verify(tmp_path)["equal"]


@pytest.mark.parametrize(
    "verdict, failed",
    [({"equal": True, "vertices": 32_001, "closed": 6_365}, 0),
     ({"equal": False, "vertices": 32_001, "closed": 6_365}, 1),
     ({"equal": True, "vertices": 32_000, "closed": 6_365}, 1),
     ({"equal": True, "vertices": 32_001, "closed": 6_364}, 1)],
)
def test_round_trip_check_pins_the_ball_size(tmp_path, monkeypatch, verdict, failed):
    # a faster build_ball that returned a smaller ball would also load back
    # equal to its own reference; the fixed size catches it
    def fake_run(argv, **kwargs):
        assert "--verify" in argv
        return subprocess.CompletedProcess(argv, 0, json.dumps(verdict), "")

    monkeypatch.setattr(workloads.subprocess, "run", fake_run)
    wl = Cayley(make_ctx(tmp_path))
    wl._check_round_trip()
    assert wl.ctx.checker.failed == failed


def sweep_report(structures, per_face_count, violations, guaranteed):
    return {"structures": structures, "per_face_count": per_face_count,
            "violations": [{}] * violations, "guaranteed_violations": [{}] * guaranteed}


@pytest.mark.parametrize(
    "structures, per_face_count, violations, guaranteed, failed",
    [(2_381, {1: 11, 2: 2_370}, 116, 0, 0),
     (2_380, {1: 11, 2: 2_369}, 116, 0, 1),
     (2_381, {1: 12, 2: 2_369}, 116, 0, 1),
     (2_381, {1: 11, 2: 2_370}, 115, 0, 1),
     (2_381, {1: 11, 2: 2_370}, 116, 1, 1)],
)
def test_two_face_sweep_check(tmp_path, monkeypatch, structures, per_face_count,
                              violations, guaranteed, failed):
    from trigroup import fulfillment

    report = sweep_report(structures, per_face_count, violations, guaranteed)
    monkeypatch.setattr(fulfillment, "ratio_sweep", lambda *a: report)
    wl = StructureSweep(make_ctx(tmp_path))
    wl._sweep()
    assert wl.ctx.checker.failed == failed


@pytest.mark.parametrize(
    "structures, violations, guaranteed, failed",
    [(1_028_658, 5_367, 0, 0), (1_028_658, 5_366, 0, 1),
     (1_028_657, 5_367, 0, 1), (1_028_658, 5_367, 1, 1)],
)
def test_full_sweep_check(tmp_path, monkeypatch, structures, violations, guaranteed, failed):
    from trigroup import fulfillment

    per_face = {1: 11, 2: 2_370, 3: structures - 2_381}
    report = sweep_report(structures, per_face, violations, guaranteed)
    monkeypatch.setattr(fulfillment, "ratio_sweep", lambda *a: report)
    wl = StructureSweep(make_ctx(tmp_path))
    wl.check_once()
    assert wl.ctx.checker.failed == failed


def exact_report(counts, all_hold=True):
    return {"levels": [{"count": c} for c in counts], "all_hold": all_hold}


def exact_failures(tmp_path, monkeypatch, reports, status=0):
    fake_reports(monkeypatch, *reports, status=status)
    wl = StructureSweep(make_ctx(tmp_path))
    wl._exact()
    return wl.ctx.checker.failed


def test_fulfil_exact_checks_counts_and_exit(tmp_path, monkeypatch):
    wanted = [counts for _, _, counts in StructureSweep.COMPLEXES.values()]
    assert exact_failures(tmp_path, monkeypatch, map(exact_report, wanted)) == 0
    wrong = [list(c) for c in wanted]
    wrong[1][2] -= 1
    reports = [exact_report(c) for c in wrong[:3]] + [exact_report(wanted[3], False)]
    assert exact_failures(tmp_path, monkeypatch, reports) == 2
    failed = exact_failures(tmp_path, monkeypatch, map(exact_report, wanted), status=1)
    assert failed == len(wanted)


def test_relabelled_complexes_keep_their_counts(tmp_path):
    from trigroup.complexes import complex_from_json
    from trigroup.fulfillment import exact_probabilities

    for seed in (1, 2):
        StructureSweep.prepare(tmp_path, seed)
        for name, (walks, _, counts) in StructureSweep.COMPLEXES.items():
            Y = complex_from_json(json.loads((tmp_path / f"{name}.json").read_text()))
            assert exact_probabilities(Y, StructureSweep.EXACT_M).counts == (1, *counts)


def test_cli_session_is_the_sum_of_per_call_median_times(tmp_path):
    wl = CliCold(make_ctx(tmp_path))
    n = len(wl.calls)
    passes = [{wl.primary: {i: 1.0 + i + k for i in range(n)}} for k in (2, 0, 5)]
    passes[1][wl.primary][0] = 100.0  # one slow call in one session
    session, p50, _ = wl.summary(passes)
    # call 0 has times 3, 100, 6 (median 6); every other call has median i + 3
    assert session == pytest.approx(6.0 + sum(3.0 + i for i in range(1, n)))
    assert p50 == 3.0 + n // 2


def test_workload_reports_the_median_pass(tmp_path):
    wl = Isoperimetry(make_ctx(tmp_path))
    passes = [{wl.primary: {"deep": t}, wl.secondary: {"trend": 10 * t}}
              for t in (3.0, 1.5, 2.0, 9.0, 2.5)]
    primary, secondary, lines = wl.summary(passes)
    assert (primary, secondary) == (2.5, 25.0)
    assert "fastest pass 1.5000 s" in lines[0]


def test_phase_time_sums_each_operations_median_time(tmp_path):
    wl = StructureSweep(make_ctx(tmp_path))
    # each complex's median counts, whichever passes it comes from
    passes = [{wl.primary: {"sweep": 1.0}, wl.secondary: {"chain": 2.0, "fan": 9.0}},
              {wl.primary: {"sweep": 2.0}, wl.secondary: {"chain": 8.0, "fan": 3.0}},
              {wl.primary: {"sweep": 9.0}, wl.secondary: {"chain": 3.0, "fan": 4.0}}]
    assert wl.summary(passes)[:2] == (2.0, 7.0)
