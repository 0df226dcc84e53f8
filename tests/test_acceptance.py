"""Acceptance gate: twelve criteria, one printed verdict line each.

Each test prints ``[criterion NN] PASS/FAIL ...`` straight to the terminal
(bypassing capture) and then asserts, so a plain ``pytest -v`` run shows the
full scoreboard.  Criterion 6 pins a finding: the nominal per-level ratio
bound is false, and the criterion checks the counterexamples that an
exhaustive scan finds (count and smallest case in its verdict line), while
the corrected form of the bound holds everywhere.  Criterion 10 cannot fail
at its two-face budget, so a companion test without a verdict line pins the
violations of one fixed presentation at three faces.
"""

import hashlib
import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import binomtest, chisquare

from trigroup.cayley import fig1_demo
from trigroup.cli import main as cli_main
from trigroup.complexes import (
    abstract_from_walks,
    cancel,
    chain_report,
    random_abstract_complex,
    red,
    red_contributions,
)
from trigroup.enumeration import (
    DiagramBudget,
    enumerate_reduced_diagrams,
    euler_check,
    isoperimetric_report,
    sampled_violation_trend,
)
from trigroup import fulfillment
from trigroup.fulfillment import ratio_sweep
from trigroup.presentation import sample_presentation
from trigroup.seeding import make_rng
from trigroup.thresholds import constants_pipeline, d_crit, min_k
from trigroup.words import (
    enumerate_triangle_words,
    sample_triangle_word,
    triangle_word_count,
)

from sweep_oracle import (
    FulfillmentProbe,
    exact_probabilities,
    forces_within_word,
    ratio_checks,
    record_structure,
    top_level_check,
)

_out_counter = itertools.count()


def _verdict(capsys, num: int, ok: bool, detail: str, elapsed: float | None = None):
    tag = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"[criterion {num:02d}] {tag} {detail}{timing}")


@pytest.fixture(scope="module")
def diagram_corpus():
    """Reduced diagrams with at most 4 faces over 20 sampled presentations."""
    start = time.perf_counter()
    diagrams = []
    presentations = 0
    for m in (5, 10):
        for i in range(10):
            p = sample_presentation(m, Fraction(1, 5), 1000 + i)
            presentations += 1
            budget = DiagramBudget(max_faces=4, presentation=p)
            diagrams.extend(enumerate_reduced_diagrams(budget))
    return diagrams, presentations, time.perf_counter() - start


def test_criterion_01_cyclically_reduced_count(capsys):
    start = time.perf_counter()
    results = []
    for m in range(1, 6):
        words = enumerate_triangle_words(m)
        expected = (2 * m - 1) ** 3 + 1
        assert triangle_word_count(m) == expected
        results.append(len(words) == expected)
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 1.0
    _verdict(capsys, 1, ok,
             "exhaustive word count equals (2m-1)^3+1 for m=1..5", elapsed)
    assert all(results)
    assert elapsed < 1.0


def test_criterion_02_red_worked_example(capsys):
    # six faces piled on one edge: four meet it first at the second walk
    # position, two at the third; the tied four contribute 4 - 1 = 3
    walks = [
        (2, 1, 3),
        (4, 1, 5),
        (6, 1, 7),
        (8, 1, 9),
        (10, 11, 1),
        (12, 13, 1),
    ]
    Y = abstract_from_walks(walks, (1,) * 6)
    contribution = red_contributions(Y)[0]
    ok = contribution == 3 and red(Y) == 3
    _verdict(capsys, 2, ok,
             f"six-face pileup contributes exactly {contribution} (= 4-1)")
    assert contribution == 3
    assert red(Y) == 3


def test_criterion_03_reduced_has_zero_red(capsys, diagram_corpus):
    diagrams, presentations, elapsed = diagram_corpus
    violations = sum(1 for D in diagrams if red(D) != 0)
    ok = len(diagrams) >= 1000 and presentations >= 20 and violations == 0
    _verdict(capsys, 3, ok,
             f"red(D) = 0 on {len(diagrams)} reduced diagrams over "
             f"{presentations} presentations, {violations} violations", elapsed)
    assert len(diagrams) >= 1000
    assert presentations >= 20
    assert violations == 0


def test_criterion_04_chain_inequality_fuzz(capsys):
    start = time.perf_counter()
    rng = make_rng(0, "acceptance-chain")
    violations = 0
    for _ in range(10_000):
        Y = random_abstract_complex(rng, 6)
        if not chain_report(Y)["holds"]:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _verdict(capsys, 4, ok,
             f"red + forced >= cancel on 10^4 random complexes, "
             f"{violations} violations", elapsed)
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_05_euler_identities(capsys, diagram_corpus):
    diagrams, _, _ = diagram_corpus
    start = time.perf_counter()
    bad = 0
    for D in diagrams:
        vertex_ok = 2 * D.vertex_count == 2 + D.area + D.boundary_length
        edge_ok = 3 * D.area == D.boundary_length + 2 * cancel(D)
        if not (vertex_ok and edge_ok and euler_check(D)):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and len(diagrams) > 0
    _verdict(capsys, 5, ok,
             f"V = 1+(|D|+|bD|)/2 and 3|D| = |bD|+2 Cancel on all "
             f"{len(diagrams)} enumerated discs", elapsed)
    assert bad == 0


def test_criterion_06_exact_ratio_oracle(capsys, monkeypatch):
    # The nominal bound p_i/p_{i-1} <= (2m-1)^(-delta_i) is false, and the
    # exhaustive scan finds where: faces that force one word to repeat (or
    # invert) one of its own letters.  By hand, one face (e, e, e): its words
    # are the 2m words (l, l, l), delta = 2, so the bound needs
    # 2m(2m-1)^2 <= (2m-1)^3+1, which holds at m=1 (2 = 2) and fails at m=2
    # (36 > 28) and m=3 (150 > 126).  The corrected bound
    # p_i/p_{i-1} <= 2m(2m-1)^(2-delta_i)/((2m-1)^3+1) holds on every
    # structure, with equality on that face.  This criterion pins the
    # counterexamples: that they exist, where they start, which family they
    # fall in, and that brute force confirms them.  Three work counts of the
    # same run are pinned too: canonicity tests (one per partition the
    # orderly generator yields), counting keys (none for a partition with a
    # self-cancelling face) and kernel counts (one per distinct block).
    work = Counter()

    def counted(name, fn):
        def call(*args):
            work[name] += 1
            return fn(*args)
        return call

    for name in ("_stabilizer", "_merged_key", "count_letter_assignments"):
        monkeypatch.setattr(fulfillment, name, counted(name, getattr(fulfillment, name)))
    start = time.perf_counter()
    report = ratio_sweep(max_faces=3, ms=(1, 2, 3))
    violations = report["violations"]
    nominal = len(violations)
    corrected = len(report["guaranteed_violations"])
    smallest = min(
        violations,
        key=lambda v: (len(v["classes"]), v["classes"], v["signs"]),
        default=None,
    )

    def shape(v):
        return len(v["classes"]) // 3, len(v["top"]), len(v["lower_groups"])

    # a fixed-stride sample, topped up so that every shape is rechecked
    sample = violations[:: max(1, nominal // 25)]
    for s in sorted({shape(v) for v in violations} - {shape(v) for v in sample}):
        sample.append(next(v for v in violations if shape(v) == s))

    def brute_force_agrees(v):
        fs = record_structure(v)
        checks = [(m, top_level_check(fs, m)) for m in (1, 2, 3)]
        return [m for m, c in checks if not c["holds"]] == v["ms"] and all(
            c["holds_guaranteed"] for _, c in checks
        )

    eee = abstract_from_walks([(1, 1, 1)], (1,))

    def hand_count_holds(m):
        # (e, e, e) at m: exactly 2m words, the nominal bound holds only at
        # m = 1, and the corrected bound holds with no room for one more word
        probe = exact_probabilities(eee, m)
        [check] = ratio_checks(probe)
        [over] = ratio_checks(FulfillmentProbe(eee, m, (1, probe.counts[1] + 1)))
        return (
            probe.counts == (1, 2 * m)
            and check["delta"] == 2
            and check["holds"] == (m == 1)
            and check["holds_guaranteed"]
            and not over["holds_guaranteed"]
        )

    violating_ms = sorted({m for v in violations for m in v["ms"]})
    in_family = sum(forces_within_word(v) for v in violations)
    checks = {
        "counterexamples_exist": nominal > 0,
        "none_at_m1": 1 not in violating_ms,
        "smallest_is_eee": smallest == {
            "classes": [0, 0, 0],
            "signs": [1, 1, 1],
            "top": [0],
            "lower_groups": [],
            "ms": [2, 3],
        },
        "hand_count": all(hand_count_holds(m) for m in (1, 2, 3)),
        "within_word_family": in_family == nominal,
        "brute_force_sample": all(brute_force_agrees(v) for v in sample),
        "corrected_bound_holds": corrected == 0,
        "report_sha256": hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
        == "2a3567812fc491293d21dff757fae852021c3b58a7d667878ed380aa74bdb295",
        "work_counts": work == {
            "_stabilizer": 120_325, "_merged_key": 320_788, "count_letter_assignments": 729,
        },
    }
    elapsed = time.perf_counter() - start
    checks["within_budget"] = elapsed < 300.0
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _verdict(
        capsys, 6, ok,
        f"nominal ratio bound over {report['structures']} structures "
        f"(<= 3 faces, m in 1..3): {nominal} counterexamples at m in "
        f"{violating_ms}, {in_family} of them forcing a word to repeat or "
        f"invert its own letters, {len(sample)} rechecked by brute force "
        f"(corrected bound: {corrected} violations); "
        + (
            f"smallest counterexample classes={smallest['classes']} "
            f"signs={smallest['signs']} at m={smallest['ms']}"
            if smallest else "no counterexample"
        )
        + (f"; failed: {', '.join(failed)}" if failed else ""),
        elapsed,
    )
    assert checks == {name: True for name in checks}


def test_criterion_07_critical_density(capsys):
    dc = d_crit()
    # the two sides of the closing inequality, written out independently of
    # the package: they meet at the critical density
    gap = abs(4 * (3 * dc - 1) / (3 * (1 - 2 * dc)) - (2 - 3 * dc))
    ok = round(dc, 5) == 0.38307 and gap <= 1e-12
    _verdict(capsys, 7, ok,
             f"d_crit = {dc:.10f} (5 decimals: {round(dc, 5)}), "
             f"|lhs-rhs| = {gap:.2e}")
    assert round(dc, 5) == 0.38307
    assert gap <= 1e-12


def test_criterion_08_constants_pipeline(capsys):
    from decimal import Decimal

    report = constants_pipeline(Fraction(7, 20))
    floor_l = 4 * 800 * 40 + 4 * 40 + 2
    expected_n = 3 * (floor_l + 1600 * 40) ** 2
    upper_50 = Decimal(report["precise"]["upper_bound"])
    lower_50 = Decimal(report["precise"]["lower_bound"])
    checks = {
        "k": min_k(Fraction(7, 20)) == 3 and report["k"] == 3,
        "delta": report["delta"] == "40",
        "L": report["L"] == floor_l == 128162,
        "N": report["N"] == expected_n,
        "closing": report["upper_bound"] < report["lower_bound"],
        "closing_50digit": upper_50 < lower_50,
    }
    ok = all(checks.values())
    _verdict(capsys, 8, ok,
             f"d0=7/20: k=3, delta=40, L={report['L']}, N=k(L+1600*40)^2, "
             f"upper {upper_50:.6f} < lower {lower_50:.6f} at 50 digits")
    assert checks == {key: True for key in checks}


def test_criterion_09_fig1_demo(capsys):
    start = time.perf_counter()
    report = fig1_demo()
    elapsed = time.perf_counter() - start
    strips_ok = all(
        row["cancel"] == 2 * row["t"] - 1 for row in report["strips"]
    ) and [row["t"] for row in report["strips"]] == [1, 2, 3, 4]
    ok = report["all_checks_pass"] and strips_ok and elapsed < 1.0
    _verdict(capsys, 9, ok,
             "a^i geodesic to i=6, translate disjoint, Hausdorff distance "
             f"{report['hausdorff_distance']}, strips t=1..4 have "
             "Cancel = 2t-1", elapsed)
    assert report["all_checks_pass"]
    assert strips_ok
    assert elapsed < 1.0


def test_criterion_10_isoperimetric_trend(capsys):
    start = time.perf_counter()
    trend = sampled_violation_trend(
        (10, 40), Fraction(17, 50), Fraction(1, 25), 2, 200, 0
    )
    elapsed = time.perf_counter() - start
    low, high = trend["per_m"]
    n = low["presentations"]
    p_low = low["violating_presentations"] / n
    # nonincreasing within a one-sided binomial test at the 5% level: either
    # the m=40 frequency already sits at or below the m=10 one, or its count
    # is not significantly above it
    if high["violating_presentations"] <= low["violating_presentations"]:
        nonincreasing = True
        pvalue = 1.0
    else:
        pvalue = binomtest(
            high["violating_presentations"], n, max(p_low, 1e-12),
            alternative="greater",
        ).pvalue
        nonincreasing = pvalue >= 0.05
    ok = nonincreasing and elapsed < 600.0
    _verdict(capsys, 10, ok,
             f"violation frequency {low['violating_presentations']}/{n} at "
             f"m=10 vs {high['violating_presentations']}/{n} at m=40 "
             f"(p={pvalue:.3f})", elapsed)
    assert nonincreasing
    assert elapsed < 600.0


def test_criterion_10_companion_can_fail():
    # criterion 10 runs at two faces, where |bD| < 0.72|D| is impossible, so
    # it cannot fail; at three faces one fixed presentation does violate the
    # bound, and the violations are pinned exactly
    p = sample_presentation(10, Fraction(17, 50), 0)
    rep = isoperimetric_report(DiagramBudget(3, p, Fraction(1, 25)))
    bad = [row for row in rep["diagrams"] if not row["cancel_ok"]]
    assert rep["identity_holds"] and rep["equivalence_holds"]
    assert rep["violations"] == len(bad) == 10
    assert all(row["area"] == 3 and row["boundary_length"] == 1 for row in bad)


def test_criterion_11_sampler_uniformity(capsys):
    start = time.perf_counter()
    support = enumerate_triangle_words(2)
    rng = make_rng(0, "acceptance-chi2")
    counts = Counter(sample_triangle_word(2, rng) for _ in range(100_000))
    observed = [counts[w] for w in support]
    result = chisquare(observed)
    elapsed = time.perf_counter() - start
    ok = len(support) == 28 and result.pvalue >= 0.01
    _verdict(capsys, 11, ok,
             f"chi-square over the 28-word support at m=2, 10^5 draws: "
             f"p = {result.pvalue:.4f} >= 0.01", elapsed)
    assert len(support) == 28
    assert result.pvalue >= 0.01


def test_criterion_12_byte_determinism(capsys, tmp_path):
    start = time.perf_counter()
    pres = tmp_path / "pres.json"
    status = cli_main(["sample", "--m", "4", "--d", "1/4", "--seed", "11",
                       "--out", str(pres)])
    assert status == 0
    cases = [
        ("sample", "--m", "5", "--d", "1/3", "--seed", "2"),
        ("enum-diagrams", "--presentation", str(pres), "--max-faces", "3",
         "--epsilon", "1/25"),
        ("pipeline", "--d0", "7/20"),
        ("ball", "--presentation", str(pres), "--radius", "2"),
        ("chain-check", "--count", "200", "--seed", "3"),
        ("fig1-demo",),
    ]
    mismatched = []
    for argv in cases:
        blobs = []
        for _ in range(2):
            out = tmp_path / f"out_{next(_out_counter)}.json"
            cli_main([*argv, "--out", str(out)])
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(argv[0])
    elapsed = time.perf_counter() - start
    ok = not mismatched
    _verdict(capsys, 12, ok,
             f"byte-identical JSON across repeat runs of "
             f"{len(cases)} subcommands", elapsed)
    assert mismatched == []
