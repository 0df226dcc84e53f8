"""Command-line entry point.

One binary, twelve subcommands, one seed.  Every report is JSON written to
``--out`` or stdout, with a ``meta`` block recording the tool version, the
full configuration, and the seed, so any figure can be regenerated from its
own file.  Timing goes to stderr only: output bytes depend on nothing but
the configuration.

Exit status: 0 when the requested checks pass, 1 when a check fails
(fulfil ratio bound, enum-diagrams identity or equivalence, fig1
postconditions, chain fuzzing, words count), 2 for bad input or
configuration.  In process, ``main`` returns the status of every outcome,
argparse's own included: a value it cannot parse, an unknown or a missing
flag returns 2, and ``--help`` or ``--version`` returns 0, once argparse
has printed what a shell run prints.  Every other refusal is a
``ValueError`` whose message names the bad field, and each subcommand
checks its flags before it reads a file.

``main`` may be called many times in one process.  The parser is built
once, on the first call, and ``$TRIGROUP_SEED`` is read on every call, so
each call takes the seed the environment holds at that moment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Iterable

from . import __version__
from .cayley import (
    DEFAULT_VERTEX_BUDGET,
    BallGraph,
    ball_from_json_dict,
    ball_from_json_text,
    ballgraph_chunks,
    build_ball,
    fig1_demo,
    slim_delta_estimate,
)
from .complexes import (
    cancel,
    chain_report,
    complex_from_json,
    complex_to_json,
    edges_in_no_face,
    random_abstract_complex,
    red,
    red_contributions,
)
from .enumeration import DiagramBudget, isoperimetric_report
from .fulfillment import level_checks, montecarlo_fulfillment, structure_of
from .presentation import TriangularPresentation, sample_presentation
from .seeding import make_rng
from .thresholds import SLIMNESS_SCALE, constants_pipeline, constants_sweep
from .words import enumerate_triangle_words, triangle_word_count, word_to_json

SEED_ENV = "TRIGROUP_SEED"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: ``fulfil --exact`` costs time exponential in the largest 2-connected block
#: of its constraint graph; six labels can still make one block of 18
#: constraints, 2^18 inclusion-exclusion terms.
EXACT_LABEL_CAP = 6


# ---------------------------------------------------------------------------
# parsing helpers


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 7/20, got {text!r}")


def _fraction_grid(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rationals like 3/10,1/3,7/20, got {text!r}"
        )


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {SEED_ENV}={raw!r} is not an integer")


def _read(path: str, kind: str) -> str:
    """The text of the file at ``path``; each failure is a ValueError that
    names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{kind} file {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} file {path!r}: not UTF-8 text ({exc})")


def _parse(text: str, path: str, kind: str, parse):
    """``parse`` applied to the JSON object in ``text``, read from the file at
    ``path``; each failure is a ValueError that names the file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path!r}: invalid JSON ({exc})")
    except RecursionError:
        raise ValueError(f"{kind} file {path!r}: JSON nested too deeply")
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise ValueError(f"{kind} file {path!r}: unreadable JSON ({exc})")
    if not isinstance(data, dict):
        raise ValueError(f"{kind} file {path!r}: expected a JSON object")
    try:
        return parse(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{kind} file {path!r}: {exc}")


def _load(path: str, kind: str, parse):
    return _parse(_read(path, kind), path, kind, parse)


def _write_chunks(path: str, chunks: Iterable[str], flag: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"{flag} {path!r}: cannot write ({exc.strerror or exc})")


# ---------------------------------------------------------------------------
# emission


def _json_safe(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _dumps(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` for a report with
    string keys.  A top-level list that holds some object more than once
    renders each of its objects once and repeats the text; the memo is by
    identity, so objects that compare equal but print apart (1, True and
    1.0) stay apart.  Any other field is rendered whole."""

    def repeats(value) -> bool:
        return isinstance(value, list) and len(set(map(id, value))) < len(value)

    def block(value, pad: str) -> str:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)

    # one call when nothing repeats: rendering field by field cost 15-35 us
    # more per report (32-44 -> 67-69 us for pipeline)
    if not any(map(repeats, report.values())):
        return json.dumps(report, indent=2, sort_keys=True)
    fields = []
    for key in sorted(report):
        value = report[key]
        if repeats(value):
            texts = {i: block(x, "    ") for i, x in {id(x): x for x in value}.items()}
            text = "[\n    " + ",\n    ".join([texts[id(x)] for x in value]) + "\n  ]"
        else:
            text = block(value, "  ")
        fields.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _emit(payload: dict | BallGraph, args: argparse.Namespace) -> None:
    """Write the report with a ``meta`` block to ``--out`` or stdout; a ball
    is streamed, in the bytes ``json.dumps`` would give its dict.  Any other
    report goes through ``_dumps``, which renders a top-level list once per
    object when the list holds some object twice, as enum-diagrams' does."""
    config = {
        key: _json_safe(value)
        for key, value in vars(args).items()
        if key not in ("func", "out", "csv")
    }
    meta = {
        "tool": "trigroup",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
    }
    if isinstance(payload, BallGraph):
        chunks = ballgraph_chunks(payload, meta)
    else:
        chunks = [_dumps({**payload, "meta": meta}) + "\n"]
    if args.out:
        _write_chunks(args.out, chunks, "--out")
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> tuple[dict, int]:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    if not 0 < args.d < 1:
        raise ValueError("--d must be a density in (0, 1)")
    p = sample_presentation(args.m, args.d, args.seed)
    return p.to_json(), EXIT_OK


def cmd_words(args) -> tuple[dict, int]:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    if args.m > args.max_m:
        raise ValueError(
            f"m={args.m} above the enumeration cap {args.max_m};"
            f" pass --max-m {args.m} to override"
        )
    words = enumerate_triangle_words(args.m)
    expected = triangle_word_count(args.m)
    payload = {
        "m": args.m,
        "count": len(words),
        "expected": expected,
        "matches": len(words) == expected,
    }
    if args.list:
        payload["words"] = [word_to_json(w, args.m) for w in words]
    return payload, EXIT_OK if payload["matches"] else EXIT_CHECK_FAILED


def cmd_cancel(args) -> tuple[dict, int]:
    Y = _load(args.complex, "complex", complex_from_json)
    payload = {
        "vertices": Y.vertex_count,
        "edge_count": Y.edge_count,
        "face_count": Y.face_count,
        "degrees": Y.degrees,
        "contributions": [max(deg - 1, 0) for deg in Y.degrees],
        "cancel": cancel(Y),
    }
    return payload, EXIT_OK


def cmd_red(args) -> tuple[dict, int]:
    Y = _load(args.complex, "complex", complex_from_json)
    payload = {
        "red": red(Y),
        "contributions": red_contributions(Y),
        "chain": None if edges_in_no_face(Y) else chain_report(Y),
    }
    return payload, EXIT_OK


def cmd_enum_diagrams(args) -> tuple[dict, int]:
    if args.max_faces < 1:
        raise ValueError("--max-faces must be at least 1")
    if args.epsilon <= 0:
        raise ValueError("--epsilon must be positive")
    if args.max_faces > args.face_cap:
        raise ValueError(
            f"max faces {args.max_faces} above the cap {args.face_cap};"
            f" pass --face-cap {args.max_faces} to override"
        )
    p = _load(args.presentation, "presentation", TriangularPresentation.from_json)
    budget = DiagramBudget(max_faces=args.max_faces, presentation=p, epsilon=args.epsilon)
    payload = isoperimetric_report(budget)
    ok = payload["identity_holds"] and payload["equivalence_holds"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_fulfil(args) -> tuple[dict, int]:
    if args.m < 1:
        raise ValueError("--m must be at least 1")
    trials = 10_000 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError("--trials must be positive")
    Y = _load(args.complex, "complex", complex_from_json)
    try:
        if Y.face_count == 0:
            raise ValueError("'faces' is empty; fulfil needs at least one face")
        if not args.exact:
            result = montecarlo_fulfillment(Y, args.m, trials, args.seed)
            return {"mode": "montecarlo", **result}, EXIT_OK
        n = len(set(Y.labels))
        if n > EXACT_LABEL_CAP:
            raise ValueError(f"{n} labels, above the cap of {EXACT_LABEL_CAP}")
        fs = structure_of(Y)
        loose = edges_in_no_face(Y)
        if loose:
            raise ValueError(
                f"'edges' entry {loose[0]} lies in no face;"
                " forced-letter levels need every edge inside a face"
            )
        checks = level_checks(fs, args.m)
    except ValueError as exc:
        raise ValueError(f"complex file {args.complex!r}: {exc}")
    base = triangle_word_count(args.m)
    levels = [
        {
            **row,
            "probability": str(Fraction(row["count"], base ** row["level"])),
            "bound": str(row["bound"]),
        }
        for row in checks
    ]
    all_hold = all(row["holds"] for row in checks)
    payload = {
        "mode": "exact",
        "m": args.m,
        "support": base,
        "levels": levels,
        "all_hold": all_hold,
        "all_hold_guaranteed": all(row["holds_guaranteed"] for row in checks),
    }
    return payload, EXIT_OK if all_hold else EXIT_CHECK_FAILED


def cmd_pipeline(args) -> tuple[dict, int]:
    if args.precision < 1:
        raise ValueError("--precision must be at least 1")
    if args.long_constant < 1:
        raise ValueError("--long-constant must be positive")
    report = constants_pipeline(
        args.d0,
        args.A1,
        args.A2,
        long_constant=args.long_constant,
        digits=args.precision,
    )
    return report, EXIT_OK


def cmd_sweep(args) -> tuple[dict, int]:
    if args.long_constant < 1:
        raise ValueError("--long-constant must be positive")
    rows = constants_sweep(args.d0_grid, args.A1, args.A2, long_constant=args.long_constant)
    csv_text = "d0,k,L,N\n" + "".join(
        f"{row['d0']},{row['k']},{row['L']},{row['N']}\n" for row in rows
    )
    if args.csv:
        _write_chunks(args.csv, [csv_text], "--csv")
    payload = {"rows": rows, "csv": csv_text}
    return payload, EXIT_OK


def cmd_ball(args) -> tuple[BallGraph, int]:
    if args.max_vertices < 1:
        raise ValueError("--max-vertices must be positive")
    if args.radius < 0:
        raise ValueError("--radius must be nonnegative")
    p = _load(args.presentation, "presentation", TriangularPresentation.from_json)
    try:
        g = build_ball(p, args.radius, max_vertices=args.max_vertices)
    except ValueError as exc:
        if "vertex budget" in str(exc):
            raise ValueError(f"{exc}; pass --max-vertices to raise it")
        raise
    return g, EXIT_OK


def cmd_delta_est(args) -> tuple[dict, int]:
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    text = _read(args.graph, "graph")
    # the streamed loader takes the layout ``ball --out`` writes; the dict
    # loader takes any other and words every refusal
    g = ball_from_json_text(text)
    if g is None:
        g = _parse(text, args.graph, "graph", ball_from_json_dict)
    estimate = slim_delta_estimate(g, args.samples, args.seed)
    closed = sum(g.closed)
    payload = {
        "estimate": estimate,
        "samples": args.samples,
        "radius": g.radius,
        "closed_vertices": closed,
        "exhaustive": math.comb(closed, 3) <= args.samples,
    }
    return payload, EXIT_OK


def cmd_fig1_demo(args) -> tuple[dict, int]:
    report = fig1_demo()
    return report, EXIT_OK if report["all_checks_pass"] else EXIT_CHECK_FAILED


def cmd_chain_check(args) -> tuple[dict, int]:
    if args.count < 1:
        raise ValueError("--count must be positive")
    if args.max_faces < 1:
        raise ValueError("--max-faces must be positive")
    rng = make_rng(args.seed, "chain")
    violations = 0
    first = None
    for draw in range(args.count):
        Y = random_abstract_complex(rng, max_faces=args.max_faces)
        report = chain_report(Y)
        if not report["holds"]:
            violations += 1
            if first is None:
                first = {"draw": draw, **report, "complex": complex_to_json(Y)}
    payload = {
        "checked": args.count,
        "max_faces": args.max_faces,
        "violations": violations,
        "first_violation": first,
    }
    return payload, EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: it depends on
    no input, so ``main`` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="trigroup",
        description="Laboratory for random triangular group presentations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"trigroup {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        help=f"master seed; defaults to ${SEED_ENV} or 0",
    )
    common.add_argument("--out", metavar="FILE", help="write the JSON report to FILE")

    s = sub.add_parser("sample", parents=[common], help="sample a presentation")
    s.add_argument("--m", type=int, required=True, help="number of generators")
    s.add_argument("--d", type=_fraction, required=True, help="density, e.g. 1/3")
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser(
        "words", parents=[common], help="enumerate cyclically reduced triangle words"
    )
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--list", action="store_true", help="include the words themselves")
    s.add_argument("--max-m", type=int, default=10, help="enumeration size cap")
    s.set_defaults(func=cmd_words)

    s = sub.add_parser("cancel", parents=[common], help="edge degrees and cancel value")
    s.add_argument("--complex", required=True, metavar="FILE")
    s.set_defaults(func=cmd_cancel)

    s = sub.add_parser(
        "red", parents=[common], help="reducedness defect and chain inequality"
    )
    s.add_argument("--complex", required=True, metavar="FILE")
    s.set_defaults(func=cmd_red)

    s = sub.add_parser(
        "enum-diagrams",
        parents=[common],
        help="enumerate reduced disc diagrams and check isoperimetry",
    )
    s.add_argument("--presentation", required=True, metavar="FILE")
    s.add_argument("--max-faces", type=int, default=3)
    s.add_argument("--epsilon", type=_fraction, default=Fraction(1, 100))
    s.add_argument("--face-cap", type=int, default=5)
    s.set_defaults(func=cmd_enum_diagrams)

    s = sub.add_parser(
        "fulfil", parents=[common], help="fulfillment probabilities per label level"
    )
    s.add_argument("--complex", required=True, metavar="FILE")
    s.add_argument("--m", type=int, required=True)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="closed-form exact counts")
    mode.add_argument("--trials", type=int, help="Monte Carlo sample count")
    s.set_defaults(func=cmd_fulfil)

    s = sub.add_parser(
        "pipeline", parents=[common], help="derive the acylindricity constants"
    )
    s.add_argument("--d0", type=_fraction, required=True)
    s.add_argument("--A1", type=_fraction, default=Fraction(0))
    s.add_argument("--A2", type=_fraction, default=Fraction(0))
    s.add_argument("--long-constant", type=int, default=SLIMNESS_SCALE)
    s.add_argument("--precision", type=int, default=50, help="digits in exact fields")
    s.set_defaults(func=cmd_pipeline)

    s = sub.add_parser(
        "sweep", parents=[common], help="constants over a density grid (JSON + CSV)"
    )
    s.add_argument("--d0-grid", type=_fraction_grid, required=True)
    s.add_argument("--A1", type=_fraction, default=Fraction(0))
    s.add_argument("--A2", type=_fraction, default=Fraction(0))
    s.add_argument("--long-constant", type=int, default=SLIMNESS_SCALE)
    s.add_argument("--csv", metavar="FILE", help="also write the CSV table to FILE")
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("ball", parents=[common], help="build a folded Cayley ball")
    s.add_argument("--presentation", required=True, metavar="FILE")
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_BUDGET)
    s.set_defaults(func=cmd_ball)

    s = sub.add_parser(
        "delta-est", parents=[common], help="slimness estimate on a saved ball"
    )
    s.add_argument("--graph", required=True, metavar="FILE")
    s.add_argument("--samples", type=int, default=1000)
    s.set_defaults(func=cmd_delta_est)

    s = sub.add_parser(
        "fig1-demo", parents=[common], help="parallel geodesics and strip diagrams"
    )
    s.set_defaults(func=cmd_fig1_demo)

    s = sub.add_parser(
        "chain-check", parents=[common], help="fuzz the chain inequality"
    )
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--max-faces", type=int, default=6)
    s.set_defaults(func=cmd_chain_check)

    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        # read on every call, and before parsing, so a bad value is reported
        # ahead of any usage error, --help included
        seed = _default_seed()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse has printed its usage error, the help or the version
            return exc.code
        if args.seed is None:
            args.seed = seed
        payload, status = args.func(args)
        _emit(payload, args)
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
