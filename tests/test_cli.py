"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigroup
from trigroup import cayley, cli, fulfillment
from trigroup.cayley import (
    MAX_ADJACENCY_SLOTS,
    STRIP_PRESENTATION,
    ball_from_json_dict,
    ball_to_json_dict,
    build_ball,
)
from trigroup.cli import build_parser, main
from trigroup.complexes import (
    abstract_from_walks,
    chain_report,
    complex_from_json,
    dumps_complex,
)
from trigroup.fulfillment import exact_probabilities
from trigroup.presentation import relator_count, sample_presentation
from trigroup.seeding import make_rng
from trigroup.thresholds import constants_sweep

_counter = itertools.count()


@pytest.fixture(scope="module")
def pres_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pres.json"
    path.write_text(sample_presentation(3, Fraction(1, 4), 7).dumps())
    return str(path)


@pytest.fixture(scope="module")
def complex_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-complexes")
    mirror = abstract_from_walks([(1, 2, 3), (-3, -2, -1)], [1, 1])
    shared = abstract_from_walks([(1, 2, 3), (-1, 4, 5)], [1, 2])
    repeated = abstract_from_walks([(1, 1, 2)], [1])
    paths = {}
    for name, Y in (("mirror", mirror), ("shared", shared), ("repeated", repeated)):
        p = base / f"{name}.json"
        p.write_text(dumps_complex(Y))
        paths[name] = str(p)
    return paths


@pytest.fixture(scope="module")
def ball_file(tmp_path_factory, pres_file):
    path = tmp_path_factory.mktemp("cli-ball") / "ball.json"
    assert main(["ball", "--presentation", pres_file, "--radius", "2",
                 "--out", str(path)]) == 0
    return str(path)


def package_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(trigroup.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(tmp_path, *argv):
    out = tmp_path / f"out_{next(_counter)}.json"
    status = main([*argv, "--out", str(out)])
    return status, out.read_bytes()


def run_json(tmp_path, *argv):
    status, blob = run(tmp_path, *argv)
    return status, json.loads(blob)


class TestSample:
    def test_fixed_format_fields(self, tmp_path):
        status, doc = run_json(tmp_path, "sample", "--m", "4", "--d", "1/3",
                               "--seed", "11")
        assert status == 0
        assert doc["m"] == 4
        assert doc["d"] == "1/3"
        assert doc["seed"] == 11
        assert len(doc["relators"]) == relator_count(4, Fraction(1, 3))

    def test_matches_library_sampler(self, tmp_path):
        _, doc = run_json(tmp_path, "sample", "--m", "4", "--d", "1/3",
                          "--seed", "11")
        p = sample_presentation(4, Fraction(1, 3), 11)
        assert doc["relators"] == p.to_json()["relators"]

    def test_bad_density(self, tmp_path, capsys):
        assert main(["sample", "--m", "2", "--d", "3/2", "--seed", "1"]) == 2
        assert "density" in capsys.readouterr().err


class TestWords:
    def test_count_check_passes(self, tmp_path):
        status, doc = run_json(tmp_path, "words", "--m", "3")
        assert status == 0
        assert doc["count"] == doc["expected"] == 5**3 + 1
        assert doc["matches"] is True
        assert "words" not in doc

    def test_list_flag(self, tmp_path):
        _, doc = run_json(tmp_path, "words", "--m", "1", "--list")
        assert sorted(doc["words"]) == ["A", "AAA", "a", "aaa"][:doc["count"]] or \
            len(doc["words"]) == doc["count"]

    def test_cap_suggests_override(self, tmp_path, capsys):
        assert main(["words", "--m", "12"]) == 2
        assert "--max-m 12" in capsys.readouterr().err
        status, doc = run_json(tmp_path, "words", "--m", "12", "--max-m", "12")
        assert status == 0 and doc["matches"]


class TestComplexDiagnostics:
    def test_cancel_mirror(self, tmp_path, complex_files):
        status, doc = run_json(tmp_path, "cancel", "--complex", complex_files["mirror"])
        assert status == 0
        assert doc["cancel"] == 3
        assert doc["degrees"] == [2, 2, 2]
        assert doc["contributions"] == [1, 1, 1]

    def test_red_mirror(self, tmp_path, complex_files):
        status, doc = run_json(tmp_path, "red", "--complex", complex_files["mirror"])
        assert status == 0
        assert doc["red"] == 1
        assert doc["chain"]["holds"] is True
        assert doc["chain"]["cancel"] == 3

    def test_missing_file(self, capsys):
        assert main(["cancel", "--complex", "nope.json"]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": 1, "edges": []}')
        assert main(["red", "--complex", str(bad)]) == 2
        assert "missing field 'faces'" in capsys.readouterr().err

    def test_face_fields_named(self, tmp_path, capsys):
        bad = tmp_path / "badface.json"
        bad.write_text('{"vertices": 1, "edges": [], "faces": [{"boundary": [1]}]}')
        assert main(["red", "--complex", str(bad)]) == 2
        assert "'index'" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, named", [
        (("faces",), 5, "'faces'"),
        (("vertices",), float("inf"), "'vertices'"),
        (("vertices",), 2.5, "'vertices'"),
        (("vertices",), -3, "'vertices'"),
        (("edges",), 5, "'edges'"),
        (("edges",), [[0, 1, 2]], "'edges'"),
        (("edges", 0, 1), float("inf"), "'edges'"),
        (("faces", 0, "index"), 1.7, "'index' of face 0"),
        (("faces", 1, "boundary"), [-1, 4.0, 5], "'boundary' of face 1"),
        (("faces", 1, "boundary"), "abc", "'boundary' of face 1"),
        (("letters",), [1, 2, 1.5, 2, 1], "'letters'"),
    ])
    def test_malformed_fields_named(self, tmp_path, capsys, complex_files, path, value,
                                    named):
        data = json.loads(open(complex_files["shared"]).read())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(data))
        assert main(["cancel", "--complex", str(bad)]) == 2
        assert named in capsys.readouterr().err


class TestEnumDiagrams:
    def test_report(self, tmp_path, pres_file):
        status, doc = run_json(tmp_path, "enum-diagrams", "--presentation", pres_file,
                               "--max-faces", "3", "--epsilon", "1/25")
        assert status == 0
        assert doc["identity_holds"] and doc["equivalence_holds"]
        assert doc["total"] == len(doc["diagrams"]) > 0

    def test_cap_violation(self, pres_file, capsys):
        assert main(["enum-diagrams", "--presentation", pres_file,
                     "--max-faces", "7"]) == 2
        assert "--face-cap 7" in capsys.readouterr().err

    def test_cap_override(self, tmp_path, pres_file):
        status, _ = run(tmp_path, "enum-diagrams", "--presentation", pres_file,
                        "--max-faces", "6", "--face-cap", "6")
        assert status == 0


class TestFulfil:
    def test_exact_pass(self, tmp_path, complex_files):
        status, doc = run_json(tmp_path, "fulfil", "--complex",
                               complex_files["shared"], "--m", "2", "--exact")
        assert status == 0
        assert doc["all_hold"] is True
        assert [lvl["level"] for lvl in doc["levels"]] == [1, 2]
        assert doc["levels"][0]["count"] == 28
        assert doc["support"] == 28

    def test_exact_nominal_violation_exits_nonzero(self, tmp_path, complex_files):
        # a face spelling (e, e, f) forces a repeated letter; the nominal
        # ratio bound fails while the guaranteed form still holds
        status, doc = run_json(tmp_path, "fulfil", "--complex",
                               complex_files["repeated"], "--m", "2", "--exact")
        assert status == 1
        assert doc["all_hold"] is False
        assert doc["all_hold_guaranteed"] is True

    def test_montecarlo(self, tmp_path, complex_files):
        status, doc = run_json(tmp_path, "fulfil", "--complex",
                               complex_files["shared"], "--m", "2",
                               "--trials", "500", "--seed", "9")
        assert status == 0
        assert doc["mode"] == "montecarlo"
        assert doc["trials"] == 500
        assert 0 <= doc["wilson_low"] <= doc["estimate"] <= doc["wilson_high"] <= 1

    @pytest.mark.parametrize("mode", [["--exact"], ["--trials", "10"]], ids=["exact", "trials"])
    def test_faceless_complex(self, tmp_path, capsys, mode):
        faceless = tmp_path / "faceless.json"
        faceless.write_text('{"vertices": 1, "edges": [], "faces": []}')
        assert main(["fulfil", "--complex", str(faceless), "--m", "2", *mode]) == 2
        assert "'faces'" in capsys.readouterr().err

    def test_m_cap(self, tmp_path, complex_files):
        # exact counting has no cap on m, and --max-m is gone from fulfil
        status, doc = run_json(tmp_path, "fulfil", "--complex", complex_files["shared"],
                               "--m", "5", "--exact")
        assert status == 0
        shared = complex_from_json(json.loads(open(complex_files["shared"]).read()))
        brute = exact_probabilities(shared, 5).counts
        assert [lvl["count"] for lvl in doc["levels"]] == list(brute[1:])
        assert "max_m" not in doc["meta"]["config"]

    def test_label_cap(self, tmp_path, capsys):
        # a chain of faces, each sharing one edge with the next
        for n, status in ((6, 0), (7, 2)):
            walks = [(2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(n)]
            chain = tmp_path / f"chain{n}.json"
            chain.write_text(dumps_complex(abstract_from_walks(walks, range(1, n + 1))))
            assert main(["fulfil", "--complex", str(chain), "--m", "2", "--exact",
                         "--out", str(tmp_path / "out.json")]) == status
        assert "7 labels" in capsys.readouterr().err

    def test_non_triangle_face(self, tmp_path, capsys):
        # both modes refuse it with the same message, naming file and face
        digon = tmp_path / "digon.json"
        digon.write_text(dumps_complex(abstract_from_walks([(1, 2)], [1])))
        errors = []
        for mode in (["--exact"], ["--trials", "10"]):
            assert main(["fulfil", "--complex", str(digon), "--m", "2", *mode]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"complex file {str(digon)!r}: face 0 has 2 sides" in errors[0]

    def test_exact_edge_in_no_face(self, tmp_path, capsys, monkeypatch):
        # edge 1 is a loop that no face walk uses; it is refused before any
        # count is made
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"vertices": 1, "edges": [[0, 0], [0, 0]],
                                     "faces": [{"index": 1, "boundary": [1, 1, 1]}]}))
        counted = []
        monkeypatch.setattr(fulfillment, "count_letter_assignments",
                            lambda *args: counted.append(args))
        assert main(["fulfil", "--complex", str(loose), "--m", "2", "--exact"]) == 2
        assert counted == []
        assert (f"error: complex file {str(loose)!r}: 'edges' entry 1 lies in no face"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode, labels", [
        (["--exact"], [1, 3]),
        (["--trials", "10"], [1, 3]),
        # refused without a list per label up to the far one
        (["--exact"], [1, 10**6]),
        (["--trials", "10"], [1, 10**6]),
    ], ids=["gap-exact", "gap-trials", "far-index-exact", "far-index-trials"])
    def test_label_gap_names_index(self, tmp_path, capsys, mode, labels):
        gap = tmp_path / "gap.json"
        gap.write_text(dumps_complex(abstract_from_walks([(1, 2, 3), (-1, 4, 5)], labels)))
        assert main(["fulfil", "--complex", str(gap), "--m", "2", *mode]) == 2
        assert capsys.readouterr().err == (
            f"error: complex file {str(gap)!r}: 'index' values must cover 1..n: 2 is missing\n"
        )

    def test_trials_must_be_positive(self, tmp_path, capsys, complex_files):
        assert main(["fulfil", "--complex", complex_files["shared"], "--m", "2",
                     "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: --trials must be positive\n"


class TestPipeline:
    def test_frozen_values(self, tmp_path):
        status, doc = run_json(tmp_path, "pipeline", "--d0", "7/20")
        assert status == 0
        assert (doc["k"], doc["delta"], doc["L"]) == (3, "40", 128162)
        assert doc["N"] == 3 * 192162**2
        assert doc["upper_bound"] < doc["lower_bound"]

    def test_precision_flag(self, tmp_path):
        _, doc = run_json(tmp_path, "pipeline", "--d0", "7/20",
                          "--precision", "20")
        # 20 significant digits: mantissa has 20 digits plus the point
        mantissa = doc["precise"]["d_crit"].split("e")[0].replace(".", "")
        assert len(mantissa.lstrip("0")) == 20

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_precision_must_be_positive(self, capsys, precision):
        assert main(["pipeline", "--d0", "7/20", "--precision", precision]) == 2
        assert capsys.readouterr().err == "error: --precision must be at least 1\n"

    def test_supercritical_rejected(self, capsys):
        assert main(["pipeline", "--d0", "2/5"]) == 2
        assert "critical density" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--d0", "-1"], ["pipeline", "--d0", "0"],
        ["sweep", "--d0-grid", "0,7/20"],
    ])
    def test_nonpositive_d0_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert "d0 = " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["pipeline", "--d0", "x"],
         "argument --d0: expected a rational like 7/20, got 'x'"),
        (["sweep", "--d0-grid", "1/3,x"],
         "argument --d0-grid: expected comma-separated rationals like 3/10,1/3,7/20,"
         " got '1/3,x'"),
    ])
    def test_unparsed_rational_rejected(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


class TestReportBytes:
    """The stdout of the constants reports, byte for byte, at the default
    seed environment."""

    @pytest.mark.parametrize("argv, digest", [
        (["pipeline", "--d0", "7/20"],
         "917644806e43728e1357ea58d54d7c836759bff2bb300fd0f3bfb6bf176602e9"),
        (["sweep", "--d0-grid", "3/10,1/3,7/20,19/50"],
         "00fcaa558f951f6f17c3e5ffd5bde1d068cbb0289ec210fbc562ab2252ab71e5"),
    ])
    def test_stdout_sha256(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("TRIGROUP_SEED", raising=False)
        assert main([*argv, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flag", ["--A1", "--A2"])
    def test_overflowing_bound_rejected(self, capsys, monkeypatch, flag):
        # 1e400 is exact, but the lower bound it sets overflows a float
        monkeypatch.delenv("TRIGROUP_SEED", raising=False)
        assert main(["pipeline", "--d0", "7/20", flag, "1e400", "--seed", "0"]) == 2
        assert "lower_bound must be finite" in capsys.readouterr().err


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        status, doc = run_json(tmp_path, "sweep", "--d0-grid", "3/10,7/20",
                               "--csv", str(csv_path))
        assert status == 0
        assert doc["rows"] == constants_sweep([Fraction(3, 10), Fraction(7, 20)])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "d0,k,L,N"
        assert lines[1].startswith("3/10,2,")
        assert len(lines) == 3
        assert doc["csv"] == csv_path.read_text()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_csv(self, tmp_path, capsys, where):
        path = tmp_path / "nowhere" / "sweep.csv" if where == "missing-dir" else tmp_path
        assert main(["sweep", "--d0-grid", "3/10", "--csv", str(path)]) == 2
        assert f"--csv {str(path)!r}: cannot write" in capsys.readouterr().err


class TestEnumDiagramsValidation:
    @pytest.mark.parametrize("field, value", [
        ("m", 0), ("d", "3/2"), ("d", "0"), ("d", "1/0"), ("d", "x"),
        ("m", 2.5), ("m", float("inf")), ("seed", float("inf")), ("relators", 5),
        ("d", 0.35),
    ])
    def test_bad_presentation_field(self, tmp_path, capsys, field, value):
        doc = {"m": 2, "d": "1/5", "seed": 0, "relators": []}
        doc[field] = value
        bad = tmp_path / "pres.json"
        bad.write_text(json.dumps(doc))
        assert main(["enum-diagrams", "--presentation", str(bad)]) == 2
        assert f"{field} = " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("enum-diagrams",), ("ball", "--radius", "2")])
    def test_letter_code_zero(self, tmp_path, capsys, argv):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"m": 2, "d": "1/5", "seed": 0, "relators": [[0, 1, 2]]}))
        assert main([argv[0], "--presentation", str(bad), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"presentation file {str(bad)!r}: relators: " in err


class TestBall:
    def test_output_loads_as_ball(self, ball_file, pres_file):
        data = json.loads(open(ball_file).read())
        g = ball_from_json_dict(data)
        p = sample_presentation(3, Fraction(1, 4), 7)
        assert g == build_ball(p, 2)

    def test_large_radius_within_budget(self, tmp_path, pres_file):
        # the vertex budget, not the radius, bounds the cost of a ball
        status, doc = run_json(tmp_path, "ball", "--presentation", pres_file,
                               "--radius", "20")
        assert status == 0
        assert (doc["radius"], len(doc["vertices"])) == (20, 5)

    def test_vertex_budget_message(self, pres_file, capsys):
        # the group has 5 elements, and the fold allocates one id for each
        assert main(["ball", "--presentation", pres_file, "--radius", "3",
                     "--max-vertices", "4"]) == 2
        assert "--max-vertices" in capsys.readouterr().err

    def test_adjacency_limit_message(self, tmp_path, pres_file, capsys, monkeypatch):
        # m=3 gives rows of 6 slots and the fold allocates 5 ids: 30 slots
        # hold the ball, which delta-est then loads; 29 refuse it, and a
        # larger vertex budget would not help
        monkeypatch.setattr(cayley, "MAX_ADJACENCY_SLOTS", 30)
        ball = tmp_path / "ball.json"
        assert main(["ball", "--presentation", pres_file, "--radius", "3",
                     "--out", str(ball)]) == 0
        assert main(["delta-est", "--graph", str(ball), "--samples", "5"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cayley, "MAX_ADJACENCY_SLOTS", 29)
        assert main(["ball", "--presentation", pres_file, "--radius", "3"]) == 2
        err = capsys.readouterr().err
        assert "m=3" in err and "limit of 29 slots" in err
        assert "--max-vertices" not in err


class TestDeltaEst:
    def test_estimate(self, tmp_path, ball_file):
        status, doc = run_json(tmp_path, "delta-est", "--graph", ball_file,
                               "--samples", "200", "--seed", "3")
        assert status == 0
        assert doc["estimate"] >= 0
        assert doc["closed_vertices"] >= 3

    def test_format_tag(self, tmp_path, capsys):
        bad = tmp_path / "notball.json"
        bad.write_text('{"vertices": []}')
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert "format tag" in capsys.readouterr().err

    @pytest.mark.parametrize("vertices, named", [
        ([], "'vertices'"),
        ([{"distance": 0, "closed": False, "edges": {"a": 5}}], "'edges'"),
        # edges not a JSON object
        ([{"distance": 0, "closed": False, "edges": []}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": "a"}], "'edges'"),
        # keys naming no letter of rank 2, in either spelling
        ([{"distance": 0, "closed": False, "edges": {"c": 0}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"3": 0}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"0": 0}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"ab": 0}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"+1": 0}}], "'edges'"),
        # two keys naming the same slot, even with the same target
        ([{"distance": 0, "closed": False, "edges": {"a": 1, "1": 1}},
          {"distance": 1, "closed": False, "edges": {"A": 0}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"B": 1, "-2": 1}},
          {"distance": 1, "closed": False, "edges": {"b": 0}}], "'edges'"),
        # a target that is not a vertex id
        ([{"distance": 0, "closed": False, "edges": {"a": -1}}], "'edges'"),
        ([{"distance": 0, "closed": False, "edges": {"a": "0"}}], "'edges'"),
        (["vertex"], "'vertices'"),
        # distances that are not counts
        *(([{"distance": 0, "closed": False, "edges": {"a": 1}},
            {"distance": d, "closed": False, "edges": {"A": 0}}], "'distance' of vertex 1")
          for d in ("a", -3, 1.5)),
    ])
    def test_malformed_vertices(self, tmp_path, capsys, vertices, named):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps({
            "format": "ballgraph", "m": 2, "density": "1/5", "seed": None,
            "relators": [], "radius": 0, "vertices": vertices,
        }))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert named in capsys.readouterr().err

    def test_distances_pinned_by_graph(self, tmp_path, capsys, ball_file):
        # the m=3, d=1/4, seed 7 ball at R=2 (largest distance 1), edited to
        # radius 9 with every non-origin vertex at distance 7
        data = json.loads(open(ball_file).read())
        data["radius"] = 9
        for vertex in data["vertices"][1:]:
            vertex["distance"] = 7
        bad = tmp_path / "faraway.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert "'distance' of vertex 1 = 7" in capsys.readouterr().err

    def test_unreachable_vertex_refused(self, tmp_path, capsys):
        vertices = [{"distance": 0, "closed": False, "edges": {}},
                    {"distance": 1, "closed": False, "edges": {}}]
        bad = tmp_path / "island.json"
        bad.write_text(json.dumps({
            "format": "ballgraph", "m": 2, "density": "1/5", "seed": None,
            "relators": [], "radius": 1, "vertices": vertices,
        }))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert "'distance' of vertex 1 = 1, but it is unreachable" in capsys.readouterr().err

    def test_radius_below_largest_distance(self, tmp_path, capsys, ball_file):
        data = json.loads(open(ball_file).read())
        assert max(v["distance"] for v in data["vertices"]) == 1
        data["radius"] = 0
        bad = tmp_path / "shrunk.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert "'radius' = 0: below the largest distance 1" in capsys.readouterr().err

    def test_closed_flags_checked(self, tmp_path, capsys):
        # the ab2 ball at R=2 with all 9 vertices marked closed: 4 rim
        # vertices have partial stars
        data = copy.deepcopy(FUZZ_BASE)
        for vertex in data["vertices"]:
            vertex["closed"] = True
        bad = tmp_path / "allclosed.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert "'closed' of vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["m", "density", "relators", "radius", "vertices"])
    def test_missing_field_named(self, tmp_path, capsys, field):
        data = copy.deepcopy(FUZZ_BASE)
        del data[field]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert (capsys.readouterr().err
                == f"error: graph file {str(bad)!r}: missing field {field!r}\n")

    @pytest.mark.parametrize("field", ["closed", "distance", "edges"])
    def test_missing_vertex_field_named(self, tmp_path, capsys, field):
        data = copy.deepcopy(FUZZ_BASE)
        del data["vertices"][3][field]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert (f"graph file {str(bad)!r}: 'vertices' entry 3: missing field {field!r}\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("density", [5, 0.2, "1/0", None])
    def test_density_field_named(self, tmp_path, capsys, density):
        data = copy.deepcopy(FUZZ_BASE)
        data["density"] = density
        bad = tmp_path / "density.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert f"graph file {str(bad)!r}: 'density': " in capsys.readouterr().err

    def test_letter_code_zero_in_relator(self, tmp_path, capsys):
        data = copy.deepcopy(FUZZ_BASE)
        data["relators"] = [[0, 1, 2]]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        assert f"graph file {str(bad)!r}: relators: " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", 2.5, [1], True])
    def test_seed_must_be_integer_or_null(self, tmp_path, capsys, seed):
        data = copy.deepcopy(FUZZ_BASE)
        data["seed"] = seed
        bad = tmp_path / "badseed.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad), "--samples", "5"]) == 2
        assert "'seed' = " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [None, 7])
    def test_seed_null_or_integer_loads(self, tmp_path, seed):
        # the library writes null for a presentation that was not sampled
        data = copy.deepcopy(FUZZ_BASE)
        data["seed"] = seed
        good = tmp_path / "seed.json"
        good.write_text(json.dumps(data))
        status, doc = run_json(tmp_path, "delta-est", "--graph", str(good), "--samples", "5")
        assert (status, doc["radius"]) == (0, 2)

    @pytest.mark.parametrize("field, value, named", [
        ("m", 0, "m"), ("density", "3/2", "d"), ("density", "0", "d"),
        ("density", "1/0", "d"), ("density", float("inf"), "d"),
        ("m", 2.5, "'m'"), ("m", MAX_ADJACENCY_SLOTS, "'m'"),
        # a JSON number is a binary float, never the exact density
        ("density", 0.2, "d"),
        ("radius", "x", "'radius'"), ("radius", -5, "'radius'"), ("radius", 2.5, "'radius'"),
    ])
    def test_presentation_fields_validated(self, tmp_path, capsys, ball_file,
                                           field, value, named):
        data = json.loads(open(ball_file).read())
        data[field] = value
        bad = tmp_path / "badpres.json"
        bad.write_text(json.dumps(data))
        assert main(["delta-est", "--graph", str(bad)]) == 2
        # every density message names the ballgraph's field, not the
        # presentation file's d
        expected = f"'density': {named} = " if field == "density" else f"{named} = "
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("relator, problem", [
        ("aAb", "relator (1, -1, 2) is not a cyclically reduced triangle word"),
        ("abd", "relator (1, 2, 4) uses letters beyond rank 3"),
    ])
    def test_relator_field_named(self, tmp_path, capsys, ball_file, pres_file, relator,
                                 problem):
        # the same text from a ballgraph and from a presentation file
        for kind, src, argv in (("graph", ball_file, ["delta-est", "--graph"]),
                                ("presentation", pres_file, ["ball", "--radius", "1",
                                                             "--presentation"])):
            data = json.loads(open(src).read())
            data["relators"] = [relator]
            bad = tmp_path / f"{kind}.json"
            bad.write_text(json.dumps(data))
            assert main([*argv, str(bad)]) == 2
            assert capsys.readouterr().err == (
                f"error: {kind} file {str(bad)!r}: relators: {problem}\n"
            )


# a valid ballgraph small enough to fuzz: the ab2 line at radius 2, nine
# vertices of which five are closed
FUZZ_BASE = ball_to_json_dict(build_ball(STRIP_PRESENTATION, 2))
FUZZ_FIELDS = ["format", "m", "density", "seed", "relators", "radius", "vertices"]
VERTEX_FIELDS = ["distance", "closed", "edges"]
EDGE_KEYS = ["a", "A", "b", "B", "1", "-1", "2", "-2", "c", "Z", "3", "-3", "0",
             "-0", "01", "+1", " 1", "ab", "", "--1", "\u0661"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(-3, 9), max_size=3),
    st.dictionaries(st.sampled_from(EDGE_KEYS), st.integers(-3, 12), max_size=3),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(FUZZ_FIELDS)),
    st.tuples(st.just("set"), st.sampled_from(FUZZ_FIELDS), JUNK),
    st.tuples(st.just("drop-in-vertex"), st.integers(0, 8), st.sampled_from(VERTEX_FIELDS)),
    st.tuples(st.just("set-in-vertex"), st.integers(0, 8), st.sampled_from(VERTEX_FIELDS),
              JUNK),
    st.tuples(st.just("set-vertex"), st.integers(0, 8), JUNK),
    st.tuples(st.just("edge"), st.integers(0, 8), st.sampled_from(EDGE_KEYS),
              st.one_of(st.integers(-3, 12), JUNK)),
    st.tuples(st.just("drop-edge"), st.integers(0, 8), st.sampled_from(EDGE_KEYS)),
)


def _mutate(data: dict, op: tuple) -> None:
    kind, *rest = op
    if kind == "drop":
        data.pop(rest[0], None)
        return
    if kind == "set":
        data[rest[0]] = rest[1]
        return
    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        return
    i = rest[0] % len(vertices)
    if kind == "set-vertex":
        vertices[i] = rest[1]
        return
    vertex = vertices[i]
    if not isinstance(vertex, dict):
        return
    if kind == "drop-in-vertex":
        vertex.pop(rest[1], None)
    elif kind == "set-in-vertex":
        vertex[rest[1]] = rest[2]
    elif isinstance(vertex.get("edges"), dict):
        if kind == "edge":
            vertex["edges"][rest[1]] = rest[2]
        else:
            vertex["edges"].pop(rest[1], None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ballgraph-fuzz")


class TestBallgraphFuzz:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(MUTATIONS, min_size=1, max_size=4))
    def test_mutated_ballgraph_exits_cleanly(self, fuzz_dir, ops):
        data = copy.deepcopy(FUZZ_BASE)
        for op in ops:
            _mutate(data, op)
        graph = fuzz_dir / "mutated.json"
        graph.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["delta-est", "--graph", str(graph), "--samples", "20",
                           "--out", str(fuzz_dir / "report.json")])
        assert status in (0, 2)
        if status == 2:
            assert err.getvalue().startswith("error:")

    def test_unmutated_base_passes(self, fuzz_dir):
        graph = fuzz_dir / "base.json"
        graph.write_text(json.dumps(FUZZ_BASE))
        assert main(["delta-est", "--graph", str(graph), "--samples", "20",
                     "--out", str(fuzz_dir / "base-report.json")]) == 0


# the complex and presentation loaders, fuzzed the same way: the shared-edge
# pair, lettered so that every field is present, and a three-relator
# presentation
COMPLEX_BASE = json.loads(dumps_complex(abstract_from_walks([(1, 2, 3), (-1, 4, 5)], [1, 2])))
COMPLEX_BASE["letters"] = [1, 2, 1, -2, 1]
PRESENTATION_BASE = sample_presentation(3, Fraction(1, 4), 7).to_json()
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(allow_nan=True),
    st.sampled_from([float("inf"), 1.5]), st.text(alphabet="abcABCx/0123", max_size=4),
)
JSON_JUNK = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4), st.lists(st.integers(-6, 6), max_size=4),
    st.dictionaries(st.sampled_from(["index", "boundary", "x"]), SCALARS, max_size=2),
)
# (path into the document, new value), each paired with a flag that drops the
# key instead; a path that misses is skipped
COMPLEX_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["vertices", "edges", "faces", "letters"]).map(lambda k: (k,)),
              JSON_JUNK),
    st.tuples(st.tuples(st.just("edges"), st.integers(0, 4)), JSON_JUNK),
    st.tuples(st.tuples(st.just("edges"), st.integers(0, 4), st.integers(0, 1)),
              st.one_of(st.integers(-1, 6), SCALARS)),
    st.tuples(st.tuples(st.just("faces"), st.integers(0, 1)), JSON_JUNK),
    st.tuples(st.tuples(st.just("faces"), st.integers(0, 1),
                        st.sampled_from(["index", "boundary"])),
              st.one_of(st.integers(-1, 8), JSON_JUNK)),
    st.tuples(st.tuples(st.just("faces"), st.integers(0, 1), st.just("boundary"),
                        st.integers(0, 2)),
              st.one_of(st.integers(-6, 6), SCALARS)),
    st.tuples(st.tuples(st.just("letters"), st.integers(0, 4)),
              st.one_of(st.integers(-3, 3), SCALARS)),
)
PRESENTATION_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["m", "d", "seed", "relators"]).map(lambda k: (k,)),
              JSON_JUNK),
    st.tuples(st.tuples(st.just("relators"), st.integers(0, 2)), JSON_JUNK),
)


def _apply(data: dict, path: tuple, value, drop: bool) -> None:
    node = data
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, dict) or (isinstance(node, list) and isinstance(key, int)
                                  and key < len(node)):
        if drop and isinstance(node, dict):
            node.pop(key, None)
        else:
            node[key] = value


def _run_mutated(tmp_dir, base: dict, ops, kind: str, calls) -> None:
    data = copy.deepcopy(base)
    for (path, value), drop in ops:
        _apply(data, path, value, drop)
    path = tmp_dir / f"{kind}.json"
    path.write_text(json.dumps(data))
    out = tmp_dir / "report.json"
    for argv, check in calls:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main([*argv, str(path), "--out", str(out)])
        assert status in (0, 1, 2), argv
        if status == 2:
            assert err.getvalue().startswith("error:"), argv
        if status == 1:  # a failed check, reported as such
            assert not check(json.loads(out.read_text())), argv


COMPLEX_CALLS = [
    (["cancel", "--complex"], None),
    (["red", "--complex"], None),
    (["fulfil", "--m", "2", "--exact", "--complex"], lambda r: r["all_hold"]),
]
PRESENTATION_CALLS = [
    (["enum-diagrams", "--max-faces", "1", "--presentation"],
     lambda r: r["identity_holds"] and r["equivalence_holds"]),
]


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.tuples(COMPLEX_MUTATIONS, st.booleans()), min_size=1, max_size=4))
    def test_mutated_complex_exits_cleanly(self, fuzz_dir, ops):
        _run_mutated(fuzz_dir, COMPLEX_BASE, ops, "complex", COMPLEX_CALLS)

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.tuples(PRESENTATION_MUTATIONS, st.booleans()), min_size=1, max_size=3))
    def test_mutated_presentation_exits_cleanly(self, fuzz_dir, ops):
        _run_mutated(fuzz_dir, PRESENTATION_BASE, ops, "presentation", PRESENTATION_CALLS)

    def test_unmutated_bases_pass(self, fuzz_dir):
        for base, kind, calls in ((COMPLEX_BASE, "complex", COMPLEX_CALLS),
                                  (PRESENTATION_BASE, "presentation", PRESENTATION_CALLS)):
            path = fuzz_dir / f"{kind}-base.json"
            path.write_text(json.dumps(base))
            for argv, _ in calls:
                assert main([*argv, str(path), "--out", str(fuzz_dir / "base.json")]) == 0


# the three fixtures above as bytes, mutated below the JSON layer: a file cut
# short, a byte changed, a span repeated, or an array nested deeper, up to
# past the decoder's recursion limit
BYTE_FUZZ_BASES = {
    "complex": (COMPLEX_BASE, COMPLEX_CALLS),
    "presentation": (PRESENTATION_BASE, PRESENTATION_CALLS),
    "graph": (FUZZ_BASE, [(["delta-est", "--samples", "20", "--graph"], None)]),
}
BYTE_FUZZ_CASES = 400
JSON_BYTES = b'0123456789-+.eE[]{}",: tfn\\'


def _nest_deeper(data: bytes, rng) -> bytes:
    """A random array of ``data`` wrapped in 1 to 2,000 more arrays."""
    opens = [i for i, byte in enumerate(data) if byte == ord("[")]
    if not opens:
        return data
    start = rng.choice(opens)
    depth = 0
    for end in range(start, len(data)):
        depth += (data[end] == ord("[")) - (data[end] == ord("]"))
        if depth == 0:
            break
    n = rng.choice((1, 2, 3, 2_000))
    return data[:start] + b"[" * n + data[start : end + 1] + b"]" * n + data[end + 1 :]


def _byte_mutant(data: bytes, rng) -> bytes:
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("truncate", "flip", "replace", "repeat", "nest"))
        if op == "nest":
            data = _nest_deeper(data, rng)
            continue
        i = rng.randrange(len(data))
        if op == "truncate":
            data = data[:i]
        elif op == "flip":
            data = data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
        elif op == "replace":
            data = data[:i] + bytes([rng.choice(JSON_BYTES)]) + data[i + 1 :]
        else:
            j = rng.randrange(i, min(len(data), i + 40) + 1)
            data = data[:j] + data[i:j] + data[j:]
        if not data:
            return data
    return data


class TestByteFuzz:
    @pytest.mark.parametrize("kind", sorted(BYTE_FUZZ_BASES))
    def test_mutated_bytes_exit_cleanly(self, fuzz_dir, kind):
        # no case ends in a traceback, and every refusal names the file
        base, calls = BYTE_FUZZ_BASES[kind]
        rng = make_rng(19, "byte-fuzz", kind)
        path = fuzz_dir / f"bytes-{kind}.json"
        out = fuzz_dir / "bytes-report.json"
        base = json.dumps(base).encode()
        statuses = set()
        for _ in range(BYTE_FUZZ_CASES):
            data = _byte_mutant(base, rng)
            path.write_bytes(data)
            for argv, check in calls:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    status = main([*argv, str(path), "--out", str(out)])
                statuses.add(status)
                assert status in (0, 1, 2), (argv, data)
                if status == 2:
                    assert err.getvalue().startswith(f"error: {kind} file {str(path)!r}: "), (
                        argv, data, err.getvalue())
                if status == 1:  # a failed check, reported as such
                    assert not check(json.loads(out.read_text())), (argv, data)
        assert 2 in statuses and 0 in statuses


class TestFig1Demo:
    def test_passes(self, tmp_path):
        status, doc = run_json(tmp_path, "fig1-demo")
        assert status == 0
        assert doc["all_checks_pass"] is True
        assert doc["hausdorff_distance"] == 1


class TestChainCheck:
    def test_fuzz_clean(self, tmp_path):
        status, doc = run_json(tmp_path, "chain-check", "--count", "300",
                               "--seed", "5")
        assert status == 0
        assert doc["checked"] == 300
        assert doc["violations"] == 0
        assert doc["first_violation"] is None

    def test_violation_counted_and_recorded(self, tmp_path, monkeypatch):
        # the chain inequality is a theorem, so a report is made to fail once
        draws = itertools.count()

        def fails_second(Y):
            report = chain_report(Y)
            return {**report, "holds": False} if next(draws) == 1 else report

        monkeypatch.setattr(cli, "chain_report", fails_second)
        status, doc = run_json(tmp_path, "chain-check", "--count", "5", "--seed", "5")
        assert status == 1
        assert doc["violations"] == 1
        first = doc["first_violation"]
        assert (first["draw"], first["holds"]) == (1, False)
        assert set(first) == {"draw", "red", "cancel", "forced_sum", "holds", "complex"}


class TestPlumbing:
    def test_meta_block(self, tmp_path):
        _, doc = run_json(tmp_path, "words", "--m", "2", "--seed", "4")
        meta = doc["meta"]
        assert meta["tool"] == "trigroup"
        assert meta["seed"] == 4
        assert meta["config"]["subcommand"] == "words"
        assert meta["config"]["m"] == 2
        assert "version" in meta

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGROUP_SEED", "42")
        _, doc = run_json(tmp_path, "sample", "--m", "2", "--d", "1/3")
        assert doc["seed"] == 42

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIGROUP_SEED", "42")
        _, doc = run_json(tmp_path, "sample", "--m", "2", "--d", "1/3",
                          "--seed", "5")
        assert doc["seed"] == 5

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("TRIGROUP_SEED", "pi")
        assert main(["words", "--m", "2"]) == 2
        assert "TRIGROUP_SEED" in capsys.readouterr().err

    def test_env_seed_read_on_every_call(self, tmp_path, monkeypatch):
        # the parser is built once per process; the seed is read per call,
        # and a --seed given to one call leaves the next call's default alone
        seen = []
        for env, flag in (("42", ()), ("7", ()), ("7", ("--seed", "5")), ("9", ())):
            monkeypatch.setenv("TRIGROUP_SEED", env)
            _, doc = run_json(tmp_path, "sample", "--m", "2", "--d", "1/3", *flag)
            meta = doc["meta"]
            seen.append((doc["seed"], meta["seed"], meta["config"]["seed"]))
        assert seen == [(42, 42, 42), (7, 7, 7), (5, 5, 5), (9, 9, 9)]

    @pytest.mark.parametrize("argv", [["words", "--m", "x"], ["--help"]])
    def test_bad_env_seed_before_parsing(self, argv, monkeypatch, capsys):
        # the seed is read ahead of the parse, so it is reported before a
        # usage error and before --help
        monkeypatch.setenv("TRIGROUP_SEED", "pi")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: environment variable TRIGROUP_SEED='pi' is not an integer\n"
        )
        assert captured.out == ""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_prints_fresh_help(self, tmp_path, monkeypatch, capsys):
        # argparse wraps help to the terminal width, read from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        run_json(tmp_path, "words", "--m", "2", "--seed", "3")
        run_json(tmp_path, "sample", "--m", "2", "--d", "1/3")
        assert main(["words", "--m", "x"]) == 2
        fresh = build_parser.__wrapped__()
        subs = next(a for a in fresh._actions if a.dest == "subcommand").choices
        assert len(subs) == 12
        for argv, parser in [([], fresh), *(([name], sub) for name, sub in subs.items())]:
            capsys.readouterr()
            assert main([*argv, "--help"]) == 0
            assert capsys.readouterr().out == parser.format_help()

    def test_version_returns_status(self, capsys):
        # only the top level has --version; a subcommand refuses it
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"trigroup {trigroup.__version__}\n"
        subs = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
        for name in subs:
            assert main([name, "--version"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: trigroup") and "error: " in err

    @pytest.mark.parametrize("argv, named", [
        (["words", "--m", "x"], "argument --m: invalid int value: 'x'"),
        (["words", "--m", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["words"], "the following arguments are required: --m"),
        (["nosuch"], "invalid choice: 'nosuch'"),
        (["fulfil", "--complex", "c.json", "--m", "2", "--exact", "--trials", "3"],
         "argument --trials: not allowed with argument --exact"),
        (["words", "--m", "2", "--seed", "q"], "argument --seed: invalid int value: 'q'"),
    ], ids=["non-integer", "unknown-flag", "missing-flag", "unknown-subcommand",
            "exclusive-flags", "non-integer-seed"])
    def test_usage_error_returns_2(self, capsys, argv, named):
        # argparse's usage errors come back as a status, not as an exception
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: trigroup")
        assert named in captured.err
        assert captured.out == ""

    def test_usage_error_from_shell(self, monkeypatch, capsys):
        # a shell run prints the bytes an in-process call prints, and exits 2
        monkeypatch.setenv("COLUMNS", "80")
        proc = subprocess.run([sys.executable, "-m", "trigroup.cli", "words", "--m", "x"],
                              env=package_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: trigroup words [-h]")
        assert proc.stderr.endswith("trigroup words: error: argument --m: invalid int value: 'x'\n")
        assert main(["words", "--m", "x"]) == 2
        assert capsys.readouterr().err == proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["fulfil", "--complex", "{missing}", "--m", "0"], "--m must be at least 1"),
        (["fulfil", "--complex", "{missing}", "--m", "2", "--trials", "0"],
         "--trials must be positive"),
        (["enum-diagrams", "--presentation", "{missing}", "--max-faces", "7"],
         "max faces 7 above the cap 5; pass --face-cap 7 to override"),
        (["ball", "--presentation", "{missing}", "--radius", "-1"],
         "--radius must be nonnegative"),
        (["delta-est", "--graph", "{missing}", "--samples", "0"], "--samples must be positive"),
    ], ids=["fulfil-m", "fulfil-trials", "enum-diagrams-face-cap", "ball-radius",
            "delta-est-samples"])
    def test_flags_checked_before_files(self, tmp_path, capsys, argv, message):
        # a bad flag is named even when the file it comes with cannot be read
        missing = str(tmp_path / "missing.json")
        assert main([arg.format(missing=missing) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_workers_refused(self, capsys):
        # execution is sequential: there is no worker count to configure
        assert main(["words", "--m", "2", "--workers", "1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_config_names_no_workers(self, tmp_path, pres_file):
        _, doc = run_json(tmp_path, "enum-diagrams", "--presentation", pres_file)
        assert "workers" not in doc["meta"]["config"]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, pres_file, where):
        # a write failure is bad configuration (exit 2), not a failed check
        path = tmp_path / "nowhere" / "x.json" if where == "missing-dir" else tmp_path
        assert main(["sample", "--m", "2", "--d", "1/3", "--out", str(path)]) == 2
        assert f"--out {str(path)!r}: cannot write" in capsys.readouterr().err
        # the streamed ballgraph fails the same way
        assert main(["ball", "--presentation", pres_file, "--radius", "1",
                     "--out", str(path)]) == 2
        assert f"--out {str(path)!r}: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, argv", [("complex", ["red", "--complex"]),
                                            ("graph", ["delta-est", "--graph"])])
    def test_non_utf8_file_named(self, tmp_path, capsys, kind, argv):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main([*argv, str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {kind} file {str(bad)!r}: not UTF-8 text ("
        )

    @pytest.mark.parametrize("kind, argv", [("complex", ["red", "--complex"]),
                                            ("graph", ["delta-est", "--graph"]),
                                            ("presentation", ["enum-diagrams", "--presentation"])])
    @pytest.mark.parametrize("content, message", [
        ("{not json", "invalid JSON ("),
        ("[1, 2, 3]", "expected a JSON object"),
        # past the decoder's recursion limit, and past Python's 4,300-digit
        # limit on integer literals: both are bytes, not fields, at fault
        ('{"m": 2, "faces": ' + "[" * 200_000 + "]" * 200_000 + "}", "JSON nested too deeply"),
        ('{"m": 1' + "0" * 5_000 + "}", "unreadable JSON (Exceeds the limit (4300 digits)"),
    ], ids=["not-json", "not-object", "deep-nesting", "long-integer"])
    def test_unreadable_json_named(self, tmp_path, capsys, kind, argv, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert main([*argv, str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {kind} file {str(bad)!r}: {message}")

    def test_cli_import_leaves_out_sympy(self):
        # Q(sqrt(41)) arithmetic runs on the standard library alone
        probe = "import sys, trigroup.cli; print('sympy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_out_dataclasses_and_hashlib(self):
        # modules that site already loaded are not the import's doing
        probe = ("import sys; before = set(sys.modules); import trigroup.cli; "
                 "added = set(sys.modules) - before; "
                 "print(sorted(added & {'dataclasses', 'inspect', 'hashlib'}))")
        out = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_derive_seed_loads_hashlib(self):
        probe = ("import sys, trigroup.cli; from trigroup.seeding import derive_seed; "
                 "print(derive_seed(7, 'sample', 0), 'hashlib' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["13729294703022343744", "True"]

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["words", "--m", "2"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["matches"] is True
        # wall-clock goes to stderr only
        assert "elapsed" in captured.err
        assert "elapsed" not in captured.out


DETERMINISM_CASES = [
    ("sample", "--m", "4", "--d", "1/3", "--seed", "11"),
    ("words", "--m", "3", "--list"),
    ("pipeline", "--d0", "7/20"),
    ("sweep", "--d0-grid", "3/10,7/20"),
    ("fig1-demo",),
    ("chain-check", "--count", "100", "--seed", "5"),
]


# explicit, so that a case added anywhere in the table renames no other; they
# keep the names the cases had when pytest numbered them by position
RANGE_ERROR_IDS = [
    "argv0---samples must be positive",
    "argv1---long-constant must be positive",
    "argv2---long-constant must be positive",
    "argv3---d must be a density in (0, 1)",
    "argv4---epsilon must be positive",
    "argv5---max-faces must be at least 1",
    "argv6---max-vertices must be positive",
    "argv7---max-vertices must be positive",
    "argv8---m must be at least 1",
    "argv9---m must be at least 1",
    "argv10---m must be at least 1",
    "argv11---count must be positive",
    "argv12---max-faces must be positive",
    "argv13---radius must be nonnegative",
    "argv14---m 1000000 --d 1/2 asks for 2828425003 relators, above the limit of 1048576;"
    " choose a smaller --m or --d",
]


class TestFlagRanges:
    @pytest.mark.parametrize("argv, message", [
        (["delta-est", "--graph", "{ball}", "--samples", "0"], "--samples must be positive"),
        (["pipeline", "--d0", "7/20", "--long-constant", "0"],
         "--long-constant must be positive"),
        (["sweep", "--d0-grid", "7/20", "--long-constant", "0"],
         "--long-constant must be positive"),
        (["sample", "--m", "2", "--d", "3/2"], "--d must be a density in (0, 1)"),
        (["enum-diagrams", "--presentation", "{pres}", "--epsilon", "0"],
         "--epsilon must be positive"),
        (["enum-diagrams", "--presentation", "{pres}", "--max-faces", "0"],
         "--max-faces must be at least 1"),
        (["ball", "--presentation", "{pres}", "--radius", "2", "--max-vertices", "0"],
         "--max-vertices must be positive"),
        (["ball", "--presentation", "{pres}", "--radius", "2", "--max-vertices", "-5"],
         "--max-vertices must be positive"),
        (["sample", "--m", "0", "--d", "1/4"], "--m must be at least 1"),
        (["words", "--m", "0"], "--m must be at least 1"),
        (["fulfil", "--complex", "{shared}", "--m", "0", "--exact"], "--m must be at least 1"),
        (["chain-check", "--count", "0"], "--count must be positive"),
        (["chain-check", "--max-faces", "0"], "--max-faces must be positive"),
        (["ball", "--presentation", "{pres}", "--radius", "-1"], "--radius must be nonnegative"),
        (["sample", "--m", "1000000", "--d", "1/2"],
         f"--m 1000000 --d 1/2 asks for {relator_count(1_000_000, Fraction(1, 2))} relators,"
         " above the limit of 1048576; choose a smaller --m or --d"),
    ], ids=RANGE_ERROR_IDS)
    def test_range_error_names_flag(self, capsys, pres_file, ball_file, complex_files, argv,
                                    message):
        argv = [arg.format(pres=pres_file, ball=ball_file, shared=complex_files["shared"])
                for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestByteDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_CASES, ids=lambda a: a[0])
    def test_repeat_runs_identical(self, tmp_path, argv):
        _, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        assert first == second

    def test_file_based_subcommands(self, tmp_path, pres_file, complex_files,
                                    ball_file):
        cases = [
            ("enum-diagrams", "--presentation", pres_file, "--epsilon", "1/25"),
            ("ball", "--presentation", pres_file, "--radius", "2"),
            ("delta-est", "--graph", ball_file, "--samples", "100", "--seed", "2"),
            ("cancel", "--complex", complex_files["mirror"]),
            ("red", "--complex", complex_files["mirror"]),
            ("fulfil", "--complex", complex_files["shared"], "--m", "2", "--exact"),
            ("fulfil", "--complex", complex_files["shared"], "--m", "2",
             "--trials", "300", "--seed", "6"),
        ]
        for argv in cases:
            _, first = run(tmp_path, *argv)
            _, second = run(tmp_path, *argv)
            assert first == second, argv[0]
