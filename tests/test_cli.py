"""End-to-end tests of the command line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecot
import vecot.cli
from vecot import (
    OptimalityCertificate,
    SolveReport,
    SolverParams,
    build_instance,
    dumps_instance,
    instance_from_dict,
    line_oracle,
    solve,
)
from vecot.cli import main

from harness import python, stdlib_layout

SQRT5 = float(np.sqrt(5.0))


def write_instance(tmp_path, name="instance.json", points=None, weights=None):
    if points is None:
        points = [[0.0, 0.0], [3.0, 4.0]]
        weights = [[1.0], [-1.0]]
    path = tmp_path / name
    path.write_text(dumps_instance(build_instance(points, weights)))
    return path


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else {}


# ---------------------------------------------------------------------------
# solve and the document round trip
# ---------------------------------------------------------------------------


def test_solve_two_point_document(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, doc = run(capsys, "solve", "--input", str(path))
    assert code == 0
    assert doc["schema"] == "vecot/1"
    assert doc["command"] == "solve"
    assert doc["report"]["status"] == "Converged"
    assert doc["report"]["engine"] == "tree"
    assert doc["report"]["primal_value"] == pytest.approx(5.0, rel=1e-9)
    assert doc["certificate"]["verdict"] == "Optimal"
    assert doc["instance"]["points"] == [[0.0, 0.0], [3.0, 4.0]]
    assert "coupling" in doc and "potential" in doc
    # The records are written field for field, and every solver knob is a flag.
    assert set(doc["report"]) == {f.name for f in dataclasses.fields(SolveReport)}
    assert set(doc["certificate"]) == {f.name for f in dataclasses.fields(OptimalityCertificate)}
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    knobs = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(SolverParams)}
    assert flags - {"--help", "--input", "--output", "--certify-tol"} == knobs


def test_solve_output_is_deterministic(tmp_path):
    path = write_instance(tmp_path)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", "--input", str(path), "--output", str(out1)]) == 0
    assert main(["solve", "--input", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solution_round_trips_through_certify_leaves_massbalance(tmp_path, capsys):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = rng.normal(size=(6, 2))
    w -= w.mean(axis=0)
    path = write_instance(tmp_path, points=pts.tolist(), weights=w.tolist())
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--output", str(solution)]) == 0

    code, doc = run(capsys, "certify", "--input", str(solution), "--tol", "1e-5")
    assert code == 0
    assert doc["certificate"]["verdict"] == "Optimal"

    code, doc = run(capsys, "leaves", "--input", str(solution), "--eps", "1e-5")
    assert code == 0
    dec = doc["decomposition"]
    assert len(dec["leaves"]) >= 1
    assert len(dec["assignment"]) == 6
    assert dec["eps"] == 1e-5

    code, doc = run(capsys, "massbalance", "--input", str(solution), "--eps", "1e-5")
    assert code == 0
    balance = doc["mass_balance"]
    assert balance["verdict"] in ("BalanceHolds", "BalanceFails")
    assert len(balance["transport_sets"]) >= 1


@pytest.mark.parametrize("m", [1, 2])
def test_every_document_is_written_in_the_stdlib_layout(tmp_path, capsys, m):
    rng = np.random.default_rng([30, m])
    w = rng.normal(size=(30, m))
    w -= w.mean(axis=0)
    points = rng.uniform(-1, 1, (30, 2)).tolist()
    path = write_instance(tmp_path, points=points, weights=w.tolist())
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--output", str(solution)]) == 0
    texts = {"solve --output": solution.read_text(encoding="utf-8")}
    for argv in (
        ["solve", "--input", str(path)],
        ["certify", "--input", str(solution)],
        ["leaves", "--input", str(solution)],
        ["massbalance", "--input", str(solution)],
        ["counterexample", "--preset", "orthant", "--m", "3", "--smooth-eps", "0.05",
         "--points-per-ball", "3"],
        ["disintegrate", "--box", "-3", "3", "-3", "3", "--resolution", "33",
         "--cd", "0,inf", "--cd", "0,1"],
        ["selftest"],
    ):
        assert main(argv) == 0
        texts[argv[0]] = capsys.readouterr().out
    assert texts["solve"] == texts["solve --output"]
    assert '"inf"' in texts["disintegrate"]
    for command, text in texts.items():
        assert text == stdlib_layout(text), command


def test_generated_solution_round_trips_with_only_the_active_pairs(tmp_path, capsys):
    # A scalar cloud large enough for edge generation: the document lists
    # the pairs the generation loop kept, not all 4950.
    rng = np.random.default_rng(3)
    n_points = 100
    pts = rng.uniform(-1, 1, size=(n_points, 2))
    w = rng.normal(size=(n_points, 1))
    w -= w.mean(axis=0)
    path = write_instance(tmp_path, points=pts.tolist(), weights=w.tolist())
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--output", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    pairs = doc["coupling"]["pairs"]
    assert len(pairs) < 4950
    assert doc["report"]["notes"].startswith("edge generation: ")
    assert doc["report"]["notes"].endswith(f" rounds, {len(pairs)} of 4950 pairs")
    coupling, _, _ = solve(instance_from_dict(doc["instance"]))
    assert pairs == coupling.pairs.tolist()
    assert doc["certificate"]["verdict"] == "Optimal"
    i, j = doc["certificate"]["worst_lipschitz_pair"]
    assert 0 <= i < j < n_points

    code, cert = run(capsys, "certify", "--input", str(solution))
    assert code == 0
    assert cert["certificate"]["verdict"] == "Optimal"
    assert cert["certificate"]["worst_lipschitz_pair"] == [i, j]
    code, leaves = run(capsys, "leaves", "--input", str(solution))
    assert code == 0
    assert len(leaves["decomposition"]["assignment"]) == n_points
    code, balance = run(capsys, "massbalance", "--input", str(solution))
    assert code == 0
    assert balance["mass_balance"]["verdict"] in ("BalanceHolds", "BalanceFails")


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert "vecot:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "selftest"])
def test_an_unwritable_output_exits_2(tmp_path, capsys, command):
    target = tmp_path / "no-such-dir" / "out.json"
    argv = [command, "--output", str(target)]
    if command == "solve":
        argv += ["--input", str(write_instance(tmp_path))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vecot: cannot write output: ")
    assert str(target) in captured.err and captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b"[[0.0], [1.0]]", b"3", b"{not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["list", "number", "not-json", "not-utf-8", "nested-too-deep"],
)
@pytest.mark.parametrize(
    "argv",
    [["solve", "--input"], ["certify", "--input"], ["disintegrate", "--grid"]],
    ids=["instance", "solution", "grid"],
)
def test_a_file_without_a_json_object_exits_2_in_one_line(tmp_path, capsys, argv, content):
    # One reader takes the instance, solution and grid files: a file that is
    # not UTF-8, not JSON, nested past the recursion limit or not an object
    # is refused in one line, never as an internal error.
    path = tmp_path / "file.json"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vecot: ") and captured.err.count("\n") == 1
    assert "internal error" not in captured.err


def test_invalid_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "imbalanced.json"
    bad.write_text(
        json.dumps(
            {"n": 1, "m": 1, "points": [[0.0], [1.0]], "weights": [[1.0], [-0.25]]}
        )
    )
    assert main(["solve", "--input", str(bad)]) == 2
    capsys.readouterr()


def solved_document(tmp_path) -> dict:
    """The `vecot solve` document of a 5-point m = 2 instance."""
    rng = np.random.default_rng(7)
    w = rng.normal(size=(5, 2))
    points, weights = rng.uniform(-1, 1, (5, 2)), w - w.mean(axis=0)
    path = write_instance(tmp_path, points=points.tolist(), weights=weights.tolist())
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--output", str(solution)]) == 0
    return json.loads(solution.read_text())


def malform(doc: dict, case: str) -> None:
    """Edit one field of a solution document into the named fault."""
    coupling = doc["coupling"]
    if case == "pair-index-past-the-cloud":
        coupling["pairs"][0][1] = len(doc["potential"])
    elif case == "fractional-pair-index":
        coupling["pairs"][0][1] = 1.5
    elif case == "pair-index-past-int64":
        coupling["pairs"][0][1] = 1e19
    elif case == "pair-index-int64-max":
        coupling["pairs"][0][1] = 2**63 - 1
    elif case == "potential-of-the-wrong-m":
        for row in doc["potential"]:
            row.append(0.0)
    elif case == "flows-of-the-wrong-m":
        for row in coupling["flows"]:
            row.append(0.0)
    elif case == "null-coupling":
        doc["coupling"] = None
    elif case == "duplicate-pair":
        coupling["pairs"][1] = coupling["pairs"][0][::-1]
    elif case == "string-in-potential":
        doc["potential"][0][0] = "north"
    # Each fault below was once read as a number: a value written as a
    # string, a boolean, a NaN (json.dumps writes it, strict JSON cannot),
    # a string n and a fractional m.
    elif case == "numeric-string-in-points":
        doc["instance"]["points"][0][0] = repr(doc["instance"]["points"][0][0])
    elif case == "numeric-string-in-weights":
        doc["instance"]["weights"][0][0] = repr(doc["instance"]["weights"][0][0])
    elif case == "numeric-string-in-potential":
        doc["potential"][0][0] = repr(doc["potential"][0][0])
    elif case == "true-in-flows":
        coupling["flows"][0][0] = True
    elif case == "nan-in-flows":
        coupling["flows"][0][0] = float("nan")
    elif case == "string-n":
        doc["instance"]["n"] = str(doc["instance"]["n"])
    else:
        assert case == "fractional-m"
        doc["instance"]["m"] += 0.9


MALFORMED_SOLUTIONS = (
    "pair-index-past-the-cloud",
    "fractional-pair-index",
    "pair-index-past-int64",
    "pair-index-int64-max",
    "potential-of-the-wrong-m",
    "flows-of-the-wrong-m",
    "null-coupling",
    "duplicate-pair",
    "string-in-potential",
    "numeric-string-in-points",
    "numeric-string-in-weights",
    "numeric-string-in-potential",
    "true-in-flows",
    "nan-in-flows",
    "string-n",
    "fractional-m",
)


@pytest.mark.parametrize("case", MALFORMED_SOLUTIONS)
@pytest.mark.parametrize("command", ["certify", "leaves", "massbalance"])
def test_malformed_solution_documents_exit_2(tmp_path, capsys, command, case):
    doc = solved_document(tmp_path)
    malform(doc, case)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("vecot: ") and captured.err.count("\n") == 1
    if case == "duplicate-pair":
        assert captured.err == "vecot: duplicate unordered pair (0, 1) in coupling\n"


@pytest.mark.parametrize("command", ["leaves", "massbalance"])
def test_a_potential_whose_cliques_are_no_rays_exits_2_in_one_line(tmp_path, capsys, command):
    # u = x on the 2 x 30 unit lattice at eps = 0.3: each point saturates with
    # both points of every other column, and the graph has 2^30 maximal cliques.
    points = [[float(c), float(r)] for c in range(30) for r in (0, 1)]
    weights = [[1.0 if r else -1.0] for _, r in points]
    doc = {
        "instance": json.loads(dumps_instance(build_instance(points, weights))),
        "coupling": {"pairs": [], "flows": []},
        "potential": [[x] for x, _ in points],
    }
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main([command, "--input", str(path), "--eps", "0.3"]) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("vecot: the clique search passed ") and "no ray" in captured.err


def test_a_solution_without_edges_round_trips(tmp_path, capsys):
    # A zero measure solves to an empty coupling, written as "pairs": [].
    path = write_instance(tmp_path, points=[[0.0], [1.0]], weights=[[0.0], [0.0]])
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--output", str(solution)]) == 0
    assert json.loads(solution.read_text())["coupling"] == {"pairs": [], "flows": []}
    for command in ("certify", "leaves", "massbalance"):
        assert main([command, "--input", str(solution)]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["command"] == command and text == stdlib_layout(text)
        if command == "certify":
            assert json.loads(text)["certificate"]["verdict"] == "Optimal"


def test_consecutive_calls_match_calls_with_a_fresh_parser(tmp_path, capsys):
    path = write_instance(tmp_path)
    solution = tmp_path / "solution.json"
    box = ["disintegrate", "--box", "-3", "3", "-3", "3", "--resolution", "9"]
    calls = [
        box + ["--cd", "0,inf", "--cd", "0,3"],
        box,
        ["solve", "--input", str(path), "--output", str(solution)],
        ["leaves", "--input", str(solution), "--eps", "1e-5"],
        box + ["--cd", "1,2"],
        ["leaves", "--input", str(solution)],
        ["certify", "--input", str(solution)],
    ]

    def documents(fresh: bool) -> list:
        out = []
        for argv in calls:
            if fresh:
                vecot.cli._build_parser.cache_clear()
            assert main(argv) == 0
            out.append(capsys.readouterr().out or solution.read_text())
        return out

    shared = documents(fresh=False)
    assert vecot.cli._build_parser() is vecot.cli._build_parser()
    assert shared == documents(fresh=True)
    assert [len(json.loads(shared[k])["cd_reports"]) for k in (0, 1, 4)] == [2, 0, 1]


def test_iteration_limit_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(8, 2))
    w = rng.normal(size=(8, 2))
    w -= w.mean(axis=0)
    path = write_instance(tmp_path, points=pts.tolist(), weights=w.tolist())
    code, doc = run(
        capsys, "solve", "--input", str(path), "--max-iters", "2", "--tol-gap", "1e-12"
    )
    assert code == 3
    assert doc["report"]["status"] == "IterLimit"


@pytest.mark.parametrize("seed, iterations", [(4, 17), (0, 21)], ids=["not-finite", "unfactorable"])
def test_a_solve_at_the_limits_of_double_precision_exits_3_without_a_warning(
    tmp_path, capsys, seed, iterations
):
    # Points 0 and 1 are 1e-12 apart.  The interior-point engine meets a NaN
    # direction at iteration 18 (seed 4), or a Newton system it cannot factor
    # at iteration 22 (seed 0), and answers with its last finite iterate.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (10, 2))
    pts[1] = pts[0] + 1e-12 * rng.normal(size=2)
    w = rng.normal(size=(10, 2))
    w -= w.mean(axis=0)
    path = write_instance(tmp_path, points=pts.tolist(), weights=w.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would exit 4
        code = main(["solve", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, err, out) == (3, "", stdlib_layout(out))
    report = json.loads(out)["report"]
    assert (report["status"], report["iterations"]) == ("IterLimit", iterations)
    assert report["notes"] == "interior-point iterates reached the limits of double precision"

@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "{instance}", "--max-iters", "0"],
        ["solve", "--input", "{instance}", "--tol-primal", "0"],
        ["certify", "--input", "{solution}", "--tol", "0"],
        ["leaves", "--input", "{solution}", "--eps", "0"],
        ["massbalance", "--input", "{solution}", "--eps", "-1"],
        ["counterexample", "--certify-tol", "0"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "33", "--cd", "1"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "33", "--cd", "a,inf"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "17", "--cd", "0,0.5"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "17", "--cd", "0,-3"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "17", "--cd", "0,nan"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "17", "--cd", "nan,inf"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "17", "--cd=-inf,3"],
        ["solve", "--input", "{instance}", "--tol-gap", "nan"],
        ["leaves", "--input", "{solution}", "--eps", "nan"],
        ["leaves", "--input", "{solution}", "--eps", "inf"],
        ["massbalance", "--input", "{solution}", "--eps", "nan"],
        ["massbalance", "--input", "{solution}", "--eps", "inf"],
        ["massbalance", "--input", "{solution}", "--tol", "-1"],
        ["disintegrate", "--box", "-1", "1", "-1", "--resolution", "9"],
        ["disintegrate", "--box", "-1", "1", "-1", "1", "--resolution", "-3"],
        ["disintegrate", "--box", "-1", "1", "-1", "1", "--resolution", "9", "9", "9"],
        ["disintegrate", "--grid", "{grid}"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "33", "--mode", "radial"],
        ["certify", "--input", "{solution}", "--tol", "inf"],
        ["massbalance", "--input", "{solution}", "--tol", "inf"],
        ["solve", "--input", "{instance}", "--certify-tol", "inf"],
        ["solve", "--input", "{instance}", "--tol-gap", "inf"],
        ["solve", "--input", "{instance}", "--tol-primal", "inf"],
        ["solve", "--input", "{underflow}"],
        ["solve", "--input", "{underflow_vector}"],
    ],
    ids=["max-iters", "tol-primal", "certify-tol", "leaves-eps", "massbalance-eps",
         "counterexample-tol", "cd-one-number", "cd-not-a-number", "cd-n-below-one",
         "cd-negative-n", "cd-nan-n", "cd-nan-kappa", "cd-infinite-kappa", "nan-tol-gap",
         "nan-eps", "infinite-eps", "massbalance-nan-eps", "massbalance-infinite-eps",
         "negative-balance-tol", "odd-box", "negative-resolution",
         "resolution-count", "grid-odd-box", "radial-no-center", "certify-infinite-tol",
         "massbalance-infinite-tol", "solve-infinite-certify-tol", "infinite-tol-gap",
         "infinite-tol-primal", "underflowing-distance",
         "underflowing-distance-m2"],
)
def test_invalid_parameters_exit_2(tmp_path, capsys, argv):
    instance = write_instance(tmp_path)
    # Distinct points whose distance underflows to 0.0.
    close = [[0.0, 0.0], [1e-170, 0.0], [1.0, 0.3]]
    underflow = write_instance(tmp_path, "underflow.json", close, [[1.0], [0.0], [-1.0]])
    underflow_vector = write_instance(
        tmp_path, "underflow2.json", close, [[1.0, 0.5], [0.0, 0.0], [-1.0, -0.5]]
    )
    solution = tmp_path / "solution.json"
    assert main(["solve", "--input", str(instance), "--output", str(solution)]) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"box": [-1.0, 1.0, -1.0], "samples": [[1.0, 1.0], [1.0, 1.0]]}))
    paths = {"instance": str(instance), "solution": str(solution), "grid": str(grid),
             "underflow": str(underflow), "underflow_vector": str(underflow_vector)}
    code = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("vecot: ")
    assert "internal error" not in err


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "points", [[[0.0], [1e200], [3e200]], [[0.0, 0.0], [1e200, 0.0], [3e200, 1.0]]],
    ids=["1-D", "2-D"],
)
def test_a_distance_that_overflows_exits_2_without_a_warning(tmp_path, capsys, points, m):
    weights = np.zeros((3, m))
    weights[0], weights[2] = 1.0, -1.0
    path = write_instance(tmp_path, points=points, weights=weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would exit 4
        code = main(["solve", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "vecot: the distance between points 0 and 1 overflows to inf\n"


def _tiny_cloud() -> tuple[list, list]:
    rng = np.random.default_rng(0)
    points, w = rng.uniform(-1.0, 1.0, (5, 3)) * 1.3e-160, rng.normal(size=(5, 3))
    return points.tolist(), (w - w.mean(axis=0)).tolist()


@pytest.mark.parametrize(
    "points, weights, message",
    [
        ([[0.0], [1.0]], [[1e-170], [-1e-170]], "the mass scale 0 of nonzero weights is below 2^-511"),
        (*_tiny_cloud(), "the distance 3.12034e-160 between points 0 and 1 is below 2^-511"),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1e200], [-2e200], [1e200]],
         "the mass scale inf is not below 2^512"),
        ([[0.0], [0.6e154], [1.3e154], [0.3e154]], [[1.3e154], [-1.3e154]] * 2,
         "the mass scale 5.2e+154 is not below 2^512"),
    ],
    ids=["tiny-weights", "tiny-cloud", "heavy-weights", "heavy-line"],
)
def test_an_instance_outside_the_numeric_range_exits_2_without_a_warning(
    tmp_path, capsys, points, weights, message
):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": len(points[0]), "m": len(weights[0]), "points": points, "weights": weights}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"vecot: {message}\n"


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_paper_preset(capsys):
    code, doc = run(capsys, "counterexample", "--preset", "paper")
    assert code == 0
    assert doc["margin"] == pytest.approx(1.0 / SQRT5, rel=1e-12)
    assert doc["analytic_value"] == pytest.approx(1.0 + SQRT5, rel=1e-12)
    # The closed form's value is the cost of its coupling, as certify computes it.
    assert doc["analytic_value"] == doc["certificate_analytic"]["primal_value"]
    assert doc["certificate_analytic"]["verdict"] == "Optimal"
    assert doc["certificate_solver"]["verdict"] == "Optimal"
    assert doc["report"]["primal_value"] == pytest.approx(1.0 + SQRT5, rel=1e-6)
    assert doc["mass_balance"]["verdict"] == "BalanceFails"
    assert doc["mass_balance"]["witness"] == [0, 2]
    assert doc["marginal_surrogate"] is True


def test_counterexample_orthant_with_smoothing(capsys):
    code, doc = run(
        capsys,
        "counterexample",
        "--preset",
        "orthant",
        "--m",
        "3",
        "--smooth-eps",
        "0.05",
        "--points-per-ball",
        "3",
    )
    assert code == 0
    assert doc["margin"] > 0.0
    assert doc["mass_balance"]["verdict"] == "BalanceFails"
    assert doc["smoothed"]["size"] == 12
    assert doc["smoothed"]["report"]["status"] == "Converged"
    assert doc["smoothed"]["report"]["primal_value"] == pytest.approx(
        doc["analytic_value"], rel=0.1
    )


def test_counterexample_refuses_an_orthant_above_64_dimensions(capsys):
    # Refused before any m x m array is built: one line and exit 2, not an internal error.
    assert main(["counterexample", "--preset", "orthant", "--m", "1180591620717411303424"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vecot: ") and captured.err.count("\n") == 1
    assert "exceeds 64" in captured.err


def test_counterexample_rejects_contradictory_flags(capsys):
    assert main(["counterexample", "--preset", "paper", "--m", "3"]) == 2
    capsys.readouterr()
    # --n is gone: --m alone sets the orthant dimension.
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--preset", "orthant", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_smoothing_in_twenty_dimensions_gives_up_in_bounded_time(capsys):
    # Hardly any Halton point falls inside a 20-dimensional ball: the draw
    # stops at its budget of sequence points instead of running on.
    start = time.perf_counter()
    code = main(["counterexample", "--preset", "orthant", "--m", "20", "--smooth-eps", "0.01"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert "n = 20 dimensions" in err and "points_per_ball = 8" in err
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# disintegrate
# ---------------------------------------------------------------------------


def _strict(constant):
    raise AssertionError(f"non-strict JSON constant {constant}")


def test_disintegrate_slice_gaussian(capsys):
    code = main(
        [
            "disintegrate",
            "--family",
            "gaussian",
            "--box",
            "-4", "4", "-4", "4",
            "--resolution",
            "257",
            "--mode",
            "slice",
            "--cd",
            "1,inf",
            "--cd",
            "1.01,inf",
            "--cd",
            "0,1",
        ]
    )
    # Non-finite numbers are strings, so the document is strict JSON.
    doc = json.loads(capsys.readouterr().out, parse_constant=_strict)
    assert code == 0
    assert doc["needle_count"] == 257
    assert doc["weight_sum"] == pytest.approx(1.0)
    assert doc["reassembly_l1"] <= 1e-12
    first, second, flat = doc["cd_reports"]
    assert first["all_pass"] is True
    assert first["N"] == "inf"
    assert second["all_pass"] is False
    # N = 1 demands a constant -log g, which a Gaussian slice is not.
    assert flat["all_pass"] is False
    assert flat["worst_violation"] == "-inf"


def test_disintegrate_slices_over_an_axis_of_one_cell(capsys):
    code, doc = run(
        capsys, "disintegrate", "--box", "-4", "4", "-4", "4",
        "--resolution", "33", "1", "--m", "1", "--cd", "0,inf",
    )
    assert code == 0
    assert doc["needle_count"] == 1
    assert doc["reassembly_l1"] <= 1e-12


def test_disintegrate_writes_a_csv_for_every_two_dimensional_needle(tmp_path, capsys):
    csv_dir = tmp_path / "needles"
    code, doc = run(
        capsys, "disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3",
        "--resolution", "9", "--m", "2", "--csv-dir", str(csv_dir),
    )
    assert code == 0
    files = sorted(csv_dir.iterdir())
    assert len(files) == doc["needle_count"] == 9
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "t1,t2,g"
        assert len(lines) == 1 + 9**2
    # The rows are the needle's grid, last axis fastest, and its density.
    table = np.loadtxt(files[0], delimiter=",", skiprows=1)
    centers = -3.0 + (np.arange(9) + 0.5) * 6.0 / 9
    np.testing.assert_array_equal(table[:, 0], np.repeat(centers, 9))
    np.testing.assert_array_equal(table[:, 1], np.tile(centers, 9))
    assert table[:, 2].sum() * (6.0 / 9) ** 2 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "9", "--m", "2"],
        ["--box", "-4", "4", "-4", "4", "--resolution", "33", "--mode", "radial",
         "--center", "0.3", "-0.2", "--directions", "16", "--radial-cells", "20"],
    ],
    ids=["slice-m2", "radial"],
)
def test_disintegrate_csv_files_match_a_per_needle_writer(tmp_path, capsys, argv):
    code, _ = run(capsys, "disintegrate", *argv, "--csv-dir", str(tmp_path / "cli"))
    assert code == 0
    args = vecot.cli._build_parser().parse_args(["disintegrate", *argv])
    density = vecot.tabulate_density(args.box, args.resolution, vecot.cli._FAMILIES["gaussian"])
    if args.mode == "slice":
        needles, _ = vecot.slice_disintegration(density, args.m)
    else:
        needles, _ = vecot.radial_disintegration(
            density, args.center, args.directions, args.radial_cells
        )
    # The writer as it was: one parameter grid and one file per needle.
    (tmp_path / "ref").mkdir()
    for k, nd in enumerate(needles):
        params = ["t"] if nd.leaf_dim == 1 else [f"t{a + 1}" for a in range(nd.leaf_dim)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*nd.axes, indexing="ij")], axis=1)
        path = tmp_path / "ref" / f"needle_{k:04d}.csv"
        table, header = np.column_stack([grid, nd.g.ravel()]), ",".join([*params, "g"])
        np.savetxt(path, table, delimiter=",", header=header, comments="")
    written = sorted((tmp_path / "cli").iterdir())
    expected = sorted((tmp_path / "ref").iterdir())
    assert [p.name for p in written] == [p.name for p in expected] and len(written) == len(needles)
    for got, want in zip(written, expected):
        assert got.read_bytes() == want.read_bytes()


def test_disintegrate_takes_a_negative_kappa_after_an_equals_sign(capsys):
    # "--cd -1,3" reads as an option to argparse; "--cd=-1,3" does not.
    argv = ["disintegrate", "--box", "-3", "3", "-3", "3", "--resolution", "17"]
    code, doc = run(capsys, *argv, "--cd=-1,3")
    assert code == 0
    assert [(r["kappa"], r["N"]) for r in doc["cd_reports"]] == [(-1.0, 3.0)]
    with pytest.raises(SystemExit):
        main(["disintegrate", "--help"])
    assert "--cd=-1,3" in capsys.readouterr().out


def test_disintegrate_radial_from_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    xs = (np.arange(33) + 0.5) / 33 * 8.0 - 4.0
    samples = np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2))
    grid.write_text(
        json.dumps({"box": [[-4.0, 4.0], [-4.0, 4.0]], "samples": samples.tolist()})
    )
    csv_dir = tmp_path / "needles"
    code, doc = run(
        capsys,
        "disintegrate",
        "--grid",
        str(grid),
        "--mode",
        "radial",
        "--center",
        "0", "0",
        "--directions",
        "32",
        "--csv-dir",
        str(csv_dir),
    )
    assert code == 0
    assert doc["needle_count"] == 32
    assert doc["weight_sum"] == pytest.approx(1.0)
    assert len(list(csv_dir.glob("needle_*.csv"))) == 32


@pytest.mark.parametrize(
    "flags",
    [
        ["--directions", "0"],
        ["--directions", "-3"],
        ["--radial-cells", "0"],
        ["--center", "nan", "0"],
        ["--box", "-4", "4", "--center", "0", "--directions", "0"],
        ["--box", "-4", "4", "--center", "0", "--directions", "-5"],
    ],
    ids=[
        "no-directions", "negative-directions", "no-radial-cells", "nan-center", "line-no-directions",
        "line-negative-directions",
    ],
)
def test_disintegrate_rejects_bad_radial_parameters(capsys, flags):
    argv = ["disintegrate", "--resolution", "33", "--mode", "radial"]
    if "--box" not in flags:
        argv += ["--box", "-4", "4", "-4", "4"]
    if "--center" not in flags:
        argv += ["--center", "0", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("vecot: ")
    assert "internal error" not in err
    assert "density" not in err
    assert caught == []


@pytest.mark.parametrize(
    "doc",
    [
        [[-1.0, 1.0], [1.0, 2.0]],
        {"box": [-1.0, 1.0], "samples": "abc"},
        {"box": [[-1.0, 1.0], [-1.0, "1.0"]], "samples": np.ones((5, 5)).tolist()},
        {"box": [-1.0, 1.0]},
    ],
    ids=["list", "string-samples", "string-in-box", "missing-samples"],
)
def test_disintegrate_rejects_malformed_grid_files(tmp_path, capsys, doc):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    assert main(["disintegrate", "--grid", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("vecot: ")
    assert "internal error" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", {"box": [-1e308, 1e308], "samples": [1.0] * 5}],
        ["--grid", {"box": [[-1e200, 1e200], [-1e200, 1e200]], "samples": np.ones((3, 3)).tolist()}],
        ["--box", "0", "inf", "--resolution", "9", "--mode", "radial", "--center", "1"],
        ["--box", "0", "1e300", "0", "1e300", "--resolution", "2", "--family", "uniform"],
    ],
    ids=["overflowing-width", "overflowing-cell-volume", "infinite-bound", "overflowing-cells-flag"],
)
def test_disintegrate_rejects_a_box_that_is_not_finite(tmp_path, capsys, argv):
    # The box is the fault, not the density, and no overflow warning is
    # printed (or raised, when warnings are errors) on the way.
    if argv[0] == "--grid":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(argv[1]))
        argv = ["--grid", str(grid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["disintegrate"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("vecot: ")
    assert "box" in captured.err or "cell volume" in captured.err
    assert "internal error" not in captured.err and "density" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", {"box": [-1, 1], "samples": [1e308] * 3}, "--mode", "radial", "--center", "0"],
         "the total mass inf"),
        (["--grid", {"box": [-1, 1, -1, 1], "samples": [[1e308] * 3] * 3}, "--m", "1"],
         "the total mass inf"),
        (["--grid", {"box": [-1, 1, -1, 1], "samples": [[1e308] * 2] * 2}, "--m", "1"],
         "the total mass inf"),
        (["--box", "0", "1e200", "0", "1", "--resolution", "9"],
         "density must carry positive total mass"),
        (["--family", "uniform", "--box", "0", "1e-300", "0", "1", "--resolution", "7",
          "--cd", "0,inf"], "squares outside the stencils' float range"),
        (["--family", "uniform", "--box", "0", "1e200", "0", "1", "--resolution", "7",
          "--cd", "0,inf"], "squares outside the stencils' float range"),
        (["--family", "uniform", "--box", "0", "1e-150", "--resolution", "7", "--mode", "radial",
          "--center", "5e-151", "--cd", "0,inf"], "squares outside the stencils' float range"),
        (["--grid", {"box": [[0, 1e300], [0, 1e-300]], "samples": [[1e300, 1e300]] * 2},
          "--m", "1"], "a needle's mass or unit-mass density leaves the float range"),
        (["--family", "uniform", "--box", "0", "1", "--resolution", "7", "--mode", "radial",
          "--center", "1e-320"], "a needle's mass or unit-mass density leaves the float range"),
        (["--family", "uniform", "--box", "0", "1e200", "0", "1", "0", "1", "--resolution", "2",
          "--mode", "radial", "--center", "1e199", "0.5", "0.5", "--directions", "1"],
         "the Jacobian r^2 overflows"),
        (["--grid", {"box": [0, 1], "samples": [0, 1e308, 1e307]}, "--mode", "radial",
          "--center", "0.01"], "the rays' total mass inf"),
        (["--family", "uniform", "--box", "0", "1e-300", "0", "1e-8", "--resolution", "2"],
         "unit masses on cells of volume 2.5e-309 leave the float range"),
        (["--family", "uniform", "--box", "0", "1e200", "0", "1", "0", "1e-200", "--resolution", "2",
          "--mode", "radial", "--center", "5e199", "0.5", "5e-201", "--directions", "4"],
         "the volume element r^2 dr underflows to 0 on every ray"),
    ],
    ids=["radial-mass-overflow", "slice-mass-overflow", "slice-mass-overflow-2x2",
         "gaussian-underflow", "cd-tiny-step", "cd-huge-step", "cd-tiny-ray-step",
         "slice-needle-mass", "tiny-ray", "ray-jacobian", "ray-mass", "reassembly",
         "ray-volume-underflow"],
)
def test_disintegrate_rejects_values_outside_the_float_range(tmp_path, capsys, argv, message):
    # A mass, a density or a squared needle step past the float range is a
    # validation error, reached without a warning (or an exception, when
    # warnings are errors) on the way.
    if argv[0] == "--grid":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(argv[1]))
        argv = ["--grid", str(grid)] + argv[2:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["disintegrate"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("vecot: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _magnitudes(lo: float, hi: float):
    """Floats spread evenly in log scale over [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _flag(x: float) -> str:
    # Positional, so that argparse reads a negative bound as a number.
    return np.format_float_positional(x, trim="-")


@st.composite
def disintegrate_argvs(draw):
    """Command lines of ``disintegrate`` over the float range: 1 to 3 axes of
    1 to 8 cells, bounds and widths from 1e-300 to 1e300, a family or a grid
    file of samples up to 1e308, either mode, and up to two CD checks with N
    = 1, 2, 3, 1e308 or inf and kappa = 0 or -1."""
    dim = draw(st.integers(1, 3))
    resolution = draw(st.lists(st.integers(1, 8), min_size=dim, max_size=dim))
    signs = st.sampled_from([-1.0, 0.0, 1.0])
    box = []
    for _ in range(dim):
        lo = draw(signs) * draw(_magnitudes(-300, 300))
        box.append((lo, lo + draw(_magnitudes(-300, 300))))
    if draw(st.booleans()):
        size = int(np.prod(resolution))
        sample = st.one_of(st.just(0.0), _magnitudes(-300, 308))
        samples = np.array(draw(st.lists(sample, min_size=size, max_size=size)))
        grid = {"box": [list(b) for b in box], "samples": samples.reshape(resolution).tolist()}
    else:
        grid = None
        family = draw(st.sampled_from(["gaussian", "uniform"]))
        argv = ["--family", family, "--box", *(_flag(x) for b in box for x in b),
                "--resolution", *map(str, resolution)]
    if draw(st.booleans()):
        mode = ["--mode", "slice", "--m", str(draw(st.integers(1, 3)))]
    else:
        # A center at a fraction of the way across each axis.
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim))
        center = [lo + f * (hi - lo) for (lo, hi), f in zip(box, fractions)]
        mode = ["--mode", "radial", "--center", *map(_flag, center),
                "--directions", str(draw(st.integers(1, 8)))]
    # Up to two CD checks, at finite and infinite N; a negative kappa is
    # written after "=", the only way argparse takes it.
    specs = ["0,inf", "0,1", "0,2", "0,3", "0,1e308", "-1,3"]
    cd = ["--cd=" + spec for spec in draw(st.lists(st.sampled_from(specs), max_size=2))]
    return grid, (["--grid"] if grid else argv) + mode + cd


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(disintegrate_argvs())
def test_disintegrate_succeeds_or_refuses_with_one_line(case):
    # Whatever the magnitudes, a run succeeds or names its fault in one
    # "vecot: " line, without a warning (an exception, with warnings as
    # errors) on the way.
    grid, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if grid is not None:
            path = os.path.join(tmp, "grid.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(grid, fh)
            argv = argv[:1] + [path] + argv[1:]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["disintegrate", *argv])
    if code == 0:
        assert json.loads(out.getvalue())["command"] == "disintegrate"
        assert err.getvalue() == ""
    else:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().startswith("vecot: ") and err.getvalue().count("\n") == 1
        assert "internal error" not in err.getvalue()


@st.composite
def pipeline_instances(draw):
    """Instance documents over the float range: 2 to 8 points in 1 to 3
    dimensions, m = 1 to 3, point and weight scales from 1e-300 to 1e300, and
    spread, collinear or near-duplicate clouds (two points a gap of 1e-14 to
    1e-6 of the cloud's scale apart)."""
    size, n, m = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["spread", "collinear", "near-duplicate"]))
    points = rng.uniform(-1.0, 1.0, (size, n))
    if shape == "collinear":
        points = rng.uniform(-1.0, 1.0, (size, 1)) * rng.normal(size=n) + rng.normal(size=n)
    elif shape == "near-duplicate":
        points[1] = points[0] + draw(_magnitudes(-14, -6)) * rng.normal(size=n)
    weights = rng.normal(size=(size, m))
    weights -= weights.mean(axis=0)
    points, weights = points * draw(_magnitudes(-300, 300)), weights * draw(_magnitudes(-300, 300))
    return {"n": n, "m": m, "points": points.tolist(), "weights": weights.tolist()}


def _run_quietly(argv) -> tuple[int, str, str]:
    """``main(argv)`` with warnings as errors: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("vecot: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(pipeline_instances())
def test_the_pipeline_succeeds_or_refuses_with_one_line(document):
    # Whatever the scales and the shape of the cloud, each command answers,
    # stops at the iteration limit, or names the fault of its input in one
    # "vecot: " line; a Converged solve certifies Optimal, its leaves and
    # mass balance are found, and on the line its value is the oracle's.
    with tempfile.TemporaryDirectory() as tmp:
        instance, solution = os.path.join(tmp, "instance.json"), os.path.join(tmp, "solution.json")
        with open(instance, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        solved, _, _ = _run_quietly(["solve", "--input", instance, "--output", solution])
        if solved == 2:
            return
        with open(solution, encoding="utf-8") as fh:
            value = json.load(fh)["report"]["primal_value"]
        certified, out, _ = _run_quietly(["certify", "--input", solution])
        codes = [_run_quietly([command, "--input", solution])[0] for command in ("leaves", "massbalance")]
    if solved == 0:
        assert certified == 0 and json.loads(out)["certificate"]["verdict"] == "Optimal"
        assert codes == [0, 0]
        if document["n"] == document["m"] == 1:
            expected = line_oracle(build_instance(document["points"], document["weights"]))
            assert abs(value - expected) <= 1e-9 * expected


def test_disintegrate_family_requires_box(capsys):
    assert main(["disintegrate", "--family", "uniform", "--mode", "slice"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# selftest and packaging
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, doc = run(capsys, "selftest")
    assert code == 0
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["paper", "orthant"]
    assert all(c["passed"] for c in doc["checks"])


def test_selftest_fails_when_the_balance_holds(monkeypatch, capsys):
    real = vecot.cli.mass_balance_report

    def balanced(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), verdict="BalanceHolds", witness=None)

    monkeypatch.setattr(vecot.cli, "mass_balance_report", balanced)
    code, doc = run(capsys, "selftest")
    assert code == 4
    assert doc["all_passed"] is False
    assert not any(c["passed"] for c in doc["checks"])


def test_console_script_entry_point(tmp_path):
    result = python("-m", "vecot.cli", "--version")
    assert result.returncode == 0
    assert "vecot" in result.stdout
