"""Tests for the core data types, validation and serialization."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vecot
from vecot import (
    DimensionMismatch,
    DiscreteVectorMeasure,
    DuplicatePoint,
    Instance,
    NonzeroTotalMass,
    NotLipschitz,
    PointCloud,
    PotentialField,
    VectorCoupling,
    build_instance,
    certify,
    cost,
    distance_matrix,
    dumps_instance,
    extract_leaves,
    instance_from_dict,
    instance_to_dict,
    isometry_graph,
    lipschitz_constant,
    lipschitz_info,
    loads_instance,
    marginals,
    mass_balance_report,
    pairing,
    solve,
    total_variation,
)
from vecot.core import _dumps, _json_numbers, _row_norms


def two_point_instance() -> Instance:
    return build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0], [-1.0]])


# ---------------------------------------------------------------------------
# PointCloud / DiscreteVectorMeasure validation
# ---------------------------------------------------------------------------


def test_point_cloud_shapes_and_dims():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.5]]))
    assert cloud.size == 3
    assert cloud.ambient_dim == 1


def test_point_cloud_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        PointCloud(np.array([[1.0, 2.0], [1.0, 2.0]]))
    # The first equal neighbours after a lexicographic sort, in index order:
    # rows 1 and 4 sort before rows 0 and 3.
    with pytest.raises(DuplicatePoint, match=r"^points 1 and 4 coincide$"):
        PointCloud(np.array([[5.0, 0.0], [1.0, 2.0], [0.0, 9.0], [5.0, 0.0], [1.0, 2.0]]))


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        PointCloud(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        PointCloud(np.array([[np.nan, 0.0]]))


def test_measure_requires_zero_total_mass():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(NonzeroTotalMass):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-0.5]]))


def test_measure_zero_mass_tolerance_is_relative():
    # A residual at the 1e-13 * scale level is accepted, 1e-11 is not.
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    DiscreteVectorMeasure(cloud, np.array([[1.0], [-1.0 + 1e-13]]))
    with pytest.raises(NonzeroTotalMass):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-1.0 + 1e-11]]))


def test_measure_row_count_must_match_cloud():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(DimensionMismatch):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-0.5], [-0.5]]))


def test_all_zero_weights_are_allowed():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    mu = DiscreteVectorMeasure(cloud, np.zeros((2, 3)))
    assert mu.mass_scale == 0.0
    assert mu.target_dim == 3


def test_build_instance_properties():
    inst = two_point_instance()
    assert inst.size == 2
    assert inst.ambient_dim == 2
    assert inst.target_dim == 1
    np.testing.assert_allclose(inst.distances, [[0.0, 5.0], [5.0, 0.0]])
    assert inst.distances is inst.cloud.distances


def test_point_distances_are_computed_once_per_cloud(monkeypatch):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((12, 2))
    inst = build_instance(rng.standard_normal((12, 2)), w - w.mean(axis=0))
    on_points = []
    real = vecot.core.distance_matrix

    def counting(x):
        on_points.append(np.array_equal(x, inst.cloud.points))
        return real(x)

    for module in (vecot.core, vecot.solver, vecot.leaves, vecot.mass_balance):
        monkeypatch.setattr(module, "distance_matrix", counting, raising=False)
    coupling, potential, _ = solve(inst)
    assert certify(inst, coupling, potential).verdict == "Optimal"
    decomposition = extract_leaves(isometry_graph(potential), potential)
    mass_balance_report(inst, decomposition)
    assert sum(on_points) == 1


# ---------------------------------------------------------------------------
# VectorCoupling canonicalization
# ---------------------------------------------------------------------------


def test_coupling_orients_pairs_and_flips_flows():
    # (2, 0) is stored as (0, 2) with the flow negated; the marginal
    # difference must be unchanged by the reorientation.
    c = VectorCoupling(np.array([[2, 0], [1, 2]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(c.pairs, [[0, 2], [1, 2]])
    np.testing.assert_allclose(c.flows, [[-1.0, -2.0], [3.0, 4.0]])
    p1, p2, net = marginals(c, 3)
    np.testing.assert_allclose(net[0], [-1.0, -2.0])
    np.testing.assert_allclose(net[2], [1.0 - 3.0, 2.0 - 4.0])


def test_coupling_rejects_self_loops_and_negatives():
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array([[1, 1]]), np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array([[-1, 2]]), np.array([[1.0]]))


@pytest.mark.parametrize("pairs", [[[0, 1.5]], [[0, np.nan]], [[0, np.inf]], [[True, False]]])
def test_coupling_rejects_indices_that_are_not_integers(pairs):
    # A cast to int would truncate 1.5 to 1 without a word.
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array(pairs), np.array([[1.0]]))


def test_coupling_takes_integer_valued_float_pairs():
    c = VectorCoupling(np.array([[2.0, 0.0]]), np.array([[1.0]]))
    assert c.pairs.dtype == np.int64 and c.pairs.tolist() == [[0, 2]]


def test_coupling_rejects_duplicate_pairs_after_orientation():
    # (0, 1) and (1, 0) describe the same unordered pair, which the error names.
    with pytest.raises(DimensionMismatch, match=r"duplicate unordered pair \(0, 1\) in coupling"):
        VectorCoupling(np.array([[0, 1], [1, 0]]), np.array([[1.0], [2.0]]))
    with pytest.raises(DimensionMismatch, match=r"duplicate unordered pair \(2, 7\) in coupling"):
        VectorCoupling(np.array([[2, 7], [0, 3], [7, 2]]), np.zeros((3, 1)))


def test_empty_coupling_is_valid():
    c = VectorCoupling(np.zeros((0, 2), dtype=int), np.zeros((0, 2)))
    assert c.edge_count == 0
    assert total_variation(c) == 0.0
    p1, p2, net = marginals(c, 4)
    np.testing.assert_array_equal(net, np.zeros((4, 2)))
    inst = build_instance([[0.0], [1.0], [3.0], [4.0]], np.zeros((4, 2)))
    assert cost(c, inst) == 0.0 and math.copysign(1.0, cost(c, inst)) == 1.0


def test_cost_of_an_empty_coupling_reads_the_cloud_distances():
    # Points 1e-160 apart are a cloud outside the numeric range: cost, like
    # certify, refuses it even when the coupling has no edge.
    inst = build_instance([[0.0], [1e-160]], [[0.0], [0.0]])
    empty = VectorCoupling(np.zeros((0, 2), dtype=int), np.zeros((0, 1)))
    with pytest.raises(DimensionMismatch, match="below 2\\^-511"):
        cost(empty, inst)


# ---------------------------------------------------------------------------
# PotentialField
# ---------------------------------------------------------------------------


def test_potential_field_validates_shape():
    inst = two_point_instance()
    with pytest.raises(DimensionMismatch):
        PotentialField(inst.measure.cloud, np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(DimensionMismatch):
        PotentialField(inst.measure.cloud, np.array([[np.inf], [0.0]]))


def test_lipschitz_info_reports_first_maximizing_pair():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [3.0]]))
    info = lipschitz_info(u)
    assert info.value == pytest.approx(2.0)
    assert info.pair == (1, 2)
    assert not info.single_point


def test_lipschitz_single_point_convention():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    u = PotentialField(cloud, np.array([[7.0, -3.0]]))
    info = lipschitz_info(u)
    assert info.value == 0.0
    assert info.single_point


def test_lipschitz_constant_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(7, 3))
    vals = rng.normal(size=(7, 2))
    cloud = PointCloud(pts)
    u = PotentialField(cloud, vals)
    d = distance_matrix(pts)
    best = 0.0
    for i in range(7):
        for j in range(i + 1, 7):
            best = max(best, float(np.linalg.norm(vals[i] - vals[j])) / d[i, j])
    assert lipschitz_constant(u) == pytest.approx(best, rel=1e-14)


def reference_distance_matrix(points) -> np.ndarray:
    """The distance kernel that formed the pair differences by one broadcast."""
    pts = np.asarray(points, dtype=float)
    n, k = pts.shape
    d = _row_norms((pts[:, None, :] - pts[None, :, :]).reshape(n * n, k)).reshape(n, n)
    np.fill_diagonal(d, 0.0)
    return d


def test_distance_matrix_matches_the_broadcast_kernel_bit_for_bit():
    # Coordinates near 2^-511 square to subnormals, near 2^511 to inf.
    rng = np.random.default_rng(43)
    for k in range(1, 10):
        for n_points in (0, 1, 2, 17, 60):
            for scale in (1.0, 2.0**-511, 2.0**511):
                pts = rng.normal(size=(n_points, k)) * scale
                pts[rng.random(pts.shape) < 0.2] = 0.0
                pts[rng.random(pts.shape) < 0.2] = -0.0
                with np.errstate(all="ignore"):
                    got, expected = distance_matrix(pts), reference_distance_matrix(pts)
                assert got.tobytes() == expected.tobytes(), (k, n_points, scale)
    # Rows of a strided view, and integer rows.
    pts = rng.normal(size=(30, 8))
    assert distance_matrix(pts[:, ::3]).tobytes() == reference_distance_matrix(pts[:, ::3]).tobytes()
    grid = np.argwhere(np.ones((4, 5)))
    assert distance_matrix(grid).tobytes() == reference_distance_matrix(grid).tobytes()


def brute_force_scan(values, distances) -> list:
    """Every pair i < j, in lexicographic order, with its stretch."""
    norms = distance_matrix(values)
    n = len(values)
    return [((i, j), norms[i, j] / distances[i, j]) for i in range(n) for j in range(i + 1, n)]


def test_pair_scans_match_a_brute_force_pair_loop():
    # Rounded values on lattice points tie many pairs at the largest stretch;
    # a constant potential ties every pair at 0.
    rng = np.random.default_rng(17)
    lattice = np.argwhere(np.ones((5, 5))).astype(float)
    cases = []
    for n_points in (2, 3, 9, 25):
        pts = lattice[rng.permutation(25)[:n_points]]
        for m, scale in ((1, 0.6), (2, 1.0), (3, 2.0)):
            cases.append((pts, np.round(rng.normal(size=(n_points, m)) * scale)))
        cases.append((pts, np.ones((n_points, 2))))
    for pts, vals in cases:
        u = PotentialField(PointCloud(pts), vals)
        scan = brute_force_scan(vals, distance_matrix(pts))
        pair, worst = max(scan, key=lambda item: item[1])  # the first maximum
        info = lipschitz_info(u)
        assert (info.pair, info.value) == (pair, worst)
        for eps in (1e-6, 0.3):
            if worst > 1.0 + eps:
                with pytest.raises(NotLipschitz, match=re.escape(f"pair {pair} stretches")):
                    isometry_graph(u, eps)
            else:
                edges = [p for p, ratio in scan if ratio >= 1.0 - eps]
                assert isometry_graph(u, eps).edges.tolist() == [list(p) for p in edges]


def test_distances_that_underflow_are_rejected_on_first_use():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.3], [1e-170, 0.0]]))
    with pytest.raises(DuplicatePoint, match="points 0 and 2 are at distance 0.0"):
        cloud.distances


@pytest.mark.parametrize(
    "points, pair",
    [
        ([[0.0], [1.0], [1e200]], (0, 2)),  # the square overflows
        ([[0.0, 0.0], [1e200, 0.0], [3e200, 1.0]], (0, 1)),
        ([[-1e308], [1e308]], (0, 1)),  # the difference overflows
    ],
)
def test_distances_that_overflow_are_rejected_on_first_use(points, pair):
    cloud = PointCloud(np.array(points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=f"points {pair[0]} and {pair[1]} overflows"):
            cloud.distances


@pytest.mark.parametrize(
    "points, pair",
    [
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-160]], (1, 2)),
        ([[1.0], [0.0], [2.0**-512]], (1, 2)),  # its square is subnormal
        (np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3)) * 1.3e-160, (0, 1)),
    ],
)
def test_distances_below_2_to_the_minus_511_are_rejected_on_first_use(points, pair):
    # Their squares are subnormal, and their sums of squares lose digits.
    cloud = PointCloud(np.array(points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=f"points {pair[0]} and {pair[1]} is below 2\\^-511"):
            cloud.distances
    assert PointCloud(np.array([[0.0], [2.0**-511]])).distances[0, 1] == 2.0**-511


@pytest.mark.parametrize(
    "weights",
    [[[1e200], [-2e200], [1e200]], [[2.0**511], [-(2.0**511)]], [[1.3e154]] * 2 + [[-1.3e154]] * 2],
)
def test_measures_whose_mass_scale_reaches_2_to_the_512_are_rejected(weights):
    # The squares of the weight norms overflow from there on, and so can the
    # flows' and the value.
    cloud = PointCloud(np.arange(float(len(weights)))[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="mass scale .* is not below 2\\^512"):
            DiscreteVectorMeasure(cloud, np.array(weights))
    below = DiscreteVectorMeasure(PointCloud(np.array([[0.0], [1.0]])), [[2.0**510], [-(2.0**510)]])
    assert below.mass_scale == 2.0**511


@pytest.mark.parametrize("weights", [[[1e-170], [-1e-170]], [[1e-160], [-1e-160]], [[1e-155], [-1e-155]]])
def test_measures_whose_mass_scale_is_below_2_to_the_minus_511_are_rejected(weights):
    # The squares of their weights underflow: at 1e-170 the mass scale reads
    # 0.0, which solve took for a zero measure, and at 1e-160 it loses digits.
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="mass scale .* is below 2\\^-511"):
            DiscreteVectorMeasure(cloud, np.array(weights))
    lowest = DiscreteVectorMeasure(cloud, [[2.0**-512], [-(2.0**-512)]])
    assert lowest.mass_scale == 2.0**-511
    assert DiscreteVectorMeasure(cloud, np.zeros((2, 3))).mass_scale == 0.0


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def test_cost_and_total_variation():
    inst = two_point_instance()
    c = VectorCoupling(np.array([[0, 1]]), np.array([[1.0]]))
    assert total_variation(c) == pytest.approx(1.0)
    assert cost(c, inst) == pytest.approx(5.0)


def test_pairing_matches_manual_sum():
    inst = two_point_instance()
    u = PotentialField(inst.measure.cloud, np.array([[2.0], [-3.0]]))
    # <u, mu> = 2*1 + (-3)*(-1) = 5
    assert pairing(u, inst.measure) == pytest.approx(5.0)


def test_pairing_shape_mismatch():
    inst = two_point_instance()
    cloud = inst.measure.cloud
    u = PotentialField(cloud, np.array([[2.0, 0.0], [-3.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        pairing(u, inst.measure)


def test_marginal_difference_is_orientation_invariant():
    rng = np.random.default_rng(11)
    flows = rng.normal(size=(3, 2))
    a = VectorCoupling(np.array([[0, 1], [1, 2], [0, 3]]), flows.copy())
    b = VectorCoupling(np.array([[1, 0], [2, 1], [3, 0]]), -flows.copy())
    _, _, net_a = marginals(a, 4)
    _, _, net_b = marginals(b, 4)
    np.testing.assert_allclose(net_a, net_b)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_instance_dict_round_trip():
    inst = build_instance(
        [[0.0, 0.0], [1.0, 0.0], [0.25, 0.75]],
        [[1.0, 2.0], [-0.5, -1.0], [-0.5, -1.0]],
    )
    d = instance_to_dict(inst)
    assert d["n"] == 2 and d["m"] == 2
    back = instance_from_dict(d)
    np.testing.assert_array_equal(back.cloud.points, inst.cloud.points)
    np.testing.assert_array_equal(back.measure.weights, inst.measure.weights)


def test_dumps_loads_round_trip_is_byte_stable():
    inst = build_instance([[0.0], [1.0 / 3.0]], [[0.1], [-0.1]])
    text = dumps_instance(inst)
    again = dumps_instance(loads_instance(text))
    assert text == again
    assert text.endswith("\n")
    # Keys are sorted so the layout is deterministic.
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def _stdlib_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-05, 1e16, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ints = st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**200))
# The writer joins lists of exact floats and ints in one call and writes
# anything else item by item: bools and np.float64 in a list take that path.
_plain = st.one_of(_floats, _ints)
_mixed = st.one_of(_plain, st.booleans(), _floats.map(np.float64))
_strings = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\r\b\f\x00\x1f\x7f é€😀\u2028'))
_scalars = st.one_of(_mixed, st.none(), _strings)


def _matrices(numbers):
    return st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(numbers, min_size=width, max_size=width), max_size=6)
    )


_documents = st.recursive(
    st.one_of(
        _scalars,
        st.lists(_plain, max_size=8),
        st.lists(_mixed, max_size=8),
        _matrices(_plain),
        _matrices(_mixed),
        st.lists(st.lists(_plain, max_size=3), max_size=4),  # ragged and empty rows
        st.lists(st.tuples(_plain, _plain), max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_documents)
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert _dumps(doc) == _stdlib_dumps(doc)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    _documents,
    st.lists(_plain, max_size=4),
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), np.float64("nan")]
        + [np.int64(3), {1, 2}, 10**5000]  # an int too long for int.__repr__
    ),
)
def test_dumps_raises_what_json_dumps_raises(doc, numbers, bad):
    for wrapped in (
        {"a": doc, "b": [*numbers, bad]},
        {"a": doc, "b": [*numbers, float("-inf"), bad]},
        {"a": doc, "rows": [[*numbers, 1.0], [*numbers, bad]]},
        {"a": doc, "z": {"value": bad}},
    ):
        with pytest.raises((TypeError, ValueError)) as expected:
            _stdlib_dumps(wrapped)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            _dumps(wrapped)


def test_dumps_writes_non_string_keys_as_json_does():
    for doc in ({3: [2.5], 0.5: None, False: "f", -(2**70): []}, {None: {}}, {1e16: 1}):
        assert _dumps({"k": doc}) == _stdlib_dumps({"k": doc})
    for bad in ({float("nan"): 1}, {(1, 2): 1}, {"a": 1, 2: 3}):
        with pytest.raises((TypeError, ValueError)) as expected:
            _stdlib_dumps(bad)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            _dumps(bad)


@st.composite
def _instances(draw) -> Instance:
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coordinate = st.one_of(
        st.floats(-1e12, 1e12), st.sampled_from([-0.0, 5e-324, 1e-05, 1e-300, 0.1])
    )
    points = draw(
        st.lists(st.tuples(*[coordinate] * n), min_size=2, max_size=7, unique=True)
    )
    weight = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 5e-324, 1e-05]))
    size = len(points) - 1
    rows = draw(st.lists(st.tuples(*[weight] * m), min_size=size, max_size=size))
    weights = np.array(rows, dtype=float).reshape(-1, m)
    weights = np.vstack([weights, -weights.sum(axis=0)])
    # Nonzero weights whose mass scale lies below 2^-511 are refused.
    assume(not weights.any() or np.linalg.norm(weights, axis=1).sum() >= 2.0**-511)
    return build_instance(np.array(points, dtype=float), weights)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_instances())
def test_instance_files_round_trip_to_the_same_bits(instance):
    text = dumps_instance(instance)
    back = loads_instance(text)
    assert dumps_instance(back) == text
    for got, want in (
        (back.cloud.points, instance.cloud.points),
        (back.measure.weights, instance.measure.weights),
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_loads_instance_reports_malformed_input():
    with pytest.raises(DimensionMismatch):
        loads_instance('{"n": 1, "m": 1, "points": [[0.0]]}')
    with pytest.raises(DimensionMismatch):
        loads_instance("[1, 2, 3]")


@pytest.mark.parametrize(
    "edit",
    [
        {"n": "1"},
        {"m": 1.9},
        {"n": True},
        {"points": [["0.0"], [1.0]]},
        {"weights": [["-1"], [1.0]]},
        {"points": [[True], [0.0]]},
        {"weights": [[1.0], [None]]},
        {"points": [[0.0], 1.0]},
        {"points": "abc"},
        {"points": [[0.0], [1e400]]},
    ],
    ids=str,
)
def test_instance_from_dict_takes_only_json_numbers(edit):
    doc = {"n": 1, "m": 1, "points": [[0.0], [1.0]], "weights": [[1.0], [-1.0]]}
    assert instance_from_dict(doc).size == 2
    with pytest.raises(DimensionMismatch):
        instance_from_dict({**doc, **edit})


def test_json_numbers_have_the_bits_of_a_nested_float_array():
    # Ints beyond 2^53 round, -0.0 keeps its sign, and empty rows keep their shape.
    for value in ([], [[]], [[], []], [1, 2.5, -0.0], [[2**53 + 1, 0.1], [-0.0, 10**300]],
                  [[[1, 2], [3, 4]], [[5.5, 6], [7, 8]]], [[[]], [[]]]):
        got, expected = _json_numbers(value, "x"), np.asarray(value, dtype=float)
        assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())
    # Ragged rows, among them ragged rows of the right total count.
    for value in ([[1.0, 2.0], [3.0]], [[1, 2], [3, 4, 5], [6]], [[], [1]], [[[1, 2]], [3]],
                  [[[1, 2], [3, 4]], [[5, 6], [7]]], [[1.0], 2.0], [[1.0, 10**400]],
                  [[1.0, float("nan")]], [[-float("inf")]], [[1, True]], 2.0):
        with pytest.raises(DimensionMismatch, match="x must be an array of finite numbers"):
            _json_numbers(value, "x")


def test_instance_from_dict_checks_declared_dims():
    d = {
        "n": 3,
        "m": 1,
        "points": [[0.0, 0.0], [1.0, 0.0]],
        "weights": [[1.0], [-1.0]],
    }
    with pytest.raises(DimensionMismatch, match="points shape"):
        instance_from_dict(d)
    for weights in ([[1.0], [-1.0]], [1.0, -1.0]):
        with pytest.raises(DimensionMismatch, match="weights shape"):
            instance_from_dict({**d, "n": 2, "m": 2, "weights": weights})


def test_loads_instance_refuses_invalid_json():
    with pytest.raises(DimensionMismatch, match="invalid JSON"):
        loads_instance('{"n": 1, "m": 1,')


def test_dumps_raises_json_dumps_value_error_for_an_int_too_long_to_print():
    for doc in ([1, 10**5000], [[1.0], [10**5000]]):
        with pytest.raises(ValueError) as expected:
            _stdlib_dumps(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            _dumps(doc)


def test_package_reexports_each_module_public_name_once():
    from vecot import certifier, core, disintegration, leaves, mass_balance, solver

    modules = (core, solver, certifier, leaves, mass_balance, disintegration)
    expected = [name for module in modules for name in module.__all__]
    assert vecot.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(vecot, name) is getattr(module, name)


def test_invalid_parameters_raise_invalid_parameter():
    # A VecotError for the CLI's exit code 2, a ValueError for library callers.
    assert issubclass(vecot.InvalidParameter, vecot.VecotError)
    assert issubclass(vecot.InvalidParameter, ValueError)
    inst = two_point_instance()
    coupling, potential, _ = solve(inst)
    for call in (
        lambda: vecot.SolverParams(max_iters=0),
        lambda: vecot.SolverParams(tol_primal=float("nan")),
        lambda: certify(inst, coupling, potential, tol=0.0),
        lambda: isometry_graph(potential, eps=-1.0),
    ):
        with pytest.raises(vecot.InvalidParameter):
            call()


def _count_call(name, count):
    box, gauss = [[-1.0, 1.0]] * 3, lambda p: np.exp(-(p ** 2).sum(axis=1))
    density = vecot.tabulate_density(box, 5, gauss)
    calls = {
        "slice m": lambda: vecot.slice_disintegration(density, count),
        "n_directions": lambda: vecot.radial_disintegration(density, [0.0] * 3, n_directions=count),
        "n_radial": lambda: vecot.radial_disintegration(density, [0.0] * 3, 8, n_radial=count),
        "resolution": lambda: vecot.tabulate_density(box, count, gauss),
        "resolution entry": lambda: vecot.tabulate_density(box, [5, count, 5], gauss),
        "orthant m": lambda: vecot.orthant_spec(count),
        "points_per_ball": lambda: vecot.smoothed_instance(vecot.paper_preset(), 0.1, count),
        "max_iters": lambda: vecot.SolverParams(max_iters=count),
    }
    return calls[name]


@pytest.mark.parametrize("count", [2.5, 3.0, "3", True], ids=repr)
@pytest.mark.parametrize(
    "name, error",
    [
        ("slice m", vecot.InvalidParameter),
        ("n_directions", vecot.InvalidParameter),
        ("n_radial", vecot.InvalidParameter),
        ("resolution", vecot.InvalidParameter),
        ("resolution entry", vecot.InvalidParameter),
        ("orthant m", vecot.InvalidSpec),
        ("points_per_ball", vecot.InvalidSpec),
        ("max_iters", vecot.InvalidParameter),
    ],
)
def test_count_arguments_must_be_integers(name, error, count):
    # 2.5 once built a 3-ray fan or 2 cells per axis, and other counts ended
    # in a raw TypeError.  True, an int to isinstance, sliced at m = 1, built
    # a 1-ray fan, smoothed with 3 atoms and capped a solve at 1 iteration.
    with pytest.raises(error, match="must be an integer"):
        _count_call(name, count)()
    _count_call(name, np.int64(2))()
