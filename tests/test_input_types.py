"""Every input type of vecot either constructs or raises one VecotError,
and so does every call of the pipeline's entry points.

Point indices are drawn as integers up to 2^64 and floats up to 1e300,
negative, fractional and NaN among them; weights at scales from 1e-300 to
1e300; and array shapes one off from what a type takes.  The solver,
certifier, leaf, mass-balance and disintegration entry points are called
directly with tolerances, iteration caps, counts and CD parameters across
their ranges.  Every call runs with warnings as errors, so a cast that wraps
or an overflow on the way to the refusal fails the test as surely as an
exception of another type.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vecot import (
    CounterexampleSpec,
    GridDensity,
    IsometryGraph,
    PointCloud,
    PotentialField,
    SolverParams,
    VecotError,
    VectorCoupling,
    analytic_optimum,
    build_instance,
    cd_check_1d,
    certify,
    check_counterexample_spec,
    extract_leaves,
    isometry_graph,
    l1_distance,
    mass_balance_report,
    orthant_spec,
    radial_disintegration,
    reassemble,
    slice_disintegration,
    smoothed_instance,
    solve,
    tabulate_density,
    transport_set,
)

_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)

_index = st.one_of(
    st.integers(-1, 6),
    st.integers(-(2**64), 2**64),
    st.floats(-1e300, 1e300),
    st.sampled_from([math.nan, 0.5, -0.0, 3.0, 2.0**63, 2.0**63 - 1024, 1e19, 2**63 - 1, 2**63]),
)
_scale = st.sampled_from([1e-300, 1e-200, 1e-160, 1e-6, 1.0, 1e6, 1e150, 1e200, 1e300])
_off_by_one = st.sampled_from([-1, 0, 0, 1])


def constructs_or_raises_a_vecot_error(build):
    """``build()``, or None where it raises a VecotError; a warning or an
    exception of another type fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build()
        except VecotError:
            return None


def index_rows(draw, rows: int, width: int) -> list:
    return [draw(st.lists(_index, min_size=width, max_size=width)) for _ in range(rows)]


def weights(draw, rows: int, m: int, balanced: bool) -> np.ndarray:
    """Rows of scaled normal weights, summing to zero when ``balanced`` up to
    a drawn nudge of 3e-13, which weights below scale 1 cannot absorb."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=(rows, m))
    if balanced and rows:
        w[-1] = -w[:-1].sum(axis=0)
    w *= draw(_scale)
    if w.size:
        w[0, 0] += draw(st.sampled_from([0.0, 3e-13]))
    return w


@_SETTINGS
@given(st.data())
def test_vector_couplings(data):
    edges, m = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 2))
    pairs = index_rows(data.draw, edges, 2 + data.draw(_off_by_one))
    flows = weights(data.draw, max(edges + data.draw(_off_by_one), 0), m, False)
    constructs_or_raises_a_vecot_error(lambda: VectorCoupling(pairs, flows))


_CLOUD = PointCloud(np.array([[0.0], [1.0], [2.0], [4.0], [7.0]]))


@_SETTINGS
@given(st.data())
def test_isometry_graphs(data):
    edges = index_rows(data.draw, data.draw(st.integers(0, 3)), 2 + data.draw(_off_by_one))
    constructs_or_raises_a_vecot_error(lambda: IsometryGraph(_CLOUD, edges, 1e-6))


# Points 0-2 carry the potential x, points 3-4 the potential 6 - x: two leaves.
_U = PotentialField(_CLOUD, np.array([[0.0], [1.0], [2.0], [2.0], [-1.0]]))
_DECOMPOSITION = extract_leaves(isometry_graph(_U, eps=1e-9), _U)


@_SETTINGS
@given(st.data())
def test_transport_sets(data):
    count = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        seeds = data.draw(st.lists(_index, min_size=count, max_size=count))
    else:
        seeds = index_rows(data.draw, count, 1 + data.draw(_off_by_one))
    constructs_or_raises_a_vecot_error(lambda: transport_set(_DECOMPOSITION, seeds))


@_SETTINGS
@given(st.data())
def test_counterexample_specs(data):
    m = data.draw(st.integers(1, 3))
    n = m + data.draw(st.integers(-1, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    anchors = rng.uniform(-1.0, 1.0, (m + 1 + data.draw(_off_by_one), max(n, 0)))
    vectors = weights(data.draw, m + 1 + data.draw(_off_by_one), m, data.draw(st.booleans()))
    spec = constructs_or_raises_a_vecot_error(lambda: CounterexampleSpec(anchors, vectors))
    if spec is not None:  # a spec that constructs builds its instance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec.instance()


@_SETTINGS
@given(st.data())
def test_instances(data):
    size, n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (size, n))
    w = weights(data.draw, size + data.draw(_off_by_one), m, data.draw(st.booleans()))
    constructs_or_raises_a_vecot_error(lambda: build_instance(points, w))


def _magnitudes(lo: float, hi: float):
    """Floats spread evenly in log scale over [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# A Gaussian on a plane and in space: slices and rays of both are checked.
_DENSITIES = [
    tabulate_density([-3.0, 3.0] * dim, 9, lambda x: np.exp(-0.5 * (x**2).sum(axis=1)))
    for dim in (2, 3)
]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_entry_points_return_or_raise_a_vecot_error(data):
    draw = data.draw
    size, n, m = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (size, n)) * draw(_magnitudes(-150, 150))
    w = rng.normal(size=(size, m))
    w = (w - w.mean(axis=0)) * draw(_magnitudes(-150, 150))
    instance = constructs_or_raises_a_vecot_error(lambda: build_instance(points, w))
    if instance is not None:
        params = SolverParams(
            max_iters=draw(st.integers(1, 200)),
            tol_primal=draw(_magnitudes(-300, 300)),
            tol_gap=draw(_magnitudes(-300, 300)),
        )
        solved = constructs_or_raises_a_vecot_error(lambda: solve(instance, params))
        if solved is not None:
            coupling, potential, _ = solved
            tol = draw(_magnitudes(-300, 300))
            constructs_or_raises_a_vecot_error(lambda: certify(instance, coupling, potential, tol))
            eps = draw(_magnitudes(-300, 300))
            decomposition = constructs_or_raises_a_vecot_error(
                lambda: extract_leaves(isometry_graph(potential, eps), potential)
            )
            if decomposition is not None:
                tol = draw(st.one_of(st.just(0.0), _magnitudes(-300, 300)))
                constructs_or_raises_a_vecot_error(
                    lambda: mass_balance_report(instance, decomposition, tol)
                )
    density = draw(st.sampled_from(_DENSITIES))
    center = [draw(st.floats(-2.9, 2.9)) for _ in range(density.dim)]
    counts = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    batches = [
        slice_disintegration(density, 1),
        constructs_or_raises_a_vecot_error(lambda: radial_disintegration(density, center, *counts)),
    ]
    for batch in batches:
        if batch is not None:
            kappa = draw(st.floats(-1e308, 1e308))
            N = draw(st.one_of(st.floats(1.0, 1e308), st.just(math.inf)))
            tol = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e308)))
            constructs_or_raises_a_vecot_error(lambda: cd_check_1d(batch[0], kappa, N, tol))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_counterexample_and_reassembly_calls_return_or_raise_a_vecot_error(data):
    # Specs: the orthant at pulls up to 1e308, and the orthant's or random
    # anchors and vectors, each at a scale from 1e-300 to 1e300.
    draw = data.draw
    m = draw(st.integers(2, 6))
    constructs_or_raises_a_vecot_error(lambda: orthant_spec(m, draw(_magnitudes(-300, 308))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        anchors, lean = np.vstack([np.eye(m), np.zeros(m)]), np.eye(m) + 0.5
    else:
        anchors, lean = rng.uniform(-1.0, 1.0, (m + 1, m)), rng.normal(size=(m, m))
    anchors, vectors = anchors * draw(_magnitudes(-300, 300)), np.vstack([lean, -lean.sum(axis=0)])
    vectors *= draw(_magnitudes(-300, 300))
    spec = constructs_or_raises_a_vecot_error(lambda: CounterexampleSpec(anchors, vectors))
    if spec is not None:
        constructs_or_raises_a_vecot_error(lambda: check_counterexample_spec(spec))
        constructs_or_raises_a_vecot_error(lambda: analytic_optimum(spec))
        eps, count = draw(_magnitudes(-300, 300)), draw(st.integers(1, 8))
        constructs_or_raises_a_vecot_error(lambda: smoothed_instance(spec, eps, count))
    # A density on [-s, s]^dim split into slices or rays, and reassembled
    # with weights up to 1e308 onto a grid of its own scale.
    dim = draw(st.integers(1, 3))
    box = np.array([[-1.0, 1.0]] * dim)
    samples = rng.uniform(0.0, 1.0, (4,) * dim) * draw(_magnitudes(-300, 308))
    density = constructs_or_raises_a_vecot_error(
        lambda: GridDensity(box * draw(_magnitudes(-300, 300)), samples)
    )
    if density is None:
        return
    if draw(st.booleans()):
        split = constructs_or_raises_a_vecot_error(lambda: slice_disintegration(density, 1))
    else:
        center = density.box[:, 0] + rng.uniform(0.0, 1.0, dim) * (density.box[:, 1] - density.box[:, 0])
        split = constructs_or_raises_a_vecot_error(
            lambda: radial_disintegration(density, center, draw(st.integers(1, 8)))
        )
    target = constructs_or_raises_a_vecot_error(
        lambda: GridDensity(box * draw(_magnitudes(-300, 300)), np.ones((draw(st.integers(1, 5)),) * dim))
    )
    if split is not None and target is not None:
        needles, weights = split
        weights = weights * draw(_magnitudes(-300, 308))
        rebuilt = constructs_or_raises_a_vecot_error(lambda: reassemble(needles, weights, target))
        if rebuilt is not None:
            constructs_or_raises_a_vecot_error(lambda: l1_distance(rebuilt, target))
