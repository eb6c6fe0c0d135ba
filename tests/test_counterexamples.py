import math

import numpy as np
import pytest

from umbra import bodies, counterexamples as cx
from umbra.bodies import chart_at
from umbra.errors import OverlapError, ParameterError
from umbra.projection import assert_disjoint


# ---------------------------------------------------------------------------
# the slope identity behind the C^(2/q) shadows


def test_identity_on_default_grid():
    assert cx.kiselman_identity_check(3) <= 1e-12


def test_identity_at_origin_exact():
    assert cx.kiselman_identity_check(3, grid=[(0.0, 0.0)]) == 0.0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_identity_all_exponents(q):
    assert cx.kiselman_identity_check(q) <= 1e-10


def test_identity_rejects_even_q():
    with pytest.raises(ParameterError):
        cx.kiselman_identity_check(4)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_identity_matches_the_pointwise_loop(q):
    # reference: complex step one point at a time; float64 terms are O(1)
    grid = np.random.default_rng(q).uniform(-0.49, 0.49, size=(200, 2))
    profile = bodies._kiselman_profile(q)[0]
    ref = max(
        abs(profile(x, complex(y, 1e-100)).imag / 1e-100 - (y**q - x * x) * (1.0 - y))
        for x, y in grid.tolist()
    )
    assert abs(cx.kiselman_identity_check(q, grid=grid) - ref) <= 1e-15


def test_identity_rejects_points_outside_the_strip():
    with pytest.raises(ParameterError, match="strip"):
        cx.kiselman_identity_check(3, grid=[(0.0, 0.1), (0.2, -0.5)])


@pytest.mark.parametrize(
    "grid", [[(0.0, 0.1, 0.2)], [0.0, 0.1], [[(0.0, 0.1)]], np.zeros((2, 2, 2))]
)
def test_identity_rejects_a_grid_that_is_not_n_by_2(grid):
    with pytest.raises(ParameterError, match="grid"):
        cx.kiselman_identity_check(3, grid=grid)


def test_identity_on_an_empty_grid_is_zero():
    assert cx.kiselman_identity_check(5, grid=[]) == 0.0


@pytest.mark.parametrize("q", [3, 5])
def test_zero_level_is_the_power_curve(q):
    for x in np.linspace(-0.1, 0.1, 11):
        got = cx.kiselman_zero_level(q, float(x))
        assert abs(got - abs(x) ** (2.0 / q)) < 1e-8


# ---------------------------------------------------------------------------
# cone-over-circle: shadow boundary is not a graph at the origin


def test_cone_witness_default_direction():
    w = cx.cone_body_graph_failure(rng=0)
    assert w.found
    assert w.frames_checked == 27  # 3 coordinate axes + 24 random frames
    # every frame has verified pairs at three shrinking radii
    assert all(len(v) == 3 for v in w.pairs.values())
    for pairs in w.pairs.values():
        for p, q in pairs:
            assert np.linalg.norm(p - q) > 1e-5


def test_cone_witness_contains_canonical_pair():
    # the seam midpoint and the circle point at the origin share their
    # first coordinate: the pair found along e_1 at radius >= 0.5
    w = cx.cone_body_graph_failure(rng=0)
    ex_pairs = w.pairs[tuple(np.round(np.eye(3)[0], 12))]
    flat = [tuple(np.round(p, 12)) for pair in ex_pairs for p in pair]
    assert (0.0, 0.5, 0.0) in flat and (0.0, 0.0, 0.0) in flat


def _check_pair(pair, a, radius):
    assert pair is not None
    p, q = pair
    assert np.linalg.norm(p - q) >= 1e-5
    assert abs(float(np.dot(p - q, a))) <= 1e-11
    assert max(np.linalg.norm(p), np.linalg.norm(q)) <= radius


def test_cone_triod_pairs_on_near_degenerate_and_random_axes():
    # a same-projection pair on every axis at every probe radius, inside the
    # radius; the near-degenerate axes need a pair of rim arcs on one side
    body = cx.cone_over_circle()
    u = np.array([0.0, 1.0, 0.0])
    axes = [(1.0, -0.3, 1e-9), (1e-3, 1.0, 1e-3), (1.0, 1e-13, 0.0), (1.0, 0.0, 1e-12), (0.0, 1.0, 0.0)]
    axes += list(np.random.default_rng(20).normal(size=(300, 3)))
    for a in axes:
        a = np.asarray(a, float) / np.linalg.norm(a)
        for radius in (0.55, 0.1375, 0.034375):
            _check_pair(cx._pair_for_axis(body, a, u, radius), a, radius)


def test_cone_triod_pair_when_the_seam_barely_tilts():
    # a_y = 1e-11 is past the a_y = 0 threshold but the seam end projects to
    # almost nothing: the matching rim point lies within 1e-10 of the origin
    body = cx.cone_over_circle()
    a = np.array([0.3, 1e-11, -1.0]) / np.linalg.norm([0.3, 1e-11, -1.0])
    for radius in (0.55, 0.1375, 0.034375):
        pair = cx._pair_for_axis(body, a, np.array([0.0, 1.0, 0.0]), radius)
        _check_pair(pair, a, radius)
        assert all(cx.is_cone_shadow_boundary_point(body, x, [0.0, 1.0, 0.0]) for x in pair)


def test_cone_witness_generic_direction_finds_nothing():
    w = cx.cone_body_graph_failure(u=(0.3, 0.2, 0.93), rng=0)
    assert not w.found


def test_cone_witness_apex_reversed_direction():
    # the reversed light puts the base face in the shadow: its boundary near
    # the origin is the rim circle, a graph over the third axis, so the
    # all-frames witness cannot exist; in-plane axes still fail via the rim
    w = cx.cone_body_graph_failure(u=(0.0, -1.0, 0.0), rng=0)
    assert not w.found
    body = cx.cone_over_circle()
    for d in (0.05, -0.08):
        assert cx.is_cone_shadow_boundary_point(body, cx._rim_point(d), np.array([0.0, -1.0, 0.0]))


def test_cone_boundary_point_classification():
    body = cx.cone_over_circle()
    u = np.array([0.0, 1.0, 0.0])
    assert cx.is_cone_shadow_boundary_point(body, [0.0, 0.5, 0.0], u)  # seam
    assert cx.is_cone_shadow_boundary_point(body, cx._rim_point(0.3), u)  # rim
    # generic lateral surface points are strictly lit, not boundary
    lateral = np.array([1.0 + math.cos(0.4), 0.0, math.sin(0.4)]) * 0.5 + np.array([0.5, 0.5, 0.0]) * 0.0
    w = 0.4
    y = 0.3
    p = np.array([(1 - y) + (1 - y) * math.cos(w), y, (1 - y) * math.sin(w)])
    assert not cx.is_cone_shadow_boundary_point(body, p, u)


def test_cone_hull_convexity_by_segment_sampling(rng):
    gens = cx.cone_hull_generators(256)
    body = cx.cone_over_circle()
    for _ in range(300):
        w = rng.dirichlet(np.ones(4))
        idx = rng.integers(0, len(gens), size=4)
        p = w @ gens[idx]
        assert body.value_at(p) <= 1e-9
    # random segments between hull points stay inside
    for _ in range(200):
        a = rng.dirichlet(np.ones(3)) @ gens[rng.integers(0, len(gens), size=3)]
        b = rng.dirichlet(np.ones(3)) @ gens[rng.integers(0, len(gens), size=3)]
        t = rng.random()
        assert body.value_at(t * a + (1 - t) * b) <= 1e-9


# ---------------------------------------------------------------------------
# Cantor contact pair


@pytest.mark.parametrize("depth,count", [(1, 2), (2, 4), (3, 8)])
def test_cantor_contact_counts(depth, count):
    pair = cx.cantor_contact_pair(1e-4, depth)
    assert pair.contact_count == count
    assert not pair.degenerate


def test_cantor_eps_zero_degenerate():
    pair = cx.cantor_contact_pair(0.0, 3)
    assert pair.degenerate


def test_cantor_eps_too_large():
    with pytest.raises(ParameterError):
        cx.cantor_contact_pair(10.0, 6)


def test_cantor_pair_rejected_by_disjointness_validator():
    pair = cx.cantor_contact_pair(1e-4, 2)
    with pytest.raises(OverlapError):
        assert_disjoint(pair.omega, pair.lam)


def test_cantor_bodies_touch_only_above_cantor_set():
    # the boundary gap eps*g vanishes exactly on the kept intervals
    from umbra.bodies import _CantorGap, cantor_removed_intervals

    gap = _CantorGap(2)
    removed = cantor_removed_intervals(2)
    for a, b, _ in removed:
        mid = 0.5 * (a + b)
        assert gap.value(np.array([mid]))[0] > 0
        assert gap.value(np.array([a]))[0] == 0.0
        assert gap.value(np.array([b]))[0] == 0.0
    assert gap.value(np.array([1.0]))[0] == 0.0
    assert gap.value(np.array([0.9]))[0] > 0  # guard outside [1, 2]
    assert gap.value(np.array([2.3]))[0] > 0


# ---------------------------------------------------------------------------
# strict-but-not-uniform convexity of the kiselman chart


def test_kiselman_chart_strictly_concave_on_samples(rng):
    body = bodies.kiselman(3)
    ch = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.45)
    for _ in range(300):
        a, b = rng.normal(size=2), rng.normal(size=2)
        a *= rng.random() * 0.4 / np.linalg.norm(a)
        b *= rng.random() * 0.4 / np.linalg.norm(b)
        if np.linalg.norm(a - b) < 1e-12:
            continue
        val = np.dot(ch.gradient(a) - ch.gradient(b), a - b)
        assert val < 0


def test_kiselman_chart_fails_every_uniform_concavity_modulus():
    body = bodies.kiselman(3)
    ch = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.45)
    for theta in (1e-1, 1e-2, 1e-3, 1e-4):
        found_witness = False
        for k in range(2, 24):
            a = np.array([0.0, 2.0**-k])
            b = np.array([0.0, 2.0 ** -(k + 1)])
            d = a - b
            ratio = np.dot(ch.gradient(a) - ch.gradient(b), d) / np.dot(d, d)
            if ratio > -theta:  # strictly concave but not uniformly so
                found_witness = True
                break
        assert found_witness
