import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from umbra import bodies
from umbra.bodies import TOL_BOUNDARY, Pose, chart_at, sample_boundary_points
from umbra.errors import (
    ChartError,
    DegeneratePointError,
    DomainError,
    InteriorPointError,
    NoConvergenceError,
    OverlapError,
    ParameterError,
    RankDeficiencyError,
    RankDeficiencyWarning,
    SeedError,
    UmbraError,
)
from umbra import projection as pj
from umbra.counterexamples import cantor_contact_pair

import oracles


def coaxial_pair():
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    om = bodies.translated_ball([0.0, 0.0, 3.0], 1.0)
    return om, lam


def quartic_flat_body():
    """Contact body with a flat tangent direction at (0, 0, 2).

    The quartic term kills the curvature along the axis, so the boundary
    map's Jacobian drops rank at the constructed contact configuration.
    """
    return bodies.ImplicitBody(
        dim=3,
        value=lambda p: (p[0] - 1.0) ** 2 + p[1] ** 2 + (p[2] - 2.0) ** 4 - 1.0,
        gradient=lambda p: np.array(
            [2.0 * (p[0] - 1.0), 2.0 * p[1], 4.0 * (p[2] - 2.0) ** 3]
        ),
        hessian=lambda p: np.diag([2.0, 2.0, 12.0 * (p[2] - 2.0) ** 2]),
        bounding_radius=1.0,
        center=np.array([1.0, 0.0, 2.0]),
        convexity=bodies.Convexity.convex(),
    )


# ---------------------------------------------------------------------------
# projection of a point


def test_project_point_radial():
    _, lam = coaxial_pair()
    assert np.allclose(pj.project_point(lam, [2.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-10)


def test_project_point_boundary_fixed_point():
    _, lam = coaxial_pair()
    y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(pj.project_point(lam, y), y)


def test_project_point_interior_errors():
    _, lam = coaxial_pair()
    with pytest.raises(InteriorPointError):
        pj.project_point(lam, [0.1, 0.0, 0.0])


def test_project_point_matches_grid_argmin(rng):
    body = bodies.ellipsoid([2.0, 1.0, 1.0])
    x = np.array([4.0, 0.3, 0.0])
    y = pj.project_point(body, x)
    pts, _ = oracles.ellipsoid_boundary_grid([2.0, 1.0, 1.0], np.eye(3), np.zeros(3), 1000, 1000)
    pts = pts.reshape(-1, 3)
    d = np.linalg.norm(pts - x, axis=1)
    best = pts[np.argmin(d)]
    spacing = math.pi * 2.0 / 1000
    assert np.linalg.norm(y - best) <= 2 * spacing
    # KKT: x - y is along the outward normal
    g = body.gradient_at(y)
    cosang = np.dot(x - y, g) / (np.linalg.norm(x - y) * np.linalg.norm(g))
    assert cosang == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# nearest points on ellipsoids and balls (the secular equation)


def _stationarity(body, x, y):
    """max(|F(y)|, |(x - y) - s grad F(y)|) with the least-squares s."""
    g = body.gradient_at(y)
    s = float(np.dot(x - y, g)) / float(np.dot(g, g))
    return max(abs(body.value_at(y)), float(np.abs((x - y) - s * g).max()))


def _bisected_nearest(semiaxes, rotation, center, x):
    """Nearest point of the ellipsoid with these semiaxes, posed by (rotation,
    center), to x: 200 bisections on the multiplier in the ellipsoid's frame."""
    lam = 1.0 / np.asarray(semiaxes, float) ** 2
    u = rotation.T @ (x - center)
    f = lambda mu: float(np.sum(lam * (u / (1.0 + 2.0 * mu * lam)) ** 2)) - 1.0
    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return rotation @ (u / (1.0 + 2.0 * lo * lam)) + center


def _posed_ellipsoid(rng, n, low=0.3, high=2.0):
    a = rng.uniform(low, high, size=n)
    return bodies.ellipsoid(a, Pose(oracles.random_rotation(rng, n), rng.normal(size=n))), a


@pytest.mark.parametrize("posed", [False, True], ids=["axis-aligned", "posed"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_project_point_on_ellipsoid_matches_bisection(n, posed):
    rng = np.random.default_rng(510 + n + 10 * posed)
    for _ in range(8):
        a = rng.uniform(0.4, 2.0, size=n)
        R, t = (oracles.random_rotation(rng, n), rng.normal(size=n)) if posed else (np.eye(n), np.zeros(n))
        body = bodies.ellipsoid(a, Pose(R, t) if posed else None)
        x = t + rng.uniform(1.05, 4.0) * a.max() * _unit(rng.normal(size=n))
        y = pj.project_point(body, x)
        assert np.abs(y - _bisected_nearest(a, R, t, x)).max() <= 1e-10
        assert _stationarity(body, x, y) <= pj.TOL_ROOT


def test_project_point_closed_form_agrees_with_damped_newton():
    # without its quadric, the same body takes the ray seed and damped Newton
    rng = np.random.default_rng(530)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            body, a = _posed_ellipsoid(rng, n)
            x = body.center + rng.uniform(1.05, 4.0) * a.max() * _unit(rng.normal(size=n))
            newton = pj.project_point(replace(body, quadric=None), x)
            assert np.abs(pj.project_point(body, x) - newton).max() <= 1e-10


def test_project_point_on_ellipsoid_makes_no_hessian_or_ray_call(monkeypatch):
    calls = {"hessian": 0, "ray": 0}
    body, _ = _posed_ellipsoid(np.random.default_rng(540), 3, 0.6, 1.2)
    hessian, ray = body.hessian, pj.boundary_point_along

    def counting_hessian(x):
        calls["hessian"] += 1
        return hessian(x)

    def counting_ray(*args):
        calls["ray"] += 1
        return ray(*args)

    body = replace(body, hessian=counting_hessian)
    monkeypatch.setattr(pj, "boundary_point_along", counting_ray)
    x = body.center + np.array([2.0, 1.0, -1.5])
    y = pj.project_point(body, x)
    assert calls == {"hessian": 0, "ray": 0}
    assert _stationarity(body, x, y) <= pj.TOL_ROOT
    # a boundary point projects to itself and an interior point raises, as before
    b = bodies.boundary_point_along(body, [0.3, -1.0, 0.4])
    p = pj.project_point(body, b)
    assert np.array_equal(p, b) and p is not b
    with pytest.raises(InteriorPointError):
        pj.project_point(body, body.center + 0.1)
    assert calls == {"hessian": 0, "ray": 0}
    # the counters do see damped Newton
    pj.project_point(replace(body, quadric=None), x)
    assert calls["hessian"] > 0 and calls["ray"] > 0


def test_project_point_on_eccentric_ellipsoid_is_stationary():
    # axes 1 : 10^-1.5 : 10^-3 leave some closed-form points above TOL_ROOT
    # from rounding in the eigenbasis; those end on damped Newton
    rng = np.random.default_rng(550)
    for _ in range(20):
        body = bodies.ellipsoid([1.0, 10**-1.5, 1e-3], Pose(oracles.random_rotation(rng), rng.normal(size=3)))
        x = body.center + rng.uniform(1.05, 3.0) * _unit(rng.normal(size=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = pj.project_point(body, x)
        assert _stationarity(body, x, y) <= pj.TOL_ROOT * max(1.0, body.bounding_radius)


# ---------------------------------------------------------------------------
# nearest points on bodies with a gradient kink (the active-set solve)


@pytest.mark.parametrize(
    "make, n, vertex",
    [
        pytest.param(lambda pose: bodies.paraboloid_cap(1.5, 0.8, pose), 3, None, id="paraboloid_cap-n3"),
        pytest.param(lambda pose: bodies.paraboloid_cap(1.5, 0.8, pose, dim=4), 4, None, id="paraboloid_cap-n4"),
        pytest.param(lambda pose: bodies.kiselman(3, clamp_radius=0.3, pose=pose), 3, None, id="kiselman-q3"),
        pytest.param(lambda pose: bodies.kiselman(5, clamp_radius=0.45, pose=pose), 3, None, id="kiselman-q5"),
        pytest.param(lambda pose: bodies.cantor_contact(1e-4, 3, "omega", pose), 2, None, id="cantor_contact-omega"),
        pytest.param(lambda pose: bodies.cantor_contact(1e-4, 3, "lambda", pose), 2, None, id="cantor_contact-lambda"),
        pytest.param(lambda pose: bodies.cone_over_circle(pose), 3, [0.0, 1.0, 0.0], id="cone_over_circle"),
    ],
)
def test_project_point_on_kinked_bodies_matches_boundary_sample(make, n, vertex):
    # unposed and posed, 100 outside points each: every nearest point is on
    # the boundary, no point of a dense sample of the body is nearer, and
    # the nearest sample is at most the sample's resolution there farther.
    # On the cone the points nearest the apex (a vertex of one piece, not a
    # kink between two) get it from its normal-cone test, and the unposed
    # cone also takes a point whose nearest point lies on the lateral side
    # 1.75e-3 from the apex, where Newton from the ray-crossing seed stalls
    # on the axis beyond the apex
    base = make(None)
    pts, res = oracles.radial_boundary_sample(
        base.value, base.center, base.bounding_radius, {2: 4000, 3: 120, 4: 32}[n], n
    )
    if vertex is not None:  # the vertex joins the sample, so that points nearest it pick it
        pts, res = np.vstack([pts, vertex]), np.append(res, res.max())
    rng = np.random.default_rng(560)
    for pose in (None, Pose(oracles.random_rotation(rng, n), rng.normal(size=n))):
        body = make(pose)
        world = pts if pose is None else pts @ pose.rotation.T + pose.translation
        x = body.center + rng.uniform(1.0, 3.0, (120, 1)) * body.bounding_radius * _unit(rng.normal(size=(120, n)))
        x = x[body.value(x) > 0][:100]  # a clamped Kiselman body reaches past its bounding radius
        assert len(x) == 100
        if vertex is not None and pose is None:
            x = np.vstack([x, [-1.2431102837354793, 1.031428388680494, 0.28930022916850534]])
        for xi in x:
            k = int(np.argmin(np.vecdot(world - xi, world - xi)))
            d_sample = float(np.linalg.norm(xi - world[k]))
            y = pj.project_point(body, xi)
            assert abs(body.value_at(y)) <= TOL_BOUNDARY * max(1.0, body.bounding_radius)
            assert d_sample - res[k] <= float(np.linalg.norm(xi - y)) <= d_sample + 1e-12
        if vertex is not None and pose is None:  # y is the last point's, the seed-7 one
            assert 1.7e-3 < np.linalg.norm(y - vertex) < 1.8e-3


# ---------------------------------------------------------------------------
# ray hitting


def test_first_hit_coaxial():
    om, _ = coaxial_pair()
    t = pj.first_hitting_time(om, np.zeros(3), [0.0, 0.0, 1.0])
    assert t == pytest.approx(2.0, abs=1e-10)


def test_first_hit_miss_returns_none():
    om, _ = coaxial_pair()
    assert pj.first_hitting_time(om, np.zeros(3), [0.0, 0.0, -1.0]) is None


def test_first_hit_matches_quadratic_formula(rng):
    om, _ = coaxial_pair()
    A, c = oracles.quadric_of_ellipsoid([1.0, 1.0, 1.0], None, [0.0, 0.0, 3.0])
    hits = 0
    while hits < 50:
        y = rng.normal(size=3)
        y = 1.2 * y / np.linalg.norm(y)
        nu = np.array([0.0, 0.0, 3.0]) - y + 0.3 * rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        want = oracles.ray_quadric_first_hit(y, nu, A, c)
        got = pj.first_hitting_time(om, y, nu)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-10)
            hits += 1


def _counting_values(body):
    """The body with a value oracle that counts its calls."""
    calls = {"n": 0}

    def value(x):
        calls["n"] += 1
        return body.value(x)

    return replace(body, value=value), calls


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_hit_posed_ellipsoid_matches_quadratic(n):
    rng = np.random.default_rng(100 + n)
    semiaxes = rng.uniform(0.6, 1.8, size=n)
    R = oracles.random_rotation(rng, n)
    c = rng.normal(size=n)
    A, _ = oracles.quadric_of_ellipsoid(semiaxes, R, c)
    body, calls = _counting_values(bodies.ellipsoid(semiaxes, Pose(R, c)))
    hits = misses = 0
    for i in range(40):
        u = rng.normal(size=n)
        y = c + 3.0 * u / np.linalg.norm(u)
        nu = c - y + (0.3 if i % 2 else 2.0) * rng.normal(size=n)
        nu /= np.linalg.norm(nu)
        want = oracles.ray_quadric_first_hit(y, nu, A, c)
        calls["n"] = 0
        got = pj.first_hitting_time(body, y, nu)
        assert calls["n"] <= 16
        if want is None:
            assert got is None
            misses += 1
        else:
            assert got == pytest.approx(want, abs=1e-10)
            hits += 1
    assert hits >= 5 and misses >= 5


def test_first_hit_exact_tangency():
    # the ray x = (1, 0, -3 + t) touches the unit sphere at t = 3, a double root
    ball, calls = _counting_values(bodies.translated_ball([0.0, 0.0, 0.0], 1.0))
    t = pj.first_hitting_time(ball, [1.0, 0.0, -3.0], [0.0, 0.0, 1.0])
    assert t == pytest.approx(3.0, abs=1e-6)
    assert calls["n"] <= 64
    assert pj.first_hitting_time(ball, [1.0 + 1e-6, 0.0, -3.0], [0.0, 0.0, 1.0]) is None
    t_in = pj.first_hitting_time(ball, [1.0 - 1e-6, 0.0, -3.0], [0.0, 0.0, 1.0])
    assert t_in == pytest.approx(3.0 - math.sqrt(2e-6 - 1e-12), abs=1e-9)


def test_first_hit_parameter_errors():
    om, _ = coaxial_pair()
    with pytest.raises(ParameterError, match="zero ray direction"):
        pj.first_hitting_time(om, np.zeros(3), np.zeros(3))
    with pytest.raises(ParameterError, match="inside"):
        pj.first_hitting_time(om, [0.0, 0.0, 3.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("quadric", [True, False], ids=["closed_form", "newton"])
def test_ray_queries_refuse_non_finite_rows(quadric):
    # a NaN or infinite origin or direction is refused on either ray path, a
    # stack for its first bad row, and so is a NaN target point
    om = bodies.translated_ball([0.0, 0.0, 3.0], 1.0)
    om = om if quadric else replace(om, quadric=None)
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    top, nan = np.array([0.0, 0.0, 1.0]), math.nan
    not_finite = "ray origin or direction is not finite"
    for bad in (nan, math.inf, -math.inf):
        for y, nu in [([bad, 0.0, 0.0], top), (np.zeros(3), [bad, 0.0, 1.0]),
                      (np.array([np.zeros(3), [bad, 0.0, 0.0]]), top),
                      (np.zeros((2, 3)), np.stack([top, [0.0, bad, 1.0]]))]:
            with pytest.raises(ParameterError, match=not_finite):
                pj.first_hitting_time(om, y, nu)
    rows, dirs = np.array([[nan, 0.0, 0.0], np.zeros(3)]), np.stack([top, np.zeros(3)])
    with pytest.raises(ParameterError, match=not_finite):
        pj.first_hitting_time(om, rows, dirs)
    with pytest.raises(ParameterError, match="zero ray direction"):
        pj.first_hitting_time(om, rows[::-1], dirs[::-1])
    with pytest.raises(ParameterError, match="inside"):
        pj.first_hitting_time(om, np.array([om.center, [nan, 0.0, 0.0]]), top)
    for y in ([nan, 0.0, 1.0], np.stack([top, [nan, 0.0, 1.0]])):
        with pytest.raises(ParameterError, match="y is not finite"):
            pj.in_projection_shadow(om, lam, y)


@pytest.mark.parametrize("quadric", [True, False], ids=["closed_form", "newton"])
def test_in_projection_shadow_refuses_an_infinite_y_before_the_oracle(quadric):
    # the target's value oracle never sees the infinite row, so numpy has
    # nothing to warn about before the ParameterError
    om = bodies.translated_ball([0.0, 0.0, 3.0], 1.0)
    om = om if quadric else replace(om, quadric=None)
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    for y in ([math.inf, 0.0, 1.0], [0.0, -math.inf, 1.0], np.array([[0.0, 0.0, 1.0], [math.inf, 0.0, 1.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="y is not finite"):
                pj.in_projection_shadow(om, lam, y)


@pytest.mark.parametrize(
    "body",
    [bodies.cone_over_circle(), bodies.cantor_contact(1e-3, 4)],
    ids=["cone_over_circle", "cantor_contact"],
)
def test_first_hit_brackets_the_crossing_on_kinked_bodies(body):
    # G is only piecewise smooth here: the Newton iterates must still stop on
    # the first crossing, not before or after it
    rng = np.random.default_rng(7)
    h = 1e-12 * body.bounding_radius
    for _ in range(30):
        u = rng.normal(size=body.dim)
        y = body.center + 2.0 * body.bounding_radius * u / np.linalg.norm(u)
        nu = (body.center - y) / np.linalg.norm(body.center - y)
        t = pj.first_hitting_time(body, y, nu)
        assert t is not None
        assert body.value_at(y + (t - h) * nu) > 0
        assert body.value_at(y + (t + h) * nu) <= 0


# ---------------------------------------------------------------------------
# shadow membership


def test_in_projection_shadow_trivials():
    om, lam = coaxial_pair()
    assert pj.in_projection_shadow(om, lam, [0.0, 0.0, 1.0])
    assert not pj.in_projection_shadow(om, lam, [0.0, 0.0, -1.0])
    with pytest.raises(DomainError):
        pj.in_projection_shadow(om, lam, [0.0, 0.0, 0.5])


def test_membership_flip_at_tangency_angle():
    om, lam = coaxial_pair()
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)

    def member(theta):
        y = np.array([math.sin(theta), 0.0, math.cos(theta)])
        return pj.in_projection_shadow(om, lam, y)

    lo, hi = 0.0, math.pi / 2
    assert member(lo) and not member(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - theta_star) < 1e-6


_MEMBERSHIP_OMEGAS = {
    "ball": lambda rng: bodies.translated_ball([0.4, -0.2, 3.0], 1.0),
    "posed_ellipsoid": lambda rng: bodies.ellipsoid(
        rng.uniform(0.5, 0.9, size=3), Pose(oracles.random_rotation(rng), [0.3, 0.5, 3.6])
    ),
    "eccentric_ellipsoid": lambda rng: bodies.ellipsoid(
        [1.0, 0.1, 0.003], Pose(np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]]), [0.5, 0.3, 3.6])
    ),
}


@pytest.mark.parametrize("make", list(_MEMBERSHIP_OMEGAS.values()), ids=list(_MEMBERSHIP_OMEGAS))
def test_membership_on_a_quadric_is_the_ray_hit(make):
    # a quadric omega decides membership by the signs of a1 and D, without
    # the ray's root; it agrees with the ray hit wherever |D| is above the
    # rounding of a1^2 - a2 a0, on stacks and on single points
    rng = np.random.default_rng(29)
    om = make(rng)
    lam = bodies.ellipsoid([1.2, 1.0, 0.9], Pose(oracles.random_rotation(rng), np.zeros(3)))
    Y = bodies.boundary_point_along(lam, _unit(om.center) + 0.15 * rng.normal(size=(600, 3)))
    nu = lam.unit_normal(Y)
    a2, a1, a0 = bodies._line_quadric(om.quadric, Y, nu)
    Y, nu = (v[np.abs(a1 * a1 - a2 * a0) > 1e-9 * (a1 * a1 + np.abs(a2 * a0))] for v in (Y, nu))
    want = ~np.isnan(pj.first_hitting_time(om, Y, nu))
    assert 20 <= want.sum() <= len(Y) - 20
    assert np.array_equal(pj.in_projection_shadow(om, lam, Y), want)
    assert [pj.in_projection_shadow(om, lam, y) for y in Y[:80]] == want[:80].tolist()


@pytest.mark.parametrize("quadric", [True, False], ids=["sign_test", "ray"])
def test_membership_outcomes_are_the_same_on_either_path(quadric):
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    top = np.array([0.0, 0.0, 1.0])

    def omega(center, radius):
        om = bodies.translated_ball(center, radius)
        return om if quadric else replace(om, quadric=None)

    # y on omega, the normal pointing away from it: the ray starts on omega
    touching = omega([0.0, 0.0, 0.5], 0.5)
    assert pj.in_projection_shadow(touching, lam, top) is True
    assert pj.in_projection_shadow(touching, lam, np.stack([top, -top])).tolist() == [True, False]
    with pytest.raises(ParameterError, match="inside"):
        pj.in_projection_shadow(omega([0.0, 0.0, 1.5], 1.0), lam, np.stack([-top, top]))
    om = omega([0.0, 0.0, 3.0], 1.0)
    with pytest.raises(DomainError):
        pj.in_projection_shadow(om, lam, [0.0, 0.0, 0.5])
    with pytest.raises(ParameterError, match="different dimensions"):
        pj.in_projection_shadow(om, bodies.ellipsoid([1.0, 0.8]), [1.0, 0.0])
    flat = replace(lam, gradient=lambda p: np.zeros_like(np.asarray(p, float)))
    with pytest.raises(DegeneratePointError):
        pj.in_projection_shadow(om, flat, top)


# ---------------------------------------------------------------------------
# boundary solving


def test_solve_lands_on_tangency_circle():
    om, lam = coaxial_pair()
    seed = pj.seed_boundary(om, lam)
    pt = pj.solve_boundary_point(om, lam, seed)
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    ang = math.acos(pt.y[2] / np.linalg.norm(pt.y))
    assert abs(ang - theta_star) < 1e-8
    assert abs(np.linalg.norm(pt.y) - 1.0) < 1e-10
    assert pt.t > 0


def test_solve_fixed_point_costs_no_iterations():
    om, lam = coaxial_pair()
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    again = pj.solve_boundary_point(om, lam, pt.state)
    assert again.iterations <= 1
    assert np.allclose(again.state, pt.state, atol=1e-9)


def test_solve_certifies_orthogonality_and_colinearity():
    om = bodies.ellipsoid([1.0, 0.8, 0.6], Pose(np.eye(3), np.array([0.0, 0.0, 3.0])))
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    gG = om.gradient_at(pt.x)
    gF = lam.gradient_at(pt.y)
    assert abs(np.dot(gG, gF)) <= 1e-10
    assert np.abs(pt.y + pt.t * gF - pt.x).max() <= 1e-10
    assert pt.residual <= 1e-10


def test_solve_refuses_a_nonpositive_hitting_scale():
    # the grazing point behind the target, y = (sin, 0, -cos) theta* with
    # sin theta* = 1/3: Phi vanishes there with the ray run backwards,
    # x = (1 + 2t) y on omega at t = -1.91
    om, lam = coaxial_pair()
    y = np.array([1.0 / 3.0, 0.0, -math.sqrt(8.0) / 3.0])
    t = -(2.0 * math.sqrt(2.0) + 1.0) / 2.0
    x = (1.0 + 2.0 * t) * y
    assert np.abs(pj.boundary_map(om, lam, np.concatenate([x, y, [t]]))).max() <= pj.TOL_ROOT
    with pytest.raises(NoConvergenceError, match="nonpositive hitting scale t = -1.91"):
        pj.solve_boundary_point(om, lam, (x, y, t))


def test_seed_boundary_coaxial_accuracy():
    om, lam = coaxial_pair()
    x0, y0, t0 = pj.seed_boundary(om, lam)
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    ang = math.acos(np.clip(y0[2] / np.linalg.norm(y0), -1, 1))
    assert abs(ang - theta_star) < 1e-6
    assert t0 > 0


def test_seed_boundary_makes_few_value_calls():
    # the scan is one stacked pass and each arc round one more; the
    # one-ray-at-a-time scan and bisection made 2061 value calls here
    om, lam = coaxial_pair()
    om, om_calls = _counting_values(om)
    lam, lam_calls = _counting_values(lam)
    x0, y0, t0 = pj.seed_boundary(om, lam)
    assert om_calls["n"] + lam_calls["n"] <= 400
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    assert abs(math.acos(y0[2] / np.linalg.norm(y0)) - theta_star) < 1e-6


def test_tolerances_are_bounded_by_the_problem_scale():
    om, lam = coaxial_pair()
    seed = pj.seed_boundary(om, lam)
    start = pj.solve_boundary_point(om, lam, seed, tol=1e-9)
    for tol in (1e300, 0.5, 1e-3):
        with pytest.raises(ParameterError, match="tol"):
            pj.solve_boundary_point(om, lam, seed, tol=tol)
        with pytest.raises(ParameterError, match="tol"):
            pj.trace_boundary(om, lam, start, step=0.05, max_steps=5, tol=tol)
    assert len(pj.trace_boundary(om, lam, start, step=0.05, max_steps=5, tol=1e-9)) == 6


def test_seed_boundary_patch_miss_errors():
    om, lam = coaxial_pair()
    with pytest.raises(SeedError):
        pj.seed_boundary(om, lam, patch_center=[0.0, 0.0, -1.0], patch_angle=0.5)


def test_seed_boundary_on_a_patch_in_four_dimensions():
    # outside n = 3 a patch draws its directions around the patch center;
    # the seed lies on the patch and solves onto the coaxial tangency sphere
    lam = bodies.translated_ball(np.zeros(4), 1.0)
    om = bodies.translated_ball([0.0, 0.0, 0.0, 3.0], 1.0)
    c = _unit(np.array([0.0, 0.0, 0.3, 1.0]))
    x0, y0, t0 = pj.seed_boundary(om, lam, rng=7, patch_center=c, patch_angle=0.6)
    assert math.acos(min(1.0, float(_unit(y0) @ c))) <= 0.6
    pt = pj.solve_boundary_point(om, lam, (x0, y0, t0))
    assert pt.residual <= pj.TOL_ROOT
    assert pt.y[3] == pytest.approx(math.sqrt(8.0) / 3.0, abs=1e-9)


def test_seed_boundary_random_poses(rng):
    for _ in range(3):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        om = bodies.ellipsoid(
            rng.uniform(0.5, 1.0, 3), Pose(oracles.random_rotation(rng), 3.5 * d)
        )
        lam = bodies.ellipsoid(rng.uniform(0.8, 1.3, 3), Pose(oracles.random_rotation(rng), np.zeros(3)))
        seed = pj.seed_boundary(om, lam, rng=rng)
        pt = pj.solve_boundary_point(om, lam, seed)
        assert pt.residual <= 1e-10


def _quadric_seed_pair(case):
    """A quadric omega over a target lam, for the discriminant seed."""
    rng = np.random.default_rng(31)
    if case == "coaxial":
        return coaxial_pair()
    if case.startswith("balls"):
        om, lam, _ = _coaxial_pair_in(int(case[-1]), rng)
        return om, lam
    n = int(case[-1])
    d = _unit(rng.normal(size=n))
    om = bodies.ellipsoid(rng.uniform(0.5, 0.9, n), Pose(oracles.random_rotation(rng, n), 3.6 * d))
    return om, bodies.ellipsoid(rng.uniform(0.8, 1.3, n), Pose(oracles.random_rotation(rng, n), np.zeros(n)))


@pytest.mark.parametrize("case", ["coaxial", "balls2", "balls4", "posed2", "posed3", "posed4"])
def test_quadric_seed_is_already_solved(case, monkeypatch):
    # on the whole target, a quadric omega is seeded by the root of D on step
    # 0's arc from the point nearest omega's center, at angle 0: Phi holds
    # there to TOL_ROOT, and the start solve takes no Gauss-Newton step
    om, lam = _quadric_seed_pair(case)
    monkeypatch.setattr(pj, "_arc_flip", None)  # no k-section
    x0, y0, t0 = pj.seed_boundary(om, lam)
    assert np.abs(pj.boundary_map(om, lam, np.concatenate([x0, y0, [t0]]))).max() <= pj.TOL_ROOT
    assert pj.solve_boundary_point(om, lam, (x0, y0, t0)).iterations == 0


@pytest.mark.parametrize("case", ["patch", "non_quadric", "refused_arc", "raising_arc"])
def test_other_seeds_are_the_k_section(case, monkeypatch):
    # a patch, a non-quadric omega or an arc that refuses (None or an error)
    # leaves the seed to the k-section of the membership flip, unchanged
    om, lam = _quadric_seed_pair("posed3")
    kwargs = {"patch_center": _unit(om.center), "patch_angle": 0.8} if case == "patch" else {}
    if case == "non_quadric":
        om = replace(om, quadric=None)
    if case.endswith("_arc"):
        def refuse(*args):
            if case == "raising_arc":
                raise ChartError("refused")

        monkeypatch.setattr(pj, "_arc_crossings", refuse)
    else:
        monkeypatch.setattr(pj, "_arc_crossings", None)  # never reached
    found, flip = [], pj._arc_flip
    monkeypatch.setattr(pj, "_arc_flip", lambda *args: found.append(flip(*args)) or found[-1])
    x0, y0, t0 = pj.seed_boundary(om, lam, rng=5, **kwargs)
    [(hit, mid)] = found
    assert np.array_equal(x0, hit[3:]) and np.array_equal(y0, mid[:3])
    assert t0 == float(np.linalg.norm(x0 - y0)) / float(np.linalg.norm(lam.gradient_at(y0)))


# ---------------------------------------------------------------------------
# higher dimensions against closed forms


def _unit(v):
    """v over its norm, or each row of a stack over its own."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _coaxial_pair_in(n, rng):
    """Unit balls in R^n: omega at distance 3 along a random axis a, the
    target at the origin.  By rotational symmetry about a, the shadow
    boundary is the tangency angle of the 3-D coaxial pair."""
    a = _unit(rng.normal(size=n))
    return bodies.translated_ball(3.0 * a, 1.0), bodies.translated_ball(np.zeros(n), 1.0), a


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_project_point_and_closest_pair_on_balls(n):
    rng = np.random.default_rng(400 + n)
    c, r = rng.normal(size=n), 0.7
    ball = bodies.translated_ball(c, r)
    for _ in range(10):
        x = c + rng.uniform(1.2, 3.0) * r * _unit(rng.normal(size=n))
        assert np.abs(pj.project_point(ball, x) - (c + r * _unit(x - c))).max() <= 1e-10
    # the gap between two balls is d - r1 - r2, along the line of centers
    d = _unit(rng.normal(size=n))
    other = bodies.translated_ball(c + 2.5 * d, 0.9)
    x, z, dist = pj.closest_pair(other, ball)
    assert dist == pytest.approx(2.5 - 0.9 - r, abs=1e-10)
    assert np.abs(z - (c + r * d)).max() <= 1e-8
    assert np.abs(x - (c + (2.5 - 0.9) * d)).max() <= 1e-8


@pytest.mark.parametrize("n", [4, 5])
def test_membership_flips_at_tangency_angle(n):
    rng = np.random.default_rng(410 + n)
    om, lam, a = _coaxial_pair_in(n, rng)
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    for _ in range(5):
        w = _unit(rng.normal(size=n))
        w = _unit(w - np.dot(w, a) * a)
        at = lambda theta: math.sin(theta) * w + math.cos(theta) * a
        assert pj.in_projection_shadow(om, lam, at(theta_star - 1e-4))
        assert not pj.in_projection_shadow(om, lam, at(theta_star + 1e-4))


@pytest.mark.parametrize("n", [4, 5])
def test_seed_and_solve_land_on_tangency_angle(n):
    rng = np.random.default_rng(420 + n)
    om, lam, a = _coaxial_pair_in(n, rng)
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam, rng=rng))
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    assert abs(math.acos(np.dot(_unit(pt.y), a)) - theta_star) <= 1e-10
    assert abs(np.linalg.norm(pt.y) - 1.0) <= 1e-10


def test_bodies_of_different_dimensions_are_refused():
    # every entry point that takes both bodies refuses the pair before an
    # oracle sees a point of the wrong length
    om3, lam3 = coaxial_pair()
    lam2 = bodies.ellipsoid([1.0, 0.8])
    start = pj.solve_boundary_point(om3, lam3, pj.seed_boundary(om3, lam3))
    calls = [
        lambda om, lam: pj.closest_pair(om, lam),
        lambda om, lam: pj.assert_disjoint(om, lam),
        lambda om, lam: pj.seed_boundary(om, lam),
        lambda om, lam: pj.solve_boundary_point(om, lam, start.state),
        lambda om, lam: pj.trace_boundary(om, lam, start, step=0.02, max_steps=10),
        lambda om, lam: pj.in_projection_shadow(om, lam, np.array([1.0, 0.0])),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="different dimensions"):
            call(om3, lam2)
    for call in calls[:4]:
        with pytest.raises(ParameterError, match="different dimensions"):
            call(lam2, om3)


# ---------------------------------------------------------------------------
# tracing


def test_trace_closes_on_analytic_circle():
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=2000)
    assert trace.closed
    theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
    Y = trace.y_points()
    # distance from each traced point to the analytic tangency circle
    rho = math.sin(theta_star)
    d_circle = np.hypot(np.hypot(Y[:, 0], Y[:, 1]) - rho, Y[:, 2] - math.cos(theta_star))
    assert d_circle.max() < 1e-6
    # the trace wraps the whole circle: every circle point has a nearby sample
    angles = np.sort(np.arctan2(Y[:, 1], Y[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert gaps.max() * rho < 3 * trace.step


def test_trace_builds_one_jacobian_per_accepted_point(monkeypatch):
    # on the sequential path (omega without its quadric) the chord corrector
    # steps with the pseudo-inverse of the last accepted point's SVD: one
    # Jacobian per accepted point, one for the start, and none for corrector
    # steps, the health check or the tangent (a closed trace makes no
    # minimal-step failure classification)
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    calls = []
    build = pj.boundary_jacobian

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(pj, "boundary_jacobian", counted)
    trace = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=2000)
    assert trace.closed
    assert len(calls) == len(trace.points)


def test_trace_points_solve_the_defining_map():
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    for tol in (1e-10, 1e-12):
        trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=2000, tol=tol)
        assert trace.closed
        for p in trace.points[1:]:
            res = float(np.abs(pj.boundary_map(om, lam, p.state)).max())
            assert res == p.residual and res <= tol
        # on the closed-form tangency circle
        theta_star = oracles.coaxial_tangency_angle(3.0, 1.0, 1.0)
        Y = trace.y_points()
        d_circle = np.hypot(np.hypot(Y[:, 0], Y[:, 1]) - math.sin(theta_star), Y[:, 2] - math.cos(theta_star))
        assert d_circle.max() < 1e-9


def test_trace_rejects_a_step_beyond_the_target():
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    for step in (4.0 * lam.bounding_radius, 1e300):
        with pytest.raises(ParameterError, match="step"):
            pj.trace_boundary(om, lam, start, step=step, max_steps=10)


def _posed_ellipsoid_pair(seed):
    """Posed ellipsoids, the target lam at the origin and omega 3.4-4.2 away,
    omega's quadric (A, c) and a solved start point on the shadow boundary."""
    rng = np.random.default_rng(seed)
    lam_axes, om_axes = rng.uniform(0.8, 1.3, size=3), rng.uniform(0.5, 0.9, size=3)
    lam_rot, om_rot = oracles.random_rotation(rng), oracles.random_rotation(rng)
    d = rng.normal(size=3)
    om_center = rng.uniform(3.4, 4.2) * d / np.linalg.norm(d)
    lam = bodies.ellipsoid(lam_axes, Pose(lam_rot, np.zeros(3)))
    om = bodies.ellipsoid(om_axes, Pose(om_rot, om_center))
    A, c = oracles.quadric_of_ellipsoid(om_axes, om_rot, om_center)
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam, rng=rng))
    return om, lam, A, c, start


def _assert_ray_quadric_tangencies(trace, om, lam, A, c, tol):
    """Every traced point solves Phi to tol, and the outward normal line of
    the target at its y grazes omega, on omega's side."""
    for p in trace.points:
        assert float(np.abs(pj.boundary_map(om, lam, p.state)).max()) <= tol
        depth, s = oracles.ray_quadric_tangency(p.y, lam.unit_normal(p.y), A, c)
        assert abs(depth) <= 10.0 * tol and s > 0


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_traced_points_are_ray_quadric_tangencies(seed):
    # the sequential trace (omega without its quadric): the predictor's
    # curvature term lands close enough to the curve that the points take
    # fewer chord steps than from the tangent step alone (3.0-3.6)
    om, lam, A, c, start = _posed_ellipsoid_pair(seed)
    trace = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000)
    assert trace.closed and len(trace) == {5: 185, 6: 248, 7: 216, 8: 255}[seed]
    assert np.mean([p.iterations for p in trace.points[1:]]) <= 2.9
    _assert_ray_quadric_tangencies(trace, om, lam, A, c, pj.TOL_ROOT)


def test_trace_halves_its_step_and_grows_it_back():
    # on the sequential path, at step 0.3 the chord corrector fails to contract on a full step and
    # the step halves; at tol 1e-6 the halved steps need <= 3 chord steps, so
    # after three of them the step doubles back.  The corrector moves
    # orthogonally to the predictor's tangent, and the predictor's curvature
    # term is O(h^2), so each state spacing |z_k+1 - z_k| reads just over the
    # step h it was taken with.
    om, lam, A, c, start = _posed_ellipsoid_pair(8)
    trace = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.3, max_steps=400, tol=1e-6)
    assert trace.closed
    Z = np.array([p.state for p in trace.points])
    h = np.linalg.norm(np.diff(Z, axis=0), axis=1) / 0.3
    assert ((h > 0.49) & (h < 0.55) | (h > 0.99) & (h < 1.1)).all()
    halved = np.flatnonzero(h < 0.6)
    assert halved.size and (h[halved[0] :] > 0.9).any()
    _assert_ray_quadric_tangencies(trace, om, lam, A, c, 1e-6)


def test_trace_at_a_loose_tolerance_keeps_its_converged_points():
    # on the sequential path at step 0.2 and tol 1e-6 every chord corrector
    # contracts: a point whose residual is within tol is accepted, and the
    # step never halves
    om, lam, A, c, start = _posed_ellipsoid_pair(8)
    trace = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.2, max_steps=400, tol=1e-6)
    assert trace.closed
    Z = np.array([p.state for p in trace.points])
    h = np.linalg.norm(np.diff(Z, axis=0), axis=1) / 0.2
    assert ((h > 0.99) & (h < 1.1)).all()


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_stacked_trace_points_are_ray_quadric_tangencies(seed):
    # a quadric omega takes step 0: every point solved at once on the arcs
    # from the target point nearest omega's center, certified, closed, and
    # as well conditioned as the sequential trace of the same curve
    om, lam, A, c, start = _posed_ellipsoid_pair(seed)
    trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    assert trace.closed and trace.diagnostics == ""
    _assert_same_point(trace.points[0], start)
    _assert_ray_quadric_tangencies(trace, om, lam, A, c, pj.TOL_ROOT)
    Y = trace.y_points()
    assert np.linalg.norm(Y[-1] - Y[0]) < 0.5 * trace.step
    assert np.linalg.norm(np.diff(Y, axis=0), axis=1).max() <= 3.0 * trace.step
    assert all(p.t > 0 for p in trace.points)
    sequential = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000)
    ratio = lambda tr: min(p.sigma_min / p.sigma_max for p in tr.points)
    assert ratio(trace) == pytest.approx(ratio(sequential), rel=1e-3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_boundary_map_and_jacobian_rows_are_the_point_calls(n, rng):
    # on oracles whose rows are their point calls bit for bit (an off-center
    # ball and an axis-aligned ellipsoid), so are the rows of a stack
    om = bodies.translated_ball(np.full(n, 3.0), 0.7)
    lam = bodies.ellipsoid(np.linspace(1.3, 0.8, n))
    Z = rng.normal(size=(50, 2 * n + 1))
    Phi, J = pj.boundary_map(om, lam, Z), pj.boundary_jacobian(om, lam, Z)
    assert Phi.shape == (50, n + 3) and J.shape == (50, n + 3, 2 * n + 1)
    for z, phi, jac in zip(Z, Phi, J):
        assert np.array_equal(pj.boundary_map(om, lam, z), phi)
        assert np.array_equal(pj.boundary_jacobian(om, lam, z), jac)


def test_refused_stacked_trace_is_the_sequential_trace():
    # a max_steps below the stacked point count refuses the proposal, and
    # the sequential trace runs unchanged
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    limit = len(pj.trace_boundary(om, lam, start, step=0.02, max_steps=2000)) // 2
    got = pj.trace_boundary(om, lam, start, step=0.02, max_steps=limit)
    assert len(got) == limit + 1 and not got.closed
    _assert_same_trace(got, pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=limit))


def test_arcs_that_cross_twice_send_the_trace_to_the_sequential_path():
    # a thin disk below a ball near its rim: the normal lines of the top face
    # and those of the rim both reach the ball, so arcs from the point
    # nearest its center run shadowed, lit and shadowed again on the radial
    # grid, and step 0 refuses
    lam = bodies.ellipsoid([2.0, 2.0, 0.2])
    om = bodies.translated_ball([1.9, 0.0, 0.5], 0.3)
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    assert pj._stacked_trace(om, lam, start, 0.02, 4000, pj.TOL_ROOT) is None
    got = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    assert got.closed
    _assert_same_trace(got, pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000))


def test_sequential_trace_closes_only_after_leaving_the_start():
    # here the contact x moves much faster than the shadow point y, so y
    # stays within step/2 of the start for more than 10 steps; the
    # sequential trace must still go round the curve that step 0 solves
    lam = bodies.ellipsoid([0.37, 0.66, 0.91])
    om = bodies.ellipsoid(
        [0.15, 0.11, 1.08], Pose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), [1.08, 2.5, 3.24])
    )
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam, rng=0))
    stacked = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    sequential = pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000)
    assert stacked.closed and sequential.closed and len(sequential) > 200
    assert sequential.arc_length == pytest.approx(stacked.arc_length, rel=1e-2)


def test_stacked_trace_bounds_its_state_moves(monkeypatch):
    # the pair above, with step 0's arcs based at the closest pair: the fine
    # arcs are spaced by the coarse polyline, which misses state length
    # concentrated between two coarse arcs, so its points jump by up to 8.3
    # steps in (x, y, t) while y moves by at most 0.96 step.  The state moves
    # are bounded by 3 steps, as the sequential corrector bounds them: step 0
    # refuses, and the trace is the sequential one
    lam = bodies.ellipsoid([0.37, 0.66, 0.91])
    om = bodies.ellipsoid(
        [0.15, 0.11, 1.08], Pose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), [1.08, 2.5, 3.24])
    )
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam, rng=0))
    _, z, _ = pj.closest_pair(om, lam)
    project = pj.project_point
    base_at_z = lambda body, x: z.copy() if body is lam and np.array_equal(x, om.center) else project(body, x)
    monkeypatch.setattr(pj, "project_point", base_at_z)
    assert pj._stacked_trace(om, lam, start, 0.02, 4000, pj.TOL_ROOT) is None
    got = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    assert got.closed
    _assert_same_trace(got, pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000))


def _assert_same_trace(got, want):
    assert (got.closed, got.arc_length, got.diagnostics) == (want.closed, want.arc_length, want.diagnostics)
    assert len(got) == len(want)
    for p, q in zip(got.points, want.points):
        _assert_same_point(p, q)


def _assert_same_point(p, q):
    assert np.array_equal(p.state, q.state) and np.array_equal(p.tangent, q.tangent)
    assert (p.residual, p.sigma_min, p.sigma_max, p.iterations) == (q.residual, q.sigma_min, q.sigma_max, q.iterations)


def test_stacked_trace_builds_one_jacobian(monkeypatch):
    # one stacked Jacobian and one stacked SVD certify every point, and the
    # arcs are based at the target point nearest omega's center, with no
    # closest-pair search
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    calls = {"boundary_jacobian": 0, "closest_pair": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(pj, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(pj, name, counted)
    trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=2000)
    assert trace.closed and len(trace) > 300
    assert calls == {"boundary_jacobian": 1, "closest_pair": 0}


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_stacked_certification_matches_fresh_point_certificates(seed, tmp_path):
    # step 0 takes its singular values from one values-only SVD of the stack
    # and its null tangents from a complete QR of J^T: each point's sigmas
    # match a fresh SVD of its own Jacobian, each tangent is a unit null
    # vector, and the points built from the columns write the same files
    om, lam, A, c, start = _posed_ellipsoid_pair(seed)
    trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    assert trace.closed and trace.diagnostics == ""
    points = trace.points
    assert len(points) == len(trace) == len(trace.states)
    for k, p in enumerate(points):
        J = pj.boundary_jacobian(om, lam, p.state)
        sv = np.linalg.svd(J, compute_uv=False)
        assert p.sigma_min == pytest.approx(sv[-1], rel=1e-13) and p.sigma_max == pytest.approx(sv[0], rel=1e-13)
        assert abs(np.linalg.norm(p.tangent) - 1.0) <= 1e-14
        assert np.abs(J @ p.tangent).max() <= 1e-12 * p.sigma_max
        assert np.array_equal(p.state, trace.states[k])
    cols = zip(*[(p.state, p.residual, p.sigma_min, p.sigma_max, p.tangent, p.iterations) for p in points])
    rebuilt = pj.BoundaryTrace(*map(np.array, cols), trace.closed, trace.arc_length, trace.step)
    for tr, name in ((trace, "got"), (rebuilt, "rebuilt")):
        tr.to_csv(tmp_path / f"{name}.csv")
        tr.to_json(tmp_path / f"{name}.json", {"separation": 1.0})
    for ext in ("csv", "json"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"rebuilt.{ext}").read_bytes()


def _first_failure(call):
    """The exception a call raises and the warnings it emits before that."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except UmbraError as exc:
            return type(exc), str(exc), [str(w.message) for w in caught]
    raise AssertionError("the call raised nothing")


@pytest.mark.parametrize("t_row, drop_row", [(3, 7), (7, 3), (5, 5)])
def test_stacked_certification_raises_at_its_first_bad_row(t_row, drop_row, monkeypatch):
    # a state with t <= 0 and a Jacobian whose G row is zeroed (a rank drop)
    # in a step-0 stack: the stack raises what the states raise one at a
    # time in row order, each row's t error before its warning and rank
    # error
    om, lam, _, _, start = _posed_ellipsoid_pair(5)
    Z = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000).states[1:].copy()
    Z[t_row, 6] = -Z[t_row, 6]
    dropped, build = Z[drop_row, 0], pj.boundary_jacobian

    def dropping(om, lam, z):
        J = build(om, lam, z)
        J.reshape(-1, 6, 7)[z.reshape(-1, 7)[:, 0] == dropped, 0] = 0.0
        return J

    monkeypatch.setattr(pj, "boundary_jacobian", dropping)
    drop = "rank drop along the trace"
    got = _first_failure(lambda: pj._certified(om, lam, Z, drop))
    assert got == _first_failure(lambda: [pj._certified(om, lam, z, drop) for z in Z])
    if t_row <= drop_row:
        assert got[:2] == (NoConvergenceError, f"solve converged to nonpositive hitting scale t = {Z[t_row, 6]:.3g}")
        assert got[2] == []
    else:
        assert got[0] is RankDeficiencyError and got[1].startswith(drop)
        assert len(got[2]) == 1 and got[2][0].startswith("Jacobian nearly rank deficient")


def test_trace_stops_at_a_rank_drop_on_either_path(monkeypatch):
    # with the health threshold between the start's sigma ratio (0.0668) and
    # the least along the curve (0.0649), the start passes and both step 0
    # (its one stacked Jacobian) and the sequential trace raise at their
    # first point under it
    om, lam, _, _, start = _posed_ellipsoid_pair(5)
    ratio = lambda p: p.sigma_min / p.sigma_max
    least = min(ratio(p) for p in pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000).points)
    monkeypatch.setattr(pj, "SIGMA_TRACE_TOL", 0.5 * (ratio(start) + least))
    calls, build = [], pj.boundary_jacobian
    monkeypatch.setattr(pj, "boundary_jacobian", lambda *args: calls.append(1) or build(*args))
    drop = r"rank drop along the trace \(sigma_min/sigma_max = 0\.0657\)"
    with pytest.raises(RankDeficiencyError, match=drop):
        pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
    assert len(calls) == 1
    with pytest.raises(RankDeficiencyError, match=drop):
        pj.trace_boundary(replace(om, quadric=None), lam, start, step=0.02, max_steps=4000)


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_traced_points_satisfy_the_hitting_parameter_bound(seed):
    # the rows y + t grad F - x of Phi bound the hitting parameter:
    # |t - |x - y| / |grad F|| <= sqrt(n) residual / |grad F|
    om, lam, A, c, start = _posed_ellipsoid_pair(seed)
    trace = pj.trace_boundary(om, lam, start, step=0.2, max_steps=400, tol=1e-6)
    for p in trace.points:
        g = float(np.linalg.norm(lam.gradient_at(p.y)))
        assert p.t > 0 and abs(p.t - np.linalg.norm(p.x - p.y) / g) <= math.sqrt(3) * p.residual / g


def test_trace_zero_steps():
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=0)
    assert len(trace) == 1 and not trace.closed


def test_trace_straddle_consistency(rng):
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    trace = pj.trace_boundary(om, lam, start, step=0.05, max_steps=400)
    Y = trace.y_points()
    for i in rng.integers(1, len(Y) - 1, size=12):
        y = Y[i]
        tangent = Y[i + 1] - Y[i - 1]
        n_lam = lam.unit_normal(y)
        w = np.cross(tangent, n_lam)
        w /= np.linalg.norm(w)
        delta = 0.03
        results = []
        for s in (+1.0, -1.0):
            y_off = bodies.boundary_point_along(lam, y + s * delta * w - lam.center)
            results.append(pj.in_projection_shadow(om, lam, y_off))
        assert results[0] != results[1]


def _creased_ball():
    # C^{1,1} but not C^2: the gradient is Lipschitz, the curvature jumps
    # across the plane x_1 = 0; the oracles take a point or a stack
    def crease_val(p):
        return np.vecdot(p, p) - 1.0 + 0.1 * p[..., 0] * np.abs(p[..., 0])

    def crease_grad(p):
        g = 2.0 * p
        g[..., 0] += 0.2 * np.abs(p[..., 0])
        return g

    return bodies.ImplicitBody(
        dim=3,
        value=crease_val,
        gradient=crease_grad,
        hessian=None,
        bounding_radius=1.1,
        center=np.zeros(3),
        convexity=bodies.Convexity.uniformly_convex(1.8),
    )


def test_trace_c11_crease_converges_and_closes():
    lam = _creased_ball()
    om, _ = coaxial_pair()

    # boundary point of the shadow exactly on the crease plane: bisect the
    # membership flip along the boundary arc inside {x_1 = 0}
    def y_of(theta):
        return bodies.boundary_point_along(lam, [0.0, math.sin(theta), math.cos(theta)])

    lo, hi = 0.0, math.pi / 2
    assert pj.in_projection_shadow(om, lam, y_of(lo))
    assert not pj.in_projection_shadow(om, lam, y_of(hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pj.in_projection_shadow(om, lam, y_of(mid)):
            lo = mid
        else:
            hi = mid
    y0 = y_of(lo)
    t_hit = pj.first_hitting_time(om, y0, lam.unit_normal(y0))
    x0 = y0 + t_hit * lam.unit_normal(y0)
    t0 = float(np.linalg.norm(x0 - y0)) / np.linalg.norm(lam.gradient_at(y0))

    on_crease = pj.solve_boundary_point(om, lam, (x0, y0, t0))
    assert on_crease.residual <= 1e-10  # corrector converges at the crease
    assert abs(on_crease.y[0]) < 1e-5

    # a tiny continuation step lands inside the sliver where the
    # finite-difference Hessian stencil straddles the crease
    h = bodies.FD_HESSIAN_STEP * lam.bounding_radius
    mini = pj.trace_boundary(om, lam, on_crease, step=4e-6, max_steps=1)
    assert len(mini) == 2
    assert 0 < abs(mini.points[1].y[0]) < h

    # tracing across the crease still closes
    trace = pj.trace_boundary(om, lam, on_crease, step=0.05, max_steps=400)
    assert trace.closed
    assert max(p.residual for p in trace.points) <= 1e-10


# ---------------------------------------------------------------------------
# rank certification


def test_certify_rank_full_on_coaxial():
    om, lam = coaxial_pair()
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    rank, smin = pj.certify_rank(om, lam, pt)
    assert rank == 6
    assert smin > 1e-6
    # the solve's stored factorisation agrees with a fresh one
    J = pj.boundary_jacobian(om, lam, pt.state)
    sv = np.linalg.svd(J, compute_uv=False)
    assert pt.sigma_max == pytest.approx(sv[0], rel=1e-13)
    assert pt.sigma_min == pytest.approx(smin, rel=1e-13)
    assert np.linalg.norm(pt.tangent) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(J @ pt.tangent) <= 1e-12 * pt.sigma_max


def test_certify_rank_detects_flat_direction():
    om = quartic_flat_body()
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    x = np.array([0.0, 0.0, 2.0])
    y = np.array([0.0, 0.0, 1.0])
    state = np.concatenate([x, y, [0.5]])
    assert np.abs(pj.boundary_map(om, lam, state)).max() == 0.0
    with pytest.warns(RankDeficiencyWarning):
        pt = pj.solve_boundary_point(om, lam, (x, y, 0.5))
    rank, smin = pj.certify_rank(om, lam, pt)
    assert rank < 6
    assert smin < 1e-8
    # the flat direction is exactly the tangency ray: grad F^T D2G grad F = 0
    gF = lam.gradient_at(pt.y)
    assert abs(gF @ om.hessian_at(pt.x) @ gF) < 1e-12


def test_trace_refuses_a_rank_deficient_start():
    # the solved flat-direction point of test_certify_rank_detects_flat_direction
    om = quartic_flat_body()
    lam = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    with pytest.warns(RankDeficiencyWarning):
        pt = pj.solve_boundary_point(om, lam, (np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]), 0.5))
    with pytest.raises(RankDeficiencyError, match="start point is rank deficient"):
        pj.trace_boundary(om, lam, pt, step=0.02, max_steps=10)


def test_certify_rank_scale_invariance():
    om, lam = coaxial_pair()
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    om2 = bodies.translated_ball([0.0, 0.0, 6.0], 2.0)
    lam2 = bodies.translated_ball([0.0, 0.0, 0.0], 2.0)
    pt2 = pj.solve_boundary_point(om2, lam2, (2 * pt.x, 2 * pt.y, pt.t))
    rank, _ = pj.certify_rank(om, lam, pt)
    rank2, _ = pj.certify_rank(om2, lam2, pt2)
    assert rank == rank2 == 6


def test_trace_raises_rank_deficiency_near_flat_contact():
    om = bodies.kiselman(3, clamp_radius=0.45)
    lam = bodies.translated_ball([0.0, -3.0, 0.0], 1.0)
    seed = pj.seed_boundary(om, lam, patch_center=[0.0, 1.0, 0.0], patch_angle=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = pj.solve_boundary_point(om, lam, seed)
        with pytest.raises(RankDeficiencyError):
            pj.trace_boundary(om, lam, start, step=0.02, max_steps=3000)


# ---------------------------------------------------------------------------
# Jacobian correctness


def test_jacobian_matches_finite_differences(rng):
    om = bodies.ellipsoid([1.0, 0.8, 0.6], Pose(np.eye(3), np.array([0.0, 0.0, 3.0])))
    lam = bodies.ellipsoid([1.3, 1.0, 0.9])
    for _ in range(25):
        x = sample_boundary_points(om, rng, 1)[0]
        y = sample_boundary_points(lam, rng, 1)[0]
        t = rng.uniform(0.1, 2.0)
        z = np.concatenate([x, y, [t]])
        J = pj.boundary_jacobian(om, lam, z)
        J_fd = oracles.fd_jacobian(lambda w: pj.boundary_map(om, lam, w), z, 1e-6)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - J_fd).max() <= 1e-5 * scale


# ---------------------------------------------------------------------------
# disjointness and barriers


def test_assert_disjoint_coaxial_gap():
    om, lam = coaxial_pair()
    assert pj.assert_disjoint(om, lam) == pytest.approx(1.0, abs=1e-8)


def test_assert_disjoint_rejects_cantor_pair():
    pair = cantor_contact_pair(1e-4, 2)
    with pytest.raises(OverlapError):
        pj.assert_disjoint(pair.omega, pair.lam)


def overlapping_pair(n):
    """Two ellipsoids in R^n (n = 2, 3) that overlap: max(G_omega, G_lam) =
    -0.0103 at (0.1633, 0.6856, 0).  Alternating projections between their
    boundaries crawl toward a common boundary point and stall at a gap of
    6.8e-7 after 501 rounds."""
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.eye(n)
    rot[:2, :2] = [[c, -s], [s, c]]
    om = bodies.ellipsoid([1.0, 0.3, 1.0][:n], Pose(np.eye(n), [0.0, 0.98, 0.0][:n]))
    lam = bodies.ellipsoid([0.8, 0.6, 1.0][:n], Pose(rot, np.zeros(n)))
    return om, lam


@pytest.mark.parametrize("n", [2, 3])
def test_assert_disjoint_refuses_an_overlapping_pair(n):
    om, lam = overlapping_pair(n)
    p = np.array([0.1633, 0.6856, 0.0][:n])
    assert max(om.value_at(p), lam.value_at(p)) < -0.01
    with pytest.raises(OverlapError, match=r"bodies touch or overlap \(closest gap"):
        pj.assert_disjoint(om, lam)


def test_closest_pair_raises_when_its_rounds_end_unconverged(monkeypatch):
    # with the Newton finish refused, the alternating rounds on the
    # overlapping pair reach their cap still moving: no gap is returned
    monkeypatch.setattr(pj, "_kkt_pair", lambda *args: None)
    with pytest.raises(NoConvergenceError, match="last of 501 rounds"):
        pj.closest_pair(*overlapping_pair(3))


def _count_project_point(monkeypatch):
    """A list that gets one entry per ``project_point`` call."""
    project, calls = pj.project_point, []
    monkeypatch.setattr(pj, "project_point", lambda body, x: calls.append(1) or project(body, x))
    return calls


def _disjoint_quadric_pairs(n, rng, count):
    """Posed ellipsoid pairs in R^n with axes in [0.2, 1.3], centered
    between 0.8 and 1.3 times the sum of their longest axes apart, that the
    alternating search alone (the Newton finish refused) reports disjoint
    after meeting its move test; with that search's result."""
    out = []
    while len(out) < count:
        a1, a2 = rng.uniform(0.2, 1.3, n), rng.uniform(0.2, 1.3, n)
        center = _unit(rng.normal(size=n)) * (a1.max() + a2.max()) * rng.uniform(0.8, 1.3)
        om = bodies.ellipsoid(a1, Pose(oracles.random_rotation(rng, n), center))
        lam = bodies.ellipsoid(a2, Pose(oracles.random_rotation(rng, n), np.zeros(n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pj, "_kkt_pair", lambda *args: None)
            try:
                out.append((om, lam, pj.closest_pair(om, lam)))
            except (OverlapError, NoConvergenceError):
                pass
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closest_pair_newton_meets_the_kkt_conditions(n, monkeypatch):
    # checked from the oracles: both points on their boundaries, and x - z
    # anti-parallel to grad G(x) and parallel to grad F(z); the pair
    # matches the alternating search's, and takes the two rounds before
    # Newton only
    rng = np.random.default_rng(4400 + n)
    calls = _count_project_point(monkeypatch)
    for om, lam, (xa, za, da) in _disjoint_quadric_pairs(n, rng, 8):
        calls.clear()
        x, z, dist = pj.closest_pair(om, lam)
        assert len(calls) <= 4
        scale = max(1.0, om.bounding_radius, lam.bounding_radius)
        assert abs(om.value_at(x)) <= 1e-12 * scale and abs(lam.value_at(z)) <= 1e-12 * scale
        assert dist == float(np.linalg.norm(x - z)) > 1e-9 * scale
        assert np.abs(_unit(x - z) + _unit(om.gradient_at(x))).max() <= 1e-9
        assert np.abs(_unit(x - z) - _unit(lam.gradient_at(z))).max() <= 1e-9
        assert max(np.abs(x - xa).max(), np.abs(z - za).max(), abs(dist - da)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a, b, theta", [(0.5, 0.1, 0.5), (0.7, 0.1, 0.3), (0.7, 0.2, 0.3)])
def test_closest_pair_on_a_near_touching_pair_matches_the_closed_form(n, a, b, theta, monkeypatch):
    # omega (axes a, b, rotated by theta about e3) is placed 1e-3 out along
    # the normal of lam at z = (cos 1.1, sin(1.1) / 2, 0), at its own point x
    # with the opposite normal: both normals lie along x - z, so (x, z) is
    # the KKT pair and the gap is 1e-3.  In R^2 the alternating rounds
    # still move by up to 1.5e-5 after 501 rounds, and Newton takes 10 steps
    c, s = math.cos(theta), math.sin(theta)
    rot = np.eye(n)
    rot[:2, :2] = [[c, -s], [s, c]]
    lam = bodies.ellipsoid([1.0, 0.5, 0.8][:n])
    z = np.array([math.cos(1.1), 0.5 * math.sin(1.1), 0.0][:n])
    nrm = _unit(lam.gradient_at(z))
    m = -rot.T @ nrm
    axes = np.array([a, b, 0.4][:n])
    x = z + 1e-3 * nrm
    om = bodies.ellipsoid(axes, Pose(rot, x - rot @ (axes**2 * m / math.sqrt(np.dot(axes**2, m * m)))))
    calls = _count_project_point(monkeypatch)
    got_x, got_z, dist = pj.closest_pair(om, lam)
    assert len(calls) <= 4
    assert np.abs(got_x - x).max() <= 1e-12 and np.abs(got_z - z).max() <= 1e-12
    assert dist == pytest.approx(1e-3, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kkt_pair_refuses_a_stationary_pair_with_a_multiplier_below_zero(n):
    # two unit balls 3 apart along e: the far pair (4e, -e) and the mixed
    # pair (2e, -e) solve the KKT system with mu or nu < 0, and only the
    # nearest pair (2e, e) is a minimum
    e = np.eye(n)[0]
    om, lam = bodies.translated_ball(3.0 * e, 1.0), bodies.translated_ball(np.zeros(n), 1.0)
    assert pj._kkt_pair(om, lam, 4.0 * e, -e, 1.0) is None
    assert pj._kkt_pair(om, lam, 2.0 * e, -e, 1.0) is None
    x, z = pj._kkt_pair(om, lam, 2.0 * e, e, 1.0)
    assert np.array_equal(x, 2.0 * e) and np.array_equal(z, e)


@pytest.mark.parametrize("n", [2, 3])
def test_kkt_pair_returns_a_common_boundary_point(n):
    # unit balls 1 apart share the boundary point p = (1/2, sqrt(3)/2, 0):
    # there x = z and mu = nu = 0, a KKT point whose gap, not its
    # multipliers, is the verdict (the bodies overlap).  The polishing step
    # may move the point by an ulp (in R^2 it takes G and F from -1.1e-16
    # to 0), never to a larger residual
    e = np.eye(n)[0]
    om, lam = bodies.translated_ball(e, 1.0), bodies.translated_ball(np.zeros(n), 1.0)
    p = np.array([0.5, math.sqrt(0.75), 0.0][:n])
    x, z = pj._kkt_pair(om, lam, p, p, 1.0)
    assert np.array_equal(x, z) and np.abs(x - p).max() <= 2e-16
    assert max(abs(om.value_at(x)), abs(lam.value_at(z))) <= abs(om.value_at(p)) == abs(lam.value_at(p))


def _kkt_polished(om, lam, x, z, steps):
    """The pair (x, z) after ``steps`` plain Newton steps on the KKT system
    of the nearest pair, the multipliers first fitted to x - z by least
    squares."""
    n, eye = len(x), np.eye(len(x))
    gG, gF = om.gradient_at(x), lam.gradient_at(z)
    mu, nu = -np.dot(x - z, gG) / np.dot(gG, gG), np.dot(x - z, gF) / np.dot(gF, gF)
    for _ in range(steps):
        gG, gF = om.gradient_at(x), lam.gradient_at(z)
        r = np.concatenate([[om.value_at(x), lam.value_at(z)], x - z + mu * gG, z - x + nu * gF])
        J = np.zeros((2 * n + 2, 2 * n + 2))
        J[0, :n], J[1, n : 2 * n] = gG, gF
        J[2 : n + 2, :n], J[2 : n + 2, n : 2 * n], J[2 : n + 2, 2 * n] = eye + mu * om.hessian_at(x), -eye, gG
        J[n + 2 :, :n], J[n + 2 :, n : 2 * n], J[n + 2 :, 2 * n + 1] = -eye, eye + nu * lam.hessian_at(z), gF
        s = np.linalg.solve(J, -r)
        x, z, mu, nu = x + s[:n], z + s[n : 2 * n], mu + s[2 * n], nu + s[2 * n + 1]
    return x, z


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closest_pair_gap_is_polished_to_rounding(n):
    # the iterate that meets the 1e-12 scale test takes one more Newton
    # step, so the gap matches the pair three further steps polish (without
    # that step it sat up to 1.2e-13 scale away)
    rng = np.random.default_rng(4500 + n)
    for om, lam, _ in _disjoint_quadric_pairs(n, rng, 12):
        x, z, dist = pj.closest_pair(om, lam)
        xp, zp = _kkt_polished(om, lam, x, z, 3)
        scale = max(1.0, om.bounding_radius, lam.bounding_radius)
        assert abs(dist - float(np.linalg.norm(xp - zp))) <= 1e-15 * scale


def test_closest_pair_on_a_kinked_body_keeps_the_alternating_rounds(monkeypatch):
    # the clamped Kiselman strip carries no quadric: the search never
    # enters Newton, and its pair is the alternating rounds', bit for bit
    om, lam = bodies.kiselman(3, clamp_radius=0.45), bodies.translated_ball([0.0, -3.0, 0.0], 1.0)
    x = z = om.center
    for _ in range(501):
        z_new = pj.project_point(lam, x)
        x_new = pj.project_point(om, z_new)
        move = max(float(np.linalg.norm(x_new - x)), float(np.linalg.norm(z_new - z)))
        x, z = x_new, z_new
        if move < 1e-12 * max(1.0, om.bounding_radius, lam.bounding_radius):
            break

    def refuse(*args):
        raise AssertionError("Newton entered on a body without a quadric")

    monkeypatch.setattr(pj, "_kkt_pair", refuse, raising=False)
    got_x, got_z, dist = pj.closest_pair(om, lam)
    assert np.array_equal(got_x, x) and np.array_equal(got_z, z)
    assert dist == float(np.linalg.norm(x - z))


def test_hitting_time_bound_coaxial():
    om, lam = coaxial_pair()
    # distance 1 plus twice the larger diameter bound
    t_star = pj.hitting_time_bound(om, lam)
    assert t_star == pytest.approx(1.0 + 2.0 * 2.0, abs=1e-6)


def test_barrier_flat_chart():
    flat = bodies.ConcaveChart(
        dim_domain=2,
        phi=lambda z: np.zeros(np.shape(z)[:-1]),
        grad_phi=lambda z: np.zeros(np.shape(z)),
        hess_phi=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2)),
        domain_radius=1.0,
    )
    z = np.array([0.3, -0.4])
    bc = pj.barrier_chart(flat, 1.0)
    assert bc.value(z) == pytest.approx(-0.5 * float(np.dot(z, z)))
    assert np.allclose(bc.hess_phi(z), -np.eye(2))
    assert np.allclose(bc.value(np.array([z, 0.5 * z])), [-0.125, -0.03125])
    with pytest.raises(ParameterError):
        pj.barrier_chart(flat, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_barrier_frame_turns_the_tangent_axis_onto_the_projected_normal(n):
    # posed ellipsoids: the frame is a rotation with lam's normal at y last and
    # omega's normal at x, tangent to lam by the orthogonality equation, next
    rng = np.random.default_rng(430 + n)
    d = _unit(rng.normal(size=n))
    lam = bodies.ellipsoid(rng.uniform(0.8, 1.3, size=n), Pose(oracles.random_rotation(rng, n), np.zeros(n)))
    om = bodies.ellipsoid(rng.uniform(0.5, 0.9, size=n), Pose(oracles.random_rotation(rng, n), 3.8 * d))
    pt = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam, rng=rng))
    chart = pj.shadow_chart_frame(om, lam, pt, domain_radius=0.3)
    R = chart.pose.rotation
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12
    assert np.abs(chart.pose.translation - pt.y).max() <= 1e-15
    assert np.abs(R[:, -1] - lam.unit_normal(pt.y)).max() <= 1e-12
    assert np.abs(R[:, -2] - om.unit_normal(pt.x)).max() <= 1e-9
    t_star = pj.hitting_time_bound(om, lam, chart_radius=chart.domain_radius)
    assert math.isfinite(pj.barrier_gamma_bar(chart, t_star, np.full(n - 2, 0.05)))


def test_barrier_frame_is_refused_in_the_plane():
    # the two tangencies of unit discs 3 apart: omega's normal points along
    # the target chart's tangent axis at one and against it at the other
    lam, om = bodies.translated_ball([0.0, 0.0], 1.0), bodies.translated_ball([0.0, 3.0], 1.0)
    theta = math.asin(1.0 / 3.0)
    signs = []
    for side in (1.0, -1.0):
        y = np.array([side * math.sin(theta), math.cos(theta)])
        pt = pj.solve_boundary_point(om, lam, (3.0 * math.cos(theta) * y, y, 0.5 * (3.0 * math.cos(theta) - 1.0)))
        signs.append(np.sign(chart_at(lam, pt.y).pose.rotation[:, 0] @ om.unit_normal(pt.x)))
        with pytest.raises(ParameterError, match="dimension >= 3"):
            pj.shadow_chart_frame(om, lam, pt)
    assert sorted(signs) == [-1.0, 1.0]


def test_barrier_bounds_shadow_in_chart_frame(rng):
    # around a solved boundary point, the shadow in chart coordinates stays
    # below the one-sided Lipschitz graph built from the barrier
    om, lam = coaxial_pair()
    start = pj.solve_boundary_point(om, lam, pj.seed_boundary(om, lam))
    chart = pj.shadow_chart_frame(om, lam, start, domain_radius=0.5)
    t_star = pj.hitting_time_bound(om, lam, chart_radius=chart.domain_radius)

    checked = 0
    margin_fail = 0
    for _ in range(1000):
        z = rng.normal(size=2)
        z *= rng.random() * 0.35 * chart.domain_radius / np.linalg.norm(z)
        w = chart.to_world(z)
        if not pj.in_projection_shadow(om, lam, w):
            continue
        checked += 1
        gamma_bar = pj.barrier_gamma_bar(chart, t_star, z[:-1])
        if z[-1] > gamma_bar + 1e-8:
            margin_fail += 1
    assert checked >= 200
    assert margin_fail == 0
