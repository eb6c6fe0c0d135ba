import csv
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umbra import bodies, illumination
from umbra.bodies import ConcaveChart, chart_at, sample_boundary_points
from umbra.errors import (
    BoundaryNotInChartError,
    DomainError,
    EmptyCurveError,
    NotStrictlyConvexError,
    ParameterError,
    UmbraError,
)
from umbra.illumination import (
    Direction,
    ShadowCurve,
    align_chart,
    is_in_shadow,
    normal_from_superdifferential,
    shadow_boundary_gamma,
    shadow_boundary_sweep,
    shadow_horizon_point,
)
from umbra.projection import BoundaryTrace, barrier_chart

import oracles


def sphere_chart(p, r=0.6):
    ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    return chart_at(ball, p, domain_radius=r)


# ---------------------------------------------------------------------------
# normals from graph slopes


def test_normal_flat_tangent():
    assert np.allclose(normal_from_superdifferential([0.0, 0.0]), [0, 0, 1])


def test_normal_paper_substitution():
    got = normal_from_superdifferential([1.0, 0.0])
    assert np.allclose(got, np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=5))
def test_normal_unit_and_pairing_identity(w):
    w = np.array(w)
    nu = normal_from_superdifferential(w)
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
    # pairing with (w, -1) is minus the normalizer
    val = float(np.dot(nu, np.append(w, -1.0)))
    assert val == pytest.approx(-math.sqrt(float(np.dot(w, w)) + 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# membership


def test_south_pole_membership():
    ch = sphere_chart([0.0, 0.0, -1.0])
    assert is_in_shadow(ch, Direction(np.array([0.0, 0.0, -1.0])), [0.0, 0.0])
    assert not is_in_shadow(ch, Direction(np.array([0.0, 0.0, 1.0])), [0.0, 0.0])


def test_membership_outside_domain_errors():
    ch = sphere_chart([0.0, 0.0, -1.0], r=0.5)
    with pytest.raises(DomainError):
        is_in_shadow(ch, Direction(np.array([1.0, 0.0, 0.0])), [0.6, 0.0])


def test_chart_oracles_refuse_other_shapes():
    # a (4,) point on a 2-d chart was read as a two-row stack, a (3,) point
    # ended in a raw reshape error
    ch = sphere_chart([0.0, 0.0, -1.0])
    u = Direction(np.array([1.0, 0.0, 0.0]))
    for bad in (0.01, [0.01] * 3, [0.01] * 4, np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ParameterError, match=r"expected \(2,\) or \(N, 2\)"):
            is_in_shadow(ch, u, bad)
        for oracle in (ch.value, ch.gradient, ch.hessian):
            with pytest.raises(ParameterError, match="shape"):
                oracle(bad)
    with pytest.raises(ParameterError, match="not one point"):
        is_in_shadow(ch, u, np.zeros((3, 2)))
    assert ch.gradient([0.01, 0.02]).shape == (2,)
    assert ch.gradient(np.zeros((3, 2))).shape == (3, 2)
    assert ch.value(np.zeros((0, 2))).shape == (0,)


def test_sphere_membership_against_normal_oracle(rng):
    # the unit sphere's outward normal at x is x itself, so membership in
    # the shadow for direction u is exactly <x, u> > 0
    u = Direction(np.array([1.0, 0.0, 0.0]))
    checked = 0
    for p in (np.array([0, 1.0, 0]), np.array([0, -1.0, 0]), np.array([0, 0, -1.0])):
        ch = sphere_chart(p)
        while checked < 1000:
            xp = rng.normal(size=2)
            xp *= rng.random() * 0.75 * ch.domain_radius / np.linalg.norm(xp)
            w = ch.to_world(xp)
            want = float(np.dot(w, u.u)) > 0
            assert is_in_shadow(ch, u, xp) == want
            checked += 1
            if checked % 340 == 0:
                break
    assert checked >= 1000 or checked % 340 == 0


# ---------------------------------------------------------------------------
# the boundary graph


def test_sphere_silhouette_is_great_circle():
    ch = sphere_chart([0.0, 1.0, 0.0])
    u = Direction(np.array([1.0, 0.0, 0.0]))
    curve = shadow_boundary_sweep(ch, u, np.linspace(-0.3, 0.3, 21))
    pts = np.column_stack([curve.ypp, curve.gamma, curve.surface_height])
    world = np.array([curve.chart_frame.to_world(p) for p in pts])
    assert np.abs(world[:, 0]).max() < 1e-8
    assert np.abs(np.linalg.norm(world, axis=1) - 1.0).max() < 1e-9


def test_kiselman_boundary_heights():
    # shadow boundary of the strip profile is exactly |x|^(2/q)
    for q in (3, 5, 7):
        body = bodies.kiselman(q)
        ch = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.48)
        u = Direction(np.array([0.0, 1.0, 0.0]))
        for k in range(4, 11):
            for s in (1.0, -1.0):
                x = s * 2.0**-k
                g, resid = shadow_boundary_gamma(ch, u, [x])
                assert abs(g - abs(x) ** (2.0 / q)) < 1e-6
                assert abs(resid) <= 1e-10 * 1.0001


def test_ellipsoid_silhouette_plane():
    body = bodies.ellipsoid([2.0, 1.0, 1.0])
    ch = chart_at(body, [0.0, 1.0, 0.0], domain_radius=0.5)
    u = Direction(np.array([1.0, 0.0, 0.0]))
    curve = shadow_boundary_sweep(ch, u, np.linspace(-0.25, 0.25, 17))
    pts = np.column_stack([curve.ypp, curve.gamma, curve.surface_height])
    world = np.array([curve.chart_frame.to_world(p) for p in pts])
    assert np.abs(world[:, 0]).max() < 1e-8


def test_sweep_basic_contract():
    ch = sphere_chart([0.0, 1.0, 0.0])
    u = Direction(np.array([1.0, 0.0, 0.0]))
    curve = shadow_boundary_sweep(ch, u, np.linspace(-0.3, 0.3, 64))
    assert len(curve) == 64
    assert np.abs(curve.residual).max() <= curve.tol_root


def test_sweep_empty_grid_errors():
    ch = sphere_chart([0.0, 1.0, 0.0])
    with pytest.raises(EmptyCurveError):
        shadow_boundary_sweep(ch, Direction(np.array([1.0, 0.0, 0.0])), [])


def test_sweep_rejects_planar_chart():
    # a planar silhouette is two points: there is no curve to sweep
    ellipse = bodies.ellipsoid([2.0, 1.0])
    ch = chart_at(ellipse, [0.0, 1.0])
    with pytest.raises(ParameterError, match="planar"):
        shadow_boundary_sweep(ch, [1.0, 0.0], [[0.0]])


def test_sweep_all_points_failing_errors():
    # light along the chart normal: no fiber has a boundary bracket
    ch = sphere_chart([0.0, 1.0, 0.0])
    with pytest.raises((EmptyCurveError, BoundaryNotInChartError)):
        shadow_boundary_sweep(ch, Direction(np.array([0.0, 1.0, 0.0])), np.linspace(-0.3, 0.3, 8))


def test_gamma_direction_parallel_normal_errors():
    ch = sphere_chart([0.0, 1.0, 0.0])
    with pytest.raises(BoundaryNotInChartError):
        shadow_boundary_gamma(ch, Direction(np.array([0.0, 1.0, 0.0])), [0.1])


def test_not_strictly_concave_detected():
    # a convex graph masquerading as a chart flips the fiber monotonicity
    bad = ConcaveChart(
        dim_domain=2,
        phi=lambda z: 0.5 * np.vecdot(z, z),
        grad_phi=lambda z: np.asarray(z, float),
        hess_phi=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2)) + np.eye(2),
        domain_radius=1.0,
    )
    with pytest.raises(NotStrictlyConvexError):
        shadow_boundary_gamma(bad, Direction(np.array([0.0, 1.0, 0.1]) / math.sqrt(1.01)), [0.2])


def test_zero_direction_rejected():
    with pytest.raises(ParameterError):
        Direction.normalized([0.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        Direction(np.array([0.0, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# structural properties


def _feasible_case(rng, body, chart):
    """Direction and fiber whose boundary height is known by construction.

    Choosing the threshold as the chart slope at a sampled interior point
    makes that point's fiber coordinate the exact boundary height.
    """
    m = chart.dim_domain
    xi = rng.normal(size=m)
    xi *= rng.random() * 0.55 * chart.domain_radius / np.linalg.norm(xi)
    that = rng.normal(size=m)
    that /= np.linalg.norm(that)
    slope = float(np.dot(chart.gradient(xi), that))
    u_chart = np.append(that, slope)
    u_chart /= np.linalg.norm(u_chart)
    u_world = chart.pose.rotate_to_world(u_chart) if chart.pose else u_chart
    # aligned coordinates: components of xi along/orthogonal to that
    t_star = float(np.dot(xi, that))
    return Direction(u_world), xi, that, t_star


def test_vertical_monotonicity_and_sign_structure(rng):
    charts = []
    for spec in ([1.5, 1.0, 0.8], [1.0, 1.0, 1.0], [2.2, 1.3, 0.9]):
        body = bodies.ellipsoid(spec)
        p = sample_boundary_points(body, rng, 2)
        charts.append((body, chart_at(body, p[0])))
    violations = 0
    for body, chart in charts:
        for _ in range(300):
            u, xi, that, t_star = _feasible_case(rng, body, chart)
            frame = align_chart(chart, u)
            # aligned chart coordinates of the constructed root point
            world = chart.pose.to_world(np.append(xi, chart.value(xi)))
            z = frame.chart.pose.to_local(world)[:-1]
            t0 = z[-1]
            zpp = z[:-1]
            T = math.sqrt(frame.chart.domain_radius**2 - float(np.dot(zpp, zpp)))
            # membership is monotone upward along the fiber
            t = rng.uniform(-0.95 * T, 0.95 * T)
            delta = rng.uniform(0.0, max(0.95 * T - t, 0.0))
            in_low = frame.slope(np.append(zpp, t)) < 0
            in_high = frame.slope(np.append(zpp, t + delta)) < 0
            if in_low and not in_high:
                violations += 1
            # sign structure around the constructed root t0
            if t > t0 + 1e-9 and frame.slope(np.append(zpp, t)) >= 1e-9:
                violations += 1
            if t < t0 - 1e-9 and frame.slope(np.append(zpp, t)) <= -1e-9:
                violations += 1
    assert violations == 0


def test_rotation_equivariance(rng):
    Q = oracles.random_rotation(rng)
    semiaxes = [1.8, 1.1, 0.9]
    body = bodies.ellipsoid(semiaxes)
    body_rot = bodies.ellipsoid(semiaxes, bodies.Pose(Q, np.zeros(3)))
    # chart based on the silhouette of the light direction e_1
    p = np.array([0.0, semiaxes[1], 0.0])
    u = np.array([1.0, 0.0, 0.0])

    ch = chart_at(body, p, domain_radius=0.4)
    ch_rot = chart_at(body_rot, Q @ p, domain_radius=0.4)
    grid = np.linspace(-0.15, 0.15, 9)
    c1 = shadow_boundary_sweep(ch, Direction(u), grid)
    c2 = shadow_boundary_sweep(ch_rot, Direction(Q @ u), grid)
    assert len(c1) == len(c2)
    assert np.abs(c1.gamma - c2.gamma).max() < 1e-9
    assert np.abs(c1.residual - c2.residual).max() < 1e-9


def test_continuity_jump_bound(rng):
    # refined grids shrink jumps, quantitatively controlled by L/theta
    from umbra.regularity import chart_constants

    body = bodies.ellipsoid([1.6, 1.0, 0.9])
    ch = chart_at(body, [0.0, 1.0, 0.0], domain_radius=0.4)
    L, theta = chart_constants(ch, n_samples=2000, rng=rng)
    u = Direction(np.array([1.0, 0.0, 0.0]))
    prev_jump = None
    for n in (17, 33, 65):
        grid = np.linspace(-0.12, 0.12, n)
        curve = shadow_boundary_sweep(ch, u, grid)
        jumps = np.abs(np.diff(curve.gamma))
        spacing = grid[1] - grid[0]
        assert jumps.max() <= (L / theta) * spacing * 1.05 + 1e-12
        if prev_jump is not None:
            assert jumps.max() <= prev_jump + 1e-12
        prev_jump = jumps.max()


def test_solved_samples_satisfy_sign_conditions():
    body = bodies.ellipsoid([1.5, 1.0, 0.8])
    ch = chart_at(body, [0.0, 1.0, 0.0], domain_radius=0.4)
    u = Direction(np.array([1.0, 0.0, 0.0]))
    frame = align_chart(ch, u)
    zs = []
    for x in np.linspace(-0.1, 0.1, 7):
        g, _ = shadow_boundary_gamma(ch, u, [x])
        assert frame.slope([x, g + 0.02]) < 0
        assert frame.slope([x, g - 0.02]) > 0
        zs += [[x, g + 0.02], [x, g - 0.02]]
    # one stacked call agrees with the point calls
    stacked = frame.slope(np.array(zs))
    assert stacked.shape == (len(zs),)
    assert np.abs(stacked - [frame.slope(z) for z in zs]).max() <= 1e-14


def test_curve_csv_roundtrip(tmp_path):
    ch = sphere_chart([0.0, 1.0, 0.0])
    u = Direction(np.array([1.0, 0.0, 0.0]))
    curve = shadow_boundary_sweep(ch, u, np.linspace(-0.3, 0.3, 16))
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    again = ShadowCurve.from_csv(path)
    assert np.allclose(again.ypp, curve.ypp)
    assert np.allclose(again.gamma, curve.gamma)
    assert np.allclose(again.residual, curve.residual)


def _csv_bytes_per_float64(header, rows):
    """A CSV file as the writers made it by formatting each np.float64 cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{np.float64(v):.17g}" for v in row])
    return buf.getvalue().encode()


def test_csv_writers_keep_the_per_float64_bytes(tmp_path):
    # -0.0, subnormals, the largest decades and values that need all 17
    # digits, each in every column
    v = np.array([-0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0,
                  -9007199254740993.0, 123456789.12345679, 6.02214076e23])
    rolled = np.array([np.roll(v, k) for k in range(len(v))])
    ShadowCurve(rolled[:, :2], rolled[:, 2], rolled[:, 3], None, math.inf).to_csv(tmp_path / "curve.csv")
    header = ["ypp_1", "ypp_2", "gamma", "residual"]
    assert (tmp_path / "curve.csv").read_bytes() == _csv_bytes_per_float64(header, rolled[:, :4])

    k = len(rolled)  # the trace's columns: states, residual and sigma_min from the rows, then sigma_max,
    # tangents and iterations, which the CSV does not hold
    trace = BoundaryTrace(rolled[:, :7], rolled[:, 7], rolled[:, 8], np.ones(k), np.zeros((k, 7)), np.zeros(k, int),
                          False, 0.0, 0.1)
    trace.to_csv(tmp_path / "trace.csv")
    header = ["x_1", "x_2", "x_3", "y_1", "y_2", "y_3", "t", "residual", "sigma_min"]
    assert (tmp_path / "trace.csv").read_bytes() == _csv_bytes_per_float64(header, rolled[:, :9])


def test_samples_stay_in_domain():
    ch = sphere_chart([0.0, 1.0, 0.0], r=0.5)
    u = Direction(np.array([1.0, 0.0, 0.0]))
    curve = shadow_boundary_sweep(ch, u, np.linspace(-0.45, 0.45, 31))
    radii = np.sqrt(curve.ypp[:, 0] ** 2 + curve.gamma**2)
    assert np.all(radii < ch.domain_radius)


def test_sweep_tolerance_is_bounded_by_the_slope_scale():
    ch = sphere_chart([0.0, 1.0, 0.0])
    u = Direction(np.array([1.0, 0.0, 0.0]))
    for tol in (1e300, 0.5, 1e-3):
        with pytest.raises(ParameterError, match="tol_root"):
            shadow_boundary_sweep(ch, u, [0.0, 0.1], tol_root=tol)
    assert len(shadow_boundary_sweep(ch, u, [0.0, 0.1], tol_root=1e-9)) == 2


# ---------------------------------------------------------------------------
# the shadow horizon


def _whole_arc(monkeypatch):
    # the horizon search with no closed-form first bracket
    flip = bodies._arc_flip
    monkeypatch.setattr(illumination, "_arc_flip", lambda a, b, probe, rng, guess=None: flip(a, b, probe, rng))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_horizon_point_lies_on_the_closed_form_horizon(n, monkeypatch):
    # on a posed ellipsoid the horizon is the boundary's section by the
    # plane A(x - c) . u = 0; the search from the closed-form bracket takes
    # two probe rounds, one gradient call each, and returns the whole-arc
    # search's point, and a body whose rays do not start at the quadric's c
    # runs the whole arc
    rng = np.random.default_rng(600 + n)
    cases = []
    for _ in range(4):
        semiaxes = rng.uniform(0.6, 1.8, size=n)
        R = oracles.random_rotation(rng, n)
        c = rng.normal(size=n)
        A, _ = oracles.quadric_of_ellipsoid(semiaxes, R, c)
        body = bodies.ellipsoid(semiaxes, bodies.Pose(R, c))
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        seed = int(rng.integers(1000))
        calls = []
        counted = replace(body, gradient=lambda x, g=body.gradient: calls.append(1) or g(x))
        p = shadow_horizon_point(counted, u, seed)
        assert len(calls) == 2
        assert np.array_equal(p, shadow_horizon_point(body, u, seed))  # the rng fixes the point
        g = A @ (p - c)
        assert abs((p - c) @ g - 1.0) <= 1e-12
        assert abs(g @ u) / np.linalg.norm(g) <= 1e-12
        calls.clear()
        q = shadow_horizon_point(replace(counted, center=c + 0.01 * semiaxes.min() * u), u, seed)
        g = A @ (q - c)
        assert len(calls) > 2 and abs(g @ u) / np.linalg.norm(g) <= 1e-12
        cases.append((body, u, seed, p))
    _whole_arc(monkeypatch)
    for body, u, seed, p in cases:
        assert np.array_equal(p, shadow_horizon_point(body, u, seed))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ball_horizon_point_lies_on_the_great_sphere(n, monkeypatch):
    # on a ball the horizon is the great sphere (p - c) . u = 0; the flip's
    # arc fraction is 1/2, where the float spacing halves, and the search
    # from its closed-form bracket returns the whole-arc search's point
    rng = np.random.default_rng(700 + n)
    cases = []
    for _ in range(6):
        c, r = rng.normal(size=n), rng.uniform(0.3, 2.0)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        body, seed = bodies.translated_ball(c, r), int(rng.integers(1000))
        p = shadow_horizon_point(body, u, seed)
        assert abs((p - c) @ u) <= 1e-12
        assert abs(np.linalg.norm(p - c) - r) <= 1e-12
        cases.append((body, u, seed, p))
    _whole_arc(monkeypatch)
    for body, u, seed, p in cases:
        assert np.array_equal(p, shadow_horizon_point(body, u, seed))


# ---------------------------------------------------------------------------
# lockstep sweeps


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sweep_matches_quadric_closed_form(n):
    # posed ellipsoids: gamma against the plane-line-quadric closed form
    rng = np.random.default_rng(500 + n)
    semiaxes = rng.uniform(0.8, 1.6, size=n)
    R = oracles.random_rotation(rng, n)
    c = rng.normal(size=n)
    A, _ = oracles.quadric_of_ellipsoid(semiaxes, R, c)
    body = bodies.ellipsoid(semiaxes, bodies.Pose(R, c))
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    # a horizon point: x - c orthogonal to A u, scaled onto the boundary
    v = rng.normal(size=n)
    v -= (v @ A @ u) / (u @ A @ A @ u) * (A @ u)
    p = c + v / math.sqrt(v @ A @ v)
    chart = chart_at(body, p, domain_radius=0.3 * semiaxes.min())
    grid = rng.normal(size=(40, n - 2))
    grid *= (rng.random(40) * 0.3 * chart.domain_radius / np.linalg.norm(grid, axis=1))[:, None]
    curve = shadow_boundary_sweep(chart, u, grid, tol_root=1e-10)
    assert len(curve) == len(grid) and not curve.failures
    frame = curve.chart_frame
    for ypp, g in zip(curve.ypp, curve.gamma):
        want = oracles.quadric_shadow_gamma(A, c, 1.0, u, frame.rotation, frame.translation, ypp)
        assert abs(g - want) <= 1e-8
    for ypp, g in zip(grid[:5], curve.gamma[:5]):
        assert shadow_boundary_gamma(chart, u, ypp, tol_root=1e-10)[0] == pytest.approx(g, abs=1e-10)


def _sweep_outcome(chart, u, grid, tol):
    try:
        return shadow_boundary_sweep(chart, u, grid, tol_root=tol)
    except UmbraError as exc:
        return exc


def _assert_rows_match_one_row_sweeps(chart, u, grid, tol=1e-10):
    """A sweep over N rows keeps, drops and raises as N one-row sweeps do."""
    grid = np.asarray(grid, float).reshape(len(grid), -1)
    full = _sweep_outcome(chart, u, grid, tol)
    kept, gammas, failures = [], [], []
    reason = "all 1 grid points failed; first reason: "
    for row in grid:
        one = _sweep_outcome(chart, u, row, tol)
        if isinstance(one, ShadowCurve):
            kept.append(row)
            gammas.append(one.gamma[0])
        elif isinstance(one, EmptyCurveError) and str(one).startswith(reason):
            failures.append((row, str(one)[len(reason):]))
        else:  # the first error a sweep does not record ends it
            assert type(full) is type(one) and str(full) == str(one)
            return
    if not kept:
        assert isinstance(full, EmptyCurveError)
        assert str(full) == f"all {len(grid)} grid points failed; first reason: {failures[0][1]}"
        return
    assert isinstance(full, ShadowCurve)
    assert np.array_equal(full.ypp, np.array(kept))
    assert np.abs(full.gamma - np.array(gammas)).max() <= tol
    assert [(tuple(r), s) for r, s in full.failures] == [(tuple(r), s) for r, s in failures]


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_kiselman_sweep_rows_match_one_row_sweeps(q):
    # the benchmark's uniform and dyadic grids, on its chart
    chart = chart_at(bodies.kiselman(q), [0.0, 0.0, 0.0], domain_radius=0.48)
    u = [0.0, 1.0, 0.0]
    _assert_rows_match_one_row_sweeps(chart, u, np.linspace(-0.45, 0.45, 257))
    dyadic = [s * 2.0**-k for k in range(3, 15) for s in (1.0, -1.0)] + [0.0]
    _assert_rows_match_one_row_sweeps(chart, u, dyadic)


def test_kinked_body_sweep_rows_match_one_row_sweeps():
    cap = bodies.paraboloid_cap(1.5, 0.8)
    chart = chart_at(cap, [0.0, 0.0, 0.0], domain_radius=0.6)
    _assert_rows_match_one_row_sweeps(chart, Direction.normalized([0.8, 0.3, -0.5]), np.linspace(-0.55, 0.55, 41))
    # light across the ruling through p: the gentler tilt keeps every row,
    # the steeper one reaches fibers that leave the cone (ChartError)
    cone = bodies.cone_over_circle()
    p = bodies.boundary_point_along(cone, [0.3, 0.2, 0.5])
    chart = chart_at(cone, p)
    nu = cone.unit_normal(p)
    ruling = np.array([0.0, 1.0, 0.0]) - p
    across = np.cross(nu, ruling - (ruling @ nu) * nu)
    for tilt in (0.1, 0.5):
        u = Direction.normalized(across / np.linalg.norm(across) + tilt * nu)
        _assert_rows_match_one_row_sweeps(chart, u, np.linspace(-0.9, 0.9, 41) * chart.domain_radius)


@pytest.mark.parametrize("n_grid", [257, 1025])
def test_sweep_slope_calls_do_not_grow_with_the_grid(n_grid):
    # one stacked slope call per round: the worst fiber of this 257-point
    # Kiselman q = 5 grid needs 20 slope evaluations as a one-row solve, and
    # the sweeps take 20 (257 points) and 22 (1025 points) stacked calls,
    # where a sweep that looped over fibers would make hundreds
    chart = chart_at(bodies.kiselman(5), [0.0, 0.0, 0.0], domain_radius=0.48)
    calls = []
    counted = replace(chart, grad_phi=lambda z: calls.append(1) or chart.grad_phi(z))
    curve = shadow_boundary_sweep(counted, [0.0, 1.0, 0.0], np.linspace(-0.45, 0.45, n_grid), tol_root=1e-10)
    assert len(curve) > 0.3 * n_grid
    assert len(calls) <= 24


def test_sweep_rejects_malformed_grids():
    ch = chart_at(bodies.ellipsoid([1.0, 1.2, 0.9, 1.1]), [0.0, 0.0, 0.0, 1.1], domain_radius=0.4)
    u = Direction.normalized([1.0, 0.2, 0.0, 0.3])
    with pytest.raises(ParameterError, match="dimension 2"):
        shadow_boundary_sweep(ch, u, [0.0, 0.1, 0.2])
    sphere = sphere_chart([0.0, 1.0, 0.0])
    for grid in ([0.0, math.nan], [math.inf, 0.0]):
        with pytest.raises(ParameterError, match="non-finite"):
            shadow_boundary_sweep(sphere, [1.0, 0.0, 0.0], grid)
    with pytest.raises(ParameterError, match="non-finite"):
        shadow_boundary_gamma(sphere, [1.0, 0.0, 0.0], [math.nan])


def _refusing(chart, refused):
    """``chart`` whose gradient oracle raises DomainError at the heights t
    (last chart coordinate) where ``refused(t)`` holds, as a point and, for
    its first refused row, as a stack; and the list of the refused heights."""
    refusals = []

    def grad_phi(z):
        t = np.atleast_2d(z)[:, -1]
        bad = np.flatnonzero(refused(t))
        if bad.size:
            refusals.append(t[bad[0]])
            raise DomainError(f"gradient refused at height {t[bad[0]]:.17g}")
        return chart.grad_phi(z)

    return replace(chart, grad_phi=grad_phi), refusals


def test_fiber_with_a_refused_endpoint_keeps_expanding():
    # gamma(0.2) = 0.2^(2/3) = 0.342 brackets at the third expansion, below
    # the refused heights t > 0.4, which the upper endpoint 0.436 reaches
    chart = chart_at(bodies.kiselman(3), [0.0, 0.0, 0.0], domain_radius=0.48)
    refusing, refusals = _refusing(chart, lambda t: t > 0.4)
    u = [0.0, 1.0, 0.0]
    assert shadow_boundary_gamma(refusing, u, [0.2]) == shadow_boundary_gamma(chart, u, [0.2])
    assert refusals and min(refusals) > 0.4
    grid = [-0.2, 0.05, 0.2]
    want = shadow_boundary_sweep(chart, u, grid, tol_root=1e-10)
    got = shadow_boundary_sweep(refusing, u, grid, tol_root=1e-10)
    assert np.array_equal(got.gamma, want.gamma) and np.array_equal(got.ypp, want.ypp)


def test_bracketless_fiber_takes_its_endpoint_error():
    # gamma(0.3) = 0.448 lies beyond T = 0.374, so the fiber has no bracket;
    # its lower endpoint -0.374 is refused, no expansion probe is, and the
    # fiber ends with the endpoint's error instead of BoundaryNotInChartError
    chart = chart_at(bodies.kiselman(3), [0.0, 0.0, 0.0], domain_radius=0.48)
    u = [0.0, 1.0, 0.0]
    with pytest.raises(BoundaryNotInChartError, match="expansion cap 20 hit"):
        shadow_boundary_gamma(chart, u, [0.3])
    refusing, _ = _refusing(chart, lambda t: t < -0.35)
    with pytest.raises(DomainError, match="refused at height -0.374") as one:
        shadow_boundary_gamma(refusing, u, [0.3])
    curve = shadow_boundary_sweep(refusing, u, [0.2, 0.3], tol_root=1e-10)
    assert np.array_equal(curve.ypp, [[0.2]])
    assert [(tuple(r), s) for r, s in curve.failures] == [((0.3,), str(one.value))]
    _assert_rows_match_one_row_sweeps(refusing, u, np.linspace(-0.45, 0.45, 19))


def test_bracketless_fibers_are_settled_by_their_endpoint_round():
    # every fiber of this q = 5 grid has gamma beyond its chord: one round
    # of first expansions, then one with the endpoints, settles them all
    chart = chart_at(bodies.kiselman(5), [0.0, 0.0, 0.0], domain_radius=0.48)
    calls = []
    counted = replace(chart, grad_phi=lambda z: calls.append(np.ndim(z)) or chart.grad_phi(z))
    grid = np.concatenate([np.linspace(0.3, 0.45, 16), -np.linspace(0.3, 0.45, 16)])
    with pytest.raises(EmptyCurveError, match="expansion cap 20 hit"):
        shadow_boundary_sweep(counted, [0.0, 1.0, 0.0], grid, tol_root=1e-10)
    assert calls == [2, 2]


def _counting(chart):
    """``chart`` whose oracles count their calls into the returned dict."""
    calls = {"grad_phi": 0, "hess_phi": 0}

    def counted(name, fn):
        def call(z):
            calls[name] += 1
            return fn(z)

        return None if fn is None else call

    return replace(chart, grad_phi=counted("grad_phi", chart.grad_phi),
                   hess_phi=counted("hess_phi", chart.hess_phi)), calls


def test_fiber_solves_call_only_the_slope(rng):
    ell = bodies.ellipsoid([1.2, 0.9, 0.7], bodies.Pose(oracles.random_rotation(rng), np.zeros(3)))
    p = bodies.boundary_point_along(ell, [0.3, -0.2, 1.0])
    cases = [(chart_at(bodies.kiselman(5), [0.0, 0.0, 0.0], domain_radius=0.48), [0.0, 1.0, 0.0]),
             (chart_at(ell, p), Direction.normalized([1.0, 0.4, 0.2]))]
    for chart, u in cases:
        assert chart.hess_phi is not None
        counted, calls = _counting(chart)
        curve = shadow_boundary_sweep(counted, u, np.linspace(-0.4, 0.4, 65) * chart.domain_radius, tol_root=1e-10)
        shadow_boundary_gamma(counted, u, curve.ypp[len(curve) // 2], tol_root=1e-10)
        assert calls["grad_phi"] > 0 and calls["hess_phi"] == 0


# ---------------------------------------------------------------------------
# closed-form roots on quadric charts


def _quadric_case(kind):
    """A chart of a quadric body, the light u and the body's semiaxis range
    (lo, hi).  Ellipsoid charts are based at a horizon point of u; the ball's
    is turned off it, where its great-circle silhouette is not the line
    gamma = 0 but leaves the chart."""
    rng = np.random.default_rng({"n3": 31, "n4": 41, "n5": 51, "ball": 61}[kind])
    if kind == "ball":
        body, lo, hi = bodies.translated_ball([0.4, -0.7, 1.3], 0.9), 0.9, 0.9
    else:
        n = int(kind[1])
        semiaxes = rng.uniform(0.8, 1.6, size=n)
        body = bodies.ellipsoid(semiaxes, bodies.Pose(oracles.random_rotation(rng, n), rng.normal(size=n)))
        lo, hi = semiaxes.min(), semiaxes.max()
    u = Direction.normalized(rng.normal(size=body.dim))
    p = shadow_horizon_point(body, u, rng)
    if kind == "ball":
        p = bodies.boundary_point_along(body, p - body.center + 0.3 * u.u)
    return chart_at(body, p, domain_radius=0.35 * lo), u, (lo, hi)


def _past_the_chart(chart, hi, rng):
    """Grid points y'' inside the chart domain, at its edge, and out past
    the body itself."""
    m = chart.dim_domain - 1
    r = chart.domain_radius
    radii = np.concatenate([np.linspace(0.0, 0.999, 97) * r, np.linspace(0.9, 0.9999, 32) * r,
                            np.linspace(1.01 * r, 3.0 * hi, 16)])
    dirs = rng.normal(size=(len(radii), m))
    dirs[::2] *= -1.0
    return dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]


@pytest.mark.parametrize("kind", ["n3", "n4", "n5", "ball"])
def test_quadric_roots_match_the_bracket_path(kind):
    # the same chart with and without its quadric: the closed form keeps the
    # same rows and fails the same rows for the same reasons, and its
    # residuals sit at the rounding level.  The bracket path stops at a
    # slope residual within tol_root, and the slope falls at a rate of at
    # least the least curvature lo / hi^2 along a fiber, so the two gammas
    # differ by at most that residual over it (up to 1.4 tol_root here).
    # The grid runs past where the silhouette leaves the chart (|gamma| >=
    # T_end, no bracket) and past the body (the fiber plane misses the
    # quadric: a negative discriminant), with no numpy warning
    chart, u, (lo, hi) = _quadric_case(kind)
    grid = _past_the_chart(chart, hi, np.random.default_rng(7))
    tol = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        closed = shadow_boundary_sweep(chart, u, grid, tol_root=tol)
        bracket = shadow_boundary_sweep(replace(chart, quadric=None), u, grid, tol_root=tol)
        frame = align_chart(chart, u)
        proposed = illumination._quadric_roots(frame.chart.quadric, frame.threshold, grid)
    assert np.array_equal(closed.ypp, bracket.ypp)
    assert [(tuple(r), s) for r, s in closed.failures] == [(tuple(r), s) for r, s in bracket.failures]
    kept = {tuple(r) for r in closed.ypp}
    assert np.array_equal(closed.gamma, proposed[[tuple(r) in kept for r in grid]])
    assert np.abs(closed.residual).max() <= 1e-13
    assert (np.abs(closed.gamma - bracket.gamma) <= (np.abs(bracket.residual) + 1e-13) * hi**2 / lo).all()
    reasons = [s for _, s in closed.failures]
    assert any("expansion cap" in s for s in reasons) and any("outside the chart domain" in s for s in reasons)
    assert np.isnan(proposed).any()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_planar_gamma_lies_on_the_closed_form_horizon(sign):
    # n = 2: no sweep, and the root over the empty y'' is one of the two
    # horizon points, where A(x - c) is orthogonal to u; charts are based
    # off the horizon, and the light's sign flips the aligned axis or not
    theta = 0.4
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    semiaxes, c = np.array([1.3, 0.7]), np.array([0.2, -0.1])
    body = bodies.ellipsoid(semiaxes, bodies.Pose(R, c))
    A, _ = oracles.quadric_of_ellipsoid(semiaxes, R, c)
    u = sign * np.array([0.6, 0.8])
    v = np.array([-(A @ u)[1], (A @ u)[0]])
    turn = np.array([[math.cos(0.15), -math.sin(0.15)], [math.sin(0.15), math.cos(0.15)]])
    for h in (c + v / math.sqrt(v @ A @ v), c - v / math.sqrt(v @ A @ v)):
        chart = chart_at(body, bodies.boundary_point_along(body, turn @ (h - c)), domain_radius=0.3)
        assert chart.quadric is not None
        gamma, resid = shadow_boundary_gamma(chart, u, [])
        flip = 1.0 if chart.pose.rotate_to_local(u)[0] > 0 else -1.0
        assert abs(gamma) > 0.01 and abs(resid) <= 1e-13
        assert np.linalg.norm(chart.to_world([flip * gamma]) - h) <= 1e-9
        assert abs(shadow_boundary_gamma(replace(chart, quadric=None), u, [])[0] - gamma) <= 1e-10


def test_barrier_chart_drops_the_quadric():
    # psi is not the graph of the quadric: the barrier chart solves on the
    # bracket path, with the gamma of a chart that never had a quadric
    chart, u, _ = _quadric_case("n3")
    bc = barrier_chart(chart, 0.7)
    assert chart.quadric is not None and bc.quadric is None
    grid = np.linspace(-0.6, 0.6, 33) * chart.domain_radius
    got = shadow_boundary_sweep(bc, u, grid, tol_root=1e-10)
    want = shadow_boundary_sweep(barrier_chart(replace(chart, quadric=None), 0.7), u, grid, tol_root=1e-10)
    assert np.array_equal(got.ypp, want.ypp) and np.array_equal(got.gamma, want.gamma)
    # a chart that keeps a quadric its callbacks no longer graph is safe: the
    # slope certifies each proposal against the callbacks, and the proposals
    # it refuses go through the bracket path
    stale = shadow_boundary_sweep(replace(bc, quadric=chart.quadric), u, grid, tol_root=1e-10)
    assert np.array_equal(stale.ypp, want.ypp) and np.abs(stale.gamma - want.gamma).max() <= 1e-9


@pytest.mark.parametrize("kind", ["n3", "n4", "n5", "ball", "planar"])
def test_aligned_quadric_vanishes_on_the_aligned_graph(kind):
    # align_chart rotates the quadric by the lift of Q: G(z, phi(z)) = 0 on
    # the aligned chart (the planar light flips the aligned axis)
    if kind == "planar":
        chart = chart_at(bodies.ellipsoid([1.3, 0.7]), [0.0, 0.7], domain_radius=0.5)
        u = Direction.normalized([-1.0, 0.2])
    else:
        chart, u, _ = _quadric_case(kind)
    frame = align_chart(chart, u)
    A, c, rhs = frame.chart.quadric
    rng = np.random.default_rng(3)
    m = chart.dim_domain
    z = rng.normal(size=(200, m))
    z *= (rng.random(200) * 0.99 * chart.domain_radius / np.linalg.norm(z, axis=1))[:, None]
    w = np.column_stack([z, frame.chart.phi(z)]) - c
    assert np.abs(np.vecdot(w, w @ A) - rhs).max() <= 1e-12


def test_quadric_sweep_makes_two_stacked_slope_calls():
    # one call certifies every proposal and one makes the sign probes; the
    # same chart without its quadric brackets and refines in many rounds
    chart, u, _ = _quadric_case("n3")
    grid = np.linspace(-0.45, 0.45, 257) * chart.domain_radius
    calls = []
    counted = replace(chart, grad_phi=lambda z: calls.append(np.ndim(z)) or chart.grad_phi(z))
    curve = shadow_boundary_sweep(counted, u, grid, tol_root=1e-10)
    assert len(curve) == 257 and calls == [2, 2]
    calls.clear()
    shadow_boundary_sweep(replace(counted, quadric=None), u, grid, tol_root=1e-10)
    assert len(calls) >= 10
