import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umbra import bodies
from umbra.bodies import (
    BodySpec,
    Pose,
    body_self_check,
    chart_at,
    instantiate,
    rotation_with_last_axis,
    sample_boundary_points,
)
from umbra.errors import (
    ChartError,
    DegeneratePointError,
    DomainError,
    ParameterError,
    SpecError,
    UmbraError,
)
from umbra.illumination import align_chart, normal_from_superdifferential
from umbra import projection as pj
from umbra.projection import barrier_chart
from umbra.regularity import chart_constants

import oracles


def catalog_members():
    return [
        bodies.ellipsoid([2.0, 1.0, 1.0]),
        bodies.translated_ball([0.0, 0.0, 3.0], 1.0),
        bodies.kiselman(3),
        bodies.kiselman(3, clamp_radius=0.45),
        bodies.cone_over_circle(),
        bodies.cantor_contact(1e-4, 3, side="omega"),
        bodies.cantor_contact(1e-4, 3, side="lambda"),
        bodies.paraboloid_cap(1.5, 0.8),
    ]


# ---------------------------------------------------------------------------
# instantiation


def test_translated_ball_is_quadratic():
    b = bodies.translated_ball([0, 0, 3], 1.0)
    x = np.array([0.3, -0.2, 2.5])
    assert b.value_at(x) == pytest.approx(np.dot(x - [0, 0, 3], x - [0, 0, 3]) - 1.0)
    assert b.bounding_radius == 1.0
    assert b.convexity.kind == "uniformly_convex"


def test_kiselman_chart_matches_closed_form():
    # boundary graph at the origin is the negated strip profile
    b = bodies.kiselman(3)
    ch = chart_at(b, [0, 0, 0], domain_radius=0.45)

    def profile(x, y):
        return x * x * (4 - y + 0.5 * y * y) + y**4 / 4 - y**5 / 5

    for x, y in [(0.1, 0.2), (0.05, -0.3), (0.2, 0.35), (0.0, 0.4), (0.3, -0.1)]:
        assert ch.value([x, y]) == pytest.approx(-profile(x, y), abs=1e-11)


@pytest.mark.parametrize("q, r", [(3, 0.3), (5, 0.45), (3, 0.49)])
def test_clamped_kiselman_lies_in_its_bounding_ball(q, r):
    # f >= 0 on the strip puts the body in the lower half of the clamp ball,
    # whose rim lies sqrt(1.16) r from the center (0, 0, -0.4 r)
    body = bodies.kiselman(q, clamp_radius=r)
    x = np.random.default_rng(q).uniform(-r, r, size=(200_000, 3))
    x = x[body.value(x) <= 0]
    assert len(x) > 10_000
    assert np.linalg.norm(x - body.center, axis=1).max() <= body.bounding_radius


def test_kiselman_rejects_even_or_small_q():
    with pytest.raises(ParameterError):
        bodies.kiselman(4)
    with pytest.raises(ParameterError):
        bodies.kiselman(1)


def test_ellipsoid_modulus_matches_sampled_monotonicity(rng):
    # modulus 2*min(1/a_i^2), checked against the direct monotonicity oracle
    b = bodies.ellipsoid([2.0, 1.0, 1.0])
    lam = b.convexity.modulus
    assert lam == pytest.approx(0.5)
    ratios = []
    for _ in range(2000):
        x, z = rng.normal(size=3), rng.normal(size=3)
        d = x - z
        ratios.append(np.dot(b.gradient_at(x) - b.gradient_at(z), d) / np.dot(d, d))
    x_axis = np.array([1.0, 0, 0])
    ratios.append(
        np.dot(b.gradient_at(2 * x_axis) - b.gradient_at(x_axis), x_axis) / 1.0
    )
    assert min(ratios) >= lam - 1e-9
    assert min(ratios) <= lam + 1e-9  # the bound is attained along the long axis


@given(st.integers(0, 10_000))
def test_ellipsoid_segment_convexity(seed):
    rng = np.random.default_rng(seed)
    b = bodies.ellipsoid(rng.uniform(0.5, 2.5, size=3))
    x, z = rng.normal(size=3), rng.normal(size=3)
    t = rng.random()
    lhs = b.value_at(t * x + (1 - t) * z)
    assert lhs <= t * b.value_at(x) + (1 - t) * b.value_at(z) + 1e-12


# ---------------------------------------------------------------------------
# charts


def test_sphere_chart_closed_form():
    b = bodies.translated_ball([0, 0, 0], 1.0)
    ch = chart_at(b, [0, 0, -1], domain_radius=0.6)
    for r in np.linspace(0.0, 0.5, 11):
        got = ch.value([r, 0.0])
        assert abs(got - oracles.sphere_chart_height([r, 0.0])) < 1e-9


def test_chart_frame_normalization(rng):
    for b in (bodies.ellipsoid([2.0, 1.0, 1.0]), bodies.translated_ball([1, 2, 3], 0.7)):
        p = sample_boundary_points(b, rng, 1)[0]
        ch = chart_at(b, p)
        assert ch.value(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(ch.gradient(np.zeros(2)), 0.0, atol=1e-9)


def test_paraboloid_cap_chart_at_apex():
    kappa = 1.5
    b = bodies.paraboloid_cap(kappa, 0.8)
    ch = chart_at(b, np.zeros(3), domain_radius=0.4)
    for xp in ([0.1, 0.0], [0.05, -0.2], [0.3, 0.1]):
        want = -0.5 * kappa * float(np.dot(xp, xp))
        assert ch.value(xp) == pytest.approx(want, abs=1e-10)


def test_chart_world_roundtrip(rng):
    # graph points mapped back to world coordinates sit on the level set
    for b, p in (
        (bodies.ellipsoid([1.5, 1.0, 0.8]), None),
        (bodies.translated_ball([0, 1, 0], 1.2), None),
        (bodies.kiselman(3), np.zeros(3)),  # the unbounded patch is charted at its origin
    ):
        ch = chart_at(b, sample_boundary_points(b, rng, 1)[0] if p is None else p)
        for _ in range(50):
            xp = rng.normal(size=2)
            xp *= rng.random() * 0.8 * ch.domain_radius / np.linalg.norm(xp)
            w = ch.to_world(xp)
            assert abs(b.value_at(w)) <= 10 * bodies.TOL_BOUNDARY


def test_chart_gradient_matches_fd(rng):
    b = bodies.ellipsoid([1.5, 1.0, 0.8])
    p = sample_boundary_points(b, rng, 1)[0]
    ch = chart_at(b, p)
    for _ in range(100):
        xp = rng.normal(size=2)
        xp *= rng.random() * 0.7 * ch.domain_radius / np.linalg.norm(xp)
        fd = oracles.fd_gradient(lambda z: ch.value(z), xp, 1e-6)
        assert np.abs(ch.gradient(xp) - fd).max() < 1e-6


def test_chart_normal_consistency(rng):
    # chart normal (-grad phi, 1)/|..| agrees with the defining gradient
    # direction at the matching world point
    b = bodies.ellipsoid([2.0, 1.0, 1.0])
    p = sample_boundary_points(b, rng, 1)[0]
    ch = chart_at(b, p)
    for _ in range(30):
        xp = rng.normal(size=2)
        xp *= rng.random() * 0.7 * ch.domain_radius / np.linalg.norm(xp)
        nu_chart = ch.pose.rotate_to_world(normal_from_superdifferential(ch.gradient(xp)))
        w = ch.to_world(xp)
        nu_body = b.unit_normal(w)
        assert np.linalg.norm(nu_chart - nu_body) < 1e-6


def test_chart_hessian_implicit_formula():
    b = bodies.translated_ball([0, 0, 0], 1.0)
    ch = chart_at(b, [0, 0, -1], domain_radius=0.6)
    assert np.allclose(ch.hessian([0.0, 0.0]), -np.eye(2), atol=1e-10)
    xp = np.array([0.3, 0.1])
    fd = oracles.fd_jacobian(lambda z: ch.gradient(z), xp, 1e-6)
    assert np.abs(ch.hessian(xp) - 0.5 * (fd + fd.T)).max() < 1e-5


def test_chart_errors():
    b = bodies.translated_ball([0, 0, 0], 1.0)
    with pytest.raises(ChartError):
        chart_at(b, [0, 0, -0.5])  # not a boundary point
    ch = chart_at(b, [0, 0, -1], domain_radius=0.5)
    with pytest.raises(DomainError):
        ch.value([0.6, 0.0])
    cone = bodies.cone_over_circle()
    with pytest.raises(DegeneratePointError):
        chart_at(cone, [0.0, 1.0, 0.0])  # apex: gauge gradient undefined


@pytest.mark.parametrize(
    "body, p",
    [
        (bodies.ellipsoid([1.0, 0.9, 0.8, 0.7]), [0.0, 0.0, 0.8]),
        (bodies.ellipsoid([1.0, 0.7]), [0.0, 0.7, 0.0]),
        (bodies.kiselman(3), [0.0, 0.0]),
    ],
    ids=["ellipsoid4-point3", "ellipsoid2-point3", "kiselman-point2"],
)
def test_chart_base_point_of_another_dimension_is_refused(body, p):
    with pytest.raises(ParameterError, match="chart base point has shape"):
        chart_at(body, p)


def test_chart_solves_a_fiber_thinner_than_a_fixed_step():
    # the fiber lies inside the cap only for s in [-0.0946, -0.0613]; a march
    # in steps of s_max / 48 = 0.054 steps over it
    body = bodies.paraboloid_cap(1.2, 0.6, dim=4)
    p = bodies.boundary_point_along(body, [0.6, -0.07, -0.21, -0.05])
    ch = chart_at(body, p, domain_radius=0.5)
    s = ch.value([-0.48, 0.0, 0.0])
    assert s == pytest.approx(-0.06127, abs=1e-5)
    assert abs(body.value_at(ch.to_world([-0.48, 0.0, 0.0]))) <= 1e-15


def test_chart_based_just_inside_runs_its_fibers_down_from_the_top():
    # chart_at accepts a base point inside by up to 10 TOL_BOUNDARY; here G
    # is -5e-10 on the tangent plane above it, so that fiber is run down
    # again from the top of its height range, and the boundary lies 5e-10 up
    # (without the body's profile, which reads that height in closed form)
    body = bodies.kiselman(3)
    for b in (replace(body, profile=None), body):
        ch = chart_at(b, [0.0, 0.0, -5e-10], 0.3)
        assert abs(ch.value([0.0, 0.0]) - 5e-10) <= 1e-15
        stack = np.array([[0.0, 0.0], [0.1, 0.05], [0.0, 0.0]])
        assert np.array_equal(ch.value(stack), [ch.value(row) for row in stack])


def test_a_refused_fiber_fails_alone():
    # the gradient oracle refuses points with x > 0.4, as the cone's gauge
    # does on its axis: a fiber there fails with the oracle's error, and so
    # does a radius probe that meets one, while the other fibers are solved
    ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)

    def gradient(x):
        if np.any(np.asarray(x)[..., 0] > 0.4):
            raise DegeneratePointError("refused")
        return ball.gradient(x)

    body = replace(ball, gradient=gradient, quadric=None)
    p = [0.0, 0.0, -1.0]
    assert chart_at(body, p).domain_radius == 0.25  # the probe ring at r = 0.5 reaches x = 0.475
    ch = chart_at(body, p, domain_radius=0.6)
    good, bad = ch.pose.to_local([-0.2, 0.1, -1.0])[:-1], ch.pose.to_local([0.45, 0.0, -1.0])[:-1]
    for query in (ch.value, ch.gradient):
        assert np.array_equal(query(np.array([good, good])), [query(good)] * 2)
        with pytest.raises(DegeneratePointError, match="refused"):
            query(np.array([good, bad, good]))


def test_stacked_fiber_solve_makes_few_oracle_calls():
    # every fiber of a stack advances in the same Newton round, so the calls
    # do not grow with the rows, including those crossing the cap's rim
    body, calls = _counting(bodies.paraboloid_cap(1.5, 0.8))
    ch = chart_at(body, bodies.boundary_point_along(body, [1.0, 0.5, 0.2]))
    rng = np.random.default_rng(14)
    z = rng.normal(size=(500, 2))
    z *= (rng.random(500) * 0.9 * ch.domain_radius / np.linalg.norm(z, axis=1))[:, None]
    calls["n"] = 0
    assert ch.gradient(z).shape == (500, 2)
    assert calls["n"] <= 16


def test_chart_radius_probe_covers_every_tangent_axis():
    # at e4 the thin semiaxis 0.2 lies along the third tangent axis, which
    # a ring in the first two tangent coordinates never tests
    body = bodies.ellipsoid([3.0, 3.0, 0.2, 1.0])
    ch = chart_at(body, [0.0, 0.0, 0.0, 1.0])
    for s in (1.0, -1.0):
        ch.value(0.9 * s * ch.domain_radius * np.eye(3)[2])


def _posed_quadrics(rng, n):
    """A posed ellipsoid and a posed translated ball in dimension n."""
    semiaxes = rng.uniform(0.6, 1.8, size=n)
    pose = Pose(oracles.random_rotation(rng, n), rng.normal(size=n))
    ball_pose = Pose(oracles.random_rotation(rng, n), rng.normal(size=n))
    return [
        bodies.ellipsoid(semiaxes, pose),
        bodies.translated_ball(rng.normal(size=n), float(rng.uniform(0.5, 2.0)), ball_pose),
    ]


def _counting(body):
    """The body with oracles that count their calls (quadric kept): all of
    them under "n", and each under its field name."""
    calls = {"n": 0, "value": 0, "gradient": 0, "hessian": 0}

    def counted(name, fn):
        def wrapped(x):
            calls["n"] += 1
            calls[name] += 1
            return fn(x)

        return wrapped

    return replace(
        body,
        value=counted("value", body.value),
        gradient=counted("gradient", body.gradient),
        hessian=counted("hessian", body.hessian),
    ), calls


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quadric_chart_matches_iterative_chart(n):
    # closed-form fibers against the Newton path of the same body
    rng = np.random.default_rng(40 + n)
    for body in _posed_quadrics(rng, n):
        counted, calls = _counting(body)
        iterative = replace(body, quadric=None)
        for p in sample_boundary_points(body, rng, 3):
            closed_ch = chart_at(counted, p)
            iter_ch = chart_at(iterative, p)
            assert closed_ch.domain_radius == iter_ch.domain_radius
            calls["n"] = 0
            for _ in range(20):
                xp = rng.normal(size=n - 1)
                xp *= rng.random() * 0.95 * iter_ch.domain_radius / np.linalg.norm(xp)
                assert abs(closed_ch.value(xp) - iter_ch.value(xp)) <= 1e-10
                assert np.abs(closed_ch.gradient(xp) - iter_ch.gradient(xp)).max() <= 1e-10
                assert np.abs(closed_ch.hessian(xp) - iter_ch.hessian(xp)).max() <= 1e-10
            assert calls["n"] == 0  # the closed form never calls the oracles


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadric_chart_raises_like_iterative_chart(n):
    rng = np.random.default_rng(50 + n)
    for body in _posed_quadrics(rng, n):
        p = sample_boundary_points(body, rng, 1)[0]
        wide = 4.0 * body.bounding_radius  # wider than the body
        outside = np.zeros(n - 1)
        outside[0] = 3.0 * body.bounding_radius  # fiber misses the body
        for b in (body, replace(body, quadric=None)):
            ch = chart_at(b, p, domain_radius=0.3 * body.bounding_radius)
            with pytest.raises(DomainError):
                ch.value(outside)
            ch = chart_at(b, p, domain_radius=wide)
            for query in (ch.value, ch.gradient, ch.hessian):
                with pytest.raises(ChartError):
                    query(outside)


def _raised(fn, x):
    """The class and message of the error ``fn(x)`` raises."""
    with pytest.raises(UmbraError) as info:
        fn(x)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_profile_chart_matches_newton_chart(q):
    # at the origin the chart frame is the body's, so phi is -f in closed
    # form; one-sided Newton on the fiber G = s + f lands there in one step,
    # so phi, grad phi and hess phi agree bit for bit with the Newton chart
    body = bodies.kiselman(q)
    assert body.profile is not None
    profile_ch = chart_at(body, np.zeros(3), 0.48)
    newton_ch = chart_at(replace(body, profile=None), np.zeros(3), 0.48)
    rng = np.random.default_rng(90 + q)
    z = rng.normal(size=(400, 2))
    z *= (rng.random(400) ** 0.5 * 0.48 / np.linalg.norm(z, axis=1))[:, None]
    for name in ("value", "gradient", "hessian"):
        a, b = getattr(profile_ch, name), getattr(newton_ch, name)
        assert np.array_equal(a(z), b(z))
        for row in z[:40]:
            assert np.array_equal(a(row), b(row))
    # out of the domain, as a point and as a stack whose first bad row is
    # row 1: the public queries and the raw callbacks raise alike
    stack = np.array([[0.1, 0.1], [0.0, 0.6], [0.5, 0.0]])
    for name in ("value", "gradient", "hessian", "phi", "grad_phi", "hess_phi"):
        a, b = getattr(profile_ch, name), getattr(newton_ch, name)
        for x in ([0.5, 0.0], stack):
            assert _raised(a, x) == _raised(b, x)
    # in a chart wider than the strip's height range, a fiber above x = 0.9
    # leaves the range on both paths, after the good row 0
    wide = [chart_at(b, np.zeros(3), 2.0) for b in (body, replace(body, profile=None))]
    stack = np.array([[0.1, 0.1], [0.9, 0.0], [3.0, 0.0]])
    for name in ("value", "gradient", "hessian"):
        for x in ([0.9, 0.0], stack):
            assert _raised(getattr(wide[0], name), x) == _raised(getattr(wide[1], name), x)
    assert _raised(wide[0].value, stack)[0] is ChartError


def test_profile_chart_makes_no_oracle_calls_for_phi():
    counted, calls = _counting(bodies.kiselman(5))
    ch = chart_at(counted, np.zeros(3), 0.48)
    rng = np.random.default_rng(96)
    z = rng.uniform(-0.3, 0.3, size=(257, 2))
    calls.update(n=0, value=0, gradient=0)
    ch.value(z)
    ch.value(z[0])
    assert calls["n"] == calls["value"] == 0
    ch.gradient(z)  # grad phi still reads the body gradient at the graph points
    assert calls["value"] == 0 and calls["gradient"] == 1


def test_kiselman_charts_off_the_profile_path_solve_by_newton():
    # a pose, even the identity, drops the profile, and the clamped body's
    # ball piece is no graph over the strip; a chart based off the origin
    # has a rotated frame, whose fibers are not the profile's
    posed = bodies.kiselman(5, pose=Pose(np.eye(3), np.zeros(3)))
    clamped = bodies.kiselman(5, clamp_radius=0.45)
    assert posed.profile is None and clamped.profile is None
    unclamped = bodies.kiselman(5)
    for body, d in ((posed, [0.0, 0.0, 1.0]), (clamped, [0.0, 0.0, 1.0]), (unclamped, [0.3, 0.2, 1.0])):
        counted, calls = _counting(body)
        p = bodies.boundary_point_along(body, d)
        ch = chart_at(counted, p, 0.2)
        calls["value"] = 0
        stack = np.array([[0.1, 0.05], [0.0, 0.15]])
        assert np.array_equal(ch.value(stack), chart_at(replace(body, profile=None), p, 0.2).value(stack))
        assert calls["value"] > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_missed_fibers_read_the_same_on_both_paths(n):
    # Newton may step out of the height range before a slope <= 0 shows
    # that a fiber misses the body; by convexity that is a miss all the same
    rng = np.random.default_rng(70 + n)
    for body in _posed_quadrics(rng, n):
        p = sample_boundary_points(body, rng, 1)[0]
        wide = 3.0 * body.bounding_radius
        closed_ch = chart_at(body, p, domain_radius=wide)
        iter_ch = chart_at(replace(body, quadric=None), p, domain_radius=wide)
        xs = rng.normal(size=(300, n - 1))
        xs *= (rng.random(300) ** (1.0 / (n - 1)) * 0.99 * wide / np.linalg.norm(xs, axis=1))[:, None]
        missed = 0
        for xp in xs:
            try:
                closed_ch.value(xp)
                continue
            except ChartError as exc:
                assert str(exc) == "fiber does not cross the boundary in range"
            with pytest.raises(ChartError, match="^fiber does not cross the boundary in range$"):
                iter_ch.value(xp)
            missed += 1
        assert missed >= 50


def _stack_cases():
    """Charts covering every way a chart Hessian is evaluated."""
    rng = np.random.default_rng(60)
    cases = []
    for n in (2, 3, 4):
        ell = _posed_quadrics(rng, n)[0]
        cases.append(pytest.param(chart_at(ell, sample_boundary_points(ell, rng, 1)[0]), id=f"ellipsoid-n{n}"))
    kis = chart_at(bodies.kiselman(3), [0.0, 0.0, 0.0], domain_radius=0.48)
    cases.append(pytest.param(kis, id="kiselman"))
    cap = bodies.paraboloid_cap(1.5, 0.8)
    cases.append(pytest.param(chart_at(cap, sample_boundary_points(cap, rng, 1)[0]), id="paraboloid_cap"))
    cone = bodies.cone_over_circle()
    p = bodies.boundary_point_along(cone, [0.05, -0.25, 0.17])
    fd = chart_at(replace(cone, hessian=None), p)
    z = np.array([[0.0, 0.0], [0.3, -0.2], [-0.1, 0.4]]) * fd.domain_radius
    H = chart_at(cone, p).hessian(z)
    assert np.abs(fd.hessian(z) - H).max() <= 1e-9 * np.abs(H).max()
    cases.append(pytest.param(fd, id="cone_over_circle-finite-differences"))
    ell = _posed_quadrics(rng, 3)[0]
    ell_ch = chart_at(ell, sample_boundary_points(ell, rng, 1)[0])
    cases.append(pytest.param(align_chart(ell_ch, [0.6, 0.0, 0.8]).chart, id="align_chart"))
    cases.append(pytest.param(barrier_chart(ell_ch, 0.7), id="barrier_chart"))
    return cases


@pytest.mark.parametrize("chart", _stack_cases())
def test_stacked_chart_hessian_matches_points(chart):
    rng = np.random.default_rng(70)
    m = chart.dim_domain
    z = rng.normal(size=(40, m))
    z *= (rng.random(40) * 0.9 * chart.domain_radius / np.linalg.norm(z, axis=1))[:, None]
    stacked = chart.hessian(z)
    assert stacked.shape == (40, m, m)
    for zi, Hi in zip(z, stacked):
        H = chart.hessian(zi)
        assert np.abs(Hi - H).max() <= 1e-12 * max(1.0, float(np.abs(H).max()))
    assert chart.hessian(z[:0]).shape == (0, m, m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chart_hessian_matches_gradient_differences(n):
    # the graph-Hessian assembly against central differences of grad phi
    rng = np.random.default_rng(90 + n)
    for body in _posed_quadrics(rng, n):
        for b in (body, replace(body, quadric=None)):
            ch = chart_at(b, sample_boundary_points(body, rng, 1)[0])
            z = rng.normal(size=(5, n - 1))
            z *= (0.8 * ch.domain_radius / np.linalg.norm(z, axis=1))[:, None]
            h = 1e-5 * ch.domain_radius
            for zi, H in zip(z, ch.hessian(z)):
                fd = np.column_stack([
                    (ch.gradient(zi + h * e) - ch.gradient(zi - h * e)) / (2 * h)
                    for e in np.eye(n - 1)
                ])
                assert np.abs(H - fd).max() <= 1e-6 * max(1.0, float(np.abs(H).max()))


def _error_of(fn, arg):
    with pytest.raises((ChartError, DomainError)) as info:
        fn(arg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_chart_hessian_raises_like_points(n):
    # a stack raises what its first bad row raises as a point, through the
    # chart and through hess_phi directly, on the closed form and iterative path
    rng = np.random.default_rng(80 + n)
    for body in _posed_quadrics(rng, n):
        p = sample_boundary_points(body, rng, 1)[0]
        good = np.zeros(n - 1)
        miss = np.zeros(n - 1)
        miss[0] = 3.0 * body.bounding_radius  # fiber misses the body
        outside = np.zeros(n - 1)
        outside[-1] = 5.0 * body.bounding_radius  # beyond the wide domain
        for b in (body, replace(body, quadric=None)):
            ch = chart_at(b, p, domain_radius=4.0 * body.bounding_radius)
            for fn in (ch.hessian, ch.hess_phi):
                for bad in ((miss, outside), (outside, miss)):
                    stack = np.array([good, good, *bad])
                    assert _error_of(fn, stack) == _error_of(fn, bad[0])
                assert _error_of(fn, np.array([good, miss]))[0] is ChartError
                assert _error_of(fn, np.array([good, outside]))[0] is DomainError


def _hessian_free_cases():
    """Bodies whose charts have an analytic Hessian, to strip it from."""
    ell = _posed_quadrics(np.random.default_rng(61), 3)[0]
    return [
        pytest.param(bodies.paraboloid_cap(1.5, 0.8), id="paraboloid_cap"),
        pytest.param(bodies.kiselman(5, clamp_radius=0.45), id="kiselman-clamped"),
        pytest.param(replace(ell, quadric=None), id="ellipsoid-without-quadric"),
    ]


@pytest.mark.parametrize("body", _hessian_free_cases())
def test_chart_of_a_body_without_a_hessian_differences_the_body_gradient(body):
    # without a body Hessian the chart Hessian comes from central differences
    # of the stacked body gradient: one more gradient call per stack
    rng = np.random.default_rng(62)
    p = sample_boundary_points(body, rng, 1)[0]
    exact = chart_at(body, p)
    counted, calls = _counting(body)
    fd = chart_at(replace(counted, hessian=None), p, domain_radius=exact.domain_radius)
    m = exact.dim_domain
    z = rng.normal(size=(40, m))
    z *= (rng.random(40) * 0.9 * exact.domain_radius / np.linalg.norm(z, axis=1))[:, None]
    stacked, want = fd.hessian(z), exact.hessian(z)
    assert stacked.shape == (40, m, m)
    for zi, Hi, Wi in zip(z, stacked, want):
        scale = max(1.0, float(np.abs(Wi).max()))
        # differences turn a last-bit change of a stacked gradient into 1e-11
        assert np.abs(fd.hessian(zi) - Hi).max() <= 1e-10 * scale
        assert np.abs(Hi - Wi).max() <= 1e-9 * scale
    for n_samples in (1024, 4096):
        calls["gradient"] = 0
        L, theta = chart_constants(fd, n_samples, rng=3)
        assert (L, theta) == pytest.approx(chart_constants(exact, n_samples, rng=3), rel=1e-9)
        assert calls["gradient"] <= 16 * n_samples // 1024


@pytest.mark.parametrize("n", [3, 4, 5])
def test_graph_hessian_matches_the_broadcast_formula_bit_for_bit(n):
    # entry by entry over the stack, in the broadcast formula's order: a
    # nonsymmetric Hc shows any change of the order of terms
    rng = np.random.default_rng(n)
    gc = rng.normal(size=(1000, n))
    gc[:, -1] = 0.5 + rng.random(1000)
    Hc = rng.normal(size=(1000, n, n))
    got = bodies._graph_hessian(gc, Hc)
    assert got.shape == (1000, n - 1, n - 1)
    assert got.tobytes() == oracles.graph_hessian_broadcast(gc, Hc).tobytes()


def test_chart_without_a_hessian_is_refused():
    with pytest.raises(ParameterError, match="hess_phi"):
        bodies.ConcaveChart(
            dim_domain=2,
            phi=lambda z: -0.5 * np.vecdot(z, z),
            grad_phi=lambda z: -np.asarray(z, float),
            hess_phi=None,
            domain_radius=1.0,
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_point_along_posed_ellipsoid_matches_quadratic(n):
    # from the center c the ray c + s d meets the quadric at s = 1/sqrt(d^T A d)
    rng = np.random.default_rng(300 + n)
    semiaxes = rng.uniform(0.6, 1.8, size=n)
    R = oracles.random_rotation(rng, n)
    c = rng.normal(size=n)
    A, _ = oracles.quadric_of_ellipsoid(semiaxes, R, c)
    body, calls = _counting(bodies.ellipsoid(semiaxes, Pose(R, c)))
    for _ in range(40):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        calls["value"] = 0
        p = bodies.boundary_point_along(body, d)
        assert calls["value"] <= 16
        assert np.abs(p - (c + d / math.sqrt(d @ A @ d))).max() <= 1e-12


def test_boundary_point_along_errors():
    ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ParameterError):
        bodies.boundary_point_along(ball, [0.0, 0.0, 0.0])
    with pytest.raises(ChartError, match="interior"):
        bodies.boundary_point_along(replace(ball, center=np.array([0.0, 0.0, 2.0])), [1.0, 0.0, 0.0])
    # the unclamped Kiselman patch is unbounded below: no exit within 2R
    with pytest.raises(ChartError, match="does not exit"):
        bodies.boundary_point_along(bodies.kiselman(5), [0.0, 0.0, -1.0])
    # radial profiles that are not convex along the ray: from |x| = 4 the
    # first falls (slope < 0 where G > 0), the second's Newton step would
    # land behind the origin
    for profile, slope in (
        (lambda r: -math.cos(r), math.sin),
        (lambda r: 1.0 - 2.0 / (1.0 + r * r), lambda r: 4.0 * r / (1.0 + r * r) ** 2),
    ):
        wavy = bodies.ImplicitBody(
            dim=2,
            value=lambda p, f=profile: f(float(np.linalg.norm(p))),
            gradient=lambda p, df=slope: df(float(np.linalg.norm(p))) * p / np.linalg.norm(p),
            hessian=None,
            bounding_radius=2.0,
            center=np.zeros(2),
            convexity=bodies.Convexity.convex(),
        )
        with pytest.raises(ChartError, match="not convex"):
            bodies.boundary_point_along(wavy, [1.0, 0.0])


def test_boundary_point_along_empty_stack():
    # a quadric crosses in closed form, the cone by Newton: both give (0, n)
    ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    for body in (ball, bodies.ellipsoid([1.5, 1.0, 0.8]), bodies.cone_over_circle()):
        assert bodies.boundary_point_along(body, np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(ChartError, match="interior"):
        bodies.boundary_point_along(replace(ball, center=np.array([0.0, 0.0, 2.0])), np.empty((0, 3)))


@pytest.mark.parametrize(
    "body",
    [bodies.cone_over_circle(), bodies.cantor_contact(1e-3, 4)],
    ids=["cone_over_circle", "cantor_contact"],
)
def test_boundary_point_along_brackets_the_crossing_on_kinked_bodies(body):
    # G is only piecewise smooth here: the Newton iterates must still land
    # on the crossing, from the outside and not past it
    rng = np.random.default_rng(8)
    h = 1e-12 * body.bounding_radius
    for _ in range(30):
        d = rng.normal(size=body.dim)
        d /= np.linalg.norm(d)
        s = float(np.linalg.norm(bodies.boundary_point_along(body, d) - body.center))
        assert body.value_at(body.center + (s - h) * d) <= 0
        assert body.value_at(body.center + (s + h) * d) > 0


# ---------------------------------------------------------------------------
# the arc k-section


def _lit_at(a, rng):
    # a v with a . v > 0, at a random angle to a
    z = rng.normal(size=a.shape[0])
    return (0.2 + rng.random()) * a + z - (z @ a) * a


def _linear_probe(v, rounds):
    # flag d . v > 0, each direction its own data; records the rows of each round
    def probe(dirs):
        rounds.append(len(dirs))
        return dirs @ v > 0, dirs

    return probe


class _SpyRng:
    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def normal(self, size=None):
        self.draws.append(size)
        return self.rng.normal(size=size)


def test_arc_flip_returns_none_when_the_ends_do_not_bracket_a_flip():
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    lit = lambda dirs: (np.ones(len(dirs), bool), dirs)
    dark = lambda dirs: (np.zeros(len(dirs), bool), dirs)
    rounds = []
    backwards = _linear_probe(b - a, rounds)  # false at a, true at b
    for probe in (lit, dark, backwards):
        for guess in (None, lambda w, ang: 0.5):
            assert bodies._arc_flip(a, b, probe, np.random.default_rng(0), guess) is None
            assert bodies._arc_flip(a, -a, probe, np.random.default_rng(0), guess) is None
    # one whole-arc round without a guess, the guess's bracket and then the
    # whole arc with one, and no round after
    assert rounds == [65] * 6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arc_flip_draws_one_perpendicular_for_antipodal_ends(n):
    rng = np.random.default_rng(40 + n)
    a = rng.normal(size=n)
    a /= np.linalg.norm(a)
    v = _lit_at(a, rng)
    for guess in (None, lambda w, ang: 0.5):
        spy = _SpyRng(n)
        assert bodies._arc_flip(a, -a, _linear_probe(v, []), spy, guess) is not None
        assert spy.draws == [n]
        fresh = np.random.default_rng(n)
        fresh.normal(size=n)
        assert spy.rng.normal() == fresh.normal()  # the stream a later reader sees
    b = rng.normal(size=n)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    spy = _SpyRng(n)
    assert bodies._arc_flip(a, b, _linear_probe(a - b, []), spy) is not None
    assert spy.draws == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arc_flip_falls_back_to_the_whole_arc_when_the_guess_misses(n):
    # the flip of d . v on cos(theta) a + sin(theta) w is at
    # theta* = atan2(a . v, -w . v); a guess a quarter arc off its fraction
    # brackets no flip, so the search is the whole arc's, bit for bit
    rng = np.random.default_rng(50 + n)
    for _ in range(4):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        v = _lit_at(a, rng)
        exact = lambda w, ang: math.atan2(a @ v, -(w @ v)) / ang
        seed = int(rng.integers(1000))
        whole_rounds, hit_rounds = [], []
        whole = bodies._arc_flip(a, -a, _linear_probe(v, whole_rounds), np.random.default_rng(seed))
        hit = bodies._arc_flip(a, -a, _linear_probe(v, hit_rounds), np.random.default_rng(seed), exact)
        assert whole_rounds[0] == 65 and len(whole_rounds) > 3
        assert hit_rounds[0] == 65 and len(hit_rounds) <= 3
        assert np.abs(hit[0] - whole[0]).max() <= 1e-15
        for shift in (0.25, -0.25):
            rounds = []
            miss = bodies._arc_flip(
                a, -a, _linear_probe(v, rounds), np.random.default_rng(seed), lambda w, ang: exact(w, ang) + shift
            )
            assert rounds == [65] + whole_rounds
            assert all(np.array_equal(m, w) for m, w in zip(miss, whole))


def test_quadric_field_reproduces_oracles(rng):
    # chart_at trusts (A, c, rhs): it must describe the same G as the oracles
    R = oracles.random_rotation(rng)
    pose = Pose(R, np.array([0.4, -1.0, 2.0]))
    members = [
        bodies.ellipsoid([2.0, 1.0, 0.7]),
        bodies.ellipsoid([2.0, 1.0, 0.7], pose),
        instantiate(BodySpec("ellipsoid", {"semiaxes": [2.0, 1.0, 0.7]}, pose)),
        bodies.translated_ball([1.0, 0.0, -2.0], 1.3),
        bodies.translated_ball([1.0, 0.0, -2.0], 1.3, pose),
        instantiate(BodySpec("translated_ball", {"center": [1.0, 0.0, -2.0], "radius": 1.3}, pose)),
    ]
    for body in members:
        A, c, rhs = body.quadric
        for _ in range(40):
            x = body.center + 2.0 * body.bounding_radius * rng.normal(size=3)
            assert body.value_at(x) == pytest.approx(float((x - c) @ A @ (x - c)) - rhs, abs=1e-12)
            assert np.abs(body.gradient_at(x) - 2.0 * A @ (x - c)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quadric_oracles_match_the_pose_composed_local_oracles(n):
    # a posed quadric evaluates G, grad G and Hess G from its world quadric;
    # the local closed forms composed with the pose must agree to rounding,
    # on a point and on a stack
    rng = np.random.default_rng(60 + n)
    a, center, radius = rng.uniform(0.6, 1.8, n), rng.normal(size=n), float(rng.uniform(0.5, 2.0))
    w = 1.0 / a**2
    local_cases = [
        (  # the ellipsoid sum x_i^2 / a_i^2 <= 1
            lambda pose: bodies.ellipsoid(a, pose),
            lambda v: np.vecdot(v, w * v) - 1.0,
            lambda v: 2.0 * w * v,
            lambda v: np.zeros(v.shape[:-1] + (n, n)) + 2.0 * np.diag(w),
            float(w.max()),
        ),
        (  # the ball |x - c|^2 <= r^2
            lambda pose: bodies.translated_ball(center, radius, pose),
            lambda v: np.vecdot(v - center, v - center) - radius**2,
            lambda v: 2.0 * (v - center),
            lambda v: np.zeros(v.shape[:-1] + (n, n)) + 2.0 * np.eye(n),
            1.0,
        ),
    ]
    for make, value, gradient, hessian, a_norm in local_cases:
        for pose in (None, Pose(oracles.random_rotation(rng, n), rng.normal(size=n))):
            body = make(pose)
            R, t = (np.eye(n), np.zeros(n)) if pose is None else (pose.rotation, pose.translation)
            composed = (
                lambda x: value((x - t) @ R),
                lambda x: gradient((x - t) @ R) @ R.T,
                lambda x: R @ hessian((x - t) @ R) @ R.T,
            )
            x = body.center + 2.0 * body.bounding_radius * rng.normal(size=(25, n))
            A, c, rhs = body.quadric
            # no term of G, grad G or Hess G exceeds (2 + |x - c|^2) |A| + rhs
            mag = (2.0 + np.vecdot(x - c, x - c)) * a_norm + rhs
            for oracle, want_fn in zip((body.value, body.gradient, body.hessian), composed):
                for arg, bound in ((x, mag), (x[0], mag[0])):
                    got, want = np.asarray(oracle(arg)), want_fn(arg)
                    assert got.shape == want.shape
                    err = np.abs(got - want).reshape(np.shape(bound) + (-1,)).max(axis=-1)
                    assert (err <= 64.0 * np.finfo(float).eps * bound).all()


def test_rotation_with_last_axis_properties(rng):
    for _ in range(20):
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        R = rotation_with_last_axis(t)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)
        assert np.allclose(R[:, -1], t)


# ---------------------------------------------------------------------------
# specs and serialization


def test_bodyspec_json_roundtrip_and_self_check(rng):
    specs = [
        BodySpec("ellipsoid", {"semiaxes": [2.0, 1.0, 1.0]}),
        BodySpec("translated_ball", {"center": [0, 0, 3], "radius": 1.0}),
        BodySpec("kiselman", {"q": 3}),
        BodySpec("cone_over_circle"),
        BodySpec("cantor_contact", {"eps": 1e-4, "cantor_depth": 2, "side": "lambda"}),
        BodySpec("paraboloid_cap", {"curvature": 1.0, "height": 0.5}),
    ]
    for spec in specs:
        again = BodySpec.from_json(spec.to_json())
        assert again == spec
        body = instantiate(again)
        body_self_check(body, rng=rng, n_points=60)


def test_bodyspec_rejects_unknown_fields():
    with pytest.raises(SpecError):
        BodySpec.from_json('{"family": "ellipsoid", "params": {"semiaxes": [1,1,1]}, "extra": 1}')
    with pytest.raises(SpecError):
        BodySpec.from_json('{"family": "ellipsoid", "params": {"semiaxes": [1,1,1], "spin": 3}}')
    with pytest.raises(SpecError):
        BodySpec.from_json('{"family": "dodecahedron", "params": {}}')
    with pytest.raises(SpecError):
        BodySpec.from_json("not json at all")


_numbers = st.floats() | st.integers(-3, 13)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
# numbers, points and square matrices, so that specs also get past the type checks
_arrays = _numbers | st.lists(_numbers, max_size=5) | st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_numbers, min_size=n, max_size=n), min_size=n, max_size=n)
)


def _spec_document(family):
    allowed = bodies._spec_params(family)[0] if family in bodies._FAMILIES else ()
    params = st.fixed_dictionaries({}, optional={k: _arrays | _json for k in sorted(allowed)})
    pose = st.none() | st.fixed_dictionaries({"rotation": _arrays, "translation": _arrays}) | _json
    return st.fixed_dictionaries({"family": st.just(family), "params": params | _json, "pose": pose})


@given((st.sampled_from(sorted(bodies._FAMILIES)) | _json).flatmap(_spec_document))
def test_instantiate_returns_a_body_or_raises_umbra_error(doc):
    try:
        body = instantiate(BodySpec.from_dict(doc))
    except UmbraError:
        return
    assert isinstance(body, bodies.ImplicitBody)


def test_bodyspec_posed_instantiation(rng):
    R = oracles.random_rotation(rng)
    spec = BodySpec(
        "ellipsoid",
        {"semiaxes": [2.0, 1.0, 0.7]},
        Pose(R, np.array([1.0, -2.0, 0.5])),
    )
    body = instantiate(spec)
    A, c = oracles.quadric_of_ellipsoid([2.0, 1.0, 0.7], R, [1.0, -2.0, 0.5])
    for _ in range(40):
        x = rng.normal(size=3) * 2
        want = float((x - c) @ A @ (x - c)) - 1.0
        assert body.value_at(x) == pytest.approx(want, abs=1e-12)


def test_pose_validation():
    with pytest.raises(ParameterError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    R = np.eye(3)
    R[0, 0] = -1.0  # determinant -1
    with pytest.raises(ParameterError):
        Pose(R, np.zeros(3))


@pytest.mark.parametrize("big", [1e300, -1e300, 1e200, 2.0])
def test_huge_rotation_entry_is_refused_without_overflow_warning(big):
    # R R^T would overflow; an entry past 1 + 1e-5 alone already fails it
    R = np.eye(3)
    R[0, 0] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="rotation matrix is not orthogonal"):
            Pose(R, np.zeros(3))
        with pytest.raises(SpecError, match="rotation matrix is not orthogonal"):
            instantiate(BodySpec.from_dict(
                {"family": "ellipsoid", "params": {"semiaxes": [1.5, 1.0, 0.8]},
                 "pose": {"rotation": R.tolist(), "translation": [0.0, 0.0, 0.0]}}
            ))


def test_pose_orthogonality_check_matches_allclose():
    # the elementwise test accepts exactly what np.allclose(R R^T, I,
    # atol=1e-9) accepts, including near the tolerance and on NaN
    rng = np.random.default_rng(7)
    cases = []
    for n in (2, 3, 4):
        for scale in (0.0, 1e-11, 1e-10, 4e-10, 1e-9, 3e-9, 1e-6):
            R = oracles.random_rotation(rng, n)
            cases.append(R + scale * rng.normal(size=(n, n)))
    cases += [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]), np.diag([1.0 + 4.9e-6, 1.0, 1.0])]
    seen = set()
    for R in cases:
        with np.errstate(invalid="ignore"):
            want = bool(np.allclose(R @ R.T, np.eye(len(R)), atol=1e-9))
        try:
            with np.errstate(invalid="ignore"):
                Pose(R, np.zeros(len(R)))
            got = True
        except ParameterError as exc:
            got = "determinant" in str(exc)
        assert got == want
        seen.add(want)
    assert seen == {True, False}


def _posed_catalog():
    """Every catalog family, posed, in each dimension it allows."""
    rng = np.random.default_rng(12)
    pose = lambda n: Pose(oracles.random_rotation(rng, n), rng.normal(size=n))
    cases = []
    for n in (2, 3, 4, 5):
        cases.append(pytest.param(bodies.ellipsoid(rng.uniform(0.6, 1.8, n), pose(n)), id=f"ellipsoid-n{n}"))
        cases.append(pytest.param(bodies.translated_ball(rng.normal(size=n), 1.3, pose(n)), id=f"ball-n{n}"))
        cases.append(pytest.param(bodies.paraboloid_cap(1.5, 0.8, pose(n), dim=n), id=f"paraboloid_cap-n{n}"))
    cases.append(pytest.param(bodies.kiselman(5, pose=pose(3)), id="kiselman"))
    cases.append(pytest.param(bodies.kiselman(3, clamp_radius=0.45, pose=pose(3)), id="kiselman-clamped"))
    cases.append(pytest.param(bodies.cone_over_circle(pose(3)), id="cone_over_circle"))
    for side in ("omega", "lambda"):
        cases.append(pytest.param(bodies.cantor_contact(1e-3, 3, side, pose(2)), id=f"cantor_contact-{side}"))
    return cases


@pytest.mark.parametrize("body", _posed_catalog())
def test_stacked_oracles_match_points(body):
    # body and chart oracles on a stack agree with the same calls row by
    # row, and a chart stack raises what its first bad row raises
    rng = np.random.default_rng(13)
    n = body.dim
    x = body.center + body.bounding_radius * rng.uniform(-1.0, 1.0, size=(30, n))
    oracles_ = [body.value, body.gradient] + ([body.hessian] if body.hessian else [])
    for oracle in oracles_:
        stacked = oracle(x)
        for xi, got in zip(x, stacked):
            want = oracle(xi)
            assert np.shape(got) == np.shape(want)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))
    ch = chart_at(body, sample_boundary_points(body, rng, 1)[0])
    z = rng.normal(size=(30, n - 1))
    z *= (rng.random(30) * 0.9 * ch.domain_radius / np.linalg.norm(z, axis=1))[:, None]
    for query in (ch.value, ch.gradient):
        stacked = query(z)
        for zi, got in zip(z, stacked):
            want = query(zi)
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, float(np.abs(want).max()))
        outside = np.zeros(n - 1)
        outside[-1] = 1.5 * ch.domain_radius
        assert _error_of(query, np.vstack([z[:3], outside, -outside])) == _error_of(query, outside)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the (type, message) of its UmbraError."""
    try:
        return fn(*args)
    except UmbraError as exc:
        return type(exc), str(exc)


def _stack_vs_rows(fn, stack_args, row_args, close):
    """``fn`` on a stack raises what its first bad row raises as a point,
    else matches the point calls row by row; returns the point outcomes."""
    outcomes = [_outcome(fn, *a) for a in row_args]
    got = _outcome(fn, *stack_args)
    errs = [o for o in outcomes if isinstance(o, tuple)]
    if errs:
        assert got == errs[0]
    else:
        assert len(got) == len(outcomes)
        for row, want in zip(got, outcomes):
            close(row, want)
    return outcomes


@pytest.mark.parametrize("body", _posed_catalog())
def test_stacked_ray_crossings_match_points(body, request):
    # boundary_point_along, first_hitting_time and in_projection_shadow on a
    # stack agree with the same calls row by row: hits, misses and errors
    rng = np.random.default_rng(14)
    n, R, c = body.dim, body.bounding_radius, body.center
    bounded = request.node.callspec.id != "kiselman"  # the unclamped patch is unbounded below

    def same_point(got, want):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, R)

    def same_time(got, want):
        assert np.isnan(got) if want is None else abs(got - want) <= 1e-12 * max(1.0, want)

    def same_flag(got, want):
        assert bool(got) is want

    d = rng.normal(size=(24, n))
    zero_row = d.copy()
    zero_row[5] = 0.0
    crossing = lambda dirs: bodies.boundary_point_along(body, dirs)
    ys = _stack_vs_rows(crossing, (d,), [(di,) for di in d], same_point)
    assert _stack_vs_rows(crossing, (zero_row,), [(di,) for di in zero_row], same_point)[5][0] is ParameterError

    u = rng.normal(size=(24, n))
    y = c + 2.2 * R * u / np.linalg.norm(u, axis=1, keepdims=True)
    spread = np.where(np.arange(24) % 2, 0.2, 1.5)[:, None] / math.sqrt(n)
    nu = (c - y) / (2.2 * R) + spread * rng.normal(size=(24, n))
    hitting = lambda origins, dirs: pj.first_hitting_time(body, origins, dirs)
    times = _stack_vs_rows(hitting, (y, nu), list(zip(y, nu)), same_time)
    _stack_vs_rows(hitting, (y, nu[0]), [(yi, nu[0]) for yi in y], same_time)
    assert _stack_vs_rows(hitting, (y, zero_row), list(zip(y, zero_row)), same_time)[5][0] is ParameterError
    assert None in times and (any(isinstance(t, float) for t in times) or not bounded)

    # the target's points around ys[0] face the ball omega: some are shadowed
    ys = [yi for yi in ys if not isinstance(yi, tuple)]
    a = (ys[0] - c) / np.linalg.norm(ys[0] - c)
    omega = bodies.translated_ball(ys[0] + 1.2 * R * a, R)
    near = (_outcome(crossing, di) for di in a + 0.4 * rng.normal(size=(12, n)))
    ys = np.array(ys + [yi for yi in near if not isinstance(yi, tuple)])
    member = lambda pts: pj.in_projection_shadow(omega, body, pts)
    flags = _stack_vs_rows(member, (ys,), [(yi,) for yi in ys], same_flag)
    assert False in flags and (True in flags or not bounded)
    off = np.vstack([ys[:3], c + 0.5 * (ys[3] - c), ys[3:]])
    assert _stack_vs_rows(member, (off,), [(yi,) for yi in off], same_flag)[3][0] is DomainError


def _grazing(quadric, origins, directions):
    """Rows whose line grazes the quadric within round-off, where a hit and a
    miss are both right: the window ``shadowbench/reference.py`` skips."""
    A, c, rhs = quadric
    w = origins - c
    form = lambda x, y: np.einsum("ij,jk,ik->i", x, A, y)
    a2, a1, a0 = form(directions, directions), form(w, directions), form(w, w) - rhs
    scale = 1.0 + np.abs(a0) + a1 * a1 / a2 + np.linalg.norm(A, 2) * np.vecdot(w, w)
    return np.abs(a1 * a1 - a2 * a0) / a2 <= 64.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_rays_match_the_newton_kernel(n):
    # the quadric branch of the line kernel against its Newton loop on the
    # same body with the quadric stripped, on stacked rays that hit, miss,
    # start inside (t = 0) or cross past t_max
    rng = np.random.default_rng(500 + n)
    for body in _posed_quadrics(rng, n):
        newton = replace(body, quadric=None)
        R, c = body.bounding_radius, body.center
        u = rng.normal(size=(400, n))
        o = c + R * rng.uniform(0.2, 3.0, size=(400, 1)) * u / np.linalg.norm(u, axis=1, keepdims=True)
        d = (c - o) / R + 0.6 * rng.normal(size=(400, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t_max = rng.uniform(0.0, 2.5 * R, size=400)
        # and 10 rays tangent to the body, inside the grazing window
        p = bodies.boundary_point_along(body, rng.normal(size=(10, n)))
        grad = body.gradient(p)
        tau = rng.normal(size=(10, n))
        tau -= (np.vecdot(tau, grad) / np.vecdot(grad, grad))[:, None] * grad
        tau /= np.linalg.norm(tau, axis=1, keepdims=True)
        o, d, t_max = np.vstack([o, p - 1.5 * R * tau]), np.vstack([d, tau]), np.append(t_max, np.full(10, 3.0 * R))
        got, g = bodies._line_roots(body.value, body.gradient, o, d, t_max, body.quadric)
        want, _ = bodies._line_roots(newton.value, newton.gradient, o, d, t_max)
        sure = ~_grazing(body.quadric, o, d)
        assert sure.sum() >= 390 and not sure[400:].any()
        assert np.array_equal(got[sure] == 0, want[sure] == 0)
        assert np.array_equal(np.isnan(got[sure]), np.isnan(want[sure]))
        hit = sure & (got > 0)
        assert (np.abs(got[hit] - want[hit]) <= 1e-12 * want[hit]).all()
        inside = got == 0
        assert np.abs(g[inside] - body.value(o[inside])).max() <= 1e-12
        assert np.abs(g[hit]).max() <= 1e-12
        unbounded, _ = bodies._line_roots(body.value, body.gradient, o, d, np.inf, body.quadric)
        past = np.isnan(got) & (unbounded > 0)
        assert min(inside.sum(), hit.sum(), np.isnan(unbounded).sum(), past.sum()) >= 20

        # the public ray routines on the same stacks: times, misses and the
        # first bad row's error
        y, nu = o[sure & ~inside], d[sure & ~inside]
        bad_y, bad_nu = y.copy(), nu.copy()
        bad_nu[7] = 0.0
        bad_y[3] = c  # inside the body: raises before row 7's zero direction
        exterior, interior = o[np.isnan(unbounded)][0], o[inside][0]
        dirs = d.copy()
        dirs[5] = 0.0
        # rays from another origin: the same body centered there
        from_origin = lambda o: lambda b, dirs: bodies.boundary_point_along(replace(b, center=o), dirs)
        for fn, args in [
            (pj.first_hitting_time, (y, nu)),
            (pj.first_hitting_time, (y, nu[0])),
            (pj.first_hitting_time, (bad_y[4:], bad_nu[4:])),
            (pj.first_hitting_time, (bad_y, bad_nu)),
            (bodies.boundary_point_along, (d,)),
            (bodies.boundary_point_along, (dirs,)),
            (from_origin(interior), (d,)),
            (from_origin(exterior), (d,)),
        ]:
            closed, iterative = _outcome(fn, body, *args), _outcome(fn, newton, *args)
            if isinstance(iterative, tuple):
                assert closed == iterative
            else:
                np.testing.assert_allclose(closed, iterative, rtol=1e-12, atol=1e-15 * R)
        hitting = lambda *args: _outcome(pj.first_hitting_time, body, *args)
        assert hitting(bad_y, bad_nu) == (ParameterError, "ray origin lies inside the body")
        assert hitting(bad_y[4:], bad_nu[4:]) == (ParameterError, "zero ray direction")
        assert _outcome(bodies.boundary_point_along, body, dirs) == (ParameterError, "zero direction")
        assert _outcome(from_origin(exterior), body, d)[0] is ChartError


def test_quadric_rays_make_no_oracle_calls():
    # stacked rays on a posed ellipsoid are solved in closed form; bodies
    # without a quadric still run the Newton loop and land on the crossing
    rng = np.random.default_rng(17)
    ell = _posed_quadrics(rng, 3)[0]
    for body in (ell, bodies.kiselman(5), bodies.paraboloid_cap(1.5, 0.8)):
        counted, calls = _counting(body)
        R, c = body.bounding_radius, body.center
        dirs = rng.normal(size=(40, 3)) + [0.0, 0.0, 1.5]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        y = c + 2.0 * R * dirs
        nu = (c - y) / (2.0 * R)
        p = bodies.boundary_point_along(counted, dirs)
        t = pj.first_hitting_time(counted, y, nu)
        if body is ell:
            assert calls["value"] == calls["gradient"] == 0
        else:
            assert calls["value"] > 0 and calls["gradient"] > 0
        h = 1e-12 * R
        s = np.linalg.norm(p - c, axis=1)
        assert (body.value(c + (s - h)[:, None] * dirs) <= 0).all()
        assert (body.value(c + (s + h)[:, None] * dirs) > 0).all()
        assert not np.isnan(t).any()
        assert (body.value(y + (t - h)[:, None] * nu) > 0).all()
        assert (body.value(y + (t + h)[:, None] * nu) <= 0).all()


def test_far_chart_point_fails_without_overflow_warning():
    body = bodies.ellipsoid([1.5, 1.0, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="not on the boundary"):
            chart_at(body, [1e300, 0.0, 0.0])


def test_chart_radius_whose_square_overflows_is_refused():
    body = bodies.ellipsoid([1.5, 1.0, 0.8])
    for r in (1e300, 1e200):
        with pytest.raises(ParameterError, match="domain_radius"):
            chart_at(body, [1.5, 0.0, 0.0], domain_radius=r)
    assert chart_at(body, [1.5, 0.0, 0.0], domain_radius=1e150).domain_radius == 1e150


def test_stacked_cone_oracles_raise_on_the_axis():
    cone = bodies.cone_over_circle()
    apex = np.array([0.0, 1.0, 0.0])
    stack = np.array([[0.5, 0.2, 0.1], apex])
    for oracle in (cone.gradient, cone.hessian):
        with pytest.raises(DegeneratePointError) as point:
            oracle(apex)
        with pytest.raises(DegeneratePointError) as stacked:
            oracle(stack)
        assert str(stacked.value) == str(point.value)


def test_catalog_self_checks(rng):
    for body in catalog_members():
        body_self_check(body, rng=rng, n_points=60)


def test_uniform_convexity_violation_detected(rng):
    # mislabel a merely convex body as uniformly convex: check must fail
    base = bodies.paraboloid_cap(1.0, 0.5)
    from dataclasses import replace

    bad = replace(base, convexity=bodies.Convexity.uniformly_convex(1.0))
    with pytest.raises(ParameterError):
        body_self_check(bad, rng=rng, n_points=80)


def test_self_check_makes_one_stacked_pass_per_invariant(monkeypatch):
    # the number of stacked oracle calls does not grow with n_points; the
    # boundary sampler, which crosses one ray at a time, is not counted
    sample = bodies.sample_boundary_points
    ell = _posed_quadrics(np.random.default_rng(63), 3)[0]
    for body in (ell, bodies.kiselman(3, clamp_radius=0.45), bodies.cantor_contact(1e-4, 3)):
        counts = []
        for n_points in (40, 200):
            counted, calls = _counting(body)
            if body.hessian is None:
                counted = replace(counted, hessian=None)

            def uncounted(*args):
                before = dict(calls)
                pts = sample(*args)
                calls.update(before)
                return pts

            monkeypatch.setattr(bodies, "sample_boundary_points", uncounted)
            body_self_check(counted, rng=5, n_points=n_points)
            counts.append((calls["value"], calls["gradient"], calls["hessian"]))
        assert counts[0] == counts[1]
        assert counts[0][0] <= 3 and counts[0][1] <= 4 and counts[0][2] == 0


def _planar_body(value, gradient, convexity=bodies.Convexity.convex()):
    return bodies.ImplicitBody(
        dim=2, value=value, gradient=gradient, hessian=None, bounding_radius=1.5,
        center=np.zeros(2), convexity=convexity,
    )


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(  # |x|^2 - 1 + sin(4 x_0) / 2 bends down where sin(4 x_0) > 1/4
            _planar_body(
                lambda x: np.vecdot(x, x) - 1.0 + 0.5 * np.sin(4.0 * x[..., 0]),
                lambda x: 2.0 * x + np.stack([2.0 * np.cos(4.0 * x[..., 0]), np.zeros_like(x[..., 1])], axis=-1),
            ),
            "convexity violated", id="not-convex",
        ),
        pytest.param(  # the gradient of |x|^2 - 1, off by 10%
            _planar_body(lambda x: np.vecdot(x, x) - 1.0, lambda x: 2.2 * x),
            "gradient disagrees with finite differences", id="wrong-gradient",
        ),
        pytest.param(  # the flat lid of a cap: pairs on it have ratio 0
            replace(bodies.paraboloid_cap(1.0, 0.5), convexity=bodies.Convexity.strictly_convex()),
            "strict monotonicity failed", id="not-strictly-convex",
        ),
    ],
)
def test_self_check_names_the_failed_invariant(body, message):
    with pytest.raises(ParameterError, match=message):
        body_self_check(body, rng=9, n_points=80)


@pytest.mark.parametrize("n_points", [0, -2])
def test_self_check_refuses_sample_counts_below_one(n_points):
    with pytest.raises(ParameterError, match="n_points"):
        body_self_check(bodies.translated_ball([0.0, 0.0, 0.0], 1.0), rng=0, n_points=n_points)
