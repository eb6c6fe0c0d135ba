import math
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
)
from umbra.illumination import align_chart
from umbra.projection import barrier_chart

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
    for b in (
        bodies.ellipsoid([1.5, 1.0, 0.8]),
        bodies.translated_ball([0, 1, 0], 1.2),
        bodies.kiselman(3),
    ):
        p = (
            sample_boundary_points(b, rng, 1)[0]
            if b.bounded
            else np.zeros(3)
        )
        ch = chart_at(b, p)
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
        nu_chart = ch.normal_world(xp)
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
    """The body with oracles that count their calls (quadric kept)."""
    calls = {"n": 0}

    def counted(fn):
        def wrapped(x):
            calls["n"] += 1
            return fn(x)

        return wrapped

    return replace(
        body,
        value=counted(body.value),
        gradient=counted(body.gradient),
        hessian=counted(body.hessian),
    ), calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadric_chart_matches_iterative_chart(n):
    # closed-form fibers against the safeguarded-Newton path of the same body
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
    assert not fd.has_hessian
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
