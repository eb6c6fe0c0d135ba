import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umbra import bodies
from umbra.bodies import chart_at
from umbra.errors import FlatCurveError, ParameterError
from umbra.illumination import Direction, ShadowCurve, shadow_boundary_sweep
from umbra.regularity import (
    box_dimension,
    chart_constants,
    cusp_check,
    holder_fit,
)

import oracles


def synthetic_curve(radii, values, center_value=0.0):
    """Graph samples (with the center) packaged as a shadow curve."""
    ypp = np.concatenate([radii, -radii, [0.0]]).reshape(-1, 1)
    gamma = np.concatenate([values, values, [center_value]])
    resid = np.zeros(len(gamma))
    return ShadowCurve(
        ypp=ypp, gamma=gamma, residual=resid, chart_frame=None, tol_root=1e-12
    )


def dyadic_radii(kmin=4, kmax=12):
    return np.array([2.0**-k for k in range(kmin, kmax + 1)])


# ---------------------------------------------------------------------------
# Hoelder fits


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_holder_fit_recovers_exact_power(beta):
    r = dyadic_radii()
    curve = synthetic_curve(r, r**beta)
    fit = holder_fit(curve, [0.0])
    assert fit.alpha_hat == pytest.approx(beta, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.C_hat == pytest.approx(1.0, rel=1e-9)


def test_holder_fit_scale_window_and_counts():
    r = dyadic_radii()
    fit = holder_fit(synthetic_curve(r, 3.0 * r**0.5), [0.0])
    assert fit.scale_window == (2.0**-12, 2.0**-4)
    assert fit.n_points == 2 * len(r)
    assert fit.C_hat == pytest.approx(3.0, rel=1e-9)


def test_holder_fit_flat_curve_errors():
    r = dyadic_radii()
    with pytest.raises(FlatCurveError):
        holder_fit(synthetic_curve(r, np.zeros_like(r)), [0.0])


def test_holder_fit_needs_enough_scales():
    r = np.array([0.5, 0.25, 0.125, 0.0625, 0.5 * 0.9, 0.26, 0.13, 0.07])
    with pytest.raises(ParameterError):
        holder_fit(synthetic_curve(r[:3], r[:3] ** 0.5), [0.0])
    # 8 distances but spanning less than 3 dyadic scales
    r2 = np.linspace(0.1, 0.2, 8)
    with pytest.raises(ParameterError):
        holder_fit(synthetic_curve(r2, r2**0.5), [0.0])


def test_holder_fit_center_must_be_sampled():
    r = dyadic_radii()
    with pytest.raises(ParameterError):
        holder_fit(synthetic_curve(r, r**0.5), [0.33])


def _root_curve(n=65):
    """n samples of |y|^(1/2) on [-1/2, 1/2], the center 0 among them."""
    y = np.linspace(-0.5, 0.5, n)
    return ShadowCurve(
        ypp=y[:, None], gamma=np.sqrt(np.abs(y)), residual=np.zeros(n), chart_frame=None,
        tol_root=1e-12,
    )


_DIAGNOSTICS = [
    pytest.param(holder_fit, id="holder_fit"),
    pytest.param(lambda curve, center: cusp_check(curve, center, 1.0, 1.0, 1.0), id="cusp_check"),
]


@pytest.mark.parametrize("center", [[0.0, 0.0], [], [[0.0]]])
@pytest.mark.parametrize("diagnostic", _DIAGNOSTICS)
def test_center_of_another_dimension_is_refused(diagnostic, center):
    # [0, 0] would broadcast against the (65, 1) samples into a wrong fit
    with pytest.raises(ParameterError, match=r"center has shape .*, expected \(1,\)"):
        diagnostic(_root_curve(), center)


@pytest.mark.parametrize("where", ["ypp", "gamma", "center"])
@pytest.mark.parametrize("diagnostic", _DIAGNOSTICS)
def test_non_finite_samples_or_center_are_refused(diagnostic, where):
    # a NaN y'' would otherwise be taken for the center by argmin
    curve, center = _root_curve(41), np.zeros(1)
    ypp, gamma = curve.ypp.copy(), curve.gamma.copy()
    {"ypp": ypp[:, 0], "gamma": gamma, "center": center}[where][0] = math.nan
    with pytest.raises(ParameterError, match="finite"):
        diagnostic(replace(curve, ypp=ypp, gamma=gamma), center)


def test_holder_fit_caps_super_lipschitz():
    r = dyadic_radii()
    fit = holder_fit(synthetic_curve(r, r**2), [0.0])
    assert fit.alpha_hat == 1.5
    assert fit.slope_raw == pytest.approx(2.0, abs=1e-9)
    assert fit.super_lipschitz


def test_kiselman_fit_hits_two_thirds():
    body = bodies.kiselman(3)
    ch = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.48)
    u = Direction(np.array([0.0, 1.0, 0.0]))
    grid = np.array([s * 2.0**-k for k in range(4, 13) for s in (1.0, -1.0)] + [0.0])
    curve = shadow_boundary_sweep(ch, u, grid)
    fit = holder_fit(curve, [0.0])
    assert abs(fit.alpha_hat - 2.0 / 3.0) < 0.05
    assert fit.r_squared >= 0.999


def test_ellipsoid_fit_is_lipschitz_regime(rng):
    # generic pose and light so the boundary graph is genuinely sloped
    from umbra.illumination import shadow_horizon_point

    body = bodies.ellipsoid([1.7, 1.0, 0.9], bodies.Pose(oracles.random_rotation(rng), np.zeros(3)))
    u = Direction.normalized([1.0, 0.4, -0.3])
    p = shadow_horizon_point(body, u, rng)
    ch = chart_at(body, p, domain_radius=0.4)
    radii = 0.02 * dyadic_radii(0, 8)
    grid = np.concatenate([radii, -radii, [0.0]])
    curve = shadow_boundary_sweep(ch, u, grid)
    fit = holder_fit(curve, [0.0])
    assert fit.alpha_hat >= 0.95


# ---------------------------------------------------------------------------
# cusp certificates


def test_cusp_check_passes_below_cusp():
    r = dyadic_radii(2, 10)
    curve = synthetic_curve(r, 0.5 * r)  # Lipschitz graph under slope 1
    cert = cusp_check(curve, [0.0], L=1.0, theta=1.0, alpha=1.0)
    assert cert.passed and cert.violations == 0
    assert cert.samples == len(curve.gamma)


def test_cusp_check_counts_constructed_violations():
    r = dyadic_radii(2, 10)
    L, theta, alpha = 1.0, 2.0, 0.5
    curve = synthetic_curve(r, 2.0 * (L / theta) * r**alpha)
    cert = cusp_check(curve, [0.0], L=L, theta=theta, alpha=alpha)
    assert cert.violations == 2 * len(r)  # every off-center sample violates
    assert not cert.passed


def test_cusp_check_missing_parameters():
    r = dyadic_radii()
    curve = synthetic_curve(r, r**0.5)
    with pytest.raises(ParameterError):
        cusp_check(curve, [0.0], L=None, theta=1.0, alpha=1.0)
    with pytest.raises(ParameterError):
        cusp_check(curve, [0.0], L=1.0, theta=-1.0, alpha=1.0)
    with warnings.catch_warnings():  # a finite L and theta whose ratio overflows
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="L / theta"):
            cusp_check(curve, [0.0], L=1e308, theta=1e-308, alpha=1.0)
        far = synthetic_curve(1e10 * r, r)  # a finite slope whose bound overflows far out
        assert cusp_check(far, [0.0], L=1e308, theta=1.0, alpha=1.0).passed


def test_kiselman_defeats_any_uniform_concavity_claim():
    # the boundary graph |x|^(2/3) crosses any linear cone (L/theta)|x| once
    # |x| < (theta/L)^3, so every claimed theta is defeated at small enough
    # scales: exactly why uniform convexity cannot be dropped
    body = bodies.kiselman(3)
    ch = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.48)
    u = Direction(np.array([0.0, 1.0, 0.0]))
    L = 9.5  # gradient Lipschitz bound of the chart on its domain
    for theta, kmax in ((2.0, 12), (0.5, 15)):
        crossover = (theta / L) ** 3
        grid = np.array([s * 2.0**-k for k in range(4, kmax + 1) for s in (1.0, -1.0)] + [0.0])
        curve = shadow_boundary_sweep(ch, u, grid)
        cert = cusp_check(curve, [0.0], L=L, theta=theta, alpha=1.0)
        assert cert.violations > 0
        dist = np.linalg.norm(curve.ypp, axis=1)
        excess = curve.gamma - (L / theta) * dist
        assert dist[excess > 1e-9].max() <= crossover * 1.0001  # small scales only


# ---------------------------------------------------------------------------
# box dimension


def test_box_dimension_repeated_point():
    pts = np.zeros((150, 3))
    est = box_dimension(pts, [0.01, 0.02, 0.05, 0.11], rng=0)
    assert est.d_hat == pytest.approx(0.0, abs=1e-12)


def test_box_dimension_circle(rng):
    t = rng.uniform(0, 2 * math.pi, 4000)
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    est = box_dimension(pts, np.geomspace(0.02, 0.4, 8), rng=0)
    assert abs(est.d_hat - 1.0) < 0.15
    assert np.all(np.diff(est.counts) <= 0)


def test_box_dimension_sphere_patch(rng):
    # sampling must outresolve the smallest scale and the cap must span many
    # boxes at the largest one
    pts = oracles.fibonacci_sphere(100_000)
    pts = pts[pts[:, 2] > -0.2]
    est = box_dimension(pts, np.geomspace(0.04, 0.45, 8), rng=0)
    assert abs(est.d_hat - 2.0) < 0.15


def test_box_dimension_subset_monotone(rng):
    t = rng.uniform(0, 2 * math.pi, 4000)
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    scales = np.geomspace(0.02, 0.4, 8)
    full = box_dimension(pts, scales, rng=0)
    sub = box_dimension(pts[::2], scales, rng=0)
    assert sub.d_hat <= full.d_hat + 0.1


def _tuple_counts(pts, scales, seed, n_offsets=4):
    """Mean occupied-box count at each scale, as sets of index tuples."""
    offsets = np.random.default_rng(seed).random((n_offsets, pts.shape[1]))
    lo = pts.min(axis=0)
    return [
        np.mean([
            len({tuple(row) for row in np.floor((pts - (lo - off * eps)) / eps).astype(np.int64)})
            for off in offsets
        ])
        for eps in np.sort(scales)
    ]


def test_box_dimension_counts_distinct_boxes():
    # coarse grid values with many repeated rows, negative coordinates and
    # boxes that differ in one axis only, counted against a set of tuples
    rng = np.random.default_rng(5)
    pts = np.round(rng.normal(size=(3000, 3)), 1) - 2.0
    scales = [0.05, 0.1, 0.3, 0.7, 2.0]
    est = box_dimension(pts, scales, rng=9)
    assert est.counts.tolist() == _tuple_counts(pts, scales, 9)


@pytest.mark.parametrize("d", [2, 5])
def test_box_dimension_key_counts_match_tuples(d):
    # the mixed-radix keys count what the index tuples count in the plane
    # and in R^5 too, with negative coordinates and repeated rows
    rng = np.random.default_rng(d)
    pts = np.round(rng.normal(size=(2000, d)), 1) - 3.0
    pts = np.concatenate([pts, pts[:500]])
    scales = [0.03, 0.1, 0.25, 0.6, 1.5]
    est = box_dimension(pts, scales, rng=d)
    assert est.ambient_dim == d
    assert est.counts.tolist() == _tuple_counts(pts, scales, d)


def test_box_dimension_overflowing_key_falls_back_to_row_sorts(monkeypatch):
    # at the finest scale each column needs about 2**13.3 indices, so the
    # five-column key would need 2**66: that scale alone sorts rows
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.random((600, 5)), -rng.random((600, 5))])
    pts[::7] = pts[1::7]  # repeated rows
    scales = [2e-4, 6e-4, 2e-3, 2e-2]
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    est = box_dimension(pts, scales, rng=4)
    assert len(calls) == 4  # one row sort per offset, at the finest scale only
    assert est.counts.tolist() == _tuple_counts(pts, scales, 4)


def _integer_cloud(radices, n=400):
    """Integer points whose column j spans 0 .. radices[j] - 1, both ends included."""
    rng = np.random.default_rng(len(radices))
    pts = np.column_stack([rng.integers(0, r, n) for r in radices]).astype(float)
    pts[0], pts[1] = 0.0, np.array(radices) - 1.0
    return pts


@pytest.mark.parametrize(
    "radices",
    [
        pytest.param((46341, 46340), id="int32-keys-2**31-41708"),
        pytest.param((46341, 46341), id="int64-keys-2**31+4633"),
        pytest.param((2**31 + 4633,), id="int64-keys-one-column"),  # no int32 cast could take its indices
        pytest.param((2**31, 1), id="radix-2**31-first"),
        pytest.param((1, 2**31), id="radix-2**31-last"),  # an int32 key could not take this multiplier
    ],
)
def test_box_dimension_key_width_counts_match_tuples(radices):
    # at eps = 1 column j of an integer cloud needs radices[j] indices, so the
    # finest scale's key range is their product, on either side of 2**31
    pts = _integer_cloud(radices)
    scales = [1.0, 3.0, 10.0, 30.0]
    offsets = np.random.default_rng(7).random((4, len(radices)))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    assert np.floor(hi - (lo - offsets)).max(axis=0).tolist() == [r - 1 for r in radices]
    est = box_dimension(pts, scales, rng=7)
    assert est.counts.tolist() == _tuple_counts(pts, scales, 7)


def test_box_dimension_parameter_errors():
    pts = np.random.default_rng(0).normal(size=(150, 2))
    with pytest.raises(ParameterError):
        box_dimension(pts[:50], [0.01, 0.02, 0.05, 0.2])
    with pytest.raises(ParameterError):
        box_dimension(pts, [0.01, 0.02, 0.05])
    with pytest.raises(ParameterError):
        box_dimension(pts, [0.01, 0.02, 0.04, 0.08])  # less than a decade


def _with(*cells):
    """A 150-point normal cloud in the plane with the given (row, col, value) cells."""
    pts = np.random.default_rng(0).normal(size=(150, 2))
    for i, j, v in cells:
        pts[i, j] = v
    return pts


@pytest.mark.parametrize(
    "pts, scales, names",
    [
        pytest.param(_with((3, 1, np.nan)), [0.01, 0.02, 0.05, 0.2], "points", id="nan-point"),
        pytest.param(_with((0, 0, np.inf)), [0.01, 0.02, 0.05, 0.2], "points", id="inf-point"),
        pytest.param(np.zeros((150, 0)), [0.01, 0.02, 0.05, 0.2], "points", id="no-columns"),
        pytest.param(_with(), [1e-19, 1e-18, 1e-17, 1e-16], "scales", id="indices-past-2**62"),
        pytest.param(_with(), [5e-324, 1e-320, 1e-310, 1e-300], "scales", id="subnormal-scale"),
        pytest.param(_with(), [5e-324, 1e-320, 1e-310, 1e300], "scales", id="subnormal-scale-span-overflows"),
        pytest.param(_with((0, 0, 1.5e308), (1, 0, -1.5e308)), [0.01, 0.02, 0.05, 0.2], "points and scales",
                     id="extent-overflows"),
        pytest.param(_with() - 1e308, [1e307, 1e308, 1.5e308, 1.7e308], "points and scales",
                     id="grid-shift-overflows"),
    ],
)
def test_box_dimension_bad_input_fails_without_warning(pts, scales, names):
    # the boxes would be indexed by NaN or overflowed floats: refused
    # before any numpy cast can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=names):
            box_dimension(pts, scales, rng=0)


# ---------------------------------------------------------------------------
# chart constants


def test_chart_constants_sphere():
    ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    ch = chart_at(ball, [0.0, 0.0, -1.0], domain_radius=0.6)
    L, theta = chart_constants(ch, n_samples=2000, rng=0)
    # curvature 1 at the pole; both constants grow toward the domain rim
    assert theta == pytest.approx(1.0, abs=0.02)
    assert 1.0 <= L <= (1 - 0.6**2) ** -1.5 + 0.05


def test_chart_constants_require_uniform_concavity():
    flat = bodies.ConcaveChart(
        dim_domain=2,
        phi=lambda z: np.zeros(np.shape(z)[:-1]),
        grad_phi=lambda z: np.zeros(np.shape(z)),
        hess_phi=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2)),
        domain_radius=1.0,
    )
    with pytest.raises(ParameterError, match="uniformly concave"):
        chart_constants(flat, n_samples=100, rng=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chart_constants_ball_closed_form(n):
    # the ball chart phi = sqrt(rho^2 - |x|^2) - rho has Hessian eigenvalues
    # -1/s and -rho^2/s^3 with s = sqrt(rho^2 - |x|^2)
    rho = 1.7
    pose = bodies.Pose(oracles.random_rotation(np.random.default_rng(n), n), np.arange(n, dtype=float))
    ball = bodies.translated_ball(np.zeros(n), rho, pose)
    p = pose.to_world(np.append(np.zeros(n - 1), rho))
    r_dom = 0.6 * rho
    ch = chart_at(ball, p, domain_radius=r_dom)
    L, theta = chart_constants(ch, n_samples=2000, rng=n)
    r_max = 0.95 * r_dom
    assert 1.0 / rho <= theta <= 1.01 / rho
    assert L <= rho**2 / (rho**2 - r_max**2) ** 1.5
    # stacked closed form against the row-by-row iterative chart
    L_it, theta_it = chart_constants(
        chart_at(replace(ball, quadric=None), p, domain_radius=r_dom), n_samples=2000, rng=n
    )
    assert L == pytest.approx(L_it, rel=1e-12)
    assert theta == pytest.approx(theta_it, rel=1e-12)


def test_chart_constants_parameter_errors():
    ch = chart_at(bodies.translated_ball([0.0, 0.0, 0.0], 1.0), [0.0, 0.0, -1.0], domain_radius=0.6)
    for n_samples in (0, 2.5, math.nan):  # a non-integer count raised numpy's TypeError
        with pytest.raises(ParameterError, match="n_samples"):
            chart_constants(ch, n_samples=n_samples, rng=0)
    pointwise = replace(ch, hess_phi=lambda z: -np.eye(2))  # ignores the stack
    with pytest.raises(ParameterError, match="shape"):
        chart_constants(pointwise, n_samples=10, rng=0)


def _constant_hessian_chart(hess_phi):
    return bodies.ConcaveChart(
        dim_domain=2,
        phi=lambda z: np.zeros(np.shape(z)[:-1]),
        grad_phi=lambda z: np.zeros(np.shape(z)),
        hess_phi=hess_phi,
        domain_radius=1.0,
    )


@pytest.mark.parametrize(
    "where, bad", [("everywhere", math.nan), ("one row", math.nan), ("one row", math.inf)]
)
def test_chart_constants_refuse_non_finite_hessians(where, bad):
    # a NaN row made its block's extremes NaN, which Python's max and min
    # then dropped: NaN everywhere read (L, theta) = (0, inf)
    blocks = []

    def hess_phi(z):
        H = np.zeros(np.shape(z)[:-1] + (2, 2)) - np.eye(2)
        if where == "everywhere":
            H[:] = bad
        elif not blocks:  # one row of the first block only
            H[5, 1, 0] = bad
        blocks.append(len(z))
        return H

    with pytest.raises(ParameterError, match="not finite"):
        chart_constants(_constant_hessian_chart(hess_phi), n_samples=2000, rng=0)


@pytest.mark.parametrize("seed", range(4))
def test_chart_constants_equal_full_eigvalsh_on_posed_ellipsoids(seed):
    # on 2-D domains eigvalsh runs only on the rows that the closed-form
    # 2 x 2 eigenvalues single out, yet L and theta are those of eigvalsh on
    # every row; 1500 samples leave a partial last block
    rng = np.random.default_rng(seed)
    a = 0.8 + rng.random(3)
    body = bodies.ellipsoid(a, bodies.Pose(oracles.random_rotation(rng, 3), rng.normal(size=3)))
    p = bodies.sample_boundary_points(body, rng, 1)[0]
    ch = chart_at(body, p, domain_radius=0.35 * float(a.min()))
    assert chart_constants(ch, n_samples=1500, rng=seed) == oracles.chart_constants_eigvalsh(ch, 1500, seed)


def test_chart_constants_equal_full_eigvalsh_when_every_row_ties():
    H = np.array([[-2.0, 0.3], [0.3, -0.5]])
    ch = _constant_hessian_chart(lambda z: np.zeros(np.shape(z)[:-1] + (2, 2)) + H)
    assert chart_constants(ch, n_samples=1500, rng=0) == oracles.chart_constants_eigvalsh(ch, 1500, 0)
