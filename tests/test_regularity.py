import math
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
        ypp=ypp, gamma=gamma, residual=resid, direction=None, chart_frame=None, tol_root=1e-12
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


def test_box_dimension_counts_distinct_boxes():
    # coarse grid values with many repeated rows, negative coordinates and
    # boxes that differ in one axis only, counted against a set of tuples
    rng = np.random.default_rng(5)
    pts = np.round(rng.normal(size=(3000, 3)), 1) - 2.0
    scales = [0.05, 0.1, 0.3, 0.7, 2.0]
    est = box_dimension(pts, scales, rng=9)
    offsets = np.random.default_rng(9).random((4, 3))
    lo = pts.min(axis=0)
    for eps, count in zip(scales, est.counts):
        boxes = [
            len({tuple(row) for row in np.floor((pts - (lo - off * eps)) / eps).astype(np.int64)})
            for off in offsets
        ]
        assert count == np.mean(boxes)


def test_box_dimension_parameter_errors():
    pts = np.random.default_rng(0).normal(size=(150, 2))
    with pytest.raises(ParameterError):
        box_dimension(pts[:50], [0.01, 0.02, 0.05, 0.2])
    with pytest.raises(ParameterError):
        box_dimension(pts, [0.01, 0.02, 0.05])
    with pytest.raises(ParameterError):
        box_dimension(pts, [0.01, 0.02, 0.04, 0.08])  # less than a decade


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
        phi=lambda z: 0.0,
        grad_phi=lambda z: np.zeros(2),
        hess_phi=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2)),
        domain_radius=1.0,
    )
    with pytest.raises(ParameterError, match="uniformly concave"):
        chart_constants(flat, n_samples=100, rng=0)


@pytest.mark.parametrize("n", [3, 4, 5])
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
    for kwargs in ({"n_samples": 0}, {"radius_frac": 0.0}, {"radius_frac": 1.5}):
        with pytest.raises(ParameterError):
            chart_constants(ch, rng=0, **kwargs)
    pointwise = replace(ch, hess_phi=lambda z: -np.eye(2))  # ignores the stack
    with pytest.raises(ParameterError, match="shape"):
        chart_constants(pointwise, n_samples=10, rng=0)
