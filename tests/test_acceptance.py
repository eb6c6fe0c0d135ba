"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line.  Criteria 4, 5 and 7 share the traced random pairs."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from umbra import bodies, counterexamples as cx, projection as pj, regularity as rg
from umbra.bodies import Pose, body_self_check, chart_at, sample_boundary_points
from umbra.cli import main
from umbra.illumination import (
    Direction,
    align_chart,
    shadow_boundary_sweep,
    shadow_horizon_point,
)

import oracles

_SHARED = {}


def _report(num, elapsed, detail):
    print(f"[criterion {num}] PASS ({elapsed:.2f} s): {detail}")


# ---------------------------------------------------------------------------
# 1. Kiselman exponents


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_1_kiselman_exponents(q):
    t0 = time.perf_counter()
    body = bodies.kiselman(q)
    chart = chart_at(body, [0.0, 0.0, 0.0], domain_radius=0.48)
    u = Direction(np.array([0.0, 1.0, 0.0]))
    grid = np.array([s * 2.0**-k for k in range(4, 13) for s in (1.0, -1.0)] + [0.0])
    curve = shadow_boundary_sweep(chart, u, grid)
    fit = rg.holder_fit(curve, [0.0])
    elapsed = time.perf_counter() - t0
    assert abs(fit.alpha_hat - 2.0 / q) <= 0.05
    assert fit.r_squared >= 0.999
    assert elapsed <= 5.0
    _report(1, elapsed, f"q={q}: alpha_hat={fit.alpha_hat:.4f} (target {2 / q:.4f}), r2={fit.r_squared:.6f}")


# ---------------------------------------------------------------------------
# 2. uniform convexity gives the Lipschitz regime and a clean cusp


def test_criterion_2_uniformly_convex_regularity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    results = []
    for _ in range(3):
        semiaxes = rng.uniform(0.8, 1.8, size=3)
        body = bodies.ellipsoid(semiaxes, Pose(oracles.random_rotation(rng), np.zeros(3)))
        for _ in range(3):
            u = Direction.normalized(rng.normal(size=3))
            p = shadow_horizon_point(body, u, rng)
            chart = chart_at(body, p, domain_radius=0.35 * float(semiaxes.min()))
            L, theta = rg.chart_constants(chart, n_samples=10_000, rng=rng)

            # cusp certificate on 256 samples within the span where the
            # certified cone stays inside the chart
            span = min(0.45 * chart.domain_radius, 0.5 * chart.domain_radius * theta / L)
            sweep = shadow_boundary_sweep(chart, u, np.linspace(-span, span, 257))
            assert len(sweep) >= 256
            cert = rg.cusp_check(sweep, [0.0], L=L, theta=theta, alpha=1.0)
            assert cert.violations == 0

            radii = (0.1 * span) * np.array([2.0**-k for k in range(0, 9)])
            grid = np.concatenate([radii, -radii, [0.0]])
            fit = rg.holder_fit(shadow_boundary_sweep(chart, u, grid), [0.0])
            assert fit.alpha_hat >= 0.95
            results.append((fit.alpha_hat, cert.violations, L / theta))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    _report(
        2,
        elapsed,
        f"9 ellipsoid/direction combos: min alpha_hat={min(r[0] for r in results):.3f}, "
        f"0 cusp violations over {9 * 257} samples",
    )


# ---------------------------------------------------------------------------
# 3. monotonicity and sign structure, randomized


def test_criterion_3_monotonicity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    charts = []
    for spec in ([1.5, 1.0, 0.8], [1.0, 1.0, 1.0], [2.0, 1.2, 0.9], [0.9, 0.8, 1.6]):
        body = bodies.ellipsoid(spec, Pose(oracles.random_rotation(rng), np.zeros(3)))
        p = sample_boundary_points(body, rng, 1)[0]
        charts.append(chart_at(body, p))
    kis = bodies.kiselman(3)
    charts.append(chart_at(kis, [0.0, 0.0, 0.0], domain_radius=0.45))

    n_cases = 10_000
    violations = 0
    per_chart = n_cases // len(charts)
    for chart in charts:
        for _ in range(per_chart):
            # construct a direction whose boundary passes through a sampled
            # interior point: its fiber coordinate is the exact root
            xi = rng.normal(size=2)
            xi *= rng.random() * 0.5 * chart.domain_radius / np.linalg.norm(xi)
            that = rng.normal(size=2)
            that /= np.linalg.norm(that)
            slope0 = float(np.dot(chart.gradient(xi), that))
            u_chart = np.append(that, slope0)
            u_chart /= np.linalg.norm(u_chart)
            u = Direction(chart.pose.rotate_to_world(u_chart))
            frame = align_chart(chart, u)
            z = frame.chart.pose.to_local(chart.pose.to_world(np.append(xi, chart.value(xi))))[:-1]
            zpp, t_root = z[:-1], z[-1]
            T = math.sqrt(frame.chart.domain_radius**2 - float(np.dot(zpp, zpp)))
            t = rng.uniform(-0.95 * T, 0.95 * T)
            delta = rng.uniform(0.0, max(0.95 * T - t, 0.0))
            member_low = frame.slope(np.append(zpp, t)) < 0
            member_high = frame.slope(np.append(zpp, t + delta)) < 0
            if member_low and not member_high:
                violations += 1
            if t > t_root + 1e-9 and frame.slope(np.append(zpp, t)) >= 1e-9:
                violations += 1
            if t < t_root - 1e-9 and frame.slope(np.append(zpp, t)) <= -1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    _report(3, elapsed, f"{per_chart * len(charts)} randomized cases, 0 violations")


# ---------------------------------------------------------------------------
# 4. traced boundary vs brute-force raster


def _random_quadric_pair(rng):
    lam_axes = rng.uniform(0.8, 1.3, size=3)
    lam_rot = oracles.random_rotation(rng)
    lam = bodies.ellipsoid(lam_axes, Pose(lam_rot, np.zeros(3)))
    om_axes = rng.uniform(0.5, 0.9, size=3)
    om_rot = oracles.random_rotation(rng)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    om_center = rng.uniform(3.4, 4.2) * d
    om = bodies.ellipsoid(om_axes, Pose(om_rot, om_center))
    quadrics = (
        (lam_axes, lam_rot, np.zeros(3)),
        oracles.quadric_of_ellipsoid(om_axes, om_rot, om_center),
    )
    return om, lam, quadrics


def test_criterion_4_trace_matches_raster():
    rng = np.random.default_rng(21)
    traces = []
    for pair_idx in range(5):
        t0 = time.perf_counter()
        om, lam, ((lam_axes, lam_rot, lam_c), (om_A, om_c)) = _random_quadric_pair(rng)
        pj.assert_disjoint(om, lam)
        seed = pj.seed_boundary(om, lam, rng=rng)
        start = pj.solve_boundary_point(om, lam, seed)
        trace = pj.trace_boundary(om, lam, start, step=0.02, max_steps=4000)
        assert trace.closed, f"pair {pair_idx} did not close"

        raster_pts, raster_cell = oracles.raster_shadow_boundary(
            lam_axes, lam_rot, lam_c, om_A, om_c, n=512
        )
        assert len(raster_pts) > 100
        Y = trace.y_points()
        # every raster boundary point lies within 2 of its own cells of the
        # traced curve, and every traced point is near the raster band
        d_raster_to_trace = oracles.dist_points_to_polyline(raster_pts, Y, closed=True)
        assert np.all(d_raster_to_trace <= 2.0 * raster_cell + 1e-12)
        d2 = np.sqrt(
            ((Y[:, None, :] - raster_pts[None, :, :]) ** 2).sum(-1)
        )
        nearest = np.argmin(d2, axis=1)
        assert np.all(d2[np.arange(len(Y)), nearest] <= 2.0 * raster_cell[nearest])
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0
        traces.append((om, lam, trace))
        _report(
            4,
            elapsed,
            f"pair {pair_idx}: {len(trace)} points closed, raster band of "
            f"{len(raster_pts)} cells matched within 2 cells",
        )
    _SHARED["traces"] = traces


# ---------------------------------------------------------------------------
# 5. rank certification along the traces and on the flat contact


def test_criterion_5_rank_certification():
    t0 = time.perf_counter()
    assert "traces" in _SHARED, "criterion 4 must run first"
    checked = 0
    for om, lam, trace in _SHARED["traces"]:
        for pt in trace.points:
            rank, sigma_min = pj.certify_rank(om, lam, pt)
            J = pj.boundary_jacobian(om, lam, pt.state)
            sigma_max = float(np.linalg.svd(J, compute_uv=False)[0])
            assert rank == 6
            assert sigma_min > 1e-6 * sigma_max
            checked += 1

    # constructed flat-direction degeneracy: rank must drop
    om_flat = bodies.ImplicitBody(
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
    lam_ball = bodies.translated_ball([0.0, 0.0, 0.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pt = pj.solve_boundary_point(
            om_flat, lam_ball, (np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]), 0.5)
        )
    rank, sigma_min = pj.certify_rank(om_flat, lam_ball, pt)
    assert rank < 6
    elapsed = time.perf_counter() - t0
    _report(
        5,
        elapsed,
        f"rank 6 with sigma_min > 1e-6*sigma_max at {checked} traced points; "
        f"flat contact detected with rank {rank}",
    )


# ---------------------------------------------------------------------------
# 6. Jacobian correctness


def test_criterion_6_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    om = bodies.ellipsoid(
        [1.0, 0.8, 0.6], Pose(oracles.random_rotation(rng), np.array([0.0, 0.5, 3.2]))
    )
    lam = bodies.ellipsoid([1.3, 1.0, 0.9], Pose(oracles.random_rotation(rng), np.zeros(3)))
    worst = 0.0
    for _ in range(100):
        x = sample_boundary_points(om, rng, 1)[0]
        y = sample_boundary_points(lam, rng, 1)[0]
        z = np.concatenate([x, y, [rng.uniform(0.1, 2.0)]])
        J = pj.boundary_jacobian(om, lam, z)
        J_fd = oracles.fd_jacobian(lambda w: pj.boundary_map(om, lam, w), z, 1e-6)
        scale = max(1.0, float(np.abs(J).max()))
        worst = max(worst, float(np.abs(J - J_fd).max()) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    _report(6, elapsed, f"100 random feasible points, max scaled error {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. dimension proxies


def test_criterion_7_box_dimension_proxies():
    t0 = time.perf_counter()
    assert "traces" in _SHARED, "criterion 4 must run first"
    _, _, trace = _SHARED["traces"][0]
    Y = trace.y_points()
    extent = float(np.ptp(Y, axis=0).max())
    est_curve = rg.box_dimension(Y, np.geomspace(extent / 64, extent / 5, 8), rng=0)
    assert abs(est_curve.d_hat - 1.0) <= 0.15

    pts = oracles.fibonacci_sphere(200_000)
    pts = pts[pts[:, 2] > -0.2]
    est_surf = rg.box_dimension(pts, np.geomspace(0.035, 0.4, 8), rng=0)
    assert abs(est_surf.d_hat - 2.0) <= 0.15
    elapsed = time.perf_counter() - t0
    _report(
        7,
        elapsed,
        f"traced boundary d_hat={est_curve.d_hat:.3f}, sphere patch d_hat={est_surf.d_hat:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. sharpness witnesses


def test_criterion_8_sharpness_witnesses(tmp_path):
    t0 = time.perf_counter()
    witness = cx.cone_body_graph_failure(rng=0)
    assert witness.found
    # along e_1 the seam midpoint pairs with the circle point at the origin
    e1_pairs = witness.pairs[tuple(np.round(np.eye(3)[0], 12))]
    assert any(np.allclose(p, [0.0, 0.5, 0.0]) and np.allclose(q, 0.0) for p, q in e1_pairs)

    for depth in (1, 2, 3):
        pair = cx.cantor_contact_pair(1e-4, depth)
        assert pair.contact_count == 2**depth

    om_file = tmp_path / "om.json"
    om_file.write_text(
        json.dumps(
            {"family": "cantor_contact", "params": {"eps": 1e-4, "cantor_depth": 2, "side": "omega"}}
        )
    )
    lam_file = tmp_path / "lam.json"
    lam_file.write_text(
        json.dumps(
            {
                "family": "cantor_contact",
                "params": {"eps": 1e-4, "cantor_depth": 2, "side": "lambda"},
            }
        )
    )
    assert main(["project", str(om_file), str(lam_file)]) == 3
    elapsed = time.perf_counter() - t0
    _report(
        8,
        elapsed,
        f"cone seam witness on {witness.frames_checked} frames; contact counts "
        "2/4/8; overlapping pair exits with code 3",
    )


# ---------------------------------------------------------------------------
# 9. oracle self-consistency across the catalog


def test_criterion_9_catalog_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    members = [
        bodies.ellipsoid([2.0, 1.0, 1.0]),
        bodies.ellipsoid([1.3, 0.9, 0.7], Pose(oracles.random_rotation(rng), np.array([1.0, 0.0, -2.0]))),
        bodies.translated_ball([0.0, 0.0, 3.0], 1.0),
        bodies.kiselman(3),
        bodies.kiselman(5),
        bodies.kiselman(3, clamp_radius=0.45),
        bodies.cone_over_circle(),
        bodies.cantor_contact(1e-4, 3, side="omega"),
        bodies.cantor_contact(1e-4, 3, side="lambda"),
        bodies.paraboloid_cap(1.5, 0.8),
    ]
    for body in members:
        body_self_check(body, rng=rng, n_points=100)
    elapsed = time.perf_counter() - t0
    _report(9, elapsed, f"{len(members)} catalog members, 100 sampled points each")
