"""Independent reference computations for the test suite.

Everything here is deliberately separate from the library's solution paths:
closed forms, dense-grid argmins, vectorized ray-quadric membership rasters,
and finite differences.  Tests compare library output against these.
"""

from __future__ import annotations

import math

import numpy as np


def sphere_chart_height(xp):
    """Lower-hemisphere graph height of the unit sphere chart at a pole."""
    xp = np.asarray(xp, float)
    return math.sqrt(1.0 - float(np.dot(xp, xp))) - 1.0


def quadric_of_ellipsoid(semiaxes, rotation=None, center=None):
    """Matrix form (A, c) with body = {(x-c)^T A (x-c) <= 1}."""
    a = np.asarray(semiaxes, float)
    A = np.diag(1.0 / a**2)
    if rotation is not None:
        R = np.asarray(rotation, float)
        A = R @ A @ R.T
    c = np.zeros(len(a)) if center is None else np.asarray(center, float)
    return A, c


def ray_quadric_first_hit(origin, direction, A, c):
    """Smallest t >= 0 with origin + t*direction on the quadric, else None."""
    o = np.asarray(origin, float) - np.asarray(c, float)
    d = np.asarray(direction, float)
    q2 = float(d @ A @ d)
    q1 = 2.0 * float(o @ A @ d)
    q0 = float(o @ A @ o) - 1.0
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0:
        return None
    s = math.sqrt(disc)
    roots = sorted(((-q1 - s) / (2 * q2), (-q1 + s) / (2 * q2)))
    for t in roots:
        if t >= -1e-12:
            return max(t, 0.0)
    return None


def ray_quadric_tangency(origin, direction, A, c):
    """Minimum of ``(o + s d - c)^T A (o + s d - c) - 1`` over the line, and
    its minimiser s: the minimum is zero exactly when the line grazes the
    quadric, at parameter s."""
    o = np.asarray(origin, float) - np.asarray(c, float)
    d = np.asarray(direction, float)
    q2, q1, q0 = float(d @ A @ d), float(o @ A @ d), float(o @ A @ o) - 1.0
    return q0 - q1 * q1 / q2, -q1 / q2


def ray_quadric_hits_vec(origins, directions, A, c):
    """Vectorized hit test: does each outward ray meet the quadric body?"""
    o = origins - c
    q2 = np.einsum("ij,jk,ik->i", directions, A, directions)
    q1 = 2.0 * np.einsum("ij,jk,ik->i", o, A, directions)
    q0 = np.einsum("ij,jk,ik->i", o, A, o) - 1.0
    disc = q1 * q1 - 4.0 * q2 * q0
    hit = disc >= 0
    s = np.sqrt(np.where(hit, disc, 0.0))
    t_small = (-q1 - s) / (2.0 * q2)
    t_large = (-q1 + s) / (2.0 * q2)
    t_first = np.where(t_small >= -1e-12, t_small, t_large)
    return hit & (t_first >= -1e-12)


def ellipsoid_boundary_grid(semiaxes, rotation, center, n_theta, n_psi):
    """Boundary points and outward unit normals on a (theta, psi) grid."""
    a = np.asarray(semiaxes, float)
    R = np.asarray(rotation, float)
    c = np.asarray(center, float)
    th = np.linspace(1e-4, math.pi - 1e-4, n_theta)
    ps = np.linspace(0.0, 2 * math.pi, n_psi, endpoint=False)
    TH, PS = np.meshgrid(th, ps, indexing="ij")
    local = np.stack(
        [
            a[0] * np.sin(TH) * np.cos(PS),
            a[1] * np.sin(TH) * np.sin(PS),
            a[2] * np.cos(TH),
        ],
        axis=-1,
    )
    pts = local @ R.T + c
    grads = 2.0 * local / a**2 @ R.T
    normals = grads / np.linalg.norm(grads, axis=-1, keepdims=True)
    return pts, normals


def raster_shadow_boundary(lam_semiaxes, lam_rot, lam_center, om_A, om_c, n=512):
    """Shadow-boundary raster by brute membership on a boundary grid.

    Returns the world positions of grid points where the vectorized
    ray-quadric membership flips against a 4-neighbor, together with each
    point's local grid cell size (max distance to its neighbors).
    """
    pts, normals = ellipsoid_boundary_grid(lam_semiaxes, lam_rot, lam_center, n, n)
    flat_pts = pts.reshape(-1, 3)
    flat_nrm = normals.reshape(-1, 3)
    member = ray_quadric_hits_vec(flat_pts, flat_nrm, om_A, om_c).reshape(n, n)

    flip = np.zeros((n, n), bool)
    flip[:-1, :] |= member[:-1, :] != member[1:, :]
    flip[1:, :] |= member[1:, :] != member[:-1, :]
    flip |= member != np.roll(member, 1, axis=1)
    flip |= member != np.roll(member, -1, axis=1)

    cell_theta = np.zeros((n, n))
    cell_theta[:-1, :] = np.linalg.norm(pts[1:, :] - pts[:-1, :], axis=-1)
    cell_theta[-1, :] = cell_theta[-2, :]
    cell_psi = np.linalg.norm(np.roll(pts, -1, axis=1) - pts, axis=-1)
    cell = np.maximum(cell_theta, cell_psi)
    return pts[flip], cell[flip]


def coaxial_tangency_angle(center_distance, r_lam, r_om, tol=1e-12):
    """Polar angle of the shadow boundary for coaxial balls.

    The target ball sits at the origin; the projected ball of radius r_om is
    centered on the axis at the given distance.  The boundary angle is the
    root of (distance from the radial ray to the far center) - r_om, found
    by bisection; no closed form is used.
    """
    d = center_distance

    def miss(theta):
        # radial ray from the boundary point at polar angle theta
        y = np.array([r_lam * math.sin(theta), 0.0, r_lam * math.cos(theta)])
        nu = y / r_lam
        c = np.array([0.0, 0.0, d])
        w = c - y
        along = float(np.dot(w, nu))
        if along <= 0:
            return float(np.linalg.norm(w)) - r_om
        return math.sqrt(max(float(np.dot(w, w)) - along * along, 0.0)) - r_om

    lo, hi = 0.0, math.pi / 2
    if not (miss(lo) < 0 < miss(hi)):
        raise ValueError("no tangency bracket; bodies not in the expected pose")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if miss(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def quadric_shadow_gamma(A, c, rhs, u, frame_rotation, frame_origin, ypp):
    """Shadow-boundary height over ``ypp`` on ``{(x-c)^T A (x-c) <= rhs}``
    lit along ``u``, in an aligned chart frame ``x = R z + origin`` with
    ``z = (y'', t, s)``; None where the fiber plane misses the silhouette.

    The silhouette lies in the plane ``A(x - c) . u = 0``.  The fiber plane
    over ``y''`` (spanned by the t and s axes) meets that plane in a line,
    and the line meets the quadric in at most two points: one quadratic.
    The point whose normal has a positive s component is on the chart's
    upper sheet; gamma is its t coordinate.
    """
    R = np.asarray(frame_rotation, float)
    m = R.shape[0] - 1
    A, u = np.asarray(A, float), np.asarray(u, float)
    b = np.asarray(frame_origin, float) + R[:, : m - 1] @ np.asarray(ypp, float) - c
    e_t, e_s = R[:, m - 1], R[:, m]
    w = A @ u
    wt, ws = float(w @ e_t), float(w @ e_s)
    x0 = b - float(w @ b) / (wt * wt + ws * ws) * (wt * e_t + ws * e_s)
    d = ws * e_t - wt * e_s
    q2, q1, q0 = float(d @ A @ d), 2.0 * float(x0 @ A @ d), float(x0 @ A @ x0) - rhs
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0:
        return None
    for lam in ((-q1 - math.sqrt(disc)) / (2 * q2), (-q1 + math.sqrt(disc)) / (2 * q2)):
        x = x0 + lam * d
        if float((A @ x) @ e_s) > 0:
            return float((x - b) @ e_t)
    return None


def fd_jacobian(func, x, h):
    """Central-difference Jacobian of a vector map."""
    x = np.asarray(x, float)
    f0 = np.asarray(func(x), float)
    J = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[j] = h
        J[:, j] = (np.asarray(func(x + dx)) - np.asarray(func(x - dx))) / (2 * h)
    return J


def fd_gradient(func, x, h):
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for j in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[j] = h
        g[j] = (func(x + dx) - func(x - dx)) / (2 * h)
    return g


def hausdorff(A, B):
    """Symmetric Hausdorff distance between two finite point sets."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)
    return max(float(np.sqrt(d2.min(axis=1)).max()), float(np.sqrt(d2.min(axis=0)).max()))


def dist_points_to_polyline(points, vertices, closed=True):
    """Distance from each point to a polyline (segment-accurate)."""
    P = np.asarray(points, float)
    V = np.asarray(vertices, float)
    A = V
    B = np.roll(V, -1, axis=0) if closed else V[1:]
    if not closed:
        A = V[:-1]
    AB = B - A
    denom = np.maximum(np.einsum("ij,ij->i", AB, AB), 1e-300)
    # project every point on every segment, clamp, take the min distance
    diff = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", diff, AB) / denom[None, :], 0.0, 1.0)
    closest = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    d = np.linalg.norm(P[:, None, :] - closest, axis=-1)
    return d.min(axis=1)


def random_rotation(rng, n=3):
    M = rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(M)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / n
    st = np.sqrt(1.0 - ct**2)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])


def radial_boundary_sample(value, center, radius, n_angle, dim):
    """Points of the body ``{value <= 0}`` next to its boundary, one on each
    ray from an interior ``center`` along a grid of hyperspherical angles:
    ``n_angle`` polar angles on [0, pi] per polar axis and ``2 n_angle``
    azimuths.  Thirty bisections of ``value`` on [0, 2 radius] along every
    ray keep the inner end, so each point lies in the body, within
    2 radius / 2^30 of the boundary along its ray, and no sampled distance
    from an outside point undercuts the distance to the body.

    Returns the points ``(K, dim)`` and the resolution at each: the sum over
    grid axes of the larger distance to its two neighbours along that axis,
    which bounds the diameter of the grid cells around the point.
    """
    polar = np.linspace(0.0, math.pi, n_angle)
    azimuth = np.linspace(0.0, 2.0 * math.pi, 2 * n_angle, endpoint=False)
    angles = np.meshgrid(*([polar] * (dim - 2) + [azimuth]), indexing="ij")
    u = np.ones(angles[0].shape + (dim,))
    for k, a in enumerate(angles):  # u_k = sin(a_0) ... sin(a_k-1) cos(a_k)
        u[..., k] *= np.cos(a)
        u[..., k + 1 :] *= np.sin(a)[..., None]
    u = u.reshape(-1, dim)
    lo, hi = np.zeros(len(u)), np.full(len(u), 2.0 * radius)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        inside = np.asarray(value(center + mid[:, None] * u), float) <= 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    pts = (center + lo[:, None] * u).reshape(angles[0].shape + (dim,))
    res = np.zeros(angles[0].shape)
    for k in range(dim - 1):
        step = np.linalg.norm(np.roll(pts, -1, axis=k) - pts, axis=-1)
        if k < dim - 2:  # a polar axis does not wrap: its last point has one neighbour
            step[(slice(None),) * k + (-1,)] = 0.0
        res += np.maximum(step, np.roll(step, 1, axis=k))
    return pts.reshape(-1, dim), res.ravel()


def graph_hessian_broadcast(gc, Hc):
    """Implicit graph Hessian ``-(A + b f^T + f b^T + c f f^T) / g_n`` by
    broadcasting over the trailing ``(m, m)`` axes, with ``gc = grad G``,
    ``Hc = [[A, b], [b^T, c]] = hess G`` and ``f = -gc[:-1] / g_n``."""
    gn = gc[..., -1:, None]
    f1 = -gc[..., None, :-1] / gn  # row vector
    bf = Hc[..., :-1, -1:] * f1
    f1f1 = np.swapaxes(f1, -1, -2) * f1
    return -(Hc[..., :-1, :-1] + bf + np.swapaxes(bf, -1, -2) + Hc[..., -1:, -1:] * f1f1) / gn


def chart_constants_eigvalsh(chart, n_samples, rng, block=1024):
    """(L, theta) from ``np.linalg.eigvalsh`` on every sampled chart Hessian:
    the largest eigenvalue modulus, and minus the largest top eigenvalue.
    The samples are drawn, and their Hessians evaluated in stacks of
    ``block`` rows, as ``regularity.chart_constants`` does."""
    rng = np.random.default_rng(rng)
    m = chart.dim_domain
    z = rng.normal(size=(n_samples, m))
    radius = rng.random(n_samples) ** (1.0 / m) * 0.95 * chart.domain_radius
    z *= (radius / np.linalg.norm(z, axis=1))[:, None]
    H = np.concatenate([chart.hessian(z[k : k + block]) for k in range(0, n_samples, block)])
    ev = np.linalg.eigvalsh(H)
    return float(np.abs(ev).max()), float(-ev[:, -1].max())
