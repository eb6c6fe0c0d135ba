"""Shadows generated by orthogonally projecting one convex body onto another.

The projection of a body onto a convex body travels along the target's
outward normals, so a boundary point ``y`` of the target is shadowed exactly
when the outward-normal ray from ``y`` hits the projected body.  The
boundary of that shadow is, for smooth bodies, the zero set of the map

    Phi(x, y, t) = (G(x), F(y), grad G(x) . grad F(y), y + t grad F(y) - x)

from R^(2n+1) to R^(n+3): x runs over the projected body's boundary, y over
the target's boundary, the third component forces tangency of the hitting
ray, and the last block forces colinearity with hitting parameter t > 0.
Seeds are solved with least-norm Gauss-Newton steps (the solution set is an
(n-2)-manifold, not a point).  Curves are traced in R^3 by a second-order
predictor, a step along the one-dimensional null space of DPhi bent by the
turn of that null direction between the last two points, and a chord
corrector with the pseudo-inverse of the SVD that each accepted point takes
anyway; that SVD also certifies full rank n+3 of DPhi through its singular
values.

When the projected body is a quadric, tracing starts with a step 0 that
solves the whole curve at once.  Along the normal line y + s grad F(y) the
quadric's G is a2 s^2 + 2 a1 s + a0, so a target point y is shadowed exactly
when a1 < 0 and the discriminant D = a1^2 - a2 a0 is >= 0 (the membership
test of ``in_projection_shadow``).  The curve is {F = 0, D = 0}, where
t = -a1 / a2 and x = y + t grad F(y) in closed form.  Its points are the
roots of D on arcs of the target fanned out from the target point whose
normal ray passes through the quadric's center (so D > 0 there), bracketed
on a radial grid and refined by bisection and Illinois steps, all arcs in
each stacked pass; the pass that places the points starts each arc's
Illinois steps from the roots of a coarser pass.  They are certified with
one stacked Phi and Jacobian, whose values-only SVD gives the singular
values and whose complete QR of J^T the null tangents; an arc that crosses
twice on the grid, or any point the certification refuses, sends the call
to the sequential trace.  The same root on the arc at angle 0 seeds a
quadric omega over the whole target: it solves Phi already, so the start
solve takes no step.  A trace holds its points as columns (states,
residuals, singular values, tangents), from which the CSV is written.

Disjointness and seeding rest on nearest points (``project_point``).  On
ellipsoids and balls these come in closed form up to one scalar root, the
secular equation's; a point it leaves above the stationarity tolerance,
and every point on other bodies, goes to damped Newton on the stationarity
system, which on a body with a gradient kink runs over each smooth piece
and then over all pieces together (an active-set solve).  The closest pair
of two bodies comes from alternating nearest points; on two quadrics,
Newton on the KKT system of the pair takes over after the second round,
and its positive multipliers certify the gap.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import illumination
from .bodies import (
    TOL_BOUNDARY,
    ConcaveChart,
    ImplicitBody,
    _arc_flip,
    _line_quadric,
    _line_roots,
    boundary_point_along,
    chart_at,
    rotation_with_last_axis,
)
from .errors import (
    DomainError,
    InteriorPointError,
    NoConvergenceError,
    OverlapError,
    ParameterError,
    RankDeficiencyError,
    RankDeficiencyWarning,
    SeedError,
    UmbraError,
    check_positive,
)

TOL_ROOT = 1e-10
SIGMA_RANK_TOL = 1e-8  # relative threshold for rank counting
SIGMA_TRACE_TOL = 1e-6  # relative health threshold while tracing
NEAR_SINGULAR_TOL = 1e-3  # conditioning collapse classifying step failures
MAX_SOLVE_ITER = 50
ARC_GRID = np.geomspace(1e-4, 1e2, 24)  # radii of the step-0 arc bracket, in units of |y0 - center|
COARSE_ARCS = 64  # arcs of the step-0 pass that measures the curve's length
MAX_STACKED_POINTS = 8192  # step 0 holds len(ARC_GRID) target points per curve point at once


# ---------------------------------------------------------------------------
# elementary projection operations


def _secular_projection(quadric, x):
    """Nearest point of the quadric body ``(y - c)^T A (y - c) <= rhs`` to an
    outside point ``x``, and its multiplier s with ``x - y = s grad G(y)``.

    In the eigenbasis of S = (A + A^T) / 2, where grad G(y) = 2 S (y - c),
    stationarity gives y - c = (I + 2 s S)^(-1) (x - c), and s is the root
    of the secular equation q(s)^2 = sum_i l_i w_i^2 / (1 + 2 s l_i)^2 = rhs
    (D. Eberly, "Distance from a Point to an Ellipse, an Ellipsoid, or a
    Hyperellipsoid").  Newton runs on 1/q(s) - 1/sqrt(rhs), which is concave
    and increasing for s >= 0 and nearly linear (More & Sorensen, SIAM J.
    Sci. Stat. Comput. 4, 1983), from s = 0, where q(0)^2 = G(x) + rhs >
    rhs: the iterates rise onto the root and never pass it.  They stop at
    q^2 <= rhs or once s stops increasing.
    """
    A, c, rhs = quadric
    lam, Q = np.linalg.eigh(0.5 * (A + A.T))
    w = (x - c) @ Q
    lw2 = lam * w * w
    root = math.sqrt(rhs)
    s = 0.0
    for _ in range(100):
        e = 1.0 / (1.0 + 2.0 * s * lam)
        terms = lw2 * e * e
        q2 = float(terms.sum())
        if q2 <= rhs:
            break
        s_new = s + q2 * (math.sqrt(q2) / root - 1.0) / (2.0 * float((lam * e * terms).sum()))
        if not s_new > s:
            break
        s = s_new
    return c + Q @ (w / (1.0 + 2.0 * s * lam)), s


def _kkt_newton(pieces, x, y, scale):
    """Damped Newton on the stationarity system of the nearest point of x to
    ``{F_i <= 0}`` with every piece i active: ``F_i(y) = 0`` and
    ``x - y = sum_i s_i grad F_i(y)``, from the boundary point y.  Each
    multiplier starts at the projection of x - y on its gradient and is kept
    at 1e-14 or more.  Returns y and the max-norm residual there."""
    n, k = len(x), len(pieces)

    def residual(y, s, grads):
        r = x - y
        for si, g in zip(s, grads):
            r = r - si * g
        return np.concatenate([[piece.value_at(y) for piece in pieces], r])

    grads = [piece.gradient_at(y) for piece in pieces]
    s = np.array([max(float(np.dot(x - y, g)) / max(float(np.dot(g, g)), 1e-300), 1e-12) for g in grads])
    r = residual(y, s, grads)
    res = float(np.abs(r).max())
    for _ in range(100):
        if res <= TOL_ROOT * scale:
            break
        J = np.zeros((n + k, n + k))
        J[k:, :n] = -np.eye(n)
        for i, (piece, g) in enumerate(zip(pieces, grads)):
            J[i, :n] = g
            J[k:, :n] -= s[i] * piece.hessian_at(y)
            J[k:, n + i] = -g
        try:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        for j in range(30):  # backtracking: the iterate is always the best so far
            y_new, s_new = y + 0.5**j * step[:n], np.maximum(s + 0.5**j * step[n:], 1e-14)
            g_new = [piece.gradient_at(y_new) for piece in pieces]
            r_new = residual(y_new, s_new, g_new)
            res_new = float(np.abs(r_new).max())
            if res_new < res:
                y, s, grads, r, res = y_new, s_new, g_new, r_new, res_new
                break
        else:
            break
    return y, res


def project_point(body: ImplicitBody, x) -> np.ndarray:
    """Nearest point of the body to ``x`` (unique by convexity).

    Solves the stationarity system ``F(y) = 0``, ``x - y = s grad F(y)`` with
    s >= 0.  A ``quadric`` body (ellipsoids and balls) takes the closed form
    of ``_secular_projection``, kept when its stationarity residual meets
    ``TOL_ROOT`` (very eccentric axes can leave it above, from rounding in
    the eigenbasis).  Otherwise an active-set solve (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., 2006, ch. 16) runs damped Newton
    (``_kkt_newton``) on each smooth piece of a body with ``pieces`` from
    the ray-crossing seed, then on all pieces together; a smooth body is
    its own single piece.  As in a primal active-set method, a converged
    point that another piece blocks (that piece > 0 there) is where the
    next solve starts.  The first solve that converges with every other
    piece <= 0 at its point is returned: its multipliers are positive, so
    x - y lies in the body's normal cone at y, which makes y the nearest
    point.  A vertex of one piece (the cone's apex) is no smooth solve's
    root: a body's ``vertices`` are returned first when x - v lies in their
    normal cone, and when no solve from the ray-crossing seed converges,
    the solves run again from the crossing toward v + (x - v) / 100, which
    starts Newton on v's side of a nearest point close to v, where a
    piece's Hessian grows without bound.  No such solve raises
    NoConvergenceError.  Points already on the boundary
    project to themselves; interior points raise InteriorPointError since
    the disjoint-body machinery never needs them.
    """
    x = np.asarray(x, float)
    fx = body.value_at(x)
    scale = max(1.0, body.bounding_radius)
    if abs(fx) <= TOL_BOUNDARY * scale:
        return x.copy()
    if fx < 0:
        raise InteriorPointError("point lies inside the body; projection is itself")

    if body.quadric is not None:
        y, s = _secular_projection(body.quadric, x)
        residual = np.append((x - y) - s * body.gradient_at(y), body.value_at(y))
        if float(np.abs(residual).max()) <= TOL_ROOT * scale:
            return y

    for v, in_normal_cone in body.vertices or ():
        if in_normal_cone(x - v):
            return v.copy()
    pieces = [body] if body.pieces is None else [
        replace(body, value=v, gradient=g, hessian=h, pieces=None) for v, g, h in body.pieces
    ]
    k, tol = len(pieces), TOL_ROOT * scale
    best = math.inf
    for aim in [x] + [v + 0.01 * (x - v) for v, _ in body.vertices or ()]:
        y0 = boundary_point_along(body, aim - body.center)
        for active in [[i] for i in range(k)] + ([list(range(k))] if k > 1 else []):
            y, res = _kkt_newton([pieces[i] for i in active], x, y0, scale)
            if res <= tol:
                if all(pieces[i].value_at(y) <= tol for i in range(k) if i not in active):
                    return y
                y0 = y  # another piece blocks this point: the next solve starts from it
            best = min(best, res)
    raise NoConvergenceError(f"projection residual {best:.3g} above tolerance {tol:.3g}")


def first_hitting_time(body: ImplicitBody, y, nu):
    """Distance t >= 0 from y to the body boundary along ``nu / |nu|``: the
    smallest t with ``y + t nu / |nu|`` on the boundary, or None.

    ``_line_roots`` runs the ray from y (in closed form for a ``quadric``);
    hits beyond twice ``|y - center| + bounding_radius`` are misses.  For stacks
    ``(N, n)`` of origins (and of directions, or one direction) it returns
    the distances ``(N,)``, NaN for a miss.  Raises ParameterError for a NaN
    or infinite origin or direction, a zero direction or an origin inside the
    body; a stack, for its first bad row.
    """
    y = np.asarray(y, float)
    rows = y if y.ndim > 1 else y.reshape(1, -1)  # np.atleast_2d, at less cost for a point
    nu = np.asarray(nu, float)
    nn = np.sqrt(np.vecdot(nu, nu))
    c = rows - body.center
    t_max = 2.0 * (np.sqrt(np.vecdot(c, c)) + body.bounding_radius)
    unit = nu / np.minimum(np.maximum(nn, 1e-14), 1e300)[..., None]  # inf, not inf / inf, for an infinite nu
    t, g = _line_roots(body.value, body.gradient, rows, unit, t_max, body.quadric)
    # |nu| + t_max is NaN or inf on a row whose origin or direction is (or whose lengths overflow)
    bad = ~(nn + t_max < math.inf) | (nn < 1e-14) | (t == 0) & (g < -TOL_BOUNDARY * max(1.0, body.bounding_radius))
    if bad.any():  # the first bad row's error
        i = np.argmax(bad)
        nn = np.broadcast_to(nn, bad.shape)[i]
        raise ParameterError("ray origin or direction is not finite" if not nn + t_max[i] < math.inf
                             else "zero ray direction" if nn < 1e-14 else "ray origin lies inside the body")
    return t if y.ndim == 2 else None if math.isnan(t[0]) else float(t[0])


def in_projection_shadow(omega: ImplicitBody, lam: ImplicitBody, y):
    """Whether the target boundary point ``y`` is shadowed by ``omega``.

    True exactly when the outward-normal ray of the target at y hits the
    closure of omega.  y must be finite (ParameterError) and lie on the
    target's boundary (DomainError), and both bodies in the same R^n
    (ParameterError).  A stack ``(N, n)`` of points gives a bool array
    ``(N,)``.  On a ``quadric`` omega, whose G along the unit normal line is
    a2 s^2 + 2 a1 s + a0, that is a0 <= 0 (y on omega) or a1 < 0 and
    D = a1^2 - a2 a0 >= 0, with no root solved.
    A y inside omega raises ParameterError, and a vanishing normal
    DegeneratePointError.
    """
    _check_dims(omega, lam)
    y = np.asarray(y, float)
    if not np.isfinite(y).all():  # before the oracle, which an infinite y would make warn
        raise ParameterError("y is not finite")
    if not (np.abs(lam.value(y)) <= 10 * TOL_BOUNDARY * max(1.0, lam.bounding_radius)).all():
        raise DomainError("y is not on the target boundary")
    nu = lam.unit_normal(y)
    if omega.quadric is None:
        t = first_hitting_time(omega, y, nu)
        return ~np.isnan(t) if y.ndim == 2 else t is not None
    a2, a1, a0 = _line_quadric(omega.quadric, y, nu)  # scalars for a point y
    if (a0 < -TOL_BOUNDARY * max(1.0, omega.bounding_radius)).any():
        raise ParameterError("ray origin lies inside the body")
    member = (a0 <= 0) | (a1 < 0) & (a1 * a1 - a2 * a0 >= 0)
    return member if y.ndim == 2 else bool(member)


# ---------------------------------------------------------------------------
# the boundary-defining map and its Jacobian


def boundary_map(omega: ImplicitBody, lam: ImplicitBody, z) -> np.ndarray:
    """The (n+3)-vector Phi(x, y, t) whose zero set is the shadow boundary,
    at a state z ``(2n+1,)``, or ``(N, n+3)`` at each row of a stack
    ``(N, 2n+1)`` (each row the point call's, bit for bit, when the oracles'
    rows are)."""
    n = omega.dim
    z = np.asarray(z, float)
    x, y, t = z[..., :n], z[..., n : 2 * n], z[..., 2 * n :]
    gG = omega.gradient_at(x)
    gF = lam.gradient_at(y)
    head = np.stack([omega.value(x), lam.value(y), np.vecdot(gG, gF)], axis=-1)
    return np.concatenate([head, y + t * gF - x], axis=-1)


def boundary_jacobian(omega: ImplicitBody, lam: ImplicitBody, z) -> np.ndarray:
    """Analytic (n+3) x (2n+1) Jacobian of the boundary-defining map, or
    ``(N, n+3, 2n+1)`` at the rows of a stack ``(N, 2n+1)``."""
    n = omega.dim
    z = np.asarray(z, float)
    x, y, t = z[..., :n], z[..., n : 2 * n], z[..., 2 * n :]
    gG = omega.gradient_at(x)
    gF = lam.gradient_at(y)
    HG = omega.hessian_at(x)
    HF = lam.hessian_at(y)
    J = np.zeros(z.shape[:-1] + (n + 3, 2 * n + 1))
    J[..., 0, :n] = gG
    J[..., 1, n : 2 * n] = gF
    J[..., 2, :n] = (HG @ gF[..., None])[..., 0]
    J[..., 2, n : 2 * n] = (HF @ gG[..., None])[..., 0]
    eye = np.eye(n)
    J[..., 3:, :n] = -eye
    J[..., 3:, n : 2 * n] = eye + t[..., None] * HF
    J[..., 3:, 2 * n] = gF
    return J


@dataclass(frozen=True)
class ProjectionPoint:
    """Solved boundary configuration: contact x, shadow point y, ray scale t.

    ``residual`` is the max-norm of the defining map; ``sigma_min`` and
    ``sigma_max`` are the smallest and largest of the n+3 singular values of
    its Jacobian there, and ``tangent`` is a unit vector spanning the
    Jacobian's null space (the curve direction when n = 3; either sign: the
    null row of a full SVD for the seed solve and the sequential trace, the
    last column of a QR's Q for step 0).  ``iterations`` counts the steps
    that solved the point: Gauss-Newton steps from ``solve_boundary_point``,
    chord steps for a point of the sequential trace, and root rounds on its
    arc for a point of step 0.  ``solve_boundary_point`` returns one; a
    ``BoundaryTrace`` keeps its points as columns and builds them on demand.
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    residual: float
    sigma_min: float
    sigma_max: float
    tangent: np.ndarray
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "y", np.asarray(self.y, float))

    @property
    def state(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, [self.t]])


def certify_rank(omega: ImplicitBody, lam: ImplicitBody, point: ProjectionPoint):
    """Rank of the defining Jacobian at a solved point, by SVD.

    Returns ``(rank, sigma_min)`` where rank counts singular values above
    ``SIGMA_RANK_TOL * sigma_max`` and sigma_min is the smallest of the n+3
    singular values.  Full rank n+3 certifies that the boundary is locally a
    smooth (n-2)-manifold; a drop flags a flat contact direction.  The
    Jacobian is rebuilt from the point's state, independently of the values
    the solve stored.
    """
    J = boundary_jacobian(omega, lam, point.state)
    sv = np.linalg.svd(J, compute_uv=False)
    sigma_max = float(sv[0])
    rank = int(np.sum(sv > SIGMA_RANK_TOL * sigma_max)) if sigma_max > 0 else 0
    return rank, float(sv[-1])


def _check_dims(omega: ImplicitBody, lam: ImplicitBody):
    """ParameterError unless both bodies live in the same R^n."""
    if omega.dim != lam.dim:
        raise ParameterError(f"omega and lambda live in different dimensions ({omega.dim} and {lam.dim})")


def _check_tol(omega: ImplicitBody, lam: ImplicitBody, tol):
    """ParameterError unless the bodies share a dimension and the residual
    tolerance ``tol`` is positive and below 1e-3 max(1, bounding radii), the
    scale of the residuals."""
    _check_dims(omega, lam)
    scale = max(1.0, omega.bounding_radius, lam.bounding_radius)
    if not check_positive("tol", tol) < 1e-3 * scale:
        raise ParameterError(f"tol = {tol:.3g} is not below 1e-3 max(1, bounding radii) = {1e-3 * scale:.3g}")


def solve_boundary_point(
    omega: ImplicitBody,
    lam: ImplicitBody,
    seed,
    tol: float = TOL_ROOT,
) -> ProjectionPoint:
    """Gauss-Newton solve of the boundary-defining map from a seed (x, y, t).

    Uses least-norm steps (pseudoinverse) so iterates stay near the seed on
    the solution manifold.  At convergence (``_certified``, shared with the
    trace) t must be positive, and one full SVD of the Jacobian gives the
    extreme singular values and the null tangent, with a
    RankDeficiencyWarning when sigma_min falls under the rank threshold.
    ``tol`` must lie below 1e-3 max(1, bounding radii), and both bodies in
    the same R^n (ParameterError).
    """
    _check_tol(omega, lam, tol)
    n = omega.dim
    if isinstance(seed, tuple) and len(seed) == 3:
        z = np.concatenate(
            [np.asarray(seed[0], float), np.asarray(seed[1], float), [float(seed[2])]]
        )
    else:
        z = np.asarray(seed, float).ravel()
    if z.shape[0] != 2 * n + 1:
        raise ParameterError(f"seed must have 2n+1 = {2 * n + 1} components")
    scale = max(1.0, omega.bounding_radius, lam.bounding_radius)

    r = boundary_map(omega, lam, z)
    if not np.all(np.isfinite(r)):
        raise ParameterError("seed residual is not finite")
    res, iters = float(np.abs(r).max()), 0
    for iters in range(MAX_SOLVE_ITER + 1):
        if res <= tol:
            break
        step = np.linalg.lstsq(boundary_jacobian(omega, lam, z), -r, rcond=None)[0]
        step *= min(1.0, 0.5 * scale / max(float(np.linalg.norm(step)), 1e-300))
        for k in range(25):  # backtracking: accept the first strict decrease
            z_new = z + 0.5**k * step
            r_new = boundary_map(omega, lam, z_new)
            res_new = float(np.abs(r_new).max())  # inf or NaN: never a decrease
            if res_new < res:
                z, r, res = z_new, r_new, res_new
                break
        else:
            break
    if res > tol:
        raise NoConvergenceError(f"boundary solve stalled at residual {res:.3g} after {iters} iterations")
    smin, smax, tangent, _ = _certified(omega, lam, z)
    return ProjectionPoint(z[:n], z[n : 2 * n], float(z[2 * n]), res, float(smin), float(smax), tangent, iters)


def _certified(omega: ImplicitBody, lam: ImplicitBody, Z, what: str | None = None):
    """The certification of solved states, a point Z ``(2n+1,)`` or the rows
    of a stack ``(N, 2n+1)``: sigma_min and sigma_max, the smallest and
    largest singular values of each Jacobian (scalars for a point, ``(N,)``
    for a stack), its unit null tangent (either sign), and for a point the
    pseudo-inverse V_r S^-1 U^T of its Jacobian, the chord map of the next
    trace step (None for a stack).

    A point takes one full SVD (only the full V^T holds the null row), whose
    U gives the chord map and whose null row's sign sets which way the
    sequential trace runs.  A stack computes only what is read: its singular
    values from a values-only SVD, and its null tangents from a complete QR
    of J^T, whose last column of Q is orthogonal to J's rows.  Row by row, t
    must be positive (NoConvergenceError), a RankDeficiencyWarning flags
    sigma_min under the rank threshold and, given ``what``,
    ``_check_health`` raises where it falls under the trace's; one
    vectorised test finds the rows to check, which then run in row order.
    The hitting parameter needs no check of its own: the rows
    y + t grad F - x of Phi bound |t - |x - y| / |grad F|| by
    sqrt(n) residual / |grad F|.
    """
    n = omega.dim
    J = boundary_jacobian(omega, lam, Z)
    if Z.ndim == 1:
        u, sv, vt = np.linalg.svd(J)
        smin, smax, tangents = sv[-1], sv[0], vt[-1]
        inv = 1.0 / sv if smin > 0 else np.divide(1.0, sv, out=np.zeros(n + 3), where=sv > 0)
        pinv = (vt[: n + 3].T * inv) @ u.T
    else:
        sv = np.linalg.svd(J, compute_uv=False)
        smin, smax, tangents = sv[:, -1], sv[:, 0], np.linalg.qr(J.mT, mode="complete")[0][..., -1]
        pinv = None
    t = Z[..., 2 * n]
    floor = SIGMA_RANK_TOL if what is None else SIGMA_TRACE_TOL  # the trace's floor is the higher
    if ((t <= 0) | (smin < floor * smax)).any():
        for tk, s0, s1 in zip(*map(np.atleast_1d, (t, smin, smax))):
            if tk <= 0:
                raise NoConvergenceError(f"solve converged to nonpositive hitting scale t = {tk:.3g}")
            if s0 < SIGMA_RANK_TOL * s1:
                warnings.warn(f"Jacobian nearly rank deficient at solved point (sigma_min = {s0:.3g})",
                              RankDeficiencyWarning, stacklevel=3)
            if what is not None:
                _check_health(s0, s1, what)
    return smin, smax, tangents, pinv


# ---------------------------------------------------------------------------
# disjointness and closest pairs


def _kkt_pair(omega: ImplicitBody, lam: ImplicitBody, x, z, scale):
    """Newton on the KKT system of the nearest pair x on omega, z on lam:
    Phi(x, z, mu, nu) = (G(x), F(z), x - z + mu grad G(x), z - x + nu grad F(z)) = 0,
    from the boundary points x and z with mu = |x - z| / |grad G(x)| and
    nu = |x - z| / |grad F(z)|.  Returns the pair when an iterate within 12
    steps, all of them finite and solvable, meets max|Phi| <= 1e-12 scale,
    and either its gap is at most 1e-9 scale (a common boundary point: the
    bodies touch or overlap) or mu > 0 and nu > 0: for a convex program the
    KKT conditions are sufficient (Nocedal & Wright, ch. 12), so the pair is
    the global minimum.  None otherwise.  The iterate that meets the test
    takes one more Newton step, kept when it is finite and its max|Phi| is no
    larger: from a residual near the test, the quadratic step brings the pair
    to rounding level."""
    n = len(x)
    eye = np.eye(n)
    d = float(np.linalg.norm(x - z))
    mu = d / float(np.linalg.norm(omega.gradient_at(x)))
    nu = d / float(np.linalg.norm(lam.gradient_at(z)))
    J = np.zeros((2 * n + 2, 2 * n + 2))
    J[2 : n + 2, n : 2 * n] = J[n + 2 :, :n] = -eye
    done = None  # the iterate that met the test, and its max|Phi|
    with np.errstate(all="ignore"):  # a diverging iterate overflows to inf or NaN, which is refused
        for k in range(14):  # the start, up to 12 steps and the polishing step
            gG, gF = omega.gradient_at(x), lam.gradient_at(z)
            r = np.concatenate([[omega.value_at(x), lam.value_at(z)], x - z + mu * gG, z - x + nu * gF])
            res = float(np.abs(r).max())  # NaN for a NaN row, which no comparison passes
            if done is not None:
                if res <= done[-1]:
                    done = x, z, mu, nu, res
                break
            if not np.isfinite(r).all():
                return None
            if res <= 1e-12 * scale:
                done = x, z, mu, nu, res
            elif k == 12:
                return None
            J[0, :n], J[1, n : 2 * n] = gG, gF
            J[2 : n + 2, :n] = eye + mu * omega.hessian_at(x)
            J[n + 2 :, n : 2 * n] = eye + nu * lam.hessian_at(z)
            J[2 : n + 2, 2 * n], J[n + 2 :, 2 * n + 1] = gG, gF
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                if done is None:
                    return None
                break
            x, z = x + step[:n], z + step[n : 2 * n]
            mu, nu = mu + float(step[2 * n]), nu + float(step[2 * n + 1])
    x, z, mu, nu, _ = done
    return (x, z) if np.linalg.norm(x - z) <= 1e-9 * scale or (mu > 0 and nu > 0) else None


def closest_pair(omega: ImplicitBody, lam: ImplicitBody):
    """Closest boundary points via alternating projections, finished by
    Newton on the KKT system when both bodies carry ``quadric``.

    Returns ``(x, z, distance)`` with x on omega and z on lam.  Each round
    projects x onto lam and that point back onto omega; the rounds stop once
    neither point moves more than 1e-12 times the larger bounding radius
    (floored at 1).  On two quadric bodies, after the second round
    ``_kkt_pair`` runs Newton on the KKT system from the round's points, and
    a pair it returns ends the search; when it refuses (no convergence, or a
    stationary pair with a multiplier <= 0), the rounds go on unchanged.
    Raises OverlapError when an iterate lands inside the other body or the
    gap closes to at most 1e-9 times that radius, which is exactly the
    disjointness failure mode; NoConvergenceError when 501 rounds end
    without meeting the move test; and ParameterError for bodies of
    different dimensions.
    """
    _check_dims(omega, lam)
    scale = max(1.0, omega.bounding_radius, lam.bounding_radius)
    x = z = omega.center
    for i in range(501):
        try:
            z_new = project_point(lam, x)
            x_new = project_point(omega, z_new)
        except InteriorPointError as exc:
            raise OverlapError(f"bodies overlap: {exc}") from exc
        move = max(float(np.linalg.norm(x_new - x)), float(np.linalg.norm(z_new - z)))
        x, z = x_new, z_new
        if move < 1e-12 * scale:
            break
        if i == 1 and omega.quadric is not None and lam.quadric is not None:
            pair = _kkt_pair(omega, lam, x, z, scale)
            if pair is not None:
                x, z = pair
                break
    else:
        raise NoConvergenceError(f"closest-pair search moved {move:.3g} in its last of 501 rounds")
    dist = float(np.linalg.norm(x - z))
    if dist <= 1e-9 * scale:
        raise OverlapError(f"bodies touch or overlap (closest gap {dist:.3g})")
    return x, z, dist


def assert_disjoint(omega: ImplicitBody, lam: ImplicitBody) -> float:
    """Validate disjoint closures; returns the separation distance.

    Runs ``closest_pair``, which raises OverlapError when an iterate lands
    inside the other body or the converged gap is at most 1e-9 times the
    larger bounding radius (floored at 1), and NoConvergenceError when its
    alternating rounds stall.  The returned gap is certified: on two quadric
    bodies by the KKT pair's positive multipliers, otherwise by the
    alternating rounds' move test.
    """
    _, _, dist = closest_pair(omega, lam)
    return dist


def hitting_time_bound(omega: ImplicitBody, lam: ImplicitBody, chart_radius: float | None = None) -> float:
    """Upper bound for hitting times from a chart patch of the target.

    distance between the bodies plus twice the larger of the projected
    body's diameter bound 2 ``bounding_radius`` and the chart-patch diameter.
    The distance is ``closest_pair``'s, with its OverlapError and
    NoConvergenceError.
    """
    _, _, dist = closest_pair(omega, lam)
    diam_patch = 2.0 * (chart_radius if chart_radius is not None else lam.bounding_radius)
    return dist + 2.0 * max(2.0 * omega.bounding_radius, diam_patch)


# ---------------------------------------------------------------------------
# seeding


def seed_boundary(
    omega: ImplicitBody,
    lam: ImplicitBody,
    rng=None,
    patch_center=None,
    patch_angle: float | None = None,
):
    """Seed (x0, y0, t0) near the shadow boundary on the target.

    On the whole target (no ``patch_center``) with a ``quadric`` omega, the
    seed is step 0's root of D on its arc at angle 0 from the target point z
    nearest omega's center (``_arc_frame``, ``_arc_crossings``), which
    solves Phi to ``TOL_ROOT``; ``rng`` plays no part.  Otherwise, or when
    that arc refuses (D(z) <= 0, None or an UmbraError), it samples 64
    target boundary points along rays from its center (plus, on the whole
    target, z), classifies them by shadow membership in one stacked pass of
    the arc search's own probe, and k-sections the membership flip along the
    great arc between the closest inside and outside samples (``_arc_flip``).
    ``patch_center`` and ``patch_angle`` optionally restrict sampling to a
    cap of directions.
    Raises SeedError when the sampled patch is entirely inside or entirely
    outside the shadow, OverlapError when omega's center lies inside the
    target, and ParameterError for bodies of different dimensions, a patch
    center that is not a nonzero finite vector of the target's dimension or
    a non-finite patch angle.
    """
    _check_dims(omega, lam)
    rng = np.random.default_rng(rng)
    if patch_center is None:  # in R^3 the cap of angle pi around e_3: the whole sphere
        c, ang = np.eye(lam.dim)[-1], math.pi
    else:
        c = np.asarray(patch_center, float)
        ang = patch_angle if patch_angle is not None else math.pi / 4
    m = float(np.abs(c).max(initial=0.0))  # scaled first: |c| itself may overflow
    if c.shape != (lam.dim,) or not 0 < m < math.inf:
        raise ParameterError(f"patch_center must be a nonzero vector in R^{lam.dim} with finite entries: {c}")
    if patch_angle is not None and not math.isfinite(patch_angle):
        raise ParameterError(f"patch_angle must be finite, got {patch_angle}")
    c = c / m / np.linalg.norm(c / m)
    if patch_center is None:
        # the target point nearest omega's center is always shadowed (by KKT
        # its outward normal ray passes through that center)
        try:
            z_close = project_point(lam, omega.center)
        except InteriorPointError as exc:
            raise OverlapError(f"bodies overlap: {exc}") from exc
        if omega.quadric is not None:  # the root of D on step 0's arc from z_close at angle 0
            try:
                frame = _arc_frame(omega, lam, z_close)
                found = _arc_crossings(omega, lam, frame, np.zeros(1), TOL_ROOT) if frame[3] > 0 else None
            except UmbraError:
                found = None
            if found is not None:
                z = found[0][0]
                return z[: lam.dim], z[lam.dim : 2 * lam.dim], float(z[-1])
    if lam.dim == 3:
        # Fibonacci points on the cap around c of the given angular radius
        i = np.arange(64) + 0.5
        az = math.pi * (3.0 - math.sqrt(5.0)) * i
        ct = 1.0 - (1.0 - math.cos(ang)) * i / 64
        st = np.sqrt(np.clip(1.0 - ct**2, 0.0, None))
        cap = np.column_stack([st * np.cos(az), st * np.sin(az), ct])
        dirs = cap @ rotation_with_last_axis(c).T
    elif patch_center is not None:
        dirs = c + math.tan(ang) * rng.normal(size=(64, lam.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs[dirs @ c >= math.cos(ang)]
        if len(dirs) == 0:
            raise SeedError("direction patch is empty")
    else:
        dirs = rng.normal(size=(64, lam.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if patch_center is None:  # z_close anchors the inside class even when the shadow cap is tiny
        dirs = np.vstack([(z_close - lam.center) / np.linalg.norm(z_close - lam.center), dirs])

    def hits(d):
        """Membership of the target points in directions d, and each point
        beside the hit of its normal ray on omega (NaN for a miss)."""
        y = boundary_point_along(lam, d)
        nu = lam.unit_normal(y)
        t = first_hitting_time(omega, y, nu)
        return ~np.isnan(t), np.hstack([y, y + t[:, None] * nu])

    inside = hits(dirs)[0]
    if inside.all() or not inside.any():
        kind = "inside" if inside.all() else "outside"
        raise SeedError(f"all {len(dirs)} sampled directions are {kind} the shadow; cannot bracket its boundary "
                        "on this patch")

    # closest in/out pair (the first in row order on ties), then the arc
    # search for the membership flip between them
    d_in, d_out = dirs[inside], dirs[~inside]
    i, j = np.unravel_index(np.argmax(d_in @ d_out.T), (len(d_in), len(d_out)))
    found = _arc_flip(d_in[i], d_out[j], hits, rng)
    if found is None:
        raise SeedError("in-shadow sample lost its ray hit during the arc search")
    x0, y0 = found[0][lam.dim :], found[1][: lam.dim]
    gF = lam.gradient_at(y0)
    t0 = float(np.linalg.norm(x0 - y0)) / max(float(np.linalg.norm(gF)), 1e-300)
    return x0, y0, t0


# ---------------------------------------------------------------------------
# tracing


@dataclass(frozen=True)
class BoundaryTrace:
    """Ordered solved points along one component of the shadow boundary,
    held as columns: row k of ``states`` ``(N, 2n+1)``, ``residual``,
    ``sigma_min``, ``sigma_max`` ``(N,)``, ``tangents`` ``(N, 2n+1)`` and
    ``iterations`` ``(N,)`` is the k-th point as ``ProjectionPoint``
    describes it, row 0 the start.  ``points`` builds those points on
    demand; the CSV and JSON writers read the columns."""

    states: np.ndarray
    residual: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    tangents: np.ndarray
    iterations: np.ndarray
    closed: bool
    arc_length: float
    step: float
    diagnostics: str = ""

    @property
    def points(self) -> list:
        """The rows as ProjectionPoints, built on each access."""
        n = self.states.shape[1] // 2
        return [ProjectionPoint(z[:n], z[n : 2 * n], float(z[2 * n]), float(r), float(s0), float(s1), v, int(k))
                for z, r, s0, s1, v, k in zip(self.states, self.residual, self.sigma_min, self.sigma_max,
                                              self.tangents, self.iterations)]

    def __len__(self):
        return len(self.states)

    def y_points(self) -> np.ndarray:
        n = self.states.shape[1] // 2
        return self.states[:, n : 2 * n]

    def to_csv(self, path):
        n = self.states.shape[1] // 2
        header = [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)] + ["t", "residual", "sigma_min"]
        illumination.write_csv_table(path, header, np.column_stack([self.states, self.residual, self.sigma_min]))

    def to_json(self, path, metadata: dict | None = None):
        doc = {
            "closed": self.closed,
            "n_points": len(self),
            "arc_length": self.arc_length,
            "step": self.step,
            "diagnostics": self.diagnostics,
            "min_sigma_min": float(self.sigma_min.min()),
            "max_residual": float(self.residual.max()),
        }
        if metadata:
            doc.update(metadata)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    @staticmethod
    def read_trace_csv(path) -> np.ndarray:
        """Columns of a trace CSV as an array; validates the header shape."""
        header, data = illumination.read_csv_table(path)
        if header[-3:] != ["t", "residual", "sigma_min"] or (len(header) - 3) % 2:
            raise ParameterError(f"not a boundary-trace CSV header: {header}")
        return data


def _discriminant(quadric, lam: ImplicitBody, y):
    """At target points y ``(N, n)``: g = grad F(y), and a2, a1 and
    D = a1^2 - a2 a0 from the coefficients of the quadric G along the
    normal lines y + s g.  A point outside the quadric is shadowed exactly
    when a1 < 0 and D >= 0; on the shadow boundary the line grazes the
    quadric at s = -a1 / a2."""
    g = lam.gradient_at(y)
    a2, a1, a0 = _line_quadric(quadric, y, g)
    return g, a2, a1, a1 * a1 - a2 * a0


def _arc_frame(omega: ImplicitBody, lam: ImplicitBody, y0):
    """``_arc_crossings``' frame at a target point y0: y0 - lam.center, the first two
    columns of the rotation whose last column is the unit normal at y0, and D(y0)."""
    R = rotation_with_last_axis(lam.unit_normal(y0))
    d0 = float(_discriminant(omega.quadric, lam, y0[None])[3][0])
    return y0 - lam.center, R[:, 0], R[:, 1], d0


def _arc_crossings(omega: ImplicitBody, lam: ImplicitBody, frame, alpha, tol: float, guess=None):
    """Shadow-boundary states ``(N, 2n+1)`` on the arcs
    ``boundary_point_along(lam, base + r (cos a e1 + sin a e2))``, r > 0, of
    the angles ``alpha`` ``(N,)`` (``frame`` from ``_arc_frame``), the root
    rounds each arc took and the radius r of each root.

    The arcs start in the shadow (D(y0) = d0 > 0 at r = 0).  One stacked
    pass over the radii ``ARC_GRID |base|`` brackets each arc's crossing;
    then stacked Illinois steps (Dowell & Jarratt, BIT 11, 1971) run on D
    until |D| <= tol a2 / 100, where |G(x)| = |D| / a2, or the bracket is
    down to rounding.  They start after four bisections, or after one round
    at the arc's first guess, ``guess`` ``(N,)`` (NaN or None for none),
    when it lies strictly inside the arc's grid bracket.  x and t come in closed
    form.  None when an arc is not lit at the end of the grid or is shadowed
    again past its first lit radius, or a root is still open after
    ``MAX_SOLVE_ITER`` rounds.
    """
    base, e1, e2, d0 = frame
    n, N, K = lam.dim, len(alpha), len(ARC_GRID)
    E = np.cos(alpha)[:, None] * e1 + np.sin(alpha)[:, None] * e2
    radii = float(np.linalg.norm(base)) * ARC_GRID

    def at(r, E):
        y = boundary_point_along(lam, base + r[:, None] * E)
        return (y, *_discriminant(omega.quadric, lam, y))

    D_grid = at(np.repeat(radii, N), np.tile(E, (K, 1)))[4].reshape(K, N)
    lit = D_grid < 0
    k = np.argmax(lit, axis=0)  # each arc's first lit radius
    if not lit[-1].all() or (~lit & (np.arange(K)[:, None] > k)).any():
        return None
    cols = np.arange(N)
    lo, hi = np.where(k > 0, radii[k - 1], 0.0), radii[k]
    f_lo, f_hi = np.where(k > 0, D_grid[k - 1, cols], d0), D_grid[k, cols]
    guess = np.full(N, np.nan) if guess is None else guess
    warm = (lo < guess) & (guess < hi)  # False for a NaN guess
    first, bisect = np.where(warm, guess, 0.5 * (lo + hi)), np.where(warm, 1, 4)  # bisect: rounds before Illinois
    y, g, a2, a1, root = np.empty((N, n)), np.empty((N, n)), np.empty(N), np.empty(N), np.empty(N)
    rounds, kept = np.zeros(N, int), np.zeros(N)  # kept: +1 lo, -1 hi kept in the last Illinois step
    act = cols
    for it in range(MAX_SOLVE_ITER):
        l, h, fl, fh = lo[act], hi[act], f_lo[act], f_hi[act]
        illinois = it >= bisect[act]
        r = first[act] if it == 0 else np.where(illinois, l - fl * (h - l) / (fh - fl), 0.5 * (l + h))
        y[act], g[act], a2[act], a1[act], D = at(r, E[act])
        root[act] = r
        rounds[act] += 1
        up = D >= 0  # still shadowed: r replaces lo
        lo[act], f_lo[act] = np.where(up, r, l), np.where(up, D, fl)
        hi[act], f_hi[act] = np.where(up, h, r), np.where(up, fh, D)
        # Illinois: an end kept by two Illinois steps in a row has its value halved
        turn = np.where(up, -1.0, 1.0) * illinois
        f_hi[act[(turn < 0) & (kept[act] < 0)]] *= 0.5
        f_lo[act[(turn > 0) & (kept[act] > 0)]] *= 0.5
        kept[act] = turn
        done = (np.abs(D) <= 1e-2 * tol * a2[act]) | (hi[act] - lo[act] <= 4e-16 * hi[act])
        act = act[~done]
        if not act.size:
            break
    else:
        return None
    t = -a1 / a2
    return np.hstack([y + t[:, None] * g, y, t[:, None]]), rounds, root


def _stacked_trace(omega: ImplicitBody, lam: ImplicitBody, start: ProjectionPoint, step: float, max_steps: int,
                   tol: float):
    """Step 0 of ``trace_boundary`` for a quadric omega: the states
    ``(N, 2n+1)`` of every point of the closed curve after start, solved in
    stacked passes, their residuals and root rounds, and the curve's arc
    length in y; or None where the sequential trace must run instead.

    The arcs of ``_arc_crossings`` are based at the target point y0 nearest
    omega's center, which is strictly shadowed (its outward normal ray
    passes through that center; ``seed_boundary`` anchors on it too), and
    fan out in the tangent plane there, the angles running from start's arc
    in the direction of start's tangent.  A pass over ``COARSE_ARCS`` arcs
    measures the curve's length L in (x, y, t); the points are then solved
    on the max(11, ceil(L / step)) arcs that split the coarse polyline into
    equal lengths, the last on start's own arc, each arc's root first
    guessed from the coarse roots' radii.  They must pass the sequential
    trace's gates: max|Phi| <= tol and t > 0 (one stacked ``boundary_map``),
    state moves |z_k+1 - z_k| <= 3 step in (x, y, t) from start on, closure
    |y_last - y_start| < step / 2, and no more points than ``max_steps`` or
    ``MAX_STACKED_POINTS``.  The caller certifies them (``_certified``).
    """
    n = lam.dim
    try:
        frame = _arc_frame(omega, lam, project_point(lam, omega.center))
        base, e1, e2, d0 = frame
        B = np.column_stack([base, e1, e2])
        along, b1, b2 = np.linalg.solve(B, start.y - lam.center)  # start.y - center = along (base + r E(alpha))
        _, c1, c2 = np.linalg.solve(B, start.tangent[n : 2 * n])
        turn = b1 * c2 - b2 * c1  # the angle's rate along start's tangent
        if not (along > 0 and d0 > 0 and turn != 0):
            return None
        alpha0, sweep = math.atan2(b2, b1), math.copysign(2.0 * math.pi, turn)
        at_coarse = np.arange(COARSE_ARCS + 1) / COARSE_ARCS  # the last is the first arc again
        coarse = _arc_crossings(omega, lam, frame, alpha0 + sweep * at_coarse[:-1], tol)
        if coarse is None:
            return None
        Zc, _, rc = coarse
        s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(Zc, axis=0, append=Zc[:1]), axis=1))])
        count = max(11, math.ceil(s[-1] / step))
        if count > min(max_steps, MAX_STACKED_POINTS):
            return None
        frac = np.interp(s[-1] * np.arange(1, count + 1) / count, s, at_coarse)
        guess = np.interp(frac, at_coarse, np.append(rc, rc[0]))  # the coarse roots' radii
        fine = _arc_crossings(omega, lam, frame, alpha0 + sweep * frac, tol, guess)
        if fine is None:
            return None
        Z, rounds, _ = fine
        res = np.abs(boundary_map(omega, lam, Z)).max(axis=1)
    except (UmbraError, np.linalg.LinAlgError):
        return None
    moves = np.diff(np.vstack([start.state, Z]), axis=0)
    jumps = np.linalg.norm(moves[:, n : 2 * n], axis=1)
    closure = float(np.linalg.norm(Z[-1, n : 2 * n] - start.y))
    # the state moves are bounded as the sequential corrector bounds them; the y jumps with them
    if not ((res <= tol).all() and (Z[:, 2 * n] > 0).all() and np.linalg.norm(moves, axis=1).max() <= 3.0 * step
            and closure < step / 2.0):
        return None

    return Z, res, rounds, float(jumps.sum()) + closure


def _check_health(sigma_min, sigma_max, what: str):
    """RankDeficiencyError, led by ``what``, when sigma_min falls under
    ``SIGMA_TRACE_TOL * sigma_max`` at a point of the trace."""
    if sigma_min < SIGMA_TRACE_TOL * sigma_max:
        raise RankDeficiencyError(f"{what} (sigma_min/sigma_max = {sigma_min / sigma_max:.3g})")


def trace_boundary(
    omega: ImplicitBody,
    lam: ImplicitBody,
    start: ProjectionPoint,
    step: float,
    max_steps: int,
    tol: float = TOL_ROOT,
) -> BoundaryTrace:
    """The shadow boundary curve through ``start`` (n = 3): step 0 when
    omega is a quadric, else predictor-corrector continuation.

    Step 0 (``_stacked_trace``) solves every point at once as a root of the
    discriminant D = a1^2 - a2 a0 of omega's quadric along the target's
    normal lines, on arcs of the target fanned out from the target point y0
    nearest omega's center, and takes x and t in closed form (module
    docstring).  The points are spaced by the arc length of a coarse pass,
    run on from start's arc along start's tangent, and the last one lies on
    start's arc.  One stacked ``boundary_map`` certifies max|Phi| <= tol and
    t > 0 at every point, the state moves |z_k+1 - z_k| must stay <= 3 step,
    as in the sequential corrector, the closure |y_last - y_start| < step / 2,
    and the point count <= ``max_steps`` (and ``MAX_STACKED_POINTS``, which
    bounds step 0's memory).  A refusal anywhere, including an arc that
    crosses D = 0 twice on its radial grid, runs the sequential trace below
    instead, unchanged.  The solved points of either path take the
    certification of ``solve_boundary_point`` (``_certified``: t > 0, the
    rank warning and the trace's rank error below), the sequential points
    one full SVD each and step 0's points, as one stack, a values-only SVD
    and a QR of J^T for their tangents (either sign).  The trace holds the
    points as columns, start's row first.

    The sequential predictor is ``z + h tangent + h^2 kappa / 2``: a step along the null
    space of the defining Jacobian, bent by the curvature estimate
    ``kappa = (tangent_k - tangent_k-1) / |z_k - z_k-1|`` from the last two
    accepted points (kappa = 0 on the first step; Allgower & Georg,
    *Introduction to Numerical Continuation Methods*, SIAM 2003).  The
    corrector is the chord iteration ``w <- w - J+ Phi(w)``, J+ the
    pseudo-inverse from the full SVD the last accepted point took for its
    singular values and tangent, so a step builds no new factorisation.  J+
    maps into the row space, orthogonal to that tangent: the bordered row
    ``tangent . (w - predictor) = 0`` holds by construction.  The corrector
    fails unless each chord step at least halves max|Phi|, within
    ``MAX_SOLVE_ITER`` steps, and lands at most 3 steps from the last point
    with t > 0.  The step halves on failure, doubles after three easy successes, and is
    clamped to [step/16, step].  Tracing stops on closure (y within step/2
    of the start after at least 10 steps, once y has been a step away), on
    ``max_steps``, or with RankDeficiencyError: when sigma_min falls under
    ``SIGMA_TRACE_TOL * sigma_max`` at the start or at a solved point
    (``_check_health``), or when the corrector fails at the minimal step
    where sigma_min/sigma_max is under ``NEAR_SINGULAR_TOL`` at the
    predictor or the last point.  A step of twice the target's diameter
    bound 2 ``bounding_radius`` or more raises ParameterError: no target
    point lies a step from the start, so the trace could not close; so do a
    ``tol`` and bodies as refused by ``solve_boundary_point``.
    """
    if omega.dim != 3:
        raise ParameterError("curve tracing is implemented for dimension 3 only")
    check_positive("step", step)
    _check_tol(omega, lam, tol)
    if step >= 4.0 * lam.bounding_radius:
        bound = 4.0 * lam.bounding_radius
        raise ParameterError(f"step = {step:.6g} is not below twice the target's diameter bound ({bound:.6g})")
    n = omega.dim
    # the trace's columns: states, residuals, sigma_min, sigma_max, tangents and iterations, start's row first
    cols = [start.state], [start.residual], [start.sigma_min], [start.sigma_max], [start.tangent], [start.iterations]
    if max_steps <= 0:
        return BoundaryTrace(*map(np.array, cols), False, 0.0, step, "max_steps = 0")

    _check_health(start.sigma_min, start.sigma_max, "start point is rank deficient")
    drop = "rank drop along the trace"
    if omega.quadric is not None:
        stacked = _stacked_trace(omega, lam, start, step, max_steps, tol)
        if stacked is not None:
            Z, res, rounds, arc = stacked
            smin, smax, tangents, _ = _certified(omega, lam, Z, drop)
            rows = Z, res, smin, smax, tangents, rounds
            return BoundaryTrace(*map(np.concatenate, zip(cols, rows)), True, arc, step)

    h, h_min, h_max = step, step / 16.0, step
    tangent, z = start.tangent, start.state
    pinv = _certified(omega, lam, z)[3]
    kappa = np.zeros_like(z)  # tangent turn per unit length between the last two points
    easy, closed, diagnostics, arc, left = 0, False, "", 0.0, False
    for k in range(max_steps):
        predictor = z + h * tangent + 0.5 * h * h * kappa
        try:
            w, r = predictor, boundary_map(omega, lam, predictor)
            res, iters = float(np.abs(r).max()), 0
            while not res <= tol:
                if iters == MAX_SOLVE_ITER:
                    raise NoConvergenceError(f"chord corrector at residual {res:.3g} after {iters} steps")
                w = w - pinv @ r
                r = boundary_map(omega, lam, w)
                res_new, iters = float(np.abs(r).max()), iters + 1
                if not res_new <= 0.5 * res:
                    raise NoConvergenceError(f"chord step did not contract: residual {res:.3g} -> {res_new:.3g}")
                res = res_new
            jump = float(np.linalg.norm(w - z))
            if jump > 3.0 * h + 1e-12:
                raise NoConvergenceError(f"corrector jumped {jump:.3g} for step {h:.3g}")
            smin, smax, null, pinv = _certified(omega, lam, w, drop)
        except NoConvergenceError as exc:
            if h <= h_min * 1.0001:
                # certify the failure region: a flat contact direction shows
                # up as collapsed conditioning at the predictor or at the
                # last corrected point
                sv = np.linalg.svd(boundary_jacobian(omega, lam, predictor), compute_uv=False)
                last_min, last_max = cols[2][-1], cols[3][-1]  # the last accepted point's sigmas
                rel = [
                    sv[-1] / sv[0] if sv[0] > 0 else 0.0,
                    last_min / last_max if last_max > 0 else 0.0,
                ]
                if min(rel) < NEAR_SINGULAR_TOL:
                    raise RankDeficiencyError(
                        "corrector failed at minimal step near a rank-deficient "
                        f"configuration (sigma_min/sigma_max = {min(rel):.3g})"
                    ) from exc
                diagnostics = f"truncated: corrector failed at minimal step ({exc})"
                break
            h = max(h / 2.0, h_min)
            easy = 0
            continue

        arc += float(np.linalg.norm(w[n : 2 * n] - z[n : 2 * n]))
        for col, value in zip(cols, (w, res, smin, smax, null, iters)):
            col.append(value)
        turned = -null if float(np.dot(null, tangent)) < 0 else null
        kappa = (turned - tangent) / jump
        tangent, z = turned, w

        if iters <= 3:
            easy += 1
            if easy >= 3:
                h = min(2.0 * h, h_max)
                easy = 0
        else:
            easy = 0

        back = float(np.linalg.norm(w[n : 2 * n] - start.y))
        left = left or back >= step
        if k >= 10 and left and back < step / 2.0:
            closed = True
            arc += back
            break
    else:
        diagnostics = diagnostics or "max_steps reached without closure"

    return BoundaryTrace(*map(np.array, cols), closed, arc, step, diagnostics)


# ---------------------------------------------------------------------------
# barrier construction on target charts


def barrier_chart(chart: ConcaveChart, t_star: float) -> ConcaveChart:
    """Uniformly concave barrier chart ``psi = phi - |z'|^2 / (2 t*)``.

    Subtracting the paraboloid turns any concave chart into one with
    concavity modulus at least ``1/t*``, which is what makes the shadow
    boundary of the barrier a Lipschitz graph.  psi is not the graph of the
    chart's quadric, so the barrier chart carries none.
    """
    if t_star <= 0:
        raise ParameterError("t_star must be positive")
    inv = 1.0 / t_star
    psi = lambda z: chart.phi(z) - 0.5 * inv * np.vecdot(z, z)
    grad = lambda z: np.asarray(chart.grad_phi(z), float) - inv * np.asarray(z, float)
    hess = lambda z: np.asarray(chart.hess_phi(z), float) - inv * np.eye(chart.dim_domain)
    return replace(chart, phi=psi, grad_phi=grad, hess_phi=hess, quadric=None)


def barrier_gamma_bar(chart: ConcaveChart, t_star: float, zpp, tol_root: float | None = None) -> float:
    """One-sided Lipschitz bound ``max(gamma_tilde, 0)`` for the shadow.

    ``gamma_tilde`` solves ``d psi / d z_{n-1} (z'', t) = 0`` on the barrier
    chart; the chart's (n-1)-st tangent axis must already point along the
    tangential normal direction of the projected body, as in the chart
    ``shadow_chart_frame`` builds.
    """
    bc = barrier_chart(chart, t_star)
    m = bc.dim_domain
    u_chart = np.zeros(m + 1)
    u_chart[m - 1] = 1.0
    u_world = bc.pose.rotate_to_world(u_chart) if bc.pose is not None else u_chart
    gamma_tilde, _ = illumination.shadow_boundary_gamma(
        bc, illumination.Direction(u_world), zpp, tol_root
    )
    return max(gamma_tilde, 0.0)


def shadow_chart_frame(
    omega: ImplicitBody, lam: ImplicitBody, point: ProjectionPoint, domain_radius: float | None = None
) -> ConcaveChart:
    """Chart of the target at a solved boundary point, axes adapted to the
    barrier construction: ``align_chart`` turns the (n-1)-st tangent axis onto
    the outward normal of the projected body at the contact point (tangent to
    the target there by the orthogonality equation).  Needs n >= 3: a
    one-dimensional tangent space turns only by a reflection, which leaves no
    world pose."""
    if lam.dim < 3:
        raise ParameterError(f"the barrier frame needs dimension >= 3, got {lam.dim}")
    chart = chart_at(lam, point.y, domain_radius=domain_radius)
    return illumination.align_chart(chart, omega.unit_normal(point.x)).chart
