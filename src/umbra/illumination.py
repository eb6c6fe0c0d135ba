"""Shadows of convex bodies under parallel illumination.

Lighting a convex body in direction ``u`` puts a boundary point in the
shadow when some outward normal ``nu`` there satisfies ``<nu, u> > 0``.  In
a concave chart ``x_n = phi(x')`` this reads ``<grad phi(y'), u'> < u_n``
where ``(u', u_n)`` are the chart-frame components of ``u``.

After aligning the chart so the tangential part of ``u`` points along the
last in-plane axis, the shadow boundary over each fiber ``(y'', t)`` is the
unique root of the strictly decreasing slope function
``t -> d phi / d t (y'', t) - c`` with ``c = u_n / |u'|``; the graph
``y'' -> gamma(y'')`` of those roots is the object the regularity
diagnostics consume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bodies import ConcaveChart, Pose, rotation_with_last_axis
from .errors import (
    BoundaryNotInChartError,
    DomainError,
    EmptyCurveError,
    NoConvergenceError,
    NotStrictlyConvexError,
    ParameterError,
)

TOL_ROOT_COEFF = 1e-10
BRACKET_EXPANSIONS = 20


@dataclass(frozen=True)
class Direction:
    """Unit illumination direction in world coordinates."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, float).ravel()
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ParameterError("direction must be a unit vector (|u| = 1 within 1e-12)")
        object.__setattr__(self, "u", u)

    @staticmethod
    def normalized(v) -> "Direction":
        v = np.asarray(v, float).ravel()
        n = np.linalg.norm(v)
        if n < 1e-14:
            raise ParameterError("cannot normalize the zero vector")
        return Direction(v / n)

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def _as_direction(u, dim: int) -> Direction:
    d = u if isinstance(u, Direction) else Direction(np.asarray(u, float))
    if d.dim != dim:
        raise ParameterError(f"direction has dimension {d.dim}, expected {dim}")
    return d


def normal_from_superdifferential(w) -> np.ndarray:
    """Outward unit normal ``(-w, 1)/sqrt(|w|^2 + 1)`` for a graph slope w."""
    w = np.atleast_1d(np.asarray(w, float))
    return np.append(-w, 1.0) / math.sqrt(float(np.dot(w, w)) + 1.0)


def shadow_horizon_point(body, u, rng=None) -> np.ndarray:
    """Boundary point on the shadow horizon: ``<grad G, u> = 0``.

    Bisects the sign of the normal-light product along a boundary arc from a
    lit sample (support direction of u) to an unlit one.  The returned point
    is where charts for shadow-boundary sweeps should be based.
    """
    from .bodies import boundary_point_along  # local import to avoid cycle noise

    d = _as_direction(u if isinstance(u, Direction) else Direction.normalized(u), body.dim)
    rng = np.random.default_rng(rng)
    lit = boundary_point_along(body, d.u)
    unlit = boundary_point_along(body, -d.u)
    if (
        float(np.dot(body.gradient_at(lit), d.u)) <= 0
        or float(np.dot(body.gradient_at(unlit), d.u)) >= 0
    ):
        raise BoundaryNotInChartError("could not bracket the shadow horizon")
    a = lit - body.center
    a = a / np.linalg.norm(a)
    b = unlit - body.center
    b = b / np.linalg.norm(b)
    w = b - np.dot(a, b) * a
    if np.linalg.norm(w) < 1e-9:  # antipodal: route through a perpendicular
        w = rng.normal(size=body.dim)
        w = w - np.dot(a, w) * a
    w = w / np.linalg.norm(w)
    ang = math.acos(max(-1.0, min(1.0, float(np.dot(a, b)))))

    def at(s):
        return boundary_point_along(body, math.cos(s * ang) * a + math.sin(s * ang) * w)

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.dot(body.gradient_at(at(mid)), d.u)) > 0:
            lo = mid
        else:
            hi = mid
    return at(0.5 * (lo + hi))


def is_in_shadow(chart: ConcaveChart, u, y_prime) -> bool:
    """Shadow membership of the boundary point above ``y_prime``.

    True exactly when ``<grad phi(y'), u'> < u_n`` in chart coordinates.
    Raises DomainError for points outside the chart domain.
    """
    d = _as_direction(u, chart.dim_domain + 1)
    uc = chart.pose.rotate_to_local(d.u) if chart.pose is not None else d.u
    w = chart.gradient(y_prime)
    return float(np.dot(w, uc[:-1])) < uc[-1]


# ---------------------------------------------------------------------------
# aligned frames


@dataclass(frozen=True)
class AlignedFrame:
    """Chart rotated so the tangential part of u is the last in-plane axis.

    ``threshold`` is ``u_n / |u'|``: with the tangential component of the
    direction normalized to unit length, shadow membership at ``(y'', t)``
    is ``slope(y'', t) < threshold`` where slope is the last component of
    ``grad phi``.
    """

    chart: ConcaveChart
    threshold: float
    direction: Direction

    def slope(self, ypp, t) -> float:
        z = np.empty(self.chart.dim_domain)
        z[:-1] = ypp
        z[-1] = t
        return float(self.chart.gradient(z)[-1]) - self.threshold


def align_chart(chart: ConcaveChart, u) -> AlignedFrame:
    """Rotate chart coordinates to the shadow-adapted frame for ``u``."""
    d = _as_direction(u, chart.dim_domain + 1)
    uc = chart.pose.rotate_to_local(d.u) if chart.pose is not None else np.asarray(d.u)
    up, un = uc[:-1], float(uc[-1])
    norm_up = float(np.linalg.norm(up))
    if norm_up < 1e-12:
        raise BoundaryNotInChartError(
            "direction is parallel to the chart normal; the shadow has no "
            "boundary inside this chart"
        )
    m = chart.dim_domain
    if m == 1:
        # 1-d tangent: only a sign flip is possible, which is not a rotation,
        # so the aligned chart keeps no world pose in the flipped case
        Q = np.array([[1.0 if up[0] > 0 else -1.0]])
    else:
        Q = rotation_with_last_axis(up / norm_up)

    phi_a = lambda z: chart.phi(Q @ z)
    grad_a = lambda z: Q.T @ np.asarray(chart.grad_phi(Q @ z), float)
    hess_a = None
    if chart.hess_phi is not None:
        # z @ Q.T maps a point or each row of a stack to Q z
        hess_a = lambda z: Q.T @ np.asarray(chart.hess_phi(z @ Q.T), float) @ Q

    pose = None
    if chart.pose is not None and (m > 1 or Q[0, 0] > 0):
        lift = np.eye(m + 1)
        lift[:m, :m] = Q
        pose = Pose(chart.pose.rotation @ lift, chart.pose.translation)

    aligned = replace(chart, phi=phi_a, grad_phi=grad_a, hess_phi=hess_a, pose=pose)
    return AlignedFrame(chart=aligned, threshold=un / norm_up, direction=d)


# ---------------------------------------------------------------------------
# boundary graph solves


def _gamma_in_frame(frame: AlignedFrame, ypp, tol_root: float | None = None):
    ch = frame.chart
    ypp = np.atleast_1d(np.asarray(ypp, float))
    if ypp.shape[0] != ch.dim_domain - 1:
        raise ParameterError(
            f"y'' has dimension {ypp.shape[0]}, expected {ch.dim_domain - 1}"
        )
    rr = ch.domain_radius**2 - float(np.dot(ypp, ypp))
    if rr <= 0:
        raise DomainError("y'' lies outside the chart domain")
    T = 0.999 * math.sqrt(rr)
    tol = tol_root if tol_root is not None else TOL_ROOT_COEFF * (1.0 + abs(frame.threshold))

    slope = lambda t: frame.slope(ypp, t)

    # Expanding bracket search: the slope is strictly decreasing along the
    # fiber, so a bracket is any pair t- < t+ with slope(t-) > 0 > slope(t+).
    t_neg = t_pos = None
    s_neg = s_pos = None
    for k in range(1, BRACKET_EXPANSIONS + 1):
        tau = T * (1.0 - 2.0 ** (-k))
        if t_neg is None:
            s = slope(-tau)
            if s > 0:
                t_neg, s_neg = -tau, s
        if t_pos is None:
            s = slope(tau)
            if s < 0:
                t_pos, s_pos = tau, s
        if t_neg is not None and t_pos is not None:
            break
    if t_neg is None or t_pos is None:
        # distinguish inverted monotonicity from a genuinely one-sided fiber
        lo, hi = slope(-T * (1.0 - 2.0**-BRACKET_EXPANSIONS)), slope(
            T * (1.0 - 2.0**-BRACKET_EXPANSIONS)
        )
        if lo < -tol and hi > tol:
            raise NotStrictlyConvexError(
                "slope increases along the fiber; chart is not strictly concave"
            )
        raise BoundaryNotInChartError(
            "no shadow-boundary bracket on this fiber within the chart domain "
            f"(expansion cap {BRACKET_EXPANSIONS} hit; endpoint slopes "
            f"{lo:.3g}, {hi:.3g})"
        )

    lo, hi = t_neg, t_pos
    width_floor = 1e-15 * max(1.0, T)
    best_t, best_s = (lo, s_neg) if abs(s_neg) < abs(s_pos) else (hi, s_pos)

    def fiber_curvature(t):
        z = np.empty(ch.dim_domain)
        z[:-1] = ypp
        z[-1] = t
        return float(ch.hessian(z)[-1, -1])

    # bisection narrows the bracket; once the chart has a Hessian, Newton
    # steps (safeguarded by the bracket, which keeps shrinking) finish the
    # root at quadratic rate where the slope is nondegenerate
    newton_ready = ch.has_hessian
    t = None
    for it in range(120):
        if abs(best_s) <= tol or hi - lo < width_floor:
            break
        t_newton = None
        if newton_ready and it >= 8 and t is not None:
            d2 = fiber_curvature(t)
            if d2 < -1e-300:
                cand = t - s_at_t / d2
                if lo + width_floor < cand < hi - width_floor:
                    t_newton = cand
        t = t_newton if t_newton is not None else 0.5 * (lo + hi)
        s_at_t = slope(t)
        if abs(s_at_t) < abs(best_s):
            best_t, best_s = t, s_at_t
        if s_at_t > 0:
            lo = t
        else:
            hi = t

    gamma, resid = best_t, best_s
    if abs(resid) > tol:
        raise NoConvergenceError(
            f"fiber root residual {resid:.3g} above tolerance {tol:.3g}"
        )

    # sign structure around the root: slope > threshold below gamma and
    # < threshold above (strict concavity), probed at a small offset
    delta = min(0.01 * T, 0.25 * (T - abs(gamma)) + 1e-18)
    probe_tol = 10 * tol
    if delta > width_floor:
        if gamma - delta > -T and slope(gamma - delta) < -probe_tol:
            raise NotStrictlyConvexError("slope sign below the root is wrong")
        if gamma + delta < T and slope(gamma + delta) > probe_tol:
            raise NotStrictlyConvexError("slope sign above the root is wrong")
    return float(gamma), float(resid)


def shadow_boundary_gamma(chart: ConcaveChart, u, ypp, tol_root: float | None = None):
    """Height of the shadow boundary over ``ypp`` and the root residual.

    Solves ``d phi / d t (y'', t) = u_n`` (threshold in the normalized
    tangential gauge) by bisection on the strictly decreasing fiber slope,
    with a Newton polish when the chart has a Hessian oracle.
    """
    frame = align_chart(chart, u)
    return _gamma_in_frame(frame, ypp, tol_root)


@dataclass(frozen=True)
class ShadowCurve:
    """Sampled shadow-boundary graph ``y'' -> gamma(y'')``.

    Coordinates are in the aligned chart frame (``chart_frame`` maps them to
    world coordinates); ``surface_height`` carries ``phi(y'', gamma)`` so
    samples can be lifted back to the surface.  ``failures`` lists grid
    points where no bracket existed, with reasons.
    """

    ypp: np.ndarray
    gamma: np.ndarray
    residual: np.ndarray
    direction: Direction | None
    chart_frame: Pose | None
    tol_root: float
    surface_height: np.ndarray | None = None
    failures: list = field(default_factory=list)

    def __post_init__(self):
        ypp = np.atleast_2d(np.asarray(self.ypp, float))
        object.__setattr__(self, "ypp", ypp)
        object.__setattr__(self, "gamma", np.asarray(self.gamma, float))
        object.__setattr__(self, "residual", np.asarray(self.residual, float))
        if len(self.gamma) != ypp.shape[0] or len(self.residual) != ypp.shape[0]:
            raise ParameterError("sample arrays must share a length")
        if len(self.gamma) and np.abs(self.residual).max() > self.tol_root * (1 + 1e-9):
            raise ParameterError("a sample residual exceeds tol_root")

    def __len__(self) -> int:
        return len(self.gamma)

    @property
    def codim_domain(self) -> int:
        return self.ypp.shape[1]

    def world_points(self) -> np.ndarray:
        if self.surface_height is None or self.chart_frame is None:
            raise ParameterError("curve lacks surface heights or a frame")
        pts = np.column_stack([self.ypp, self.gamma, self.surface_height])
        return np.array([self.chart_frame.to_world(p) for p in pts])

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"ypp_{i + 1}" for i in range(self.ypp.shape[1])] + ["gamma", "residual"]
            )
            for row, g, r in zip(self.ypp, self.gamma, self.residual):
                writer.writerow([f"{v:.17g}" for v in row] + [f"{g:.17g}", f"{r:.17g}"])

    @staticmethod
    def from_csv(path) -> "ShadowCurve":
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyCurveError("CSV file is empty") from None
            ncols = len(header)
            if (
                ncols < 3
                or header[-2:] != ["gamma", "residual"]
                or any(h != f"ypp_{i + 1}" for i, h in enumerate(header[:-2]))
            ):
                raise ParameterError(f"not a shadow-curve CSV header: {header}")
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise EmptyCurveError("shadow-curve CSV has no samples")
        data = np.array(rows)
        resid = data[:, -1]
        return ShadowCurve(
            ypp=data[:, :-2],
            gamma=data[:, -2],
            residual=resid,
            direction=None,
            chart_frame=None,
            tol_root=float(np.abs(resid).max()) + 1e-30,
        )


def shadow_boundary_sweep(
    chart: ConcaveChart, u, grid, tol_root: float | None = None
) -> ShadowCurve:
    """Solve the shadow boundary over a grid of base points ``y''``.

    Grid points whose fiber has no bracket are omitted and recorded in
    ``failures``.  Raises EmptyCurveError when the grid is empty or every
    point fails, and ParameterError for a planar chart (``dim_domain`` 1),
    whose silhouette is two points with no curve to sweep.
    """
    m = chart.dim_domain - 1
    if m == 0:
        raise ParameterError("a planar silhouette is two points; there is no curve to sweep")
    frame = align_chart(chart, u)
    grid = np.asarray(grid, float)
    if grid.size == 0:
        raise EmptyCurveError("empty sweep grid")
    grid = grid.reshape(-1, m)
    tol = tol_root if tol_root is not None else TOL_ROOT_COEFF * (1.0 + abs(frame.threshold))

    kept, gammas, resids, heights, failures = [], [], [], [], []
    for ypp in grid:
        try:
            g, r = _gamma_in_frame(frame, ypp, tol)
        except (BoundaryNotInChartError, DomainError, NoConvergenceError) as exc:
            failures.append((np.array(ypp), str(exc)))
            continue
        kept.append(np.array(ypp))
        gammas.append(g)
        resids.append(r)
        heights.append(frame.chart.value(np.append(ypp, g)))
    if not kept:
        raise EmptyCurveError(
            f"all {len(grid)} grid points failed; first reason: {failures[0][1]}"
        )
    curve = ShadowCurve(
        ypp=np.array(kept),
        gamma=np.array(gammas),
        residual=np.array(resids),
        direction=frame.direction,
        chart_frame=frame.chart.pose,
        tol_root=tol,
        surface_height=np.array(heights),
        failures=failures,
    )
    # every retained sample must sit inside the chart domain
    radii = np.sqrt(np.sum(curve.ypp**2, axis=1) + curve.gamma**2)
    if np.any(radii >= chart.domain_radius):
        raise DomainError("a solved sample escaped the chart domain")
    return curve
