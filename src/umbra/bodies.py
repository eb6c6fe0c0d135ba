"""Convex bodies as implicit oracles plus local concave boundary charts.

A body is the sublevel set ``{G <= 0}`` of a convex function given through
value / gradient / (optional) Hessian callbacks.  Local boundary geometry is
exposed through concave charts: after translating a boundary point to the
origin and rotating its outward normal onto ``+e_n``, the surface is the
graph ``x_n = phi(x')`` of a concave function with ``phi(0) = 0`` and
``grad phi(0) = 0``, and the body occupies the subgraph ``x_n <= phi(x')``.

The analytic catalog covers ellipsoids and balls (uniformly convex, smooth),
a strictly-but-not-uniformly convex patch with a controllable flat direction
(``kiselman``), the convex hull of a circle and an off-plane apex
(``cone_over_circle``), parabola epigraphs touching on a Cantor-like set
(``cantor_contact``), and capped paraboloids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    ChartError,
    DegeneratePointError,
    DomainError,
    ParameterError,
    SpecError,
)

TOL_BOUNDARY = 1e-10
FD_HESSIAN_STEP = 1e-5  # relative to the body scale
MAX_FIBER_ITER = 100

Scalar = float
VecOracle = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# rigid frames


@dataclass(frozen=True)
class Pose:
    """Rigid placement: ``world = rotation @ local + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, float)
        t = np.asarray(self.translation, float).ravel()
        n = t.shape[0]
        if R.shape != (n, n):
            raise ParameterError("rotation and translation dimensions disagree")
        if not np.allclose(R @ R.T, np.eye(n), atol=1e-9):
            raise ParameterError("rotation matrix is not orthogonal")
        if np.linalg.det(R) < 0.0:
            raise ParameterError("rotation matrix must have determinant +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(dim: int) -> "Pose":
        return Pose(np.eye(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def to_world(self, local) -> np.ndarray:
        return self.rotation @ np.asarray(local, float) + self.translation

    def to_local(self, world) -> np.ndarray:
        return self.rotation.T @ (np.asarray(world, float) - self.translation)

    def rotate_to_world(self, v) -> np.ndarray:
        return self.rotation @ np.asarray(v, float)

    def rotate_to_local(self, v) -> np.ndarray:
        return self.rotation.T @ np.asarray(v, float)

    def to_dict(self) -> dict:
        return {
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }


def rotation_with_last_axis(target) -> np.ndarray:
    """Rotation (det +1) whose last column is the given unit direction.

    Built from the Householder reflection swapping ``e_n`` and the target,
    with one tangential column negated to restore orientation.
    """
    t = np.asarray(target, float)
    n = t.shape[0]
    nt = np.linalg.norm(t)
    if nt < 1e-14:
        raise ParameterError("zero vector has no direction")
    t = t / nt
    e = np.zeros(n)
    e[-1] = 1.0
    v = e - t
    nv = np.linalg.norm(v)
    if nv < 1e-13:
        return np.eye(n)
    v = v / nv
    R = np.eye(n) - 2.0 * np.outer(v, v)
    if n >= 2:
        R[:, 0] = -R[:, 0]  # restore det = +1; last column is untouched
    return R


# ---------------------------------------------------------------------------
# regularity metadata


@dataclass(frozen=True)
class Convexity:
    """Convexity class of a body: plain, strict, or uniform with modulus."""

    kind: str
    modulus: float | None = None

    _KINDS = ("convex", "strictly_convex", "uniformly_convex")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown convexity kind {self.kind!r}")
        if self.kind == "uniformly_convex":
            if self.modulus is None or self.modulus <= 0:
                raise ParameterError("uniform convexity needs a modulus > 0")
        elif self.modulus is not None:
            raise ParameterError("modulus only applies to uniformly_convex")

    @staticmethod
    def convex() -> "Convexity":
        return Convexity("convex")

    @staticmethod
    def strictly_convex() -> "Convexity":
        return Convexity("strictly_convex")

    @staticmethod
    def uniformly_convex(modulus: float) -> "Convexity":
        return Convexity("uniformly_convex", modulus)

    @property
    def at_least_strict(self) -> bool:
        return self.kind in ("strictly_convex", "uniformly_convex")


@dataclass(frozen=True)
class Smoothness:
    """Boundary smoothness class.

    ``C0`` covers piecewise-smooth catalog members (hulls, capped bodies)
    whose boundary has edges; the other kinds follow the usual Hoelder /
    differentiability ladder.  ``order`` is the Hoelder exponent for
    ``C1_alpha`` and the differentiability order (possibly ``inf``) for
    ``Ck``.
    """

    kind: str
    order: float | None = None

    _KINDS = ("C0", "C1", "C1_alpha", "C1_1", "Ck")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown smoothness kind {self.kind!r}")
        if self.kind == "C1_alpha":
            if self.order is None or not (0.0 < self.order <= 1.0):
                raise ParameterError("C1_alpha needs an exponent in (0, 1]")
        if self.kind == "Ck":
            if self.order is None or self.order < 1:
                raise ParameterError("Ck needs an order k >= 1")

    @staticmethod
    def smooth() -> "Smoothness":
        return Smoothness("Ck", math.inf)


# ---------------------------------------------------------------------------
# implicit bodies


@dataclass(frozen=True)
class ImplicitBody:
    """Convex body ``{x : G(x) <= 0}`` with oracle access to G.

    ``bounding_radius`` is the radius of a ball around ``center`` containing
    the body; for local patch models (see ``kiselman``) it bounds the region
    where the oracles are a faithful convex model, and sampling utilities
    stay inside it.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: VecOracle
    hessian: VecOracle | None
    bounding_radius: float
    center: np.ndarray
    convexity: Convexity
    smoothness: Smoothness
    name: str = ""
    # smallest |branch difference| for piecewise oracles; lets samplers skip
    # finite-difference checks straddling a kink (None for globally smooth G)
    kink_margin: Callable[[np.ndarray], float] | None = None
    bounded: bool = True
    # (A, c, rhs) when G(x) = (x-c)^T A (x-c) - rhs; lets charts solve their
    # fibers in closed form instead of iterating
    quadric: tuple | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ParameterError("bodies live in dimension >= 2")
        if self.bounding_radius <= 0:
            raise ParameterError("bounding_radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, float))

    # -- oracle access ------------------------------------------------------

    def value_at(self, x) -> float:
        return float(self.value(np.asarray(x, float)))

    def gradient_at(self, x) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(x, float)), float)

    def hessian_at(self, x, step: float | None = None) -> np.ndarray:
        """Analytic Hessian when available, else a central-difference one."""
        x = np.asarray(x, float)
        if self.hessian is not None:
            return np.asarray(self.hessian(x), float)
        return self.fd_hessian(x, step)

    def fd_hessian(self, x, step: float | None = None) -> np.ndarray:
        x = np.asarray(x, float)
        h = step if step is not None else FD_HESSIAN_STEP * self.bounding_radius
        n = self.dim
        H = np.empty((n, n))
        for j in range(n):
            dx = np.zeros(n)
            dx[j] = h
            H[:, j] = (self.gradient_at(x + dx) - self.gradient_at(x - dx)) / (2 * h)
        return 0.5 * (H + H.T)

    def fd_hessian_consistency(self, x) -> float:
        """Relative mismatch between FD Hessians at steps h and h/2.

        Large values flag points where G is not twice differentiable.
        """
        h = FD_HESSIAN_STEP * self.bounding_radius
        H1 = self.fd_hessian(x, h)
        H2 = self.fd_hessian(x, 0.5 * h)
        scale = max(1.0, float(np.abs(H1).max()))
        return float(np.abs(H1 - H2).max()) / scale

    @property
    def has_analytic_hessian(self) -> bool:
        return self.hessian is not None

    def unit_normal(self, x) -> np.ndarray:
        g = self.gradient_at(x)
        ng = np.linalg.norm(g)
        if ng < 1e-12:
            raise DegeneratePointError("gradient vanishes; no normal direction")
        return g / ng

    def on_boundary(self, x, tol: float = TOL_BOUNDARY) -> bool:
        return abs(self.value_at(x)) <= tol

    def diameter_bound(self) -> float:
        return 2.0 * self.bounding_radius


def boundary_point_along(body: ImplicitBody, direction, origin=None) -> np.ndarray:
    """Boundary crossing of the ray from an interior point.

    Marches out to twice the bounding radius and bisects the sign change of
    G.  Raises ChartError when the ray never leaves the body within range
    (possible for unbounded patch models).
    """
    d = np.asarray(direction, float)
    nd = np.linalg.norm(d)
    if nd < 1e-14:
        raise ParameterError("zero direction")
    d = d / nd
    x0 = np.asarray(origin, float) if origin is not None else body.center
    if body.value_at(x0) >= 0:
        raise ChartError("ray origin must be interior to the body")
    s_hi = 2.0 * body.bounding_radius
    if body.value_at(x0 + s_hi * d) <= 0:
        raise ChartError("ray does not exit the body within the bounding ball")
    lo, hi = 0.0, s_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if body.value_at(x0 + mid * d) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * s_hi:
            break
    s = 0.5 * (lo + hi)
    # Newton polish against G along the ray
    for _ in range(5):
        x = x0 + s * d
        g = float(np.dot(body.gradient_at(x), d))
        if g <= 0:
            break
        step = body.value_at(x) / g
        s_new = s - step
        if not (lo - 1e-12 <= s_new <= hi + 1e-12):
            break
        s = s_new
        if abs(step) < 1e-16 * s_hi:
            break
    return x0 + s * d


# ---------------------------------------------------------------------------
# concave charts


@dataclass(frozen=True)
class ConcaveChart:
    """Local graph ``x_n = phi(x')`` of a convex-body boundary.

    Chart coordinates put the base point at the origin with the outward
    normal along ``+e_n``; ``pose`` maps chart coordinates to world
    coordinates.  ``phi`` is concave on the open ball ``|x'| < domain_radius``
    with ``phi(0) = 0`` and ``grad phi(0) = 0``.

    ``holder_L``, ``concavity_theta`` and ``holder_alpha`` are optional
    regularity constants: a gradient Hoelder bound
    ``|grad phi(y') - grad phi(z')| <= L |y' - z'|^alpha`` and a uniform
    concavity modulus
    ``<grad phi(y') - grad phi(z'), y' - z'> <= -theta |y' - z'|^2``.

    ``hessian`` (and ``hess_phi``, when given) takes a point ``(m,)`` and
    returns ``(m, m)``, or a stack ``(N, m)`` and returns ``(N, m, m)``; a
    stack raises the error its first bad row raises as a point.
    """

    dim_domain: int
    phi: Callable[[np.ndarray], float]
    grad_phi: VecOracle
    hess_phi: VecOracle | None
    domain_radius: float
    pose: Pose | None = None
    holder_L: float | None = None
    concavity_theta: float | None = None
    holder_alpha: float | None = None

    def __post_init__(self):
        if self.domain_radius <= 0:
            raise ParameterError("domain_radius must be positive")

    def _check_domain(self, xp: np.ndarray):
        if float(np.dot(xp, xp)) >= self.domain_radius * self.domain_radius:
            raise DomainError(
                f"point at radius {np.linalg.norm(xp):.3g} outside chart domain "
                f"{self.domain_radius:.3g}"
            )

    def value(self, xp) -> float:
        xp = np.atleast_1d(np.asarray(xp, float))
        self._check_domain(xp)
        return float(self.phi(xp))

    def gradient(self, xp) -> np.ndarray:
        xp = np.atleast_1d(np.asarray(xp, float))
        self._check_domain(xp)
        return np.asarray(self.grad_phi(xp), float)

    def hessian(self, xp) -> np.ndarray:
        """Hessian at a point ``(m,)``, or Hessians ``(N, m, m)`` at a stack
        ``(N, m)``."""
        xp = np.atleast_1d(np.asarray(xp, float))
        m = self.dim_domain
        if xp.ndim == 2:
            if self.hess_phi is None:
                return np.array([self.hessian(x) for x in xp]).reshape(len(xp), m, m)
            r2 = self.domain_radius * self.domain_radius
            outside = np.flatnonzero(np.einsum("ij,ij->i", xp, xp) >= r2)
            if outside.size:
                k = outside[0]
                if k:
                    self.hessian(xp[:k])  # earlier rows raise their own errors first
                self._check_domain(xp[k])
            return np.asarray(self.hess_phi(xp), float)
        self._check_domain(xp)
        if self.hess_phi is not None:
            return np.asarray(self.hess_phi(xp), float)
        h = 1e-6 * self.domain_radius
        H = np.empty((m, m))
        for j in range(m):
            dx = np.zeros(m)
            dx[j] = h
            H[:, j] = (self.gradient(xp + dx) - self.gradient(xp - dx)) / (2 * h)
        return 0.5 * (H + H.T)

    @property
    def has_hessian(self) -> bool:
        return self.hess_phi is not None

    def to_world(self, xp) -> np.ndarray:
        """World position of the graph point above ``xp``."""
        xp = np.atleast_1d(np.asarray(xp, float))
        chart_pt = np.append(xp, self.value(xp))
        if self.pose is None:
            return chart_pt
        return self.pose.to_world(chart_pt)

    def normal_world(self, xp) -> np.ndarray:
        """Outward unit normal of the body at the graph point above ``xp``."""
        w = self.gradient(xp)
        nu = np.append(-w, 1.0) / math.sqrt(float(np.dot(w, w)) + 1.0)
        if self.pose is None:
            return nu
        return self.pose.rotate_to_world(nu)

    def with_constants(self, holder_L, concavity_theta, holder_alpha) -> "ConcaveChart":
        return replace(
            self,
            holder_L=holder_L,
            concavity_theta=concavity_theta,
            holder_alpha=holder_alpha,
        )


def _safeguarded_fiber_root(f, fprime, lo, hi, tol=TOL_BOUNDARY):
    """Root of a continuous f with f(lo) <= 0 <= f(hi).

    Newton from the midpoint, falling back to bisection whenever the Newton
    iterate leaves the bracket.  f is convex along body fibers so the
    bracketed root is the unique upper crossing.
    """
    flo, fhi = f(lo), f(hi)
    if flo > tol or fhi < -tol:
        raise ChartError("fiber bracket does not straddle the boundary")
    # endpoints already within tolerance count as the root (the chart base
    # point itself is only known to boundary tolerance)
    if fhi < 0:
        return hi
    if flo > 0:
        return lo
    x = 0.5 * (lo + hi)
    for _ in range(MAX_FIBER_ITER):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        d = fprime(x)
        x_newton = x - fx / d if d > 0 else math.inf
        if lo < x_newton < hi:
            x = x_newton
        else:
            x = 0.5 * (lo + hi)
        if hi - lo < 1e-17 * max(1.0, abs(hi) + abs(lo)):
            return 0.5 * (lo + hi)
    raise ChartError("fiber root-finding did not converge")


def _quadric_fiber_root(quad, xp, s_max):
    """Upper root s of G on the fiber above ``xp`` for a quadric in chart
    coordinates, ``G(xp, s) = a2 s^2 + 2 a1 s + a0``.

    Raises ChartError where the iterative solve would: the fiber misses the
    body, the root lies outside ``|s| <= s_max``, or its residual exceeds
    the boundary tolerance.
    """
    Ac, cc, rhs = quad
    d = np.empty(cc.shape[0])
    d[:-1] = xp
    d[-1] = 0.0
    d -= cc
    Ad = Ac @ d
    a2, a1, a0 = Ac[-1, -1], float(Ad[-1]), float(d @ Ad) - rhs
    disc = a1 * a1 - a2 * a0
    if disc < 0:
        raise ChartError("fiber does not cross the boundary in range")
    sq = math.sqrt(disc)
    # cancellation-free upper root
    root = -a0 / (a1 + sq) if a1 > 0 else (sq - a1) / a2
    if not -s_max <= root <= s_max:
        raise ChartError("fiber root lies outside the chart height range")
    if abs(a0 + root * (2.0 * a1 + a2 * root)) > TOL_BOUNDARY:
        raise ChartError("fiber root-finding did not converge")
    return root


def _quadric_fiber_gradients(quad, xp, r, s_max):
    """Chart-frame gradients ``2 Ac (v - cc)`` of a quadric G at the graph
    points above the rows of ``xp`` ``(N, m)``, in one vectorised pass.

    Also returns which rows pass the point path's checks: inside the domain
    radius ``r``, a fiber that meets the body, a root within ``s_max`` and
    the boundary tolerance, and a transversal fiber.
    """
    Ac, cc, rhs = quad
    d = np.empty((xp.shape[0], cc.shape[0]))
    d[:, :-1] = xp
    d[:, -1] = 0.0
    d -= cc
    Ad = d @ Ac
    a2, a1 = Ac[-1, -1], Ad[:, -1]
    a0 = np.einsum("ij,ij->i", d, Ad) - rhs
    disc = a1 * a1 - a2 * a0
    sq = np.sqrt(disc)  # NaN where the fiber misses the body: fails the range check
    # cancellation-free upper root
    root = np.where(a1 > 0, -a0 / (a1 + sq), (sq - a1) / a2)
    d[:, -1] += root
    gc = 2.0 * (d @ Ac)
    ok = (
        (np.einsum("ij,ij->i", xp, xp) < r * r)
        & (np.abs(root) <= s_max)
        & (np.abs(a0 + root * (2.0 * a1 + a2 * root)) <= TOL_BOUNDARY)
        & (gc[:, -1] > 0)
    )
    return gc, ok


def _graph_hessian(gc, Hc):
    """Hessian ``-(A + b f1^T + f1 b^T + c f1 f1^T) / g_n`` of the graph
    ``x_n = phi(x')`` of ``{G = 0}``, where ``gc = grad G`` and
    ``Hc = [[A, b], [b^T, c]] = hess G`` at the graph point and
    ``f1 = -gc[:-1] / g_n = grad phi``.  Leading axes broadcast over stacks.
    """
    gn = gc[..., -1:, None]
    f1 = -gc[..., None, :-1] / gn  # row vector
    bf = Hc[..., :-1, -1:] * f1
    f1f1 = np.swapaxes(f1, -1, -2) * f1
    return -(Hc[..., :-1, :-1] + bf + np.swapaxes(bf, -1, -2) + Hc[..., -1:, -1:] * f1f1) / gn


def chart_at(
    body: ImplicitBody,
    p,
    domain_radius: float | None = None,
    tangent_hint=None,
) -> ConcaveChart:
    """Concave chart of the body boundary at a boundary point.

    The chart frame sends ``p`` to the origin and the outward normal to
    ``+e_n``; phi is the upper root of G along each vertical fiber.  Bodies
    carrying ``quadric`` solve that root, and take the derivatives of G, in
    closed form; other bodies use safeguarded Newton root-finding.
    ``hess_phi`` takes a point ``(m,)`` or a stack ``(N, m)`` and returns
    ``(m, m)`` or ``(N, m, m)``: quadric charts evaluate a stack in one
    vectorised pass, other charts row by row.
    ``tangent_hint`` forces the (n-1)-st tangent axis to the (normalized,
    tangentially projected) hint direction.

    When ``domain_radius`` is omitted it is probed: starting from half the
    bounding radius, the radius is halved until fiber solves succeed on a
    ring of test points.
    """
    p = np.asarray(p, float)
    if abs(body.value_at(p)) > 10 * TOL_BOUNDARY * max(1.0, body.bounding_radius):
        raise ChartError(f"point is not on the boundary (G = {body.value_at(p):.3g})")
    g = body.gradient_at(p)
    ng = np.linalg.norm(g)
    if ng < 1e-12:
        raise DegeneratePointError("gradient vanishes at the requested point")
    nu = g / ng
    R = rotation_with_last_axis(nu)
    if tangent_hint is not None:
        h = np.asarray(tangent_hint, float)
        h_tan = h - np.dot(h, nu) * nu
        nh = np.linalg.norm(h_tan)
        if nh < 1e-12:
            raise ParameterError("tangent hint is parallel to the normal")
        h_tan = h_tan / nh
        # rebuild the tangent columns with the hint as the (n-1)-st axis
        cols = [R[:, j] for j in range(body.dim - 1)]
        basis = [h_tan]
        for c in cols:
            w = c - sum(np.dot(c, b) * b for b in basis) - np.dot(c, nu) * nu
            if np.linalg.norm(w) > 1e-8:
                basis.append(w / np.linalg.norm(w))
            if len(basis) == body.dim - 1:
                break
        if len(basis) < body.dim - 1:
            raise ChartError("could not complete tangent basis around hint")
        order = basis[1:] + [basis[0]]  # hint goes last among tangent axes
        R = np.column_stack(order + [nu])
        if np.linalg.det(R) < 0 and body.dim >= 3:
            R[:, 0] = -R[:, 0]
    pose = Pose(R, p)
    n = body.dim
    Rt = R.T

    # quadric in chart coordinates: G = (v - cc)^T Ac (v - cc) - rhs
    quad = None
    if body.quadric is not None:
        A, c, rhs = body.quadric
        Ac = Rt @ A @ R
        if Ac[-1, -1] > 0:  # G is a parabola along fibers; a flat A keeps iterating
            quad = (Ac, Rt @ (c - p), float(rhs))

    def world_of(xp, s):
        v = np.empty(n)
        v[:-1] = xp
        v[-1] = s
        return R @ v + p

    # fiber solve: G is convex along the fiber, >= 0 on the tangent plane
    # (s = 0), negative inside.  March downward to bracket the upper
    # crossing.  The height range is set by the body scale, not the chart
    # radius: the domain constraint applies to tangent coordinates only.
    normal_col = R[:, -1]

    def solve_fiber(xp, r):
        xp = np.asarray(xp, float)
        if float(np.dot(xp, xp)) >= r * r:
            raise DomainError("fiber base point outside chart domain")
        s_max = 2.0 * body.bounding_radius + r
        if quad is not None:
            return _quadric_fiber_root(quad, xp, s_max)
        f = lambda s: float(body.value(world_of(xp, s)))
        fp = lambda s: float(np.dot(body.gradient(world_of(xp, s)), normal_col))

        # fast path: fit a parabola through three fiber samples and verify
        # its upper root; it serves non-quadric bodies only (quadrics
        # returned above) and is harmless where it misses
        f0 = f(0.0)
        if f0 >= -TOL_BOUNDARY:
            h = s_max / 48.0
            f1, f2 = f(-h), f(-2.0 * h)
            gam = (f2 - 2.0 * f1 + f0) / (2.0 * h * h)
            bet = (f2 - 4.0 * f1 + 3.0 * f0) / (2.0 * h)
            root = None
            if abs(gam) < 1e-14 * max(1.0, abs(bet)):
                if bet > 0:
                    root = -f0 / bet
            elif gam > 0:
                disc = bet * bet - 4.0 * gam * f0
                if disc >= 0:
                    q = -0.5 * (bet + math.copysign(math.sqrt(disc), bet))
                    cands = [q / gam] + ([f0 / q] if q != 0 else [])
                    root = max(c for c in cands)
            if root is not None and -s_max <= root <= TOL_BOUNDARY:
                if abs(f(root)) <= TOL_BOUNDARY:
                    return root

        k, steps = 1, 48
        s_prev = 0.0
        if f0 < -TOL_BOUNDARY:
            # base fiber point already inside: bracket upward instead
            if f(s_max) <= 0:
                raise ChartError("fiber does not cross the boundary in range")
            return _safeguarded_fiber_root(f, fp, 0.0, s_max)
        while k <= steps:
            s = -s_max * k / steps
            if f(s) <= 0:
                return _safeguarded_fiber_root(f, fp, s, s_prev)
            s_prev = s
            k += 1
        raise ChartError("fiber root-finding failed inside the chart domain")

    # probe / fix the domain radius
    if domain_radius is None:
        r = 0.5 * body.bounding_radius
        ring = np.array([[math.cos(a), math.sin(a)] for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)])
        for _ in range(8):
            try:
                for q in ring:
                    xp = np.zeros(body.dim - 1)
                    xp[: min(2, body.dim - 1)] = q[: min(2, body.dim - 1)] * 0.95 * r
                    solve_fiber(xp, r * 1.0001)
                break
            except (ChartError, DomainError):
                r *= 0.5
        else:
            raise ChartError("no workable chart domain radius found")
        domain_radius = r

    r_dom = float(domain_radius)

    # gradient (and Hessian) of G in chart coordinates at the fiber point
    if quad is not None:
        H2 = 2.0 * quad[0]

        def frame_derivatives(xp, hessian):
            v = np.empty(n)
            v[:-1] = xp
            v[-1] = solve_fiber(xp, r_dom)
            return H2 @ (v - quad[1]), H2

    else:

        def frame_derivatives(xp, hessian):
            w = world_of(xp, solve_fiber(xp, r_dom))
            gc = Rt @ np.asarray(body.gradient(w), float)
            return gc, (Rt @ np.asarray(body.hessian(w), float) @ R if hessian else None)

    def phi(xp):
        return solve_fiber(xp, r_dom)

    def grad_phi(xp):
        gc, _ = frame_derivatives(xp, False)
        if gc[-1] <= 0:
            raise ChartError("chart gradient degenerate: fiber is not transversal")
        return -gc[:-1] / gc[-1]

    hess_phi = None
    if quad is not None or body.has_analytic_hessian:
        m = n - 1

        def hess_phi(xp):
            xp = np.asarray(xp, float)
            if xp.ndim == 2:
                if quad is None:
                    return np.array([hess_phi(x) for x in xp]).reshape(len(xp), m, m)
                # rows failing the checks may hold NaN or divide by zero
                with np.errstate(invalid="ignore", divide="ignore"):
                    gc, ok = _quadric_fiber_gradients(quad, xp, r_dom, 2.0 * body.bounding_radius + r_dom)
                    H = _graph_hessian(gc, H2)
                for k in np.flatnonzero(~ok):
                    H[k] = hess_phi(xp[k])  # the point path raises this row's error
                return H
            gc, Hc = frame_derivatives(xp, True)
            if gc[-1] <= 0:
                raise ChartError("chart Hessian degenerate: fiber is not transversal")
            return _graph_hessian(gc, Hc)

    return ConcaveChart(
        dim_domain=body.dim - 1,
        phi=phi,
        grad_phi=grad_phi,
        hess_phi=hess_phi,
        domain_radius=r_dom,
        pose=pose,
    )


# ---------------------------------------------------------------------------
# analytic catalog


def _posed(base: ImplicitBody, pose: Pose | None) -> ImplicitBody:
    if pose is None:
        return base
    if pose.dim != base.dim:
        raise SpecError("pose dimension does not match the body dimension")
    R, Rt = pose.rotation, pose.rotation.T

    value = lambda x: base.value(pose.to_local(x))
    gradient = lambda x: R @ base.gradient(pose.to_local(x))
    hessian = None
    if base.hessian is not None:
        hessian = lambda x: R @ base.hessian(pose.to_local(x)) @ Rt
    kink = None
    if base.kink_margin is not None:
        kink = lambda x: base.kink_margin(pose.to_local(x))
    quadric = None
    if base.quadric is not None:
        A, c, rhs = base.quadric
        quadric = (R @ A @ Rt, pose.to_world(c), rhs)
    return replace(
        base,
        value=value,
        gradient=gradient,
        hessian=hessian,
        center=pose.to_world(base.center),
        kink_margin=kink,
        quadric=quadric,
    )


def ellipsoid(semiaxes, pose: Pose | None = None) -> ImplicitBody:
    """Axis-aligned ellipsoid ``sum x_i^2 / a_i^2 <= 1``, optionally posed.

    Uniformly convex with modulus ``2 min(1/a_i^2)`` for the gradient
    monotonicity inequality.
    """
    a = np.asarray(semiaxes, float)
    if a.ndim != 1 or a.shape[0] < 2 or np.any(a <= 0):
        raise ParameterError("semiaxes must be >= 2 positive numbers")
    w = 1.0 / a**2
    A = np.diag(w)
    body = ImplicitBody(
        dim=a.shape[0],
        value=lambda x: float(np.dot(x, w * x) - 1.0),
        gradient=lambda x: 2.0 * w * x,
        hessian=lambda x: 2.0 * A,
        bounding_radius=float(a.max()),
        center=np.zeros(a.shape[0]),
        convexity=Convexity.uniformly_convex(2.0 * float(w.min())),
        smoothness=Smoothness.smooth(),
        name=f"ellipsoid{tuple(round(float(s), 6) for s in a)}",
        quadric=(A, np.zeros(a.shape[0]), 1.0),
    )
    return _posed(body, pose)


def translated_ball(center, radius: float, pose: Pose | None = None) -> ImplicitBody:
    """Ball ``|x - c|^2 <= r^2`` through the quadratic defining function."""
    c = np.asarray(center, float)
    r = float(radius)
    if r <= 0:
        raise ParameterError("radius must be positive")
    body = ImplicitBody(
        dim=c.shape[0],
        value=lambda x: float(np.dot(x - c, x - c) - r * r),
        gradient=lambda x: 2.0 * (x - c),
        hessian=lambda x: 2.0 * np.eye(c.shape[0]),
        bounding_radius=r,
        center=c,
        convexity=Convexity.uniformly_convex(2.0),
        smoothness=Smoothness.smooth(),
        name=f"ball(r={r})",
        quadric=(np.eye(c.shape[0]), c, r * r),
    )
    return _posed(body, pose)


def _kiselman_profile(q: int):
    """Value/derivative oracles for the strictly convex strip profile.

    ``f(x, y) = x^2 (4 - y + y^2/2) + y^(q+1)/(q+1) - y^(q+2)/(q+2)`` is
    convex on the strip ``|y| < 1/2`` with
    ``df/dy = (y^q - x^2)(1 - y)``; the Hessian degenerates only at the
    origin, which kills uniform convexity while keeping strict convexity.
    """

    def f(x, y):
        return x * x * (4.0 - y + 0.5 * y * y) + y ** (q + 1) / (q + 1) - y ** (q + 2) / (q + 2)

    def fx(x, y):
        return 2.0 * x * (4.0 - y + 0.5 * y * y)

    def fy(x, y):
        return (y**q - x * x) * (1.0 - y)

    def fxx(x, y):
        return 2.0 * (4.0 - y + 0.5 * y * y)

    def fxy(x, y):
        return 2.0 * x * (y - 1.0)

    def fyy(x, y):
        return q * y ** (q - 1) * (1.0 - y) - (y**q - x * x)

    return f, fx, fy, fxx, fxy, fyy


def kiselman(
    q: int,
    strip_half_width: float = 0.49,
    clamp_radius: float | None = None,
    pose: Pose | None = None,
) -> ImplicitBody:
    """Strictly convex body whose shadow boundary is exactly C^(2/q).

    The boundary patch is the graph ``z = -f(x, y)`` of the strip profile
    above; the body occupies the subgraph.  By default this is a local patch
    model: smooth and strictly convex on ``|y| < strip_half_width`` but
    unbounded, with ``bounding_radius`` set to the validity radius.  Passing
    ``clamp_radius`` intersects the patch with a ball of that radius around
    the origin, producing a bounded body suitable for projection queries (at
    the cost of a C0 seam where the ball meets the patch).
    """
    if not isinstance(q, (int, np.integer)) or q < 3 or q % 2 == 0:
        raise ParameterError("q must be an odd integer >= 3")
    if not (0 < strip_half_width < 0.5):
        raise ParameterError("strip_half_width must lie in (0, 1/2)")
    f, fx, fy, fxx, fxy, fyy = _kiselman_profile(int(q))

    def patch_value(p):
        return p[2] + f(p[0], p[1])

    def patch_grad(p):
        return np.array([fx(p[0], p[1]), fy(p[0], p[1]), 1.0])

    def patch_hess(p):
        x, y = p[0], p[1]
        return np.array(
            [
                [fxx(x, y), fxy(x, y), 0.0],
                [fxy(x, y), fyy(x, y), 0.0],
                [0.0, 0.0, 0.0],
            ]
        )

    if clamp_radius is None:
        body = ImplicitBody(
            dim=3,
            value=patch_value,
            gradient=patch_grad,
            hessian=patch_hess,
            bounding_radius=strip_half_width,
            center=np.array([0.0, 0.0, -0.4 * strip_half_width]),
            convexity=Convexity.strictly_convex(),
            smoothness=Smoothness.smooth(),
            name=f"kiselman(q={q})",
            bounded=False,
        )
        return _posed(body, pose)

    rv = float(clamp_radius)
    if not (0 < rv <= strip_half_width):
        raise ParameterError("clamp_radius must lie in (0, strip_half_width]")

    def value(p):
        return max(patch_value(p), float(np.dot(p, p)) - rv * rv)

    def gradient(p):
        if patch_value(p) >= float(np.dot(p, p)) - rv * rv:
            return patch_grad(p)
        return 2.0 * p

    def hessian(p):
        if patch_value(p) >= float(np.dot(p, p)) - rv * rv:
            return patch_hess(p)
        return 2.0 * np.eye(3)

    def kink(p):
        return abs(patch_value(p) - (float(np.dot(p, p)) - rv * rv))

    body = ImplicitBody(
        dim=3,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=rv,
        center=np.array([0.0, 0.0, -0.4 * rv]),
        convexity=Convexity.strictly_convex(),
        smoothness=Smoothness("C0"),
        name=f"kiselman(q={q}, clamped)",
        kink_margin=kink,
    )
    return _posed(body, pose)


def cone_over_circle(pose: Pose | None = None) -> ImplicitBody:
    """Convex hull of the circle ``(x-1)^2 + z^2 = 1, y = 0`` and apex (0,1,0).

    The lateral surface is the zero set of the convex gauge
    ``q(p) = |(x + y - 1, z)| + y - 1`` and the base disk is cut by
    ``y >= 0``; the hull is ``{max(q, -y) <= 0}``.  The segment from the
    origin to the apex lies on the boundary, so the body is convex but not
    strictly convex, and the boundary has an edge along the base rim.
    """

    def parts(p):
        u = np.array([p[0] + p[1] - 1.0, p[2]])
        rho = float(np.linalg.norm(u))
        return u, rho

    def value(p):
        u, rho = parts(p)
        return max(rho + p[1] - 1.0, -p[1])

    def gradient(p):
        u, rho = parts(p)
        if rho + p[1] - 1.0 >= -p[1]:
            if rho < 1e-14:
                raise DegeneratePointError("gauge gradient undefined on the cone axis")
            return np.array([u[0] / rho, u[0] / rho + 1.0, u[1] / rho])
        return np.array([0.0, -1.0, 0.0])

    def hessian(p):
        u, rho = parts(p)
        if rho + p[1] - 1.0 >= -p[1]:
            if rho < 1e-14:
                raise DegeneratePointError("gauge Hessian undefined on the cone axis")
            L = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
            M = np.eye(2) / rho - np.outer(u, u) / rho**3
            return L.T @ M @ L
        return np.zeros((3, 3))

    def kink(p):
        u, rho = parts(p)
        return abs((rho + p[1] - 1.0) - (-p[1]))

    body = ImplicitBody(
        dim=3,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=1.3,
        center=np.array([0.75, 0.25, 0.0]),
        convexity=Convexity.convex(),
        smoothness=Smoothness("C0"),
        name="cone_over_circle",
        kink_margin=kink,
    )
    return _posed(body, pose)


# -- Cantor-contact construction -------------------------------------------


def _bump(s):
    """C-infinity bump on (0,1), normalized to max 1 at s = 1/2."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


def _bump_d2(s):
    """Second derivative of the normalized bump (zero outside (0,1))."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    r = 1.0 / (si * (1.0 - si))
    dr = -(1.0 - 2.0 * si) * r * r
    d2r = (2.0 * si * (1.0 - si) + 2.0 * (1.0 - 2.0 * si) ** 2) * r**3
    out[inside] = (dr * dr - d2r) * np.exp(4.0 - r)
    return out


def cantor_removed_intervals(depth: int) -> list[tuple[float, float, int]]:
    """Middle-third intervals removed from [1, 2] up to the given level.

    Returns (a, b, level) triples; the level-d Cantor approximation is
    [1, 2] minus all intervals with level <= d, i.e. 2^d closed intervals.
    """
    if depth < 1 or depth > 12:
        raise ParameterError("depth must lie in 1..12")
    kept = [(1.0, 2.0)]
    removed = []
    for level in range(1, depth + 1):
        nxt = []
        for a, b in kept:
            third = (b - a) / 3.0
            removed.append((a + third, b - third, level))
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        kept = nxt
    return removed


class _CantorGap:
    """Smooth gap function vanishing exactly on a Cantor approximation.

    Sum of bumps with amplitude 4^-level on each removed middle-third
    interval, plus smooth guards positive outside [1, 2]; the zero set inside
    [1, 2] is exactly the depth-d approximation (2^d closed intervals).
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.intervals = cantor_removed_intervals(depth)
        self._starts = np.array([a for a, _, _ in self.intervals])
        self._ends = np.array([b for _, b, _ in self.intervals])
        self._amps = np.array([4.0 ** (-lvl) for _, _, lvl in self.intervals])

    @staticmethod
    def _guard(x):
        out = np.zeros_like(x)
        right = x > 2.0
        left = x < 1.0
        out[right] = np.exp(-1.0 / (x[right] - 2.0))
        out[left] = np.exp(-1.0 / (1.0 - x[left]))
        return out

    @staticmethod
    def _guard_d2(x):
        out = np.zeros_like(x)
        for mask, t in ((x > 2.0, x[x > 2.0] - 2.0), (x < 1.0, 1.0 - x[x < 1.0])):
            out[mask] = np.exp(-1.0 / t) * (1.0 / t**4 - 2.0 / t**3)
        return out

    def _accumulate(self, x, kernel):
        x = np.atleast_1d(np.asarray(x, float))
        out = np.zeros_like(x)
        order = np.argsort(x)
        xs = x[order]
        for a, b, amp in zip(self._starts, self._ends, self._amps):
            i0, i1 = np.searchsorted(xs, (a, b))
            if i1 > i0:
                w = b - a
                s = (xs[i0:i1] - a) / w
                scale = 1.0 if kernel is _bump else 1.0 / w**2
                out[order[i0:i1]] += amp * scale * kernel(s)
        return out

    def value(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return self._accumulate(x, _bump) + self._guard(x)

    def second_derivative(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return self._accumulate(x, _bump_d2) + self._guard_d2(x)

    def max_abs_second_derivative(self, n_grid: int | None = None) -> float:
        n = n_grid or min(2 * 3 ** (self.depth + 2), 4_000_000)
        x = np.linspace(0.9, 2.1, n)
        return float(np.abs(self.second_derivative(x)).max())


def cantor_contact(
    eps: float,
    cantor_depth: int,
    side: str = "omega",
    pose: Pose | None = None,
) -> ImplicitBody:
    """One body of the Cantor-contact pair in the plane.

    ``omega`` is the capped epigraph of ``f(x) = x^2 + eps * g(x)`` where g
    is a smooth gap function vanishing exactly on the depth-d Cantor
    approximation of [1, 2]; ``lambda`` is the capped epigraph of
    ``h(x) = x^2``.  Since ``g >= 0`` the omega body is nested inside the
    lambda body and the two boundaries touch exactly above the 2^d Cantor
    intervals.  eps must be small enough to keep ``f'' = 2 + eps g'' >= 0``
    (checked numerically on a dense grid).
    """
    if side not in ("omega", "lambda"):
        raise ParameterError("side must be 'omega' or 'lambda'")
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    gap = _CantorGap(cantor_depth)
    if eps > 0:
        m = gap.max_abs_second_derivative()
        if eps * m > 2.0:
            raise ParameterError(
                f"eps too large: convexity fails (eps * max|g''| = {eps * m:.3g} > 2)"
            )

    if side == "omega":
        cap = 6.0

        def profile(x):
            return x * x + eps * float(gap.value(x)[0])

        def profile_d(x):
            h = 1e-7
            # g is analytic but its closed-form first derivative is not worth
            # carrying; use a high-order central difference of the smooth sum
            vals = gap.value(np.array([x - 2 * h, x - h, x + h, x + 2 * h]))
            g1 = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            return 2.0 * x + eps * float(g1)

        name = f"cantor_contact_omega(eps={eps}, depth={cantor_depth})"
    else:
        cap = 8.0
        profile = lambda x: x * x
        profile_d = lambda x: 2.0 * x
        name = f"cantor_contact_lambda(depth={cantor_depth})"

    def value(p):
        return max(profile(p[0]) - p[1], p[1] - cap)

    def gradient(p):
        if profile(p[0]) - p[1] >= p[1] - cap:
            return np.array([profile_d(p[0]), -1.0])
        return np.array([0.0, 1.0])

    def kink(p):
        return abs((profile(p[0]) - p[1]) - (p[1] - cap))

    half_span = math.sqrt(cap)
    center = np.array([0.0, 0.6 * cap])
    radius = math.hypot(half_span, 0.6 * cap) + 0.5
    body = ImplicitBody(
        dim=2,
        value=value,
        gradient=gradient,
        hessian=None,
        bounding_radius=radius,
        center=center,
        convexity=Convexity.convex(),
        smoothness=Smoothness("C0"),
        name=name,
        kink_margin=kink,
    )
    return _posed(body, pose)


def paraboloid_cap(curvature: float, height: float, pose: Pose | None = None, dim: int = 3) -> ImplicitBody:
    """Paraboloid ``x_n >= kappa |x'|^2 / 2`` capped by ``x_n <= height``."""
    kappa, H = float(curvature), float(height)
    if kappa <= 0 or H <= 0:
        raise ParameterError("curvature and height must be positive")

    def value(p):
        return max(0.5 * kappa * float(np.dot(p[:-1], p[:-1])) - p[-1], p[-1] - H)

    def gradient(p):
        if 0.5 * kappa * float(np.dot(p[:-1], p[:-1])) - p[-1] >= p[-1] - H:
            return np.append(kappa * p[:-1], -1.0)
        g = np.zeros(dim)
        g[-1] = 1.0
        return g

    def hessian(p):
        if 0.5 * kappa * float(np.dot(p[:-1], p[:-1])) - p[-1] >= p[-1] - H:
            Hm = kappa * np.eye(dim)
            Hm[-1, -1] = 0.0
            return Hm
        return np.zeros((dim, dim))

    def kink(p):
        return abs((0.5 * kappa * float(np.dot(p[:-1], p[:-1])) - p[-1]) - (p[-1] - H))

    rim = math.sqrt(2.0 * H / kappa)
    center = np.zeros(dim)
    center[-1] = 0.5 * H
    body = ImplicitBody(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=math.hypot(rim, 0.5 * H),
        center=center,
        convexity=Convexity.convex(),
        smoothness=Smoothness("C0"),
        name=f"paraboloid_cap(kappa={kappa}, H={H})",
        kink_margin=kink,
    )
    return _posed(body, pose)


# ---------------------------------------------------------------------------
# serializable specs


_FAMILY_PARAMS = {
    "ellipsoid": {"semiaxes"},
    "translated_ball": {"center", "radius"},
    "kiselman": {"q", "strip_half_width", "clamp_radius"},
    "cone_over_circle": set(),
    "cantor_contact": {"eps", "cantor_depth", "side"},
    "paraboloid_cap": {"curvature", "height"},
}

_FAMILY_REQUIRED = {
    "ellipsoid": {"semiaxes"},
    "translated_ball": {"center", "radius"},
    "kiselman": {"q"},
    "cone_over_circle": set(),
    "cantor_contact": {"eps", "cantor_depth"},
    "paraboloid_cap": {"curvature", "height"},
}


@dataclass(frozen=True)
class BodySpec:
    """Serializable description of a catalog body: family, params, pose."""

    family: str
    params: dict = field(default_factory=dict)
    pose: Pose | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise SpecError(f"unknown family {self.family!r}")
        allowed = _FAMILY_PARAMS[self.family]
        unknown = set(self.params) - allowed
        if unknown:
            raise SpecError(f"unknown params for {self.family}: {sorted(unknown)}")
        missing = _FAMILY_REQUIRED[self.family] - set(self.params)
        if missing:
            raise SpecError(f"missing params for {self.family}: {sorted(missing)}")

    @staticmethod
    def from_dict(d: dict) -> "BodySpec":
        if not isinstance(d, dict):
            raise SpecError("body spec must be a JSON object")
        unknown = set(d) - {"family", "params", "pose"}
        if unknown:
            raise SpecError(f"unknown fields in body spec: {sorted(unknown)}")
        if "family" not in d:
            raise SpecError("body spec needs a 'family' field")
        pose = None
        if d.get("pose") is not None:
            pd = d["pose"]
            if not isinstance(pd, dict) or set(pd) - {"rotation", "translation"}:
                raise SpecError("pose must carry exactly rotation and translation")
            try:
                pose = Pose(np.asarray(pd["rotation"], float), np.asarray(pd["translation"], float))
            except (KeyError, ValueError, ParameterError) as exc:
                raise SpecError(f"bad pose: {exc}") from exc
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("params must be an object")
        return BodySpec(d["family"], dict(params), pose)

    @staticmethod
    def from_json(text: str) -> "BodySpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return BodySpec.from_dict(data)

    @staticmethod
    def load(path) -> "BodySpec":
        with open(path, "r", encoding="utf-8") as fh:
            return BodySpec.from_json(fh.read())

    def to_dict(self) -> dict:
        out = {"family": self.family, "params": dict(self.params)}
        if self.pose is not None:
            out["pose"] = self.pose.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def instantiate(spec: BodySpec) -> ImplicitBody:
    """Build the implicit body described by a spec.

    Raises ParameterError for out-of-range parameters (for instance an even
    Kiselman exponent) and SpecError for malformed documents.
    """
    fam, p = spec.family, spec.params
    if fam == "ellipsoid":
        return ellipsoid(p["semiaxes"], spec.pose)
    if fam == "translated_ball":
        return translated_ball(p["center"], p["radius"], spec.pose)
    if fam == "kiselman":
        return kiselman(
            p["q"],
            p.get("strip_half_width", 0.49),
            p.get("clamp_radius"),
            spec.pose,
        )
    if fam == "cone_over_circle":
        return cone_over_circle(spec.pose)
    if fam == "cantor_contact":
        return cantor_contact(p["eps"], p["cantor_depth"], p.get("side", "omega"), spec.pose)
    if fam == "paraboloid_cap":
        return paraboloid_cap(p["curvature"], p["height"], spec.pose)
    raise SpecError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# sampled self-checks


@dataclass
class ValidationReport:
    """Sampled-invariant diagnostics for a body (necessary conditions only)."""

    n_boundary: int
    n_segments: int
    max_convexity_violation: float
    max_gradient_fd_error: float
    min_monotonicity_ratio: float
    min_boundary_gradient_norm: float
    skipped_kink_points: int

    def raise_on_failure(self, body: ImplicitBody, tol_fd: float = 1e-6):
        if self.max_convexity_violation > 1e-9:
            raise ParameterError(
                f"convexity violated on sampled segments ({self.max_convexity_violation:.3g})"
            )
        if self.max_gradient_fd_error > tol_fd:
            raise ParameterError(
                f"gradient disagrees with finite differences ({self.max_gradient_fd_error:.3g})"
            )
        if self.min_boundary_gradient_norm < 1e-10:
            raise ParameterError("gradient vanishes at a sampled boundary point")
        if body.convexity.kind == "uniformly_convex":
            if self.min_monotonicity_ratio < body.convexity.modulus - 1e-9:
                raise ParameterError(
                    "uniform convexity modulus not met on samples: "
                    f"{self.min_monotonicity_ratio:.6g} < {body.convexity.modulus:.6g}"
                )
        elif body.convexity.at_least_strict and self.min_monotonicity_ratio <= 0.0:
            raise ParameterError("strict monotonicity failed on a sampled pair")


def _sample_near_body(body: ImplicitBody, rng, n: int) -> np.ndarray:
    """Points in the ball around the body center used for invariant sampling."""
    pts = []
    d = body.dim
    while len(pts) < n:
        x = rng.normal(size=d)
        x *= rng.random() ** (1.0 / d) / np.linalg.norm(x)
        pts.append(body.center + body.bounding_radius * x)
    return np.array(pts)


def sample_boundary_points(body: ImplicitBody, rng, n: int, max_tries: int = 20) -> np.ndarray:
    """Boundary points found by ray crossings from the body center.

    Directions whose rays never exit within the bounding ball (possible for
    patch models) are resampled.
    """
    pts = []
    tries = 0
    while len(pts) < n and tries < max_tries * n:
        tries += 1
        d = rng.normal(size=body.dim)
        try:
            pts.append(boundary_point_along(body, d))
        except (ChartError, ParameterError):
            continue
    if len(pts) < n:
        raise ChartError("could not sample enough boundary points")
    return np.array(pts)


def body_self_check(
    body: ImplicitBody,
    rng=None,
    n_points: int = 100,
    tol_fd: float = 1e-6,
    raise_on_failure: bool = True,
) -> ValidationReport:
    """Sampled invariant check: convexity along segments, gradient vs finite
    differences, gradient monotonicity (strict/uniform as declared), and
    nonvanishing boundary gradients.

    These are necessary conditions certified on finitely many samples, not a
    proof of convexity.
    """
    rng = np.random.default_rng(rng)
    pts = _sample_near_body(body, rng, n_points)
    scale = max(1.0, body.bounding_radius)

    # convexity along segments
    max_conv = 0.0
    n_seg = n_points
    for _ in range(n_seg):
        i, j = rng.integers(0, n_points, size=2)
        x, z = pts[i], pts[j]
        gx, gz = body.value_at(x), body.value_at(z)
        for t in (0.25, 0.5, 0.75, rng.random()):
            lhs = body.value_at(t * x + (1 - t) * z)
            max_conv = max(max_conv, lhs - (t * gx + (1 - t) * gz))

    # gradient against centered finite differences (skip kink straddles)
    h = 1e-6 * scale
    max_fd = 0.0
    skipped = 0
    for x in pts:
        if body.kink_margin is not None and body.kink_margin(x) < 100 * h:
            skipped += 1
            continue
        g = body.gradient_at(x)
        fd = np.empty(body.dim)
        for j in range(body.dim):
            dx = np.zeros(body.dim)
            dx[j] = h
            fd[j] = (body.value_at(x + dx) - body.value_at(x - dx)) / (2 * h)
        max_fd = max(max_fd, float(np.abs(fd - g).max()) / (1.0 + float(np.abs(g).max())))

    # gradient monotonicity
    min_ratio = math.inf
    for _ in range(n_points):
        i, j = rng.integers(0, n_points, size=2)
        x, z = pts[i], pts[j]
        dx = x - z
        nn = float(np.dot(dx, dx))
        if nn < 1e-16:
            continue
        if body.kink_margin is not None and (
            body.kink_margin(x) < 100 * h or body.kink_margin(z) < 100 * h
        ):
            continue
        ratio = float(np.dot(body.gradient_at(x) - body.gradient_at(z), dx)) / nn
        min_ratio = min(min_ratio, ratio)

    # boundary gradients
    bpts = sample_boundary_points(body, rng, min(n_points, 50))
    min_bg = min(float(np.linalg.norm(body.gradient_at(x))) for x in bpts)

    report = ValidationReport(
        n_boundary=len(bpts),
        n_segments=n_seg,
        max_convexity_violation=max_conv,
        max_gradient_fd_error=max_fd,
        min_monotonicity_ratio=min_ratio,
        min_boundary_gradient_norm=min_bg,
        skipped_kink_points=skipped,
    )
    if raise_on_failure:
        report.raise_on_failure(body, tol_fd)
    return report
