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

import functools
import inspect
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
    UmbraError,
    check_positive,
)

TOL_BOUNDARY = 1e-10
FD_HESSIAN_STEP = 1e-5  # relative to the body scale
_ARC_ROWS = 63  # arc points per round of _arc_flip: 6 bits of the bracket a round

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
        if not np.isfinite(t).all():
            raise ParameterError("translation must be finite")
        eye = np.eye(n)
        # np.allclose(R R^T, I, atol=1e-9) as one elementwise comparison; an
        # entry past 1 + 1e-5 (or NaN) alone fails it, and is refused before
        # the product can overflow
        bounded = (np.abs(R) <= 1.0 + 1e-5).all()
        if not (bounded and (np.abs(R @ R.T - eye) <= 1e-9 + 1e-5 * eye).all()):
            raise ParameterError("rotation matrix is not orthogonal")
        if np.linalg.det(R) < 0.0:
            raise ParameterError("rotation matrix must have determinant +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

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


# ---------------------------------------------------------------------------
# implicit bodies


def _central_diff(f, x, h) -> np.ndarray:
    """``(f(x + h e_j) - f(x - h e_j)) / 2h`` at a point x ``(n,)`` or at each
    row of a stack ``(N, n)``, stacked over j along the axis after the
    point's: ``(n, ...)`` or ``(N, n, ...)``.  ``f`` takes stacks and is
    called once, on all 2 N n shifted points."""
    n = x.shape[-1]
    E = h * np.eye(n)
    steps = np.stack([x[..., None, :] + E, x[..., None, :] - E]).reshape(-1, n)
    fx = np.asarray(f(steps), float)
    fx = fx.reshape((2,) + x.shape[:-1] + (n,) + fx.shape[1:])
    return (fx[0] - fx[1]) / (2 * h)


@dataclass(frozen=True)
class ImplicitBody:
    """Convex body ``{x : G(x) <= 0}`` with oracle access to G.

    ``bounding_radius`` is the radius of a ball around ``center`` containing
    the body; for local patch models (see ``kiselman``) it bounds the region
    where the oracles are a faithful convex model, and sampling utilities
    stay inside it.

    ``value``, ``gradient`` and ``hessian`` take a point ``(n,)`` or a stack
    ``(N, n)`` and return a scalar, ``(n,)``, ``(n, n)`` or ``(N,)``,
    ``(N, n)``, ``(N, n, n)``; charts evaluate whole stacks of fibers
    through them.  ``hessian`` may be None (C^{1,1} bodies, the Cantor
    contact pair): ``hessian_at`` then takes central differences of the
    gradient.

    ``pieces`` holds, for a body with a gradient kink, the smooth convex
    ``(value, gradient, Hessian or None)`` triples whose maximum is G, on
    the same shapes: ``_max_of_pieces`` builds G's oracles from them, and
    ``project_point`` solves for nearest points on them.  It is None for a
    smooth body.

    ``vertices`` holds ``(v, in_normal_cone)`` pairs for boundary points v
    where a piece has no gradient (the cone's apex), so no smooth solve
    reaches them: ``in_normal_cone(d)`` tells whether d lies in the body's
    normal cone at v, which makes v the nearest point of ``v + d``.

    ``profile`` is f, a callable on stacks ``(N, n - 1)`` returning ``(N,)``,
    when G(x) = x_n + f(x') exactly, so that the boundary is the graph
    x_n = -f(x').  The catalog sets it on the unclamped ``kiselman`` patch;
    the clamped body has none, and ``_posed`` drops it for any pose.
    ``chart_at`` reads each fiber's height from it when the chart axes are
    the body's own.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: VecOracle
    hessian: VecOracle | None
    bounding_radius: float
    center: np.ndarray
    convexity: Convexity
    pieces: tuple | None = None
    vertices: tuple | None = None
    # (A, c, rhs) when G(x) = (x-c)^T A (x-c) - rhs: rays and chart fibers cross it in closed form
    quadric: tuple | None = None
    profile: VecOracle | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ParameterError("bodies live in dimension >= 2")
        if not self.bounding_radius > 0:
            raise ParameterError("bounding_radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, float))

    # -- oracle access ------------------------------------------------------

    def value_at(self, x) -> float:
        return float(self.value(np.asarray(x, float)))

    def gradient_at(self, x) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(x, float)), float)

    def hessian_at(self, x) -> np.ndarray:
        """Hessian ``(n, n)`` at a point ``(n,)``, or ``(N, n, n)`` at the rows
        of a stack ``(N, n)``: the analytic one when the body has it, else
        symmetrised central differences of the gradient at step
        ``FD_HESSIAN_STEP`` times the bounding radius, from one stacked
        gradient call."""
        x = np.asarray(x, float)
        if self.hessian is not None:
            return np.asarray(self.hessian(x), float)
        H = _central_diff(self.gradient, x, FD_HESSIAN_STEP * self.bounding_radius)
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    def unit_normal(self, x) -> np.ndarray:
        """Outward unit normal at a point ``(n,)`` or each row of ``(N, n)``."""
        g = self.gradient_at(x)
        ng = np.sqrt(np.vecdot(g, g))
        if (ng < 1e-12).any():
            raise DegeneratePointError("gradient vanishes; no normal direction")
        return g / ng if g.ndim == 1 else g / ng[..., None]


def _quadratic_root(a2, a1, a0):
    """Smaller root of a2 t^2 + 2 a1 t + a0 (NaN where there is none), in forms
    that do not cancel: a0 / (sqrt(a1^2 - a2 a0) - a1) for a1 < 0."""
    sq = np.sqrt(a1 * a1 - a2 * a0)
    return np.where(a1 < 0, a0 / (sq - a1), -(a1 + sq) / a2)


def _line_quadric(quadric, origins, directions):
    """Coefficients ``(a2, a1, a0)`` of ``G(o + s d) = a2 s^2 + 2 a1 s + a0``
    on the quadric ``(A, c, rhs)``, for origins ``(N, n)`` and directions
    ``(n,)`` or ``(N, n)``."""
    A, c, rhs = quadric
    w, Ad = origins - c, directions @ A
    return np.vecdot(directions, Ad), np.vecdot(w, Ad), np.vecdot(w, w @ A) - rhs


def _line_roots(value, gradient, origins, directions, t_max, quadric=None):
    """For origins ``(N, n)``, directions ``(n,)`` or ``(N, n)`` and t_max
    scalar or ``(N,)``: the smallest t in [0, t_max] with G(o + t d) = 0 on
    each row (0 where G(o) <= 0, NaN for a miss), and G at each row's last
    evaluated point.  ``value`` and ``gradient`` take stacks ``(N, n)``; a
    ``quadric`` (ellipsoids and balls) replaces them by ``_quadratic_root``'s
    a0 / (sqrt(a1^2 - a2 a0) - a1), the only root a row can return (a1 < 0).

    Else monotone one-sided Newton on the convex g(t) = G(o + t d) (Ortega &
    Rheinboldt, 1970): while g > 0 the step t += g / (-g') lands where a
    supporting line of g vanishes (a subgradient's, at a kink), at or before
    the first root, so the iterates rise onto it and never pass it.  By the
    same convexity the miss test is exact: g > 0 with g' >= 0 stays positive
    for all larger t, and a step past t_max passed only points where g > 0.
    A row stops at g <= 0 or at a step <= 1e-15 max(1, t_max).  Each round
    makes one stacked gradient and one stacked value call on the rows still
    working, which are compacted only in a round where some row stops.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # misses and zero directions hold NaN
        if quadric is not None:
            a2, a1, a0 = _line_quadric(quadric, origins, directions)
            t = a0 / (np.sqrt(a1 * a1 - a2 * a0) - a1)
            t[(a1 >= 0) | (t > t_max)] = np.nan  # a NaN t (D < 0) stays NaN
            t[a0 <= 0] = 0.0
            return t, a0 + t * (2.0 * a1 + a2 * t)
        N = len(origins)
        t, dw = np.zeros(N), np.empty_like(origins)
        dw[...] = directions
        g = np.asarray(value(origins), float).reshape(N)
        idx = (g > 0).nonzero()[0]  # the rows still stepping, and their state
        ow = xw = origins[idx]
        dw, tw, gw, mw = dw[idx], t[idx], g[idx], (t + t_max)[idx]
        ntol = -1e-15 * np.maximum(1.0, mw)
        while idx.size:
            slope = np.vecdot(gradient(xw), dw)
            q = gw / slope  # minus the Newton step
            tw = tw - q
            go = (q < ntol) & (tw <= mw)
            k = np.count_nonzero(go)
            if k < len(go):  # a miss: slope >= 0 where G > 0, or past t_max
                t[idx], g[idx] = np.where((slope < 0) & (tw <= mw), tw, np.nan), gw
                if not k:
                    break
                idx, ow, dw, tw, mw, ntol = idx[go], ow[go], dw[go], tw[go], mw[go], ntol[go]
            xw = ow + tw[:, None] * dw
            gw = np.asarray(value(xw), float).reshape(len(tw))
            go = gw > 0
            k = np.count_nonzero(go)
            if k < len(go):
                t[idx], g[idx] = tw, gw
                if not k:
                    break
                idx, ow, xw, dw = idx[go], ow[go], xw[go], dw[go]
                tw, gw, mw, ntol = tw[go], gw[go], mw[go], ntol[go]
    return t, g


def boundary_point_along(body: ImplicitBody, direction) -> np.ndarray:
    """Boundary crossing of the ray from the body center along a direction
    ``(n,)``, or along each row of ``(N, n)``.

    ``_line_roots`` runs each ray back from twice the bounding radius toward the
    center (in closed form for a ``quadric``), so the crossing it meets is the
    only one.  Raises ParameterError for a zero direction, and ChartError for a
    center that is not interior, for a ray that does not exit within range
    (possible for unbounded patch models) and for a miss, which shows that G is
    not convex along the ray.  A stack raises the error of its first bad row;
    an empty stack ``(0, n)`` gives ``(0, n)``.
    """
    d = np.asarray(direction, float)
    rows = np.atleast_2d(d)
    nd = np.sqrt(np.vecdot(rows, rows))
    zero = nd < 1e-14
    x0 = body.center
    s = 2.0 * body.bounding_radius
    u = rows / np.where(zero, 1.0, nd)[:, None]
    quad = body.quadric  # a quadric's G at the center is the a0 of any line through it
    g0 = body.value_at(x0) if quad is None else _line_quadric(quad, x0, x0)[2]
    if not g0 < 0:  # every row is bad: the first one raises; an empty stack, the center's error
        if zero[:1].any():
            raise ParameterError("zero direction")
        raise ChartError("ray origin must be interior to the body")
    t, _ = _line_roots(body.value, body.gradient, x0 + s * u, -u, s, quad)
    bad = np.flatnonzero(zero | ~(t > 0))  # t = 0: no exit; NaN: a miss
    if bad.size:
        k = bad[0]
        raise ParameterError("zero direction") if zero[k] else ChartError(
            "ray does not exit the body within the bounding ball" if t[k] == 0 else "G is not convex along the ray"
        )
    p = x0 + (s - t)[:, None] * u
    return p if d.ndim == 2 else p[0]


def _arc_flip(a, b, probe, rng, guess=None):
    """k-section of the great arc from unit direction ``a`` (flag true) to
    ``b`` (flag false), through a perpendicular drawn from ``rng`` if they
    are antipodal.  ``probe`` maps directions ``(K, n)`` to flags ``(K,)``
    and per-row data.  The first round probes both ends of a bracket and
    ``_ARC_ROWS`` points between, each later round ``_ARC_ROWS`` points
    inside the bracket of the first flip from the true end, until no float
    lies inside it.  The first bracket is the whole arc, or, given
    ``guess(w, ang)`` (the arc fraction of the flip for the perpendicular w
    and the arc angle ang), the fractions within ``2048 ulp`` of the guess,
    clipped to [0, 1]; when its ends are not true and then false, the whole
    arc is probed instead.  Returns the probe data at the bracket's true end
    and at its midpoint (which rounds to an end), or None when the arc's
    ends do not bracket a flip.
    """
    w = b - np.dot(a, b) * a
    if np.linalg.norm(w) < 1e-9:  # antipodal: route through a perpendicular
        w = rng.normal(size=a.shape[0])
        w = w - np.dot(a, w) * a
    w = w / np.linalg.norm(w)
    ang = math.acos(max(-1.0, min(1.0, float(np.dot(a, b)))))
    arc = lambda s: np.cos(s * ang)[:, None] * a + np.sin(s * ang)[:, None] * w
    fractions = np.arange(1, _ARC_ROWS + 1) / (_ARC_ROWS + 1)

    def inside(lo, hi):  # the distinct k-section points strictly inside (lo, hi)
        s = np.unique(lo + (hi - lo) * fractions)
        return s[(lo < s) & (s < hi)]

    s = whole = np.concatenate([[0.0], fractions, [1.0]])
    if guess is not None:
        mid = min(1.0, max(0.0, guess(w, ang)))
        lo, hi = max(0.0, mid - 2048 * math.ulp(mid)), min(1.0, mid + 2048 * math.ulp(mid))
        s = np.concatenate([[lo], inside(lo, hi), [hi]])
    flags, data = probe(arc(s))
    if s is not whole and (not flags[0] or flags[-1]):  # the guess's bracket misses the flip
        s = whole
        flags, data = probe(arc(s))
    if not flags[0] or flags[-1]:
        return None
    while True:
        j = 1 + int(np.argmin(np.append(flags[1:-1], False)))  # first false after the true end
        s, flags, data = s[j - 1 : j + 1], flags[j - 1 : j + 1], data[j - 1 : j + 1]
        inner = inside(s[0], s[1])
        if not inner.size:
            return data[0], data[int(0.5 * (s[0] + s[1]) == s[1])]
        f, d = probe(arc(inner))
        s, flags, data = (np.concatenate([e[:1], m, e[1:]]) for e, m in ((s, inner), (flags, f), (data, d)))


# ---------------------------------------------------------------------------
# concave charts


@dataclass(frozen=True)
class ConcaveChart:
    """Local graph ``x_n = phi(x')`` of a convex-body boundary.

    Chart coordinates put the base point at the origin with the outward
    normal along ``+e_n``; ``pose`` maps chart coordinates to world
    coordinates.  ``phi`` is concave on the open ball ``|x'| < domain_radius``
    with ``phi(0) = 0`` and ``grad phi(0) = 0``.

    ``value``, ``gradient`` and ``hessian`` (and ``phi``, ``grad_phi`` and
    ``hess_phi``) take a point ``(m,)`` and return a float, ``(m,)`` or
    ``(m, m)``, or a stack ``(N, m)`` and return ``(N,)``, ``(N, m)`` or
    ``(N, m, m)``; a stack raises the error its first bad row raises as a
    point, and any other shape is a ParameterError.  All three callbacks are
    required: ``chart_at`` gives every chart its ``hess_phi``, from the body
    Hessian or from differences of the body gradient.

    ``quadric`` is ``(A, c, rhs)`` in chart coordinates when the graph is the
    upper sheet of ``(x - c)^T A (x - c) = rhs``, else None.  It only proposes
    shadow-boundary roots, which the chart's own ``grad_phi`` certifies: a
    chart whose callbacks graph something else should set it to None, and
    one that keeps it stays correct but pays for proposals it refuses.
    """

    dim_domain: int
    phi: Callable[[np.ndarray], float]
    grad_phi: VecOracle
    hess_phi: VecOracle
    domain_radius: float
    pose: Pose | None = None
    quadric: tuple | None = None

    def __post_init__(self):
        if not (callable(self.phi) and callable(self.grad_phi) and callable(self.hess_phi)):
            raise ParameterError("a chart needs callable phi, grad_phi and hess_phi")
        r = check_positive("domain_radius", self.domain_radius)
        if r * r == math.inf:  # domain tests compare squared radii
            raise ParameterError(f"domain_radius = {r:.3g} is too large: its square overflows")

    def _check_domain(self, xp: np.ndarray):
        if float(np.dot(xp, xp)) >= self.domain_radius * self.domain_radius:
            raise DomainError(
                f"point at radius {np.linalg.norm(xp):.3g} outside chart domain "
                f"{self.domain_radius:.3g}"
            )

    def _in_domain(self, fn, xp) -> np.ndarray:
        """``fn`` at a point ``(m,)`` or at the rows of a stack ``(N, m)``,
        after the shape and domain checks."""
        xp = np.atleast_1d(np.asarray(xp, float))
        if xp.ndim > 2 or xp.shape[-1] != self.dim_domain:
            raise ParameterError(
                f"chart point has shape {xp.shape}, expected ({self.dim_domain},) or (N, {self.dim_domain})"
            )
        if xp.ndim == 2:
            r2 = self.domain_radius * self.domain_radius
            outside = np.flatnonzero(np.einsum("ij,ij->i", xp, xp) >= r2)
            if outside.size:
                k = outside[0]
                if k:
                    self._in_domain(fn, xp[:k])  # earlier rows raise their own errors first
                self._check_domain(xp[k])
        else:
            self._check_domain(xp)
        return np.asarray(fn(xp), float)

    def value(self, xp):
        v = self._in_domain(self.phi, xp)
        return float(v) if v.ndim == 0 else v

    def gradient(self, xp) -> np.ndarray:
        return self._in_domain(self.grad_phi, xp)

    def hessian(self, xp) -> np.ndarray:
        return self._in_domain(self.hess_phi, xp)

    def to_world(self, xp) -> np.ndarray:
        """World position of the graph point above ``xp``."""
        xp = np.atleast_1d(np.asarray(xp, float))
        chart_pt = np.append(xp, self.value(xp))
        if self.pose is None:
            return chart_pt
        return self.pose.to_world(chart_pt)


def _graph_hessian(gc, Hc):
    """Hessian ``-(A + b f^T + f b^T + c f f^T) / g_n`` of the graph
    ``x_n = phi(x')`` of ``{G = 0}``, where ``gc = grad G`` and
    ``Hc = [[A, b], [b^T, c]] = hess G`` at the graph point and
    ``f = -gc[:-1] / g_n = grad phi``.  Each entry is
    ``-(A_ij + b_i f_j + b_j f_i + c (f_i f_j)) / g_n``, built over the
    leading axes from their columns, since broadcasting over the tiny
    trailing ``(m, m)`` axes costs more than the arithmetic.
    """
    gn = gc[..., -1]
    m = gc.shape[-1] - 1
    f = [-gc[..., i] / gn for i in range(m)]
    b, c = Hc[..., :-1, -1], Hc[..., -1, -1]
    out = np.empty(Hc.shape[:-2] + (m, m))
    for i in range(m):
        for j in range(m):
            out[..., i, j] = -(Hc[..., i, j] + b[..., i] * f[j] + b[..., j] * f[i] + c * (f[i] * f[j])) / gn
    return out


def chart_at(
    body: ImplicitBody,
    p,
    domain_radius: float | None = None,
) -> ConcaveChart:
    """Concave chart of the body boundary at a boundary point.

    The chart frame sends ``p`` to the origin and the outward normal to
    ``+e_n``; phi is the upper root of G along each vertical fiber.
    ``phi``, ``grad_phi`` and ``hess_phi`` take a point ``(m,)`` or a stack
    ``(N, m)`` and solve all its fibers at once, on one of three paths:

    - profile: a body carrying ``profile`` f, charted where the chart frame
      is exactly the body's (``rotation_with_last_axis`` gives the identity
      for a normal within rounding of ``+e_n``), has the height
      -(p_n + f(x' + p')) on each fiber, with no oracle call;
    - quadric: ``_quadratic_root`` down every fiber for bodies carrying
      ``quadric`` (ellipsoids and balls);
    - Newton: else ``_line_roots`` run down the fibers in lockstep.

    All three map a failed fiber to the same ChartError.  The oracles of G
    in the chart frame come from the body posed by the inverse chart pose
    (``_posed``), and ``hess_phi`` rests on its ``hessian_at`` at the
    stacked graph points: the analytic Hessian where the body has one,
    central differences of the stacked gradient along the chart axes where
    it does not.  A quadric body
    gives the chart its ``quadric`` in chart coordinates, from which
    shadow-boundary solves propose their roots in closed form.

    When ``domain_radius`` is omitted it is probed: starting from half the
    bounding radius, the radius is halved, down to 1e-6 of the bounding
    radius, until fiber solves succeed on a ring of test points in the first
    two tangent axes and at 0.95 of the radius along both directions of
    every other tangent axis; a fiber a body oracle refuses counts as a
    failed solve.
    """
    p = np.asarray(p, float)
    if p.shape != (body.dim,):
        raise ParameterError(f"chart base point has shape {p.shape}, expected ({body.dim},)")
    if not np.isfinite(p).all():
        raise ParameterError(f"chart base point p must be finite, got {p}")
    with np.errstate(over="ignore", invalid="ignore"):  # G of a far point overflows to inf
        gp = body.value_at(p)
    if not abs(gp) <= 10 * TOL_BOUNDARY * max(1.0, body.bounding_radius):
        raise ChartError(f"point is not on the boundary (G = {gp:.3g})")
    nu = body.unit_normal(p)
    R = rotation_with_last_axis(nu)
    pose = Pose(R, p)
    n = body.dim
    profile = body.profile if (R == np.eye(n)).all() else None  # chart axes are the body's
    local = _posed(body, Pose(R.T, -(R.T @ p)))  # the body in chart coordinates

    def G(v):
        """G at chart-frame points ``(N, n)``."""
        f = np.asarray(local.value(v), float)
        if f.shape != (len(v),):
            raise ParameterError(f"body value of a ({len(v)}, {n}) stack has shape {f.shape}")
        return f

    def lift(xp, s):
        """Chart-frame points ``(N, n)`` at heights s above the rows of xp."""
        v = np.empty((len(xp), n))
        v[:, :-1] = xp
        v[:, -1] = s
        return v

    down = -np.eye(n)[-1]

    def fiber_roots(xp, s_max):
        """Upper roots s of G above the rows of ``xp`` ``(N, m)`` within the
        height range |s| <= s_max (NaN for none), and G there.  G is convex
        along fibers and >= 0 on the tangent plane, so _line_roots runs each
        fiber down from s = 0, or from s_max for base points inside."""
        t, f = _line_roots(G, local.gradient, lift(xp, 0.0), down, s_max)
        s = -t
        up = (t == 0) & (f < -TOL_BOUNDARY)
        if up.any():
            t_up, f[up] = _line_roots(G, local.gradient, lift(xp[up], s_max), down, 2.0 * s_max)
            s[up] = np.where(t_up > 0, s_max - t_up, np.nan)
        return s, f

    def fiber_heights(xp, r):
        """Heights of the boundary above the rows of ``xp`` ``(N, m)`` in a
        chart of radius r, and ``{row: error}`` for rows without one."""
        s_max = 2.0 * body.bounding_radius + r
        inside = np.vecdot(xp, xp) < r * r
        if local.quadric is not None:  # the upper root s = -t, t the first crossing down the fiber
            Ac, cc, rhs = local.quadric
            w = cc - lift(xp, 0.0)  # c - v, so that a1 down -e_n is a column of w Ac
            Aw = w @ Ac
            a2, a1, a0 = Ac[-1, -1], Aw[:, -1], np.vecdot(w, Aw) - rhs
            t = _quadratic_root(a2, a1, a0)
            root, resid = -t, a0 + t * (2.0 * a1 + a2 * t)
        elif profile is not None:  # G = s + p_n + f(x' + p') is increasing in s: -(p_n + f) is its one root
            root, resid = np.full(len(xp), np.nan), np.zeros(len(xp))
            root[inside] = -(p[-1] + profile(xp[inside] + p[:-1]))
        else:
            root, resid = np.full((2, len(xp)), np.nan)
            root[inside], resid[inside] = fiber_roots(xp[inside], s_max)
        ok = inside & (np.abs(root) <= s_max) & (np.abs(resid) <= TOL_BOUNDARY)
        errors = {}
        for k in np.flatnonzero(~ok):
            if not inside[k]:
                errors[k] = DomainError("fiber base point outside chart domain")
            else:
                errors[k] = ChartError(
                    "fiber does not cross the boundary in range" if not abs(root[k]) <= s_max
                    else "fiber root-finding did not converge"
                )
        return root, errors

    # probe / fix the domain radius on a ring in the first two tangent axes
    # and at both ends of every further tangent axis
    m = n - 1
    if domain_radius is None:
        angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])[:, :m]
        probes = np.zeros((8 + 2 * max(m - 2, 0), m))
        probes[:8, : ring.shape[1]] = ring
        for j in range(2, m):
            probes[2 * j + 4, j], probes[2 * j + 5, j] = 1.0, -1.0
        r = 0.5 * body.bounding_radius
        while r >= 1e-6 * body.bounding_radius:  # a thin body's horizon chart can need 1e-4 of it
            try:
                with np.errstate(all="ignore"):  # fibers without a root hold NaN
                    if not fiber_heights(probes * (0.95 * r), r * 1.0001)[1]:
                        break
            except ChartError:  # a body oracle refused a probe fiber
                pass
            r *= 0.5
        else:
            raise ChartError("no workable chart domain radius found")
        domain_radius = r
    r_dom = float(domain_radius)

    def graph(xp, order):
        """phi, grad phi or hess phi (order 0, 1, 2) above a point ``(m,)``
        or the rows of a stack ``(N, m)``, raising the first bad row's
        error."""
        x = np.asarray(xp, float)
        rows = x.reshape(-1, m)
        try:
            with np.errstate(all="ignore"):  # rows without a height hold NaN
                heights, errors = fiber_heights(rows, r_dom)
                v = lift(rows, heights)
                if order == 0:
                    out, transversal = heights, np.ones(len(rows), bool)
                else:
                    gc = local.gradient(v)
                    transversal = gc[:, -1] > 0
                    out = -gc[:, :-1] / gc[:, -1:] if order == 1 else _graph_hessian(gc, local.hessian_at(v))
        except ChartError:  # a body oracle refused some row: find it row by row
            if len(rows) == 1:
                raise
            return np.array([graph(row, order) for row in rows])
        what = "gradient" if order == 1 else "Hessian"
        for k in np.flatnonzero(~transversal):
            errors.setdefault(k, ChartError(f"chart {what} degenerate: fiber is not transversal"))
        if errors:
            raise errors[min(errors)]
        return out if x.ndim == 2 else out[0]

    return ConcaveChart(
        dim_domain=m,
        phi=lambda xp: graph(xp, 0),
        grad_phi=lambda xp: graph(xp, 1),
        hess_phi=lambda xp: graph(xp, 2),
        domain_radius=r_dom,
        pose=pose,
        quadric=local.quadric,
    )


# ---------------------------------------------------------------------------
# analytic catalog


def _quadric_oracles(A, c, rhs):
    """G(x) = (x - c)^T A (x - c) - rhs, its gradient (x - c)(A + A^T) and its
    Hessian A + A^T, each on a point ``(n,)`` or a stack ``(N, n)``."""
    S = A + A.T  # 2A, exactly so for a diagonal or symmetric A
    value = lambda x: np.vecdot(x - c, (x - c) @ A) - rhs
    gradient = lambda x: (x - c) @ S
    hessian = lambda x: np.zeros(np.shape(x)[:-1] + S.shape) + S
    return value, gradient, hessian


def _max_of_pieces(pieces):
    """Value, gradient and Hessian of G = max of smooth pieces
    ``(value, gradient, Hessian or None)``, each on a point ``(n,)`` or a
    stack ``(N, n)``.  Each row takes its largest piece, the first one on
    ties, and only that piece's gradient and Hessian are evaluated on that
    row.  G has a Hessian when every piece has one."""

    def value(p):
        return functools.reduce(np.maximum, [v(p) for v, _, _ in pieces])

    def oracle(order):
        def f(p):
            p = np.asarray(p, float)
            largest = np.argmax([v(p) for v, _, _ in pieces], axis=0)
            first = largest.flat[0] if largest.size else 0
            if (largest == first).all():  # one piece on every row
                return pieces[first][order](p)
            out = np.zeros(p.shape + p.shape[-1:] * (order - 1))
            for i, piece in enumerate(pieces):
                on = largest == i
                if on.any():
                    out[on] = piece[order](p[on])
            return out

        return f

    hessian = oracle(2) if all(h is not None for _, _, h in pieces) else None
    return value, oracle(1), hessian


def _posed(base: ImplicitBody, pose: Pose | None) -> ImplicitBody:
    if pose is None:
        return base
    if pose.dim != base.dim:
        raise SpecError("pose dimension does not match the body dimension")
    R, Rt, t = pose.rotation, pose.rotation.T, pose.translation
    center = pose.to_world(base.center)
    if base.quadric is not None:  # oracles of the world quadric: no rotation in and out per call
        A, c, rhs = base.quadric
        quadric = (R @ A @ Rt, pose.to_world(c), rhs)
        value, gradient, hessian = _quadric_oracles(*quadric)
        return replace(
            base, value=value, gradient=gradient, hessian=hessian, center=center, quadric=quadric, profile=None
        )

    def posed(value, gradient, hessian):
        # (x - t) @ R maps a point, or each row of a stack, to local coordinates
        return (
            lambda x: value((x - t) @ R),
            lambda x: gradient((x - t) @ R) @ Rt,
            None if hessian is None else lambda x: R @ hessian((x - t) @ R) @ Rt,
        )

    value, gradient, hessian = posed(base.value, base.gradient, base.hessian)
    pieces = None if base.pieces is None else tuple(posed(*piece) for piece in base.pieces)
    vertices = None if base.vertices is None else tuple(
        (pose.to_world(v), lambda d, test=test: test(pose.rotate_to_local(d))) for v, test in base.vertices
    )
    return replace(
        base, value=value, gradient=gradient, hessian=hessian, center=center, pieces=pieces, vertices=vertices,
        profile=None,
    )


def ellipsoid(semiaxes, pose: Pose | None = None) -> ImplicitBody:
    """Axis-aligned ellipsoid ``sum x_i^2 / a_i^2 <= 1``, optionally posed.

    Uniformly convex with modulus ``2 min(1/a_i^2)`` for the gradient
    monotonicity inequality.
    """
    a = np.asarray(semiaxes, float)
    if a.ndim != 1 or a.shape[0] < 2 or not np.all((a > 0) & (a < math.inf)):
        raise ParameterError("semiaxes must be >= 2 positive finite numbers")
    w = 1.0 / a**2
    quadric = (np.diag(w), np.zeros(a.shape[0]), 1.0)
    value, gradient, hessian = _quadric_oracles(*quadric)
    body = ImplicitBody(
        dim=a.shape[0],
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=float(a.max()),
        center=np.zeros(a.shape[0]),
        convexity=Convexity.uniformly_convex(2.0 * float(w.min())),
        quadric=quadric,
    )
    return _posed(body, pose)


def translated_ball(center, radius: float, pose: Pose | None = None) -> ImplicitBody:
    """Ball ``|x - c|^2 <= r^2`` through the quadratic defining function."""
    c = np.asarray(center, float)
    r = float(radius)
    if c.ndim != 1 or c.shape[0] < 2 or not np.isfinite(c).all():
        raise ParameterError("center must be a finite point of dimension >= 2")
    if not 0 < r < math.inf:
        raise ParameterError("radius must be positive and finite")
    quadric = (np.eye(c.shape[0]), c, r * r)
    value, gradient, hessian = _quadric_oracles(*quadric)
    body = ImplicitBody(
        dim=c.shape[0],
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=r,
        center=c,
        convexity=Convexity.uniformly_convex(2.0),
        quadric=quadric,
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


def kiselman(q: int, clamp_radius: float | None = None, pose: Pose | None = None) -> ImplicitBody:
    """Strictly convex body whose shadow boundary is exactly C^(2/q).

    The boundary patch is the graph ``z = -f(x, y)`` of the strip profile
    above; the body occupies the subgraph.  By default this is a local patch
    model: smooth and strictly convex on ``|y| < 0.49`` but unbounded, with
    ``bounding_radius`` set to that validity radius.  Passing
    ``clamp_radius`` r intersects the patch with a ball of that radius around
    the origin, producing a bounded body suitable for projection queries (at
    the cost of a C0 seam where the ball meets the patch).  As f >= 0 on the
    strip, that body lies in the lower half of the ball, whose points
    farthest from ``center`` (0, 0, -0.4 r) are on its rim: so
    ``bounding_radius`` is sqrt(1.16) r.
    """
    if not isinstance(q, (int, np.integer)) or q < 3 or q % 2 == 0:
        raise ParameterError("q must be an odd integer >= 3")
    half_width = 0.49
    f, fx, fy, fxx, fxy, fyy = _kiselman_profile(int(q))

    # x, y, z = p.T unpacks the coordinates of a point, or the columns of a
    # stack (N, 3)
    def patch_value(p):
        x, y, z = p.T
        return z + f(x, y)

    def patch_grad(p):
        x, y, _ = p.T
        g = np.empty(np.shape(p))
        g[..., 0], g[..., 1], g[..., 2] = fx(x, y), fy(x, y), 1.0
        return g

    def patch_hess(p):
        x, y, _ = p.T
        H = np.zeros(np.shape(p) + (3,))
        H[..., 0, 0], H[..., 1, 1] = fxx(x, y), fyy(x, y)
        H[..., 0, 1] = H[..., 1, 0] = fxy(x, y)
        return H

    def profile(xp):
        x, y = xp.T
        return f(x, y)

    value, gradient, hessian, pieces, radius = patch_value, patch_grad, patch_hess, None, half_width
    bounding_radius = half_width
    if clamp_radius is not None:
        profile = None  # the ball piece is not a graph over the strip
        radius = float(clamp_radius)
        if not (0 < radius <= half_width):
            raise ParameterError(f"clamp_radius must lie in (0, {half_width}]")
        ball = (
            lambda p: np.vecdot(p, p) - radius * radius,
            lambda p: 2.0 * p,
            lambda p: np.zeros(np.shape(p) + (3,)) + 2.0 * np.eye(3),
        )
        pieces = ((patch_value, patch_grad, patch_hess), ball)
        value, gradient, hessian = _max_of_pieces(pieces)
        bounding_radius = math.sqrt(1.16) * radius
    body = ImplicitBody(
        dim=3,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=bounding_radius,
        center=np.array([0.0, 0.0, -0.4 * radius]),
        convexity=Convexity.strictly_convex(),
        pieces=pieces,
        profile=profile,
    )
    return _posed(body, pose)


def cone_over_circle(pose: Pose | None = None) -> ImplicitBody:
    """Convex hull of the circle ``(x-1)^2 + z^2 = 1, y = 0`` and apex (0,1,0).

    The lateral surface is the zero set of the convex gauge
    ``q(p) = |(x + y - 1, z)| + y - 1`` and the base disk is cut by
    ``y >= 0``; the hull is ``{max(q, -y) <= 0}``.  The segment from the
    origin to the apex lies on the boundary, so the body is convex but not
    strictly convex, and the boundary has an edge along the base rim.  The
    apex v = (0, 1, 0) is a vertex of the gauge: only the lateral piece is
    active there, so the normal cone is {l (L^T w + e_y) : l >= 0, |w| <= 1}
    with L = [[1, 1, 0], [0, 0, 1]], and d lies in it exactly when
    ``|(d_x, d_z)| <= d_y - d_x``.
    """

    def gauge(p, what=None):
        """u = (x + y - 1, z) and |u|; ``what`` names the oracle that is
        undefined on the cone axis."""
        u0, u1 = p[..., 0] + p[..., 1] - 1.0, p[..., 2]
        rho = np.sqrt(u0 * u0 + u1 * u1)
        if what is not None and np.any(rho < 1e-14):
            raise DegeneratePointError(f"gauge {what} undefined on the cone axis")
        return u0, u1, rho

    def lateral_grad(p):
        u0, u1, r = gauge(p, "gradient")
        return np.stack([u0 / r, u0 / r + 1.0, u1 / r], axis=-1)

    def lateral_hess(p):
        # L^T M L with L = [[1, 1, 0], [0, 0, 1]], M = I/rho - u u^T/rho^3
        u0, u1, r = gauge(p, "Hessian")
        a, b, c = 1.0 / r - u0 * u0 / r**3, -u0 * u1 / r**3, 1.0 / r - u1 * u1 / r**3
        return np.stack([a, a, b, a, a, b, b, b, c], axis=-1).reshape(np.shape(p) + (3,))

    pieces = (
        (lambda p: gauge(p)[2] + p[..., 1] - 1.0, lateral_grad, lateral_hess),
        (lambda p: -p[..., 1], lambda p: np.zeros(np.shape(p)) + [0.0, -1.0, 0.0], lambda p: np.zeros(np.shape(p) + (3,))),
    )
    value, gradient, hessian = _max_of_pieces(pieces)
    body = ImplicitBody(
        dim=3,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_radius=1.3,
        center=np.array([0.75, 0.25, 0.0]),
        convexity=Convexity.convex(),
        pieces=pieces,
        vertices=((np.array([0.0, 1.0, 0.0]), lambda d: math.hypot(d[0], d[2]) <= d[1] - d[0]),),
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

    def max_abs_second_derivative(self) -> float:
        x = np.linspace(0.9, 2.1, min(2 * 3 ** (self.depth + 2), 4_000_000))
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
    if not eps >= 0:
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

        def gap_at(x):
            x = np.asarray(x, float)
            return gap.value(x.ravel()).reshape(x.shape)

        def profile(x):
            return x * x + eps * gap_at(x)

        def profile_d(x):
            h = 1e-7
            # g is analytic but its closed-form first derivative is not worth
            # carrying; use a high-order central difference of the smooth sum
            vals = gap_at(np.stack([x - 2 * h, x - h, x + h, x + 2 * h]))
            g1 = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            return 2.0 * x + eps * g1
    else:
        cap = 8.0
        profile = lambda x: x * x
        profile_d = lambda x: 2.0 * x

    pieces = (
        (
            lambda p: profile(p[..., 0]) - p[..., 1],
            lambda p: np.stack([profile_d(p[..., 0]), np.full(np.shape(p)[:-1], -1.0)], axis=-1),
            None,
        ),
        (lambda p: p[..., 1] - cap, lambda p: np.zeros(np.shape(p)) + [0.0, 1.0], None),
    )
    value, gradient, _ = _max_of_pieces(pieces)
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
        pieces=pieces,
    )
    return _posed(body, pose)


def paraboloid_cap(curvature: float, height: float, pose: Pose | None = None, dim: int = 3) -> ImplicitBody:
    """Paraboloid ``x_n >= kappa |x'|^2 / 2`` capped by ``x_n <= height``."""
    kappa, H = float(curvature), float(height)
    if not (0 < kappa < math.inf and 0 < H < math.inf):
        raise ParameterError("curvature and height must be positive and finite")

    e_n = np.eye(dim)[-1]
    H_bowl = kappa * np.diag(1.0 - e_n)

    def bowl_grad(p):
        g = kappa * p
        g[..., -1] = -1.0
        return g

    pieces = (
        (
            lambda p: 0.5 * kappa * np.vecdot(p[..., :-1], p[..., :-1]) - p[..., -1],
            bowl_grad,
            lambda p: np.zeros(np.shape(p) + (dim,)) + H_bowl,
        ),
        (lambda p: p[..., -1] - H, lambda p: np.zeros(np.shape(p)) + e_n, lambda p: np.zeros(np.shape(p) + (dim,))),
    )
    value, gradient, hessian = _max_of_pieces(pieces)
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
        pieces=pieces,
    )
    return _posed(body, pose)


# ---------------------------------------------------------------------------
# serializable specs


_FAMILIES = (
    "ellipsoid", "translated_ball", "kiselman", "cone_over_circle", "cantor_contact", "paraboloid_cap",
)


def _spec_params(family: str) -> tuple[set, set]:
    """Allowed and required spec parameters of a family: the arguments of
    its constructor, the function of the same name, less ``pose`` and
    ``dim``."""
    params = inspect.signature(globals()[family]).parameters.values()
    args = [a for a in params if a.name not in ("pose", "dim")]
    return {a.name for a in args}, {a.name for a in args if a.default is a.empty}


@dataclass(frozen=True)
class BodySpec:
    """Serializable description of a catalog body: family, params, pose."""

    family: str
    params: dict = field(default_factory=dict)
    pose: Pose | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise SpecError(f"unknown family {self.family!r}")
        allowed, required = _spec_params(self.family)
        unknown = set(self.params) - allowed
        if unknown:
            raise SpecError(f"unknown params for {self.family}: {sorted(unknown)}")
        missing = required - set(self.params)
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
            except (KeyError, TypeError, ValueError, ParameterError) as exc:
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
    """Build the implicit body described by a spec: its family's
    constructor, looked up at call time, called with its params and pose.

    Raises ParameterError for out-of-range parameters (for instance an even
    Kiselman exponent) and SpecError for malformed documents, including
    parameters of the wrong type.
    """
    try:
        return globals()[spec.family](**spec.params, pose=spec.pose)
    except UmbraError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad params for {spec.family}: {exc}") from exc


# ---------------------------------------------------------------------------
# sampled self-checks


def sample_boundary_points(body: ImplicitBody, rng, n: int) -> np.ndarray:
    """Boundary points found by ray crossings from the body center.

    Directions whose rays never exit within the bounding ball (possible for
    patch models) are resampled, up to 20 tries per point.
    """
    pts = []
    tries = 0
    while len(pts) < n and tries < 20 * n:
        tries += 1
        d = rng.normal(size=body.dim)
        try:
            pts.append(boundary_point_along(body, d))
        except (ChartError, ParameterError):
            continue
    if len(pts) < n:
        raise ChartError("could not sample enough boundary points")
    return np.array(pts)


def body_self_check(body: ImplicitBody, rng=None, n_points: int = 100) -> None:
    """Sampled invariant check: convexity along segments, gradient vs finite
    differences, nonvanishing boundary gradients, and gradient monotonicity
    (strict/uniform as declared).

    These are necessary conditions certified on finitely many samples, not a
    proof of convexity.  ``n_points`` points are drawn uniformly from the
    bounding ball, with ``n_points`` segments and ``n_points`` monotone
    pairs among them and ``min(n_points, 50)`` boundary points; points where
    the two largest ``pieces`` lie within 100 h of each other straddle a
    kink and skip the difference and monotonicity checks.  Each invariant is
    one stacked pass of oracle calls over its samples.  Raises
    ParameterError for the first invariant that fails, in the order above
    (gradients must match the differences to 1e-6), and for ``n_points``
    below 1.
    """
    if n_points < 1:
        raise ParameterError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.default_rng(rng)
    n, d = n_points, body.dim
    x = rng.normal(size=(n, d))
    x *= (rng.random(n) ** (1.0 / d) / np.linalg.norm(x, axis=1))[:, None]
    pts = body.center + body.bounding_radius * x
    h = 1e-6 * max(1.0, body.bounding_radius)
    near_kink = np.zeros(n, bool)
    if body.pieces is not None:
        top = np.sort([v(pts) for v, _, _ in body.pieces], axis=0)
        near_kink = top[-1] - top[-2] < 100 * h
    # fmax / fmin reductions skip NaN samples
    worst = lambda a: float(np.fmax.reduce(a, initial=0.0))
    least = lambda a: float(np.fmin.reduce(a, initial=math.inf))

    # convexity along segments: G(t x + (1 - t) z) <= t G(x) + (1 - t) G(z),
    # at t = 0.25, 0.5, 0.75 and one random t on each segment
    i, j = np.tile(rng.integers(0, n, size=(2, n)), 4)
    t = np.concatenate([np.repeat([0.25, 0.5, 0.75], n), rng.random(n)])
    G = np.asarray(body.value(pts), float)
    on_segments = np.asarray(body.value(t[:, None] * pts[i] + (1 - t)[:, None] * pts[j]), float)
    violation = worst(on_segments - (t * G[i] + (1 - t) * G[j]))
    if violation > 1e-9:
        raise ParameterError(f"convexity violated on sampled segments ({violation:.3g})")

    # gradient against centered finite differences of G
    smooth = pts[~near_kink]
    g = np.asarray(body.gradient(smooth), float)
    fd = _central_diff(body.value, smooth, h)
    fd_error = worst(np.abs(fd - g).max(axis=1) / (1.0 + np.abs(g).max(axis=1)))
    if fd_error > 1e-6:
        raise ParameterError(f"gradient disagrees with finite differences ({fd_error:.3g})")

    gb = np.asarray(body.gradient(sample_boundary_points(body, rng, min(n, 50))), float)
    if least(np.sqrt(np.vecdot(gb, gb))) < 1e-10:
        raise ParameterError("gradient vanishes at a sampled boundary point")

    # gradient monotonicity: <grad G(x) - grad G(z), x - z> / |x - z|^2
    i, j = rng.integers(0, n, size=(2, n))
    nn = np.vecdot(pts[i] - pts[j], pts[i] - pts[j])
    keep = ~(nn < 1e-16) & ~near_kink[i] & ~near_kink[j]
    x, z, nn = pts[i[keep]], pts[j[keep]], nn[keep]
    gx, gz = (np.asarray(body.gradient(y), float) for y in (x, z))
    ratio = least(np.vecdot(gx - gz, x - z) / nn)
    if body.convexity.kind == "uniformly_convex":
        if ratio < body.convexity.modulus - 1e-9:
            raise ParameterError(
                "uniform convexity modulus not met on samples: "
                f"{ratio:.6g} < {body.convexity.modulus:.6g}"
            )
    elif body.convexity.at_least_strict and ratio <= 0.0:
        raise ParameterError("strict monotonicity failed on a sampled pair")
