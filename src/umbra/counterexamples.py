"""Executable sharpness constructions, each paired with the claim it breaks.

Three constructions:

* ``kiselman_identity_check`` validates the closed-form slope identity
  behind the C^(2/q) shadow boundaries: smoothness alone cannot buy Hoelder
  regularity of the shadow without uniform convexity.
* ``cone_body_graph_failure`` builds the convex hull of a circle and an
  off-plane apex; under light along the apex direction, the shadow boundary
  near the origin is a triod (the seam to the apex and two rim arcs), and no
  projection onto a line is one-to-one on a triod: it is not a graph there
  in any sampled frame (the coverage is only that finite family).  Strict
  convexity cannot be dropped from the continuous-graph statement.
* ``cantor_contact_pair`` builds two planar convex bodies whose boundaries
  touch exactly above a Cantor-set approximation: 2^depth contact
  components, showing that the disjointness assumption in the projection
  results is necessary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    ImplicitBody,
    _CantorGap,
    _kiselman_profile,
    cantor_contact,
    cone_over_circle,
)
from .errors import ParameterError
from .illumination import Direction

CIRCLE_DISCRETIZATION = 1 << 10


# ---------------------------------------------------------------------------
# Kiselman slope identity


def kiselman_identity_check(q: int, grid=None) -> float:
    """Max error of the closed-form slope ``(y^q - x^2)(1 - y)`` on a grid.

    The profile's y-derivative is computed by complex-step differentiation
    (machine accurate for polynomials) and compared against the factored
    form; the max absolute discrepancy is returned.
    """
    if not isinstance(q, (int, np.integer)) or q < 3 or q % 2 == 0:
        raise ParameterError("q must be an odd integer >= 3")
    if grid is None:
        xs = np.linspace(-0.45, 0.45, 32)
        grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    grid = np.asarray(grid, float)
    if grid.size and (grid.ndim != 2 or grid.shape[1] != 2):
        raise ParameterError(f"grid must be a list of (x, y) points, got shape {grid.shape}")
    x, y = grid.reshape(-1, 2).T
    if (np.abs(y) >= 0.5).any():
        raise ParameterError("grid must stay inside the strip |y| < 1/2")

    profile = _kiselman_profile(q)[0]  # polynomial, so complex y works
    h = 1e-100
    dy = profile(x, y + 1j * h).imag / h
    return float(np.max(np.abs(dy - (y**q - x * x) * (1.0 - y)), initial=0.0))


def kiselman_zero_level(q: int, x: float, tol: float = 1e-12) -> float:
    """Root in y of the slope ``(y^q - x^2)(1 - y)`` inside the strip.

    Bisection of the strictly increasing factor ``y^q - x^2``; the root is
    the shadow-boundary height above x.
    """
    _, _, fy, _, _, _ = _kiselman_profile(int(q))
    lo, hi = -0.49, 0.49
    if not (fy(x, lo) < 0 < fy(x, hi)):
        raise ParameterError("no slope sign change inside the strip")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fy(x, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * 1e-3:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cone-over-circle graph failure


def _seam_point(t: float) -> np.ndarray:
    return np.array([0.0, t, 0.0])


def _rim_point(delta: float) -> np.ndarray:
    """Base-circle point at arc parameter delta from the origin."""
    w = math.pi + delta
    return np.array([1.0 + math.cos(w), 0.0, math.sin(w)])


def _lateral_neighbors(p):
    """Lateral-surface points near p obtained by rotating the cross-section
    angle by -+1e-3 at the same height."""
    y = min(max(p[1], 0.0), 1.0 - 1e-9)
    w = math.atan2(p[2], p[0] + p[1] - 1.0)
    return [
        np.array([(1.0 - y) + (1.0 - y) * math.cos(w + s), y, (1.0 - y) * math.sin(w + s)])
        for s in (-1e-3, 1e-3)
    ]


def is_cone_shadow_boundary_point(body: ImplicitBody, p, u, tol: float = 1e-9) -> bool:
    """Shadow-boundary test for the cone hull at a boundary point.

    Membership in the shadow is an open condition on the normal cone
    (some normal with positive product against the light); a point is on the
    shadow boundary when it is a limit of lit points and of unlit points.
    Seam/lateral points have a single normal; rim points carry the cone
    spanned by the lateral normal and the base normal, the unit gradients
    of the body's two ``pieces``.
    """
    p = np.asarray(p, float)
    u = np.asarray(u, float)
    if abs(body.value_at(p)) > 1e-9:
        return False
    (_, lateral, _), (_, base, _) = body.pieces
    slope = lambda grad, q: float(np.dot(grad(q) / np.linalg.norm(grad(q)), u))
    cone_vals = [slope(lateral, p)]
    if abs(p[1]) <= 1e-12:  # on the base rim
        cone_vals.append(slope(base, p))
    lit_here = max(cone_vals) > tol
    neigh = [slope(lateral, q) for q in _lateral_neighbors(p)]
    lit_near = lit_here or max(neigh) > tol
    dark_near = (not lit_here) or min(cone_vals) < -tol or min(neigh) < -tol
    return lit_near and dark_near


@dataclass
class GraphFailureWitness:
    """Pairs of distinct shadow-boundary points with equal 1-d projections.

    ``pairs`` maps each tested axis (rounded tuple) to a list of verified
    pairs, one per probe radius; a pair for every axis at every radius
    certifies that the shadow boundary is not a graph near the origin in any
    frame of the sampled family (coordinate axes plus random rotations; the
    coverage is only this finite family).
    """

    found: bool
    radius: float
    pairs: dict = field(default_factory=dict)
    frames_checked: int = 0
    note: str = ""


def _pair_for_axis(body, a, u, radius):
    """A verified equal-projection pair of shadow-boundary points within
    ``radius`` of the origin on the triod of the seam S(s radius) and the rim
    arcs R(+-s radius), s in [0, 1]; None if no candidate passes.

    With a_y = 0 the seam projects to one point, so two seam points come
    first (the canonical seam midpoint and origin while radius >= 0.5).  Then
    for each pair of arcs whose ends project to the same side of zero (one
    pair does, by pigeonhole), bisection finds where the arc with the farther
    end projects onto the nearer end.  A pair counts when its points are
    1e-5 or more apart, with projections equal within 1e-11, and both pass
    ``is_cone_shadow_boundary_point``.
    """
    proj = lambda arc, s: float(np.dot(arc(s), a))
    arcs = (
        lambda s: _seam_point(s * radius),
        lambda s: _rim_point(s * radius),
        lambda s: _rim_point(-s * radius),
    )
    checks = []
    if abs(a[1]) <= 1e-12:
        if radius >= 0.5:
            checks.append((_seam_point(0.5), _rim_point(0.0)))  # canonical pair
        checks.append((_seam_point(0.35 * radius), _seam_point(0.85 * radius)))
    for near, far in itertools.combinations(sorted(arcs, key=lambda arc: abs(proj(arc, 1.0))), 2):
        target = proj(near, 1.0)
        if target * proj(far, 1.0) < 0:
            continue
        lo, hi = 0.0, 1.0  # far(lo) projects short of the target, far(hi) onto or past it
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (proj(far, mid) - target) * target < 0:
                lo = mid
            else:
                hi = mid
        checks.append((far(0.5 * (lo + hi)), near(1.0)))
    for p, qq in checks:
        if np.linalg.norm(p - qq) < 1e-5 or abs(float(np.dot(p - qq, a))) > 1e-11:
            continue
        if all(is_cone_shadow_boundary_point(body, x, u) for x in (p, qq)):
            return (p, qq)
    return None


def cone_body_graph_failure(u=(0.0, 1.0, 0.0), rng=None) -> GraphFailureWitness:
    """Witness that the cone body's shadow boundary is not a graph at 0.

    For the apex direction the boundary near the origin contains the triod of
    the seam and the two rim arcs; for every candidate projection axis (the 3
    coordinate axes plus 24 random ones) a pair of distinct verified boundary
    points with equal projection is produced on it, at the probe radius 0.55
    and at two shrunken radii.  Directions far from the apex axis leave no
    seam on the shadow boundary and the search reports failure-to-find.
    """
    rng = np.random.default_rng(rng)
    body = cone_over_circle()
    u = Direction.normalized(u).u
    radius = 0.55

    axes = [np.eye(3)[i] for i in range(3)]
    for _ in range(24):
        a = rng.normal(size=3)
        axes.append(a / np.linalg.norm(a))

    witness = GraphFailureWitness(found=False, radius=radius, frames_checked=len(axes))
    for a in axes:
        found_at = []
        for rho in (radius, radius / 4.0, radius / 16.0):
            pair = _pair_for_axis(body, a, u, rho)
            if pair is None:
                witness.note = (
                    f"no verified equal-projection pair for axis "
                    f"{np.round(a, 4).tolist()} at radius {rho:.3g}"
                )
                return witness
            found_at.append(pair)
        witness.pairs[tuple(np.round(a, 12))] = found_at
    witness.found = True
    witness.note = (
        f"graph failure certified on {len(axes)} frames (3 coordinate axes + "
        f"{len(axes) - 3} random) at radii {radius:.3g}, {radius / 4:.3g}, "
        f"{radius / 16:.3g}; coverage is this finite frame family only"
    )
    return witness


def cone_hull_generators(n: int = CIRCLE_DISCRETIZATION) -> np.ndarray:
    """Apex plus a discretization of the base circle."""
    w = np.linspace(-math.pi, math.pi, n, endpoint=False)
    circle = np.column_stack([1.0 + np.cos(w), np.zeros(n), np.sin(w)])
    return np.vstack([[0.0, 1.0, 0.0], circle])


# ---------------------------------------------------------------------------
# Cantor contact pair


@dataclass(frozen=True)
class CantorContactPair:
    """Planar convex pair touching on a Cantor approximation."""

    omega: ImplicitBody
    lam: ImplicitBody
    contact_count: int
    degenerate: bool = False


def cantor_contact_pair(eps: float, depth: int) -> CantorContactPair:
    """Build the pair and count its boundary contact components.

    The gap function vanishes exactly on the depth-d Cantor approximation of
    [1, 2] (2^d closed intervals); contact components are counted by
    scanning the sign of the boundary gap on a grid fine enough to resolve
    the deepest removed interval.  ``eps = 0`` collapses the two parabolas
    and is flagged degenerate (contact along the whole arc).
    """
    omega = cantor_contact(eps, depth, side="omega")
    lam = cantor_contact(eps, depth, side="lambda")
    if eps == 0.0:
        return CantorContactPair(omega, lam, contact_count=1, degenerate=True)

    gap = _CantorGap(depth)
    n = min(2 * 3 ** (depth + 2), 4_000_000)
    xs = np.linspace(1.0, 2.0, n)
    # boundary gap between the two graphs is eps * g(x); threshold below the
    # smallest bump peak so fattened contact zones never merge
    vals = eps * gap.value(xs)
    thr = 0.3 * eps * 4.0 ** (-depth)
    touching = vals <= thr
    count = int(np.sum(touching[1:] & ~touching[:-1])) + int(touching[0])
    return CantorContactPair(omega, lam, contact_count=count, degenerate=False)
