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

On a quadric ``(x - c)^T A (x - c) <= rho`` the shadow boundary is the
section by the plane ``(x - c)^T (A + A^T) u = 0``, the contour generator cut
by the polar plane of the light's point at infinity (Hartley & Zisserman,
*Multiple View Geometry*, 2nd ed., 2004, sec. 8.3).  Sweeps on a chart that
carries its ``quadric`` propose every root from that section in closed form
and certify the proposals in one stacked slope call; a fiber whose proposal
fails goes through the bracketed solve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bodies import ConcaveChart, Pose, _arc_flip, _quadratic_root, boundary_point_along, rotation_with_last_axis
from .errors import (
    BoundaryNotInChartError,
    DomainError,
    EmptyCurveError,
    NoConvergenceError,
    NotStrictlyConvexError,
    ParameterError,
    UmbraError,
    check_positive,
)

TOL_ROOT_COEFF = 1e-10
BRACKET_EXPANSIONS = 20


@dataclass(frozen=True)
class Direction:
    """Unit illumination direction in world coordinates."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, float).ravel()
        if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
            raise ParameterError("direction must be a unit vector (|u| = 1 within 1e-12)")
        object.__setattr__(self, "u", u)

    @staticmethod
    def normalized(v) -> "Direction":
        v = np.asarray(v, float).ravel()
        m = float(np.abs(v).max(initial=0.0))  # scaled first: |v| itself may overflow
        if not 0 < m < math.inf or m * np.linalg.norm(v / m) < 1e-14:
            raise ParameterError("cannot normalize a zero or non-finite vector")
        return Direction(v / m / np.linalg.norm(v / m))

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

    ``_arc_flip`` searches the sign flip of the normal-light product along
    the boundary above the half great circle from direction u (lit) to -u
    (unlit) through a perpendicular w drawn from ``rng``; each of its rounds
    solves its rays as one stack.  On a quadric (x-c)^T A (x-c) = rhs whose
    c is the center the rays start from, the flip on the arc
    cos(theta) u + sin(theta) w is at theta* = atan2(u^T S u, -w^T S u),
    S = A + A^T, so the search starts from a bracket of 4096 ulps around it
    and falls back to the whole arc when that bracket misses the flip.  The
    returned point is where charts for shadow-boundary sweeps should be
    based.
    """
    d = _as_direction(u if isinstance(u, Direction) else Direction.normalized(u), body.dim)
    rng = np.random.default_rng(rng)

    def lit(dirs):
        y = boundary_point_along(body, dirs)
        return np.asarray(body.gradient(y), float) @ d.u > 0, y

    guess, quad = None, body.quadric
    if quad is not None and np.array_equal(quad[1], body.center):  # rays from c: grad G . u = r d^T S u
        Su = (quad[0] + quad[0].T) @ d.u
        guess = lambda w, ang: math.atan2(float(d.u @ Su), -float(w @ Su)) / ang
    found = _arc_flip(d.u, -d.u, lit, rng, guess)
    if found is None:
        raise BoundaryNotInChartError("could not bracket the shadow horizon")
    return found[1]


def is_in_shadow(chart: ConcaveChart, u, y_prime) -> bool:
    """Shadow membership of the boundary point above ``y_prime``.

    True exactly when ``<grad phi(y'), u'> < u_n`` in chart coordinates.
    Raises DomainError for points outside the chart domain, and
    ParameterError unless ``y_prime`` has shape ``(dim_domain,)``.
    """
    d = _as_direction(u, chart.dim_domain + 1)
    uc = chart.pose.rotate_to_local(d.u) if chart.pose is not None else d.u
    w = chart.gradient(y_prime)
    if w.ndim != 1:
        raise ParameterError(f"y' of shape {np.shape(y_prime)} is a stack, not one point")
    return float(np.dot(w, uc[:-1])) < uc[-1]


# ---------------------------------------------------------------------------
# aligned frames


@dataclass(frozen=True)
class AlignedFrame:
    """Chart rotated so the tangential part of u is the last in-plane axis.

    ``threshold`` is ``u_n / |u'|``: with the tangential component of the
    direction normalized to unit length, the boundary point above
    ``z = (y'', t)`` is in shadow when ``slope(z) < 0``, that is when the
    last component of ``grad phi`` lies below ``threshold``.
    """

    chart: ConcaveChart
    threshold: float

    def slope(self, z):
        """Last component of ``grad phi`` minus ``threshold`` at a point
        ``z = (y'', t)`` ``(m,)``, or at the rows of a stack ``(N, m)``."""
        return self.chart.gradient(z)[..., -1] - self.threshold


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

    # z @ Q.T maps a point or each row of a stack to Q z
    phi_a = lambda z: chart.phi(z @ Q.T)
    grad_a = lambda z: np.asarray(chart.grad_phi(z @ Q.T), float) @ Q
    hess_a = lambda z: Q.T @ np.asarray(chart.hess_phi(z @ Q.T), float) @ Q

    lift = np.eye(m + 1)
    lift[:m, :m] = Q
    pose = None
    if chart.pose is not None and (m > 1 or Q[0, 0] > 0):
        pose = Pose(chart.pose.rotation @ lift, chart.pose.translation)
    quadric = None
    if chart.quadric is not None:  # G(lift w) as a quadric in w
        A, c, rhs = chart.quadric
        quadric = (lift.T @ A @ lift, c @ lift, rhs)

    aligned = replace(chart, phi=phi_a, grad_phi=grad_a, hess_phi=hess_a, pose=pose, quadric=quadric)
    return AlignedFrame(chart=aligned, threshold=un / norm_up)


# ---------------------------------------------------------------------------
# boundary graph solves


# sweep stages of a fiber, in the order each fiber passes through them
_BRACKET, _REFINE, _PROBE, _DONE = range(4)


def _at_fibers(fn, ypp, segments):
    """``fn``, a chart oracle reduced to one number per point, at the points
    ``(y''[fibers], t)`` of every segment ``(fibers, t)``, in one stacked
    call; per segment, the values and ``{fiber: error}``.  If the stacked
    call raises, its points are redone one by one through the point path,
    so each point gets the error it raises alone.
    """
    rows = np.concatenate([r for r, _ in segments])
    if not rows.size:
        return [(np.empty(0), {}) for _ in segments]
    Z = np.column_stack([ypp[rows], np.concatenate([t for _, t in segments])])
    errors = {}
    try:
        values = np.asarray(fn(Z), float)
    except UmbraError:
        values = np.full(len(Z), np.nan)
        for j, z in enumerate(Z):
            try:
                values[j] = fn(z)
            except UmbraError as exc:
                errors[j] = exc
    if values.shape != (len(Z),):
        raise ParameterError(f"chart oracle of a {Z.shape} stack gave shape {values.shape}")
    out, start = [], 0
    for r, _ in segments:
        end = start + len(r)
        out.append((values[start:end], {rows[j]: e for j, e in errors.items() if start <= j < end}))
        start = end
    return out


def _quadric_roots(quadric, threshold: float, ypp: np.ndarray) -> np.ndarray:
    """Closed-form shadow-boundary heights over the rows of ``ypp``
    ``(K, m - 1)`` on an aligned chart that is the upper sheet of the quadric
    ``(A, c, rhs)``; NaN where the closed form gives none.

    The root over ``y''`` is where the slope ``-G_t / G_s - threshold``
    vanishes, that is where ``grad G = (A + A^T)(w - c)`` is orthogonal to
    ``d = e_t + threshold e_n``: on the plane ``v . (w - c) = 0`` with
    ``v = (A + A^T) d``.  It cuts the fiber's (t, s) plane in a line, walked
    from its point nearest the origin along ``(v_s, -v_t)`` rather than
    solved for s, whose coefficient v_s may vanish; G on it is
    ``a2 l^2 + 2 a1 l + a0``.  On the
    plane ``G_t = -threshold G_s``, so ``dG/dl = kappa G_s`` with
    ``kappa = -threshold v_s - v_t = -d . v`` (negative for a positive
    definite A): the root where dG/dl has the sign of kappa is the one on
    the upper sheet, ``G_s > 0``.  Every row is NaN for
    ``kappa = 0`` or ``a2 = 0``, and a row is NaN where the discriminant is
    negative (the fiber plane misses the quadric).
    """
    A, c, rhs = quadric
    S = A + A.T
    n = len(c)
    with np.errstate(all="ignore"):  # a miss or an overflow holds NaN or inf, which no fiber keeps
        v = S[:, -2] + threshold * S[:, -1]
        vt, vs = v[-2], v[-1]
        kappa = -threshold * vs - vt
        e = np.zeros(n)
        e[-2:] = vs, -vt
        a2 = float(e @ A @ e)
        if kappa == 0 or a2 == 0:
            return np.full(len(ypp), np.nan)
        W = np.zeros((len(ypp), n))  # w - c at the line's point nearest the origin
        W[:, :-2] = ypp
        W -= c
        W[:, -2:] -= np.outer(W @ v, [vt, vs]) / (vt * vt + vs * vs)
        a1 = 0.5 * (W @ (S @ e))
        a0 = np.vecdot(W, W @ A) - rhs
        sign = 1.0 if kappa > 0 else -1.0
        lam = -sign * _quadratic_root(a2, -sign * a1, a0)  # the larger root for kappa > 0, else the smaller
        return c[-2] + W[:, -2] + lam * vs


def _gamma_rows(frame: AlignedFrame, ypp: np.ndarray, tol: float):
    """Shadow-boundary heights over the rows of ``ypp`` ``(K, m - 1)``.

    Every fiber follows the same rule as if it were solved alone, but all
    fibers advance in lockstep: each round makes one stacked slope call for
    every fiber still working, and the slope is the only oracle the solve
    calls.  Per fiber, with T = 0.999 times the half-chord of the domain
    over ``y''``:

    0. on a chart that carries its ``quadric``, a closed-form proposal
       (``_quadric_roots``), certified before the first round by one stacked
       slope call over every proposal with |t| < T_end (below): where
       |slope| <= ``tol`` the proposal is the root and goes on to the sign
       probes (3).  The quadric only proposes; every other fiber, including
       one whose certifying call raises, takes steps 1 to 3 unchanged;
    1. expanding bracket: the slope is strictly decreasing along the fiber,
       so probe -+T(1 - 2^-k), k = 1..BRACKET_EXPANSIONS, until
       slope(t-) > 0 > slope(t+).  The last probes, -+T_end, bracket if and
       only if any do, so a fiber left without a bracket by k = 1 probes
       them with k = 2; unless they bracket, their slopes tell inverted
       monotonicity (NotStrictlyConvexError) from a one-sided fiber
       (BoundaryNotInChartError) at once.  An endpoint probe error (the lower
       first) is the fiber's error only if the last expansion finds no bracket;
    2. 8 bisections, then Illinois steps (Dowell & Jarratt, BIT 11, 1971):
       the zero of the chord through the slopes at the bracket ends, the
       slope of an end kept twice running halved; a bisection instead when
       that zero lies within the width floor 1e-15 max(1, T) of an end.
       The fiber stops when the residual is within ``tol``, the bracket is
       narrower than the floor, or 120 steps have passed; a residual above
       ``tol`` is NoConvergenceError;
    3. sign probes a small offset below and above the root: slope > 0 below
       and < 0 above within 10 tol, else NotStrictlyConvexError.

    Returns gamma, residual and each row's error (None where solved).
    """
    if not np.isfinite(ypp).all():
        raise ParameterError("y'' has a non-finite coordinate")
    K = len(ypp)

    errors = [None] * K
    rr = frame.chart.domain_radius**2 - np.einsum("ij,ij->i", ypp, ypp)
    stage = np.where(rr > 0, _BRACKET, _DONE)
    for i in np.flatnonzero(rr <= 0):
        errors[i] = DomainError("y'' lies outside the chart domain")
    T = 0.999 * np.sqrt(np.maximum(rr, 0.0))
    floor = 1e-15 * np.maximum(1.0, T)  # bracket width floor
    T_end = T * (1.0 - 2.0**-BRACKET_EXPANSIONS)
    # s_neg, s_pos: slopes at the bracket ends lo, hi, as the Illinois rule scales them;
    # raised: 1 where the last refinement point raised lo, 0 where it lowered hi
    s_neg, s_pos, lo, hi, best_t, best_s, raised, gamma, delta = np.full((9, K), np.nan)
    steps = np.zeros(K, int)
    later = {}  # fiber: its endpoint slopes and the error of an endpoint probe

    if frame.chart.quadric is not None:  # 0. closed-form proposals and their certification
        t0 = _quadric_roots(frame.chart.quadric, frame.threshold, ypp)
        cand = np.flatnonzero((stage == _BRACKET) & (np.abs(t0) < T_end))
        ((s0, _),) = _at_fibers(frame.slope, ypp, [(cand, t0[cand])])
        ok = np.abs(s0) <= tol  # NaN where the certifying call raised
        acc = cand[ok]
        gamma[acc], best_s[acc] = t0[acc], s0[ok]
        delta[acc] = np.minimum(0.01 * T[acc], 0.25 * (T[acc] - np.abs(gamma[acc])) + 1e-18)
        stage[acc] = np.where(delta[acc] > floor[acc], _PROBE, _DONE)

    def fail(errs):
        """Records ``{fiber: error}``; a fiber keeps its first error."""
        for i, exc in errs.items():
            if stage[i] != _DONE:
                errors[i], stage[i] = exc, _DONE

    k = 0  # bracket expansion step, shared by every fiber still bracketing
    while (stage != _DONE).any():
        k += 1
        # refinement ends: accept the best point or give up
        ref = np.flatnonzero(stage == _REFINE)
        end = (np.abs(best_s[ref]) <= tol) | (hi[ref] - lo[ref] < floor[ref]) | (steps[ref] >= 120)
        for i in ref[end]:
            if abs(best_s[i]) > tol:
                fail({i: NoConvergenceError(f"fiber root residual {best_s[i]:.3g} above tolerance {tol:.3g}")})
                continue
            gamma[i] = best_t[i]
            delta[i] = min(0.01 * T[i], 0.25 * (T[i] - abs(gamma[i])) + 1e-18)
            stage[i] = _PROBE if delta[i] > floor[i] else _DONE
        ref = ref[~end]

        # next point of each refining fiber: bisection, or the zero of the
        # chord through its bracket ends once past 8 bisections
        a, b = lo[ref], hi[ref]
        t_new = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = a + s_neg[ref] * (b - a) / (s_neg[ref] - s_pos[ref])
        take = (steps[ref] >= 8) & (a + floor[ref] < chord) & (chord < b - floor[ref])
        t_new[take] = chord[take]

        # one stacked slope call for every fiber still working, in the order
        # each fiber takes its points: lower then upper bracket probe, lower
        # then upper endpoint, refinement point, lower then upper sign probe
        bra = np.flatnonzero(stage == _BRACKET)
        tau = T[bra] * (1.0 - 2.0**-k)
        neg, pos = np.isnan(s_neg[bra]), np.isnan(s_pos[bra])
        ends = bra if k == 2 else bra[:0]
        prb = np.flatnonzero(stage == _PROBE)
        below = prb[gamma[prb] - delta[prb] > -T[prb]]
        above = prb[gamma[prb] + delta[prb] < T[prb]]
        results = _at_fibers(frame.slope, ypp, [
            (bra[neg], -tau[neg]), (bra[pos], tau[pos]), (ends, -T_end[ends]), (ends, T_end[ends]),
            (ref, t_new), (below, gamma[below] - delta[below]), (above, gamma[above] + delta[above]),
        ])
        (s_neg_k, e_neg), (s_pos_k, e_pos), (s_lo, e_lo), (s_hi, e_hi), (s_ref, e_ref) = results[:5]
        (s_below, e_below), (s_above, e_above) = results[5:]

        if bra.size:
            fail(e_neg)
            hit = bra[neg][s_neg_k > 0]
            lo[hit], s_neg[hit] = -tau[neg][s_neg_k > 0], s_neg_k[s_neg_k > 0]
            fail(e_pos)
            hit = bra[pos][s_pos_k < 0]
            hi[hit], s_pos[hit] = tau[pos][s_pos_k < 0], s_pos_k[s_pos_k < 0]
            bra = bra[stage[bra] == _BRACKET]
            new = bra[~np.isnan(s_neg[bra]) & ~np.isnan(s_pos[bra])]
            lower = np.abs(s_neg[new]) < np.abs(s_pos[new])
            best_t[new] = np.where(lower, lo[new], hi[new])
            best_s[new] = np.where(lower, s_neg[new], s_pos[new])
            stage[new] = _REFINE

        # no bracket: inverted monotonicity or a one-sided fiber.  Endpoint
        # slopes that bracket, or an endpoint error, leave the fiber to the
        # expansion, and the last expansion settles every fiber it leaves
        later.update((i, (s_lo[j], s_hi[j], e_lo.get(i, e_hi.get(i)))) for j, i in enumerate(ends))
        for i in np.flatnonzero(stage == _BRACKET) if k in (2, BRACKET_EXPANSIONS) else ():
            a, b, exc = later[i]
            if k < BRACKET_EXPANSIONS and (exc is not None or a > 0 > b):
                continue
            if exc is None and a < -tol and b > tol:
                exc = NotStrictlyConvexError("slope increases along the fiber; chart is not strictly concave")
            fail({i: exc or BoundaryNotInChartError(
                "no shadow-boundary bracket on this fiber within the chart domain "
                f"(expansion cap {BRACKET_EXPANSIONS} hit; endpoint slopes {a:.3g}, {b:.3g})")})

        if ref.size:
            fail(e_ref)
            live = stage[ref] == _REFINE
            ref, t_new, s_ref = ref[live], t_new[live], s_ref[live]
            better = np.abs(s_ref) < np.abs(best_s[ref])
            best_t[ref[better]], best_s[ref[better]] = t_new[better], s_ref[better]
            up = s_ref > 0
            # Illinois: past the bisections, an end kept twice running has its slope halved
            past = steps[ref] >= 8
            s_pos[ref[past & up & (raised[ref] == 1)]] *= 0.5
            s_neg[ref[past & ~up & (raised[ref] == 0)]] *= 0.5
            lo[ref[up]], s_neg[ref[up]] = t_new[up], s_ref[up]
            hi[ref[~up]], s_pos[ref[~up]] = t_new[~up], s_ref[~up]
            raised[ref] = up
            steps[ref] += 1

        # sign probes: slope > 0 below the root and < 0 above, within 10 tol
        if prb.size:
            fail(e_below)
            for j in np.flatnonzero(s_below < -10 * tol):
                fail({below[j]: NotStrictlyConvexError("slope sign below the root is wrong")})
            fail(e_above)
            for j in np.flatnonzero(s_above > 10 * tol):
                fail({above[j]: NotStrictlyConvexError("slope sign above the root is wrong")})
            stage[prb[stage[prb] == _PROBE]] = _DONE
    return gamma, best_s, errors


def _root_tol(frame, tol_root):
    """The slope-residual tolerance of a sweep: ``tol_root``, or a default
    scaled by the frame's slope threshold.  ParameterError unless
    ``tol_root`` is positive and below 1e-3 (1 + |threshold|), the scale of
    the slopes it compares."""
    scale = 1.0 + abs(frame.threshold)
    if tol_root is None:
        return TOL_ROOT_COEFF * scale
    if not check_positive("tol_root", tol_root) < 1e-3 * scale:
        raise ParameterError(f"tol_root = {tol_root:.3g} is not below 1e-3 (1 + |threshold|) = {1e-3 * scale:.3g}")
    return float(tol_root)


def shadow_boundary_gamma(chart: ConcaveChart, u, ypp, tol_root: float | None = None):
    """Height of the shadow boundary over ``ypp`` and the root residual.

    Solves ``d phi / d t (y'', t) = u_n`` (threshold in the normalized
    tangential gauge) on the strictly decreasing fiber slope: the one-row
    case of ``shadow_boundary_sweep``, raising the error that sweep would
    record or raise for the row.  The solve calls only the chart gradient.
    """
    frame = align_chart(chart, u)
    ypp = np.atleast_1d(np.asarray(ypp, float))
    if ypp.ndim != 1 or ypp.shape[0] != chart.dim_domain - 1:
        raise ParameterError(
            f"y'' has dimension {ypp.shape[0]}, expected {chart.dim_domain - 1}"
        )
    tol = _root_tol(frame, tol_root)
    gamma, resid, errors = _gamma_rows(frame, ypp[None], tol)
    if errors[0] is not None:
        raise errors[0]
    return float(gamma[0]), float(resid[0])


def read_csv_table(path) -> tuple[list, np.ndarray]:
    """Header and numeric rows ``(N, columns)`` of a CSV file; ParameterError
    for an empty file, a file without rows, a non-numeric or non-finite cell
    or a row of the wrong length."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParameterError(f"CSV file {path} is empty")
        rows = [row for row in reader if row]
    if not rows:
        raise ParameterError(f"CSV file {path} has no rows")
    if any(len(row) != len(header) for row in rows):
        raise ParameterError(f"CSV file {path} has a row without {len(header)} cells")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ParameterError(f"CSV file {path} has a non-numeric cell: {exc}") from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ParameterError(f"CSV file {path} has a non-finite cell: {header[c]} = {data[r, c]} in data row {r + 1}")
    return header, data


def write_csv_table(path, header, data):
    """Header and numeric rows ``(N, columns)`` as a CSV file, each cell the
    17 significant digits that read back as the same float, with
    ``csv.writer``'s CRLF line ends."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in np.asarray(data, float).tolist())


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

    def to_csv(self, path):
        header = [f"ypp_{i + 1}" for i in range(self.ypp.shape[1])] + ["gamma", "residual"]
        write_csv_table(path, header, np.column_stack([self.ypp, self.gamma, self.residual]))

    @staticmethod
    def from_csv(path) -> "ShadowCurve":
        header, data = read_csv_table(path)
        if (
            len(header) < 3
            or header[-2:] != ["gamma", "residual"]
            or any(h != f"ypp_{i + 1}" for i, h in enumerate(header[:-2]))
        ):
            raise ParameterError(f"not a shadow-curve CSV header: {header}")
        resid = data[:, -1]
        return ShadowCurve(
            ypp=data[:, :-2],
            gamma=data[:, -2],
            residual=resid,
            chart_frame=None,
            tol_root=float(np.abs(resid).max()) + 1e-30,
        )


def shadow_boundary_sweep(
    chart: ConcaveChart, u, grid, tol_root: float | None = None
) -> ShadowCurve:
    """Solve the shadow boundary over a grid of base points ``y''``.

    All fibers are solved in lockstep (see ``_gamma_rows``), so each round
    costs one stacked chart call whatever the grid size.  Grid points whose
    fiber has no bracket, or whose solve does not converge, are omitted and
    recorded in ``failures``; any other error of a grid point is raised, the
    first in grid order.  Raises EmptyCurveError when the grid is empty or
    every point fails, and ParameterError for a planar chart (``dim_domain``
    1), whose silhouette is two points with no curve to sweep, and for a
    grid that does not split into points of dimension ``dim_domain - 1`` or
    has a non-finite entry.
    """
    m = chart.dim_domain - 1
    if m == 0:
        raise ParameterError("a planar silhouette is two points; there is no curve to sweep")
    frame = align_chart(chart, u)
    grid = np.asarray(grid, float)
    if grid.size == 0:
        raise EmptyCurveError("empty sweep grid")
    if grid.size % m:
        raise ParameterError(f"a sweep grid of {grid.size} values does not split into points of dimension {m}")
    grid = grid.reshape(-1, m)
    tol = _root_tol(frame, tol_root)

    gammas, resids, errors = _gamma_rows(frame, grid, tol)
    kept = np.flatnonzero([e is None for e in errors])
    ((heights, fatal),) = _at_fibers(frame.chart.value, grid, [(kept, gammas[kept])])
    failures = []
    for i, exc in enumerate(errors):  # the first error not recorded ends the sweep
        if i in fatal:
            raise fatal[i]
        if isinstance(exc, (BoundaryNotInChartError, DomainError, NoConvergenceError)):
            failures.append((grid[i].copy(), str(exc)))
        elif exc is not None:
            raise exc
    if not kept.size:
        raise EmptyCurveError(
            f"all {len(grid)} grid points failed; first reason: {failures[0][1]}"
        )
    curve = ShadowCurve(
        ypp=grid[kept],
        gamma=gammas[kept],
        residual=resids[kept],
        chart_frame=frame.chart.pose,
        tol_root=tol,
        surface_height=heights,
        failures=failures,
    )
    # every retained sample must sit inside the chart domain
    radii = np.sqrt(np.sum(curve.ypp**2, axis=1) + curve.gamma**2)
    if np.any(radii >= chart.domain_radius):
        raise DomainError("a solved sample escaped the chart domain")
    return curve
