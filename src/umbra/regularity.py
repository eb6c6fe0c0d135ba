"""Quantitative regularity diagnostics for sampled boundary graphs.

Three tools: a Hoelder exponent fit (log-log regression of increments
against distances from a center), a cusp certificate (pointwise verification
that a power cusp of slope L/theta touches the graph from above), and a
box-counting dimension estimate for point clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConcaveChart
from .errors import FlatCurveError, ParameterError

ALPHA_CAP = 1.5  # fits steeper than this saturate the Hoelder reading
CHART_BLOCK = 1024  # rows per stacked chart Hessian in chart_constants; bounds its memory


@dataclass(frozen=True)
class HolderFit:
    """Fitted exponent of ``|gamma(y'') - gamma(c)| ~ C |y'' - c|^alpha``.

    ``alpha_hat`` is the fitted slope capped at 1.5; slopes above 1 flag
    super-Lipschitz (differentiable) behavior via ``super_lipschitz`` and the
    uncapped slope is kept in ``slope_raw``.
    """

    alpha_hat: float
    C_hat: float
    r_squared: float
    scale_window: tuple
    n_points: int
    slope_raw: float
    super_lipschitz: bool

    def __post_init__(self):
        if not (0.0 < self.alpha_hat <= ALPHA_CAP):
            raise ParameterError("alpha_hat must lie in (0, 1.5]")
        if not (-1e-9 <= self.r_squared <= 1.0 + 1e-9):
            raise ParameterError("r_squared must lie in [0, 1]")


@dataclass(frozen=True)
class ConeCertificate:
    """Pointwise one-sided cusp bound: zero violations means the cusp
    ``gamma(c) + opening_slope * |y'' - c|^alpha`` covers the graph from
    above at every sample."""

    apex: np.ndarray
    opening_slope: float
    violations: int
    samples: int
    max_excess: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting dimension of a point cloud.

    ``counts[i]`` is the mean occupied-box count at ``scales[i]`` over the
    random grid offsets; counts must be nonincreasing in the scale.
    """

    d_hat: float
    scales: np.ndarray
    counts: np.ndarray
    fit_r_squared: float
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "scales", np.asarray(self.scales, float))
        object.__setattr__(self, "counts", np.asarray(self.counts, float))
        if not (-0.05 <= self.d_hat <= self.ambient_dim + 0.05):
            raise ParameterError(
                f"dimension estimate {self.d_hat:.3g} outside [0, {self.ambient_dim}]"
            )
        if np.any(np.diff(self.counts) > 1e-9):
            raise ParameterError("box counts must be nonincreasing in the scale")


def _center_value(ypp: np.ndarray, gamma: np.ndarray, center: np.ndarray):
    """gamma at the sample that is the center, and every sample's distance
    from it; ParameterError for a center of the wrong dimension or
    non-finite samples or center."""
    if center.shape != (ypp.shape[1],):
        raise ParameterError(f"center has shape {center.shape}, expected ({ypp.shape[1]},) for these samples")
    if not (np.isfinite(ypp).all() and np.isfinite(gamma).all() and np.isfinite(center).all()):
        raise ParameterError("samples and center must be finite")
    diff = ypp - center
    m = float(np.abs(diff).max(initial=0.0))  # scaled first: the distances themselves may overflow
    d = m * np.linalg.norm(diff / m, axis=1) if 0 < m < math.inf else np.linalg.norm(diff, axis=1)
    i = int(np.argmin(d))
    scale = 1.0 + float(np.abs(ypp).max())
    if d[i] > 1e-9 * scale:
        raise ParameterError("center must be one of the sampled points")
    return float(gamma[i]), d


def _linear_fit(logx: np.ndarray, logy: np.ndarray):
    slope, intercept = np.polyfit(logx, logy, 1)
    pred = slope * logx + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def holder_fit(curve, center) -> HolderFit:
    """Least-squares fit of ``log |gamma - gamma(c)|`` against ``log r``.

    Needs at least 8 samples at distinct distances from the center spanning
    at least 3 dyadic scales.  Raises FlatCurveError when the graph is flat
    around the center (no exponent to read off).
    """
    ypp = np.atleast_2d(np.asarray(curve.ypp, float))
    gamma = np.asarray(curve.gamma, float)
    center = np.atleast_1d(np.asarray(center, float))
    g0, dist = _center_value(ypp, gamma, center)

    mask = dist > 1e-14 * (1.0 + float(np.abs(ypp).max()))
    r = dist[mask]
    v = np.abs(gamma[mask] - g0)
    if len(r) == 0:
        raise ParameterError("no samples away from the center")
    nonflat = v > 0
    if not np.any(nonflat) or float(v.max()) <= 1e-13 * (1.0 + abs(g0)):
        raise FlatCurveError("curve is flat around the center; exponent undefined")
    r, v = r[nonflat], v[nonflat]

    distinct = np.unique(np.round(np.log2(r), 9))
    if len(distinct) < 8:
        raise ParameterError(
            f"need >= 8 samples at distinct distances, got {len(distinct)}"
        )
    if r.max() / r.min() < 8.0:
        raise ParameterError("distances must span at least 3 dyadic scales")

    slope, intercept, r2 = _linear_fit(np.log(r), np.log(v))
    if slope <= 0:
        raise FlatCurveError(f"nonpositive fitted exponent {slope:.3g}")
    return HolderFit(
        alpha_hat=min(slope, ALPHA_CAP),
        C_hat=math.exp(intercept),
        r_squared=r2,
        scale_window=(float(r.min()), float(r.max())),
        n_points=len(r),
        slope_raw=slope,
        super_lipschitz=slope > 1.0,
    )


def cusp_check(curve, center, L, theta, alpha, tol: float = 1e-9) -> ConeCertificate:
    """Verify ``gamma(y'') - gamma(c) <= (L/theta) |y'' - c|^alpha + tol``.

    The certificate is literally the conjunction of the sampled
    inequalities; violations are counted, not summarized.
    """
    if L is None or theta is None or alpha is None:
        raise ParameterError("cusp_check needs L, theta and alpha")
    if not (0 < L < math.inf and 0 < theta < math.inf and 0 < alpha <= 1 and 0 <= tol < math.inf):
        raise ParameterError("need finite L > 0, theta > 0 and tol >= 0, and alpha in (0, 1]")
    slope = float(L) / float(theta)
    if not math.isfinite(slope):
        raise ParameterError(f"L / theta must be finite, got L = {L:.3g} and theta = {theta:.3g}")
    ypp = np.atleast_2d(np.asarray(curve.ypp, float))
    gamma = np.asarray(curve.gamma, float)
    center = np.atleast_1d(np.asarray(center, float))
    g0, dist = _center_value(ypp, gamma, center)

    with np.errstate(over="ignore"):  # a bound past the float range is inf, which no sample exceeds
        excess = (gamma - g0) - slope * dist**alpha
    violations = int(np.sum(excess > tol))
    return ConeCertificate(
        apex=np.append(center, g0),
        opening_slope=slope,
        violations=violations,
        samples=len(gamma),
        max_excess=float(excess.max()),
    )


def box_dimension(points, scales, rng=None) -> DimensionEstimate:
    """Box-counting dimension: minus the slope of log N(eps) vs log eps.

    Occupied boxes on axis-aligned grids are counted at each scale and
    averaged over 4 random grid offsets to soften lattice artifacts.  Needs at
    least 100 finite points and at least 4 scales spanning a decade, the
    smallest at least 2**-62 of the points' extent.

    Each scale fills one float buffer of shape ``(4, d, N)``, allocated once
    per call, with the shifted quotients ``(x - shift) / eps`` of all offsets.
    Every quotient is at least 0, since ``shift = lo - offset * eps`` lies at
    or below every coordinate and rounding is monotone, so the truncating
    integer cast is already the floor.  Each point folds into one mixed-radix
    key ``(i_0 s_1 + i_1) s_2 + ...``, where ``s_j`` is one more than column
    j's largest index; the keys are sorted along each offset and the occupied
    boxes are one plus the changes between neighbours (Liebovitch & Toth,
    Phys. Lett. A 141, 1989).  The key width follows from the product of the
    ``s_j``: int32 below 2**31, int64 up to 2**63, and past that the key would
    overflow, so the rows of each offset are sorted with ``np.lexsort``
    instead.  The memory this function needs is the buffer (8 bytes per point,
    column and offset), its integer cast (4 or 8 bytes each) and the keys (4
    or 8 bytes per point and offset).
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[0] < 100:
        raise ParameterError(f"need >= 100 points, got {pts.shape[0]}")
    if pts.ndim != 2 or pts.shape[1] < 1 or not np.isfinite(pts).all():
        raise ParameterError("points must be an (N, d) array of finite values with d >= 1")
    scales = np.sort(np.asarray(scales, float))
    if len(scales) < 4:
        raise ParameterError("need >= 4 scales")
    if not (scales[0] > 0 and np.isfinite(scales).all()):
        raise ParameterError("scales must be positive and finite")
    # products of Python floats, not quotients: a subnormal scales[0] would overflow them
    smallest, largest = float(scales[0]), float(scales[-1])
    if largest < 10.0 * smallest:
        raise ParameterError("scales must span at least a decade")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    with np.errstate(over="ignore"):  # an overflowed extent is refused below
        extent = float((hi - lo).max())
    # every shifted coordinate below is at most |lo| + extent + eps in size
    if not math.isfinite(float(np.abs(lo).max()) + extent + largest):
        raise ParameterError("points and scales must stay well below the float range")
    if extent > 2.0**62 * smallest:
        raise ParameterError(
            f"scales[0] = {smallest:.3g} is too small for points of extent {extent:.3g}: "
            "box indices would pass 2**62"
        )
    rng = np.random.default_rng(rng)
    dim = pts.shape[1]
    offsets = rng.random((4, dim))

    cols = np.ascontiguousarray(pts.T)  # (d, N): each column one contiguous run
    buf = np.empty((4, dim, pts.shape[0]))

    counts = []
    for eps in scales:
        shift = lo - offsets * eps  # (4, d)
        # floor of the buffer's monotone expression at hi: each column's largest index
        radix = (np.floor((hi - shift) / eps).max(axis=0).astype(np.int64) + 1).tolist()
        size = math.prod(radix)
        np.subtract(cols, shift[:, :, None], out=buf)
        buf /= eps
        idx = buf.astype(np.int32 if size < 2**31 else np.int64)  # (4, d, N), >= 0: the floor
        # occupied boxes: one plus the number of changes between sorted rows
        if size <= 2**63:  # the largest key, size - 1, fits
            key = np.ascontiguousarray(idx[:, 0])
            for j in range(1, dim):
                key *= radix[j]
                key += idx[:, j]
            key.sort(axis=1)
            n_occ = 1 + np.count_nonzero(key[:, 1:] != key[:, :-1], axis=1)
        else:
            n_occ = []
            for rows in idx:
                rows = rows[:, np.lexsort(rows)]
                n_occ.append(1 + np.count_nonzero(np.any(rows[:, 1:] != rows[:, :-1], axis=0)))
        counts.append(float(np.mean(n_occ)))
    counts = np.array(counts)

    slope, _, r2 = _linear_fit(np.log(scales), np.log(counts))
    return DimensionEstimate(
        d_hat=-slope,
        scales=scales,
        counts=counts,
        fit_r_squared=r2,
        ambient_dim=dim,
    )


def chart_constants(chart: ConcaveChart, n_samples: int = 10_000, rng=None):
    """Gradient-Lipschitz constant L and concavity modulus theta of a chart.

    Both come from Hessian eigenvalue bounds sampled uniformly over the disc
    of radius ``0.95 * domain_radius``: L bounds the spectral norm,
    theta the uniform concavity
    ``<grad phi(y) - grad phi(z), y - z> <= -theta |y - z|^2``.  The samples
    are evaluated as stacks of ``CHART_BLOCK`` rows, and ``np.linalg.eigvalsh``
    gives the eigenvalues that L and theta are read from.  On 2-D chart
    domains it runs only on the rows that can hold a block's extremes: those
    within rounding of the largest spectral norm or of the largest top
    eigenvalue, found from the closed-form eigenvalues ``mid +- rad`` of a
    symmetric 2 x 2 matrix (Golub & Van Loan, sec. 8.5).  So L and theta
    are those of eigvalsh on every row.  Raises ParameterError for an
    ``n_samples`` that is not an integer >= 1, for a Hessian stack of the
    wrong shape or with a non-finite entry, and when the sampled Hessians
    are not negative definite.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    rng = np.random.default_rng(rng)
    m = chart.dim_domain
    z = rng.normal(size=(n_samples, m))
    radius = rng.random(n_samples) ** (1.0 / m) * 0.95 * chart.domain_radius
    z *= (radius / np.linalg.norm(z, axis=1))[:, None]
    L = 0.0
    theta = math.inf
    for start in range(0, n_samples, CHART_BLOCK):
        block = z[start : start + CHART_BLOCK]
        H = chart.hessian(block)
        if H.shape != (len(block), m, m):
            raise ParameterError(
                f"chart Hessian of a ({len(block)}, {m}) stack has shape {H.shape}"
            )
        finite = np.isfinite(H).all(axis=(1, 2))
        if not finite.all():
            raise ParameterError(f"chart Hessian is not finite at {block[np.argmin(finite)]}")
        if m == 2:
            # mid +- rad scaled by 1/4, so that no finite Hessian overflows;
            # b from the lower triangle, the one eigvalsh reads.  A margin of
            # 16 ulps of the row norm covers the rounding of both this closed
            # form and eigvalsh (at most 3.2 ulps together, measured).
            a, b, c = 0.25 * H[:, 0, 0], 0.25 * H[:, 1, 0], 0.25 * H[:, 1, 1]
            mid = 0.5 * a + 0.5 * c
            rad = np.hypot(0.5 * a - 0.5 * c, b)
            norm, top = np.abs(mid) + rad, mid + rad
            tol = 16 * np.finfo(float).eps * norm + np.finfo(float).tiny
            H = H[(norm + tol >= (norm - tol).max()) | (top + tol >= (top - tol).max())]
        ev = np.linalg.eigvalsh(H)
        L = max(L, float(np.abs(ev).max()))
        theta = min(theta, float(-ev[:, -1].max()))
    if theta <= 0:
        raise ParameterError(
            f"chart is not uniformly concave on samples (theta = {theta:.3g})"
        )
    return L, theta
