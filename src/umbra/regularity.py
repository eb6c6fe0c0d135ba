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
    axis: np.ndarray
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
    d = np.linalg.norm(ypp - center, axis=1)
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
    if L <= 0 or theta <= 0 or not (0 < alpha <= 1):
        raise ParameterError("need L > 0, theta > 0 and alpha in (0, 1]")
    ypp = np.atleast_2d(np.asarray(curve.ypp, float))
    gamma = np.asarray(curve.gamma, float)
    center = np.atleast_1d(np.asarray(center, float))
    g0, dist = _center_value(ypp, gamma, center)

    slope = L / theta
    excess = (gamma - g0) - slope * dist**alpha
    violations = int(np.sum(excess > tol))
    apex = np.append(center, g0)
    axis = np.zeros(ypp.shape[1] + 1)
    axis[-1] = 1.0
    return ConeCertificate(
        apex=apex,
        axis=axis,
        opening_slope=slope,
        violations=violations,
        samples=len(gamma),
        max_excess=float(excess.max()),
    )


def box_dimension(points, scales, rng=None, n_offsets: int = 4) -> DimensionEstimate:
    """Box-counting dimension: minus the slope of log N(eps) vs log eps.

    Occupied boxes on axis-aligned grids are counted at each scale and
    averaged over random grid offsets to soften lattice artifacts.  Needs at
    least 100 points and at least 4 scales spanning a decade.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[0] < 100:
        raise ParameterError(f"need >= 100 points, got {pts.shape[0]}")
    scales = np.sort(np.asarray(scales, float))
    if len(scales) < 4:
        raise ParameterError("need >= 4 scales")
    if scales[0] <= 0:
        raise ParameterError("scales must be positive")
    if scales[-1] / scales[0] < 10.0:
        raise ParameterError("scales must span at least a decade")
    rng = np.random.default_rng(rng)
    dim = pts.shape[1]
    lo = pts.min(axis=0)
    offsets = rng.random((n_offsets, dim))

    counts = []
    for eps in scales:
        n_occ = []
        for off in offsets:
            idx = np.floor((pts - (lo - off * eps)) / eps).astype(np.int64)
            # occupied boxes: one plus the number of changes between sorted rows
            idx = idx[np.lexsort(idx.T)]
            n_occ.append(1 + np.count_nonzero(np.any(idx[1:] != idx[:-1], axis=1)))
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


def chart_constants(
    chart: ConcaveChart, n_samples: int = 10_000, rng=None, radius_frac: float = 0.95
):
    """Gradient-Lipschitz constant L and concavity modulus theta of a chart.

    Both come from Hessian eigenvalue bounds sampled uniformly over the disc
    of radius ``radius_frac * domain_radius``: L bounds the spectral norm,
    theta the uniform concavity
    ``<grad phi(y) - grad phi(z), y - z> <= -theta |y - z|^2``.  The samples
    are evaluated as stacks of ``CHART_BLOCK`` rows.  Raises when the sampled
    Hessians are not negative definite.
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 < radius_frac <= 1.0:
        raise ParameterError(f"radius_frac must lie in (0, 1], got {radius_frac}")
    rng = np.random.default_rng(rng)
    m = chart.dim_domain
    z = rng.normal(size=(n_samples, m))
    radius = rng.random(n_samples) ** (1.0 / m) * radius_frac * chart.domain_radius
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
        ev = np.linalg.eigvalsh(H)
        L = max(L, float(np.abs(ev).max()))
        theta = min(theta, float(-ev[:, -1].max()))
    if theta <= 0:
        raise ParameterError(
            f"chart is not uniformly concave on samples (theta = {theta:.3g})"
        )
    return L, theta
