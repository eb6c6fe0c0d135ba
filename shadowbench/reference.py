"""Closed-form references for every output the benchmark times.

Nothing here imports umbra.  Each check compares a job's output (plain
arrays, CSV rows or JSON fields) with a closed form built from the job's own
inputs, and reports every comparison as ``error / tolerance`` so that values
at or below 1 pass.  Every tolerance is the solver's stated tolerance (the
``--tol-root`` / ``tol_root`` the job passed, the fiber solver's boundary
tolerance ``TOL_BOUNDARY``, or the trace solver's map tolerance), carried
through a first-order bound, plus a float64 round-off allowance; none is
fitted to observed outputs.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)
ROUND = 64.0 * EPS  # round-off allowance per re-evaluated expression

# Stated tolerances of the solvers under test (module docs of umbra):
TOL_BOUNDARY = 1e-10  # fiber root |G| tolerance of chart evaluation
SEARCH_FRACTION = 0.999  # sweeps search |t| < 0.999 of each fiber's half-chord
BRACKET_EXPANSIONS = 20  # ... at the expansion points 1 - 2^-k, k <= 20
BOX_DIM_TOL = 0.15  # box-counting accuracy required of a known-dimension set
CUSP_TOL = 1e-9  # cusp_check default tolerance
ALPHA_CAP = 1.5  # holder_fit reports min(slope, 1.5)


class Verdict:
    """Accumulates ``error / tolerance`` ratios and failed requirements."""

    def __init__(self):
        self.worst = 0.0
        self.failures: list[str] = []

    def ratio(self, what: str, err: float, tol: float):
        r = float(err) / float(tol)
        if not math.isfinite(r):
            self.failures.append(f"{what}: error {err!r} against tolerance {tol!r}")
            return
        self.worst = max(self.worst, r)
        if r > 1.0:
            self.failures.append(f"{what}: error {err:.3g} exceeds tolerance {tol:.3g}")

    def require(self, what: str, ok: bool):
        if not ok:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# shared closed forms


def ellipsoid_matrix(semiaxes, rotation) -> np.ndarray:
    """A with body ``(x - c)^T A (x - c) <= 1``."""
    R = np.asarray(rotation, float)
    return R @ np.diag(1.0 / np.asarray(semiaxes, float) ** 2) @ R.T


def ray_quadric(o, d, A):
    """Coefficients of ``G(o + s d) = a2 s^2 + 2 a1 s + a0`` for a centred quadric."""
    Ad = A @ d
    return float(d @ Ad), float(o @ Ad), float(o @ (A @ o)) - 1.0


def ls_weights(x: np.ndarray) -> np.ndarray:
    """w with ``slope = sum(w * y)`` for the least-squares line through (x, y)."""
    xc = x - x.mean()
    return xc / float(xc @ xc)


def slope_interval(logr, v_lo, v_hi):
    """Range of the least-squares log-log slope over ``v_i in [v_lo, v_hi]``."""
    w = ls_weights(logr)
    with np.errstate(divide="ignore"):
        lo_log, hi_log = np.log(np.maximum(v_lo, 0.0)), np.log(v_hi)
    smin = float(np.sum(np.where(w > 0, w * lo_log, w * hi_log)))
    smax = float(np.sum(np.where(w > 0, w * hi_log, w * lo_log)))
    return smin, smax


def check_interval(v: Verdict, what: str, value: float, lo: float, hi: float):
    """Ratio 1 at the interval ends, 0 at its centre."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not math.isfinite(half):  # an unbounded side makes the check one-sided
        v.require(f"{what}: {value!r} outside [{lo!r}, {hi!r}]", lo <= value <= hi)
        return
    v.ratio(what, abs(value - mid), max(half, ROUND * max(1.0, abs(mid))))


def check_holder_slope(v: Verdict, what: str, r, values, slope_raw, alpha_hat):
    """Fitted exponent against an independent least-squares fit of the same data."""
    logr, logv = np.log(r), np.log(values)
    w = ls_weights(logr)
    ref = float(w @ logv)
    X = np.column_stack([logr, np.ones_like(logr)])
    cond = float(np.linalg.cond(X))
    tol = ROUND * (float(np.abs(w) @ (1.0 + np.abs(logv))) + math.sqrt(len(r)) * cond * (1.0 + abs(ref)))
    v.ratio(f"{what} slope vs reference fit", abs(slope_raw - ref), tol)
    v.require(f"{what} alpha_hat is not min(slope, {ALPHA_CAP})", alpha_hat == min(slope_raw, ALPHA_CAP))


# ---------------------------------------------------------------------------
# silhouette_ellipsoid


def ellipsoid_fiber_root(A, c, u, frame_R, frame_t, y1):
    """Exact silhouette crossing of one aligned-chart fiber, or None.

    The silhouette of ``(x - c)^T A (x - c) <= 1`` under light u is the plane
    section ``<A (x - c), u> = 0``.  In aligned chart coordinates (y1, t, h)
    the fiber plane ``y1 = const`` meets that section in two surface points;
    the chart graph is the upper sheet, so the root is the point with the
    larger h, provided it lies on the upper sheet.  Returns t there.
    """
    P, p0 = np.asarray(frame_R, float), np.asarray(frame_t, float)
    Au = A @ u
    at, ah = float(Au @ P[:, 1]), float(Au @ P[:, 2])
    beta = -float(Au @ (P[:, 0] * y1 + p0 - c))
    nn = at * at + ah * ah
    e = np.array([-ah, at]) / math.sqrt(nn)
    b = beta * np.array([at, ah]) / nn
    o = P[:, 0] * y1 + P[:, 1] * b[0] + P[:, 2] * b[1] + p0 - c
    D = P[:, 1] * e[0] + P[:, 2] * e[1]
    a2, a1, a0 = ray_quadric(o, D, A)
    disc = a1 * a1 - a2 * a0
    if disc < 0:
        return None
    roots = [(-a1 + sg * math.sqrt(disc)) / a2 for sg in (1.0, -1.0)]
    t, h = max(((b[0] + s * e[0], b[1] + s * e[1]) for s in roots), key=lambda th: th[1])
    # upper sheet: the largest h on the vertical line over (y1, t)
    a2v, a1v, a0v = ray_quadric(P[:, 0] * y1 + P[:, 1] * t + p0 - c, P[:, 2], A)
    h_up = (-a1v + math.sqrt(max(a1v * a1v - a2v * a0v, 0.0))) / a2v
    if abs(h - h_up) > 1e-6 * (1.0 + abs(h_up)):
        return None
    return t


def dropped_ok(root, y1, radius) -> bool:
    """A sweep may drop a fiber only when its exact root is outside the part
    of the chart disc the sweep searches: |t| < T (1 - 2^-20) with T = 0.999
    of the fiber's half-chord."""
    half_chord_sq = radius * radius - y1 * y1
    if root is None or half_chord_sq <= 0:
        return True
    searched = SEARCH_FRACTION * math.sqrt(half_chord_sq) * (1.0 - 2.0**-BRACKET_EXPANSIONS)
    return abs(root) >= searched


def check_silhouette_sweep(v, tag, A, c, u, sweep, grid):
    """Sweep samples lie on the plane section with |G| ~ 0; drops are justified."""
    P, p0 = sweep["frame_R"], sweep["frame_t"]
    tol_root = float(sweep["tol_root"])
    z = np.column_stack([sweep["ypp"], sweep["gamma"], sweep["height"]])
    w = z @ P.T + p0
    x = w - c
    Ax = x @ A.T
    G = np.einsum("ij,ij->i", x, Ax) - 1.0
    gnorm = np.linalg.norm(Ax, axis=1)
    normA = float(np.linalg.norm(A, 2))
    wnorm = np.linalg.norm(w, axis=1)
    tol_G = TOL_BOUNDARY + ROUND * (1.0 + 2.0 * gnorm * wnorm)
    tangency = np.abs(Ax @ u) / gnorm
    tol_T = tol_root + ROUND * (1.0 + normA * wnorm / gnorm)
    if len(G):
        i = int(np.argmax(np.abs(G) / tol_G))
        v.ratio(f"{tag} |G| at silhouette sample", abs(G[i]), tol_G[i])
        i = int(np.argmax(tangency / tol_T))
        v.ratio(f"{tag} <n, u> at silhouette sample", tangency[i], tol_T[i])
        v.ratio(f"{tag} stored root residual", float(np.abs(sweep["residual"]).max()), tol_root)
    kept = set(sweep["ypp"][:, 0].tolist())
    for y1 in grid:
        if float(y1) in kept:
            continue
        root = ellipsoid_fiber_root(A, c, u, P, p0, float(y1))
        v.require(
            f"{tag}: fiber {y1:.6g} dropped although its exact root {root} is in the disc",
            dropped_ok(root, float(y1), float(sweep["domain_radius"])),
        )


def check_silhouette_ellipsoid(inp, out) -> Verdict:
    v = Verdict()
    A = ellipsoid_matrix(inp["semiaxes"], inp["rotation"])
    c = np.zeros(3)
    u = np.asarray(inp["u"], float)
    p = out["horizon_point"]
    x = p - c
    v.ratio("horizon point |G|", abs(float(x @ A @ x) - 1.0), 10 * TOL_BOUNDARY * max(1.0, max(inp["semiaxes"])))
    for tag in ("cusp_sweep", "dyadic_sweep"):
        check_silhouette_sweep(v, tag, A, c, u, out[tag], out[tag]["grid"])

    # chart constants: sampled Hessian eigenvalue bounds of a graph whose
    # principal curvatures are at least kmin (a_min / a_max^2 for an
    # ellipsoid) satisfy kmin <= theta <= L
    a = np.asarray(inp["semiaxes"], float)
    kmin = float(a.min() / a.max() ** 2)
    L, theta = out["L"], out["theta"]
    v.require(f"chart constants out of order: kmin {kmin:.6g}, theta {theta:.6g}, L {L:.6g}",
              kmin * (1 - 1e-9) <= theta <= L * (1 + 1e-12))

    # cusp certificate: recount the sampled inequalities independently
    sw = out["cusp_sweep"]
    y, g = sw["ypp"][:, 0], sw["gamma"]
    i0 = int(np.argmin(np.abs(y)))
    slope = L / theta
    excess = (g - g[i0]) - slope * np.abs(y)
    band = ROUND * (np.abs(g) + slope * np.abs(y) + 1.0)
    lo = int(np.sum(excess > CUSP_TOL + band))
    hi = int(np.sum(excess > CUSP_TOL - band))
    v.require(f"cusp violations {out['cusp_violations']} outside [{lo}, {hi}]", lo <= out["cusp_violations"] <= hi)
    v.require("cusp sample count", out["cusp_samples"] == len(g))

    dy = out["dyadic_sweep"]
    y, g = dy["ypp"][:, 0], dy["gamma"]
    i0 = int(np.argmin(np.abs(y)))
    mask = (np.abs(y) > 0) & (g != g[i0])
    check_holder_slope(v, "ellipsoid holder", np.abs(y[mask]), np.abs(g[mask] - g[i0]),
                       out["holder_slope_raw"], out["holder_alpha_hat"])
    return v


# ---------------------------------------------------------------------------
# silhouette_kiselman


def read_curve_csv(text: str):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], np.array([[float(s) for s in r] for r in rows[1:] if r])
    if header != ["ypp_1", "gamma", "residual"]:
        raise ValueError(f"unexpected shadow CSV header {header}")
    return body[:, 0], body[:, 1], body[:, 2]


def kiselman_root_interval(x, q, tol):
    """Interval of t with ``|(t^q - x^2)(1 - t)| <= tol`` near the root |x|^(2/q).

    On the strip (|t| < 1/2) the factor 1/(1 - t) is at most 2.
    """
    x2 = np.asarray(x, float) ** 2
    lo_arg = x2 - 2.0 * tol
    lo = np.sign(lo_arg) * np.abs(lo_arg) ** (1.0 / q)
    hi = (x2 + 2.0 * tol) ** (1.0 / q)
    return lo, hi


def check_kiselman_curve(v, tag, q, grid, radius, tol_root, text):
    x, gam, res = read_curve_csv(text)
    s = (gam**q - x * x) * (1.0 - gam)
    tol = tol_root + ROUND * (np.abs(gam) ** q + x * x)
    i = int(np.argmax(np.abs(s) / tol))
    v.ratio(f"{tag} closed-form slope (gamma^q - x^2)(1 - gamma)", abs(s[i]), tol[i])
    v.ratio(f"{tag} stored root residual", float(np.abs(res).max()), tol_root)
    kept = set(x.tolist())
    for y1 in grid:
        if float(y1) in kept:
            continue
        root = abs(float(y1)) ** (2.0 / q)
        v.require(
            f"{tag}: fiber {y1:.6g} dropped although its exact root {root:.6g} is in the disc",
            dropped_ok(root, float(y1), radius),
        )
    return x, gam


def check_silhouette_kiselman(inp, out) -> Verdict:
    v = Verdict()
    q, tol_root, radius = inp["q"], inp["tol_root"], inp["chart_radius"]
    for tag in ("uniform", "dyadic"):
        v.require(f"{tag} shadow exit code {out[tag + '_rc']}", out[tag + "_rc"] == 0)
    v.require(f"diagnose exit code {out['holder_rc']}", out["holder_rc"] == 0)
    if not v.ok:
        return v
    check_kiselman_curve(v, "uniform", q, inp["uniform_grid"], radius, tol_root, out["uniform_csv"])
    x, gam = check_kiselman_curve(v, "dyadic", q, inp["dyadic_grid"], radius, tol_root, out["dyadic_csv"])

    # Hoelder exponent: the fit of the computed samples must lie in the range
    # the least-squares slope takes over every root allowed by tol_root
    fit = json.loads(out["holder_json"])
    i0 = int(np.argmin(np.abs(x)))
    keep = (np.abs(x) > 0) & (gam != gam[i0])
    g_lo, g_hi = kiselman_root_interval(x[keep], q, tol_root)
    c_lo, c_hi = kiselman_root_interval(0.0, q, tol_root)
    smin, smax = slope_interval(np.log(np.abs(x[keep])), g_lo - c_hi, g_hi - c_lo)
    check_interval(v, f"kiselman q={q} holder slope", fit["slope_raw"], smin, smax)
    check_holder_slope(v, f"kiselman q={q} holder", np.abs(x[keep]), np.abs(gam[keep] - gam[i0]),
                       fit["slope_raw"], fit["alpha_hat"])
    v.require("holder n_points", fit["n_points"] == int(keep.sum()))
    return v


# ---------------------------------------------------------------------------
# projection_trace


def read_trace_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(text.splitlines()))
    header = rows[0]
    expect = [f"x_{i}" for i in (1, 2, 3)] + [f"y_{i}" for i in (1, 2, 3)] + ["t", "residual", "sigma_min"]
    if header != expect:
        raise ValueError(f"unexpected trace CSV header {header}")
    return np.array([[float(s) for s in r] for r in rows[1:] if r])


def check_projection_trace(inp, out) -> Verdict:
    """Every traced y grazes omega along lambda's normal ray; the trace closes."""
    v = Verdict()
    v.require(f"project exit code {out['project_rc']}", out["project_rc"] == 0)
    if not v.ok:
        return v
    Ao, co = ellipsoid_matrix(inp["omega_axes"], inp["omega_rot"]), np.asarray(inp["omega_center"], float)
    Al = ellipsoid_matrix(inp["lam_axes"], inp["lam_rot"])
    tol = inp["tol_root"]  # max-norm tolerance of the defining map Phi(x, y, t)
    data = read_trace_csv(out["trace_csv"])
    meta = json.loads(out["trace_json"])
    X, Y, T, RES = data[:, 0:3], data[:, 3:6], data[:, 6], data[:, 7]
    v.require("trace JSON point count", meta["n_points"] == len(data))
    v.ratio("trace stored residual", float(RES.max()), tol)
    v.require("hitting scale t > 0", bool(np.all(T > 0)))

    worst_F, worst_m = (0.0, 1.0), (0.0, 1.0)
    normAo = float(np.linalg.norm(Ao, 2))
    for x, y in zip(X, Y):
        gF = 2.0 * (Al @ y)
        F = float(y @ Al @ y) - 1.0
        tol_F = tol + ROUND * (1.0 + float(np.linalg.norm(gF) * np.linalg.norm(y)))
        if abs(F) / tol_F > worst_F[0] / worst_F[1]:
            worst_F = (abs(F), tol_F)
        # min over s of G_omega(y + s n): zero exactly when the ray grazes
        n = gF / np.linalg.norm(gF)
        a2, a1, a0 = ray_quadric(y - co, n, Ao)
        m = a0 - a1 * a1 / a2
        # |Phi| <= tol puts x within sqrt(3) tol of the ray point y + t gF
        # with |G(x)| <= tol and |gG . n| <= tol / |gF|
        gG = float(np.linalg.norm(2.0 * (Ao @ (x - co))))
        dq = tol / float(np.linalg.norm(gF)) + 2.0 * math.sqrt(3.0) * normAo * tol
        tol_m = tol * (1.0 + math.sqrt(3.0) * gG) + dq * dq / (4.0 * a2) + ROUND * (1.0 + abs(a0) + a1 * a1 / a2)
        if abs(m) / tol_m > worst_m[0] / worst_m[1]:
            worst_m = (abs(m), tol_m)
        v.require("tangent ray points away from omega", a1 < 0)
    v.ratio("traced y on lambda (|F|)", *worst_F)
    v.ratio("ray-quadric tangency (min G_omega along the ray)", *worst_m)

    step = float(meta["step"])
    v.require("trace JSON says closed", meta["closed"] is True)
    v.ratio("trace closure |y_last - y_first|", float(np.linalg.norm(Y[-1] - Y[0])), 0.5 * step)
    jumps = np.linalg.norm(np.diff(Y, axis=0), axis=1)
    v.ratio("trace step |y_k+1 - y_k|", float(jumps.max()), 3.0 * step + 1e-12)

    # membership queries against the closed-form ray-quadric hit
    for y, member, fht in zip(inp["query_points"], out["member"], out["fht"]):
        gF = Al @ y
        n = gF / np.linalg.norm(gF)
        o = y - co
        a2, a1, a0 = ray_quadric(o, n, Ao)
        disc = a1 * a1 - a2 * a0
        hit = disc >= 0 and a1 < 0
        ambiguous = abs(disc) / a2 <= ROUND * (1.0 + abs(a0) + a1 * a1 / a2 + normAo * float(o @ o))
        v.require("in_projection_shadow disagrees with first_hitting_time", member == (fht is not None))
        if ambiguous:
            continue
        v.require(f"membership at {y} is {member}, closed form says {hit}", member == hit)
        if hit and fht is not None:
            s = a0 / (-a1 + math.sqrt(disc))  # smaller root, cancellation-free
            t_max = 2.0 * (float(np.linalg.norm(o)) + float(max(inp["omega_axes"])))
            tol_t = 1e-14 * max(1.0, t_max) + ROUND * (1.0 + abs(a0) + normAo * float(o @ o)) / (2.0 * math.sqrt(disc))
            v.ratio("first hitting time vs closed form", abs(fht - s), tol_t)
    return v


# ---------------------------------------------------------------------------
# diagnose_cloud


def fibonacci_cap(n: int, zmin: float) -> np.ndarray:
    i = np.arange(n) + 0.5
    ct = 1.0 - (1.0 - zmin) * i / n
    st = np.sqrt(1.0 - ct**2)
    az = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([st * np.cos(az), st * np.sin(az), ct])


def check_diagnose_cloud(inp, out) -> Verdict:
    v = Verdict()
    for name, d_true in (("sphere_patch", 2.0), ("space_curve", 1.0), ("graph", 1.0)):
        v.ratio(f"{name} box dimension vs d = {d_true:g}", abs(out[name + "_d_hat"] - d_true), BOX_DIM_TOL)

    x, alpha = inp["graph_x"], inp["alpha"]
    g = np.abs(x) ** alpha
    keep = x != 0.0
    r, vals = np.abs(x[keep]), g[keep]
    # the exact graph has log-log slope alpha; only pow/log round-off remains
    w = ls_weights(np.log(r))
    cond = float(np.linalg.cond(np.column_stack([np.log(r), np.ones_like(r)])))
    tol = ROUND * (float(np.abs(w) @ (1.0 + np.abs(np.log(vals)) + alpha * np.abs(np.log(r))))
                   + math.sqrt(len(r)) * cond * (1.0 + alpha))
    v.ratio("graph holder slope vs alpha", abs(out["holder_slope_raw"] - alpha), tol)
    v.require("graph holder n_points", out["holder_n_points"] == int(keep.sum()))

    slope = inp["cusp_L"] / inp["cusp_theta"]
    excess = g - slope * np.abs(x) ** alpha
    band = ROUND * (g + slope * np.abs(x) ** alpha + 1.0)
    lo = int(np.sum(excess > CUSP_TOL + band))
    hi = int(np.sum(excess > CUSP_TOL - band))
    v.require(f"graph cusp violations {out['cusp_violations']} outside [{lo}, {hi}]", lo <= out["cusp_violations"] <= hi)
    v.ratio("graph cusp max excess", abs(out["cusp_max_excess"] - float(excess.max())), float(band.max()) + ROUND)
    return v
