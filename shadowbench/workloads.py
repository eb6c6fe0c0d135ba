"""Seeded inputs and timed jobs for the four workloads.

Each workload turns ``--seed`` into a pool of job inputs (the same seed gives
the same pool), runs one job per call through umbra's public API or
``umbra.cli.main`` in-process, and hands the outputs to the closed-form
checks in ``reference``.  Jobs look umbra's functions up on its modules at
call time, so a traced run sees the wrapped versions.

Why these workloads:

* ``silhouette_ellipsoid`` -- quadric whose chart fibers are solved by
  scalar Newton; time goes to ``bodies`` oracles and
  ``regularity.chart_constants`` (the target of batching and quadric closed
  forms).
* ``silhouette_kiselman`` -- Kiselman's C^(2/q) strip: not a quadric, no
  uniform concavity and a degenerate slope at the origin, so the
  ``illumination`` bracket and bisection dominate; also covers the
  ``shadow`` and ``diagnose`` CLI paths.
* ``projection_trace`` -- ``umbra project`` on disjoint posed ellipsoid
  pairs plus many short ``first_hitting_time`` membership queries: all time
  in ``projection`` and its oracles, no charts.
* ``diagnose_cloud`` -- ``box_dimension``, ``holder_fit`` and
  ``cusp_check`` on 12k-20k point sets of known dimension and exponent.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

KISELMAN_Q = (3, 5, 7, 9)
KISELMAN_RADIUS = 0.48
TOL_ROOT = 1e-10  # passed explicitly to every solve whose output is checked


class Stratified:
    """Seeded low-discrepancy points in [0, 1)^d (additive R_d sequence).

    Every prefix of the pool covers the parameter box evenly, so the mix of
    job costs in a run, and with it the run's median, depends little on the
    seed; the seed only shifts the sequence.
    """

    def __init__(self, rng, dims: int):
        phi = 2.0
        for _ in range(64):  # root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.alpha = (1.0 / phi) ** np.arange(1, dims + 1) % 1.0
        self.offset = rng.random(dims)

    def __call__(self, i: int) -> np.ndarray:
        return (self.offset + (i + 1) * self.alpha) % 1.0


def rotation(u) -> np.ndarray:
    """Rotation from three uniforms, uniformly distributed (Shoemake)."""
    a, b = math.sqrt(1.0 - u[0]), math.sqrt(u[0])
    x, y = a * math.sin(2 * math.pi * u[1]), a * math.cos(2 * math.pi * u[1])
    z, w = b * math.sin(2 * math.pi * u[2]), b * math.cos(2 * math.pi * u[2])
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def direction(u) -> np.ndarray:
    """Unit vector from two uniforms, uniformly distributed on the sphere."""
    z, az = 1.0 - 2.0 * u[0], 2.0 * math.pi * u[1]
    s = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([s * math.cos(az), s * math.sin(az), z])


def _sweep_record(curve, grid, domain_radius):
    return {
        "grid": np.asarray(grid, float),
        "ypp": curve.ypp,
        "gamma": curve.gamma,
        "residual": curve.residual,
        "height": curve.surface_height,
        "frame_R": curve.chart_frame.rotation,
        "frame_t": curve.chart_frame.translation,
        "tol_root": curve.tol_root,
        "domain_radius": domain_radius,
    }


class Workload:
    name = ""
    pool_size = 32
    trace_jobs = 4  # fixed job count of a traced run, so its counts repeat exactly
    kernel = (900, 3000)  # reference kernel mix: Newton steps, sorted rows

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, um, inp) -> dict:
        """The timed job."""
        raise NotImplementedError

    def collect(self, inp, out) -> dict:
        """Reads file outputs back (untimed)."""
        return out

    def check(self, inp, out) -> ref.Verdict:
        raise NotImplementedError


class SilhouetteEllipsoid(Workload):
    name = "silhouette_ellipsoid"
    check = staticmethod(ref.check_silhouette_ellipsoid)

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        box = Stratified(rng, 8)
        pool = []
        for i in range(self.pool_size):
            u = box(i)
            pool.append({
                "semiaxes": 0.8 + u[0:3],
                "rotation": rotation(u[3:6]),
                "u": direction(u[6:8]),
                "rng": int(rng.integers(2**31)),
            })
        return pool

    def run(self, um, inp):
        a = inp["semiaxes"]
        body = um.bodies.ellipsoid(a, um.bodies.Pose(inp["rotation"], np.zeros(3)))
        u = um.illumination.Direction(inp["u"])
        rng = np.random.default_rng(inp["rng"])
        p = um.illumination.shadow_horizon_point(body, u, rng)
        chart = um.bodies.chart_at(body, p, domain_radius=0.35 * float(a.min()))
        L, theta = um.regularity.chart_constants(chart, n_samples=10_000, rng=rng)
        r = chart.domain_radius
        span = min(0.45 * r, 0.5 * r * theta / L)
        grid = np.linspace(-span, span, 257)
        sweep = um.illumination.shadow_boundary_sweep(chart, u, grid, tol_root=TOL_ROOT)
        cert = um.regularity.cusp_check(sweep, [0.0], L=L, theta=theta, alpha=1.0)
        radii = (0.1 * span) * 2.0 ** -np.arange(9)
        dgrid = np.concatenate([radii, -radii, [0.0]])
        dyadic = um.illumination.shadow_boundary_sweep(chart, u, dgrid, tol_root=TOL_ROOT)
        fit = um.regularity.holder_fit(dyadic, [0.0])
        return {
            "horizon_point": p,
            "L": L,
            "theta": theta,
            "cusp_sweep": _sweep_record(sweep, grid, r),
            "cusp_violations": cert.violations,
            "cusp_samples": cert.samples,
            "cusp_max_excess": cert.max_excess,
            "dyadic_sweep": _sweep_record(dyadic, dgrid, r),
            "holder_alpha_hat": fit.alpha_hat,
            "holder_slope_raw": fit.slope_raw,
        }


class SilhouetteKiselman(Workload):
    name = "silhouette_kiselman"
    check = staticmethod(ref.check_silhouette_kiselman)
    pool_size = 64
    trace_jobs = 8

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        specs = {}
        for q in KISELMAN_Q:
            path = self.workdir / f"kiselman_q{q}.json"
            path.write_text(json.dumps({"family": "kiselman", "params": {"q": q}}))
            specs[q] = str(path)
        box = Stratified(rng, 3)
        pool = []
        for i in range(self.pool_size):
            q = KISELMAN_Q[i % len(KISELMAN_Q)]
            u = box(i // len(KISELMAN_Q))  # each q sweeps the same spread of grids
            span = 0.25 + 0.2 * float(u[0])
            kmin, kmax = 3 + int(2 * u[1]), 12 + int(3 * u[2])
            dyadic = [s * 2.0**-k for k in range(kmin, kmax + 1) for s in (1.0, -1.0)] + [0.0]
            pool.append(
                {
                    "q": q,
                    "spec": specs[q],
                    "span": span,
                    "kmin": kmin,
                    "kmax": kmax,
                    "uniform_grid": np.linspace(-span, span, 257),
                    "dyadic_grid": np.array(dyadic),
                    "chart_radius": KISELMAN_RADIUS,
                    "tol_root": TOL_ROOT,
                }
            )
        return pool

    def run(self, um, inp):
        w = self.workdir
        common = ["--u", "0", "1", "0", "--chart-point", "0", "0", "0",
                  "--chart-radius", repr(KISELMAN_RADIUS), "--tol-root", repr(TOL_ROOT)]
        out = {}
        out["uniform_rc"] = um.cli.main(
            ["shadow", inp["spec"], *common, "--grid", "257", "--span", repr(inp["span"]),
             "--out", str(w / "uniform.csv")]
        )
        out["dyadic_rc"] = um.cli.main(
            ["shadow", inp["spec"], *common, "--dyadic", str(inp["kmin"]), str(inp["kmax"]),
             "--out", str(w / "dyadic.csv")]
        )
        out["holder_rc"] = um.cli.main(
            ["diagnose", str(w / "dyadic.csv"), "holder", "--out", str(w / "holder.json")]
        )
        return out

    def collect(self, inp, out):
        for key, name in (("uniform_csv", "uniform.csv"), ("dyadic_csv", "dyadic.csv"),
                          ("holder_json", "holder.json")):
            out[key] = (self.workdir / name).read_text()
        return out


class ProjectionTrace(Workload):
    name = "projection_trace"
    check = staticmethod(ref.check_projection_trace)
    pool_size = 48
    n_queries = 96

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        box = Stratified(rng, 15)
        pool = []
        for i in range(self.pool_size):
            u = box(i)
            lam_axes, lam_rot = 0.8 + 0.5 * u[0:3], rotation(u[3:6])
            om_axes, om_rot = 0.5 + 0.4 * u[6:9], rotation(u[9:12])
            d = direction(u[12:14])
            om_center = (3.4 + 0.8 * u[14]) * d
            paths = []
            for tag, axes, rot, center in (("omega", om_axes, om_rot, om_center),
                                           ("lambda", lam_axes, lam_rot, np.zeros(3))):
                path = self.workdir / f"pair{i}_{tag}.json"
                path.write_text(json.dumps({
                    "family": "ellipsoid",
                    "params": {"semiaxes": axes.tolist()},
                    "pose": {"rotation": rot.tolist(), "translation": center.tolist()},
                }))
                paths.append(str(path))
            # membership queries: boundary points of lambda around the
            # direction of omega, so both shadowed and lit points occur
            A = ref.ellipsoid_matrix(lam_axes, lam_rot)
            dirs = d + 0.3 * rng.normal(size=(self.n_queries, 3))
            ys = dirs / np.sqrt(np.einsum("ij,jk,ik->i", dirs, A, dirs))[:, None]
            normals = ys @ A.T
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            pool.append({
                "omega_axes": om_axes, "omega_rot": om_rot, "omega_center": om_center,
                "lam_axes": lam_axes, "lam_rot": lam_rot,
                "omega_spec": paths[0], "lambda_spec": paths[1],
                "query_points": ys, "query_normals": normals,
                "rng": i, "tol_root": TOL_ROOT,
            })
        return pool

    def run(self, um, inp):
        csv_path = self.workdir / "trace.csv"
        rc = um.cli.main(["project", inp["omega_spec"], inp["lambda_spec"], "--tol-root",
                          repr(TOL_ROOT), "--rng-seed", str(inp["rng"]), "--out", str(csv_path)])
        Pose = um.bodies.Pose
        omega = um.bodies.ellipsoid(inp["omega_axes"], Pose(inp["omega_rot"], inp["omega_center"]))
        lam = um.bodies.ellipsoid(inp["lam_axes"], Pose(inp["lam_rot"], np.zeros(3)))
        member = [bool(um.projection.in_projection_shadow(omega, lam, y)) for y in inp["query_points"]]
        fht = [um.projection.first_hitting_time(omega, y, n)
               for y, n in zip(inp["query_points"], inp["query_normals"])]
        return {"project_rc": rc, "member": member, "fht": fht}

    def collect(self, inp, out):
        if out["project_rc"] == 0:
            out["trace_csv"] = (self.workdir / "trace.csv").read_text()
            out["trace_json"] = (self.workdir / "trace.json").read_text()
        return out


class DiagnoseCloud(Workload):
    name = "diagnose_cloud"
    check = staticmethod(ref.check_diagnose_cloud)
    pool_size = 24
    n_sphere, n_curve, n_graph = 20_000, 12_000, 12_000
    kernel = (100, 16_000)  # row sorts dominate box_dimension

    @staticmethod
    def _scales(pts):
        extent = float(np.ptp(pts, axis=0).max())
        return np.geomspace(extent / 48.0, extent / 4.0, 8)

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        box = Stratified(rng, 12)
        pool = []
        for i in range(self.pool_size):
            u = box(i)
            cap = ref.fibonacci_cap(self.n_sphere, -0.9 + 0.4 * u[0])
            sphere = (0.5 + 1.5 * u[1]) * cap @ rotation(u[2:5]).T + rng.normal(size=3)
            t = 2 * math.pi * u[5] + np.linspace(0.0, 2 * math.pi, self.n_curve, endpoint=False)
            trefoil = np.column_stack([np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t), -np.sin(3 * t)])
            curve = (0.3 + 1.2 * u[6]) * trefoil @ rotation(u[7:10]).T
            x = rng.uniform(-1.0, 1.0, self.n_graph)
            x[0] = 0.0
            alpha = 0.35 + 0.6 * float(u[10])
            graph = np.column_stack([x, np.abs(x) ** alpha])
            pool.append({
                "sphere_patch": sphere, "space_curve": curve, "graph": graph,
                "scales": {k: self._scales(p) for k, p in
                           (("sphere_patch", sphere), ("space_curve", curve), ("graph", graph))},
                "graph_x": x, "alpha": alpha,
                "cusp_L": 0.8 + 0.4 * float(u[11]), "cusp_theta": 1.0,
                "rng": int(rng.integers(2**31)),
            })
        return pool

    def run(self, um, inp):
        out = {}
        for name in ("sphere_patch", "space_curve", "graph"):
            est = um.regularity.box_dimension(inp[name], inp["scales"][name], rng=inp["rng"])
            out[name + "_d_hat"] = est.d_hat
            out[name + "_counts"] = est.counts
        g = inp["graph"]
        curve = SimpleNamespace(ypp=g[:, :1], gamma=g[:, 1])
        fit = um.regularity.holder_fit(curve, [0.0])
        cert = um.regularity.cusp_check(curve, [0.0], inp["cusp_L"], inp["cusp_theta"], inp["alpha"])
        out.update({
            "holder_slope_raw": fit.slope_raw, "holder_n_points": fit.n_points,
            "cusp_violations": cert.violations, "cusp_max_excess": cert.max_excess,
        })
        return out


WORKLOADS = {cls.name: cls for cls in (SilhouetteEllipsoid, SilhouetteKiselman, ProjectionTrace, DiagnoseCloud)}
