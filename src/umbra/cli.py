"""Command-line interface: body specs in, plot-ready CSV/JSON out.

Subcommands:

* ``shadow``  -- illumination shadow boundary of a body as a CSV curve
* ``project`` -- trace the boundary of one body's projection shadow on
  another, writing CSV plus a JSON sidecar
* ``diagnose`` -- Hoelder fit / cusp certificate / box dimension of a curve
  or trace CSV
* ``counterexample`` -- run one of the sharpness constructions

Exit codes: 0 success, 1 spec/parameter/schema errors, 2 empty curve or
seed failure, 3 overlapping bodies, 4 rank deficiency.  Diagnostics go to
stderr; the UMBRA_LOG environment variable (error|info|debug) sets
verbosity.  All randomized sampling is seeded (--rng-seed, default 0).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings

import numpy as np

from . import counterexamples, projection, regularity
from .bodies import BodySpec, chart_at, instantiate
from .errors import (
    BoundaryNotInChartError,
    ChartError,
    DomainError,
    EmptyCurveError,
    FlatCurveError,
    NoConvergenceError,
    OverlapError,
    ParameterError,
    RankDeficiencyError,
    SeedError,
    SpecError,
    UmbraError,
)
from .illumination import (
    Direction,
    ShadowCurve,
    shadow_boundary_sweep,
    shadow_horizon_point,
)

log = logging.getLogger("umbra")

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_EMPTY = 2
EXIT_OVERLAP = 3
EXIT_RANK = 4


def _configure_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("UMBRA_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="umbra: %(message)s")


def _load_body(path):
    spec = BodySpec.load(path)
    return spec, instantiate(spec)


def cmd_shadow(args) -> int:
    try:
        _, body = _load_body(args.spec)
        u = Direction.normalized(np.asarray(args.u, float))
    except (SpecError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    rng = np.random.default_rng(args.rng_seed)
    try:
        if args.chart_point is not None:
            p = np.asarray(args.chart_point, float)
        else:
            p = shadow_horizon_point(body, u, rng)
        log.info("chart base point: %s", p)
        chart = chart_at(body, p, domain_radius=args.chart_radius)
        if args.dyadic is not None:
            kmin, kmax = int(args.dyadic[0]), int(args.dyadic[1])
            radii = [2.0**-k for k in range(kmin, kmax + 1)]
            grid = np.array([s * r for r in radii for s in (1.0, -1.0)] + [0.0])
        else:
            span = args.span if args.span is not None else 0.5 * chart.domain_radius
            grid = np.linspace(-span, span, args.grid)
        curve = shadow_boundary_sweep(chart, u, grid, tol_root=args.tol_root)
        curve.to_csv(args.out)
    except EmptyCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (ChartError, DomainError, BoundaryNotInChartError, ParameterError, UmbraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    for ypp, reason in curve.failures:
        log.info("omitted grid point %s: %s", ypp, reason)
    log.info("wrote %d samples to %s (%d omitted)", len(curve), args.out, len(curve.failures))
    return EXIT_OK


def cmd_project(args) -> int:
    try:
        spec_o, omega = _load_body(args.omega)
        spec_l, lam = _load_body(args.lam)
    except (SpecError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    try:
        gap = projection.assert_disjoint(omega, lam)
        log.info("bodies are disjoint (gap %.6g)", gap)
    except OverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERLAP

    step = args.step if args.step is not None else 0.02 * max(1.0, lam.bounding_radius)
    try:
        seed = projection.seed_boundary(
            omega,
            lam,
            n_samples=args.seed_samples,
            rng=args.rng_seed,
            patch_center=args.seed_patch,
            patch_angle=args.seed_patch_angle,
        )
    except SeedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            start = projection.solve_boundary_point(omega, lam, seed, tol=args.tol_root)
            trace = projection.trace_boundary(
                omega,
                lam,
                start,
                step=step,
                max_steps=args.max_steps,
                tol=args.tol_root,
                rank_tol=args.sigma_fail_tol,
            )
        except RankDeficiencyError as exc:
            print(f"error: rank deficiency: {exc}", file=sys.stderr)
            return EXIT_RANK
        except (NoConvergenceError, UmbraError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EMPTY

    trace.to_csv(args.out)
    meta = {
        "omega": spec_o.to_dict(),
        "lambda": spec_l.to_dict(),
        "separation": gap,
    }
    trace.to_json(os.path.splitext(args.out)[0] + ".json", meta)
    log.info(
        "trace: %d points, closed=%s, arc length %.6g", len(trace), trace.closed, trace.arc_length
    )
    if trace.diagnostics:
        print(f"warning: {trace.diagnostics}", file=sys.stderr)
    return EXIT_OK


def _load_curve_or_trace(path):
    """A diagnosable point set from either CSV schema.

    Returns (kind, curve_or_points): shadow curves keep their graph
    structure, traces come back as the shadow-point cloud.
    """
    try:
        curve = ShadowCurve.from_csv(path)
        return "curve", curve
    except ParameterError:
        pass
    data = projection.BoundaryTrace.read_trace_csv(path)
    n = (data.shape[1] - 3) // 2
    return "trace", data[:, n : 2 * n]


def cmd_diagnose(args) -> int:
    try:
        kind, payload = _load_curve_or_trace(args.curve)
    except (ParameterError, EmptyCurveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC

    try:
        if args.mode == "holder":
            if kind != "curve":
                raise ParameterError("holder mode needs a shadow-curve CSV")
            center = args.center if args.center is not None else [0.0] * payload.codim_domain
            fit = regularity.holder_fit(payload, center)
            report = {
                "mode": "holder",
                "alpha_hat": fit.alpha_hat,
                "C_hat": fit.C_hat,
                "r_squared": fit.r_squared,
                "scale_window": list(fit.scale_window),
                "n_points": fit.n_points,
                "slope_raw": fit.slope_raw,
                "super_lipschitz": fit.super_lipschitz,
            }
        elif args.mode == "cusp":
            if kind != "curve":
                raise ParameterError("cusp mode needs a shadow-curve CSV")
            center = args.center if args.center is not None else [0.0] * payload.codim_domain
            cert = regularity.cusp_check(
                payload, center, args.L, args.theta, args.alpha, tol=args.cusp_tol
            )
            report = {
                "mode": "cusp",
                "apex": cert.apex.tolist(),
                "opening_slope": cert.opening_slope,
                "violations": cert.violations,
                "samples": cert.samples,
                "max_excess": cert.max_excess,
                "passed": cert.passed,
            }
        elif args.mode == "boxdim":
            if kind == "curve":
                pts = np.column_stack([payload.ypp, payload.gamma])
            else:
                pts = payload
            extent = float(np.ptp(pts, axis=0).max())
            if args.scales is not None:
                scales = np.asarray(args.scales, float)
            else:
                scales = np.geomspace(extent / 64.0, extent / 5.0, 8)
            est = regularity.box_dimension(pts, scales, rng=args.rng_seed)
            report = {
                "mode": "boxdim",
                "d_hat": est.d_hat,
                "scales": est.scales.tolist(),
                "counts": est.counts.tolist(),
                "fit_r_squared": est.fit_r_squared,
            }
        else:  # pragma: no cover - argparse restricts choices
            raise ParameterError(f"unknown mode {args.mode}")
    except (ParameterError, FlatCurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC

    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        if args.name == "kiselman-identity":
            err = counterexamples.kiselman_identity_check(args.q)
            report = {"name": args.name, "q": args.q, "max_error": err}
        elif args.name == "cone-graph-failure":
            w = counterexamples.cone_body_graph_failure(
                u=args.u if args.u is not None else (0.0, 1.0, 0.0), rng=args.rng_seed
            )
            report = {
                "name": args.name,
                "found": w.found,
                "frames_checked": w.frames_checked,
                "radius": w.radius,
                "note": w.note,
                "n_pairs": sum(len(v) for v in w.pairs.values()),
            }
        elif args.name == "cantor-contact":
            pair = counterexamples.cantor_contact_pair(args.eps, args.depth)
            report = {
                "name": args.name,
                "eps": args.eps,
                "depth": args.depth,
                "contact_count": pair.contact_count,
                "degenerate": pair.degenerate,
            }
        else:  # pragma: no cover
            raise ParameterError(f"unknown counterexample {args.name}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="umbra", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sh = sub.add_parser("shadow", help="illumination shadow boundary as CSV")
    sh.add_argument("spec", help="body spec JSON file")
    sh.add_argument("--u", nargs=3, type=float, required=True, help="light direction")
    sh.add_argument("--grid", type=int, default=64, help="uniform grid size")
    sh.add_argument("--span", type=float, default=None, help="half-width of the uniform grid")
    sh.add_argument(
        "--dyadic",
        nargs=2,
        type=int,
        default=None,
        metavar=("KMIN", "KMAX"),
        help="sample at +-2^-k for k in KMIN..KMAX instead of a uniform grid",
    )
    sh.add_argument("--chart-point", nargs=3, type=float, default=None)
    sh.add_argument("--chart-radius", type=float, default=None)
    sh.add_argument("--tol-root", type=float, default=None)
    sh.add_argument("--rng-seed", type=int, default=0)
    sh.add_argument("--out", default="shadow.csv")
    sh.set_defaults(func=cmd_shadow)

    pr = sub.add_parser("project", help="trace the projection-shadow boundary")
    pr.add_argument("omega", help="projected body spec JSON")
    pr.add_argument("lam", metavar="lambda", help="target body spec JSON")
    pr.add_argument("--step", type=float, default=None)
    pr.add_argument("--max-steps", type=int, default=2000)
    pr.add_argument("--tol-root", type=float, default=projection.TOL_ROOT)
    pr.add_argument("--seed-samples", type=int, default=128)
    pr.add_argument("--seed-patch", nargs=3, type=float, default=None)
    pr.add_argument("--seed-patch-angle", type=float, default=None)
    pr.add_argument("--sigma-fail-tol", type=float, default=projection.SIGMA_TRACE_TOL)
    pr.add_argument("--rng-seed", type=int, default=0)
    pr.add_argument("--out", default="trace.csv")
    pr.set_defaults(func=cmd_project)

    dg = sub.add_parser("diagnose", help="regularity diagnostics for a CSV curve")
    dg.add_argument("curve", help="shadow-curve or trace CSV file")
    dg.add_argument("mode", choices=["holder", "cusp", "boxdim"])
    dg.add_argument("--center", nargs="*", type=float, default=None)
    dg.add_argument("--L", type=float, default=None)
    dg.add_argument("--theta", type=float, default=None)
    dg.add_argument("--alpha", type=float, default=None)
    dg.add_argument("--cusp-tol", type=float, default=1e-9)
    dg.add_argument("--scales", nargs="*", type=float, default=None)
    dg.add_argument("--rng-seed", type=int, default=0)
    dg.add_argument("--out", default=None)
    dg.set_defaults(func=cmd_diagnose)

    ce = sub.add_parser("counterexample", help="run a sharpness construction")
    ce.add_argument(
        "name", choices=["kiselman-identity", "cone-graph-failure", "cantor-contact"]
    )
    ce.add_argument("--q", type=int, default=3)
    ce.add_argument("--eps", type=float, default=1e-4)
    ce.add_argument("--depth", type=int, default=3)
    ce.add_argument("--u", nargs=3, type=float, default=None)
    ce.add_argument("--rng-seed", type=int, default=0)
    ce.add_argument("--out", default=None)
    ce.set_defaults(func=cmd_counterexample)

    return ap


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UmbraError as exc:  # uncaught tool errors map to spec failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
