"""Command-line interface: body specs in, plot-ready CSV/JSON out.

Subcommands:

* ``shadow``  -- illumination shadow boundary of a body as a CSV curve
* ``project`` -- trace the boundary of one body's projection shadow on
  another, writing CSV plus a JSON sidecar.  A quadric omega is seeded by
  step 0's own root on the target; other bodies and ``--seed-patch`` by 64
  sampled target directions.  The trace's rank threshold
  ``SIGMA_TRACE_TOL`` is fixed.
* ``diagnose`` -- Hoelder fit / cusp certificate / box dimension of a curve
  or trace CSV
* ``counterexample`` -- run one of the sharpness constructions

Exit codes (``EXIT_CODES``): 0 success; 1 spec, parameter, schema, usage
and I/O errors, and input files that are not text; 2 empty curve, seed failure or a solve that does not
converge; 3 overlapping bodies; 4 rank deficiency.  Every failure prints one
``error:`` line to stderr, and a usage error prints the usage line before
it.  Diagnostics go to stderr; the UMBRA_LOG environment variable
(error|info|debug) sets verbosity.  All randomized sampling is seeded
(--rng-seed, default 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import counterexamples, projection, regularity
from .bodies import BodySpec, chart_at, instantiate
from .errors import (
    EmptyCurveError,
    NoConvergenceError,
    OverlapError,
    ParameterError,
    RankDeficiencyError,
    RankDeficiencyWarning,
    SeedError,
    UmbraError,
)
from .illumination import (
    Direction,
    ShadowCurve,
    shadow_boundary_sweep,
    shadow_horizon_point,
)

log = logging.getLogger("umbra")

# exit code of a failure: the entry of the nearest class in its MRO
EXIT_CODES = {
    OverlapError: 3,
    RankDeficiencyError: 4,
    EmptyCurveError: 2,
    SeedError: 2,
    NoConvergenceError: 2,
    UmbraError: 1,
    OSError: 1,
    UnicodeDecodeError: 1,  # an input file that is not text
}


def _configure_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("UMBRA_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="umbra: %(message)s")


def _load_body(path):
    spec = BodySpec.load(path)
    return spec, instantiate(spec)


def _write_report(report, out):
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_shadow(args) -> int:
    _, body = _load_body(args.spec)
    u = Direction.normalized(np.asarray(args.u, float))
    rng = np.random.default_rng(args.rng_seed)
    if args.chart_point is not None:
        p = np.asarray(args.chart_point, float)
    else:
        p = shadow_horizon_point(body, u, rng)
    log.info("chart base point: %s", p)
    chart = chart_at(body, p, domain_radius=args.chart_radius)
    if args.dyadic is not None:
        kmin, kmax = args.dyadic
        if not -1023 <= kmin <= kmax <= 1074:  # 2^-k overflows below -1023 and underflows to 0 above 1074
            raise ParameterError(f"--dyadic needs -1023 <= KMIN <= KMAX <= 1074, got KMIN = {kmin}, KMAX = {kmax}")
        grid = np.array([s * 2.0**-k for k in range(kmin, kmax + 1) for s in (1.0, -1.0)] + [0.0])
    else:
        span = args.span if args.span is not None else 0.5 * chart.domain_radius
        if not math.isfinite(2.0 * span):  # linspace takes the width 2 span
            raise ParameterError(f"--span = {span:.3g} does not give a finite grid width 2 span")
        grid = np.linspace(-span, span, args.grid)
    curve = shadow_boundary_sweep(chart, u, grid, tol_root=args.tol_root)
    curve.to_csv(args.out)
    for ypp, reason in curve.failures:
        log.info("omitted grid point %s: %s", ypp, reason)
    log.info("wrote %d samples to %s (%d omitted)", len(curve), args.out, len(curve.failures))
    return 0


def cmd_project(args) -> int:
    spec_o, omega = _load_body(args.omega)
    spec_l, lam = _load_body(args.lam)
    gap = projection.assert_disjoint(omega, lam)
    log.info("bodies are disjoint (gap %.6g)", gap)

    step = args.step if args.step is not None else 0.02 * max(1.0, lam.bounding_radius)
    seed = projection.seed_boundary(
        omega, lam, rng=args.rng_seed, patch_center=args.seed_patch, patch_angle=args.seed_patch_angle
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        start = projection.solve_boundary_point(omega, lam, seed, tol=args.tol_root)
        trace = projection.trace_boundary(omega, lam, start, step, args.max_steps, tol=args.tol_root)

    trace.to_csv(args.out)
    meta = {"omega": spec_o.to_dict(), "lambda": spec_l.to_dict(), "separation": gap}
    trace.to_json(os.path.splitext(args.out)[0] + ".json", meta)
    log.info(
        "trace: %d points, closed=%s, arc length %.6g", len(trace), trace.closed, trace.arc_length
    )
    if trace.diagnostics:
        print(f"warning: {trace.diagnostics}", file=sys.stderr)
    return 0


def _load_curve_or_trace(path):
    """A diagnosable point set from either CSV schema, told apart by the
    header.

    Returns (kind, curve_or_points): shadow curves keep their graph
    structure, traces come back as the shadow-point cloud.
    """
    with open(path, "r", encoding="utf-8") as fh:
        is_curve = fh.readline().startswith("ypp_")
    if is_curve:
        return "curve", ShadowCurve.from_csv(path)
    data = projection.BoundaryTrace.read_trace_csv(path)
    n = (data.shape[1] - 3) // 2
    return "trace", data[:, n : 2 * n]


def cmd_diagnose(args) -> int:
    kind, payload = _load_curve_or_trace(args.curve)
    if args.mode in ("holder", "cusp"):
        if kind != "curve":
            raise ParameterError(f"{args.mode} mode needs a shadow-curve CSV")
        center = args.center if args.center is not None else [0.0] * payload.codim_domain
    if args.mode == "holder":
        report = {"mode": "holder", **dataclasses.asdict(regularity.holder_fit(payload, center))}
    elif args.mode == "cusp":
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
    else:  # boxdim; argparse restricts the choices
        pts = np.column_stack([payload.ypp, payload.gamma]) if kind == "curve" else payload
        scales = args.scales
        if scales is None:
            extent = float(np.ptp(pts, axis=0).max())
            scales = np.geomspace(extent / 64.0, extent / 5.0, 8)
        est = regularity.box_dimension(pts, scales, rng=args.rng_seed)
        report = {
            "mode": "boxdim",
            "d_hat": est.d_hat,
            "scales": est.scales.tolist(),
            "counts": est.counts.tolist(),
            "fit_r_squared": est.fit_r_squared,
        }
    _write_report(report, args.out)
    return 0


def cmd_counterexample(args) -> int:
    if args.name == "kiselman-identity":
        err = counterexamples.kiselman_identity_check(args.q)
        report = {"name": args.name, "q": args.q, "max_error": err}
    elif args.name == "cone-graph-failure":
        w = counterexamples.cone_body_graph_failure(u=args.u, rng=args.rng_seed)
        report = {
            "name": args.name,
            "found": w.found,
            "frames_checked": w.frames_checked,
            "radius": w.radius,
            "note": w.note,
            "n_pairs": sum(len(v) for v in w.pairs.values()),
        }
    else:  # cantor-contact; argparse restricts the choices
        pair = counterexamples.cantor_contact_pair(args.eps, args.depth)
        report = {
            "name": args.name,
            "eps": args.eps,
            "depth": args.depth,
            "contact_count": pair.contact_count,
            "degenerate": pair.degenerate,
        }
    _write_report(report, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage line and raise ParameterError, so that
    ``main`` gives them their exit code like any other failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _int_from(lo):
    """argparse type: an integer >= lo."""

    def integer(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="umbra", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sh = sub.add_parser("shadow", help="illumination shadow boundary as CSV")
    sh.add_argument("spec", help="body spec JSON file")
    sh.add_argument("--u", nargs=3, type=float, required=True, help="light direction")
    sh.add_argument("--grid", type=_int_from(1), default=65, help="uniform grid size (odd sizes sample y'' = 0)")
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
    sh.add_argument("--rng-seed", type=_int_from(0), default=0)
    sh.add_argument("--out", default="shadow.csv")
    sh.set_defaults(func=cmd_shadow)

    pr = sub.add_parser("project", help="trace the projection-shadow boundary")
    pr.add_argument("omega", help="projected body spec JSON")
    pr.add_argument("lam", metavar="lambda", help="target body spec JSON")
    pr.add_argument("--step", type=float, default=None)
    pr.add_argument("--max-steps", type=_int_from(0), default=2000)
    pr.add_argument("--tol-root", type=float, default=projection.TOL_ROOT)
    pr.add_argument("--seed-patch", nargs=3, type=float, default=None)
    pr.add_argument("--seed-patch-angle", type=float, default=None)
    pr.add_argument("--rng-seed", type=_int_from(0), default=0,
                    help="seed of the sampled directions; a quadric omega without --seed-patch samples none")
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
    dg.add_argument("--rng-seed", type=_int_from(0), default=0)
    dg.add_argument("--out", default=None)
    dg.set_defaults(func=cmd_diagnose)

    ce = sub.add_parser("counterexample", help="run a sharpness construction")
    ce.add_argument(
        "name", choices=["kiselman-identity", "cone-graph-failure", "cantor-contact"]
    )
    ce.add_argument("--q", type=int, default=3)
    ce.add_argument("--eps", type=float, default=1e-4)
    ce.add_argument("--depth", type=int, default=3)
    ce.add_argument("--u", nargs=3, type=float, default=(0.0, 1.0, 0.0))
    ce.add_argument("--rng-seed", type=_int_from(0), default=0)
    ce.add_argument("--out", default=None)
    ce.set_defaults(func=cmd_counterexample)

    return ap


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        label = "rank deficiency: " if isinstance(exc, RankDeficiencyError) else ""
        print(f"error: {label}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
