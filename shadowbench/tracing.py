"""Per-layer tracing from outside the program.

The tracer never edits umbra.  It swaps module attributes for timing and
counting wrappers (restored on exit) and wraps the callables of every
``ImplicitBody`` and ``ConcaveChart`` it sees through ``dataclasses.replace``.
Each wrapped call is a span; a span's self time is its duration minus the
spans nested in it, so chart fiber solves are charged apart from the oracle
calls they make.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("calls", "incl", "self")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span = spans[name]
                span.calls += 1
                span.incl += dt
                span.self += dt - child[0]
            if after is not None:
                result = after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- data-carrying wrappers ------------------------------------------------

    def body(self, body, *_):
        if hasattr(body.value, "__wrapped__"):  # instantiate builds through ellipsoid
            return body
        return dataclasses.replace(
            body,
            value=self.wrap("oracle.value", body.value),
            gradient=self.wrap("oracle.gradient", body.gradient),
            hessian=None if body.hessian is None else self.wrap("oracle.hessian", body.hessian),
        )

    def chart(self, chart, *_):
        return dataclasses.replace(
            chart,
            phi=self.wrap("chart.phi", chart.phi),
            grad_phi=self.wrap("chart.grad_phi", chart.grad_phi),
            hess_phi=None if chart.hess_phi is None else self.wrap("chart.hess_phi", chart.hess_phi),
        )

    def sweep(self, fn):
        """Counts slope and curvature evaluations made inside sweeps."""

        def counted(chart, u, grid, *args, **kwargs):
            g0, h0 = self.spans["chart.grad_phi"].calls, self.spans["chart.hess_phi"].calls
            try:
                curve = fn(chart, u, grid, *args, **kwargs)
            finally:
                self.counts["sweep.samples"] += np.asarray(grid).size
                self.counts["sweep.slope_evals"] += self.spans["chart.grad_phi"].calls - g0
                self.counts["sweep.curvature_evals"] += self.spans["chart.hess_phi"].calls - h0
            self.counts["sweep.kept"] += len(curve)
            return curve

        return self.wrap("illumination.shadow_boundary_sweep", counted)

    def _count(self, key, amount):
        def after(result, args, kwargs):
            self.counts[key] += amount(result, args, kwargs)
            return result

        return after

    # -- installation ------------------------------------------------------------

    def patches(self, um):
        """(module, attribute, replacement) for every layer entry point."""
        b, il, rg, pj, cli = um.bodies, um.illumination, um.regularity, um.projection, um.cli
        ellipsoid = self.wrap("bodies.ellipsoid", b.ellipsoid, self.body)
        instantiate = self.wrap("bodies.instantiate", b.instantiate, self.body)
        chart_at = self.wrap("bodies.chart_at", b.chart_at, self.chart)
        horizon = self.wrap("illumination.shadow_horizon_point", il.shadow_horizon_point)
        sweep = self.sweep(il.shadow_boundary_sweep)
        out = [
            (b, "ellipsoid", ellipsoid),
            (b, "instantiate", instantiate),
            (cli, "instantiate", instantiate),
            (b, "chart_at", chart_at),
            (cli, "chart_at", chart_at),
            (pj, "chart_at", chart_at),
            (il, "shadow_horizon_point", horizon),
            (cli, "shadow_horizon_point", horizon),
            (il, "shadow_boundary_sweep", sweep),
            (cli, "shadow_boundary_sweep", sweep),
            (cli, "main", self.wrap("cli.main", cli.main)),
        ]
        n_samples = lambda r, a, k: k.get("n_samples", a[1] if len(a) > 1 else 10_000)
        out.append((rg, "chart_constants", self.wrap(
            "regularity.chart_constants", rg.chart_constants, self._count("chart_constants.samples", n_samples))))

        def box_work(r, a, k):
            pts, scales = np.atleast_2d(a[0]), np.asarray(a[1])
            return pts.shape[0] * scales.size * k.get("n_offsets", 4)

        out.append((rg, "box_dimension", self.wrap(
            "regularity.box_dimension", rg.box_dimension, self._count("box_dimension.work", box_work))))
        for name in ("holder_fit", "cusp_check"):
            out.append((rg, name, self.wrap(f"regularity.{name}", getattr(rg, name))))

        out.append((pj, "solve_boundary_point", self.wrap(
            "projection.solve_boundary_point", pj.solve_boundary_point,
            self._count("projection.solve_iterations", lambda r, a, k: r.iterations))))
        out.append((pj, "trace_boundary", self.wrap(
            "projection.trace_boundary", pj.trace_boundary,
            self._count("projection.trace_points", lambda r, a, k: len(r)))))
        for name in ("assert_disjoint", "closest_pair", "seed_boundary", "first_hitting_time",
                     "in_projection_shadow", "boundary_jacobian", "project_point"):
            out.append((pj, name, self.wrap(f"projection.{name}", getattr(pj, name))))
        return out

    @contextmanager
    def installed(self, um):
        """Installs every wrapper; restores the originals on exit, even on error."""
        patches = self.patches(um)
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
        for mod, attr, fn in saved:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"wrapper for {mod.__name__}.{attr} was not restored")

    # -- per-layer metrics ---------------------------------------------------------

    def metrics(self, n_jobs: int) -> dict:
        s, c = self.spans, self.counts

        def per(total, base):
            return float(total) / float(base) if base else 0.0

        chart_calls = sum(s[k].calls for k in ("chart.phi", "chart.grad_phi", "chart.hess_phi"))
        chart_self = sum(s[k].self for k in ("chart.phi", "chart.grad_phi", "chart.hess_phi"))
        oracle_s = sum(s[k].incl for k in ("oracle.value", "oracle.gradient", "oracle.hessian"))
        samples = c["sweep.samples"]
        trace_points = c["projection.trace_points"]
        fht = s["projection.first_hitting_time"]
        return {
            "bodies.value_calls": (per(s["oracle.value"].calls, n_jobs), "count"),
            "bodies.gradient_calls": (per(s["oracle.gradient"].calls, n_jobs), "count"),
            "bodies.hessian_calls": (per(s["oracle.hessian"].calls, n_jobs), "count"),
            "bodies.oracle_s": (per(oracle_s, n_jobs), "s"),
            "bodies.fiber_solves": (per(chart_calls, n_jobs), "count"),
            "bodies.fiber_self_us": (1e6 * per(chart_self, chart_calls), "us"),
            "bodies.chart_at_s": (per(s["bodies.chart_at"].incl, n_jobs), "s"),
            "illumination.horizon_s": (per(s["illumination.shadow_horizon_point"].incl, n_jobs), "s"),
            "illumination.sweep_us_per_sample": (1e6 * per(s["illumination.shadow_boundary_sweep"].incl, samples), "us"),
            "illumination.slope_evals_per_sample": (per(c["sweep.slope_evals"], samples), "count"),
            "illumination.curvature_evals_per_sample": (per(c["sweep.curvature_evals"], samples), "count"),
            "illumination.kept_frac": (per(c["sweep.kept"], samples), "frac"),
            "regularity.chart_constants_us_per_sample": (
                1e6 * per(s["regularity.chart_constants"].incl, c["chart_constants.samples"]), "us"),
            "regularity.box_dimension_s": (per(s["regularity.box_dimension"].incl, n_jobs), "s"),
            "regularity.box_dimension_ns_per_point": (
                1e9 * per(s["regularity.box_dimension"].incl, c["box_dimension.work"]), "ns"),
            "regularity.holder_fit_s": (per(s["regularity.holder_fit"].incl, n_jobs), "s"),
            "regularity.cusp_check_s": (per(s["regularity.cusp_check"].incl, n_jobs), "s"),
            "projection.assert_disjoint_s": (per(s["projection.assert_disjoint"].incl, n_jobs), "s"),
            "projection.closest_pair_calls": (per(s["projection.closest_pair"].calls, n_jobs), "count"),
            "projection.seed_boundary_s": (per(s["projection.seed_boundary"].incl, n_jobs), "s"),
            "projection.first_hitting_time_calls": (per(fht.calls, n_jobs), "count"),
            "projection.first_hitting_time_us": (1e6 * per(fht.incl, fht.calls), "us"),
            "projection.solve_iterations": (per(c["projection.solve_iterations"], n_jobs), "count"),
            "projection.trace_points": (per(trace_points, n_jobs), "count"),
            "projection.trace_us_per_point": (1e6 * per(s["projection.trace_boundary"].incl, trace_points), "us"),
            "projection.jacobians_per_point": (per(s["projection.boundary_jacobian"].calls, trace_points), "count"),
            "projection.project_point_calls": (per(s["projection.project_point"].calls, n_jobs), "count"),
            "cli.overhead_s": (per(s["cli.main"].self, n_jobs), "s"),
        }
