"""Checked, drift-compensated benchmark of umbra's shadow-boundary workloads.

Usage, from the root of a checkout:

    python3 shadowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each job starts when the previous one
ends.  ``--trace 0`` measures end-to-end metrics for ``--seconds`` seconds
with no wrappers installed.  ``--trace 1`` runs a fixed set of jobs twice,
plain and then under per-layer tracing, requires bit-identical outputs from
both passes, and reports per-layer metrics.  Every job's output is checked,
outside the timed region, against the closed forms in ``reference.py``.

Between jobs a reference kernel that uses no umbra code is timed; each job's
wall time divided by the mean of the kernel timings just before and after it
gives the ``*_ref`` metrics, which cancel most of the host's speed drift.

The last line of standard output is the result object; the line before it
records the environment, the failure list and the tail percentile.  Exits 2
without a result when umbra cannot be imported from this checkout's src/.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing
import workloads

SETUP_REPEATS = 5
KERNEL_REPEATS = 3
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# environment


def import_umbra():
    """Fresh import of umbra, required to come from this checkout's src/."""
    for name in [m for m in sys.modules if m == "umbra" or m.startswith("umbra.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    um = importlib.import_module("umbra")
    importlib.import_module("umbra.cli")
    origin = Path(um.__file__).resolve().parent
    if origin != SRC / "umbra":
        raise ImportError(f"umbra imported from {origin}, not from {SRC / 'umbra'}")
    return um


def environment(um) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "umbra": str(Path(um.__file__).resolve().parent.relative_to(ROOT)),
        "umbra_version": um.__version__,
    }


# ---------------------------------------------------------------------------
# reference kernel


class Kernel:
    """Fixed work that uses no umbra code: scalar Newton steps on 3-vectors
    (the interpreter-bound shape of the chart, sweep and projection jobs), a
    small SVD, and a sort of integer rows (the memory-bound shape of
    ``box_dimension``).  Each workload sets the mix that tracks its own jobs."""

    def __init__(self, newton_steps: int, sort_rows: int):
        rng = np.random.default_rng(20131122)
        B = rng.normal(size=(3, 3))
        self.A = B @ B.T + 3.0 * np.eye(3)
        self.x0 = rng.normal(size=3) * 2.0
        self.M = rng.normal(size=(6, 7))
        self.keys = rng.integers(0, 40, size=(sort_rows, 3))
        self.steps = newton_steps

    def once(self) -> float:
        x = self.x0.copy()
        acc = 0.0
        for _ in range(self.steps):
            Ax = self.A @ x
            val = float(x @ Ax) - 1.0
            g = 2.0 * Ax
            x = x - (0.5 * val / float(g @ g)) * g
            acc += math.sqrt(abs(val) + 1.0)
        acc += float(np.linalg.svd(self.M, compute_uv=False)[0])
        acc += float(len(np.unique(self.keys, axis=0)))
        return acc

    def sample(self) -> float:
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


# ---------------------------------------------------------------------------
# jobs


def digest(obj, h=None):
    """Bit-exact fingerprint of a job's outputs."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(k.encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            digest(item, h)
    elif isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float) or isinstance(obj, np.floating):
        h.update(struct.pack("<d", float(obj)))
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


class JobResult:
    __slots__ = ("seconds", "ok", "err_ratio", "failures", "digest")


def run_job(wl, um, inp) -> JobResult:
    res = JobResult()
    t0 = time.perf_counter()
    try:
        out = wl.run(um, inp)
    except Exception:  # a raising job is a failed job; the loop goes on
        res.seconds = time.perf_counter() - t0
        res.ok, res.err_ratio, res.digest = False, 0.0, None
        res.failures = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        return res
    res.seconds = time.perf_counter() - t0
    try:
        out = wl.collect(inp, out)
        verdict = wl.check(inp, out)
        res.ok, res.err_ratio, res.failures = verdict.ok, verdict.worst, verdict.failures
    except Exception:  # an unreadable output fails its check
        res.ok, res.err_ratio = False, 0.0
        res.failures = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    res.digest = digest(out)
    return res


def setup(wl, seed):
    """Imports umbra and generates the input pool several times; median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        um = import_umbra()
        pool = wl.make_inputs(seed)
        times.append(time.perf_counter() - t0)
    return um, pool, statistics.median(times)


def tail(values):
    """Value with TAIL_BEYOND jobs above it, and its percentile."""
    s = sorted(values)
    n = len(s)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return s[idx], 100.0 * (idx + 1) / n


def run_untraced(wl, um, pool, seconds):
    kernel = Kernel(*wl.kernel)
    run_job(wl, um, pool[-1])  # warm-up: lazy imports and first-call set-up
    kernel.sample()
    results, job_ref = [], []
    k_before = kernel.sample()
    kernel_s = [k_before]
    t_end = time.perf_counter() + seconds
    i = 0
    while not results or time.perf_counter() < t_end:
        res = run_job(wl, um, pool[i % len(pool)])
        k_after = kernel.sample()
        kernel_s.append(k_after)
        results.append(res)
        job_ref.append(res.seconds / (0.5 * (k_before + k_after)))
        k_before = k_after
        i += 1
    secs = [r.seconds for r in results]
    tail_s, pct = tail(secs)
    tail_ref, _ = tail(job_ref)
    metrics = {
        "job_p50_ref": (statistics.median(job_ref), "kernel"),
        "job_tail_ref": (tail_ref, "kernel"),
        "ref_err_ratio": (max(r.err_ratio for r in results), "ratio"),
    }
    # raw wall times drift with the host's speed; they are reported here
    # beside the kernel-relative metrics and are not gated
    detail = {
        "jobs": len(secs),
        "job_tail_percentile": pct,
        "raw": {
            "throughput_jobs_per_s": {"value": len(secs) / sum(secs), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(secs), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "kernel_p50_s": {"value": statistics.median(kernel_s), "unit": "s"},
        },
    }
    return results, metrics, detail


def run_traced(wl, um, pool):
    jobs = pool[: wl.trace_jobs]
    run_job(wl, um, pool[-1])  # warm-up, as in the untraced run
    tracer = tracing.Tracer()
    plain, traced = [], []
    for inp in jobs:  # plain and traced runs of a job back to back, so drift cancels
        plain.append(run_job(wl, um, inp))
        with tracer.installed(um):
            traced.append(run_job(wl, um, inp))
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.digest is None or a.digest != b.digest:
            b.ok = False
            b.failures = b.failures + [f"traced job {i} output differs from the plain run"]
    metrics = tracer.metrics(len(jobs))
    t_plain, t_traced = sum(r.seconds for r in plain), sum(r.seconds for r in traced)
    metrics["tracing.overhead_frac"] = (t_traced / t_plain - 1.0, "frac")
    detail = {"jobs": len(jobs), "plain_s": t_plain, "traced_s": t_traced}
    return plain + traced, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = HERE / "_work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        try:
            um, pool, setup_s = setup(wl, args.seed)
        except ImportError as exc:
            print(f"error: cannot import umbra from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            results, metrics, detail = run_traced(wl, um, pool)
        else:
            results, metrics, detail = run_untraced(wl, um, pool, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "fail_frac": {"value": failed / len(results), "unit": "frac"},
        "failures": [f for r in results for f in r.failures][:10],
        "env": environment(um),
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
