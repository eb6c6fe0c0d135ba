"""Tests of the benchmark itself.

    python3 shadowbench/selftest.py

* Per-layer counts of a traced run repeat exactly for a fixed seed, and the
  traced outputs match the plain ones bit for bit.
* Every workload's reference check accepts real outputs and rejects
  deliberately perturbed ones.

Prints one line per expectation and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import run  # pins the thread pools before numpy's first use
import tracing
import workloads

SEED = 7
FAILED = []


def expect(what: str, ok: bool):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILED.append(what)


def traced_counts(wl, n_jobs=2):
    um, pool, _ = run.setup(wl, SEED)
    plain = [run.run_job(wl, um, inp) for inp in pool[:n_jobs]]
    tracer = tracing.Tracer()
    with tracer.installed(um):
        traced = [run.run_job(wl, um, inp) for inp in pool[:n_jobs]]
    counts = {k: v for k, (v, unit) in tracer.metrics(n_jobs).items() if unit in ("count", "frac")}
    same = all(a.digest == b.digest and a.ok and b.ok for a, b in zip(plain, traced))
    return counts, same


def first_output(wl):
    um, pool, _ = run.setup(wl, SEED)
    inp = pool[0]
    return inp, wl.collect(inp, wl.run(um, inp))


def edit_csv(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_csv_row(text: str, row: int) -> str:
    lines = text.splitlines()
    del lines[row]
    return "\n".join(lines) + "\n"


def perturbations(name, out):
    """(description, perturbed output) pairs the check must reject."""
    p = []
    if name == "silhouette_ellipsoid":
        o = copy.deepcopy(out)
        o["cusp_sweep"]["gamma"][100] += 1e-6
        p.append(("silhouette gamma moved by 1e-6", o))
        o = copy.deepcopy(out)
        sw = o["cusp_sweep"]
        for key in ("ypp", "gamma", "residual", "height"):
            sw[key] = np.delete(sw[key], 128, axis=0)
        p.append(("in-disc fiber dropped", o))
        o = copy.deepcopy(out)
        o["cusp_violations"] += 1
        p.append(("cusp violation count off by one", o))
    elif name == "silhouette_kiselman":
        o = dict(out, uniform_csv=edit_csv(out["uniform_csv"], 50, 1, 1e-7))
        p.append(("Kiselman gamma moved by 1e-7", o))
        o = dict(out, dyadic_csv=drop_csv_row(out["dyadic_csv"], 3))
        p.append(("in-disc dyadic fiber dropped", o))
        fit = json.loads(out["holder_json"])
        fit["slope_raw"] += 0.01
        fit["alpha_hat"] = min(fit["slope_raw"], 1.5)
        p.append(("Hoelder exponent off by 0.01", dict(out, holder_json=json.dumps(fit))))
    elif name == "projection_trace":
        o = dict(out, trace_csv=edit_csv(out["trace_csv"], 40, 4, 1e-6))
        p.append(("traced y moved by 1e-6", o))
        o = dict(out, member=[not out["member"][0]] + out["member"][1:])
        p.append(("one membership flipped", o))
        hit = next(i for i, t in enumerate(out["fht"]) if t is not None)
        fht = list(out["fht"])
        fht[hit] += 1e-6
        p.append(("first hitting time moved by 1e-6", dict(out, fht=fht)))
    elif name == "diagnose_cloud":
        p.append(("sphere patch dimension off by 0.2", dict(out, sphere_patch_d_hat=out["sphere_patch_d_hat"] - 0.2)))
        p.append(("graph exponent off by 1e-6", dict(out, holder_slope_raw=out["holder_slope_raw"] + 1e-6)))
        p.append(("cusp violation count off by one", dict(out, cusp_violations=out["cusp_violations"] + 1)))
    return p


def main() -> int:
    workdir = run.HERE / "_work_selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workdir)
            first, same1 = traced_counts(wl)
            second, same2 = traced_counts(wl)
            expect(f"{name}: traced outputs bit-identical to plain ones", same1 and same2)
            expect(f"{name}: per-layer counts repeat exactly for seed {SEED}", first == second)
            inp, out = first_output(wl)
            verdict = wl.check(inp, out)
            expect(f"{name}: reference accepts the real output ({verdict.failures[:1]})", verdict.ok)
            for what, bad in perturbations(name, out):
                try:
                    rejected = not wl.check(inp, bad).ok
                except (ValueError, KeyError):
                    rejected = True  # a malformed output cannot pass either
                expect(f"{name}: reference rejects {what}", rejected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
