import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import bodies, cli, errors, projection
from umbra.cli import main
from umbra.illumination import Direction, ShadowCurve, shadow_boundary_sweep, shadow_horizon_point

import oracles


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ell_spec(tmp_path):
    return write_spec(
        tmp_path, "ell.json", {"family": "ellipsoid", "params": {"semiaxes": [2.0, 1.0, 1.0]}}
    )


@pytest.fixture
def coaxial_specs(tmp_path):
    om = write_spec(
        tmp_path,
        "om.json",
        {"family": "translated_ball", "params": {"center": [0, 0, 3.0], "radius": 1.0}},
    )
    lam = write_spec(
        tmp_path,
        "lam.json",
        {"family": "translated_ball", "params": {"center": [0, 0, 0], "radius": 1.0}},
    )
    return om, lam


# ---------------------------------------------------------------------------
# shadow


def test_shadow_writes_grid_csv(ell_spec, tmp_path):
    out = str(tmp_path / "curve.csv")
    assert main(["shadow", ell_spec, "--u", "1", "0", "0", "--grid", "64", "--out", out]) == 0
    curve = ShadowCurve.from_csv(out)
    assert len(curve) == 64
    assert np.abs(curve.residual).max() <= curve.tol_root


def test_default_shadow_then_holder_pipeline(tmp_path):
    # the default grid samples y'' = 0, the default center of diagnose
    spec = write_spec(tmp_path, "ell.json", {"family": "ellipsoid", "params": {"semiaxes": [1.5, 1.0, 0.8]}})
    out = str(tmp_path / "c.csv")
    assert main(["shadow", spec, "--u", "1", "0.3", "0.2", "--out", out]) == 0
    assert len(ShadowCurve.from_csv(out)) == 65
    assert main(["diagnose", out, "holder"]) == 0


def test_default_shadow_on_a_very_thin_ellipsoid_matches_the_closed_form(tmp_path):
    # a posed ellipsoid with axes 1 : 0.1 : 0.003: its horizon chart needs a
    # domain radius near 1.2e-4 of the bounding radius, below the 0.0039 of
    # a probe that stopped after 8 halvings.  The default pipeline exits 0
    # with every sample, each gamma on the plane-line-quadric closed form
    axes, rot, center = [1.0, 0.1, 0.003], [[1, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6]], [0.5, 0.3, 3.6]
    spec = write_spec(tmp_path, "pecc.json", {"family": "ellipsoid", "params": {"semiaxes": axes},
                                              "pose": {"rotation": rot, "translation": center}})
    out = str(tmp_path / "pecc.csv")
    assert main(["shadow", spec, "--u", "0.2", "-0.5", "0.9", "--out", out]) == 0
    got = ShadowCurve.from_csv(out)
    # the same pipeline through the library, for the chart frame the CSV does not hold
    body = bodies.ellipsoid(axes, bodies.Pose(np.array(rot, float), center))
    u = Direction.normalized([0.2, -0.5, 0.9])
    chart = bodies.chart_at(body, shadow_horizon_point(body, u, np.random.default_rng(0)))
    assert 1e-4 < chart.domain_radius < 0.0039
    curve = shadow_boundary_sweep(chart, u, np.linspace(-0.5, 0.5, 65) * chart.domain_radius)
    assert len(got) == len(curve) == 65 and np.array_equal(got.gamma, curve.gamma)
    A, c = oracles.quadric_of_ellipsoid(np.array(axes), np.array(rot, float), np.array(center))
    frame = curve.chart_frame
    for ypp, g in zip(curve.ypp, curve.gamma):
        want = oracles.quadric_shadow_gamma(A, c, 1.0, u.u, frame.rotation, frame.translation, ypp)
        assert abs(g - want) <= 1e-8 * chart.domain_radius


def test_shadow_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["shadow", str(bad), "--u", "1", "0", "0"]) == 1


def test_shadow_zero_direction(ell_spec):
    assert main(["shadow", ell_spec, "--u", "0", "0", "0"]) == 1


def test_shadow_direction_dimension_mismatch(tmp_path, capsys):
    spec = write_spec(tmp_path, "ell2.json", {"family": "ellipsoid", "params": {"semiaxes": [2.0, 1.0]}})
    assert main(["shadow", spec, "--u", "1", "0", "0", "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_shadow_unknown_spec_fields(tmp_path):
    bad = write_spec(
        tmp_path, "bad.json", {"family": "ellipsoid", "params": {"semiaxes": [1, 1, 1]}, "x": 5}
    )
    assert main(["shadow", bad, "--u", "1", "0", "0"]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "ellipsoid", "params": {"semiaxes": "abc"}},
        {"family": "translated_ball", "params": {"center": [0, 0, 0], "radius": "x"}},
        {"family": "translated_ball", "params": {"center": [0, 0, 0], "radius": None}},
    ],
)
def test_shadow_wrongly_typed_params(tmp_path, capsys, doc):
    spec = write_spec(tmp_path, "bad.json", doc)
    assert main(["shadow", spec, "--u", "1", "0", "0", "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


_SHADOW = ["shadow", "{spec}", "--u", "1", "0", "0"]
_ELLIPSOID = {"family": "ellipsoid", "params": {"semiaxes": [1.0, 1.0, 1.0]}}


@pytest.mark.parametrize(
    "doc, argv, names",
    [
        pytest.param(
            {**_ELLIPSOID, "pose": {"rotation": np.eye(3).tolist(), "translation": {"x": 1.0}}},
            _SHADOW, "pose", id="pose-translation-object",
        ),
        pytest.param(
            {"family": "translated_ball", "params": {"center": 1.0, "radius": 1.0}},
            _SHADOW, "center", id="ball-center-scalar",
        ),
        pytest.param({**_ELLIPSOID, "family": ["ellipsoid"]}, _SHADOW, "family", id="family-list"),
        pytest.param(
            {"family": "ellipsoid", "params": {"semiaxes": [float("nan"), 1.0, 1.0]}},
            _SHADOW, "semiaxes", id="semiaxes-nan",
        ),
        pytest.param(
            {"family": "paraboloid_cap", "params": {"curvature": float("nan"), "height": 0.5}},
            _SHADOW, "curvature", id="cap-curvature-nan",
        ),
        pytest.param(
            {"family": "paraboloid_cap", "params": {"curvature": 1.0, "height": float("inf")}},
            _SHADOW, "height", id="cap-height-inf",
        ),
        pytest.param(None, ["counterexample", "cantor-contact", "--eps", "nan"], "eps", id="cantor-eps-nan"),
        pytest.param(
            None, ["counterexample", "cone-graph-failure", "--u", "0", "0", "0"], "vector", id="cone-u-zero"
        ),
        pytest.param(
            None, ["counterexample", "cone-graph-failure", "--u", "nan", "1", "0"], "vector", id="cone-u-nan"
        ),
        pytest.param(
            _ELLIPSOID, [*_SHADOW, "--grid", "8", "--tol-root", "nan"], "tol_root", id="shadow-tol-root-nan"
        ),
        pytest.param(
            _ELLIPSOID, [*_SHADOW, "--grid", "8", "--chart-point", "nan", "0", "0"], "chart base point",
            id="shadow-chart-point-nan",
        ),
        pytest.param(
            _ELLIPSOID, [*_SHADOW, "--grid", "8", "--chart-radius", "inf"], "domain_radius",
            id="shadow-chart-radius-inf",
        ),
        *(
            pytest.param(_ELLIPSOID, [*_SHADOW, "--grid", "8", "--chart-radius", r], "domain_radius",
                         id=f"shadow-chart-radius-{r}")
            for r in ("1e300", "1e200")
        ),
        *(
            pytest.param(_ELLIPSOID, [*_SHADOW, "--grid", "8", "--tol-root", tol], "tol_root",
                         id=f"shadow-tol-root-{tol}")
            for tol in ("1e300", "0.5")
        ),
    ],
)
def test_malformed_numeric_input_exits_1(tmp_path, capsys, doc, argv, names):
    # the error names the bad input, instead of a traceback, a misleading
    # later failure or a wrong answer with exit 0
    spec = write_spec(tmp_path, "bad.json", doc) if doc is not None else None
    argv = [spec if a == "{spec}" else a for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert "Traceback" not in err


def _write_input_files(tmp_path):
    """Paths for the placeholders of the flag tests: two disjoint balls on
    a common axis, the flat-contact pair (clamped Kiselman patch and a
    ball), an ellipsoid, a shadow-curve CSV of the cusp |y|^(2/3), CSVs
    that are empty, hold a non-numeric cell or a short row, and a file that
    is not UTF-8 text."""
    ball = lambda c: {"family": "translated_ball", "params": {"center": c, "radius": 1.0}}
    files = {
        "{om}": write_spec(tmp_path, "om.json", ball([0, 0, 3.0])),
        "{lam}": write_spec(tmp_path, "lam.json", ball([0, 0, 0])),
        "{kis}": write_spec(
            tmp_path, "kis.json", {"family": "kiselman", "params": {"q": 3, "clamp_radius": 0.45}}
        ),
        "{ball}": write_spec(tmp_path, "ball.json", ball([0, -3.0, 0])),
        "{ell}": write_spec(tmp_path, "ell.json", _ELLIPSOID),
    }
    ypp = np.linspace(-0.5, 0.5, 129)
    cusp = "".join(f"{y:.17g},{abs(y) ** (2 / 3):.17g},0\n" for y in ypp)
    for key, text in (
        ("{curve}", "ypp_1,gamma,residual\n" + cusp),
        ("{empty}", ""),
        ("{text}", "ypp_1,gamma,residual\n0.1,x,0\n"),
        ("{short}", "x_1,x_2,x_3,y_1,y_2,y_3,t,residual,sigma_min\n1,2,3,4,5,6,7,8\n"),
    ):
        path = tmp_path / (key.strip("{}") + ".csv")
        path.write_text(text)
        files[key] = str(path)
    files["{binary}"] = str(tmp_path / "binary.dat")
    (tmp_path / "binary.dat").write_bytes(b"x_1,\xd0\x00\xff\n")
    files["{out}"] = str(tmp_path / "out.csv")
    return files


@pytest.fixture
def input_files(tmp_path):
    return _write_input_files(tmp_path)


_FLAT = ["project", "{kis}", "{ball}", "--seed-patch", "0", "1", "0", "--seed-patch-angle", "0.2"]


@pytest.mark.parametrize(
    "argv, names",
    [
        pytest.param(["project", "{om}", "{lam}", "--tol-root", "nan"], "tol", id="project-tol-root-nan"),
        pytest.param(["project", "{om}", "{lam}", "--tol-root", "1e300"], "tol", id="project-tol-root-1e300"),
        pytest.param(["project", "{om}", "{lam}", "--tol-root", "0.5"], "tol", id="project-tol-root-0.5"),
        pytest.param(["project", "{om}", "{lam}", "--step", "nan"], "step", id="project-step-nan"),
        pytest.param(["project", "{om}", "{lam}", "--step", "0"], "step", id="project-step-0"),
        pytest.param(["project", "{om}", "{lam}", "--step", "1e3"], "step", id="project-step-1e3"),
        pytest.param(["project", "{om}", "{lam}", "--step", "1e300"], "step", id="project-step-1e300"),
        pytest.param(
            ["project", "{om}", "{lam}", "--seed-patch", "0", "0", "0"], "patch_center", id="seed-patch-zero"
        ),
        pytest.param(
            ["project", "{om}", "{lam}", "--seed-patch", "nan", "0", "1"], "patch_center", id="seed-patch-nan"
        ),
        pytest.param(
            ["project", "{om}", "{lam}", "--seed-patch", "0", "0", "-1", "--seed-patch-angle", "nan"],
            "patch_angle", id="seed-patch-angle-nan",
        ),
        pytest.param(["shadow", "{ell}", "--u", "1", "0", "0", "--rng-seed", "-1"], "--rng-seed", id="shadow-rng"),
        pytest.param(["project", "{om}", "{lam}", "--rng-seed", "-1"], "--rng-seed", id="project-rng"),
        pytest.param(["counterexample", "cone-graph-failure", "--rng-seed", "-1"], "--rng-seed", id="cone-rng"),
        pytest.param(["shadow", "{ell}", "--u", "1", "0", "0", "--grid", "-5"], "--grid", id="grid-negative"),
        pytest.param(["shadow", "{ell}", "--u", "1", "0", "0", "--span", "nan"], "--span", id="span-nan"),
        pytest.param(["shadow", "{ell}", "--u", "1", "0", "0", "--dyadic", "5", "3"], "KMAX", id="dyadic-reversed"),
        pytest.param(["project", "{om}", "{lam}", "--max-steps", "-1"], "--max-steps", id="max-steps"),
        pytest.param(
            ["diagnose", "{curve}", "cusp", "--L", "inf", "--theta", "1", "--alpha", "1"], "L", id="cusp-L-inf"
        ),
        pytest.param(  # finite flags whose ratio overflows: an infinite cone would pass on NaN
            ["diagnose", "{curve}", "cusp", "--L", "1e308", "--theta", "1e-308", "--alpha", "1"], "L / theta",
            id="cusp-slope-overflows",
        ),
        pytest.param(
            ["diagnose", "{curve}", "cusp", "--L", "1", "--theta", "1", "--alpha", "1", "--cusp-tol", "nan"],
            "tol", id="cusp-tol-nan",
        ),
        pytest.param(
            ["diagnose", "{curve}", "boxdim", "--scales", "nan", "0.01", "0.05", "0.1"], "scales",
            id="boxdim-scale-nan",
        ),
        pytest.param(  # extent / 5e-324 would overflow before the scale is refused
            ["diagnose", "{curve}", "boxdim", "--scales", "5e-324", "1e-320", "1e-310", "1e-300"], "scales",
            id="boxdim-scale-subnormal",
        ),
        pytest.param(  # a 2-vector center on a curve over a line broadcast into a 5-entry apex
            ["diagnose", "{curve}", "cusp", "--center", "0", "0", "--L", "1", "--theta", "1", "--alpha", "1"],
            "center has shape", id="cusp-center-0-0",
        ),
        pytest.param(["diagnose", "{curve}", "holder", "--center"], "center has shape", id="holder-center-bare"),
        pytest.param(["diagnose", "{empty}", "boxdim"], "empty", id="diagnose-empty"),
        pytest.param(["diagnose", "{text}", "holder"], "non-numeric", id="diagnose-non-numeric"),
        pytest.param(["diagnose", "{short}", "boxdim"], "cells", id="diagnose-short-row"),
        pytest.param(["diagnose", "{binary}", "boxdim"], "decode", id="diagnose-binary"),
        pytest.param(["shadow", "{binary}", "--u", "1", "0", "0"], "decode", id="shadow-binary-spec"),
    ],
)
def test_malformed_flags_exit_1(input_files, tmp_path, capsys, argv, names):
    # a bad flag value ends in an error line naming it, never a traceback,
    # a misleading later failure or an answer with a check switched off
    argv = [input_files.get(a, a) for a in argv] + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    (line,) = [l for l in err.splitlines() if l.startswith("error:")]
    assert names in line
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "huge, unit",
    [
        pytest.param(["counterexample", "cone-graph-failure", "--u", "0", "1e300", "0"],
                     ["counterexample", "cone-graph-failure", "--u", "0", "1", "0"], id="cone-u"),
        pytest.param(["project", "{om}", "{lam}", "--seed-patch", "0", "0", "1e300"],
                     ["project", "{om}", "{lam}", "--seed-patch", "0", "0", "1"], id="seed-patch"),
    ],
)
def test_huge_vectors_normalise_like_unit_ones(input_files, tmp_path, capsys, huge, unit):
    # vectors are scaled by max|v| before their norm, which would overflow
    results = []
    for argv in (huge, unit):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([input_files.get(a, a) for a in argv] + ["--out", str(out)]) == 0
        results.append((capsys.readouterr().out, out.read_text()))
    assert results[0] == results[1]


def test_huge_center_fails_without_overflow_warning(input_files, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", input_files["{curve}"], "holder", "--center", "1e300"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "center" in line


def _one_bad_cell(path, header, rows, column, cell):
    """Write a CSV of the rows with ``cell`` in row 5 of ``column``."""
    rows = [list(map(str, row)) for row in rows]
    rows[5][header.index(column)] = cell
    path.write_text(",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("column", ["ypp_1", "gamma", "residual"])
@pytest.mark.parametrize("mode", ["holder", "cusp", "boxdim"])
def test_non_finite_curve_cell_exits_1(tmp_path, capsys, mode, column, cell):
    # a NaN gamma was fitted around in silence, and an inf one warned first
    y = np.linspace(-0.5, 0.5, 23)
    rows = np.column_stack([y, np.sqrt(np.abs(y)), np.zeros_like(y)]).tolist()
    curve = _one_bad_cell(tmp_path / "curve.csv", ["ypp_1", "gamma", "residual"], rows, column, cell)
    flags = ["--L", "1", "--theta", "1", "--alpha", "1"] if mode == "cusp" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", curve, mode, *flags]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "non-finite cell" in line and column in line


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("column", ["y_2", "sigma_min"])
def test_non_finite_trace_cell_exits_1(tmp_path, capsys, column, cell):
    header = ["x_1", "x_2", "x_3", "y_1", "y_2", "y_3", "t", "residual", "sigma_min"]
    s = np.linspace(0.0, 2.0 * np.pi, 120)
    rows = [[0.0, 0.0, 3.0, np.cos(a), np.sin(a), 0.0, 2.0, 0.0, 0.5] for a in s]
    trace = _one_bad_cell(tmp_path / "trace.csv", header, rows, column, cell)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", trace, "boxdim"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "non-finite cell" in line and column in line


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--chart-point", "1e300", "0", "0"], "not on the boundary"),
        (["--chart-radius", "1e300"], "domain_radius"),
        (["--tol-root", "1e300"], "tol_root"),
        (["--span", "inf"], "--span"),
        (["--span", "1e308"], "--span"),  # linspace's width 2e308 overflows
        (["--dyadic", "-1100", "0"], "KMIN"),  # 2.0**1100 overflows
        (["--dyadic", "1076", "1080"], "KMAX"),  # 2.0**-1076 underflows to 0
    ],
)
def test_huge_shadow_flags_fail_without_overflow_warning(input_files, tmp_path, capsys, flags, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["shadow", input_files["{ell}"], "--u", "1", "0", "0", "--grid", "8", *flags]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and names in line


def test_tiny_boxdim_scales_fail_without_cast_warning(input_files, capsys):
    # box indices of the unit-size cusp at 1e-19 would pass 2**62
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["diagnose", input_files["{curve}"], "boxdim", "--scales", "1e-19", "1e-18", "1e-17", "1e-16"]
        assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "scales" in line


def test_parser_is_built_once(input_files, capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):  # the cached parser still reports usage errors the same way
        assert main(["shadow", input_files["{ell}"]]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: umbra") and err[-1].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["shadow", "{ell}", "--u", "1", "0", "0", "--grid", "8"], id="shadow"),
        pytest.param(["project", "{om}", "{lam}"], id="project"),
        pytest.param(["diagnose", "{curve}", "boxdim", "--scales", "0.01", "0.02", "0.05", "0.1"], id="diagnose"),
        pytest.param(["counterexample", "kiselman-identity"], id="counterexample"),
    ],
)
def test_output_into_a_missing_directory_exits_1(input_files, tmp_path, capsys, argv):
    argv = [input_files.get(a, a) for a in argv] + ["--out", str(tmp_path / "missing" / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["shadow", "{ell}"], id="shadow-without-u"),
        pytest.param(["shadow", "{ell}", "--u", "1", "0"], id="shadow-short-u"),
        pytest.param(["counterexample", "no-such-construction"], id="unknown-choice"),
        pytest.param([], id="no-subcommand"),
    ],
)
def test_usage_errors_exit_1(input_files, capsys, argv):
    # argparse's own exit code 2 would read as "empty curve or seed failure"
    assert main([input_files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: umbra")
    assert err[-1].startswith("error:")


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (errors.OverlapError("x"), 3, "error: x"),
        (errors.RankDeficiencyError("x"), 4, "error: rank deficiency: x"),
        (errors.EmptyCurveError("x"), 2, "error: x"),
        (errors.SeedError("x"), 2, "error: x"),
        (errors.NoConvergenceError("x"), 2, "error: x"),
        (errors.ParameterError("x"), 1, "error: x"),
        (errors.ChartError("x"), 1, "error: x"),
        (errors.DegeneratePointError("x"), 1, "error: x"),
        (errors.FlatCurveError("x"), 1, "error: x"),
        (FileNotFoundError("x"), 1, "error: x"),
    ],
)
def test_exit_code_table(monkeypatch, capsys, exc, code, prefix):
    def fail(q):
        raise exc

    monkeypatch.setattr(cli.counterexamples, "kiselman_identity_check", fail)
    assert main(["counterexample", "kiselman-identity"]) == code
    assert capsys.readouterr().err == prefix + "\n"


# ---------------------------------------------------------------------------
# project


def test_project_coaxial_closed_trace(coaxial_specs, tmp_path):
    om, lam = coaxial_specs
    out = str(tmp_path / "trace.csv")
    assert main(["project", om, lam, "--out", out]) == 0
    sidecar = json.loads((tmp_path / "trace.json").read_text())
    assert sidecar["closed"] is True
    assert sidecar["max_residual"] <= 1e-10
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "x_1,x_2,x_3,y_1,y_2,y_3,t,residual,sigma_min"
    assert len(rows) == sidecar["n_points"] + 1


def test_shadow_chart_point_of_another_dimension_exits_1(tmp_path, capsys):
    ell4 = write_spec(tmp_path, "e4.json", {"family": "ellipsoid", "params": {"semiaxes": [1.0, 1.0, 1.0, 1.0]}})
    argv = ["shadow", ell4, "--u", "0", "1", "0", "--chart-point", "0", "0", "0.9", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "chart base point has shape" in line


@pytest.mark.parametrize("category, silenced", [(RuntimeWarning, False), (errors.RankDeficiencyWarning, True)])
def test_project_silences_only_rank_warnings(coaxial_specs, tmp_path, monkeypatch, category, silenced):
    # a numpy warning inside the trace reaches a caller that runs with it as an error
    real = projection.trace_boundary

    def warning_trace(*args, **kwargs):
        warnings.warn("a warning inside the trace", category)
        return real(*args, **kwargs)

    monkeypatch.setattr(projection, "trace_boundary", warning_trace)
    argv = ["project", *coaxial_specs, "--out", str(tmp_path / "trace.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", category)
        if silenced:
            assert main(argv) == 0
        else:
            with pytest.raises(category, match="inside the trace"):
                main(argv)


def test_project_bodies_of_different_dimensions_exit_1(coaxial_specs, tmp_path, capsys):
    ball3, _ = coaxial_specs
    ell2 = write_spec(tmp_path, "ell2.json", {"family": "ellipsoid", "params": {"semiaxes": [1.0, 0.8]}})
    for om, lam in ((ball3, ell2), (ell2, ball3)):
        assert main(["project", om, lam, "--out", str(tmp_path / "t.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "different dimensions" in line


def test_project_cantor_pair_overlap_exit(tmp_path):
    om = write_spec(
        tmp_path,
        "co.json",
        {"family": "cantor_contact", "params": {"eps": 1e-4, "cantor_depth": 2, "side": "omega"}},
    )
    lam = write_spec(
        tmp_path,
        "cl.json",
        {"family": "cantor_contact", "params": {"eps": 1e-4, "cantor_depth": 2, "side": "lambda"}},
    )
    assert main(["project", om, lam]) == 3


def test_project_overlapping_ellipsoids_overlap_exit(tmp_path, capsys):
    # the overlapping pair of test_projection: alternating projections stall
    # at a gap of 6.8e-7 there, and Newton on the KKT system of the closest
    # pair lands on a common boundary point
    c, s = math.cos(0.7), math.sin(0.7)
    om = write_spec(tmp_path, "om.json", {
        "family": "ellipsoid", "params": {"semiaxes": [1.0, 0.3, 1.0]},
        "pose": {"rotation": np.eye(3).tolist(), "translation": [0.0, 0.98, 0.0]},
    })
    lam = write_spec(tmp_path, "lam.json", {
        "family": "ellipsoid", "params": {"semiaxes": [0.8, 0.6, 1.0]},
        "pose": {"rotation": [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], "translation": [0.0, 0.0, 0.0]},
    })
    out = tmp_path / "trace.csv"
    assert main(["project", om, lam, "--out", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: bodies touch or overlap")
    assert not out.exists()


def test_project_flat_contact_rank_exit(input_files):
    assert main([input_files.get(a, a) for a in _FLAT] + ["--out", input_files["{out}"]]) == 4


def test_project_seed_failure_exit(coaxial_specs, tmp_path):
    om, lam = coaxial_specs
    code = main(
        [
            "project",
            om,
            lam,
            "--seed-patch",
            "0",
            "0",
            "-1",
            "--seed-patch-angle",
            "0.4",
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_holder_on_kiselman_curve(tmp_path):
    kis = write_spec(tmp_path, "kis.json", {"family": "kiselman", "params": {"q": 3}})
    curve = str(tmp_path / "kis.csv")
    assert (
        main(
            [
                "shadow",
                kis,
                "--u",
                "0",
                "1",
                "0",
                "--chart-point",
                "0",
                "0",
                "0",
                "--chart-radius",
                "0.48",
                "--dyadic",
                "4",
                "12",
                "--out",
                curve,
            ]
        )
        == 0
    )
    report = str(tmp_path / "fit.json")
    assert main(["diagnose", curve, "holder", "--center", "0", "--out", report]) == 0
    fit = json.loads(open(report).read())
    assert abs(fit["alpha_hat"] - 2.0 / 3.0) < 0.05
    assert fit["r_squared"] >= 0.999


def test_diagnose_empty_csv(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["diagnose", str(empty), "holder"]) == 1


def test_diagnose_boxdim_on_trace(coaxial_specs, tmp_path):
    om, lam = coaxial_specs
    out = str(tmp_path / "trace.csv")
    assert main(["project", om, lam, "--out", out]) == 0
    report = str(tmp_path / "dim.json")
    assert main(["diagnose", out, "boxdim", "--out", report]) == 0
    est = json.loads(open(report).read())
    assert abs(est["d_hat"] - 1.0) < 0.15


def test_diagnose_cusp_mode(tmp_path):
    kis = write_spec(tmp_path, "kis.json", {"family": "kiselman", "params": {"q": 3}})
    curve = str(tmp_path / "kis.csv")
    main(
        [
            "shadow",
            kis,
            "--u",
            "0",
            "1",
            "0",
            "--chart-point",
            "0",
            "0",
            "0",
            "--chart-radius",
            "0.48",
            "--dyadic",
            "4",
            "12",
            "--out",
            curve,
        ]
    )
    report = str(tmp_path / "cusp.json")
    code = main(
        [
            "diagnose",
            curve,
            "cusp",
            "--center",
            "0",
            "--L",
            "9.5",
            "--theta",
            "4.0",
            "--alpha",
            "1.0",
            "--out",
            report,
        ]
    )
    assert code == 0
    cert = json.loads(open(report).read())
    assert cert["violations"] > 0  # the cusp exponent beats any linear cone


# ---------------------------------------------------------------------------
# counterexample subcommand and determinism


def test_counterexample_reports(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["counterexample", "kiselman-identity", "--q", "5", "--out", out]) == 0
    assert json.loads(open(out).read())["max_error"] <= 1e-10
    assert main(["counterexample", "cantor-contact", "--depth", "3", "--out", out]) == 0
    assert json.loads(open(out).read())["contact_count"] == 8
    assert main(["counterexample", "cone-graph-failure", "--out", out]) == 0
    assert json.loads(open(out).read())["found"] is True


def test_counterexample_bad_parameter(tmp_path):
    assert main(["counterexample", "kiselman-identity", "--q", "4"]) == 1


def test_shadow_deterministic_output(ell_spec, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["shadow", ell_spec, "--u", "0.3", "0.8", "0.52", "--grid", "32", "--rng-seed", "0"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


# ---------------------------------------------------------------------------
# numeric flags: every run ends in a documented exit code


_EDGE = ("nan", "inf", "-inf", "0", "-1", "1e300")


def _argv(head, options):
    """``head`` then each ``(flag, valid values)`` option, absent or given
    with each value either its valid one or an edge value."""
    parts = [st.just(list(head))]
    for flag, valid in options:
        values = st.tuples(*(st.just(v) | st.sampled_from(_EDGE) for v in valid))
        parts.append(st.just([]) | values.map(lambda vs, flag=flag: [flag, *vs]))
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_SHADOW_FLAGS = _argv(
    ["shadow", "{ell}"],
    [("--u", ("1", "0.2", "0.1")), ("--grid", ("5",)), ("--span", ("0.3",)), ("--dyadic", ("3", "6")),
     ("--chart-point", ("1", "0", "0")), ("--chart-radius", ("0.4",)), ("--tol-root", ("1e-10",)),
     ("--rng-seed", ("3",))],
)
_DIAGNOSE_FLAGS = st.sampled_from(
    [["diagnose", "{curve}", "holder"], ["diagnose", "{curve}", "cusp"], ["diagnose", "{curve}", "boxdim"]]
).flatmap(lambda head: _argv(
    head,
    [("--center", ("0",)), ("--L", ("9.5",)), ("--theta", ("4",)), ("--alpha", ("1",)),
     ("--cusp-tol", ("1e-9",)), ("--scales", ("0.01", "0.03", "0.1", "0.3")), ("--rng-seed", ("1",))],
))
_COUNTEREXAMPLE_FLAGS = st.sampled_from(["kiselman-identity", "cone-graph-failure", "cantor-contact"]).flatmap(
    lambda name: _argv(
        ["counterexample", name],
        [("--q", ("3",)), ("--eps", ("1e-4",)), ("--depth", ("2",)), ("--u", ("0", "1", "0")),
         ("--rng-seed", ("0",))],
    )
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _write_input_files(tmp_path_factory.mktemp("fuzz"))


def _exits_with_a_documented_code(files, argv):
    argv = [files.get(a, a) for a in argv] + ["--out", files["{out}"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # no exception may escape
    assert code in (0, 1, 2, 3, 4)
    assert code == 0 or any(line.startswith("error:") for line in err.getvalue().splitlines())


@pytest.mark.parametrize(
    "flags", [_SHADOW_FLAGS, _DIAGNOSE_FLAGS, _COUNTEREXAMPLE_FLAGS], ids=["shadow", "diagnose", "counterexample"]
)
def test_numeric_flags_end_in_a_documented_exit_code(fuzz_files, flags):
    @settings(max_examples=60, deadline=None)
    @given(flags)
    def run(argv):
        _exits_with_a_documented_code(fuzz_files, argv)

    run()


@pytest.mark.parametrize(
    "flags",
    [
        ["--step", "1e300"],
        ["--step", "inf"],
        ["--max-steps", "0"],
        ["--tol-root", "1e300"],
        ["--seed-patch", "0", "0", "1e300", "--seed-patch-angle", "1e300"],
    ],
    # ids fixed so each case keeps its name when a case is dropped from the list
    ids=["flags0", "flags1", "flags2", "flags3", "flags5"],
)
def test_project_flags_end_in_a_documented_exit_code(fuzz_files, flags):
    _exits_with_a_documented_code(fuzz_files, ["project", "{om}", "{lam}", *flags])
