import json

import numpy as np
import pytest

from umbra.cli import main
from umbra.illumination import ShadowCurve


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


@pytest.mark.parametrize("tol, code", [(0.2, 4), (0.1, 0)])
def test_project_sigma_fail_tol_reaches_the_trace(coaxial_specs, tmp_path, tol, code):
    # sigma_min/sigma_max is 0.1635 along the coaxial trace
    om, lam = coaxial_specs
    out = str(tmp_path / "trace.csv")
    assert main(["project", om, lam, "--sigma-fail-tol", str(tol), "--out", out]) == code


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


def test_project_flat_contact_rank_exit(tmp_path):
    om = write_spec(
        tmp_path,
        "kis.json",
        {"family": "kiselman", "params": {"q": 3, "clamp_radius": 0.45}},
    )
    lam = write_spec(
        tmp_path,
        "ball.json",
        {"family": "translated_ball", "params": {"center": [0, -3.0, 0], "radius": 1.0}},
    )
    code = main(
        [
            "project",
            om,
            lam,
            "--seed-samples",
            "256",
            "--seed-patch",
            "0",
            "1",
            "0",
            "--seed-patch-angle",
            "0.2",
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert code == 4


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
