"""Command-line interface contract tests.

Exit codes: 0 on success, 1 on an invariant violation, 2 on config
errors (including bad SGV_LOG values and argparse failures).  All
output files must be byte-identical across reruns.
"""

import concurrent.futures.process
import csv
import json
import math
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import sgv.cli
import sgv.geometry
import sgv.verify
from sgv.cli import main
from sgv.constants import DELTA_CAP, LedgerInput, gradient_constants
from sgv.geometry import ricci_min
from sgv.verify import SweepRow

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_sweep_config(tmp_path, manifolds=None, **extra):
    cfg = {
        "alpha_target": 0.3,
        "p": 2.0,
        "C_s": 2.0,
        "Lambda_rough": 0.5,
        "manifolds": manifolds if manifolds is not None else [
            {"id": "flat-01", "kind": "flat-torus", "L": TWO_PI,
             "c": 0.1},
            {"id": "wavy", "kind": "cosine-torus", "L": TWO_PI,
             "c": 1.0, "beta": 1e-8},
        ],
    }
    cfg.update(extra)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ===================================================================
# eig / curvature / diameter / kbar
# ===================================================================

def test_eig_flat_torus(capsys):
    code, out, _ = run(capsys, "eig", "--manifold", "flat-torus",
                       "--L", "1.0", "--c", "0.016",
                       "--grids", "256,512,1024")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(4.0 * math.pi ** 2,
                                               rel=1e-8)
    assert payload["mode"] == 0
    assert not payload["degenerate"]
    assert len(payload["history"]) == 3


def test_eig_sphere_degenerate(capsys):
    code, out, _ = run(capsys, "eig", "--manifold", "sphere",
                       "--L", str(math.pi), "--grids", "128,256,512")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(2.0, abs=1e-6)
    assert payload["degenerate"]


@pytest.mark.parametrize("grids", ["512,1024,4096", "512,1000,2048"])
def test_eig_grids_that_do_not_double_rejected(capsys, grids):
    # the Richardson step assumes each grid doubles the one before; any
    # other chain is a config error, not an extrapolated value
    code, out, err = run(capsys, "eig", "--manifold", "sphere",
                         "--L", str(math.pi), "--grids", grids)
    assert code == 2
    assert out == ""
    assert "config error" in err and "double" in err


@pytest.mark.parametrize("grids, shown", [
    ("512,1024", "need at least three grids for the order study"),
    ("4,8,16", "need at least 8 cells"),
])
def test_eig_grid_chain_too_short_or_too_coarse_rejected(capsys, grids,
                                                         shown):
    code, out, err = run(capsys, "eig", "--manifold", "sphere",
                         "--L", str(math.pi), "--grids", grids)
    assert code == 2
    assert out == ""
    assert err == f"config error: {shown}\n"


def test_torus_without_fiber_size_rejected(capsys):
    code, out, err = run(capsys, "eig", "--manifold", "flat-torus",
                         "--L", "3")
    assert code == 2
    assert out == ""
    assert err == "config error: flat-torus needs --c\n"
    # the fiber size is --c alone
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--manifold", "flat-torus", "--L", "3",
              "--fiber", "0.6"])
    assert exc.value.code == 2


def test_flat_torus_with_beta_rejected(capsys):
    code, _, err = run(capsys, "eig", "--manifold", "flat-torus",
                       "--L", "1.0", "--c", "0.1", "--beta", "0.2")
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("flag", ["--c", "--beta"])
def test_sphere_with_torus_flag_rejected(capsys, flag):
    # a sphere reads neither; the flag is an error, not ignored
    code, _, err = run(capsys, "diameter", "--manifold", "sphere",
                       "--L", "3.0", flag, "0.5")
    assert code == 2
    assert f"takes no {flag[2:]}" in err


def test_curvature_cosine(capsys):
    code, out, _ = run(capsys, "curvature", "--manifold",
                       "cosine-torus", "--L", str(TWO_PI), "--c", "1.0",
                       "--beta", "0.3", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kbar"] == pytest.approx(0.17412387179430328,
                                            rel=1e-12)
    assert payload["volume"] == pytest.approx(TWO_PI ** 2, rel=1e-12)
    assert "rho" not in payload  # arrays only with --arrays


def test_curvature_arrays_flag(capsys):
    code, out, _ = run(capsys, "curvature", "--manifold",
                       "cosine-torus", "--L", str(TWO_PI), "--c", "1.0",
                       "--beta", "0.3", "--samples", "64", "--arrays")
    assert code == 0
    payload = json.loads(out)
    # the periodic grid drops its duplicate end t = L
    assert payload["t"] == list(np.linspace(0.0, TWO_PI, 65)[:-1])
    assert len(payload["rho"]) == len(payload["rho_H"]) == 64
    rho = np.array(payload["rho"])
    assert payload["rho_H"] == list(np.maximum(-rho, 0.0))  # H = 0
    assert payload["ricci_min"] == rho.min()
    assert payload["kbar"] == pytest.approx(0.17412387179430328,
                                            rel=1e-13)
    assert payload["volume"] == pytest.approx(TWO_PI ** 2, rel=1e-12)
    assert payload["diameter_lo"] <= payload["diameter_hi"]
    assert payload["manifold"]["kind"] == "cosine"


@pytest.mark.parametrize("samples, manifold", [
    ("1", ("cosine-torus", "--c", "1.0", "--beta", "0.3")),
    ("0", ("flat-torus", "--c", "0.1")),
])
def test_curvature_refuses_fewer_than_two_samples(capsys, samples,
                                                  manifold):
    # one sample (t = 0) read ricci_min 0.2308 where the default grid reads
    # -0.4286, and none ended in numpy's zero-size reduction error
    code, out, err = run(capsys, "curvature", "--manifold", manifold[0],
                         "--L", str(TWO_PI), *manifold[1:],
                         "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == f"config error: --samples = {samples} must be at least 2\n"


def test_curvature_samples_ricci_once(capsys, monkeypatch):
    # one ricci_min evaluation on the sample grid feeds rho and rho_H
    grid = np.linspace(0.0, TWO_PI, 33)[:-1]
    on_grid = []

    def counting(m, t):
        on_grid.append(np.array_equal(t, grid))
        return ricci_min(m, t)

    monkeypatch.setattr(sgv.geometry, "ricci_min", counting)
    monkeypatch.setattr(sgv.cli, "ricci_min", counting)
    code, out, _ = run(capsys, "curvature", "--manifold",
                       "cosine-torus", "--L", str(TWO_PI), "--c", "1.0",
                       "--beta", "0.3", "--H", "0.3", "--samples", "32",
                       "--arrays")
    assert code == 0
    assert sum(on_grid) == 1
    payload = json.loads(out)
    rho = np.array(payload["rho"])
    assert payload["rho_H"] == list(np.maximum(0.3 - rho, 0.0))


def test_diameter_flat_closed_form(capsys):
    code, out, _ = run(capsys, "diameter", "--manifold", "flat-torus",
                       "--L", "1.0", "--c", "0.1")
    assert code == 0
    payload = json.loads(out)
    want = math.hypot(0.5, math.pi * 0.1)
    assert payload["hi"] == want
    assert payload["lo"] == want
    assert payload["converged"] is True


def test_kbar_ok_and_exponent_gate(capsys):
    code, out, _ = run(capsys, "kbar", "--manifold", "cosine-torus",
                       "--L", str(TWO_PI), "--c", "1.0", "--beta",
                       "0.05", "--p", "2")
    assert code == 0
    assert json.loads(out)["kbar"] == pytest.approx(
        0.02554903738285498, rel=1e-12)
    code1, _, err = run(capsys, "kbar", "--manifold", "cosine-torus",
                        "--L", str(TWO_PI), "--c", "1.0", "--beta",
                        "0.05", "--p", "1")
    assert code1 == 1
    assert "BadExponent" in err


# ===================================================================
# ledger / ode-check / verify
# ===================================================================

def test_ledger_reference_point(capsys):
    code, out, _ = run(capsys, "ledger", "--n", "2", "--p", "2",
                       "--D", str(math.pi), "--delta", "0.1",
                       "--Cs", "10", "--Lambda", "0.01")
    assert code == 0
    payload = json.loads(out)
    assert payload["term1"] == pytest.approx(0.0009370752818219464,
                                             rel=1e-12)
    assert payload["tau"] == 17.0
    assert payload["eps_max"] == min(payload["term1"], payload["term2"],
                                     payload["term3"], payload["term4"])


def test_ledger_delta_cap_enforced(capsys):
    code, _, err = run(capsys, "ledger", "--n", "2", "--p", "2",
                       "--D", "1.0", "--delta", "0.5",
                       "--Cs", "2", "--Lambda", "0.5")
    assert code == 1
    assert "DeltaTooLarge" in err


def test_ledger_plot_is_alpha_of_delta(tmp_path, capsys):
    # 41 deltas from 1e-4 to the cap, each alpha the ledger's own, at
    # sigma = 0 unless --sigma is given
    curves = []
    for sigma in (None, 0.001):
        base = str(tmp_path / f"alpha-{len(curves)}")
        flags = () if sigma is None else ("--sigma", str(sigma))
        code, _, _ = run(capsys, *LEDGER_ARGS, "--D", "3", "--Cs", "2",
                         *flags, "--plot-out", base)
        assert code == 0
        with open(base + ".csv", encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        assert header == "delta,alpha"
        points = [tuple(map(float, line.split(","))) for line in lines]
        assert len(points) == 41
        assert points[0][0] == pytest.approx(1e-4, rel=1e-12)
        assert points[-1][0] == pytest.approx(DELTA_CAP, rel=1e-12)
        for delta, alpha in points:
            inp = LedgerInput(n=2, p=2.0, D=3.0, C_s=2.0, Lambda_rough=0.5)
            assert alpha == gradient_constants(inp, delta,
                                               sigma or 0.0).alpha
        with open(base + ".svg", encoding="utf-8") as fh:
            assert 'viewBox="0 0 800 600"' in fh.read()
        curves.append(points)
    assert all(a1 < a0 for (_, a0), (_, a1) in zip(*curves))


def test_ode_check_passes(capsys):
    code, out, _ = run(capsys, "ode-check", "--eta", "1.1",
                       "--u-grid", "20001")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_margin"] >= -1e-10
    assert payload["ode_residual_max"] <= 1e-12
    assert payload["z_peak"] == pytest.approx(0.12696311618073414,
                                              rel=1e-12)


def test_ode_check_exits_1_on_a_negative_margin(capsys, monkeypatch):
    real = sgv.cli.check_model_inequalities

    def failing(*args, **kwargs):
        return {**real(*args, **kwargs), "min_margin": -1e-6}
    monkeypatch.setattr(sgv.cli, "check_model_inequalities", failing)
    code, out, err = run(capsys, "ode-check", "--eta", "1.1",
                         "--u-grid", "1001")
    assert code == 1
    assert json.loads(out)["min_margin"] == -1e-6
    assert err.startswith("ode-check gate violated: min margin -1.000e-06")


@pytest.mark.parametrize("points", ["1", "0"])
def test_ode_check_refuses_a_grid_below_two_points(capsys, points):
    # one point (u = -1 + 1e-9) certified a min margin of 8e-14, and none
    # ended in numpy's zero-size reduction error
    code, out, err = run(capsys, "ode-check", "--eta", "1.1",
                         "--u-grid", points)
    assert code == 2
    assert out == ""
    assert err == f"config error: u_grid = {points} must be an integer " \
        ">= 2\n"


def test_ode_check_has_no_j_grid(capsys):
    # the J range is read at its two ends, where m1 has its minimum
    with pytest.raises(SystemExit) as exc:
        main(["ode-check", "--eta", "1.1", "--j-grid", "11"])
    assert exc.value.code == 2


LEDGER_ARGS = ("ledger", "--n", "2", "--p", "2", "--delta", "0.1",
               "--Lambda", "0.5")


@pytest.mark.parametrize("argv, shown", [
    (("verify", "--manifold", "cosine-torus", "--L", "6.2832",
      "--c", "0.5", "--beta", "1e-8", "--alpha-target", "0.3",
      "--Cs", "2", "--Lambda", "inf"),
     "Lambda_rough = inf must be positive and finite"),
    (LEDGER_ARGS + ("--D", "nan", "--Cs", "2"),
     "D = nan must be positive and finite"),
    (LEDGER_ARGS + ("--D", "3", "--Cs", "inf"),
     "C_s = inf must be positive and finite"),
    (("curvature", "--manifold", "cosine-torus", "--L", "6.2832",
      "--c", "1.0", "--beta", "0.3", "--H", "nan"),
     "H = nan must be finite"),
    (("kbar", "--manifold", "cosine-torus", "--L", "6.2832",
      "--c", "1.0", "--beta", "0.3", "--p", "2", "--H=-inf"),
     "H = -inf must be finite"),
    # an input error, not the cap's DeltaTooLarge (exit 1)
    (LEDGER_ARGS + ("--D", "3", "--Cs", "2", "--delta", "0"),
     "delta = 0.0 must be positive and finite"),
    (LEDGER_ARGS + ("--D", "3", "--Cs", "2", "--delta", "nan"),
     "delta = nan must be positive and finite"),
])
def test_non_finite_input_is_config_error(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"config error: {shown}\n"


def test_underflowing_admissibility_term_is_config_error(capsys):
    # term 1 falls as 1/D^2 and reads 0.0 at D = 1e200
    code, out, err = run(capsys, *LEDGER_ARGS, "--D", "1e200", "--Cs", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: non-positive admissibility term: "
                          "(0.0, ")


def test_infinite_exponent_is_bad_exponent(capsys):
    code, out, err = run(capsys, *LEDGER_ARGS, "--D", "3", "--Cs", "2",
                         "--p", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("invariant violation (BadExponent): p = inf")


LEDGER_OK = ("ledger", "--n", "2", "--p", "2", "--D", "3", "--delta", "0.1",
             "--Cs", "2", "--Lambda", "0.5")
COSINE_ARGS = ("--manifold", "cosine-torus", "--L", "6.2832", "--c", "1",
               "--beta", "0.3")
VERIFY_OK = ("verify", *COSINE_ARGS, "--alpha-target", "0.3", "--p", "2",
             "--Cs", "2", "--Lambda", "0.5")


@pytest.mark.parametrize("argv, flag, value", [
    (LEDGER_OK, "--p", "500"),  # the Moser product passes 1.8e308
    (LEDGER_OK, "--p", "1e300"),  # mu rounds to 1
    (LEDGER_OK, "--Cs", "1e300"),
    (LEDGER_OK, "--Cs", "1e-300"),
    (LEDGER_OK, "--D", "1e-300"),
    (VERIFY_OK, "--p", "500"),
    (VERIFY_OK, "--p", "1e300"),
    (VERIFY_OK, "--Cs", "1e300"),
    (VERIFY_OK, "--Cs", "1e-300"),
    (VERIFY_OK, "--L", "1e-300"),
    (VERIFY_OK, "--c", "1e-300"),
    (("kbar", *COSINE_ARGS, "--p", "2"), "--L", "1e-300"),
    (("diameter", *COSINE_ARGS), "--L", "1e-300"),
    # lambda1's mode-1 cutoff (n - 1) / max f^2 over- or underflows
    (("eig", *COSINE_ARGS), "--c", "1e-300"),
    (("eig", *COSINE_ARGS), "--c", "1e300"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_admitted_input_that_overflows_is_config_error(capsys, argv, flag,
                                                      value):
    at = argv.index(flag) + 1
    code, out, err = run(capsys, *argv[:at], value, *argv[at + 1:])
    assert code == 2
    assert out == ""
    assert err.startswith(("config error: OverflowError: ",
                           "config error: ZeroDivisionError: "))


@pytest.mark.parametrize("flag", ["--n", "--p", "--D", "--delta", "--Cs",
                                  "--Lambda", "--sigma"])
def test_no_ledger_value_escapes_main(capsys, flag):
    # main answers every value with an exit code; argparse's own refusal
    # of a value (an --n that is no integer) exits 2 as well
    values = dict(zip(LEDGER_OK[1::2], LEDGER_OK[2::2]))
    for value in ("1e-300", "1e300", "nan", "inf", "-inf", "0", "-1", "500"):
        argv = ["ledger", *(f"{k}={v}" for k, v in
                            {**values, flag: value}.items())]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2), argv


def test_verify_flat_torus(capsys):
    code, out, _ = run(capsys, "verify", "--manifold", "flat-torus",
                       "--L", str(TWO_PI), "--c", "0.1",
                       "--alpha-target", "0.3", "--Cs", "2",
                       "--Lambda", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_met"] is True
    assert payload["sharpness_ratio"] == pytest.approx(1.01, abs=1e-9)
    assert payload["theorem_margin"] > 0.0


# ===================================================================
# sweep and its config handling
# ===================================================================

def test_sweep_end_to_end(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path)
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code, out, _ = run(capsys, "sweep", "--config", cfg,
                       "--out", str(out_json), "--out-csv",
                       str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["rows"] == 2
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["hypothesis_met"] == 2
    csv_text = out_csv.read_text()
    assert csv_text.splitlines()[0].startswith("id,kbar,")
    assert len(csv_text.splitlines()) == 3
    # stdout and the file carry the same document
    assert out == out_json.read_text()


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path)
    paths = []
    for tag in ("one", "two"):
        oj = tmp_path / f"{tag}.json"
        oc = tmp_path / f"{tag}.csv"
        code, _, _ = run(capsys, "sweep", "--config", cfg,
                         "--out", str(oj), "--out-csv", str(oc))
        assert code == 0
        paths.append((oj.read_bytes(), oc.read_bytes()))
    assert paths[0] == paths[1]


def test_sweep_plot_emission(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "flat-02", "kind": "flat-torus", "L": TWO_PI, "c": 0.2},
        {"id": "flat-01", "kind": "flat-torus", "L": TWO_PI, "c": 0.1},
    ])
    base = tmp_path / "sharp"
    code, _, _ = run(capsys, "sweep", "--config", cfg,
                     "--plot", "sharpness-vs-aspect",
                     "--plot-out", str(base))
    assert code == 0
    assert (tmp_path / "sharp.csv").exists()
    assert (tmp_path / "sharp.svg").exists()
    svg = (tmp_path / "sharp.svg").read_text()
    assert 'viewBox="0 0 800 600"' in svg


@pytest.mark.parametrize("kind", sgv.cli.PLOT_KINDS)
def test_sweep_csv_lines_have_one_field_count(tmp_path, capsys, kind):
    base = tmp_path / "plot"
    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, "sweep", "--config",
                     write_sweep_config(tmp_path), "--out-csv",
                     str(out_csv), "--plot", kind, "--plot-out", str(base))
    assert code == 0
    for path in (out_csv, tmp_path / "plot.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert {len(row) for row in rows} == {len(rows[0])}


def test_sweep_plot_without_plot_out_refused_before_any_row(
        tmp_path, capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a sweep row ran")
    monkeypatch.setattr(sgv.cli, "sweep", no_rows)
    out_json = tmp_path / "report.json"
    code, out, err = run(capsys, "sweep", "--config",
                         write_sweep_config(tmp_path), "--out",
                         str(out_json), "--plot", "sharpness-vs-aspect")
    assert code == 2
    assert out == "" and not out_json.exists()
    assert err == "config error: --plot needs --plot-out BASEPATH\n"


@pytest.mark.parametrize("flag", ["--out", "--out-csv", "ledger --plot-out",
                                  "sweep --plot-out", "sweep --out"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys,
                                                monkeypatch, flag):
    # exit 2 naming the path, not a traceback (exit 1); a plot names the
    # first of its two files, and a sweep refuses it before any row runs
    def no_rows(*args, **kwargs):
        raise AssertionError("a sweep row ran")
    monkeypatch.setattr(sgv.cli, "sweep", no_rows)
    missing = str(tmp_path / "missing" / "out")
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "flat", "kind": "flat-torus", "L": TWO_PI, "c": 0.1}])
    argv, written = {
        "--out": (("diameter", "--manifold", "sphere", "--L", "3",
                   "--out", missing), missing),
        "sweep --out": (("sweep", "--config", cfg, "--out", missing),
                        missing),
        "--out-csv": (("sweep", "--config", cfg, "--out-csv", missing),
                      missing),
        "ledger --plot-out": (LEDGER_ARGS + ("--D", "3", "--Cs", "2",
                                             "--plot-out", missing),
                              missing + ".csv"),
        "sweep --plot-out": (("sweep", "--config", cfg, "--plot",
                              "sharpness-vs-aspect", "--plot-out", missing),
                             missing + ".csv"),
    }[flag]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == (f"config error: cannot write {written}: "
                   "No such file or directory\n")


def test_sweep_unknown_config_key(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, bogus=1)
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "unknown config keys: bogus" in err


def test_sweep_unknown_manifold_key(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "x", "kind": "flat-torus", "L": 1.0, "c": 0.1,
         "twist": 3}])
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "twist" in err


@pytest.mark.parametrize("kind", [["sphere"], {"name": "sphere"},
                                  "klein-bottle"])
def test_sweep_unknown_manifold_kind(tmp_path, capsys, kind):
    # a list or an object is no kind either: a config error, not a
    # TypeError out of the dict lookup
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "x", "kind": kind, "L": 3.0}])
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "unknown manifold kind" in err


def test_sweep_missing_settings(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"manifolds": [
        {"id": "x", "kind": "flat-torus", "L": 1.0, "c": 0.1}]}))
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert "missing sweep settings" in err


@pytest.mark.parametrize("text, shown", [
    ("{bad", "config is not valid JSON"),
    ("[1]", "config root must be a JSON object"),
])
def test_sweep_config_that_is_no_json_object(tmp_path, capsys, text, shown):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {shown}")


def test_sweep_missing_config_file(capsys):
    code, _, err = run(capsys, "sweep", "--config", "/nonexistent.json")
    assert code == 2
    assert "cannot read config" in err


def test_sweep_flags_override_config(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "flat", "kind": "flat-torus", "L": TWO_PI, "c": 0.1}])
    code, out, _ = run(capsys, "sweep", "--config", cfg,
                       "--alpha-target", "0.25")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["alpha"] >= 0.25
    assert rec["delta"] > 0.0535  # larger than the alpha = 0.3 root


def test_sweep_flags_override_every_setting(tmp_path):
    cfg = write_sweep_config(tmp_path, jobs=2)
    parse = sgv.cli.build_parser().parse_args
    read = sgv.cli._load_sweep_config(parse(["sweep", "--config", cfg]))
    assert [read[k] for k in ("alpha_target", "p", "C_s", "Lambda_rough",
                              "jobs")] == [0.3, 2.0, 2.0, 0.5, 2]
    merged = sgv.cli._load_sweep_config(parse([
        "sweep", "--config", cfg, "--alpha-target", "0.25", "--p", "3",
        "--Cs", "1.5", "--Lambda", "0.75", "--jobs", "1"]))
    assert [merged[k] for k in ("alpha_target", "p", "C_s", "Lambda_rough",
                                "jobs")] == [0.25, 3.0, 1.5, 0.75, 1]
    assert merged["manifolds"] == read["manifolds"]


@pytest.fixture(scope="module")
def passing_record():
    rec = sgv.verify.check_main_theorem(
        sgv.geometry.make_manifold("constant", L=TWO_PI, c=0.1),
        0.5, 2.0, 2.0, 0.5)
    assert rec.hypothesis_met
    assert sgv.cli._record_gate_failures(rec) == []
    return rec


# each gate's failure in one field of a passing record: the replaced
# fields, and the start of the one failure it must give
GATES = {
    "eigenvalue-bound": (lambda r: dict(theorem_margin=-1e-3 * r.lambda1),
                         "eigenvalue bound violated"),
    "shift-sign": (lambda r: dict(sigma_measured=-1e-9), "shift sign"),
    "shift-sign-none": (lambda r: dict(sigma_measured=None),
                        "shift sign: sigma = None"),
    "shift-ceiling": (lambda r: dict(sigma_bound_margin=-1e-6),
                      "shift ceiling"),
    "shift-ceiling-none": (lambda r: dict(sigma_bound_margin=None),
                           "shift ceiling: margin = None"),
    "J-deviation": (lambda r: dict(J_deviation=r.delta + 1e-6),
                    "J deviation"),
    "J-deviation-none": (lambda r: dict(J_deviation=None),
                         "J deviation None"),
    "gradient-none": (lambda r: dict(gradient_margin=None),
                      "gradient estimate: margin = None"),
    "gradient-above-tolerance": (
        lambda r: dict(gradient_margin=1e-5 * r.lambda_tilde),
        "gradient estimate margin"),
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_fails_in_hypothesis_record(passing_record, gate):
    # a certificate that could not be computed (None) fails its gate
    # inside the hypothesis as a failed one does; outside it the record
    # is informational
    change, message = GATES[gate]
    failing = replace(passing_record, **change(passing_record))
    fails = sgv.cli._record_gate_failures(failing)
    assert len(fails) == 1 and fails[0].startswith(message)
    assert sgv.cli._record_gate_failures(
        replace(failing, hypothesis_met=False)) == []


def test_verify_exits_1_on_a_failed_gate(capsys, monkeypatch,
                                         passing_record):
    failing = replace(passing_record, theorem_margin=-1.0)
    monkeypatch.setattr(sgv.cli, "check_main_theorem",
                        lambda *args, **kwargs: failing)
    code, out, err = run(capsys, "verify", "--manifold", "flat-torus",
                         "--L", str(TWO_PI), "--c", "0.1",
                         "--alpha-target", "0.5", "--Cs", "2",
                         "--Lambda", "0.5")
    assert code == 1
    assert json.loads(out)["theorem_margin"] == -1.0
    assert err == ("[constant] eigenvalue bound violated: margin "
                   "-1.000000e+00\n")


def test_sweep_exits_1_on_a_failed_gate(tmp_path, capsys, monkeypatch,
                                        passing_record):
    failing = replace(passing_record, manifold_id="bad", J_deviation=None)
    rows = [SweepRow(manifold_id="ok", record=passing_record, error=None,
                     flat=True),
            SweepRow(manifold_id="bad", record=failing, error=None,
                     flat=True)]
    monkeypatch.setattr(sgv.cli, "sweep",
                        lambda *args, **kwargs: (rows, {"rows": 2}))
    code, out, err = run(capsys, "sweep", "--config",
                         write_sweep_config(tmp_path))
    assert code == 1
    assert len(json.loads(out)["records"]) == 2
    assert err.startswith("[bad] J deviation None exceeds delta = ")
    assert err.count("\n") == 1


def test_sweep_row_error_does_not_flip_exit(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "flat", "kind": "flat-torus", "L": TWO_PI, "c": 0.1},
        {"id": "bad", "kind": "cosine-torus", "L": TWO_PI, "c": 1.0,
         "beta": 2.0},
    ])
    code, out, _ = run(capsys, "sweep", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["errors"] == 1
    assert "error" in payload["records"][1]


def test_sweep_flat_torus_with_beta_is_row_error(tmp_path, capsys):
    # a sphere takes no beta either
    cfg = write_sweep_config(tmp_path, manifolds=[
        {"id": "flat", "kind": "flat-torus", "L": TWO_PI, "c": 0.1},
        {"id": "flat-beta", "kind": "flat-torus", "L": TWO_PI,
         "c": 0.1, "beta": 0.3},
        {"id": "sphere-beta", "kind": "sphere", "L": math.pi,
         "beta": 0.5},
    ])
    code, out, _ = run(capsys, "sweep", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["errors"] == 2
    assert payload["records"][1]["error"].startswith(
        "ValueError: constant profile takes no beta")
    assert payload["records"][2]["error"] == \
        "ValueError: sine-sphere profile takes no beta"


@pytest.mark.parametrize("setting, value", [
    ("jobs", "2"), ("jobs", 0), ("jobs", 1.5), ("jobs", True),
    ("alpha_target", "0.3"), ("p", True),
    ("Lambda_rough", [0.5]), ("C_s", {"value": 2.0}),
    # json reads NaN and Infinity as floats
    ("C_s", math.nan), ("Lambda_rough", math.inf), ("p", -math.inf),
    ("alpha_target", math.nan),
    # null is no default: jobs is 1 only where the key is absent
    ("jobs", None),
])
def test_sweep_setting_of_wrong_type(tmp_path, capsys, setting, value):
    cfg = write_sweep_config(tmp_path, **{setting: value})
    code, out, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert out == ""
    assert setting in err


@pytest.mark.parametrize("manifolds, fragment", [
    (5, "manifolds = 5 must be a list"),
    (None, "manifolds = None must be a list"),
    ({"kind": "sphere", "L": 3.0}, "must be a list"),
    ([{"kind": "sphere", "L": "3"}], "manifold L = '3' must be a number"),
    ([{"kind": "sphere", "L": True}], "manifold L = True must be a number"),
    ([{"kind": "sphere", "L": 3.0, "n": "3"}], "manifold n = '3'"),
    ([{"kind": "flat-torus", "L": TWO_PI, "c": False}], "manifold c = False"),
    # the fiber size is c alone
    ([{"kind": "flat-torus", "L": TWO_PI, "fiber": 0.6}],
     "unknown manifold keys: fiber"),
    ([{"kind": "cosine-torus", "L": TWO_PI, "c": 1.0, "beta": "0.1"}],
     "manifold beta = '0.1'"),
    ([{"id": ["x"], "kind": "sphere", "L": 3.0}],
     "manifold id = ['x'] must be a string"),
    ([5], "each manifold entry must be an object"),
    ([], "sweep needs a non-empty manifolds list"),
])
def test_sweep_manifold_entry_of_wrong_type(tmp_path, capsys, manifolds,
                                            fragment):
    # a config error, exit 2: not a crash (exit 1), nor a row that runs
    # L = "3" as 3.0 or writes a list into manifold_id
    cfg = write_sweep_config(tmp_path)
    data = json.loads(open(cfg, encoding="utf-8").read())
    data["manifolds"] = manifolds
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    code, out, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert out == ""
    assert fragment in err


def test_sweep_jobs_flag_below_one(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", cfg, "--jobs", "0")
    assert code == 2
    assert "jobs = 0 must be an integer >= 1" in err


def test_sweep_opens_no_more_workers_than_rows(monkeypatch):
    opened = []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        FakePool)
    specs = [{"id": f"flat-{i}", "kind": "constant", "L": TWO_PI,
              "c": 0.1 * (i + 1)} for i in range(3)]
    # no more than the rows, the jobs asked for, or the CPUs; none
    # known counts as one
    for cpus, jobs in ((8, 64), (8, 2), (2, 4096), (None, 64)):
        monkeypatch.setattr(sgv.verify.os, "cpu_count", lambda: cpus)
        rows, summary = sgv.verify.sweep(specs, 0.3, 2.0, 2.0, 0.5,
                                         jobs=jobs)
        assert summary["errors"] == 0
    assert opened == [3, 2, 2, 1]


# ===================================================================
# logging env and argparse plumbing
# ===================================================================

def test_bad_log_level_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("SGV_LOG", "chatty")
    code, _, err = run(capsys, "diameter", "--manifold", "flat-torus",
                       "--L", "1.0", "--c", "0.1")
    assert code == 2
    assert "SGV_LOG" in err


def test_valid_log_levels_accepted(capsys, monkeypatch):
    for level in ("error", "info", "debug"):
        monkeypatch.setenv("SGV_LOG", level)
        code, _, _ = run(capsys, "diameter", "--manifold",
                         "flat-torus", "--L", "1.0", "--c", "0.1")
        assert code == 0, level


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "eig.json"
    code, out, _ = run(capsys, "eig", "--manifold", "flat-torus",
                       "--L", "1.0", "--c", "0.1",
                       "--grids", "128,256,512", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out
