"""Command-line interface contract tests.

Exit codes: 0 on success, 1 on an invariant violation, 2 on config
errors (including bad SGV_LOG values and argparse failures).  All
output files must be byte-identical across reruns.
"""

import concurrent.futures.process
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
from sgv.geometry import ricci_min

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
                       "--L", "1.0", "--fiber", "0.1",
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


def test_ode_check_passes(capsys):
    code, out, _ = run(capsys, "ode-check", "--eta", "1.1",
                       "--u-grid", "20001")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_margin"] >= -1e-10
    assert payload["ode_residual_max"] <= 1e-12
    assert payload["z_peak"] == pytest.approx(0.12696311618073414,
                                              rel=1e-12)


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
])
def test_non_finite_input_is_config_error(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"config error: {shown}\n"


def test_infinite_exponent_is_bad_exponent(capsys):
    code, out, err = run(capsys, *LEDGER_ARGS, "--D", "3", "--Cs", "2",
                         "--p", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("invariant violation (BadExponent): p = inf")


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


def test_gate_fails_in_hypothesis_record_without_gradient_margin():
    # a certificate that could not be computed fails the gate inside
    # the hypothesis, for the gradient estimate as for sigma; outside
    # it the record is informational
    rec = sgv.verify.check_main_theorem(
        sgv.geometry.make_manifold("constant", L=TWO_PI, c=0.1),
        0.5, 2.0, 2.0, 0.5)
    assert rec.hypothesis_met
    assert sgv.cli._record_gate_failures(rec) == []
    missing = replace(rec, gradient_margin=None)
    assert any("gradient" in f
               for f in sgv.cli._record_gate_failures(missing))
    assert sgv.cli._record_gate_failures(
        replace(missing, hypothesis_met=False)) == []


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
    ([{"kind": "flat-torus", "L": TWO_PI, "fiber": "0.6"}],
     "manifold fiber = '0.6'"),
    ([{"kind": "cosine-torus", "L": TWO_PI, "c": 1.0, "beta": "0.1"}],
     "manifold beta = '0.1'"),
    ([{"id": ["x"], "kind": "sphere", "L": 3.0}],
     "manifold id = ['x'] must be a string"),
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
    for jobs in (64, 2):
        rows, summary = sgv.verify.sweep(specs, 0.3, 2.0, 2.0, 0.5,
                                         jobs=jobs)
        assert summary["errors"] == 0
    assert opened == [3, 2]


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
