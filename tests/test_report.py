"""Report layer: CSV, JSON, and SVG emission must be deterministic.

- CSV header and cell encoding (floats via repr, None as empty,
  booleans lowercased) round-trip exactly
- JSON payloads have sorted keys and reject non-finite numbers
- the SVG chart is a fixed 800x600 document with five ticks per axis
- plot series extraction per kind, with None rows skipped
- byte-identical output on repeated calls
"""

import json
import math

import pytest

from sgv import VerificationRecord
from sgv.errors import EmptySeries
from sgv.report import (
    CSV_COLUMNS,
    PLOT_KINDS,
    emit_plot_data,
    plot_series,
    records_to_csv,
    svg_line_chart,
    sweep_payload,
    to_json,
)
from sgv.verify import SweepRow


def make_record(manifold_id="flat-01", lambda1=1.0, diameter_hi=math.pi,
                sigma_measured=0.0, hypothesis_met=True, **kw):
    bound = 0.65 * math.pi ** 2 / diameter_hi ** 2
    fields = dict(
        manifold_id=manifold_id, n=2, p=2.0, delta=0.05, kbar=0.0,
        eps_max=1.5e-8, hypothesis_met=hypothesis_met, lambda1=lambda1,
        diameter_lo=diameter_hi / 1.03, diameter_hi=diameter_hi,
        alpha=0.65, bound=bound, theorem_margin=lambda1 - bound,
        sigma_measured=sigma_measured, sigma_bound_margin=0.0,
        J_deviation=0.0, gradient_margin=-1e-7, lambda_tilde=1.5,
        sharpness_ratio=lambda1 * diameter_hi ** 2 / math.pi ** 2,
        mode=0, degenerate=False, diameter_converged=True)
    fields.update(kw)
    return VerificationRecord(**fields)


def make_row(**kw):
    """A record dict, the one form the CSV and plot writers read."""
    return make_record(**kw).to_dict()


# ===================================================================
# CSV
# ===================================================================

def test_csv_header_is_pinned():
    out = records_to_csv([])
    assert out == ("id,kbar,eps_max,hypothesis_met,lambda1,D_hi,alpha,"
                   "bound,theorem_margin,sigma,J_dev,grad_margin,"
                   "sharpness_ratio\n")


def test_csv_row_encoding():
    rec = make_row(lambda1=0.1 + 0.2)  # classic repr victim
    out = records_to_csv([rec])
    lines = out.splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    header = lines[0].split(",")
    assert cells[header.index("id")] == "flat-01"
    assert cells[header.index("hypothesis_met")] == "true"
    # repr round-trips the double exactly
    assert float(cells[header.index("lambda1")]) == 0.1 + 0.2
    assert cells[header.index("lambda1")] == repr(0.1 + 0.2)


def test_csv_none_becomes_empty_cell():
    rec = make_row(sigma_measured=None, sigma_bound_margin=None,
                   J_deviation=None, gradient_margin=None,
                   lambda_tilde=None)
    line = records_to_csv([rec]).splitlines()[1]
    cells = line.split(",")
    header = CSV_COLUMNS
    assert cells[header.index("sigma")] == ""
    assert cells[header.index("J_dev")] == ""
    assert cells[header.index("grad_margin")] == ""


def test_csv_reads_the_sweep_payload_records():
    # the sweep's CSV is written from the dicts its JSON already holds
    rows = [SweepRow("a", make_record(manifold_id="a"), None, False),
            SweepRow("b", None, "NonPositiveWarp: f = 0", False)]
    payload = sweep_payload(rows, {"rows": 2, "errors": 1})
    dicts = [d for d in payload["records"] if "error" not in d]
    assert records_to_csv(dicts) == records_to_csv([make_row(
        manifold_id="a")])


def test_csv_deterministic():
    recs = [make_row(manifold_id=f"r{i}", lambda1=1.0 + 0.1 * i)
            for i in range(4)]
    assert records_to_csv(recs) == records_to_csv(recs)


# ===================================================================
# JSON
# ===================================================================

def test_json_sorted_and_newline_terminated():
    s = to_json({"b": 1, "a": 2})
    assert s.index('"a"') < s.index('"b"')
    assert s.endswith("\n")
    assert json.loads(s) == {"a": 2, "b": 1}


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json({"x": float("nan")})
    with pytest.raises(ValueError):
        to_json({"x": float("inf")})


def test_sweep_payload_shapes():
    ok = SweepRow("good", make_record(manifold_id="good"), None, False)
    bad = SweepRow("bad", None, "NonPositiveWarp: profile touches zero",
                   False)
    payload = sweep_payload([ok, bad], {"rows": 2, "errors": 1})
    assert payload["summary"]["errors"] == 1
    assert payload["records"][0]["manifold_id"] == "good"
    assert payload["records"][1] == {
        "manifold_id": "bad",
        "error": "NonPositiveWarp: profile touches zero"}
    json.loads(to_json(payload))  # serializable end to end


# ===================================================================
# SVG
# ===================================================================

def test_svg_shape_and_ticks():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [1.0, 0.5, 2.0, 1.5]
    svg = svg_line_chart(xs, ys, "x", "y", "demo")
    assert svg.startswith("<svg ")
    assert 'viewBox="0 0 800 600"' in svg
    assert svg.count("<line ") == 10  # five ticks per axis
    assert svg.count("<circle ") == len(xs)
    assert "polyline" in svg
    assert svg.endswith("</svg>\n")


def test_svg_degenerate_range_padded():
    svg = svg_line_chart([1.0, 2.0], [3.0, 3.0], "x", "y", "flat line")
    assert 'viewBox="0 0 800 600"' in svg  # no division blowup


def test_svg_empty_raises():
    with pytest.raises(EmptySeries):
        svg_line_chart([], [], "x", "y", "nothing")


def test_svg_length_mismatch():
    with pytest.raises(ValueError):
        svg_line_chart([1.0], [1.0, 2.0], "x", "y", "bad")


def test_svg_deterministic():
    xs = [0.1, 0.2, 0.7]
    ys = [5.0, 4.0, 4.5]
    assert svg_line_chart(xs, ys, "a", "b", "t") == \
        svg_line_chart(xs, ys, "a", "b", "t")


# ===================================================================
# plot series
# ===================================================================

def test_plot_kinds_exposed():
    assert set(PLOT_KINDS) == {"sharpness-vs-aspect", "kbar-vs-lambda1",
                               "alpha-vs-delta"}


def test_sharpness_vs_aspect_series():
    recs = [make_row(manifold_id="a", lambda1=1.0, sharpness_ratio=1.04),
            make_row(manifold_id="b", lambda1=1.0, sharpness_ratio=1.01)]
    xs, ys, (xl, yl) = plot_series(recs, "sharpness-vs-aspect")
    # aspect recovered as sqrt(ratio - 1), sorted ascending
    assert xs == pytest.approx([0.1, 0.2])
    assert ys == pytest.approx([1.01, 1.04])
    assert "aspect" in xl
    assert "sharpness" in yl


def test_kbar_vs_lambda1_skips_none():
    recs = [make_row(manifold_id="a", kbar=0.1, lambda1=0.9),
            make_row(manifold_id="b", kbar=None, lambda1=1.0)]
    xs, ys, _ = plot_series(recs, "kbar-vs-lambda1")
    assert len(xs) == 1


def test_plot_series_unknown_kind():
    with pytest.raises(ValueError):
        plot_series([make_row()], "volume-vs-time")


def test_plot_series_all_skipped_raises():
    recs = [make_row(kbar=None)]
    with pytest.raises(EmptySeries):
        plot_series(recs, "kbar-vs-lambda1")


def test_emit_plot_data_writes_both_files(tmp_path):
    recs = [make_row(manifold_id="a", sharpness_ratio=1.04),
            make_row(manifold_id="b", sharpness_ratio=1.0025)]
    base = tmp_path / "chart"
    csv_path, svg_path = emit_plot_data(recs, "sharpness-vs-aspect",
                                        str(base))
    csv1 = open(csv_path, "rb").read()
    svg1 = open(svg_path, "rb").read()
    assert csv1.startswith(b"aspect,")
    assert svg1.startswith(b"<svg")
    # emitting again is byte-identical
    emit_plot_data(recs, "sharpness-vs-aspect", str(base))
    assert open(csv_path, "rb").read() == csv1
    assert open(svg_path, "rb").read() == svg1
