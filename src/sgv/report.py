"""Deterministic report emission: JSON records, CSV summaries, and
dependency-free SVG line charts.

Identical inputs must produce byte-identical files, so nothing here
consults the clock, the locale, or dict iteration order: JSON is
emitted with sorted keys, floats ride on repr (shortest round-trip,
which preserves all 17 significant digits), and SVG coordinates are
formatted with fixed precision.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .errors import EmptySeries

CSV_COLUMNS = ("id", "kbar", "eps_max", "hypothesis_met", "lambda1",
               "D_hi", "alpha", "bound", "theorem_margin", "sigma",
               "J_dev", "grad_margin", "sharpness_ratio")

_CSV_FIELD_MAP = {
    "id": "manifold_id",
    "D_hi": "diameter_hi",
    "sigma": "sigma_measured",
    "J_dev": "J_deviation",
    "grad_margin": "gradient_margin",
}

# plot kind -> (x field, y field, CSV columns, axis labels)
_PLOT_AXES = {
    "sharpness-vs-aspect": ("sharpness_ratio", "sharpness_ratio",
                            ("aspect", "sharpness"),
                            ("aspect (fiber/base)", "sharpness ratio")),
    "kbar-vs-lambda1": ("kbar", "lambda1", ("kbar", "lambda1"),
                        ("kbar(p, 0)", "lambda1")),
    "alpha-vs-delta": ("delta", "alpha", ("delta", "alpha"),
                       ("delta", "alpha")),
}
PLOT_KINDS = tuple(_PLOT_AXES)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: Sequence[dict]) -> str:
    """CSV summary, one line per record dict (`VerificationRecord.to_dict`).

    Rows that carry no record (sweep errors) are the caller's problem --
    the summary table only has numeric columns.
    """
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        cells = [_csv_cell(rec[_CSV_FIELD_MAP.get(col, col)])
                 for col in CSV_COLUMNS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(text: str, path: str) -> None:
    """Write text to path as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def to_json(payload) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def sweep_payload(rows, summary: dict) -> dict:
    """JSON-ready structure for a sweep: per-row records or errors."""
    out_rows = []
    for r in rows:
        if r.record is not None:
            out_rows.append(r.record.to_dict())
        else:
            out_rows.append({"manifold_id": r.manifold_id,
                             "error": r.error})
    return {"records": out_rows, "summary": summary}


# --- SVG chart -------------------------------------------------------

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 90, 30, 50, 70   # margins: left right top bottom
_TICKS = 5


def _ticks(lo: float, hi: float):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("non-finite axis range")
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    return [lo + i * (hi - lo) / (_TICKS - 1) for i in range(_TICKS)]


def _fmt_tick(v: float) -> str:
    return "%.6g" % v


def svg_line_chart(xs: Sequence[float], ys: Sequence[float],
                   x_label: str, y_label: str, title: str) -> str:
    """Self-contained 800x600 SVG polyline chart with 5 ticks per axis.

    Points are drawn in the order given; the caller sorts if a function
    graph is wanted.  Raises EmptySeries on no data.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise EmptySeries("no data points to plot")
    if len(xs) != len(ys):
        raise ValueError("x and y series lengths differ")
    xt = _ticks(min(xs), max(xs))
    yt = _ticks(min(ys), max(ys))
    x0, x1 = xt[0], xt[-1]
    y0, y1 = yt[0], yt[-1]

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = []
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" '
                 f'viewBox="0 0 {_W} {_H}">')
    parts.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" '
                 'fill="white"/>')
    parts.append(f'<text x="{_W // 2}" y="28" text-anchor="middle" '
                 'font-family="sans-serif" font-size="18">'
                 f'{title}</text>')
    # axes
    ax = (f'M {_ML} {_MT} L {_ML} {_H - _MB} L {_W - _MR} {_H - _MB}')
    parts.append(f'<path d="{ax}" stroke="black" fill="none" '
                 'stroke-width="1.5"/>')
    for v in xt:
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 24}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="13">{_fmt_tick(v)}</text>')
    for v in yt:
        y = py(v)
        parts.append(f'<line x1="{_ML - 6}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 10}" y="{y + 4:.2f}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="13">{_fmt_tick(v)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 16}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="15">{x_label}</text>')
    parts.append(f'<text x="22" y="{(_MT + _H - _MB) // 2}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="15" transform="rotate(-90 22 '
                 f'{(_MT + _H - _MB) // 2})">{y_label}</text>')
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" '
                 'stroke="#1f6fb2" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                     'fill="#1f6fb2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_series(records: Sequence[dict], kind: str):
    """Extract the (x, y) series for one plot kind, sorted by x, and
    its axis labels.

    Each kind reads the two fields of its `_PLOT_AXES` entry from the
    record dicts, and a record missing either value is skipped; an
    all-skipped or empty input raises EmptySeries.  sharpness-vs-aspect
    then derives its x, the aspect, from the sharpness ratio itself
    (aspect^2 = ratio - 1 exactly on flat tori, the family this plot is
    about).
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; "
                         f"choose from {', '.join(PLOT_KINDS)}")
    x_field, y_field, _, labels = _PLOT_AXES[kind]
    pts = [(x, y) for x, y in ((r.get(x_field), r.get(y_field))
                               for r in records)
           if x is not None and y is not None]
    if kind == "sharpness-vs-aspect":
        pts = [(math.sqrt(max(ratio - 1.0, 0.0)), ratio) for _, ratio in pts]
    if not pts:
        raise EmptySeries(f"no usable records for {kind}")
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return xs, ys, labels


def plot_paths(out_base: str) -> tuple:
    """The CSV and SVG paths that `emit_plot_data` writes for out_base."""
    return out_base + ".csv", out_base + ".svg"


def emit_plot_data(records: Sequence[dict], kind: str, out_base: str):
    """Write <out_base>.csv and <out_base>.svg for one plot kind.

    Returns the two paths.  Deterministic bytes for fixed records.
    """
    xs, ys, (xl, yl) = plot_series(records, kind)
    csv_path, svg_path = plot_paths(out_base)
    lines = [",".join(_PLOT_AXES[kind][2])]
    lines += [f"{repr(float(x))},{repr(float(y))}"
              for x, y in zip(xs, ys)]
    write_text("\n".join(lines) + "\n", csv_path)
    write_text(svg_line_chart(xs, ys, xl, yl, kind), svg_path)
    return csv_path, svg_path
