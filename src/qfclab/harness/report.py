"""Byte-stable result files: results.csv, curves.csv, thresholds.csv, and SVG charts.

results.csv is the normative output (every figure is derivable from it plus
curves.csv); the SVGs are best-effort line charts with +-1 std bands.  Every
CSV is written by :func:`render_csv` from one column declaration, and the
files read back (results.csv, curves.csv) by :func:`parse_csv` from the same
one: results.csv's columns are the :class:`CellResult` fields bar the curve,
in declaration order.  Floats print ``.17g`` so files round-trip losslessly
and regenerate byte-identically from unchanged inputs.  The command line's
sweep also writes manifest.txt, what made the results (:func:`sweep_manifest`).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import platform
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .. import __version__
from .config import ConfigError, SweepConfig, format_config
from .evaluate import CellResult, cell_label

#: results.csv columns: the CellResult fields bar the curve, which curves.csv holds
RESULT_COLUMNS = {
    name: kind for name, kind in get_type_hints(CellResult).items() if name != "fidelity_curve"
}
CURVE_COLUMNS = {
    "scenario": str, "noise": str, "alpha": float, "epsilon": float,
    "t": int, "mean_fidelity": float,
}
THRESHOLD_COLUMNS = ("scenario", "noise", "epsilon", "threshold_alpha")


def _field(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def render_csv(columns, rows) -> str:
    """A header line of column names, then one line per row.

    Floats print ``.17g`` (exact round trip, ``nan``/``inf`` included), ints
    and strings as they are, and ``None`` as an empty field.
    """
    lines = [",".join(columns)]
    lines.extend(",".join(_field(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_csv(text: str, columns: dict[str, type]) -> list[tuple]:
    """Inverse of :func:`render_csv` for non-empty fields of the given types."""
    lines = text.strip().splitlines()
    header = ",".join(columns)
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header mismatch: expected {header!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"expected {len(columns)} columns, got {len(parts)}: {line!r}")
        rows.append(tuple(kind(part) for kind, part in zip(columns.values(), parts)))
    return rows


def _sorted_cells(results: list[CellResult]) -> list[CellResult]:
    return sorted(results, key=lambda c: c.key())


def render_results_csv(results: list[CellResult]) -> str:
    return render_csv(
        RESULT_COLUMNS,
        ([getattr(c, name) for name in RESULT_COLUMNS] for c in _sorted_cells(results)),
    )


def render_curves_csv(results: list[CellResult]) -> str:
    return render_csv(
        CURVE_COLUMNS,
        (
            (*c.key(), t, value)
            for c in _sorted_cells(results)
            for t, value in enumerate(c.fidelity_curve)
        ),
    )


def render_thresholds_csv(summary: dict[tuple, float | None]) -> str:
    return render_csv(THRESHOLD_COLUMNS, ((*key, alpha) for key, alpha in sorted(summary.items())))


def parse_results_csv(text: str, curves_text: str | None = None) -> list[CellResult]:
    """Inverse of render_results_csv (+ render_curves_csv when provided)."""
    curves: dict[tuple, list[float]] = {}
    for *key, _, value in parse_csv(curves_text, CURVE_COLUMNS) if curves_text else ():
        curves.setdefault(tuple(key), []).append(value)
    cells = (CellResult(**dict(zip(RESULT_COLUMNS, row))) for row in parse_csv(text, RESULT_COLUMNS))
    return [replace(c, fidelity_curve=tuple(curves.get(c.key(), ()))) for c in cells]


def read_results_dir(results_dir) -> list[CellResult] | None:
    """The cells of a sweep output directory: results.csv, with curves.csv when
    present; None when there is no results.csv."""
    results_path = Path(results_dir) / "results.csv"
    if not results_path.exists():
        return None
    curves_path = results_path.with_name("curves.csv")
    curves_text = curves_path.read_text() if curves_path.exists() else None
    return parse_results_csv(results_path.read_text(), curves_text)


def check_curves(cells: list[CellResult]) -> None:
    """Raise :class:`ConfigError` naming the first cell whose curve has other
    than the points of the longest (a horizon of at least one step), or any
    when every episode of the cell aborted."""
    horizon = max([1] + [len(cell.fidelity_curve) - 1 for cell in cells])
    for cell in cells:
        points, want = len(cell.fidelity_curve), cell.curve_points(horizon)
        if points != want:
            needs = want if points else "a curve"
            raise ConfigError(f"cell {cell_label(cell.key())} has {cell.episodes} completed "
                              f"episodes and {points} curve points, but needs {needs}; "
                              f"is curves.csv missing or cut short?")


def sweep_manifest(cfg: SweepConfig) -> str:
    """The config, then the qfclab, numpy and Python versions and the digest of
    the package source: what a sweep's results depend on."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    versions = (("qfclab", __version__), ("numpy", np.__version__),
                ("python", platform.python_version()), ("src_sha256", digest.hexdigest()))
    return format_config(cfg) + "\n[provenance]\n" + "".join(f"{k} = {v}\n" for k, v in versions)


def check_manifest(results_dir, manifest: str) -> None:
    """Raise :class:`ConfigError` unless ``results_dir`` holds ``manifest`` as manifest.txt,
    naming the first line that differs."""
    path = Path(results_dir) / "manifest.txt"
    if not path.exists():
        raise ConfigError(f"{path} is missing, so the results beside it cannot be resumed; "
                          f"move them away to recompute them")
    lines = itertools.zip_longest(path.read_text().splitlines(), manifest.splitlines(),
                                  fillvalue="<end of file>")
    for lineno, (got, want) in enumerate(lines, start=1):
        if got != want:
            raise ConfigError(f"{path} line {lineno} reads {got!r}, but this sweep's is "
                              f"{want!r}; move the results away to recompute them")


# -- minimal SVG line charts --

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48  # margins


def _x_pos(alpha: float, lo: float, hi: float) -> float:
    span = (hi - lo) or 1.0
    return _ML + (alpha - lo) / span * (_W - _ML - _MR)

def _y_pos(value: float, lo: float, hi: float) -> float:
    span = (hi - lo) or 1.0
    return _H - _MB - (value - lo) / span * (_H - _MT - _MB)


def _svg_chart(title: str, ylabel: str, series: list[dict], y_range: tuple[float, float]) -> str:
    """series: [{label, alphas, means, stds, color}], NaNs dropped per point."""
    alphas_all = [a for s in series for a in s["alphas"]]
    lo_x, hi_x = (min(alphas_all), max(alphas_all)) if alphas_all else (0.0, 1.0)
    lo_y, hi_y = y_range
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.6g}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2:.6g}" y="{_H - 12}" text-anchor="middle">noise strength alpha</text>',
        f'<text x="16" y="{_H / 2:.6g}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.6g})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = lo_x + frac * (hi_x - lo_x)
        yv = lo_y + frac * (hi_y - lo_y)
        xp, yp = _x_pos(xv, lo_x, hi_x), _y_pos(yv, lo_y, hi_y)
        parts.append(
            f'<text x="{xp:.6g}" y="{_H - _MB + 16}" text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{yp + 4:.6g}" text-anchor="end">{yv:.3g}</text>'
        )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = [
            (a, m, sd)
            for a, m, sd in zip(s["alphas"], s["means"], s["stds"])
            if math.isfinite(m)
        ]
        if not points:
            continue
        band_up = [
            f"{_x_pos(a, lo_x, hi_x):.6g},{_y_pos(min(m + sd, hi_y), lo_y, hi_y):.6g}"
            for a, m, sd in points
        ]
        band_down = [
            f"{_x_pos(a, lo_x, hi_x):.6g},{_y_pos(max(m - sd, lo_y), lo_y, hi_y):.6g}"
            for a, m, sd in reversed(points)
        ]
        parts.append(
            f'<polygon points="{" ".join(band_up + band_down)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        line = " ".join(
            f"{_x_pos(a, lo_x, hi_x):.6g},{_y_pos(min(max(m, lo_y), hi_y), lo_y, hi_y):.6g}"
            for a, m, _ in points
        )
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 14 * (i + 1)
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 126}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly + 4}">{s["label"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _series_for(results: list[CellResult], noise: str, metric: str) -> list[dict]:
    by_curve: dict[tuple, list[CellResult]] = {}
    for c in results:
        if c.noise != noise:
            continue
        by_curve.setdefault((c.scenario, c.epsilon), []).append(c)
    series = []
    for (scenario, epsilon), cells in sorted(by_curve.items()):
        cells = sorted(cells, key=lambda c: c.alpha)
        if metric == "fidelity":
            means = [c.mean_fidelity for c in cells]
            stds = [c.std_fidelity for c in cells]
        else:
            means = [c.mean_steps_to_threshold for c in cells]
            stds = [c.std_steps_to_threshold for c in cells]
        series.append(
            {
                "label": f"{scenario} eps={epsilon:g}",
                "alphas": [c.alpha for c in cells],
                "means": means,
                "stds": stds,
            }
        )
    return series


def emit_report(results: list[CellResult], summary: dict[tuple, float | None], out_dir) -> list[str]:
    """Write the three CSVs plus one SVG per (noise, metric); returns written paths."""
    if not results:
        raise ValueError("no results to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in [
        ("results.csv", render_results_csv(results)),
        ("curves.csv", render_curves_csv(results)),
        ("thresholds.csv", render_thresholds_csv(summary)),
    ]:
        (out / name).write_text(text)
        written.append(str(out / name))
    noises = sorted({c.noise for c in results})
    horizons = [len(c.fidelity_curve) - 1 for c in results if c.fidelity_curve]
    max_steps = float(max(horizons)) if horizons else 20.0
    for noise in noises:
        for metric, ylabel, y_range in [
            ("fidelity", "mean terminal fidelity", (0.0, 1.0)),
            ("steps", "mean steps to threshold", (0.0, max_steps)),
        ]:
            series = _series_for(results, noise, metric)
            svg = _svg_chart(f"{noise} ({metric})", ylabel, series, y_range)
            path = out / f"{noise}_{metric}.svg"
            path.write_text(svg)
            written.append(str(path))
    return written
