"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output must be byte-identical across runs
and platforms for the reproducibility contract, so no plotting library
(with its fonts, ids and version strings) is involved. Coordinates are
written with fixed decimal formatting and the file carries no
timestamps or generated identifiers.
"""

from __future__ import annotations

import csv
import html
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_escape = partial(html.escape, quote=False)  # text content: &, < and > only

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 72.0
MARGIN_RIGHT = 18.0
MARGIN_TOP = 32.0
MARGIN_BOTTOM = 52.0


class PlotDataError(ValueError):
    """A referenced column is missing or unusable."""


@dataclass(frozen=True)
class Layer:
    """One plotted series: y column against the figure's x column,
    optionally with a shaded (lo, hi) band from companion columns."""

    source: int
    y: str
    label: str
    band: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class PlotSpec:
    x: str
    layers: tuple[Layer, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    log_x: bool = False
    log_y: bool = False

    def __post_init__(self):
        if not self.layers:
            raise ValueError("plot needs at least one layer")


def read_columns(path) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PlotDataError(f"{path}: no header row")
        cols: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in reader.fieldnames:
                raw = row[name]
                try:
                    cols[name].append(float(raw))
                except (TypeError, ValueError):
                    cols[name].append(math.nan)
    return cols


def _column(table, name, path_hint):
    if name not in table:
        raise PlotDataError(f"column {name!r} not found in {path_hint}")
    return table[name]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1)
            if lo / 1.001 <= 10.0 ** e <= hi * 1.001]


def _tick_label(v: float, log_axis: bool) -> str:
    if log_axis:
        exp = round(math.log10(v))
        return f"1e{exp:+03d}" if abs(10.0 ** exp / v - 1.0) < 1e-9 else f"{v:.3g}"
    return f"{v:.6g}"


class _Axis:
    def __init__(self, lo, hi, log, pix_lo, pix_hi):
        if log:
            if hi <= 0.0:
                raise PlotDataError("log axis needs positive data")
            lo = max(lo, hi * 1e-12)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi - self.lo < 1e-300:
            self.hi = self.lo + 1.0
        self.log = log
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v: float) -> float:
        x = math.log10(v) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def data_ticks(self):
        if self.log:
            return _log_ticks(10.0 ** self.lo, 10.0 ** self.hi)
        return _nice_ticks(self.lo, self.hi)


def _finite_pairs(xs, ys, log_x, log_y):
    out = []
    for x, y in zip(xs, ys):
        if math.isnan(x) or math.isnan(y):
            continue
        if log_x and x <= 0.0:
            continue
        if log_y and y <= 0.0:
            continue
        out.append((x, y))
    return out


def emit_plot(csv_paths: Sequence, spec: PlotSpec, out_path) -> None:
    """Render the layered plot of the given CSV files to an SVG file."""
    tables = [read_columns(p) for p in csv_paths]
    series = []
    for layer in spec.layers:
        if not (0 <= layer.source < len(tables)):
            raise PlotDataError(f"layer source {layer.source} out of range")
        table = tables[layer.source]
        hint = csv_paths[layer.source]
        xs = _column(table, spec.x, hint)
        ys = _column(table, layer.y, hint)
        pts = _finite_pairs(xs, ys, spec.log_x, spec.log_y)
        band_pts = None
        if layer.band is not None:
            los = _column(table, layer.band[0], hint)
            his = _column(table, layer.band[1], hint)
            lo_pairs = _finite_pairs(xs, los, spec.log_x, spec.log_y)
            hi_pairs = _finite_pairs(xs, his, spec.log_x, spec.log_y)
            if len(lo_pairs) == len(hi_pairs) and lo_pairs:
                band_pts = (lo_pairs, hi_pairs)
        if not pts:
            raise PlotDataError(f"no plottable data for column {layer.y!r} in {hint}")
        series.append((layer, pts, band_pts))

    all_x = [p[0] for _, pts, band in series for p in pts]
    all_y = [p[1] for _, pts, band in series for p in pts]
    for _, _, band in series:
        if band:
            all_y.extend(v for _, v in band[0])
            all_y.extend(v for _, v in band[1])
    x_axis = _Axis(min(all_x), max(all_x), spec.log_x,
                   MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y_axis = _Axis(min(all_y), max(all_y), spec.log_y,
                   HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    parts = []
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                 f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if spec.title:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{_escape(spec.title)}</text>')

    for tv in x_axis.data_ticks():
        px = x_axis.to_pix(tv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(px)}" '
                     f'y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_BOTTOM + 16)}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{_escape(_tick_label(tv, spec.log_x))}</text>')
    for tv in y_axis.data_ticks():
        py = y_axis.to_pix(tv)
        parts.append(f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" y2="{_fmt(py)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(MARGIN_LEFT - 6)}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11">'
                     f'{_escape(_tick_label(tv, spec.log_y))}</text>')

    frame = (f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
             f'width="{_fmt(WIDTH - MARGIN_LEFT - MARGIN_RIGHT)}" '
             f'height="{_fmt(HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)}" '
             f'fill="none" stroke="#000000" stroke-width="1"/>')
    parts.append(frame)

    for idx, (layer, pts, band) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if band is not None:
            lo_pairs, hi_pairs = band
            ring = lo_pairs + hi_pairs[::-1]
            coords = " ".join(f"{_fmt(x_axis.to_pix(x))},{_fmt(y_axis.to_pix(y))}"
                              for x, y in ring)
            parts.append(f'<polygon points="{coords}" fill="{color}" '
                         f'fill-opacity="0.20" stroke="none"/>')
        coords = " ".join(f"{_fmt(x_axis.to_pix(x))},{_fmt(y_axis.to_pix(y))}"
                          for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if len(pts) <= 64:
            for x, y in pts:
                parts.append(f'<circle cx="{_fmt(x_axis.to_pix(x))}" '
                             f'cy="{_fmt(y_axis.to_pix(y))}" r="2.5" fill="{color}"/>')

    if spec.x_label:
        parts.append(f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.1f}" '
                     f'y="{HEIGHT - 14}" text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_escape(spec.x_label)}</text>')
    if spec.y_label:
        cx, cy = 16, (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2
        parts.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(spec.y_label)}</text>')

    legend_x = WIDTH - MARGIN_RIGHT - 170
    legend_y = MARGIN_TOP + 10
    for idx, (layer, _, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = legend_y + 16 * idx
        parts.append(f'<line x1="{_fmt(legend_x)}" y1="{_fmt(ly)}" '
                     f'x2="{_fmt(legend_x + 22)}" y2="{_fmt(ly)}" '
                     f'stroke="{color}" stroke-width="2" class="legend"/>')
        parts.append(f'<text x="{_fmt(legend_x + 28)}" y="{_fmt(ly + 4)}" '
                     f'font-family="sans-serif" font-size="11">{_escape(layer.label)}</text>')

    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
