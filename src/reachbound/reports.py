"""Machine-readable outputs: verdict JSON, cell/point CSV dumps, SVG plots.

All writers are deterministic for fixed inputs: floats are emitted with
``repr`` (shortest round-trip form) in CSV/JSON and with a fixed ``%.6g``
format inside SVG geometry, and element order follows input order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional, Sequence

import numpy as np

from .intervals import Box
from .network import _index
from .topology import CellBatch
from .verifier import MonteCarloResult, Verdict

__all__ = [
    "verdict_document",
    "write_verdict",
    "write_reach_cells",
    "read_reach_cells",
    "write_certification",
    "write_mc_points",
    "read_mc_points",
    "render_svg",
]

# fixed legend: full-set cells blue, boundary/subset cells red,
# safe box green, Monte-Carlo points yellow
CELL_FULL_COLOR = "blue"
CELL_PARTIAL_COLOR = "red"
SAFE_COLOR = "green"
MC_COLOR = "yellow"


def verdict_document(verdict: Verdict) -> dict:
    """The verdict as JSON: its ``stats`` exactly as `verify` recorded them.

    A stat that `verify` does not record on a path is absent, not ``null``.
    """
    return {
        "status": verdict.status,
        "stats": dict(verdict.stats),
        "output_hull": None if verdict.output_hull is None else verdict.output_hull.bounds(),
        "counterexample": None
        if verdict.counterexample is None
        else [float(v) for v in verdict.counterexample],
    }


def write_verdict(verdict: Verdict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(verdict_document(verdict), fh, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reach_header(n: int, m: int) -> list[str]:
    return [f"idx{k}" for k in range(n)] + [f"out{j}_{e}" for j in range(m) for e in ("lo", "hi")]


def _mc_header(n: int, m: int) -> list[str]:
    return [f"x{k}" for k in range(n)] + [f"y{j}" for j in range(m)]


def write_reach_cells(batch: CellBatch, path) -> None:
    """Per-cell dump: grid indices then output hull bounds per dimension."""
    n, m = batch.index.shape[1], batch.out_lo.shape[1]
    bounds = np.stack([batch.out_lo, batch.out_hi], axis=2).reshape(batch.count, 2 * m)
    rows = zip(batch.index.tolist(), bounds.tolist())
    _write_csv(path, _reach_header(n, m), ([*i, *map(repr, b)] for i, b in rows))


def _read_csv(path):
    """(header, data rows) of a CSV with a header and rows of the header's length."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path}:{line}: {len(row)} fields, header has {len(rows[0])}")
    return rows[0], rows[1:]


def _refuse_non_finite(path, values: np.ndarray) -> np.ndarray:
    """``values``; a ValueError naming ``path`` if one is not finite, which no plot can place."""
    if not np.isfinite(values).all():
        raise ValueError(f"{path} holds a non-finite value")
    return values


def read_reach_cells(path):
    """Read a reach-cell CSV back into (indices, out_lo, out_hi) arrays.

    The header must be `write_reach_cells`' for n >= 1 inputs and m >= 1
    outputs, and every bound finite.
    """
    header, data = _read_csv(path)
    n = sum(1 for h in header if h.startswith("idx"))
    m = (len(header) - n) // 2
    if not (n and m and header == _reach_header(n, m)):
        raise ValueError(f"{path} is not a reach-cell CSV: its header is {','.join(header)!r}")
    idx = np.array([[int(r[k]) for k in range(n)] for r in data], dtype=int).reshape(len(data), n)
    lo = np.array([[float(r[n + 2 * j]) for j in range(m)] for r in data]).reshape(len(data), m)
    hi = np.array([[float(r[n + 2 * j + 1]) for j in range(m)] for r in data]).reshape(len(data), m)
    return idx, _refuse_non_finite(path, lo), _refuse_non_finite(path, hi)


def write_certification(index, det_lo, det_hi, certified, path) -> None:
    """Per-cell certification dump: indices, determinant bounds, verdict bit."""
    header = [f"idx{k}" for k in range(index.shape[1])] + ["det_lo", "det_hi", "certified"]
    rows = zip(index.tolist(), det_lo.tolist(), det_hi.tolist(), certified.tolist())
    _write_csv(path, header, ([*i, repr(lo), repr(hi), int(c)] for i, lo, hi, c in rows))


def write_mc_points(result: MonteCarloResult, path) -> None:
    header = _mc_header(result.points.shape[1], result.images.shape[1])
    rows = np.hstack([result.points, result.images]).tolist()
    _write_csv(path, header, ([repr(v) for v in row] for row in rows))


def read_mc_points(path) -> np.ndarray:
    """Read the image points (y columns) of an MC dump.

    The header must be `write_mc_points`' ``x`` columns then at least one
    ``y`` column, and every image value finite.
    """
    header, data = _read_csv(path)
    n = sum(1 for h in header if h.startswith("x"))
    m = len(header) - n
    if not (m and header == _mc_header(n, m)):
        raise ValueError(f"{path} is not an MC point CSV: its header is {','.join(header)!r}")
    points = np.array([[float(v) for v in r[n:]] for r in data]).reshape(len(data), m)
    return _refuse_non_finite(path, points)


# ---------------------------------------------------------------------------
# SVG rendering


_WIDTH, _HEIGHT, _MARGIN = 640.0, 480.0, 50.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    def __init__(self, xlim, ylim):
        self.xmin, self.xmax = xlim
        self.ymin, self.ymax = ylim

    def x(self, v: float) -> float:
        return _MARGIN + (v - self.xmin) / (self.xmax - self.xmin) * (_WIDTH - 2 * _MARGIN)

    def y(self, v: float) -> float:
        return _HEIGHT - _MARGIN - (v - self.ymin) / (self.ymax - self.ymin) * (
            _HEIGHT - 2 * _MARGIN
        )


def _expand(lim):
    """``lim`` padded 5% a side (a point by max(0.5, ulp) first); ValueError if the span overflows."""
    lo, hi = lim = tuple(map(float, lim))  # Python floats overflow to inf without a warning
    if lo == hi:
        lo, hi = lo - max(0.5, math.ulp(lo)), hi + max(0.5, math.ulp(hi))
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ValueError(f"render_svg cannot frame the span from {lim[0]!r} to {lim[1]!r}")
    return lo, hi


def render_svg(
    cell_layers: Sequence[tuple[str, np.ndarray, np.ndarray]] = (),
    mc_points: Optional[np.ndarray] = None,
    safe_box: Optional[Box] = None,
    proj: Optional[Sequence[int]] = None,
) -> str:
    """Render reach cells, MC image points and a safe box into an SVG string.

    `cell_layers` holds (color, out_lo, out_hi) triples with (N, m) bounds;
    `proj` names the two different output dimensions drawn, which every
    array and the safe box must have; ``None`` draws (0, 1) of data at most
    2 wide.  A bad `proj`, or a non-finite cell bound or MC point, which no
    plot can place, raises ValueError.
    """
    arrays = [a for _, lo, hi in cell_layers for a in (lo, hi)]
    arrays += [] if mc_points is None else [mc_points]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("render_svg needs finite cell bounds and MC points")
    widths = [a.shape[1] for a in arrays] + ([] if safe_box is None else [safe_box.dim])
    if proj is None and max(widths, default=0) > 2:
        raise ValueError("data has more than 2 output dimensions; name the two to draw in proj")
    px, py = proj = (0, 1) if proj is None else tuple(_index("proj", p) for p in proj)
    if px == py or max(proj) >= min(widths, default=np.inf):
        raise ValueError(f"proj {proj} needs two different output dimensions the data has")
    xs, ys = [], []
    for _, lo, hi in cell_layers:
        if lo.shape[0]:
            xs += [lo[:, px].min(), hi[:, px].max()]
            ys += [lo[:, py].min(), hi[:, py].max()]
    if mc_points is not None and mc_points.shape[0]:
        xs += [mc_points[:, px].min(), mc_points[:, px].max()]
        ys += [mc_points[:, py].min(), mc_points[:, py].max()]
    if safe_box is not None:
        xs += [safe_box.lo[px], safe_box.hi[px]]
        ys += [safe_box.lo[py], safe_box.hi[py]]
    frame = _Frame(
        _expand((min(xs), max(xs)) if xs else (0.0, 1.0)),
        _expand((min(ys), max(ys)) if ys else (0.0, 1.0)),
    )

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
    )
    out.write(
        f'<rect class="frame" x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN)}" '
        f'width="{_fmt(_WIDTH - 2 * _MARGIN)}" height="{_fmt(_HEIGHT - 2 * _MARGIN)}" '
        'fill="white" stroke="black"/>\n'
    )
    for color, lo, hi in cell_layers:
        for i in range(lo.shape[0]):
            x0, x1 = frame.x(lo[i, px]), frame.x(hi[i, px])
            y0, y1 = frame.y(hi[i, py]), frame.y(lo[i, py])
            out.write(
                f'<rect class="cell" x="{_fmt(x0)}" y="{_fmt(y0)}" '
                f'width="{_fmt(max(x1 - x0, 0.1))}" height="{_fmt(max(y1 - y0, 0.1))}" '
                f'fill="{color}" fill-opacity="0.45" stroke="none"/>\n'
            )
    if mc_points is not None:
        for p in mc_points:
            out.write(
                f'<circle class="mc" cx="{_fmt(frame.x(p[px]))}" cy="{_fmt(frame.y(p[py]))}" '
                f'r="1.2" fill="{MC_COLOR}"/>\n'
            )
    if safe_box is not None:
        x0, x1 = frame.x(safe_box.lo[px]), frame.x(safe_box.hi[px])
        y0, y1 = frame.y(safe_box.hi[py]), frame.y(safe_box.lo[py])
        out.write(
            f'<rect class="safe" x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="none" stroke="{SAFE_COLOR}" stroke-width="2"/>\n'
        )
    for label, sx, sy, anchor in (
        (_fmt(frame.xmin), _MARGIN, _HEIGHT - _MARGIN + 16, "start"),
        (_fmt(frame.xmax), _WIDTH - _MARGIN, _HEIGHT - _MARGIN + 16, "end"),
        (_fmt(frame.ymin), _MARGIN - 4, _HEIGHT - _MARGIN, "end"),
        (_fmt(frame.ymax), _MARGIN - 4, _MARGIN + 10, "end"),
    ):
        out.write(
            f'<text class="axis" x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="12" '
            f'text-anchor="{anchor}">{label}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()
