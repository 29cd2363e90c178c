"""Deterministic figure output from a diagram CSV: scatter and barcode SVGs,
and the PNG of its persistence image.

SVG files are assembled as plain text and PNG pixels go through a minimal
encoder, so reruns write byte-identical files, through ``write_atomic``.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .homology import PersistenceDiagram
from .vectorize import WeightParams, birth_persistence_transform, persistence_image

_SIZE = 480
_MARGIN = 50
_COLORS = {0: "#1f77b4", 1: "#d62728"}


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def _finite_max(diagram: PersistenceDiagram) -> float:
    vals = [v for _, b, d in diagram.features for v in (b, d) if math.isfinite(v)]
    return max(vals) if vals else 1.0


def plot_diagram(diagram: PersistenceDiagram, path) -> None:
    """Birth/death scatter with the diagonal; infinite deaths sit on the top edge."""
    hi = _finite_max(diagram) * 1.05 or 1.0
    span = _SIZE - 2 * _MARGIN

    def sx(v):
        return _MARGIN + span * v / hi

    def sy(v):
        return _SIZE - _MARGIN - span * v / hi

    parts = _svg_header(_SIZE, _SIZE)
    parts.append(f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
                 f'stroke="#999999" stroke-dasharray="4 3"/>')
    parts.append(f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_SIZE - _MARGIN}" '
                 f'y2="{_SIZE - _MARGIN}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_MARGIN}" '
                 f'y2="{_MARGIN}" stroke="black"/>')
    for dim, birth, death in diagram.sorted_features():
        y = hi if math.isinf(death) else death
        marker = "none" if math.isinf(death) else _COLORS.get(dim, "#333333")
        stroke = _COLORS.get(dim, "#333333")
        parts.append(f'<circle cx="{sx(birth):.2f}" cy="{sy(y):.2f}" r="4" '
                     f'fill="{marker}" stroke="{stroke}"/>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


def plot_barcode(diagram: PersistenceDiagram, path) -> None:
    """One horizontal bar per feature, grouped by dimension."""
    hi = _finite_max(diagram) * 1.05 or 1.0
    feats = diagram.sorted_features()
    height = max(2 * _MARGIN + 12 * max(len(feats), 1), 160)
    span = _SIZE - 2 * _MARGIN

    def sx(v):
        return _MARGIN + span * min(v, hi) / hi

    parts = _svg_header(_SIZE, height)
    parts.append(f'<line x1="{_MARGIN}" y1="{height - _MARGIN}" x2="{_SIZE - _MARGIN}" '
                 f'y2="{height - _MARGIN}" stroke="black"/>')
    for row, (dim, birth, death) in enumerate(feats):
        y = _MARGIN + 12 * row
        end = hi if math.isinf(death) else death
        parts.append(f'<line x1="{sx(birth):.2f}" y1="{y}" x2="{sx(end):.2f}" y2="{y}" '
                     f'stroke="{_COLORS.get(dim, "#333333")}" stroke-width="3"/>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


def write_png_gray(pixels: np.ndarray, path) -> None:
    """8-bit grayscale PNG from a [0, 1] intensity grid (row 0 at the bottom)."""
    arr = np.asarray(pixels, dtype=float)
    if arr.ndim != 2:
        raise ValueError("need a 2-D intensity grid")
    img = np.clip(arr, 0.0, 1.0)
    data = (img[::-1] * 255).round().astype(np.uint8)
    h, w = data.shape
    raw = b"".join(b"\x00" + data[r].tobytes() for r in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        out = struct.pack(">I", len(payload)) + tag + payload
        return out + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)

    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    png = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
           + chunk(b"IDAT", zlib.compress(raw, 9)) + chunk(b"IEND", b""))
    write_atomic(path, png)


def _read(path, parse):
    """``parse(path)``; a ValueError it raises is raised again naming ``path``."""
    try:
        return parse(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def plot(artifact_path, kind: str, out_path) -> None:
    """Render a diagram CSV as a ``diagram`` or ``barcode`` SVG, or as the PNG of
    its persistence ``image`` under the vectorize_meta.json of its run directory."""
    if kind not in ("diagram", "barcode", "image"):
        raise ValueError(f"unknown artifact type {kind!r}")
    diagram = _read(artifact_path, PersistenceDiagram.from_csv)
    if kind == "diagram":
        plot_diagram(diagram, out_path)
    elif kind == "barcode":
        plot_barcode(diagram, out_path)
    else:  # subject_diagrams/<sid>.csv and diagrams/<sid>_<idx>.csv sit one below the run
        meta_path = Path(artifact_path).resolve().parents[1] / "vectorize_meta.json"
        meta = _read(meta_path, lambda p: json.loads(p.read_text()))
        if not (isinstance(meta, dict) and meta.keys() >= {"grid", "extent", "sigma", "weights"}):
            raise ValueError(f"{meta_path} has no image grid or settings; delete it and run "
                             "vectorize again")
        write_png_gray(persistence_image(birth_persistence_transform(diagram.finite_bars(1)),
                                         meta["grid"], meta["extent"], meta["sigma"],
                                         WeightParams(**meta["weights"])), out_path)
