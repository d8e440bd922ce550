"""Trajectory CSV and SVG output.

Files are written atomically (temp file in the target directory, then rename)
and deterministically: identical trajectories produce byte-identical files.
The SVG side sticks to polyline and circle primitives so no plotting
dependency is needed.
"""
from __future__ import annotations

import itertools
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .hamiltonian import Trajectory

__all__ = [
    "trajectory_columns",
    "write_trajectory_csv",
    "read_csv_columns",
    "write_xy_svg",
]


def _atomic_write_text(path, chunks: Iterable[str]) -> None:
    """Write the strings in ``chunks``, in order, as the new content of ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".geodisc-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_CSV_BLOCK_ROWS = 256


def trajectory_columns(n: int) -> list[str]:
    cols = ["t"]
    cols += [f"q{i}" for i in range(n)]
    cols += [f"qdot{i}" for i in range(n)]
    cols += [f"p0_{i}" for i in range(n)]
    cols += [f"p1_{i}" for i in range(n)]
    cols += [f"u{i}" for i in range(n)]
    cols += ["H", "clearance"]
    return cols


def write_trajectory_csv(path, traj: Trajectory, clearances=None) -> None:
    """One row per state: t, q, qdot, p0, p1, u, H, clearance, each number
    printed with ``%.17g``.

    The clearance cell is left blank when ``clearances`` is None (no obstacle
    in the problem)."""
    columns = [traj.times, traj.z, traj.controls, traj.energies]
    if clearances is not None:
        columns.append(np.asarray(clearances, dtype=float))
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + ("," if clearances is None else "") + "\n"
    # Formatted a block of rows at a time, so the whole text never sits in memory.
    blocks = (
        "".join(row % tuple(values) for values in table[i : i + _CSV_BLOCK_ROWS].tolist())
        for i in range(0, table.shape[0], _CSV_BLOCK_ROWS)
    )
    _atomic_write_text(path, itertools.chain([",".join(trajectory_columns(traj.n)) + "\n"], blocks))


def read_csv_columns(path) -> dict[str, list[str]]:
    """Read a header+rows CSV into raw string columns.

    Cells are kept as strings so blank entries stay distinguishable.  Raises
    ValueError on an empty file or a ragged row.
    """
    with open(path, "r") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip() != ""]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = rows[0]
    cols: dict[str, list[str]] = {name: [] for name in header}
    if len(cols) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
        for name, cell in zip(header, row):
            cols[name].append(cell)
    return cols


def write_xy_svg(path, xy, circle=None, size: int = 560, margin: int = 40) -> None:
    """Plot a planar path as one polyline, plus the obstacle disk boundary.

    ``xy`` is an (N, 2) array; ``circle`` an optional (cx, cy, radius).  The
    viewport preserves aspect ratio and flips y so the picture matches the
    usual plane orientation.
    """
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 1:
        raise ValueError("xy must be an (N, 2) array with N >= 1")
    xs = [xy[:, 0].min(), xy[:, 0].max()]
    ys = [xy[:, 1].min(), xy[:, 1].max()]
    if circle is not None:
        cx, cy, r = (float(v) for v in circle)
        xs = [min(xs[0], cx - r), max(xs[1], cx + r)]
        ys = [min(ys[0], cy - r), max(ys[1], cy + r)]
    span_x = max(xs[1] - xs[0], 1e-9)
    span_y = max(ys[1] - ys[0], 1e-9)
    scale = min((size - 2 * margin) / span_x, (size - 2 * margin) / span_y)
    # Center the drawing inside the square viewport.
    off_x = (size - scale * span_x) / 2.0
    off_y = (size - scale * span_y) / 2.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (off_x + scale * (x - xs[0]), size - off_y - scale * (y - ys[0]))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if circle is not None:
        px, py = to_px(cx, cy)
        parts.append(
            '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="none" stroke="#c0392b" stroke-width="1.5"/>'
            % (px, py, scale * r)
        )
    points = " ".join("%.3f,%.3f" % to_px(x, y) for x, y in xy)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#2c3e50" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    _atomic_write_text(path, ["\n".join(parts) + "\n"])
