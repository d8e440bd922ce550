"""Trajectory CSV and SVG output.

Each writer writes the bytes of its file straight to the path it is given,
deterministically: identical trajectories produce byte-identical files.
Staging a command's outputs so that it writes all or none of them is the
command line's job (``geodisc.cli``).  The SVG side sticks to polyline and
circle primitives so no plotting dependency is needed.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

import numpy as np

from .hamiltonian import Trajectory

Array = np.ndarray

__all__ = [
    "trajectory_columns",
    "write_trajectory_csv",
    "read_csv_columns",
    "write_xy_svg",
    "write_bytes",
]


def write_bytes(path, chunks: Iterable[bytes]) -> None:
    """Write the byte strings in ``chunks``, in order, as the content of ``path``."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def trajectory_columns(n: int) -> list[str]:
    cols = ["t"]
    cols += [f"q{i}" for i in range(n)]
    cols += [f"qdot{i}" for i in range(n)]
    cols += [f"p0_{i}" for i in range(n)]
    cols += [f"p1_{i}" for i in range(n)]
    cols += [f"u{i}" for i in range(n)]
    cols += ["H", "clearance"]
    return cols


_CSV_BLOCK_CELLS = 2048


def write_trajectory_csv(path, traj: Trajectory, clearances=None) -> None:
    """One row per state: t, q, qdot, p0, p1, u, H, clearance, each number
    printed with ``%.17g``.

    The clearance cell is left blank when ``clearances`` is None (no obstacle
    in the problem)."""
    columns = [traj.times, traj.z, traj.controls, traj.energies]
    if clearances is not None:
        columns.append(np.asarray(clearances, dtype=float))
    table = np.column_stack(columns)
    seps = b",\0\0\0" * (table.shape[1] - 1) + (b"\n\0\0\0" if clearances is not None else b",\n\0\0")
    rows = max(1, _CSV_BLOCK_CELLS // table.shape[1])
    words = np.tile(np.frombuffer(seps, np.uint32), rows)
    # A block of rows at a time (about 400 bytes of temporaries a cell), never the whole text.
    blocks = (_g17(table[i : i + rows].ravel(), words) for i in range(0, table.shape[0], rows))
    write_bytes(path, itertools.chain([(",".join(trajectory_columns(traj.n)) + "\n").encode()], blocks))


# ---------------------------------------------------------------------------
# '%.17g' of an array of cells: a finite v prints in fixed notation when its
# 17 significant digits, D with |v| ~ D 10^(E - 16), have E in [-4, 16].  D is
# |v| 10^(16 - E) rounded half to even, exactly: Dekker's product of |v| and
# the double 10^(16 - E) is hi + lo with hi an even integer above 2^53, so
# hi + rint(lo) rounds it.  The doubles 1e-5 .. 1e16 are each the least double
# >= its power of ten, so they give E exactly.

_POW10 = 10.0 ** np.arange(22)
_DECADES = np.array([float(f"1e{E}") for E in range(-5, 17)])


def _split(a: Array) -> tuple[Array, Array]:
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    hi = (2.0**27 + 1.0) * a
    hi -= hi - a
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@lru_cache(maxsize=1)
def _g17_tables() -> tuple[Array, Array, Array]:
    """The 4-digit groups as words, their trailing zeros (4 for 0000), and the
    source byte of each output byte (sign, 23 of number, separator) by (E + 4, tz)."""
    d = np.arange(48, 58, dtype=np.uint8)
    quads = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    z = np.arange(10) == 0
    trailing = (z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))).reshape(-1)
    e, tz = (a.reshape(-1, 1) for a in np.meshgrid(np.arange(-4, 17), np.arange(17), indexing="ij"))
    j, whole, keep = np.arange(23), np.maximum(e, 0) + 1, np.maximum(e + 1, 17 - tz)  # digits printed
    digit = np.where(j < whole, j, j - 1) + np.minimum(e, 0)  # negative for the zeros of E < 0
    point = (j == whole) & (keep > np.maximum(e + 1, 0))  # when a digit follows it
    number = np.select([point, j == whole, digit < 0, digit >= keep], [25, 22, 0, 22], digit + 3)
    return quads.view(np.uint32)[:, 0], trailing, np.hstack([np.full((357, 1), 24), number, np.tile([20, 21], (357, 1))])


def _g17(v: Array, separators: Array) -> bytes:
    """``b"%.17g" % x`` for every x of the 1-d float array v, each followed by
    its separator ``separators[i]`` (up to 2 bytes padded with NUL to a uint32);
    values printed in exponent form or not finite are formatted by ``%``."""
    quads, trailing, layouts = _g17_tables()
    fixed = (np.abs(v) >= 1e-5) & (np.abs(v) < 1e17)
    a = np.where(fixed, np.abs(v), 1.0)
    e = np.searchsorted(_DECADES, a, side="right") - 6
    a_hi, a_lo = _split(a)
    b, b_hi, b_lo = _POW10[16 - e], _POW10_HI[16 - e], _POW10_LO[16 - e]
    hi = a * b
    D = hi.astype(np.int64) + np.rint(((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo).astype(np.int64)
    carry = D == 10**17  # rounded up to the next power of ten
    D, e = np.where(carry, 10**16, D) * (v != 0), e + carry  # "0" and "-0" take E = 0
    fixed = (fixed & (e >= -4) & (e <= 16)) | (v == 0)
    top, bottom = np.divmod(D, 10**8)
    d0, top = np.divmod(top, 10**8)
    digits = (d0,) + np.divmod(top, 10**4) + np.divmod(bottom, 10**4)
    # A cell's source row: "000", digits 0-16, separator, NUL NUL, "-" or NUL, ".", NUL NUL.
    signs = np.where(np.signbit(v), *np.frombuffer(b"-.\0\0\0.\0\0", np.uint32))
    src = np.stack([*(quads[g] for g in digits), separators[: v.size], signs], axis=1).view(np.uint8)
    t = trailing[np.stack(digits[4:0:-1])]  # trailing zeros of digits 13-16, 9-12, 5-8, 1-4
    tz = t[0] + (t[0] == 4) * (t[1] + (t[1] == 4) * (t[2] + (t[2] == 4) * t[3]))
    index = layouts[np.where(fixed, (e + 4) * 17 + tz, 0)]
    index += np.arange(0, 28 * v.size, 28)[:, None]
    out = np.take(src, index)
    cells = np.array([b"%.17g" % x for x in v[~fixed].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
    out[~fixed] = np.concatenate([cells, src[~fixed, 20:22]], axis=1)
    return out[out != 0].tobytes()


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

    def to_px(x, y):  # one point, or arrays of them
        return (off_x + scale * (x - xs[0]), size - off_y - scale * (y - ys[0]))

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
    )
    if circle is not None:
        tag = '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="none" stroke="#c0392b" stroke-width="1.5"/>\n'
        head += tag % (*to_px(cx, cy), scale * r)
    pixels = np.column_stack(to_px(xy[:, 0], xy[:, 1])).ravel().tolist()
    points = (b"%.3f,%.3f " * len(xy) % tuple(pixels))[:-1]
    tail = b'" fill="none" stroke="#2c3e50" stroke-width="1.5"/>\n</svg>\n'
    write_bytes(path, [head.encode(), b'<polyline points="', points, tail])
