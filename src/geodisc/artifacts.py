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
    return ["t"] + [f"{name}{i}" for name in ("q", "qdot", "p0_", "p1_", "u") for i in range(n)] + ["H", "clearance"]


_CSV_BLOCK_CELLS = 4096


def write_trajectory_csv(path, traj: Trajectory, clearances=None) -> None:
    """One row per state: t, q, qdot, p0, p1, u, H, clearance, each number
    printed with ``%.17g``.

    The clearance cell is left blank when ``clearances`` is None (no obstacle
    in the problem); a wrong count of clearances raises ValueError before writing."""
    columns, N = [traj.z, traj.controls, traj.energies[:, None]], len(traj.z)
    if clearances is not None:
        columns.append(np.asarray(clearances, dtype=float).reshape(-1, 1))
        if len(columns[-1]) != N:
            raise ValueError(f"{len(columns[-1])} clearances for {N} states")
    width = 1 + sum(c.shape[1] for c in columns)
    seps = b",\0\0\0" * (width - 1) + (b"\n\0\0\0" if clearances is not None else b",\n\0\0")
    rows = max(1, _CSV_BLOCK_CELLS // width)
    words, table = np.tile(np.frombuffer(seps, np.uint32), rows), np.empty((rows, width))
    text = bytearray(48 * table.size)  # every full block's templates, reused: a fresh buffer a block faults in pages

    def blocks():  # a block of rows at a time, stacked into one buffer (with its templates, about 170 bytes a cell)
        for i in range(0, N, rows):
            block = table[: min(rows, N - i)]
            np.multiply(traj.h, np.arange(i, i + len(block)), out=block[:, 0])  # the bits of traj.times
            np.concatenate([c[i : i + len(block)] for c in columns], axis=1, out=block[:, 1:])
            yield _g17(block.ravel(), words, text if block.size == table.size else None)

    write_bytes(path, itertools.chain([(",".join(trajectory_columns(traj.n)) + "\n").encode()], blocks()))


# ---------------------------------------------------------------------------
# '%.17g' of an array of cells: a finite v prints in fixed notation when its 17 significant digits,
# D with |v| ~ D 10^(E - 16), have E in [-4, 16].  D is |v| 10^(16 - E) rounded half to even, exactly:
# Dekker's product of |v| and the double 10^(16 - E) is hi + lo with hi an even integer above 2^53, so
# hi + rint(lo) rounds it.  E is floor((x - 1) log10 2) for |v| in [2^(x - 1), 2^x), or one more: the
# doubles 1e-5 .. 1e17 are each the least double >= its power of ten, so one comparison tells.  Such a
# cell is a subsequence of a 48-byte template of six words: "-0.000", the 17 digits each followed by a
# '.' slot, the separator and NUL padding.  A mask looked up by (E, the trailing zeros of D, sign) zeroes
# the other bytes, and one translate drops every NUL: no printed byte is NUL.

_POW10 = 10.0 ** np.arange(22)
_DECADES = np.array([float(f"1e{E}") for E in range(-5, 18)])


def _split(a: Array) -> tuple[Array, Array]:
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    hi = (2.0**27 + 1.0) * a
    hi -= hi - a
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: Array, i: Array) -> Array:
    """a 10^i rounded half to even, as int64: Dekker's exact product hi + lo, then hi + rint(lo)."""
    (a_hi, a_lo), b_hi, b_lo = _split(a), _POW10_HI.take(i), _POW10_LO.take(i)
    hi = a * _POW10.take(i)
    return hi.astype(np.int64) + np.rint(((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo).astype(np.int64)


@lru_cache(maxsize=1)
def _g17_tables() -> tuple[Array, Array, Array]:
    """The 4-digit groups as template words (each digit, then a '.' slot), their trailing
    zeros (4 for 0000), and the 0x00/0xFF keep-mask words of a template by (E + 4, tz, sign)."""
    d = np.arange(10_000)
    groups = sum((d // 10 ** (3 - i) % 10 + 48 << 16 * i) + (46 << 16 * i + 8) for i in range(4))
    trailing = sum(d % 10**i == 0 for i in range(1, 5))
    E, tz, sign, p = np.ix_(np.arange(-4, 17), np.arange(17), np.arange(2), np.arange(48))
    j, keep = (p - 6) // 2, np.maximum(E + 1, 17 - tz)  # digit j sits at byte 6 + 2j; digits printed
    mask = ((p == 0) & (sign == 1)) | ((E < 0) & (p >= 1) & (p < 2 - E)) | (p >= 40)  # the separator word: NUL-padded
    number = (p >= 6) & (p < 40) & np.where(p % 2 == 0, j < keep, (j == E) & (keep > E + 1))
    return groups, trailing.astype(np.int8), (255 * (mask | number).astype(np.uint8)).reshape(-1, 48).view(np.int64)


def _g17(v: Array, separators: Array, text: bytearray | None = None) -> bytearray:
    """``b"%.17g" % x`` for every x of the 1-d float array v, each followed by its separator ``separators[i]``
    (up to 2 bytes padded with NUL to a uint32), through templates written into ``text`` (48 v.size bytes, a new
    bytearray when None); values printed in exponent form or not finite are formatted by ``%``."""
    groups, trailing, masks = _g17_tables()
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e17)
    np.copyto(a, 1.0, where=~fixed)
    e = (np.frexp(a)[1] - 1) * 78913 >> 18  # floor((x - 1) log10 2) in int32, exact for |x| < 1700
    e += a >= _DECADES.take(e + 6)
    D = _scaled(a, 16 - e)
    carry = D == 10**17  # rounded up to the next power of ten
    D[carry], e = 10**16, e + carry
    D *= v != 0  # "0" and "-0" take E = 0
    fixed = (fixed & (e >= -4) & (e <= 16)) | (v == 0)
    hi8 = D // 10**8  # D < 10^17: its first digit and two groups of 8 digits, each group in int32
    top, bottom = hi8.astype(np.int32), (D - hi8 * 10**8).astype(np.int32)
    d0 = top // 10**8
    top -= d0 * 10**8
    g1, g3 = top // 10**4, bottom // 10**4
    digits = (g1, top - g1 * 10**4, g3, bottom - g3 * 10**4)  # digits 1-4, 5-8, 9-12, 13-16
    t = [trailing.take(g) for g in digits]
    tz = t[3] + (t[3] == 4) * (t[2] + (t[2] == 4) * (t[1] + (t[1] == 4) * t[0]))
    sep, text = separators[: v.size], bytearray(48 * v.size) if text is None else text
    words = np.frombuffer(text, np.int64).reshape(-1, 6)  # a template per cell, filled in place; no copy for translate
    words[:, 0], words[:, 5] = (d0.astype(np.int64) << 48) + np.frombuffer(b"-0.0000.", np.int64), sep
    for j, g in enumerate(digits, 1):
        words[:, j] = groups.take(g)
    words &= masks.take(((e + 4) * 17 + tz) * 2 + np.signbit(v), axis=0, mode="clip")
    rest = np.flatnonzero(~fixed)  # cells in exponent form or not finite: '%' text, NUL-padded
    if rest.size:
        words[rest, :5] = np.array([b"%.17g" % x for x in v[rest].tolist()], dtype="S40").view(np.int64).reshape(-1, 5)
    return text.translate(None, b"\0")


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
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    if circle is not None:
        cx, cy, r = (float(v) for v in circle)
        lo, hi = np.minimum(lo, (cx - r, cy - r)), np.maximum(hi, (cx + r, cy + r))
    span = np.maximum(hi - lo, 1e-9)
    scale = ((size - 2 * margin) / span).min()
    off = (size - scale * span) / 2.0  # centers the drawing inside the square viewport

    def to_px(x, y):  # one point, or arrays of them
        return (off[0] + scale * (x - lo[0]), size - off[1] - scale * (y - lo[1]))

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
