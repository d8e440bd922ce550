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
    text = bytearray(32 * table.size)  # every full block's templates, reused: a fresh buffer a block faults in pages

    def blocks():  # a block of rows at a time, stacked into one buffer (with its templates, about 150 bytes a cell)
        for i in range(0, N, rows):
            block = table[: min(rows, N - i)]
            np.multiply(traj.h, np.arange(i, i + len(block)), out=block[:, 0])  # the bits of traj.times
            np.concatenate([c[i : i + len(block)] for c in columns], axis=1, out=block[:, 1:])
            yield _g17(block.ravel(), words, text if block.size == table.size else None)

    write_bytes(path, itertools.chain([(",".join(trajectory_columns(traj.n)) + "\n").encode()], blocks()))


# ---------------------------------------------------------------------------
# '%.17g' of an array of cells: a finite v has 17 significant digits D, |v| ~ D 10^(E - 16), and prints in fixed
# notation when E is in [-4, 16].  For |v| in [1e-6, 1e17), D is |v| 10^(16 - E) rounded half to even, exactly:
# Dekker's product of |v| and the double 10^(16 - E) <= 10^22 is hi + lo with hi an even integer above 2^53, so
# hi + rint(lo) rounds it.  E is floor((x - 1) log10 2) for |v| in [2^(x - 1), 2^x), or one more, told by one
# comparison with _DECADES, the least doubles >= 10^-6 .. 10^17.  A cell is a subsequence of a 32-byte template:
# "-0.0000", d0, the other 16 digits with a '.' shifted in after digit E (0 <= E <= 15; 0 in the exponent form), the
# byte shifted out, the exponent text (E = -6, -5), the separator.  A mask looked up by (form: E in -4..16 or the
# exponent form, the trailing zeros of D, sign) zeroes the other bytes; one translate drops every NUL (none prints).

_POW10 = 10.0 ** np.arange(23)
_DECADES = np.array([np.nextafter(1e-6, 1.0)] + [float(f"1e{E}") for E in range(-5, 18)])  # float("1e-6") < 10^-6


def _split(a: Array) -> tuple[Array, Array]:
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    hi = (2.0**27 + 1.0) * a
    hi -= hi - a
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(a: Array, i: Array) -> tuple[Array, tuple]:
    """a 10^i rounded half to even, D <= 10^17, by Dekker's exact product hi + lo, then hi + rint(lo): its first digit
    (10 for 10^17) and the other 16 digits in 4-digit groups, in int32."""
    (a_hi, a_lo), b_hi, b_lo = _split(a), _POW10_HI.take(i), _POW10_LO.take(i)
    hi = a * _POW10.take(i)
    D = hi.astype(np.int64) + np.rint(((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo).astype(np.int64)
    hi8 = D // 10**8  # two groups of 8 digits, each in int32
    top, bottom = hi8.astype(np.int32), (D - hi8 * 10**8).astype(np.int32)
    d0 = top // 10**8
    top -= d0 * 10**8
    g1, g3 = top // 10**4, bottom // 10**4
    return d0, (g1, top - g1 * 10**4, g3, bottom - g3 * 10**4)


@lru_cache(maxsize=1)
def _g17_tables() -> tuple[tuple, Array, tuple]:
    """The 4-digit groups as ASCII words low and high and their trailing zeros (4 for 0000); the 0x00/0xFF keep-mask
    words by (form, tz, sign); by E + 6 the moved bytes and '.' of words 1, 2, the exponent text, the form's first row."""
    d = np.arange(10_000)
    groups = sum((d // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4)).astype(np.uint64)
    trailing = sum(d % 10**i == 0 for i in range(1, 5)).astype(np.int8)
    F, tz, sign, p = np.ix_(np.arange(22), np.arange(17), np.arange(2), np.arange(32))
    E, x, ahead = F - 4, F == 21, np.where(F == 21, 1, F - 3)  # form 21: "d.ddde-0E"; digits ahead of the '.'
    keep = np.maximum(ahead, 17 - tz)  # digits printed, with a '.' after the ones ahead when keep > ahead
    last = 6 + keep + ((keep > ahead) & ((E >= 0) & (E <= 15) | x))  # the number's last byte, from d0 at byte 7
    mask = ((p == 0) & (sign == 1)) | ((E < 0) & (p >= 1) & (p < 2 - E)) | (p == 7) | (p >= 8) & (p <= last) | (p >= 30)
    mask |= x & (p >= 25) & (p <= 28)
    E, P = np.arange(-6, 17)[:, None], np.arange(16).reshape(2, 1, 8)  # P: the byte's place among the 16 digits
    at = np.where(E < -4, 0, np.where((E >= 0) & (E <= 15), E, 16))  # the '.' after digit E, d0 in the exponent form
    moved, dots = ((c * k).astype(np.uint8).view(np.uint64)[..., 0] for c, k in ((255, P >= at), (46, P == at)))
    texts = np.concatenate([np.frombuffer(b"\0e-06\0\0\0\0e-05\0\0\0", np.uint64), np.zeros(21, np.uint64)])
    masks = (255 * mask).astype(np.uint8).reshape(-1, 32).view(np.uint64)
    return (groups, groups << 32, trailing), masks, (moved, dots, texts, np.where(E < -4, 21, E + 4)[:, 0] * 34)


def _g17(v: Array, separators: Array, text: bytearray | None = None) -> bytearray:
    """``b"%.17g" % x`` for every x of the 1-d float array v, each followed by its separator ``separators[i]``
    (up to 2 bytes padded with NUL to a uint32), through templates written into ``text`` (32 v.size bytes, a new
    bytearray when None); values not finite, below 1e-6 or from 1e17 on in magnitude are formatted by ``%``."""
    (groups, groups_hi, trailing), masks, (moved, dots, texts, bases) = _g17_tables()
    a = np.abs(v)
    kernel = (a >= _DECADES[0]) & (a < 1e17)
    np.copyto(a, 1.0, where=~kernel)
    e = (np.frexp(a)[1].astype(np.intp) - 1) * 78913 >> 18  # floor((x - 1) log10 2), exact for |x| < 1700: an index
    e += a >= _DECADES.take(e + 7)
    d0, digits = _digits(a, 16 - e)  # digits 1-4, 5-8, 9-12, 13-16 after d0
    carry = d0 == 10  # rounded up to the next power of ten
    d0, e = (d0 - 9 * carry) * (v != 0), e + carry  # "0" and "-0" take E = 0
    t = [trailing.take(g) for g in digits]
    tz = t[3] + (t[3] == 4) * (t[2] + (t[2] == 4) * (t[1] + (t[1] == 4) * t[0]))
    i, carried, text = e + 6, 0, bytearray(32 * v.size) if text is None else text
    words = np.frombuffer(text, np.uint64).reshape(-1, 4)  # a template per cell, filled in place; no copy for translate
    words[:, 0] = groups_hi.take(d0) + np.frombuffer(b"-0.0\0\0\0\0", np.uint64)  # "-0.0000", d0
    for j in (1, 2):  # digits 1-8, 9-16: the bytes after digit E move up a byte, x + 255 (x & K), and '.' fills the gap
        w = groups.take(digits[2 * j - 2]) + groups_hi.take(digits[2 * j - 1])
        shifted = moved[j - 1].take(i) & w
        words[:, j] = w + 255 * shifted + dots[j - 1].take(i) + carried
        carried = shifted >> 56  # the top byte, carried into the next word
    words[:, 3] = carried + texts.take(i) + np.left_shift(separators[: v.size], 48, dtype=np.uint64)
    words &= masks.take(bases.take(i) + 2 * tz + np.signbit(v), axis=0)
    rest = np.flatnonzero(~kernel & (v != 0))  # cells '%' formats: NUL-padded over their first three words
    if rest.size:
        words[rest, :3] = np.array([b"%.17g" % x for x in v[rest].tolist()], dtype="S24").view(np.uint64).reshape(-1, 3)
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


def write_xy_svg(path, xy, circle=None) -> None:
    """Plot a planar path as one polyline, plus the obstacle disk boundary.

    ``xy`` is an (N, 2) array; ``circle`` an optional (cx, cy, radius).  The
    560-pixel square viewport keeps a 40-pixel margin, preserves aspect ratio
    and flips y so the picture matches the usual plane orientation.
    """
    size, margin = 560, 40
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
