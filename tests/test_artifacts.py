import itertools
import tracemalloc
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from geodisc.artifacts import (
    _CSV_BLOCK_CELLS,
    _DECADES,
    _g17,
    read_csv_columns,
    trajectory_columns,
    write_trajectory_csv,
    write_xy_svg,
)
from geodisc.control import simulate
from geodisc.hamiltonian import Trajectory


def tiny_traj(n=2):
    z = np.repeat([[0.1, 0.2, 0.3, 1 / 3], [1.1, 1.2, 1.3, 2 / 3]], n, axis=1)  # (q, qdot, p0, p1) rows
    return Trajectory(h=0.5, z=z, energies=np.array([1 / 7, 1 / 7]))


class TestTrajectoryCsv:
    def test_header_layout(self):
        assert trajectory_columns(1) == ["t", "q0", "qdot0", "p0_0", "p1_0", "u0", "H", "clearance"]
        assert len(trajectory_columns(3)) == 1 + 4 * 3 + 3 + 2

    def test_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), tiny_traj())
        cols = read_csv_columns(str(path))
        # %.17g prints enough digits that parsing gives the bits back
        assert float(cols["p1_0"][0]) == 1 / 3
        assert float(cols["H"][1]) == 1 / 7
        assert cols["clearance"] == ["", ""]
        assert [float(v) for v in cols["t"]] == [0.0, 0.5]

    def test_clearance_column_filled(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), tiny_traj(), clearances=np.array([3.0, 2.5]))
        cols = read_csv_columns(str(path))
        assert [float(v) for v in cols["clearance"]] == [3.0, 2.5]

    def test_no_partial_file_on_success(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), tiny_traj())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "t.csv"]
        assert leftovers == []

    @pytest.mark.parametrize("with_clearance", [False, True])
    def test_bytes_match_per_cell_formatting(self, tmp_path, with_clearance):
        def cell(x):
            return "%.17g" % float(x)

        rng = np.random.default_rng(7)
        z = rng.normal(size=(600, 12)) * 10.0 ** rng.integers(-300, 300, size=(600, 12))
        z[3, 4], z[5, 0], z[6, 2] = -0.0, 0.0, 1e-310
        traj = Trajectory(h=0.01, z=z, energies=rng.normal(size=600))
        clearances = rng.uniform(size=600) if with_clearance else None
        lines = [",".join(trajectory_columns(3))]
        for k in range(600):  # more rows than one formatting block
            cells = [cell(traj.times[k])] + [cell(v) for v in z[k]] + [cell(v) for v in z[k, 9:]]
            cells += [cell(traj.energies[k]), cell(clearances[k]) if with_clearance else ""]
            lines.append(",".join(cells))
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj, clearances)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize(
        "n, steps, init, obstacle",
        [
            (1, 400, [0.3, -0.2, 0.02, -0.1], None),
            (1, 1500, [0.3, -0.2, 2e-5, -0.1], None),
            (1, 1500, [0.3, -0.2, 3e-6, -0.1], None),
            (3, 400, [-2, -1.2, 0, 1, 0, 0, 0, 0, 0, 0, 0.01, 0], (1e-3, 1.0, (0, 0))),
        ],
        ids=["free-n1", "free-n1-blocks", "free-n1-e6", "obstacle-n3"],
    )
    def test_bytes_match_the_row_template(self, tmp_path, n, steps, init, obstacle):
        # The per-row template the writer used before its array kernel.  The
        # 1500-step runs span more than two formatting blocks and end in a
        # partial one, with their p0 cells in exponent form, at E = -5 and -6.
        report = simulate(n, 0.01, steps, np.array(init, dtype=float), obstacle=obstacle)
        traj, clearances = report.trajectory, report.clearances
        columns = [traj.times, traj.z, traj.controls, traj.energies]
        if clearances is not None:
            columns.append(clearances)
        table = np.column_stack(columns)
        if obstacle is None:
            assert clearances is None  # the blank clearance cell
        else:  # zero columns and cells %g prints in exponent form
            assert np.all(table == 0, axis=0).sum() >= 3 and np.sum((table != 0) & (np.abs(table) < 1e-4)) >= 100
        if steps > 400:  # more than two blocks, the last one partial, and p0 cells in exponent form
            rows = _CSV_BLOCK_CELLS // table.shape[1]
            assert table.shape[0] > 2 * rows and table.shape[0] % rows and np.all(np.abs(table[:, 3]) < 1e-4)
            assert np.all(np.abs(table[:, 3]) >= (1e-6 if init[2] < 1e-5 else 1e-5))
        row = ",".join(["%.17g"] * table.shape[1]) + ("," if clearances is None else "") + "\n"
        want = ",".join(trajectory_columns(n)) + "\n" + "".join(row % tuple(values) for values in table.tolist())
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj, clearances)
        assert path.read_text() == want

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # Blocks of rows are stacked from the trajectory's columns into one
        # buffer, so twice the rows need no second table of cells (8 bytes each).
        peaks = []
        for steps in (10_000, 20_000):
            traj = simulate(1, 0.01, steps, np.array([0.3, -0.2, 0.005, -0.1])).trajectory
            write_trajectory_csv(str(tmp_path / "t.csv"), traj)  # the kernel's tables
            tracemalloc.start()
            try:
                write_trajectory_csv(str(tmp_path / "t.csv"), traj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 70_007 * 8 / 4

    def test_a_clearance_column_of_another_length_writes_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("kept")
        with pytest.raises(ValueError, match="^3 clearances for 2 states$"):
            write_trajectory_csv(str(path), tiny_traj(), clearances=np.array([3.0, 2.5, 2.0]))
        assert path.read_text() == "kept"

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("stale")
        write_trajectory_csv(str(path), tiny_traj())
        assert path.read_text().startswith("t,")


def commas(v):
    return np.frombuffer(b",\0\0\0" * v.size, np.uint32)


class TestG17:
    """The array kernel behind the CSV writer against ``b"%.17g" % x``."""

    @hyp.settings(max_examples=300)
    @hyp.given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
    def test_matches_percent_formatting(self, values):
        v = np.array(values)
        assert _g17(v, commas(v)) == b"".join(b"%.17g," % x for x in values)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64).view(np.float64)  # nan payloads, subnormals
        fixed = rng.uniform(1, 10, size=230_000) * 10.0 ** rng.integers(-5, 17, size=230_000)  # 17 digits, no exponent
        ties = (2 * rng.integers(2 * 10**15, 45 * 10**14, size=150_000) + 1) / 4.0  # odd k / 4: 18-digit ties
        powers = np.array([float(f"1e{E}") for E in range(-6, 19)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        edges = np.array([1e-4, np.nextafter(1e-4, 0.0), 99999999999999999.0, 1e17, np.nextafter(1e17, 0.0), 0.0])
        # The least double >= 1e-6, where the kernel starts, and the one before it, float("1e-6"), which '%' formats.
        assert np.nextafter(_DECADES[0], 0.0) == float("1e-6")
        small = rng.uniform(1e-6, 1e-4, size=20_000)  # E = -6 and -5, the exponent form in the kernel, and E = -4
        edges = np.concatenate([edges, [_DECADES[0], float("1e-6")], small])
        # 17 digits at the int32 group boundaries (all nines, a one and sixteen zeros, ...) at each E.
        groups = ["99999999999999999", "10000000000000000", "19999999999999999", "10000000099999999", "99999999900000000"]
        edges = np.concatenate([edges, [float(f"{g[0]}.{g[1:]}e{E}") for g in groups for E in range(-6, 17)]])
        v = np.concatenate([bits, fixed, ties, near, edges])
        v = np.concatenate([v, -v])
        assert v.size >= 10**6
        for i in range(0, v.size, 8192):
            chunk = v[i : i + 8192]
            assert _g17(chunk, commas(chunk)) == b"".join(b"%.17g," % x for x in chunk.tolist()), i

    def test_every_template_mask_with_mixed_separators(self):
        # One value for each exponent E in -6..16, count of trailing zeros tz in 0..16 among
        # the 16 digits after the first, and sign: a double whose 17 digits are an integer M of
        # 17 - tz digits, last digit nonzero, then tz zeros.  E = -6 and -5 take the exponent
        # form.  Values just below 1e-5 and 1e-4, where E steps, cells '%' formats and
        # non-finite ones ride along; each cell's separator is drawn from ",", "\n", ",\n" and "".
        rng = np.random.default_rng(27)
        values = []
        for E, tz in itertools.product(range(-6, 17), range(17)):
            s = 17 - tz  # significant digits

            def candidates():
                for _ in range(1000):
                    head = int(rng.integers(10 ** (s - 2), 10 ** (s - 1))) if s > 1 else 0
                    M = 10 * head + int(rng.integers(1, 10))
                    yield M, float(f"{M}e{E - s + 1}")

            digits = lambda M: str(M).ljust(17, "0")
            exact = lambda M: f"{digits(M)[0]}.{digits(M)[1:]}e{E:+03d}"
            found = next(((M, x) for M, x in candidates() if "%.16e" % x == exact(M)), None)
            if found is None:  # no double's 17 digits are d 10^E, d in 1..9, at E = -6 or -5: those two rows go unused
                assert E < -4 and tz == 16 and all("%.17g" % float(f"{d}e{E}") != f"{d}e{E:03d}" for d in range(1, 10))
                continue
            M, x = found
            values += [x, -x]
        below = [x for p in (1e-5, 1e-4) for x in np.nextafter(p, 0.0) - np.arange(8) * np.spacing(p) / 2]
        values += below + [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-5, 1e-6, 5e-324, 1e17, -1e300]
        v = np.array(values)
        words = np.frombuffer(b",\0\0\0\n\0\0\0,\n\0\0\0\0\0\0", np.uint32)
        seps = rng.choice(words, size=v.size)
        want = b"".join(b"%.17g" % x + sep.tobytes().rstrip(b"\0") for x, sep in zip(values, seps))
        assert _g17(v, seps) == want

    def test_decades_are_the_least_doubles_at_their_powers(self):
        # A cell of |v| in [2^(x - 1), 2^x) has E = floor((x - 1) log10 2) or one more, told by the
        # entry for E + 1: for |v| in [_DECADES[0], 1e17) that is 10^-6 .. 10^17, every entry of the table.
        assert len(_DECADES) == 24
        assert all(Fraction(d) >= Fraction(10) ** E > Fraction(np.nextafter(d, 0.0)) for E, d in zip(range(-6, 18), _DECADES))


class TestReadCsvColumns:
    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_csv_columns(str(p))

    def test_rejects_ragged(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv_columns(str(p))

    def test_rejects_duplicate_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(ValueError):
            read_csv_columns(str(p))

    def test_header_only_is_fine(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n")
        assert read_csv_columns(str(p)) == {"a": [], "b": []}


class TestSvg:
    def test_polyline_and_circle(self, tmp_path):
        path = tmp_path / "p.svg"
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        write_xy_svg(str(path), xy, circle=(0.0, 0.0, 0.5))
        text = path.read_text()
        assert text.count("<polyline") == 1 and text.count("<circle") == 1
        points = text.split('points="')[1].split('"')[0]
        assert len(points.split()) == 3

    def test_no_circle_by_default(self, tmp_path):
        path = tmp_path / "p.svg"
        write_xy_svg(str(path), np.array([[0.0, 0.0], [2.0, 1.0]]))
        assert "<circle" not in path.read_text()

    def test_aspect_ratio_preserved(self, tmp_path):
        # a 2:1 wide path must come out twice as wide as tall in pixel space
        path = tmp_path / "a.svg"
        write_xy_svg(str(path), np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0]]))
        points = path.read_text().split('points="')[1].split('"')[0]
        px = np.array([[float(a) for a in pair.split(",")] for pair in points.split()])
        width = px[:, 0].max() - px[:, 0].min()
        height = px[:, 1].max() - px[:, 1].min()
        assert width == pytest.approx(2 * height)

    def test_y_axis_points_up(self, tmp_path):
        # larger y in data space must give a smaller pixel y
        path = tmp_path / "y.svg"
        write_xy_svg(str(path), np.array([[0.0, 0.0], [0.0, 1.0]]))
        points = path.read_text().split('points="')[1].split('"')[0]
        (x0, y0), (x1, y1) = [[float(a) for a in pair.split(",")] for pair in points.split()]
        assert y1 < y0

    @pytest.mark.parametrize("circle", [None, (0.5, 2.0, 1.0)])
    def test_polyline_matches_per_point_formatting(self, tmp_path, circle):
        # The pixel columns are computed as arrays in to_px's order of
        # operations, so every point prints as "%.3f,%.3f" % to_px(x, y).
        rng = np.random.default_rng(3)
        xy = np.cumsum(rng.normal(size=(401, 2)) * 10.0 ** rng.integers(-3, 3, size=(401, 1)), axis=0)
        path = tmp_path / "p.svg"
        write_xy_svg(str(path), xy, circle=circle)
        xs, ys = [xy[:, 0].min(), xy[:, 0].max()], [xy[:, 1].min(), xy[:, 1].max()]
        if circle is not None:
            cx, cy, r = circle
            xs, ys = [min(xs[0], cx - r), max(xs[1], cx + r)], [min(ys[0], cy - r), max(ys[1], cy + r)]
        span_x, span_y = max(xs[1] - xs[0], 1e-9), max(ys[1] - ys[0], 1e-9)
        scale = min(480 / span_x, 480 / span_y)
        off_x, off_y = (560 - scale * span_x) / 2.0, (560 - scale * span_y) / 2.0
        to_px = lambda x, y: (off_x + scale * (x - xs[0]), 560 - off_y - scale * (y - ys[0]))
        expected = " ".join("%.3f,%.3f" % to_px(x, y) for x, y in xy)
        assert path.read_text().split('points="')[1].split('"')[0] == expected

    def test_refuses_points_that_are_not_planar(self, tmp_path):
        path = tmp_path / "w.svg"
        with pytest.raises(ValueError, match=r"^xy must be an \(N, 2\) array with N >= 1$"):
            write_xy_svg(str(path), np.zeros((3, 3)))
        assert not path.exists()

    def test_single_point_ok(self, tmp_path):
        path = tmp_path / "s.svg"
        write_xy_svg(str(path), np.array([[1.0, 1.0]]))
        assert "<polyline" in path.read_text()
