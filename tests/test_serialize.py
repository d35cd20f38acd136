import json
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from hyperzeros import serialize
from hyperzeros.errors import InvalidInputError
from hyperzeros.exact import ComplexRational
from hyperzeros.hyppoly import HypPolynomial, ParameterSchedule, build_polynomial
from hyperzeros.potential import (
    LevelCurve,
    RegionGrid,
    classify_regions,
    make_harmonic_system,
    trace_conjectured_loop,
    trace_level_curve,
)
from hyperzeros.rootfinding import find_roots
from hyperzeros.svgfig import REGION_COLORS, SvgFigure

CR = ComplexRational
F = Fraction
K1 = ParameterSchedule.loop_2f1(1)
CONJ = ParameterSchedule.loop_2f1(CR(F(1, 2), -1))
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
BOX = (-1.0, 2.0, -1.5, 1.5)


class TestSchedule:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        serialize.write_schedule(path, CONJ)
        back = serialize.read_schedule(path)
        assert back == CONJ

    @pytest.mark.parametrize("text", [
        '{"A": 2}',
        "3",
        '{"A": 2, "B": 0, "alphas": [-1, 1], "cs": ["0", "1"], "betas": [], "ds": []}',
    ], ids=["missing-fields", "not-an-object", "number-slopes"])
    def test_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            serialize.read_schedule(path)

    def test_hash_stable(self):
        assert serialize.schedule_hash(K1) == serialize.schedule_hash(
            ParameterSchedule.loop_2f1(1)
        )
        assert serialize.schedule_hash(K1) != serialize.schedule_hash(CONJ)


class TestPolynomial:
    def test_roundtrip_exact(self, tmp_path):
        p = build_polynomial(CONJ, 6)
        path = tmp_path / "poly.txt"
        serialize.write_polynomial(path, p)
        coeffs = serialize.read_polynomial_coeffs(path)
        assert tuple(coeffs) == p.coeffs

    def test_expected_rows(self, tmp_path):
        sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
        p = build_polynomial(sched, 2)
        path = tmp_path / "poly.txt"
        serialize.write_polynomial(path, p)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["0 1/1 0/1", "1 -4/3 0/1", "2 1/2 0/1"]


class TestRoots:
    def test_roundtrip_precision_faithful(self, tmp_path):
        m = find_roots(build_polynomial(K1, 8), 192)
        path = tmp_path / "roots.txt"
        serialize.write_roots(path, m, K1)
        back = serialize.read_roots(path)
        assert back.precision_bits == m.precision_bits
        assert back.n == m.n
        with mp.workprec(m.precision_bits + 16):
            for a, b in zip(m.roots, back.roots):
                assert abs(a - b) < mp.mpf(2) ** (-m.precision_bits + 8)

    def test_roundtrip_recomputes_clusters(self, tmp_path):
        # z^2 - 2z + 1: the double root at 1 is certified as a cluster
        m = find_roots(HypPolynomial.from_coefficients([1, -2, 1], K1, 2), 128)
        assert m.clusters == ((0, 1),)
        path = tmp_path / "roots.txt"
        serialize.write_roots(path, m, K1)
        back = serialize.read_roots(path)
        assert back.clusters == m.clusters
        assert back.certification_threshold == m.certification_threshold
        # the solver trace lives only in memory
        assert m.trace and back.trace == ()
        # the file carries no forward bounds, so none are claimed
        assert all(f == mp.inf for f in back.forward_error_bounds)

    def test_write_deterministic(self, tmp_path):
        m = find_roots(build_polynomial(K1, 5), 128)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        serialize.write_roots(p1, m, K1)
        serialize.write_roots(p2, m, K1)
        assert p1.read_bytes() == p2.read_bytes()


class TestLevelCurve:
    def test_roundtrip(self, tmp_path):
        sys_ = make_harmonic_system(K1)
        curve = trace_conjectured_loop(sys_, 2, step=0.02)
        path = tmp_path / "level.csv"
        serialize.write_level_curve(path, curve)
        back = serialize.read_level_curve(path)
        assert back.pair == (1, 2)
        assert back.closed == curve.closed
        assert len(back.points) == len(curve.points)
        assert np.max(np.abs(back.points - curve.points)) < 1e-15

    def test_roundtrip_criticals(self, tmp_path):
        # the alpha = 1/2 - i loop closes at the saddle 7/13 - 4i/13, below the
        # real axis; the file keeps its location but not its directions
        curve = trace_conjectured_loop(make_harmonic_system(CONJ), 2, step=0.02)
        assert curve.critical_points
        path = tmp_path / "level.csv"
        serialize.write_level_curve(path, curve)
        header = path.read_text().splitlines()[0]
        assert header.endswith("criticals = 0.538461538461538-0.307692307692308i;"
                               "0.538461538461538-0.307692307692308i")
        back = serialize.read_level_curve(path)
        assert len(back.critical_points) == len(curve.critical_points)
        for b, c in zip(back.critical_points, curve.critical_points):
            assert abs(b.location - c.location) < 1e-14
            assert b.directions == ()
        # the "+-" an older writer put before a negative imaginary part
        path.write_text(path.read_text().replace("8-0.3", "8+-0.3"))
        assert serialize.read_level_curve(path).critical_points == back.critical_points

    def test_no_criticals(self, tmp_path):
        curve = LevelCurve(pair=(1, 2), points=np.array([1.5 + 0j, 1.4 + 0.1j]),
                           residuals=np.zeros(2), closed=False, critical_points=(), hit_cut=False)
        path = tmp_path / "level.csv"
        serialize.write_level_curve(path, curve)
        assert path.read_text().splitlines()[0].endswith("criticals = none")
        assert serialize.read_level_curve(path).critical_points == ()

    @pytest.mark.parametrize("header", ["# level curve pair = x,2 closed = True",
                                        "# level curve pair"], ids=["bad-pair", "cut-header"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "level.csv"
        path.write_text(f"{header}\nindex,re,im,residual\n0,1.5,0,0.000e+00\n")
        with pytest.raises(InvalidInputError, match="level.csv, line 1"):
            serialize.read_level_curve(path)

    def test_roundtrip_hit_cut(self, tmp_path):
        # the left lobe of the lemniscate, whose trace stops at the Arg cut
        curve = trace_level_curve(make_harmonic_system(K1), (1, 2), -0.3 + 0.3j, step=0.01)
        assert curve.hit_cut and not curve.closed
        path = tmp_path / "level.csv"
        serialize.write_level_curve(path, curve)
        back = serialize.read_level_curve(path)
        assert (back.pair, back.closed, back.hit_cut) == ((1, 2), False, True)
        assert np.array_equal(back.points, curve.points)


class TestRootCount:
    def test_cut_on_row_boundary_rejected(self, tmp_path):
        # whole rows dropped from the end: every row parses, the count does not
        path = tmp_path / "roots.txt"
        serialize.write_roots(path, find_roots(build_polynomial(K1, 6), 128), K1)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:5]) + "\n")
        with pytest.raises(InvalidInputError, match="3 rows, its header says count 6"):
            serialize.read_roots(path)

    def test_header_without_count_rejected(self, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("# n = 1 precision_bits = 128\n1.5 0 1e-40\n")
        with pytest.raises(InvalidInputError, match="malformed header"):
            serialize.read_roots(path)


class TestHeaderFields:
    """The text readers take their headers through one ``key = value`` parser."""

    def test_level_file_without_pair_rejected(self, tmp_path):
        # every writer writes pair; without it the file would read as pair (0, 0)
        path = tmp_path / "level.csv"
        path.write_text("# level curve closed = True\nindex,re,im,residual\n0,1.5,0,0.000e+00\n")
        with pytest.raises(InvalidInputError,
                           match="level.csv, line 1: malformed header, no field 'pair'"):
            serialize.read_level_curve(path)

    @pytest.mark.parametrize("header, line, message", [
        ("# roots export\n# n = 1 count = 1 precision_bits = 12x8\n", 2, "precision_bits = '12x8'"),
        ("# roots export\n# n = 1 count = 1\n", 2, "no field 'precision_bits'"),
        ("", 1, "no field 'precision_bits'"),
        ("# n = one count = 1 precision_bits = 128\n", 1, "n = 'one'"),
    ], ids=["bad-precision", "no-precision", "no-header", "bad-n"])
    def test_roots_header_error_names_line(self, tmp_path, header, line, message):
        path = tmp_path / "roots.txt"
        path.write_text(header + "1.5 0 1e-40\n")
        with pytest.raises(InvalidInputError,
                           match=f"roots.txt, line {line}: malformed header, {message}"):
            serialize.read_roots(path)

    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_roots_precision_below_one_bit_rejected(self, tmp_path, bits):
        # read at -5 bits, the root 1.5 came back as 2.0
        path = tmp_path / "roots.txt"
        path.write_text(f"# n = 1 count = 1 precision_bits = {bits}\n1.5 0 1e-40\n")
        with pytest.raises(InvalidInputError,
                           match=f"roots.txt, line 1: malformed header, precision_bits = '{bits}'"):
            serialize.read_roots(path)

    def test_fields_found_by_key(self, tmp_path):
        # a field is the token after "=", on whichever # line it stands
        path = tmp_path / "roots.txt"
        path.write_text("# roots export: re im (precision_bits from the header)\n"
                        "# schedule = sha256:0 count = 1\n# precision_bits = 128 n = 3\n"
                        "1.5 0 1e-40\n")
        m = serialize.read_roots(path)
        assert (m.precision_bits, m.n, m.source_n) == (128, 1, 3)


class TestTruncatedRows:
    """Each row reader rejects a row cut short, naming the file and line."""

    @pytest.mark.parametrize("reader, write, line", [
        (serialize.read_polynomial_coeffs,
         lambda path: serialize.write_polynomial(path, build_polynomial(K1, 4)), "2 -3/"),
        (serialize.read_roots,
         lambda path: serialize.write_roots(path, find_roots(build_polynomial(K1, 4), 128), K1),
         "0.5"),
        (serialize.read_point_list,
         lambda path: path.write_text("# branch points: re im\n0.5 0.25\n"), "0.5"),
        (serialize.read_level_curve,
         lambda path: serialize.write_level_curve(
             path, trace_conjectured_loop(make_harmonic_system(K1), 2, step=0.02)),
         "3,0.75,0.1"),
    ], ids=["polynomial", "roots", "point-list", "level-curve"])
    def test_cut_row_rejected(self, tmp_path, reader, write, line):
        path = tmp_path / "data.txt"
        write(path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:4] + [line]) + "\n")
        with pytest.raises(InvalidInputError, match=f"data.txt, line {min(len(rows), 4) + 1}"):
            reader(path)


class TestRegions:
    def test_roundtrip_labels(self, tmp_path):
        grid = classify_regions(make_harmonic_system(K1), (-1.0, 2.0, -1.5, 1.5), 64)
        path = tmp_path / "regions.txt"
        serialize.write_region_grid(path, grid)
        back = serialize.read_region_grid(path)
        assert np.array_equal(back.labels, grid.labels)
        assert np.array_equal(back.kmask, grid.kmask)
        assert back.box == grid.box

    def test_k_cells_file(self, tmp_path):
        grid = classify_regions(make_harmonic_system(K1), (-1.0, 2.0, -1.5, 1.5), 64)
        path = tmp_path / "k.txt"
        serialize.write_k_cells(path, grid)
        pts = serialize.read_point_list(path)
        assert len(pts) == int(grid.kmask.sum())


    @pytest.mark.parametrize("damage", ["short row", "long row", "non-digit", "zero",
                                        "missing rows", "extra row", "header", "box"])
    def test_malformed_file_rejected(self, tmp_path, damage):
        grid = classify_regions(make_harmonic_system(K1), BOX, 16)
        path = tmp_path / "regions.txt"
        serialize.write_region_grid(path, grid)
        lines = path.read_text().splitlines()
        if damage == "short row":
            lines[3] = lines[3][:-1]
        elif damage == "long row":
            lines[3] += "1"
        elif damage == "non-digit":
            lines[5] = lines[5][:7] + "x" + lines[5][8:]
        elif damage == "zero":
            lines[5] = "0" + lines[5][1:]
        elif damage == "missing rows":
            lines = lines[:9]
        elif damage == "extra row":
            lines.append(lines[-1])
        elif damage == "header":
            lines[0] = lines[0][:-1]
        else:
            lines[0] = lines[0].replace("[-1.0, 2.0, -1.5, 1.5]", "[-1.0, 2.0, -1.5]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError):
            serialize.read_region_grid(path)

    @pytest.mark.parametrize("bad", [10, 0])
    def test_label_without_one_digit_rejected(self, tmp_path, bad):
        # with 10 or more branches a label needs two characters
        labels = np.ones((4, 4), dtype=np.int16)
        labels[2, 1] = bad
        grid = RegionGrid.from_labels(BOX, 4, labels)
        path = tmp_path / "regions.txt"
        with pytest.raises(InvalidInputError):
            serialize.write_region_grid(path, grid)
        assert not path.exists()


def reference_write(path, grid):
    """The per-cell region writer: one ``str(int(v))`` per cell."""
    header = {
        "box": list(grid.box),
        "resolution": grid.resolution,
        "legend": {str(i): ("H_1" if i == 1 else f"H~_{i}") for i in grid.labels_present()},
    }
    lines = [json.dumps(header, sort_keys=True)]
    for row in grid.labels:
        lines.append("".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def reference_read_labels(path):
    """The per-cell region reader: one ``int(ch)`` per cell."""
    text = path.read_text().splitlines()
    res = json.loads(text[0])["resolution"]
    return np.array([[int(ch) for ch in row] for row in text[1 : res + 1]], dtype=np.int16)


def reference_raster(fig, grid):
    """The per-cell region backdrop: each run found by scanning its cells."""
    from hyperzeros.svgfig import _fmt

    res = grid.resolution
    cw = fig.width / res
    ch = fig.height / res
    rows = []
    for iy in range(res):
        row = grid.labels[iy]
        y = fig.height - (iy + 1) * ch
        ix = 0
        while ix < res:
            lab = row[ix]
            run = 1
            while ix + run < res and row[ix + run] == lab:
                run += 1
            color = REGION_COLORS[(int(lab) - 1) % len(REGION_COLORS)]
            rows.append(
                f'<rect x="{_fmt(ix * cw)}" y="{_fmt(y)}" width="{_fmt(run * cw)}" '
                f'height="{_fmt(ch)}" fill="{color}"/>'
            )
            ix += run
    return ['<g shape-rendering="crispEdges">' + "".join(rows) + "</g>"]


class TestWholeArrayRegions:
    """The whole-array region writer, reader and SVG backdrop must equal the
    per-cell code they replace, kept above as references."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {"K1": make_harmonic_system(K1), "FIG5": make_harmonic_system(FIG5)}

    def check(self, tmp_path, grid):
        ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
        serialize.write_region_grid(ours, grid)
        reference_write(ref, grid)
        assert ours.read_bytes() == ref.read_bytes()
        back = serialize.read_region_grid(ours)
        assert back.labels.dtype == grid.labels.dtype
        assert np.array_equal(back.labels, reference_read_labels(ref))
        assert np.array_equal(back.labels, grid.labels)
        assert np.array_equal(back.kmask, grid.kmask)
        assert back.box == grid.box and back.resolution == grid.resolution
        for width in (720, 333):
            fig, ref_fig = SvgFigure(grid.box, width), SvgFigure(grid.box, width)
            fig.add_region_raster(back)
            assert fig.parts == reference_raster(ref_fig, grid)

    @pytest.mark.parametrize("family", ["K1", "FIG5"])
    @pytest.mark.parametrize("res", [2, 7, 64, 400])
    def test_matches_per_cell_code(self, tmp_path, systems, family, res):
        self.check(tmp_path, classify_regions(systems[family], BOX, res))

    def test_rows_of_single_runs(self, tmp_path):
        # every row one label, so every row is one run spanning the grid
        labels = np.repeat(np.arange(1, 10, dtype=np.int16)[:, None], 9, axis=1)
        self.check(tmp_path, RegionGrid.from_labels(BOX, 9, labels))

    def test_all_labels_and_wrapped_colors(self, tmp_path):
        # labels 7-9 reuse the colors of 1-3
        labels = (np.arange(25, dtype=np.int16).reshape(5, 5) // 2) % 9 + 1
        self.check(tmp_path, RegionGrid.from_labels(BOX, 5, labels))


class TestManifest:
    def test_manifest_written_with_hashes(self, tmp_path):
        sched_path = tmp_path / "s.json"
        serialize.write_schedule(sched_path, K1)
        serialize.write_manifest(tmp_path, "poly", {"n": 4}, {"schedule": sched_path})
        manifest = (tmp_path / "manifest_poly.json").read_text()
        assert "sha256:" in manifest
        assert '"n": 4' in manifest
