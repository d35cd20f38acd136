import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import hyperzeros
from hyperzeros import experiments, serialize
from hyperzeros.cli import main
from hyperzeros.errors import BranchCollisionError, NonConvergenceError
from hyperzeros.exact import ComplexRational
from hyperzeros.hyppoly import ParameterSchedule
from hyperzeros.svgfig import REGION_COLORS

CR = ComplexRational
F = Fraction
K1 = ParameterSchedule.loop_2f1(1)
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
ND3 = ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1))


@pytest.fixture()
def sched_file(tmp_path):
    path = tmp_path / "schedule.json"
    serialize.write_schedule(path, K1)
    return path


def run(*args):
    return main([str(a) for a in args])


class TestPoly:
    def test_writes_exact_rows(self, tmp_path):
        spath = tmp_path / "s.json"
        serialize.write_schedule(spath, ParameterSchedule((-1, 0), (0, 2), (0,), (2,)))
        out = tmp_path / "out"
        assert run("poly", "--schedule", spath, "--n", 2, "--out", out) == 0
        rows = [
            l for l in (out / "poly_n2.txt").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert rows == ["0 1/1 0/1", "1 -4/3 0/1", "2 1/2 0/1"]
        assert (out / "manifest_poly.json").exists()

    def test_n_zero_single_row(self, sched_file, tmp_path):
        out = tmp_path / "out"
        assert run("poly", "--schedule", sched_file, "--n", 0, "--out", out) == 0
        rows = [
            l for l in (out / "poly_n0.txt").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert rows == ["0 1/1 0/1"]

    def test_invalid_denominator_exit_two(self, tmp_path, capsys):
        bad = ParameterSchedule((-1, 1), (0, 1), (-1,), (0,))
        spath = tmp_path / "bad.json"
        serialize.write_schedule(spath, bad)
        code = run("poly", "--schedule", spath, "--n", 5, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "b_1" in err

    @pytest.mark.parametrize("text", ["1/0", "0/1+1/0*i"])
    def test_zero_denominator_exit_two(self, tmp_path, capsys, text):
        spath = tmp_path / "zero.json"
        doc = json.loads(serialize.schedule_to_json(K1))
        doc["alphas"][1] = text
        spath.write_text(json.dumps(doc))
        code = run("poly", "--schedule", spath, "--n", 5, "--out", tmp_path / "o")
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_missing_schedule_exit_four(self, tmp_path):
        code = run("poly", "--schedule", tmp_path / "nope.json", "--n", 2,
                   "--out", tmp_path / "o")
        assert code == 4


class TestRootsAndVerify:
    def test_pipeline(self, sched_file, tmp_path):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", "4,8",
                   "--precision", 128, "--out", out) == 0
        assert (out / "roots_n4.txt").exists() and (out / "roots_n8.txt").exists()
        assert run("curve", "--schedule", sched_file, "--out", out) == 0
        assert (out / "curve.txt").exists() and (out / "branch_points.txt").exists()
        assert run("levels", "--schedule", sched_file, "--step", 0.01, "--out", out) == 0
        assert (out / "level_1_2.csv").exists()
        assert run("regions", "--schedule", sched_file, "--box", "-1:2:-1.5:1.5",
                   "--resolution", 80, "--out", out) == 0
        assert (out / "regions.txt").exists() and (out / "k_cells.txt").exists()
        assert run("verify", "--schedule", sched_file, "--n-list", "4,8",
                   "--out", out) == 0
        for name in ("report_distance.json", "report_convergence.json",
                     "report_kscore.json"):
            assert (out / name).exists(), name
        dist = json.loads((out / "report_distance.json").read_text())
        assert dist["max_decreasing"] in (True, False)
        conv = json.loads((out / "report_convergence.json").read_text())
        assert conv["monotone_last_below_first"] is True
        assert run("plot", "--out", out, "--box", "-1:2:-1.5:1.5") == 0
        svg = (out / "figure.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_roots_rerun_byte_identical(self, sched_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("roots", "--schedule", sched_file, "--n", 6,
                       "--precision", 128, "--out", out) == 0
        assert (out1 / "roots_n6.txt").read_bytes() == (out2 / "roots_n6.txt").read_bytes()

    def test_levels_explicit_pair_and_seed(self, sched_file, tmp_path):
        out = tmp_path / "out"
        # (1 + sqrt 2)/2 lies on the k=1 lemniscate
        assert run("levels", "--schedule", sched_file, "--pair", "1,2",
                   "--seed", "1.2071067811865475,0", "--step", 0.01, "--out", out) == 0
        text = (out / "level_1_2.csv").read_text()
        assert "closed = True" in text

    def test_levels_pair_without_seed_exit_two(self, sched_file, tmp_path):
        code = run("levels", "--schedule", sched_file, "--pair", "1,2",
                   "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("pair, seed", [
        ("1,x", "1.2,0"), ("1", "1.2,0"), ("1,2,3", "1.2,0"), ("1,2", "1.2,y"), ("1,2", "1.2"),
    ])
    def test_levels_malformed_pair_or_seed_exit_two(self, sched_file, tmp_path, pair, seed):
        code = run("levels", "--schedule", sched_file, "--pair", pair, "--seed", seed,
                   "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("--pair", "1,5", "--seed", "1.5,0"),
        ("--pair", "0,2", "--seed", "1.5,0"),
        ("--pair", "1,2", "--seed", "1.2071067811865475,0", "--step", 0),
        ("--pair", "1,2", "--seed", "1.2071067811865475,0", "--step", -1),
    ], ids=["index-5", "index-0", "step-0", "step-negative"])
    def test_levels_bad_pair_or_step_exit_two(self, sched_file, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert run("levels", "--schedule", sched_file, *args, "--out", out) == 2
        assert "invalid input" in capsys.readouterr().err
        assert not list(out.glob("level_*.csv"))

    def test_verify_distance_at_eta_minus_one_exit_two(self, tmp_path, capsys):
        # Re alpha_2 = -1 leaves the cutoff eta/(eta + 1) undefined
        spath = tmp_path / "s.json"
        serialize.write_schedule(spath, ParameterSchedule.loop_2f1(CR(-1, 1)))
        out = tmp_path / "out"
        assert run("roots", "--schedule", spath, "--n-list", "4,8", "--precision", 128,
                   "--out", out) == 0
        assert run("levels", "--schedule", spath, "--step", 0.01, "--out", out) == 0
        capsys.readouterr()
        code = run("verify", "--schedule", spath, "--n-list", "4,8", "--experiments", "distance",
                   "--out", out)
        assert code == 2
        assert "Re alpha_2 = -1" in capsys.readouterr().err
        assert not (out / "report_distance.json").exists()

    def test_verify_on_an_open_curve(self, sched_file, tmp_path, capsys):
        # the left lobe of the K1 lemniscate, traced from -0.2 + 0.05i, runs
        # from the saddle 1/2 to the cut: distances take the open polyline,
        # and side labeling refuses it
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", "10,20", "--out", out) == 0
        assert run("levels", "--schedule", sched_file, "--pair", "1,2", "--seed=-0.2,0.05",
                   "--out", out) == 0
        curve = serialize.read_level_curve(out / "level_1_2.csv")
        assert len(curve) == 232 and curve.hit_cut and not curve.closed
        assert run("verify", "--schedule", sched_file, "--n-list", "10,20",
                   "--experiments", "distance", "--out", out) == 0
        assert (out / "report_distance.json").exists()
        capsys.readouterr()
        assert run("verify", "--schedule", sched_file, "--n-list", "10,20",
                   "--experiments", "convergence", "--out", out) == 2
        assert "convergence labeling needs a closed loop" in capsys.readouterr().err
        assert not (out / "report_convergence.json").exists()

    @pytest.mark.parametrize("point", ["2,x", "2", "2,0,1"])
    def test_verify_malformed_test_point_exit_two(self, sched_file, tmp_path, point):
        code = run("verify", "--schedule", sched_file, "--n-list", "4,8",
                   "--test-point", point, "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("experiments", ["distanse", "distance,kscroe"])
    def test_verify_unknown_experiment_exit_two(self, sched_file, tmp_path, experiments):
        # a misspelt name must not silently skip its experiment
        out = tmp_path / "o"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        code = run("verify", "--schedule", sched_file, "--n-list", 4,
                   "--experiments", experiments, "--out", out)
        assert code == 2
        assert not (out / "manifest_verify.json").exists()

    def test_roots_prints_residual_below_float_range(self, tmp_path, capsys):
        # FIG5 at 2048 bits has residuals near 2^-2060, below the smallest
        # float64; the printed maximum must not read zero
        spath = tmp_path / "fig5.json"
        serialize.write_schedule(spath, ParameterSchedule.diagonal((CR(0, 1), CR(1, 2))))
        assert run("roots", "--schedule", spath, "--n-list", 10, "--precision", 2048,
                   "--out", tmp_path / "o") == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("n=10: 10 roots at 2048 bits, max residual ")
        assert 0 < mp.mpf(line.rsplit(" ", 1)[1]) < mp.mpf(2) ** -512

    def test_verify_without_roots_exit_four(self, sched_file, tmp_path):
        code = run("verify", "--schedule", sched_file, "--n-list", "4,8",
                   "--out", tmp_path / "empty")
        assert code == 4

    def test_plot_without_data_exit_four(self, sched_file, tmp_path):
        code = run("plot", "--out", tmp_path / "empty")
        assert code == 4

    def test_plot_missing_roots_names_writer(self, tmp_path, capsys):
        assert run("plot", "--n", 7, "--out", tmp_path / "o") == 4
        assert "roots_n7.txt not found; run the roots command first" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["1:1:0:1", "2:1:0:1", "0:1:1:0", "nan:1:0:1", "-inf:1:0:1",
                                     "0:1:0:inf"])
    @pytest.mark.parametrize("command", ["plot", "regions"])
    def test_bad_box_exit_two(self, sched_file, tmp_path, capsys, command, box):
        flags = ["--schedule", sched_file] if command == "regions" else []
        assert run(command, *flags, "--box", box, "--out", tmp_path / "o") == 2
        assert "box" in capsys.readouterr().err
        assert not (tmp_path / "o" / "figure.svg").exists()

    @pytest.mark.parametrize("width", [0, -5])
    def test_plot_width_not_positive_exit_two(self, sched_file, tmp_path, width):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("plot", "--width", width, "--out", out) == 2
        assert not (out / "figure.svg").exists()

    def test_roots_degree_one_past_float_gate(self, tmp_path, capsys):
        # n = 1 at 2048 bits: degree x grid bits passes the float sum's gate,
        # and a lone root has no pairs to sum
        spath = tmp_path / "fig5.json"
        serialize.write_schedule(spath, ParameterSchedule.diagonal((CR(0, 1), CR(1, 2))))
        assert run("roots", "--schedule", spath, "--n-list", 1, "--precision", 2048,
                   "--out", tmp_path / "o") == 0
        assert capsys.readouterr().out.startswith("n=1: 1 roots at 2048 bits")

    def test_plot_scatters_largest_n(self, sched_file, tmp_path):
        # by name roots_n9.txt sorts after roots_n10.txt; an unparsable n is skipped
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", "9,10", "--precision", 128,
                   "--out", out) == 0
        (out / "roots_nx.txt").write_text("not a roots file\n")
        assert run("plot", "--out", out) == 0
        assert (out / "figure.svg").read_text().count('r="2.2"') == 10

    @pytest.mark.parametrize("command", [
        ("verify", "--experiments", "kscore", "--n-list", 4),
        ("plot", "--with-regions"),
    ])
    def test_truncated_regions_file_exit_two(self, sched_file, tmp_path, command):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("regions", "--schedule", sched_file, "--resolution", 80, "--out", out) == 0
        regions = out / "regions.txt"
        regions.write_text("".join(regions.read_text().splitlines(keepends=True)[:40]))
        args = list(command) + (["--schedule", sched_file] if command[0] == "verify" else [])
        assert run(*args, "--out", out) == 2

    @pytest.mark.parametrize("damaged, sep", [("roots_n4.txt", " "), ("level_1_2.csv", ",")])
    @pytest.mark.parametrize("command", [
        ("verify", "--experiments", "distance", "--n-list", 4),
        ("plot",),
    ])
    def test_truncated_data_file_exit_two(self, sched_file, tmp_path, capsys, command,
                                          damaged, sep):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("levels", "--schedule", sched_file, "--out", out) == 0
        path = out / damaged
        text = path.read_text()
        # cut about half way, inside a row
        path.write_text(text[:text.index(sep, len(text) // 2)])
        args = list(command) + (["--schedule", sched_file] if command[0] == "verify" else [])
        assert run(*args, "--out", out) == 2
        assert f"{damaged}, line " in capsys.readouterr().err


    @pytest.mark.parametrize("header", ["# level curve pair = x,2 closed = True",
                                        "# level curve pair"], ids=["bad-pair", "cut-header"])
    def test_malformed_level_header_exit_two(self, sched_file, tmp_path, capsys, header):
        out = tmp_path / "out"
        assert run("levels", "--schedule", sched_file, "--out", out) == 0
        path = out / "level_1_2.csv"
        rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "\n" + "".join(rows[1:]))
        assert run("plot", "--out", out) == 2
        assert "level_1_2.csv, line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("precision, recorded", [(None, 128), (512, 256)])
    def test_curve_manifest_records_bits_used(self, sched_file, tmp_path, precision, recorded):
        out = tmp_path / "out"
        flags = ["--precision", precision] if precision else []
        assert run("curve", "--schedule", sched_file, *flags, "--out", out) == 0
        manifest = json.loads((out / "manifest_curve.json").read_text())
        assert manifest["config"]["precision"] == recorded

    def test_roots_file_cut_on_row_boundary_exit_two(self, sched_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 6, "--precision", 128,
                   "--out", out) == 0
        path = out / "roots_n6.txt"
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(rows[:5]))
        assert run("verify", "--experiments", "distance", "--n-list", 6,
                   "--schedule", sched_file, "--out", out) == 2
        assert "header says count 6" in capsys.readouterr().err


def _schedule_file(tmp_path, sched, name):
    path = tmp_path / f"{name}.json"
    serialize.write_schedule(path, sched)
    return path


class TestFailurePaths:
    """Inputs that end in each exit code, and the command paths no other test runs."""

    @pytest.mark.parametrize("precision", [0, -3])
    @pytest.mark.parametrize("family", ["fig5", "nd3"])
    def test_curve_precision_below_one_bit_exit_two(self, tmp_path, capsys, family, precision):
        # FIG5 hung in mpmath's 0-bit division; ND3 wrote two meaningless branch points
        spath = _schedule_file(tmp_path, {"fig5": FIG5, "nd3": ND3}[family], family)
        out = tmp_path / "out"
        assert run("curve", "--schedule", spath, "--precision", precision, "--out", out) == 2
        assert f"precision must be at least 1 bit, got {precision}" in capsys.readouterr().err
        assert not (out / "branch_points.txt").exists()

    def test_levels_seed_at_saddle_exit_two(self, sched_file, tmp_path, capsys):
        assert run("levels", "--schedule", sched_file, "--pair", "1,2", "--seed", "0.5,0",
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "critical point (0.5+0j)" in err
        assert "-0.785398, 0.785398, 2.356194, 3.926991 (radians)" in err

    def test_levels_general_schedule(self, tmp_path):
        # integral mode anchors the trace at its seed and needs no basepoint
        spath = _schedule_file(tmp_path, ND3, "nd3")
        out = tmp_path / "out"
        assert run("levels", "--schedule", spath, "--pair", "1,2", "--seed=-0.5,0.8",
                   "--step", 0.02, "--out", out) == 0
        curve = serialize.read_level_curve(out / "level_1_2.csv")
        assert curve.pair == (1, 2) and curve.hit_cut and not curve.closed
        assert len(curve) == 344 and curve.critical_points == ()

    def test_non_convergence_exit_three_prints_trace(self, sched_file, tmp_path, monkeypatch,
                                                     capsys):
        def fail(p, bits):
            raise NonConvergenceError("did not certify",
                                      trace=[{"phase": "certify", "working_bits": bits}])

        monkeypatch.setattr("hyperzeros.cli.find_roots", fail)
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "non-convergence: did not certify\n  {'phase': 'certify', 'working_bits': 128}" in err

    def test_branch_collision_exit_three(self, sched_file, tmp_path, monkeypatch, capsys):
        def collide(*args, **kwargs):
            raise BranchCollisionError("branches collide near z = 0.5", where=0.5)

        monkeypatch.setattr("hyperzeros.potential.trace_level_curve", collide)
        assert run("levels", "--schedule", sched_file, "--pair", "1,2", "--seed", "1.2,0",
                   "--out", tmp_path / "o") == 3
        assert "branch collision: branches collide near z = 0.5" in capsys.readouterr().err

    def test_plot_box_below_one_pixel_exit_two(self, sched_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("plot", "--box", "0:10000:0:1", "--out", out) == 2
        assert "less than one pixel high" in capsys.readouterr().err
        assert not (out / "figure.svg").exists()

    def test_plot_with_regions_draws_the_raster(self, sched_file, tmp_path):
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("regions", "--schedule", sched_file, "--resolution", 40, "--out", out) == 0
        assert run("plot", "--with-regions", "--out", out) == 0
        svg = (out / "figure.svg").read_text()
        raster = svg[svg.index('<g shape-rendering="crispEdges">'):]
        raster = raster[:raster.index("</g>")]
        # both labels of the K1 grid, one rect per run of equal labels in a row
        assert f'fill="{REGION_COLORS[0]}"' in raster and f'fill="{REGION_COLORS[1]}"' in raster
        assert 40 < raster.count("<rect") < 40 * 40

    def test_verify_convergence_skipped_for_three_slopes(self, tmp_path, capsys):
        # branch designation exists only for two slopes: the report records the skip
        spath = _schedule_file(tmp_path, FIG5, "fig5")
        out = tmp_path / "out"
        assert run("roots", "--schedule", spath, "--n-list", "4,6", "--precision", 128,
                   "--out", out) == 0
        assert run("levels", "--schedule", spath, "--out", out) == 0
        assert run("verify", "--schedule", spath, "--n-list", "4,6", "--experiments",
                   "convergence", "--out", out) == 0
        report = json.loads((out / "report_convergence.json").read_text())
        assert set(report) == {"provenance", "skipped"} and report["skipped"]
        assert "convergence skipped: " in capsys.readouterr().out

    def test_verify_convergence_with_one_n_exit_two(self, sched_file, tmp_path, capsys):
        # only a schedule outside the two-slope family skips; one n is an input error
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", 4, "--precision", 128,
                   "--out", out) == 0
        assert run("levels", "--schedule", sched_file, "--step", 0.01, "--out", out) == 0
        capsys.readouterr()
        assert run("verify", "--schedule", sched_file, "--n-list", 4, "--experiments",
                   "convergence", "--out", out) == 2
        assert "need at least two n values to compare" in capsys.readouterr().err
        assert not (out / "report_convergence.json").exists()

    def test_verify_test_point_on_the_loop_exit_two(self, sched_file, tmp_path, capsys):
        # 0.5 is the saddle of the K1 loop, the first point of level_1_2.csv
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", "4,8", "--precision", 128,
                   "--out", out) == 0
        assert run("levels", "--schedule", sched_file, "--out", out) == 0
        assert serialize.read_level_curve(out / "level_1_2.csv").points[0] == 0.5
        capsys.readouterr()
        assert run("verify", "--schedule", sched_file, "--n-list", "4,8", "--experiments",
                   "convergence", "--test-point", "0.5,0", "--out", out) == 2
        assert "test point (0.5+0j) lies on the traced loop" in capsys.readouterr().err
        assert not (out / "report_convergence.json").exists()

    @pytest.mark.parametrize("command", ["roots", "verify"])
    def test_repeated_n_exit_two(self, sched_file, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, "--schedule", sched_file, "--n-list", "4,8,4", "--out", out) == 2
        assert "n-list '4,8,4' must name at least one n, each once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("verify", "--test-point", "nan,0"), ("verify", "--test-point", "inf,0"),
        ("verify", "--eps-cells", "nan"), ("verify", "--eps-cells", "inf"),
        ("verify", "--eps-cells", "-1"), ("verify", "--eps-cells", "0"),
        ("levels", "--pair", "1,2", "--seed", "nan,0"),
    ], ids=["point-nan", "point-inf", "eps-nan", "eps-inf", "eps-negative", "eps-zero", "seed-nan"])
    def test_non_finite_number_exit_two(self, sched_file, tmp_path, capsys, args):
        # rejected as parsed: no data file is read
        out = tmp_path / "out"
        assert run(*args, "--schedule", sched_file, "--out", out) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestVerifyReports:
    # SHA-256 of every report of a K1 and a FIG5 run, whose relative --out keeps
    # data_dir the same on every run
    REPORT_SHA256 = {
        ("k1", "distance"): "50daf202bef320afe6e879f8fb8b6caf4869389f708a089cec4f7972bed05ad6",
        ("k1", "convergence"): "9d583841b7bd2df35229dffc059ae1e592e550e62f3b8e7a7f51fc88af845139",
        ("k1", "kscore"): "d2a36fc249621983a33b4d811cbab8a9a966e5bfa4b2ff3d473d455347790e69",
        ("fig5", "distance"): "25af40d13e4db07a9f56adc647e3bfd9daf7239efbe58b0426305b79345701b4",
        ("fig5", "convergence"): "a75bcd3d55708c53f1708cfb6030ac5c0ebbc3dd433db87cd375e82520640911",
        ("fig5", "kscore"): "c48b5e2c4539f49c8d530a2457d56f012db79e407a147bf3af763d5530b176c7",
    }

    def test_reports_and_manifest_inputs_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for family, sched in (("k1", K1), ("fig5", FIG5)):
            serialize.write_schedule(f"{family}.json", sched)
            for args in (("roots", "--n-list", "4,8", "--precision", 128), ("levels", "--step", 0.01),
                         ("regions", "--resolution", 80), ("verify", "--n-list", "4,8")):
                assert run(*args, "--schedule", f"{family}.json", "--out", family) == 0
            manifest = json.loads(Path(family, "manifest_verify.json").read_text())
            assert set(manifest["input_hashes"]) == {"schedule", "roots_n4", "roots_n8",
                                                     "level_1_2", "regions"}
        assert {key: hashlib.sha256(Path(key[0], f"report_{key[1]}.json").read_bytes()).hexdigest()
                for key in self.REPORT_SHA256} == self.REPORT_SHA256

    def test_new_experiment_runs_without_cli_edit(self, sched_file, tmp_path, monkeypatch, capsys):
        # an entry in EXPERIMENTS is a verify report; its data files are read once
        out = tmp_path / "out"
        assert run("roots", "--schedule", sched_file, "--n-list", "4,6", "--precision", 128,
                   "--out", out) == 0
        (out / "stub.txt").write_text("stub data\n")
        reads = []

        def parse(path):
            reads.append(path)
            return path.read_text()

        def stub(schedule, measures, data, options):
            assert data("stub.txt", parse, "stub") == data("stub.txt", parse, "stub")
            return {"n": list(measures), "text": data("stub.txt", parse, "stub"),
                    "eps_cells": options["eps_cells"]}, "stub: done"

        monkeypatch.setitem(experiments.EXPERIMENTS, "stub", stub)
        capsys.readouterr()
        assert run("verify", "--schedule", sched_file, "--n-list", "6,4", "--experiments", "stub",
                   "--eps-cells", 2, "--out", out) == 0
        assert capsys.readouterr().out == "stub: done\n"
        report = json.loads((out / "report_stub.json").read_text())
        assert report == {"provenance": {"schedule": serialize.schedule_hash(K1), "n_list": [4, 6],
                                         "data_dir": str(out)},
                          "n": [4, 6], "text": "stub data\n", "eps_cells": 2.0}
        assert reads == [out / "stub.txt"]
        manifest = json.loads((out / "manifest_verify.json").read_text())
        assert set(manifest["input_hashes"]) == {"schedule", "roots_n4", "roots_n6", "stub"}
        assert manifest["config"]["experiments"] == ["stub"]


class TestConfigPrecedence:
    def test_flags_override_config(self, sched_file, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schedule": str(sched_file),
            "n": 3,
            "out": str(out),
        }))
        assert run("--config", cfg, "poly") == 0
        assert (out / "poly_n3.txt").exists()
        assert run("--config", cfg, "poly", "--n", 5) == 0
        assert (out / "poly_n5.txt").exists()

    def test_help_exits_zero(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("command", ["poly", "roots", "curve", "levels", "regions",
                                         "verify", "plot"])
    def test_subcommand_help_exits_zero(self, command):
        assert run(command, "--help") == 0

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_config_exit_two(self, sched_file, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert run("--config", cfg, "poly", "--schedule", sched_file,
                   "--out", tmp_path / "o") == 2

    def test_list_valued_config_matches_flags(self, sched_file, tmp_path):
        flags, config = tmp_path / "flags", tmp_path / "config"
        assert run("roots", "--schedule", sched_file, "--n-list", "4,6",
                   "--precision", 128, "--out", flags) == 0
        assert run("regions", "--schedule", sched_file, "--box", "-1.2:2.1:-1.4:1.4",
                   "--resolution", 40, "--out", flags) == 0
        assert run("plot", "--box", "-1.2:2.1:-1.4:1.4", "--out", flags) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schedule": str(sched_file), "n_list": [4, 6], "precision": 128,
            "box": [-1.2, 2.1, -1.4, 1.4], "resolution": 40, "out": str(config),
        }))
        for command in ("roots", "regions", "plot"):
            assert run("--config", cfg, command) == 0
        names = sorted(p.name for p in flags.iterdir())
        assert names == sorted(p.name for p in config.iterdir())
        assert "figure.svg" in names and "roots_n6.txt" in names
        for name in names:
            assert (flags / name).read_bytes() == (config / name).read_bytes(), name

    def test_flag_overrides_list_valued_config(self, sched_file, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schedule": str(sched_file), "n_list": [4, 6], "precision": 128,
            "box": [-1.0, 2.0, -1.5, 1.5], "resolution": 20, "out": str(out),
        }))
        assert run("--config", cfg, "roots", "--n-list", "5") == 0
        assert sorted(p.name for p in out.glob("roots_n*.txt")) == ["roots_n5.txt"]
        assert run("--config", cfg, "regions", "--box", "-2:3:-2:2") == 0
        manifest = json.loads((out / "manifest_regions.json").read_text())
        assert manifest["config"]["box"] == [-2.0, 3.0, -2.0, 2.0]

    def test_roots_follows_n_list_not_n(self, sched_file, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schedule": str(sched_file), "n": 3, "n_list": [4, 6], "precision": 128,
            "out": str(out),
        }))
        assert run("--config", cfg, "roots") == 0
        assert sorted(p.name for p in out.glob("roots_n*.txt")) == ["roots_n4.txt", "roots_n6.txt"]
        manifest = json.loads((out / "manifest_roots.json").read_text())
        assert manifest["config"]["n_list"] == [4, 6]

    @pytest.mark.parametrize("experiments, code", [
        (["kscore"], 0), ("kscore", 0), (["distance", "kscroe"], 2),
    ])
    def test_verify_experiments_from_config(self, sched_file, tmp_path, experiments, code):
        # a config gives experiments as a JSON list or as the flag's string
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "schedule": str(sched_file), "n_list": [4], "precision": 128, "resolution": 40,
            "experiments": experiments, "out": str(out),
        }))
        assert run("--config", cfg, "roots") == 0
        assert run("--config", cfg, "regions") == 0
        assert run("--config", cfg, "verify") == code
        if code:
            assert not (out / "manifest_verify.json").exists()
        else:
            manifest = json.loads((out / "manifest_verify.json").read_text())
            assert manifest["config"]["experiments"] == ["kscore"]
            assert (out / "report_kscore.json").exists()
            assert not (out / "report_distance.json").exists()


class TestImports:
    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_poly_roots_curve_run_without_numpy(self, sched_file, tmp_path):
        script = f"""
import sys
from hyperzeros import serialize
from hyperzeros.cli import main
args = ["--schedule", {str(sched_file)!r}, "--out", {str(tmp_path / "out")!r}]
assert main(["poly", "--n", "6"] + args) == 0
assert main(["roots", "--n-list", "6", "--precision", "128"] + args) == 0
assert main(["curve"] + args) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "roots_n6.txt").exists()
        assert (tmp_path / "out" / "branch_points.txt").exists()

    # the package's public names by defining module
    PUBLIC = {
        "exact": ["ComplexRational"],
        "hyppoly": ["HypPolynomial", "ParameterSchedule", "apply_hypergeometric_operator",
                    "build_polynomial", "characteristic_roots", "is_general_type", "pochhammer"],
        "rootfinding": ["RootCountingMeasure", "cauchy_transform_at", "find_roots",
                        "log_potential_at", "vieta_check"],
        "algcurve": ["BivariateCurve", "BranchPointSet", "branch_points", "branches_at",
                     "build_curve", "verify_rational_branches"],
        "potential": ["HarmonicSystem", "LevelCurve", "RegionGrid", "classify_regions",
                      "harmonic_value_by_integration", "make_harmonic_system", "psi_value",
                      "trace_conjectured_loop", "trace_level_curve"],
        "experiments": ["cauchy_convergence", "k_set_score", "halfplane_restriction",
                        "winding_number", "zero_curve_distance"],
    }

    def test_public_names_resolve_to_their_modules(self):
        assert hyperzeros.__all__ == [name for names in self.PUBLIC.values() for name in names]
        for module_name, names in self.PUBLIC.items():
            module = importlib.import_module(f"hyperzeros.{module_name}")
            for name in names:
                assert getattr(hyperzeros, name) is getattr(module, name), name
        with pytest.raises(AttributeError):
            hyperzeros.not_a_public_name
