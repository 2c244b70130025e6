import argparse
import csv
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fracweyl.cli import build_parser, main, EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_ASSERTION
from halfline_oracles import projector_profile

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(args)


# runs main(argv) in a fresh interpreter, then names the scipy modules it
# loaded on the last line of stderr
_FRESH_PROBE = ("import sys; from fracweyl.cli import main; code = main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                "file=sys.stderr); sys.exit(code)")


def run_fresh(argv):
    """(exit code, stdout, scipy modules loaded) of ``main(argv)`` run in a
    fresh interpreter, where no other test has imported the lattice."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]


class TestConvertCommand:
    def test_unit_example(self, tmp_path, capsys):
        out = tmp_path / "conv.json"
        code = run(["convert", "--A", "1", "--a", "1", "--b", "0",
                    "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["C"]["value"] == pytest.approx(0.25, rel=1e-14)
        assert rec["D"]["value"] == 0.0
        assert rec["A_roundtrip"]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_inadmissible_exponents(self):
        assert run(["convert", "--A", "1", "--a", "1", "--b", "2"]) == EXIT_USAGE

    def test_csv_json_same_numbers(self, tmp_path):
        cj = tmp_path / "c.json"
        cc = tmp_path / "c.csv"
        run(["convert", "--A", "2", "--a", "0.8", "--b", "0.3",
             "--format", "json", "--output", str(cj)])
        run(["convert", "--A", "2", "--a", "0.8", "--b", "0.3",
             "--format", "csv", "--output", str(cc)])
        rec = json.loads(cj.read_text())
        rows = {r["name"]: float(r["value"])
                for r in csv.DictReader(cc.open())}
        for name, entry in rec.items():
            assert rows[name] == pytest.approx(entry["value"], rel=1e-15, abs=1e-300)


    @pytest.mark.parametrize("A, name", [("1e308", "C = 0.0"), ("1e-308", "C = inf")])
    def test_out_of_range_is_a_numerical_failure(self, A, name, capsys):
        assert run(["convert", "--A", A, "--a", "0.5", "--b", "0"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {name} ")


class TestFreshInterpreter:
    @pytest.mark.parametrize("argv", [
        ["convert", "--A", "1", "--a", "0.5", "--b", "-0.5"],
        ["kernels", "--s", "0.5", "--mu", "2", "--t", "0.5,1"],
    ], ids=lambda argv: argv[0])
    def test_numpy_only_commands_load_no_scipy(self, argv):
        code, _, scipy_modules = run_fresh(argv)
        assert code == EXIT_OK
        assert scipy_modules == "[]"

    @pytest.mark.parametrize("argv", [
        ["verify-square", "--s", "0.5", "--lattice-points", "8", "--h-max", "5"],
        ["verify-halfspace", "--s", "0.5", "--h", "0.5"],
        ["order-check", "--s-list", "0.5", "--interval-points", "32",
         "--square-points", "10"],
    ], ids=lambda argv: argv[0])
    def test_lattice_commands_import_the_lattice(self, argv, capsys):
        # a lattice command imports the lattice itself: run alone, it loads
        # scipy.sparse.linalg for Lanczos but not scipy.fft, and gives the
        # record and exit code of an in-process run
        code, out, scipy_modules = run_fresh(argv)
        assert "'scipy.sparse.linalg'" in scipy_modules
        assert "'scipy.fft'" not in scipy_modules
        assert (code, out) == (run(argv), capsys.readouterr().out)


def _subcommands():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices)


# argparse formats help text only when it is asked for, so a malformed help
# string surfaces here and nowhere else
@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in _subcommands()],
                         ids=lambda a: " ".join(a))
def test_help_exits_cleanly(argv, capsys):
    assert run(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: fracweyl") and err == ""


class TestUsageErrors:
    def test_invalid_order(self):
        assert run(["kernels", "--s", "1.5"]) == EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_verify_square_wrong_dimension(self):
        assert run(["verify-square", "--s", "0.5", "--d", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["kernels", "--s", "0.5", "--t", "-1"],
        ["kernels", "--s", "0.5", "--mu", "-2"],
        ["kernels", "--s", "0.5", "--mu", "1,abc"],
        ["layer", "--s", "0.5", "--t-min", "0"],
        ["layer", "--s", "0.5", "--t-min", "-1"],
        ["layer", "--s", "0.5", "--points", "0"],
        ["layer", "--s", "0.5", "--plot-script"],
        ["order-check", "--s-list", "0.5,x"],
        ["order-check", "--s-list", "0.5", "--interval-points", "0"],
        ["order-check", "--s-list", "0.5", "--square-points", "65"],
        ["localization-check", "--l0", "0.9"],
        ["localization-check", "--resolution", "0"],
        ["localization-check", "--extent", "-1"],
        ["localization-check", "--points", "0"],
        ["verify-square", "--s", "0.5", "--lattice-points", "0"],
        ["verify-square", "--s", "0.5", "--lattice-points", "8", "--h-count", "2"],
        ["verify-square", "--s", "0.5", "--h-max", "-0.25"],
        ["verify-square", "--s", "0.5", "--h-count", "-1"],
        ["verify-square", "--s", "0.5", "--c0-tol", "0"],
        ["verify-square", "--s", "0.5", "--c1-tol", "nan"],
        ["verify-halfspace", "--s", "0.5", "--h", "0"],
        ["verify-halfspace", "--s", "0.5", "--h", "-1"],
        ["localization-check", "--tolerance", "-1e-3"],
        ["convert", "--A", "1", "--a", "1", "--b", "0", "--format", "xml"],
        ["kernels", "--s", "0.5", "--d", "3"],
        ["verify-halfspace", "--s", "0.5", "--d", "3"],
        ["verify-square", "--s", "0.5", "--h-max", "0.01"],
    ], ids="_".join)
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_h_grid_checked_before_eigensolve(self, monkeypatch):
        import fracweyl.lattice as lat

        def unreachable(*args, **kwargs):
            raise AssertionError("eigensolve reached with a bad h grid")

        monkeypatch.setattr(lat, "lowest_spectrum", unreachable)
        assert run(["verify-square", "--s", "0.5", "--h-count", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, numerics", [
        (["constants", "--s", "0.5", "--volume", "1"],
         "fracweyl.constants.compute_weyl_coefficients"),
        (["constants", "--s", "0.5", "--surface", "4"],
         "fracweyl.constants.compute_weyl_coefficients"),
        (["constants", "--s", "0.5", "--volume", "-1", "--surface", "4"],
         "fracweyl.constants.compute_weyl_coefficients"),
        (["layer", "--s", "0.5", "--t-min", "50", "--t-max", "40"],
         "fracweyl.cli.HalfLineModel"),
        (["order-check", "--s-list", "0.5,1.5"], "fracweyl.lattice.operator_order_check"),
        # a descending h grid that spans a factor of 6.25
        (["verify-square", "--s", "0.5", "--h-max", "0.01"],
         "fracweyl.lattice.lowest_spectrum"),
        # a disk of radius 0.005 has no point 0.02 inside its circle: the
        # rejection sampling of sample points would never end
        (["localization-check", "--shape", "disk", "--extent", "0.01"],
         "fracweyl.cli.np.random.default_rng"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else v.rsplit(".", 1)[-1])
    def test_refused_before_numerics(self, argv, numerics, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{numerics} reached with bad input")

        monkeypatch.setattr(numerics, unreachable)
        assert run(argv) == EXIT_USAGE


class TestCrosscheckScript:
    def test_row_matches_constants(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "crosscheck_surface_routes.py"),
             "--s-list", "0.5"], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header.split()[:3] == ["s", "L1", "L2(layer)"]
        assert len(rows) == 1
        s, l1, l2, _, _, tilde, _ = rows[0].split()
        out = tmp_path / "const.json"
        assert run(["constants", "--s", "0.5", "--format", "json",
                    "--output", str(out)]) == EXIT_OK
        rec = json.loads(out.read_text())
        assert s == "0.5"
        for name, printed in (("L1", l1), ("L2", l2), ("L2_tilde", tilde)):
            assert printed == f"{rec[name]['value']:.6e}", name

    @pytest.mark.parametrize("argv", [["--s-list", "0.5,x"], ["--s-list", "1.5"],
                                      ["--d", "1"]], ids="_".join)
    def test_bad_order_exits_before_computing(self, argv, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck_surface_routes.py"
        spec = importlib.util.spec_from_file_location("crosscheck", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def unreachable(order):
            raise AssertionError("computed a row before validating every order")

        monkeypatch.setattr(script, "compute_weyl_coefficients", unreachable)
        monkeypatch.setattr("sys.argv", [str(path)] + argv)
        assert script.main() == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1


class TestKernelsCommand:
    def test_table_written(self, tmp_path):
        out = tmp_path / "kern.csv"
        code = run(["kernels", "--s", "0.5", "--mu", "2.0", "--t", "0.5,1.0",
                    "--output", str(out)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert float(rows[0]["a_line"]) == pytest.approx(
            (math.sqrt(3.0) - math.log(2.0 + math.sqrt(3.0)) / 2.0) / math.pi,
            rel=1e-9)


    def test_tables_built_once_per_use(self, tmp_path, monkeypatch):
        # per mu, one density-table build for the kernel gaps and one for
        # the projector diagonal of every --t, not one per --t; proj_diag
        # is the one-offset projector profile at each depth
        from fracweyl.halfline import FractionalOrder, HalfLineModel
        table = HalfLineModel.gamma_table
        calls = []

        def counting(self, lam):
            calls.append(lam)
            return table(self, lam)

        monkeypatch.setattr(HalfLineModel, "gamma_table", counting)
        out = tmp_path / "kern.csv"
        assert run(["kernels", "--s", "0.5", "--mu", "2,4", "--t", "0.1,0.5,1,2,5,10",
                    "--output", str(out)]) == EXIT_OK
        assert len(calls) == 4
        model = HalfLineModel(FractionalOrder(0.5, 2))
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 12
        for row in rows:
            mu, t = float(row["mu"]), float(row["t"])
            assert float(row["proj_diag"]) == pytest.approx(
                projector_profile(model, t, [t], mu)[0], rel=1e-12, abs=0.0)

    def test_spectral_edge_past_rounding_edge(self, capsys):
        # spectral edge 1e8: the cosine sweep of 2e8 rad is refused, with no
        # warning on the way (the density rows there are checked in
        # TestSpectralDensity::test_edge_grid_rows_at_edge_1e8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["kernels", "--s", "0.25", "--mu", "1e4", "--t", "1"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_unresolved_sweep_exits_numerical(self, capsys):
        # kernel_gap(10, 1000) sweeps 2e4 rad, past its cap of 600 panels
        assert run(["kernels", "--s", "0.5", "--mu", "1000", "--t", "10"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "cap of 600" in captured.err


class TestLayerCommand:
    def test_final_row_matches_constants_route(self, tmp_path):
        out = tmp_path / "layer.csv"
        code = run(["layer", "--s", "0.5", "--points", "12", "--t-max", "20",
                    "--output", str(out)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        ts = [float(r["t"]) for r in rows[:-1]]
        assert ts == sorted(ts)
        assert all(math.isfinite(float(r["K"])) for r in rows[:-1])
        from fracweyl.constants import surface_via_layer
        from fracweyl.halfline import FractionalOrder
        ref, _ = surface_via_layer(FractionalOrder(0.5, 2))
        assert float(rows[-1]["cumulative"]) == pytest.approx(ref, abs=1e-10)

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run(["layer", "--s", "0.3", "--points", "8", "--t-max", "10",
                 "--output", str(path)])
        assert a.read_text() == b.read_text()


class TestLocalizationCommand:
    @pytest.mark.parametrize("shape", ["interval", "rectangle", "disk"])
    def test_each_shape_passes_at_its_defaults(self, shape):
        assert run(["localization-check", "--shape", shape, "--output", os.devnull]) == EXIT_OK

    def test_interval_run(self, tmp_path):
        out = tmp_path / "locz.json"
        code = run(["localization-check", "--shape", "interval",
                    "--points", "4", "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["worst_partition_error"]["value"] < 1e-3

    @pytest.mark.parametrize("argv", [["--shape", "disk"],
                                      ["--shape", "rectangle", "--extent", "3"]],
                             ids="_".join)
    def test_two_dimensional_run(self, argv, tmp_path):
        out = tmp_path / "locz.json"
        code = run(["localization-check", *argv, "--resolution", "8", "--points", "8",
                    "--tolerance", "1e-3", "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert 0.0 < rec["worst_partition_error"]["value"] < 1e-3

    @pytest.mark.parametrize("extent, code", [("0.04004", EXIT_USAGE),
                                              ("0.05", EXIT_ASSERTION)])
    def test_disk_sampling_refused_below_one_percent(self, extent, code):
        # at 0.04004 about 1e-6 of the sampling box lies 0.02 inside the
        # circle, and rejection sampling took over a minute; at 0.05 the
        # share is 4.5% and the run ends in a failed exponent check
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "fracweyl.cli", "localization-check", "--shape", "disk",
             "--extent", extent, "--resolution", "2", "--output", os.devnull],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == code, proc.stderr

    def test_domain_too_narrow_for_bulk_exits_3(self, capsys):
        assert run(["localization-check", "--extent", "0.01"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: bulk integral")


class TestOrderCheckCommand:
    def test_passes(self, tmp_path):
        out = tmp_path / "ord.json"
        code = run(["order-check", "--s-list", "0.5", "--interval-points", "32",
                    "--square-points", "10", "--format", "json",
                    "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["interval_min_eig_s=0.5"]["value"] >= -1e-10

    def test_uneven_kernel_is_a_numerical_failure(self, monkeypatch, capsys):
        import fracweyl.lattice as lat
        exact = lat._multiplier_kernel

        def uneven(domain, s):
            circle = exact(domain, s)
            circle[1] *= 1 + 1e-9
            return circle

        monkeypatch.setattr(lat, "_multiplier_kernel", uneven)
        assert run(["order-check", "--s-list", "0.5", "--interval-points", "8",
                    "--square-points", "6"]) == EXIT_NUMERICAL
        assert "odd along axis 0" in capsys.readouterr().err


# every entry of `constants --s 0.5 --d 2 --volume 1 --surface 4` as
# (value, err), recorded before the quadrature spec was removed; L1's err,
# its closed form's distance from quadcore.integrate, was re-recorded when
# integrate moved to bisected Gauss-Legendre panels; C2's sign was flipped
# when the sum-side map was given the surface term as +L2|bdry|
FULL_RECORD = {
    "L1": (0.026525823848649228, 6.938893903907228e-18),
    "L2": (0.025328216744399897, 1.0753531488163124e-05),
    "L2_eigenfunction": (0.02533031604460813, 1.8296498591971806e-08),
    "L2_energy_shift": (0.02534207202566826, 5.031869846815196e-06),
    "L2_tilde": (0.03978894237461304, 2.085816321885598e-05),
    "C1": (2.3632718012073544, 0.0),
    "C2": (0.31828375861094677, 0.0),
}


class TestConstantsCommand:
    def test_order_too_small_for_density_quadrature_exits_3(self, capsys):
        assert run(["constants", "--s", "0.02"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err

    def test_full_record(self, tmp_path):
        # slow path: all three surface routes plus the comparison constant
        out = tmp_path / "const.json"
        code = run(["constants", "--s", "0.5", "--d", "2", "--volume", "1",
                    "--surface", "4", "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["L1"]["value"] == pytest.approx(1.0 / (12.0 * math.pi), abs=1e-8)
        assert rec["L2"]["value"] > 0
        assert rec["L2"]["route"] == "L2:K_integral"
        assert rec["flag_L2_positive"]["value"] == 1.0
        assert rec["flag_L2_below_tilde"]["value"] == 1.0
        assert rec["C1"]["value"] > 0
        assert rec["C2"]["value"] > 0
        for name, (value, err) in FULL_RECORD.items():
            assert rec[name]["value"] == pytest.approx(value, rel=1e-12, abs=0.0), name
            assert rec[name]["err"] == pytest.approx(err, rel=1e-9, abs=0.0), name

    def test_failed_comparison_exits_4(self, tmp_path, monkeypatch):
        # an L2_tilde below L2 is reported through the flags, not raised
        import fracweyl.constants as consts
        monkeypatch.setattr(consts, "surface_dirichlet_power", lambda order: (1e-3, 0.0))
        out = tmp_path / "const.json"
        code = run(["constants", "--s", "0.5", "--format", "json", "--output", str(out)])
        assert code == EXIT_ASSERTION
        rec = json.loads(out.read_text())
        assert rec["flag_L2_positive"]["value"] == 1.0
        assert rec["flag_L2_below_tilde"]["value"] == 0.0


class TestVerifySquareCommand:
    def test_pipeline_wiring(self, tmp_path):
        # smaller mask with a wider h-window: exercises the surface, tolerance
        # checks at desk precision live in the acceptance suite
        out = tmp_path / "sq.json"
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "48",
                    "--h-max", "0.3334", "--c0-tol", "0.06", "--c1-tol", "0.5",
                    "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        rec = json.loads(out.read_text())
        assert rec["c0_fit"]["value"] > 0
        assert rec["c1_fit"]["value"] < 0

    def test_target_is_the_eigenfunction_route(self, tmp_path):
        # c1_target is -L2 * perimeter with L2 and its err taken, unrounded,
        # from the eigenfunction route
        from fracweyl.constants import surface_via_eigenfunctions
        from fracweyl.halfline import FractionalOrder
        from fracweyl.lattice import square_domain
        out = tmp_path / "sq.json"
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "48",
                    "--h-max", "0.3334", "--c0-tol", "0.06", "--c1-tol", "0.5",
                    "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        l2, err = surface_via_eigenfunctions(FractionalOrder(0.5, 2))
        perimeter = square_domain(48).surface
        assert json.loads(out.read_text())["c1_target"] == {
            "value": -l2 * perimeter, "err": err * perimeter,
            "route": "-L2:eigenfunction_form*perimeter"}

    def test_runs_without_the_layer_engine(self, tmp_path, monkeypatch):
        # the command's cost is its lattice solve: the boundary layer, the
        # costly route to L2, is never evaluated
        from fracweyl.halfline import HalfLineModel

        def unreachable(self, t):
            raise AssertionError("verify-square evaluated the boundary layer")

        monkeypatch.setattr(HalfLineModel, "boundary_layer", unreachable)
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "48",
                    "--h-max", "0.3334", "--c0-tol", "0.06", "--c1-tol", "0.5",
                    "--output", str(tmp_path / "sq.csv")])
        assert code == EXIT_OK

    def test_no_dense_cap(self, tmp_path):
        # 65^2 sites are past the dense cap of 4096; the solve forms no matrix
        out = tmp_path / "sq.json"
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "65",
                    "--format", "json", "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["c1_rel_dev"]["value"] < 0.25

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_tiny_lattice_solves(self, points, capsys):
        # a 1-cell axis leaves its odd parity block empty, and 2 or 3 cells
        # give 1- and 2-site blocks: each solves, and the fit is judged
        code = run(["verify-square", "--s", "0.5", "--lattice-points", str(points),
                    "--h-max", "20"])
        assert code in (EXIT_OK, EXIT_ASSERTION)
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_fitted_c0_is_a_failed_check(self, tmp_path, capsys):
        # every h >= 0.5 leaves all Riesz means at 0, so the fit gives c0 = 0:
        # the record carries it and --c0-tol judges it
        out = tmp_path / "sq.json"
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "8",
                    "--h-max", "5", "--format", "json", "--output", str(out)])
        assert code == EXIT_ASSERTION
        assert "Traceback" not in capsys.readouterr().err
        rec = json.loads(out.read_text())
        assert rec["c0_fit"]["value"] == 0.0
        assert rec["c0_rel_dev"]["value"] == 1.0

    @pytest.mark.parametrize("scale, expected", [(1.0, EXIT_OK), (0.5, EXIT_ASSERTION)])
    def test_trace_bound_decides_alone(self, scale, expected, tmp_path, monkeypatch):
        # with the fit tolerances out of reach the exit code is the sharp
        # trace bound's: halving L1 halves the Weyl term under every Riesz
        # mean and breaks the bound
        import fracweyl.constants as consts
        exact = consts.bulk_coefficient
        monkeypatch.setattr(consts, "bulk_coefficient", lambda order: scale * exact(order))
        out = tmp_path / "sq.json"
        code = run(["verify-square", "--s", "0.5", "--lattice-points", "48",
                    "--h-max", "0.3334", "--c0-tol", "1e9", "--c1-tol", "1e9",
                    "--format", "json", "--output", str(out)])
        assert code == expected
        ratio = json.loads(out.read_text())["trace_bound_ratio"]["value"]
        assert (ratio > 1.0) == (scale < 1.0)


def test_readme_quick_start_runs(tmp_path):
    # every fracweyl line of the README's Quick start block, in a fresh
    # interpreter with the temp dir as working directory, exits 0
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fracweyl ")]
    assert len(lines) >= 5
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for line in lines:
        proc = subprocess.run([sys.executable, "-m", "fracweyl.cli", *shlex.split(line)[1:]],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, (line, proc.stderr)
