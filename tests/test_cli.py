"""Command-line interface: output schema, determinism, exit-code contract."""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import mlcs
from mlcs.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mlcs", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


class TestMlEval:
    def test_unit_evaluation(self, capsys):
        code, out, err = run_cli(capsys, "ml-eval", "--z", "1.0")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "ml-eval"
        assert payload["results"]["converged"] is True
        assert payload["results"]["value"] == pytest.approx(math.e, rel=1e-12)
        assert payload["inputs"]["z"] == 1.0

    def test_origin_with_shifted_beta(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--beta", "2.0", "--z", "0.0")
        assert code == 0
        assert json.loads(out)["results"]["value"] == pytest.approx(1.0, rel=1e-15)

    def test_keys_are_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "ml-eval", "--z", "1.0")
        assert out.startswith('{"command":"ml-eval","diagnostics":')
        payload = json.loads(out)
        assert list(payload) == sorted(payload)

    def test_rejected_parameter_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "ml-eval", "--alpha", "-1", "--z", "1.0")
        assert code == 1
        assert out == ""
        assert "alpha must be positive" in err

    def test_missing_argument_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "ml-eval")
        assert code == 1
        assert out == ""
        assert err.startswith("mlcs:")

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "ml-eval", "--z", "1.0", "--bogus", "3")
        assert code == 1
        assert "mlcs:" in err

    def test_unconverged_series_exits_two_with_report(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--z", "50.0", "--max-terms", "10")
        assert code == 2
        payload = json.loads(out)
        assert payload["results"]["converged"] is False
        assert payload["diagnostics"]

    def test_value_beyond_float64_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "ml-eval", "--alpha", "2", "--beta", "3",
                                 "--gamma", "1.5", "--kpar", "0.7", "--z", "2030")
        assert code == 2
        assert out == ""
        assert err.startswith("mlcs:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("ml-eval", "--z", "1"),
                                      ("scan", "--quantity", "pn", "--x-steps", "3")])
    def test_gamma_beyond_float64_names_beta(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--beta", "200")
        assert code == 2
        assert out == ""
        assert err == "mlcs: Gamma(beta) exceeds float64 range at beta = 200.0\n"

    def test_non_finite_argument_exits_one(self, capsys):
        for z in ("nan", "inf", "-inf"):
            code, out, err = run_cli(capsys, "ml-eval", "--z", z)
            assert code == 1
            assert out == ""
            assert err.startswith("mlcs:")

    def test_csv_format_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "ml-eval", "--z", "1.0", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "key,value"
        cells = dict(line.split(",", 1) for line in lines[1:])
        assert float(cells["value"]) == pytest.approx(math.e, rel=1e-12)


class TestVerify:
    def test_resolution_passes_at_unit_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "resolution", "--s-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["passed"] is True
        assert payload["results"]["max_rel_err"] <= 1e-6
        assert payload["results"]["tolerance"] == 1e-6

    def test_laplace_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "laplace", "--s", "2.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["rhs"][0] == pytest.approx(1.0, rel=1e-12)
        assert payload["results"]["passed"] is True

    def test_ansatz_small_coefficient_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ansatz", "--B", "0.005")
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_ansatz_moderate_coefficient_fails_honestly(self, capsys):
        # the resummation floor sits well above the advertised tolerance here;
        # the report must still be emitted and the exit code must say failed
        code, out, _ = run_cli(capsys, "verify", "ansatz", "--B", "0.05")
        assert code == 2
        payload = json.loads(out)
        assert payload["results"]["passed"] is False
        assert payload["diagnostics"]

    def test_moments_continuum_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "moments-continuum")
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["e_values"] == [0.0, 0.5, 1.0, 2.5, 7.0]
        assert payload["results"]["max_rel_err"] <= 1e-7

    def test_moment_beyond_float64_exits_two_before_integrating(self):
        # a fresh interpreter without the suite's warning filter: the one
        # stderr line is the named overflow, no numpy warning precedes it
        proc = run_subprocess("verify", "moments-continuum", "--e-values", "200")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "mlcs: Gamma(E+1) exceeds float64 range at E+1 = 201.0\n"

    def test_bad_e_values_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "moments-continuum",
                               "--e-values", "1,frog")
        assert code == 1
        assert "e-values" in err

    def test_csv_report_has_moment_table(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "laplace", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "s,lhs,rhs"
        assert len(lines) == 2


class TestScan:
    def test_photon_column_sums_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--quantity", "pn", "--zmod", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["header"] == ["n", "p"]
        total = sum(row[1] for row in payload["results"]["rows"])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_poisson_rows_at_unit_parameters(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--quantity", "pn", "--zmod", "1.0")
        rows = json.loads(out)["results"]["rows"]
        for n, p in rows[:8]:
            assert p == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-10, abs=0)

    def test_nu_column_is_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--quantity", "nu",
                               "--x-min", "1", "--x-max", "30", "--x-steps", "8",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.exp(30.0), rel=1e-2)

    def test_cold_husimi_matches_vacuum_overlap(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--quantity", "husimi",
                            "--betaB", "50", "--x-min", "0", "--x-max", "4",
                            "--x-steps", "5")
        rows = json.loads(out)["results"]["rows"]
        for x, value in rows:
            assert value == pytest.approx(math.exp(-x), rel=1e-8, abs=0)

    def test_thermal_p_scan_at_unit_parameters(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--quantity", "pfn",
                            "--x-min", "0", "--x-max", "2", "--x-steps", "3")
        rows = json.loads(out)["results"]["rows"]
        rate = math.e - 1.0
        for x, value in rows:
            assert value == pytest.approx(rate * math.exp(-rate * x), rel=1e-10, abs=0)

    def test_continuum_scans_run(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--quantity", "husimi-cont",
                               "--x-min", "0", "--x-max", "4", "--x-steps", "3")
        assert code == 0
        assert all(row[1] > 0.0 for row in json.loads(out)["results"]["rows"])
        code, out, _ = run_cli(capsys, "scan", "--quantity", "p-cont",
                               "--x-min", "0", "--x-max", "4", "--x-steps", "3")
        assert code == 0
        values = [row[1] for row in json.loads(out)["results"]["rows"]]
        assert values[0] > values[1] > values[2] > 0.0

    def test_partition_beyond_float64_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--quantity", "husimi",
                                 "--betaB", "1e-300", "--beta", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("mlcs: partition function exceeds float64")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("--quantity", "nu", "--x-max", "1000"),
         "nu(x) exceeds float64 range at x = 750.0; use log_nu"),
        (("--quantity", "p-cont", "--betaB", "710"),
         "P weight at |z|^2 = 0.0 overflows float64"),
    ])
    def test_continuum_beyond_float64_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert err == f"mlcs: {message}\n"

    def test_grid_validation_exits_one(self, capsys):
        for argv in (
            ("scan", "--quantity", "nu", "--x-min", "5", "--x-max", "1"),
            ("scan", "--quantity", "nu", "--x-steps", "0"),
            ("scan", "--quantity", "nu", "--x-min", "-1"),
            ("scan", "--quantity", "pn", "--zmod", "-1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("mlcs:")


class TestDeterminism:
    def test_repeated_json_runs_are_byte_identical(self, capsys):
        argv = ("ml-eval", "--alpha", "2", "--beta", "3", "--z", "4.5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_subprocess_runs_are_byte_identical(self):
        argv = ("verify", "laplace", "--alpha", "2", "--beta", "3", "--s", "5")
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_subprocess_csv_scan_is_byte_identical(self):
        argv = ("scan", "--quantity", "nu", "--x-min", "0.5", "--x-max", "10",
                "--x-steps", "6", "--format", "csv")
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_floats_carry_full_precision(self, capsys):
        _, out, _ = run_cli(capsys, "ml-eval", "--z", "1.0")
        value = json.loads(out)["results"]["value"]
        assert f"{value:.17g}" in out


def heavy_imports_after(code):
    """Run code in a fresh interpreter on this source tree; the subset of
    {numpy, scipy} it leaves in sys.modules."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


class TestCheckout:
    def test_plain_pytest_collects_without_pythonpath(self):
        # pyproject.toml points pytest at tests/ and puts src/ on the path
        root = os.path.join(SRC, os.pardir)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             "tests/test_kcore.py"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestImportBudget:
    """Each command loads only what its computation needs."""

    def test_package_import_loads_neither_numpy_nor_scipy(self):
        assert heavy_imports_after("import mlcs") == set()

    @pytest.mark.parametrize("argv, allowed", [
        (["ml-eval", "--z", "1.5"], set()),
        (["scan", "--quantity", "pn", "--zmod", "1.2"], {"numpy"}),
        (["scan", "--quantity", "husimi", "--x-steps", "3"], {"numpy"}),
        (["verify", "ansatz", "--B", "0.005"], {"numpy"}),
        (["verify", "laplace", "--s", "3"], {"numpy"}),
        (["scan", "--quantity", "nu", "--x-steps", "3"], {"numpy"}),
        (["scan", "--quantity", "husimi-cont", "--x-steps", "3"], {"numpy"}),
        (["scan", "--quantity", "p-cont", "--x-steps", "3"], {"numpy"}),
        (["verify", "moments-continuum"], {"numpy"}),
    ])
    def test_command_stays_within_its_imports(self, argv, allowed):
        code = f"import mlcs.cli\nassert mlcs.cli.main({argv!r}) == 0"
        assert heavy_imports_after(code) <= allowed

    def test_series_call_loads_no_numpy(self):
        # the term table of mlfunc imports numpy inside itself, not at import
        code = "from mlcs import MLParams, ml_eval\nml_eval(MLParams(2, 3, 1.5, 0.7), 2.5)"
        assert heavy_imports_after(code) == set()

    def test_public_names_resolve_to_their_submodule_objects(self):
        for module, names in mlcs._EXPORTS.items():
            owner = importlib.import_module(f"mlcs.{module}")
            for name in names:
                assert getattr(mlcs, name) is getattr(owner, name), name

    def test_dir_and_star_import_list_every_public_name(self):
        assert set(mlcs.__all__) <= set(dir(mlcs))
        namespace = {}
        exec("from mlcs import *", namespace)
        assert set(mlcs.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mlcs.no_such_name
        assert not hasattr(mlcs, "_private_helper")
