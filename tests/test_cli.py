import io
import os
import subprocess
import sys
import textwrap

import pytest

import listradius

from listradius.cli import RunConfig, load_config, main
from listradius.errors import DomainError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCurve:
    def test_blinovsky_row_count_and_values(self):
        code, out, err = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.01", "--rmax", "0.99", "--step", "0.01"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rate,tau"
        assert len(lines) == 100  # header + 99 rows
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert float(first[1]) == pytest.approx(5 / 16, abs=6e-3)

    def test_central_has_witness_columns(self):
        code, out, _ = run_cli(
            ["curve", "--bound", "theorem1", "--L", "3",
             "--rmin", "0.1", "--rmax", "0.3", "--step", "0.1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rate,tau,xi0,xi1,j"
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 5
            assert fields[4] == "1"

    def test_central_below_catalan_in_improvement_range(self):
        code_t, out_t, _ = run_cli(
            ["curve", "--bound", "theorem1", "--L", "3",
             "--rmin", "0.05", "--rmax", "0.35", "--step", "0.05"]
        )
        code_b, out_b, _ = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.05", "--rmax", "0.35", "--step", "0.05"]
        )
        taus_t = [float(r.split(",")[1]) for r in out_t.strip().splitlines()[1:]]
        taus_b = [float(r.split(",")[1]) for r in out_b.strip().splitlines()[1:]]
        assert all(t < b for t, b in zip(taus_t, taus_b))

    @pytest.mark.parametrize("step", ["1e-9", "nan", "inf"])
    def test_bad_step_rejected(self, step):
        code, out, err = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.01", "--rmax", "0.99", "--step", step]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_deterministic_output(self):
        argv = ["curve", "--bound", "theorem1", "--L", "5",
                "--rmin", "0.1", "--rmax", "0.4", "--step", "0.1"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_csv_roundtrip_precision(self):
        from listradius.bounds import blinovsky_bound

        _, out, _ = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.2", "--rmax", "0.3", "--step", "0.1"]
        )
        tau_str = out.strip().splitlines()[1].split(",")[1]
        reparsed = float(tau_str)
        exact = blinovsky_bound(3, 0.2)
        # one unit in the last (10th significant) printed digit
        assert abs(reparsed - exact) <= 10.0 ** (-9) * max(abs(exact), 1e-30)

    def test_bound_compat_usage_error(self):
        code, _, err = run_cli(
            ["curve", "--bound", "abl2", "--L", "3",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"]
        )
        assert code == 1
        assert "requires L = 2" in err

    def test_bad_grid_usage_error(self):
        code, _, _ = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.5", "--rmax", "0.1", "--step", "0.1"]
        )
        assert code == 1

    def test_unknown_bound_usage_error(self):
        code, _, _ = run_cli(
            ["curve", "--bound", "nope", "--L", "3",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"]
        )
        assert code == 1

    def test_infeasible_rows_emit_empty_fields(self):
        # h(beta) > rate for the low-rate rows under an explicit beta
        code, out, err = run_cli(
            ["curve", "--bound", "theorem1", "--L", "3", "--beta", "0.11",
             "--rmin", "0.3", "--rmax", "0.6", "--step", "0.3"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("0.3,")
        assert lines[1].split(",")[1] == ""
        assert "warning" in err
        assert lines[2].split(",")[1] != ""

    @pytest.mark.parametrize(
        "bound, L, beta",
        [("theorem1", "3", "nan"), ("theorem1", "3", "0.5"), ("theorem1", "3", "-0.1"),
         ("abl2", "2", "0.2"), ("best", "3", "0.11"), ("blinovsky", "3", "0.11")],
    )
    def test_bad_beta_rejected_before_rows(self, bound, L, beta):
        # a beta outside (0, 1/2), or one given to a bound that has no beta
        code, out, err = run_cli(
            ["curve", "--bound", bound, "--L", L, "--beta", beta,
             "--rmin", "0.3", "--rmax", "0.6", "--step", "0.1"]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_best_curve_labels(self):
        code, out, _ = run_cli(
            ["curve", "--bound", "best", "--L", "3",
             "--rmin", "0.2", "--rmax", "0.45", "--step", "0.25"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rate,tau,label"
        assert lines[1].endswith("theorem1")
        assert lines[2].endswith("blinovsky")


class TestWitness:
    def test_list3_report(self):
        code, out, _ = run_cli(["witness", "--L", "3", "--R", "0.2"])
        assert code == 0
        assert "j = 1" in out
        assert "xi0_at_upper_limit = yes" in out
        assert "j_is_one = yes" in out

    def test_interior_maximizer_at_table_edge(self):
        # under the table evaluation the L=9 maximizer leaves the endpoint
        code, out, _ = run_cli(
            ["witness", "--L", "9", "--R", "0.136", "--exponent", "binomial"]
        )
        assert code == 0
        assert "xi0_at_upper_limit = no" in out

    def test_high_rate_small_radius(self):
        code, out, _ = run_cli(["witness", "--L", "3", "--R", "0.9"])
        assert code == 0
        tau = float(next(l for l in out.splitlines() if l.startswith("tau")).split("=")[1])
        assert 0.0 < tau < 0.05


class TestTable1:
    def test_reproduces_reference_values(self):
        code, out, err = run_cli(["table1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + five list sizes
        refs = {3: 0.361, 5: 0.248, 7: 0.184, 9: 0.136, 11: 0.100}
        for row in lines[1:]:
            L, computed, ref, delta = row.split()
            assert float(ref) == refs[int(L)]
            assert abs(float(delta)) <= 0.002
            assert abs(float(computed) - refs[int(L)]) <= 0.002


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.bisect_tol == 1e-12
        assert cfg.xi0_grid == 2000
        assert cfg.lp2_grid == 400
        assert cfg.output_precision == 10

    def test_file_override(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("output_precision = 4  # fewer digits\nxi0_grid=500\n")
        cfg = load_config(path)
        assert cfg.output_precision == 4
        assert cfg.xi0_grid == 500
        assert cfg.bisect_tol == 1e-12

    def test_unknown_key_fatal(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("not_a_key=1\n")
        with pytest.raises(DomainError):
            load_config(path)

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("not_a_key=1\n")
        code, _, err = run_cli(
            ["witness", "--L", "3", "--R", "0.2", "--config", str(path)]
        )
        assert code == 1
        assert "unknown config key" in err

    def test_tolerance_cap(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("bisect_tol=1e-3\n")
        code, _, _ = run_cli(
            ["witness", "--L", "3", "--R", "0.2", "--config", str(path)]
        )
        assert code == 1

    def test_nan_tolerance_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("bisect_tol=nan\n")
        code, out, err = run_cli(
            ["witness", "--L", "3", "--R", "0.2", "--config", str(path)]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "bisect_tol" in err

    def test_tolerance_below_float_spacing_terminates(self, tmp_path):
        # the xi1 solve cannot reach 1e-300 and ends at its iteration cap
        path = tmp_path / "cfg"
        path.write_text("bisect_tol=1e-300\n")
        code, out, _ = run_cli(
            ["witness", "--L", "3", "--R", "0.2", "--config", str(path)]
        )
        assert code == 0
        assert out == run_cli(["witness", "--L", "3", "--R", "0.2"])[1]

    def test_precision_applies(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("output_precision=4\n")
        _, out, _ = run_cli(
            ["curve", "--bound", "blinovsky", "--L", "3", "--config", str(path),
             "--rmin", "0.2", "--rmax", "0.3", "--step", "0.1"]
        )
        tau_field = out.strip().splitlines()[1].split(",")[1]
        assert len(tau_field.replace(".", "").lstrip("0")) <= 4


class TestVerify:
    def test_identities_suite_passes(self):
        code, out, _ = run_cli(["verify", "--suite", "oracle", "--seed", "7"])
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_seeded_determinism(self):
        _, out1, _ = run_cli(["verify", "--suite", "oracle", "--seed", "3"])
        _, out2, _ = run_cli(["verify", "--suite", "oracle", "--seed", "3"])
        assert out1 == out2

    def test_code_file_checked(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("0101\n1010\n0011\n1100\n")
        code, out, _ = run_cli(
            ["verify", "--suite", "oracle", "--seed", "1", "--code", str(path)]
        )
        assert code == 0
        assert "provided code" in out

    def test_missing_code_file(self):
        code, _, err = run_cli(
            ["verify", "--suite", "oracle", "--code", "/nonexistent/file"]
        )
        assert code == 1

    def test_bad_suite_usage(self):
        code, _, _ = run_cli(["verify", "--suite", "bogus"])
        assert code == 1


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--bound", "blinovsky", "--L", "1201",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"],
            ["curve", "--bound", "slope", "--L", "1201",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"],
            ["witness", "--L", "1201", "--R", "0.2"],
            ["curve", "--bound", "slope", "--L", "0",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"],
            ["curve", "--bound", "best", "--L", "0",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"],
        ],
        ids=["blinovsky", "slope", "witness", "slope-L0", "best-L0"],
    )
    def test_list_size_past_float_range(self, argv):
        # a list size past float range, or below the bound's range, is
        # rejected before the first row
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_no_command(self):
        code, _, _ = run_cli([])
        assert code == 1

    def test_missing_required_flag(self):
        code, _, _ = run_cli(["witness", "--L", "3"])
        assert code == 1


class TestStartup:
    def test_checks_and_oracle_run_only_when_used(self):
        # compiling and executing checks.py and oracle.py is left to the
        # first use, which only verify makes; the modules stay registered
        script = textwrap.dedent(
            """
            import os, sys
            ran = set()
            def hook(event, args):
                if event == "exec" and hasattr(args[0], "co_filename"):
                    ran.add(os.path.basename(args[0].co_filename))
            sys.addaudithook(hook)
            import listradius.cli
            print(sorted(ran & {"checks.py", "oracle.py"}))
            print("listradius.checks" in sys.modules, "listradius.oracle" in sys.modules)
            import listradius
            print(listradius.chebyshev_radius.__module__, "oracle.py" in ran)
            names = {}
            exec("from listradius import *", names)
            print(all(name in names for name in listradius.__all__))
            from listradius import checks
            print(callable(checks.run_suite), "checks.py" in ran)
            """
        )
        src = os.path.dirname(os.path.dirname(listradius.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]",
            "True True",
            "listradius.oracle True",
            "True",
            "True True",
        ]
