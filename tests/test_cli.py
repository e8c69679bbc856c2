import importlib
import io
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import listradius

from listradius import bounds
from listradius.cli import _build_parser, main


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

    @pytest.mark.parametrize(
        "rmin, rmax, rows",
        [("0.99999996", "0.99999998", 3), ("0.9999999", "0.99999999", 10)],
    )
    def test_rmax_row_kept_near_rate_one(self, rmin, rmax, rows):
        # (rmax - rmin) / step falls about 1e-9 short of the integer here,
        # from the rounding of rmin and rmax to floats near 1
        code, out, err = run_cli(
            ["curve", "--bound", "lp1", "--L", "1", "--rmin", rmin,
             "--rmax", rmax, "--step", "0.00000001"]
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()[1:]
        assert len(lines) == rows
        assert lines[-1].split(",")[0] == rmax

    def test_near_unit_rates_print_apart(self):
        # ten digits print all but the first of these rates as 1
        code, out, err = run_cli(
            ["curve", "--bound", "abl2", "--L", "2", "--rmin", "0.99999999995",
             "--rmax", "0.9999999999999999", "--step", "0.00000000001"]
        )
        assert (code, err) == (0, "")
        rates = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert rates == [
            "0.9999999999", "0.99999999996", "0.99999999997", "0.99999999998",
            "0.99999999999", "0.9999999999999999",
        ]

    def test_subnormal_rate_row(self):
        code, out, err = run_cli(
            ["curve", "--bound", "best", "--L", "3", "--rmin", "5e-324",
             "--rmax", "0.1", "--step", "0.5"]
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "4.940656458e-324,0.3125,theorem1"

    def test_last_row_within_rmax(self):
        # the grid's 1e-9 slack reaches a third row at rmin + 2 step > 1,
        # which is evaluated at rmax (printed in full: ten digits read 1)
        code, out, err = run_cli(
            ["curve", "--bound", "lp1", "--L", "1", "--rmin", "0.5",
             "--rmax", "0.99999999999", "--step", "0.2500000000025"]
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.5", "0.75", "0.99999999999"]
        assert all(r[1] for r in rows)

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

    def test_warning_rate_matches_row_precision(self):
        # rates that need more than 6 significant digits must not round to
        # 0.123457 in the warnings
        code, out, err = run_cli(
            ["curve", "--bound", "theorem1", "--L", "3", "--beta", "0.3",
             "--rmin", "0.1234567", "--rmax", "0.1234569", "--step", "0.0000001"]
        )
        assert code == 0
        assert "0.1234567,,,,\n0.1234568,,,,\n0.1234569,,,,\n" in out
        assert err.splitlines() == [
            f"listradius curve: warning: rate {r}: "
            f"h(beta)=0.8812908992306927 exceeds rate {r}"
            for r in ("0.1234567", "0.1234568", "0.1234569")
        ]

    @pytest.mark.parametrize(
        "bound, L, rows",
        [("lp2", "1", ["0.99999997,1e-09", "0.99999998,1e-09", "0.99999999,1e-09"]),
         ("abl2", "2", ["0.99999997,1e-09", "0.99999998,1e-09", "0.99999999,1e-09"]),
         ("best", "1", ["0.99999997,1e-09,lp2", "0.99999998,1e-09,lp2",
                        "0.99999999,1e-09,lp2"])],
    )
    def test_rate_past_inversion_bracket_gives_its_end(self, bound, L, rows):
        # above the rate at tau = 1e-9, the bracket end of the LP2 and
        # list-2 inversions, the radius lies below 1e-9, which is returned
        code, out, err = run_cli(
            ["curve", "--bound", bound, "--L", L, "--rmin", "0.9999999",
             "--rmax", "0.99999999", "--step", "0.00000001"]
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 11
        # best keeps lp1 only where lp2 is not lower by a relative 1e-9, so
        # at rmax, where lp1 is still 1.7e-9, lp2's bracket end wins
        assert lines[-3:] == rows

    def test_best_list2_past_inversion_bracket(self):
        # the list-2 radius no longer raises there, so the Catalan sum,
        # below 1e-9, wins the row
        code, out, err = run_cli(
            ["curve", "--bound", "best", "--L", "2", "--rmin", "0.99999996",
             "--rmax", "0.99999998", "--step", "0.00000001"]
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "0.99999997,9.552274518e-10,blinovsky",
            "0.99999998,6.246294589e-10,blinovsky",
        ]

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

    @pytest.mark.parametrize("R", ["5e-324", "1e-323"])
    def test_subnormal_rate(self, R):
        # the midpoint of h^-1's last bracket (0, 5e-324) rounded to a beta of 0
        code, out, err = run_cli(["witness", "--L", "3", "--R", R])
        assert (code, err) == (0, "")
        assert "tau = 0.3125\n" in out

    def test_rate_below_one_prints_below_one(self):
        code, out, err = run_cli(["witness", "--L", "3", "--R", "0.9999999999999999"])
        assert (code, err) == (0, "")
        assert "rate = 0.9999999999999999\n" in out

    def test_tiny_rate(self):
        # h^-1 of the rate must be relatively precise: with a beta whose
        # entropy exceeded the rate, every subcode rate came out negative
        code, out, err = run_cli(["witness", "--L", "3", "--R", "1e-14"])
        assert (code, err) == (0, "")
        tau = float(next(l for l in out.splitlines() if l.startswith("tau")).split("=")[1])
        assert 0.3124 < tau < 5 / 16


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

    def test_deviation_past_tolerance_exits_2(self, monkeypatch):
        # a reference 0.0096 away from the computed L = 3 crossover
        monkeypatch.setitem(bounds._REFERENCE_CROSSOVERS, 3, 0.371)
        code, out, err = run_cli(["table1"])
        assert code == 2
        assert len(out.strip().splitlines()) == 6  # header + five list sizes
        assert err == "listradius table1: worst deviation 0.0096 exceeds 0.002\n"


class TestVerify:
    def test_identities_suite_passes(self):
        code, out, _ = run_cli(["verify", "--suite", "identities"])
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_failed_check_exits_2(self, monkeypatch):
        # a reference 0.0096 away from the computed L = 3 crossover
        monkeypatch.setitem(bounds._REFERENCE_CROSSOVERS, 3, 0.371)
        code, out, err = run_cli(["verify", "--suite", "bounds"])
        assert code == 2
        lines = out.splitlines()
        assert lines[0].startswith(
            "[FAIL] crossover rates vs published table: worst residual 0.00961"
        )
        assert lines[-1] == "10/11 checks passed"
        assert err == ""

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

    @pytest.mark.parametrize(
        "content",
        [
            "".join(format(w, "05b") + "\n" for w in range(15)).encode(),
            "0101\n10\xe91\n".encode("latin-1"),
            ("0" * 25 + "\n" + "1" * 25 + "\n").encode(),
        ],
        ids=["15-words", "non-ascii", "blocklength-25"],
    )
    def test_bad_code_file_rejected_before_suites(self, tmp_path, content):
        path = tmp_path / "code.txt"
        path.write_bytes(content)
        code, out, err = run_cli(
            ["verify", "--suite", "oracle", "--seed", "1", "--code", str(path)]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


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

    def test_usage_error_goes_to_err(self):
        code, out, err = run_cli(["table1", "--bogus"])
        assert code == 1
        assert out == ""
        assert err.startswith("usage: listradius ")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["listradius: error: unrecognized arguments: --bogus"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--bound", "lp1", "--L", "1",
             "--rmin", "0.001", "--rmax", "0.99", "--step", "0.001"],
            ["witness", "--L", "3", "--R", "0.2"],
        ],
        ids=["curve", "witness"],
    )
    def test_closed_stdout_exits_without_traceback(self, argv):
        # the read end is closed before the child starts, so its first
        # write to stdout, in the loop or in the final flush, fails
        src = os.path.dirname(os.path.dirname(listradius.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from listradius.cli import run; run()", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_help_goes_to_out(self, capsys):
        code, out, err = run_cli(["table1", "--help"])
        assert code == 0
        assert out.startswith("usage:")
        assert err == ""
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--bound", "blinovsky", "--L", "3",
             "--rmin", "0.1", "--rmax", "0.2", "--step", "0.1"],
            ["witness", "--L", "3", "--R", "0.2"],
            ["table1"],
            ["verify", "--suite", "identities"],
        ],
        ids=["curve", "witness", "table1", "verify"],
    )
    def test_config_flag_is_unknown(self, tmp_path, argv):
        # a file that the former --config flag accepted is now a usage error
        path = tmp_path / "cfg"
        path.write_text("# comments only\n")
        code, out, _ = run_cli(argv + ["--config", str(path)])
        assert code == 1
        assert out == ""

    def test_readme_documents_every_option(self):
        # every option of every subcommand appears in README's command
        # line section, and the removed --config appears nowhere
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        subparsers = next(
            a for a in _build_parser()._actions if a.dest == "command"
        ).choices
        for name, sub in subparsers.items():
            for action in sub._actions:
                for option in action.option_strings:
                    if option not in ("-h", "--help"):
                        assert re.search(rf"{option}\b", section), (name, option)
        assert "--config" not in readme


# Argument pools of the command line contract: edge floats and list sizes
# at each cap, half of the time values in range instead, so that some
# draws run.  A step of at least 0.4 keeps every curve at three rows or
# fewer.
_EDGE_FLOATS = ["0", "1", "-1", "nan", "inf", "-inf", "5e-324", "1e-300",
                "0.9999999999999999", "1e+300"]
_CAP_LIST_SIZES = ["-3", "0", "1", "2", "1025", "1026", "1040", "1041"]
# a theorem1 row at L = 1025 takes seconds, so bounds that evaluate it
# draw list sizes below that cap, or past it, where the call errors
_CHEAP_LIST_SIZES = [L for L in _CAP_LIST_SIZES if L != "1025"]
_GRIDS = [("0.1", "0.8", "0.4"), ("0.35", "0.8", "0.5"),
          ("5e-324", "0.9999999999999999", "0.5"), ("1e-300", "0.1", "1e+300")]


def _pool(edge, in_range):
    return st.one_of(st.sampled_from(in_range), st.sampled_from(edge))


_RATES = _pool(_EDGE_FLOATS, ["0.1", "0.35", "0.8"])


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["curve", "witness", "table1", "verify"]))
    if command == "curve":
        bound = draw(st.sampled_from(sorted(bounds.BOUNDS)))
        spec = bounds.BOUNDS[bound]
        caps = _CAP_LIST_SIZES if bound in ("blinovsky", "slope") else _CHEAP_LIST_SIZES
        sizes = [str(L) for L in range(spec.min_L, min(spec.max_L, 4) + 1)]
        grid = st.one_of(st.sampled_from(_GRIDS), st.tuples(_RATES, _RATES, _RATES))
        rmin, rmax, step = draw(grid)
        return ["curve", "--bound", bound, "--L", draw(_pool(caps, sizes)),
                "--rmin", rmin, "--rmax", rmax, "--step", step,
                *draw(_optional("--beta", _RATES))]
    if command == "witness":
        exponent = st.sampled_from(bounds.EXPONENT_MODES + ("bogus",))
        return ["witness", "--L", draw(_pool(_CHEAP_LIST_SIZES, ["2", "3", "4"])),
                "--R", draw(_RATES), *draw(_optional("--beta", _RATES)),
                *draw(_optional("--exponent", exponent))]
    if command == "table1":
        return ["table1", *draw(st.sampled_from([[], ["--bogus"]]))]
    suite = draw(st.sampled_from(["identities", "oracle", "bounds", "all", "bogus"]))
    seed = draw(st.sampled_from(_EDGE_FLOATS))
    code = draw(st.sampled_from([[], ["--code", "no-such-code-file"]]))
    # of the suites that run to the end, only the cheapest one is drawn
    assume(suite in ("oracle", "bogus") or code or seed not in ("0", "1", "-1"))
    return ["verify", "--suite", suite, "--seed", seed, *code]


class TestContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(_argv())
    def test_exit_code_and_streams(self, argv):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2)
        if code == 1:
            # one error line, after argparse's usage line for a usage error
            assert out == ""
            lines = err.splitlines()
            assert [ln for ln in lines if "error:" in ln] == lines[-1:]
            return
        if code == 2:
            assert argv[0] in ("table1", "verify")
        lines = out.splitlines()
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)
        if argv[0] != "curve":
            assert err == ""
            if argv[0] == "witness":
                for line in lines:
                    value = line.split(" = ")[1]
                    assert value in ("yes", "no") or math.isfinite(float(value))
            return
        assert lines[0].startswith("rate,tau")
        warnings = []
        for row in lines[1:]:
            rate, tau = row.split(",")[:2]
            assert 0 < float(rate) < 1
            if tau:
                assert 0 <= float(tau) <= 0.5
            else:
                warnings.append(f"listradius curve: warning: rate {rate}: ")
        got = err.splitlines()
        assert len(got) == len(warnings)
        assert all(g.startswith(w) for g, w in zip(got, warnings))


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
            print(listradius.oracle.chebyshev_radius.__module__, "oracle.py" in ran)
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
            "True True",
        ]

    @pytest.mark.parametrize("module", ["core", "bounds", "lp", "solve", "oracle", "checks"])
    def test_module_all_resolves(self, module):
        # the package re-exports nothing: each public name lives in one
        # module, and every name of that module's __all__ is defined there
        mod = importlib.import_module(f"listradius.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
        assert listradius.__all__ == ["__version__"]

    def test_numpy_imported_only_by_verify(self):
        # every curve, witness, table1 and usage errors run without numpy;
        # only verify, through the checks and oracles, imports it.  None of
        # them loads dataclasses, fractions or their imports; numpy imports
        # inspect itself, so a run with it prints "-"
        script = textwrap.dedent(
            """
            import io, sys
            before = set(sys.modules)
            def heavy():
                if "numpy" in sys.modules:
                    return "-"
                added = set(sys.modules) - before
                names = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal"}
                return sorted(added & names)
            import listradius.cli
            print("numpy" in sys.modules, heavy())
            rates = ["--rmin", "0.3", "--rmax", "0.5", "--step", "0.1"]
            for argv in (
                ["curve", "--bound", "lp1", "--L", "1", *rates],
                ["curve", "--bound", "lp2", "--L", "1", *rates],
                ["curve", "--bound", "best", "--L", "1", *rates],
                ["curve", "--bound", "abl2", "--L", "2", *rates],
                ["curve", "--bound", "blinovsky", "--L", "3", *rates],
                ["curve", "--bound", "slope", "--L", "4", *rates],
                ["curve", "--bound", "theorem1", "--L", "3", *rates],
                ["curve", "--bound", "best", "--L", "3", *rates],
                ["table1", "--bogus"],
                ["witness", "--L", "3", "--R", "0.2"],
                ["table1"],
                ["verify", "--suite", "identities"],
            ):
                code = listradius.cli.main(argv, out=io.StringIO(), err=io.StringIO())
                print(*argv[:3], code, "numpy" in sys.modules, heavy())
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
            "False []",
            "curve --bound lp1 0 False []",
            "curve --bound lp2 0 False []",
            "curve --bound best 0 False []",
            "curve --bound abl2 0 False []",
            "curve --bound blinovsky 0 False []",
            "curve --bound slope 0 False []",
            "curve --bound theorem1 0 False []",
            "curve --bound best 0 False []",
            "table1 --bogus 1 False []",
            "witness --L 3 0 False []",
            "table1 0 False []",
            "verify --suite identities 0 True -",
        ]

    def test_benchmark_traced_names_resolve(self):
        # the benchmark tracer imports listradius.cli, then looks up every
        # function that a per-layer metric names; a renamed function or a
        # module loaded on demand would fail every traced invocation
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = textwrap.dedent(
            """
            import json, sys
            sys.path.insert(0, sys.argv[1] + "/perfbench")
            import tracer
            import listradius.cli
            with open(sys.argv[1] + "/BENCHMARK.json", encoding="utf-8") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            plan = tracer.plan_for(names)
            targets = plan["span"] + plan["count"]
            for target in targets:
                assert callable(tracer._resolve(target)), target
            print(len(targets))
            """
        )
        src = os.path.dirname(os.path.dirname(listradius.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, root], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0
