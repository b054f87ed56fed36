import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zetapoly import cli, parapermanent
from zetapoly.compositions import iter_parts
from zetapoly.lpoly import TraceData, coeffs_from_traces, n_from_traces, s_from_traces


def run_cli(*args):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(list(args), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def forbid_routes(monkeypatch):
    # every S-value derivation and route of the field commands fails if run
    def forbidden(*args, **kwargs):
        raise AssertionError("a route ran before the refusal")

    for name in (
        "s_from_traces",
        "oracle_expand",
        "coeffs_by_recurrence",
        "coeffs_by_parapermanent",
        "coeffs_by_compositions",
        "class_number_formula",
    ):
        monkeypatch.setattr(cli.lpoly, name, forbidden)


class TestDispatch:
    def test_no_arguments_prints_usage(self):
        code, out, err = run_cli()
        assert code == cli.EXIT_OK
        assert out.startswith("usage:")

    def test_help(self):
        code, out, _ = run_cli("--help")
        assert code == cli.EXIT_OK
        assert "commands:" in out

    @pytest.mark.parametrize(
        "command,usage",
        [
            ("lpoly", "usage: zetapoly lpoly {from-counts,from-traces} ...\n"),
            ("defect2", "usage: zetapoly defect2 analyze ...\n"),
        ],
    )
    def test_subcommand_help(self, command, usage):
        for flag in ("--help", "-h"):
            assert run_cli(command, flag) == (cli.EXIT_OK, usage, "")

    def test_unknown_command(self):
        code, _, err = run_cli("frobnicate")
        assert code == cli.EXIT_USAGE
        assert "unknown command: frobnicate" in err

    def test_unknown_subcommand(self):
        code, _, err = run_cli("lpoly", "expand")
        assert code == cli.EXIT_USAGE
        assert "unknown lpoly subcommand" in err
        code, _, err = run_cli("defect2", "scan")
        assert code == cli.EXIT_USAGE

    def test_missing_subcommand(self):
        code, _, err = run_cli("lpoly")
        assert code == cli.EXIT_USAGE
        code, _, err = run_cli("defect2")
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("defect2", "analyze", "--g", "4"),
            ("lpoly", "from-counts", "--q", "1", "--counts", "5"),
        ],
    )
    def test_python_m_matches_run(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "zetapoly", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == run_cli(*argv)

    def test_closed_pipe_exits_quietly(self):
        # the reader takes one of 2^19 lines and closes the pipe, as `| head
        # -1` does: the command exits 1 with nothing on stderr
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with subprocess.Popen(
            [sys.executable, "-m", "zetapoly", "compositions", "--n", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            assert proc.stdout.readline() == b'{"index": 0, "parts": [20]}\n'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert (code, err) == (cli.EXIT_VALIDATION, "")


class TestLPolyCommand:
    def test_from_counts_example(self):
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "2", "--counts", "5", "--method", "all"
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["coeffs"] == ["1", "2", "2"]
        assert payload["h"] == "5"
        assert payload["methods_agree"] is True
        assert payload["methods_run"] == ["recurrence", "pper", "compositions"]

    def test_from_traces_oracle(self):
        code, out, _ = run_cli("lpoly", "from-traces", "--q", "2", "--traces", "-2,-2")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["coeffs"] == ["1", "4", "8", "8", "4"]
        assert payload["oracle_agrees"] is True

    def test_negative_trace_values(self):
        # a single negative value, a negative list, and the = form
        code, out, _ = run_cli("lpoly", "from-traces", "--q", "2", "--traces", "-2")
        assert code == cli.EXIT_OK
        assert json.loads(out)["coeffs"] == ["1", "2", "2"]
        code, joined, _ = run_cli("lpoly", "from-traces", "--q", "2", "--traces=-2,-2")
        assert code == cli.EXIT_OK
        code, spaced, _ = run_cli("lpoly", "from-traces", "--traces", "-2,-2", "--q", "2")
        assert code == cli.EXIT_OK
        assert joined == spaced
        code, _, err = run_cli("lpoly", "from-traces", "--q", "-2", "--traces", "-2")
        assert code == cli.EXIT_VALIDATION
        assert "--q must be >= 2" in err

    def test_single_method(self):
        for method in ("pper", "recurrence"):
            code, out, _ = run_cli(
                "lpoly", "from-counts", "--q", "3", "--counts", "6,12", "--method", method
            )
            assert code == cli.EXIT_OK
            payload = json.loads(out)
            assert payload["methods_run"] == [method]
            assert payload["coeffs"] == ["1", "2", "3", "6", "9"]

    def test_default_method_bounds_the_composition_route(self):
        # past g = 18 the default leaves the 2^g - 1 composition terms out
        data = TraceData(2, tuple((-2, -1, 0, 1, 2)[i % 5] for i in range(19)))
        counts = ",".join(str(n_from_traces(data, r)) for r in range(1, 20))
        started = time.perf_counter()
        code, out, _ = run_cli("lpoly", "from-counts", "--q", "2", "--counts", counts)
        elapsed = time.perf_counter() - started
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["methods_run"] == ["recurrence", "pper"]
        assert payload["coeffs"] == [str(c) for c in coeffs_from_traces(data).coeffs]
        assert elapsed < 2.0

    def test_large_q_needs_no_validate(self):
        # the prime-power check is trial division, refused above 10^12
        args = ("lpoly", "from-counts", "--q", "100000000000031", "--counts", "100000000000032")
        started = time.perf_counter()
        code, out, err = run_cli(*args)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "--no-validate" in err
        code, out, _ = run_cli(*args, "--no-validate")
        assert code == cli.EXIT_OK
        assert json.loads(out)["q"] == 100000000000031

    def test_compositions_golden(self):
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "2", "--counts", "5,9", "--method", "compositions"
        )
        assert code == cli.EXIT_OK
        assert out == (
            '{\n'
            '  "q": 2,\n'
            '  "g": 2,\n'
            '  "method": "compositions",\n'
            '  "methods_run": [\n'
            '    "compositions"\n'
            '  ],\n'
            '  "s": [\n'
            '    "2",\n'
            '    "4"\n'
            '  ],\n'
            '  "coeffs": [\n'
            '    "1",\n'
            '    "2",\n'
            '    "4",\n'
            '    "4",\n'
            '    "4"\n'
            '  ],\n'
            '  "h": "15",\n'
            '  "methods_agree": true,\n'
            '  "oracle_agrees": null\n'
            '}\n'
        )

    def test_weil_warning_on_stderr(self):
        code, out, err = run_cli("lpoly", "from-counts", "--q", "2", "--counts", "99")
        assert code == cli.EXIT_OK
        assert "warning:" in err
        assert json.loads(out)["h"] == "99"

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (("lpoly", "from-counts", "--q", "1", "--counts", "5"), "--q"),
            (("lpoly", "from-counts", "--q", "6", "--counts", "5"), "prime power"),
            (("lpoly", "from-counts", "--q", "x", "--counts", "5"), "--q"),
            (("lpoly", "from-counts", "--q", "2", "--counts", ""), "--counts"),
            (
                ("lpoly", "from-counts", "--q", "2", "--counts", "3,-1"),
                "error: N_2 must be a nonnegative integer, got -1\n",
            ),
            (("lpoly", "from-counts", "--q", "2", "--counts", "3,zz"), "--counts[2]"),
            (
                ("lpoly", "from-traces", "--q", "2", "--traces", "5"),
                "error: trace 1 violates t^2 <= 4q: t=5, q=2\n",
            ),
            (("lpoly", "from-counts", "--counts", "5"), "--q"),
            # an empty --traces is a given source, not a missing one
            (
                ("lpoly", "from-traces", "--q", "2", "--traces", ""),
                "error: --traces must be a comma-separated list of integers\n",
            ),
            (
                ("classnumber", "--q", "2", "--traces", ""),
                "error: --traces must be a comma-separated list of integers\n",
            ),
        ],
        ids=[
            "args0---q",
            "args1-prime power",
            "args2---q",
            "args3---counts",
            "args4---counts[2]",
            "args5---counts[2]",
            "args6---traces[1]",
            "args7---q",
            "empty-traces-lpoly",
            "empty-traces-classnumber",
        ],
    )
    def test_validation_failures(self, args, fragment):
        code, _, err = run_cli(*args)
        assert code == cli.EXIT_VALIDATION
        assert fragment in err

    def test_composition_method_bounded_by_walk_order(self):
        # the composition walk doubles per g; above _MAX_WALK_ORDER the
        # method is refused before any route runs
        assert cli._MAX_WALK_ORDER == 20
        for g, code in ((20, cli.EXIT_OK), (21, cli.EXIT_VALIDATION)):
            started = time.perf_counter()
            result = run_cli(
                "lpoly", "from-traces", "--q", "2", "--traces", ",".join(["1"] * g),
                "--method", "compositions",
            )
            assert time.perf_counter() - started < 1.0
            assert result[0] == code
        assert result[1:] == ("", "error: --method compositions needs g <= 20, got g=21\n")

    def test_composition_walk_at_largest_validated_q(self):
        # the largest walk a validated q allows: g = _MAX_WALK_ORDER over
        # the largest prime below 10^12, with traces up to 2 sqrt(q)
        q = 999999999989
        bound = math.isqrt(4 * q)
        rng = random.Random(1)
        traces = ",".join(str(rng.randint(-bound, bound)) for _ in range(cli._MAX_WALK_ORDER))
        started = time.perf_counter()
        code, out, err = run_cli(
            "lpoly", "from-traces", "--q", str(q), "--traces", traces, "--method", "compositions"
        )
        assert time.perf_counter() - started < 1.5
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["oracle_agrees"] is True

    def test_composition_walk_refused_past_budget(self, monkeypatch):
        # at q = 10^200 the walk's products reach about 6,800 bits, and the
        # walk took 6.5 s; it is refused from the S-values before any route
        q = 10**200
        bound = math.isqrt(4 * q)
        rng = random.Random(1)
        traces = ",".join(str(rng.randint(-bound, bound)) for _ in range(cli._MAX_WALK_ORDER))
        monkeypatch.setattr(cli.lpoly, "coeffs_by_compositions", None)
        started = time.perf_counter()
        code, out, err = run_cli(
            "lpoly", "from-traces", "--q", str(q), "--traces", traces,
            "--method", "compositions", "--no-validate",
        )
        assert time.perf_counter() - started < 0.1
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err == (
            "error: S-values too large for --method compositions: its composition walk "
            "is estimated at 15.2 s or more, past the 1.5 s budget\n"
        )

    def test_all_skips_walk_past_budget(self, monkeypatch):
        # at q = 10^200 and g = 18 the walk is estimated at 3.22 s (it ran in
        # 0.9 s): --method all skips it, as it does past g = 18, and says so
        q = 10**200
        bound = math.isqrt(4 * q)
        rng = random.Random(1)
        traces = ",".join(str(rng.randint(-bound, bound)) for _ in range(18))
        monkeypatch.setattr(cli.lpoly, "coeffs_by_compositions", None)
        code, out, err = run_cli(
            "lpoly", "from-traces", "--q", str(q), "--traces", traces, "--no-validate"
        )
        assert (code, err) == (cli.EXIT_OK, "")
        payload = json.loads(out)
        assert payload["methods_run"] == ["recurrence", "pper"]
        assert payload["methods_agree"] is payload["oracle_agrees"] is True

    def test_composition_walk_bits_bound_the_products(self):
        # every product the walk forms, S_{m_1}..S_{m_r} times N!, has at
        # most the bits the estimate reads off the S-values; 3! * 255 has
        # 11 bits, and bits(3!) + 3 * ceil(8 / 3) = 12
        assert cli.lpoly._composition_walk_bits(cli.lpoly.SSequence(2, (1, 1, 255))) == 12
        rng = random.Random(3)
        cases = [cli.lpoly.SSequence(2, (1, 1, 255))]
        for g in (1, 2, 5, 9):
            cases.append(
                cli.lpoly.SSequence(7, [rng.randint(-(7**m), 7**m) or 1 for m in range(1, g + 1)])
            )
        for s in cases:
            g, bits = s.g, cli.lpoly._composition_walk_bits(s)
            for n in range(1, g + 1):
                for parts in itertools.islice(iter_parts(n), 64):
                    product = math.factorial(n) * math.prod(s.s[m - 1] for m in parts)
                    assert abs(product).bit_length() <= bits

    def test_no_validate_skips_prime_power(self):
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "6", "--counts", "9", "--no-validate"
        )
        assert code == cli.EXIT_OK
        assert json.loads(out)["q"] == 6

    def test_deterministic_output(self):
        first = run_cli("lpoly", "from-counts", "--q", "2", "--counts", "5,9,13")
        second = run_cli("lpoly", "from-counts", "--q", "2", "--counts", "5,9,13")
        assert first == second

    def test_csv_format(self):
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "2", "--counts", "5", "--format", "csv"
        )
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "h,5" in lines

    def test_table_format(self):
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "2", "--counts", "5", "--format", "table"
        )
        assert code == cli.EXIT_OK
        assert "coeffs" in out

    @pytest.mark.parametrize(
        "route,line",
        [
            (
                "coeffs_by_parapermanent",
                "recurrence and parapermanent disagree for q=2, S=[4, 0]: "
                "[1, 4, 8] vs [1, 4, 9]",
            ),
            (
                "coeffs_by_compositions",
                "composition sum disagrees for q=2, S=[4, 0]: [1, 4, 8] vs [1, 4, 9]",
            ),
            (
                "oracle_expand",
                "S-value routes disagree with the trace product for q=2, S=[4, 0]: "
                "[1, 4, 8, 8, 4] vs [1, 4, 9, 8, 4]",
            ),
        ],
    )
    def test_route_disagreement_pinned(self, monkeypatch, route, line):
        # one route's a_2 off by one: --method all checks the recurrence
        # against each of the other routes and the trace product
        real = getattr(cli.lpoly, route)

        def wrong(arg):
            if route == "oracle_expand":
                coeffs = list(real(arg).coeffs[: arg.g + 1])
                coeffs[2] += 1
                return cli.lpoly.complete(coeffs, arg.q)
            values = real(arg)
            values[2] += 1
            return values

        monkeypatch.setattr(cli.lpoly, route, wrong)
        code, out, err = run_cli("lpoly", "from-traces", "--q", "2", "--traces", "-2,-2")
        assert (code, out, err) == (cli.EXIT_CONSISTENCY, "", f"consistency failure: {line}\n")


class TestFieldCommandGolden:
    # (exit, stdout, stderr) of lpoly from-counts, lpoly from-traces and
    # classnumber from both sources in every format, Weil warnings and each
    # --help, pinned byte for byte
    CASES = json.loads(
        (Path(__file__).parent / "golden" / "field_commands.json").read_text(encoding="utf-8")
    )

    @pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
    def test_output_unchanged(self, monkeypatch, case):
        # argparse prints --help to sys.stdout, wrapped to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(case["argv"], out, err)
        assert (code, out.getvalue(), err.getvalue()) == (
            case["exit"],
            case["stdout"],
            case["stderr"],
        )


class TestClassNumberCommand:
    def test_from_counts(self):
        code, out, _ = run_cli("classnumber", "--q", "2", "--counts", "3")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["h"] == "3"
        assert payload["h_formula"] == "3"
        assert payload["agree"] is True

    def test_from_traces(self):
        code, out, _ = run_cli("classnumber", "--q", "2", "--traces", "-2,-2")
        assert code == cli.EXIT_OK
        assert json.loads(out)["h"] == "25"

    def test_requires_exactly_one_input(self):
        code, _, err = run_cli("classnumber", "--q", "2")
        assert code == cli.EXIT_VALIDATION
        code, _, err = run_cli(
            "classnumber", "--q", "2", "--counts", "3", "--traces", "0"
        )
        assert code == cli.EXIT_VALIDATION

    def test_single_negative_trace(self):
        code, out, _ = run_cli("classnumber", "--q", "2", "--traces", "-2")
        assert code == cli.EXIT_OK
        assert json.loads(out)["h"] == "5"

    def test_wrong_recurrence_caught_by_trace_product(self, monkeypatch):
        # prod(q + 1 - t_i) does not read coeffs_by_recurrence, and it is
        # compared before the direct formula
        real = cli.lpoly.coeffs_by_recurrence

        def wrong(s):
            values = real(s)
            values[1] += 1
            return values

        monkeypatch.setattr(cli.lpoly, "coeffs_by_recurrence", wrong)
        code, out, err = run_cli("classnumber", "--q", "2", "--traces", "-2,-2")
        assert code == cli.EXIT_CONSISTENCY
        assert out == ""
        assert "trace product" in err

    def test_wrong_recurrence_caught_by_direct_formula(self, monkeypatch):
        # with --counts there is no trace product; the formula reads the
        # parapermanent route, not coeffs_by_recurrence
        real = cli.lpoly.coeffs_by_recurrence

        def wrong(s):
            values = real(s)
            values[1] += 1
            return values

        monkeypatch.setattr(cli.lpoly, "coeffs_by_recurrence", wrong)
        code, out, err = run_cli("classnumber", "--q", "2", "--counts", "3,5")
        assert code == cli.EXIT_CONSISTENCY
        assert out == ""
        assert "direct formula" in err

    def test_consistency_failure_exit_code(self, monkeypatch):
        monkeypatch.setattr(cli.lpoly, "class_number_formula", lambda data: -1)
        code, _, err = run_cli("classnumber", "--q", "2", "--counts", "3")
        assert code == cli.EXIT_CONSISTENCY
        assert "consistency failure" in err


class TestOutputLimits:
    @pytest.fixture
    def default_digit_limit(self):
        # pin the interpreter's int-to-str limit at its default for the test
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-str digit limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("command", [("lpoly", "from-traces"), ("classnumber",)])
    def test_huge_integer_is_refused(self, command, default_digit_limit):
        # (q + 1)^400 has more than 4300 digits at q = 999999999989
        traces = ",".join(["0"] * 400)
        code, out, err = run_cli(*command, "--q", "999999999989", "--traces", traces)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    @pytest.mark.parametrize("command", [("lpoly", "from-traces"), ("classnumber",)])
    def test_huge_trace_output_refused_before_any_route(
        self, monkeypatch, command, default_digit_limit
    ):
        # 512 traces at q = 999999999989: a_2g = q^g and h = prod(q + 1 - t_i)
        # each have more than 4300 digits, so both are refused before the
        # routes, which took 4.4-5.2 s to reach the same refusal
        q = 999999999989
        rng = random.Random(1)
        bound = math.isqrt(4 * q)
        traces = ",".join(str(rng.randint(-bound, bound)) for _ in range(cli._MAX_G))
        forbid_routes(monkeypatch)
        started = time.perf_counter()
        result = run_cli(*command, "--q", str(q), "--traces", traces)
        assert time.perf_counter() - started < 1.0
        assert result == (cli.EXIT_VALIDATION, "", f"error: {cli._digit_limit_error()}\n")

    def test_trace_class_number_refused_before_any_route(self, monkeypatch, default_digit_limit):
        # 512 traces of -isqrt(4q) at q = 250286543: q^g is below 10^4300
        # but lpoly's printed h = prod(q + 1 - t_i) is not, so it is refused
        # up front, not after every route has run (2.4 s)
        q = 250286543
        t = -math.isqrt(4 * q)
        assert q**cli._MAX_G < 10**4300 <= (q + 1 - t) ** cli._MAX_G
        traces = ",".join([str(t)] * cli._MAX_G)
        forbid_routes(monkeypatch)
        started = time.perf_counter()
        result = run_cli("lpoly", "from-traces", "--q", str(q), "--traces", traces, "--no-validate")
        assert time.perf_counter() - started < 1.0
        assert result == (cli.EXIT_VALIDATION, "", f"error: {cli._digit_limit_error()}\n")

    def test_walk_order_named_before_digit_limit(self, default_digit_limit):
        # q^g = 10^7500 past the limit, but g = 25 is past the walk's bound
        # too, and that refusal comes first
        zeros = ",".join(["0"] * 25)
        result = run_cli(
            "lpoly", "from-traces", "--q", str(10**300), "--traces", zeros,
            "--method", "compositions", "--no-validate",
        )
        message = "error: --method compositions needs g <= 20, got g=25\n"
        assert result == (cli.EXIT_VALIDATION, "", message)

    def test_trace_output_refusal_boundary(self, monkeypatch, default_digit_limit):
        # 10^4300 has 4301 digits, one past the limit: q^g at q = 10^43 and
        # h = (q + 1)^g at q = 10^43 - 1 (printed by both commands), with 100
        # zero traces.  At q =
        # 10^43 - 1 with 100 traces of isqrt(4q) both commands print their
        # report.
        zeros = ",".join(["0"] * 100)
        below = 10**43 - 1
        top = ",".join([str(math.isqrt(4 * below))] * 100)
        for command in (("lpoly", "from-traces"), ("classnumber",)):
            code, out, _ = run_cli(*command, "--q", str(below), "--traces", top, "--no-validate")
            assert code == cli.EXIT_OK
            assert json.loads(out)["g"] == 100
        forbid_routes(monkeypatch)
        lpoly_cmd = ("lpoly", "from-traces")
        cases = ((lpoly_cmd, 10**43), (lpoly_cmd, below), (("classnumber",), below))
        for command, q in cases:
            result = run_cli(*command, "--q", str(q), "--traces", zeros, "--no-validate")
            assert result == (cli.EXIT_VALIDATION, "", f"error: {cli._digit_limit_error()}\n")

    @pytest.mark.parametrize(
        "args",
        [
            ("lpoly", "from-traces", "--traces"),
            ("lpoly", "from-counts", "--counts"),
            ("classnumber", "--traces"),
            ("classnumber", "--counts"),
        ],
    )
    def test_genus_cap_refused_up_front(self, args):
        values = ",".join(["1"] * (cli._MAX_G + 1))
        started = time.perf_counter()
        code, out, err = run_cli(*args[:-1], "--q", "2", args[-1], values)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert f"at most {cli._MAX_G} values" in err

    def test_huge_defect2_genus_is_refused(self, default_digit_limit):
        # a_24 at g = 10^200 has about 4800 digits
        code, out, err = run_cli("defect2", "analyze", "--g", str(10**200))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    def test_huge_defect2_report_refused_before_any_route(self, default_digit_limit):
        # the closed form gives |a_1|..|a_24|, so the report is refused
        # before the routes that took 1.1-1.9 s at this genus run
        started = time.perf_counter()
        code, out, err = run_cli("defect2", "analyze", "--g", str(10**4000))
        assert time.perf_counter() - started < 0.2
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {cli._digit_limit_error()}\n"

    def test_defect2_refusal_is_exact(self, monkeypatch, default_digit_limit):
        # C(g-1, 24) 2^24 is a lower bound on |a_24|: at the largest g where
        # it is printable, a_24 itself is not, and the report is refused
        # before analyze runs.  The refusal starts at the first g whose
        # largest |a_n| (by the recurrence route) has more than 4300 digits.
        top, high = 25, 10**200
        while high - top > 1:
            mid = (top + high) // 2
            top, high = (mid, high) if math.comb(mid - 1, 24) << 24 < 10**4300 else (top, mid)

        def largest(g):
            return max(map(abs, cli.defect2.a_list_theta_recurrence(24, g, cli.defect2.Theta.PI_4)))

        printable = next(g for g in range(top, top - 100, -1) if largest(g) < 10**4300)
        assert printable < top
        code, out, err = run_cli("defect2", "analyze", "--g", str(printable), "--format", "csv")
        assert (code, err) == (cli.EXIT_OK, "")
        assert len(out.splitlines()) == 25

        def forbidden(*args, **kwargs):
            raise AssertionError("analyze ran before the refusal")

        monkeypatch.setattr(cli.defect2, "analyze", forbidden)
        for g in (printable + 1, top):
            result = run_cli("defect2", "analyze", "--g", str(g))
            assert result == (cli.EXIT_VALIDATION, "", f"error: {cli._digit_limit_error()}\n")

    def test_no_digit_limit_skips_defect2_bound(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-str digit limit")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli("defect2", "analyze", "--g", str(10**200), "--max-n", "2")
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == cli.EXIT_OK
        assert json.loads(out)["rows"][0]["a_3pi4"] == str(2 * 10**200 - 2)

    def test_huge_pper_is_refused(self, tmp_path, default_digit_limit):
        # the product of three 4001-digit entries has 12003 digits
        big = "7" * 4001
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"order": 3, "rows": [[big], [big, big], [big, big, big]]}),
            encoding="utf-8",
        )
        code, out, err = run_cli("pper", "--file", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    def test_pper_integer_past_digit_limit_refused(self, tmp_path, default_digit_limit):
        # json raises a plain ValueError for such a literal, not a decode error
        path = tmp_path / "long.json"
        path.write_text('{"order": 1, "rows": [[' + "7" * 5000 + "]]}", encoding="utf-8")
        code, out, err = run_cli("pper", "--file", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "cannot be read" in err

    def test_huge_consistency_message(self, default_digit_limit):
        # a_2 = 1/2 - q is not an integer, and S_45 has 4500 digits
        q = 10**100
        counts = ",".join(["2"] + ["1"] * 44)
        code, out, err = run_cli(
            "lpoly", "from-counts", "--q", str(q), "--counts", counts, "--no-validate"
        )
        assert code == cli.EXIT_CONSISTENCY
        assert out == ""
        failure = err.splitlines()[-1]
        assert failure.startswith(
            f"consistency failure: a_2 is not an integer ({1 - 2 * q}/2) "
            f"for q={q}, S=[{1 - q}, {-(q**2)}, "
        )
        big = f"<integer of {(q**45).bit_length()} bits>"
        assert failure.endswith(f", {big}] [method: recurrence]")

    @pytest.mark.parametrize("command", [("lpoly", "from-counts"), ("classnumber",)])
    def test_recurrence_stops_at_first_fraction(self, command):
        # a_2 = 1/2 - q is the first non-integral coefficient: the route
        # must stop there, not carry Fractions on to a_400
        counts = ",".join(["2"] + ["1"] * 399)
        started = time.perf_counter()
        code, out, err = run_cli(*command, "--q", "999999999989", "--counts", counts)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_CONSISTENCY
        assert out == ""
        assert "a_2 is not an integer" in err.splitlines()[-1]

    def test_huge_pper_disagreement_message(self, tmp_path, monkeypatch, default_digit_limit):
        big = "7" * 4001
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"order": 2, "rows": [[big], [big, big]]}), encoding="utf-8")
        tiny = 10**5000
        monkeypatch.setattr(cli, "pper_by_compositions", lambda matrix: Fraction(1, tiny))
        code, out, err = run_cli("pper", "--file", str(path))
        assert code == cli.EXIT_CONSISTENCY
        assert out == ""
        by_rows = 2 * int(big) ** 2
        assert err == (
            "consistency failure: last-row and composition evaluations disagree: "
            f"<integer of {by_rows.bit_length()} bits> vs "
            f"1/<integer of {tiny.bit_length()} bits>\n"
        )

    def test_genus_cap_allows_512(self):
        assert cli._MAX_G == 512
        traces = ",".join(str((-2, -1, 0, 1, 2)[i % 5]) for i in range(512))
        code, out, _ = run_cli("lpoly", "from-traces", "--q", "2", "--traces", traces)
        assert code == cli.EXIT_OK
        assert json.loads(out)["g"] == 512


class TestDefect2Command:
    def test_analyze_report(self):
        code, out, _ = run_cli("defect2", "analyze", "--g", "4", "--theta", "both")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["g"] == 4
        assert payload["rows"][3]["delta_pi4"] == "4"
        assert payload["oracle_match"] == {"pi4": True, "3pi4": True}

    def test_single_theta(self):
        code, out, _ = run_cli("defect2", "analyze", "--g", "3", "--theta", "3pi4")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["thetas"] == ["3pi4"]
        assert payload["rows"][0]["a_pi4"] is None

    def test_max_n_and_threads(self):
        code, out, _ = run_cli("defect2", "analyze", "--g", "9", "--max-n", "5")
        assert code == cli.EXIT_OK
        assert len(json.loads(out)["rows"]) == 5
        # the report runs in one process, and the command has no --threads
        code, out, err = run_cli(
            "defect2", "analyze", "--g", "9", "--max-n", "5", "--threads", "2"
        )
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err == "error: unrecognized arguments: --threads 2\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (("defect2", "analyze", "--g", "0"), "error: g must be >= 1, got 0\n"),
            (
                ("defect2", "analyze", "--g", "5", "--max-n", "6"),
                "error: need 1 <= max_n <= 5 for g=5, got 6\n",
            ),
            (
                ("defect2", "analyze", "--g", "30", "--max-n", "25"),
                "error: --max-n is capped at 24, got 25\n",
            ),
            (
                ("defect2", "analyze", "--g", "3", "--threads", "0"),
                "error: unrecognized arguments: --threads 0\n",
            ),
            (("defect2", "analyze", "--g", "3", "--theta", "pi"), "--theta"),
            (
                ("defect2", "analyze", "--g", "30", "--max-n", "0"),
                "error: need 1 <= max_n <= 24 for g=30, got 0\n",
            ),
            (
                ("defect2", "analyze", "--g", "30", "--max-n", "-3"),
                "error: need 1 <= max_n <= 24 for g=30, got -3\n",
            ),
        ],
        ids=[
            "args0---g",
            "args1---max-n",
            "args2---max-n",
            "args3---threads",
            "args4---theta",
            "args5---max-n-zero",
            "args6---max-n-negative",
        ],
    )
    def test_validation(self, args, message):
        code, _, err = run_cli(*args)
        assert code == cli.EXIT_VALIDATION
        assert message in err

    def test_csv_and_table_formats(self):
        code, csv_out, _ = run_cli(
            "defect2", "analyze", "--g", "3", "--format", "csv"
        )
        assert code == cli.EXIT_OK
        assert csv_out.splitlines()[0].startswith("n,a_pi4,a_3pi4")
        code, table_out, _ = run_cli(
            "defect2", "analyze", "--g", "3", "--format", "table"
        )
        assert code == cli.EXIT_OK
        assert "theorem_mode  proven" in table_out

    def test_rows_stop_at_24_golden(self):
        # the library takes any max_n <= g; the command keeps its 24 rows
        expected = (
            "n,a_pi4,a_3pi4,p_plus_pi4,p_minus_pi4,delta_pi4,p_plus_3pi4,p_minus_3pi4,delta_3pi4,check_symmetry,check_tallies,check_signs\n"
            "1,-58,58,0,1,1,1,0,1,true,,conjecture\n"
            "2,1684,1684,2,0,2,2,0,2,true,true,conjecture\n"
            "3,-32596,32596,1,3,2,3,1,2,true,true,conjecture\n"
            "4,472700,472700,6,2,4,6,2,4,true,true,conjecture\n"
            "5,-5472880,5472880,6,10,4,10,6,4,true,true,conjecture\n"
            "6,52650080,52650080,20,12,8,20,12,8,true,true,conjecture\n"
            "7,-432525024,432525024,27,37,10,37,27,10,true,true,conjecture\n"
            "8,3095071632,3095071632,73,55,18,73,55,18,true,true,conjecture\n"
            "9,-19583816928,19583816928,116,140,24,140,116,24,true,true,conjecture\n"
            "10,110861380032,110861380032,277,235,42,277,235,42,true,true,conjecture\n"
            "11,-566746814400,566746814400,483,541,58,541,483,58,true,true,conjecture\n"
            "12,2636578875840,2636578875840,1072,976,96,1072,976,96,true,true,conjecture\n"
            "13,-11232607249920,11232607249920,1980,2116,136,2116,1980,136,true,true,conjecture\n"
            "14,44056366586880,44056366586880,4206,3986,220,4206,3986,220,true,true,conjecture\n"
            "15,-159798044052480,159798044052480,8033,8351,318,8351,8033,318,true,true,conjecture\n"
            "16,538057722574080,538057722574080,16637,16131,506,16637,16131,506,true,true,conjecture\n"
            "17,-1687349795351040,1687349795351040,32396,33140,744,33140,32396,744,true,true,conjecture\n"
            "18,4942281879106560,4942281879106560,66121,64951,1170,66121,64951,1170,true,true,conjecture\n"
            "19,-13553657999078400,13553657999078400,130203,131941,1738,131941,130203,1738,true,true,conjecture\n"
            "20,34874621894568960,34874621894568960,263498,260790,2708,263498,260790,2708,true,true,conjecture\n"
            "21,-84348903265505280,84348903265505280,522262,526314,4052,526314,522262,4052,true,true,conjecture\n"
            "22,192065739439841280,192065739439841280,1051712,1045440,6272,1051712,1045440,6272,true,true,conjecture\n"
            "23,-412294093257646080,412294093257646080,2092435,2101869,9434,2101869,2092435,9434,true,true,conjecture\n"
            "24,835313683954913280,835313683954913280,4201573,4187035,14538,4201573,4187035,14538,true,true,conjecture\n"
        )
        assert run_cli("defect2", "analyze", "--g", "30", "--format", "csv") == (
            cli.EXIT_OK,
            expected,
            "",
        )

    # the JSON report for g in {1, 2, 3, 7, 20}, each --theta, with --max-n
    # at its default and at 1, pinned byte for byte
    GOLDEN = json.loads(
        (Path(__file__).parent / "golden" / "defect2_analyze.json").read_text(encoding="utf-8")
    )

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][2:]))
    def test_json_golden(self, case):
        assert run_cli(*case["argv"]) == (cli.EXIT_OK, case["stdout"], "")

    def test_deterministic_output(self):
        first = run_cli("defect2", "analyze", "--g", "5")
        second = run_cli("defect2", "analyze", "--g", "5")
        assert first == second


class TestCompositionsCommand:
    def test_json_rows(self):
        code, out, _ = run_cli("compositions", "--n", "3")
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"index": 0, "parts": [3]}
        assert rows[3] == {"index": 3, "parts": [1, 1, 1]}

    def test_zero(self):
        code, out, _ = run_cli("compositions", "--n", "0")
        assert code == cli.EXIT_OK
        assert json.loads(out.splitlines()[0]) == {"index": 0, "parts": []}

    def test_csv(self):
        code, out, _ = run_cli("compositions", "--n", "2", "--format", "csv")
        assert code == cli.EXIT_OK
        assert out.splitlines() == ["index,parts", "0,2", "1,1 1"]

    def test_table_golden(self):
        code, out, _ = run_cli("compositions", "--n", "3", "--format", "table")
        assert code == cli.EXIT_OK
        assert out == (
            "         0  (3)\n"
            "         1  (1, 2)\n"
            "         2  (2, 1)\n"
            "         3  (1, 1, 1)\n"
        )

    def test_bounds(self):
        code, _, err = run_cli("compositions", "--n", "-1")
        assert code == cli.EXIT_VALIDATION
        code, _, err = run_cli("compositions", "--n", "63")
        assert code == cli.EXIT_VALIDATION


class TestPperCommand:
    def write(self, tmp_path, payload):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_reads_table(self, tmp_path):
        path = self.write(
            tmp_path, {"order": 2, "rows": [["1"], ["1/2", "2"]]}
        )
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["pper"] == "3"
        assert payload["agree"] is True

    def test_golden_formats(self, tmp_path):
        # seeded order-12 table: signs, zeros, ints and denominators up to 12
        rows = [
            ["2/7"],
            [7, "9/4"],
            ["-7/6", 0, "-1/9"],
            ["6/2", -8, 7, 2],
            ["0/9", -6, "7/10", "-1/4", "5/6"],
            ["4/2", "5/6", "0/7", "0/9", 0, "-8/4"],
            [0, "5/10", "-8/8", "4/8", "3/3", "2/4", "-9/1"],
            ["2/4", "-3/10", 8, "-5/11", "-3/9", "5/5", "2/8", "-4/6"],
            ["3/12", "0/11", -2, "6/3", 7, "0/7", "-6/4", "5/11", "0/12"],
            ["0/2", "-6/2", "-4/5", "9/10", 9, 5, "2/11", 4, "5/3", 9],
            ["0/11", "3/6", 0, "4/4", "3/9", "2/9", "-7/8", "-3/7", "8/11", "-1/9", "5/12"],
            [5, "-2/8", -4, "5/5", "6/10", "-4/11", 6, "5/7", "6/7", "-2/4", "-4/9", "4/3"],
        ]
        path = self.write(tmp_path, {"order": 12, "rows": rows})
        value = "6474014068999/1290909312"
        golden = {
            "json": (
                '{\n'
                '  "order": 12,\n'
                f'  "pper": "{value}",\n'
                f'  "by_last_row": "{value}",\n'
                f'  "by_compositions": "{value}",\n'
                '  "agree": true\n'
                '}\n'
            ),
            "csv": (
                "key,value\n"
                "order,12\n"
                f"pper,{value}\n"
                f"by_last_row,{value}\n"
                f"by_compositions,{value}\n"
                "agree,true\n"
            ),
            "table": (
                "order            12\n"
                f"pper             {value}\n"
                f"by_last_row      {value}\n"
                f"by_compositions  {value}\n"
                "agree            true\n"
            ),
        }
        for fmt, expected in golden.items():
            assert run_cli("pper", "--file", path, "--format", fmt) == (cli.EXIT_OK, expected, "")

    def test_one_scaling_per_request(self, tmp_path, monkeypatch):
        # both evaluators and the three printed values share one lcm per
        # column, one factorial-product table and one read-out
        calls = {"lcm": 0, "_factorial_product_table": 0, "read_out": 0}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(math, "lcm")
        counting(parapermanent, "_factorial_product_table")
        counting(parapermanent.ScaledTable, "read_out")
        rows = [[f"{i - j}/{i + j}" for j in range(i)] for i in range(1, 10)]
        code, out, _ = run_cli("pper", "--file", self.write(tmp_path, {"order": 9, "rows": rows}))
        assert code == cli.EXIT_OK
        assert calls == {"lcm": 9, "_factorial_product_table": 1, "read_out": 1}
        payload = json.loads(out)
        assert payload["pper"] == payload["by_last_row"] == payload["by_compositions"]
        assert Fraction(payload["pper"]).denominator > 1

    def test_order_bound_refused_up_front(self, tmp_path):
        order = cli._MAX_WALK_ORDER + 1
        path = self.write(tmp_path, {"order": order, "rows": [["1/3"] * i for i in range(1, order + 1)]})
        started = time.perf_counter()
        code, out, err = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert f"table order capped at {cli._MAX_WALK_ORDER}, got {order}" in err

    def test_order_bound_allows_20(self, tmp_path):
        # all-ones table: the parapermanent counts the 2^19 compositions of 20
        assert cli._MAX_WALK_ORDER == 20
        path = self.write(tmp_path, {"order": 20, "rows": [[1] * i for i in range(1, 21)]})
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["pper"] == str(2**19)

    def test_work_budget_refuses_large_denominators(self, tmp_path):
        # distinct 64-bit (Fermat probable) prime denominators: the column
        # lcms of an order-18 table hold 171 of them, about 11,000 bits, and
        # the walk is estimated at 7.9 s (the column-scaled walk took 1.1 s,
        # the Fraction walk it replaced 18-35 s)
        candidates = (n for n in itertools.count(2**63 + 1, 2) if pow(2, n - 1, n) == 1)
        primes = list(itertools.islice(candidates, 18 * 19 // 2))
        rows = [[f"{(-1) ** j}/{primes.pop()}" for j in range(i)] for i in range(1, 19)]
        path = self.write(tmp_path, {"order": 18, "rows": rows})
        started = time.perf_counter()
        code, out, err = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "table too large to walk" in err
        assert f"past the {cli._MAX_PPER_SECONDS} s budget" in err
        # its first eight rows are well inside the budget
        path = self.write(tmp_path, {"order": 8, "rows": rows[:8]})
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["agree"] is True

    def test_work_budget_refuses_large_integers(self, tmp_path):
        # no denominators at all: order 20 with 256-bit integers ran 4.5 s
        rng = random.Random(20)
        rows = [[rng.getrandbits(256) | 1 << 255 for _ in range(i)] for i in range(1, 21)]
        path = self.write(tmp_path, {"order": 20, "rows": rows})
        started = time.perf_counter()
        code, out, err = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert "table too large to walk" in err

    def test_work_budget_refuses_huge_denominators_at_once(self, tmp_path):
        # 210 distinct 14,000-bit denominators: their full lcm alone takes
        # seconds, so the budget must stop before forming it
        rng = random.Random(210)
        rows = [
            [f"1/{rng.getrandbits(14000) | 1 << 13999 | 1}" for _ in range(i)]
            for i in range(1, 21)
        ]
        path = self.write(tmp_path, {"order": 20, "rows": rows})
        started = time.perf_counter()
        code, _, err = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert "table too large to walk" in err

    def test_work_budget_accepts_one_shared_large_denominator(self, tmp_path):
        # every entry over one 300-bit (Fermat probable) prime: each column
        # scales by that prime alone, so the walk stays on small integers;
        # estimated at 0.57 s (2.2 s when such a table walked Fractions)
        prime = next(n for n in itertools.count(2**299 + 1, 2) if pow(2, n - 1, n) == 1)
        rng = random.Random(16)
        rows = [
            [f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{prime}" for _ in range(i)]
            for i in range(1, 17)
        ]
        path = self.write(tmp_path, {"order": 16, "rows": rows})
        started = time.perf_counter()
        code, out, _ = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.5
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["agree"] is True
        assert Fraction(payload["pper"]).denominator == prime**16

    def test_work_budget_accepts_small_rationals(self, tmp_path, monkeypatch):
        # tables of +-(1..9)/(1..9), D | 2520, as the benchmark sends them
        rng = random.Random(17)
        rows = [
            [f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(i)]
            for i in range(1, 18)
        ]
        with monkeypatch.context() as patch:
            # well inside the budget: estimated under 0.1 s
            patch.setattr(cli, "_MAX_PPER_SECONDS", 0.1)
            matrix = parapermanent.TriangularMatrix([[Fraction(x) for x in row] for row in rows])
            parapermanent.scale_columns(matrix, lambda bits: cli._refuse_slow_walk(17, bits))
        path = self.write(tmp_path, {"order": 17, "rows": rows})
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["agree"] is True

    def test_integer_entries_allowed(self, tmp_path):
        path = self.write(tmp_path, {"order": 1, "rows": [[7]]})
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["pper"] == "7"

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": [["1"]]},
            {"order": 2, "rows": [["1"]]},
            {"order": 1, "rows": [["1", "2"]]},
            {"order": 1, "rows": [["1/0"]]},
            {"order": 1, "rows": [[None]]},
            {"order": -1, "rows": []},
        ],
    )
    def test_bad_tables(self, tmp_path, payload):
        path = self.write(tmp_path, payload)
        code, _, err = run_cli("pper", "--file", path)
        assert code == cli.EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli("pper", "--file", str(tmp_path / "absent.json"))
        assert code == cli.EXIT_VALIDATION
        assert "cannot read" in err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli("pper", "--file", str(path))
        assert code == cli.EXIT_VALIDATION
        assert "not valid JSON" in err

    def test_deeply_nested_json(self, tmp_path):
        # nesting past the parser's recursion depth is refused like bad JSON
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run_cli("pper", "--file", str(path))
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith(f"error: --file {path} is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err


# argv fuzzing: values that parse and values that do not, lists from empty
# to just past _MAX_G, and pper tables from empty to past _MAX_WALK_ORDER
_SMALL_Q = st.sampled_from(["2", "3", "4", "5", "9"])
_ANY_Q = st.one_of(_SMALL_Q, st.sampled_from(["4093", "1", "6", "-3", "x", "1e3", ""]))
_BAD_VALUE = st.sampled_from(["", "x", "1.5", "--", "-"])


@st.composite
def _value_list(draw, q: str):
    # traces or counts inside |t| <= 2 sqrt(q); mostly short lists, a
    # quarter of length _MAX_G - 2 .. _MAX_G + 1 (small q only); one in
    # eight lists has a value past the bound or one that is no integer
    bound = math.isqrt(4 * int(q)) if q.isdigit() else 2
    long = q in ("2", "3", "4", "5", "9") and draw(st.integers(0, 3)) == 0
    size = draw(st.integers(cli._MAX_G - 2, cli._MAX_G + 1) if long else st.integers(0, 8))
    values = [str(value) for value in draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))]
    if values and draw(st.integers(0, 7)) == 0:
        spoiled = draw(st.sampled_from(["", "x", "1.5", "-", str(bound + 1), str(-bound - 1)]))
        values[draw(st.integers(0, len(values) - 1))] = spoiled
    return ",".join(values)


@st.composite
def _lpoly_argv(draw):
    command = draw(
        st.sampled_from([["lpoly", "from-traces"], ["lpoly", "from-counts"], ["classnumber"]])
    )
    q = draw(_ANY_Q)
    if command[0] == "lpoly":
        lists = ["--" + command[1].split("-")[1]]
    else:
        lists = draw(st.sampled_from([["--traces"], ["--counts"]] * 3 + [[], ["--traces", "--counts"]]))
    groups = [["--q", q]] + [[option, draw(_value_list(q))] for option in lists]
    if draw(st.booleans()):
        methods = ["recurrence", "pper", "all"] * 3 + ["compositions", "x"]
        groups.append(["--method", draw(st.sampled_from(methods))])
    if draw(st.booleans()):
        groups.append(["--format", draw(st.sampled_from(["json", "csv", "table"] * 3 + ["xml"]))])
    if draw(st.integers(0, 3)) == 0:
        extra = ["--no-validate"] * 3 + ["--help", "--bogus", "extra"]
        groups.append([draw(st.sampled_from(extra))])
    if draw(st.integers(0, 11)) == 0:
        groups.pop(draw(st.integers(0, len(groups) - 1)))  # a required option missing
    return command + [arg for group in draw(st.permutations(groups)) for arg in group]


_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    st.sampled_from(["1/0", "x", "", "2**64", "1/18446744073709551557"]),
    st.none(),
)


@st.composite
def _pper_table(draw):
    order = draw(st.one_of(st.integers(0, 12), st.sampled_from([19, 21])))
    if order > 12:
        # large orders only with 64-bit prime denominators, which the work
        # budget or the order cap refuses before any walk
        rows = [["1/18446744073709551557"] * i for i in range(1, order + 1)]
    else:
        rows = [draw(st.lists(_ENTRIES, min_size=i, max_size=i)) for i in range(1, order + 1)]
    if draw(st.integers(0, 9)) == 0:
        rows = rows[:-1]  # a row short of the stated order
    return {"order": order, "rows": rows}


@st.composite
def _defect2_argv(draw):
    # genera up to far past the int-to-str limit of the coefficients, and
    # bad, missing or out-of-range values for every option
    huge = [str(10**6), str(10**200), str(10**1000), "x", ""]
    groups = [["--g", draw(st.one_of(st.integers(-2, 40).map(str), st.sampled_from(huge)))]]
    if draw(st.booleans()):
        groups.append(["--max-n", draw(st.one_of(st.integers(-1, 26).map(str), st.just("x")))])
    if draw(st.booleans()):
        groups.append(["--theta", draw(st.sampled_from(["pi4", "3pi4", "both", "pi"]))])
    if draw(st.booleans()):
        groups.append(["--format", draw(st.sampled_from(["json", "csv", "table", "xml"]))])
    if draw(st.integers(0, 11)) == 0:
        groups.pop(draw(st.integers(0, len(groups) - 1)))  # a required option missing
    return ["defect2", "analyze"] + [arg for group in draw(st.permutations(groups)) for arg in group]


# g near _MAX_G on inputs that pass validation, on every run: N_r >= q^r +
# 1 - 2g q^(r/2), so q >= 2g keeps every count N_r >= 0 for r >= 2, and
# small traces of mean about 0 keep N_1 >= 0
_NEAR_MAX_G = TraceData(1031, tuple(random.Random(512).randint(-3, 3) for _ in range(cli._MAX_G)))
_NEAR_MAX_G_TRACES = ",".join(map(str, _NEAR_MAX_G.traces))
_NEAR_MAX_G_COUNTS = ",".join(
    str(s + 1031**r + 1) for r, s in enumerate(s_from_traces(_NEAR_MAX_G).s[:-1], start=1)
)

# 18 counts over q = 2 with S_r = 10^800 18! (r + 1): the composition walk
# is estimated at 85 s, so --method all skips it, and the int-to-str limit
# then refuses the output
_HUGE_S_COUNTS = ",".join(
    str(10**800 * math.factorial(18) * (r + 1) + 2**r + 1) for r in range(1, 19)
)


def _check_exit_code_and_time(argv):
    started = time.perf_counter()
    code, out, err = run_cli(*argv)
    elapsed = time.perf_counter() - started
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_CONSISTENCY, cli.EXIT_USAGE)
    assert "Traceback" not in err
    assert elapsed < 3.0, (argv[:6], elapsed)
    if code != cli.EXIT_OK:
        assert err


class TestArgvFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(_lpoly_argv(), _lpoly_argv(), _pper_table()))
    @example(["lpoly", "from-traces", "--q", "1031", "--traces", _NEAR_MAX_G_TRACES])
    @example(["classnumber", "--q", "1031", "--counts", _NEAR_MAX_G_COUNTS])
    @example(["lpoly", "from-counts", "--method", "pper", "--q", "1031", "--counts", _NEAR_MAX_G_COUNTS])
    @example(["classnumber", "--q", "1031", "--traces", _NEAR_MAX_G_TRACES + ",0"])
    @example(["lpoly", "from-counts", "--q", "2", "--counts", _HUGE_S_COUNTS])
    def test_exit_codes_and_time(self, case):
        if isinstance(case, dict):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "table.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(case, handle)
                _check_exit_code_and_time(["pper", "--file", path])
        else:
            _check_exit_code_and_time(case)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_defect2_argv())
    @example(["defect2", "analyze", "--g", str(10**4000), "--theta", "pi4"])
    def test_defect2_exit_codes_and_time(self, argv):
        _check_exit_code_and_time(argv)
