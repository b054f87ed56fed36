import io
import json
import sys
import time
from fractions import Fraction

import pytest

from zetapoly import cli
from zetapoly.lpoly import TraceData, coeffs_from_traces, n_from_traces


def run_cli(*args):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(list(args), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestDispatch:
    def test_no_arguments_prints_usage(self):
        code, out, err = run_cli()
        assert code == cli.EXIT_OK
        assert out.startswith("usage:")

    def test_help(self):
        code, out, _ = run_cli("--help")
        assert code == cli.EXIT_OK
        assert "commands:" in out

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
        code, out, _ = run_cli(
            "lpoly", "from-counts", "--q", "3", "--counts", "6,12", "--method", "pper"
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["methods_run"] == ["pper"]

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
            (("lpoly", "from-counts", "--q", "2", "--counts", "3,-1"), "--counts[2]"),
            (("lpoly", "from-counts", "--q", "2", "--counts", "3,zz"), "--counts[2]"),
            (("lpoly", "from-traces", "--q", "2", "--traces", "5"), "--traces[1]"),
            (("lpoly", "from-counts", "--counts", "5"), "--q"),
        ],
    )
    def test_validation_failures(self, args, fragment):
        code, _, err = run_cli(*args)
        assert code == cli.EXIT_VALIDATION
        assert fragment in err

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
        code, out, _ = run_cli(
            "defect2", "analyze", "--g", "9", "--max-n", "5", "--threads", "2"
        )
        assert code == cli.EXIT_OK
        assert len(json.loads(out)["rows"]) == 5

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (("defect2", "analyze", "--g", "0"), "--g"),
            (("defect2", "analyze", "--g", "5", "--max-n", "6"), "--max-n"),
            (("defect2", "analyze", "--g", "30", "--max-n", "25"), "--max-n"),
            (("defect2", "analyze", "--g", "3", "--threads", "0"), "--threads"),
            (("defect2", "analyze", "--g", "3", "--theta", "pi"), "--theta"),
        ],
    )
    def test_validation(self, args, fragment):
        code, _, err = run_cli(*args)
        assert code == cli.EXIT_VALIDATION
        assert fragment in err

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

    def test_order_bound_refused_up_front(self, tmp_path):
        order = cli._MAX_PPER_ORDER + 1
        path = self.write(tmp_path, {"order": order, "rows": [["1/3"] * i for i in range(1, order + 1)]})
        started = time.perf_counter()
        code, out, err = run_cli("pper", "--file", path)
        assert time.perf_counter() - started < 1.0
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert f"table order capped at {cli._MAX_PPER_ORDER}, got {order}" in err

    def test_order_bound_allows_20(self, tmp_path):
        # all-ones table: the parapermanent counts the 2^19 compositions of 20
        assert cli._MAX_PPER_ORDER == 20
        path = self.write(tmp_path, {"order": 20, "rows": [[1] * i for i in range(1, 21)]})
        code, out, _ = run_cli("pper", "--file", path)
        assert code == cli.EXIT_OK
        assert json.loads(out)["pper"] == str(2**19)

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
