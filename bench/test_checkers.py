"""Small-size tests of the benchmark's own checkers and counters.

    python3 -m pytest -q bench/test_checkers.py

Each test builds requests the way inputs.py does, at sizes that run in
well under a second, and shows that a correct answer passes while a
perturbed coefficient, tally, class number or parapermanent is counted as
a failed request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402

TRACES = [3, -1, 0, 4, -2]


def small_requests(tmp_path: Path) -> list[dict]:
    return [
        inputs.analyze_request(6),
        inputs.symmetry_request(5, 7),
        inputs.cli_request("from-traces", 5, TRACES, ["recurrence", "pper", "compositions"]),
        inputs.cli_request("from-counts", 7, TRACES, ["recurrence", "pper", "compositions"]),
        inputs.cli_request("classnumber", 5, TRACES, []),
        inputs.pper_request([["1/2"], ["-3", "2/5"], ["7/3", "1", "-1/4"]], tmp_path / "t.json"),
    ]


def edited_cli_output(output: tuple, edit) -> tuple:
    code, text, err = output
    payload = json.loads(text)
    edit(payload)
    return code, json.dumps(payload), err


def edited_report(report, edit) -> SimpleNamespace:
    payload = report.to_json_dict()
    edit(payload)
    return SimpleNamespace(to_json_dict=lambda: payload)


def bump(value: str) -> str:
    return str(int(value) + 1)


def bump_item(items, key) -> None:
    items[key] = bump(items[key])


def test_correct_answers_pass(tmp_path):
    for request in small_requests(tmp_path):
        assert program.check(request, program.execute(request, threads=1)) == [], request["kind"]


def test_perturbed_coefficient_fails(tmp_path):
    analyze, _, from_traces, from_counts, _, _ = small_requests(tmp_path)
    for request in (from_traces, from_counts):
        output = program.execute(request, threads=1)
        wrong = edited_cli_output(output, lambda p: bump_item(p["coeffs"], 2))
        assert program.check(request, wrong)
    report = program.execute(analyze, threads=1)
    wrong = edited_report(report, lambda p: bump_item(p["rows"][3], "a_pi4"))
    assert program.check(analyze, wrong)


def test_perturbed_tally_fails(tmp_path):
    analyze = small_requests(tmp_path)[0]
    report = program.execute(analyze, threads=1)
    for key in ("p_plus_pi4", "p_minus_3pi4"):
        wrong = edited_report(report, lambda p: bump_item(p["rows"][4], key))
        problems = program.check(analyze, wrong)
        assert any("2^(n-1)" in problem for problem in problems)


def test_perturbed_class_number_fails(tmp_path):
    _, _, from_traces, _, classnumber, _ = small_requests(tmp_path)
    for request, key in ((classnumber, "h"), (classnumber, "h_formula"), (from_traces, "h")):
        output = program.execute(request, threads=1)
        assert program.check(request, edited_cli_output(output, lambda p: bump_item(p, key)))


def test_wrong_methods_and_pper_fail(tmp_path):
    *_, from_counts, _, pper = small_requests(tmp_path)
    output = program.execute(from_counts, threads=1)
    assert program.check(from_counts, edited_cli_output(output, lambda p: p["methods_run"].pop()))
    output = program.execute(pper, threads=1)
    assert program.check(pper, edited_cli_output(output, lambda p: p.__setitem__("pper", "0")))
    assert program.check(pper, (1, "", "error: bad table"))


def test_failures_are_counted_in_failed_frac(tmp_path):
    requests = small_requests(tmp_path)[2:4]

    def wrong_execute(request, threads):
        output = program.execute(request, threads)
        return edited_cli_output(output, lambda p: bump_item(p, "h"))

    broken = SimpleNamespace(execute=wrong_execute, check=program.check)
    metrics, attempted, failures, _, _ = run.plain_run(broken, requests, 1, 1, [0.1])
    assert attempted >= len(requests)
    assert len(failures) == attempted
    assert metrics["wall_s"][0] > 0


def test_traced_counts_match_the_inputs(tmp_path):
    requests = small_requests(tmp_path)
    metrics, attempted, failures, observed, spans = run.traced_run(program, requests, 1, 1)
    assert failures == []
    assert observed and all(counts == inputs.work_counts(requests) for counts in observed)
    assert {span["name"] for span in spans} >= {
        "defect2.analyze", "defect2.scan_terms", "defect2.scan_signs", "defect2.symmetry", "cli",
        "lpoly.oracle", "parapermanent.compositions", "lpoly.class_number",
    }
    assert metrics["defect2.scan_terms.calls"][0] == 12


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
