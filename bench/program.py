"""How each benchmark request calls zetapoly, plainly and traced.

`execute` makes the request through its entry point (`defect2.analyze`,
`defect2.verify_symmetry` or `cli.run`) and `check` compares the answer
with the reference from inputs.py.  `replay` is the traced form: it makes
the same entry-point call under one span, then repeats, one span each, the
public calls that entry point makes, so the entry span's self time is the
entry point's own work (row building, parsing, JSON output).
"""

from __future__ import annotations

import io
import json
import warnings
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import reference
from tracing import Tracer
from zetapoly import cli, defect2, lpoly, parapermanent

ENTRY_SPANS = {"analyze": "defect2.analyze", "symmetry": "defect2.symmetry"}


def execute(request: dict, threads: int) -> Any:
    kind = request["kind"]
    if kind == "analyze":
        return defect2.analyze(request["g"], threads=threads)
    if kind == "symmetry":
        return defect2.verify_symmetry(request["n"], request["g"])
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(request["argv"], out, err)
    return code, out.getvalue(), err.getvalue()


CLI_CHECKERS = {
    "lpoly": reference.check_lpoly,
    "classnumber": reference.check_classnumber,
    "pper": reference.check_pper,
}


def check(request: dict, output: Any) -> list[str]:
    kind = request["kind"]
    if kind == "analyze":
        return reference.check_analyze(output.to_json_dict(), request["expect"])
    if kind == "symmetry":
        return reference.check_symmetry(output, request["expect"])
    code, text, err = output
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    return CLI_CHECKERS[kind](json.loads(text), request["expect"])


def replay(request: dict, threads: int, tracer: Tracer, request_id: str) -> list[str]:
    """Traced form of one request; returns the problems its answers show."""
    kind = request["kind"]
    terms = 3 << (request["n"] - 1) if kind == "symmetry" else 0
    with tracer.span(ENTRY_SPANS.get(kind, "cli"), request_id, terms=terms) as entry:
        output = execute(request, threads)
    span = partial(tracer.span, request=request_id, parent=entry["id"])
    return check(request, output) + REPLAYS[kind](request, threads, span)


def replay_analyze(request: dict, threads: int, span: Callable) -> list[str]:
    g = request["g"]
    expect = request["expect"]
    problems = []
    for theta in defect2.Theta:
        values = []
        for n in range(1, g + 1):
            with span("defect2.scan_terms", terms=1 << (n - 1), rusage=True):
                values.append(defect2.a_n_theta(n, g, theta, threads))
        branch = lpoly.TraceData(2, tuple(reference.defect2_branch(g, theta.value)))
        with span("lpoly.trace_route"):
            lpoly.coeffs_from_traces(branch)
        with span("defect2.recurrence"):
            defect2.a_list_theta_recurrence(g, g, theta)
        tallies = []
        for n in range(1, g + 1):
            with span("defect2.scan_signs", terms=1 << (n - 1), rusage=True):
                tallies.append(list(defect2.count_signs(n, g, theta, threads)))
        if values != expect["a"][theta.value]:
            problems.append(f"replayed a_n differ for theta={theta.value}")
        if tallies != [list(tally) for tally in expect["tallies"][theta.value]]:
            problems.append(f"replayed tallies differ for theta={theta.value}")
    return problems


def replay_symmetry(request: dict, threads: int, span: Callable) -> list[str]:
    # verify_symmetry is itself the public call; its span has no children
    return []


def replay_lpoly(request: dict, threads: int, span: Callable) -> list[str]:
    q = request["q"]
    methods = request["expect"]["methods_run"]
    with span("lpoly.s_values"):
        if "counts" in request:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = lpoly.s_from_counts(q, request["counts"])
        else:
            data = lpoly.TraceData(q, tuple(request["traces"]))
            s = lpoly.s_from_traces(data)
    if "counts" not in request:
        with span("lpoly.oracle"):
            lpoly.oracle_expand(data)
    with span("lpoly.recurrence"):
        half = lpoly.coeffs_by_recurrence(s)
    with span("parapermanent.prefixes"):
        lpoly.coeffs_by_parapermanent(s)
    if "compositions" in methods:
        with span("parapermanent.compositions", terms=1 << s.g):
            lpoly.coeffs_by_compositions(s)
    full = lpoly.complete(half, q)
    with span("lpoly.class_number"):
        lpoly.class_number(full)
    if list(full.coeffs) != request["expect"]["coeffs"]:
        return ["replayed coefficients differ from the trace product"]
    return []


def replay_classnumber(request: dict, threads: int, span: Callable) -> list[str]:
    q = request["q"]
    with span("lpoly.s_values"):
        s = lpoly.s_from_traces(lpoly.TraceData(q, tuple(request["traces"])))
    with span("lpoly.recurrence"):
        half = lpoly.coeffs_by_recurrence(s)
    full = lpoly.complete(half, q)
    with span("lpoly.class_number"):
        h = lpoly.class_number(full)
    with span("lpoly.class_number"):
        h_formula = lpoly.class_number_formula(s)
    if h != request["expect"]["h"] or h_formula != request["expect"]["h"]:
        return ["replayed class numbers differ from prod (1 - t_i + q)"]
    return []


def replay_pper(request: dict, threads: int, span: Callable) -> list[str]:
    rows = request["rows"]
    matrix = parapermanent.TriangularMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))
    with span("parapermanent.prefixes"):
        by_rows = parapermanent.pper_by_last_row(matrix)
    with span("parapermanent.compositions", terms=1 << (len(rows) - 1)):
        by_sums = parapermanent.pper_by_compositions(matrix)
    expect = request["expect"]["pper"]
    if reference.render_rational(by_rows) != expect or reference.render_rational(by_sums) != expect:
        return ["replayed parapermanents differ from the reference"]
    return []


REPLAYS = {
    "analyze": replay_analyze,
    "symmetry": replay_symmetry,
    "lpoly": replay_lpoly,
    "classnumber": replay_classnumber,
    "pper": replay_pper,
}
