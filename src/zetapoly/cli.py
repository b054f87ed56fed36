"""Command-line front end.

Thin adapter only: every command parses its inputs, applies its own time
and size bounds, calls the library, whose input checks exit 1 with their
own text, and prints one deterministic report in the requested format.  No
arithmetic beyond input validation lives here.

The field commands (lpoly from-counts, lpoly from-traces, classnumber)
share one option builder, one reader of --q and the counts or traces, and
one check that raises every S-value route disagreement.  A report integer
past the int-to-str limit exits 1 before any route runs wherever the input
fixes a printed value (_refuse_unprintable; defect2 analyze reads its a_n
off defect2's closed form), else when it is printed; counts input runs the
recurrence first, so a non-integral a_i exits 2.

pper keeps only its time budget: parapermanent.scale_columns hands it the
size of the walk before it forms any lcm and again before it builds the
one scaled table that both evaluators walk.

Exit codes: 0 success, 1 invalid input or stdout closed early, 2 failed
internal consistency check, 64 unknown command.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, TextIO, TypeVar, Union

from . import defect2, lpoly
from .arith import parse_rational
from .compositions import iter_parts
from .errors import ConsistencyError, ValidationError, describe
from .parapermanent import (
    TriangularMatrix,
    pper_by_compositions,
    pper_by_last_row,
    scale_columns,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_USAGE = 64

_USAGE = """\
usage: zetapoly <command> ...

commands:
  lpoly from-counts    L-polynomial from point counts N_1..N_g
  lpoly from-traces    L-polynomial from root-pair traces t_1..t_g
  classnumber          class number two ways from counts or traces
  defect2 analyze      defect-2 coefficient report over F_2
  compositions         list the compositions of n in index order
  pper                 parapermanent of a triangular table from a file

run 'zetapoly <command> --help' for options
"""

_MAX_COMPOSITION_N = 62

# --method all runs the composition route (2^g - 1 terms, 0.015-0.04 s at
# g=18 and doubling per g) only up to this genus, and only while
# _walk_seconds puts it within _MAX_PPER_SECONDS; --method compositions
# still reaches _MAX_WALK_ORDER
_ALL_COMPOSITION_MAX_G = 18

# lpoly and classnumber run O(g^2) big-integer routes: every command took
# 0.15-1.3 s at g=512 for q in {2, 9, 4093, 65521}, and 3.4-4.2 s at
# q=999999999989 (Python 3.11, 2 cores)
_MAX_G = 512

# defect2 analyze's rows stop at n = 24, as they always have: the library
# takes any max_n <= g, and 24 rows keep every accepted command's output
_MAX_DEFECT2_N = 24

# every composition walk (pper --file: 2^(n-1) terms; lpoly --method
# compositions: 2^g - 1) stops at this order or genus: pper order 20 took
# 0.08-0.11 s on entries +-(1..9)/(1..9), lpoly g=20 0.12-0.16 s and the
# library's composition route at g=22 0.47-0.61 s (Python 3.11, 2 cores),
# and each order doubles it
_MAX_WALK_ORDER = 20

# The walk visits 2^order - 1 compositions of integers, whose products have
# at most the bits that parapermanent.scale_columns reads off the table
# (pper) or lpoly._composition_walk_bits off the S-values (lpoly --method
# compositions or all), and multiplying b-bit integers costs about b^log2(3)
# (Karatsuba).
# Seconds per walked composition, and per composition and unit of that
# cost (Python 3.11, 2 cores).  The fit predates the column scaling, the
# walks' three folded levels (only nodes with four or more children are
# pushed) and pper's walk that adds only its own order's terms, so the
# estimate errs high, and further with each of them; the constants are
# kept so that pper accepts and refuses the tables it always has.
_INTEGER_NODE_S = 3.5e-7
_INTEGER_WALK_S = 1.2e-11
_MAX_PPER_SECONDS = 1.5
_KARATSUBA = math.log2(3)

# the prime-power check is trial division up to sqrt(q): 0.17 s for the
# largest prime below this bound, 1.6 s near 10^14 (Python 3.11, one core)
_MAX_VALIDATED_Q = 10**12

_Handler = Callable[[list[str], TextIO, TextIO], int]

_T = TypeVar("_T")


# a comma-separated list of integers that starts with "-", e.g. -2,-2
_NEGATIVE_LIST = re.compile(r"-\d+(?:,-?\d+)*")


def _attach_negative_values(args: Sequence[str]) -> list[str]:
    # argparse takes a separate value like "-2,-2" for an option name, so
    # "--traces -2,-2" becomes "--traces=-2,-2" before parsing
    attached: list[str] = []
    for arg in args:
        previous = attached[-1] if attached else ""
        if previous.startswith("--") and "=" not in previous and _NEGATIVE_LIST.fullmatch(arg):
            attached[-1] = f"{previous}={arg}"
        else:
            attached.append(arg)
    return attached


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        if args is not None:
            args = _attach_negative_values(args)
        return super().parse_args(args, namespace)

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise ValidationError(message)


def _int_option(label: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValidationError(f"{label} must be an integer, got {text!r}") from None


def _int_list_option(label: str, text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    if items == [""]:
        raise ValidationError(f"{label} must be a comma-separated list of integers")
    return [_int_option(f"{label}[{i}]", piece) for i, piece in enumerate(items, start=1)]


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    n = q
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return True


def _validate_q(q: int, skip_prime_power: bool) -> None:
    if q < 2:
        raise ValidationError(f"--q must be >= 2, got {q}")
    if skip_prime_power:
        return
    if q > _MAX_VALIDATED_Q:
        raise ValidationError(
            f"--q above 10^12 is too large to check for a prime power, got {q} "
            f"(pass --no-validate to allow)"
        )
    if not _is_prime_power(q):
        raise ValidationError(
            f"--q must be a prime power, got {q} (pass --no-validate to allow)"
        )


def _library_input(call: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    # the library's own input check: its ValueError exits 1 with its text.
    # Only such calls are wrapped; one from inside a route is a bug.
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _digit_limit_error() -> ValidationError:
    return ValidationError(
        f"an output integer has more than {sys.get_int_max_str_digits()} "
        "digits, Python's int-to-str limit (raise it with "
        "PYTHONINTMAXSTRDIGITS)"
    )


def _refuse_unprintable(value: int) -> None:
    # a value the report will print, refused before the routes that would
    # print it run; nothing to refuse without a limit
    limit = sys.get_int_max_str_digits()
    if limit and abs(value) >= 10**limit:
        raise _digit_limit_error()


def _decimal(value: Union[int, Fraction]) -> str:
    try:
        return str(value)
    except ValueError:
        # only raised past the interpreter's int-to-str digit limit
        raise _digit_limit_error() from None


def _json_bool(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _emit_pairs(payload: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            if isinstance(value, list):
                writer.writerow([key, " ".join(str(item) for item in value)])
            else:
                writer.writerow([key, _json_bool(value)])
        return
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        if isinstance(value, list):
            rendered = " ".join(str(item) for item in value)
        else:
            rendered = _json_bool(value) or "-"
        out.write(f"{key:<{width}}  {rendered}\n")


def _add_format_option(parser: _Parser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "table"), default="json"
    )


def _field_parser(prog: str, *sources: str) -> _Parser:
    # the field commands' options: --q, the source list(s), --no-validate;
    # a lone source is required, and of two the reader takes exactly one
    parser = _Parser(prog=prog, add_help=True)
    parser.add_argument("--q", required=True)
    for source in sources:
        parser.add_argument(source, required=len(sources) == 1)
    parser.add_argument("--no-validate", action="store_true")
    return parser


def _read_field(
    ns: argparse.Namespace, err: TextIO
) -> Union[lpoly.SSequence, lpoly.TraceData]:
    # q, then exactly one of the counts or the traces, capped at _MAX_G
    # values and checked by the library; counts print their Weil warnings
    q = _int_option("--q", ns.q)
    _validate_q(q, ns.no_validate)
    counts, traces = getattr(ns, "counts", None), getattr(ns, "traces", None)
    if (counts is None) == (traces is None):
        raise ValidationError("exactly one of --counts or --traces is required")
    label, text = ("--counts", counts) if traces is None else ("--traces", traces)
    values = _int_list_option(label, text)
    if len(values) > _MAX_G:
        raise ValidationError(
            f"{label} takes at most {_MAX_G} values (g <= {_MAX_G}), got {len(values)}"
        )
    if traces is not None:
        return _library_input(lpoly.TraceData, q, tuple(values))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = _library_input(lpoly.s_from_counts, q, values)
    for item in caught:
        print(f"warning: {item.message}", file=err)
    return s


def _check_routes(claim: str, s: lpoly.SSequence, value: Any, expected: Any) -> None:
    # one S-value cross-check; the message, which describes every S-value,
    # is built only on a mismatch
    if value != expected:
        raise ConsistencyError(
            f"{claim} for q={s.q}, S={describe(list(s.s))}: "
            f"{describe(value)} vs {describe(expected)}"
        )


def _half_coefficients(s: lpoly.SSequence, method: str) -> tuple[list[int], list[str]]:
    if method == "recurrence":
        return lpoly.coeffs_by_recurrence(s), ["recurrence"]
    if method == "pper":
        return lpoly.coeffs_by_parapermanent(s), ["pper"]
    if method == "compositions":
        return lpoly.coeffs_by_compositions(s), ["compositions"]
    by_recurrence = lpoly.coeffs_by_recurrence(s)
    by_pper = lpoly.coeffs_by_parapermanent(s)
    _check_routes("recurrence and parapermanent disagree", s, by_recurrence, by_pper)
    # the genus first, so a wide genus never counts the S-values' bits
    if (
        s.g > _ALL_COMPOSITION_MAX_G
        or _walk_seconds(s.g, lpoly._composition_walk_bits(s)) > _MAX_PPER_SECONDS
    ):
        return by_recurrence, ["recurrence", "pper"]
    by_compositions = lpoly.coeffs_by_compositions(s)
    _check_routes("composition sum disagrees", s, by_recurrence, by_compositions)
    return by_recurrence, ["recurrence", "pper", "compositions"]


def _lpoly_command(source: str) -> _Handler:
    # lpoly from-counts or from-traces; traces are also checked against
    # their expanded product, and their a_2g = q^g and h = prod(q + 1 - t_i)
    # are printed whatever the method, so either past the int-to-str limit
    # is refused up front
    def handler(args: list[str], out: TextIO, err: TextIO) -> int:
        parser = _field_parser(f"zetapoly lpoly from-{source}", f"--{source}")
        choices = ("recurrence", "pper", "compositions", "all")
        parser.add_argument("--method", choices=choices, default="all")
        _add_format_option(parser)
        ns = parser.parse_args(args)
        field = _read_field(ns, err)
        # before the refusal of q^g, so such an input keeps this message
        if ns.method == "compositions" and field.g > _MAX_WALK_ORDER:
            raise ValidationError(
                f"--method compositions needs g <= {_MAX_WALK_ORDER}, got g={field.g}"
            )
        oracle = None
        if isinstance(field, lpoly.TraceData):
            _refuse_unprintable(max(field.q**field.g, lpoly.class_number_from_traces(field)))
            s, oracle = lpoly.s_from_traces(field), lpoly.oracle_expand(field)
        else:
            s = field
        if ns.method == "compositions":
            refused = "S-values too large for --method compositions"
            _refuse_slow_walk(s.g, lpoly._composition_walk_bits(s), refused)
        half, methods = _half_coefficients(s, ns.method)
        full = lpoly.complete(half, s.q)
        if oracle is not None:
            claim = "S-value routes disagree with the trace product"
            _check_routes(claim, s, list(full.coeffs), list(oracle.coeffs))
        payload = {
            "q": s.q,
            "g": s.g,
            "method": ns.method,
            "methods_run": methods,
            "s": [_decimal(value) for value in s.s],
            "coeffs": [_decimal(value) for value in full.coeffs],
            "h": _decimal(lpoly.class_number(full)),
            "methods_agree": True,
            "oracle_agrees": None if oracle is None else True,
        }
        _emit_pairs(payload, ns.format, out)
        return EXIT_OK

    return handler


def _subcommands(command: str, usage: str, handlers: dict[str, _Handler]) -> _Handler:
    # a command whose first argument names one of its handlers
    def dispatch(args: list[str], out: TextIO, err: TextIO) -> int:
        if args and args[0] in ("-h", "--help"):
            out.write(usage)
            return EXIT_OK
        if not args:
            err.write(usage)
            return EXIT_USAGE
        handler = handlers.get(args[0])
        if handler is None:
            print(f"unknown {command} subcommand: {args[0]}", file=err)
            err.write(usage)
            return EXIT_USAGE
        return handler(args[1:], out, err)

    return dispatch


def _cmd_classnumber(args: list[str], out: TextIO, err: TextIO) -> int:
    parser = _field_parser("zetapoly classnumber", "--counts", "--traces")
    _add_format_option(parser)
    ns = parser.parse_args(args)
    field = _read_field(ns, err)
    h_product = None
    if isinstance(field, lpoly.TraceData):
        # h = prod(q + 1 - t_i) is printed, so it is refused up front
        h_product = lpoly.class_number_from_traces(field)
        _refuse_unprintable(h_product)
        s = lpoly.s_from_traces(field)
    else:
        s = field
    full = lpoly.complete(lpoly.coeffs_by_recurrence(s), s.q)
    h = lpoly.class_number(full)
    if h_product is not None and h != h_product:
        raise ConsistencyError(
            f"L(1) disagrees with the trace product prod(q + 1 - t_i) for "
            f"q={s.q}, traces={describe(list(field.traces))}: {describe(h)} vs "
            f"{describe(h_product)}"
        )
    # the formula reads the parapermanent route, not the recurrence
    h_formula = lpoly.class_number_formula(s)
    _check_routes("L(1) and the direct formula disagree", s, h, h_formula)
    payload = {
        "q": s.q,
        "g": s.g,
        "h": _decimal(h),
        "h_formula": _decimal(h_formula),
        "agree": True,
    }
    _emit_pairs(payload, ns.format, out)
    return EXIT_OK


_DEFECT2_VALUE_COLUMNS = (
    "n",
    "a_pi4",
    "a_3pi4",
    "p_plus_pi4",
    "p_minus_pi4",
    "delta_pi4",
    "p_plus_3pi4",
    "p_minus_3pi4",
    "delta_3pi4",
)

_DEFECT2_CHECK_COLUMNS = ("symmetry", "tallies", "signs")


def _defect2_flat_row(row: dict) -> list[str]:
    flat = [_json_bool(row[column]) for column in _DEFECT2_VALUE_COLUMNS]
    flat.extend(_json_bool(row["checks"][check]) for check in _DEFECT2_CHECK_COLUMNS)
    return flat


def _emit_defect2(report: defect2.Defect2Report, fmt: str, out: TextIO) -> None:
    payload = report.to_json_dict()
    header = list(_DEFECT2_VALUE_COLUMNS) + [
        f"check_{check}" for check in _DEFECT2_CHECK_COLUMNS
    ]
    if fmt == "json":
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in payload["rows"]:
            writer.writerow(_defect2_flat_row(row))
        return
    out.write(f"g             {payload['g']}\n")
    out.write(f"max_n         {payload['max_n']}\n")
    out.write(f"thetas        {' '.join(payload['thetas'])}\n")
    out.write(f"theorem_mode  {payload['theorem_mode']}\n")
    for label in ("oracle_match", "recurrence_match"):
        rendered = " ".join(
            f"{key}={_json_bool(value)}" for key, value in payload[label].items()
        )
        out.write(f"{label:<13} {rendered}\n")
    cells = [header]
    for row in payload["rows"]:
        cells.append([value or "-" for value in _defect2_flat_row(row)])
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    out.write("\n")
    for line in cells:
        rendered = "  ".join(value.ljust(width) for value, width in zip(line, widths))
        out.write(rendered.rstrip() + "\n")


def _refuse_huge_defect2(g: int, max_n: int) -> None:
    # the report prints a_1..a_max_n of each branch, the same up to sign on
    # both, so one branch's closed form refuses exactly the reports past the
    # int-to-str limit before any route runs; the library refuses a bad g
    # and a max_n past g itself
    if 1 <= max_n <= g:
        _refuse_unprintable(max(map(abs, defect2._branch_coeffs(max_n, g, defect2.Theta.PI_4))))


def _cmd_defect2_analyze(args: list[str], out: TextIO, err: TextIO) -> int:
    parser = _Parser(prog="zetapoly defect2 analyze", add_help=True)
    parser.add_argument("--g", required=True)
    parser.add_argument("--max-n", dest="max_n")
    parser.add_argument("--theta", choices=("pi4", "3pi4", "both"), default="both")
    _add_format_option(parser)
    ns = parser.parse_args(args)
    g = _int_option("--g", ns.g)
    max_n = None if ns.max_n is None else _int_option("--max-n", ns.max_n)
    if max_n is None:
        max_n = min(g, _MAX_DEFECT2_N)
    elif max_n > _MAX_DEFECT2_N:
        raise ValidationError(f"--max-n is capped at {_MAX_DEFECT2_N}, got {max_n}")
    elif max_n < 1 and g >= 1:
        # the library's wording, with the command's own upper end; a bad g
        # is left to the library's check
        raise ValidationError(
            f"need 1 <= max_n <= {min(g, _MAX_DEFECT2_N)} for g={g}, got {max_n}"
        )
    _refuse_huge_defect2(g, max_n)
    if ns.theta == "both":
        thetas: Optional[tuple[defect2.Theta, ...]] = None
    else:
        thetas = (defect2.Theta(ns.theta),)
    report = _library_input(defect2.analyze, g, max_n=max_n, thetas=thetas)
    _emit_defect2(report, ns.format, out)
    return EXIT_OK


def _cmd_compositions(args: list[str], out: TextIO, err: TextIO) -> int:
    parser = _Parser(prog="zetapoly compositions", add_help=True)
    parser.add_argument(
        "--n",
        required=True,
        help=f"0 <= N <= {_MAX_COMPOSITION_N}; lists all 2^(N-1) compositions of N, an "
        "unbounded stream with no time budget that doubles with each N (N = 22 writes "
        "over two million lines, 12-14 s to /dev/null)",
    )
    _add_format_option(parser)
    ns = parser.parse_args(args)
    n = _int_option("--n", ns.n)
    if not 0 <= n <= _MAX_COMPOSITION_N:
        raise ValidationError(
            f"--n must be in [0, {_MAX_COMPOSITION_N}], got {n}"
        )
    if ns.format == "csv":
        out.write("index,parts\n")
    for index, parts in enumerate(iter_parts(n)):
        if ns.format == "json":
            out.write(json.dumps({"index": index, "parts": list(parts)}))
            out.write("\n")
        elif ns.format == "csv":
            out.write(f"{index},{' '.join(str(part) for part in parts)}\n")
        else:
            rendered = ", ".join(str(part) for part in parts)
            out.write(f"{index:>10}  ({rendered})\n")
    return EXIT_OK


def _load_matrix_file(path: str) -> list[list[Fraction]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read --file {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the parser's depth
        raise ValidationError(f"--file {path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        # an integer literal past the interpreter's int-to-str digit limit
        raise ValidationError(f"--file {path} cannot be read: {exc}") from None
    if not isinstance(data, dict) or "order" not in data or "rows" not in data:
        raise ValidationError(
            f"--file {path} must hold an object with 'order' and 'rows'"
        )
    order = data["order"]
    raw_rows = data["rows"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValidationError(f"--file {path}: 'order' must be a nonnegative integer")
    if not isinstance(raw_rows, list) or len(raw_rows) != order:
        raise ValidationError(
            f"--file {path}: 'rows' must be a list of {order} rows"
        )
    # before any entry is parsed: a table past the cap costs no parsing
    if order > _MAX_WALK_ORDER:
        raise ValidationError(f"table order capped at {_MAX_WALK_ORDER}, got {order}")
    rows: list[list[Fraction]] = []
    for i, row in enumerate(raw_rows, start=1):
        if not isinstance(row, list) or len(row) != i:
            raise ValidationError(
                f"--file {path}: row {i} must be a list of {i} entries"
            )
        parsed = []
        for j, entry in enumerate(row, start=1):
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ValidationError(
                    f"--file {path}: entry ({i}, {j}) must be an integer or "
                    f"a rational string, got {entry!r}"
                )
            try:
                parsed.append(
                    Fraction(entry) if isinstance(entry, int) else parse_rational(entry)
                )
            except ValueError:
                raise ValidationError(
                    f"--file {path}: entry ({i}, {j}) is not a rational: {entry!r}"
                ) from None
        rows.append(parsed)
    return rows


def _walk_seconds(order: int, product_bits: int) -> float:
    # the estimated seconds of a composition walk over integers of at most
    # product_bits bits
    return (2**order - 1) * (_INTEGER_NODE_S + _INTEGER_WALK_S * product_bits**_KARATSUBA)


def _refuse_slow_walk(
    order: int, product_bits: int, refused: str = "table too large to walk"
) -> None:
    # _walk_seconds' estimate, refused past the budget
    seconds = _walk_seconds(order, product_bits)
    if seconds > _MAX_PPER_SECONDS:
        raise ValidationError(
            f"{refused}: its composition walk is estimated at "
            f"{seconds:.3g} s or more, past the {_MAX_PPER_SECONDS} s budget"
        )


def _cmd_pper(args: list[str], out: TextIO, err: TextIO) -> int:
    parser = _Parser(prog="zetapoly pper", add_help=True)
    parser.add_argument("--file", required=True)
    _add_format_option(parser)
    ns = parser.parse_args(args)
    rows = _load_matrix_file(ns.file)
    table = scale_columns(TriangularMatrix(rows), lambda bits: _refuse_slow_walk(len(rows), bits))
    # both evaluators walk the one table, and their agreed sum is read out once
    by_rows = pper_by_last_row(table)
    by_sums = pper_by_compositions(table)
    if by_rows != by_sums:
        raise ConsistencyError(
            "last-row and composition evaluations disagree: "
            f"{describe(table.read_out(by_rows))} vs {describe(table.read_out(by_sums))}"
        )
    value = _decimal(table.read_out(by_rows))
    keys = ("pper", "by_last_row", "by_compositions")
    payload = {"order": table.order, **dict.fromkeys(keys, value), "agree": True}
    _emit_pairs(payload, ns.format, out)
    return EXIT_OK


_COMMANDS: dict[str, _Handler] = {
    "lpoly": _subcommands(
        "lpoly",
        "usage: zetapoly lpoly {from-counts,from-traces} ...\n",
        {"from-counts": _lpoly_command("counts"), "from-traces": _lpoly_command("traces")},
    ),
    "classnumber": _cmd_classnumber,
    "defect2": _subcommands(
        "defect2", "usage: zetapoly defect2 analyze ...\n", {"analyze": _cmd_defect2_analyze}
    ),
    "compositions": _cmd_compositions,
    "pper": _cmd_pper,
}


def run(
    argv: Optional[Sequence[str]] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute one command line; returns the exit code instead of exiting."""
    args = list(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    if not args or args[0] in ("-h", "--help"):
        out.write(_USAGE)
        return EXIT_OK
    handler = _COMMANDS.get(args[0])
    if handler is None:
        print(f"unknown command: {args[0]}", file=err)
        err.write(_USAGE)
        return EXIT_USAGE
    try:
        return handler(args[1:], out, err)
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=err)
        return EXIT_CONSISTENCY
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_VALIDATION


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (| head): stdout goes to devnull so
        # that the flush at exit cannot raise again, and the exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VALIDATION
    sys.exit(code)
