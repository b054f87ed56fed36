"""Mutation check for zetapoly's cross-checking routes.

    python3 tools/mutants.py

Run it from anywhere; it needs pytest and hypothesis, as the test suite
does.  Each entry of MUTANTS is a named exact-string replacement in one
file under src/ plus the tests expected to kill it.  For each mutant the
tool copies src/ to a temporary directory, applies the replacement
there, and runs those tests against the copy; the checkout itself is
never changed.  A mutant is killed when at least one of its tests fails.

First the names are checked: two mutants that share a name would make
the report ambiguous.  Then the union of the named tests runs on the
unmutated copy: a kill means nothing if the tests fail anyway.  The exit
status is 1 if two mutants share a name, if that run fails, if a
replacement string does not occur exactly once in its file, if a mutant
survives, or if pytest cannot run a mutant's tests (for example a test
that no longer exists); it is 0 when every mutant is killed.  Standard
library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ACCEPTANCE = "tests/test_acceptance.py"
ARITH = "tests/test_arith.py"
CLI = "tests/test_cli.py"
DEFECT2 = "tests/test_defect2.py"
LPOLY = "tests/test_lpoly.py"
PPER = "tests/test_parapermanent.py"
RECORDS = "tests/test_records.py"
ROUTES = "tests/test_routes.py"


# cli._load_matrix_file's order cap and the entry loop after it, as they
# stand; pper-cap-after-parse swaps them
_PPER_CAP = '''\
    if order > _MAX_WALK_ORDER:
        raise ValidationError(f"table order capped at {_MAX_WALK_ORDER}, got {order}")
'''
_PPER_ENTRY_LOOP = '''\
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
'''


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant(
        "term-power-off-by-one",
        "zetapoly/defect2.py",
        "value = pow2_half(n)",
        "value = pow2_half(n + 1)",
        (f"{ACCEPTANCE}::test_criterion_11_terms_are_rational",),
    ),
    Mutant(
        "tally-halves-swapped",
        "zetapoly/defect2.py",
        "[((both + net) // 2, (both - net) // 2) for",
        "[((both - net) // 2, (both + net) // 2) for",
        (
            f"{DEFECT2}::TestSignClassification::test_counts_match_classification",
            f"{DEFECT2}::TestSignClassification::test_direction_of_majorities",
            f"{DEFECT2}::TestPrefixWalk::test_tallies_equal_classification",
        ),
    ),
    Mutant(
        "verdict-includes-first-break",
        "zetapoly/defect2.py",
        "[n < first_break for n",
        "[n <= first_break for n",
        (
            f"{DEFECT2}::TestPairedWalk::test_verdicts_equal_termwise_comparison",
            f"{DEFECT2}::TestPairedWalk::test_one_branch_weight_changed_is_asymmetric",
        ),
    ),
    Mutant(
        "weight-power-halved",
        "zetapoly/defect2.py",
        "weight = -(part.numerator * (halves // denominator)) << (m // 2 + 1)",
        "weight = -(part.numerator * (halves // denominator)) << (m // 2)",
        (
            f"{DEFECT2}::TestPrefixWalk::test_sums_equal_term_sums",
            f"{DEFECT2}::TestPrefixWalk::test_weights_are_the_branch_s_values",
            f"{DEFECT2}::TestAnalyze::test_report_genus_four",
        ),
    ),
    Mutant(
        "composition-readout-wrong-factorial",
        "zetapoly/lpoly.py",
        "factorial *= order\n",
        "factorial *= order + 1\n",
        (
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
            f"{LPOLY}::TestIntegerRoutes::test_composition_read_out_is_int_exactly_where_integral",
        ),
    ),
    Mutant(
        "composition-keys-perm-shifted",
        "zetapoly/lpoly.py",
        "values[i - j] * math.perm(i - 1, i - j)",
        "values[i - j] * math.perm(i, i - j)",
        (
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
            f"{LPOLY}::TestIntegerRoutes::test_routes_match_fraction_recurrence",
        ),
    ),
    Mutant(
        "row-denominator-off-by-one",
        "zetapoly/lpoly.py",
        "for i in range(1, s.g + 1)), lambda i: i)",
        "for i in range(1, s.g + 1)), lambda i: i + 1)",
        (
            f"{LPOLY}::TestCoefficients::test_pinned_small",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
            f"{DEFECT2}::TestPrefixWalk::test_sums_equal_term_sums",
        ),
    ),
    Mutant(
        "row-table-s-index-shifted",
        "zetapoly/lpoly.py",
        "_last_row((values[i - 1::-1] for i",
        "_last_row((values[i::-1] for i",
        (
            f"{LPOLY}::TestCoefficients::test_pinned_small",
            f"{LPOLY}::TestIntegerRoutes::test_routes_match_fraction_recurrence",
            f"{DEFECT2}::TestPrefixWalk::test_sums_equal_term_sums",
        ),
    ),
    Mutant(
        "recurrence-coefficients-not-reversed",
        "zetapoly/lpoly.py",
        "sum(map(mul, values[:i], reversed(coeffs)))",
        "sum(map(mul, values[:i], coeffs))",
        (
            f"{LPOLY}::TestIntegerRoutes::test_exact_recurrence_on_fraction_data_pinned",
            f"{LPOLY}::TestIntegerRoutes::test_routes_match_fraction_recurrence",
            f"{LPOLY}::TestOracle::test_recurrence_equals_product",
        ),
    ),
    Mutant(
        "tally-row-slice-start-off-by-one",
        "zetapoly/defect2.py",
        "_last_row(signs[i - 1::-1] for i",
        "_last_row(signs[i - 2::-1] for i",
        (
            f"{DEFECT2}::TestSignClassification::test_counts_match_classification",
            f"{DEFECT2}::TestPrefixWalk::test_tallies_equal_classification",
            f"{CLI}::TestDefect2Command::test_json_golden",
        ),
    ),
    Mutant(
        "weight-shape-skips-denominator",
        "zetapoly/defect2.py",
        "if stray.numerator or halves % denominator:",
        "if stray.numerator:",
        (f"{DEFECT2}::TestPairedWalk::test_malformed_weight_raises",),
    ),
    Mutant(
        "zero-weight-tallied",
        "zetapoly/defect2.py",
        "if g > 2 and not weight:",
        "if False:",
        (f"{DEFECT2}::TestPrefixWalk::test_zero_weight_raises_for_g_above_two",),
    ),
    Mutant(
        "tally-previous-delta-is-own",
        "zetapoly/defect2.py",
        "deltas[7:], deltas[6:]))",
        "deltas[7:], deltas[7:]))",
        (
            f"{CLI}::TestDefect2Command::test_rows_stop_at_24_golden",
            f"{CLI}::TestDefect2Command::test_json_golden",
        ),
    ),
    Mutant(
        "tally-growth-from-eight",
        "zetapoly/defect2.py",
        "[True] * 5 + list(map(gt, deltas[7:], deltas[6:]))",
        "[True] * 6 + list(map(gt, deltas[8:], deltas[7:]))",
        (
            f"{DEFECT2}::TestVerdictColumns::test_columns_follow_the_per_n_rules",
            f"{DEFECT2}::TestVerdictColumns::test_tally_fault_fails_its_rows",
        ),
    ),
    Mutant(
        "claim-weak-growth-strict",
        "zetapoly/defect2.py",
        "list(map(ge, sizes[1:], sizes))",
        "list(map(gt, sizes[1:], sizes))",
        (f"{DEFECT2}::TestVerdictColumns::test_columns_follow_the_per_n_rules",),
    ),
    Mutant(
        "agreement-fast-path-drops-last-n",
        "zetapoly/defect2.py",
        "if values == expected:",
        "if values[:-1] == expected[:-1]:",
        (f"{DEFECT2}::TestVerdictColumns::test_disagreement_at_the_last_n_raises",),
    ),
    Mutant(
        "recurrence-route-borrows-pass",
        "zetapoly/defect2.py",
        "coeffs_by_recurrence(",
        "coeffs_by_parapermanent(",
        (f"{ROUTES}::test_cross_checking_routes_share_only_the_allowlist",),
    ),
    Mutant(
        "row-division-drops-remainder",
        "zetapoly/parapermanent.py",
        "total = Fraction(total, divisor) if remainder else quotient",
        "total = quotient",
        (
            f"{PPER}::TestRowDenominator",
            f"{LPOLY}::TestIntegerRoutes::test_integrality_error_pinned",
        ),
    ),
    Mutant(
        "integer-check-passes-fractions",
        "zetapoly/lpoly.py",
        "if not isinstance(value, int):",
        "if isinstance(value, bool):",
        (
            f"{LPOLY}::TestIntegerRoutes::test_integrality_error_pinned",
            f"{LPOLY}::TestCoefficients::test_integrality_enforced",
        ),
    ),
    Mutant(
        "c-theta-class-4-weight",
        "zetapoly/defect2.py",
        "return QuadExt(-(g - 2))",
        "return QuadExt(-(g - 1))",
        (
            f"{DEFECT2}::TestCTheta::test_pinned_g5",
            f"{DEFECT2}::TestPrefixWalk::test_weights_are_the_branch_s_values",
            f"{DEFECT2}::TestPrefixWalk::test_wrong_weight_caught_by_recurrence",
            f"{DEFECT2}::TestAnalyze::test_report_genus_four",
        ),
    ),
    Mutant(
        "quadext-rsub-sign-flipped",
        "zetapoly/arith.py",
        "return QuadExt(other - self._rat, -self._irr)",
        "return QuadExt(self._rat - other, self._irr)",
        (f"{ARITH}::TestQuadExtRing::test_subtraction_with_scalars",),
    ),
    Mutant(
        "quad-component-not-converted",
        "zetapoly/arith.py",
        "rat if type(rat) is Fraction else Fraction(rat)",
        "rat",
        (
            f"{ARITH}::TestQuadExtComponents::test_components_are_exactly_fractions",
            f"{ARITH}::TestQuadExtComponents::test_weight_repr_pinned",
        ),
    ),
    Mutant(
        "s-values-drop-multiplicity",
        "zetapoly/lpoly.py",
        "weights = (plus + minus, plus - minus)",
        "weights = ((plus > 0) + (minus > 0), (plus > 0) - (minus > 0))",
        (
            f"{LPOLY}::TestInputs::test_s_matches_n",
            f"{LPOLY}::TestInputs::test_s_values_pair_signs_pinned",
            f"{LPOLY}::TestOracle::test_recurrence_equals_product",
            f"{DEFECT2}::TestPrefixWalk::test_weights_are_the_branch_s_values",
            f"{DEFECT2}::TestCoefficientRoutes::test_enumeration_equals_recurrence",
        ),
    ),
    Mutant(
        "s-values-pair-sign",
        "zetapoly/lpoly.py",
        "weights = (plus + minus, plus - minus)",
        "weights = (plus + minus, plus + minus)",
        (
            f"{LPOLY}::TestInputs::test_s_values_pair_signs_pinned",
            f"{LPOLY}::TestInputs::test_s_values_equal_per_trace_loop",
            f"{LPOLY}::TestOracle::test_recurrence_equals_product",
            f"{DEFECT2}::TestPrefixWalk::test_weights_are_the_branch_s_values",
        ),
    ),
    Mutant(
        "oracle-half-bound",
        "zetapoly/lpoly.py",
        "for i in range(min(2 * k, g), 1, -1):",
        "for i in range(min(2 * k, g - 1), 1, -1):",
        (
            f"{LPOLY}::TestOracle::test_pinned_product",
            f"{LPOLY}::TestOracle::test_equals_untruncated_product",
            f"{LPOLY}::TestOracle::test_recurrence_equals_product",
        ),
    ),
    Mutant(
        "branch-coeffs-sign-flipped",
        "zetapoly/defect2.py",
        "k, f1 = g - 1, -theta.trace_value",
        "k, f1 = g - 1, theta.trace_value",
        (
            f"{DEFECT2}::TestClosedForm::test_equals_trace_route",
            f"{DEFECT2}::TestSymmetry::test_holds",
        ),
    ),
    Mutant(
        "branch-coeffs-power-index-shifted",
        "zetapoly/defect2.py",
        "((k + 1 - n) * f1 * p[-1]",
        "((k - n) * f1 * p[-1]",
        (f"{DEFECT2}::TestClosedForm::test_equals_trace_route",),
    ),
    Mutant(
        "defect2-refusal-one-row-short",
        "zetapoly/cli.py",
        "defect2._branch_coeffs(max_n, g, ",
        "defect2._branch_coeffs(max_n - 1, g, ",
        (f"{CLI}::TestOutputLimits::test_defect2_refusal_is_exact",),
    ),
    Mutant(
        "walk-drops-folded-leaf",
        "zetapoly/parapermanent.py",
        "top += term * leaf + product * top_key",
        "top += product * top_key",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-top-key-wrong-slot",
        "zetapoly/parapermanent.py",
        "row[-4], row[-3], row[-2], row[-1])",
        "row[-4], row[-3], row[-2], row[-2])",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
        ),
    ),
    Mutant(
        "walk-drops-second-level-top-term",
        "zetapoly/parapermanent.py",
        "top += child * leaf + term * outer",
        "top += child * leaf",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-top-drops-second-level-term",
        "zetapoly/parapermanent.py",
        "+ low * outer + product * middle_key * leaf\n",
        "+ product * middle_key * leaf\n",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
        ),
    ),
    Mutant(
        "walk-top-leaf-wrong-key",
        "zetapoly/parapermanent.py",
        "product * middle_key * leaf",
        "product * middle_key * inner",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
        ),
    ),
    Mutant(
        "walk-top-small-orders-too-few",
        "zetapoly/parapermanent.py",
        "if n < 4:\n        return _walk(n, keys)[n]",
        "if n < 3:\n        return _walk(n, keys)[n]",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestSmallOrders::test_order_two",
        ),
    ),
    Mutant(
        "walk-drops-third-level-top-term",
        "zetapoly/parapermanent.py",
        "+ side * leaf + term * far\n",
        "+ side * leaf\n",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-drops-third-level-term",
        "zetapoly/parapermanent.py",
        "middle += grand + side\n",
        "middle += side\n",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-top-third-level-key-wrong-slot",
        "zetapoly/parapermanent.py",
        "deep = product * deep_key",
        "deep = product * low_key",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
        ),
    ),
    Mutant(
        "walk-top-drops-third-level-terms",
        "zetapoly/parapermanent.py",
        "top += child * inner * leaf + child * outer",
        "top += child * outer",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestOperationScaling::test_walk_over_integers_with_zero_and_negative_keys",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
        ),
    ),
    Mutant(
        "column-scale-squared",
        "zetapoly/parapermanent.py",
        "entry.numerator * (c // entry.denominator) for",
        "entry.numerator * (c // entry.denominator) * c for",
        (
            f"{PPER}::TestRationalTables",
            f"{LPOLY}::TestCoefficients::test_literal_matrix_matches",
        ),
    ),
    Mutant(
        "readout-one-column-short",
        "zetapoly/parapermanent.py",
        "math.prod(scales)",
        "math.prod(scales[:-1])",
        (
            f"{PPER}::TestRationalTables::test_column_scaled_path_matches_fraction_recurrence",
            f"{PPER}::TestRationalTables::test_evaluators_agree_on_large_distinct_denominators",
            f"{LPOLY}::TestCoefficients::test_literal_matrix_matches",
            f"{CLI}::TestPperCommand::test_golden_formats",
        ),
    ),
    Mutant(
        "readout-skips-first-column",
        "zetapoly/parapermanent.py",
        "math.prod(scales)",
        "math.prod(scales[1:])",
        (
            f"{PPER}::TestRationalTables::test_column_lcm_divides_the_table_lcm",
            f"{PPER}::TestRationalTables::test_readings_for_a_budget",
            f"{CLI}::TestPperCommand::test_golden_formats",
            f"{CLI}::TestPperCommand::test_reads_table",
        ),
    ),
    Mutant(
        "row-lcm-for-column-lcm",
        "zetapoly/parapermanent.py",
        "[[row[k].denominator for row in rows[k:]] for k in",
        "[[entry.denominator for entry in rows[k]] for k in",
        (
            f"{PPER}::TestRationalTables::test_scaled_table_is_integer",
            f"{PPER}::TestRationalTables::test_column_lcm_divides_the_table_lcm",
            f"{PPER}::TestRationalTables::test_evaluators_match_fraction_recurrence",
        ),
    ),
    Mutant(
        "scale-columns-lcm-from-generator",
        "zetapoly/parapermanent.py",
        "math.lcm(*column)",
        "math.lcm(*(d for d in column))",
        (f"{PPER}::TestNoResizedTuples::test_repeated_calls_keep_no_traced_memory[scale_columns]",),
    ),
    Mutant(
        "pper-cap-after-parse",
        "zetapoly/cli.py",
        _PPER_CAP + _PPER_ENTRY_LOOP,
        _PPER_ENTRY_LOOP + _PPER_CAP,
        (f"{CLI}::TestPperCommand::test_order_bound_refused_up_front",),
    ),
    Mutant(
        "range-check-excludes-g",
        "zetapoly/defect2.py",
        "if not 1 <= n <= g:",
        "if not 1 <= n < g:",
        (
            f"{DEFECT2}::TestPastTwentyFour::test_coefficients_at_one_hundred",
            f"{DEFECT2}::TestSymmetry::test_holds",
            f"{DEFECT2}::TestListApis::test_coefficients_equal_per_n_calls",
        ),
    ),
    Mutant(
        "all-runs-walk-past-budget",
        "zetapoly/cli.py",
        "\n        or _walk_seconds(s.g, lpoly._composition_walk_bits(s)) > _MAX_PPER_SECONDS\n",
        "\n",
        (
            f"{CLI}::TestLPolyCommand::test_all_skips_walk_past_budget",
            f"{CLI}::TestArgvFuzz::test_exit_codes_and_time",
        ),
    ),
    Mutant(
        "walk-skips-root-multiplications",
        "zetapoly/parapermanent.py",
        "in pushed:\n            term = product * key\n",
        "in pushed:\n            term = product * key if prefix else key\n",
        (
            f"{PPER}::TestOperationScaling::test_composition_sum_is_exponential",
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
        ),
    ),
    Mutant(
        "walk-root-product-two",
        "zetapoly/parapermanent.py",
        "sums = [1] + [0] * n\n    stack = [(0, 1)]",
        "sums = [1] + [0] * n\n    stack = [(0, 2)]",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-top-root-product-two",
        "zetapoly/parapermanent.py",
        "top = 0\n    stack = [(0, 1)]",
        "top = 0\n    stack = [(0, 2)]",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
            f"{CLI}::TestPperCommand::test_golden_formats",
        ),
    ),
    Mutant(
        "walk-folded-total-starts-at-one",
        "zetapoly/parapermanent.py",
        "deep = low = middle = top = 0",
        "deep = low = top = 0\n    middle = 1",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestGenericEvaluators::test_composition_sums_match_definition",
            f"{LPOLY}::TestCoefficients::test_three_methods_agree",
        ),
    ),
    Mutant(
        "walk-top-total-starts-at-one",
        "zetapoly/parapermanent.py",
        "top = 0\n    stack = [(0, 1)]",
        "top = 1\n    stack = [(0, 1)]",
        (
            f"{PPER}::TestOperationScaling::test_walk_forms_each_term_once",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
            f"{CLI}::TestPperCommand::test_golden_formats",
        ),
    ),
    Mutant(
        "last-row-drops-first-product",
        "zetapoly/parapermanent.py",
        "total = sum(map(mul, row, prefixes))",
        "total = sum(map(mul, row[1:], prefixes[1:]))",
        (
            f"{PPER}::TestGenericEvaluators::test_prefixes_against_matrix",
            f"{PPER}::TestEvaluatorAgreement::test_orders_up_to_ten",
            f"{LPOLY}::TestCoefficients::test_pinned_small",
            f"{DEFECT2}::TestPrefixWalk::test_sums_equal_term_sums",
        ),
    ),
    Mutant(
        "scaled-table-read-out-twice",
        "zetapoly/parapermanent.py",
        "return value if scaled is matrix else scaled.read_out(value)",
        "return scaled.read_out(value)",
        (
            f"{RECORDS}::test_scaled_table_twins_evaluate_equal",
            f"{CLI}::TestPperCommand::test_golden_formats",
        ),
    ),
    Mutant(
        "walk-bound-off-by-one",
        "zetapoly/cli.py",
        "and field.g > _MAX_WALK_ORDER:",
        "and field.g > _MAX_WALK_ORDER + 1:",
        (f"{CLI}::TestLPolyCommand::test_composition_method_bounded_by_walk_order",),
    ),
    Mutant(
        "walk-estimate-largest-denominator-only",
        "zetapoly/parapermanent.py",
        "check(sum(c.bit_length() for c in scales) + numerator_bits)",
        "check(sum(max(column).bit_length() for column in columns) + numerator_bits)",
        (
            f"{PPER}::TestRationalTables::test_readings_for_a_budget",
            f"{CLI}::TestPperCommand::test_work_budget_refuses_large_denominators",
        ),
    ),
    Mutant(
        "exact-reading-drops-column-bits",
        "zetapoly/parapermanent.py",
        "check(sum(c.bit_length() for c in scales) + numerator_bits)",
        "check(numerator_bits)",
        (
            f"{PPER}::TestRationalTables::test_readings_for_a_budget",
            f"{CLI}::TestPperCommand::test_work_budget_refuses_large_denominators",
        ),
    ),
    Mutant(
        "walk-bits-floor-per-unit",
        "zetapoly/lpoly.py",
        "(-(-abs(value).bit_length() // m) for m",
        "(abs(value).bit_length() // m for m",
        (f"{CLI}::TestLPolyCommand::test_composition_walk_bits_bound_the_products",),
    ),
    Mutant(
        "route-check-compares-value-to-itself",
        "zetapoly/cli.py",
        "if value != expected:",
        "if value != value:",
        (
            f"{CLI}::TestLPolyCommand::test_route_disagreement_pinned",
            f"{CLI}::TestClassNumberCommand::test_wrong_recurrence_caught_by_direct_formula",
            f"{CLI}::TestClassNumberCommand::test_consistency_failure_exit_code",
        ),
    ),
    Mutant(
        "json-bool-false-rendered-true",
        "zetapoly/cli.py",
        'return "false"',
        'return "true"',
        (f"{CLI}::TestDefect2Command::test_failed_tally_verdict_renders_false",),
    ),
    Mutant(
        "unprintable-bound-exclusive",
        "zetapoly/cli.py",
        "abs(value) >= 10**limit",
        "abs(value) > 10**limit",
        (f"{CLI}::TestOutputLimits::test_trace_output_refusal_boundary",),
    ),
    Mutant(
        "closed-pipe-not-handled",
        "zetapoly/cli.py",
        "except BrokenPipeError:",
        "except ArithmeticError:",
        (f"{CLI}::TestDispatch::test_closed_pipe_exits_quietly",),
    ),
    Mutant(
        "complete-genus-off-by-one",
        "zetapoly/lpoly.py",
        "return len(self.coeffs) // 2",
        "return len(self.coeffs) // 2 + 1",
        (
            f"{LPOLY}::TestLPolynomial::test_complete",
            f"{LPOLY}::TestLPolynomial::test_complete_small_genus",
        ),
    ),
    Mutant(
        "record-eq-ignores-class",
        "zetapoly/errors.py",
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, _Frozen):",
        (
            f"{RECORDS}::TestRecord::test_equal_within_one_class_only",
            f"{RECORDS}::test_records_of_different_classes_are_unequal",
        ),
    ),
    Mutant(
        "record-last-field-left-out",
        "zetapoly/errors.py",
        "for name in self.__match_args__])",
        "for name in self.__match_args__[:-1]])",
        (
            f"{RECORDS}::TestRecord::test_every_field_takes_part_in_equality",
            f"{RECORDS}::TestRecord::test_hash_is_the_field_tuple",
        ),
    ),
    Mutant(
        "record-assignment-allowed",
        "zetapoly/errors.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (f"{RECORDS}::TestRecord::test_frozen",),
    ),
)


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    # (exit code, last summary line) of pytest over the tests, importing
    # zetapoly from src
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def _apply(copy: Path, mutant: Mutant) -> bool:
    # the replacement in the copy; False unless the old string occurs once
    target = copy / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return False
    target.write_text(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    names = [mutant.name for mutant in MUTANTS]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        print(f"mutant names used more than once: {', '.join(shared)}")
        return 1
    ok = True
    with tempfile.TemporaryDirectory(prefix="zetapoly-mutants-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        code, summary = _pytest(copy, tests)
        if code != 0:
            print(f"unmutated source fails its tests: {summary}")
            return 1
        for mutant in MUTANTS:
            shutil.rmtree(copy)
            shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
            if not _apply(copy, mutant):
                print(f"STALE     {mutant.name}: replacement string not found exactly once")
                ok = False
                continue
            code, summary = _pytest(copy, mutant.tests)
            if code == 1:  # pytest ran the tests and some failed
                print(f"killed    {mutant.name}: {summary}")
            elif code == 0:
                print(f"SURVIVED  {mutant.name}: {summary}")
                ok = False
            else:
                print(f"ERROR     {mutant.name}: pytest exit {code}: {summary}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
