"""Value semantics of the package's ten record classes.

Each record is immutable, equal only to a record of the same class with
equal fields, hashed as the tuple of its fields and shown as
Name(field=value, ...).  The reprs, hashes and messages below are pinned
to the frozen-record behaviour the classes have always had.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from zetapoly import (
    Composition,
    Defect2Report,
    LPolynomial,
    SignReport,
    SSequence,
    TraceData,
    TriangularMatrix,
    analyze,
    pper_by_last_row,
    verify_theorem_signs,
)
from zetapoly.defect2 import ReportRow, Theta, ThetaCell
from zetapoly.parapermanent import ScaledTable, scale_columns

_ROW = ReportRow(1, {Theta.PI_4: ThetaCell(-1, 0, 1)}, None, None, "vacuous")

# (record, its field names in order, its repr, records that differ from it
# in one field where the validation allows it)
RECORDS = [
    (
        Composition((1, 2)),
        ("parts",),
        "Composition(parts=(1, 2))",
        [Composition((2, 1))],
    ),
    (
        TriangularMatrix([[1], [2, 3]]),
        ("rows",),
        "TriangularMatrix(rows=((1,), (2, 3)))",
        [TriangularMatrix([[1], [2, 4]])],
    ),
    (
        ScaledTable([[1], [2, 3]], 6),
        ("rows", "readout"),
        "ScaledTable(rows=((1,), (2, 3)), readout=6)",
        [ScaledTable([[1], [2, 4]], 6), ScaledTable([[1], [2, 3]], 5)],
    ),
    (
        SSequence(q=2, s=(1, 2)),
        ("q", "s"),
        "SSequence(q=2, s=(1, 2))",
        [SSequence(3, (1, 2)), SSequence(2, (1, 3))],
    ),
    (
        TraceData(4, [1, -2]),
        ("q", "traces"),
        "TraceData(q=4, traces=(1, -2))",
        [TraceData(5, (1, -2)), TraceData(4, (1, 2))],
    ),
    (
        LPolynomial(2, (1, 0, 2)),
        ("q", "coeffs"),
        "LPolynomial(q=2, coeffs=(1, 0, 2))",
        [LPolynomial(3, (1, 0, 3)), LPolynomial(2, (1, 1, 2)), LPolynomial(2, (1,))],
    ),
    (
        SignReport(1, "vacuous", {Theta.PI_4: (1,)}, {}, {}, {}),
        ("g", "mode", "a", "sign_ok", "growth_weak", "growth_strict"),
        "SignReport(g=1, mode='vacuous', a={<Theta.PI_4: 'pi4'>: (1,)}, sign_ok={}, "
        "growth_weak={}, growth_strict={})",
        None,
    ),
    (
        ThetaCell(a=1, p_plus=None, p_minus=2),
        ("a", "p_plus", "p_minus"),
        "ThetaCell(a=1, p_plus=None, p_minus=2)",
        None,
    ),
    (
        _ROW,
        ("n", "cells", "symmetry_ok", "tally_ok", "theorem_ok"),
        "ReportRow(n=1, cells={<Theta.PI_4: 'pi4'>: ThetaCell(a=-1, p_plus=0, p_minus=1)}, "
        "symmetry_ok=None, tally_ok=None, theorem_ok='vacuous')",
        None,
    ),
    (
        Defect2Report(
            g=1,
            max_n=1,
            thetas=(Theta.PI_4,),
            theorem_mode="vacuous",
            rows=(_ROW,),
            oracle_match={Theta.PI_4: True},
            recurrence_match={Theta.PI_4: True},
        ),
        ("g", "max_n", "thetas", "theorem_mode", "rows", "oracle_match", "recurrence_match"),
        "Defect2Report(g=1, max_n=1, thetas=(<Theta.PI_4: 'pi4'>,), theorem_mode='vacuous', "
        "rows=(ReportRow(n=1, cells={<Theta.PI_4: 'pi4'>: ThetaCell(a=-1, p_plus=0, p_minus=1)}, "
        "symmetry_ok=None, tally_ok=None, theorem_ok='vacuous'),), "
        "oracle_match={<Theta.PI_4: 'pi4'>: True}, recurrence_match={<Theta.PI_4: 'pi4'>: True})",
        None,
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def _one_field_changed(record, fields, variants):
    # the given variants, or (for the unvalidated classes) one record per
    # field with that field replaced by a fresh object
    if variants is not None:
        return variants
    values = _values(record, fields)
    return [
        type(record)(*values[:k], object(), *values[k + 1:]) for k in range(len(fields))
    ]


@pytest.mark.parametrize("record, fields, shown, variants", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, record, fields, shown, variants):
        assert repr(record) == shown

    def test_built_positionally_and_by_keyword(self, record, fields, shown, variants):
        values = _values(record, fields)
        cls = type(record)
        assert cls.__match_args__ == fields
        assert cls(*values) == record
        assert cls(**dict(zip(fields, values))) == record
        with pytest.raises(TypeError):
            cls(*values, None)

    def test_equal_within_one_class_only(self, record, fields, shown, variants):
        cls = type(record)
        values = _values(record, fields)
        same = cls(*values)
        assert same == record and not same != record
        subclass_record = type("Sub", (cls,), {})(*values)
        assert record.__eq__(subclass_record) is NotImplemented
        assert record != subclass_record
        assert record != values

    def test_every_field_takes_part_in_equality(self, record, fields, shown, variants):
        for other in _one_field_changed(record, fields, variants):
            assert other != record

    def test_hash_is_the_field_tuple(self, record, fields, shown, variants):
        values = _values(record, fields)
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        else:
            assert hash(record) == expected

    def test_frozen(self, record, fields, shown, variants):
        values = _values(record, fields)
        for name in fields + ("extra",):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert _values(record, fields) == values
        assert repr(record) == shown

    def test_pickle_and_copies_round_trip(self, record, fields, shown, variants):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is type(record)
            assert twin == record
            assert repr(twin) == shown


def test_hash_ignores_the_input_sequence_type():
    assert hash(SSequence(2, (1, 2))) == hash(SSequence(2, [1, 2]))
    assert SSequence(2, (1, 2)) == SSequence(2, [1, 2])


def test_records_of_different_classes_are_unequal():
    assert SSequence(2, (1,)) != TraceData(2, (1,))
    assert SSequence(2, (1,)).__eq__(TraceData(2, (1,))) is NotImplemented


def test_computed_reports_round_trip():
    for report in (analyze(6), verify_theorem_signs(4)):
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.deepcopy(report) == report


def test_scaled_table_twins_evaluate_equal():
    # a twin restores the factorial products with the rest of __dict__
    matrix = TriangularMatrix([[Fraction(1, 2)], [Fraction(2, 3), Fraction(3, 4)]])
    table = scale_columns(matrix)
    value = pper_by_last_row(table)
    assert table.read_out(value) == pper_by_last_row(matrix)
    for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert twin == table
        assert pper_by_last_row(twin) == value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Composition((0,)), "parts must be positive integers, got (0,)"),
        (lambda: Composition([1, True]), "parts must be positive integers, got (1, True)"),
        (lambda: TriangularMatrix([[1, 2]]), "row 1 must have 1 entries, got 2"),
        (lambda: SSequence(1, ()), "q must be an integer >= 2, got 1"),
        (lambda: SSequence("2", (1,)), "q must be an integer >= 2, got '2'"),
        (lambda: SSequence(2, (1, 1.0)), "S_2 must be an integer, got 1.0"),
        (lambda: TraceData(1, (0,)), "q must be an integer >= 2, got 1"),
        (lambda: TraceData(2, ("a",)), "trace 1 must be an integer, got 'a'"),
        (lambda: TraceData(2, (0, 3)), "trace 2 violates t^2 <= 4q: t=3, q=2"),
        (lambda: LPolynomial(1, (1,)), "q must be an integer >= 2, got 1"),
        (lambda: LPolynomial(2, ()), "need 2g + 1 coefficients a_0..a_2g, got 0"),
        (lambda: LPolynomial(2, (1, 0)), "need 2g + 1 coefficients a_0..a_2g, got 2"),
        (lambda: LPolynomial(2, (1, 0.5, 2)), "a_1 must be an integer, got 0.5"),
        (lambda: LPolynomial(2, (2, 0, 4)), "a_0 must be 1, got 2"),
        (
            lambda: LPolynomial(2, (1, 1, 1, 1, 1)),
            "functional equation broken at i=0: a_4=1, q^(g-i)*a_0=4",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
