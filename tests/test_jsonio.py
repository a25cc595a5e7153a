"""Round-trip serialization for every public object kind."""

import dataclasses
import functools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit import (
    BapFailureWitness,
    BasisCriterionReport,
    CustomLevel,
    CustomSeminorms,
    FiniteRankOperator,
    InputError,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    ReconstructionReport,
    RhoTable,
    SingleBox,
    SupPartialSumSeminorms,
    TripleBox,
    TruncatedVector,
    VogtInstance,
    VogtSeminorms,
    bap_failure_witness,
    basis_criterion_check,
    basis_sup_norms,
    build_schedule,
    certify_equicontinuity,
    comparison_inequality_check,
    element_from_components,
    injective_extension_test,
    norm_positivity_check,
    nuclearity_certificate,
    rank_one_split,
    vector_from_dense,
    verify_reconstruction,
    witness_evidence,
)
from bapkit import cli, jsonio
from bapkit.errors import BapkitError, DegenerateInputError, DomainError, LevelError, ModeError
from test_golden import GOLDEN, THIRD_TABLE, _config
from test_hygiene import is_record

F = Fraction


def dumps(obj):
    """Canonical text of obj, as `bapkit run` writes a document."""
    return json.dumps(jsonio.encode(obj), sort_keys=True, indent=2)


def roundtrip(obj):
    return jsonio.decode(json.loads(dumps(obj)))


def replace(record, **changes):
    """record rebuilt through its constructor with changes, as dataclasses.replace rebuilt one."""
    cls = type(record)
    return cls(**{**{name: getattr(record, name) for name in cls.__match_args__}, **changes})


def test_boxes_and_vectors():
    box = TripleBox(3, 2, 2)
    assert roundtrip(box) == box
    assert roundtrip(SingleBox(5)) == SingleBox(5)
    v = TruncatedVector.create(box, "rational", {(1, 2, 1): F(3, 7), (2, 1, 2): -2})
    assert roundtrip(v) == v


def test_float_entries_survive_exactly():
    v = vector_from_dense(SingleBox(3), "float", [0.1, -2.5, 0.0])
    assert roundtrip(v) == v


def test_rho_tables():
    assert roundtrip(RhoTable.dyadic()) == RhoTable.dyadic()
    table = RhoTable.from_grid({(1, 1): F(1, 2), (2, 1): F(1, 4)})
    assert roundtrip(table) == table


def test_seminorm_systems():
    vogt = VogtSeminorms(RhoTable.dyadic(), TripleBox(3, 2, 3), "rational", 3)
    assert roundtrip(vogt) == vogt
    koethe = KoetheSeminorms(((1, 2), (3, 4)), SingleBox(2), "rational")
    assert roundtrip(koethe) == koethe
    prefix = MaxPrefixSeminorms(SingleBox(4), "rational", 4)
    assert roundtrip(prefix) == prefix
    custom = CustomSeminorms(
        (CustomLevel((((1, F(1)), (2, F(-1))),), "sum"),), SingleBox(2), "rational"
    )
    assert roundtrip(custom) == custom


def test_sup_partial_system_roundtrip():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box, "rational")
    ops = [
        FiniteRankOperator.from_matrix(box, "rational", [[1, 0], [1, 0]], "a1"),
        FiniteRankOperator.from_matrix(box, "rational", [[0, 0], [-1, 1]], "a2"),
    ]
    sup = SupPartialSumSeminorms(base, ops)
    assert roundtrip(sup) == sup
    decoded = roundtrip(sup)
    y = vector_from_dense(box, "rational", [F(1), F(0)])
    assert decoded.value(1, y) == sup.value(1, y)


def test_operator_roundtrip_keeps_the_pivot_columns():
    box = SingleBox(2)
    op = FiniteRankOperator.from_matrix(box, "rational", [[1, 1], [0, 2]], "a")
    assert roundtrip(op) == op
    # an operator built on its columns derives the same pivots and round-trips with them
    direct = FiniteRankOperator(box, "rational", op.columns[:1] * 2, "b")
    assert direct.rank == 1
    decoded = roundtrip(direct)
    assert decoded == direct and decoded.range_basis == direct.range_basis


def test_operator_decoding_rejects_a_basis_other_than_the_pivot_columns():
    box = SingleBox(2)
    op = FiniteRankOperator.from_matrix(box, "rational", [[1, 1], [0, 2]], "a")
    # the same plane, spanned by the unit vectors and by the pivots in reverse order
    units = [vector_from_dense(box, "rational", row) for row in ([1, 0], [0, 1])]
    for basis in (units, op.range_basis[::-1]):
        data = {**jsonio.encode(op), "range_basis": [jsonio.encode(v) for v in basis]}
        with pytest.raises(InputError):
            jsonio.decode(data)


def test_schedule_and_derived_objects():
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1),), box, "rational")
    a = FiniteRankOperator.from_matrix(box, "rational", [[1, 1], [0, 2]], "a")
    schedule = build_schedule([a], system, rng=random.Random(0), prefix_samples=5)
    assert roundtrip(schedule) == schedule
    assert roundtrip(schedule.splits[0]) == schedule.splits[0]
    assert roundtrip(schedule.splits[0].decomposition) == schedule.splits[0].decomposition
    y = element_from_components(schedule, [1, 2, 3, 4, 5, 6])
    assert roundtrip(y) == y


def _schedule_data(mode="rational"):
    """The six-slot schedule of [[1, 1], [0, 2]]: two pieces, on the lines (1, 0) and (1, 2),
    each replicated three times."""
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1),), box, mode)
    a = FiniteRankOperator.from_matrix(box, mode, [[1, 1], [0, 2]], "a")
    return jsonio.encode(build_schedule([a], system, rng=random.Random(0), prefix_samples=5))


def _misplace(data, field, op, vec, split):
    """Replace the last part of a schedule record's field by op, by vec for a generator, or by
    split, whose parts live on its source's box and mode, for a split."""
    data[field][-1] = {"generators": vec, "splits": split}.get(field, op)


@pytest.mark.parametrize("kind, error", [("box", DomainError), ("mode", ModeError)])
@pytest.mark.parametrize("field", ["generators", "operators", "source_family", "splits"])
def test_a_schedule_record_with_a_part_on_another_box_or_mode_is_refused(field, kind, error):
    box, mode = (SingleBox(3), "rational") if kind == "box" else (SingleBox(2), "float")
    identity = FiniteRankOperator.identity(box, mode)
    op = jsonio.encode(identity)
    vec = jsonio.encode(vector_from_dense(box, mode, [1] + [0] * (box.d - 1)))
    split = jsonio.encode(rank_one_split(identity, KoetheSeminorms(((1,) * box.d,), box, mode)))
    data = _schedule_data()
    _misplace(data, field, op, vec, split)
    with pytest.raises(error) as info:
        jsonio.decode(data)
    assert type(info.value) is error


def test_a_schedule_record_on_another_box_and_mode_than_its_parts_is_refused():
    # a rational schedule on a d = 2 box, declared float on a d = 3 box: the boxes differ first
    data = {**_schedule_data(), "box": {"kind": "single-box", "d": 3}, "mode": "float"}
    with pytest.raises(DomainError):
        jsonio.decode(data)
    with pytest.raises(ModeError):
        jsonio.decode({**_schedule_data(), "mode": "complex"})


# a schedule record's fields with one entry per slot, each with the schedule field that it
# decodes into: a record writes a slot's functional as its operator
SLOT_FIELDS = {"operators": "functionals", "generators": "generators", "block_structure": "block_structure"}


@pytest.mark.parametrize("field", sorted(SLOT_FIELDS))
def test_a_schedule_with_one_slot_field_short_is_refused(field):
    # a record short of its last generator decoded and then failed the basis criterion with a
    # bare IndexError; one short of its last operator decoded as a five-slot schedule, and one
    # short of its last block entry decoded silently
    data = _schedule_data()
    schedule = jsonio.decode(data)
    assert len(schedule) == 6
    attr = SLOT_FIELDS[field]
    with pytest.raises(InputError, match="as many"):
        replace(schedule, **{attr: getattr(schedule, attr)[:-1]})
    with pytest.raises(InputError, match="as many"):
        jsonio.decode({**data, field: data[field][:-1]})


def test_a_schedule_record_with_swapped_generators_is_refused():
    # each operator stays on its own line while its generator names the other piece's line
    data = _schedule_data()
    first, second = data["generators"][:2]
    with pytest.raises(InputError, match="'schedule:p1:i1' is not schedule:p1:i1 = g"):
        jsonio.decode({**data, "generators": [second, first] * 3})


def test_a_float_schedule_record_with_a_generator_tilted_by_1e_9_is_refused():
    data = _schedule_data("float")
    assert jsonio.encode(jsonio.decode(data)) == data
    # tilt the second slot's generator (1, 2) off its operator's line by 1e-9
    (_, lead), (index, second) = data["generators"][1]["entries"]
    tilted = {**data["generators"][1], "entries": [[1, lead], [index, second + 1e-9]]}
    generators = [data["generators"][0], tilted, *data["generators"][2:]]
    with pytest.raises(InputError, match="'schedule:p1:i2' is not schedule:p1:i2 = g"):
        jsonio.decode({**data, "generators": generators})


def test_a_schedule_record_with_a_slot_operator_under_another_label_is_refused():
    # encoding labels every slot by its place, so a record under another label would not
    # decode to itself
    data = _schedule_data()
    relabelled = {**data["operators"][0], "label": "a:piece1"}
    with pytest.raises(InputError, match="'a:piece1' is not schedule:p1:i1 = g"):
        jsonio.decode({**data, "operators": [relabelled, *data["operators"][1:]]})


def test_a_schedule_record_with_a_zero_generator_is_refused():
    # a zero generator has no lead index to read a functional at
    data = _schedule_data()
    zero = {**data["generators"][0], "entries": []}
    with pytest.raises(InputError, match="as many nonzero generators"):
        jsonio.decode({**data, "generators": [zero, *data["generators"][1:]]})


def test_report_roundtrips():
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    family = []
    for p in range(3):
        rows = [[1 if (i == j == p) else 0 for j in range(3)] for i in range(3)]
        family.append(FiniteRankOperator.from_matrix(box, "rational", rows, f"c{p + 1}"))
    schedule = build_schedule(family, system, rng=random.Random(0), prefix_samples=5)
    cert = certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=5)
    assert roundtrip(cert) == cert
    rec = verify_reconstruction(system, schedule, rng=random.Random(2), sample_count=3)
    assert roundtrip(rec) == rec
    bas = basis_criterion_check(system, schedule, rng=random.Random(3), sample_count=5)
    assert roundtrip(bas) == bas


def test_witness_and_diagnostic_roundtrips():
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), "rational", 4)
    assert roundtrip(inst) == inst
    witness = bap_failure_witness(inst)
    assert roundtrip(witness) == witness
    assert roundtrip(witness.cauchy) == witness.cauchy
    assert roundtrip(witness.floor) == witness.floor
    assert roundtrip(witness.decay_form) == witness.decay_form
    ev = witness_evidence(witness)
    assert roundtrip(ev) == ev
    verdict = injective_extension_test(
        inst.system(), witness.cauchy, 1, witness.decay_form, witness.floor
    )
    assert roundtrip(verdict) == verdict
    assert roundtrip(verdict).violated


def test_vogt_report_roundtrips():
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(4, 2, 3), "rational", 3)
    rep = comparison_inequality_check(inst, rng=random.Random(0), sample_count=5)
    assert roundtrip(rep) == rep
    cert = nuclearity_certificate(inst, 1)
    assert roundtrip(cert) == cert
    pos = norm_positivity_check(inst)
    assert roundtrip(pos) == pos


def test_normed_basis_report_roundtrip():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box, "rational")
    a1 = FiniteRankOperator.from_matrix(box, "rational", [[1, 0], [1, 0]], "a1")
    a2 = FiniteRankOperator.from_matrix(box, "rational", [[0, 0], [-1, 1]], "a2")
    report = basis_sup_norms(base, [a1, a2], rng=random.Random(0), sample_count=5)
    assert roundtrip(report) == report


def test_dumps_is_deterministic_and_sorted():
    v = TruncatedVector.create(SingleBox(3), "rational", {2: F(1, 3), 1: 4})
    text = dumps(v)
    assert text == dumps(roundtrip(v))
    data = json.loads(text)
    assert list(data) == sorted(data)


def test_fraction_encoding_shape():
    data = jsonio.encode(TruncatedVector.create(SingleBox(1), "rational", {1: F(2, 3)}))
    assert data["entries"] == [[1, {"num": 2, "den": 3}]]


def test_decode_error_paths():
    with pytest.raises(InputError):
        jsonio.decode({"kind": "wavelet"})
    with pytest.raises(InputError):
        jsonio.decode(["not", "a", "dict"])
    with pytest.raises(InputError):
        jsonio.decode({"no": "kind"})
    # a missing field is reported as such, not as an unknown kind
    with pytest.raises(InputError, match="missing field"):
        jsonio.decode({"kind": "single-box"})


def test_encode_rejects_unknown_objects():
    with pytest.raises(InputError):
        jsonio.encode(object())


def _vogt_instance_data(**fields):
    data = {
        "kind": "vogt-instance",
        "rho": {"kind": "rho", "table_kind": "dyadic", "values": [], "mu_limit": 0, "nu_limit": 0},
        "box": {"kind": "triple-box", "n_max": 3, "mu_max": 2, "nu_max": 2},
        "mode": "rational",
        "level_count": 3,
    }
    data.update(fields)
    return data


def _table(values, mu_limit=1, nu_limit=1):
    return {
        "kind": "rho",
        "table_kind": "table",
        "values": values,
        "mu_limit": mu_limit,
        "nu_limit": nu_limit,
    }


def _vector_data(entries, mode="rational"):
    return {"kind": "vector", "box": {"kind": "single-box", "d": 2}, "mode": mode, "entries": entries}


def _operator_data(matrix, basis_box=None, basis_mode="rational"):
    """A rational operator record on a d = 2 box with one declared range basis vector."""
    basis = _vector_data([[1, 1]], mode=basis_mode)
    if basis_box is not None:
        basis["box"] = basis_box
    return {
        "kind": "operator",
        "box": {"kind": "single-box", "d": 2},
        "mode": "rational",
        "matrix": matrix,
        "range_basis": [basis],
        "label": "a",
    }


def _custom_data(levels):
    return {
        "kind": "custom-system",
        "levels": levels,
        "box": {"kind": "single-box", "d": 2},
        "mode": "rational",
    }


MAX_PREFIX_DATA = jsonio.encode(MaxPrefixSeminorms(SingleBox(2), "rational", 2))
VOGT_SYSTEM_DATA = jsonio.encode(VogtSeminorms(RhoTable.dyadic(), TripleBox(2, 1, 1), "rational", 2))

MALFORMED = [
    ("null-required-object", _vogt_instance_data(rho=None), InputError),
    ("null-nested-box", _vogt_instance_data(box=None), InputError),
    ("junk-optional-object", {"kind": "cauchy-family", "level": 1, "vectors": [],
                              "modulus": [], "modulus_form": 5}, InputError),
    ("string-scalar", {"kind": "geometric-form", "scale": "x", "ratio": 1, "shift": 0}, InputError),
    ("null-scalar", {"kind": "floor-certificate", "level": 1, "bound": None}, InputError),
    ("nan-scalar", {"kind": "floor-certificate", "level": 1, "bound": float("nan")}, InputError),
    ("infinity-scalar", {"kind": "floor-certificate", "level": 1, "bound": float("inf")},
     InputError),
    ("minus-infinity-scalar", {"kind": "geometric-form", "scale": float("-inf"), "ratio": 1,
                               "shift": 0}, InputError),
    ("nan-detail", {"kind": "diagnostic-verdict", "verdict": "v", "reason": "r",
                    "details": [["a", float("nan")]]}, InputError),
    ("boolean-scalar", _table([[1, 1, True]]), InputError),
    ("missing-nested-field", _vogt_instance_data(rho={"kind": "rho"}), InputError),
    ("missing-denominator", _table([[1, 1, {"num": 1}]]), InputError),
    ("missing-record-field", _custom_data([{"combiner": "sum"}]), InputError),
    ("missing-optional-field", {"kind": "cauchy-family", "level": 1, "vectors": [],
                                "modulus": []}, InputError),
    ("nested-unknown-kind", _vogt_instance_data(box={"kind": "wavelet"}), InputError),
    ("nested-untagged", _vogt_instance_data(box={"n_max": 1}), InputError),
    ("table-without-values", {"kind": "rho", "table_kind": "table",
                              "mu_limit": 1, "nu_limit": 1}, InputError),
    ("short-row", _table([[1, 1]]), ValueError),
    ("long-row", _table([[1, 1, 1, 1]]), ValueError),
    ("null-sequence", _table(None), TypeError),
    # a string or an object is iterable, but no sequence of values
    ("string-sequence", {"kind": "rho", "table_kind": "dyadic", "values": ""}, InputError),
    ("string-blocks", {"kind": "complement-decomposition", "blocks": ""}, InputError),
    ("object-modulus", {"kind": "cauchy-family", "level": 1, "vectors": [], "modulus": {},
                        "modulus_form": None}, InputError),
    # a string is no row of its characters, nor an object one of its keys
    ("string-row", {"kind": "diagnostic-verdict", "verdict": "v", "reason": "r",
                    "details": ["ab"]}, InputError),
    ("object-row", {"kind": "diagnostic-verdict", "verdict": "v", "reason": "r",
                    "details": [{"a": 1, "b": 2}]}, InputError),
    ("zero-denominator", _table([[1, 1, {"num": 1, "den": 0}]]), ZeroDivisionError),
    ("vector-bad-mode", _vector_data([], mode="complex"), ModeError),
    ("vector-index-outside-box", _vector_data([[3, 1]]), DomainError),
    ("vector-float-in-rational", _vector_data([[1, 0.5]]), ModeError),
    ("vector-short-entry", _vector_data([[1]]), ValueError),
    ("record-not-an-object", _custom_data([5]), TypeError),
    ("bad-combiner", _custom_data([{"combiner": "prod", "functionals": []}]), InputError),
    ("short-detail", {"kind": "diagnostic-verdict", "verdict": "v", "reason": "r",
                      "details": [["a"]]}, ValueError),
    # a box bound or a level count is an int, and no bool
    ("string-box-bound", {"kind": "single-box", "d": "x"}, DomainError),
    *(
        (f"{name}-{kind}", data, error)
        for name, bad in (("float", 2.5), ("boolean", True), ("numeral", "3"))
        for kind, data, error in (
            ("box-bound", {"kind": "single-box", "d": bad}, DomainError),
            ("triple-box-bound", {"kind": "triple-box", "n_max": 2, "mu_max": bad, "nu_max": 1},
             DomainError),
            ("max-prefix-level-count", {**MAX_PREFIX_DATA, "level_count": bad}, LevelError),
            ("vogt-level-count", {**VOGT_SYSTEM_DATA, "level_count": bad}, LevelError),
        )
    ),
    ("unhashable-kind", {"kind": []}, TypeError),
    ("operator-matrix-not-square-for-box", _operator_data([[1]]), InputError),
    ("operator-ragged-matrix", _operator_data([[1, 0], [1]]), InputError),
    ("operator-range-basis-on-another-box",
     _operator_data([[1, 0], [0, 0]], basis_box={"kind": "single-box", "d": 3}), InputError),
    ("operator-range-basis-in-another-mode",
     _operator_data([[1, 0], [0, 0]], basis_mode="float"), InputError),
    # the declared basis is e1, the only pivot column is e2
    ("operator-range-basis-not-the-pivot-columns", _operator_data([[0, 0], [0, 1]]), InputError),
    ("operator-empty-range-basis-of-a-nonzero-matrix",
     {**_operator_data([[1, 0], [0, 0]]), "range_basis": []}, InputError),
    ("vector-box-of-another-kind",
     {**_vector_data([[1, 1]]), "box": {"kind": "rho", "table_kind": "dyadic"}}, InputError),
    ("operator-box-of-another-kind",
     {**_operator_data([[1]]), "box": {"kind": "rho", "table_kind": "dyadic"}, "range_basis": []},
     InputError),
    ("vogt-instance-rho-of-another-kind",
     _vogt_instance_data(rho={"kind": "single-box", "d": 2}), InputError),
    # an instance builds its system when it is decoded, so the system's checks raise then
    ("vogt-instance-unknown-mode", _vogt_instance_data(mode="complex"), ModeError),
    ("vogt-instance-float-level-count", _vogt_instance_data(level_count=2.5), LevelError),
    ("vogt-instance-rho-table-smaller-than-the-box",
     _vogt_instance_data(rho={"kind": "rho", "table_kind": "table",
                              "values": [[1, 1, {"num": 1, "den": 2}]],
                              "mu_limit": 1, "nu_limit": 1}), InputError),
    ("family-vector-of-another-kind", {"kind": "cauchy-family", "level": 1,
                                       "vectors": [{"kind": "single-box", "d": 2}],
                                       "modulus": [], "modulus_form": None}, InputError),
    ("optional-object-of-another-kind", {"kind": "cauchy-family", "level": 1, "vectors": [],
                                         "modulus": [], "modulus_form": {
                                             "kind": "floor-certificate", "level": 1,
                                             "bound": 1}}, InputError),
    # a record holds exactly the fields it declares, nested records included
    ("undeclared-field", {"kind": "single-box", "d": 3, "junk": 1}, InputError),
    ("undeclared-nested-field",
     _custom_data([{"combiner": "sum", "functionals": [], "kind": "custom-level"}]), InputError),
    ("dyadic-rho-with-undeclared-fields", {"kind": "rho", "table_kind": "dyadic",
                                           "values": "not a table", "junk": [1, 2]}, InputError),
    ("dyadic-rho-with-a-grid", {"kind": "rho", "table_kind": "dyadic",
                                "values": [[1, 1, {"num": 1, "den": 2}]]}, InputError),
    ("dyadic-rho-with-grid-bounds", {"kind": "rho", "table_kind": "dyadic", "values": [],
                                     "mu_limit": 1, "nu_limit": 1}, InputError),
    ("sup-system-without-operators", {
        "kind": "sup-partial-system",
        "base": {"kind": "max-prefix-system", "box": {"kind": "single-box", "d": 2},
                 "mode": "rational", "level_count": 2},
        "operators": [],
    }, DegenerateInputError),
]


@pytest.mark.parametrize("data, error", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_input_raises_pinned_type(data, error):
    with pytest.raises(error) as info:
        jsonio.decode(data)
    assert type(info.value) is error


def test_well_formed_operator_record_decodes():
    op = jsonio.decode(_operator_data([[1, 0], [0, 0]]))
    assert op.matrix == ((F(1), F(0)), (F(0), F(0)))
    assert op.range_basis == (vector_from_dense(SingleBox(2), "rational", [1, 0]),)


def test_lenient_inputs_that_decode():
    # a dyadic table needs no grid, duplicate vector indices keep the last value
    assert jsonio.decode({"kind": "rho", "table_kind": "dyadic"}) == RhoTable.dyadic()
    vec = jsonio.decode(_vector_data([[1, 1], [1, {"num": 2, "den": 3}]]))
    assert vec.entries == ((1, F(2, 3)),)
    family = {"kind": "cauchy-family", "level": 1, "vectors": [], "modulus": [],
              "modulus_form": None}
    assert jsonio.decode(family).modulus_form is None
    verdict = jsonio.decode({"kind": "diagnostic-verdict", "verdict": "v", "reason": "r",
                             "details": [["a", {"num": 1, "den": 2}], ["b", 3]]})
    assert verdict.details == (("a", F(1, 2)), ("b", 3))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_encode_rejects_non_finite_floats(value):
    from bapkit import FloorCertificate, GeometricForm

    with pytest.raises(InputError):
        jsonio.encode(FloorCertificate(level=1, bound=value))
    with pytest.raises(InputError):
        dumps(GeometricForm(scale=1.0, ratio=value))


# public records that are configuration or intermediate state, never documents
NOT_SERIALIZED = {"ScheduleBlock"}


def _records(shape):
    """Every Record in a shape, nested records included."""
    if isinstance(shape, jsonio.Record):
        yield shape
        inner = shape.fields.values()
    elif isinstance(shape, jsonio.Seq):
        inner = (shape.item,)
    elif isinstance(shape, jsonio.Row):
        inner = shape.items
    else:
        inner = ()
    for item in inner:
        yield from _records(item)


def test_each_record_without_build_sets_exactly_the_init_fields():
    # a constructor field that the codec leaves out would not survive a round trip
    mismatched = sorted(
        rec.cls.__name__
        for kind in jsonio.KINDS.values()
        for rec in _records(kind)
        if rec.build is None
        and set(rec.cls.__match_args__) != {rec.attrs.get(n, n) for n in rec.fields}
    )
    assert mismatched == []


def test_every_public_record_has_an_encoding():
    import bapkit

    encoded = {rec.cls for kind in jsonio.KINDS.values() for rec in _records(kind)}
    public = {
        name: obj
        for name, obj in vars(bapkit).items()
        if not name.startswith("_") and isinstance(obj, type) and is_record(obj)
    }
    assert NOT_SERIALIZED <= set(public)
    missing = sorted(
        name for name, cls in public.items() if cls not in encoded and name not in NOT_SERIALIZED
    )
    assert missing == []


def test_encode_accepts_subclasses_of_registered_kinds():
    class Labelled(SingleBox):
        pass

    assert jsonio.encode(Labelled(3)) == {"kind": "single-box", "d": 3}
    assert jsonio.decode(jsonio.encode(Labelled(3))) == SingleBox(3)


# ---------------------------------------------------------------------------
# one generated property for every kind: decode refuses a record with an error that the
# CLI maps to exit 2, or decode(encode(x)) == x


# the errors that cli._decode_rho turns into exit 2
REFUSALS = (BapkitError, ZeroDivisionError, TypeError, ValueError)
SMALL = st.integers(1, 3)
# RAW fields that hold no integer, by JSON name; every other RAW value is a small integer
RAW_FIELDS = {
    "mode": st.sampled_from(["rational", "float"]),
    "table_kind": st.sampled_from(["dyadic", "table"]),
    "combiner": st.sampled_from(["sum", "max"]),
    "passed": st.booleans(),
    "label": st.sampled_from(["", "a"]),
    "verdict": st.sampled_from(["violated", "consistent"]),
    "reason": st.sampled_from(["", "r"]),
}
FRACTIONS = st.fixed_dictionaries({"num": st.integers(-3, 3), "den": st.integers(1, 4)})
SCALARS = st.integers(-3, 3) | FRACTIONS | st.sampled_from([0.5, -0.25, 1.0, 0.0])
# a vector or functional index, single or triple, or a detail's value
PLAINS = SMALL | st.lists(SMALL, min_size=3, max_size=3) | FRACTIONS | st.just("k")
# an Obj field at depth 0 draws only kinds that hold no tagged object, so a record
# holds tagged records at most NESTING + 1 deep
NESTING = 2
# valid records of kinds that random fields almost never build (a decay table must cover
# its grid, an operator must declare its pivot columns); each Obj field that accepts one
# may draw it, so that the records holding it decode as well
SEEDS = [
    RhoTable.dyadic(),
    RhoTable.from_grid({(1, 1): F(1, 2)}),
    KoetheSeminorms(((1, 1), (1, 2)), SingleBox(2), "rational"),
    FiniteRankOperator.from_matrix(SingleBox(2), "rational", [[1, 0], [1, 0]], "a1"),
    FiniteRankOperator.from_matrix(SingleBox(2), "float", [[0, 0], [-1, 1]], "a2"),
]
SEEDS.append(SupPartialSumSeminorms(SEEDS[2], SEEDS[3:4]))


def _is_leaf(shape):
    """Whether a shape holds no tagged object."""
    if isinstance(shape, jsonio.Obj):
        return False
    if isinstance(shape, jsonio.Record):
        return all(map(_is_leaf, shape.fields.values()))
    if isinstance(shape, jsonio.Seq):
        return _is_leaf(shape.item)
    if isinstance(shape, jsonio.Row):
        return all(map(_is_leaf, shape.items))
    return True


def _data(shape, depth, name=None):
    """JSON data of a shape: an Obj field draws one of the kinds it names, below
    depth 0 only kinds that hold no tagged object, or one of the SEEDS it accepts,
    or null."""
    if shape is jsonio.RAW:
        return RAW_FIELDS.get(name, SMALL)
    if shape is jsonio.SCALAR:
        return SCALARS
    if shape is jsonio.PLAIN:
        return PLAINS
    if isinstance(shape, jsonio.Obj):
        kinds = [
            _kind(tag, depth - 1)
            for tag, rec in sorted(jsonio.KINDS.items())
            if issubclass(rec.cls, shape.classes) and (depth > 0 or _is_leaf(rec))
        ]
        seeds = [jsonio.encode(x) for x in SEEDS if isinstance(x, shape.classes)]
        if shape.optional or not kinds:
            kinds.append(st.none())
        if not seeds:
            return st.one_of(kinds)
        # one draw in two is a seed, however many kinds the field accepts
        derived = st.one_of(kinds)
        return st.booleans().flatmap(lambda seed: st.sampled_from(seeds) if seed else derived)
    if isinstance(shape, jsonio.Seq):
        return st.lists(_data(shape.item, depth), max_size=4)
    if isinstance(shape, jsonio.Row):
        return st.tuples(*(_data(item, depth) for item in shape.items)).map(list)
    return st.fixed_dictionaries({n: _data(s, depth, n) for n, s in shape.fields.items()})


@functools.cache
def _kind(tag, depth=NESTING):
    """Tagged records of one kind, derived from its shape in jsonio.KINDS."""
    return _data(jsonio.KINDS[tag], depth).map(lambda fields: {"kind": tag, **fields})


@pytest.mark.parametrize("kind", sorted(jsonio.KINDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_kind_decodes_to_a_value_that_round_trips(kind, data):
    record = data.draw(_kind(kind))
    try:
        x = jsonio.decode(record)
    except REFUSALS:
        return
    text = json.dumps(jsonio.encode(x), sort_keys=True, indent=2, allow_nan=False)
    assert jsonio.decode(json.loads(text)) == x


# ---------------------------------------------------------------------------
# every codec kind against its dataclass twin: the class that dataclass(frozen=True) builds
# from the same bases, annotations, defaults and methods, as the package built its records


RECORD_METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


@functools.cache
def twin(cls):
    """cls rebuilt with dataclasses.dataclass(frozen=True) in place of _record.record."""
    skip = {*RECORD_METHODS, "__match_args__", "__dict__", "__weakref__"}
    namespace = {k: v for k, v in vars(cls).items() if k not in skip}
    namespace["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, namespace))


def outcome(call):
    """call's value, or the name of the exception it raises and whether that is an
    AttributeError, so a FrozenInstanceError of either module matches the other's."""
    try:
        return "value", call()
    except Exception as exc:  # the oracle compares what each side raises
        return "raises", type(exc).__name__, isinstance(exc, AttributeError)


def _records_in(value, found):
    """found, by id, with every record in value: value itself, its fields and their items."""
    if isinstance(value, (tuple, list)):
        for item in value:
            _records_in(item, found)
    elif is_record(type(value)) and id(value) not in found:
        found[id(value)] = value
        for name in type(value).__match_args__:
            _records_in(getattr(value, name), found)
    return found


@functools.cache
def oracle_records() -> tuple:
    """Every record in the decoded reports of the GOLDEN documents, then one of each codec kind
    that those reports do not hold, built from them."""
    found = {}
    for rho, mode in sorted(GOLDEN):
        override = {"mode": mode, "vogt": {"rho": rho if rho == "dyadic" else THIRD_TABLE}}
        doc = cli.build_document(_config(override))
        for suite in doc["suites"].values():
            for result in suite["checks"].values():
                if result.get("report") is not None:
                    _records_in(jsonio.decode(result["report"]), found)
    witness = next(x for x in found.values() if type(x) is BapFailureWitness)
    schedule = jsonio.decode(_schedule_data())
    extra = [
        element_from_components(schedule, range(len(schedule))),
        ReconstructionReport(True, ((F(1), F(0)),), (F(0),)),
        BasisCriterionReport(False, 1, 2),
        witness_evidence(witness),
        witness.instance.system(),
        jsonio.decode(MAX_PREFIX_DATA),
        CustomSeminorms(
            (CustomLevel((((1, F(1)), (2, F(-1))),), "sum"),), SingleBox(2), "rational"
        ),
    ]
    return tuple(_records_in(extra, found).values())


def _twin_mismatches(x) -> list:
    """Where x's kind and its twin differ on x: repr, == and hash, each after positional and
    after keyword construction."""
    cls, other = type(x), twin(type(x))
    values = [getattr(x, name) for name in cls.__match_args__]
    keywords = dict(zip(cls.__match_args__, values))
    found = []
    for how, mine, theirs in (
        ("positional", cls(*values), other(*values)),
        ("keyword", cls(**keywords), other(**keywords)),
    ):
        checks = {
            "repr": (repr(mine), repr(theirs)),
            "==": (mine == x, theirs == other(*values)),
            "!= another kind": (mine != theirs, theirs != mine),
            "hash": (outcome(lambda: hash(mine)), outcome(lambda: hash(theirs))),
        }
        found += [f"{cls.__name__} {how} {name}" for name, (a, b) in checks.items() if a != b]
    return found


def test_every_codec_kind_matches_its_dataclass_twin():
    records = oracle_records()
    kinds = {rec.cls for kind in jsonio.KINDS.values() for rec in _records(kind)}
    assert {type(x) for x in records} >= kinds
    assert [m for x in records for m in _twin_mismatches(x)] == []
    # == between two values of a kind, on the first few of each kind
    by_kind = {}
    for x in records:
        by_kind.setdefault(type(x), []).append(x)
    for cls, xs in by_kind.items():
        pairs = [(a, b) for a in xs[:5] for b in xs[:5]]
        twins = {id(x): twin(cls)(*map(x.__getattribute__, cls.__match_args__)) for x in xs[:5]}
        assert [a == b for a, b in pairs] == [twins[id(a)] == twins[id(b)] for a, b in pairs], cls


# one row per failure branch of a record; each call gets a kind, a value's fields and the value
BAD_CALLS = {
    "missing": lambda cls, values, x: cls(),
    "surplus": lambda cls, values, x: cls(*values, values[0]),
    "unexpected": lambda cls, values, x: cls(*values, no_such_field=1),
    "repeated": lambda cls, values, x: cls(*values, **{cls.__match_args__[0]: values[0]}),
    "assignment": lambda cls, values, x: setattr(x, cls.__match_args__[0], values[0]),
    "deletion": lambda cls, values, x: delattr(x, cls.__match_args__[0]),
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
def test_a_bad_call_raises_as_it_does_on_the_dataclass_twin(call):
    differ = []
    for cls in sorted({type(x) for x in oracle_records()}, key=lambda c: c.__name__):
        x = next(x for x in oracle_records() if type(x) is cls)
        other = twin(cls)
        values = [getattr(x, name) for name in cls.__match_args__]
        mine = outcome(lambda: BAD_CALLS[call](cls, values, x))
        theirs = outcome(lambda: BAD_CALLS[call](other, values, other(*values)))
        if mine != theirs or mine[0] != "raises":
            differ.append((cls.__name__, mine, theirs))
    assert differ == []


def test_the_oracle_enters_every_method_that_a_record_gets():
    # the reach gate counts RECORD_METHODS of tests/test_hygiene.py as reached on the strength
    # of these rows, since no document hashes or prints a record or writes to one
    entered = set()
    previous = sys.gettrace()
    sys.settrace(lambda frame, _event, _arg: entered.add(frame.f_code))
    try:
        x = SingleBox(3)
        _twin_mismatches(x)
        for call in BAD_CALLS.values():
            outcome(lambda: call(SingleBox, [3], x))
    finally:
        sys.settrace(previous)
    assert {getattr(SingleBox, name).__code__ for name in RECORD_METHODS} <= entered
