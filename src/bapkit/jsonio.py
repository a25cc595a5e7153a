"""Deterministic JSON round-trips for the public object kinds.

One table, KINDS, describes every kind: its "kind" tag, its class and an
ordered map from JSON field to shape.  encode and decode are two walkers,
_out and _in, over the same shapes, so each field is declared once.  The
shapes are:

  SCALAR     a Fraction as {"num", "den"}; an int or a finite float as is
  RAW        ints, strings and booleans, passed through unchanged
  Obj(c...)  a nested tagged object of one of the classes c; with
             optional=True also null.  Any other kind is an InputError.
  PLAIN      plain JSON: tuples as lists (tuples again on decode), Fractions
             and floats as SCALAR, anything else unchanged
  Seq(s)     a list of values of shape s; a string or an object is an
             InputError, not a sequence of characters or of keys
  Row(s...)  a list of exactly one value per shape, e.g. a (mu, nu, rho) triple;
             a string or an object is an InputError, as for Seq
  Record     an object with exactly its named fields, no others; a tagged kind
             is a Record in KINDS

Floats travel as plain numbers (repr round-trips them exactly), triple
indices as three-element lists.  `bapkit run` writes a document with sorted
keys, so equal objects produce identical text.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .embedding import (
    BasisCriterionReport,
    BasisSpaceElement,
    EquicontinuityCertificate,
    ReconstructionReport,
)
from .errors import InputError
from .normability import (
    CauchyFamily,
    DiagnosticVerdict,
    FloorCertificate,
    GeometricForm,
    NormedBasisReport,
    VanishingEvidence,
)
from .operators import (
    ComplementDecomposition,
    FiniteRankOperator,
    RankOneSplit,
    ScheduledFamily,
)
from .seminorms import (
    CustomLevel,
    CustomSeminorms,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    RhoTable,
    SeminormSystem,
    SupPartialSumSeminorms,
    VogtSeminorms,
)
from .scalars import check_mode
from .spaces import SingleBox, TripleBox, TruncatedVector, check_parts, vector_from_dense
from .vogt import (
    BapFailureWitness,
    ComparisonReport,
    NormPositivityReport,
    NuclearityCertificate,
    VogtInstance,
)

SCALAR, RAW, PLAIN = "scalar", "raw", "plain"


class Obj:
    def __init__(self, *classes, optional: bool = False) -> None:
        self.classes, self.optional = classes, optional


class Seq:
    def __init__(self, item) -> None:
        self.item = item


class Row:
    def __init__(self, *items) -> None:
        self.items = items


class Record:
    """Fields as JSON name -> shape, in output order.

    attrs maps a JSON name to its attribute where the two differ.  build,
    when given, constructs the object in place of the class: it receives
    get, which decodes one field by name, or gives get's second argument
    where the record leaves that field out.
    """

    def __init__(self, cls, build=None, attrs=None, **fields) -> None:
        self.cls, self.build, self.attrs, self.fields = cls, build, attrs or {}, fields


def _operator(get) -> FiniteRankOperator:
    """from_matrix checks the matrix; a declared range basis must be its pivot columns."""
    box, mode, basis = get("box"), get("mode"), get("range_basis")
    op = FiniteRankOperator.from_matrix(box, mode, get("matrix"), get("label"))
    if basis != op.range_basis:
        raise InputError("range basis must be the pivot columns of the operator matrix")
    return op


def _schedule(get) -> ScheduledFamily:
    """A schedule record writes each slot as its operator g (x) phi.  The operators and
    generators are checked first, as a schedule checks its parts; then phi(c) is column c's
    entry at the lead index of g, and the operator must be g (x) phi under the slot's label."""
    fields = {name: get(name) for name in KINDS["schedule"].fields}
    box, mode, generators = fields["box"], fields["mode"], fields["generators"]
    operators = fields.pop("operators")
    check_mode(mode)
    check_parts(box, mode, operators, "operator")
    check_parts(box, mode, generators, "generator")
    if len(generators) != len(operators) or not all(g.entries for g in generators):
        raise InputError("a schedule record needs as many nonzero generators as operators")
    functionals = tuple(
        vector_from_dense(box, mode, [c.get(g.entries[0][0]) for c in op.columns])
        for op, g in zip(operators, generators)
    )
    schedule = ScheduledFamily(functionals=functionals, **fields)
    for op, factored in zip(operators, schedule.operators):
        if op.label != factored.label or not op.approx_equal(factored):
            raise InputError(f"operator {op.label!r} is not {factored.label} = g (x) phi")
    return schedule


def _rho(get) -> RhoTable:
    """A table reads its grid.  A dyadic table is closed form, so it may leave
    its grid fields out, and any it carries must be empty, as encode writes them."""
    if get("table_kind") != "dyadic":
        return RhoTable("table", get("values"), get("mu_limit"), get("nu_limit"))
    if (get("values", ()), get("mu_limit", 0), get("nu_limit", 0)) != ((), 0, 0):
        raise InputError("a dyadic rho table carries no grid")
    return RhoTable.dyadic()


# (index, value) entries of a vector or functional; a triple index is a three-element list
PAIRS = Seq(Row(PLAIN, SCALAR))
BOX, TRIPLE_BOX, SINGLE_BOX = Obj(TripleBox, SingleBox), Obj(TripleBox), Obj(SingleBox)
VECTORS = Seq(Obj(TruncatedVector))
OPERATOR, OPERATORS = Obj(FiniteRankOperator), Seq(Obj(FiniteRankOperator))
RHO, GEOMETRIC = Obj(RhoTable), Obj(GeometricForm)

KINDS = {
    "triple-box": Record(TripleBox, n_max=RAW, mu_max=RAW, nu_max=RAW),
    "single-box": Record(SingleBox, d=RAW),
    # create() validates indices and mode; dict() keeps the last duplicate index
    "vector": Record(
        TruncatedVector,
        build=lambda get: TruncatedVector.create(get("box"), get("mode"), dict(get("entries"))),
        box=BOX, mode=RAW, entries=PAIRS,
    ),
    "rho": Record(
        RhoTable,
        attrs={"table_kind": "kind"},
        build=_rho,
        table_kind=RAW, values=Seq(Row(RAW, RAW, SCALAR)), mu_limit=RAW, nu_limit=RAW,
    ),
    "vogt-system": Record(VogtSeminorms, rho=RHO, box=TRIPLE_BOX, mode=RAW, level_count=RAW),
    "koethe-system": Record(KoetheSeminorms, weights=Seq(Seq(SCALAR)), box=SINGLE_BOX, mode=RAW),
    "max-prefix-system": Record(MaxPrefixSeminorms, box=SINGLE_BOX, mode=RAW, level_count=RAW),
    "custom-system": Record(
        CustomSeminorms,
        levels=Seq(Record(CustomLevel, combiner=RAW, functionals=Seq(PAIRS))), box=BOX, mode=RAW,
    ),
    "sup-partial-system": Record(
        SupPartialSumSeminorms, base=Obj(SeminormSystem), operators=OPERATORS
    ),
    "operator": Record(
        FiniteRankOperator,
        build=_operator,
        box=BOX, mode=RAW, matrix=Seq(Seq(SCALAR)), range_basis=VECTORS, label=RAW,
    ),
    "complement-decomposition": Record(ComplementDecomposition, blocks=Seq(Row(RAW, VECTORS))),
    "rank-one-split": Record(
        RankOneSplit,
        source=OPERATOR, pieces=OPERATORS, norm_grading=Seq(RAW), control_constant=SCALAR,
        level_constants=Seq(SCALAR), decomposition=Obj(ComplementDecomposition),
    ),
    "schedule": Record(
        ScheduledFamily,
        build=_schedule,
        box=BOX, mode=RAW, operators=OPERATORS, block_structure=Seq(Seq(RAW)),
        replication_counts=Seq(Seq(RAW)), source_family=OPERATORS, splits=Seq(Obj(RankOneSplit)),
        working_levels=Seq(RAW), generators=VECTORS,
    ),
    "basis-element": Record(
        BasisSpaceElement, schedule=Obj(ScheduledFamily), coefficients=Seq(SCALAR)
    ),
    "equicontinuity-certificate": Record(
        EquicontinuityCertificate,
        factor=RAW, entries=Seq(Row(RAW, RAW, RAW, SCALAR)), sample_count=RAW,
    ),
    "reconstruction-report": Record(
        ReconstructionReport,
        passed=RAW, traces=Seq(Seq(Seq(SCALAR))), final_residuals=Seq(SCALAR),
    ),
    "basis-criterion-report": Record(
        BasisCriterionReport, passed=RAW, constant=RAW, sample_count=RAW
    ),
    "geometric-form": Record(GeometricForm, scale=SCALAR, ratio=SCALAR, shift=RAW),
    "floor-certificate": Record(FloorCertificate, level=RAW, bound=SCALAR),
    "cauchy-family": Record(
        CauchyFamily,
        level=RAW, vectors=VECTORS, modulus=Seq(Row(RAW, SCALAR)),
        modulus_form=Obj(GeometricForm, optional=True),
    ),
    "vanishing-evidence": Record(
        VanishingEvidence,
        family=Obj(CauchyFamily), decay_form=GEOMETRIC,
        floor=Obj(FloorCertificate, optional=True),
    ),
    "diagnostic-verdict": Record(
        DiagnosticVerdict, verdict=RAW, reason=RAW, details=Seq(Row(RAW, PLAIN))
    ),
    "comparison-report": Record(ComparisonReport, passed=RAW, sample_count=RAW, level_count=RAW),
    "nuclearity-certificate": Record(
        NuclearityCertificate,
        level=RAW, ratio=SCALAR, term_count=RAW, box_sum=SCALAR, complete_through=RAW,
        complete_sum=SCALAR, limit=SCALAR, shells=Seq(Seq(RAW)), passed=RAW,
    ),
    "norm-positivity-report": Record(
        NormPositivityReport, level_ranks=Seq(Seq(RAW)), q_certificates=Seq(Seq(RAW)), passed=RAW
    ),
    "failure-witness": Record(
        BapFailureWitness,
        instance=Obj(VogtInstance), vanishing_level=RAW, floor_level=RAW, cauchy_level=RAW,
        mu=RAW, nu=RAW, vectors=VECTORS, decay_form=GEOMETRIC, decay_trace=Seq(SCALAR),
        floor_trace=Seq(SCALAR), floor=Obj(FloorCertificate), cauchy=Obj(CauchyFamily),
    ),
    "vogt-instance": Record(VogtInstance, rho=RHO, box=TRIPLE_BOX, mode=RAW, level_count=RAW),
    "normed-basis-report": Record(
        NormedBasisReport,
        system=Obj(SupPartialSumSeminorms), comparisons=Seq(Row(RAW, RAW, SCALAR)),
        sample_count=RAW, passed=RAW,
    ),
}

_TAGS = {rec.cls: tag for tag, rec in KINDS.items()}


def _scalar_out(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise InputError(f"{v!r} has no JSON encoding")
        return v
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, bool):
        raise InputError("booleans are not scalars")
    if isinstance(v, int):
        return v
    raise InputError(f"cannot serialize scalar {v!r}")


def _scalar_in(v):
    if isinstance(v, dict):
        return Fraction(v["num"], v["den"])
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"cannot deserialize scalar {v!r}")
    if not math.isfinite(v):
        raise InputError(f"{v!r} is not a finite scalar")
    return v


def _row(v, shape: Row) -> tuple:
    items = tuple(v)
    if len(items) != len(shape.items):
        raise ValueError(f"expected a row of {len(shape.items)} values, got {len(items)}")
    return items


def _out(shape, v):
    if shape is RAW:
        return v
    if shape is SCALAR:
        return _scalar_out(v)
    if isinstance(shape, Obj):
        return None if shape.optional and v is None else encode(v)
    if shape is PLAIN:
        if isinstance(v, (Fraction, float)):
            return _scalar_out(v)
        return [_out(PLAIN, x) for x in v] if isinstance(v, tuple) else v
    if isinstance(shape, Seq):
        return [_out(shape.item, x) for x in v]
    if isinstance(shape, Row):
        return [_out(s, x) for s, x in zip(shape.items, _row(v, shape))]
    return {
        name: _out(s, getattr(v, shape.attrs.get(name, name)))
        for name, s in shape.fields.items()
    }


def _in(shape, v):
    if shape is RAW:
        return v
    if shape is SCALAR:
        return _scalar_in(v)
    if isinstance(shape, Obj):
        if shape.optional and v is None:
            return None
        obj = decode(v)
        if not isinstance(obj, shape.classes):
            names = " or ".join(cls.__name__ for cls in shape.classes)
            raise InputError(f"expected a {names} record, got {v['kind']!r}")
        return obj
    if shape is PLAIN:
        if isinstance(v, (dict, float)):
            return _scalar_in(v)
        return tuple(_in(PLAIN, x) for x in v) if isinstance(v, list) else v
    if isinstance(shape, (Seq, Row)):
        if isinstance(v, (str, dict)):  # iterable, but no array of values
            raise InputError(f"expected a JSON array, got a {type(v).__name__}")
        if isinstance(shape, Seq):
            return tuple(_in(shape.item, x) for x in v)
        return tuple(_in(s, x) for s, x in zip(shape.items, _row(v, shape)))

    undeclared = v.keys() - shape.fields.keys() if isinstance(v, dict) else ()
    if undeclared:
        names = sorted(map(str, undeclared))
        raise InputError(f"undeclared fields {names} in a {shape.cls.__name__}")

    def get(name, *absent):
        if absent and name not in v:
            return absent[0]
        return _in(shape.fields[name], v[name])

    if shape.build is not None:
        return shape.build(get)
    return shape.cls(**{shape.attrs.get(name, name): get(name) for name in shape.fields})


def encode(obj):
    """Object to JSON-ready data; raises InputError on unknown types."""
    for cls in type(obj).__mro__:
        if cls in _TAGS:
            tag = _TAGS[cls]
            return {"kind": tag, **_out(KINDS[tag], obj)}
    raise InputError(f"no JSON encoding for {type(obj).__name__}")


def decode(data):
    """Inverse of encode; raises InputError on unknown or malformed tags."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("expected a dict with a 'kind' tag")
    kind = data["kind"]
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}")
    try:
        return _in(KINDS[kind], {name: field for name, field in data.items() if name != "kind"})
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r} in {kind!r}")
