"""The part contract: every public entry that takes a part, a vector or an operator, refuses
one from another space the same way, through spaces.check_part."""

import re

import pytest

from bapkit import (
    CauchyFamily,
    CustomLevel,
    CustomSeminorms,
    DomainError,
    FiniteRankOperator,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    ModeError,
    RhoTable,
    SingleBox,
    SupPartialSumSeminorms,
    TripleBox,
    VogtSeminorms,
    embed,
    flatten_schedule,
    graded_operator_norm,
    rank_one_split,
    scale_and_replicate,
    seminorm_kernel_basis,
    unit_vector,
)
from bapkit.polyhedral import comparison_level

BOX = SingleBox(2)
TRIPLE = TripleBox(2, 2, 2)
E1 = unit_vector(BOX, "rational", 1)
EYE = FiniteRankOperator.identity(BOX, "rational")
KOETHE = KoetheSeminorms(((1, 1), (1, 2)), BOX, "rational")
VOGT = VogtSeminorms(RhoTable.dyadic(), TRIPLE, "rational", 2)
SYSTEMS = {
    "vogt": VOGT,
    "koethe": KOETHE,
    "max-prefix": MaxPrefixSeminorms(BOX, "rational", 2),
    "custom": CustomSeminorms(
        (CustomLevel((((1, 1),), ((2, 1),)), "max"), CustomLevel((((1, 1), (2, 1)),), "sum")),
        BOX,
        "rational",
    ),
    "sup-partial": SupPartialSumSeminorms(KOETHE, (EYE,)),
}


def misplaced(box, kind):
    """A vector and an operator beside box in rational mode: on a larger box of its kind,
    or on box in float mode."""
    mode = "rational"
    if kind == "mode":
        mode = "float"
    elif isinstance(box, SingleBox):
        box = SingleBox(box.d + 1)
    else:
        box = TripleBox(box.n_max + 1, box.mu_max, box.nu_max)
    return unit_vector(box, mode, next(box.indices())), FiniteRankOperator.identity(box, mode)


def block(op):
    """op's damped and replicated rank-one split under one flat Koethe level on its space."""
    system = KoetheSeminorms(((1,) * op.box.d,), op.box, op.mode)
    return scale_and_replicate(rank_one_split(op, system), system, sample_count=2)


# each entry: the box its home parts live on, in rational mode, and a call that hands it the
# misplaced vector or operator
ENTRIES = {
    **{
        f"{name}-value": (system.box, lambda vec, op, system=system: system.value(1, vec))
        for name, system in SYSTEMS.items()
    },
    **{
        f"{name}-values": (system.box, lambda vec, op, system=system: system.values((1, 2), vec))
        for name, system in SYSTEMS.items()
    },
    "vogt-split_values": (TRIPLE, lambda vec, op: VOGT.split_values(vec, [(1, 1)])),
    "vogt-primed_values": (TRIPLE, lambda vec, op: VOGT.primed_values((1,), vec)),
    "seminorm_kernel_basis": (BOX, lambda vec, op: seminorm_kernel_basis(KOETHE, 1, [vec])),
    "vector-add": (BOX, lambda vec, op: E1 + vec),
    "vector-sub": (BOX, lambda vec, op: E1 - vec),
    "vector-dot": (BOX, lambda vec, op: E1.dot(vec)),
    "vector-approx_equal": (BOX, lambda vec, op: E1.approx_equal(vec)),
    "operator-constructor": (BOX, lambda vec, op: FiniteRankOperator(BOX, "rational", (E1, vec))),
    "operator-apply": (BOX, lambda vec, op: EYE.apply(vec)),
    "operator-compose": (BOX, lambda vec, op: EYE.compose(op)),
    "operator-add": (BOX, lambda vec, op: EYE + op),
    "operator-sub": (BOX, lambda vec, op: EYE - op),
    "operator-approx_equal": (BOX, lambda vec, op: EYE.approx_equal(op)),
    "graded_operator_norm": (BOX, lambda vec, op: graded_operator_norm(KOETHE, 1, 1, op)),
    "comparison_level": (BOX, lambda vec, op: comparison_level(KOETHE, 1, [EYE, op])),
    "rank_one_split": (BOX, lambda vec, op: rank_one_split(op, KOETHE)),
    "flatten_schedule": (BOX, lambda vec, op: flatten_schedule([block(EYE), block(op)])),
    "embed": (BOX, lambda vec, op: embed(flatten_schedule([block(EYE)]), vec)),
    "CauchyFamily.from_vectors": (
        BOX, lambda vec, op: CauchyFamily.from_vectors(KOETHE, 1, [E1, vec])
    ),
    "SupPartialSumSeminorms": (BOX, lambda vec, op: SupPartialSumSeminorms(KOETHE, (EYE, op))),
}


@pytest.mark.parametrize("kind, error", [("box", DomainError), ("mode", ModeError)])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_refuses_a_part_from_another_space(entry, kind, error):
    home, call = ENTRIES[entry]
    with pytest.raises(error) as info:
        call(*misplaced(home, kind))
    assert type(info.value) is error
    assert re.fullmatch(rf"[a-z ]+ {kind} .+ does not match .+", str(info.value)), info.value

