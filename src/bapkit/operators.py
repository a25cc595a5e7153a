"""Finite-rank operators and the telescoping schedule construction.

The pipeline realized here, given a finite operator family (A_p) and a
graded seminorm system:

  1. renumber levels so the p-th working level is a norm on range(A_p);
  2. intersect range(A_p) with the kernels of the working levels below p
     (a decreasing filtration) and split it into orthogonal complement
     blocks, ordered head block first;
  3. project onto each adapted basis line: rank-one pieces B_j summing to
     the identity on range(A_p), with a certified level-uniform control
     constant R_p;
  4. damp by N_p >= m_p * R_p and replicate N_p times: pieces C_i whose
     running prefixes stay within twice the seminorm of the input;
  5. flatten every block, composing with its A_p, into one rank-one
     schedule whose total equals the total of the original family.

An operator stores its columns, the sparse images of the unit vectors, and
works column by column; FiniteRankOperator.matrix is a derived dense view,
and range_basis the pivot columns, derived on first read.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import (
    ConstructionSoundnessError,
    ContinuousNormError,
    DegenerateInputError,
    DomainError,
    InputError,
    LevelError,
    ModeError,
    ZeroOperatorError,
)
from .linalg import column_space_basis, in_span, invert, mat_mul, rank
from .polyhedral import rank_one_family_constant
from .scalars import (
    all_approx_equal,
    as_scalar,
    check_mode,
    leq,
    random_scalar,
)
from .seminorms import SeminormSystem, seminorm_kernel_basis
from .spaces import (
    Box,
    TruncatedVector,
    check_parts,
    linear_combination,
    vector_from_dense,
    zero_vector,
)

# every prefix of a damped block stays within this multiple of its input's seminorm
PREFIX_FACTOR = 2


@dataclass(frozen=True)
class FiniteRankOperator:
    """Sparse columns on a box (for g (x) f, the columns f_c * g).

    range_basis is derived from the columns on first read: the pivot columns,
    so span(range_basis) equals the column space and rank == len(range_basis).
    """

    box: Box
    mode: str
    columns: tuple  # one TruncatedVector per box coordinate, in box order
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.box, Box):
            raise DomainError(f"an operator lives on a box, got {type(self.box).__name__}")
        check_mode(self.mode)
        columns = tuple(self.columns)
        object.__setattr__(self, "columns", columns)
        if len(columns) != self.box.dimension:
            raise InputError(f"expected {self.box.dimension} columns, got {len(columns)}")
        for c in columns:
            if not isinstance(c, TruncatedVector) or c.box != self.box:
                raise DomainError("operator columns must be vectors on the operator box")
            if c.mode != self.mode:
                raise ModeError("operator columns must be in the operator mode")

    @staticmethod
    def from_matrix(box: Box, mode: str, rows, label: str = "") -> "FiniteRankOperator":
        check_mode(mode)
        d = box.dimension
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InputError(f"matrix must be {d}x{d} for this box")
        columns = [vector_from_dense(box, mode, [r[c] for r in rows]) for c in range(d)]
        return FiniteRankOperator(box, mode, columns, label)

    @staticmethod
    def identity(box: Box, mode: str) -> "FiniteRankOperator":
        d = box.dimension
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        return FiniteRankOperator.from_matrix(box, mode, rows, "identity")

    @staticmethod
    def rank_one(
        output: TruncatedVector, functional_row, label: str = ""
    ) -> "FiniteRankOperator":
        """Operator x -> functional(x) * output; functional_row is dense."""
        if len(functional_row) != output.box.dimension:
            raise InputError("functional row length must match the box dimension")
        columns = [output.scale(f) for f in functional_row]
        return FiniteRankOperator(output.box, output.mode, columns, label)

    @property
    def matrix(self) -> tuple:
        """Dense row-major view of the columns."""
        return tuple(zip(*(c.dense() for c in self.columns)))

    @cached_property
    def range_basis(self) -> tuple:
        """The pivot columns, a basis of the column space."""
        pivots = column_space_basis(self.matrix, self.mode)
        return tuple(self.columns[c] for c in pivots)

    @property
    def rank(self) -> int:
        return len(self.range_basis)

    def _check_peer(self, other: "FiniteRankOperator") -> None:
        if self.box != other.box:
            raise DomainError("operator boxes differ")
        if self.mode != other.mode:
            raise ModeError("operator modes differ")

    def apply(self, x: TruncatedVector) -> TruncatedVector:
        if x.box != self.box:
            raise DomainError("vector box does not match operator box")
        if x.mode != self.mode:
            raise ModeError("vector mode does not match operator mode")
        position = self.box.position
        terms = ((val, self.columns[position(idx)]) for idx, val in x.entries)
        return linear_combination(self.box, self.mode, terms)

    def compose(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        self._check_peer(other)
        columns = [self.apply(c) for c in other.columns]
        return FiniteRankOperator(self.box, self.mode, columns)

    def _columnwise(self, other: "FiniteRankOperator", combine) -> "FiniteRankOperator":
        self._check_peer(other)
        columns = [combine(a, b) for a, b in zip(self.columns, other.columns)]
        return FiniteRankOperator(self.box, self.mode, columns)

    def __add__(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        return self._columnwise(other, operator.add)

    def __sub__(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        return self._columnwise(other, operator.sub)

    def scale(self, factor, label: str = "") -> "FiniteRankOperator":
        c = as_scalar(factor, self.mode)
        columns = [col.scale(c) for col in self.columns]
        return FiniteRankOperator(self.box, self.mode, columns, label)

    def approx_equal(self, other: "FiniteRankOperator") -> bool:
        self._check_peer(other)
        pairs = [(a, b) for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)]
        return all_approx_equal(pairs, self.mode)


# ---------------------------------------------------------------------------
# telescoping


def telescope(family) -> list:
    """Successive differences: first member, then each minus its predecessor."""
    ops = list(family)
    if not ops:
        raise DegenerateInputError("telescope needs at least one operator")
    return [ops[0]] + [cur - prev for prev, cur in zip(ops, ops[1:])]


def accumulate(family) -> list:
    """Running partial sums; inverse of telescope."""
    ops = list(family)
    if not ops:
        raise DegenerateInputError("accumulate needs at least one operator")
    return list(itertools.accumulate(ops))


# ---------------------------------------------------------------------------
# kernel filtration and complements


def smallest_norm_level(
    op: FiniteRankOperator,
    system: SeminormSystem,
    above: int = 0,
) -> int:
    """First level above `above` whose restriction to range(op) has trivial kernel."""
    for k in range(above + 1, system.level_count + 1):
        if not seminorm_kernel_basis(system, k, op.range_basis):
            return k
    raise ContinuousNormError(
        f"no level above {above} is a norm on range({op.label or 'operator'})"
    )


def kernel_filtration(
    op: FiniteRankOperator,
    system: SeminormSystem,
    levels=None,
):
    """Bases of Ker(value(j, .)) intersected with range(op), nested decreasing.

    levels defaults to every level strictly below the first norm level on
    the range, matching the blocks-below-the-norm-level reading.
    """
    if op.rank == 0:
        raise ZeroOperatorError("kernel filtration of a zero operator is undefined")
    if levels is None:
        levels = list(range(1, smallest_norm_level(op, system)))
    out = []
    for j in levels:
        system.check_level(j)
        out.append(tuple(seminorm_kernel_basis(system, j, op.range_basis)))
    for finer_level_basis, coarser in zip(out[1:], out):
        span = [v.dense() for v in coarser]
        for v in finer_level_basis:
            if not in_span(span, v.dense(), system.mode):
                raise ConstructionSoundnessError("kernel filtration is not nested")
    return out


@dataclass(frozen=True)
class ComplementDecomposition:
    """Ordered blocks (kernel_tag, basis) with head block tagged 0.

    A block tagged l >= 1 lies inside the kernel of working level l; the
    adapted basis is the concatenation in tag order.
    """

    blocks: tuple  # tuple of (int, tuple[TruncatedVector, ...])

    @property
    def adapted_basis(self) -> tuple:
        return tuple(v for _, basis in self.blocks for v in basis)


def _project_out(v, orthogonal):
    """v minus its components along pairwise orthogonal vectors; exact in rational mode."""
    for u in orthogonal:
        denom = u.dot(u)
        if denom != 0:
            v = v - u.scale(v.dot(u) / denom)
    return v


def _orthogonalize(vectors):
    """Unnormalized Gram-Schmidt; exact in rational mode."""
    out = []
    for v in vectors:
        w = _project_out(v, out)
        if not w.is_zero():
            out.append(w)
    return out


def select_complements(range_basis, filtration) -> ComplementDecomposition:
    """Split span(range_basis) along the filtration into orthogonal blocks.

    Block l is the orthogonal complement (standard coordinate inner
    product) of filtration[l] inside the previous space; the final block is
    the last filtration space itself.  Trivial filtrations therefore give a
    single head block equal to the range basis, unchanged.
    """
    chain = [tuple(range_basis)] + [tuple(f) for f in filtration]
    if not chain[0]:
        raise ZeroOperatorError("cannot decompose an empty range")
    mode = chain[0][0].mode
    blocks = []
    for l in range(len(chain) - 1):
        inner_orth = _orthogonalize(chain[l + 1])
        candidates = [_project_out(v, inner_orth) for v in chain[l]]
        kept: list = []
        kept_dense: list = []
        target = len(chain[l]) - len(chain[l + 1])
        for w in candidates:
            if len(kept) == target:
                break
            if w.is_zero():
                continue
            if kept_dense and in_span(kept_dense, w.dense(), mode):
                continue
            kept.append(w)
            kept_dense.append(w.dense())
        if len(kept) != target:
            raise ConstructionSoundnessError(
                f"complement block {l} has dimension {len(kept)}, expected {target}"
            )
        if kept:
            blocks.append((l, tuple(kept)))
    final_tag = len(chain) - 1
    if chain[-1]:
        blocks.append((final_tag, tuple(chain[-1])))
    # block l holds len(chain[l]) - len(chain[l + 1]) vectors: the sizes sum to len(chain[0])
    decomp = ComplementDecomposition(tuple(blocks))
    dense = [v.dense() for v in decomp.adapted_basis]
    if rank(dense, mode) != len(chain[0]):
        raise ConstructionSoundnessError("adapted basis is dependent")
    return decomp


# ---------------------------------------------------------------------------
# rank-one split


@dataclass(frozen=True)
class RankOneSplit:
    """Rank-one pieces summing to the identity on the source range.

    control_constant bounds max_j value(k, B_j e) / value(k, e) for every
    control level k; level_constants records the exact per-level optimum.
    """

    source: FiniteRankOperator
    pieces: tuple
    norm_grading: tuple  # control levels, last one a norm on the range
    control_constant: object
    level_constants: tuple
    decomposition: ComplementDecomposition

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def rank_one_split(
    op: FiniteRankOperator,
    system: SeminormSystem,
    control_levels=None,
) -> RankOneSplit:
    if op.rank == 0:
        raise ZeroOperatorError("cannot split a zero operator")
    if op.box != system.box or op.mode != system.mode:
        raise DomainError("operator and system live on different boxes or modes")
    if control_levels is None:
        control_levels = list(range(1, smallest_norm_level(op, system) + 1))
    control_levels = list(control_levels)
    if not control_levels:
        raise LevelError("need at least one control level")
    for a, b in zip(control_levels, control_levels[1:]):
        if not a < b:
            raise LevelError("control levels must be strictly increasing")
    for k in control_levels:
        system.check_level(k)
    if seminorm_kernel_basis(system, control_levels[-1], op.range_basis):
        raise ContinuousNormError(
            f"level {control_levels[-1]} is not a norm on the operator range"
        )
    filtration = kernel_filtration(op, system, control_levels[:-1])
    decomp = select_complements(op.range_basis, filtration)
    adapted = decomp.adapted_basis
    m = len(adapted)
    d = op.box.dimension
    vt = [v.dense() for v in adapted]  # m x d, rows are basis vectors
    gram = [[adapted[a].dot(adapted[b]) for b in range(m)] for a in range(m)]
    ginv = invert(gram, op.mode)
    if ginv is None:
        raise ConstructionSoundnessError("adapted basis Gram matrix is singular")
    phi = mat_mul(ginv, vt)  # m x d, biorthogonal coefficient functionals
    pieces = [
        FiniteRankOperator.rank_one(adapted[j], phi[j], label=f"{op.label or 'op'}:piece{j + 1}")
        for j in range(m)
    ]
    zero_vec = zero_vector(op.box, op.mode)
    piece_images = [[adapted[j] if i == j else zero_vec for i in range(m)] for j in range(m)]
    constants = [
        rank_one_family_constant(system, level, adapted, piece_images)
        for level in control_levels
    ]
    control = max(constants)
    for v in adapted:
        total = reduce(operator.add, (piece.apply(v) for piece in pieces), zero_vec)
        if not total.approx_equal(v):
            raise ConstructionSoundnessError("pieces do not sum to the identity on the range")
    return RankOneSplit(
        source=op,
        pieces=tuple(pieces),
        norm_grading=tuple(control_levels),
        control_constant=control,
        level_constants=tuple(constants),
        decomposition=decomp,
    )


# ---------------------------------------------------------------------------
# damping, replication, flattening


@dataclass(frozen=True)
class ScheduleBlock:
    """One damped, replicated split: operators C_i = B_j / N, i = r*m + j."""

    split: RankOneSplit
    operators: tuple
    replication: int

    @property
    def piece_count(self) -> int:
        return self.split.piece_count


def scale_and_replicate(
    split: RankOneSplit,
    system: SeminormSystem,
    rng: random.Random | None = None,
    sample_count: int = 50,
) -> ScheduleBlock:
    """Damp by N = ceil(m * R) and lay out N copies of the m pieces.

    Verifies the identity on the range exactly and the prefix bound
    value(k, prefix) <= PREFIX_FACTOR * value(k, e) on sampled range elements
    for every control level.
    """
    m = split.piece_count
    n_rep = max(1, math.ceil(m * split.control_constant))
    scaled = tuple(
        piece.scale(Fraction(1, n_rep), label=f"{piece.label}/N{n_rep}")
        for piece in split.pieces
    )
    operators = tuple(scaled[j] for _ in range(n_rep) for j in range(m))
    block = ScheduleBlock(split=split, operators=operators, replication=n_rep)
    _verify_prefix_bound(block, system, rng or random.Random(0), sample_count)
    return block


def _verify_prefix_bound(
    block: ScheduleBlock,
    system: SeminormSystem,
    rng: random.Random,
    sample_count: int,
) -> None:
    split = block.split
    adapted = split.decomposition.adapted_basis
    m = split.piece_count
    n_rep = block.replication
    mode = split.source.mode
    factor = as_scalar(PREFIX_FACTOR, mode)
    share = as_scalar(Fraction(1, n_rep), mode)
    for _ in range(sample_count):
        coeffs = [random_scalar(rng, mode) for _ in range(m)]
        partial_piece = list(itertools.accumulate(v.scale(c) for c, v in zip(coeffs, adapted)))
        e = partial_piece[-1]
        # prefix q = r*m + w ends inside copy r after w pieces: r/N * e plus the share
        # partial_piece[w] / N.  Copy 0's prefixes are the shares, and the last prefix
        # (r = N-1, w = m) is e, so e's one read serves that prefix and the bound.
        order = [(r, w) for r in range(n_rep) for w in range(1, m + 1)]
        shares = {w: partial_piece[w - 1].scale(share) for w in {w for _, w in order[:-1]}}
        copies = {r: e.scale(Fraction(r, n_rep)) for r in {r for r, _ in order[:-1]} - {0}}
        levels = split.norm_grading
        reads = [
            system.values(levels, copies[r] + shares[w] if r else shares[w])
            for r, w in order[:-1]
        ]
        e_read = system.values(levels, e)
        reads.append(e_read)
        for i, (level, e_value) in enumerate(zip(levels, e_read)):
            bound = factor * e_value
            for (r, w), read in zip(order, reads):
                val = read[i]
                if not leq(val, bound, mode):
                    raise ConstructionSoundnessError(
                        f"prefix bound failed at level {level}, copy {r}, piece {w}: "
                        f"{val} > {PREFIX_FACTOR} * {e_value}"
                    )


@dataclass(frozen=True)
class ScheduledFamily:
    """Flattened rank-one schedule with its block bookkeeping.

    operators[s] acts as C_i of block p composed with that block's source
    operator; block_structure[s] = (p, i) with 1-based p and i.  generators
    are the range lines normalized to leading coordinate 1.  Every operator,
    generator, split source and source-family member lives on box, in mode.
    """

    box: Box
    mode: str
    operators: tuple
    block_structure: tuple
    replication_counts: tuple  # (p, N_p) pairs
    source_family: tuple
    splits: tuple
    working_levels: tuple
    generators: tuple

    def __post_init__(self) -> None:
        check_mode(self.mode)
        check_parts(self.box, self.mode, self.operators, "operator")
        check_parts(self.box, self.mode, self.generators, "generator")
        check_parts(self.box, self.mode, (split.source for split in self.splits), "split source")
        check_parts(self.box, self.mode, self.source_family, "source family member")

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def grading_depth(self) -> int:
        return len(self.working_levels)

    def original_level(self, grading_position: int) -> int:
        if not 1 <= grading_position <= len(self.working_levels):
            raise LevelError(
                f"grading position {grading_position} outside 1..{len(self.working_levels)}"
            )
        return self.working_levels[grading_position - 1]


def flatten_schedule(blocks) -> ScheduledFamily:
    """Concatenate blocks, composing each damped piece with its source.

    The schedule total must equal the family total.
    """
    blocks = list(blocks)
    if not blocks:
        raise DegenerateInputError("flatten_schedule needs at least one block")
    box = blocks[0].split.source.box
    mode = blocks[0].split.source.mode
    operators = []
    structure = []
    generators = []
    for p, block in enumerate(blocks, start=1):
        source = block.split.source
        if source.box != box or source.mode != mode:
            raise DomainError("blocks live on different boxes or modes")
        adapted = block.split.decomposition.adapted_basis
        m = block.piece_count
        for i, c_op in enumerate(block.operators, start=1):
            b_vec = adapted[(i - 1) % m]
            columns = tuple(c_op.apply(col) for col in source.columns)
            composed = FiniteRankOperator(box, mode, columns, f"schedule:p{p}:i{i}")
            operators.append(composed)
            structure.append((p, i))
            lead = b_vec.entries[0][1]
            generators.append(b_vec.scale(1 / lead))
    total = reduce(operator.add, operators)
    family_total = reduce(operator.add, (block.split.source for block in blocks))
    if not total.approx_equal(family_total):
        raise ConstructionSoundnessError("schedule total differs from the family total")
    return ScheduledFamily(
        box=box,
        mode=mode,
        operators=tuple(operators),
        block_structure=tuple(structure),
        replication_counts=tuple(
            (p, block.replication) for p, block in enumerate(blocks, start=1)
        ),
        source_family=tuple(block.split.source for block in blocks),
        splits=tuple(block.split for block in blocks),
        working_levels=tuple(blocks[-1].split.norm_grading),
        generators=tuple(generators),
    )


def build_schedule(
    family,
    system: SeminormSystem,
    rng: random.Random | None = None,
    prefix_samples: int = 50,
) -> ScheduledFamily:
    """Full pipeline: renumber, split, damp, replicate, flatten."""
    ops = list(family)
    if not ops:
        raise DegenerateInputError("build_schedule needs a nonempty family")
    working = []
    for p, op in enumerate(ops, start=1):
        if op.rank == 0:
            raise ZeroOperatorError(f"family member {p} is the zero operator")
        working.append(smallest_norm_level(op, system, working[-1] if working else 0))
    rng = rng or random.Random(0)
    blocks = []
    for p, op in enumerate(ops, start=1):
        split = rank_one_split(op, system, control_levels=working[:p])
        blocks.append(scale_and_replicate(split, system, rng, prefix_samples))
    return flatten_schedule(blocks)
