"""Source hygiene of the package, checked with the standard library's ast.

Fifteen rules: no module imports a name it never uses (`__init__` exists to
re-export and is exempt; the test modules follow this rule too), every
import sits at module level, where a reader sees a module's dependencies at
once, no module outside `scalars` spells a float slack literal such as 1e-9,
because the numerical policy is the three constants `scalars.EQ`,
`scalars.RANK` and `scalars.DECAY`, read through the helpers there, every private module-level function or class
is used in its own module outside its own body, because no other module may
call it and an unused one is dead code, and no module outside `operators`
reads a `.matrix` attribute, because an operator stores its columns and its
dense matrix is a derived view that stays behind that one module, and every
module-level name that a module assigns (outside `__init__`, dunders
exempt) is read somewhere in the package, in an expression or an
annotation, because an alias or constant that nothing reads is dead code,
and each seminorm kind states its levels once, in `level_groups`: in
`seminorms`, no class defines `combiner`, and a seminorm system defines
`value` only on the base class, as the one-level case of `values`, and
`values` only on the base class, which turns `raw_values` into scalars, and
`raw_values` on the base class, which derives it from the groups, and on
the Vogt and sup-partial kinds, whose float sums keep their own order,
and the Vogt kind states its split once: one function compares a site's
`nu` with the threshold, `raw_splits` and `split_groups` both read it, and
`nuclearity_certificate` reads the split's functionals, so it compares no
`nu` and calls no `rho.value` of its own,
and every function reads each of its parameters, `*args` and `**kwargs`
included, in its body (`self`, `cls`, `_`-names and bodies that only raise
are exempt), because an input that the function ignores tells its callers
that it matters, and every method or property of a class (dunders exempt)
is read by name somewhere in the package outside its own body, because a
member that only its own tests call is dead code, and the mode is the only
numerical setting: no function has a parameter named `tol` or `cap`, and only
`scalars`, `linalg` and the vertex slack of `polyhedral._vertices` call
`rank_tol`, because a threshold or a cap that each caller passes is one more
statement of the policy that `scalars` and `polyhedral.CAP` state once (one
test calls the knobs that are gone and sees TypeError), and a part, a vector
or an operator, meets the box and mode of what reads it in one place: outside
`spaces.check_part`, no comparison puts a `.box` or `.mode` attribute against
another one or against a name `box` or `mode`, because each copy of that rule
drifts in its message and its exception type, and every codec
record is a plain value: each class in `jsonio.KINDS` is a frozen record,
and no class in the package defines `__get__`, because a record that compares
by identity, or a field that measures when it is read, breaks
decode(encode(x)) == x or makes `==` do work, and a row reaches every
failure branch of the package (a raise of CertificateFailureError or
ConstructionSoundnessError, a verdict set to False, a failed report
returned), or BRANCH_ALLOWLIST names it with its reason, because a branch
that cannot fire certifies nothing, and a document enters every function and
method of the package, or API_ALLOWLIST names it with its reason, because code
that no `bapkit run` reaches is dead or is public API that says so (the record
methods that no run may enter, such as a write to a frozen field, count as
reached when the dataclass oracle of `test_jsonio` enters them).  The
branch rule runs the rows in a fresh interpreter under a tracer that looks
only inside the functions holding a branch, never the whole suite; the
function rule runs every GOLDEN and SCALED config, and the failing short
decay table, through the command line in a fresh interpreter under a call
hook that notes each code object entered.  Each of the two has a self-check
on one copy of the package, which adds an unreachable raise and an uncalled
public function.
"""

import ast
import contextlib
import dataclasses
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bapkit import cli, jsonio
from bapkit._record import record
from bapkit.embedding import certify_equicontinuity
from bapkit.scalars import sum_products
from test_golden import GOLDEN, SCALED, THIRD_TABLE

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bapkit"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))
SLACK_LITERAL = re.compile(r"[0-9]e-[0-9]", re.IGNORECASE)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _annotation_names(node):
    """Names inside an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree):
    """Names read in expressions or annotations, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            used.update(_annotation_names(ann))
    return used


@pytest.mark.parametrize(
    "path",
    [m for m in MODULES if m.name != "__init__.py"] + TEST_MODULES,
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = {
        f"{path.name}:{sub.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    }
    assert not nested, f"function-local imports: {sorted(nested)}"


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "scalars.py"], ids=lambda p: p.name)
def test_no_float_slack_literals_outside_scalars(path):
    source = path.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            text = ast.get_source_segment(source, node)
            if SLACK_LITERAL.search(text):
                found.append(f"{path.name}:{node.lineno} {text}")
    assert not found, f"slack literals belong in scalars.EQ/RANK/DECAY: {found}"


def _name_counts(node):
    counts = {}
    for name in (sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)):
        counts[name] = counts.get(name, 0) + 1
    return counts


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_helpers_are_used_in_their_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    everywhere = _name_counts(tree)
    orphans = [
        f"{path.name}:{node.lineno} {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere.get(node.name, 0) == _name_counts(node).get(node.name, 0)
    ]
    assert not orphans, f"private helpers unused in their module: {orphans}"


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "operators.py"], ids=lambda p: p.name)
def test_only_operators_reads_the_dense_matrix(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    ]
    assert not reads, f"operators store columns; read those, not .matrix: {reads}"


def test_module_level_names_are_read_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = set().union(*map(_used_names, trees.values()))
    unread = [
        f"{path.name}:{node.lineno} {name.id}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and not name.id.startswith("__") and name.id not in read
    ]
    assert not unread, f"module-level names nothing reads: {unread}"


def _attribute_reads(node):
    """How often each name is read as an attribute; a local name or parameter
    of the same spelling is not a read of a member."""
    counts = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            counts[sub.attr] = counts.get(sub.attr, 0) + 1
    return counts


# public members that only callers outside the package read, each with its reason
READ_OUTSIDE = {
    # the constructor of a table-kind decay table from a full grid
    ("RhoTable", "from_grid"),
    # the truncation P_t y that the basis criterion is stated with
    ("BasisSpaceElement", "prefix"),
    # a Cauchy family with its modulus measured on a system; the CLI's unfloored
    # families claim no modulus, so they are built without it
    ("CauchyFamily", "from_vectors"),
}


def test_every_member_is_read_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    everywhere = {}
    for tree in trees:
        for name, count in _attribute_reads(tree).items():
            everywhere[name] = everywhere.get(name, 0) + count
    unread = [
        f"{cls.name}.{member.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("__")
        and (cls.name, member.name) not in READ_OUTSIDE
        and everywhere.get(member.name, 0) == _attribute_reads(member).get(member.name, 0)
    ]
    assert not unread, f"methods and properties nothing else in the package reads: {unread}"


def test_each_seminorm_level_is_defined_once():
    """No kind restates its levels.  Every kind turns its raw read into scalars through
    the base class's values; Vogt keeps its own raw_values only for the float summation
    order that documents pin, not for a second statement of the split, which
    test_the_vogt_split_is_stated_once checks, and sup-partial for its max over the
    partial sums."""
    tree = ast.parse((PACKAGE / "seminorms.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    systems = {"SeminormSystem"} | {
        c.name for c in classes if any(getattr(b, "id", None) == "SeminormSystem" for b in c.bases)
    }

    def owners(method, among):
        return {
            c.name
            for c in classes
            if c.name in among
            for node in c.body
            if isinstance(node, ast.FunctionDef) and node.name == method
        }

    assert owners("combiner", {c.name for c in classes}) == set()
    assert owners("value", systems) == {"SeminormSystem"}
    assert owners("values", systems) == {"SeminormSystem"}
    assert owners("raw_values", systems) == {
        "SeminormSystem", "VogtSeminorms", "SupPartialSumSeminorms"
    }
    assert {"KoetheSeminorms", "MaxPrefixSeminorms", "CustomSeminorms"} <= owners("level_groups", systems)


def _compares_nu(node):
    """Whether a comparison in node has the name nu as an operand."""
    return any(
        isinstance(sub, ast.Compare)
        and any(isinstance(op, ast.Name) and op.id == "nu" for op in [sub.left, *sub.comparators])
        for sub in ast.walk(node)
    )


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_the_vogt_split_is_stated_once():
    seminorms = ast.parse((PACKAGE / "seminorms.py").read_text(encoding="utf-8"))
    (vogt_class,) = [
        node for node in seminorms.body
        if isinstance(node, ast.ClassDef) and node.name == "VogtSeminorms"
    ]
    methods = _functions(vogt_class)
    rules = [name for name, node in methods.items() if _compares_nu(node)]
    assert len(rules) == 1, f"VogtSeminorms compares nu in {rules}"
    rule = rules[0]
    for reader in ("raw_splits", "split_groups"):
        assert rule in _attribute_reads(methods[reader]), f"{reader} does not read {rule}"
    vogt = ast.parse((PACKAGE / "vogt.py").read_text(encoding="utf-8"))
    certificate = _functions(vogt)["nuclearity_certificate"]
    assert not _compares_nu(certificate)
    rho_values = [
        sub.lineno
        for sub in ast.walk(certificate)
        if isinstance(sub, ast.Attribute) and sub.attr == "value"
        and "rho" in (getattr(sub.value, "id", None), getattr(sub.value, "attr", None))
    ]
    assert rho_values == [], f"nuclearity_certificate calls rho.value at lines {rho_values}"


def _only_raises(body):
    """A body of an optional docstring and raise statements, such as an abstract method's."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return bool(body) and all(isinstance(stmt, ast.Raise) for stmt in body)


def _parameters(args):
    yield from args.posonlyargs + args.args + args.kwonlyargs
    yield from (a for a in (args.vararg, args.kwarg) if a is not None)


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter that its function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _only_raises(node.body):
            continue
        exempt = {"self", "cls"} | {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for arg in _parameters(node.args):
            if arg.arg not in exempt and not arg.arg.startswith("_"):
                yield node.lineno, node.name, arg.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = [f"{path.name}:{line} {fn}({arg})" for line, fn, arg in _unread_parameters(tree)]
    assert not unread, f"parameters the function never reads: {unread}"


def test_the_parameter_rule_flags_an_unread_input():
    source = """
def embed(system, schedule, x, *args, **kwargs):
    return schedule, x
def level_groups(self, k):
    "Abstract."
    raise NotImplementedError
def helper(_unused, cls, *parts):
    return parts
"""
    found = [(fn, arg) for _, fn, arg in _unread_parameters(ast.parse(source))]
    assert found == [("embed", "system"), ("embed", "args"), ("embed", "kwargs")]


# parameters that would restate the numerical policy at each call
KNOBS = {"tol", "cap"}
# who turns a mode into the float zero threshold, "*" for any function: scalars, which
# defines it, linalg, which eliminates with it, and polyhedral's vertex slack
RANK_TOL_CALLERS = {("scalars", "*"), ("linalg", "*"), ("polyhedral", "_vertices")}


def _setting_violations(tree, module):
    """(line, what) for each parameter named as a knob, and each call of rank_tol, by name
    or as an attribute, outside RANK_TOL_CALLERS."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = getattr(child, "name", scope)
                knobs = [arg.arg for arg in _parameters(child.args) if arg.arg in KNOBS]
                found.extend((child.lineno, f"parameter {knob}") for knob in knobs)
            elif isinstance(child, ast.Call) and "rank_tol" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                if not {(module, "*"), (module, scope)} & RANK_TOL_CALLERS:
                    found.append((child.lineno, f"rank_tol call in {scope}"))
            visit(child, inner)

    visit(tree, None)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_mode_is_the_only_numerical_setting(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{line} {what}" for line, what in _setting_violations(tree, path.stem)]
    assert not found, f"pass the mode; the policy is stated in scalars and polyhedral.CAP: {found}"


def test_the_setting_rule_flags_a_knob_and_a_threshold():
    source = """
def sup(rows, mode, cap=10):
    return rows, mode, cap
def rank(rows, *, tol):
    return rows, tol, lambda tol: tol
def level(system):
    return rank_tol(system.mode), scalars.rank_tol(system.mode)
def _vertices(mode):
    return rank_tol(mode)
"""
    tree = ast.parse(source)
    knobs = [(2, "parameter cap"), (4, "parameter tol"), (5, "parameter tol")]
    level = [(7, "rank_tol call in level")] * 2
    assert _setting_violations(tree, "vogt") == knobs + level + [(9, "rank_tol call in _vertices")]
    assert _setting_violations(tree, "polyhedral") == knobs + level
    assert _setting_violations(tree, "linalg") == knobs


@pytest.mark.parametrize("call", [
    lambda: certify_equicontinuity(None, None, factor=5),
    lambda: sum_products([], "rational", absolute=True),
], ids=["factor", "absolute"])
def test_a_removed_knob_raises_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


# the attributes that tie a part, a vector or an operator, to its space
PART_FIELDS = {"box", "mode"}


def _part_comparisons(tree, module):
    """(line, comparison) for each comparison that puts a .box or .mode attribute against
    another one or against a name box or mode, outside spaces.check_part."""
    exempt = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (module, node.name) == ("spaces", "check_part")
        for sub in ast.walk(node)
    }

    def field(node):
        return isinstance(node, ast.Attribute) and node.attr in PART_FIELDS

    def peer(node):
        return field(node) or isinstance(node, ast.Name) and node.id in PART_FIELDS

    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in exempt
        for left, right in zip([node.left, *node.comparators], node.comparators)
        if field(left) and peer(right) or peer(left) and field(right)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_check_part_compares_a_part_with_its_space(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{line} {text}" for line, text in _part_comparisons(tree, path.stem)]
    assert not found, f"call spaces.check_part or check_parts: {found}"


def test_the_part_rule_flags_a_box_comparison():
    source = """
def check_part(box, mode, part, what):
    return part.box is not box and part.mode != mode
def add(self, x):
    if x.box != self.box:
        raise ValueError
    return self.mode == RATIONAL or x.box is None or box == mode or mode < x.mode < 2
"""
    tree = ast.parse(source)
    add = [(5, "x.box != self.box"), (7, "mode < x.mode < 2")]
    assert _part_comparisons(tree, "spaces") == add
    inside = [(3, "part.box is not box"), (3, "part.mode != mode")]
    assert sorted(_part_comparisons(tree, "operators")) == sorted(inside + add)


def is_record(cls) -> bool:
    """Whether cls is a frozen record: _record.record gave it its methods."""
    return getattr(cls.__dict__.get("__setattr__"), "__module__", None) == record.__module__


def _plain_value_violations(classes, trees):
    """Each class that is not a frozen record, and each class in the (name, tree)
    pairs that defines __get__, so that reading its attribute runs code."""
    found = [f"{cls.__name__} is not a frozen record" for cls in classes if not is_record(cls)]
    found += [
        f"{name}:{node.lineno} {node.name} defines __get__"
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(m, ast.FunctionDef) and m.name == "__get__" for m in node.body)
    ]
    return found


def test_every_codec_record_is_a_plain_value():
    classes = [record.cls for record in jsonio.KINDS.values()]
    trees = [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES]
    found = _plain_value_violations(classes, trees)
    assert not found, f"records compare by value and read no field lazily: {found}"


def test_the_plain_value_rule_flags_an_identity_record_and_a_descriptor():
    class Table:
        def __init__(self, rows):
            self.rows = rows

    @dataclasses.dataclass
    class Mutable:
        rows: tuple

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        rows: tuple

    @record
    class Plain:
        rows: tuple

    source = """
class MeasuredOnRead:
    def __get__(self, obj, owner=None):
        return obj
class Reader:
    def get(self):
        return self
"""
    found = _plain_value_violations([Table, Mutable, Frozen, Plain], [("m.py", ast.parse(source))])
    assert found == [
        "Table is not a frozen record",
        "Mutable is not a frozen record",
        "Frozen is not a frozen record",
        "m.py:2 MeasuredOnRead defines __get__",
    ]


def test_the_command_line_imports_no_code_generation_or_introspection():
    # dataclasses compiled every record's methods with exec at import and pulled in inspect
    # and ast, and typing cost as much again; each fresh `bapkit run` paid for all four
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bapkit.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'typing', 'ast') if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"


# ---------------------------------------------------------------------------
# failure branches


FAILURE_ERRORS = {"CertificateFailureError", "ConstructionSoundnessError"}


def _literal(path, name):
    """The value of a module-level literal assignment, read without importing its module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


# the tests that the branch gate runs: the rows that make each document check fail, and a
# test for each failure branch that those rows leave unreached
BRANCH_ROWS = (
    "tests/test_cli.py::test_each_check_can_fail_on_its_own",
    "tests/test_cli.py::test_each_check_can_fail_on_its_own_in_float_mode",
    "tests/test_cli.py::test_each_raising_check_can_fail",
    *_literal(TESTS / "test_cli.py", "FUNCTION_LEVEL_ROWS").values(),
    "tests/test_jsonio.py::test_a_schedule_record_with_swapped_generators_is_refused",
    "tests/test_embedding.py::test_certificate_lower_bound_fails_when_the_graded_value_reads_zero",
    "tests/test_normability.py::test_cauchy_family_modulus_measurement",
    "tests/test_normability.py::"
    "test_basis_sup_norms_fails_its_upper_bound_with_a_tenth_of_the_constant",
    "tests/test_operators.py::"
    "test_levels_listed_against_the_grading_give_a_filtration_that_is_not_nested",
    "tests/test_operators.py::test_a_bad_filtration_fails_a_postcondition_of_the_complements",
    "tests/test_operators.py::test_a_broken_gram_inversion_fails_the_split",
    "tests/test_operators.py::test_a_range_basis_missing_a_pivot_fails_the_schedule_total",
    "tests/test_vogt.py::"
    "test_a_float_cauchy_level_of_two_to_the_54_makes_the_decay_entry_too_large",
    "tests/test_vogt.py::test_a_decay_entry_that_rounds_to_zero_in_float_mode_leaves_no_floor",
)

# failure branches that no row reaches, each with the reason it stays
BRANCH_ALLOWLIST = {
    ("vogt", "bap_failure_witness", "cauchy modulus exceeds its geometric tail form"): (
        "a float-tolerance guard: every finite segment sum lies strictly below its geometric"
        " tail, exactly in rational mode, and float rounding stays under eq for fewer than"
        " some thousands of members"
    ),
}


def _text(node):
    """A message's text: a string as it is, an f-string with {} for each field."""
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return node.value if isinstance(node, ast.Constant) else ast.unparse(node)


def _is_false(node):
    return isinstance(node, ast.Constant) and node.value is False


def _branch_label(node, condition):
    """node's label as a failure branch, or None when it is none: a raise's message, a verdict
    set to False with the condition it sits under, or a returned report (a class called) built
    with False."""
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        if getattr(node.exc.func, "id", None) in FAILURE_ERRORS:
            return _text(node.exc.args[0]) if node.exc.args else ""
    elif isinstance(node, ast.Assign) and _is_false(node.value):
        return f"{ast.unparse(node.targets[0])} = False {condition}"
    elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
        call = node.value
        report = isinstance(call.func, ast.Name) and call.func.id[:1].isupper()
        if report and any(map(_is_false, call.args + [k.value for k in call.keywords])):
            return ast.unparse(node)
    return None


def _failure_branches(package):
    """{(module, function, label): (path, line)} for every failure branch of the package.

    function is the dotted name of the classes and functions around the branch, and label
    is _branch_label's, so no key names a line.
    """
    branches = {}

    def visit(node, path, scope, condition):
        label = _branch_label(node, condition)
        if label is not None:
            key = (path.stem, scope, label)
            assert key not in branches, f"two failure branches share the key {key}"
            branches[key] = (path, node.lineno)
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if not isinstance(child, ast.AST):
                    continue
                inner, sub = scope, condition
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner, sub = f"{scope}.{child.name}".lstrip("."), ""
                elif isinstance(node, ast.If) and field in ("body", "orelse"):
                    sub = f"{'if' if field == 'body' else 'unless'} {ast.unparse(node.test)}"
                elif isinstance(node, ast.ExceptHandler) and field == "body":
                    sub = f"except {ast.unparse(node.type)}"
                visit(child, path, inner, sub)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "", "")
    return branches


def _trace_rows(out, *rows):
    """Run the rows with pytest under a tracer that looks only inside the functions that hold a
    failure branch, and write to the JSON file out the lines it saw run there, the rows that
    turned it off, and pytest's exit code.  _gate_runs starts this in a fresh interpreter."""
    branches = _failure_branches(PACKAGE)
    # by file and bare name, as a code object names itself on every supported Python
    watched = {(os.path.realpath(path), key[1].rpartition(".")[2]) for key, (path, _) in branches.items()}
    lines, lost, seen = set(), [], {}

    def local(frame, event, _arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        code = frame.f_code
        try:
            return seen[code]
        except KeyError:
            hit = (os.path.realpath(code.co_filename), code.co_name) in watched
            seen[code] = local if hit else None
            return seen[code]

    class Tracing:
        """Installs the tracer for each row's call, and notes a row that turned it off."""

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            sys.settrace(tracer)
            yield
            if sys.gettrace() is not tracer:
                lost.append(item.nodeid)
            sys.settrace(None)

    code = pytest.main(["-q", "-p", "no:cacheprovider", *rows], plugins=[Tracing()])
    ran = sorted({(os.path.realpath(path), line) for path, line in lines})
    Path(out).write_text(json.dumps({"exit": int(code), "lines": ran, "lost": lost}))


def _start(root, scratch, script, *args):
    """Start script on the checkout at root in a fresh interpreter, with the checkout's tests
    first on its path and sys.argv[2] the JSON file that it writes its result to, in scratch."""
    scratch.mkdir()
    with open(scratch / "output.txt", "w") as output:
        process = subprocess.Popen(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, sys.argv[1]); {script}",
             str(root / "tests"), str(scratch / "result.json"), *args],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=output, stderr=subprocess.STDOUT,
        )
    return root, scratch, process


def _wait(scratch, process, missing):
    """A started run's result, or missing when it wrote none, and its output."""
    process.wait(timeout=300)  # each run takes seconds; _gate_runs kills a run that hangs
    result = scratch / "result.json"
    output = (scratch / "output.txt").read_text()
    return (json.loads(result.read_text()) if result.exists() else missing), output


def _finish_run(root, scratch, process):
    """A started BRANCH_ROWS run's result: the checkout's failure branches, the keys of those
    that the rows reach, the rows that turned the tracer off, and pytest's exit code and output."""
    traced, output = _wait(scratch, process, {"exit": None, "lines": [], "lost": []})
    ran = {tuple(pair) for pair in traced["lines"]}
    branches = _failure_branches(root / "src" / "bapkit")
    reached = {key for key, (path, line) in branches.items() if (os.path.realpath(path), line) in ran}
    return branches, reached, traced["lost"], traced["exit"], output


INJECTED_KEY = ("vogt", "bap_failure_witness", "decay entry is not a number")
INJECTED_FUNCTION = ("vogt", "witness_summary")


@functools.cache
def _gate_runs():
    """The two gates' four runs, started together so that they overlap: BRANCH_ROWS and the
    REACH_CONFIGS documents on this checkout, and both on one copy of it, whose witness
    construction has one more raise, which nothing reaches, since a float decay entry is never
    NaN, and whose vogt module ends in one more public function, which nothing calls."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "copy"
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(PACKAGE, copy / "src" / "bapkit", ignore=skip)
        shutil.copytree(TESTS, copy / "tests", ignore=skip)
        shutil.copy(TESTS.parent / "pyproject.toml", copy)
        vogt = copy / "src" / "bapkit" / "vogt.py"
        anchor = "    rho = instance.rho.value(mu, nu, mode)\n"
        source = vogt.read_text(encoding="utf-8")
        assert source.count(anchor) == 1
        injected = f'    if rho != rho:\n        raise CertificateFailureError("{INJECTED_KEY[2]}")\n'
        added = f"\n\ndef {INJECTED_FUNCTION[1]}(witness):\n    return witness.floor\n"
        vogt.write_text(source.replace(anchor, anchor + injected) + added, encoding="utf-8")
        rows = ("import test_hygiene; test_hygiene._trace_rows(*sys.argv[2:])", *BRANCH_ROWS)
        started = {
            (gate, name): (finish, _start(root, Path(scratch) / f"{name}-{gate}", *script))
            for name, root in (("checkout", TESTS.parent), ("copy", copy))
            for gate, finish, script in (
                ("branch", _finish_run, rows), ("reach", _finish_reach, (REACH_SCRIPT,))
            )
        }
        try:
            return {key: finish(*run) for key, (finish, run) in started.items()}
        finally:
            for _, (_, _, process) in started.values():
                process.kill()  # nothing to do for a run that has exited


def _gate_failures(keys, reached, allowlist):
    """The keys, of failure branches or of functions, neither reached nor allowlisted, and the
    allowlist entries that name no unreached key."""
    unreached = sorted(set(keys) - reached - set(allowlist))
    stale = sorted(set(allowlist) - (set(keys) - reached))
    return unreached, stale


def test_every_failure_branch_is_reached_by_a_row_or_allowlisted():
    branches, reached, lost, code, output = _gate_runs()["branch", "checkout"]
    assert code == 0, output
    assert lost == [], f"rows that turned the tracer off: {lost}"
    unreached, stale = _gate_failures(branches, reached, BRANCH_ALLOWLIST)
    assert unreached == [], (
        "failure branches that no row reaches: add a test that reaches each to BRANCH_ROWS,"
        f" or an entry with its reason to BRANCH_ALLOWLIST: {unreached}"
    )
    assert stale == [], f"allowlist entries that name no unreached branch: {stale}"
    # a few float-tolerance guards or linear-algebra postconditions at most; the rest get rows
    assert len(BRANCH_ALLOWLIST) <= 4


def test_the_branch_gate_flags_a_stale_allowlist_entry():
    branches, reached, *_ = _gate_runs()["branch", "checkout"]
    gone = ("vogt", "bap_failure_witness", "no such message")
    reachable = min(reached)
    _, stale = _gate_failures(branches, reached, {**BRANCH_ALLOWLIST, gone: "", reachable: ""})
    assert stale == sorted([gone, reachable])


def test_the_branch_gate_fails_on_a_copy_with_an_unreachable_raise():
    branches, reached, lost, code, output = _gate_runs()["branch", "copy"]
    assert code == 0 and lost == [], output
    assert INJECTED_KEY in branches
    assert _gate_failures(branches, reached, BRANCH_ALLOWLIST) == ([INJECTED_KEY], [])


# ---------------------------------------------------------------------------
# reached functions


# the documents whose calls count: every GOLDEN and SCALED config, and the decay table too short
# for its witness, which fails, in both modes; each is written by `bapkit run`
REACH_CONFIGS = (
    *(
        {"mode": mode, "vogt": {"rho": rho if rho == "dyadic" else THIRD_TABLE}}
        for rho, mode in GOLDEN
    ),
    *(override for override, _ in SCALED.values()),
    *({"suite": "vogt", "mode": mode, "vogt": {"mu_max": 1}} for mode in ("rational", "float")),
)
# `bapkit explain`, then each document's exit code
REACH_EXITS = [0] * (1 + len(GOLDEN) + len(SCALED)) + [1, 1]

# the call hook goes in before bapkit is imported, since its codec runs code at import.  A
# tracer that returns None sees each call of Python code and no line; a profile hook would
# also see each call of a builtin.  On a 2-vCPU host the documents took 4.0 s under it against
# 4.9 s under sys.setprofile on Python 3.11, and 7.9 s against 14.6 s on 3.10
REACH_SCRIPT = (
    "entered = set(); sys.settrace(lambda frame, _event, _arg: entered.add(frame.f_code)); "
    "import test_hygiene; test_hygiene._run_documents(sys.argv[2], entered)"
)


def _run_documents(out, entered):
    """Run `bapkit explain` and `bapkit run` on each of REACH_CONFIGS, decode and re-encode every
    report, as CI's smoke step does, then write to the JSON file out the exit codes and the
    (file, first line) of each code object in entered, which the call hook that REACH_SCRIPT
    installs fills.  _gate_runs starts this in a fresh interpreter."""
    exits = []
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(["explain"]))
        for n, config in enumerate(REACH_CONFIGS):
            path, doc = Path(scratch) / f"config-{n}.json", Path(scratch) / f"doc-{n}.json"
            path.write_text(json.dumps(config))
            exits.append(cli.main(["run", "--config", str(path), "--out", str(doc)]))
            for suite in json.loads(doc.read_text())["suites"].values():
                for result in suite["checks"].values():
                    report = result.get("report")
                    if report is not None:
                        assert jsonio.encode(jsonio.decode(report)) == report
    sys.settrace(None)
    lines = sorted({(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered})
    Path(out).write_text(json.dumps({"exits": exits, "lines": lines}))


def _package_functions(package):
    """{(module, name): (path, lines)} for every function and method in package, name dotted
    with the classes and functions around it, and lines the def's line and its first
    decorator's: a code object's first line is one of the two, depending on the Python."""
    functions = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (path.stem, inner)
                assert key not in functions, f"two functions share the key {key}"
                lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                functions[key] = (os.path.realpath(path), lines)
            visit(child, path, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return functions


def _finish_reach(root, scratch, process):
    """A started REACH_SCRIPT run's result: the checkout's functions, the keys of those that a
    document enters, the exit codes, and the run's output."""
    entered, output = _wait(scratch, process, {"exits": None, "lines": []})
    lines = {tuple(pair) for pair in entered["lines"]}
    functions = _package_functions(root / "src" / "bapkit")
    reached = {
        key for key, (path, starts) in functions.items() if any((path, s) in lines for s in starts)
    }
    return functions, reached, entered["exits"], output


# the rows of item 17's block family, which reach these functions while no document does
BLOCK_ROWS = "tests/test_operators.py::test_the_conjugated_block_family_schedules_in_both_modes"
CUSTOM = "the general seminorm kind, which the property tests build and the codec decodes"

# functions that no document enters, each with the reason it stays
API_ALLOWLIST = {
    ("embedding", "BasisSpaceElement.prefix"): "the truncation P_t y of the basis criterion",
    ("linalg", "in_span"): f"the kernel filtration's nesting check; {BLOCK_ROWS}",
    ("linalg", "mat_vec"): f"the vertex check of a max ball; {BLOCK_ROWS}",
    ("linalg", "solve"): f"a max ball's vertices and in_span; {BLOCK_ROWS}",
    ("linalg", "transpose"): f"the columns that in_span solves for; {BLOCK_ROWS}",
    ("normability", "CauchyFamily.from_vectors"): "a family with its modulus measured",
    ("operators", "FiniteRankOperator.__sub__"): "operator difference, beside __add__",
    ("operators", "telescope"): "the inverse of accumulate: a sequence as its increments",
    ("polyhedral", "_vertices"): f"vertex enumeration of balls that are not square; {BLOCK_ROWS}",
    ("polyhedral", "graded_operator_norm"): "the public one-operator norm; suites score families",
    ("seminorms", "apply_functional"): "a functional's value at a vector",
    ("seminorms", "RhoTable.from_grid"): "a table-kind decay table built from a full grid",
    ("seminorms", "SeminormSystem.level_groups"): "the abstract method each kind overrides",
    ("seminorms", "CustomLevel.__post_init__"): CUSTOM,
    ("seminorms", "CustomSeminorms.__post_init__"): CUSTOM,
    ("seminorms", "CustomSeminorms.level_count"): CUSTOM,
    ("seminorms", "CustomSeminorms.level_groups"): CUSTOM,
    ("seminorms", "SupPartialSumSeminorms.level_groups"): (
        "the sup-partial levels as balls; the normability suite reads their values only"
    ),
    ("spaces", "TruncatedVector.support"): "the indices a vector holds",
    ("spaces", "TruncatedVector.__neg__"): "vector negation, beside __sub__",
    ("spaces", "unit_vector"): "the unit vector e_idx",
}


# the methods that _record.record gives every record, which dataclasses generated outside the
# package's source before: no document hashes or prints a record, or assigns to or deletes a
# field, so test_jsonio's dataclass oracle, which enters each of them on every codec kind (its
# test_the_oracle_enters_every_method_that_a_record_gets checks that), stands in for a document
RECORD_METHODS = {
    ("_record", f"record.{name}") for name in ("__hash__", "__repr__", "__setattr__", "__delattr__")
}


def test_every_function_is_reached_by_a_document_or_allowlisted():
    functions, reached, exits, output = _gate_runs()["reach", "checkout"]
    assert exits == REACH_EXITS, output
    assert RECORD_METHODS <= set(functions)
    unreached, stale = _gate_failures(functions, reached | RECORD_METHODS, API_ALLOWLIST)
    assert unreached == [], (
        "functions that no document enters: delete each, or add an entry with its reason to"
        f" API_ALLOWLIST: {unreached}"
    )
    assert stale == [], f"allowlist entries that name no unreached function: {stale}"
    assert all(reason and "\n" not in reason for reason in API_ALLOWLIST.values())
    # the functions that no document entered when the gate came in; the list only shrinks
    assert len(API_ALLOWLIST) <= 21


def test_the_reach_gate_flags_a_stale_allowlist_entry():
    functions, reached, *_ = _gate_runs()["reach", "checkout"]
    gone = ("polyhedral", "_max_ball_sup")
    reachable = min(reached)
    _, stale = _gate_failures(functions, reached, {**API_ALLOWLIST, gone: "", reachable: ""})
    assert stale == sorted([gone, reachable])


def test_the_reach_gate_fails_on_a_copy_with_an_unreached_public_function():
    functions, reached, exits, output = _gate_runs()["reach", "copy"]
    assert exits == REACH_EXITS, output
    assert INJECTED_FUNCTION in functions
    unreached = _gate_failures(functions, reached | RECORD_METHODS, API_ALLOWLIST)
    assert unreached == ([INJECTED_FUNCTION], [])


def test_a_code_object_starts_at_its_def_or_its_first_decorator(tmp_path):
    source = """
import functools

class Table:
    @property
    @functools.cache
    def rows(self):
        def row():
            return 1
        return row

def width():
    return 2
"""
    path = tmp_path / "table.py"
    path.write_text(source)
    functions = _package_functions(tmp_path)
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    rows = namespace["Table"].rows.fget.__wrapped__.__code__
    (row,) = [c for c in rows.co_consts if isinstance(c, type(rows))]
    codes = {"Table.rows": rows, "Table.rows.row": row, "width": namespace["width"].__code__}
    assert set(functions) == {("table", name) for name in codes}
    for name, code in codes.items():
        path, starts = functions["table", name]
        assert (os.path.realpath(code.co_filename), code.co_firstlineno) in {(path, s) for s in starts}


def test_the_rules_see_the_package():
    assert {"scalars.py", "vogt.py", "normability.py"} <= {m.name for m in MODULES}
    assert {"test_hygiene.py", "test_jsonio.py"} <= {m.name for m in TEST_MODULES}
