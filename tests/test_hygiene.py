"""Source hygiene of the package, checked with the standard library's ast.

Ten rules: no module imports a name it never uses (`__init__` exists to
re-export and is exempt; the test modules follow this rule too), every
import sits at module level, where a reader sees a module's dependencies at
once, no module outside `scalars` spells a float slack literal such as 1e-9,
because float-mode comparisons take their slack from `scalars.Tolerances`
through the helpers there, every private module-level function or class
is used in its own module outside its own body, because no other module may
call it and an unused one is dead code, and no module outside `operators`
reads a `.matrix` attribute, because an operator stores its columns and its
dense matrix is a derived view that stays behind that one module, and every
module-level name that a module assigns (outside `__init__`, dunders
exempt) is read somewhere in the package, in an expression or an
annotation, because an alias or constant that nothing reads is dead code,
and each seminorm kind states its levels once, in `level_groups`: in
`seminorms`, no class defines `combiner`, and a seminorm system defines
`value` only on the base class, which derives it from the groups, and on
the Vogt and sup-partial kinds, whose float sums keep their own order,
and the Vogt kind states its split once: one function compares a site's
`nu` with the threshold, `split_value` and `split_groups` both read it, and
`nuclearity_certificate` reads the split's functionals, so it compares no
`nu` and calls no `rho.value` of its own,
and every function reads each of its parameters, `*args` and `**kwargs`
included, in its body (`self`, `cls`, `_`-names and bodies that only raise
are exempt), because an input that the function ignores tells its callers
that it matters, and every method or property of a class (dunders exempt)
is read by name somewhere in the package outside its own body, because a
member that only its own tests call is dead code.
"""

import ast
import re
from pathlib import Path

import pytest

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
    assert not found, f"slack literals belong in scalars.Tolerances: {found}"


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
    """No kind restates its levels.  Vogt keeps its own value only for the float
    summation order that documents pin, not for a second statement of the split,
    which test_the_vogt_split_is_stated_once checks."""
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
    assert owners("value", systems) <= {"SeminormSystem", "VogtSeminorms", "SupPartialSumSeminorms"}
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
    for reader in ("split_value", "split_groups"):
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


def test_the_rules_see_the_package():
    assert {"scalars.py", "vogt.py", "normability.py"} <= {m.name for m in MODULES}
    assert {"test_hygiene.py", "test_jsonio.py"} <= {m.name for m in TEST_MODULES}
