"""Every public symbol of the package is used by package code: a
module-level function or class, and each public method, property and
annotated field of a class. A symbol that only the tests use is dropped,
or moved into the tests. The benchmark's entry points and probes resolve.
No package file names numpy's random package. A config dataclass states
each field's range in its annotation, not in its __post_init__."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import textwrap
import typing
from pathlib import Path

import laycon
from laycon.errors import field_hints
from laycon.scenarios import RunBundle

SRC = Path(laycon.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# tested, but no run reports it yet: the planner's dissipation inequality
# becomes a monitored clause once its bound is floor-corrected
UNUSED_ALLOWED = {"descent_check"}
UNUSED_MEMBERS_ALLOWED = {
    # the per-period optimal values; the planner's run report will read them
    "TrajectoryLog.v_n_star",
    # the QP multipliers; the planner certificate's exact gradient will read them
    "QpSolution.lam",
    # the QP's value 1/2 x'Hx + g'x, by which criterion 11 checks the solver;
    # the planner sums its own V* = q |x*|^2 in step order
    "QpSolution.objective",
    # the benchmark tracer counts its calls (erg.gamma_i_calls)
    "GammaEvaluator.gamma_i",
}


def public_symbols_and_references() -> tuple[dict[str, str], set[str]]:
    """Module-level public functions and classes (name -> file), and every
    name that package code reads, outside the definition of the name itself.
    A name imported under an alias counts as a read of the original."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[stmt.name] = path.name
                own = stmt.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(aliases.get(node.id, node.id))
    return defined, used


def test_every_public_symbol_is_used_by_package_code():
    defined, used = public_symbols_and_references()
    unused = {f"{defined[name]}:{name}" for name in defined.keys() - used - UNUSED_ALLOWED}
    assert not unused, f"public symbols that no package code uses: {sorted(unused)}"


def test_allowlist_names_unused_symbols_only():
    defined, used = public_symbols_and_references()
    assert UNUSED_ALLOWED <= defined.keys()
    assert not UNUSED_ALLOWED & used


def public_members_and_reads() -> tuple[dict[str, str], set[str]]:
    """Public methods, properties and annotated fields of the package's
    classes ("Class.member" -> file), and every attribute name that package
    code reads, or names in a string (getattr loops over field names)."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not name.startswith("_"):
                    defined[f"{cls.name}.{name}"] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return defined, read


def test_every_public_member_is_read_by_package_code():
    defined, read = public_members_and_reads()
    unread = {f"{path}:{member}" for member, path in defined.items()
              if member.partition(".")[2] not in read and member not in UNUSED_MEMBERS_ALLOWED}
    assert not unread, f"public members that no package code reads: {sorted(unread)}"


def test_member_allowlist_names_unread_members_only():
    defined, read = public_members_and_reads()
    assert UNUSED_MEMBERS_ALLOWED <= defined.keys()
    assert not {member.partition(".")[2] for member in UNUSED_MEMBERS_ALLOWED} & read


def test_benchmark_probes_resolve():
    """Every symbol the benchmark tracer wraps exists, so no traced metric
    reads null; and the driver's entry points exist."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module_name, path, _ in tracer.PROBES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert not missing, f"benchmark probes whose symbol is gone: {missing}"
    cli = importlib.import_module("laycon.cli")
    assert all(callable(getattr(cli, name, None)) for name in ("main", "resolve_config", "load_bundle"))


def test_no_package_file_names_numpy_random():
    """Seeded draws come from numkit.UniformStream, so no disturbance mode
    and no certificate loads numpy's random package (~6 MB and ~14 ms per
    process), and the published seeded outputs do not rest on its
    Generator methods, whose streams numpy does not pin."""
    pattern = re.compile(r"\b(np|numpy)\.random\b")
    named = [f"{path.name}:{number}" for path in sorted(SRC.rglob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert not named, f"package lines that name numpy's random package: {named}"


def config_dataclasses() -> set[type]:
    """The dataclass of each config section a RunBundle holds, and each
    dataclass that one of their fields holds (a load segment row)."""
    found = set()

    def visit(hint):
        if isinstance(hint, type) and dataclasses.is_dataclass(hint) and hint not in found:
            found.add(hint)
            hints = field_hints(hint)
            for f in dataclasses.fields(hint):
                if f.init:
                    visit(hints[f.name])
        for arg in typing.get_args(hint):
            visit(arg)

    hints = field_hints(RunBundle)
    for f in dataclasses.fields(RunBundle):
        if f.init:
            visit(hints[f.name])
    return found


def is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_config_ranges_live_in_annotations():
    """No config dataclass's __post_init__ compares one of its own init
    fields, or getattr(self, name), with a number literal: a range on one
    field's value is its annotation's, which check_fields, the first call
    of every __post_init__, enforces. Comparisons across fields, with a
    named cap or of a derived property stay."""
    classes = config_dataclasses()
    assert {cls.__name__ for cls in classes} >= {"HessParams", "SimConfig", "LoadSegment", "CertificateInputs"}
    flagged = []
    for cls in classes:
        own = {f.name for f in dataclasses.fields(cls) if f.init}
        body = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__))).body[0].body
        first = ast.unparse(body[0])
        assert first == "check_fields(self)", f"{cls.__name__}.__post_init__ starts with {first!r}"

        def reads_own_field(node):
            if isinstance(node, ast.Attribute):
                return isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr in own
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                    and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")

        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(is_number, operands)) and any(map(reads_own_field, operands)):
                    flagged.append(f"{cls.__name__}: {ast.unparse(node)}")
    assert not flagged, f"single-field range checks in __post_init__: {sorted(flagged)}"
