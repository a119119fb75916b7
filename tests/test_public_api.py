"""Every module-level public function and class of the package is used by
other package code: a symbol that only the tests use is dropped, or moved
into the tests."""

import ast
from pathlib import Path

import laycon

SRC = Path(laycon.__file__).parent
# tested, but no run reports it yet: the planner's dissipation inequality
# becomes a monitored clause once its bound is floor-corrected
UNUSED_ALLOWED = {"descent_check"}


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
