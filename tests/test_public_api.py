"""Every public symbol of the package is used by package code: a
module-level function or class, and each public method, property and
annotated field of a class. A symbol that only the tests use is dropped,
or moved into the tests. The benchmark's entry points and probes resolve,
and a traced pass reports every per-layer metric as a finite number.
No package file names numpy's random package. A config dataclass states
each field's range in its annotation, not in its __post_init__. The
README names every rule the run bundle checks across config sections."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import laycon
from laycon.errors import field_hints
from laycon.scenarios import RunBundle

SRC = Path(laycon.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
README = Path(__file__).resolve().parents[1] / "README.md"
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


TRACED_PASS = """
import contextlib, io, json, math, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import laycon.cli as cli
from tracer import Tracer, collect_workers, layer_metrics, merge_states

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    tracer = Tracer(tmp / "workers")
    tracer.install()
    overlay = tmp / "short.json"
    overlay.write_text('{"sim": {"t_end": 0.5}}')
    common = ["--config", str(overlay), "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["run", "--scenario", "b", "--seed", "0", *common, str(tmp / "run")]),
                 cli.main(["sweep", "--scenario", "a", "--seeds", "2", *common, str(tmp / "sweep")])]
    snap = tracer.snapshot()
    state = merge_states([snap["state"]] + collect_workers(tmp / "workers"))
    metrics, _ = layer_metrics(state, snap["installed"])
not_numbers = [name for name, value in metrics.items()
               if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)]
print(json.dumps({"codes": codes, "missing": snap["missing"], "not_numbers": not_numbers,
                  "metrics": metrics}, allow_nan=False))
"""


def test_traced_pass_reports_every_metric_as_a_number():
    """A traced run and sweep report each per-layer metric as a finite
    number that strict JSON encodes, so the benchmark's last line is always
    a readable result. A subprocess, because the tracer rebinds laycon's
    functions in place."""
    proc = subprocess.run([sys.executable, "-c", TRACED_PASS, str(SRC.parent), str(TRACER.parent)],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["missing"] == []
    assert out["not_numbers"] == []
    # run.py adds the last two from the pass as a whole
    names = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    assert set(out["metrics"]) == names - {"cli.traj_hash_match", "trace.overhead_s"}


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


def test_readme_names_every_cross_section_rule():
    """Each FieldValueError that RunBundle.__post_init__ raises at a full
    key path (a rule across config sections) appears in the README as
    `config error at <path>: `, whitespace collapsed."""
    readme = " ".join(README.read_text(encoding="utf-8").split())
    tree = ast.parse(textwrap.dedent(inspect.getsource(RunBundle.__post_init__)))
    paths = {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "FieldValueError" and isinstance(node.args[0], ast.Constant)
             and "." in node.args[0].value}
    assert {"sim.r0.0", "sim.t_s", "planner.horizon", "sim.h", "load.segments", "erg.kappa_erg"} <= paths
    undocumented = sorted(p for p in paths if f"config error at {p}: " not in readme)
    assert not undocumented, f"cross-section rules the README does not name: {undocumented}"
