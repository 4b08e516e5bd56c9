"""Import hygiene: every name a truncalg or test module imports is read
somewhere in that module, and every truncalg name the benchmark uses exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncalg"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    """In src/truncalg and in the test modules alike."""
    paths = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = [u for path in paths for u in unused_imports(path)]
    assert not unused, unused


PERFBENCH = SRC.parent.parent / "perfbench"


def _module_assignment(path, name):
    """The literal value assigned to `name` at the top level of path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_perfbench_imports_resolve():
    """Every truncalg name the benchmark imports, and every breuil_kisin and
    smodules function its tracer groups by name, exists; perfbench is only
    read, never imported."""
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "truncalg"):
                continue
            mod = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(mod, alias.name) and importlib.util.find_spec(
                        f"{node.module}.{alias.name}") is None:
                    missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    groups = _module_assignment(PERFBENCH / "tracer.py", "SELF_TIME_GROUPS")
    for spans in groups.values():
        for span in spans:
            modname, _, func = span.partition(".")
            if modname in ("breuil_kisin", "smodules"):
                mod = importlib.import_module(f"truncalg.{modname}")
                if not callable(getattr(mod, func, None)):
                    missing.append(f"tracer.SELF_TIME_GROUPS {span}")
    assert not missing, missing


def module_aliases(tree, src):
    """The names a file binds to truncalg modules (`from . import linalg`,
    `from truncalg import cli`, `from . import modules as mods`)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "truncalg" or (node.level == 1 and node.module is None))
            for alias in node.names if (src / f"{alias.name}.py").exists()}


def unnamed_definitions(root):
    """The top-level functions and classes of src/truncalg that no other
    top-level statement of src/, perfbench/ or scripts/ names, as a variable
    or as an attribute read off a truncalg module alias (`mods.decompose`);
    a method of the same name (`ring.frobenius`) does not count.  With them,
    the methods of those classes that nothing there reads, as an attribute
    (`x.method`) or through a literal `getattr(x, "method")`; dunder methods
    are exempt."""
    src = root / "src" / "truncalg"
    statements = []
    attributes = set()
    for part in ("src", "perfbench", "scripts"):
        for path in sorted((root / part).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            aliases = module_aliases(tree, src)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    attributes.add(node.args[1].value)
            for stmt in tree.body:
                named = set()
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        named.add(node.id)
                    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id in aliases):
                        named.add(node.attr)
                statements.append((path, stmt, named))
    functions = [
        f"{path.name}:{stmt.lineno} {stmt.name}" for path, stmt, _ in statements
        if path.parent == src and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in named for _, other, named in statements if other is not stmt)]
    methods = [
        f"{path.name}:{node.lineno} {stmt.name}.{node.name}" for path, stmt, _ in statements
        if path.parent == src and isinstance(stmt, ast.ClassDef)
        for node in stmt.body if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes]
    return sorted(functions + methods)


def test_every_engine_definition_is_named():
    """The engine keeps only what a command, the benchmark or a script
    reaches: code that only tests run lives test-side (tests/lemmas.py,
    tests/helpers.py).  An import alone does not count as a use, and the
    rule holds for methods too."""
    unnamed = unnamed_definitions(SRC.parent.parent)
    assert not unnamed, unnamed


def verdict_names(src):
    """The names a verdict goes by in src/truncalg: every field that a class
    there declares `bool`."""
    return {node.target.id for path in sorted(src.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.annotation, ast.Name) and node.annotation.id == "bool"}


def verdict_asserts(tree, verdicts):
    """Line numbers of the `assert`s in a module whose test reads a verdict:
    a name in `verdicts`, or any name with "verdict" in it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            read = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.test)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            if any(r in verdicts or "verdict" in r for r in read):
                lines.append(node.lineno)
    return lines


def test_no_assert_compares_a_verdict():
    """`python -O` drops every `assert`, so a verdict cross-check in
    src/truncalg raises an error instead; the asserts left check shapes and
    internal invariants.  The guard sees the oracle's old bare check."""
    verdicts = verdict_names(SRC)
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in verdict_asserts(ast.parse(path.read_text(), filename=str(path)),
                                         verdicts)]
    assert found == []
    old = "assert verdict == (v in split_set), f\"SES split test disagrees at v={v}\"\n"
    assert verdict_asserts(ast.parse(old), verdicts) == [1]
    assert verdict_asserts(ast.parse("assert report.split == multisets_equal\n"), verdicts) == [1]


# records that `schemas.jsonable` writes into a report whole, through vars():
# the report reads each of their fields by name
SERIALIZED_WHOLE = {"CocycleOracleResult"}


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def unread_fields(root):
    """The fields of each `@dataclass` of src/truncalg that nothing in src/,
    tests/, perfbench/ or scripts/ reads, as an attribute (`x.field`) or
    through a literal `getattr(x, "field")`.  Records in SERIALIZED_WHOLE
    are exempt.  The match is on the attribute name alone, so a field
    escapes when code reads an attribute of that name off any object: a
    `SpectralPage.r` or a `SupportResult.certificate` would not be caught."""
    read = set()
    for part in ("src", "tests", "perfbench", "scripts"):
        for path in sorted((root / part).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    read.add(node.args[1].value)
    return sorted(
        f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
        for path in sorted((root / "src" / "truncalg").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        and cls.name not in SERIALIZED_WHOLE
        for node in cls.body if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name) and node.target.id not in read)


def test_every_record_field_is_read():
    """A record keeps only the fields some code reads."""
    unread = unread_fields(SRC.parent.parent)
    assert not unread, unread


FAMILIES = {"RingBase", "ChainRing", "LocalizedIntegers", "TruncatedPadic",
            "TruncatedPowerSeries", "TruncatedBK", "TruncatedLambda"}


def ring_attributes(rings_path):
    """Every name a class of rings.py defines: methods, properties, fields
    and class attributes, the record's facts among them."""
    names = set()
    for cls in ast.parse(rings_path.read_text()).body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
                elif isinstance(node, ast.Assign):
                    names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def family_dispatch(src):
    """The family decisions made at a call site in src/truncalg: an
    `isinstance` test against a ring-family class that is not the whole
    test of an `if` whose body only raises (a refusal), a `hasattr` or a
    defaulted `getattr` of a ring attribute, and an `isinstance(x, tuple)`
    guess at an element's shape."""
    attrs = ring_attributes(src / "rings.py")
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refusals = {id(node.test.operand if isinstance(node.test, ast.UnaryOp) else node.test)
                    for node in ast.walk(tree) if isinstance(node, ast.If)
                    and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)
                    and not node.orelse}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            fn, args, where = node.func.id, node.args, f"{path.name}:{node.lineno}"
            if fn == "isinstance" and len(args) == 2:
                kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
                named = {k.id for k in kinds if isinstance(k, ast.Name)}
                if named & FAMILIES and id(node) not in refusals:
                    found.append(f"{where} isinstance against {sorted(named & FAMILIES)}")
                if named == {"tuple"} and not isinstance(args[1], ast.Tuple):
                    found.append(f"{where} isinstance(..., tuple)")
            elif (fn == "hasattr" or fn == "getattr" and len(args) == 3) and len(args) > 1 \
                    and isinstance(args[1], ast.Constant) and args[1].value in attrs:
                found.append(f"{where} {fn} of ring attribute {args[1].value!r}")
    return found


def test_family_decisions_stay_in_the_record():
    """Callers read a ring's record (`rings`) or linalg's `_BASE` table: the
    only family tests left in src/truncalg are refusals, and nothing guesses
    a family by probing its attributes or its elements' shape."""
    assert family_dispatch(SRC) == []
