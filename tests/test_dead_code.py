"""No dead code in src/regdyn, by the stdlib ast module alone: every import
is used by its module (or marked `# noqa: F401`), and every top-level
function or class, and every method or property of a class that is not a
dunder, is named somewhere under src/, tests/, demos/ or regbench/ outside
its own body."""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regdyn"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@functools.cache
def _trees() -> dict:
    files = [p for d in ("src", "tests", "demos", "regbench") for p in (ROOT / d).rglob("*.py")]
    return {p: _parse(p) for p in files}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node) -> set:
    """The identifiers read under node: names, attributes, names imported
    from a module, and string constants that are identifiers (`__all__`
    lists, `getattr` and `monkeypatch.setattr` targets)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree, lines = _parse(path), path.read_text().splitlines()
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in lines[k - 1]
                   for k in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, unused


def test_every_top_level_definition_is_named_elsewhere():
    named = set()  # the names read outside the src/regdyn definitions
    defs = []
    for path, tree in _trees().items():
        for node in tree.body:
            if path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, node))
            else:
                named |= _names(node)
    # a definition counts as named when another definition reads it; its own body does not
    reads = [_names(node) for _path, node in defs]
    readers = Counter(name for names in reads for name in names)
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for (path, node), own in zip(defs, reads)
            if not _is_dunder(node.name)
            and node.name not in named and readers[node.name] == (node.name in own)]
    assert not dead, dead


def test_every_method_is_named_outside_its_own_body():
    # each method of a src/regdyn class is one unit; every other top-level
    # statement, and the rest of each class (bases, decorators, attributes),
    # is another
    units, methods = [], []
    for path, tree in _trees().items():
        for node in tree.body:
            if path.parent != PACKAGE or not isinstance(node, ast.ClassDef):
                units.append(_names(node))
                continue
            rest = node.bases + node.keywords + node.decorator_list
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    units.append(_names(member))
                    methods.append((f"{path.name}:{member.lineno} {node.name}.{member.name}",
                                    member.name, units[-1]))
                else:
                    rest.append(member)
            units.append(set().union(*map(_names, rest)))
    readers = Counter(name for names in units for name in names)
    dead = [where for where, name, own in methods
            if not _is_dunder(name) and readers[name] == (name in own)]
    assert not dead, dead
