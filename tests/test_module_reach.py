"""Every module under ``src/repro`` is reachable from the command line.

A static reach scan over the import graph, done with ``ast`` alone
(nothing under test is imported).  The roots are ``repro.__main__``,
``repro.cli`` and the experiment modules the CLI loads by name
(``_experiment("chaos")``, ``_storm("bitrot", ...)``).  Importing a
module also runs its packages' ``__init__``; imports guarded by
``if TYPE_CHECKING:`` never run and do not count.  A module no root
reaches is dead code unless it is allowlisted below with its reason.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = ("repro.__main__", "repro.cli")

#: Modules kept on purpose although no CLI path imports them.
ALLOWED_UNREACHED = {
    "repro.core.exact": "MILP oracle the tests check the solver against",
    "repro.obs.gate": "CI metrics-regression gate, run from benchmarks/",
    "repro.experiments.multitenant": "documented experiment E17",
}

#: CLI helpers whose first argument names a ``repro.experiments`` module.
_LOADERS = ("_experiment", "_storm")


def _modules() -> Dict[str, Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``tree`` except the bodies of TYPE_CHECKING guards."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _imports(name: str, path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules that importing ``name`` can import."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: Set[str] = set()
    for node in _runtime_nodes(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module or ""
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (
            name == "repro.cli"
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _LOADERS
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            found.add(f"repro.experiments.{node.args[0].value}")
    return {module for module in found if module in modules}


def _reached() -> Set[str]:
    modules = _modules()
    reached: Set[str] = set()
    frontier = list(ROOTS)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            frontier.append(parent)  # a package's __init__ runs first
        frontier.extend(_imports(name, modules[name], modules))
    return reached


def test_every_module_is_reached_or_allowlisted():
    unreached = set(_modules()) - _reached() - set(ALLOWED_UNREACHED)
    assert not unreached, (
        "modules no CLI path imports; wire them in, delete them, or "
        f"allowlist them with a reason: {sorted(unreached)}"
    )


def test_allowlist_is_current():
    modules = _modules()
    reached = _reached()
    for name in ALLOWED_UNREACHED:
        assert name in modules, f"{name} no longer exists"
        assert name not in reached, f"{name} is reached; drop it from the list"


def test_loader_calls_are_found():
    # The storm modules come only from the CLI's by-name loaders.
    modules = _modules()
    cli = _imports("repro.cli", modules["repro.cli"], modules)
    for name in ("chaos", "bitrot", "overload"):
        assert f"repro.experiments.{name}" in cli
