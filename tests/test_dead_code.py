"""Every function, class and method of the package is reached from the package.

A definition counts as used when a ``Name`` or ``Attribute`` outside its own
body, anywhere in ``src/delpezzo``, carries its name (imports do not count),
when it is public (``delpezzo.__all__`` or ``cli.main``), when the language
calls it (a dunder method), or when it is on the allowlist below.  Names are
matched as strings, so the check is coarse: it cannot see that ``.constant``
on a ``JInvariant`` is not ``Poly.constant``.  It catches a helper that only
the tests call.  An allowlist entry that names no definition, or one the
check passes without it, is an error too, so the allowlist cannot outlive
its reasons.
"""

import ast
import pathlib
from collections import Counter

import delpezzo

SRC = pathlib.Path(delpezzo.__file__).parent

ALLOWED = {
    # perfbench traces this name in delpezzo.weierstrass and delpezzo.kodaira
    "forms._valuation_at_irreducible",
}


def _references(tree: ast.AST) -> Counter:
    """Names carried by the Name and Attribute nodes of tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _definitions(module: str, body: list, prefix: str = ""):
    """(qualified name, node) of the functions and classes defined in body,
    methods of classes included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            yield f"{module}.{name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(module, node.body, f"{name}.")


def _unreferenced(trees: dict[str, ast.Module], allowed=ALLOWED) -> list[str]:
    """Qualified names of the definitions in trees (module name -> parsed
    source) that nothing outside their own body refers to, public and
    allowed names left out."""
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    public = {f"{module}.{name}" for module in trees for name in delpezzo.__all__}
    public.add("cli.main")
    unused = []
    for module, tree in trees.items():
        for qualified, node in _definitions(module, tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified in public or qualified in allowed:
                continue
            if everywhere[name] - _references(node)[name] > 0:
                continue
            unused.append(qualified)
    return unused


def _stale(trees: dict[str, ast.Module], allowed=ALLOWED) -> list[str]:
    """The entries of allowed that name no definition in trees, or one the
    check would pass without them."""
    unreached = set(_unreferenced(trees, allowed=()))
    return sorted(name for name in allowed if name not in unreached)


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_reached_from_the_package():
    trees = _package_trees()
    assert len(trees) >= 10  # the check is not vacuous
    assert _unreferenced(trees) == []


def test_every_allowlist_entry_is_still_needed():
    assert _stale(_package_trees()) == []


def test_the_check_sees_a_helper_only_itself_calls():
    source = "def helper():\n    return helper()\n\nclass A:\n    def m(self):\n        pass\n"
    assert _unreferenced({"m": ast.parse(source)}) == ["m.helper", "m.A", "m.A.m"]


def test_the_check_sees_a_stale_allowlist_entry():
    source = "def helper():\n    pass\n\ndef used():\n    pass\n\nused()\n"
    trees = {"m": ast.parse(source)}
    assert _stale(trees, {"m.helper", "m.used", "m.gone"}) == ["m.gone", "m.used"]
