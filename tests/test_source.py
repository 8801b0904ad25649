"""Checks over the package's own source text."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contact_noether"
EXEMPT = {"self", "cls", "_"}


def unread_parameters(tree: ast.AST):
    """`line: function(parameter)` for each parameter that its function's body never reads."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for p in params:
                if p.arg not in EXEMPT and p.arg not in read:
                    yield f"{fn.lineno}: {getattr(fn, 'name', 'lambda')}({p.arg})"


def test_every_parameter_is_read():
    unread = [f"{path.name}:{where}" for path in sorted(SRC.glob("*.py"))
              for where in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


# definitions that nothing in src/ reads, each with the reason it stays
UNREAD_BY_SRC = {
    "expr.ScalarField.eval_env": "certbench hooks it (expr.eval.*)",
    "noether.dissipation_residual": "certbench hooks it (noether.residual.*)",
    "cli.load_scenario": "certbench hooks it (cli.load_scenario.s)",
    "noether.symmetry_test": "a package export, which certbench hooks",
    "noether.similarity_test": "a package export, which certbench hooks",
    "noether.closure_check": "a package export, which certbench hooks",
    "scaling.ScalingSolution.invariant_for": "API that the tests read",
    "geometry.VectorFieldSpec.zero": "API that the tests read",
}


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read under `tree`, as a name or as an attribute;
    an import is not a read."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def definitions(tree: ast.Module, module: str):
    """`(module.name, name, node)` for each module-level function and class, and
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_definition_is_read_in_src():
    # by name: a definition is read if its name is read outside its own body
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    unread = {qualified for module, tree in trees.items()
              for qualified, name, node in definitions(tree, module)
              if read[name] - names_read(node)[name] <= 0}
    assert unread - UNREAD_BY_SRC.keys() == set(), "defined in src/ and read nowhere in it"
    assert UNREAD_BY_SRC.keys() - unread == set(), "allowed unread, but read or gone"


def imported_names(tree: ast.Module):
    """`(line, name)` for each name that an import binds, `from __future__` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_import_is_read():
    # a name imported and never read is left over from deleted code; the package's
    # __init__ imports to re-export, so it is not counted
    unread = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
              if path.stem != "__init__"
              for tree in [ast.parse(path.read_text())]
              for line, name in imported_names(tree) if not names_read(tree)[name]]
    assert unread == []
