"""Checks over the package's own source text."""

import ast
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
