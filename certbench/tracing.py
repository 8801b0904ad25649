"""Spans and counters recorded around the package's public functions.

The wrappers live here, outside the package.  ``Installation.install`` swaps
each traced function for a wrapper in every ``contact_noether`` namespace that
binds it (the package re-exports names with ``from .x import y``), and
``Installation.uninstall`` puts the originals back, so untraced rounds run the
unmodified code.

Every wrapped call is a span with a self time (its duration minus the time
covered by its child spans).  Spans of the hot leaves (``expr.eval``,
``dynamics.rhs``) are only aggregated; all others are also kept as records
``(id, parent, name, start, end, scenario)`` and written out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

HOT = frozenset({"expr.eval", "dynamics.rhs", "trace.count_nodes"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.scenario: str | None = None
        self._stack: list[list] = []  # [start, child_time, anchor span id]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of aggregates (one per measured round)."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.per_scenario: defaultdict[str, Counter] = defaultdict(Counter)

    def count(self, key: str, n: int) -> None:
        self.counters[key] += n
        self.per_scenario[self.scenario][key] += n

    def span(self, name: str, fn):
        """Wrap `fn` so that each call is recorded as a span called `name`."""
        stack = self._stack
        record = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            anchor = stack[-1][2] if stack else None
            if record:
                sid = self._next_id
                self._next_id += 1
            frame = [perf_counter(), 0.0, sid if record else anchor]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if record:
                    self.spans.append((sid, anchor, name, frame[0], end, self.scenario))

        return wrapper

    def write(self, path, origin: float) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, scenario in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "scenario": scenario}) + "\n")


# ---------------------------------------------------------------------------
# expression size: tree nodes versus structurally distinct subtrees

_SPLIT: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _split(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(leaf field names, child field names) of an AST node class."""
    if cls not in _SPLIT:
        names = [f.name for f in dataclasses.fields(cls)]
        kids = tuple(n for n in names if n in ("arg", "left", "right", "base", "exponent"))
        _SPLIT[cls] = (tuple(n for n in names if n not in kids), kids)
    return _SPLIT[cls]


def count_nodes(root) -> tuple[int, int]:
    """(nodes of the expanded tree, structurally distinct subtrees)."""
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in canon:
            continue
        leaves, kids = _split(type(node))
        children = [getattr(node, k) for k in kids]
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in canon)
            continue
        shape = (type(node).__name__, tuple(repr(getattr(node, k)) for k in leaves),
                 tuple(canon[id(c)] for c in children))
        canon[key] = table.setdefault(shape, len(table))
        size[key] = 1 + sum(size[id(c)] for c in children)
    return size[id(root)], len(table)


# ---------------------------------------------------------------------------
# installation


def _targets(cn) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced function."""
    expr, geometry, dynamics = cn.expr, cn.geometry, cn.dynamics
    noether, systems, cli = cn.noether, cn.systems, cn.cli
    return [
        (expr, "parse", "expr.parse"),
        (expr, "partial", "expr.partial"),
        (expr, "_compile", "expr.compile"),
        (expr.ScalarField, "eval_env", "expr.eval"),
        (geometry, "lie_bracket", "geometry.lie_bracket"),
        (geometry.LieDerivativeEta, "__init__", "geometry.lie_derivative.build"),
        (geometry.LieDerivativeEta, "__call__", "geometry.lie_derivative.eval"),
        (dynamics, "integrate", "dynamics.integrate"),
        (dynamics, "adaptive_rk45", "dynamics.rk45"),
        (dynamics.Trajectory, "to_csv", "dynamics.to_csv"),
        (systems, "co_integrate", "systems.co_integrate"),
        (systems, "make_builtin", "systems.make_builtin"),
        (noether, "sample_points", "noether.sample_points"),
        (noether, "dissipation_residual", "noether.residual"),
        (noether, "symmetry_test", "noether.symmetry_test"),
        (noether, "similarity_test", "noether.similarity_test"),
        (noether, "closure_check", "noether.closure_check"),
        (noether, "dissipation_compensation", "noether.compensation"),
        (cli, "load_scenario", "cli.load_scenario"),
        (cli, "run_checks", "cli.run_checks"),
        (cli, "_write_report", "cli.write_report"),
        (cli, "run", "cli.run"),
    ]


def _special(tracer: Tracer, name: str, fn):
    """Wrappers that also count work: AST sizes at compile, steps and RHS
    calls in the integrator."""
    if name == "expr.compile":
        counter = tracer.span("trace.count_nodes", count_nodes)

        def compile_counted(node, names):
            tree, distinct = counter(node)
            tracer.count("expr.tree_nodes", tree)
            tracer.count("expr.distinct_nodes", distinct)
            return fn(node, names)

        return functools.wraps(fn)(compile_counted)
    if name == "dynamics.rk45":
        def rk45_counted(rhs, *args, **kwargs):
            before = tracer.calls["dynamics.rhs"]
            stats, tag = fn(tracer.span("dynamics.rhs", rhs), *args, **kwargs)
            tracer.count("dynamics.rhs.calls", tracer.calls["dynamics.rhs"] - before)
            tracer.count("dynamics.steps.accepted", stats.accepted)
            tracer.count("dynamics.steps.rejected", stats.rejected)
            return stats, tag

        return functools.wraps(fn)(rk45_counted)
    return fn


class Installation:
    """The swapped bindings, so that they can be put back."""

    def __init__(self, tracer: Tracer, cn) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "contact_noether" or n.startswith("contact_noether.")]
        self._swaps: list[tuple[object, str, object, object]] = []
        for owner, attr, name in _targets(cn):
            original = vars(owner)[attr]
            wrapped = tracer.span(name, _special(tracer, name, original))
            if isinstance(owner, type):
                self._swaps.append((owner, attr, original, wrapped))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._swaps.append((module, key, original, wrapped))

    def install(self) -> None:
        for owner, key, _, wrapped in self._swaps:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)
