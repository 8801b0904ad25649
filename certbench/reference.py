"""A fixed reference kernel that measures how fast the machine is right now.

The host that runs the benchmark is shared: the speed of the same scenario
drifts by up to a factor of two within a minute, because of what other tenants
run. Runs therefore time this kernel between rounds and express their
end-to-end times at the speed where the kernel takes ``REF_SECONDS``.

The kernel imports nothing from the package, so a change to the package cannot
move it. Its work resembles a certification: it builds expression trees, generates
source, compiles it, and runs a small-array integration loop with dict
environments and a generated right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

REF_SECONDS = 0.035


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _render(node) -> str:
    if not isinstance(node, _Node):
        return repr(node)
    return f"({_render(node.left)} {node.op} {_render(node.right)})"


def _work() -> float:
    acc = 0.0
    for j in range(40):
        node: object = 1.0
        for i in range(60):
            node = _Node("+*-"[i % 3], node, float(i + j))
        fn = eval(compile(f"lambda env: {_render(node)} * env['q']", "<reference>", "eval"))
        acc += fn({"q": 1e-9})
    ns: dict = {}
    exec(compile("def rhs(env):\n    return (env['p'], -env['k'] * env['q'] - env['g'] * env['p'])",
                 "<reference>", "exec"), ns)
    rhs = ns["rhs"]
    y, h = np.array([1.0, 0.0]), 0.01
    rows = []
    for _ in range(1500):
        ks: list[np.ndarray] = []
        for c in (0.0, 0.5, 0.5, 1.0):
            yi = y + c * h * ks[-1] if ks else y
            ks.append(np.array(rhs({"q": float(yi[0]), "p": float(yi[1]), "k": 1.0, "g": 0.1})))
        y = y + h / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        rows.append(repr(float(y[0])))
    return acc + len(",".join(rows))


def seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
