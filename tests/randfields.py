"""Seeded random expression generator for derivative-oracle properties.

`abs` is excluded here (its kink breaks any finite-difference oracle near
zero; it gets dedicated tests instead), and generated (field, point) pairs
are filtered so the central-difference oracle itself is convergent at the
sampled point before it is used to judge the exact derivative.
"""

from __future__ import annotations

import numpy as np

from contact_noether import expr
from contact_noether.expr import (
    Add, Call, Div, Mul, Neg, Num, Param, Pow, ScalarField, Sub, Var,
)

PARAM_NAMES = ("c1", "c2", "mu")

_UNARY_FNS = ("sin", "cos", "exp", "sqrt", "ln")


def random_node(rng: np.random.Generator, n: int, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Num(float(np.round(rng.uniform(-2.5, 2.5), 3)))
        if kind == 1:
            return Var(f"q{rng.integers(0, n)}")
        if kind == 2:
            return Var(f"p{rng.integers(0, n)}")
        return [Var("S"), Var("t"), Param(str(rng.choice(PARAM_NAMES)))][rng.integers(0, 3)]
    op = rng.integers(0, 8)
    if op == 0:
        return Add(random_node(rng, n, depth - 1), random_node(rng, n, depth - 1))
    if op == 1:
        return Sub(random_node(rng, n, depth - 1), random_node(rng, n, depth - 1))
    if op == 2:
        return Mul(random_node(rng, n, depth - 1), random_node(rng, n, depth - 1))
    if op == 3:
        return Div(random_node(rng, n, depth - 1), random_node(rng, n, depth - 1))
    if op == 4:
        return Neg(random_node(rng, n, depth - 1))
    if op == 5:
        # integer exponent: any base
        return Pow(random_node(rng, n, depth - 1), Num(float(rng.integers(-3, 4))))
    if op == 6:
        # fractional exponent: positive base by construction
        base = Add(Num(float(np.round(rng.uniform(0.5, 2.0), 3))),
                   Pow(random_node(rng, n, depth - 1), Num(2.0)))
        return Pow(base, Num(float(np.round(rng.uniform(-1.5, 1.5), 3))))
    return Call(str(rng.choice(_UNARY_FNS)), random_node(rng, n, depth - 1))


def random_field(rng: np.random.Generator, n: int, depth: int = 6) -> ScalarField:
    return ScalarField(random_node(rng, n, depth), n)


def random_env(rng: np.random.Generator, n: int) -> dict[str, float]:
    env = {f"q{i}": float(rng.uniform(-1.5, 1.5)) for i in range(n)}
    env.update({f"p{i}": float(rng.uniform(-1.5, 1.5)) for i in range(n)})
    env["S"] = float(rng.uniform(-1.0, 1.0))
    env["t"] = float(rng.uniform(0.1, 3.0))
    env.update({p: float(rng.uniform(-1.5, 1.5)) for p in PARAM_NAMES})
    return env


def central_fd(field: ScalarField, name: str, env: dict[str, float], step: float) -> float:
    hi = dict(env)
    lo = dict(env)
    hi[name] = env[name] + step
    lo[name] = env[name] - step
    return (expr.eval_node(field.ast, hi) - expr.eval_node(field.ast, lo)) / (2.0 * step)


def derivative_pair(rng: np.random.Generator, n: int = 2, depth: int = 6,
                    step: float = 1e-6, max_tries: int = 200):
    """Draw a (field, var, env, fd) tuple on which the FD oracle converges.

    Pairs where evaluation leaves the domain, values blow up, or the
    two-step Richardson check says the central difference has not converged
    are redrawn; the surviving oracle is trustworthy at 1e-6 accuracy.
    """
    for _ in range(max_tries):
        field = random_field(rng, n, depth)
        candidates = sorted(field.free_vars | field.free_params)
        if not candidates:
            continue
        name = str(rng.choice(candidates))
        env = random_env(rng, n)
        try:
            v0 = expr.eval_node(field.ast, env)
            fd1 = central_fd(field, name, env, step)
            fd2 = central_fd(field, name, env, 2.0 * step)
        except expr.ExprError:
            continue
        if abs(v0) > 1e6 or abs(fd1) > 1e6:
            continue
        if abs(fd1 - fd2) > 1e-6 * max(1.0, abs(fd1)):
            continue
        return field, name, env, fd1
    raise RuntimeError("could not draw a convergent FD pair")
