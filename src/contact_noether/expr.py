"""Arithmetic expression language with exact structural differentiation.

Expressions are parsed into immutable ASTs over the phase-space variables
``q0..q(n-1)``, ``p0..p(n-1)``, ``S``, ``t`` and free parameter identifiers
(late-bound at evaluation).  Derivatives are taken structurally on the AST
(forward mode), so every downstream geometric residual is computed with
machine-precision derivatives; finite differences exist only as a test
oracle.  A power ``b^g`` whose exponent does not read the name takes
``g b^(g-1) b'``, be ``g`` a number or a field of parameters, so that a
number bound as a parameter derives as its literal does; any other takes
``b^g (g' ln b + g b'/b)``.

Grammar::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Two tables are the one definition of the operations: a row of `_BINARY`
gives one of ``+ - * /`` its symbol, precedence, float value, guard, smart
constructor and derivative, and a row of `_INTRINSICS` gives one intrinsic
its math function, domain message and derivative.  Parsing, printing,
evaluation, code generation, `partial`, `substitute` and ScalarField's
operators read them; ``-``, ``^``, calls and leaves are written out.
``^`` with a non-integer exponent is defined only for positive base;
integer exponents are detected syntactically (a literal exponent with
integral value) and are valid for any base.  The only simplification is
eager constant folding (including 0/1 identity elimination, which keeps
repeated derivatives small).

Nodes are hash-consed, so an AST is a DAG of distinct subexpressions.  Every
pass over one (printing, evaluation, code generation, `partial`, `substitute`)
runs its rule once per distinct node, operands first, by `_walk`, on a stack of
its own, so no tree is too deep; only `parse` recurses, and refuses too deep a
nesting.  A node that does not read a name takes its derivative by it from one
signed zero, kept on the node.  `derivatives_kept` keeps one run's derivatives,
programs and other keyed work (`live_work`), and the last runs under their keys
(cli: a file's) for later runs.  A bundle of fields compiles to one statement
per distinct node, bit-identical to eval_node.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# one token of `parse`: a number, a name, one other character, or the empty end
_TOKEN_RE = re.compile(rf"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|({_IDENT_RE.pattern})|(.|\Z))")
_QP_RE = re.compile(r"[qp][0-9]+\Z")


# ---------------------------------------------------------------------------
# errors


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIntrinsic(ExprError):
    pass


class IndexOutOfRange(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation left the real domain; carries the offending subexpression.

    `where` is its source text, or the node itself, which is rendered here,
    only once an error is actually raised."""

    def __init__(self, message: str, where: "str | Node"):
        self.where = where if isinstance(where, str) else to_source(where)
        super().__init__(f"{message} in `{self.where}`")


class UnboundParameter(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST nodes (hash-consed)

_INTERN: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()
_LIVE = _INTERN.data  # key -> weak reference, read directly; entries are set through _INTERN
_Names = tuple[frozenset[str], frozenset[str]]  # (Var names, Param names)
_NO_NAMES: _Names = (frozenset(), frozenset())
_KEPT: "ContextVar[set[object] | None]" = ContextVar("_KEPT", default=None)  # see derivatives_kept
# the runs of the last _RECENT keys that `derivatives_kept` blocks exited with, oldest first
_RUNS: "dict[object, KeptRun]" = {}
_RECENT = 16
# the symbolic work done since import, by kind; never reset, so readers take differences
work = dict.fromkeys(("nodes", "derive", "bundles", "emitted", "compiles"), 0)


def _union(a: _Names, b: _Names) -> _Names:
    """The pairwise union of two name pairs, reusing one if it holds the other."""
    if b[0] <= a[0] and b[1] <= a[1]:
        return a
    if a[0] <= b[0] and a[1] <= b[1]:
        return b
    return a[0] | b[0], a[1] | b[1]


class _Node:
    """Base of the AST nodes.  Constructing a node returns the live node of
    equal structure if there is one, so structurally equal subtrees are one
    object and equality is identity.  The table holds nodes weakly, and its
    key tells ``Num(0.0)`` from ``Num(-0.0)``.

    Two slots, outside ``vars(node)`` and the dataclass fields, hold what is
    known of a node: ``_names``, its (Var names, Param names), set when the
    node is built from its children's; and ``_d``, made on first use, its
    derivatives by name, held weakly (``exp(a)``'s refers back to it)."""

    __slots__ = ("_names", "_d")

    def __new__(cls, *args):
        work["nodes"] += 1
        if cls is Num:
            args = (float(args[0]),)
            key: tuple = (cls, args[0], math.copysign(1.0, args[0]))
        else:
            key = (cls, *args)
        ref = _LIVE.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls.__match_args__, args))
            if cls is Var:
                names = (frozenset(args), _NO_NAMES[1])
            elif cls is Param and args[0][0] != "_":  # a lifted number (`lift`) reads none
                names = (_NO_NAMES[0], frozenset(args))
            else:
                names = _NO_NAMES
                for kid in args:
                    if isinstance(kid, _Node):
                        names = _union(names, kid._names)
            object.__setattr__(node, "_names", names)
            _INTERN[key] = node
        return node

    def __init_subclass__(cls) -> None:
        dataclass(frozen=True, eq=False, init=False)(cls)

    def __reduce__(self):
        return type(self), tuple(vars(self).values())


class Num(_Node):
    value: float


class Var(_Node):
    name: str


class Param(_Node):
    name: str


class Neg(_Node):
    arg: "Node"


class Add(_Node):
    left: "Node"
    right: "Node"


class Sub(_Node):
    left: "Node"
    right: "Node"


class Mul(_Node):
    left: "Node"
    right: "Node"


class Div(_Node):
    left: "Node"
    right: "Node"


class Pow(_Node):
    base: "Node"
    exponent: "Node"


class Call(_Node):
    fn: str
    arg: "Node"


Node = Union[Num, Var, Param, Neg, Add, Sub, Mul, Div, Pow, Call]
_ZERO, _ONE = Num(0.0), Num(1.0)  # shared by every rule that returns 0 or 1, and always live


def _int_exponent(node: Node) -> int | None:
    """Syntactic integer-exponent detection for the `^` domain rule."""
    if isinstance(node, Num) and float(node.value).is_integer() and abs(node.value) < 2**31:
        return int(node.value)
    return None


def _operands(node: Node) -> tuple:  # left to right
    if (cls := type(node)) in _BINARY:
        return node.left, node.right
    if cls is Pow:
        return node.base, node.exponent
    return (node.arg,) if cls is Neg or cls is Call else ()


def _valued(node: Node) -> tuple:  # the operands but an integer exponent, read as a literal
    if type(node) is Pow and _int_exponent(node.exponent) is not None:
        return (node.base,)
    return _operands(node)


def _walk(roots: Iterable[Node], rule: Callable[[Node, Callable], object], memo: dict,
          operands: Callable[[Node], Sequence[Node]]) -> dict:
    """Set ``memo[node] = rule(node, memo.__getitem__)`` for each distinct node under `roots`
    that `memo` lacks, after the nodes `operands(node)` gives, left to right, and the roots
    in order, as a recursion would, but on a stack of its own, so at any depth; return `memo`.
    `operands` may set ``memo[node]`` itself and give none, which stops the walk there."""
    get, stack = memo.__getitem__, [*roots][::-1]
    while stack:
        if (node := stack.pop()) is None:  # above a node whose operands are done
            node = stack.pop()
            memo[node] = rule(node, get)
        elif node not in memo:
            if kids := operands(node):
                stack += node, None, *kids[::-1]
            elif node not in memo:
                memo[node] = rule(node, get)
    return memo


# ---------------------------------------------------------------------------
# smart constructors (constant folding only; a non-finite result is not
# folded, so that evaluation sees the operation)


def add_(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(v := a.value + b.value):
        return Num(v)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Add(a, b)


def sub_(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(v := a.value - b.value):
        return Num(v)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg_(b)
    return Sub(a, b)


def mul_(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(v := a.value * b.value):
        return Num(v)
    if isinstance(a, Num) and (a.value == 0.0 or a.value == 1.0):
        return _ZERO if a.value == 0.0 else b
    if isinstance(b, Num) and (b.value == 0.0 or b.value == 1.0):
        return _ZERO if b.value == 0.0 else a
    return Mul(a, b)


def div_(a: Node, b: Node) -> Node:
    if (isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0
            and math.isfinite(v := a.value / b.value)):
        return Num(v)
    if isinstance(a, Num) and a.value == 0.0:
        return _ZERO
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Div(a, b)


def neg_(a: Node) -> Node:
    if isinstance(a, Num) and math.isfinite(a.value):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Node, b: Node) -> Node:
    if isinstance(b, Num):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
        if isinstance(a, Num):
            try:
                k = _int_exponent(b)
                v = a.value ** (k if k is not None else b.value)
            except (OverflowError, ZeroDivisionError, ValueError):
                return Pow(a, b)
            if isinstance(v, float) and math.isfinite(v):
                return Num(v)
    return Pow(a, b)


def call_(fn: str, arg: Node) -> Node:
    if fn not in _INTRINSICS:
        raise UnknownIntrinsic(f"unknown intrinsic {fn!r}")
    if isinstance(arg, Num):
        try:
            return Num(_intrinsic(fn, arg.value, arg))
        except DomainError:
            pass
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# the operator and intrinsic tables: the one statement of what each binary
# operator and each intrinsic means, read by parsing, printing, evaluation,
# code generation, differentiation, substitution and ScalarField's operators

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class _Binary(NamedTuple):
    symbol: str
    prec: int  # a right operand binds one level tighter, so the operators associate left
    value: Callable[[float, float], float]
    domain: str | None  # a zero divisor's message; a guarded value must also be finite
    smart: Callable[[Node, Node], Node]  # the smart constructor
    derive: Callable[[Node, Node, Callable[[Node], Node]], Node]  # from the operands and `d`


_BINARY: dict[type, _Binary] = {
    Add: _Binary("+", _PREC_ADD, operator.add, None, add_, lambda a, b, d: add_(d(a), d(b))),
    Sub: _Binary("-", _PREC_ADD, operator.sub, None, sub_, lambda a, b, d: sub_(d(a), d(b))),
    Mul: _Binary("*", _PREC_MUL, operator.mul, None, mul_,
                 lambda a, b, d: add_(mul_(d(a), b), mul_(a, d(b)))),
    # (f/g)' = f'/g - f g'/g^2
    Div: _Binary("/", _PREC_MUL, operator.truediv, "division by zero", div_,
                 lambda a, b, d: sub_(div_(d(a), b), div_(mul_(a, d(b)), pow_(b, Num(2.0))))),
}
_BY_SYMBOL = {op.symbol: op for op in _BINARY.values()}


class _Intrinsic(NamedTuple):
    fn: Callable[[float], float]  # the math function, which compiled code calls directly
    domain: str | None  # the DomainError message where `fn` raises; abs never does
    derive: Callable[[Node], Node]  # d fn(a)/da


_INTRINSICS: dict[str, _Intrinsic] = {
    "sin": _Intrinsic(math.sin, "sin of infinite value", lambda a: call_("cos", a)),
    "cos": _Intrinsic(math.cos, "cos of infinite value", lambda a: neg_(call_("sin", a))),
    "exp": _Intrinsic(math.exp, "exp overflow", lambda a: call_("exp", a)),
    "ln": _Intrinsic(math.log, "ln of non-positive value", lambda a: div_(_ONE, a)),
    "sqrt": _Intrinsic(math.sqrt, "sqrt of negative value",
                       lambda a: div_(_ONE, mul_(Num(2.0), call_("sqrt", a)))),
    # sign(a) away from zero; evaluation at a == 0 raises DomainError
    "abs": _Intrinsic(abs, None, lambda a: div_(a, call_("abs", a))),
}

# the guarded numeric kernels of the interpreter; `where` is the node being
# evaluated, which is rendered only if an error is raised, with the numbers of
# its source that `env` binds (`to_source`)


def _guard_finite(v: float, where: Node, env: Mapping[str, float]) -> float:
    if not math.isfinite(v):
        raise DomainError("non-finite result", to_source(where, env))
    return v


def _intrinsic(fn: str, x: float, where: Node, env: Mapping[str, float] = {}) -> float:
    row = _INTRINSICS[fn]
    try:
        return row.fn(x)
    except (ValueError, OverflowError):
        raise DomainError(row.domain, to_source(where, env)) from None


def _k_pow(b: float, e: float, where: Node, env: Mapping[str, float]) -> float:
    if b <= 0.0:
        raise DomainError("non-integer power of non-positive base", to_source(where, env))
    try:
        return _guard_finite(b**e, where, env)
    except OverflowError:
        raise DomainError("power overflow", to_source(where, env)) from None


# ---------------------------------------------------------------------------
# pretty printing


def _parens(printed: tuple[int, list], min_prec: int) -> list:
    return ["(", printed[1], ")"] if printed[0] < min_prec else printed[1]


def _printed(node: Node, numbers: Mapping[str, float],
             of: Callable[[Node], tuple[int, list]]) -> tuple[int, list]:
    """The precedence and source of `node`, a list of strings and of its operands' lists,
    which `of` gives with their precedence.  A parameter ``_...`` of `numbers` prints as
    its number, and ``x + _c`` or ``x + _c*y`` of a negative one as ``x - |c|`` or ``x - |c|*y``."""
    if (op := _BINARY.get(type(node))) is not None:
        left, c = _parens(of(node.left), op.prec), node.right
        c = c.left if isinstance(c, Mul) else c
        if (numbers and op.symbol == "+" and isinstance(c, Param) and c.name[0] == "_"
                and numbers.get(c.name, 0.0) < 0.0):
            return _PREC_ADD, [left, " - ", repr(-float(numbers[c.name])), *of(node.right)[1][1:]]
        symbol = f" {op.symbol} " if op.prec == _PREC_ADD else op.symbol
        return op.prec, [left, symbol, _parens(of(node.right), op.prec + 1)]
    if isinstance(node, (Var, Param)) and (node.name[0] != "_" or node.name not in numbers):
        return _PREC_ATOM, [node.name]
    if isinstance(node, (Num, Param)):
        v = float(numbers[node.name]) if isinstance(node, Param) else node.value
        return _PREC_NEG if v < 0 else _PREC_ATOM, [repr(v)]
    if isinstance(node, Neg):
        return _PREC_NEG, ["-", _parens(of(node.arg), _PREC_NEG)]
    if isinstance(node, Pow):
        return _PREC_POW, [_parens(of(node.base), _PREC_ATOM), "^",
                           _parens(of(node.exponent), _PREC_ATOM)]
    if isinstance(node, Call):
        return _PREC_ATOM, [f"{node.fn}(", of(node.arg)[1], ")"]
    raise TypeError(f"unknown node {node!r}")


def to_source(node: Node, numbers: Mapping[str, float] = {}) -> str:
    """Render a node back to source that parses to the same tree: binary
    operators associate left, so a right operand of equal precedence is
    parenthesised, and re-parsing evaluates bit for bit as the original;
    additive operators are spaced.  A parameter ``_...`` of `numbers` (a number
    of a source, bound under a name no expression can read) prints as its number."""
    memo = _walk((node,), lambda node, of: _printed(node, numbers, of), {}, _operands)
    text, stack = [], [memo[node][1]]
    while stack:
        if type(piece := stack.pop()) is str:
            text.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(text)


# ---------------------------------------------------------------------------
# reference interpreter


def eval_node(node: Node, env: Mapping[str, float]) -> float:
    """The reference semantics of the compiled path, over the DAG: each distinct node is
    evaluated once, after its operands, left to right, so the first DomainError is the tree's."""
    return _walk((node,), lambda node, v: _eval(node, env, v), {}, _valued)[node]


def _eval(node: Node, env: Mapping[str, float], v: Callable[[Node], float]) -> float:
    """The evaluation rule of `node`, with `v` giving its operands' values."""
    if (op := _BINARY.get(type(node))) is not None:
        a, b = v(node.left), v(node.right)
        if op.domain is None:
            return op.value(a, b)
        try:
            return _guard_finite(op.value(a, b), node, env)
        except ZeroDivisionError:
            raise DomainError(op.domain, to_source(node, env)) from None
    if isinstance(node, Num):
        return node.value
    if isinstance(node, (Var, Param)):
        return env[node.name]
    if isinstance(node, Neg):
        return -v(node.arg)
    if isinstance(node, Pow):
        b, k = v(node.base), _int_exponent(node.exponent)
        if k is None:
            return _k_pow(b, v(node.exponent), node, env)
        try:
            return _guard_finite(b**k, node, env)
        except (OverflowError, ZeroDivisionError):
            raise DomainError("integer power out of domain", to_source(node, env)) from None
    if isinstance(node, Call):
        return _intrinsic(node.fn, v(node.arg), node, env)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# compilation: one python function per bundle of fields, with one local per
# distinct node across the bundle.  `/` and `^` run inline (a non-integer `^`
# of a base that is not positive gives NaN) and their results are checked once
# per call, by isfinite tests on sums of at most 256; the intrinsics are the math
# functions, which raise where eval_node does.  Any exception or non-finite
# checked value re-runs eval_node, so values and the first DomainError are the
# interpreter's.  Each number and bound parameter is a closure cell, not text,
# so bundles that differ only in these values share one program (`_codegen`);
# a statement that reads nothing else runs once, when the function is made

_KERNELS = tuple(f"_{fn}" for fn in ("isfinite", "nan", *_INTRINSICS))
# numbers the generated functions' file names, so that profiles tell them apart
_SERIALS = itertools.count(1)


@lru_cache(maxsize=256)
def _factory(lines: tuple[str, ...], kind: str, prelude: tuple[str, ...], cells: int) -> Callable:
    """`_mk(<prelude>, <kernels>, _k0, ..., _k<cells - 1>)`, which makes the function
    `_f` that `lines` define, compiled once per distinct text into a file named `<kind-N>`."""
    work["compiles"] += 1
    args = ", ".join([*prelude, *_KERNELS, *(f"_k{i}" for i in range(cells))])
    source = "\n".join([f"def _mk({args}):", *("    " + ln for ln in lines), "    return _f"])
    loc: dict[str, object] = {}
    exec(compile(source, f"<{kind}-{next(_SERIALS)}>", "exec"), {}, loc)
    return loc["_mk"]  # type: ignore[return-value]


def _emit(roots: Sequence[Node], names: frozenset[str],
          ) -> tuple[list[str], list[float | str], list[str], list[str], set[int]]:
    """The statements `_tN = <value>`, indented for a try block of a function,
    that evaluate every node under `roots`, one per distinct node, with `_ki`
    for the i-th distinct number or bound name (of `names`) and `_v_<name>` for
    any other name.  Returns the statements, the cells (each such number, or
    name), the checked temporaries (`/` and `^`), the roots' values and the
    indices of the statements that read bound names only (none if there are none)."""
    lines, cells, checked, fixed = [], [], [], set()

    def emit(node: Node, of: Callable[[Node], str]) -> str:  # `of` names the operands' values
        if isinstance(node, (Num, Var, Param)):
            if not isinstance(node, Num) and node.name not in names:
                return f"_v_{node.name}"
            cells.append(node.value if isinstance(node, Num) else node.name)
            return f"_k{len(cells) - 1}"
        if (op := _BINARY.get(type(node))) is not None:
            value = f"{of(node.left)} {op.symbol} {of(node.right)}"
        elif isinstance(node, Neg):
            value = f"-{of(node.arg)}"
        elif isinstance(node, Call):
            value = f"_{node.fn}({of(node.arg)})"
        elif (k := _int_exponent(node.exponent)) is not None:
            value = f"{of(node.base)} ** {k}"
        else:
            base = of(node.base)
            value = f"{base} ** {of(node.exponent)} if {base} > 0.0 else _nan"
        name = f"_t{len(lines)}"
        if isinstance(node, Pow) or op is not None and op.domain is not None:
            checked.append(name)
        if names and names >= node._names[0] and names >= node._names[1]:
            fixed.add(len(lines))
        lines.append(f"        {name} = {value}")
        return name

    ref = _walk(roots, emit, {}, _valued)
    return lines, cells, checked, [ref[r] for r in roots], fixed


def _kernels() -> tuple:
    """The values of `_KERNELS`, read when a function is made."""
    return (math.isfinite, math.nan, *(row.fn for row in _INTRINSICS.values()))


def _make(lines: Sequence[str], kind: str, prelude: Mapping[str, object],
          consts: Sequence[float]) -> Callable:
    """The function `_f` that `lines` define, made by `_factory`'s `_mk` of `prelude`, `consts`."""
    mk = _factory(tuple(lines), kind, tuple(prelude), len(consts))
    return mk(*prelude.values(), *_kernels(), *consts)


def bindable_params(params: Mapping[str, float], argnames: Sequence[str]) -> dict[str, float]:
    """`params` less any parameter named like an argument, so that none shadows one."""
    return {k: v for k, v in params.items() if k not in argnames}


def _codegen(roots: Sequence[Node], argnames: Sequence[str], bound: Mapping[str, float],
             slow: Callable) -> Callable:
    """`def _f(<argnames>)`: run every node under `roots`, the names of `bound`
    as numbers, and return the roots' values as a tuple, or `_slow(<argnames>)`.
    It is made by the program of its roots, argnames and bound names, emitted
    once while it lives (`live_work`), whose text reads which names are bound,
    never their values.  The statements that read only numbers and names of
    `bound` run once, when `_f` is made; one that raises leaves its name and the
    later ones unbound, so a call that reads them takes `_slow`."""
    names = frozenset(bound)

    def program() -> Callable:  # `make(slow, bound)`; each of its cells is a number or a name
        work["bundles"] += 1
        body, cells, checked, values, fixed = _emit(roots, names)
        work["emitted"] += len(body)
        params = ", ".join(f"_v_{nm}" for nm in argnames)
        check = " and ".join(  # a sum nests once per term in CPython's compiler, so cut it
            f"_isfinite({' + '.join(checked[k:k + 256])})" for k in range(0, len(checked), 256)) \
            or "True"
        hoisted = ["try:", *(body[k][4:] for k in sorted(fixed)), "except Exception:", "    pass"]
        lines = [*(hoisted if fixed else ()), f"def _f({params}):", "    try:",
                 *(ln for k, ln in enumerate(body) if k not in fixed), f"        if {check}:",
                 f"            return ({''.join(v + ', ' for v in values)})",
                 "    except Exception:", "        pass", f"    return _slow({params})"]
        mk = _factory(tuple(lines), "scalar-field", ("_slow",), len(cells))
        return lambda slow, bound: mk(slow, *_kernels(),
                                      *(c if isinstance(c, float) else bound[c] for c in cells))

    return live_work(("program", tuple(roots), tuple(argnames), names), program)(slow, bound)


# the live programs of bundles, by (roots, argnames, bound names), and the other work
# kept by a key whose first item names its kind (`live_work`)
_LIVE_WORK: "weakref.WeakValueDictionary[tuple, object]" = weakref.WeakValueDictionary()


def live_work(key: tuple, build: Callable[[], object]) -> object:
    """The live work under `key`, else `build()`, under `key` while it lives; the running
    `derivatives_kept` block, if any, holds it."""
    if (work := _LIVE_WORK.get(key)) is None:
        work = _LIVE_WORK[key] = build()
    if (kept := _KEPT.get()) is not None:
        kept.add(work)
    return work


def compile_bundle(fields: Sequence["ScalarField"], argnames: Sequence[str],
                   params: Mapping[str, float] = {}) -> Callable[..., tuple[float, ...]]:
    """One function of positional floats, given in the order of `argnames`,
    that returns a tuple with one value per field, bit for bit eval_node's,
    and raises eval_node's first DomainError; `params` binds the other names,
    by `bindable_params`, as numbers of the function.  While its program
    lives, the same roots and names, whatever their bound values, emit
    nothing (`_codegen`)."""
    roots, bound = [f.ast for f in fields], bindable_params(params, argnames)
    unbound = set().union(*(f.free_vars | f.free_params for f in fields)) - {*argnames, *bound}
    if unbound:
        raise UnboundParameter(f"unbound names {sorted(unbound)}")

    def slow(*args: float) -> tuple[float, ...]:
        env = {**bound, **dict(zip(argnames, args))}
        memo = _walk(roots, lambda node, v: _eval(node, env, v), {}, _valued)
        return tuple(memo[r] for r in roots)

    return _codegen(roots, argnames, bound, slow)


def _compile(node: Node, names: Iterable[str]) -> Callable[[Mapping[str, float]], float]:
    """The one-field bundle over `names`, read from a name->value environment (`eval_env`)."""
    names = sorted(names)
    fn = compile_bundle([ScalarField(node, 1)], names)  # the dimension is not read
    return lambda env: fn(*[env[nm] for nm in names])[0]


# ---------------------------------------------------------------------------
# scalar fields


@lru_cache(maxsize=None)
def valid_variables(n: int) -> frozenset[str]:
    return frozenset({f"q{i}" for i in range(n)} | {f"p{i}" for i in range(n)} | {"S", "t"})


def _coordinate(name: str, n: int) -> bool:
    """Whether `name` is one of `valid_variables(n)`; any other `[qp]<digits>`
    name, such as `q5` for n = 2 or `q01`, raises IndexOutOfRange."""
    if name in valid_variables(n):
        return True
    if _QP_RE.match(name):
        raise IndexOutOfRange(f"{name!r} out of range for dimension n={n}")
    return False


def _operator(cls: type) -> tuple[Callable, Callable]:
    """ScalarField's method of the binary operator `cls`, and its reflection."""
    smart = _BINARY[cls].smart
    return (lambda self, other: self._make(smart(self.ast, self._lift(other))),
            lambda self, other: self._make(smart(self._lift(other), self.ast)))


@dataclass(eq=False)
class ScalarField:
    """A parsed, exactly differentiable expression over (q, p, S, t) and params.

    Immutable after construction; safe to share across threads.  Arithmetic
    operators combine fields (dimensions must agree); numbers are lifted to
    constants.
    """

    ast: Node
    n: int

    # computed when each distinct node is built
    free_vars = property(lambda self: self.ast._names[0])
    free_params = property(lambda self: self.ast._names[1])

    def eval_env(self, env: Mapping[str, float]) -> float:
        """The value at a name->value environment, lifted numbers (`lift`) included,
        compiled on each call; build a bundle (`compile_bundle`,
        `geometry.point_bundle`) to evaluate often."""
        return _compile(self.ast, env)(env)

    def source(self) -> str:
        return to_source(self.ast)

    def _lift(self, other: "ScalarField | float | int") -> Node:
        if isinstance(other, ScalarField):
            if other.n != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
            return other.ast
        return Num(other)

    def _make(self, node: Node) -> "ScalarField":
        return ScalarField(node, self.n)

    __add__, __radd__ = _operator(Add)
    __sub__, __rsub__ = _operator(Sub)
    __mul__, __rmul__ = _operator(Mul)
    __truediv__, __rtruediv__ = _operator(Div)

    def __pow__(self, other):
        return self._make(pow_(self.ast, self._lift(other)))

    def __neg__(self):
        return self._make(neg_(self.ast))

    def __repr__(self) -> str:
        return f"ScalarField({self.source()!r}, n={self.n})"


def number(v: float, n: int) -> ScalarField:
    return ScalarField(Num(v), n)


def variable(name: str, n: int) -> ScalarField:
    if not _coordinate(name, n):
        raise IndexOutOfRange(f"{name!r} is not a variable for dimension n={n}")
    return ScalarField(Var(name), n)


def parameter(name: str, n: int) -> ScalarField:
    if not _IDENT_RE.fullmatch(name) or name in _INTRINSICS:
        raise ValueError(f"invalid parameter name {name!r}")
    return ScalarField(Param(name), n)


def apply_intrinsic(fn: str, arg: ScalarField) -> ScalarField:
    return ScalarField(call_(fn, arg.ast), arg.n)


# ---------------------------------------------------------------------------
# parsing


def lift(value: float, numbers: dict[str, float], place: str, before: int) -> Node:
    """A number at `place` of a scenario (an expression string or an ansatz) as its tree
    reads it: a zero, which folds terms away, stays; any other is the parameter `_<place>_<k>`,
    bound to `value` in `numbers`, k the count of `place`'s numbers after the first `before`."""
    if value == 0.0:
        return Num(value)
    numbers[name := f"_{place}_{len(numbers) - before}"] = value
    return Param(name)


def parse(source: str, n: int, numbers: dict[str, float] | None = None,
          place: str = "") -> ScalarField:
    """Parse `source` into a ScalarField of dimension `n`, by recursive descent
    over its tokens, cut in one scan: a number, a name or one other character,
    each with its start, then an empty token at the end.  `operands(1)` parses
    an `expr` of the grammar and `operands(2)` a `term`; `unary` parses a
    `unary` and a `power`, with their `atom`.  Given `numbers`, a number outside
    an exponent is `lift`ed, and a sign is a value: `-c`, `x - c*y` and `x - c`
    read `c'`, `x + c'*y` and `x + c'` with `c' = -c` bound, bit for bit the
    literal in IEEE arithmetic (`x - z == x + (-z)`, `(-c)*y == -(c*y)`)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN_RE.finditer(source)]
    i, before = 0, len(numbers or ())  # the numbers of other places
    literal = numbers is None  # not lifting, or within an exponent

    def offset(pos: int) -> int:
        return len(source[:pos].encode("utf-8"))

    def negated(node: Node) -> bool:  # whether `node` is a lifted number, now of the other sign
        if lifted := type(node) is Param and node.name[0] == "_":
            numbers[node.name] = -numbers[node.name]
        return lifted

    def operands(prec: int) -> Node:
        """Operands joined by the operators of precedence `prec`, left to right."""
        nonlocal i
        node = operands(prec + 1) if prec < _PREC_MUL else unary()
        while (op := _BY_SYMBOL.get(tokens[i][1])) is not None and op.prec == prec:
            i += 1
            right = operands(prec + 1) if prec < _PREC_MUL else unary()
            c = right.left if type(right) is Mul else right
            node = add_(node, right) if op.symbol == "-" and negated(c) else op.smart(node, right)
        return node

    def unary() -> Node:
        nonlocal i, literal
        kind, text, start = tokens[i]
        i += 1
        if text == "-":
            node = unary()
            return node if negated(node) else neg_(node)
        call = kind == 2 and tokens[i][1] == "("
        if kind == 1:
            if not math.isfinite(v := float(text)):
                raise ExprSyntaxError(f"numeric literal {text!r} is not a finite float", offset(start))
            node = Num(v) if literal else lift(v, numbers, place, before)
        elif call or text == "(":
            if call:
                if text not in _INTRINSICS:
                    raise UnknownIntrinsic(f"unknown intrinsic {text!r} (byte offset {offset(start)})")
                i += 1
            node = operands(_PREC_ADD)
            if tokens[i][1] != ")":
                raise ExprSyntaxError("expected ')'", offset(tokens[i][2]))
            i += 1
            node = call_(text, node) if call else node
        elif kind == 2:
            if text in _INTRINSICS:
                raise ExprSyntaxError(f"intrinsic name {text!r} used as identifier", offset(start))
            node = Var(text) if _coordinate(text, n) else Param(text)
        else:
            raise ExprSyntaxError("expected a number, identifier or parenthesised expression",
                                  offset(start))
        if tokens[i][1] == "^":  # an exponent's numbers stay: they set the `^` domain rule
            i, outer, literal = i + 1, literal, True
            node = pow_(node, unary())
            literal = outer
        return node

    try:
        node = operands(_PREC_ADD)
        if tokens[i][1]:
            raise ExprSyntaxError("unexpected trailing input", offset(tokens[i][2]))
        return ScalarField(node, n)
    except RecursionError:  # the descent recurses once per nesting level
        raise ExprSyntaxError("expression nests too deeply", offset(tokens[i - 1][2])) from None
    finally:
        del operands, unary  # recursive closures are a reference cycle, which would keep `tokens`


# ---------------------------------------------------------------------------
# differentiation / substitution


def _derive(node: Node, name: str, d: Callable[[Node], Node]) -> Node:
    """The derivative rule of `node`, with `d` differentiating its operands."""
    work["derive"] += 1
    if (op := _BINARY.get(type(node))) is not None:
        return op.derive(node.left, node.right, d)
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, (Var, Param)):
        return _ONE if node.name == name else _ZERO
    if isinstance(node, Neg):
        return neg_(d(node.arg))
    if isinstance(node, Pow):
        dbase, g = d(node.base), node.exponent
        if name not in g._names[0] and name not in g._names[1]:  # g b^(g-1) b'
            return mul_(mul_(g, pow_(node.base, sub_(g, _ONE))), dbase)
        # f^g * (g' ln f + g f'/f); valid on the f > 0 domain of f^g
        return mul_(node, add_(mul_(d(g), call_("ln", node.base)),
                               mul_(g, div_(dbase, node.base))))
    if isinstance(node, Call):
        inner = d(node.arg)
        return mul_(_INTRINSICS[node.fn].derive(node.arg), inner)
    raise TypeError(f"unknown node {node!r}")


def partial(field: ScalarField, name: str) -> ScalarField:
    """Exact partial derivative with respect to a variable or parameter, by `_derive` once
    per distinct node.  A node's `_d` keeps earlier calls' derivatives, weakly, per name, and
    under "" the one derivative, a signed zero, by any name it does not read; the walk stops
    where `_d` has it, and visits an exponent only where it reads the name, as `_derive` does."""
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"invalid differentiation target {name!r}")
    _coordinate(name, field.n)  # a [qp]<digits> name that is no coordinate raises
    memo: dict[Node, Node] = {}

    def operands(node: Node) -> tuple:
        if (known := getattr(node, "_d", None)) is None:
            object.__setattr__(node, "_d", known := {})
        if name in node._names[0] or name in node._names[1]:
            dn = None if (ref := known.get(name)) is None else ref()
        else:
            dn = known.get("")
        if dn is not None:
            memo[node] = dn
            return ()
        g = node.exponent if type(node) is Pow else None
        if g is not None and name not in g._names[0] and name not in g._names[1]:
            return (node.base,)
        return _operands(node)

    def rule(node: Node, d: Callable[[Node], Node]) -> Node:
        if name in node._names[0] or name in node._names[1]:
            node._d[name] = weakref.ref(dn := _derive(node, name, d))
        else:
            dn = node._d[""] = _derive(node, "", d)
        return dn

    _walk((field.ast,), rule, memo, operands)
    if (kept := _KEPT.get()) is not None:
        kept.update((field.ast, *memo.values()))
    return ScalarField(memo[field.ast], field.n)


@dataclass(eq=False)
class KeptRun:
    """One `derivatives_kept` block: `work` holds its symbolic work (nodes and
    programs, which hash by identity, so one added again does not grow it), and
    `record` what the block keeps besides (the parsed input)."""

    record: object = None
    work: set[object] = dc_field(default_factory=set)


@contextmanager
def derivatives_kept(key: object) -> Iterator[KeptRun]:
    """Within the block, one set (`work` of the run yielded) holds the root of
    each `partial` call and its derivatives, so that the nodes' weak `_d` find
    them, and each program that `compile_bundle` uses.  The run is the one
    kept under `key`, if any, whose `record` (set by the block) its `work` built.
    On exit it is kept under `key` as the most recent, and only the runs of the
    last `_RECENT` keys stay, serving every block with their work.  The key
    decides only how long the work lives, never what is computed."""
    run = _RUNS.pop(key, None) or KeptRun()
    token = _KEPT.set(run.work)
    try:
        yield run
    finally:
        _KEPT.reset(token)
        _RUNS[key] = run
        while len(_RUNS) > _RECENT:  # no lock: a race could only misjudge a lifetime
            _RUNS.pop(next(iter(_RUNS)), None)


def _subst(node: Node, name: str, replacement: Node, s: Callable[[Node], Node]) -> Node:
    """The substitution rule of `node`, with `s` substituting in its operands."""
    if isinstance(node, (Var, Param)):
        return replacement if node.name == name else node
    if isinstance(node, Num):
        return node
    op = _BINARY.get(type(node))
    smart = op.smart if op is not None else {Neg: neg_, Pow: pow_, Call: call_}[type(node)]
    return smart(*(s(v) if isinstance(v, _Node) else v for v in vars(node).values()))


def substitute(field: ScalarField, name: str, replacement: ScalarField | float) -> ScalarField:
    """Replace every occurrence of an identifier by another field (or number)."""
    if isinstance(replacement, ScalarField):
        if replacement.n != field.n:
            raise ValueError("dimension mismatch in substitution")
        rep = replacement.ast
    else:
        rep = Num(replacement)
    memo = _walk((field.ast,), lambda node, s: _subst(node, name, rep, s), {}, _operands)
    return ScalarField(memo[field.ast], field.n)
