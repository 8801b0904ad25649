import dataclasses
import gc
import json
import math
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact_noether import cli, expr, systems
from contact_noether.expr import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    IndexOutOfRange,
    UnboundParameter,
    UnknownIntrinsic,
    parse,
    partial,
    substitute,
)
from contact_noether.geometry import point_bundle
from contact_noether.noether import sample_points
from conftest import certbench_workloads, point, tally, value
from oracles import dual_gradient
from randfields import PARAM_NAMES, central_fd, derivative_pair, random_env, random_field

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def ev(source, n=1, env=None):
    return value(parse(source, n), env or {})


class TestParse:
    def test_free_vars(self):
        f = parse("q0*p0 - 2*S", 1)
        assert f.free_vars == {"q0", "p0", "S"}
        assert f.free_params == set()

    def test_pythagorean(self):
        f = parse("sqrt(q0^2+q1^2+q2^2)", 3)
        assert value(f, point([3, 0, 4], [0, 0, 0]).env()) == 5.0

    def test_kepler_hamiltonian_value(self):
        # value from direct substitution into p.p/2m - 4 eps/|q|
        f = parse("(p0^2+p1^2+p2^2)/(2*m) - 4*eps/sqrt(q0^2+q1^2+q2^2)", 3)
        env = {**point([1, 0, 0], [0, 1, 0]).env(), "m": 1.0, "eps": 0.25}
        assert value(f, env) == pytest.approx(-0.5, abs=1e-15)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("q0 + * 2", 1)
        assert ei.value.offset == 5

    def test_unknown_intrinsic(self):
        with pytest.raises(UnknownIntrinsic):
            parse("tan(q0)", 1)

    def test_no_node_calls_an_unknown_intrinsic(self):
        # `call_` refuses the name, so no tree holds a call that evaluation,
        # compiled code or `partial` could not run
        for arg in (expr.Var("q0"), expr.Num(0.5)):
            with pytest.raises(UnknownIntrinsic, match="unknown intrinsic 'tan'"):
                expr.call_("tan", arg)
        with pytest.raises(UnknownIntrinsic, match="unknown intrinsic 'tan'"):
            expr.apply_intrinsic("tan", parse("q0", 1))

    # (source, n, error type, message, byte offset); offsets count UTF-8 bytes
    ERRORS = [
        ("(q0 + 1", 1, ExprSyntaxError, "expected ')' (byte offset 7)", 7),
        ("sqrt(q0*q0", 1, ExprSyntaxError, "expected ')' (byte offset 10)", 10),
        ("q0 q1", 2, ExprSyntaxError, "unexpected trailing input (byte offset 3)", 3),
        ("2*q0)", 1, ExprSyntaxError, "unexpected trailing input (byte offset 4)", 4),
        ("q0 + 1e400", 1, ExprSyntaxError,
         "numeric literal '1e400' is not a finite float (byte offset 5)", 5),
        ("2*sin + q0", 1, ExprSyntaxError,
         "intrinsic name 'sin' used as identifier (byte offset 2)", 2),
        ("q0 + * 2", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 5)", 5),
        ("", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 0)", 0),
        ("q0 +  ", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 6)", 6),
        ("tan(q0)", 1, UnknownIntrinsic, "unknown intrinsic 'tan' (byte offset 0)", None),
        ("1 + foo (q0)", 1, UnknownIntrinsic, "unknown intrinsic 'foo' (byte offset 4)", None),
        ("q5 + 1", 2, IndexOutOfRange, "'q5' out of range for dimension n=2", None),
        ("p2", 2, IndexOutOfRange, "'p2' out of range for dimension n=2", None),
        ("é + * 2", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 0)", 0),
        ("\u00a0q0 + * 2", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 7)", 7),
        ("\u3000q0 - é", 1, ExprSyntaxError,
         "expected a number, identifier or parenthesised expression (byte offset 8)", 8),
        ("\u0663\u0663 + cos", 1, ExprSyntaxError,
         "intrinsic name 'cos' used as identifier (byte offset 7)", 7),
        ("\u00a0ln(q0) + ex(q0)", 1, UnknownIntrinsic, "unknown intrinsic 'ex' (byte offset 11)", None),
    ]

    @pytest.mark.parametrize("source, n, kind, message, offset", ERRORS)
    def test_error_type_message_and_offset(self, source, n, kind, message, offset):
        with pytest.raises(ExprError) as ei:
            parse(source, n)
        assert type(ei.value) is kind and str(ei.value) == message
        assert getattr(ei.value, "offset", None) == offset

    @pytest.mark.parametrize("source", ["(" * 400 + "q0" + ")" * 400, "-" * 1000 + "q0"],
                             ids=["parentheses", "unary-minus"])
    def test_too_deep_a_nesting_is_a_syntax_error(self, source):
        # the descent recurses once per nesting level, so it refuses a nesting
        # that would exhaust the interpreter's stack, with where it was reading
        with pytest.raises(ExprSyntaxError, match=r"^expression nests too deeply \(byte offset") as ei:
            parse(source, 1)
        assert 0 < ei.value.offset < len(source)

    def test_a_qp_name_is_a_coordinate_only_as_written(self):
        # a leading zero names no coordinate, in the parser as in variable() and partial()
        for source in ("q01*p00 + S", "q0*p00", "q00"):
            with pytest.raises(IndexOutOfRange, match="'[qp]0[01]'"):
                parse(source, 2)
        with pytest.raises(IndexOutOfRange, match="'q01'"):
            expr.variable("q01", 2)
        with pytest.raises(IndexOutOfRange, match="'p00'"):
            partial(parse("p0", 2), "p00")
        assert parse("q1*p0 + S", 2).ast is expr.add_(expr.mul_(expr.Var("q1"), expr.Var("p0")),
                                                     expr.Var("S"))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse("q5", 3)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(q0 + 1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("q0 1", 1)

    def test_unary_minus_and_power(self):
        assert ev("-2^2") == -4.0  # -(2^2)
        assert ev("(-2)^2") == 4.0
        assert ev("2^-2") == 0.25
        assert ev("2^3^2") == 512.0  # right associative


class TestEvaluate:
    def test_power_reduces_to_linear(self):
        assert ev("t^((3*L-1)/2)", env={"t": 4.0, "L": 1.0}) == 4.0

    def test_identity(self):
        assert ev("S", env={"S": 0.0}) == 0.0

    def test_hand_evaluated_oscillator(self):
        assert ev("q0^2/2 + p0^2/2", env={"q0": 3.0, "p0": 4.0}) == 12.5

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter):
            point_bundle([parse("a*q0", 1)], {})

    def test_domain_errors_name_subexpression(self):
        with pytest.raises(DomainError, match="sqrt"):
            ev("sqrt(q0)", env={"q0": -1.0})
        with pytest.raises(DomainError, match="ln"):
            ev("ln(q0)", env={"q0": 0.0})
        with pytest.raises(DomainError, match="division"):
            ev("1/q0", env={"q0": 0.0})

    def test_integer_power_any_base(self):
        assert ev("q0^3", env={"q0": -2.0}) == -8.0
        assert ev("q0^-2", env={"q0": -2.0}) == 0.25

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            ev("q0^0.5", env={"q0": -1.0})
        assert ev("q0^0.5", env={"q0": 4.0}) == 2.0

    def test_overflow_is_loud(self):
        with pytest.raises(DomainError):
            ev("exp(q0)", env={"q0": 1e6})

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = random_field(rng, 2, 5)
            env = random_env(rng, 2)
            try:
                a = value(f, env)
            except expr.ExprError:
                continue
            assert value(f, env) == a

    def test_compiled_matches_interpreter_bitwise(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            f = random_field(rng, 2, 6)
            env = random_env(rng, 2)
            try:
                ref = expr.eval_node(f.ast, env)
            except expr.ExprError:
                continue
            assert value(f, env) == ref
            checked += 1

    def test_compiled_raises_the_interpreters_domain_error(self):
        # the first failing subexpression, and its label, agree with eval_node
        # on random fields and on their derivatives, which share subexpressions
        def outcome(fn, env):
            try:
                return float(fn(env)).hex()
            except DomainError as e:
                return f"DomainError: {e}"

        rng = np.random.default_rng(13)
        raised = 0
        for _ in range(1000):
            f = random_field(rng, 2, 6)
            env = random_env(rng, 2)
            for g in (f, partial(f, "q0")):
                ref = outcome(lambda e: expr.eval_node(g.ast, e), env)
                assert outcome(lambda e: value(g, e), env) == ref
                raised += ref.startswith("DomainError")
        assert raised >= 50


def _outcome(fn):
    """Values bit for bit, or the DomainError's type, message and `where`."""
    try:
        return [float(v).hex() for v in fn()]
    except DomainError as e:
        return type(e), str(e), e.where


class TestBundle:
    def test_bundles_of_random_fields_match_the_interpreter(self):
        # fields drawn from a pool of random fields, their partials and a
        # product, so that the fields of one bundle share subexpressions
        rng = np.random.default_rng(29)
        raised = 0
        for _ in range(400):
            f, g = random_field(rng, 2, 6), random_field(rng, 2, 5)
            pool = [f, partial(f, "q0"), g, partial(g, "p1"), f * g]
            picks = rng.choice(len(pool), size=rng.integers(1, 5), replace=False)
            fields = [pool[i] for i in picks]
            env = random_env(rng, 2)
            bundle = expr.compile_bundle(fields, list(env))
            ref = _outcome(lambda: [expr.eval_node(fl.ast, env) for fl in fields])
            assert _outcome(lambda: bundle(*env.values())) == ref
            raised += isinstance(ref, tuple)
        assert 30 <= raised <= 370

    # nodes are built in the test: a node held by the module would keep its
    # memoized derivatives alive for the tests that count derivative rules
    @pytest.mark.parametrize("make, q0", [
        (lambda: expr.Pow(expr.Num(-0.728), expr.Num(2.0)), 1.0),  # not -(0.728 ** 2)
        (lambda: expr.Pow(expr.Num(0.0), expr.Num(-1.0)), 1.0),
        # finite, but the interpreter raises at the inner inf
        (lambda: expr.Div(expr.Num(1.0), expr.Div(expr.Num(1.0), expr.Var("q0"))), 1e-310),
        (lambda: expr.Call("ln", expr.Num(0.0)), 1.0),
        (lambda: expr.Call("sqrt", expr.Neg(expr.Var("q0"))), 1.0),
        (lambda: expr.Call("exp", expr.Mul(expr.Num(800.0), expr.Var("q0"))), 1.0),
        (lambda: expr.Pow(expr.Num(0.0), expr.Num(0.5)), 1.0),
    ], ids=["negative-literal-base", "zero-to-minus-one", "inner-inf", "ln-zero",
            "sqrt-negative", "exp-overflow", "zero-to-one-half"])
    def test_fixed_cases(self, make, q0):
        field, other = expr.ScalarField(make(), 1), parse("q0 + 1", 1)
        env = {"q0": q0}
        for fields in ([field], [other, field], [field, other]):
            ref = _outcome(lambda: [expr.eval_node(fl.ast, env) for fl in fields])
            assert _outcome(lambda: expr.compile_bundle(fields, ["q0"])(q0)) == ref

    def test_bound_parameters_match_the_positional_compile(self):
        # a random subset of the names bound as numbers at compile: the values bit
        # for bit, and the first DomainError, of the bundle taking every name
        rng = np.random.default_rng(37)
        raised = 0
        for _ in range(300):
            fields = [random_field(rng, 2, 6), random_field(rng, 2, 5)]
            env = random_env(rng, 2)
            bound = {k: v for k, v in env.items() if rng.random() < 0.5}
            args = [k for k in env if k not in bound]
            ref = _outcome(lambda: expr.compile_bundle(fields, list(env))(*env.values()))
            got = _outcome(lambda: expr.compile_bundle(fields, args, bound)(
                *(env[k] for k in args)))
            assert got == ref
            raised += isinstance(ref, tuple)
        assert 20 <= raised <= 280

    def test_a_bound_zero_keeps_its_sign(self):
        # 0.0 and -0.0 are two values, each bound into its own bundle of one program
        f = parse("q0*m", 1)
        plus, minus = (expr.compile_bundle([f], ["q0"], {"m": m}) for m in (0.0, -0.0))
        assert [math.copysign(1.0, fn(1.0)[0]) for fn in (plus, minus)] == [1.0, -1.0]

    @pytest.mark.parametrize("source, m", [("q0/(m - 1)", 1.0), ("q0*sqrt(m - 2)", 1.0),
                                           ("q0*(1e300/m)", 1e-10)])
    def test_failing_parameter_statements(self, source, m):
        # what reads only `m` runs once, when the bundle is made: `m - 1` is 0
        # there, `sqrt(m - 2)` raises and `1e300/m` overflows
        field, other = parse(source, 1), parse("q0 + 1", 1)
        env = {"q0": 0.5, "m": m}
        for fields in ([field], [other, field], [field, other]):
            ref = _outcome(lambda: [expr.eval_node(fl.ast, env) for fl in fields])
            assert isinstance(ref, tuple)
            assert _outcome(lambda: expr.compile_bundle(fields, ["q0"], {"m": m})(0.5)) == ref

    def test_parameter_values_share_one_compile(self):
        f = parse("m*q0 + sin(m)", 1)
        two, three = (expr.compile_bundle([f], ["q0"], {"m": m}) for m in (2.0, 3.0))
        assert two.__code__ is three.__code__
        for m, bundle in ((2.0, two), (3.0, three)):
            assert bundle(0.5) == (expr.eval_node(f.ast, {"q0": 0.5, "m": m}),)

    def test_parameter_values_share_one_program(self):
        # a bundle's program reads which names are bound, never their values: while a
        # run holds it, a bundle of the same roots and bound names at other values
        # emits no program and returns its own values, and other bound names emit again
        f = parse("m*q0 + sin(m)/k", 1)
        with expr.derivatives_kept(object()):
            done = tally()
            two = expr.compile_bundle([f], ["q0"], {"m": 2.0, "k": 3.0})
            emitted = done()["emitted"]
            three = expr.compile_bundle([f], ["q0"], {"m": 3.0, "k": 5.0})
            assert emitted > 0 and done()["emitted"] == emitted and done()["bundles"] == 1
            for bundle, env in ((two, {"m": 2.0, "k": 3.0}), (three, {"m": 3.0, "k": 5.0})):
                assert bundle(0.5) == (expr.eval_node(f.ast, {"q0": 0.5, **env}),)
            assert two(0.5) != three(0.5)
            expr.compile_bundle([f], ["q0"], {"m": 2.0, "k": 3.0, "w": 1.0})
            assert [done()[k] for k in ("bundles", "emitted")] == [2, 2 * emitted]

    def test_a_parameter_named_like_an_argument_is_ignored(self):
        fn = expr.compile_bundle([parse("q0*m", 1)], ["q0", "m"], {"m": 5.0, "q0": 7.0})
        assert fn(2.0, 3.0) == (6.0,)

    def test_unbound_names_are_rejected(self):
        with pytest.raises(UnboundParameter):
            expr.compile_bundle([parse("q0*m", 1)], ["q0"])

    def test_bundles_that_differ_in_their_numbers_share_one_compile(self):
        rng = np.random.default_rng(31)
        raised, compiled, codes = 0, tally(), set()
        for _ in range(200):
            f = random_field(rng, 2, 6)
            g = expr.ScalarField(_with_new_numbers(f.ast), 2)
            env = random_env(rng, 2)
            first = expr.compile_bundle([f], list(env))
            codes.add(first.__code__)
            done = tally()
            second = expr.compile_bundle([g], list(env))
            assert done()["compiles"] == 0 and second.__code__ is first.__code__
            for field, bundle in ((f, first), (g, second)):
                ref = _outcome(lambda: [expr.eval_node(field.ast, env)])
                assert _outcome(lambda: bundle(*env.values())) == ref
                raised += isinstance(ref, tuple)
        assert 20 <= raised <= 380
        # each compile made a new function, which only the first bundles can be
        assert 0 < compiled()["compiles"] <= len(codes)


def _with_new_numbers(root: expr.Node) -> expr.Node:
    """`root` rebuilt without folding, each distinct number moved by its own
    multiple of 2^-10, except integer exponents, which are part of the code."""
    memo: dict = {}

    def copy(node):
        if node not in memo:
            if isinstance(node, expr.Num):
                memo[node] = expr.Num(node.value + (len(memo) + 1) / 1024)
            elif isinstance(node, (expr.Var, expr.Param)):
                memo[node] = node
            elif isinstance(node, expr.Pow) and expr._int_exponent(node.exponent) is not None:
                memo[node] = expr.Pow(copy(node.base), node.exponent)
            else:
                memo[node] = type(node)(*(copy(v) if isinstance(v, expr._Node) else v
                                          for v in vars(node).values()))
        return memo[node]

    return copy(root)


def test_the_generated_program_texts_are_pinned():
    # every text that `_factory` compiles (the module's one `compile` call) while
    # the four bundled scenarios run, in compile order, in a fresh interpreter so
    # that no program is already live: a change to code generation moves the pin
    script = f"""
import builtins, hashlib, sys, tempfile
from pathlib import Path
sys.path.insert(0, {str(SCENARIOS.parent / "src")!r})
from contact_noether import cli, expr
texts = []
expr.compile = lambda source, *args: texts.append(source) or builtins.compile(source, *args)
with tempfile.TemporaryDirectory() as out:
    for path in sorted(Path({str(SCENARIOS)!r}).glob("*.json")):
        assert cli.run(path, Path(out), quiet=True)[1] == 0
print(len(texts), hashlib.sha256("\\0".join(texts).encode()).hexdigest())
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == [
        "24", "23bfb4439d16125c473d725fadcd3f9a59d03958d9f1fb5d2beef67faa644f35"]


class TestDeepTrees:
    """A sum nests once per term, so one of 5,000 terms is a tree 5,000 levels
    deep, which every pass walks on a stack of its own (`expr._walk`)."""

    ENV = {f"q{j}": 0.01 * (j + 1) for j in range(128)}

    @pytest.fixture(scope="class")
    def deep(self):
        return parse(" + ".join(f"{1.5 + i}*q{i % 128}" for i in range(5000)), 128)

    @staticmethod
    def total(env):
        """The sum, term by term, left to right, as the tree adds."""
        acc = 1.5 * env["q0"]
        for i in range(1, 5000):
            acc = acc + (1.5 + i) * env[f"q{i % 128}"]
        return acc

    def test_partial(self, deep):
        want = 1.5
        for i in range(128, 5000, 128):
            want = want + (1.5 + i)
        assert partial(deep, "q0").ast is expr.Num(want)

    def test_eval_node(self, deep):
        assert expr.eval_node(deep.ast, self.ENV) == self.total(self.ENV)

    def test_to_source_parses_back_to_the_tree(self, deep):
        assert parse(expr.to_source(deep.ast), 128).ast is deep.ast

    def test_substitute(self, deep):
        g = substitute(deep, "q0", 2.0)
        assert "q0" not in g.free_vars
        assert expr.eval_node(g.ast, self.ENV) == self.total({**self.ENV, "q0": 2.0})

    def test_compile_bundle(self, deep):
        names = sorted(self.ENV)
        fn = expr.compile_bundle([deep], names)
        assert fn(*(self.ENV[k] for k in names)) == (expr.eval_node(deep.ast, self.ENV),)


class TestNonFiniteConstants:
    def test_overflowing_fold_is_kept_as_an_operation(self):
        for src in ("1e200*1e200*q0", "1e200*1e200", "q0 - 1e308 - 1e308"):
            f = parse(src, 1)
            env = {"q0": 1.0}
            assert value(f, env) == expr.eval_node(f.ast, env)
        assert not isinstance(parse("1e200*1e200", 1).ast, expr.Num)
        assert value(parse("1e200*1e200*q0", 1), {"q0": 1.0}) == math.inf
        assert value(expr.number(-math.inf, 1), {}) == -math.inf

    def test_non_finite_literal_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("1e400*q0", 1)
        assert ei.value.offset == 0
        with pytest.raises(ExprSyntaxError) as ei:
            parse("q0 + 2e999", 1)
        assert ei.value.offset == 5

    def test_constructors_fold_only_finite_results(self):
        big = expr.Num(1e200)
        assert isinstance(expr.mul_(big, big), expr.Mul)
        assert isinstance(expr.add_(expr.Num(1.7e308), expr.Num(1.7e308)), expr.Add)
        assert isinstance(expr.sub_(expr.Num(-1.7e308), expr.Num(1.7e308)), expr.Sub)
        assert isinstance(expr.div_(expr.Num(1.0), expr.Num(1e-320)), expr.Div)
        assert expr.mul_(expr.Num(2.0), expr.Num(3.0)) is expr.Num(6.0)


def _tower(name: str, levels: int) -> expr.ScalarField:
    """`levels` times f -> sin(f*f + f) from the parameter `name`: 3*levels + 1
    distinct nodes, and 3^(levels+1)/2 - 1/2 nodes as a tree."""
    f = expr.parameter(name, 1)
    for _ in range(levels):
        f = expr.apply_intrinsic("sin", f * f + f)
    return f


def _distinct(root):
    """The distinct nodes under `root`, by a walk over their fields."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(v for v in vars(node).values() if isinstance(v, expr._Node))
    return seen


class TestSharing:
    def test_equal_structure_is_one_object(self):
        src = "sqrt(q0^2 + q1^2)*p0 - 3*S/t"
        assert parse(src, 2).ast is parse(src, 2).ast
        assert partial(parse(src, 2), "q0").ast is partial(parse(src, 2), "q0").ast
        assert parse("(q0 + 1)*(q0 + 1)", 1).ast.left is parse("(q0 + 1)*(q0 + 1)", 1).ast.right
        ast = parse(src, 2).ast
        assert pickle.loads(pickle.dumps(ast)) is ast

    def test_signed_zeros_stay_distinct(self):
        assert expr.Num(0.0) is not expr.Num(-0.0)
        assert math.copysign(1.0, expr.Num(-0.0).value) == -1.0
        assert math.copysign(1.0, expr.Num(0.0).value) == 1.0

    def test_dropped_nodes_are_freed(self):
        f = parse("exp(q0*0.0012345) + sin(p0)/q0", 1)
        node = weakref.ref(f.ast)
        d = partial(f, "q0")
        value(d, {"q0": 0.5, "p0": 0.25})
        value(f, {"q0": 0.5, "p0": 0.25})
        del f, d
        gc.collect()
        assert node() is None

    def test_the_compile_cache_holds_no_tree_and_no_fallback(self):
        f = parse("q0*xi_cache + exp(p0)/q0", 1)  # a parameter no other test uses
        fn = expr.compile_bundle([f, partial(f, "q0")], ["q0", "p0", "xi_cache"])
        env = {"q0": 0.5, "p0": 0.25, "xi_cache": 1.5}
        assert value(f, env) == fn(0.5, 0.25, 1.5)[0] == expr.eval_node(f.ast, env)
        node, function = weakref.ref(f.ast), weakref.ref(fn)
        del f, fn
        gc.collect()
        assert node() is None and function() is None

    def test_each_distinct_subexpression_is_evaluated_once(self, monkeypatch):
        calls = []
        row = expr._INTRINSICS["sqrt"]

        def counting(x):
            calls.append(x)
            return row.fn(x)

        f = parse("sqrt(q0^2+1)*sqrt(q0^2+1) + q0/sqrt(q0^2+1)", 1)
        ref = expr.eval_node(f.ast, {"q0": 2.0})
        monkeypatch.setitem(expr._INTRINSICS, "sqrt", row._replace(fn=counting))
        assert value(f, {"q0": 2.0}) == ref
        assert calls == [5.0]

    def test_derivative_visits_each_distinct_node_once(self, monkeypatch):
        # 8 levels of f -> sin(f*f + f): 16401 tree nodes, 25 distinct ones, over
        # a parameter no other test uses, so that the weak derivative memo holds
        # none of them whatever else the test run keeps alive
        f = expr.parameter("xi_sharing", 1)
        for _ in range(8):
            f = expr.apply_intrinsic("sin", f * f + f)
        rules = []
        real = expr._derive
        monkeypatch.setattr(expr, "_derive", lambda node, *a: rules.append(node) or real(node, *a))
        d = partial(f, "xi_sharing")
        assert len(rules) == len(set(rules)) == 25
        env = {"xi_sharing": 0.3}
        assert value(d, env) == expr.eval_node(d.ast, env)

    def test_the_interpreter_visits_each_distinct_node_once(self, monkeypatch):
        # 12 levels of f -> sin(f*f + f): 37 distinct nodes, 797161 as a tree
        f = _tower("xi_eval", 12)
        env = {"xi_eval": 0.3}
        ref = expr.compile_bundle([f], ["xi_eval"])(0.3)
        bad = f + expr.apply_intrinsic("ln", expr.parameter("xi_eval", 1) - 1.0)
        visits = []
        real = expr._eval
        monkeypatch.setattr(expr, "_eval", lambda node, *a: visits.append(node) or real(node, *a))
        assert (expr.eval_node(f.ast, env),) == ref
        assert len(visits) == len(set(visits)) == 37
        visits.clear()
        with pytest.raises(DomainError) as info:
            expr.eval_node(bad.ast, env)
        assert info.value.where == "ln(xi_eval - 1.0)" and len(visits) == len(set(visits)) == 40


class TestPartial:
    def test_linear_term(self):
        d = partial(parse("q0*p0 - 2*S", 1), "S")
        assert isinstance(d.ast, expr.Num)
        assert d.ast.value == -2.0

    def test_norm_gradient_matches_fd(self):
        f = parse("sqrt(q0^2+q1^2)", 2)
        env = point([3.0, 4.0], [0.0, 0.0]).env()
        d = value(partial(f, "q0"), env)
        fd = central_fd(f, "q0", env, 1e-6)
        assert d == pytest.approx(0.6, abs=1e-12)
        assert d == pytest.approx(fd, abs=1e-6)

    def test_power_rule(self):
        assert value(partial(parse("t^2", 1), "t"), {"t": 3.0}) == 6.0

    def test_higher_partials(self):
        f = parse("q0^4", 1)
        d2 = partial(partial(f, "q0"), "q0")
        assert value(d2, {"q0": 2.0}) == 48.0

    def test_out_of_range_coordinate_is_rejected(self):
        # as the parser and variable() reject it, instead of differentiating a parameter
        f = parse("q0*p1", 3)
        for name in ("q5", "p3"):
            with pytest.raises(IndexOutOfRange, match=name):
                partial(f, name)
        assert partial(f, "p1").source() == "q0"

    def test_partial_wrt_parameter(self):
        f = parse("a*t^2 + b", 1)
        assert value(partial(f, "a"), {"t": 3.0, "b": 0.0, "a": 0.0}) == 9.0
        assert value(partial(f, "b"), {}) == 1.0

    def test_free_vars_shrink(self):
        f = parse("q0*p0 + sin(S)", 1)
        assert partial(f, "q0").free_vars <= f.free_vars

    def test_abs_derivative_away_from_zero(self):
        f = parse("abs(q0)", 1)
        assert value(partial(f, "q0"), {"q0": -3.0}) == -1.0
        assert value(partial(f, "q0"), {"q0": 2.0}) == 1.0
        with pytest.raises(DomainError):
            value(partial(f, "q0"), {"q0": 0.0})

    def test_product_rule_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            f = random_field(rng, 2, 3)
            g = random_field(rng, 2, 3)
            env = random_env(rng, 2)
            name = "q0"
            try:
                lhs = value(partial(f * g, name), env)
                rhs = value(partial(f, name) * g + f * partial(g, name), env)
            except expr.ExprError:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = random_field(rng, 2, 3)
            f = expr.apply_intrinsic("sin", g)
            env = random_env(rng, 2)
            try:
                lhs = value(partial(f, "p1"), env)
                rhs = value(expr.apply_intrinsic("cos", g) * partial(g, "p1"), env)
            except expr.ExprError:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_derivative_oracle_1000_random_asts(self):
        # acceptance: exact derivative vs central difference, 1e-5 relative
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            field, name, env, fd = derivative_pair(rng)
            d = value(partial(field, name), env)
            assert abs(d - fd) <= 1e-5 * max(1.0, abs(fd))


    def test_every_first_and_second_partial_matches_an_unpruned_walk(self):
        # the reference applies expr._derive at every node, with a memo of its
        # own, and never reads a node's _d, so a derivative that a node does not
        # read the name of must come out as the same signed zero the rules give
        def by_walk(node, name, memo):
            if (node, name) not in memo:
                memo[node, name] = expr._derive(node, name, lambda k: by_walk(k, name, memo))
            return memo[node, name]

        def same(got, want):
            return got is want or expr.to_source(got) == expr.to_source(want)

        names = ("q0", "q1", "p0", "p1", "S", "t", *PARAM_NAMES, "xi_unread")
        for seed in range(1000):
            f = parse(random_field(np.random.default_rng(seed), 2, 6).source(), 2)
            memo: dict = {}
            for a in names:
                fa, want = partial(f, a), by_walk(f.ast, a, memo)
                assert same(fa.ast, want), (seed, f.source(), a)
                for b in names:
                    assert same(partial(fa, b).ast, by_walk(want, b, memo)), (seed, f.source(), a, b)

    def test_a_subtree_without_the_name_is_walked_once(self, monkeypatch):
        big = parse("p0*p1 + mu", 2)
        for _ in range(6):
            big = expr.apply_intrinsic("sin", big * big + big / parse("p1 - mu^2", 2))
        nodes = _distinct(big.ast)
        f = big + expr.variable("q0", 2)
        rules = []
        real = expr._derive
        monkeypatch.setattr(expr, "_derive", lambda node, *a: rules.append(node) or real(node, *a))
        assert partial(f, "q0").ast is expr._ONE
        for name in ("q1", "S", "t"):
            assert expr.to_source(partial(f, name).ast) in ("0.0", "-0.0")
        big_rules = [node for node in rules if node in nodes]
        assert big_rules and len(big_rules) == len(set(big_rules))


class TestDualNumberOracle:
    """Compiled partials are the gradient that forward-mode dual numbers give
    (`oracles.dual_gradient`): those of every builtin h and every bound builtin
    invariant, by each coordinate and rated parameter, at 100 seeded points
    each, and those of random fields by every name they read."""

    # the dual rules take the package's products and quotients in the same order,
    # so the two agree to the bit (0 ulps measured); the slack admits a rule
    # rewritten into an equivalent order, and is far below the 4.6e4 ulps that a
    # relative change of 1e-13 in one rule's constant shows
    MAX_ULPS = 4

    @staticmethod
    def gap(field, names, envs, bound={}):
        """The largest gap in ulps between the compiled `partial(field, x)` for x
        in `names` (and the value) and the dual gradient, over the points `envs`
        (values by `names`), and the number of points skipped because the
        package raises DomainError there."""
        bundle = expr.compile_bundle([field, *(partial(field, x) for x in names)], names, bound)
        worst, skipped = 0.0, 0
        for env in envs:
            try:
                got = bundle(*(env[nm] for nm in names))
            except DomainError:
                skipped += 1
                continue
            v, grad = dual_gradient(field, {**bound, **env}, names)
            for g, w in zip(got, (v, *grad)):
                worst = max(worst, abs(g - w) / math.ulp(max(abs(g), abs(w), 5e-324)))
        return worst, skipped

    @pytest.mark.parametrize("name, params", [
        ("kepler", {}),
        ("td-kepler", {}),
        ("td-kepler", {"Lambda": 0.6}),  # a fractional power of t
        ("harmonic-dissipative", {"f": "1 + 0.3*sin(t)", "g0": 0.2}),
        ("harmonic-dissipative", {"f": "2 + cos(t)*exp(-t/4) + ln(1 + t)/3 + abs(sin(3*t))/5 + sqrt(t)"}),
    ], ids=["kepler", "td-kepler", "td-kepler-fractional", "damped-oscillator", "six-intrinsics"])
    def test_builtin_partials_are_the_dual_gradient(self, name, params):
        system = systems.make_builtin(name, params)
        n = system.n
        names = [*(f"q{i}" for i in range(n)), *(f"p{i}" for i in range(n)), "S", "t",
                 *sorted(system.param_rates)]
        rng = random.Random(7)
        envs = []
        for _ in range(100):
            env = {nm: rng.uniform(-2.0, 2.0) for nm in names}
            env["t"] = rng.uniform(0.2, 3.0)
            env.update({nm: rng.uniform(0.5, 2.0) for nm in ("rho", "a", "b") if nm in env})
            envs.append(env)
        bound = {**system.params, "rho0": 1.3, "a0": 0.8}
        for field in (system.h, *(inv.field for inv in system.invariants.values())):
            worst, skipped = self.gap(field, names, envs, bound)
            assert worst <= self.MAX_ULPS, field.source()
            assert skipped <= 10, f"{skipped} of 100 points out of the domain"

    def test_a_power_derives_by_g_b_to_the_g_minus_1_unless_its_exponent_reads_the_name(self):
        # a number exponent k gives the node k b^(k-1) b' as written out, `sub_` folding
        # k - 1; an exponent of parameters takes the same rule (0 ulps from the dual
        # gradient, which takes it wherever the exponent does not move), and the
        # derivative by a parameter that the exponent reads takes the ln rule
        base = parse("q0*p0 + t^2 + 1", 1)
        for k in (2.5, -0.5, 3.0, 1e-3):
            power = expr.pow_(base.ast, expr.Num(k))
            want = expr.mul_(expr.mul_(expr.Num(k), expr.pow_(base.ast, expr.Num(k - 1.0))),
                             partial(base, "q0").ast)
            assert partial(expr.ScalarField(power, 1), "q0").ast is want
        field = parse("(q0*p0 + t^2 + 1)^(3*Lambda/2 - 0.5) * t^(c - Lambda)", 1)
        names = ["q0", "p0", "S", "t"]
        envs = [{"q0": q, "p0": 1.5 - q, "S": 0.2, "t": 0.4 + q} for q in (0.1, 0.7, 1.3, 2.0)]
        assert self.gap(field, names, envs, {"Lambda": 0.37, "c": 1.6}) == (0.0, 0)
        assert self.gap(field, ["Lambda", "c"], [{"Lambda": 0.37, "c": 1.6}],
                        {"q0": 0.7, "p0": 0.8, "S": 0.2, "t": 1.1})[0] <= self.MAX_ULPS
        # an exponent that reads another coordinate takes the same rule: q0^p0 by q0 is
        # p0 q0^(p0-1), no longer q0^p0 (p0 (1/q0)), so its value moves in the last bit,
        # and at q0 = 0, out of the domain both ways, the error names the new power
        power = parse("q0^p0", 1)
        d = partial(power, "q0")
        assert d.source() == "p0*q0^(p0 - 1.0)"
        bundle = expr.compile_bundle([d], ["q0", "p0", "S", "t"], {})
        assert bundle(1.7, 2.5, 0.0, 1.0) == (2.5 * 1.7 ** 1.5,)
        with pytest.raises(DomainError, match=r"in `q0\^\(p0 - 1\.0\)`"):
            bundle(0.0, 2.0, 0.0, 1.0)

    def test_random_field_partials_are_the_dual_gradient(self):
        # `randfields` trees (every binary operator, integer and fractional
        # powers, five intrinsics) and two written fields: a power with a
        # variable exponent, and abs
        fields = [random_field(np.random.default_rng(seed), 2, 6) for seed in range(300)]
        fields += [parse("(1 + q0^2)^(p0*t - c1)", 2), parse("abs(q0 - p1)*ln(2 + sin(q1))", 2)]
        names = ["q0", "q1", "p0", "p1", "S", "t", *PARAM_NAMES]
        skipped = 0
        for seed, field in enumerate(fields):
            env = random_env(np.random.default_rng(1000 + seed), 2)
            worst, skips = self.gap(field, names, [env])
            assert worst <= self.MAX_ULPS, field.source()
            skipped += skips
        assert skipped <= len(fields) // 5, f"{skipped} of {len(fields)} points out of the domain"


class TestRoundTrip:
    def test_examples(self):
        sources = [
            "q0*p0 - 2*S",
            "-q0^2 + 3.5*(p0 - 1)/(S + 2)",
            "sin(t)*cos(q0) - exp(-t/2)",
            "t^((3*L-1)/2)",
            "1/sqrt(q0^2 + 1)",
            "2^-2 + q0^-3",
        ]
        env = {"q0": 0.7, "p0": -1.2, "S": 0.3, "t": 1.9, "L": 2.0}
        for src in sources:
            f = parse(src, 1)
            g = parse(f.source(), 1)
            a, b = value(f, env), value(g, env)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    @example(seed=133237)  # Add(p0, Add(1.59, q0)) printed without parentheses reassociated
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        f = random_field(rng, 2, 5)
        env = random_env(rng, 2)
        g = parse(f.source(), 2)
        try:
            a = value(f, env)
        except expr.ExprError:
            return
        assert value(g, env) == a


class TestSubstitute:
    def test_placeholder_replacement(self):
        template = parse("2*(q0*p0) - 3*t*h - S", 1)
        h = parse("p0^2/2", 1)
        concrete = substitute(template, "h", h)
        assert "h" not in concrete.free_params
        env = {"q0": 1.0, "p0": 2.0, "S": 0.5, "t": 1.0}
        assert value(concrete, env) == 2.0 * 2.0 - 3.0 * 2.0 - 0.5

    def test_substitute_number(self):
        f = substitute(parse("w*t", 1), "w", 2.5)
        assert value(f, {"t": 2.0}) == 5.0

    def test_each_distinct_node_is_substituted_once(self, monkeypatch):
        # 37 distinct nodes, 1,328,601 as a tree
        f = _tower("xi_subst", 12)
        calls = []
        real = expr._subst
        monkeypatch.setattr(expr, "_subst", lambda node, *a: calls.append(node) or real(node, *a))
        g = substitute(f, "xi_subst", parse("q0 + 1", 1))
        assert len(calls) == len(set(calls)) == 37
        assert (g.free_vars, g.free_params) == ({"q0"}, set())

    def test_results_match_a_walk_of_the_tree(self):
        def by_tree(node, name, rep):
            return expr._subst(node, name, rep, lambda k: by_tree(k, name, rep))

        for seed in range(300):
            f = random_field(np.random.default_rng(seed), 2, 6)
            for name, rep in (("c1", parse("q1*mu - t", 2)), ("q0", 2.5), ("mu", parse("-c2", 2))):
                node = rep.ast if isinstance(rep, expr.ScalarField) else expr.Num(rep)
                want = expr.to_source(by_tree(f.ast, name, node))
                assert expr.to_source(substitute(f, name, rep).ast) == want, (seed, name)


def _names_by_walk(root):
    """(Var names, Param names) under `root`, by a walk over its fields."""
    vs, ps, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, expr.Var):
            vs.add(node.name)
        elif isinstance(node, expr.Param):
            ps.add(node.name)
        else:
            stack.extend(v for v in vars(node).values() if isinstance(v, expr._Node))
    return vs, ps


class TestNodeFacts:
    """Names and derivatives are kept on each distinct node, in slots that the
    structural views of a node (`vars`, the dataclass fields) do not show."""

    def test_names_match_a_walk(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            f = random_field(rng, 2, 6)
            name = str(rng.choice(sorted(_names_by_walk(f.ast)[0] | {"q0"})))
            for g in (f, partial(f, name), partial(f, "mu"),
                      substitute(f, "c1", parse("q1*mu - t", 2))):
                assert (g.free_vars, g.free_params) == _names_by_walk(g.ast)

    def test_structural_views_hold_only_the_fields(self):
        f = parse("sin(q0*mu)^1.5 - -p0/t", 1)
        partial(f, "q0")  # gives the nodes under f their derivative slot
        stack = [f.ast]
        while stack:
            node = stack.pop()
            names = [fl.name for fl in dataclasses.fields(type(node))]
            assert list(vars(node)) == names == list(type(node).__match_args__)
            stack.extend(v for v in vars(node).values() if isinstance(v, expr._Node))

    def test_pickle_round_trip_returns_the_same_node(self):
        f = parse("exp(q0*xi_pickle)/(1 + p0^2)", 1)
        d = partial(f, "q0")
        for node in (f.ast, d.ast, expr.Num(-0.0)):
            assert pickle.loads(pickle.dumps(node)) is node

    def test_dropped_fields_and_partials_leave_the_table_as_it_was(self):
        # names no other test uses, so that every node built here is new; with the
        # collector off, only reference counts can free them, so no cycle holds one
        rng = np.random.default_rng(41)
        gc.collect()
        baseline = len(expr._INTERN)
        gc.disable()
        try:
            for i in range(200):
                f = random_field(rng, 2, 5) * expr.parameter(f"xi_drop{i}", 2)
                for name in ("q0", "p1", f"xi_drop{i}"):
                    f = f + partial(f, name)
                assert len(expr._INTERN) > baseline
                del f
            assert len(expr._INTERN) == baseline
        finally:
            gc.enable()
        gc.collect()
        assert len(expr._INTERN) == baseline


def _spaced(tmp_path, k: int) -> Path:
    """kepler-scaling with k trailing spaces: the same scenario under other bytes."""
    path = tmp_path / f"kepler-scaling-{k}.json"
    path.write_bytes((SCENARIOS / "kepler-scaling.json").read_bytes() + b" " * k)
    return path


def _oscillator(tmp_path, k: int) -> Path:
    """An oscillator of stiffness about 1 + k/8, written as a power `s^(k + 1)`: a
    nonzero number is a bound parameter, but an exponent stays, so it is a system
    that no other k shares.  It flows, and runs a check of every pointwise type."""
    energy = f"p0^2/2 + {(1.0 + k / 8) ** (1.0 / (k + 1))!r}^{k + 1}*q0^2/2"
    path = tmp_path / f"oscillator-{k}.json"
    path.write_text(json.dumps({
        "system": {"expression": energy, "dimension": 1},
        "initial": {"q": [1.0], "p": [0.0]}, "t_end": 5.0,
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12}, "sample_count": 20,
        "invariants": [{"label": "E", "expression": energy}],
        "symmetries": [
            {"label": "scaling", "ansatz": {"alpha": 1.0, "beta": 1.0, "gamma": 2.0}},
            {"label": "noether-of-E", "from_invariant": "E", "Yt": "t + 0.05*t^2"}],
        "checks": [
            {"type": "drift", "invariant": "E", "tol": 1e-8},
            {"type": "residual", "invariant": "E"},
            {"type": "symmetry", "symmetry": "noether-of-E"},
            {"type": "similarity", "symmetry": "scaling", "expect_verdict": "DynamicalSymmetry"},
            {"type": "closure", "first": "scaling", "second": "noether-of-E"}]}))
    return path


class TestRunScopedDerivatives:
    """While one scenario runs, one set holds every derivative that `partial`
    builds and every bundle compiled, so a later check finds an earlier one's
    through the nodes' weak `_d`.  When the run returns, the set is kept under
    its file's key (its bytes and stem), with the parsed scenario; only the
    runs of the last 16 keys are kept, so a file is released after 16 others."""

    def test_a_run_derives_each_node_by_each_name_once(self, tmp_path, monkeypatch):
        names: "weakref.WeakKeyDictionary[expr._Node, set]" = weakref.WeakKeyDictionary()
        calls, again = [0], []
        real = expr._derive

        def counted(node, name, d):
            calls[0] += 1
            seen = names.setdefault(node, set())
            if name in seen:
                again.append((expr.to_source(node), name))
            seen.add(name)
            return real(node, name, d)

        monkeypatch.setattr(expr, "_derive", counted)
        report, code = cli.run(SCENARIOS / "kepler-scaling.json", tmp_path, quiet=True)
        assert code == 0 and calls[0] > 800
        assert again == []

    def test_loading_and_checking_derive_each_pair_once(self, tmp_path, monkeypatch):
        # the symmetries built while loading take derivatives that the flow and
        # the checks take again: one kept list spans both
        names: "weakref.WeakKeyDictionary[expr._Node, set]" = weakref.WeakKeyDictionary()
        calls, again = [0], []
        real = expr._derive

        def counted(node, name, d):
            calls[0] += 1
            seen = names.setdefault(node, set())
            if name in seen:
                again.append((expr.to_source(node), name))
            seen.add(name)
            return real(node, name, d)

        monkeypatch.setattr(expr, "_derive", counted)
        report, code = cli.run(SCENARIOS / "dissipative-oscillator.json", tmp_path, quiet=True)
        assert code == 0 and calls[0] > 20
        assert again == []

    def test_a_run_holds_its_nodes_in_its_kept_run_alone(self, tmp_path, monkeypatch):
        # the first run may leave the absent-name zero, a number, on nodes that
        # outlive it; with the collector off, only reference counts can free the
        # second run's nodes, so neither the set nor a cycle holds one: the nodes
        # of a file of a new system live while its run is kept, and go with it
        cli.run(_oscillator(tmp_path, 0), tmp_path, quiet=True)
        path = _oscillator(tmp_path, 1)
        sizes = []
        real = cli._write_report
        monkeypatch.setattr(cli, "_write_report",
                            lambda report, out: sizes.append(len(expr._INTERN)) or real(report, out))
        gc.collect()
        baseline = len(expr._INTERN)
        gc.disable()
        try:
            report, code = cli.run(path, tmp_path, quiet=True)
            assert code == 0 and sizes[0] > baseline and expr._KEPT.get() is None
            del report
            assert len(expr._INTERN) > baseline
            del expr._RUNS[(path.read_bytes(), path.stem)]
            assert len(expr._INTERN) == baseline
        finally:
            gc.enable()

    def test_the_third_run_of_the_same_bytes_derives_and_compiles_nothing(self, tmp_path):
        counts, outputs = [], []
        for k in range(3):
            done = tally()
            _, code = cli.run(SCENARIOS / "kepler-scaling.json", tmp_path / str(k), quiet=True)
            assert code == 0
            counts.append(done())
            outputs.append([(tmp_path / str(k) / "kepler-scaling" / f).read_bytes()
                            for f in ("report.json", "trajectory.csv")])
        assert counts[0]["derive"] > 800 and counts[0]["bundles"] > 1
        assert [counts[2][k] for k in ("derive", "bundles", "emitted", "compiles")] == [0] * 4
        assert outputs[2] == outputs[1] == outputs[0]

    def test_at_most_16_runs_are_kept(self, tmp_path):
        # 20 files of 20 systems, each run once: the runs of the last 16 are kept,
        # each from its first run, under its own file's key
        paths = [_oscillator(tmp_path, k) for k in range(20)]
        for path in paths:
            assert cli.run(path, tmp_path, quiet=True)[1] == 0
        assert list(expr._RUNS) == [(path.read_bytes(), path.stem) for path in paths[4:]]

    def test_a_file_is_released_after_16_other_files(self, tmp_path):
        # with the collector off, only reference counts free a run: a file's run,
        # and the h of its system, which no other file reads, live while 15 other
        # files run and go when the 16th returns
        paths = [_oscillator(tmp_path, k) for k in range(17)]
        gc.collect()
        gc.disable()
        try:
            assert cli.run(paths[0], tmp_path, quiet=True)[1] == 0
            run = expr._RUNS[(paths[0].read_bytes(), paths[0].stem)]
            refs = [weakref.ref(run), weakref.ref(run.record.system.h.ast)]
            del run
            for path in paths[1:16]:
                assert cli.run(path, tmp_path, quiet=True)[1] == 0
            assert all(ref() is not None for ref in refs)
            assert cli.run(paths[16], tmp_path, quiet=True)[1] == 0
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_new_parameter_choice_of_a_recently_run_system_derives_nothing(self, tmp_path):
        # three sweep Kepler files, distinct in m, eps, the gauge's numbers and
        # wrong-sigma's: every number is a bound parameter, so the three are one set
        # of trees, and the first file's run, kept from its first run on, holds their
        # derivatives for the other two
        files = [certbench_workloads().symbolic_sweep_round(7, k)[0].write(tmp_path)
                 for k in range(3)]
        assert cli.run(files[0], tmp_path, quiet=True)[1] == 0
        for path in files[1:]:
            done = tally()
            assert cli.run(path, tmp_path, quiet=True)[1] == 0
            assert done()["derive"] == 0

    def test_a_file_keeps_its_work_while_another_on_its_system_runs(self, tmp_path, monkeypatch):
        # A B A B A, with B the same scenario under other bytes: A's first run is
        # kept, so B's first run finds its derivatives and bundles, and each file's
        # key holds its own scenario for its later runs: only A's first run derives
        # or compiles, and each file is loaded once
        a, b = SCENARIOS / "kepler-scaling.json", _spaced(tmp_path, 1)
        loads, real = [], cli._load
        monkeypatch.setattr(cli, "_load", lambda p, data: loads.append(p) or real(p, data))
        counts = []
        for path in (a, b, a, b, a):
            done = tally()
            assert cli.run(path, tmp_path, quiet=True)[1] == 0
            counts.append(done())
        assert counts[0]["derive"] > 800
        assert [[c[k] for k in ("derive", "bundles", "emitted", "compiles")]
                for c in counts[1:]] == [[0] * 4] * 4
        assert loads == [a, b]

    def test_a_recurring_file_is_loaded_once_for_its_later_runs(self, tmp_path, monkeypatch):
        # the scenario loaded for the first run serves every later one; --seed and
        # --tol-override apply to a copy of it, so the next plain run reads as the first
        path = SCENARIOS / "kepler-scaling.json"
        loads, real = [], cli._load
        monkeypatch.setattr(cli, "_load", lambda p, data: loads.append(p) or real(p, data))
        reports, loaded = [], []
        for k, options in enumerate(({}, {}, {}, {"seed": 5}, {"tol_override": 1e-3}, {})):
            assert cli.run(path, tmp_path / str(k), quiet=True, **options)[1] == 0
            reports.append((tmp_path / str(k) / "kepler-scaling" / "report.json").read_bytes())
            loaded.append(len(loads))
        assert loaded == [1, 1, 1, 1, 1, 1]
        seed, tols = (json.loads(reports[k]) for k in (3, 4))
        assert seed["seed"] == 5 and {c["tol"] for c in tols["checks"]} == {1e-3}
        assert reports[5] == reports[2] == reports[0]

    def test_a_recurring_domain_error_reads_the_same_every_run(self, tmp_path, capsys):
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps({
            "system": {"expression": "p0^2/2 + q0^2/2", "dimension": 1},
            "invariants": [{"label": "F", "expression": "sqrt(q0 - 100)"}],
            "checks": [{"type": "residual", "invariant": "F"}]}))
        seen = []
        for _ in range(3):
            done = tally()
            report, code = cli.run(path, tmp_path / "out")
            seen.append((code, report["error"], capsys.readouterr().err))
        sc = cli.load_scenario(path)
        first = sample_points(sc.bound, sc.sample_count, sc.seed)[0]
        coords = ", ".join(f"{name}={v!r}" for name, v in first.env().items())
        assert seen[0][:2] == (3, f"check[0] residual F: sample 0 ({coords}): "
                                  "sqrt of negative value in `sqrt(q0 - 100.0)`")
        assert seen[2] == seen[1] == seen[0] and done()["bundles"] == 0


class TestIntrinsicDomain:
    """Every way out of the real domain is eval_node's DomainError, through
    both evaluation paths; compiled code calls the math functions directly."""

    @pytest.mark.parametrize("source, where", [
        ("sin(q0*q0*q0)", "sin(q0*q0*q0)"),
        ("cos(q0*q0*q0) + 1", "cos(q0*q0*q0)"),
        ("q0 - sin(-q0*q0*q0)*p0", "sin(-q0*q0*q0)"),
    ])
    def test_sin_and_cos_of_an_infinite_argument(self, source, where):
        f = parse(source, 1)
        bundle = expr.compile_bundle([f], ["q0", "p0"])
        for run in (lambda: expr.eval_node(f.ast, {"q0": 1e200, "p0": 1.0}),
                    lambda: bundle(1e200, 1.0)):
            with pytest.raises(DomainError) as info:
                run()
            assert info.value.where == where
            assert str(info.value) == f"{where[:3]} of infinite value in `{where}`"
        assert bundle(2.0, 1.0)[0] == expr.eval_node(f.ast, {"q0": 2.0, "p0": 1.0})

    @pytest.mark.parametrize("source", [
        "abs(q0^0.5)",           # abs of a complex power would be a real number
        "abs(q0^c) + 1",         # an exponent known only at the call
        "q0^1.5 - q0^1.5",
        "abs(p0*q0^-0.25)*0.5",
    ])
    @pytest.mark.parametrize("q0", [-4.0, -0.0])
    def test_non_integer_power_of_a_negative_base(self, source, q0):
        f = parse(source, 1)
        env = {"q0": q0, "p0": 2.0, "c": 0.5}
        ref = _outcome(lambda: [expr.eval_node(f.ast, env)])
        assert isinstance(ref, tuple) and "non-positive base" in ref[1]
        got = _outcome(lambda: expr.compile_bundle([f, parse("p0 + 1", 1)], list(env))(
            *env.values()))
        assert got == ref
