"""Scaling-symmetry case analysis for h = p.p/2m + f(t) V(q) + g(S).

The solver is a finite case enumeration (the family's solution set is fully
enumerable), not a numeric root finder.  Emitted invariants reference the
Hamiltonian through the placeholder identifier ``h`` so the same template
serves a concrete potential or an abstract degree-k one; substitute with
:meth:`ScalingSolution.invariant_for` before evaluating.

Solutions store a normalised ansatz representative (gamma = 1 when gamma is
nonzero, else sigma = 1, else alpha = 1).  The invariant itself is emitted
in the canonical integer-coefficient scaling (q.p - 2S and friends), which
is a fixed positive multiple of the normalised representative; the
dissipation equation is linear, so both scalings are solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import ScalarField, apply_intrinsic, number, parameter, substitute, variable
from .geometry import ContactSystem, SampleBox, VectorFieldSpec

TRIVIAL = "Trivial"
K2_F0 = "K2_F0"
KMINUS2_F1 = "Kminus2_F1"
GENERIC_F2 = "GenericK_F2"
CASE3 = "TimeDependent_Case3"
DISSIPATIVE_F0 = "Dissipative_F0"

F_KINDS = ("constant", "power-law", "free")
G_KINDS = ("zero", "homogeneous")

_TOL = 1e-12


@dataclass(frozen=True)
class ScalingAnsatz:
    """Exponent rates of the diagonal transformation
    q -> zeta^alpha q, p -> zeta^beta p, S -> zeta^gamma S, t -> zeta^sigma t."""

    alpha: float
    beta: float
    gamma: float
    sigma: float

    def scaled(self, c: float) -> "ScalingAnsatz":
        return ScalingAnsatz(c * self.alpha, c * self.beta, c * self.gamma, c * self.sigma)


@dataclass(frozen=True)
class ScalingSolution:
    case_tag: str
    ansatz: ScalingAnsatz | None
    invariant: ScalarField
    f_required: ScalarField | None
    constraints_log: tuple[str, ...]
    informational: bool = False

    def invariant_for(self, system: ContactSystem) -> ScalarField:
        """Concrete invariant with the `h` placeholder replaced by system.h."""
        if "h" in self.invariant.free_params:
            return substitute(self.invariant, "h", system.h)
        return self.invariant


# ---------------------------------------------------------------------------
# building blocks


def dot_qp(n: int) -> ScalarField:
    acc = variable("q0", n) * variable("p0", n)
    for i in range(1, n):
        acc = acc + variable(f"q{i}", n) * variable(f"p{i}", n)
    return acc


def scaling_generator(ansatz: ScalingAnsatz | Sequence[ScalarField], n: int) -> VectorFieldSpec:
    """The linear field alpha q d_q + beta p d_p + gamma S d_S + sigma t d_t, its rates the
    ansatz's numbers or four fields (a scenario's, lifted as `expr.parse` lifts numbers)."""
    alpha, beta, gamma, sigma = (vars(ansatz).values() if isinstance(ansatz, ScalingAnsatz)
                                 else ansatz)
    return VectorFieldSpec(
        tuple(alpha * variable(f"q{i}", n) for i in range(n)),
        tuple(beta * variable(f"p{i}", n) for i in range(n)),
        gamma * variable("S", n),
        sigma * variable("t", n),
    )


# ---------------------------------------------------------------------------
# the case table


def f0_invariant(n: int) -> ScalarField:
    """q.p - 2S (the k = 2 scaling invariant; independent of f)."""
    return dot_qp(n) - 2.0 * variable("S", n)


def _f1(n: int) -> ScalarField:
    return dot_qp(n) - 2.0 * variable("t", n) * parameter("h", n)


def _f2(n: int, k: float) -> ScalarField:
    return ((2.0 / (2.0 - k)) * dot_qp(n)
            - variable("t", n) * parameter("h", n)
            - ((2.0 + k) / (2.0 - k)) * variable("S", n))


def _case3_invariant(n: int) -> ScalarField:
    lam = parameter("Lambda", n)
    return (lam + 1.0) * dot_qp(n) - 2.0 * variable("t", n) * parameter("h", n) \
        - 2.0 * lam * variable("S", n)


def case3_f_required(k: float, n: int = 1) -> ScalarField:
    """The forced power law f(t; Lambda) = t^((2-k) Lambda/2 - (2+k)/2)."""
    exponent = parameter("Lambda", n) * ((2.0 - k) / 2.0) - (2.0 + k) / 2.0
    return variable("t", n) ** exponent


def solve_scaling_explained(
    k: float,
    f_kind: str,
    g_kind: str,
    g0: float = 0.0,
    kappa: float | None = None,
    n: int = 1,
) -> tuple[list[ScalingSolution], list[str]]:
    """Enumerate the admissible scaling cases; also return the named
    constraints that rejected branches."""
    if f_kind not in F_KINDS:
        raise ValueError(f"f_kind must be one of {F_KINDS}")
    if g_kind not in G_KINDS:
        raise ValueError(f"g_kind must be one of {G_KINDS}")
    solutions: list[ScalingSolution] = []
    rejected: list[str] = []

    solutions.append(ScalingSolution(
        TRIVIAL, ScalingAnsatz(0.0, 0.0, 0.0, 0.0), number(0.0, n), None,
        ("gamma = 0 forces alpha = beta = sigma = 0 and F = 0",),
        informational=True,
    ))

    if g_kind == "zero":
        base_log = ("beta = gamma - alpha", "alpha = gamma/2 + sigma/2")
        if abs(k - 2.0) <= _TOL:
            solutions.append(ScalingSolution(
                K2_F0, ScalingAnsatz(0.5, 0.5, 1.0, 0.0), f0_invariant(n), None,
                base_log + ("sigma = 0", "k = 2"),
            ))
        elif f_kind == "free":
            rejected.append("arbitrary f(t) forces sigma = 0, which needs k = 2")
        if f_kind == "constant":
            if abs(k + 2.0) <= _TOL:
                solutions.append(ScalingSolution(
                    KMINUS2_F1, ScalingAnsatz(0.5, -0.5, 0.0, 1.0), _f1(n), None,
                    base_log + ("k = -2 forces gamma = 0", "invariant is S-independent"),
                ))
            elif abs(k - 2.0) > _TOL:
                sigma = (2.0 - k) / (2.0 + k)
                ans = ScalingAnsatz(2.0 / (2.0 + k), k / (2.0 + k), 1.0, sigma)
                solutions.append(ScalingSolution(
                    GENERIC_F2, ans, _f2(n, k), None,
                    base_log + (f"gamma = (2+k)/(2-k) sigma with k = {k!r}",),
                ))
        elif f_kind == "power-law":
            solutions.append(ScalingSolution(
                CASE3, None, _case3_invariant(n), case3_f_required(k, n),
                base_log + ("Lambda := gamma/sigma left free",
                            "f(t) forced to t^((2-k) Lambda/2 - (2+k)/2)"),
            ))
    else:
        if kappa is None:
            raise ValueError("g_kind 'homogeneous' requires kappa")
        if abs(kappa - 1.0) > _TOL:
            rejected.append(f"kappa = {kappa!r} != 1: dissipative term must be linear, g(S) = g0 S")
        elif not (abs(k) <= _TOL or abs(k - 2.0) <= _TOL):
            rejected.append(f"k = {k!r} not in {{0, 2}}: no scaling survives the dissipative branch")
        else:
            log = ("sigma = 0", "beta = gamma - alpha", "alpha = gamma/2",
                   f"g(S) forced to g0*S with g0 = {g0!r}")
            informational = abs(k) <= _TOL
            if informational:
                log = log + ("k = 0: a regular degree-0 potential is constant and must "
                             "vanish for the dissipation equation to close; emitted "
                             "with zero potential",)
            solutions.append(ScalingSolution(
                DISSIPATIVE_F0, ScalingAnsatz(0.5, 0.5, 1.0, 0.0), f0_invariant(n), None,
                log, informational=informational,
            ))
    return solutions, rejected


# ---------------------------------------------------------------------------
# concrete time-dependent systems (Case 3 instantiation)


def case3_system(k: float, Lambda: float, m: float, coupling: float | ScalarField = 1.0,
                 n: int = 3, label: str = "", **params: float) -> ContactSystem:
    """h = p.p/2m + coupling * t^((2-k)Lambda/2 - (2+k)/2) * (q.q)^(k/2),
    on the domain t > 0 (and q != 0 when the potential is singular there);
    `case3_invariant` gives its conserved quantity.  `m` and `Lambda` are the
    system's parameters of those names, and `coupling` is a number or a field
    of `params` (td-kepler's -4 eps), so one k and coupling make one h whatever
    the values; `k` sets the shape, and stays a number.
    """
    mpar, lam = parameter("m", n), parameter("Lambda", n)
    exponent = (2.0 - k) * lam / 2.0 - (2.0 + k) / 2.0
    qq = number(0.0, n)
    pp = number(0.0, n)
    for i in range(n):
        qq = qq + variable(f"q{i}", n) ** 2.0
        pp = pp + variable(f"p{i}", n) ** 2.0
    h = pp / (2.0 * mpar) + coupling * (variable("t", n) ** exponent) * (qq ** (k / 2.0))

    singular_at_origin = not float(k / 2.0).is_integer() or k < 0
    guards = (variable("t", n),) + ((apply_intrinsic("sqrt", qq),) if singular_at_origin else ())
    return ContactSystem(
        n=n, h=h, params={"m": float(m), "Lambda": float(Lambda), **params},
        guards=guards,
        sample_box=SampleBox(q=(0.3, 2.0), p=(-2.0, 2.0), S=(-1.0, 1.0), t=(0.5, 5.0)),
        label=label or f"case3(k={k}, Lambda={Lambda})",
    )


def case3_invariant(system: ContactSystem, Lambda: float | ScalarField) -> ScalarField:
    """(Lambda+1) q.p - 2 t h - 2 Lambda S with the system's h, conserved along a
    `case3_system` of that Lambda: the concrete form of the case table's
    `_case3_invariant(n)` template.  Lambda is a number or the system's parameter."""
    n = system.n
    return ((Lambda + 1.0) * dot_qp(n)
            - 2.0 * variable("t", n) * system.h
            - 2.0 * Lambda * variable("S", n))
