"""Truth-value algebras (modalities), the algebra/monad-map correspondence,
the healthiness law table, and lifting-condition checks.

A modality is an algebra ``TOmega -> Omega`` over the truth values,
represented by its induced evaluation rule ``eval(t, f) = alg(T f (t))``
which works uniformly over every finite carrier.  The correspondence
between algebras and monad maps into the continuation-like monad is
implemented in both directions and is finitely testable.

Two tables drive the rest of the package.  The modality catalog has one
row per theorem instance (monad, modality, structure class).  The law
table defines every healthiness law once; a structure class is a list of
those laws, and the same list is both the transformer healthiness
condition and the lifting condition on the modality's components.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, and_, mul, or_
from random import Random
from typing import Callable, Sequence

from .core import FinSet, SizeGuardError, parse_rational
from .monads import (
    BOT,
    ContinuationTarget,
    KleisliArrow,
    MonadKind,
    MonadMapSpec,
    _compose_value,
    enumerate_tvalues,
    is_enumerable,
    random_tvalue,
    support,
    unit_value,
)
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "BOOLEAN",
    "RATIONAL",
    "Modality",
    "FiniteAlgebra",
    "INSTANCES",
    "Law",
    "LAWS",
    "StructureClass",
    "STRUCTURE_CLASSES",
    "check_dense",
    "dense_instances",
    "builtin_modality",
    "builtin_modality_names",
    "algebra_to_monad_map",
    "monad_map_to_algebra",
    "check_algebra_laws",
    "lifting_check",
    "enumerate_algebra_morphisms",
    "free_algebra",
    "check_functional_laws",
]

ZERO = Fraction(0)
ONE = Fraction(1)
DEFAULT_SCALARS = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)

BOOLEAN = "boolean"
RATIONAL = "rational"


@dataclass(frozen=True)
class Modality:
    """A truth-value algebra with its structure-class tag.

    ``evaluate(tvalue, valuation)`` computes ``alg(T valuation (tvalue))``
    for a valuation mapping carrier elements into Omega; this single rule
    realizes both the algebra (identity valuation over Omega-elements) and
    every component of the induced monad map.
    """

    name: str
    monad: MonadKind
    carrier: str
    structure_class: str | None
    evaluate: Callable
    param: Fraction | None = None
    pair: tuple | None = None  # (inner, outer) description for alternating instances
    theorem: str | None = None  # the theorem instance this catalog row realizes

    @property
    def condition(self) -> str:
        """The healthiness condition of the modality's structure class."""
        return STRUCTURE_CLASSES[self.structure_class].condition

    def apply_algebra(self, tvalue):
        """The structure map itself: evaluate with the identity valuation."""
        return self.evaluate(tvalue, lambda v: v)

    def __repr__(self):
        return f"Modality({self.name!r})"


def _eval_diamond(s, f):
    return max((f(y) for y in s), default=0)


def _eval_box(s, f):
    return min((f(y) for y in s), default=1)


def _eval_tau_r(r):
    def ev(p, f):
        return p.expect(f) + r * (1 - p.mass)

    return ev


def _eval_convex(p, f):
    return p.expect(f)


def _eval_dijkstra(s, f):
    # strict extension: divergence falsifies the postcondition
    return min((0 if y is BOT else f(y) for y in s), default=1)


def _eval_game(fam, f):
    return max((min((f(y) for y in s), default=1) for s in fam), default=0)


def _eval_demonic_prob(vertices, f):
    return min(mu.expect(f) for mu in vertices)


# The catalog: one row per theorem instance, in theorem order.
INSTANCES = {
    mod.theorem: mod
    for mod in (
        Modality("diamond", MonadKind.POWERSET, BOOLEAN, "cl_join", _eval_diamond, theorem="may"),
        Modality("box", MonadKind.POWERSET, BOOLEAN, "cl_meet", _eval_box, theorem="must"),
        Modality(
            "game",
            MonadKind.UP_POWERSET,
            BOOLEAN,
            "pos",
            _eval_game,
            pair=("meet within the chosen set", "join over the family"),
            theorem="game",
        ),
        Modality(
            "dijkstra",
            MonadKind.LIFT_POWERSET,
            BOOLEAN,
            "strict_cl_meet",
            _eval_dijkstra,
            pair=("nonempty-meet over chosen states", "strict bottom"),
            theorem="dijkstra",
        ),
        Modality(
            "total",
            MonadKind.SUBDIST,
            RATIONAL,
            "gemod",
            _eval_tau_r(ZERO),
            param=ZERO,
            theorem="subdist_total",
        ),
        Modality(
            "partial",
            MonadKind.SUBDIST,
            RATIONAL,
            "gemod_dual",
            _eval_tau_r(ONE),
            param=ONE,
            theorem="subdist_partial",
        ),
        Modality("convex", MonadKind.DIST, RATIONAL, "emod", _eval_convex, theorem="dist_convex"),
        Modality(
            "demonic_prob",
            MonadKind.CV_DIST,
            RATIONAL,
            "emod_sublinear",
            _eval_demonic_prob,
            pair=("expectation", "min over the polytope"),
            theorem="cv_sublinear",
        ),
    )
}


def builtin_modality(name: str) -> Modality:
    """Look up a catalog modality; ``tau_r:p/q`` selects the r-parametrized one."""
    key = name.strip()
    if key.startswith("tau_r"):
        rest = key[len("tau_r") :].lstrip(":(").rstrip(")")
        if not rest:
            raise ValueError("tau_r needs a rational parameter, e.g. tau_r:1/3")
        r = parse_rational(rest)
        if not (ZERO <= r <= ONE):
            raise ValueError(f"tau_r parameter {r} outside [0, 1]")
        if r in (ZERO, ONE):
            return INSTANCES["subdist_total" if r == ZERO else "subdist_partial"]
        return Modality(f"tau_r:{r}", MonadKind.SUBDIST, RATIONAL, None, _eval_tau_r(r), param=r)
    for mod in INSTANCES.values():
        if mod.name == key:
            return mod
    raise ValueError(f"unknown modality {name!r}")


def builtin_modality_names() -> tuple:
    return tuple(mod.name for mod in INSTANCES.values())


# ---------------------------------------------------------------------------
# Algebra <-> monad map correspondence


def algebra_to_monad_map(mod: Modality) -> MonadMapSpec:
    """The monad map induced by an algebra: tau_X(t)(f) = alg(T f (t))."""

    def component(elems, tvalue):
        return lambda f: mod.evaluate(tvalue, f)

    target = ContinuationTarget() if mod.carrier == BOOLEAN else _RationalContinuationTarget()
    return MonadMapSpec(f"map[{mod.name}]", mod.monad, target, component)


class _RationalContinuationTarget(ContinuationTarget):
    """Continuation target over [0,1]; equality is probe-based."""

    name = "continuation[0,1]"
    probe_values = DEFAULT_SCALARS


def monad_map_to_algebra(spec: MonadMapSpec, name: str | None = None) -> Modality:
    """Recover the algebra from a monad map: alg = eval at the identity valuation.

    Only evaluation-form (continuation-target) maps correspond to
    modalities; concrete-target maps like the support map are rejected.
    """
    if not isinstance(spec.target, ContinuationTarget):
        raise ValueError("only continuation-target monad maps correspond to modalities")
    carrier = BOOLEAN if type(spec.target) is ContinuationTarget else RATIONAL

    def evaluate(tvalue, f):
        return spec.at(tuple(support(spec.source, tvalue)), tvalue)(f)

    return Modality(name or f"alg[{spec.name}]", spec.source, carrier, None, evaluate)


# ---------------------------------------------------------------------------
# Algebra laws, in Kleisli form


def _law_alg_unit(mod, args):
    A, x, f_table = args["carrier"], args["x"], args["f"]
    f = lambda a: f_table[a]
    return mod.evaluate(unit_value(mod.monad, A, x), f), f(x)


def _law_alg_mult(mod, args):
    t, g = args["t"], args["g"]
    extended = _compose_value(mod.monad, t, g)
    lhs = mod.evaluate(extended, lambda v: v)
    rhs = mod.evaluate(t, lambda a: mod.evaluate(g.row(a), lambda v: v))
    return lhs, rhs


register_law("algebra.unit", _law_alg_unit)
register_law("algebra.mult", _law_alg_mult)

_BOOL_VALUES = (0, 1)
_RAT_VALUES = (ZERO, Fraction(1, 4), Fraction(1, 2), ONE)


def _omega_carrier(values) -> FinSet:
    return FinSet("omega", tuple(values))


def check_algebra_laws(mod: Modality, sample_depth: int = 60, seed: int = 7) -> Verdict:
    """Unit and multiplication laws of the algebra, instantiated finitely.

    Unit: eval(eta(x), f) = f(x).  Multiplication (Kleisli form): for any
    arrow g : A -> T(Omega') into a finite set of truth values,
    alg(ext_g(t)) = eval(t, a |-> alg(g(a))); every finite-support
    instance of alg . mu = alg . T alg arises this way.
    """
    checked = 0
    rng = Random(seed)
    values = _BOOL_VALUES if mod.carrier == BOOLEAN else _RAT_VALUES
    omega = _omega_carrier(values)
    enumerable = is_enumerable(mod.monad)

    A = FinSet("a", ("a0", "a1"))
    valuations = [dict(zip(A.elements, vals)) for vals in itertools.product(values, repeat=len(A))]
    if not enumerable:
        valuations = valuations[:8]
    for x in A.elements:
        for f_table in valuations:
            args = {"carrier": A, "x": x, "f": f_table}
            lhs, rhs = _law_alg_unit(mod, args)
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(Witness("algebra.unit", args, lhs, rhs), checked)

    if enumerable:
        ts = enumerate_tvalues(mod.monad, A)
        rows = enumerate_tvalues(mod.monad, omega)
        if len(rows) ** len(A) > 4096:
            raise SizeGuardError("algebra-law sweep too large; lower the carrier size")
        gs = [
            KleisliArrow(mod.monad, A, omega, pair)
            for pair in itertools.product(rows, repeat=len(A))
        ]
    else:
        ts = [random_tvalue(mod.monad, rng, A) for _ in range(sample_depth)]
        gs = [
            KleisliArrow(
                mod.monad, A, omega, [random_tvalue(mod.monad, rng, omega) for _ in range(len(A))]
            )
            for _ in range(sample_depth)
        ]
    for t in ts:
        for g in gs:
            args = {"t": t, "g": g}
            lhs, rhs = _law_alg_mult(mod, args)
            checked += 1
            if lhs != rhs:
                return Verdict.unhealthy(Witness("algebra.mult", args, lhs, rhs), checked)
    return Verdict.healthy(checked)


# ---------------------------------------------------------------------------
# The law table and the structure classes


# A law's operations are families indexed by the "one" of the representation
# they run in: 1 for Fractions, the common denominator for integers over it
# (see LawCheck); the Boolean ones do not depend on it.  A scalar r acts as a
# multiplier: a Fraction, or a _Ratio on lattice integers.


def _join(one):
    return or_


def _meet(one):
    return and_


def _add(one):
    return add


def _mul(one):
    return mul


def _shift(one):
    return lambda a, lam: a + lam * one


def _dual_add(one):
    return lambda a, b: a + b - one


def _dual_mul(one):
    return lambda a, r: r * a + one - r * one


@dataclass(frozen=True)
class Law:
    """One healthiness law: ``lhs rel rhs`` at every argument of its shape.

    Shapes and their arguments: "bottom" and "top" (the constant predicate
    0, resp. 1), "pair" (two Boolean predicates), "order" (two Boolean
    predicates with f <= g), "sum" and "dual_sum" (two predicates whose
    pointwise sum, resp. sum minus one, stays in [0, 1]), "scale" (a
    predicate and a scalar r) and "shift" (a predicate and a scalar lam
    with p + lam <= 1).  A side is a term: ``("arg", k)`` is F at argument
    k, ``("at", op)`` is F at op applied pointwise to the arguments,
    ``("of", op)`` is op applied to F's values at the arguments, and
    ``("const", c)`` is the truth value c in {0, 1}.

    ``rel`` is "=", "<=" or ">=".  Inequalities use the clamp encoding: a
    witness records meet(lhs, rhs) (for ">=", join) as its rhs, so a law
    is violated exactly when its recorded sides differ.
    """

    name: str
    shape: str
    lhs: tuple
    rhs: tuple
    rel: str = "="


LAWS = {
    law.name: law
    for law in (
        Law("bottom", "bottom", ("arg", 0), ("const", 0)),
        Law("top", "top", ("arg", 0), ("const", 1)),
        Law("binary_join", "pair", ("at", _join), ("of", _join)),
        Law("binary_meet", "pair", ("at", _meet), ("of", _meet)),
        Law("monotone", "order", ("arg", 0), ("arg", 1), "<="),
        Law("zero", "bottom", ("arg", 0), ("const", 0)),
        Law("one", "top", ("arg", 0), ("const", 1)),
        Law("dual_zero", "top", ("arg", 0), ("const", 1)),
        Law("sum_defined", "sum", ("of", _add), ("const", 1), "<="),
        Law("sum", "sum", ("at", _add), ("of", _add)),
        Law("dual_sum_defined", "dual_sum", ("of", _dual_add), ("const", 0), ">="),
        Law("dual_sum", "dual_sum", ("at", _dual_add), ("of", _dual_add)),
        Law("subadditive_defined", "sum", ("of", _add), ("const", 1), "<="),
        Law("subadditive", "sum", ("of", _add), ("at", _add), "<="),
        Law("scale", "scale", ("at", _mul), ("of", _mul)),
        Law("dual_scale", "scale", ("at", _dual_mul), ("of", _dual_mul)),
        Law("translate_defined", "shift", ("of", _shift), ("const", 1), "<="),
        Law("translate", "shift", ("at", _shift), ("of", _shift)),
    )
}

# shapes whose two arguments are both predicates, and those of a predicate
# and a scalar
_BINARY = ("pair", "order", "sum", "dual_sum")
_SCALED = ("scale", "shift")


def arg_names(shape: str, p: str = "f", q: str = "g") -> tuple:
    """Witness argument names of a shape, given the names of predicates."""
    names = {"bottom": ("zero",), "top": ("one",), "scale": (p, "r"), "shift": (p, "lam")}
    return names.get(shape, (p, q))


@dataclass(frozen=True)
class StructureClass:
    """A list of table laws deciding whether a map Omega^n -> Omega (or a
    transformer, per output coordinate) is a morphism of the class.

    ``condition`` names the same list as a transformer healthiness
    condition.  ``laws`` pairs each law with the id the transformer checks
    report for it; a definedness law reports that id plus ``_defined``.
    """

    tag: str
    condition: str
    carrier: str
    laws: tuple

    @functools.cached_property
    def groups(self) -> tuple:
        """(laws, transformer law id) per law in check order, the laws being
        its definedness law ``<name>_defined`` when the table has one, then it."""
        return tuple(
            (tuple(LAWS[n] for n in (f"{name}_defined", name) if n in LAWS), law_id)
            for name, law_id in self.laws
        )

    def __repr__(self):
        return f"StructureClass({self.tag!r})"


STRUCTURE_CLASSES = {
    cls.tag: cls
    for cls in (
        StructureClass(
            "cl_join", "join", BOOLEAN, (("bottom", "join.bottom"), ("binary_join", "join.binary"))
        ),
        StructureClass(
            "cl_meet", "meet", BOOLEAN, (("top", "meet.top"), ("binary_meet", "meet.binary"))
        ),
        StructureClass("pos", "monotone", BOOLEAN, (("monotone", "monotone"),)),
        StructureClass(
            "strict_cl_meet",
            "strict_meets",
            BOOLEAN,
            (("bottom", "strict.bottom"), ("binary_meet", "meet.binary")),
        ),
        StructureClass(
            "gemod",
            "gemod_total",
            RATIONAL,
            (("zero", "gemod.zero"), ("sum", "gemod.sum"), ("scale", "gemod.scale")),
        ),
        StructureClass(
            "gemod_dual",
            "gemod_partial",
            RATIONAL,
            (
                ("dual_zero", "gemod_dual.zero"),
                ("dual_sum", "gemod_dual.sum"),
                ("dual_scale", "gemod_dual.scale"),
            ),
        ),
        StructureClass(
            "emod",
            "emod",
            RATIONAL,
            (
                ("zero", "gemod.zero"),
                ("one", "gemod.one"),
                ("sum", "gemod.sum"),
                ("scale", "gemod.scale"),
            ),
        ),
        StructureClass(
            "emod_sublinear",
            "regular_sublinear",
            RATIONAL,
            (
                ("subadditive", "sublinear.subadditive"),
                ("scale", "sublinear.scale"),
                ("translate", "sublinear.translate"),
            ),
        ),
    )
}


class _Ratio:
    """A scalar r acting on lattice integers.  ``r * a`` is exact when r's
    denominator divides a; it divides every integer the checks scale (a
    lattice vector, a value of integer rows at one, one itself), since the
    lattice's one is a multiple of every scalar denominator."""

    __slots__ = ("num", "den")

    def __init__(self, r: Fraction):
        self.num, self.den = r.numerator, r.denominator

    def __mul__(self, a: int) -> int:
        return a // self.den * self.num

    __rmul__ = __mul__


@dataclass(frozen=True)
class Lattice:
    """Probe predicates and scalars over one integer denominator ``one``:
    the lcm of the predicate denominators times the lcm of the scalar
    denominators, so every predicate, and its product with any scalar, is
    an integer vector over it."""

    one: int
    preds: tuple  # integer numerator vectors over one
    scalars: tuple  # _Ratio multipliers

    @classmethod
    def of(cls, preds, scalars) -> "Lattice":
        one = math.lcm(*(v.denominator for p in preds for v in p))
        one *= math.lcm(*(r.denominator for r in scalars))
        ints = tuple(tuple(v.numerator * (one // v.denominator) for v in p) for p in preds)
        return cls(one, ints, tuple(_Ratio(r) for r in scalars))


class LawCheck:
    """Checks rational table laws of a map F over probe predicates and scalars.

    F takes a predicate (a value tuple) to a tuple with one entry per output
    coordinate (one entry for a functional).  Predicate arguments are
    addressed by index into ``preds``, the probes followed by the constant
    predicates 0 and 1; F is evaluated at each once, when first needed and
    before the argument needing it counts as checked.

    Arguments are enumerated on the probes' ``lattice`` (computed when not
    given), so definedness is decided on integers.  The table terms are
    evaluated in one of two representations, each with its own one: F on
    Fraction tuples (one is 1), or, when the integer ``rows`` of a
    closed-form transformer are given (``semantics.IntegerRows``, with
    denominator E), the rows on lattice vectors over U with values over U*E
    (one is U for arguments and U*E for values).  Violations are reported
    in Fractions either way.
    """

    def __init__(
        self,
        F: Callable,
        outputs: int,
        probes=(),
        scalars=(),
        width: int = 0,
        lattice: Lattice = None,
        rows=None,
    ):
        lattice = self._lattice = lattice or Lattice.of(probes, scalars)
        U = lattice.one
        self.preds = list(probes) + [(ZERO,) * width, (ONE,) * width]
        self.scalars = tuple(scalars)
        self.checked = 0
        self._ints = list(lattice.preds) + [(0,) * width, (U,) * width]
        self._max = [max(p, default=0) for p in lattice.preds]
        self._min = [min(p, default=0) for p in lattice.preds]
        self._lam = [r * U for r in lattice.scalars]
        self._integer = rows is not None
        if self._integer:
            self.F, self._one_in, self._one_out = lambda v: rows.ints(v, U), U, U * rows.den
            self._args, self._scalar_args = self._ints, lattice.scalars
        else:
            self.F, self._one_in, self._one_out = F, ONE, ONE
            self._args, self._scalar_args = self.preds, self.scalars
        self._consts = ((0 * self._one_out,) * outputs, (self._one_out,) * outputs)
        self._values = [None] * len(self.preds)

    def value(self, i: int) -> tuple:
        v = self._values[i]
        if v is None:
            v = self._values[i] = self.F(self._args[i])
        return v

    def arguments(self, shape: str):
        """Every argument of a shape as indices: into ``preds``, and for
        "scale" and "shift" then into ``scalars``."""
        k, U, hi, lo = len(self._max), self._lattice.one, self._max, self._min
        if shape in ("bottom", "top"):
            return [(k if shape == "bottom" else k + 1,)]
        if shape == "scale":
            return ((i, s) for i in range(k) for s in range(len(self.scalars)))
        if shape == "shift":
            lam = self._lam
            return ((i, s) for i in range(k) for s in range(len(lam)) if hi[i] + lam[s] <= U)
        # whether probes i and j sum (dual: sum minus one) into [0, 1]; the
        # extreme values decide most pairs without a pointwise scan
        ints = self._ints
        if shape == "dual_sum":
            return (
                (i, j)
                for i in range(k)
                for j in range(i, k)
                if lo[i] + lo[j] >= U
                or (hi[i] + hi[j] >= U and min(map(add, ints[i], ints[j])) >= U)
            )
        return (
            (i, j)
            for i in range(k)
            for j in range(i, k)
            if hi[i] + hi[j] <= U or (lo[i] + lo[j] <= U and max(map(add, ints[i], ints[j])) <= U)
        )

    def side(self, term: tuple, shape: str, args: tuple, fargs: list, memo: dict) -> tuple:
        kind, x = term
        if kind == "arg":
            return fargs[x]
        if kind == "const":
            return self._consts[x]
        if kind == "of":
            image = memo.get(x)
            if image is None:
                second = fargs[1] if shape in _BINARY else repeat(args[1])
                image = memo[x] = tuple(map(x(self._one_out), fargs[0], second))
            return image
        second = args[1] if shape in _BINARY else repeat(args[1])
        return self.F(tuple(map(x(self._one_in), args[0], second)))

    def sides(self, law: Law, args: tuple, fargs: list = None, memo: dict = None) -> tuple:
        """Both sides of a law at one argument, the rhs clamped, so the law
        holds iff they are equal; ``fargs`` is F at the predicate arguments."""
        if fargs is None:
            fargs = [self.F(a) for a in args[: 2 if law.shape in _BINARY else 1]]
        memo = {} if memo is None else memo
        lhs = self.side(law.lhs, law.shape, args, fargs, memo)
        rhs = self.side(law.rhs, law.shape, args, fargs, memo)
        if law.rel != "=":
            rhs = tuple(map(min if law.rel == "<=" else max, lhs, rhs))
        return lhs, rhs

    def first_violation(self, laws: tuple, weight: int):
        """(law, args, lhs, rhs, coordinate) at the first failing argument, or
        None; every argument adds ``weight`` to the checked count.  A group's
        laws share one image of F per argument."""
        shape = laws[0].shape
        npreds = 1 if shape in _SCALED else 2
        for idx in self.arguments(shape):
            fargs = [self.value(i) for i in idx[:npreds]]
            args = self._at(shape, idx, self._args, self._scalar_args)
            self.checked += weight
            memo = {}
            for law in laws:
                lhs, rhs = self.sides(law, args, fargs, memo)
                if lhs != rhs:
                    x = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                    args = self._at(shape, idx, self.preds, self.scalars)
                    return law, args, self._fraction(lhs[x]), self._fraction(rhs[x]), x
        return None

    @staticmethod
    def _at(shape: str, idx: tuple, preds, scalars) -> tuple:
        """The argument with indices idx, in the given representation."""
        if shape in _SCALED:
            return preds[idx[0]], scalars[idx[1]]
        return tuple(preds[i] for i in idx)

    def _fraction(self, v):
        return Fraction(v, self._one_out) if self._integer else v


def _replay_functional(subject, args):
    law = LAWS[args["law"]]
    check = LawCheck(lambda p: (subject(p),), 1)
    (lhs,), (rhs,) = check.sides(law, tuple(args[k] for k in arg_names(law.shape)))
    return lhs, rhs


register_law("class.law", _replay_functional)


def _mask_term(term: tuple) -> Callable:
    kind, x = term
    if kind == "arg":
        return lambda T, top, f, g: T[g] if x else T[f]
    if kind == "const":
        return lambda T, top, f, g: top if x else 0
    op = x(None)
    if kind == "at":
        return lambda T, top, f, g: T[op(f, g)]
    return lambda T, top, f, g: op(T[f], T[g])


def _mask_law(law: Law) -> Callable:
    lhs, rhs = _mask_term(law.lhs), _mask_term(law.rhs)
    if law.rel == "=":
        return lambda T, top, f, g: (lhs(T, top, f, g), rhs(T, top, f, g))
    clamp = and_ if law.rel == "<=" else or_
    return lambda T, top, f, g: (a := lhs(T, top, f, g), clamp(a, rhs(T, top, f, g)))


# law name -> (T, top, f, g) -> both sides of the law on a dense table T
# (predicate mask -> output mask, ``top`` the full output mask) at predicate
# masks f and g, or at the constant predicate f; the rhs is clamped
MASK_SIDES = {name: _mask_law(law) for name, law in LAWS.items()}


def dense_instances(cls: StructureClass, size: int, all_pairs: bool = False):
    """The law instances (law, law_id, f, g) of a Boolean class on a dense
    table of ``size`` entries, in check order.

    Binary laws take every ordered pair of predicates, or only pairs f <= g
    as indices; the order law takes f inside g; the constant laws take the
    constant predicate as f.
    """
    for (law,), law_id in cls.groups:
        if law.shape in ("bottom", "top"):
            yield law, law_id, 0 if law.shape == "bottom" else size - 1, 0
        elif law.shape == "pair":
            for f in range(size):
                for g in range(0 if all_pairs else f, size):
                    yield law, law_id, f, g
        else:
            for f in range(size):
                for g in range(size):
                    if f & ~g == 0:
                        yield law, law_id, f, g


def check_dense(T: Sequence, top: int, cls: StructureClass, all_pairs: bool = False):
    """Check a Boolean class exactly on a dense table T (see MASK_SIDES) at
    every instance of ``dense_instances``.  Returns (violation, checked)
    with violation (law, law_id, f, g, lhs, rhs) or None.
    """
    checked = 0
    for law, law_id, f, g in dense_instances(cls, len(T), all_pairs):
        checked += 1
        lhs, rhs = MASK_SIDES[law.name](T, top, f, g)
        if lhs != rhs:
            return (law, law_id, f, g, lhs, rhs), checked
    return None, checked


def check_functional_laws(
    F: Callable,
    n: int,
    cls: StructureClass,
    rational_preds: Sequence | None = None,
    scalars: Sequence | None = None,
):
    """Check one functional Omega^n -> Omega against a class law list.

    Returns (witness_or_None, checked_count).  Boolean classes sweep all
    ordered valuation pairs; rational classes quantify over the supplied
    probe tuples and scalars.  Each law instance counts once, except that
    a defined pair counts twice (its definedness and its law); translation
    counts once and reports its definedness failures as ``translate``.
    """
    if cls.carrier == BOOLEAN:
        # valuation tuples in product order, indexed as bit masks (the
        # lattice operations do not depend on the bit order)
        tuples = list(itertools.product((0, 1), repeat=n))
        found, checked = check_dense([F(t) for t in tuples], 1, cls, all_pairs=True)
        if found is None:
            return None, checked
        law, _, f, g, lhs, rhs = found
        named = dict(zip(arg_names(law.shape), (tuples[f], tuples[g])))
        return Witness("class.law", {"law": law.name, **named}, lhs, rhs), checked
    scalars = DEFAULT_SCALARS if scalars is None else scalars
    check = LawCheck(lambda p: (F(p),), 1, rational_preds or [], scalars, n)
    for laws, _ in cls.groups:
        shape = laws[-1].shape
        found = check.first_violation(laws, 1 if shape == "shift" else len(laws))
        if found is None:
            continue
        law, args, lhs, rhs, _ = found
        if shape == "shift":
            law = laws[-1]
            (lhs,), (rhs,) = check.sides(law, args)
        if shape in ("bottom", "top"):
            named = {"law": law.name, "zero": check.preds[-2], "one": check.preds[-1]}
        else:
            named = {**dict(zip(arg_names(shape), args)), "law": law.name}
        return Witness("class.law", named, lhs, rhs), check.checked
    return None, check.checked


def _rational_probe_tuples(n: int, seed: int, count: int = 24) -> list:
    """Deterministic valuation tuples: diracs, constants, and seeded randoms."""
    rng = Random(seed)
    out = [(ZERO,) * n, (ONE,) * n]
    for i in range(n):
        out.append(tuple(ONE if j == i else ZERO for j in range(n)))
        out.append(tuple(Fraction(1, 2) if j == i else ZERO for j in range(n)))
    while len(out) < count + 2 + 2 * n:
        den = rng.choice((2, 3, 4, 6, 8))
        out.append(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))
    seen, uniq = set(), []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def lifting_check(
    mod: Modality,
    cls: StructureClass | str,
    n_max: int,
    seed: int = 11,
    samples_per_n: int = 200,
    max_den: int = 16,
) -> Verdict:
    """Check that every component map alpha_n(t) : Omega^n -> Omega is a
    morphism of the given structure class, for n <= n_max.

    Boolean-enumerable monads sweep all t in T(n); the distribution monads
    draw seeded samples (the domain is infinite).
    """
    if isinstance(cls, str):
        cls = STRUCTURE_CLASSES[cls]
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    checked = 0
    rng = Random(seed)
    for n in range(1, n_max + 1):
        X = FinSet(f"n{n}", tuple(f"e{i}" for i in range(n)))
        if is_enumerable(mod.monad):
            ts = enumerate_tvalues(mod.monad, X)
        else:
            ts = [random_tvalue(mod.monad, rng, X, max_den) for _ in range(samples_per_n)]
        preds = _rational_probe_tuples(n, seed + n) if cls.carrier == RATIONAL else None
        idx = {x: i for i, x in enumerate(X.elements)}
        for t in ts:
            F = lambda tup, t=t: mod.evaluate(t, lambda x: tup[idx[x]])
            witness, c = check_functional_laws(F, n, cls, preds)
            checked += c
            if witness is not None:
                args = dict(witness.args)
                args["n"] = n
                args["t"] = t
                return Verdict.unhealthy(
                    Witness(witness.law, args, witness.lhs, witness.rhs), checked
                )
    return Verdict.healthy(checked)


# ---------------------------------------------------------------------------
# Finite algebras and their morphisms into Omega


@dataclass(frozen=True)
class FiniteAlgebra:
    """An Eilenberg-Moore algebra on a finite carrier, given by its table."""

    name: str
    kind: MonadKind
    carrier: FinSet
    apply: Callable  # tvalue over carrier -> carrier element


def free_algebra(kind: MonadKind, generators: FinSet) -> FiniteAlgebra:
    """The free algebra T(Y) with multiplication as its structure map."""
    kind = MonadKind(kind)
    values = enumerate_tvalues(kind, generators)
    carrier = FinSet(f"free[{generators.name}]", tuple(values))
    if kind == MonadKind.POWERSET:

        def apply(tvalue):
            out = set()
            for inner in tvalue:
                out |= inner
            return frozenset(out)

    elif kind == MonadKind.LIFT_POWERSET:

        def apply(tvalue):
            out = set()
            for inner in tvalue:
                if inner is BOT:
                    out.add(BOT)
                else:
                    out |= inner
            return frozenset(out)

    else:
        raise SizeGuardError("free algebras are materialized only for enumerable monads")
    return FiniteAlgebra(carrier.name, kind, carrier, apply)


def omega_algebra(mod: Modality) -> FiniteAlgebra:
    """Omega itself as an algebra (Boolean modalities only)."""
    if mod.carrier != BOOLEAN:
        raise SizeGuardError("the rational truth carrier is not a finite algebra")
    carrier = FinSet("omega", (0, 1))
    return FiniteAlgebra("omega", mod.monad, carrier, mod.apply_algebra)


def enumerate_algebra_morphisms(
    algebra: FiniteAlgebra, mod: Modality, max_enum: int = 1 << 16
) -> list:
    """All structure-preserving maps from the algebra into Omega.

    Computed by filtration: a function h passes iff h(a(t)) = eval(t, h)
    for every T-value t over the algebra's carrier (the equalizer of the
    two canonical maps, at finite scale).
    """
    if mod.monad not in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET):
        raise SizeGuardError("algebra morphisms are enumerated for enumerable monads only")
    if mod.carrier != BOOLEAN:
        raise SizeGuardError("morphism enumeration needs the Boolean truth carrier")
    carrier = algebra.carrier
    if 2 ** len(carrier) > max_enum:
        raise SizeGuardError("function space exceeds the enumeration guard")
    tvalues = enumerate_tvalues(algebra.kind, carrier, max_enum)
    out = []
    for bits in itertools.product((0, 1), repeat=len(carrier)):
        h = dict(zip(carrier.elements, bits))
        ok = True
        for t in tvalues:
            if h[algebra.apply(t)] != mod.evaluate(t, lambda a: h[a]):
                ok = False
                break
        if ok:
            out.append(h)
    return out
