"""Truth-value algebras (modalities), the algebra/monad-map correspondence,
the healthiness law table, and lifting-condition checks.

A modality is an algebra ``TOmega -> Omega`` over the truth values,
represented by its induced evaluation rule ``eval(t, f) = alg(T f (t))``
which works uniformly over every finite carrier.  The correspondence
between algebras and monad maps into the continuation-like monad is
implemented in both directions and is finitely testable.  The rule and the
monad row's ``mult`` also give the state-and-effect triangle: the algebra
maps h: T(Y) -> Omega (h . mult = eval(-, h)) are the predicates Omega^Y
through h |-> h . eta, and pt(f) is precomposition with f.

Two tables drive the rest of the package.  The modality catalog has one
row per theorem instance (monad, modality, structure class).  The law
table has one row per healthiness law: its shape, its two sides as terms
over the operation rows (``Op``, each operation on truth values, lattice
points and value pairs), its relation (``RELATIONS``), its definedness
law and its coefficient certificate.  A structure class is a list of
those laws, and the same list is both the transformer healthiness
condition and the lifting condition on the modality's components; the
Boolean checks and sweeps read the same rows on bit masks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, and_, mul, or_
from random import Random
from typing import Callable, Sequence

from .core import FinSet, SizeGuardError, parse_rational
from .monads import (
    BOT,
    ContinuationTarget,
    IntegerRows,
    KleisliArrow,
    MONADS,
    Lattice,
    MonadKind,
    MonadMapSpec,
    vertex_rows,
)
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "BOOLEAN",
    "RATIONAL",
    "Modality",
    "TauR",
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

    ``closed_form(tvalues, targets)``, which the catalog rows and the
    built-in tau_r rows carry, compiles T-values over ``targets`` into what
    the semantics evaluates in place of the rule: for a Boolean row, each
    T-value's mask basis (x is in phi(m) iff some mask of x's basis lies
    inside m, ``semantics.mask_table``); for a rational row, the integer
    coefficient rows (``IntegerRows``) of the map sending a predicate over
    ``targets`` to its values at each T-value.  A modality without one goes
    through its rule; agreement of the two routes is property-tested.  The
    closed form compiles the rule, so equality ignores it.
    """

    name: str
    monad: MonadKind
    carrier: str
    structure_class: str | None
    evaluate: Callable
    pair: tuple | None = None  # (inner, outer) description for alternating instances
    theorem: str | None = None  # the theorem instance this catalog row realizes
    closed_form: Callable | None = field(default=None, compare=False)

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


@dataclass(frozen=True)
class TauR:
    """The rule of tau_r: the expectation plus r times the missing mass."""

    r: Fraction

    def __call__(self, p, f):
        return p.expect(f) + self.r * (1 - p.mass)

    def rows(self, tvalues: Sequence, targets: Sequence) -> IntegerRows:
        """The rule's closed form: per T-value one row, the offset r times
        the missing mass and the weights over ``targets``."""
        r = self.r
        return IntegerRows.of_distributions([[(r * (ONE - t.mass), t)] for t in tvalues], targets)


def _tau_r(name: str, r: Fraction, structure_class: str = None, theorem: str = None) -> Modality:
    rule = TauR(r)
    return Modality(
        name, MonadKind.SUBDIST, RATIONAL, structure_class, rule, theorem=theorem, closed_form=rule.rows
    )


def _eval_convex(p, f):
    return p.expect(f)


def _eval_dijkstra(s, f):
    # strict extension: divergence falsifies the postcondition
    return min((0 if y is BOT else f(y) for y in s), default=1)


def _eval_game(fam, f):
    return max((min((f(y) for y in s), default=1) for s in fam), default=0)


def _eval_demonic_prob(vertices, f):
    return min(mu.expect(f) for mu in vertices)


def _mask_bases(basis: Callable) -> Callable:
    """The closed form of a Boolean row from ``basis(t, mask)``, one
    T-value's mask basis, with ``mask`` sending a subset of the targets to
    its bit mask.  The inverse (``synthesis._synth_boolean``) reads the
    same bases back: the masks phi accepts at x for game, the minimal ones
    for the other three rows."""

    def closed_form(tvalues: Sequence, targets: Sequence) -> list:
        bit = {y: 1 << i for i, y in enumerate(targets)}
        mask = lambda s: sum(bit[y] for y in s)
        return [basis(t, mask) for t in tvalues]

    return closed_form


# The catalog: one row per theorem instance, in theorem order.
INSTANCES = {
    mod.theorem: mod
    for mod in (
        Modality(
            "diamond", MonadKind.POWERSET, BOOLEAN, "cl_join", _eval_diamond, theorem="may",
            closed_form=_mask_bases(lambda s, mask: [mask((y,)) for y in s]),
        ),
        Modality(
            "box", MonadKind.POWERSET, BOOLEAN, "cl_meet", _eval_box, theorem="must",
            closed_form=_mask_bases(lambda s, mask: (mask(s),)),
        ),
        Modality(
            "game", MonadKind.UP_POWERSET, BOOLEAN, "pos", _eval_game,
            pair=("meet within the chosen set", "join over the family"),
            theorem="game",
            closed_form=_mask_bases(lambda fam, mask: [mask(s) for s in fam]),
        ),
        Modality(
            "dijkstra", MonadKind.LIFT_POWERSET, BOOLEAN, "strict_cl_meet", _eval_dijkstra,
            pair=("nonempty-meet over chosen states", "strict bottom"),
            theorem="dijkstra",
            closed_form=_mask_bases(lambda s, mask: () if BOT in s else (mask(s),)),
        ),
        _tau_r("total", ZERO, "gemod", "subdist_total"),
        _tau_r("partial", ONE, "gemod_dual", "subdist_partial"),
        # the expectation is tau_0 on distributions, which miss no mass
        Modality(
            "convex", MonadKind.DIST, RATIONAL, "emod", _eval_convex, theorem="dist_convex",
            closed_form=TauR(ZERO).rows,
        ),
        Modality(
            "demonic_prob", MonadKind.CV_DIST, RATIONAL, "emod_sublinear", _eval_demonic_prob,
            pair=("expectation", "min over the polytope"),
            theorem="cv_sublinear",
            closed_form=vertex_rows,
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
        # tau_0 and tau_1 are catalog rows
        rule = TauR(r)
        row = next((mod for mod in INSTANCES.values() if mod.evaluate == rule), None)
        return row or _tau_r(f"tau_r:{r}", r)
    for mod in INSTANCES.values():
        if mod.name == key:
            return mod
    raise ValueError(f"unknown modality {name!r}")


def builtin_modality_names() -> tuple:
    return tuple(mod.name for mod in INSTANCES.values())


# ---------------------------------------------------------------------------
# Algebra <-> monad map correspondence


def algebra_to_monad_map(mod: Modality) -> MonadMapSpec:
    """The monad map induced by an algebra: tau_X(t)(f) = alg(T f (t)),
    the comparison map into the functionals of mod's structure class.  A
    Boolean class decides membership with its own law check
    (``check_functional_laws``)."""

    def component(elems, tvalue):
        return lambda f: mod.evaluate(tvalue, f)

    if mod.carrier != BOOLEAN:
        return MonadMapSpec(f"map[{mod.name}]", mod.monad, _RationalContinuationTarget(), component)
    cls = STRUCTURE_CLASSES.get(mod.structure_class)
    membership = None if cls is None else functools.partial(_class_member, cls)
    return MonadMapSpec(f"map[{mod.name}]", mod.monad, ContinuationTarget(), component, membership)


def _class_member(cls: StructureClass, elems: tuple, value: Callable):
    """None if the Boolean functional ``value`` on valuations of ``elems``
    is a morphism of cls, else the ``class.law`` witness of the first law
    it violates."""
    return check_functional_laws(ContinuationTarget.functional(elems, value), len(elems), cls)[0]


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
    support = MONADS[spec.source].support

    def evaluate(tvalue, f):
        return spec.at(tuple(support(tvalue)), tvalue)(f)

    return Modality(name or f"alg[{spec.name}]", spec.source, carrier, None, evaluate)


# ---------------------------------------------------------------------------
# Algebra laws, in Kleisli form


def _law_alg_unit(mod, args):
    A, x, f_table = args["carrier"], args["x"], args["f"]
    f = lambda a: f_table[a]
    return mod.evaluate(MONADS[mod.monad].unit(A, x), f), f(x)


def _law_alg_mult(mod, args):
    t, g = args["t"], args["g"]
    extended = MONADS[g.kind].extend(t, g)
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
    monad = MONADS[mod.monad]
    enumerable = monad.tvalues is not None

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
        ts = monad.tvalues(A)
        rows = monad.tvalues(omega)
        if len(rows) ** len(A) > 4096:
            raise SizeGuardError("algebra-law sweep too large; lower the carrier size")
        gs = [
            KleisliArrow(mod.monad, A, omega, pair)
            for pair in itertools.product(rows, repeat=len(A))
        ]
    else:
        ts = [monad.sample(rng, A) for _ in range(sample_depth)]
        gs = [
            KleisliArrow(mod.monad, A, omega, [monad.sample(rng, omega) for _ in range(len(A))])
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


@dataclass(frozen=True, eq=False)
class Op:
    """One law operation, in each form a check applies it in: ``value`` on
    two truth values (Fractions, the second a scalar for the scalings; join
    and meet on bit masks as well), and for the rational ones ``point`` on
    two lattice points over ``one`` (a scalar r is repeat(r * one)), giving
    the point over one exactly, and ``pair`` on two values as (numerator,
    denominator) pairs (the scalar as (r * one, one))."""

    value: Callable
    point: Callable | None = None
    pair: Callable | None = None


JOIN, MEET = Op(or_), Op(and_)
SUM = Op(
    add,
    lambda a, b, one: tuple(map(add, a, b)),
    lambda u, v: (u[0] * v[1] + v[0] * u[1], u[1] * v[1]),
)
DUAL_SUM = Op(
    lambda a, b: a + b - ONE,
    lambda a, b, one: tuple(x + y - one for x, y in zip(a, b)),
    lambda u, v: (u[0] * v[1] + v[0] * u[1] - u[1] * v[1], u[1] * v[1]),
)
SCALE = Op(
    mul,
    lambda a, b, one: tuple(x * r // one for x, r in zip(a, b)),
    lambda u, v: (u[0] * v[0], u[1] * v[1]),
)
DUAL_SCALE = Op(
    lambda a, r: r * a + ONE - r,
    lambda a, b, one: tuple(x * r // one + one - r for x, r in zip(a, b)),
    lambda u, v: (u[0] * v[0] + u[1] * (v[1] - v[0]), u[1] * v[1]),
)

# law relation -> (the rhs clamp on values, the rhs clamp on masks, whether
# an lhs and an rhs value pair violate it); None for "=", whose rhs is not
# clamped.  For "<=" (">=") the violation is rhs < lhs (rhs > lhs), exactly
# where the clamped rhs differs from the lhs.
RELATIONS = {
    "=": (None, None, lambda u, v: u[0] * v[1] != v[0] * u[1]),
    "<=": (min, and_, lambda u, v: v[0] * u[1] < u[0] * v[1]),
    ">=": (max, or_, lambda u, v: v[0] * u[1] > u[0] * v[1]),
}


@dataclass(frozen=True)
class Law:
    """One healthiness law: ``lhs rel rhs`` at every argument of its shape.

    Shapes and their arguments: "bottom" and "top" (the constant predicate
    0, resp. 1), "pair" (two Boolean predicates), "order" (two Boolean
    predicates with f <= g), "sum" and "dual_sum" (two predicates whose
    pointwise sum, resp. sum minus one, stays in [0, 1]), "scale" (a
    predicate and a scalar r) and "shift" (a predicate and a scalar lam
    with p + lam <= 1).  A side is a term: ``("arg", k)`` is F at argument
    k, ``("at", op)`` is F at the ``Op`` op applied pointwise to the
    arguments, ``("of", op)`` is op applied to F's values at the arguments,
    and ``("const", c)`` is the truth value c in {0, 1}.

    ``rel`` is "=", "<=" or ">=" (see ``RELATIONS``).  Inequalities use the
    clamp encoding: a witness records meet(lhs, rhs) (for ">=", join) as its
    rhs, so a law is violated exactly when its recorded sides differ.

    A law over a partial operation carries its definedness law ``defined``,
    checked before it at each argument.  A rational law may carry a
    ``certificate`` (single, vertex): integer rows certify it, and its
    definedness law, at every argument when every vertex row (c0, cs) over
    den passes ``vertex(c0, cs, den)`` and, if ``single``, every output has
    exactly one vertex row.  Such rows are linear (one row, c0 = 0), affine
    with F(1) = 1 (one row, c0 + sum(cs) = den), or a minimum of
    homogeneous maps (every c0 = 0), resp. of maps that commute with shifts
    (every sum(cs) = den).
    """

    name: str
    shape: str
    lhs: tuple
    rhs: tuple
    rel: str = "="
    defined: Law | None = None
    certificate: tuple | None = None


def _homogeneous(c0, cs, den):
    return c0 == 0


def _unital(c0, cs, den):
    return c0 + sum(cs) == den


def _shift_invariant(c0, cs, den):
    return sum(cs) == den


# One row per law; LAWS holds every law by name, each definedness law just
# before the law it belongs to.
LAWS = {
    law.name: law
    for row in (
        Law("bottom", "bottom", ("arg", 0), ("const", 0)),
        Law("top", "top", ("arg", 0), ("const", 1)),
        Law("binary_join", "pair", ("at", JOIN), ("of", JOIN)),
        Law("binary_meet", "pair", ("at", MEET), ("of", MEET)),
        Law("monotone", "order", ("arg", 0), ("arg", 1), "<="),
        Law("zero", "bottom", ("arg", 0), ("const", 0)),
        Law("one", "top", ("arg", 0), ("const", 1)),
        Law("dual_zero", "top", ("arg", 0), ("const", 1)),
        Law(
            "sum", "sum", ("at", SUM), ("of", SUM), "=",
            Law("sum_defined", "sum", ("of", SUM), ("const", 1), "<="), (True, _homogeneous),
        ),
        Law(
            "dual_sum", "dual_sum", ("at", DUAL_SUM), ("of", DUAL_SUM), "=",
            Law("dual_sum_defined", "dual_sum", ("of", DUAL_SUM), ("const", 0), ">="), (True, _unital),
        ),
        Law(
            "subadditive", "sum", ("of", SUM), ("at", SUM), "<=",
            Law("subadditive_defined", "sum", ("of", SUM), ("const", 1), "<="), (False, _homogeneous),
        ),
        Law("scale", "scale", ("at", SCALE), ("of", SCALE), certificate=(False, _homogeneous)),
        Law("dual_scale", "scale", ("at", DUAL_SCALE), ("of", DUAL_SCALE), certificate=(True, _unital)),
        Law(
            "translate", "shift", ("at", SUM), ("of", SUM), "=",
            Law("translate_defined", "shift", ("of", SUM), ("const", 1), "<="), (False, _shift_invariant),
        ),
    )
    for law in (row.defined, row)
    if law is not None
}

# shapes whose two arguments are both predicates ("scale" and "shift" take a
# predicate and a scalar)
_BINARY = ("pair", "order", "sum", "dual_sum")

# the shapes each truth carrier's checks read: Boolean predicates are bit
# masks, rational ones lattice points
_SHAPES = {
    BOOLEAN: ("bottom", "top", "pair", "order"),
    RATIONAL: ("bottom", "top", "sum", "dual_sum", "scale", "shift"),
}


def arg_names(shape: str, p: str = "f", q: str = "g") -> tuple:
    """Witness argument names of a shape, given the names of predicates."""
    names = {"bottom": ("zero",), "top": ("one",), "scale": (p, "r"), "shift": (p, "lam")}
    return names.get(shape, (p, q))


@dataclass(frozen=True)
class StructureClass:
    """A list of table laws deciding whether a map Omega^n -> Omega (or a
    transformer, per output coordinate) is a morphism of the class.

    ``condition`` names the same list as a transformer healthiness
    condition.  ``laws`` pairs each law's name with the id the transformer
    checks report for it; its definedness law reports that id plus
    ``_defined``.  A class names only laws whose shape its carrier's checks
    read (``ValueError`` otherwise).
    """

    tag: str
    condition: str
    carrier: str
    laws: tuple

    def __post_init__(self):
        for name, _ in self.laws:
            shape = LAWS[name].shape
            if shape not in _SHAPES[self.carrier]:
                message = f"law {name!r} of shape {shape!r} is not a {self.carrier} law"
                raise ValueError(f"class {self.tag!r}: {message}")

    @functools.cached_property
    def groups(self) -> tuple:
        """(laws, transformer law id) per law in check order, the laws being
        its definedness law when it has one, then it."""
        return tuple(
            (tuple(law for law in (LAWS[name].defined, LAWS[name]) if law is not None), law_id)
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


class LawCheck:
    """Checks rational table laws of a map F over probe predicates and scalars.

    F takes a predicate (a value tuple) to a tuple with one entry per output
    coordinate (one entry for a functional), each an int or a Fraction.
    Predicate arguments are addressed by index into ``preds``, the probes
    followed by the constant predicates 0 and 1.

    Arguments are enumerated on the probes' ``lattice`` (computed when not
    given), and every point a law reads is an integer vector over its
    ``one``: a predicate, or a sum, dual sum, scaling or shift of one.  F
    is evaluated once per point, when first needed (at a predicate argument
    before the argument counts as checked), and called with the point in
    Fractions.  The loop compares both sides of each law on its values as
    (numerator, denominator) pairs; the Fraction ``sides`` build the
    witness at the first violation, reading F at its points off the same
    table, and decide the constant laws and the replays, which call F.
    When the integer ``rows`` of a closed-form transformer are given
    (``IntegerRows``), a group whose law has a ``certificate`` is first
    read off the coefficients: when they certify it, it holds at
    every argument and counts them all without evaluating F.  The
    certificate is only sufficient; the constant laws, and every group it
    does not certify, run the per-argument loop.
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
        self.preds = list(probes) + [(ZERO,) * width, (ONE,) * width]
        self.scalars = tuple(scalars)
        self.checked = 0
        self.F, self._rows = F, rows
        self._consts = ((ZERO,) * outputs, (ONE,) * outputs)
        self._const_pairs = (((0, 1),) * outputs, ((1, 1),) * outputs)
        # preds as lattice points, and F at every point evaluated so far
        self._points = lattice.preds + ((0,) * width, (lattice.one,) * width)
        self._values = {}
        self._fractions = {}  # coordinates over one, as Fractions

    def _value(self, point: tuple, pred: tuple = None) -> tuple:
        """F at a lattice point, as its values and their (numerator,
        denominator) pairs; F is called at the first request only, with
        ``pred`` when given (the point's predicate), else the point in
        Fractions."""
        v = self._values.get(point)
        if v is None:
            if pred is None:
                fr, one = self._fractions, self._lattice.one
                pred = tuple([fr[a] if a in fr else fr.setdefault(a, Fraction(a, one)) for a in point])
            out = self.F(pred)
            for q in out:
                if type(q) is not Fraction and not isinstance(q, (int, Fraction)):
                    kind = type(q).__name__
                    raise TypeError(f"law check value {q!r}, a {kind}, is not an int or a Fraction")
            v = self._values[point] = out, tuple((q.numerator, q.denominator) for q in out)
        return v

    def arguments(self, shape: str):
        """Every argument of a shape as indices: into ``preds``, and for
        "scale" and "shift" then into ``scalars``."""
        lattice = self._lattice
        k, lam = len(lattice.preds), lattice.scalars
        if shape in ("bottom", "top"):
            return [(k if shape == "bottom" else k + 1,)]
        if shape == "scale":
            return ((i, s) for i in range(k) for s in range(len(lam)))
        if shape == "shift":
            hi = [max(p, default=0) for p in lattice.preds]
            return ((i, s) for i in range(k) for s in range(len(lam)) if hi[i] + lam[s] <= lattice.one)
        return ((i, j) for i, js in enumerate(self._pairs(shape)) for j in js)

    def _pairs(self, shape: str) -> tuple:
        """Per predicate i, the j >= i that make (i, j) an argument of a
        pair shape.  They depend on the lattice alone, so each shape is
        scanned once per lattice and kept there (``Lattice.pairs``)."""
        cache = self._lattice.pairs
        rows = cache.get(shape)
        if rows is None:
            rows = cache[shape] = tuple(self._pair_rows(shape))
        return rows

    def _pair_rows(self, shape: str):
        """``_pairs`` one predicate at a time: whether probes i and j sum
        (dual: sum minus one) into [0, 1]; the extreme values decide most
        pairs without a pointwise scan."""
        ints, U = self._lattice.preds, self._lattice.one
        hi = [max(p, default=0) for p in ints]
        lo = [min(p, default=0) for p in ints]
        k = len(ints)
        # each row from a list, at its final size (see the monads docstring)
        for i in range(k):
            if shape == "dual_sum":
                yield tuple([
                    j
                    for j in range(i, k)
                    if lo[i] + lo[j] >= U
                    or (hi[i] + hi[j] >= U and min(map(add, ints[i], ints[j])) >= U)
                ])
            else:
                yield tuple([
                    j
                    for j in range(i, k)
                    if hi[i] + hi[j] <= U
                    or (lo[i] + lo[j] <= U and max(map(add, ints[i], ints[j])) <= U)
                ])

    def _count(self, shape: str) -> int:
        """The number of arguments of a shape, counted once per lattice: a
        pair shape's from its kept pairs, or from a scan that keeps none
        (a check the certificate decides holds no pair)."""
        counts = self._lattice.counts
        if shape not in counts:
            if shape in ("bottom", "top", "scale", "shift"):
                counts[shape] = sum(1 for _ in self.arguments(shape))
            else:
                rows = self._lattice.pairs.get(shape)
                counts[shape] = sum(map(len, self._pair_rows(shape) if rows is None else rows))
        return counts[shape]

    @functools.cached_property
    def _fits(self) -> bool:
        """Whether the rows fit the lattice's width (> 0) and the outputs,
        so that F, which maps [0, 1]^Y into [0, 1], raises at no argument."""
        rows, preds = self._rows, self._lattice.preds
        return len(preds[0] if preds else ()) == rows.width > 0 and len(rows.rows) == len(self._consts[0])

    def _certified(self, law: Law) -> bool:
        """Whether the rows' coefficients certify a law at every argument
        (see ``Law``)."""
        if law.certificate is None or not self._fits:
            return False
        single, test = law.certificate
        den = self._rows.den
        return all(
            (len(verts) == 1 or not single) and all(test(c0, cs, den) for c0, cs in verts)
            for verts in self._rows.rows
        )

    def side(self, term: tuple, shape: str, args: tuple, fargs: list, memo: dict, at=None) -> tuple:
        """One side of a law at an argument; ``at``, when given, maps an
        "at" term's op to F's values at that point, else F is called."""
        kind, x = term
        if kind == "arg":
            return fargs[x]
        if kind == "const":
            return self._consts[x]
        if kind == "of":
            image = memo.get(x)
            if image is None:
                second = fargs[1] if shape in _BINARY else repeat(args[1])
                image = memo[x] = tuple(map(x.value, fargs[0], second))
            return image
        if at is not None:
            return at(x)
        second = args[1] if shape in _BINARY else repeat(args[1])
        return self.F(tuple(map(x.value, args[0], second)))

    def sides(self, law: Law, args: tuple, fargs: list = None, memo: dict = None, at=None) -> tuple:
        """Both sides of a law at one argument, the rhs clamped, so the law
        holds iff they are equal; ``fargs`` is F at the predicate arguments,
        and ``at`` F at the "at" points (see ``side``)."""
        if fargs is None:
            fargs = [self.F(a) for a in args[: 2 if law.shape in _BINARY else 1]]
        memo = {} if memo is None else memo
        lhs = self.side(law.lhs, law.shape, args, fargs, memo, at)
        rhs = self.side(law.rhs, law.shape, args, fargs, memo, at)
        clamp = RELATIONS[law.rel][0]
        return lhs, rhs if clamp is None else tuple(map(clamp, lhs, rhs))

    def first_violation(self, laws: tuple, weight: int):
        """(law, args, lhs, rhs, coordinate) at the first failing argument, or
        None; every argument adds ``weight`` to the checked count.  A group's
        laws share one image of F per argument.  A group the rows certify
        counts its arguments at once; the loop below runs every other one
        from its first argument, on the lattice (see the class docstring),
        and the constant laws in Fractions."""
        shape = laws[0].shape
        if self._rows is not None and self._certified(laws[-1]):
            self.checked += weight * self._count(shape)
            return None
        preds, points, value, one = self.preds, self._points, self._value, self._lattice.one
        if shape in ("bottom", "top"):
            (k,) = self.arguments(shape)[0]
            fargs = [value(points[k], preds[k])[0]]
            self.checked += weight
            return self._fraction_violation(laws, (preds[k],), fargs)
        binary, consts = shape in _BINARY, self._const_pairs
        compiled = [(law, law.lhs, law.rhs, RELATIONS[law.rel][2]) for law in laws]

        def side(term):
            kind, x = term
            if kind == "arg":
                return fb if x else fa
            if kind == "const":
                return consts[x]
            if kind == "at":
                return value(x.point(a, b, one))[1]
            image = memo.get(x)
            if image is None:
                image = memo[x] = tuple(map(x.pair, fa, fb))
            return image

        for i, j in self.arguments(shape):
            a = points[i]
            fa = value(a, preds[i])[1]
            if binary:
                b = points[j]
                fb = value(b, preds[j])[1]
            else:
                r = self._lattice.scalars[j]
                b, fb = repeat(r), repeat((r, one))
            self.checked += weight
            memo = {}
            for law, lhs, rhs, violates in compiled:
                if any(map(violates, side(lhs), side(rhs))):
                    if binary:
                        args, fargs = (preds[i], preds[j]), [value(a)[0], value(b)[0]]
                    else:
                        args, fargs = (preds[i], self.scalars[j]), [value(a)[0]]
                    # both sides were just read, so F's values at their "at" points are kept
                    at = lambda op: value(op.point(a, b, one))[0]
                    return self._fraction_violation([law], args, fargs, at)
        return None

    def _fraction_violation(self, laws, args: tuple, fargs: list, at=None):
        """(law, args, lhs, rhs, coordinate) for the first of the laws that
        fails at one argument, on its Fraction sides; None if all hold.
        ``at`` reads F at the "at" points off the lattice values."""
        memo = {}
        for law in laws:
            lhs, rhs = self.sides(law, args, fargs, memo, at)
            if lhs != rhs:
                x = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                return law, args, lhs[x], rhs[x], x
        return None


def _replay_functional(subject, args):
    law = LAWS[args["law"]]
    check = LawCheck(lambda p: (subject(p),), 1)
    (lhs,), (rhs,) = check.sides(law, tuple(args[k] for k in arg_names(law.shape)))
    return lhs, rhs


register_law("class.law", _replay_functional)


def mask_term(term: tuple) -> Callable:
    """One side of a law as a function (T, top, f, g) -> mask (see MASK_SIDES)."""
    kind, x = term
    if kind == "arg":
        return lambda T, top, f, g: T[g] if x else T[f]
    if kind == "const":
        return lambda T, top, f, g: top if x else 0
    op = x.value
    if kind == "at":
        return lambda T, top, f, g: T[op(f, g)]
    return lambda T, top, f, g: op(T[f], T[g])


def mask_reads(term: tuple, f: int, g: int) -> tuple:
    """The entries of a dense table that one side of a law reads at f and
    g; an "arg" or "at" side reads one entry, and is that entry."""
    kind, x = term
    if kind == "arg":
        return (g if x else f,)
    if kind == "at":
        return (x.value(f, g),)
    return (f, g) if kind == "of" else ()


def _mask_law(law: Law) -> Callable:
    lhs, rhs = mask_term(law.lhs), mask_term(law.rhs)
    clamp = RELATIONS[law.rel][1]
    if clamp is None:
        return lambda T, top, f, g: (lhs(T, top, f, g), rhs(T, top, f, g))
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
    return _rational_functional_laws(lambda p: (F(p),), n, cls, rational_preds or [], scalars)


def _rational_functional_laws(F, n, cls, preds, scalars, lattice=None, rows=None):
    """The rational branch of ``check_functional_laws`` for F returning a
    1-tuple, F in Fractions; the integer ``rows`` of a closed form, when
    given, may certify law groups (see ``LawCheck``)."""
    check = LawCheck(F, 1, preds, scalars, n, lattice, rows)
    for laws, _ in cls.groups:
        shape = laws[-1].shape
        found = check.first_violation(laws, 1 if shape == "shift" else len(laws))
        if found is None:
            continue
        law, args, lhs, rhs, _ = found
        if shape == "shift":
            law = laws[-1]
            (lhs,), (rhs,) = LawCheck(F, 1).sides(law, args)
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


# the largest denominator of a sampled T-value's weights in lifting_check
_SAMPLE_MAX_DEN = 16


def lifting_check(
    mod: Modality,
    cls: StructureClass | str,
    n_max: int,
    seed: int = 11,
    samples_per_n: int = 200,
) -> Verdict:
    """Check that every component map alpha_n(t) : Omega^n -> Omega is a
    morphism of the given structure class, for n <= n_max.

    Boolean-enumerable monads sweep all t in T(n); the distribution monads
    draw seeded samples (the domain is infinite).  Under a rational class,
    alpha_n(t) of a closed-form modality is its one-state transformer at t,
    whose integer rows may certify law groups on a lattice built once per n.
    """
    if isinstance(cls, str):
        cls = STRUCTURE_CLASSES[cls]
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    checked = 0
    rng = Random(seed)
    monad = MONADS[mod.monad]
    for n in range(1, n_max + 1):
        X = FinSet(f"n{n}", tuple(f"e{i}" for i in range(n)))
        if monad.tvalues is not None:
            ts = monad.tvalues(X)
        else:
            ts = [monad.sample(rng, X, _SAMPLE_MAX_DEN) for _ in range(samples_per_n)]
        if cls.carrier == RATIONAL:
            preds = _rational_probe_tuples(n, seed + n)
            lattice = Lattice.of(preds, DEFAULT_SCALARS)
        idx = {x: i for i, x in enumerate(X.elements)}
        for t in ts:
            F = lambda tup, t=t: mod.evaluate(t, lambda x: tup[idx[x]])
            if cls.carrier == BOOLEAN:
                witness, c = check_functional_laws(F, n, cls)
            else:
                rows = None
                if mod.carrier == RATIONAL and mod.closed_form is not None:
                    rows = mod.closed_form((t,), X.elements)
                F1 = (lambda p: (F(p),)) if rows is None else rows
                witness, c = _rational_functional_laws(
                    F1, n, cls, preds, DEFAULT_SCALARS, lattice, rows
                )
            checked += c
            if witness is not None:
                args = dict(witness.args)
                args["n"] = n
                args["t"] = t
                return Verdict.unhealthy(
                    Witness(witness.law, args, witness.lhs, witness.rhs), checked
                )
    return Verdict.healthy(checked)

