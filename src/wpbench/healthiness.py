"""Deciders for every healthiness condition, with witnessed verdicts.

Boolean conditions are decided exactly: on a finite powerset lattice the
binary laws (plus the empty join/meet where required) generate the
arbitrary ones, so a dense-table sweep over predicate pairs is complete.
Rational conditions are decided on a probe grid: a counterexample is
definitive, a pass is healthy-on-grid with its checked count, and
inconclusive is reserved for grids below the documented minimum (or for
probe tables that lack a required evaluation point).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .core import FinSet
from .modalities import (
    BOOLEAN,
    DEFAULT_SCALARS,
    MASK_SIDES,
    STRUCTURE_CLASSES,
    Lattice,
    LawCheck,
    StructureClass,
    arg_names,
    check_dense,
)
from .monads import support
from .semantics import BooleanTransformer, MissingProbeError, RationalTransformer
from .verdicts import Verdict, Witness, register_law

__all__ = [
    "ProbeGrid",
    "check_join_preserving",
    "check_meet_preserving",
    "check_monotone",
    "check_strict_nonempty_meets",
    "check_gemod_morphism",
    "check_emod_morphism",
    "check_regular_sublinear",
    "finitary_support",
    "finitary_report",
    "CONDITIONS",
    "run_condition",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def _unit(value, what: str) -> Fraction:
    q = value if isinstance(value, Fraction) else Fraction(value)
    if not ZERO <= q <= ONE:
        raise ValueError(f"{what} {q} outside [0, 1]")
    return q


@dataclass(frozen=True)
class ProbeGrid:
    """A finite set of rational predicates (value tuples) plus scalars.

    The minimum contents for a conclusive verdict: every Dirac predicate,
    the two constants, and the pairwise-defined sums of that core.  Seeded
    random predicates extend the grid beyond the minimum.
    """

    domain: FinSet
    predicates: tuple
    scalars: tuple
    seed: int = 0

    @staticmethod
    def _core(n: int, zero=ZERO, one=ONE) -> list:
        diracs = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
        consts = [(zero,) * n, (one,) * n]
        core = diracs + consts
        sums = []
        for p, q in itertools.combinations(core, 2):
            s = tuple(a + b for a, b in zip(p, q))
            if all(v <= one for v in s):
                sums.append(s)
        return core + sums

    @staticmethod
    def random_tuples(domain: FinSet, seed: int, count: int, max_den: int = 8) -> list:
        rng = Random(seed)
        n = len(domain)
        out = []
        for _ in range(count):
            den = rng.randint(2, max_den)
            out.append(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))
        return out

    @classmethod
    def default(cls, domain: FinSet, seed: int = 0, random_count: int = 50) -> "ProbeGrid":
        n = len(domain)
        preds = cls._core(n) + cls.random_tuples(domain, seed, random_count)
        seen, uniq = set(), []
        for p in preds:
            if p not in seen:
                seen.add(p)
                uniq.append(p)
        return cls(domain, tuple(uniq), DEFAULT_SCALARS, seed)

    @classmethod
    def explicit(cls, domain: FinSet, predicates, scalars=None, seed: int = 0) -> "ProbeGrid":
        """A grid of the given value tuples, one value per element of the
        domain, and scalars; every value and scalar must lie in [0, 1]."""
        preds = tuple(tuple(_unit(v, "predicate value") for v in p) for p in predicates)
        for p in preds:
            if len(p) != len(domain):
                raise ValueError(f"probe predicate {p} needs {len(domain)} values")
        scals = DEFAULT_SCALARS if scalars is None else tuple(_unit(s, "scalar") for s in scalars)
        return cls(domain, preds, scals, seed)

    @functools.cached_property
    def lattice(self) -> Lattice:
        """The predicates and scalars over one common integer denominator."""
        return Lattice.of(self.predicates, self.scalars)

    def value_tuples(self) -> list:
        return list(self.predicates)

    def meets_minimum(self) -> bool:
        have = set(self.lattice.preds)
        return all(p in have for p in self._core(len(self.domain), 0, self.lattice.one))


# ---------------------------------------------------------------------------
# The transformer checks of the law table

# condition name -> structure class; every class is also a condition
_CLASSES = {cls.condition: cls for cls in STRUCTURE_CLASSES.values()}
CONDITIONS = tuple(_CLASSES) + ("finitary",)

# transformer law id -> law, definedness laws included
_LAW_OF_ID = {
    law_id if law is laws[-1] else f"{law_id}_defined": law
    for cls in STRUCTURE_CLASSES.values()
    for laws, law_id in cls.groups
    for law in laws
}


def _replay_boolean(subject, args):
    law = _LAW_OF_ID[args["law"]]
    f = args.get("f", 0 if law.shape == "bottom" else len(subject.table) - 1)
    return MASK_SIDES[law.name](subject.table, (1 << len(subject.target)) - 1, f, args.get("g", 0))


def _replay_rational(subject, args):
    law = _LAW_OF_ID[args["law"]]
    check = LawCheck(subject.apply_values, len(subject.target))
    lhs, rhs = check.sides(law, tuple(args[k] for k in arg_names(law.shape, "p", "q")))
    return lhs[args["x"]], rhs[args["x"]]


register_law("transformer.boolean", _replay_boolean)
register_law("transformer.rational", _replay_rational)


def _dense_verdict(phi, cls: StructureClass) -> Verdict:
    """Exact check over every predicate (pair) of a dense table."""
    if not isinstance(phi, BooleanTransformer):
        raise TypeError("this condition needs a dense Boolean transformer")
    found, checked = check_dense(phi.table, (1 << len(phi.target)) - 1, cls)
    if found is None:
        return Verdict.healthy(checked)
    law, law_id, f, g, lhs, rhs = found
    named = {"law": law_id} if law.shape in ("bottom", "top") else {"law": law_id, "f": f, "g": g}
    return Verdict.unhealthy(Witness("transformer.boolean", named, lhs, rhs), checked)


def _grid_verdict(phi, grid, cls: StructureClass) -> Verdict:
    """Check every law over the grid.  Each law instance counts once per
    output coordinate, and a violated law that is not a constant law counts
    its coordinates once more."""
    if not isinstance(phi, RationalTransformer):
        raise TypeError("rational conditions need a rational transformer")
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    if grid.domain.elements != phi.source.elements:
        raise ValueError("grid domain does not match the transformer source")
    if not grid.meets_minimum():
        return Verdict.inconclusive("grid below the minimum invariant (diracs/constants/core sums)")
    n = len(phi.target)
    check = LawCheck(
        phi.apply_values, n, grid.predicates, grid.scalars, len(phi.source), grid.lattice, phi.rows
    )
    try:
        for laws, law_id in cls.groups:
            found = check.first_violation(laws, n * len(laws))
            if found is not None:
                law, args, lhs, rhs, x = found
                if law.shape not in ("bottom", "top"):
                    check.checked += n
                law_id = law_id if law is laws[-1] else f"{law_id}_defined"
                named = {**dict(zip(arg_names(law.shape, "p", "q"), args)), "law": law_id, "x": x}
                witness = Witness("transformer.rational", named, lhs, rhs)
                return Verdict.unhealthy(witness, check.checked)
    except MissingProbeError as exc:
        note = f"probe table lacks a required evaluation point: {exc}"
        return Verdict.inconclusive(note, check.checked)
    return Verdict.healthy(check.checked)


def check_join_preserving(phi) -> Verdict:
    """Healthy iff phi preserves the empty and all binary joins."""
    return _dense_verdict(phi, STRUCTURE_CLASSES["cl_join"])


def check_meet_preserving(phi) -> Verdict:
    """Healthy iff phi preserves the top predicate and all binary meets."""
    return _dense_verdict(phi, STRUCTURE_CLASSES["cl_meet"])


def check_monotone(phi) -> Verdict:
    """Healthy iff f <= g pointwise implies phi(f) <= phi(g)."""
    return _dense_verdict(phi, STRUCTURE_CLASSES["pos"])


def check_strict_nonempty_meets(phi) -> Verdict:
    """Healthy iff phi(0) = 0 and phi preserves binary (hence nonempty) meets;
    top preservation is deliberately not required."""
    return _dense_verdict(phi, STRUCTURE_CLASSES["strict_cl_meet"])


def check_gemod_morphism(phi, grid: ProbeGrid = None, variant: str = "total") -> Verdict:
    """Generalized-effect-module morphism laws over the grid.

    ``total``: zero, partial sums and scalar multiplication are preserved.
    ``partial``: the dual structure (zero is 1, sum is x+y-1, scalar is
    r*x + (1-r)).
    """
    if variant not in ("total", "partial"):
        raise ValueError("variant must be 'total' or 'partial'")
    cls = STRUCTURE_CLASSES["gemod" if variant == "total" else "gemod_dual"]
    return _grid_verdict(phi, grid, cls)


def check_emod_morphism(phi, grid: ProbeGrid = None) -> Verdict:
    """Effect-module morphism: the total laws plus preservation of 1."""
    return _grid_verdict(phi, grid, STRUCTURE_CLASSES["emod"])


def check_regular_sublinear(phi, grid: ProbeGrid = None) -> Verdict:
    """Regular-sublinear laws: subadditivity (with definedness), exact
    scaling, and exact translation by scalar multiples of 1."""
    return _grid_verdict(phi, grid, STRUCTURE_CLASSES["emod_sublinear"])


# ---------------------------------------------------------------------------
# Finitary support


def finitary_support(phi, x, grid: ProbeGrid = None) -> frozenset:
    """The coordinates of the postcondition that the output at x depends on.

    Dense Boolean tables get the exact minimal support: a coordinate is
    relevant iff toggling it changes the output bit somewhere, and the
    factorization through the relevant coordinates is then verified
    outright.  Rational transformers report coordinate dependency (via
    the defining arrow when present, else by grid probing).
    """
    if isinstance(phi, BooleanTransformer):
        xi = phi.target.index(x)
        n = len(phi.source)
        relevant = set()
        for j in range(n):
            bit = 1 << j
            for m in range(1 << n):
                if (phi.table[m] >> xi) & 1 != (phi.table[m ^ bit] >> xi) & 1:
                    relevant.add(j)
                    break
        support_mask = 0
        for j in relevant:
            support_mask |= 1 << j
        groups: dict = {}
        for m in range(1 << n):
            key = m & support_mask
            bit = (phi.table[m] >> xi) & 1
            if groups.setdefault(key, bit) != bit:
                raise AssertionError("toggle support failed factorization")
        return frozenset(phi.source.elements[j] for j in sorted(relevant))

    if phi.arrow is not None:
        return support(phi.arrow.kind, phi.arrow.row(x))
    grid = grid if grid is not None else ProbeGrid.default(phi.source)
    xi = phi.target.index(x)
    relevant = set()
    for j, y in enumerate(phi.source.elements):
        for p in grid.predicates:
            if p[j] == ZERO:
                continue
            dropped = tuple(ZERO if k == j else v for k, v in enumerate(p))
            if phi.apply_values(p)[xi] != phi.apply_values(dropped)[xi]:
                relevant.add(y)
                break
    return frozenset(relevant)


def finitary_report(phi, grid: ProbeGrid = None) -> Verdict:
    """Per-coordinate support report; always conclusive at finite scale."""
    supports = {}
    for x in phi.target.elements:
        supports[x] = sorted(finitary_support(phi, x, grid), key=phi.source.index)
    note = "; ".join(f"{x} <- {{{', '.join(map(str, ys))}}}" for x, ys in supports.items())
    return Verdict.healthy(len(supports), note=f"supports: {note}")


def run_condition(name: str, phi, grid: ProbeGrid = None) -> Verdict:
    if name == "finitary":
        return finitary_report(phi, grid)
    cls = _CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown condition {name!r}; choose from {'|'.join(sorted(CONDITIONS))}")
    if cls.carrier == BOOLEAN:
        return _dense_verdict(phi, cls)
    # the grid checkers are looked up when called, so wrappers around them see every check
    if cls.tag == "emod":
        return check_emod_morphism(phi, grid)
    if cls.tag == "emod_sublinear":
        return check_regular_sublinear(phi, grid)
    return check_gemod_morphism(phi, grid, "total" if cls.tag == "gemod" else "partial")
