"""Theorem-level brute-force equivalence sweeps.

Each instance realizes one healthiness equivalence as a finite check:
the set of transformers passing the intrinsic condition must coincide
with the image of the semantics over all computations.

The four Boolean theorems are decided per state.  Omega^X is the X-fold
product of Omega, and every Boolean law acts on each output bit on its
own, so at nx x ny the healthy tables and the image are the nx-fold
products of their 1 x ny sets, and the theorem holds there iff it holds
at 1 x ny.  The healthy functionals 2^Y -> 2 come from an exact search
compiled from the law table: the table is built one entry at a time, an
entry that an `=` law instance fixes from the entries bound before it is
set rather than tried, and a partial table that violates a law instance
is cut off.  The image evaluates every T-value over Y through the Boolean
closed forms of ``semantics`` (mask bases).  Every image point must be
healthy, and every healthy functional must be an image point that the
inverse synthesis rebuilds.  That synthesis runs once: the H healthy
functionals are stacked as the H states of one transformer, and since
the guard, the reader, the mask kernel and the residual act on each
state's bit on its own, the stack synthesizes back iff every functional
does.  Only a failed stack is synthesized again one functional at a
time, to name the first unrealized one.  The report gives the nx x ny
counts as powers of the per-state counts.

Rational instances are sampled: every sampled computation must produce a
transformer that passes its grid check, and independently constructed
law-respecting transformers must synthesize back to computations with
exact re-evaluation.  A witness on a sampled computation records its
index, and its replay redraws it from the instance's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from random import Random

from .core import FinSet, count_transformers
from .healthiness import ProbeGrid, run_condition
from .modalities import (
    BOOLEAN,
    INSTANCES,
    MASK_SIDES,
    STRUCTURE_CLASSES,
    Modality,
    StructureClass,
    check_dense,
    dense_instances,
    mask_term,
    term_entry,
)
from .monads import IntegerRows, MonadKind, enumerate_arrows, has_tvalues, random_arrow
from .semantics import BooleanTransformer, RationalTransformer, pt_modality
from .synthesis import UnhealthyInputError, roundtrip_verify, synth_polytope, synthesize
from .verdicts import Verdict, Witness, register_law

__all__ = ["TheoremInstance", "SweepReport", "enum_verify", "healthy_tables", "THEOREM_IDS"]

ZERO = Fraction(0)
ONE = Fraction(1)

THEOREM_IDS = tuple(INSTANCES)


@dataclass(frozen=True)
class TheoremInstance:
    """One theorem sweep at sizes (nx, ny).  The catalog row decides the
    mode: Boolean theorems are decided exhaustively, rational ones on
    ``count`` computations drawn with ``seed``."""

    theorem: str
    sizes: tuple
    seed: int = 0
    count: int = 200

    def __post_init__(self):
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem {self.theorem!r}; ids: {', '.join(THEOREM_IDS)}")
        sizes = self.sizes
        shaped = isinstance(sizes, (tuple, list)) and len(sizes) == 2
        # type(n) is int: a bool, or a float such as 2.0, is no size
        if not (shaped and all(type(n) is int and n >= 0 for n in sizes)):
            raise ValueError(f"sizes must be two nonnegative integers, got {sizes!r}")
        monad = INSTANCES[self.theorem].monad
        if sizes[0] and not has_tvalues(monad, _carrier("y", sizes[1])):
            raise ValueError(
                f"no computation to sample: the arrow space X -> {monad.value}(Y) "
                f"is empty at |X| = {sizes[0]}, |Y| = {sizes[1]}"
            )


@dataclass
class SweepReport:
    theorem: str
    sizes: tuple
    mode: str
    counts: dict
    equal: bool
    witness: Witness | None = None
    elapsed: float = 0.0

    def render(self, include_timing: bool = False) -> str:
        lines = [
            f"theorem: {self.theorem}",
            f"sizes: {self.sizes[0]} {self.sizes[1]}",
            f"mode: {self.mode}",
        ]
        for k, v in self.counts.items():
            lines.append(f"{k}: {v}")
        lines.append(f"equivalence: {'holds' if self.equal else 'FAILS'}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness.describe()}")
        if include_timing:
            lines.append(f"wall_time_s: {self.elapsed:.3f}")
        return "\n".join(lines) + "\n"


def _carrier(prefix: str, n: int) -> FinSet:
    return FinSet(prefix.upper(), tuple(f"{prefix}{i}" for i in range(n)))


# ---------------------------------------------------------------------------
# The Boolean sweeps.  The healthy side is an exact search compiled from the
# law table.  The entries are bound in an order where an entry produced by a
# law's operation comes after the operation's arguments: ascending for join,
# descending for meet.  Every instance that check_dense tests on a dense table
# is attached to the last entry it reads and tested as soon as that entry is
# bound, so a failed instance cuts off every extension.  An entry that an `=`
# instance equates with a side reading only earlier entries is not tried at
# every value but set from that side.


class _Reads(list):
    """A dense table that records the indices read from it."""

    def __getitem__(self, k):
        self.append(k)
        return 0


def _reads(side, top: int, f: int, g: int) -> list:
    reads = _Reads()
    side(reads, top, f, g)
    return reads


def _forcing(law, f: int, g: int, top: int, pos: dict):
    """(k, side) when the `=` instance of the law at f and g equates the
    entry T[k] with a side reading only entries bound before k, else None."""
    if law.rel != "=":
        return None
    for exact, other in ((law.lhs, law.rhs), (law.rhs, law.lhs)):
        k, side = term_entry(exact, f, g), mask_term(other)
        if k is not None and all(pos[j] < pos[k] for j in _reads(side, top, f, g)):
            return k, side
    return None


def healthy_tables(cls: StructureClass, nx: int, ny: int) -> list:
    """Every dense table 2^ny -> 2^nx that check_dense passes for the class,
    in the stream order of core.enumerate_transformer_tables."""
    size, top = 1 << ny, (1 << nx) - 1
    instances = list(dense_instances(cls, size))
    below = any(
        term_entry(term, f, g) < max(f, g)
        for law, _, f, g in instances
        for term in (law.lhs, law.rhs)
        if term[0] == "at"
    )
    order = list(range(size - 1, -1, -1) if below else range(size))
    pos = {k: i for i, k in enumerate(order)}
    # by binding position: the instances due there, and the (side, f, g)
    # setting the entry; a forcing instance holds by construction
    due = [[] for _ in order]
    forced = [None] * size
    for law, _, f, g in instances:
        forcing = _forcing(law, f, g, top, pos)
        if forcing is not None and forced[pos[forcing[0]]] is None:
            k, side = forcing
            forced[pos[k]] = (side, f, g)
            continue
        sides = MASK_SIDES[law.name]
        due[max((pos[k] for k in _reads(sides, top, f, g)), default=0)].append((sides, f, g))
    table, found = [0] * size, []

    def bind(at: int) -> None:
        # depth first on one table: entries bound after position `at` may
        # still hold values of an abandoned branch, and nothing due at `at`
        # reads them
        if at == size:
            found.append(tuple(table))
            return
        k, checks, force = order[at], due[at], forced[at]
        if force is None:
            values = range(top + 1)
        else:
            side, f, g = force
            values = (side(table, top, f, g),)
        for v in values:
            table[k] = v
            if all(eq(*sides(table, top, f, g)) for sides, f, g in checks):
                bind(at + 1)

    bind(0)
    return sorted(found, key=lambda t: t[::-1])


def _realized(mod: Modality, X: FinSet, Y: FinSet, table: tuple) -> bool:
    """Image membership, decided through the inverse synthesis: a healthy
    table is in the image iff the computation synthesized from it
    re-evaluates to it.  The synthesis refuses an unhealthy table, which no
    computation realizes (the image side of every sweep checks that)."""
    try:
        return synthesize(mod, BooleanTransformer(Y, X, table)).ok
    except UnhealthyInputError:
        return False


def _all_realized(mod: Modality, Y: FinSet, healthy: list) -> bool:
    """Whether every healthy 1 x ny table is realized, decided by one
    synthesis: the tables are stacked as the states of one transformer
    (bit i of entry m is healthy[i][m]).  The guard's laws, the reader, the
    mask kernel and the residual all act on each state's bit on its own, so
    the stack synthesizes back iff every table does."""
    if not healthy:
        return True
    table = [0] * (1 << len(Y))
    for i, t in enumerate(healthy):
        for m, v in enumerate(t):
            table[m] |= v << i
    return _realized(mod, _carrier("x", len(healthy)), Y, table)


def _sweep_boolean(mod: Modality, nx: int, ny: int, max_enum: int) -> dict:
    """Decide a Boolean theorem at 1 x ny (see the module docstring): every
    T-value's functional must be healthy, and every healthy functional must
    be in the image and synthesize back.  The counts are nx-th powers, and a
    per-state witness is lifted to a full table whose other states hold the
    first healthy functional."""
    X1, Y = _carrier("x", 1), _carrier("y", ny)
    total = count_transformers(Y, _carrier("x", nx), max_enum)
    healthy = healthy_tables(STRUCTURE_CLASSES[mod.structure_class], 1, ny)
    arrows = list(enumerate_arrows(mod.monad, X1, Y, max_enum))
    tables = [pt_modality(mod, arrow).table for arrow in arrows]
    healthy_set, image = set(healthy), set(tables)
    found = next(
        (("sweep.image_health", t, "unhealthy", "healthy") for t in tables if t not in healthy_set),
        None,
    )
    # one stacked synthesis decides that every healthy functional is
    # realized; the per-table loop runs only to pick the first witness
    if found is None and not (image >= healthy_set and _all_realized(mod, Y, healthy)):
        found = next(
            (
                ("sweep.realizability", t, "unrealized", "realized")
                for t in healthy
                if t not in image or not _realized(mod, X1, Y, t)
            ),
            None,
        )
    witness = None
    if found and nx:  # with no state, both sides are the one empty table
        law, point, lhs, rhs = found
        fill = healthy[0] if healthy else point
        table = tuple(p | ((1 << nx) - 2) * f for p, f in zip(point, fill))
        witness = Witness(law, {"theorem": mod.theorem, "table": table}, lhs, rhs)
    counts = {
        "transformers": total,
        "healthy": len(healthy) ** nx,
        "computations": len(arrows) ** nx,
        "image": len(image) ** nx,
    }
    # the may/must reports also print these lines
    if mod.monad == MonadKind.POWERSET:
        counts["wp_injective"] = "yes" if counts["image"] == counts["computations"] else "no"
    if mod.monad != MonadKind.POWERSET or total <= 1 << 16:
        counts["set_equality"] = "checked"
    return {"counts": counts, "equal": witness is None, "witness": witness}


# Replay of the Boolean sweep witnesses; the subject is the TheoremInstance.


def _healthy(subject, table: tuple) -> bool:
    mod = INSTANCES[subject.theorem]
    found, _ = check_dense(table, (1 << subject.sizes[0]) - 1, STRUCTURE_CLASSES[mod.structure_class])
    return found is None


def _replay_image_health(subject, args):
    if "sample" in args:
        mod, arrow, grid = _redraw(subject, args["sample"])
        return run_condition(mod.condition, pt_modality(mod, arrow), grid).status, "healthy"
    return "healthy" if _healthy(subject, args["table"]) else "unhealthy", "healthy"


def _replay_realizability(subject, args):
    table = args["table"]
    if not _healthy(subject, table):
        return "unhealthy", "realized"
    nx, ny = subject.sizes
    mod = INSTANCES[subject.theorem]
    realized = _realized(mod, _carrier("x", nx), _carrier("y", ny), table)
    return "realized" if realized else "unrealized", "realized"


def _replay_roundtrip(subject, args):
    mod, arrow, grid = _redraw(subject, args["sample"])
    return _roundtrip(mod, arrow, pt_modality(mod, arrow), grid).status, "healthy"


register_law("sweep.image_health", _replay_image_health)
register_law("sweep.realizability", _replay_realizability)
register_law("sweep.roundtrip", _replay_roundtrip)


def _random_coefficient_transformer(
    theorem: str, rng: Random, X: FinSet, Y: FinSet
) -> RationalTransformer:
    """A law-respecting transformer built directly from coefficients
    (not via any arrow): the independent construction for the
    healthy-side sampling.  It is a closed form, an offset plus a row of
    coefficients per state, so its checks run on the integer lattice."""
    n, k = len(Y), len(X)
    dist_like = theorem == "dist_convex"
    rows = []
    for _ in range(k):
        den = rng.choice((2, 3, 4, 6, 8))
        weights = []
        remaining = den
        for j in range(n):
            w = remaining if (dist_like and j == n - 1) else rng.randint(0, remaining)
            weights.append(Fraction(w, den))
            remaining -= w
        rng.shuffle(weights)
        rows.append(tuple(weights))
    partial = theorem == "subdist_partial"
    fn = IntegerRows([[(ONE - sum(row, ZERO) if partial else ZERO, row)] for row in rows], n)
    return RationalTransformer(Y, X, fn, label=f"coef[{theorem}]")


def _roundtrip(mod: Modality, arrow, phi: RationalTransformer, grid: ProbeGrid) -> Verdict:
    """The round trip of one sampled computation: a polytope is synthesized
    from phi, and any other arrow must come back from pt(arrow)."""
    if mod.monad == MonadKind.CV_DIST:
        return synth_polytope(phi, grid).residual
    return roundtrip_verify(arrow, mod.theorem, grid)


def _redraw(subject: TheoremInstance, i: int) -> tuple:
    """The modality, the i-th computation and the grid of the sampled sweep
    of the subject: in the sweep's first loop only random_arrow draws from
    the rng."""
    mod = INSTANCES[subject.theorem]
    nx, ny = subject.sizes
    X, Y = _carrier("x", nx), _carrier("y", ny)
    rng = Random(subject.seed)
    for _ in range(i + 1):
        arrow = random_arrow(mod.monad, rng, X, Y)
    return mod, arrow, ProbeGrid.default(Y, seed=subject.seed)


def _sweep_sampled(theorem: str, nx: int, ny: int, seed: int, count: int) -> dict:
    mod = INSTANCES[theorem]
    X, Y = _carrier("x", nx), _carrier("y", ny)
    rng = Random(seed)
    grid = ProbeGrid.default(Y, seed=seed)
    witness = None
    healthy_images = 0
    roundtrips = 0
    for i in range(count):
        arrow = random_arrow(mod.monad, rng, X, Y)
        phi = pt_modality(mod, arrow)
        verdict = run_condition(mod.condition, phi, grid)
        if not verdict.is_healthy:
            witness = witness or Witness(
                "sweep.image_health",
                {"theorem": theorem, "sample": i, "inner": verdict.witness.args if verdict.witness else {}},
                verdict.status,
                "healthy",
            )
            continue
        healthy_images += 1
        rt = _roundtrip(mod, arrow, phi, grid)
        if rt.is_healthy:
            roundtrips += 1
        elif witness is None:
            witness = Witness(
                "sweep.roundtrip", {"theorem": theorem, "sample": i}, rt.status, "healthy"
            )
    synth_side = 0
    if mod.monad != MonadKind.CV_DIST:
        for i in range(count):
            phi = _random_coefficient_transformer(theorem, rng, X, Y)
            verdict = run_condition(mod.condition, phi, grid)
            if not verdict.is_healthy:
                if witness is None:
                    witness = Witness(
                        "sweep.constructed_health",
                        {"theorem": theorem, "sample": i},
                        verdict.status,
                        "healthy",
                    )
                continue
            result = synthesize(mod, phi, grid)
            if result.residual.is_healthy:
                synth_side += 1
            elif witness is None:
                witness = Witness(
                    "sweep.constructed_synth",
                    {"theorem": theorem, "sample": i},
                    result.residual.status,
                    "healthy",
                )
    counts = {
        "samples": count,
        "healthy_images": healthy_images,
        "roundtrips_exact": roundtrips,
        "constructed_synthesized": synth_side,
    }
    equal = witness is None and healthy_images == count and roundtrips == count
    return {"counts": counts, "equal": equal, "witness": witness}


def enum_verify(instance: TheoremInstance, max_enum: int = 1 << 28) -> SweepReport:
    """Run one theorem sweep; see the module docstring for the method."""
    t0 = time.perf_counter()
    nx, ny = instance.sizes
    mod = INSTANCES[instance.theorem]
    if mod.carrier == BOOLEAN:
        mode, out = "exhaustive", _sweep_boolean(mod, nx, ny, max_enum)
    else:
        mode, out = "sampled", _sweep_sampled(instance.theorem, nx, ny, instance.seed, instance.count)
    elapsed = time.perf_counter() - t0
    return SweepReport(
        theorem=instance.theorem,
        sizes=instance.sizes,
        mode=mode,
        counts=out["counts"],
        equal=out["equal"],
        witness=out["witness"],
        elapsed=elapsed,
    )
