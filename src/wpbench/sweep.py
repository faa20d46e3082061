"""Theorem-level brute-force equivalence sweeps.

Each instance realizes one healthiness equivalence as a finite check:
the set of transformers passing the intrinsic condition must coincide
with the image of the semantics over all computations.  The Boolean
sweeps find the healthy set by an exact search compiled from the law
table: the dense tables are built one entry at a time, an entry that an
`=` law instance fixes from the entries bound before it is set rather
than tried, and a partial table that violates a law instance is cut off,
so the 16.7M tables of a 3x3 sweep are decided without visiting them one
by one.  The image side evaluates every computation through the Boolean
closed forms of ``semantics`` (mask bases).  Every healthy may/must
table must also synthesize back to its computation, and at most 2^16
tables the two sets are compared outright.

Rational instances are sampled: every sampled computation must produce a
transformer that passes its grid check, and independently constructed
law-respecting transformers must synthesize back to computations with
exact re-evaluation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from random import Random

from .core import FinSet, SizeGuardError, count_transformers
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
from .monads import MonadKind, enumerate_arrows, random_arrow
from .semantics import MASK_BASES, BooleanTransformer, RationalTransformer, mask_table, pt_modality
from .synthesis import UnhealthyInputError, roundtrip_verify, synth_polytope, synthesize
from .verdicts import Witness, register_law

__all__ = ["TheoremInstance", "SweepReport", "enum_verify", "healthy_tables", "THEOREM_IDS"]

ZERO = Fraction(0)
ONE = Fraction(1)

THEOREM_IDS = tuple(INSTANCES)


@dataclass(frozen=True)
class TheoremInstance:
    theorem: str
    sizes: tuple
    mode: str = "exhaustive"  # or "sampled"
    seed: int = 0
    count: int = 200

    def __post_init__(self):
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem {self.theorem!r}; ids: {', '.join(THEOREM_IDS)}")


@dataclass
class SweepReport:
    theorem: str
    sizes: tuple
    mode: str
    counts: dict
    equal: bool
    witness: Witness | None = None
    elapsed: float = 0.0
    notes: tuple = ()

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
        for n in self.notes:
            lines.append(f"note: {n}")
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


def _synth_table(law: str, table: tuple, nx: int, ny: int) -> tuple:
    """Row masks read off the probe predicates, as the inverse formulas say."""
    if law == "join":
        rows = []
        for i in range(nx):
            m = 0
            for j in range(ny):
                if (table[1 << j] >> i) & 1:
                    m |= 1 << j
            rows.append(m)
        return tuple(rows)
    full = (1 << ny) - 1
    rows = []
    for i in range(nx):
        m = 0
        for j in range(ny):
            if not (table[full ^ (1 << j)] >> i) & 1:
                m |= 1 << j
        rows.append(m)
    return tuple(rows)


def _rebuild(theorem: str, rows: tuple, ny: int) -> tuple:
    """The dense table of a relation given by row masks."""
    basis = MASK_BASES[theorem]
    return mask_table([basis(r, int) for r in rows], ny)


def _sweep_relation(mod: Modality, nx: int, ny: int, max_enum: int) -> dict:
    total = count_transformers(_carrier("y", ny), _carrier("x", nx))
    if total > max_enum:
        raise SizeGuardError(
            f"{total} transformers exceed the guard ({max_enum}); raise --max-enum to force"
        )
    law, n_preds = mod.condition, 1 << ny
    rebuild = lambda rows: _rebuild(mod.theorem, rows, ny)
    healthy = healthy_tables(STRUCTURE_CLASSES[mod.structure_class], nx, ny)
    witness = None
    for table in healthy:
        rows = _synth_table(law, table, nx, ny)
        if rebuild(rows) != table:
            witness = Witness(
                "sweep.synthesis",
                {"law": law, "table": table, "rows": rows},
                rebuild(rows),
                table,
            )
            break

    # image side: every computation's transformer must pass the law check
    healthy_set = set(healthy)
    image = set()
    for rows in itertools.product(range(n_preds), repeat=nx):
        table = rebuild(rows)
        image.add(table)
        if witness is None and table not in healthy_set:
            witness = Witness(
                "sweep.image_health",
                {"law": law, "rows": rows, "table": table},
                "unhealthy",
                "healthy",
            )
    injective = len(image) == n_preds**nx

    counts = {
        "transformers": total,
        "healthy": len(healthy),
        "computations": n_preds**nx,
        "image": len(image),
        "wp_injective": "yes" if injective else "no",
    }
    if total <= (1 << 16):
        counts["set_equality"] = "checked"
        if healthy_set != image and witness is None:
            diff = sorted(healthy_set ^ image)[0]
            witness = Witness(
                "sweep.set_equality",
                {"law": law, "table": diff},
                diff in healthy_set,
                diff in image,
            )
    equal = witness is None and len(healthy) == len(image)
    if witness is None and len(healthy) != len(image):
        witness = Witness("sweep.count", {"law": law}, len(healthy), len(image))
    return {"counts": counts, "equal": equal, "witness": witness}


def _sweep_alternating(mod: Modality, nx: int, ny: int, max_enum: int) -> dict:
    """Exhaustive Boolean sweep for the game/dijkstra instances."""
    X, Y = _carrier("x", nx), _carrier("y", ny)
    total = count_transformers(Y, X, max_enum)
    healthy_set = set(healthy_tables(STRUCTURE_CLASSES[mod.structure_class], nx, ny))
    witness = None
    image = set()
    n_arrows = 0
    for arrow in enumerate_arrows(mod.monad, X, Y, max_enum):
        n_arrows += 1
        phi = pt_modality(mod, arrow)
        image.add(phi.table)
        if witness is None and phi.table not in healthy_set:
            witness = Witness(
                "sweep.image_health",
                {"theorem": mod.theorem, "arrow": repr(arrow), "table": phi.table},
                "unhealthy",
                "healthy",
            )
    missing = healthy_set - image
    if witness is None and missing:
        table = sorted(missing)[0]
        witness = Witness(
            "sweep.realizability",
            {"theorem": mod.theorem, "table": table},
            "unrealized",
            "realized",
        )
    counts = {
        "transformers": total,
        "healthy": len(healthy_set),
        "computations": n_arrows,
        "image": len(image),
        "set_equality": "checked",
    }
    return {"counts": counts, "equal": witness is None, "witness": witness}


# Replay of the Boolean sweep witnesses; the subject is the TheoremInstance.


def _replay_synthesis(subject, args):
    nx, ny = subject.sizes
    return _rebuild(subject.theorem, args["rows"], ny), args["table"]


def _healthy(subject, table: tuple) -> bool:
    mod = INSTANCES[subject.theorem]
    found, _ = check_dense(table, (1 << subject.sizes[0]) - 1, STRUCTURE_CLASSES[mod.structure_class])
    return found is None


def _realized(subject, table: tuple) -> bool:
    """Image membership, decided through the inverse synthesis: a healthy
    table is in the image iff the computation synthesized from it
    re-evaluates to it.  The synthesis refuses an unhealthy table, which no
    computation realizes (the image side of every sweep checks that)."""
    nx, ny = subject.sizes
    phi = BooleanTransformer(_carrier("y", ny), _carrier("x", nx), table)
    try:
        return synthesize(INSTANCES[subject.theorem], phi).ok
    except UnhealthyInputError:
        return False


def _replay_image_health(subject, args):
    if "table" not in args:
        raise ValueError("a sampled image-health witness records no table to replay")
    return "healthy" if _healthy(subject, args["table"]) else "unhealthy", "healthy"


def _replay_set_equality(subject, args):
    return _healthy(subject, args["table"]), _realized(subject, args["table"])


def _replay_realizability(subject, args):
    table = args["table"]
    if not _healthy(subject, table):
        return "unhealthy", "realized"
    return "realized" if _realized(subject, table) else "unrealized", "realized"


register_law("sweep.synthesis", _replay_synthesis)
register_law("sweep.image_health", _replay_image_health)
register_law("sweep.set_equality", _replay_set_equality)
register_law("sweep.realizability", _replay_realizability)


def _random_coefficient_transformer(
    theorem: str, rng: Random, X: FinSet, Y: FinSet
) -> RationalTransformer:
    """A law-respecting transformer built directly from coefficients
    (not via any arrow): the independent construction for the
    healthy-side sampling."""
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
    offset = []
    for i in range(k):
        mass = sum(rows[i], ZERO)
        offset.append(ONE - mass if theorem == "subdist_partial" else ZERO)

    def fn(values):
        return tuple(
            sum((c * v for c, v in zip(rows[i], values)), offset[i]) for i in range(k)
        )

    return RationalTransformer(Y, X, fn, label=f"coef[{theorem}]")


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
        if mod.monad == MonadKind.CV_DIST:
            rt = synth_polytope(phi, grid).residual
        else:
            rt = roundtrip_verify(arrow, theorem, grid)
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


def enum_verify(
    instance: TheoremInstance, max_enum: int = 1 << 28, jobs: int = 1
) -> SweepReport:
    """Run one theorem sweep; see the module docstring for the method.
    ``jobs`` is accepted for compatibility and has no effect: every sweep
    runs in this process."""
    t0 = time.perf_counter()
    nx, ny = instance.sizes
    mod = INSTANCES[instance.theorem]
    if mod.carrier == BOOLEAN and instance.mode != "exhaustive":
        raise ValueError(f"{instance.theorem} sweeps are exhaustive")
    if mod.theorem in ("may", "must"):
        out = _sweep_relation(mod, nx, ny, max_enum)
    elif mod.carrier == BOOLEAN:
        out = _sweep_alternating(mod, nx, ny, max_enum)
    else:
        out = _sweep_sampled(instance.theorem, nx, ny, instance.seed, instance.count)
    elapsed = time.perf_counter() - t0
    return SweepReport(
        theorem=instance.theorem,
        sizes=instance.sizes,
        mode=instance.mode,
        counts=out["counts"],
        equal=out["equal"],
        witness=out["witness"],
        elapsed=elapsed,
    )
