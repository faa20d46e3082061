"""Theorem-level brute-force equivalence sweeps.

Each instance realizes one healthiness equivalence as a finite check:
the set of transformers passing the intrinsic condition must coincide
with the image of the semantics over all computations.  Small Boolean
sizes materialize both sets and compare them; the 3x3 may/must sweeps
stream all 16.7M dense tables through a code-generated law check and
certify the two inclusions without materializing anything.

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
from random import Random

from .core import FinSet, SizeGuardError, count_transformers, enumerate_transformer_tables
from .healthiness import ProbeGrid, run_condition
from .modalities import BOOLEAN, INSTANCES
from .monads import MonadKind, enumerate_arrows, random_arrow
from .semantics import (
    BooleanTransformer,
    RationalTransformer,
    pt_modality,
    table_wp_box,
    table_wp_diamond,
)
from .synthesis import roundtrip_verify, synth_polytope, synthesize
from .verdicts import Witness

__all__ = ["TheoremInstance", "SweepReport", "enum_verify", "THEOREM_IDS"]

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
# Code-generated streaming law checks for the may/must sweeps.
#
# A dense table over Y->X is streamed as a reversed tuple T (the last
# component is the entry for predicate 0).  Join preservation is
# equivalent to: entry(0) = 0 and every non-singleton entry equals the
# union of its singleton generators; meet preservation dually with
# co-singletons.  These are exactly the binary-generation laws of the
# dense checkers, inlined for speed.


def _law_terms(law: str, nx: int, ny: int) -> list:
    n_preds = 1 << ny
    base = 1 << nx
    pos = lambda k: n_preds - 1 - k
    terms = []
    if law == "join":
        terms.append(f"T[{pos(0)}] == 0")
        for m in range(1, n_preds):
            if m & (m - 1):
                gens = "|".join(f"T[{pos(1 << j)}]" for j in range(ny) if (m >> j) & 1)
                terms.append(f"T[{pos(m)}] == {gens}")
    elif law == "meet":
        full = n_preds - 1
        terms.append(f"T[{pos(full)}] == {base - 1}")
        for m in range(n_preds - 1):
            missing = [j for j in range(ny) if not (m >> j) & 1]
            if len(missing) >= 2:
                gens = "&".join(f"T[{pos(full ^ (1 << j))}]" for j in missing)
                terms.append(f"T[{pos(m)}] == {gens}")
    else:
        raise ValueError(law)
    return terms


def _make_scanner(law: str, nx: int, ny: int):
    cond = " and ".join(_law_terms(law, nx, ny)) or "True"
    src = f"def _scan(stream):\n    for T in stream:\n        if {cond}:\n            yield T\n"
    ns: dict = {}
    exec(src, ns)  # self-generated source, no external input
    return ns["_scan"]


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


def _scan_chunk(law: str, nx: int, ny: int, lead_digits):
    """Stream one chunk (fixed leading digit) of the transformer space;
    verify synthesis for each law-passing table.  Returns
    (checked, healthy, first_witness)."""
    n_preds = 1 << ny
    base = 1 << nx
    scanner = _make_scanner(law, nx, ny)
    rebuild = table_wp_diamond if law == "join" else table_wp_box
    checked = 0
    healthy = 0
    witness = None
    for d in lead_digits:
        if n_preds == 1:
            stream = iter([(d,)])
            chunk_size = 1
        else:
            stream = ((d,) + rest for rest in itertools.product(range(base), repeat=n_preds - 1))
            chunk_size = base ** (n_preds - 1)
        checked += chunk_size
        for T in scanner(stream):
            healthy += 1
            table = T[::-1]
            rows = _synth_table(law, table, nx, ny)
            if rebuild(rows, ny) != table:
                witness = Witness(
                    "sweep.synthesis",
                    {"law": law, "table": table, "rows": rows},
                    rebuild(rows, ny),
                    table,
                )
                return checked, healthy, witness
    return checked, healthy, witness


def _sweep_relation(law: str, nx: int, ny: int, max_enum: int, jobs: int) -> dict:
    total = count_transformers(_carrier("y", ny), _carrier("x", nx))
    if total > max_enum:
        raise SizeGuardError(
            f"{total} transformers exceed the guard ({max_enum}); raise --max-enum to force"
        )
    base = 1 << nx
    n_preds = 1 << ny
    lead_values = list(range(base)) if n_preds > 1 else [0]

    if jobs > 1 and len(lead_values) > 1:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        chunks = [(law, nx, ny, [d]) for d in lead_values]
        with ctx.Pool(min(jobs, len(chunks))) as pool:
            results = pool.starmap(_scan_chunk, chunks)
        checked = sum(r[0] for r in results)
        healthy = sum(r[1] for r in results)
        witness = next((r[2] for r in results if r[2] is not None), None)
    else:
        checked, healthy, witness = _scan_chunk(law, nx, ny, lead_values)

    # image side: every computation's transformer must pass the law check
    rebuild = table_wp_diamond if law == "join" else table_wp_box
    scanner = _make_scanner(law, nx, ny)
    image = set()
    for rows in itertools.product(range(n_preds), repeat=nx):
        table = rebuild(rows, ny)
        image.add(table)
        if witness is None and not any(True for _ in scanner(iter([table[::-1]]))):
            witness = Witness(
                "sweep.image_health",
                {"law": law, "rows": rows, "table": table},
                "unhealthy",
                "healthy",
            )
    injective = len(image) == n_preds**nx

    counts = {
        "transformers": checked,
        "healthy": healthy,
        "computations": n_preds**nx,
        "image": len(image),
        "wp_injective": "yes" if injective else "no",
    }
    if total <= (1 << 16):
        s1 = set()
        for T in _make_scanner(law, nx, ny)(
            itertools.product(range(base), repeat=n_preds)
        ):
            s1.add(T[::-1])
        counts["set_equality"] = "checked"
        if s1 != image and witness is None:
            diff = sorted(s1 ^ image)[0]
            witness = Witness(
                "sweep.set_equality", {"law": law, "table": diff}, diff in s1, diff in image
            )
    equal = witness is None and healthy == len(image)
    if witness is None and healthy != len(image):
        witness = Witness(
            "sweep.count", {"law": law}, healthy, len(image)
        )
    return {"counts": counts, "equal": equal, "witness": witness}


def _sweep_alternating(theorem: str, nx: int, ny: int, max_enum: int) -> dict:
    """Exhaustive Boolean sweep for the game/dijkstra instances."""
    mod = INSTANCES[theorem]
    X, Y = _carrier("x", nx), _carrier("y", ny)
    total = count_transformers(Y, X)
    healthy_set = set()
    witness = None
    for table in enumerate_transformer_tables(Y, X, max_enum):
        phi = BooleanTransformer(Y, X, table)
        verdict = run_condition(mod.condition, phi)
        if verdict.is_healthy:
            healthy_set.add(phi.table)
    image = set()
    n_arrows = 0
    for arrow in enumerate_arrows(mod.monad, X, Y, max_enum):
        n_arrows += 1
        phi = pt_modality(mod, arrow)
        image.add(phi.table)
        if witness is None and phi.table not in healthy_set:
            witness = Witness(
                "sweep.image_health",
                {"theorem": theorem, "arrow": repr(arrow), "table": phi.table},
                "unhealthy",
                "healthy",
            )
    missing = healthy_set - image
    if witness is None and missing:
        table = sorted(missing)[0]
        witness = Witness(
            "sweep.realizability", {"theorem": theorem, "table": table}, "unrealized", "realized"
        )
    counts = {
        "transformers": total,
        "healthy": len(healthy_set),
        "computations": n_arrows,
        "image": len(image),
        "set_equality": "checked",
    }
    return {"counts": counts, "equal": witness is None, "witness": witness}


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
    """Run one theorem sweep; see the module docstring for the method."""
    t0 = time.perf_counter()
    nx, ny = instance.sizes
    mod = INSTANCES[instance.theorem]
    if mod.carrier == BOOLEAN and instance.mode != "exhaustive":
        raise ValueError(f"{instance.theorem} sweeps are exhaustive")
    if mod.theorem in ("may", "must"):
        out = _sweep_relation(mod.condition, nx, ny, max_enum, jobs)
    elif mod.carrier == BOOLEAN:
        out = _sweep_alternating(instance.theorem, nx, ny, max_enum)
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
