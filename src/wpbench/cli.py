"""Command-line front end: spec-file parsing, verdict reporting, sweeps.

The concrete syntax is JSON with rationals written as strings "p/q" and
dense truth tables keyed by predicate bitstrings in canonical order
(character j of a bitstring is the value at element j of the carrier).
Reports are deterministic for identical inputs and seeds; wall-clock
timing goes to stderr only.

Exit codes: 0 healthy/pass, 1 unhealthy (witness printed),
2 inconclusive, 64 input error, 70 internal error (a bug in wpbench,
reported with its traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from .core import FinSet, SizeGuardError, format_rational, parse_rational
from .healthiness import CONDITIONS, ProbeGrid, run_condition
from .modalities import (
    INSTANCES,
    STRUCTURE_CLASSES,
    builtin_modality,
    check_algebra_laws,
    lifting_check,
)
from .monads import (
    BOT,
    DistV,
    KleisliArrow,
    MonadKind,
    check_monad_laws,
    check_monad_map_laws,
    is_up_closed,
    sigma_prime_spec,
    sigma_spec,
    support_map_spec,
    up_closure,
)
from .semantics import (
    BooleanTransformer,
    MissingProbeError,
    RationalTransformer,
    pt_modality,
)
from .sweep import THEOREM_IDS, TheoremInstance, enum_verify
from .synthesis import UnhealthyInputError, roundtrip_verify, synthesize
from .verdicts import Verdict

__all__ = ["SpecError", "SpecDocument", "parse_spec", "run", "main"]

EXIT_HEALTHY = 0
EXIT_UNHEALTHY = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 64
EXIT_INTERNAL = 70
MAX_ENUM = 1 << 28  # the default of --max-enum


class SpecError(ValueError):
    """A parse/validation failure with a stable code and a document path."""

    def __init__(self, code: str, message: str, path: str = "$"):
        self.code = code
        self.path = path
        super().__init__(f"[{code}] at {path}: {message}")


@dataclass
class SpecDocument:
    sets: dict
    computation: KleisliArrow | None
    modality: str | None
    transformer: object | None
    probes: dict | None  # raw probe override; resolved per domain on demand
    seed: int

    def grid_for(self, domain: FinSet, max_enum: int = MAX_ENUM) -> ProbeGrid:
        """The probe grid over the domain; a document asking for more
        random probes than max_enum is refused before any is drawn."""
        if self.probes is None:
            return ProbeGrid.default(domain, seed=self.seed)
        preds = self.probes.get("predicates")
        scalars = self.probes.get("scalars")
        random_count = self.probes.get("random", 0 if preds else 50)
        if type(random_count) is not int or random_count < 0:
            raise SpecError("E_SCHEMA", "random must be a nonnegative integer", "$.probes.random")
        if random_count > max_enum:
            message = f"{random_count} random probes exceed the guard (--max-enum {max_enum})"
            raise SpecError("E_PROBE", message, "$.probes.random")
        for key, value in (("predicates", preds), ("scalars", scalars)):
            if value is not None and not isinstance(value, list):
                raise SpecError("E_SCHEMA", f"{key} must be a list", f"$.probes.{key}")
        if scalars is not None:
            scalars = [_rat(s, f"$.probes.scalars[{k}]") for k, s in enumerate(scalars)]
        if preds is None:
            return ProbeGrid.default(domain, seed=self.seed, random_count=random_count)
        tuples = []
        for k, p in enumerate(preds):
            path = f"$.probes.predicates[{k}]"
            if not isinstance(p, list):
                raise SpecError("E_SCHEMA", "each probe predicate is a list of values", path)
            tuples.append(tuple(_rat(v, f"{path}[{j}]") for j, v in enumerate(p)))
        for t in tuples:
            if len(t) != len(domain):
                raise SpecError("E_PROBE", "probe predicate length mismatch", "$.probes")
        if random_count:
            tuples += ProbeGrid.random_tuples(domain, self.seed, random_count)
        return ProbeGrid.explicit(domain, tuples, scalars, seed=self.seed)


def _rat(value, path: str) -> Fraction:
    try:
        q = parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise SpecError("E_RAT", str(exc), path) from None
    if not (0 <= q <= 1):
        raise SpecError("E_RAT", f"value {q} outside [0, 1]", path)
    return q


def _modality(name, path: str):
    """The catalog modality of a name given in a document or a flag."""
    if not isinstance(name, str):
        raise SpecError("E_MODALITY", "a modality is named by a string", path)
    try:
        return builtin_modality(name)
    except ValueError as exc:
        raise SpecError("E_MODALITY", str(exc), path) from None


def _interpret(mod, arrow: KleisliArrow, path: str):
    """pt_modality of the document's computation, once their monads agree."""
    if mod.monad != arrow.kind:
        message = f"modality {mod.name!r} interprets {mod.monad}, got a {arrow.kind} computation"
        raise SpecError("E_MODALITY", message, path)
    return pt_modality(mod, arrow)


def _list(value, what: str, path: str) -> list:
    if not isinstance(value, list):
        raise SpecError("E_SCHEMA", f"{what} must be a list", path)
    return value


def _parse_sets(obj, path: str) -> dict:
    if not isinstance(obj, dict) or not obj:
        raise SpecError("E_SCHEMA", "sets must be a nonempty object", path)
    out = {}
    for name, elems in obj.items():
        if not isinstance(elems, list):
            raise SpecError("E_SCHEMA", f"set {name!r} must be a list of labels", f"{path}.{name}")
        try:
            out[name] = FinSet(name, [str(e) for e in elems])
        except ValueError as exc:
            raise SpecError("E_SET", str(exc), f"{path}.{name}") from None
    return out


def _resolve_set(sets: dict, name, path: str) -> FinSet:
    if not isinstance(name, str) or name not in sets:
        raise SpecError("E_SET", f"unknown set {name!r}", path)
    return sets[name]


def _parse_row(kind: MonadKind, target: FinSet, raw, path: str):
    if kind == MonadKind.POWERSET:
        if not isinstance(raw, list):
            raise SpecError("E_ROWS", "powerset row must be a list of labels", path)
        return frozenset(_check_label(target, x, path) for x in raw)
    if kind == MonadKind.LIFT_POWERSET:
        if isinstance(raw, list):
            elems, bottom = raw, False
        elif isinstance(raw, dict):
            elems = _list(raw.get("elements", []), "lifted row elements", f"{path}.elements")
            bottom = bool(raw.get("bottom", False))
        else:
            raise SpecError("E_ROWS", "lifted row must be a list or {elements, bottom}", path)
        row = {_check_label(target, x, path) for x in elems}
        if bottom:
            row.add(BOT)
        if not row:
            raise SpecError("E_ROWS", "lifted row must be nonempty", path)
        return frozenset(row)
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        if not isinstance(raw, dict):
            raise SpecError("E_ROWS", "distribution row must map labels to rationals", path)
        pairs = []
        for y, q in raw.items():
            _check_label(target, y, path)
            pairs.append((y, _rat(q, f"{path}.{y}")))
        d = DistV(pairs)
        if d.mass > 1:
            raise SpecError("E_MASS", f"mass {d.mass} exceeds one", path)
        if kind == MonadKind.DIST and d.mass != 1:
            raise SpecError("E_MASS", f"distribution mass must equal one, got {d.mass}", path)
        return d
    if kind == MonadKind.UP_POWERSET:
        if isinstance(raw, dict) and "generators" in raw:
            where = f"{path}.generators"
            gens = [
                frozenset(_check_label(target, x, where) for x in _list(s, "a generator", where))
                for s in _list(raw["generators"], "generators", where)
            ]
            return up_closure(gens, target)
        if isinstance(raw, list):
            fam = frozenset(
                frozenset(_check_label(target, x, path) for x in _list(s, "a family member", path))
                for s in raw
            )
            if not is_up_closed(fam, target):
                raise SpecError("E_UPCLOSED", "family is not up-closed (or use generators)", path)
            return fam
        raise SpecError("E_ROWS", "up-closed row must be a list of lists or {generators}", path)
    if kind == MonadKind.CV_DIST:
        if not isinstance(raw, list) or not raw:
            raise SpecError("E_ROWS", "polytope row must be a nonempty list of vertices", path)
        vertices = []
        for k, v in enumerate(raw):
            if not isinstance(v, dict):
                raise SpecError("E_ROWS", "each vertex maps labels to rationals", f"{path}[{k}]")
            pairs = [(y, _rat(q, f"{path}[{k}].{y}")) for y, q in v.items()]
            for y, _ in pairs:
                _check_label(target, y, f"{path}[{k}]")
            d = DistV(pairs)
            if d.mass != 1:
                raise SpecError("E_MASS", f"vertex mass must equal one, got {d.mass}", f"{path}[{k}]")
            vertices.append(d)
        return tuple(vertices)
    raise SpecError("E_SCHEMA", f"unknown monad kind {kind!r}", path)


def _check_label(target: FinSet, x, path: str) -> str:
    x = str(x)
    if x not in target:
        raise SpecError("E_SET", f"label {x!r} is not in set {target.name!r}", path)
    return x


def _parse_computation(obj, sets: dict, path: str) -> KleisliArrow:
    if not isinstance(obj, dict):
        raise SpecError("E_SCHEMA", "computation must be an object", path)
    for key in ("monad", "source", "target", "rows"):
        if key not in obj:
            raise SpecError("E_SCHEMA", f"computation needs {key!r}", path)
    try:
        kind = MonadKind(obj["monad"])
    except ValueError:
        raise SpecError(
            "E_SCHEMA",
            f"unknown monad {obj['monad']!r}; choose from "
            + ", ".join(k.value for k in MonadKind),
            f"{path}.monad",
        ) from None
    source = _resolve_set(sets, obj["source"], f"{path}.source")
    target = _resolve_set(sets, obj["target"], f"{path}.target")
    raw_rows = obj["rows"]
    if not isinstance(raw_rows, dict):
        raise SpecError("E_ROWS", "rows must map source labels to row values", f"{path}.rows")
    missing = [x for x in source.elements if x not in raw_rows]
    if missing:
        raise SpecError("E_ROWS", f"missing rows for {missing}", f"{path}.rows")
    extra = [x for x in raw_rows if x not in source]
    if extra:
        raise SpecError("E_ROWS", f"rows for unknown labels {extra}", f"{path}.rows")
    rows = [
        _parse_row(kind, target, raw_rows[x], f"{path}.rows.{x}") for x in source.elements
    ]
    try:
        return KleisliArrow(kind, source, target, rows)
    except ValueError as exc:
        raise SpecError("E_ROWS", str(exc), f"{path}.rows") from None


def _mask_from_bits(bits: str, carrier: FinSet, path: str) -> int:
    if len(bits) != len(carrier) or any(c not in "01" for c in bits):
        raise SpecError(
            "E_TABLE", f"bitstring {bits!r} must have one 0/1 per element of {carrier.name!r}", path
        )
    m = 0
    for j, c in enumerate(bits):
        if c == "1":
            m |= 1 << j
    return m


def _bits_from_mask(mask: int, carrier: FinSet) -> str:
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(len(carrier)))


def _parse_transformer(obj, sets: dict, doc_computation, doc_modality, path: str):
    if not isinstance(obj, dict):
        raise SpecError("E_SCHEMA", "transformer must be an object", path)
    kind = obj.get("kind")
    source = _resolve_set(sets, obj.get("source"), f"{path}.source")
    target = _resolve_set(sets, obj.get("target"), f"{path}.target")
    if kind == "truth_table":
        rows = obj.get("rows")
        if not isinstance(rows, dict):
            raise SpecError("E_TABLE", "truth_table needs a rows object", f"{path}.rows")
        n = 1 << len(source)
        table = [None] * n
        for bits, out_bits in rows.items():
            m = _mask_from_bits(bits, source, f"{path}.rows.{bits}")
            table[m] = _mask_from_bits(str(out_bits), target, f"{path}.rows.{bits}")
        missing = [i for i, v in enumerate(table) if v is None]
        if missing:
            raise SpecError(
                "E_TABLE",
                f"truth table incomplete: missing predicate index {missing[0]} of {n}",
                f"{path}.rows",
            )
        return BooleanTransformer(source, target, table)
    if kind == "probe_table":
        pairs = obj.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise SpecError("E_TABLE", "probe_table needs a nonempty pairs list", f"{path}.pairs")
        lookup = {}
        for k, entry in enumerate(pairs):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SpecError(
                    "E_TABLE", "each pair is [predicate-values, value-row]", f"{path}.pairs[{k}]"
                )
            where = f"{path}.pairs[{k}]"
            pred = tuple(_rat(v, f"{where}[0]") for v in _list(entry[0], "a predicate", f"{where}[0]"))
            vals = tuple(_rat(v, f"{where}[1]") for v in _list(entry[1], "a value row", f"{where}[1]"))
            if len(pred) != len(source) or len(vals) != len(target):
                raise SpecError("E_TABLE", "pair lengths must match the carriers", f"{path}.pairs[{k}]")
            lookup[pred] = vals
        if doc_computation is not None and doc_modality is not None:
            backing = _interpret(_modality(doc_modality, "$.modality"), doc_computation, "$.modality")
            if not isinstance(backing, RationalTransformer):
                raise SpecError("E_MODALITY", "a probe_table needs a rational modality", "$.modality")
            for pred, vals in lookup.items():
                got = backing.apply_values(pred)
                if got != vals:
                    raise SpecError(
                        "E_PROBE",
                        f"probe pair {pred} disagrees with the defining computation: {got} != {vals}",
                        f"{path}.pairs",
                    )
            return backing

        def fn(values):
            key = tuple(values)
            if key not in lookup:
                raise MissingProbeError(key)
            return lookup[key]

        return RationalTransformer(source, target, fn, label="probe_table")
    raise SpecError("E_SCHEMA", "transformer kind must be truth_table or probe_table", f"{path}.kind")


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a JSON spec document; every failure carries a
    distinct error code and the offending path."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("E_JSON", f"malformed JSON: {exc}", f"line {exc.lineno}") from None
    if not isinstance(obj, dict):
        raise SpecError("E_SCHEMA", "document must be a JSON object")
    sets = _parse_sets(obj.get("sets"), "$.sets")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise SpecError("E_SCHEMA", "seed must be an integer", "$.seed")
    modality = obj.get("modality")
    if modality is not None:
        _modality(modality, "$.modality")
    computation = None
    if obj.get("computation") is not None:
        computation = _parse_computation(obj["computation"], sets, "$.computation")
    transformer = None
    if obj.get("transformer") is not None:
        transformer = _parse_transformer(
            obj["transformer"], sets, computation, modality, "$.transformer"
        )
    probes = obj.get("probes")
    if probes is not None and not isinstance(probes, dict):
        raise SpecError("E_SCHEMA", "probes must be an object", "$.probes")
    return SpecDocument(sets, computation, modality, transformer, probes, seed)


# ---------------------------------------------------------------------------
# Serialization (synth output re-parses as wp input)


def _row_to_json(kind: MonadKind, row, target: FinSet):
    if kind == MonadKind.POWERSET:
        return sorted(row, key=target.index)
    if kind == MonadKind.LIFT_POWERSET:
        return {
            "elements": sorted((y for y in row if y is not BOT), key=target.index),
            "bottom": BOT in row,
        }
    if kind in (MonadKind.SUBDIST, MonadKind.DIST):
        return {y: format_rational(q) for y, q in row.items_in(target)}
    if kind == MonadKind.UP_POWERSET:
        return [sorted(s, key=target.index) for s in sorted(row, key=lambda s: (len(s), sorted(map(target.index, s))))]
    if kind == MonadKind.CV_DIST:
        return [{y: format_rational(q) for y, q in v.items_in(target)} for v in row]
    raise ValueError(kind)


def computation_to_json(arrow: KleisliArrow) -> dict:
    return {
        "sets": {
            arrow.source.name: list(arrow.source.elements),
            arrow.target.name: list(arrow.target.elements),
        },
        "computation": {
            "monad": arrow.kind.value,
            "source": arrow.source.name,
            "target": arrow.target.name,
            "rows": {
                x: _row_to_json(arrow.kind, arrow.row(x), arrow.target)
                for x in arrow.source.elements
            },
        },
    }


def transformer_to_json(phi: BooleanTransformer) -> dict:
    return {
        "sets": {
            phi.source.name: list(phi.source.elements),
            phi.target.name: list(phi.target.elements),
        },
        "transformer": {
            "kind": "truth_table",
            "source": phi.source.name,
            "target": phi.target.name,
            "rows": {
                _bits_from_mask(m, phi.source): _bits_from_mask(phi.table[m], phi.target)
                for m in range(len(phi.table))
            },
        },
    }


def probe_evaluations_to_json(phi: RationalTransformer, grid: ProbeGrid) -> dict:
    pairs = []
    for p in grid.predicates:
        vals = phi.apply_values(p)
        pairs.append([[format_rational(v) for v in p], [format_rational(v) for v in vals]])
    return {
        "sets": {
            phi.source.name: list(phi.source.elements),
            phi.target.name: list(phi.target.elements),
        },
        "transformer": {
            "kind": "probe_table",
            "source": phi.source.name,
            "target": phi.target.name,
            "pairs": pairs,
        },
    }


# ---------------------------------------------------------------------------
# Commands


def _emit(text: str, out_file: str | None) -> None:
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.is_healthy:
        return EXIT_HEALTHY
    if verdict.is_unhealthy:
        return EXIT_UNHEALTHY
    return EXIT_INCONCLUSIVE


def _load_doc(args) -> SpecDocument:
    if not args.spec:
        raise SpecError("E_SCHEMA", "this command needs --spec FILE")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError("E_IO", str(exc), args.spec) from None
    return parse_spec(text)


def _doc_transformer(doc: SpecDocument, args):
    """The transformer under test: explicit, or wp of the stored computation."""
    if doc.transformer is not None:
        return doc.transformer
    if doc.computation is not None:
        name = args.modality or doc.modality
        if not name:
            raise SpecError("E_MODALITY", "a modality is needed to interpret the computation")
        return _interpret(_modality(name, "--modality"), doc.computation, "$.computation")
    raise SpecError("E_SCHEMA", "document has neither a transformer nor a computation")


def _cmd_wp(args) -> int:
    doc = _load_doc(args)
    if doc.computation is None:
        raise SpecError("E_SCHEMA", "wp needs a computation", "$.computation")
    name = args.modality or doc.modality
    if not name:
        raise SpecError("E_MODALITY", "wp needs a modality (flag or document)")
    phi = _interpret(_modality(name, "--modality"), doc.computation, "$.computation")
    if isinstance(phi, BooleanTransformer):
        payload = transformer_to_json(phi)
    else:
        payload = probe_evaluations_to_json(phi, doc.grid_for(phi.source, args.max_enum))
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_HEALTHY


def _cmd_check(args) -> int:
    doc = _load_doc(args)
    if not args.condition:
        raise SpecError("E_SCHEMA", "check needs --condition NAME")
    if args.condition not in CONDITIONS:
        raise SpecError(
            "E_SCHEMA",
            f"unknown condition {args.condition!r}; choose from {'|'.join(sorted(CONDITIONS))}",
        )
    phi = _doc_transformer(doc, args)
    for cls in STRUCTURE_CLASSES.values():
        if cls.condition == args.condition and cls.carrier != phi.carrier:
            message = f"condition {args.condition!r} needs a {cls.carrier} transformer"
            raise SpecError("E_SCHEMA", f"{message}, got a {phi.carrier} one")
    grid = None
    if isinstance(phi, RationalTransformer):
        grid = doc.grid_for(phi.source, args.max_enum)
    verdict = run_condition(args.condition, phi, grid)
    report = f"condition: {args.condition}\nverdict: {verdict.describe()}\n"
    _emit(report, args.out)
    return _verdict_exit(verdict)


def _cmd_synth(args) -> int:
    doc = _load_doc(args)
    name = args.modality or doc.modality
    if not name:
        raise SpecError("E_MODALITY", "synth needs a modality to pick the inverse construction")
    mod = _modality(name, "--modality")
    if mod.theorem is None:
        raise SpecError("E_MODALITY", f"no synthesis instance for modality {mod.name!r}")
    phi = _doc_transformer(doc, args)
    if phi.carrier != mod.carrier:
        message = f"modality {mod.name!r} inverts {mod.carrier} transformers"
        raise SpecError("E_MODALITY", f"{message}, got a {phi.carrier} one")
    grid = doc.grid_for(phi.source, args.max_enum) if isinstance(phi, RationalTransformer) else None
    try:
        result = synthesize(mod, phi, grid)
    except UnhealthyInputError as exc:
        _emit(f"synthesis rejected: {exc.verdict.describe()}\n", args.out)
        return _verdict_exit(exc.verdict)
    lines = [f"residual: {result.residual.describe()}"]
    if result.normalization:
        lines.append(f"normalization: {', '.join(result.normalization)}")
    if result.arrow is not None:
        payload = computation_to_json(result.arrow)
        payload["modality"] = mod.name
        text = json.dumps(payload, indent=2) + "\n" + "\n".join(lines) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return _verdict_exit(result.residual)


def _cmd_roundtrip(args) -> int:
    doc = _load_doc(args)
    if doc.computation is None:
        raise SpecError("E_SCHEMA", "roundtrip needs a computation", "$.computation")
    name = args.modality or doc.modality
    instance = _modality(name, "--modality").theorem if name else None
    if instance is not None and INSTANCES[instance].monad != doc.computation.kind:
        message = f"instance {instance!r} expects {INSTANCES[instance].monad}"
        raise SpecError("E_MODALITY", f"{message}, got {doc.computation.kind}")
    grid = None
    if doc.computation.kind in (MonadKind.SUBDIST, MonadKind.DIST, MonadKind.CV_DIST):
        grid = doc.grid_for(doc.computation.target, args.max_enum)
    try:
        verdict = roundtrip_verify(doc.computation, instance, grid)
    except UnhealthyInputError as exc:
        # pt of a computation is healthy, so only a grid below the minimum fails it
        _emit(f"synthesis rejected: {exc.verdict.describe()}\n", args.out)
        return _verdict_exit(exc.verdict)
    _emit(f"roundtrip: {verdict.describe()}\n", args.out)
    return _verdict_exit(verdict)


def _cmd_laws(args) -> int:
    carriers = [
        FinSet("A", tuple(f"a{i}" for i in range(args.sizes[0]))),
        FinSet("B", tuple(f"b{i}" for i in range(args.sizes[1]))),
    ]
    lines = []
    failures = 0

    def record(label: str, verdict: Verdict):
        nonlocal failures
        lines.append(f"{label}: {verdict.describe()}")
        if not verdict.is_healthy:
            failures += 1

    names = [k.value for k in MonadKind]
    if args.monad and args.monad not in names:
        message = f"unknown monad {args.monad!r}; choose from {', '.join(names)}"
        raise SpecError("E_SCHEMA", message, "--monad")
    kinds = [MonadKind(args.monad)] if args.monad else list(MonadKind)
    for kind in kinds:
        verdict = check_monad_laws(kind, carriers, seed=args.seed, max_enum=args.max_enum)
        record(f"monad {kind.value}", verdict)
    if args.monad is None or args.monad == "powerset":
        record("monad-map sigma", check_monad_map_laws(sigma_spec(), carriers, seed=args.seed))
        record(
            "monad-map sigma_prime",
            check_monad_map_laws(sigma_prime_spec(), carriers, seed=args.seed),
        )
    if args.monad is None or args.monad == "dist":
        record(
            "monad-map support", check_monad_map_laws(support_map_spec(), carriers, seed=args.seed)
        )
    if args.modality:
        mod = _modality(args.modality, "--modality")
        record(f"algebra {mod.name}", check_algebra_laws(mod, seed=args.seed))
        if mod.structure_class:
            record(
                f"lifting {mod.name}:{mod.structure_class}",
                lifting_check(mod, mod.structure_class, n_max=3, seed=args.seed),
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_HEALTHY if failures == 0 else EXIT_UNHEALTHY


def _cmd_enum_verify(args) -> int:
    if not args.theorem:
        raise SpecError("E_SCHEMA", "enum-verify needs --theorem ID")
    if args.theorem not in THEOREM_IDS:
        raise SpecError(
            "E_SCHEMA", f"unknown theorem {args.theorem!r}; ids: {', '.join(THEOREM_IDS)}"
        )
    count = 100 if INSTANCES[args.theorem].monad == MonadKind.CV_DIST else 200
    try:
        instance = TheoremInstance(args.theorem, tuple(args.sizes), seed=args.seed, count=count)
    except ValueError as exc:
        raise SpecError("E_SCHEMA", str(exc), "--sizes") from None
    t0 = time.perf_counter()
    report = enum_verify(instance, max_enum=args.max_enum)
    sys.stderr.write(f"elapsed: {time.perf_counter() - t0:.3f}s\n")
    _emit(report.render(), args.out)
    return EXIT_HEALTHY if report.equal else EXIT_UNHEALTHY


def _size(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"size must be a nonnegative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="wpbench", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, fn in (
        ("wp", _cmd_wp),
        ("check", _cmd_check),
        ("synth", _cmd_synth),
        ("roundtrip", _cmd_roundtrip),
        ("laws", _cmd_laws),
        ("enum-verify", _cmd_enum_verify),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--spec", help="JSON spec file")
        p.add_argument("--condition", help="healthiness condition name")
        p.add_argument("--modality", help="modality name (e.g. diamond, tau_r:1/3)")
        p.add_argument("--theorem", help="theorem id for enum-verify")
        p.add_argument("--sizes", nargs=2, type=_size, default=(2, 2), metavar=("A", "B"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
        p.add_argument("--max-enum", dest="max_enum", type=int, default=MAX_ENUM)
        p.add_argument("--monad", help="monad name for the laws command")
        p.add_argument("--out", help="write the report to a file")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except SpecError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INPUT
    except SizeGuardError as exc:
        sys.stderr.write(f"size guard: {exc}\n")
        return EXIT_INPUT
    except MissingProbeError as exc:
        sys.stderr.write(f"inconclusive: probe table lacks a required evaluation point: {exc}\n")
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # anything else is a bug in wpbench, not bad input
        sys.stderr.write(traceback.format_exc())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
