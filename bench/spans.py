"""In-memory span recording around the public ``wpbench`` functions.

A span is (name, start, end, parent span, item id), kept in flat arrays
while the traced pass runs and written out when the run ends.  A span's
self time is its duration minus the durations of its child spans; since
the benchmark is one thread and spans nest, the self times of an item's
spans sum exactly to its root span's duration.

Wrappers replace the module attributes that callers look up at call time,
in every ``wpbench`` module that imported the function, plus
``RationalTransformer.apply_values`` at class level.  A function bound at
definition time stays in its caller's self time: ``check_monad_laws`` and
``_unit_law_failures`` take ``compose=kleisli_compose`` as a default
argument, so the Kleisli compositions of the monad-law suites count as
``monads.check_monad_laws`` self time, and ``monads.kleisli_compose``
counts only the calls made through a module lookup (functoriality).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array

ROOT = "bench.item"

# spans named "<module>.<function>"; grid checks are also summed as one layer
GRID_CHECKS = ("check_gemod_morphism", "check_emod_morphism", "check_regular_sublinear")
TRACED = {
    "cli": ("run",),
    "sweep": ("enum_verify",),
    "healthiness": ("run_condition",) + GRID_CHECKS,
    "semantics": ("pt_modality", "check_functoriality"),
    "synthesis": ("roundtrip_verify", "synth_subdist", "synth_dist", "synth_polytope", "cv_semantically_equal"),
    "monads": ("check_monad_laws", "check_monad_map_laws", "kleisli_compose"),
    "modalities": ("lifting_check",),
    "verdicts": ("witness_is_sound",),
}
APPLY_VALUES = "semantics.apply_values"

# the per-layer metrics a traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("sweep.enum_verify.calls", "count"),
    ("sweep.enum_verify.self_s", "s"),
    ("healthiness.run_condition.calls", "count"),
    ("healthiness.run_condition.self_s", "s"),
    ("healthiness.grid_check.calls", "count"),
    ("healthiness.grid_check.self_s", "s"),
    ("healthiness.check_gemod_morphism.self_s", "s"),
    ("healthiness.check_emod_morphism.self_s", "s"),
    ("healthiness.check_regular_sublinear.self_s", "s"),
    ("healthiness.checked", "count"),
    ("healthiness.recheck_ratio", "ratio"),
    ("semantics.pt_modality.calls", "count"),
    ("semantics.pt_modality.self_s", "s"),
    ("semantics.apply_values.calls", "count"),
    ("semantics.apply_values.self_s", "s"),
    ("semantics.apply_values.repeat_ratio", "ratio"),
    ("semantics.check_functoriality.calls", "count"),
    ("semantics.check_functoriality.self_s", "s"),
    ("synthesis.roundtrip_verify.calls", "count"),
    ("synthesis.roundtrip_verify.self_s", "s"),
    ("synthesis.synth_subdist.calls", "count"),
    ("synthesis.synth_subdist.self_s", "s"),
    ("synthesis.synth_dist.calls", "count"),
    ("synthesis.synth_dist.self_s", "s"),
    ("synthesis.synth_polytope.calls", "count"),
    ("synthesis.synth_polytope.self_s", "s"),
    ("synthesis.cv_semantically_equal.calls", "count"),
    ("synthesis.cv_semantically_equal.self_s", "s"),
    ("monads.check_monad_laws.calls", "count"),
    ("monads.check_monad_laws.self_s", "s"),
    ("monads.check_monad_map_laws.self_s", "s"),
    ("monads.kleisli_compose.calls", "count"),
    ("monads.kleisli_compose.self_s", "s"),
    ("modalities.lifting_check.calls", "count"),
    ("modalities.lifting_check.self_s", "s"),
    ("verdicts.witness_is_sound.calls", "count"),
    ("verdicts.witness_is_sound.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


class Recorder:
    """Flat in-memory span store; single-threaded by construction."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self._stack: list = []
        self.item_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def self_ns(self) -> array:
        """Each span's duration minus the durations of its children."""
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self) -> dict:
        """name -> [calls, self ns]"""
        acc = {name: [0, 0] for name in self.names}
        for nid, own in zip(self.name, self.self_ns()):
            entry = acc[self.names[nid]]
            entry[0] += 1
            entry[1] += own
        return acc

    def write(self, path: str) -> None:
        """One span per line: name, start ns, end ns, parent index, item id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for nid, s, e, p, it in zip(self.name, self.start, self.end, self.parent, self.item):
                fh.write(f"{self.names[nid]}\t{s}\t{e}\t{p}\t{it}\n")


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(result)
        return result

    return wrapper


class Instrumentation:
    """Installs the span wrappers and the counters computed from their own
    keys; ``remove`` restores every replaced attribute."""

    def __init__(self, W, rec: Recorder):
        self.W = W
        self.rec = rec
        self._undo: list = []
        self.checked = 0
        self.grid_checks = 0
        self.rechecks = 0
        self._seen_checks: set = set()
        self._held: list = []  # keeps checked subjects alive so ids stay unique
        self.apply_calls = 0
        self.apply_repeats = 0
        self._seen_values: dict = {}

    # -- counters --------------------------------------------------------

    def _grid_check_before(self, fn_name, signature):
        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            phi, grid = bound.arguments["phi"], bound.arguments["grid"]
            if fn_name == "check_gemod_morphism":
                condition = "gemod_" + bound.arguments["variant"]
            else:
                condition = fn_name
            subject = phi.arrow if phi.arrow is not None else phi
            self._held.append((subject, grid))
            key = (id(subject), id(grid), condition)
            self.grid_checks += 1
            if key in self._seen_checks:
                self.rechecks += 1
            self._seen_checks.add(key)

        return before

    def _grid_check_after(self, verdict):
        self.checked += verdict.checked

    def _apply_values_before(self, args, kwargs):
        phi = args[0]
        values = args[1] if len(args) > 1 else kwargs["values"]
        key = tuple((v.numerator, v.denominator) for v in values)
        seen = self._seen_values.get(id(phi))
        if seen is None:
            seen = self._seen_values[id(phi)] = set()
            weakref.finalize(phi, self._seen_values.pop, id(phi), None)
        self.apply_calls += 1
        if key in seen:
            self.apply_repeats += 1
        else:
            seen.add(key)

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wpbench" or mod_name.startswith("wpbench.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self) -> None:
        for module, names in TRACED.items():
            mod = getattr(self.W, module)
            for fn_name in names:
                fn = getattr(mod, fn_name)
                before = after = None
                if fn_name in GRID_CHECKS:
                    before = self._grid_check_before(fn_name, inspect.signature(fn))
                    after = self._grid_check_after
                self._replace_everywhere(fn, _wrap(self.rec, f"{module}.{fn_name}", fn, before, after))
        cls = self.W.semantics.RationalTransformer
        original = cls.apply_values
        cls.apply_values = _wrap(self.rec, APPLY_VALUES, original, self._apply_values_before)
        self._undo.append((cls, "apply_values", original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._held.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict:
        totals = self.rec.totals()

        def calls(name):
            return totals.get(name, [0, 0])[0]

        def self_s(name):
            return totals.get(name, [0, 0])[1] / 1e9

        grid = [f"healthiness.{n}" for n in GRID_CHECKS]
        values = {
            "healthiness.grid_check.calls": sum(calls(n) for n in grid),
            "healthiness.grid_check.self_s": sum(self_s(n) for n in grid),
            "healthiness.checked": self.checked,
            "healthiness.recheck_ratio": self.rechecks / self.grid_checks if self.grid_checks else 0.0,
            "semantics.apply_values.repeat_ratio": (
                self.apply_repeats / self.apply_calls if self.apply_calls else 0.0
            ),
            "trace_overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric not in values:
                span, _, what = metric.rpartition(".")
                values[metric] = calls(span) if what == "calls" else self_s(span)
            out[metric] = {"value": values[metric], "unit": unit}
        return out
