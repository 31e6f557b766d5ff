"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of `exchase`'s modules with
wrappers that open a span on entry and close it on exit; `uninstall()` puts
the originals back, so untimed and traced calls can alternate in one process.
Functions that return iterators (`enumerate_triggers`, `applicable_edges`,
`iter_homomorphisms`, `ChaseState.iter_applicable`) get one span for the call
and one per `next()`, so a consumer that stops early (FIFO's
`first_applicable`) still stops the producer early.

Spans live in flat arrays while a command runs. A layer's self time is the
duration of its spans minus the part covered by their child spans.
`hom.canonical_code` is opaque: calls made inside it are not traced, so its
automorphism searches count as canonical-labelling time, not as `hom.find`.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path

# (module, attribute path, layer, returns an iterator)
TARGETS = (
    ("cli", "main", "cli", False),
    ("textio", "parse_document", "textio.parse", False),
    ("chase", "enumerate_triggers", "chase.discover", True),
    ("chase", "is_applicable", "chase.applicable", False),
    ("chase", "datalog_satisfied", "chase.datalog_gate", False),
    ("chase", "applicable_edges", "chase.loop", True),
    ("chase", "run_chase", "chase.loop", False),
    ("chase", "ChaseState.iter_applicable", "chase.loop", True),
    ("chase", "ChaseState.apply", "chase.loop", False),
    ("core", "FactBase.union", "core.union", False),
    ("core", "FactBase.sorted_atoms", "core.index", False),
    ("core", "FactBase.by_pred", "core.index", False),
    ("core", "FactBase.by_pred_pos", "core.index", False),
    ("hom", "iter_homomorphisms", "hom.find", True),
    ("hom", "find_homomorphism", "hom.find", False),
    ("hom", "are_isomorphic", "hom.find", False),
    ("hom", "exists_retraction", "hom.retraction", False),
    ("hom", "entails", "hom.entails", False),
    ("hom", "canonical_code", "hom.canonical_code", False),
    ("analysis", "explore_all", "analysis.explore", False),
    ("analysis", "find_terminating", "analysis.find_terminating", False),
    ("analysis", "entails", "analysis.entails", False),
    ("analysis", "classify", "analysis.classify", False),
    ("analysis", "classify_fixture", "analysis.classify", False),
    ("analysis", "load_fixture", "analysis.classify", False),
    ("normalize", "single_piece", "normalize", False),
    ("normalize", "one_way", "normalize", False),
    ("normalize", "two_way", "normalize", False),
)

LAYERS = tuple(sorted({t[2] for t in TARGETS}))
OPAQUE = "hom.canonical_code"


class _TracedIter:
    """Iterator proxy that spans each `next()` and counts the items."""

    __slots__ = ("inner", "tracer", "layer", "counter")

    def __init__(self, inner, tracer, layer, counter):
        self.inner = inner
        self.tracer = tracer
        self.layer = layer
        self.counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        if tr.opaque:
            return next(self.inner)
        i = tr.open(self.layer)
        try:
            item = next(self.inner)
        finally:
            tr.close(i)
        if self.counter:
            tr.counts[self.counter] += 1
        return item


class Tracer:
    """Records spans of one command at a time; see the module docstring."""

    def __init__(self):
        self.layer_id = {name: k for k, name in enumerate(LAYERS)}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # --- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the spans and counts of the previous command."""
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.opaque = 0
        self.counts: Counter = Counter()
        self.step_times: list[list[float]] = []
        self.reports: list = []

    def open(self, layer: int) -> int:
        i = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, key: str, layer_name: str, returns_iter: bool):
        tracer = self
        layer = self.layer_id[layer_name]
        opaque = layer_name == OPAQUE
        item_counter = "chase.triggers_considered" if key == "chase.enumerate_triggers" else None
        before = _BEFORE.get(key)
        after = _AFTER.get(key)

        def wrapper(*args, **kwargs):
            if tracer.opaque:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            if before is not None:
                before(tracer, args)
            i = tracer.open(layer)
            if opaque:
                tracer.opaque += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if opaque:
                    tracer.opaque -= 1
                tracer.close(i)
            if returns_iter:
                return _TracedIter(iter(result), tracer, layer, item_counter)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target, in every `exchase` module that binds it.

        A target the program no longer has is skipped, and its metrics read 0.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "exchase" or name.startswith("exchase.")]
        for mod_name, path, layer, returns_iter in TARGETS:
            found = _lookup(mod_name, path)
            if found is None:
                continue
            owner, attr, original = found
            key = mod_name + "." + path
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(original.func, key, layer, False))
                replacement.__set_name__(owner, attr)
                self._replace(owner, attr, original, replacement)
                continue
            wrapper = self._wrap(original, key, layer, returns_iter)
            if "." in path:
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)

    def _replace(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer from the recorded spans."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start) - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(len(self.start)):
            out[LAYERS[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per layer including the layers it calls: the duration of
        every span that has no ancestor span of its own layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(len(self.start)):
            layer = self.layer[i]
            p = self.parent[i]
            while p >= 0 and self.layer[p] != layer:
                p = self.parent[p]
            if p < 0:
                out[LAYERS[layer]] += self.end[i] - self.start[i]
        return out

    def step_cost_growth(self) -> float:
        """Mean step time over the last tenth of steps divided by the mean
        over the first tenth, for the longest chase of the command; 0 when
        no chase made 20 steps."""
        stamps = max(self.step_times, key=len, default=[])
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        tenth = len(gaps) // 10
        if tenth < 2:
            return 0.0
        first = sum(gaps[:tenth]) / tenth
        last = sum(gaps[-tenth:]) / tenth
        return last / first

    def write_spans(self, path: Path) -> None:
        """Write the spans of the last command as JSON columns."""
        t0 = self.start[0] if self.start else 0.0
        path.write_text(
            json.dumps(
                {
                    "layers": list(LAYERS),
                    "columns": ["layer", "parent", "start_s", "end_s"],
                    "layer": self.layer.tolist(),
                    "parent": self.parent.tolist(),
                    "start_s": [round(s - t0, 9) for s in self.start],
                    "end_s": [round(e - t0, 9) for e in self.end],
                }
            )
        )


def _lookup(mod_name: str, path: str):
    """(owner, attribute name, current value) of a target, or None."""
    owner = sys.modules.get("exchase." + mod_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _record_step(tracer: Tracer, args) -> None:
    """Time stamp of each `ChaseState.apply`, kept per chase state."""
    attrs = getattr(args[0], "__dict__", None)
    if attrs is None:
        return
    stamps = attrs.get("_bench_step_times")
    if stamps is None:
        stamps = attrs["_bench_step_times"] = []
        tracer.step_times.append(stamps)
    stamps.append(time.perf_counter())


def _count_applicable(tracer: Tracer, result) -> None:
    if result:
        tracer.counts["chase.applicable_true"] += 1


def _keep_report(tracer: Tracer, result) -> None:
    tracer.reports.append(result)


# Hooks keyed by "<module>.<attribute path>", the key of each call count.
_BEFORE = {"chase.ChaseState.apply": _record_step}
_AFTER = {"chase.is_applicable": _count_applicable, "analysis.explore_all": _keep_report}
