"""Spans and counters at the library's layer boundaries, installed from outside.

A layer is a module attribute that callers look up at call time, for example
``graphenum.find_isomorphism``. Installing the tracer replaces that function
in every loaded ``equiangular`` module that binds it, so calls made through a
``from ... import`` name are caught too. Nothing under ``src/`` changes.

Each timed call records a span (layer, parent span, operation, start, end) in
memory. A layer's self time is its span's duration minus the time covered by
its child spans. Counter-only layers (``timed=False``) count calls and add no
span, for recursive or very hot helpers whose time stays with the caller.

A layer whose attribute no longer exists is reported as missing; the run goes
on without it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    name: str    # metric prefix, e.g. "graphenum.iso"
    module: str  # module that defines the attribute
    attr: str    # attribute path inside the module, e.g. "ClassSet.add"
    count: Callable | None = None  # count(stats, args, result) adds layer counters
    timed: bool = True


def _ladder(s, args, res):
    rec = args[1]
    s["masks_tried"] += 1 << (len(rec["adj"]) - 1)
    s["pd_children"] += len(res)


def _refine(s, args, res):
    s["rejects"] += res[args[0] - 1] != 0  # new vertex outside the minimum colour


def _dedup(s, args, res):
    s["new"] += res is True


def _iso(s, args, res):
    s["hits"] += res is not None


def _scan(s, args, res):
    s["sign_vectors"] += 1 << (args[3] - 1)
    s["candidates"] += len(res)


def _compat(s, args, res):
    n = len(args[2])
    s["pairs"] += n * (n - 1) // 2
    s["edges"] += sum(m.bit_count() for m in res) // 2


def _psd(s, args, res):
    s["max_n"] = max(s["max_n"], args[0].n)


LAYERS = (
    Layer("saturate.ladder", "equiangular.saturate", "_pd_neighbor_masks", _ladder),
    Layer("saturate.extend", "equiangular.saturate", "_extend_record"),
    Layer("graphenum.refine", "equiangular.graphenum", "refine_colors", _refine),
    Layer("graphenum.dedup", "equiangular.graphenum", "ClassSet.add", _dedup),
    Layer("graphenum.iso", "equiangular.graphenum", "find_isomorphism", _iso),
    Layer("saturate.scan", "equiangular.saturate", "_candidate_data_raw", _scan),
    Layer("saturate.compat", "equiangular.saturate", "_compat_adj_raw", _compat),
    Layer("seidel.clique", "equiangular.seidel", "_clique_number"),
    Layer("seidel.witness", "equiangular.seidel", "max_clique"),
    Layer("seidel.exists", "equiangular.seidel", "_exists_clique", timed=False),
    Layer("saturate.certify", "equiangular.saturate", "saturation_report"),
    Layer("saturate.candidates", "equiangular.saturate", "candidates"),
    Layer("saturate.realize", "equiangular.saturate", "realize"),
    Layer("saturate.assert_saturated", "equiangular.saturate", "_assert_saturated"),
    Layer("linalg.psd", "equiangular.linalg", "psd_check", _psd),
    Layer("linalg.rank", "equiangular.linalg", "rank_of"),
    Layer("constructions.witt", "equiangular.constructions", "witt276"),
    Layer("constructions.spectrum", "equiangular.constructions", "witt_spectrum_certificate"),
    Layer("bounds.table2", "equiangular.bounds", "table2"),
    Layer("bounds.feasible", "equiangular.bounds", "instance_feasible", timed=False),
)


def _resolve(layer: Layer):
    """(owner, attribute name, function), or None if the layer is gone."""
    try:
        owner = importlib.import_module(layer.module)
    except ImportError:
        return None
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Records spans and counters; use as a context manager around the run."""

    def __init__(self, layers=LAYERS, package: str = "equiangular", clock=perf_counter):
        self.layers = list(layers)
        self.package = package
        self.clock = clock
        self.missing: list[str] = []
        self.stats: dict[str, dict] = {}
        self.span_names: list[str] = []
        # one entry per finished span, in columns to keep memory small;
        # span ids count entries, so a parent's id is below its children's
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.span_names.append(name)
        return len(self.span_names) - 1

    def timed(self, fn, name_id: int, stats: dict, count):
        """fn wrapped in a span; ``count`` updates ``stats`` from the result."""
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                self._record(name_id, span, start, end)
            if count is not None:
                _count(count, stats, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name_id: int, span: int, start: float, end: float):
        self.span_id.append(span)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(start)
        self.span_end.append(end)

    @staticmethod
    def counted(fn, stats: dict, count):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            stats["calls"] += 1
            if count is not None:
                _count(count, stats, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, index: int, name: str, call):
        """Call one benchmark operation inside a root span of its own."""
        self.op = index
        return self.timed(call, self._name_id(f"op:{name}"), _new_stats(), None)()

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        for layer in self.layers:
            found = _resolve(layer)
            if found is None:
                self.missing.append(layer.name)
                continue
            owner, name, fn = found
            stats = self.stats.setdefault(layer.name, _new_stats())
            if layer.timed:
                wrapped = self.timed(fn, self._name_id(layer.name), stats, layer.count)
            else:
                wrapped = self.counted(fn, stats, layer.count)
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            # rebind every name in the package that refers to this function
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != self.package:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        return self

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------------

    def unmeasured(self) -> list[str]:
        """Layers that are gone, or whose counters no longer fit their calls."""
        broken = [name for name, s in self.stats.items() if s["count_errors"]]
        return self.missing + broken

    def write_spans(self, path: str) -> int:
        """Write every recorded span as gzipped JSON columns; returns the count."""
        cols = {
            "names": self.span_names,
            "id": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(cols, fh)
        return len(self.span_id)


def _count(count, stats, args, res):
    """Update a layer's counters; a call whose arguments no longer fit the
    counter (a changed signature) is tallied instead of failing the run."""
    try:
        count(stats, args, res)
    except (IndexError, KeyError, TypeError, AttributeError):
        stats["count_errors"] += 1


def _new_stats() -> Counter:
    s = Counter()
    s["calls"] = 0
    s["self_s"] = 0.0
    return s


# metric -> (layer, counter, unit); a ratio's counter is (numerator, denominator)
METRICS = {
    "saturate.ladder.calls": ("saturate.ladder", "calls", "count"),
    "saturate.ladder.masks_tried": ("saturate.ladder", "masks_tried", "count"),
    "saturate.ladder.pd_children": ("saturate.ladder", "pd_children", "count"),
    "saturate.ladder.pd_ratio": ("saturate.ladder", ("pd_children", "masks_tried"), "ratio"),
    "saturate.ladder.self_s": ("saturate.ladder", "self_s", "s"),
    "saturate.extend.calls": ("saturate.extend", "calls", "count"),
    "saturate.extend.self_s": ("saturate.extend", "self_s", "s"),
    "graphenum.refine.calls": ("graphenum.refine", "calls", "count"),
    "graphenum.refine.reject_ratio": ("graphenum.refine", ("rejects", "calls"), "ratio"),
    "graphenum.refine.self_s": ("graphenum.refine", "self_s", "s"),
    "graphenum.dedup.calls": ("graphenum.dedup", "calls", "count"),
    "graphenum.dedup.new": ("graphenum.dedup", "new", "count"),
    "graphenum.dedup.self_s": ("graphenum.dedup", "self_s", "s"),
    "graphenum.iso.calls": ("graphenum.iso", "calls", "count"),
    "graphenum.iso.hits": ("graphenum.iso", "hits", "count"),
    "graphenum.iso.self_s": ("graphenum.iso", "self_s", "s"),
    "saturate.scan.calls": ("saturate.scan", "calls", "count"),
    "saturate.scan.sign_vectors": ("saturate.scan", "sign_vectors", "count"),
    "saturate.scan.candidates": ("saturate.scan", "candidates", "count"),
    "saturate.scan.hit_ratio": ("saturate.scan", ("candidates", "sign_vectors"), "ratio"),
    "saturate.scan.self_s": ("saturate.scan", "self_s", "s"),
    "saturate.compat.calls": ("saturate.compat", "calls", "count"),
    "saturate.compat.pairs": ("saturate.compat", "pairs", "count"),
    "saturate.compat.edges": ("saturate.compat", "edges", "count"),
    "saturate.compat.self_s": ("saturate.compat", "self_s", "s"),
    "seidel.clique.calls": ("seidel.clique", "calls", "count"),
    "seidel.clique.self_s": ("seidel.clique", "self_s", "s"),
    "seidel.witness.calls": ("seidel.witness", "calls", "count"),
    "seidel.witness.exists_calls": ("seidel.exists", "calls", "count"),
    "seidel.witness.self_s": ("seidel.witness", "self_s", "s"),
    "saturate.certify.seeds": ("saturate.certify", "calls", "count"),
    "saturate.certify.self_s": ("saturate.certify", "self_s", "s"),
    "saturate.candidates.self_s": ("saturate.candidates", "self_s", "s"),
    "saturate.realize.self_s": ("saturate.realize", "self_s", "s"),
    "saturate.assert_saturated.self_s": ("saturate.assert_saturated", "self_s", "s"),
    "linalg.psd.calls": ("linalg.psd", "calls", "count"),
    "linalg.psd.max_n": ("linalg.psd", "max_n", "rows"),
    "linalg.psd.self_s": ("linalg.psd", "self_s", "s"),
    "linalg.rank.calls": ("linalg.rank", "calls", "count"),
    "linalg.rank.self_s": ("linalg.rank", "self_s", "s"),
    "constructions.witt.self_s": ("constructions.witt", "self_s", "s"),
    "constructions.spectrum.self_s": ("constructions.spectrum", "self_s", "s"),
    "bounds.table2.self_s": ("bounds.table2", "self_s", "s"),
    "bounds.feasible.calls": ("bounds.feasible", "calls", "count"),
}


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from a tracer's counters; a
    layer that never ran reads 0."""
    out = {}
    for name, (layer, key, unit) in METRICS.items():
        s = stats.get(layer, {})
        if isinstance(key, tuple):
            num, den = s.get(key[0], 0), s.get(key[1], 0)
            out[name] = (num / den if den else 0.0, unit)
        else:
            out[name] = (s.get(key, 0), unit)
    return out
