"""Span recorder wrapped around the public callables of each layer, and the
per-layer metrics computed from its spans.

The recorder changes nothing in the package: it replaces module and class
attributes with timing wrappers.  A function is replaced under every name
that holds it in a ``periodforge`` module, because ``engine`` binds
``build_measure`` and ``graphcomplex`` binds ``canonical_form`` at import
time and call them through their own globals.

A span is ``[id, parent, op, name, start, end, count, meta]``: ``parent`` is
the id of the enclosing span (-1 at top level), ``op`` the index of the
operation in the workload, ``count`` the work the call did (masks, samples,
points, shards, classes, non-zeros) and ``meta`` a small key where the
analysis needs one.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict


def _shards(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return -(-a["samples"] // a["shard_size"]), None
    return count


def _length(args, kwargs, out):
    return len(out), None


def _gc_level(args, kwargs, out):
    return len(out), list(args[:2])


# (module, attribute or Class.method, span name, work counter)
TARGETS = [
    ("tropical", "build_measure", "tropical.build_measure",
     lambda a, k, out: (1 << a[0].ne, None)),
    ("tropical", "TropicalSampler.__init__", "tropical.sampler_init", None),
    ("tropical", "TropicalSampler.sample", "tropical.sample",
     lambda a, k, out: (a[2], None)),
    ("forms", "BatchedGraphFormEvaluator.__init__", "forms.evaluator_init",
     None),
    ("forms", "BatchedGraphFormEvaluator.integrand_values", "forms.evaluate",
     lambda a, k, out: (a[1].shape[0], None)),
    ("engine", "integrate", "engine.integrate", _shards),
    ("graphs", "enumerate_gc_graphs", "graphs.enumerate_gc", _gc_level),
    ("graphs", "enumerate_stable_weighted", "graphs.enumerate_stable",
     _length),
    ("canonical", "canonical_form", "canonical.canonical_form", None),
    ("canonical", "automorphism_edge_group", "canonical.automorphism", None),
    ("graphcomplex", "gc_basis", "graphcomplex.basis", _length),
    ("graphcomplex", "differential_matrix", "graphcomplex.differential",
     _length),
    ("graphcomplex", "matrix_rank", "graphcomplex.rank", None),
    ("graphcomplex", "homology_report", "graphcomplex.report", None),
]


class SpanRecorder:
    """Keeps spans in memory; ``dump`` writes them when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name,
                    clock(), 0.0, 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    span[6], span[7] = counter(args, kwargs, out)
                return out
            finally:
                span[5] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        """Wrap every target under each name that holds it."""
        import periodforge.engine  # noqa: F401  (imports every layer)

        mods = {name: sys.modules[f"periodforge.{name}"] for name in
                ("tropical", "forms", "engine", "graphs", "canonical",
                 "graphcomplex")}
        for modname, attr, name, counter in TARGETS:
            owner = mods[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            if counter is _shards:
                counter = _shards(fn)
            wrapped = self.wrap(name, fn, counter)
            setattr(owner, attr, wrapped)
            for mod in [m for n, m in sys.modules.items()
                        if n.split(".")[0] == "periodforge"]:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    def dump(self, path: str, extra: dict) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def load(path: str) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer times, counts and ratios from one traced pass.

    Self time is a span's duration minus the durations of its child spans
    (calls are nested and single-threaded, so children never overlap).
    """
    dur = [s[5] - s[4] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            self_t[s[1]] -= d
    name = [s[3] for s in spans]
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s, d, st in zip(spans, dur, self_t):
        total[s[3]] += d
        own[s[3]] += st
        calls[s[3]] += 1
        work[s[3]] += s[6]

    def parent_name(s):
        return name[s[1]] if s[1] >= 0 else ""

    # canonical labels made inside enumeration, and inside parity lookups
    enum_labels = stable_labels = lookups = 0
    stable_label_s = 0.0
    for s, d in zip(spans, dur):
        if s[3] != "canonical.canonical_form":
            continue
        p = parent_name(s)
        if p == "graphs.enumerate_gc":
            enum_labels += 1
        elif p == "graphs.enumerate_stable":
            stable_labels += 1
            stable_label_s += d
        elif p.startswith("graphcomplex."):
            lookups += 1
    simple_classes = {tuple(s[7]): s[6] for s in spans
                      if s[3] == "graphs.enumerate_gc"}
    basis_total = sum(s[6] for s in spans if s[3] == "graphcomplex.basis"
                      and parent_name(s) == "graphcomplex.report")

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    prep_s = total["tropical.build_measure"] + total["tropical.sampler_init"]
    return {
        "tropical.build_measure_s": total["tropical.build_measure"],
        "tropical.sampler_init_s": total["tropical.sampler_init"],
        "tropical.masks": work["tropical.build_measure"],
        "tropical.us_per_mask": ratio(prep_s, work["tropical.build_measure"],
                                      1e6),
        "tropical.sample_s": total["tropical.sample"],
        "tropical.samples": work["tropical.sample"],
        "forms.evaluate_s": total["forms.evaluate"],
        "forms.evaluator_init_s": total["forms.evaluator_init"],
        "forms.points": work["forms.evaluate"],
        "forms.us_per_point": ratio(total["forms.evaluate"],
                                    work["forms.evaluate"], 1e6),
        "engine.integrate_s": total["engine.integrate"],
        "engine.self_s": own["engine.integrate"],
        "engine.shards": work["engine.integrate"],
        "graphs.enumerate_gc_s": own["graphs.enumerate_gc"],
        "graphs.enumerate_stable_s": own["graphs.enumerate_stable"],
        "graphs.gc_yield": ratio(sum(simple_classes.values()), enum_labels),
        "canonical.canonical_form_s": total["canonical.canonical_form"],
        "canonical.canonical_form_calls": calls["canonical.canonical_form"],
        "canonical.us_per_label": ratio(total["canonical.canonical_form"],
                                        calls["canonical.canonical_form"],
                                        1e6),
        "canonical.stable_form_s": stable_label_s,
        "canonical.stable_form_calls": stable_labels,
        "canonical.automorphism_s": total["canonical.automorphism"],
        "canonical.automorphism_calls": calls["canonical.automorphism"],
        "graphcomplex.basis_s": own["graphcomplex.basis"],
        "graphcomplex.differential_s": own["graphcomplex.differential"],
        "graphcomplex.rank_s": own["graphcomplex.rank"],
        "graphcomplex.gc_basis_calls": calls["graphcomplex.basis"],
        "graphcomplex.parity_hit_ratio": (
            1.0 - ratio(calls["canonical.automorphism"], lookups)
            if lookups else 0.0),
        "graphcomplex.basis_total": basis_total,
        "graphcomplex.nnz": work["graphcomplex.differential"],
        "trace.wall_s": wall_s,
        "trace.outside_s": wall_s - sum(own.values()),
        "trace.spans": len(spans),
    }


# Counts that depend only on the code and the inputs, never on timing.
EXACT_COUNTS = ("canonical.canonical_form_calls",
                "canonical.automorphism_calls", "tropical.masks",
                "forms.points", "engine.shards",
                "graphcomplex.gc_basis_calls")

