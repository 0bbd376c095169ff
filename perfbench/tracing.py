"""Spans around the public functions of each projlat module.

install() wraps every traced function once and rebinds the wrapper wherever
projlat holds the original: in the defining module, in every module that
imported it by name, and in module-level tables such as the CLI's builtin
list. ProjectionPoset.meet_index and join_index are wrapped on the class.

A span's self time is its duration minus the time covered by traced spans
it called. Several functions may share one span name; their times and
calls add up.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _entries(tracer, result):
    payload = result.payload
    tracer.counts["backend.tensor.out_entries"] += (
        payload.size if isinstance(payload, np.ndarray) else len(payload)
    )


def _closed_sets(tracer, result):
    tracer.counts["groupoid.closed_sets"] += len(result)


def _poset_pairs(tracer, result):
    tracer.counts["order.poset_pairs"] += result.n * (result.n - 1) // 2


def _bi_order_checks(tracer, result):
    tracer.counts["tensoralg.bi_order.checks"] += (
        result.interchange_checked + result.order_checked + result.orthogonality_checked
    )


# (span name, module, functions, counter fed with each result)
SPANS = (
    ("backend.tensor", "backend", ("tensor",), _entries),
    ("backend.compose", "backend", ("compose",), None),
    ("backend.equal", "backend", ("equal", "residual"), None),
    ("frobenius.check_axioms", "frobenius", ("check_axioms",), None),
    ("frobenius.mult_points", "frobenius", ("mult_points",), None),
    ("frobenius.is_projection", "frobenius", ("is_projection",), None),
    ("cstar.algebra", "cstar", ("pants_algebra", "basis_algebra", "direct_sum"), None),
    ("cstar.zero_one_points", "cstar", ("zero_one_points",), None),
    ("groupoid.validate", "groupoid", ("validate", "groupoid_violations"), None),
    ("groupoid.enumerate_subgroupoids", "groupoid", ("enumerate_subgroupoids",), _closed_sets),
    ("groupoid.brute_force_subgroupoids", "groupoid", ("brute_force_subgroupoids",), None),
    ("groupoid.enumerate_copyables", "groupoid", ("enumerate_copyables",), None),
    ("order.build_poset", "order", ("build_poset",), _poset_pairs),
    ("order.inclusion_poset", "order", ("inclusion_poset",), _poset_pairs),
    ("order.lattice_report", "order", ("lattice_report",), None),
    ("order.commute_glb_equivalence", "order", ("commute_glb_equivalence",), None),
    ("order.hasse_edges", "order", ("hasse_edges",), None),
    ("tensoralg.tensor_algebras", "tensoralg", ("tensor_algebras",), None),
    ("tensoralg.bi_order_check", "tensoralg", ("bi_order_check",), _bi_order_checks),
    ("serialize.load", "serialize", ("load_json", "detect_document", "algebra_from_doc"), None),
    ("serialize.dump_json", "serialize", ("dump_json",), None),
)

COUNTS = (
    "backend.tensor.out_entries",
    "groupoid.closed_sets",
    "order.poset_pairs",
    "tensoralg.bi_order.checks",
)

METHOD_SPANS = (("order.meet_join", "order", "ProjectionPoset", ("meet_index", "join_index")),)

ROOT = "cli"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._child_s = []  # time of traced children, one slot per open span

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if counter is not None:
                counter(self, result)
            return result

        return span


def _rebind(value, wrappers):
    """value with every traced function replaced by its wrapper, or None if unchanged."""
    if isinstance(value, tuple):
        items = [_rebind(v, wrappers) for v in value]
        if all(v is None for v in items):
            return None
        return tuple(v if n is None else n for v, n in zip(value, items))
    if isinstance(value, dict):
        for k, v in list(value.items()):
            new = _rebind(v, wrappers)
            if new is not None:
                value[k] = new
        return None
    return wrappers.get(id(value))


def install(package: str = "projlat") -> Tracer:
    """Wrap the traced functions of an imported package; returns the tracer."""
    tracer = Tracer()
    wrappers = {}
    for name, module, functions, counter in SPANS:
        mod = sys.modules[f"{package}.{module}"]
        for fn_name in functions:
            fn = getattr(mod, fn_name)
            wrappers[id(fn)] = tracer.wrap(name, fn, counter)
    for name, module, cls_name, methods in METHOD_SPANS:
        cls = getattr(sys.modules[f"{package}.{module}"], cls_name)
        for m in methods:
            setattr(cls, m, tracer.wrap(name, getattr(cls, m)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            new = _rebind(value, wrappers)
            if new is not None:
                setattr(mod, attr, new)
    return tracer


def report(tracer: Tracer) -> dict:
    """Per-job layer figures, keyed by metric name."""
    out = {}
    for name, *_ in SPANS + METHOD_SPANS + ((ROOT,),):
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    out.update(tracer.counts)
    return out
