"""Spans around the calls into each layer's public functions.

``Tracer.install`` wraps every public function of each module of
``quadrica`` (named in its ``__all__`` or exported by the package), on every
module attribute that refers to it: inside
the package (``quadrica.quadratic.gr`` as well as ``quadrica.modules.gr``)
and in the benchmark's own modules.  A span records its name, start, end,
parent span and operation id; spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import prod
from pathlib import Path

LAYERS = ("config", "groups", "rings", "verdict", "squarering", "modules",
          "quadratic", "naive", "examples", "serialize", "cli")


def _law_cells(args, kwargs) -> int:
    """Grid cells a ``law_failures`` call evaluates, from dims and stride."""
    dims = [int(d) for d in (kwargs["dims"] if "dims" in kwargs else args[1])]
    stride = int(kwargs.get("stride", 1))
    if not dims:
        return 1
    return -(-dims[0] // stride) * prod(dims[1:])


# what a span counts, by function: computed from the arguments and result
EXTRA = {
    "verdict.law_failures": lambda a, k, out: _law_cells(a, k),
    "quadratic.batch_cp_quadratic": lambda a, k, out: len(a[2] if len(a) > 2 else k["tables"]),
    "quadratic.batch_bhp_quadratic": lambda a, k, out: len(a[2] if len(a) > 2 else k["tables"]),
    "quadratic.enumerate_cp_quadratic": lambda a, k, out: len(out),
    "modules.gr": lambda a, k, out: hash(a[0]),
    "serialize.dumps": lambda a, k, out: len(out.encode()),
    "serialize.loads": lambda a, k, out: len(a[0].encode()),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op, extra]
        self.stack: list = []
        self.op = None  # (round, index of the operation or "setup")
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self.stack, EXTRA.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        return span

    def install(self, own_modules=()) -> None:
        # public: in a layer's __all__ or exported by the package
        # (``batch_bhp_quadratic`` is only the latter)
        targets = {}
        package = sys.modules["quadrica"]
        for layer in LAYERS:
            mod = sys.modules[f"quadrica.{layer}"]
            names = set(getattr(mod, "__all__", ())) | set(vars(package))
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "quadrica" or n.startswith("quadrica.")] + list(own_modules)
        wrappers: dict = {}
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                # a value may itself wrap a target (the hom workload's capture)
                inner = getattr(value, "__wrapped__", value) if callable(value) else value
                hit = targets.get(id(value)) or targets.get(id(inner))
                if hit is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(hit[0], value)
                self._patched.append((holder, attr, value))
                setattr(holder, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """One JSON array per line: id, name, start_ns, end_ns, parent id
        (-1 at the top) and operation id ("r<round>:<index>" or
        "r<round>:setup")."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _extra) in enumerate(self.spans):
                op_id = None if op is None else f"r{op[0]}:{op[1]}"
                fh.write(json.dumps([i, name, start, end, parent, op_id]) + "\n")


def _outermost(spans, names) -> list:
    """Spans with one of ``names`` and no ancestor among them."""
    out = []
    for rec in spans:
        if rec[0] not in names:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(rec)
    return out


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics, each a per-round value: counts, seconds (inclusive
    where the name says ``_s``, self time where it says ``self_s``) and ratios."""
    children = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]] += rec[2] - rec[1]
    by_name: dict = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names):
        return sum(spans[i][2] - spans[i][1] - children[i]
                   for n in names for i in by_name.get(n, ())) / 1e9

    def incl_s(*names):
        return sum(r[2] - r[1] for r in _outermost(spans, set(names))) / 1e9

    def extra(*names, parent=None):
        return sum(spans[i][5] for n in names for i in by_name.get(n, ())
                   if parent is None or (spans[i][3] >= 0 and spans[spans[i][3]][0] == parent))

    def layer_self_s(layer):
        return self_s(*[n for n in by_name if n.startswith(layer + ".")])

    def ratio(a, b):
        return a / b if b else 0.0

    verdict_cells = extra("verdict.law_failures")
    batch = ("quadratic.batch_cp_quadratic", "quadratic.batch_bhp_quadratic")
    leaves = extra(*batch, parent="quadratic.enumerate_cp_quadratic")
    gr_calls = count("modules.gr")
    m = {
        "examples.build_s": (incl_s("examples.build_example"), "s"),
        "squarering.operad_calls": (count("squarering.operad_of", "squarering.cokernel_p"), "count"),
        "squarering.operad_s": (incl_s("squarering.operad_of", "squarering.cokernel_p"), "s"),
        "modules.gr_calls": (gr_calls, "count"),
        "modules.gr_s": (incl_s("modules.gr"), "s"),
        "modules.gr_distinct_ratio": (
            ratio(len({(spans[i][4] or (None,))[0:1] + (spans[i][5],)
                       for i in by_name.get("modules.gr", ())}), gr_calls),
            "ratio"),
        "modules.verify_calls": (count("modules.verify_bhp_module", "modules.verify_cp_module"), "count"),
        "modules.verify_s": (incl_s("modules.verify_bhp_module", "modules.verify_cp_module"), "s"),
        "verdict.sweeps": (count("verdict.law_failures"), "count"),
        "verdict.cells": (verdict_cells, "count"),
        "verdict.self_s": (layer_self_s("verdict"), "s"),
        "verdict.cells_per_sweep": (ratio(verdict_cells, count("verdict.law_failures")), "count"),
        "verdict.ns_per_cell": (ratio(layer_self_s("verdict") * 1e9, verdict_cells), "ns"),
        "quadratic.cert_calls": (count("quadratic.is_cp_quadratic", "quadratic.is_bhp_quadratic"), "count"),
        "quadratic.cert_self_s": (self_s("quadratic.is_cp_quadratic", "quadratic.is_bhp_quadratic"), "s"),
        "quadratic.batch_candidates": (extra(*batch), "count"),
        "quadratic.batch_self_s": (self_s(*batch), "s"),
        "quadratic.batch_ns_per_candidate": (ratio(self_s(*batch) * 1e9, extra(*batch)), "ns"),
        "quadratic.enum_leaves": (leaves, "count"),
        "quadratic.enum_accept_ratio": (ratio(extra("quadratic.enumerate_cp_quadratic"), leaves), "ratio"),
        "quadratic.enum_self_s": (self_s("quadratic.enumerate_cp_quadratic"), "s"),
        "quadratic.hom_self_s": (self_s("quadratic.hom_module"), "s"),
        "quadratic.compose_self_s": (self_s("quadratic.compose_quadratic"), "s"),
        "quadratic.three_defects_s": (incl_s("quadratic.three_defects_check"), "s"),
        "serialize.self_s": (layer_self_s("serialize"), "s"),
        "serialize.bytes": (extra("serialize.dumps", "serialize.loads"), "B"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
    # ratios stay as they are; counts and seconds become per-round values
    return {name: (value if unit in ("ratio", "ns") or name.endswith("per_sweep")
                   else value / rounds, unit)
            for name, (value, unit) in m.items()}
