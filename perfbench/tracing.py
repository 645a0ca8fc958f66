"""Span recorder for the traced benchmark run.

``Tracer.install()`` wraps the public functions and methods of every
``metricdp`` module listed in ``TARGETS``.  A wrapped function is replaced
wherever the package binds it, so the names other modules imported (the
CLI's ``audit_privacy``, the package's ``FiniteMetricSpace`` methods) are
traced too.  ``uninstall()`` puts the originals back, so untraced
operations run the library exactly as shipped.

Each span is ``(name, op, parent, start, end)``: spans of one operation
share ``op``, and ``parent`` is the index of the enclosing span.  Spans stay
in memory until ``dump``.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spaces", "measures", "covering", "mechanisms", "audit", "formats", "cli")


def _validate(c, args, kwargs, result):
    n = int(np.shape(args[0])[0])
    c["spaces.validate_calls"] += 1
    c["spaces.triples"] += n * (n - 1) * (n - 2)


def _covering(c, args, kwargs, result):
    hier = result[1]
    c["covering.depth"] += hier.depth
    c["covering.centers"] += sum(level.size for level in hier.levels)


def _tabulate(c, args, kwargs, result):
    n, m = result.probs.shape
    c["mechanisms.cells"] += n * m


def _privacy(c, args, kwargs, result):
    n, m = args[0].probs.shape
    c["audit.cells"] += n * (n - 1) * m
    c["audit.audits"] += 1
    c["audit.infs"] += math.isinf(result.epsilon_max)


def _load(c, args, kwargs, result):
    if isinstance(args[0], str):
        c["formats.bytes_read"] += os.path.getsize(args[0])


def _write(c, args, kwargs, result):
    c["formats.bytes_written"] += os.path.getsize(args[0])


def _command(c, args, kwargs, result):
    c["cli.commands"] += 1


# (module, attribute or Class.method, counter hook): the entry points the
# workloads and the other layers call.  Helpers called only from inside
# their own layer are left unwrapped; their time stays in the caller's
# span, which is in the same layer.
TARGETS = (
    ("spaces", "validate_metric", _validate),
    ("spaces", "lipschitz_constant", None),
    ("spaces", "identity_map", None),
    ("spaces", "FiniteMetricSpace.__init__", None),
    ("spaces", "LipschitzMap.__init__", None),
    ("measures", "DiscreteMeasure.__init__", None),
    ("measures", "DiscreteMeasure.modulus", None),
    ("covering", "covering_measure", _covering),
    ("mechanisms", "calibrate_beta", None),
    ("mechanisms", "tabulate", _tabulate),
    ("mechanisms", "sample_many", None),
    ("mechanisms", "MechanismTable.__init__", None),
    ("audit", "audit_privacy", _privacy),
    ("audit", "audit_utility", None),
    ("audit", "impossibility_lower_bound", None),
    ("audit", "propose_centers", None),
    ("formats", "load_doc", _load),
    ("formats", "write_doc", _write),
    ("formats", "space_from_doc", None),
    ("formats", "measure_from_doc", None),
    ("formats", "map_from_doc", None),
    ("formats", "table_from_doc", None),
    ("formats", "space_to_doc", None),
    ("formats", "table_to_doc", None),
    ("formats", "hierarchy_to_doc", None),
    ("cli", "main", _command),
)

# Per-operation inclusive times of the named spans.
TIMERS = {
    "spaces.validate_ms": {"spaces.validate_metric"},
    "spaces.lipschitz_ms": {"spaces.lipschitz_constant"},
    "measures.modulus_ms": {"measures.DiscreteMeasure.modulus"},
    "covering.measure_ms": {"covering.covering_measure"},
    "mechanisms.tabulate_ms": {"mechanisms.tabulate"},
    "mechanisms.sample_ms": {"mechanisms.sample_many"},
    "audit.privacy_ms": {"audit.audit_privacy"},
    "audit.utility_ms": {"audit.audit_utility"},
    "audit.lower_bound_ms": {"audit.impossibility_lower_bound", "audit.propose_centers"},
    "formats.dump_ms": {"formats.write_doc"},
    "formats.load_ms": {"formats.load_doc"},
}
COUNTERS = ("spaces.validate_calls", "spaces.triples", "covering.depth", "covering.centers",
            "mechanisms.cells", "audit.cells", "formats.bytes_written", "formats.bytes_read",
            "cli.commands")


class Tracer:
    """Spans and counters of the wrapped library calls, filed under the
    operation in ``op``."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = [name, op, parent, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters[op], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "metricdp" or name.startswith("metricdp."))]
        for module_name, attr, hook in TARGETS:
            module = importlib.import_module(f"metricdp.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, hook))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def per_op_metrics(self, ops) -> dict:
        """Mean per-operation value of every layer metric over ``ops``."""
        ops = set(ops)
        chosen = [i for i, s in enumerate(self.spans) if s[1] in ops]
        child_time = defaultdict(float)
        for i in chosen:
            _, _, parent, start, end = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i in chosen:
            name, _, _, start, end = self.spans[i]
            totals[name.split(".")[0] + ".self_ms"] += (end - start - child_time[i]) * 1e3
        for metric, names in TIMERS.items():
            for i in chosen:
                name, _, _, start, end = self.spans[i]
                if name in names:
                    totals[metric] += (end - start) * 1e3
        for op in ops:
            for key, value in self.counters[op].items():
                totals[key] += value
        audits = totals.pop("audit.audits", 0.0)
        infs = totals.pop("audit.infs", 0.0)
        count = max(1, len(ops))
        out = {key: totals[key] / count for key in
               [f"{layer}.self_ms" for layer in LAYERS] + list(TIMERS) + list(COUNTERS)}
        out["audit.inf_frac"] = infs / audits if audits else 0.0
        out["trace.spans"] = len(chosen) / count
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end"], "spans": self.spans}, fh)
