"""Span tracing of the ringsense layers, installed only for a traced run.

The tracer wraps, by introspection, every public module-level function of
each layer module plus ``CorrespondenceSet.__init__``, and patches the
wrapper into every ``ringsense`` module that imported the name (``cli``
imports ``estimate_pose`` from ``pnp``, ``simulator`` imports
``project_points`` from ``geometry``, ...). A function added to a layer
later gets a span without an edit here.

Each wrapped call records one span ``(name, start_ns, end_ns, parent,
frame)`` in memory. ``parent`` is the index of the enclosing span (-1 at
top level) and ``frame`` is the frame id the workload set on the tracer
when the call started (-1 where the workload cannot see frame boundaries,
as inside one CLI command). Self time is a span's duration minus the time
covered by its children.

LM statistics are read from the estimates the ``pnp`` layer returns to its
callers (a ``pnp`` span whose parent is not a ``pnp`` span), not from the
number of ``refine_lm`` calls, so they stay valid when estimation is
batched or restructured.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYER_MODULES = (
    "geometry", "layout", "pnp", "simulator",
    "calibration", "sensitivity", "contact", "cli",
)
# Methods traced besides the module-level functions: (module, class, method).
EXTRA_METHODS = (("pnp", "CorrespondenceSet", "__init__"),)

NAME, START, END, PARENT, FRAME = range(5)


class Tracer:
    """Records spans of wrapped calls; install() patches, restore() undoes."""

    def __init__(self) -> None:
        # One column per span field: recording a span then allocates no
        # container that the garbage collector would have to traverse.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.frame_ids: list[int] = []
        self.frame = -1
        # (iterations_used, accepted_steps, converged) per returned estimate.
        self.estimates: list[tuple[int, int, bool]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple[str, int, int, int, int]]:
        """(name, start_ns, end_ns, parent, frame) per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.frame_ids))

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, frame_ids, stack, tracer = self.parents, self.frame_ids, self._stack, self
        is_pnp = name.startswith("pnp.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            frame_ids.append(tracer.frame)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if is_pnp and (parent < 0 or not names[parent].startswith("pnp.")):
                tracer._record_estimates(result)
            return result

        return traced

    def _record_estimates(self, result) -> None:
        for est in result if isinstance(result, (list, tuple)) else (result,):
            if hasattr(est, "iterations_used") and hasattr(est, "cost_trace"):
                self.estimates.append(
                    (int(est.iterations_used), len(est.cost_trace) - 1, bool(est.converged)))

    def install(self, package: str = "ringsense") -> None:
        """Wrap every public function of the layer modules of ``package``
        and every module attribute that refers to one of them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules.get(f"{package}.{short}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replacements[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for short, cls_name, method in EXTRA_METHODS:
            cls = getattr(sys.modules.get(f"{package}.{short}"), cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is not None:
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", original))

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV: name, start_ns, end_ns, parent, frame."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tframe\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[FRAME]}\n")


def self_times_ns(spans) -> list[int]:
    """Per-span self time: duration minus the union of its children's
    intervals (children are clipped to the parent's interval)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s[END] - s[START] - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total inclusive ns and total self ns."""
    selfs = self_times_ns(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for s, self_ns in zip(spans, selfs):
        row = table[s[NAME]]
        row["calls"] += 1
        row["total_ns"] += s[END] - s[START]
        row["self_ns"] += self_ns
    return dict(table)
