"""In-memory span recorder for the traced benchmark run.

Each layer of ``asmkit`` is a module.  Tracing replaces the name bindings of
selected public functions in the modules that call them, so that every call
through such a binding records a span (name, start, end, parent).  A
function's binding in its own module is left alone when the function calls
itself, so recursive ``evaluate_term`` calls get no span of their own.
Generator functions record one span per resumption, so a span never stays
open while the caller runs.

Spans live in flat arrays until the run ends; ``write`` stores them in a
binary file that ``load`` reads back.  Nothing under ``src/`` changes.
"""
from __future__ import annotations

import inspect
import json
import math
import time
from array import array
from pathlib import Path

# (defining module, function name), in layer order.
TRACED = (
    ("kernel", "apply_renaming"),
    ("kernel", "evaluate_term"),
    ("kernel", "isomorphisms_between"),
    ("transition", "step"),
    ("transition", "locate"),
    ("transition", "apply_rule"),
    ("transition", "lift_update_set"),
    ("similarity", "similarity_function"),
    ("postulates", "closure"),
    ("postulates", "check_sequential_time"),
    ("postulates", "check_abstract_state"),
    ("postulates", "check_old_be"),
    ("postulates", "check_new_be"),
    ("harness", "verify_equivalence"),
    ("harness", "construct_case1_state"),
    ("harness", "construct_disjoint_copy"),
    ("harness", "generate_algorithm_suite"),
    ("specfmt", "parse_spec"),
    ("cli", "main"),
)
MODULES = ("kernel", "transition", "similarity", "postulates", "harness", "scenarios", "specfmt", "cli")
SELF_RECURSIVE = {("kernel", "evaluate_term")}


class Tracer:
    """Span arrays plus per-name call counts and the closure's copy counters."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{f}" for m, f in TRACED]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls = [0] * len(self.names)
        self.closure_copies = 0
        self.closure_tried = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id: int):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                tracer.calls[name_id] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item
            return traced_generator

        counts_copies = tracer.names[name_id] == "postulates.closure"

        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts_copies:
                tracer._count_closure(args, kwargs, result)
            return result
        return traced

    def _count_closure(self, args, kwargs, result) -> None:
        # Every caller passes (algorithm, universe_size) positionally.
        algorithm, universe_size = args
        self.closure_copies += len(result)
        self.closure_tried += sum(
            math.perm(universe_size - 3, len(s.nonlogical_elements()))
            for s in algorithm.canonical_states
        )

    # -- installing ------------------------------------------------------
    def install(self, package) -> None:
        """Wrap every binding of each traced function in the package's modules."""
        modules = {name: getattr(package, name) for name in MODULES}
        for name_id, (home, fname) in enumerate(TRACED):
            original = getattr(modules[home], fname)
            wrapped = self._wrap(original, name_id)
            for mname, module in modules.items():
                if getattr(module, fname, None) is not original:
                    continue
                if mname == home and (home, fname) in SELF_RECURSIVE:
                    continue
                self._saved.append((module, fname, original))
                setattr(module, fname, wrapped)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    # -- summarising -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-name sum of span duration minus the time of direct children."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = [0.0] * len(self.names)
        for i in range(len(self.start)):
            totals[self.name_of[i]] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path: Path) -> None:
        """Header line of JSON, then the four arrays back to back."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(out)


def load(path: Path) -> dict:
    """Read a span file written by ``Tracer.write``."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(src, header["spans"])
            columns[key] = arr
    return {"names": header["names"], **columns}
