"""Span tracer for one traced CLI invocation.

Run as ``python perfbench/tracer.py SUMMARY.json <k3lat arguments...>`` with
``src`` on ``PYTHONPATH``.  It imports ``k3lat.cli``, replaces every public
function of each layer module, and the public methods of ``BinForm``,
``HomPoly`` and ``BinaryField.__init__``, with a timing wrapper at every
module attribute that binds them (``cli`` binds ``is_splitting``,
``recognize`` binds ``scan_splitting_lines``, ``lattice_core`` binds
``det``, the package ``__init__`` files bind most of them), runs the CLI,
restores the originals and writes per-function calls, self and total time
plus the work counters to SUMMARY.json.  The exit code is the CLI's.

Spans are kept in memory, one per call, with the id of the span that was
open when the call began; a function's self time is its duration minus the
durations of its child spans.  A recursive activation adds to ``calls`` and
to the caller's child time but not again to ``total_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "k3lat.cli",
    "k3lat.exact_arith",
    "k3lat.lattice_core",
    "k3lat.root_systems",
    "k3lat.ns_glue",
    "k3lat.char2_surfaces.field",
    "k3lat.char2_surfaces.poly",
    "k3lat.char2_surfaces.surfaces",
    "k3lat.char2_surfaces.recognize",
)

# (module, class) pairs whose public methods are wrapped as well
TRACED_CLASSES = (
    ("k3lat.char2_surfaces.poly", "BinForm"),
    ("k3lat.char2_surfaces.poly", "HomPoly"),
)

# BinaryField.__init__ builds the log/antilog tables
TRACED_INITS = (("k3lat.char2_surfaces.field", "BinaryField"),)

# Per-line incidence helpers of the lines_through filter: 590,000 calls per
# GF(256) surface, which would multiply the traced op's time.  Their time
# stays in lines_through's self time.
UNTRACED = {"k3lat.char2_surfaces.surfaces": {"point_on_line", "all_lines"}}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Wraps the layer functions, records spans and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.sid: array = array("q")
        self.parent: array = array("q")
        self.fn: array = array("i")
        self.dur: array = array("d")
        self.nested: array = array("b")
        self.stack: list[int] = [-1]
        self.active: list[int] = []
        self.next_id = 0
        self.counters: dict[str, int] = {}
        self.class_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, idx: int) -> tuple[int, int]:
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1]
        self.active[idx] += 1
        return sid, parent

    def _close(self, sid: int, parent: int, idx: int, dur: float) -> None:
        self.active[idx] -= 1
        self.sid.append(sid)
        self.parent.append(parent)
        self.fn.append(idx)
        self.dur.append(dur)
        self.nested.append(1 if self.active[idx] else 0)

    def _count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.active.append(0)
        observe = _OBSERVERS.get(name)
        stack = self.stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def timed_iter(it, sid, parent):
                n = 0
                dur = 0.0
                try:
                    while True:
                        stack.append(sid)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dur += perf_counter() - t0
                            stack.pop()
                        n += 1
                        yield item
                finally:
                    tracer._close(sid, parent, idx, dur)
                    tracer._count(f"{name}.yielded", n)

            def wrapper(*args, **kwargs):
                sid, parent = tracer._open(idx)
                return timed_iter(fn(*args, **kwargs), sid, parent)
        else:
            def wrapper(*args, **kwargs):
                sid, parent = tracer._open(idx)
                stack.append(sid)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    tracer._close(sid, parent, idx, dur)
                if observe is not None:
                    observe(tracer, fn, args, kwargs, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for mod_name in LAYERS:
            mod = sys.modules[mod_name]
            skip = UNTRACED.get(mod_name, set())
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{_short(mod_name)}.{attr}", obj))
        # every module attribute bound to a wrapped function, import sites included
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "k3lat" and not mod_name.startswith("k3lat."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules[mod_name], cls_name)
            for attr, raw in sorted(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{_short(mod_name)}.{cls_name}.{attr}"
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__))
                elif inspect.isfunction(raw):
                    replacement = self._wrap(name, raw)
                else:
                    continue
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, replacement)
        for mod_name, cls_name in TRACED_INITS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = vars(cls)["__init__"]
            self._restore.append((cls, "__init__", raw))
            setattr(cls, "__init__", self._wrap(f"{_short(mod_name)}.{cls_name}.init", raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        n = self.next_id
        fn_of = array("i", [-1]) * n
        child = array("d", [0.0]) * n
        for sid, parent, idx, dur in zip(self.sid, self.parent, self.fn, self.dur):
            fn_of[sid] = idx
            if parent >= 0:
                child[parent] += dur
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        index = {name: i for i, name in enumerate(self.names)}
        scan = index.get("surfaces.scan_splitting_lines", -2)
        splitting = index.get("surfaces.is_splitting", -2)
        lines_tested = 0
        for sid, parent, idx, dur, nested in zip(
            self.sid, self.parent, self.fn, self.dur, self.nested
        ):
            st = stats[self.names[idx]]
            st["calls"] += 1
            st["self_s"] += dur - child[sid]
            if not nested:
                st["total_s"] += dur
            if idx == splitting and parent >= 0 and fn_of[parent] == scan:
                lines_tested += 1
        counters = dict(self.counters)
        counters["surfaces.scan_splitting_lines.lines_tested"] = lines_tested
        counters["root_systems.bounded_class_minimizers.distinct_keys"] = len(self.class_keys)
        return {"functions": stats, "counters": counters}


# ---------------------------------------------------------------------------
# work counters read off the arguments and results at the layer boundary
# ---------------------------------------------------------------------------

def _class_key(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    roots = a.get("positivity_roots")
    tracer.class_keys.add(
        (a["lattice"].gram.entries, a["cls"].component, a.get("box"), roots is None)
    )


_OBSERVERS = {
    "surfaces.singular_points": lambda t, f, a, k, r: t._count(
        "surfaces.singular_points.points", len(r)
    ),
    "surfaces.is_splitting": lambda t, f, a, k, r: t._count(
        "surfaces.is_splitting.hits", r is not None
    ),
    "ns_glue.unique_halfline_search": lambda t, f, a, k, r: t._count(
        "ns_glue.unique_halfline_search.assemblies", r.budget_checked
    ),
    "root_systems.enumerate_roots": lambda t, f, a, k, r: t._count(
        "root_systems.enumerate_roots.roots", len(r)
    ),
    "root_systems.bounded_class_minimizers": _class_key,
}


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import k3lat.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = k3lat.cli.main(cli_argv)
    finally:
        tracer.restore()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
