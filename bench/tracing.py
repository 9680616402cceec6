"""Per-layer tracing installed from the benchmark, with no change to the library.

``Tracer.install`` wraps every public function and public method of the
traced modules.  A function is replaced in every ``tropgroups`` module
namespace that binds it, so ``la.mat_mul`` and ``from .groups import
build_group`` both reach the wrapper; a method is replaced on its class.

Each wrapper adds to a per-name record of calls and self time: the call's
duration minus the time covered by wrapped calls beneath it.  Hot leaf calls
(``weyl.mul`` and ``intlinalg.mat_mul`` run millions of times per run) are
aggregated there rather than stored as one span each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("weyl", "intlinalg", "circles", "stability", "groups", "semiring", "rootdata", "cli")

# metric layer -> the traced names it sums
LAYER_GROUPS = {
    "semiring.membership": ("semiring.check_symplectic", "semiring.check_orthogonal", "semiring.check_g2"),
}


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, counted outcomes]
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._undo = []
        generate = self.stats.setdefault("weyl.generate", [0, 0.0, 0])
        # name -> (mark taken before the call, whether the call counts as an outcome)
        self._outcomes = {
            "intlinalg.integer_solve": (lambda: None, lambda out, mark: out is not None),
            # a build_group call that misses its cache enumerates a Weyl group
            "groups.build_group": (lambda: generate[0], lambda out, mark: generate[0] > mark),
        }

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        mark_of, counted = self._outcomes.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mark = mark_of() if mark_of else None
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if counted is not None and counted(out, mark):
                stat[2] += 1
            return out

        return traced

    def install(self):
        functions = {}
        for short in MODULES:
            mod = importlib.import_module(f"tropgroups.{short}")
            methods = []
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = f"{short}.{name}"
                elif inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            methods.append((obj, attr, raw, fn))
            # a method is named module.method unless that name is taken in the module
            taken = {fn.__name__ for fn, full in functions.items() if full.startswith(f"{short}.")}
            counts = {}
            for _, attr, _, _ in methods:
                counts[attr] = counts.get(attr, 0) + 1
            for cls, attr, raw, fn in methods:
                unique = counts[attr] == 1 and attr not in taken
                name = f"{short}.{attr}" if unique else f"{short}.{cls.__name__}.{attr}"
                wrapped = self._wrap(name, fn)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(wrapped)
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, raw))
        wrappers = {fn: self._wrap(name, fn) for fn, name in functions.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "tropgroups" and not modname.startswith("tropgroups."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._undo.append((mod, name, obj))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def layer_value(metric: str, stats: dict, overhead_ratio: float):
    """Value of a per-layer metric `<layer>.<calls|self_s|hit_ratio|miss_ratio>`."""
    if metric == "trace.overhead_ratio":
        return overhead_ratio
    layer, kind = metric.rsplit(".", 1)
    records = [stats.get(name, (0, 0.0, 0)) for name in LAYER_GROUPS.get(layer, (layer,))]
    calls = sum(r[0] for r in records)
    if kind == "calls":
        return calls
    if kind == "self_s":
        return sum(r[1] for r in records)
    if kind in ("hit_ratio", "miss_ratio"):
        return sum(r[2] for r in records) / calls if calls else 0.0
    raise ValueError(f"unknown per-layer statistic in {metric!r}")
