"""Out-of-program tracer: times every call into the public functions of the
`rainbowposet` modules and aggregates self time per function.

The package rebinds functions with ``from .x import f``, so a function is
wrapped by identity in every ``rainbowposet.*`` namespace it is bound in
(and in module-level tuples and dicts such as the verification registry),
not only in the module that defines it. Spans are folded into per-function
totals as they close, because a traced verify run makes about 670,000
calls: a span's self time is its duration minus the time covered by the
traced spans it caused.

Calls that return a generator are timed until the generator is returned;
iterating it is charged to the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    """Per-function call counts and self/total seconds, plus result counters
    for the few functions whose ratios the benchmark reports."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[0.0]]  # one child-time accumulator per open span
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counters = {}  # name -> {counter: value}

    def wrap(self, name, fn, observe=None):
        """A wrapper of fn that records each call under `name`. `observe`,
        when given, sees (counters, args, kwargs, result) after each call."""
        clock, stack = self.clock, self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced


def _count_exists_copy(counters, args, kwargs, result):
    counters["found"] = counters.get("found", 0) + bool(result)
    counters["colored"] = counters.get("colored", 0) + (kwargs.get("colors") is not None)
    counters["anchored"] = counters.get("anchored", 0) + (kwargs.get("anchor") is not None)


def _count_refuting_coloring(counters, args, kwargs, result):
    counters["refuted"] = counters.get("refuted", 0) + (result is not None)


def _count_greedy_family(counters, args, kwargs, result):
    counters["kept"] = counters.get("kept", 0) + len(result.sets)
    counters["tried"] = counters.get("tried", 0) + (1 << args[0])


OBSERVERS = {
    "_copies.exists_copy": _count_exists_copy,
    "forcing.refuting_coloring": _count_refuting_coloring,
    "families.greedy_pattern_free_family": _count_greedy_family,
}


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "rainbowposet" or name.startswith("rainbowposet."))
    ]


def _is_public_function(value):
    traceable = inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)
    return (
        traceable
        and getattr(value, "__module__", "").startswith("rainbowposet.")
        and not value.__name__.startswith("_")
    )


def _swap(value, wrappers):
    """value with every wrapped function replaced, looking into nested
    tuples, lists and dicts; None when nothing changes."""
    if isinstance(value, (tuple, list)):
        items = [wrappers.get(id(v), _swap(v, wrappers) or v) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    elif isinstance(value, dict):
        items = {k: wrappers.get(id(v), _swap(v, wrappers) or v) for k, v in value.items()}
        if any(items[k] is not value[k] for k in value):
            return items
    return None


def install(tracer):
    """Wrap every public function of the imported `rainbowposet` modules in
    every namespace that binds it. Returns (functions, bindings) counts."""
    modules = _package_modules()
    originals = {}
    for mod in modules:
        for value in vars(mod).values():
            if _is_public_function(value):
                originals[id(value)] = value
    wrappers = {}
    for key, fn in originals.items():
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        wrappers[key] = tracer.wrap(name, fn, OBSERVERS.get(name))
    bindings = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
                bindings += 1
            else:
                swapped = _swap(value, wrappers)
                if swapped is not None:
                    setattr(mod, attr, swapped)
                    bindings += 1
    return len(originals), bindings
