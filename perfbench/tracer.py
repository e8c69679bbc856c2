"""Layer tracing for the listradius benchmark, installed from outside the package.

Run as a script, this file stands in for ``python -m listradius.cli``:

    python perfbench/tracer.py PLAN.json RECORD.json -- <listradius arguments>

It imports the package, wraps the functions named in PLAN.json, runs
``listradius.cli.main`` on the arguments and, when main returns, writes
the spans and counts it kept in memory to RECORD.json.  Stdout, stderr and
the exit code are those of the plain CLI.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent) for every call; they
  serve the coarse functions whose time is reported;
* count wrappers are ``functools.lru_cache(maxsize=0)``, which caches
  nothing and counts every call as a miss in C, so the scalar kernels in
  ``core`` (millions of calls) can be counted at a few percent of cost.

A wrapper replaces the function under every name that refers to it in any
loaded ``listradius`` module, including values of module-level dicts
(``checks.SUITES``), because ``bounds`` and ``lp`` import kernels by name.

The aggregation half of this file (``plan_for`` and ``layer_metrics``) runs
in ``run.py``.
"""
from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import types

SPAN_STATS = ("self_s", "busy_s", "repeat_ratio")

# Spans that no metric reports but that keep cli.main's self time down to
# argument parsing and output formatting: every path from main into the
# computing layers passes through one of these or a reported span.
ATTRIBUTION_SPANS = ("bounds.sample_curve", "checks.run_suite", "oracle.load_code")


def plan_for(metric_names):
    """Which functions to span, count and key for repeats, given the
    per-layer metric names ``<module>.<function>.<stat>``."""
    spans, counts, repeats = set(ATTRIBUTION_SPANS), set(), set()
    for name in metric_names:
        if name.startswith("trace."):
            continue
        target, _, stat = name.rpartition(".")
        if stat in SPAN_STATS:
            spans.add(target)
        if stat == "repeat_ratio":
            repeats.add(target)
        if stat in ("calls", "calls_per_eval"):
            counts.add(target)
    counts -= spans
    return {"span": sorted(spans), "count": sorted(counts), "repeat": sorted(repeats)}


# ---------------------------------------------------------------------------
# child side


def _resolve(target):
    """Function object for ``module.function``; a name that is not a
    function of the module is looked up in ``checks.SUITES``."""
    module_name, _, func_name = target.partition(".")
    module = sys.modules[f"listradius.{module_name}"]
    obj = getattr(module, func_name, None)
    if callable(obj) and not isinstance(obj, (type, types.ModuleType)):
        return obj
    suites = getattr(module, "SUITES", {})
    if func_name in suites:
        return suites[func_name]
    raise LookupError(f"no function {target} to trace")


def _replace_everywhere(original, wrapper):
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "listradius" or mod_name.startswith("listradius.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


class Recorder:
    """Spans and counts of one process, kept in flat arrays until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters = {}
        self.seen = {}
        self.repeats = {}

    def span_wrapper(self, name, fn, key_repeats):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        if key_repeats:
            signature = inspect.signature(fn)
            seen = self.seen.setdefault(name, set())
            self.repeats[name] = 0

        def wrapper(*args, **kwargs):
            if key_repeats:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.items())
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def install(self, plan):
        for target in plan["span"]:
            fn = _resolve(target)
            _replace_everywhere(fn, self.span_wrapper(target, fn, target in plan["repeat"]))
        for target in plan["count"]:
            fn = _resolve(target)
            counter = functools.lru_cache(maxsize=0)(fn)
            self.counters[target] = counter
            _replace_everywhere(fn, counter)

    def record(self):
        return {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "counts": {t: c.cache_info().misses for t, c in self.counters.items()},
            "repeats": self.repeats,
        }


def _child(argv):
    plan_path, record_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py PLAN.json RECORD.json -- ARGS...")
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import listradius.cli

    recorder = Recorder()
    recorder.install(plan)
    try:
        code = listradius.cli.main(cli_args)
    finally:
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.record(), fh)
    return code


# ---------------------------------------------------------------------------
# parent side (run.py)


def _span_totals(record):
    """Per function: call count, inclusive seconds and self seconds."""
    spans = record["spans"]
    start, end, parent, name = spans["start"], spans["end"], spans["parent"], spans["name"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    totals = {n: [0, 0.0, 0.0] for n in record["names"]}
    for i, nid in enumerate(name):
        t = totals[record["names"][nid]]
        t[0] += 1
        t[1] += dur[i]
        t[2] += dur[i] - covered[i]
    return totals


def layer_metrics(records, metric_names):
    """Per-layer metric values summed over the child records of one pass.

    ``trace.*`` metrics are not computed here."""
    calls, busy, self_s, repeats = {}, {}, {}, {}
    for record in records:
        for target, (n, inclusive, own) in _span_totals(record).items():
            calls[target] = calls.get(target, 0) + n
            busy[target] = busy.get(target, 0.0) + inclusive
            self_s[target] = self_s.get(target, 0.0) + own
        for target, n in record["counts"].items():
            calls[target] = calls.get(target, 0) + n
        for target, n in record["repeats"].items():
            repeats[target] = repeats.get(target, 0) + n
    values = {}
    for name in metric_names:
        if name.startswith("trace."):
            continue
        target, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(target, 0)
        elif stat == "self_s":
            values[name] = self_s.get(target, 0.0)
        elif stat == "busy_s":
            values[name] = busy.get(target, 0.0)
        elif stat == "repeat_ratio":
            n = calls.get(target, 0)
            values[name] = repeats.get(target, 0) / n if n else 0.0
        elif stat == "calls_per_eval":
            evals = calls.get("bounds.list_radius_bound", 0)
            values[name] = calls.get(target, 0) / evals if evals else 0.0
        else:
            raise ValueError(f"unknown statistic in metric {name}")
    return values


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
