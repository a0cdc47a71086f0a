"""Spans and counters around the package's public functions, installed from
outside: no file of the package changes.

`Tracer.install` wraps every public function defined in the traced
modules, in every module namespace of the package that holds it, plus the
cost classes' value/gradient/hessian/upsilon methods and the scipy root
finder as seen from `agent` and `contracts`.  Each call records a span
(name, start, end, parent span, operation id) in flat arrays; self time is
the span's duration minus the time its child spans cover.  A name that no
longer exists is simply not wrapped, so its metrics read zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("agent", "contracts", "costs", "geometry", "problem_io", "cli",
                  "reproduce")
COST_METHODS = ("value", "gradient", "hessian", "upsilon")
AGENT_SOLVERS = ("agent.best_response_shannon", "agent.best_response_general")


class _OptimizeProxy:
    """Stands in for `scipy.optimize` inside one module, with `root` traced."""

    def __init__(self, real, root):
        self._real = real
        self.root = root

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Wraps the package's public functions and records spans and counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.current_op = -1
        self._stack = []
        self._child = []
        self._open = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._patches = []

    def reset(self):
        """Zero the per-name totals; recorded spans are kept."""
        self.calls.clear()
        self.errors.clear()
        self.self_s.clear()
        self.counters.clear()

    def wrap(self, name, fn, on_result=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name_id.append(nid)
            self.op_id.append(self.current_op)
            self._stack.append(idx)
            self._child.append(0.0)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                t1 = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                child = self._child.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - child
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += t1 - t0
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _agent_result(self, counter):
        def on_result(sol):
            self.counters[counter] += getattr(sol, "iterations", 0)
        return on_result

    def _root_result(self, module):
        def on_result(res):
            self.counters[f"{module}.root_nfev"] += int(getattr(res, "nfev", 0))
        return on_result

    def install(self):
        package = [m for n, m in sys.modules.items()
                   if n == "infocontracts" or n.startswith("infocontracts.")]
        hooks = {
            "agent.best_response_shannon": self._agent_result("agent.logit_iterations"),
            "agent.best_response_general": self._agent_result("agent.general_iterations"),
        }
        for short in TRACED_MODULES:
            module = sys.modules.get(f"infocontracts.{short}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, obj, hooks.get(name))
                if name in AGENT_SOLVERS:
                    traced = self._count_nested(traced)
                for ns in package:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, traced)
            if short == "costs":
                self._wrap_cost_methods(module)
            optimize = vars(module).get("optimize")
            if optimize is not None and hasattr(optimize, "root"):
                root = self.wrap(f"{short}.root", optimize.root, self._root_result(short))
                self._patch(module, "optimize", _OptimizeProxy(optimize, root))

    def _count_nested(self, traced):
        @functools.wraps(traced)
        def counted(*args, **kwargs):
            if self._open["agent.best_response_capacity"]:
                self.counters["agent.capacity_inner_solves"] += 1
            return traced(*args, **kwargs)
        return counted

    def _wrap_cost_methods(self, costs):
        base = getattr(costs, "CostModel", None)
        if base is None:
            return
        classes = [base]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for meth in COST_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(f"costs.{meth}", cls.__dict__[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metric(self, key):
        """Per-layer metric by name: <span>.calls, <span>.self_s,
        <span>.errors, <module>.root_calls, or a named counter."""
        if key.endswith(".root_calls"):
            return self.calls[key[:-len("_calls")]]
        for suffix, table in ((".calls", self.calls), (".errors", self.errors),
                              (".self_s", self.self_s)):
            if key.endswith(suffix):
                return table[key[:-len(suffix)]]
        return self.counters[key]

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), parent=np.frombuffer(self.parent, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            op_id=np.frombuffer(self.op_id, dtype=np.int64))
