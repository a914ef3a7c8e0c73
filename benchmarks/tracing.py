"""Tracing shim for the benchmark.

Wraps the public functions of each qrh module (the layers) from outside the
package.  A wrapped function is rebound under every name that refers to it in
any loaded ``qrh`` module, so ``qrh.rhsolver.log_f`` and ``qrh.cli.log_f`` are
traced as well as ``qrh.special.log_f``, and ``log_gamma1`` is traced where
``log_gamma2`` looks it up as a global.  Methods are wrapped on their class, and
the suite functions also in the ``SUITES`` registry, which holds references.

Each call is one span: name, start, end, parent span and the request (CLI call)
it belongs to.  Spans stay in memory in flat arrays and are written out once at
the end.  Self time is a span's duration minus the time its child spans cover;
counts, self time and inclusive time are aggregated as spans close.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: Traced public functions per layer module.  "Class.method" wraps a method;
#: a bare class name wraps its constructor.
LAYERS = {
    "bernoulli": ("multi_bernoulli", "multi_bernoulli_zero_series"),
    "constants": ("hurwitz_zeta", "zeta_prime_minus_one"),
    "special": (
        "log_f",
        "log_gamma2",
        "log_gamma1",
        "log_lambda",
        "log_delta",
        "quantum_dilog",
        "barnes_zeta",
    ),
    "bps": (
        "structure_from_dict",
        "em_splitting",
        "classify",
        "canonical_refinement",
        "active_rays",
        "kappa_set",
        "EMSplitting.decompose",
    ),
    "rhsolver": ("adjoint_psi_a1", "adjoint_general", "hamiltonian_limit", "solve_a1", "RHInstance"),
    "qtorus": ("qt_mul", "ext_mul", "embed", "eps_z", "s_q_ray", "ad", "eval_expr", "compose"),
    "cli": ("main",),
}

#: Spans kept for the written trace; aggregation continues past the cap.
SPAN_CAP = 400_000


class Tracer:
    """Installs and removes the wrappers and aggregates the spans they record."""

    def __init__(self, patch: bool = True):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.descendants: list[int] = []
        self.shifts = 0  # log_gamma1 spans directly under a log_gamma2 span
        self.cache = [0, 0, 0]  # hits, misses and growth of the zero-value-series cache
        self._cache_info = self._cache_start = None
        self.request = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._spans = {
            "id": array("q"),
            "parent": array("q"),
            "name": array("i"),
            "request": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self._patches: list[tuple] = []  # (setter, original, wrapper)
        self._shift_pair = (-1, -1)
        if patch:
            self._cache_info = sys.modules["qrh.bernoulli"]._zero_value_series.cache_info
            self._build()
            self._shift_pair = (
                self.names.index("special.log_gamma1"),
                self.names.index("special.log_gamma2"),
            )

    # -- wrapping ------------------------------------------------------------

    def _build(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "qrh" or n.startswith("qrh.")}
        for layer, funcs in LAYERS.items():
            module = mods[f"qrh.{layer}"]
            for dotted in funcs:
                name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    self._patch_attr(getattr(module, cls_name), meth, name)
                elif isinstance(getattr(module, dotted), type):
                    self._patch_attr(getattr(module, dotted), "__init__", name)
                else:
                    self._patch_everywhere(mods, getattr(module, dotted), name)
        registry = mods["qrh.suites"].SUITES
        for suite, entry in registry.items():
            fn = entry[0]
            wrapper = self._patch_everywhere(mods, fn, f"suites.{suite}")

            def set_entry(value, suite=suite, rest=entry[1:]):
                registry[suite] = (value,) + rest

            self._patches.append((set_entry, fn, wrapper))

    def _patch_attr(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        wrapper = self._wrap(self._index(name), original)
        self._patches.append((lambda v, o=owner, a=attr: setattr(o, a, v), original, wrapper))

    def _patch_everywhere(self, mods: dict, original, name: str):
        wrapper = self._wrap(self._index(name), original)
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append(
                        (lambda v, m=module, a=attr: setattr(m, a, v), original, wrapper)
                    )
        return wrapper

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.descendants.append(0)
        return len(self.names) - 1

    def install(self, request: int) -> None:
        self.request = request
        self._cache_start = self._cache_info()
        for setter, _original, wrapper in self._patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, original, _wrapper in self._patches:
            setter(original)
        start, end = self._cache_start, self._cache_info()
        self.cache[0] += end.hits - start.hits
        self.cache[1] += end.misses - start.misses
        self.cache[2] += end.currsize - start.currsize

    def _wrap(self, idx: int, fn):
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            # frame: [child time, descendant spans, span id, name index]
            frame = [0.0, 0, self._next_id, idx]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, start, end)

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def _close(self, frame: list, start: float, end: float) -> None:
        child_time, desc, sid, idx = frame
        dur = end - start
        self.calls[idx] += 1
        self.incl_s[idx] += dur
        self.self_s[idx] += dur - child_time
        self.descendants[idx] += desc
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[0] += dur
            parent[1] += 1 + desc
            parent_id = parent[2]
            if (idx, parent[3]) == self._shift_pair:
                self.shifts += 1
        spans = self._spans
        if len(spans["id"]) < SPAN_CAP:
            spans["id"].append(sid)
            spans["parent"].append(parent_id)
            spans["name"].append(idx)
            spans["request"].append(self.request)
            spans["start"].append(start)
            spans["end"].append(end)

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float, int]:
        """(calls, self seconds, inclusive seconds, descendant spans) of a name."""
        i = self.names.index(name)
        return self.calls[i], self.self_s[i], self.incl_s[i], self.descendants[i]

    @property
    def spans_total(self) -> int:
        return self._next_id

    def write(self, path: str) -> int:
        """Write the kept spans as a numpy archive; returns the span count."""
        arrays = {k: np.frombuffer(v, dtype=v.typecode) for k, v in self._spans.items()}
        np.savez(path, names=np.array(self.names), spans_total=np.int64(self.spans_total), **arrays)
        return len(self._spans["id"])


def span_cost(repeats: int = 20000) -> float:
    """Seconds that one traced call adds inside its parent span, measured on a
    no-op function with a throwaway tracer frame on the stack."""

    def noop():
        return None

    probe = Tracer(patch=False)
    wrapped = probe._wrap(probe._index("noop"), noop)
    probe._stack.append([0.0, 0, -1, probe._index("parent")])
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        costs.append((time.perf_counter() - t0 - plain) / repeats)
    return float(np.median(costs))
