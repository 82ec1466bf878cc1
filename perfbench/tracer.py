"""Outside-in tracing of prolatesum, and the per-layer metrics derived from it.

`Tracer.install` replaces every public function of the package's modules, and
every public method of the classes they define, with a wrapper that records
a span (name, start, end, parent) plus work counts computed from argument
shapes. A function imported into another module is replaced there too: for
example `symtridiag_eigen` is called through `prolate`, `gauss_jacobi` through
`prolate` and through `specfun` itself, and `solve` through `cli`.

A span is named `<module>.<function>`, methods dropping their class name
(`prolate.mode_matrix`). Its self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("specfun", "prolate", "transforms", "riesz", "analysis", "cli")
DYADIC = ("bump", "bump_zero", "dyadic_cutoff", "dyadic_piece", "bump_zero_piece", "dyadic_tail")
KERNEL_OPS = ("finite_fourier", "finite_hankel", "apply_Qc")


def _digest(x) -> str:
    return hashlib.blake2b(np.ascontiguousarray(x, dtype=float).tobytes(), digest_size=8).hexdigest()


def _mode_matrix(a):
    es, q = a["self"], int(np.size(a["x"]))
    return {"flops": 2 * es.spec.N * es.n_retained * q,
            "key": f"{es.spec!r}/{_digest(a['x'])}/{a['check_domain']}"}


# Work counts of one call, from its bound arguments. A "key" identifies the
# input, so distinct keys over calls exposes repeated work.
WORK = {
    "specfun.gauss_jacobi": lambda a: {"key": repr((a["size"], a["a"], a["b"]))},
    "specfun.symtridiag_eigen": lambda a: {"rows": int(np.size(a["diag"]))},
    "specfun.jacobi_orthonormal_table": lambda a: {"entries": int(a["nmax"]) * int(np.size(a["x"]))},
    "specfun.bessel_j": lambda a: {"points": int(np.size(a["x"]))},
    "prolate.mode_matrix": _mode_matrix,
    **{f"transforms.{n}": lambda a: {"kernel_entries": a["f"].rule.size ** 2} for n in KERNEL_OPS},
}
COUNT_NAMES = ("specfun.symtridiag_eigen.rows", "specfun.jacobi_orthonormal_table.entries",
               "specfun.bessel_j.points", "prolate.mode_matrix.flops")
KEYED = ("specfun.gauss_jacobi", "prolate.mode_matrix")


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.wrapped: list[str] = []
        self.lapack_drivers: set[str] = set()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                if work:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(work(bound.arguments))

        return wrapper

    def install(self):
        """Wrap the package's public callables in every module namespace that holds them."""
        modules = [importlib.import_module(f"prolatesum.{m}") for m in MODULES]
        modules.append(importlib.import_module("prolatesum"))
        replace = {}
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                    self.wrapped.append(f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{meth}", fn))
                            self.wrapped.append(f"{short}.{meth}")
        if len(set(self.wrapped)) != len(self.wrapped):
            raise RuntimeError("two wrapped callables share a span name")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        specfun = modules[0]
        eigh = specfun.eigh_tridiagonal

        def eigh_tridiagonal(*args, **kwargs):
            self.lapack_drivers.add(kwargs.get("lapack_driver", "auto"))
            return eigh(*args, **kwargs)

        specfun.eigh_tridiagonal = eigh_tridiagonal

    def dump(self, path: str, op_id: int):
        """Write the wrapped names, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"wrapped": self.wrapped,
                                 "lapack_drivers": sorted(self.lapack_drivers)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"op": op_id, **span}) + "\n")


def read_spans(path: str) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def layer_metrics(ops_spans: list[list[dict]], wrapped: list[str]) -> dict[str, float]:
    """Per-layer metrics of one op list: one span list per op (one process each).

    For each wrapped name `.calls`, `.self_s` and `.total_s` (with
    children); the summed work counts;
    `.distinct_ratio` of the keyed names (distinct inputs within each process
    over calls, 1.0 when never called); and the aggregates
    `riesz.dyadic.self_s` and `transforms.kernel_entries`.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(int)
    distinct = defaultdict(int)
    for spans in ops_spans:
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        keys = defaultdict(set)
        for s in spans:
            name = s["name"]
            calls[name] += 1
            total_s[name] += s["end"] - s["start"]
            self_s[name] += s["end"] - s["start"] - child_time[s["id"]]
            for k, v in s.items():
                if k == "key":
                    keys[name].add(v)
                elif k not in ("op", "id", "name", "parent", "start", "end"):
                    counts[f"{name}.{k}"] += v
        for name, ks in keys.items():
            distinct[name] += len(ks)
    out: dict[str, float] = {}
    for name in wrapped:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
    for name in KEYED:
        out[f"{name}.distinct_ratio"] = distinct[name] / calls[name] if calls[name] else 1.0
    for name in COUNT_NAMES:
        out[name] = counts[name]
    out["riesz.dyadic.self_s"] = sum(self_s[f"riesz.{n}"] for n in DYADIC)
    out["transforms.kernel_entries"] = sum(counts[f"transforms.{n}.kernel_entries"] for n in KERNEL_OPS)
    return out
