"""Outside-in tracing of torusdet's public functions and numpy.linalg kernels.

The tracer rebinds every traced function in each torusdet module namespace
that holds it (``hill`` imports ``poincare_determinant``, ``cli`` imports
``existence_test``, ...) and wraps ``numpy.linalg.det/inv/svd``.  Spans are
kept in memory as (name, start, end, parent, op id) and written out when the
run ends; counts are taken from return values.  Nothing inside the program
changes: ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

MODULES = ("cli", "io", "hill", "toroidal", "l1_algebra", "lattice")
LINALG = ("det", "inv", "svd")
# methods traced on classes, as (module, class, method)
METHODS = (
    ("l1_algebra", "SparseL1Matrix", "from_arrays"),
    ("lattice", "TruncationWindow", "coords_array"),
)


def _square_size(args):
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[-1]) if len(shape) >= 2 else 0


def _complex_factor(args):
    dtype = getattr(args[0], "dtype", None) if args else None
    return 4.0 if dtype is not None and dtype.kind == "c" else 1.0


# Computed (not measured) real flop counts from the operand shape:
# LU 2/3 n^3, inverse 2 n^3, full SVD ~21 n^3 multiply-adds; x4 for complex.
_FLOP_MODELS = {
    "linalg.det": lambda args: _complex_factor(args) * (2.0 / 3.0) * _square_size(args) ** 3,
    "linalg.inv": lambda args: _complex_factor(args) * 2.0 * _square_size(args) ** 3,
    "linalg.svd": lambda args: _complex_factor(args) * 21.0 * _square_size(args) ** 3,
}


def _nnz(obj):
    return int(getattr(obj, "nnz", 0))


def _ladder_counts(result=None, error=None):
    """(rungs, corrected) of a determinant ladder from its result or error."""
    if result is not None:
        ladder, value = result.ladder, result.value
    else:
        ladder, value = getattr(error, "ladder", []) or [], getattr(error, "last_value", None)
    raw = {complex(step.value) for step in ladder}
    corrected = value is not None and complex(value) not in raw
    return {"rungs": len(ladder), "corrected": int(corrected)}


def _counts(name, args, result, error):
    if name == "hill.build_hill_matrix" and result is not None:
        return {"entries": _nnz(result[0])}
    if name == "l1_algebra.SparseL1Matrix.from_arrays" and result is not None:
        return {"entries": _nnz(result)}
    if name == "l1_algebra.poincare_determinant":
        if result is not None:
            return _ladder_counts(result=result)
        if error is not None and hasattr(error, "ladder"):
            return _ladder_counts(error=error)
    if name == "hill.spectral_shift_scan" and len(args) >= 2:
        return {"points": len(args[1])}
    if name in _FLOP_MODELS:
        return {"flops": _FLOP_MODELS[name](args)}
    return None


class Tracer:
    """Span recorder with install/uninstall of the outside wrappers."""

    def __init__(self, torusdet_modules, linalg_module):
        self._modules = torusdet_modules  # short name -> module object
        self._linalg = linalg_module
        self._restore = []  # (owner, attribute, original)
        self.spans = []  # [name, start, end, parent, op, counts]
        self._stack = []
        self.op_id = -1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # recursion (dumps_fixed) collapses into the outermost span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, clock(), 0.0, parent, self.op_id, None])
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
                spans[index][5] = _counts(name, args, result, error)

        return traced

    def _targets(self):
        """(qualified name, original function) for every traced callable."""
        found = {}
        for short in MODULES:
            module = self._modules[short]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # imported names are rebound below, not renamed
                found[f"{short}.{attr}"] = obj
        return found

    def install(self):
        wrappers = {}
        for qualname, fn in self._targets().items():
            wrappers[id(fn)] = self._wrap(qualname, fn)
        # rebind in every namespace that holds the original, the package too
        namespaces = [self._modules[s] for s in MODULES] + [self._modules["torusdet"]]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for short, cls_name, method in METHODS:
            cls = getattr(self._modules[short], cls_name)
            raw = cls.__dict__[method]
            qualname = f"{short}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(qualname, raw.__func__))
            else:
                wrapped = self._wrap(qualname, raw)
            self._restore.append((cls, method, raw))
            setattr(cls, method, wrapped)
        for kernel in LINALG:
            original = getattr(self._linalg, kernel)
            self._restore.append((self._linalg, kernel, original))
            setattr(self._linalg, kernel, self._wrap(f"linalg.{kernel}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def summarize(self):
        """Per-name calls, self/total time and summed counts; top-level time;
        number of ``build_hill_matrix`` calls made inside scans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _c in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name = {}
        top_level = 0.0
        builds_in_scans = 0
        for i, (name, start, end, parent, _op, counts) in enumerate(self.spans):
            entry = per_name.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}
            )
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["total_s"] += end - start
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            if parent < 0:
                top_level += end - start
            if name == "hill.build_hill_matrix" and self._enclosing(i, "hill.spectral_shift_scan") is not None:
                builds_in_scans += 1
        return per_name, top_level, builds_in_scans

    def outermost_time(self, names):
        """Inclusive time of spans in ``names`` not nested in another of them."""
        names = set(names)
        total = 0.0
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if name in names and not any(
                self._enclosing(i, other) is not None for other in names
            ):
                total += end - start
        return total

    def _enclosing(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None

    def write(self, path):
        """Spans as gzipped JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, op, counts in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }
                if counts:
                    record["counts"] = counts
                out.write(json.dumps(record) + "\n")
