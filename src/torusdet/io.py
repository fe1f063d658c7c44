"""Exchange documents for matrices, symbols, and equation problems.

All inputs are JSON with explicit {re, im} complex pairs.  Parsing validates
every invariant of the target type and reports the offending field; emission
uses a fixed field order and 17-significant-digit float formatting so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

from .hill import HillProblem, InfeasibleOrderError
from .l1_algebra import SparseL1Matrix, TailModel
from .toroidal import (
    CoefficientTableSymbol,
    MultiplicationSymbol,
    MultiplierSymbol,
    SymbolSum,
    _tabulated_rule,
    fractional_laplacian_symbol,
)


class ParseError(ValueError):
    """Malformed document (bad JSON or missing structure)."""


class ValidationError(ValueError):
    """Well-formed document violating a type invariant."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}")


def _require(doc, field, types, where):
    if not isinstance(doc, dict):
        raise ValidationError(where, "expected an object")
    if field not in doc:
        raise ValidationError(f"{where}.{field}", "missing required field")
    value = doc[field]
    if not isinstance(value, types):
        raise ValidationError(
            f"{where}.{field}",
            f"expected {getattr(types, '__name__', types)}, got {type(value).__name__}",
        )
    return value


def _parse_index(obj, dimension, where):
    if not isinstance(obj, list) or len(obj) != dimension:
        raise ValidationError(where, f"expected a list of {dimension} integers")
    out = []
    for i, c in enumerate(obj):
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValidationError(f"{where}[{i}]", "expected an integer")
        out.append(c)
    return tuple(out)


def _parse_complex(obj, where):
    if not isinstance(obj, dict):
        raise ValidationError(where, "expected an object with re/im fields")
    re = obj.get("re", 0.0)
    im = obj.get("im", 0.0)
    for name, v in (("re", re), ("im", im)):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValidationError(f"{where}.{name}", "expected a number")
    return complex(re, im)


def _parse_dimension(doc, where):
    n = _require(doc, "dimension", int, where)
    if isinstance(n, bool) or n < 1:
        raise ValidationError(f"{where}.dimension", f"must be an integer >= 1, got {n}")
    return n


def parse_tail_bound(doc, where):
    if doc is None:
        return TailModel.exact_finite()
    kind = _require(doc, "kind", str, where)
    if kind in ("exact", "exact-finite"):
        return TailModel.exact_finite()
    if kind == "power":
        params = doc.get("parameters", doc)
        c = _require(params, "c", (int, float), where)
        p = _require(params, "p", (int, float), where)
        if c < 0 or p <= 0:
            raise ValidationError(where, f"power bound needs c >= 0, p > 0, got c={c}, p={p}")
        return TailModel.user_bound(lambda radius: c * float(max(radius, 1)) ** (-p))
    raise ValidationError(f"{where}.kind", f"unknown tail bound kind {kind!r}")


def parse_matrix_document(doc):
    """Matrix document -> (SparseL1Matrix, TailModel)."""
    n = _parse_dimension(doc, "matrix")
    entries_doc = _require(doc, "entries", list, "matrix")
    entries = {}
    for i, e in enumerate(entries_doc):
        where = f"matrix.entries[{i}]"
        row = _parse_index(_require(e, "row", list, where), n, f"{where}.row")
        col = _parse_index(_require(e, "col", list, where), n, f"{where}.col")
        entries[(row, col)] = entries.get((row, col), 0.0) + _parse_complex(e, where)
    tail = parse_tail_bound(doc.get("tail_bound"), "matrix.tail_bound")
    return SparseL1Matrix(n, entries), tail


def parse_symbol_document(doc):
    """Symbol document -> ToroidalSymbol."""
    n = _parse_dimension(doc, "symbol")
    kind = _require(doc, "kind", str, "symbol")
    order_m = doc.get("order_m")
    if order_m is not None and (not isinstance(order_m, (int, float)) or isinstance(order_m, bool)):
        raise ValidationError("symbol.order_m", "expected a number")

    if kind == "fractional_laplacian":
        nu = _require(doc, "nu", (int, float), "symbol")
        if nu <= 0:
            raise ValidationError("symbol.nu", f"nu must be positive, got {nu}")
        return fractional_laplacian_symbol(float(nu), n)

    if kind == "multiplier":
        values = {}
        for i, e in enumerate(_require(doc, "values", list, "symbol")):
            where = f"symbol.values[{i}]"
            idx = _parse_index(_require(e, "index", list, where), n, f"{where}.index")
            values[idx] = _parse_complex(e, where)
        return MultiplierSymbol(n, _tabulated_rule(values, n), order_m=order_m)

    if kind == "multiplication":
        coeffs = {}
        for i, e in enumerate(_require(doc, "coefficients", list, "symbol")):
            where = f"symbol.coefficients[{i}]"
            idx = _parse_index(_require(e, "index", list, where), n, f"{where}.index")
            coeffs[idx] = _parse_complex(e, where)
        return MultiplicationSymbol(n, coeffs)

    if kind == "table":
        table = {}
        for i, e in enumerate(_require(doc, "entries", list, "symbol")):
            where = f"symbol.entries[{i}]"
            off = _parse_index(_require(e, "offset", list, where), n, f"{where}.offset")
            idx = _parse_index(_require(e, "index", list, where), n, f"{where}.index")
            table.setdefault(off, {})[idx] = _parse_complex(e, where)
        rules = {off: _tabulated_rule(vals, n) for off, vals in table.items()}
        return CoefficientTableSymbol(n, rules, order_m=order_m)

    if kind == "sum":
        parts_doc = _require(doc, "parts", list, "symbol")
        if not parts_doc:
            raise ValidationError("symbol.parts", "sum needs at least one part")
        parts = []
        for i, sub in enumerate(parts_doc):
            if not isinstance(sub, dict):
                raise ValidationError(f"symbol.parts[{i}]", "expected an object")
            sub = dict(sub)
            sub.setdefault("dimension", n)
            parts.append(parse_symbol_document(sub))
        return SymbolSum(parts)

    raise ValidationError("symbol.kind", f"unknown symbol kind {kind!r}")


def parse_hill_document(doc):
    """Problem document -> (HillProblem, scan parameters or None)."""
    n = _parse_dimension(doc, "hill")
    nu = _require(doc, "nu", (int, float), "hill")
    potential = {}
    for i, e in enumerate(_require(doc, "potential", list, "hill")):
        where = f"hill.potential[{i}]"
        idx = _parse_index(_require(e, "index", list, where), n, f"{where}.index")
        potential[idx] = _parse_complex(e, where)
    try:
        problem = HillProblem(n, float(nu), potential)
    except InfeasibleOrderError as err:
        raise ValidationError("hill.nu", f"nu must exceed dimension ({err})")

    scan = doc.get("scan")
    if scan is not None:
        lo = _require(scan, "lambda_min", (int, float), "hill.scan")
        hi = _require(scan, "lambda_max", (int, float), "hill.scan")
        steps = _require(scan, "steps", int, "hill.scan")
        if not hi > lo:
            raise ValidationError("hill.scan", f"lambda_max must exceed lambda_min")
        if steps < 2:
            raise ValidationError("hill.scan.steps", "need at least 2 steps")
        scan = {"lambda_min": float(lo), "lambda_max": float(hi), "steps": steps}
    return problem, scan


def parse_input(path, expected_kind):
    """Load and validate a document of the expected kind from a file."""
    doc = load_document(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be an object")
    if expected_kind == "matrix":
        return parse_matrix_document(doc)
    if expected_kind == "symbol":
        return parse_symbol_document(doc)
    if expected_kind == "hill":
        return parse_hill_document(doc)
    raise ValueError(f"unknown input kind {expected_kind!r}")


# ---------------------------------------------------------------------------
# deterministic emission


def format_float(x):
    """Fixed 17-significant-digit decimal form (json-style Infinity/NaN)."""
    x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def dumps_fixed(doc, indent=0):
    """Deterministic JSON: insertion order preserved, floats via .17g.

    Each container is joined from its items' strings as soon as they are
    written, so only one container's parts per level are alive at a time;
    each distinct string key is encoded once per call.
    """
    return _fixed(doc, "  " * indent, {})


def _fixed(value, pad, keys):
    """The fixed form of ``value`` indented by ``pad``; ``keys`` caches encoded keys."""
    kind = _JSON_KINDS.get(type(value)) or _json_kind(value)
    if kind is float:
        return format_float(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():
            text = keys.get(key)
            if text is None:
                text = json.dumps(key)
                if type(key) is str:  # 1, 1.0 and True are equal keys
                    keys[key] = text
            items.append(inner + text + ": " + _fixed(item, inner, keys))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [inner + _fixed(item, inner, keys) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if kind is int:
        return str(value)
    return json.dumps(value)  # str, bool and None


# exact types dumps_fixed writes, by the kind it writes them as
_JSON_KINDS = {
    float: float,
    dict: dict,
    list: list,
    tuple: list,
    int: int,
    str: str,
    bool: bool,
    type(None): bool,
}


def _json_kind(value):
    """The kind of a value whose type is not in ``_JSON_KINDS`` (a subclass)."""
    if isinstance(value, dict):
        return dict
    if isinstance(value, (list, tuple)):
        return list
    if isinstance(value, bool) or value is None:
        return bool
    if isinstance(value, int):
        return int
    if isinstance(value, float):
        return float
    if isinstance(value, str):
        return str
    raise TypeError(f"cannot serialize {type(value).__name__}")


def complex_doc(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def ladder_doc(ladder):
    return [
        {"radius": int(s.radius), "value": complex_doc(s.value), "bound": float(s.bound)}
        for s in ladder
    ]


def determinant_doc(result):
    return {
        "value": complex_doc(result.value),
        "certified_error": float(result.certified_error),
        "converged": bool(result.converged),
        "ladder": ladder_doc(result.ladder),
    }
