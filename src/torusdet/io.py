"""Exchange documents for matrices, symbols, and equation problems.

All inputs are JSON with explicit {re, im} complex pairs.  Parsing validates
every invariant of the target type and reports the offending field; emission
uses a fixed field order and 17-significant-digit float formatting so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

import numpy as np

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


# largest scan grid a document may ask for: the table holds one row per step
MAX_SCAN_STEPS = 10**6


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


def _not_a_number(value, integer=False):
    """None if ``value`` is a finite number (an int64 integer if ``integer``), else why not.

    Python's json also reads NaN, Infinity and integer literals of any
    length, and true and false are Python ints: none of them passes.
    """
    if integer:
        if not isinstance(value, int) or isinstance(value, bool):
            return "expected an integer"
        return None if -(2**63) <= value < 2**63 else "integer outside the int64 range"
    if isinstance(value, float):
        return None if math.isfinite(value) else f"expected a finite number, got {value}"
    if not isinstance(value, int) or isinstance(value, bool):
        return "expected a number"
    try:
        float(value)
    except OverflowError:
        return "number outside the float range"
    return None


def _require_number(doc, field, where):
    value = _require(doc, field, (int, float), where)
    error = _not_a_number(value)
    if error:
        raise ValidationError(f"{where}.{field}", error)
    return value


def _known(doc, where, *fields):
    """Refuse the first key of the object ``doc`` that is not one of ``fields``."""
    for key in doc:
        if key not in fields:
            raise ValidationError(f"{where}.{key}", "unknown field")


def _indexed_columns(doc, field, where, dimension, names=("index",)):
    """(count, dimension) int64 index arrays, one per name in ``names``, and the
    complex128 values of the list ``doc[field]``, each of whose items holds one
    index (``dimension`` integers) per name, a value in ``re``/``im`` (0 where
    absent) and no other key.  Each field is checked as a column, once per
    type in it; only a failed check walks the items, to name the first bad one.
    """
    items = _require(doc, field, list, where)
    try:
        if not _all_of(items, dict) or set().union(*items).difference(names, ("re", "im")):
            raise ValueError
        indices, vals = [], np.empty(len(items), dtype=np.complex128)
        for column in [list(map(operator.itemgetter(name), items)) for name in names]:
            flat = list(itertools.chain.from_iterable(column))
            if not _all_of(column, list) or set(map(len, column)) - {dimension} or not _all_of(flat, int):
                raise ValueError
            indices.append(np.array(flat, dtype=np.int64).reshape(len(items), dimension))
        for part, name in ((vals.real, "re"), (vals.imag, "im")):
            column = [item.get(name, 0.0) for item in items]
            if not _all_of(column, (int, float)):
                raise ValueError
            part[:] = column
        if not np.all(np.isfinite(vals)):
            raise ValueError
        return indices, vals
    except (KeyError, TypeError, ValueError, OverflowError):
        for i, item in enumerate(items):
            _check_item(item, f"{where}.{field}[{i}]", dimension, names)
        raise


def _all_of(column, types):
    """Whether every value in ``column`` is one of ``types``, and none a bool."""
    return all(issubclass(t, types) and t is not bool for t in set(map(type, column)))


def _check_item(item, at, dimension, names):
    """Raise the ValidationError of the first bad field of one item, if any."""
    if not isinstance(item, dict):
        raise ValidationError(at, "expected an object")
    _known(item, at, *names, "re", "im")
    for name in names:
        index = _require(item, name, list, at)
        if len(index) != dimension:
            raise ValidationError(f"{at}.{name}", f"expected a list of {dimension} integers")
        for j, c in enumerate(index):
            error = _not_a_number(c, integer=True)
            if error:
                raise ValidationError(f"{at}.{name}[{j}]", error)
    for name in ("re", "im"):
        error = _not_a_number(item.get(name, 0.0))
        if error:
            raise ValidationError(f"{at}.{name}", error)


def _indexed_dict(doc, field, where, dimension):
    """{index tuple: complex value} of the list ``doc[field]``; a repeated index keeps its last."""
    (index,), vals = _indexed_columns(doc, field, where, dimension)
    return dict(zip(map(tuple, index.tolist()), vals.tolist()))


def _parse_dimension(doc, where):
    n = _require(doc, "dimension", int, where)
    if isinstance(n, bool) or n < 1:
        raise ValidationError(f"{where}.dimension", f"must be an integer >= 1, got {n}")
    return n


def parse_tail_bound(doc, where):
    if doc is None:
        return TailModel.exact_finite()
    kind = _require(doc, "kind", str, where)
    _known(doc, where, "kind", "parameters", "c", "p")
    if kind in ("exact", "exact-finite"):
        return TailModel.exact_finite()
    if kind == "power":
        params = doc.get("parameters", doc)
        c = _require_number(params, "c", where)
        p = _require_number(params, "p", where)
        if params is not doc:
            _known(params, f"{where}.parameters", "c", "p")
        if c < 0 or p <= 0:
            raise ValidationError(where, f"power bound needs c >= 0, p > 0, got c={c}, p={p}")
        return TailModel.user_bound(lambda radius: c * float(max(radius, 1)) ** (-p))
    raise ValidationError(f"{where}.kind", f"unknown tail bound kind {kind!r}")


def parse_matrix_document(doc):
    """Matrix document -> (SparseL1Matrix, TailModel)."""
    n = _parse_dimension(doc, "matrix")
    _known(doc, "matrix", "dimension", "entries", "tail_bound")
    (rows, cols), vals = _indexed_columns(doc, "entries", "matrix", n, ("row", "col"))
    tail = parse_tail_bound(doc.get("tail_bound"), "matrix.tail_bound")
    # duplicates are summed in document order, each sum from +0.0
    return SparseL1Matrix.from_arrays(n, rows, cols, vals + 0.0), tail


def parse_symbol_document(doc):
    """Symbol document -> ToroidalSymbol."""
    n = _parse_dimension(doc, "symbol")
    kind = _require(doc, "kind", str, "symbol")
    order_m = doc.get("order_m")
    error = order_m is not None and _not_a_number(order_m)
    if error:
        raise ValidationError("symbol.order_m", error)
    if kind not in _SYMBOL_FIELDS:
        raise ValidationError("symbol.kind", f"unknown symbol kind {kind!r}")
    _known(doc, "symbol", "dimension", "kind", "order_m", _SYMBOL_FIELDS[kind])

    if kind == "fractional_laplacian":
        nu = _require_number(doc, "nu", "symbol")
        if nu <= 0:
            raise ValidationError("symbol.nu", f"nu must be positive, got {nu}")
        return fractional_laplacian_symbol(float(nu), n)

    if kind == "multiplier":
        values = _indexed_dict(doc, "values", "symbol", n)
        return MultiplierSymbol(n, _tabulated_rule(values, n), order_m=order_m)

    if kind == "multiplication":
        return MultiplicationSymbol(n, _indexed_dict(doc, "coefficients", "symbol", n))

    if kind == "table":
        table = {}
        (offsets, index), vals = _indexed_columns(doc, "entries", "symbol", n, ("offset", "index"))
        for off, k, v in zip(map(tuple, offsets.tolist()), map(tuple, index.tolist()), vals.tolist()):
            table.setdefault(off, {})[k] = v
        rules = {off: _tabulated_rule(vals, n) for off, vals in table.items()}
        return CoefficientTableSymbol(n, rules, order_m=order_m)

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


# the one field each symbol kind reads besides dimension, kind and order_m
_SYMBOL_FIELDS = {"fractional_laplacian": "nu", "multiplier": "values",
                  "multiplication": "coefficients", "table": "entries", "sum": "parts"}


def parse_hill_document(doc):
    """Problem document -> (HillProblem, scan parameters or None)."""
    n = _parse_dimension(doc, "hill")
    nu = _require_number(doc, "nu", "hill")
    _known(doc, "hill", "dimension", "nu", "potential", "scan")
    potential = _indexed_dict(doc, "potential", "hill", n)
    try:
        problem = HillProblem(n, float(nu), potential)
    except InfeasibleOrderError as err:
        raise ValidationError("hill.nu", f"nu must exceed dimension ({err})")
    except ValueError as err:
        raise ValidationError("hill.potential", str(err))

    scan = doc.get("scan")
    if scan is not None:
        lo = _require_number(scan, "lambda_min", "hill.scan")
        hi = _require_number(scan, "lambda_max", "hill.scan")
        steps = _require(scan, "steps", int, "hill.scan")
        _known(scan, "hill.scan", "lambda_min", "lambda_max", "steps")
        if not hi > lo:
            raise ValidationError("hill.scan", f"lambda_max must exceed lambda_min")
        error = _not_a_number(steps, integer=True)
        if not error and not 2 <= steps <= MAX_SCAN_STEPS:
            error = f"need 2 to {MAX_SCAN_STEPS} steps, got {steps}"
        if error:
            raise ValidationError("hill.scan.steps", error)
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
    each distinct key is encoded once per call.  A list of same-shape flat
    records is written by one template (:func:`_record_table`).  Keys must
    be strings: JSON has no other kind.
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
            text = keys.get(key) or _key(key, keys)
            items.append(inner + text + ": " + _fixed(item, inner, keys))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        body = _record_table(value, inner, keys)
        if body is None:
            body = ",\n".join([inner + _fixed(item, inner, keys) for item in value])
        return "[\n" + body + "\n" + pad + "]"
    if kind is int:
        return str(value)
    return json.dumps(value)  # str, bool and None


def _key(key, keys):
    """The encoded form of a dict key not yet in ``keys``, cached there."""
    if not isinstance(key, str):
        raise TypeError(f"cannot serialize {type(key).__name__} key {key!r}")
    text = keys[key] = json.dumps(key)
    return text


def _record_table(records, pad, keys):
    """The items of a list of flat records indented by ``pad``, or None.

    A flat record is a dict with str keys whose values are floats, ints or
    lists of ints, each of exactly that type (not bool, not a numpy scalar).
    When every record has the first one's keys, value types and list
    lengths, and every float is finite, one ``%`` template for that shape
    writes them all, byte for byte as the item-by-item path would.  Floats
    must be finite because ``%.17g`` writes nan and inf, not NaN and
    Infinity.  Otherwise the result is None and the caller writes the list
    item by item.
    """
    first = records[0]
    if type(first) is not dict or not first or not all(
            type(v) in (float, int, list) for v in first.values()):
        return None
    names = tuple(first)
    if set(map(type, records)) != {dict} or set(map(tuple, records)) != {names}:
        return None
    inner = pad + "  "
    fields, slots = [], []
    for name, column in zip(names, zip(*map(dict.values, records))):
        if type(name) is not str:
            return None
        kinds = set(map(type, column))
        if kinds == {float} and all(map(math.isfinite, column)):
            slots.append(column)
            form = "%.17g"
        elif kinds == {int}:
            slots.append(column)
            form = "%d"
        elif kinds == {list} and len(set(map(len, column))) == 1:
            parts = list(zip(*column))  # one tuple per list position
            if any(set(map(type, part)) != {int} for part in parts):
                return None
            slots.extend(parts)
            form = ("[\n" + ",\n".join([inner + "  %d"] * len(parts)) + "\n" + inner + "]"
                    if parts else "[]")
        else:
            return None
        text = keys.get(name) or _key(name, keys)
        fields.append(inner + text.replace("%", "%%") + ": " + form)
    template = pad + "{\n" + ",\n".join(fields) + "\n" + pad + "}"
    rows = zip(*slots) if slots else [()] * len(records)
    return ",\n".join(map(template.__mod__, rows))


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
