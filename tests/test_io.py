import collections
import json
import math

import numpy as np
import pytest

from torusdet import cli, io
from torusdet.l1_algebra import SparseL1Matrix
from torusdet.io import (
    ParseError,
    ValidationError,
    dumps_fixed,
    format_float,
    load_document,
    parse_hill_document,
    parse_input,
    parse_matrix_document,
    parse_symbol_document,
    parse_tail_bound,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_document_errors(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1,\n  "entries": [}')
    with pytest.raises(ParseError, match="line 2"):
        load_document(str(bad))


def test_parse_minimal_matrix(tmp_path):
    path = write(
        tmp_path,
        "m.json",
        {"dimension": 1, "entries": [{"row": [0], "col": [0], "re": 3.0, "im": 4.0}]},
    )
    matrix, tail = parse_input(path, "matrix")
    assert matrix.l1_norm == pytest.approx(5.0, abs=0)
    assert tail.kind == "exact-finite"


def test_parse_matrix_validation_errors():
    with pytest.raises(ValidationError, match="dimension"):
        parse_matrix_document({"entries": []})
    with pytest.raises(ValidationError, match="row"):
        parse_matrix_document({"dimension": 2, "entries": [{"row": [0], "col": [0, 0], "re": 1}]})
    with pytest.raises(ValidationError, match="re"):
        parse_matrix_document(
            {"dimension": 1, "entries": [{"row": [0], "col": [0], "re": "x"}]}
        )


# the five indexed lists: the document around the list, the list's field,
# the path that messages name, the index fields of an item and the parser
INDEXED_LISTS = {
    "matrix.entries": ({"dimension": 1}, "entries", ("row", "col"), parse_matrix_document),
    "symbol.values": ({"dimension": 1, "kind": "multiplier"}, "values", ("index",),
                      parse_symbol_document),
    "symbol.coefficients": ({"dimension": 1, "kind": "multiplication"}, "coefficients",
                            ("index",), parse_symbol_document),
    "symbol.entries": ({"dimension": 1, "kind": "table"}, "entries", ("offset", "index"),
                       parse_symbol_document),
    "hill.potential": ({"dimension": 1, "nu": 2.0}, "potential", ("index",), parse_hill_document),
}


def indexed_list_errors():
    """(path, list value or MISSING, exact message) for every malformed list."""
    for path, (_, _, fields, _) in INDEXED_LISTS.items():
        good = {**{f: [0] for f in fields}, "re": 1.0, "im": 0.5}
        first, last = fields[0], fields[-1]
        item = f"{path}[1]"
        cases = [
            (None, f"{path}: missing required field"),
            ({"re": 1.0}, f"{path}: expected list, got dict"),
            ("[]", f"{path}: expected list, got str"),
            ([good, 3], f"{item}: expected an object"),
            ([good, [0]], f"{item}: expected an object"),
            ([good, {"re": 1.0}], f"{item}.{first}: missing required field"),
            ([good, {**good, first: 0}], f"{item}.{first}: expected list, got int"),
            ([good, {**good, last: [0, 0]}], f"{item}.{last}: expected a list of 1 integers"),
            ([good, {**good, last: []}], f"{item}.{last}: expected a list of 1 integers"),
            ([good, {**good, last: [1.5]}], f"{item}.{last}[0]: expected an integer"),
            ([good, {**good, last: [True]}], f"{item}.{last}[0]: expected an integer"),
            ([good, {**good, last: ["1"]}], f"{item}.{last}[0]: expected an integer"),
            ([good, {**good, "re": "x"}], f"{item}.re: expected a number"),
            ([good, {**good, "re": None}], f"{item}.re: expected a number"),
            ([good, {**good, "re": False}], f"{item}.re: expected a number"),
            ([good, {**good, "im": [1.0]}], f"{item}.im: expected a number"),
        ]
        for value, message in cases:
            yield pytest.param(path, value, message, id=f"{path}-{message.split(': ', 1)[1]}")


@pytest.mark.parametrize("path, value, message", indexed_list_errors())
def test_indexed_list_errors_name_the_field(path, value, message):
    context, field, _, parse = INDEXED_LISTS[path]
    doc = dict(context)
    if value is not None:
        doc[field] = value
    with pytest.raises(ValidationError) as err:
        parse(doc)
    assert str(err.value) == message


def item_by_item(items, names):
    """``[*index tuples, complex(re, im)]`` per item: the reading the columns must match."""
    return [[*(tuple(item[name]) for name in names), complex(item.get("re", 0.0), item.get("im", 0.0))]
            for item in items]


def seeded_items(rng, count, dimension, names, span=2):
    """Items on a small index box, so indices repeat, with every value form a
    document may hold: floats, ints past 2^53, -0.0, absent re or im, zeros."""
    forms = [lambda: float(rng.normal()), lambda: int(rng.integers(-5, 6)),
             lambda: 2**53 + int(rng.integers(1, 99)), lambda: -0.0, lambda: 0, None]
    items = []
    for _ in range(count):
        item = {name: [int(c) for c in rng.integers(-span, span + 1, dimension)] for name in names}
        for part in ("re", "im"):
            form = forms[int(rng.integers(len(forms)))]
            if form is not None:
                item[part] = form()
        items.append(item)
    return items


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_columns_match_the_item_by_item_reading(dimension):
    rng = np.random.default_rng(40 + dimension)
    for count in (0, 1, 7, 300):
        items = seeded_items(rng, count, dimension, ("row", "col"))
        # the same entries once each and in canonical order, as a sorted document has them
        once = {(tuple(i["row"]), tuple(i["col"])): i for i in items if i.get("re") or i.get("im")}
        for entries in (items, [once[key] for key in sorted(once)]):
            matrix, _ = parse_matrix_document({"dimension": dimension, "entries": entries})
            # the item-by-item reading: a dict summing repeats in document order, from 0.0
            summed = {}
            for row, col, value in item_by_item(entries, ("row", "col")):
                summed[(row, col)] = summed.get((row, col), 0.0) + value
            expected = SparseL1Matrix(dimension, summed)
            for got, want in zip((matrix.rows, matrix.cols, matrix.vals),
                                 (expected.rows, expected.cols, expected.vals)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()  # -0.0 and +0.0 differ here
            assert matrix.l1_norm == expected.l1_norm
            assert 0 not in matrix.vals.tolist() and len(summed) >= matrix.nnz

        # the dict lists: a repeated index keeps its last value and first place
        potential = {"dimension": dimension, "nu": dimension + 1.0,
                     "potential": seeded_items(rng, count, dimension, ("index",))}
        want = dict(item_by_item(potential["potential"], ("index",)))
        got = io._indexed_dict(potential, "potential", "hill", dimension)
        assert list(got) == list(want) and all(type(k[0]) is int for k in got)
        assert [(v.real, v.imag) for v in got.values()] == [(v.real, v.imag) for v in want.values()]
        assert all(math.copysign(1, a.imag) == math.copysign(1, b.imag)
                   for a, b in zip(got.values(), want.values()))


def test_columns_hold_the_int64_range_and_refuse_past_it():
    edge = [-(2**63), 2**63 - 1]
    items = [{"offset": [edge[0]], "index": [edge[1]], "re": 10**300, "im": -(2**62)}]
    (offsets, index), vals = io._indexed_columns({"e": items}, "e", "symbol", 1, ("offset", "index"))
    assert offsets.dtype == index.dtype == np.int64
    assert offsets.tolist() == [[edge[0]]] and index.tolist() == [[edge[1]]]
    assert vals.tolist() == [complex(10**300, -(2**62))]
    for name, value, message in [("index", [2**63], "integer outside the int64 range"),
                                 ("offset", [-(2**63) - 1], "integer outside the int64 range"),
                                 ("re", 10**400, "number outside the float range"),
                                 ("im", math.nan, "expected a finite number, got nan")]:
        bad = [*items, {**items[0], name: value}]
        with pytest.raises(ValidationError) as err:
            io._indexed_columns({"e": bad}, "e", "symbol", 1, ("offset", "index"))
        suffix = "[0]" if name in ("index", "offset") else ""
        assert str(err.value) == f"symbol.e[1].{name}{suffix}: {message}"


def test_parse_tail_bounds():
    exact = parse_tail_bound({"kind": "exact"}, "t")
    assert exact.bound_at(3) == 0.0
    power = parse_tail_bound({"kind": "power", "c": 2.0, "p": 1.0}, "t")
    assert power.bound_at(8) == pytest.approx(0.25)
    assert power.bound_at(0) == pytest.approx(2.0)  # floor at radius 1
    with pytest.raises(ValidationError, match="kind"):
        parse_tail_bound({"kind": "mystery"}, "t")


def test_parse_hill_document_and_nu_validation():
    with pytest.raises(ValidationError, match="nu must exceed dimension"):
        parse_hill_document({"dimension": 1, "nu": 1.0, "potential": []})
    problem, scan = parse_hill_document(
        {
            "dimension": 1,
            "nu": 2.0,
            "potential": [{"index": [0], "re": 3.0, "im": 0.0}],
            "scan": {"lambda_min": -5.0, "lambda_max": 5.0, "steps": 11},
        }
    )
    assert problem.potential == {(0,): 3.0}
    assert scan == {"lambda_min": -5.0, "lambda_max": 5.0, "steps": 11}
    with pytest.raises(ValidationError, match="steps"):
        parse_hill_document(
            {
                "dimension": 1,
                "nu": 2.0,
                "potential": [],
                "scan": {"lambda_min": 0.0, "lambda_max": 1.0, "steps": 1},
            }
        )


def test_parse_fractional_laplacian_symbol():
    sym = parse_symbol_document({"dimension": 1, "kind": "fractional_laplacian", "nu": 2.0})
    value = sym.multiplier(np.array([[1]]))[0]
    assert value == pytest.approx(4 * math.pi**2, rel=1e-15)
    with pytest.raises(ValidationError, match="nu"):
        parse_symbol_document({"dimension": 1, "kind": "fractional_laplacian", "nu": -1})


def test_parse_symbol_kinds():
    mult = parse_symbol_document(
        {
            "dimension": 1,
            "kind": "multiplication",
            "coefficients": [{"index": [1], "re": 1.0}, {"index": [-1], "re": 1.0}],
        }
    )
    assert mult.coeffs == {(1,): 1.0, (-1,): 1.0}

    table = parse_symbol_document(
        {
            "dimension": 1,
            "kind": "table",
            "order_m": -2.0,
            "entries": [{"offset": [1], "index": [0], "re": 1.0}],
        }
    )
    assert table.offsets() == [(1,)]
    assert table.coefficient((1,), np.array([[0]]))[0] == 1.0
    assert table.coefficient((1,), np.array([[5]]))[0] == 0.0

    total = parse_symbol_document(
        {
            "dimension": 1,
            "kind": "sum",
            "parts": [
                {"kind": "fractional_laplacian", "nu": 2.0},
                {
                    "kind": "multiplication",
                    "coefficients": [{"index": [0], "re": 0.5}],
                },
            ],
        }
    )
    assert total.evaluate((0.0,), (1,)) == pytest.approx(4 * math.pi**2 + 0.5, rel=1e-14)

    with pytest.raises(ValidationError, match="kind"):
        parse_symbol_document({"dimension": 1, "kind": "banana"})


def test_format_float_fixed_digits():
    assert format_float(1.0) == "1"
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("nan")) == "NaN"


def test_dumps_fixed_is_deterministic():
    doc = {"b": 1.5, "a": [1, 2.25, {"z": True, "y": None}], "c": "text"}
    one = dumps_fixed(doc)
    two = dumps_fixed({"b": 1.5, "a": [1, 2.25, {"z": True, "y": None}], "c": "text"})
    assert one == two
    parsed = json.loads(one)
    assert parsed == doc  # insertion order kept, values exact
    assert '"b": 1.5' in one


def recursive_dumps_fixed(doc, indent=0):
    """The recursive string-building writer dumps_fixed must match byte for byte."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        if not all(isinstance(key, str) for key in doc):
            raise TypeError("cannot serialize a non-string key")
        items = ",\n".join(
            f"{pad}  {json.dumps(key)}: {recursive_dumps_fixed(value, indent + 1)}"
            for key, value in doc.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = ",\n".join(f"{pad}  {recursive_dumps_fixed(v, indent + 1)}" for v in doc)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(doc, bool) or doc is None:
        return json.dumps(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, float):
        return format_float(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def test_dumps_fixed_matches_the_recursive_writer():
    Pair = collections.namedtuple("Pair", "re im")
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308]
    rng = np.random.default_rng(3)
    docs = [
        {},
        [],
        (),
        None,
        True,
        "plain",
        -0.0,
        {"nested": {"empty": {}, "list": [], "tuple": (), "deep": [[[{}], []], [{"x": [[]]}]]}},
        {"floats": special, "ints": [0, -1, 2**70], "flags": [True, False, None]},
        {"ключ": "значение", "日本": ["é", "\u2603", "tab\tquote\"\\"], "": 1, "\x00": 2},
        # subclasses take the isinstance route
        collections.OrderedDict([("b", np.float64(0.1)), ("a", Pair(1.5, -2.0))]),
        {"np": [np.float64(math.nan), np.float64(-math.inf), np.bool_(True).item()]},
        [{"row": [int(i)], "col": [int(i) + 1], "re": float(v), "im": -float(v)}
         for i, v in enumerate(rng.standard_normal(50))],
    ]
    for doc in docs:
        for indent in (0, 1, 3):
            assert dumps_fixed(doc, indent) == recursive_dumps_fixed(doc, indent)
    # JSON keys are strings; 1 and None used to be written as bare 1 and null
    non_string_keys = [{1: "int key"}, {2.5: "float key"}, {None: "none key"},
                       {True: "bool key"}, {"a": 1, (1, 2): "tuple key"},
                       [{"row": [1], 3: 2.0}] * 60]
    for bad in (object(), {"k": {1, 2}}, [b"bytes"], {"c": 1j}, *non_string_keys):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_fixed(bad)


def record_rows(count, seed=5):
    """``count`` flat records of the symbol2matrix entry shape."""
    rng = np.random.default_rng(seed)
    return [
        {"row": [int(a), int(b)], "col": [int(b), -int(a)], "re": float(x), "im": float(y)}
        for a, b, x, y in zip(rng.integers(-40, 40, count), rng.integers(-40, 40, count),
                              rng.standard_normal(count), rng.standard_normal(count) * 1e-300)
    ]


def broken_at(records, position, **changes):
    """A copy of ``records`` whose record at ``position`` has ``changes`` applied."""
    out = [dict(r) for r in records]
    out[position].update(changes)
    return out


@pytest.mark.parametrize(
    "table",
    [
        record_rows(60),
        [{"radius": 2**k, "l1_norm": 1.0 / (k + 1)} for k in range(64)],
        [{"alpha": [], "exponent": 0.5, "%key%": 1} for _ in range(50)],
        [{"empty": []} for _ in range(50)],
        # one record breaks the shape partway through
        broken_at(record_rows(60), 37, re=math.nan),
        broken_at(record_rows(60), 37, im=math.inf),
        broken_at(record_rows(60), 59, re=-math.inf),
        broken_at(record_rows(60), 30, im=-0.0),
        broken_at(record_rows(60), 50, row=[True, 2]),
        broken_at([{"radius": k, "l1_norm": 0.5} for k in range(60)], 41, radius=True),
        broken_at(record_rows(60), 12, re=np.float64(0.25)),
        broken_at(record_rows(60), 44, col=[1, 2, 3]),
        broken_at(record_rows(60), 44, col=[]),
        broken_at(record_rows(60), 20, row=2**70),
        broken_at([{"radius": k, "l1_norm": 0.5} for k in range(60)], 25, radius=-(2**70)),
        record_rows(30) + [{"col": [1, 2], "row": [3, 4], "re": 1.0, "im": 2.0}] + record_rows(30),
        record_rows(55) + [{"row": [1, 2], "col": [3, 4], "re": 1.0}],
        record_rows(50) + [{"row": [1, 2], "col": [3, 4], "re": 1.0, "im": 2.0, "x": 0}],
        record_rows(50) + [[1, 2]],
        [{"radius": 2**70 + k, "l1_norm": -0.0} for k in range(50)],
        [{"v": [2**70, -(2**70)], "w": 5e-324} for _ in range(50)],
        [{"s": "text", "r": 1.0} for _ in range(50)],
        [{"d": {"re": 1.0}} for _ in range(50)],
        [collections.OrderedDict(r) for r in record_rows(50)],
    ],
)
def test_record_tables_match_the_recursive_writer(table):
    for indent in (0, 1, 3):
        assert dumps_fixed(table, indent) == recursive_dumps_fixed(table, indent)
        nested = {"entries": table, "after": [table[:3]]}
        assert dumps_fixed(nested, indent) == recursive_dumps_fixed(nested, indent)


def test_a_record_table_is_not_written_record_by_record(monkeypatch):
    calls = []
    general = io._fixed
    monkeypatch.setattr(io, "_fixed", lambda *args: calls.append(args) or general(*args))
    doc = {"entries": record_rows(2000), "norm_ladder": [{"radius": 1, "l1_norm": 2.0}]}
    assert dumps_fixed(doc) == recursive_dumps_fixed(doc)
    assert len(calls) == 3  # the document and its two lists


CLI_DOCUMENTS = {
    "toeplitz1.json": {"dimension": 1, "kind": "multiplication", "coefficients": [
        {"index": [l], "re": 0.3 * l - 0.7, "im": 1.0 / (l + 7)} for l in (-4, -1, 0, 2, 3)]},
    "toeplitz2.json": {"dimension": 2, "kind": "multiplication", "coefficients": [
        {"index": [a, b], "re": 0.1 * a + 1.0 / 3.0, "im": -0.2 * b}
        for a, b in ((0, 0), (1, -2), (-2, 1), (2, 2))]},
    "schroedinger2.json": {"dimension": 2, "kind": "sum", "parts": [
        {"kind": "fractional_laplacian", "nu": 2.7},
        {"kind": "multiplication", "coefficients": [
            {"index": [1, 0], "re": 0.35}, {"index": [-1, 0], "re": 0.35},
            {"index": [1, 1], "re": 0.2}, {"index": [-1, -1], "re": 0.2}]}]},
    "matrix.json": {"dimension": 1, "entries": [
        {"row": [k], "col": [k], "re": 1.0 / (1.0 + k * k), "im": 0.1 / (2.0 + k * k)}
        for k in range(-6, 7)], "tail_bound": {"kind": "exact"}},
    "scan.json": {"dimension": 1, "nu": 2.0, "potential": [
        {"index": [2], "re": 0.5}, {"index": [-2], "re": 0.5}],
        "scan": {"lambda_min": -50.0, "lambda_max": 5.0, "steps": 41}},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["symbol2matrix", "toeplitz1.json", "--radius", "64"],
        ["symbol2matrix", "toeplitz2.json", "--radius", "8"],
        ["--max-radius", "16", "diagnose", "schroedinger2.json"],
        ["det", "matrix.json"],
        ["--max-radius", "16", "hill", "scan", "scan.json"],
    ],
)
def test_cli_stdout_matches_the_recursive_writer(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a in CLI_DOCUMENTS else a for a in argv]
    for name, doc in CLI_DOCUMENTS.items():
        write(tmp_path, name, doc)
    status = cli.main(argv)
    out = capsys.readouterr().out
    assert status == 0
    # json.loads reads every .17g float back exactly, so this pins the bytes
    assert out == recursive_dumps_fixed(json.loads(out)) + "\n"
