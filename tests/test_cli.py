import ast
import glob
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import torusdet
from torusdet import cli, l1_algebra, toroidal
from torusdet.cli import main

from test_io import assert_same_text

FOUR_PI_SQ = (2.0 * math.pi) ** 2


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_det_zero_matrix(tmp_path, capsys):
    path = write(tmp_path, "zero.json", {"dimension": 1, "entries": []})
    status, out, err = run_cli(capsys, "det", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == {"re": 1, "im": 0}
    assert doc["certified_error"] == 0
    assert doc["converged"] is True
    assert "elapsed_seconds" in err
    assert "elapsed_seconds" not in out


def test_trace_finite_matrix(tmp_path, capsys):
    path = write(
        tmp_path,
        "m.json",
        {
            "dimension": 1,
            "entries": [
                {"row": [0], "col": [0], "re": 2.0, "im": 1.0},
                {"row": [3], "col": [1], "re": 9.0, "im": 0.0},
            ],
        },
    )
    status, out, _ = run_cli(capsys, "trace", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == {"re": 2, "im": 1}
    assert doc["certified_error"] == 0


def test_output_is_byte_identical(tmp_path, capsys):
    path = write(
        tmp_path,
        "hill.json",
        {"dimension": 1, "nu": 2.0, "potential": [{"index": [0], "re": 3.0, "im": 0.0}]},
    )
    status1, out1, _ = run_cli(capsys, "--tol", "1e-6", "hill", "check", path)
    status2, out2, _ = run_cli(capsys, "--tol", "1e-6", "hill", "check", path)
    assert status1 == status2 == 0
    assert_same_text(out1, out2)


def test_hill_check_positive_shift(tmp_path, capsys):
    path = write(
        tmp_path,
        "hill.json",
        {"dimension": 1, "nu": 2.0, "potential": [{"index": [0], "re": 3.0, "im": 0.0}]},
    )
    status, out, _ = run_cli(capsys, "--tol", "1e-6", "hill", "check", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["decision"] == "only-trivial"
    oracle = 3.0 * (
        (math.sinh(math.sqrt(3.0) / 2.0) / (math.sqrt(3.0) / 2.0)) / (2.0 * math.sinh(0.5))
    ) ** 2
    assert abs(doc["determinant"]["value"]["re"] - oracle) <= 1e-3
    assert abs(doc["determinant"]["value"]["re"] - oracle) <= doc["determinant"]["certified_error"]


def test_hill_check_eigenfunction_root(tmp_path, capsys):
    path = write(
        tmp_path,
        "root.json",
        {
            "dimension": 1,
            "nu": 2.0,
            "potential": [{"index": [0], "re": -FOUR_PI_SQ, "im": 0.0}],
        },
    )
    status, out, _ = run_cli(capsys, "hill", "check", path)
    assert status == 0
    doc = json.loads(out)
    assert doc["decision"] == "nontrivial-solution"
    assert doc["kernel_certified"] is True
    assert doc["solution"]["residual"] <= 1e-10
    indices = {tuple(c["index"]) for c in doc["solution"]["coefficients"]}
    assert indices <= {(1,), (-1,)}


def test_hill_check_undecided_exit_code(tmp_path, capsys):
    # a near-root shift: the determinant is too small to certify nonzero and
    # the kernel residual is too large to certify zero
    path = write(
        tmp_path,
        "near.json",
        {
            "dimension": 1,
            "nu": 2.0,
            "potential": [{"index": [0], "re": -FOUR_PI_SQ * (1.0 + 1e-7), "im": 0.0}],
        },
    )
    status, out, _ = run_cli(capsys, "hill", "check", path)
    assert status == 2
    assert json.loads(out)["decision"] == "undecided"


def test_hill_scan_json_and_csv(tmp_path, capsys):
    doc = {
        "dimension": 1,
        "nu": 2.0,
        "potential": [],
        "scan": {"lambda_min": -90.0, "lambda_max": 10.0, "steps": 201},
    }
    path = write(tmp_path, "scan.json", doc)
    status, out, _ = run_cli(capsys, "--max-radius", "16", "hill", "scan", path)
    assert status == 0
    parsed = json.loads(out)
    roots = [r["lambda"] for r in parsed["roots"]]
    assert len(roots) == 2
    assert min(abs(r) for r in roots) <= 1e-6
    assert min(abs(r + FOUR_PI_SQ) for r in roots) <= 1e-5
    multiplicity = {round(r["lambda"]): r["multiplicity"] for r in parsed["roots"]}
    assert multiplicity == {0: 1, -39: 2}
    roots_text = out.split('"brackets"')[0]
    assert '"lambda": 0,' in roots_text
    assert "-0," not in roots_text

    status, out, _ = run_cli(
        capsys, "--max-radius", "16", "--format", "csv", "hill", "scan", path
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,det_re,det_im,certified_error"
    assert len(lines) == 202
    first = lines[1].split(",")
    assert float(first[0]) == -90.0


def test_symbol2matrix_emits_entries_and_ladder(tmp_path, capsys):
    path = write(tmp_path, "sym.json", {"dimension": 1, "kind": "fractional_laplacian", "nu": 2.0})
    status, out, _ = run_cli(capsys, "symbol2matrix", path, "--radius", "4")
    assert status == 0
    doc = json.loads(out)
    diag = {tuple(e["row"])[0]: e["re"] for e in doc["entries"]}
    assert diag[1] == pytest.approx(FOUR_PI_SQ, rel=1e-15)
    assert doc["norm_ladder"][-1]["radius"] == 4
    assert doc["norm_ladder"][-1]["l1_norm"] == pytest.approx(
        sum(FOUR_PI_SQ * k * k for k in range(-4, 5)), rel=1e-14
    )


def test_diagnose_fractional_laplacian(tmp_path, capsys):
    path = write(tmp_path, "sym.json", {"dimension": 1, "kind": "fractional_laplacian", "nu": 1.5})
    status, out, _ = run_cli(capsys, "diagnose", path)
    assert status == 0
    doc = json.loads(out)
    assert abs(doc["order_estimate"] - 1.5) <= 0.1
    assert doc["strong_ellipticity"]["passed"] is True
    assert doc["l1_membership"]["in_l1"] is False


def test_diagnose_fits_the_order_once_and_reports_it_as_estimated(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "sum.json", {"dimension": 1, "kind": "sum", "parts": [
        {"kind": "fractional_laplacian", "nu": 2.0},
        {"kind": "multiplication", "coefficients": [{"index": [1], "re": 0.5, "im": 0.0}]},
    ]})
    fits = []
    fit = toroidal.symbol_order_diagnostic

    def counted(*args, **kwargs):
        fits.append(args[1])
        return fit(*args, **kwargs)

    monkeypatch.setattr(toroidal, "symbol_order_diagnostic", counted)
    monkeypatch.setattr(cli, "symbol_order_diagnostic", counted)
    status, out, _ = run_cli(capsys, "--max-radius", "16", "diagnose", path)
    assert status == 0
    assert fits == [(2,)]
    doc = json.loads(out)
    membership = doc["l1_membership"]
    assert membership["order_used"] == doc["order_estimate"] == doc["strong_ellipticity"]["order_m"]
    assert membership["warning"] == f"order estimated from decay fit: m ~ {doc['order_estimate']:.3f}"
    assert [e["radius"] for e in membership["ladder"]] == [4, 8, 16]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, out, err = run_cli(capsys, "det", str(bad))
    assert status == 1
    assert out == ""
    assert "input error" in err


def test_validation_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad_nu.json", {"dimension": 1, "nu": 1.0, "potential": []})
    status, _, err = run_cli(capsys, "hill", "check", path)
    assert status == 1
    assert "nu must exceed dimension" in err


@pytest.mark.parametrize(
    "command, doc, where",
    [
        (["diagnose"], {"dimension": 1, "kind": "multiplier", "values": [1]}, "symbol.values[0]"),
        (["det"], {"dimension": 1, "entries": [], "tail_bound": 3}, "matrix.tail_bound"),
        (
            ["det"],
            {"dimension": 1, "entries": [], "tail_bound": {"kind": "power", "parameters": 3}},
            "matrix.tail_bound",
        ),
        (["hill", "scan"], {"dimension": 1, "nu": 2.0, "potential": [], "scan": 5}, "hill.scan"),
    ],
)
def test_non_object_containers_are_input_errors(tmp_path, capsys, command, doc, where):
    path = write(tmp_path, "bad.json", doc)
    status, out, err = run_cli(capsys, *command, path)
    assert status == 1
    assert out == ""
    assert err == f"input error: {where}: expected an object\n"


@pytest.mark.parametrize(
    "command, doc, field",
    [
        # a misspelt "re" once read as 0: det(I + 0) = 1, "certified"
        (["det"], {"dimension": 1, "entries": [{"row": [0], "col": [0], "value": 5.0}]},
         "matrix.entries[0].value"),
        # a potential read as Q = 0 gave "nontrivial-solution"
        (["hill", "check"], {"dimension": 1, "nu": 2.0, "potential": [{"index": [0], "value": 3.0}]},
         "hill.potential[0].value"),
        (["det"], {"dimension": 1, "entries": [], "tail": {"kind": "exact"}}, "matrix.tail"),
        (["det"], {"dimension": 1, "entries": [], "tail_bound": {"kind": "power", "parameters": {
            "c": 1.0, "p": 2.0, "q": 1.0}}}, "matrix.tail_bound.parameters.q"),
        (["diagnose"], {"dimension": 1, "kind": "fractional_laplacian", "nu": 2.0, "values": []},
         "symbol.values"),
        (["diagnose"], {"dimension": 1, "kind": "sum", "parts": [
            {"kind": "fractional_laplacian", "nu": 2.0, "order": 2.0}]}, "symbol.order"),
        (["symbol2matrix"], {"dimension": 1, "kind": "table", "entries": [
            {"offset": [0], "index": [0], "re": 1.0}, {"offset": [0], "index": [1], "imag": 1.0}]},
         "symbol.entries[1].imag"),
        (["hill", "scan"], {"dimension": 1, "nu": 2.0, "potential": [], "scan": {
            "lambda_min": -1.0, "lambda_max": 1.0, "steps": 3, "step": 1}}, "hill.scan.step"),
    ],
)
def test_keys_a_document_does_not_define_are_input_errors(tmp_path, capsys, command, doc, field):
    status, out, err = run_cli(capsys, *command, write(tmp_path, "extra.json", doc))
    assert (status, out) == (1, "")
    assert err == f"input error: {field}: unknown field\n"


def with_items(base, field, *items):
    return {**base, field: list(items)}


MATRIX = {"dimension": 1}
ENTRY = {"row": [0], "col": [0], "re": 0.5, "im": 0.0}
POWER = {"kind": "power", "c": 2.0, "p": 1.0}
HILL = {"dimension": 1, "nu": 2.0, "potential": [{"index": [0], "re": 3.0}]}
SCAN = {"lambda_min": -5.0, "lambda_max": 5.0, "steps": 11}


# json.dumps writes nan and inf as NaN and Infinity, which json.load reads back
@pytest.mark.parametrize(
    "command, doc, field",
    [
        (["trace"], with_items(MATRIX, "entries", ENTRY, {**ENTRY, "re": math.nan}),
         "matrix.entries[1].re"),
        (["det"], with_items(MATRIX, "entries", {**ENTRY, "im": -math.inf}), "matrix.entries[0].im"),
        (["det"], with_items(MATRIX, "entries", {**ENTRY, "re": 10**400}), "matrix.entries[0].re"),
        (["trace"], with_items(MATRIX, "entries", {**ENTRY, "row": [10**30]}),
         "matrix.entries[0].row[0]"),
        (["det"], with_items(MATRIX, "entries", {**ENTRY, "col": [-(2**63) - 1]}),
         "matrix.entries[0].col[0]"),
        (["det"], {**MATRIX, "entries": [], "tail_bound": {**POWER, "c": True}},
         "matrix.tail_bound.c"),
        (["det"], {**MATRIX, "entries": [], "tail_bound": {**POWER, "p": math.nan}},
         "matrix.tail_bound.p"),
        (["det"], {**MATRIX, "entries": [], "tail_bound": {"kind": "power", "parameters": {
            "c": math.inf, "p": 1.0}}}, "matrix.tail_bound.c"),
        (["symbol2matrix"], {"dimension": 1, "kind": "multiplier", "values": [
            {"index": [0], "re": math.nan}]}, "symbol.values[0].re"),
        (["diagnose"], {"dimension": 1, "kind": "multiplier", "values": [
            {"index": [2**63], "re": 1.0}]}, "symbol.values[0].index[0]"),
        (["diagnose"], {"dimension": 1, "kind": "fractional_laplacian", "nu": math.inf},
         "symbol.nu"),
        (["symbol2matrix"], {"dimension": 1, "kind": "fractional_laplacian", "nu": True},
         "symbol.nu"),
        (["diagnose"], {"dimension": 1, "kind": "table", "order_m": math.nan, "entries": []},
         "symbol.order_m"),
        (["symbol2matrix"], {"dimension": 1, "kind": "table", "entries": [
            {"offset": [False], "index": [0], "re": 1.0}]}, "symbol.entries[0].offset[0]"),
        (["symbol2matrix"], {"dimension": 1, "kind": "multiplication", "coefficients": [
            {"index": [1], "re": 1.0, "im": -(10**400)}]}, "symbol.coefficients[0].im"),
        (["diagnose"], {"dimension": 1, "kind": "sum", "parts": [
            {"kind": "fractional_laplacian", "nu": 2.0},
            {"kind": "multiplication", "coefficients": [{"index": [0], "re": -math.inf}]}]},
         "symbol.coefficients[0].re"),
        (["hill", "check"], {**HILL, "potential": [{"index": [0], "re": math.inf}]},
         "hill.potential[0].re"),
        (["hill", "check"], {**HILL, "nu": math.nan}, "hill.nu"),
        (["hill", "check"], {**HILL, "nu": True}, "hill.nu"),
        (["hill", "scan"], {**HILL, "potential": [{"index": [-(2**64)], "re": 1.0}], "scan": SCAN},
         "hill.potential[0].index[0]"),
        (["hill", "scan"], {**HILL, "scan": {**SCAN, "lambda_min": -math.inf}},
         "hill.scan.lambda_min"),
        (["hill", "scan"], {**HILL, "scan": {**SCAN, "lambda_max": 10**400}},
         "hill.scan.lambda_max"),
        # each end is a float, their distance is not
        (["hill", "scan"], {**HILL, "scan": {**SCAN, "lambda_min": -1.7e308, "lambda_max": 1.7e308}},
         "hill.scan"),
    ],
)
def test_malformed_numbers_are_input_errors(tmp_path, capsys, command, doc, field):
    # an uncaught exception (the OverflowError of a long integer literal)
    # would end this call, and the test, with a traceback
    path = write(tmp_path, "bad.json", doc)
    status, out, err = run_cli(capsys, *command, path)
    assert status == 1
    assert out == ""
    assert err.startswith(f"input error: {field}: ")
    assert err.count("\n") == 1


BIG_DIAGONAL = with_items(
    MATRIX, "entries", {**ENTRY, "re": 1e308}, {**ENTRY, "row": [1], "col": [1], "re": 1e308})


def run_cli_without_warnings(capsys, *argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return result


def test_an_overflowed_trace_is_a_computation_error(tmp_path, capsys):
    # the l1 norm of the document's entries overflows too, without a warning
    status, out, err = run_cli_without_warnings(
        capsys, "trace", write(tmp_path, "big.json", BIG_DIAGONAL))
    assert status == 1
    assert out == ""
    assert err.startswith("computation error: ") and "overflow" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("col", [[0], [1]], ids=["diagonal", "crossed"])
def test_a_trace_past_the_float_range_inside_the_first_rung_gives_no_warning(
    tmp_path, capsys, col
):
    # 1e308 on (0, col) and (1, 1 - col) inside the first rung, and 1e-300 at 100
    doc = with_items(
        MATRIX, "entries", {**ENTRY, "col": col, "re": 1e308},
        {**ENTRY, "row": [1], "col": [1 - col[0]], "re": 1e308},
        {**ENTRY, "row": [100], "col": [100], "re": 1e-300})
    status, out, err = run_cli_without_warnings(
        capsys, "trace", write(tmp_path, "big.json", doc))
    if col == [0]:
        assert (status, out) == (1, "")
        assert err.startswith("computation error: ") and "overflow" in err
        assert err.count("\n") == 1
    else:
        doc = json.loads(out)
        assert status == 0
        assert doc["value"] == {"re": 1e-300, "im": 0} and doc["certified_error"] == 0


def test_a_norm_ladder_past_the_float_range_gives_no_warning(tmp_path, capsys):
    doc = {"dimension": 1, "kind": "multiplication", "coefficients": [
        {"index": [l], "re": 1e308} for l in (-1, 1)]}
    status, out, _ = run_cli_without_warnings(
        capsys, "symbol2matrix", write(tmp_path, "big.json", doc), "--radius", "2")
    doc = json.loads(out)
    assert status == 0 and doc["l1_norm"] == math.inf
    assert [step["l1_norm"] for step in doc["norm_ladder"]] == [math.inf, math.inf]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (["det"], BIG_DIAGONAL,
         "computation error: l1 norm of the matrix is not finite: inf"),
        # a finite norm, but section determinants of 1e100^9 and 1e100^10
        (["det"], with_items(MATRIX, "entries", *(
            {**ENTRY, "row": [i], "col": [i], "re": 1e100} for i in range(10))),
         "computation error: determinant bound did not reach tol=1e-08"),
        (["hill", "check"], {**HILL, "potential": [
            {"index": [l], "re": 1e308} for l in (-1, 0, 1)]},
         "input error: hill.potential: the l1 mass of the potential is not finite"),
        (["hill", "scan"], {**HILL, "scan": SCAN, "potential": [
            {"index": [l], "re": 1e308} for l in (-1, 0, 1)]},
         "input error: hill.potential: the l1 mass of the potential is not finite"),
    ],
    ids=["det-1e308", "det-1e100", "hill-check", "hill-scan"],
)
def test_overflowing_documents_give_one_error_line_and_no_warning(
    tmp_path, capsys, command, doc, message
):
    status, out, err = run_cli_without_warnings(
        capsys, *command, write(tmp_path, "big.json", doc))
    assert status == 1
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_hill_check_skips_the_kernel_check_past_the_section_limit(tmp_path, capsys, monkeypatch):
    # the ladder stops after its rung of radius 8 (289 points), short of the
    # window of radius 16 (1089 points) the kernel check would fill
    monkeypatch.setattr(l1_algebra, "_SECTION_SIZE_LIMIT", 1000)
    near_root = -((2.0 * math.pi) ** 3) + 0.5
    potential = {(0, 0): near_root, (1, 0): 0.4, (-1, 0): 0.4, (0, 1): 0.3, (0, -1): 0.3}
    path = write(tmp_path, "near.json", {"dimension": 2, "nu": 3.0, "potential": [
        {"index": list(k), "re": v} for k, v in potential.items()]})
    status, out, _ = run_cli(capsys, "--max-radius", "16", "hill", "check", path)
    assert status == 2
    doc = json.loads(out)
    assert doc["decision"] == "undecided" and doc["kernel_certified"] is False
    assert [step["radius"] for step in doc["determinant"]["ladder"]] == [8]


# a finite l1 mass, but sections and residuals past the float range
HUGE_COSINE = {**HILL, "potential": [
    {"index": [0], "re": 1.0}, {"index": [1], "re": 1e200}, {"index": [-1], "re": 1e200}]}


@pytest.mark.parametrize("command", ["check", "scan"])
def test_an_overflowing_hill_section_is_vacuous_without_a_warning(tmp_path, capsys, command):
    doc = HUGE_COSINE if command == "check" else {**HUGE_COSINE, "scan": SCAN}
    status, out, err = run_cli_without_warnings(
        capsys, "hill", command, write(tmp_path, "huge.json", doc))
    assert err.startswith("elapsed_seconds") and err.count("\n") == 1
    doc = json.loads(out)
    if command == "check":
        assert status == 2 and doc["decision"] == "undecided"
        assert doc["kernel_certified"] is False  # the inf residual is no kernel
        det = doc["determinant"]
        assert det["value"]["re"] == det["certified_error"] == math.inf
    else:
        assert status == 0 and doc["roots"] == [] and doc["failures"] == []
        assert {(row["det"]["re"], row["certified_error"]) for row in doc["table"]} == {
            (-math.inf, math.inf)}


def test_hill_check_refuses_a_first_rung_over_the_section_limit(tmp_path, capsys, monkeypatch):
    import tracemalloc

    from torusdet import hill

    def refuse(p, w):
        raise AssertionError(f"built the window of radius {w.radius}")

    # the rung of radius 8 has 17^4 points: nothing is built for it
    monkeypatch.setattr(hill, "build_hill_matrix", refuse)
    path = write(tmp_path, "four.json", {"dimension": 4, "nu": 5.0, "potential": [
        {"index": [0, 0, 0, 0], "re": 2.0}, {"index": [1, 0, 0, 0], "re": 0.3},
        {"index": [-1, 0, 0, 0], "re": 0.3}]})
    tracemalloc.start()
    try:
        status, out, err = run_cli(capsys, "hill", "check", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert status == 1
    assert out == ""
    assert err == ("computation error: window of radius 8 has 83521 points; "
                   "dense section refused (limit 20000)\n")


@pytest.mark.parametrize(
    "steps, message",
    [(True, "expected an integer"), (2**63 - 1, "need 2 to 1000000 steps, got 9223372036854775807")],
)
def test_scan_steps_must_be_a_bounded_integer(tmp_path, capsys, steps, message):
    path = write(tmp_path, "scan.json", {**HILL, "scan": {**SCAN, "steps": steps}})
    status, out, err = run_cli(capsys, "hill", "scan", path)
    assert status == 1
    assert out == ""
    assert err == f"input error: hill.scan.steps: {message}\n"


def test_usage_errors(tmp_path, capsys):
    status, _, err = run_cli(capsys, "explode")
    assert status == 1
    path = write(tmp_path, "zero.json", {"dimension": 1, "entries": []})
    status, _, err = run_cli(capsys, "--grid", "100", "det", path)
    assert status == 1
    assert "power of two" in err


def test_one_parser_serves_every_call(tmp_path, capsys):
    path = write(tmp_path, "sym.json", {"dimension": 1, "kind": "fractional_laplacian", "nu": 2.0})
    assert run_cli(capsys, "symbol2matrix", path, "--radius", "4")[0] == 0
    status, _, err = run_cli(capsys, "symbol2matrix", path, "--radius", "0")
    assert status == 1 and "must be >= 1" in err
    status, out, _ = run_cli(capsys, "symbol2matrix", path)
    assert status == 0
    assert json.loads(out)["radius"] == 8  # the default, not a value of an earlier call
    assert cli.build_parser() is cli.build_parser()


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "zero.json", {"dimension": 1, "entries": []})
    # run the package under test even when it is not installed
    src = os.path.dirname(os.path.dirname(torusdet.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "torusdet.cli", "det", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == {"re": 1, "im": 0}


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10; CI runs a 3.10 leg
    src = os.path.dirname(torusdet.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = sorted(glob.glob(os.path.join(src, "*.py")) + glob.glob(os.path.join(tests, "*.py")))
    assert len(paths) >= 16
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
