import json
import math
import os
import subprocess
import sys

import pytest

import torusdet
from torusdet.cli import main

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
    assert out1 == out2


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


def test_usage_errors(tmp_path, capsys):
    status, _, err = run_cli(capsys, "explode")
    assert status == 1
    path = write(tmp_path, "zero.json", {"dimension": 1, "entries": []})
    status, _, err = run_cli(capsys, "--grid", "100", "det", path)
    assert status == 1
    assert "power of two" in err


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
