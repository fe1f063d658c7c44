#!/usr/bin/env python3
"""Self-test of the benchmark: oracles, library certificates, tracing.

Run from the repository root (about two minutes, ~0.6 GB peak memory):

    python3 perfbench/selftest.py

1. The oracles reproduce their closed forms (Q = 3 Hill determinant, the
   acceptance-3 damped diagonal, the acceptance-4 trace) and the monodromy
   oracle agrees with the constant-potential closed form.
2. The library's values for those three problems lie inside their own
   certificates of the oracle values.
3. A traced run of every workload gives op outputs identical to the
   untraced passes of the same run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402

failures = []


def verdict(ok, text):
    print(f"{'PASS' if ok else 'FAIL'}: {text}")
    if not ok:
        failures.append(text)


def test_closed_forms():
    for name, value, expected in (
        ("Q = 3 Hill determinant", oracles.constant_hill_det(3.0), 3.5254017865),
        ("acceptance-3 diagonal", oracles.damped_diagonal_det(3.0), 5.0861612696),
        ("acceptance-4 trace", oracles.damped_diagonal_trace(3.0), 3.2459301206),
    ):
        verdict(abs(value - expected) < 1e-10, f"{name} oracle {value:.10f} vs {expected}")
    rk4 = oracles.monodromy_hill_dets([{0: 3.0}, {0: -2.0}])
    for got, c in zip(rk4, (3.0, -2.0)):
        ref = oracles.constant_hill_det(c)
        verdict(abs(got - ref) < 1e-9, f"monodromy Q = {c}: {got.real:.12f} vs closed form {ref:.12f}")
    verdict(oracles.shell_sum_constant_det(oracles.singular_2d_constant()) == 0.0,
            "shell sum of the singular 2-D constant is 0")


def test_library_certificates():
    from torusdet import hill, l1_algebra

    import workloads

    env = SimpleNamespace(mods=SimpleNamespace(l1_algebra=l1_algebra))
    result = hill.hill_determinant(hill.HillProblem(1, 2.0, {(0,): 3.0}), 1e-6)
    report("Q = 3 hill_determinant", result.value, result.certified_error,
           oracles.constant_hill_det(3.0))
    matrix, tail = workloads.damped_diagonal(env, 3.0, 2_000_000)
    result = l1_algebra.poincare_determinant(matrix, tail, 1e-6, max_radius=64)
    report("acceptance-3 poincare_determinant", result.value, result.certified_error,
           oracles.damped_diagonal_det(3.0))
    del matrix, tail, result
    matrix, tail = workloads.damped_diagonal(env, 3.0, 16_000_000)
    result = l1_algebra.poincare_trace(matrix, tail, 1e-8)
    report("acceptance-4 poincare_trace", result.value, result.certified_error,
           oracles.damped_diagonal_trace(3.0))


def report(name, value, cert, reference):
    err = abs(complex(value) - reference)
    verdict(err <= cert, f"{name} {complex(value).real:.10f} +- {cert:.2e}, "
                         f"oracle {reference:.10f}, error {err:.2e}")


def test_traced_outputs_match():
    for name in ("scan", "certify", "dense-2d", "symbols"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", "2", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            verdict(False, f"traced {name} run exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads((ROOT / ".perfbench_out" / "results" / f"{name}-seed1-trace1.json").read_text())
        differing = [p for p in result["problems"] if "differs" in p[2]]
        verdict(not differing and result["wrong"] == 0,
                f"traced {name}: {len(result['problems'])} non-ok ops, "
                f"{len(differing)} with output differing from untraced")


if __name__ == "__main__":
    test_closed_forms()
    test_library_certificates()
    test_traced_outputs_match()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
