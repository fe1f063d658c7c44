"""Seeded workloads: input generation, stored inputs, oracle values and ops.

Each workload is split in four steps so the runner can time them apart:

* ``generate(rng)`` draws the parameters (pure data, no torusdet code;
  untimed, as scan's redraw check uses eigvalsh);
* ``materialize(spec, env)`` writes the documents and builds the stored
  matrices and problem objects the program receives (timed as set-up);
* ``oracles(spec)`` computes the independent reference answers (untimed);
* ``ops(spec, built, truth, env)`` returns the op list of one pass.

An op is one library call or one in-process ``torusdet.cli.main(argv)``
call.  Library functions are looked up on their module at call time, so the
tracer's wrappers see every call.  Each op's ``check`` turns the raw outcome
into (status, reason, certified error) with status ``ok``, ``fail`` (raised,
non-zero exit, missed tol) or ``wrong`` (contradicts its oracle).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

OK, FAIL, WRONG = "ok", "fail", "wrong"
FOUR_PI_SQ = oracles.FOUR_PI_SQ


@dataclass
class Op:
    label: str  # unique within a pass; repeats of a label must match exactly
    kind: str  # op family, e.g. "cli hill scan json"
    call: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class CliResult:
    exit: int
    stdout: str


def run_cli(env, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = env.mods.cli.main(list(argv))
    return CliResult(int(code), out.getvalue())


def write_doc(env, name, doc):
    path = os.path.join(env.docdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _cx(z):
    z = complex(z)
    return [z.real, z.imag]


def describe(raw):
    """JSON-able summary of an op outcome; repeats must give identical text."""
    name = type(raw).__name__
    if isinstance(raw, CliResult):
        return {"exit": raw.exit, "stdout": raw.stdout}
    if isinstance(raw, BaseException):
        doc = {"error": name, "message": str(raw)}
        for attr in ("last_value", "last_bound", "singular_value"):
            if getattr(raw, attr, None) is not None:
                doc[attr] = repr(getattr(raw, attr))
        if getattr(raw, "ladder", None):
            doc["ladder"] = repr(raw.ladder)
        return doc
    if name == "GridFunction":
        return {"samples": [_cx(z) for z in raw.samples.ravel()]}
    if name == "ExistenceResult":
        return {
            "decision": raw.decision,
            "kernel_certified": raw.kernel_certified,
            "determinant": describe(raw.determinant),
        }
    if name == "SolutionCandidate":
        return {
            "residual": raw.residual,
            "singular_value": raw.singular_value,
            "regularity_mass": raw.regularity_mass,
            "coefficients": sorted((k, _cx(v)) for k, v in raw.coefficients.items()),
        }
    return {"repr": repr(raw)}


# ---------------------------------------------------------------------------
# shared checks


def _within(value, reference, cert):
    return abs(complex(value) - reference) <= cert + oracles.slack(reference)


def check_determinant(raw, reference, tol):
    """A determinant result or a NonConvergenceError against its oracle."""
    if type(raw).__name__ == "NonConvergenceError":
        if raw.last_value is None or not _within(raw.last_value, reference, raw.last_bound):
            return WRONG, f"best value {raw.last_value} +- {raw.last_bound} vs oracle {reference}", raw.last_bound
        return FAIL, f"missed tol {tol}: best bound {raw.last_bound:.3e}", raw.last_bound
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    if not _within(raw.value, reference, raw.certified_error):
        return WRONG, f"{raw.value} +- {raw.certified_error} vs oracle {reference}", raw.certified_error
    if not (raw.converged and raw.certified_error <= tol):
        return FAIL, f"missed tol {tol}: bound {raw.certified_error:.3e}", raw.certified_error
    return OK, "", raw.certified_error


def _parse_cli_json(raw):
    if isinstance(raw, BaseException):
        return None, (FAIL, f"raised {type(raw).__name__}: {raw}", None)
    try:
        doc = json.loads(raw.stdout)
    except ValueError:
        return None, (FAIL if raw.exit else WRONG, f"exit {raw.exit}, stdout not JSON", None)
    return doc, None


# ---------------------------------------------------------------------------
# scan: hill scan (JSON and CSV) on 1-D, nu = 2 real cosine potentials

SCAN_RADIUS = 32  # the CLI's section radius min(--max-radius 64, 32)
SCAN_STEPS = 201


# One mode per potential, so every scan materializes the same number of
# entries and the op latencies form one cluster, and a scan is cheap enough
# for ~40 ops per run.  Mode 2 splits the k = +-1 pair at first order; mode 1
# alone splits it only at second order and mode 3 alone not at all.
SCAN_MODES = ((2,), (2,), (2,))


def _cosine_potential(rng, modes):
    pot = {}
    for m in modes:
        low = 1.0 if m == 2 else 0.5
        amp = float(rng.uniform(low, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        pot[m] = amp / 2.0
        pot[-m] = amp / 2.0
    return pot


def _scan_roots_separated(pot, lo, hi):
    """Roots of the scan interval are at least 3 grid steps apart and from the ends."""
    lambdas = np.linspace(lo, hi, SCAN_STEPS)
    step = lambdas[1] - lambdas[0]
    roots, _ = oracles.scan_oracle(pot, SCAN_RADIUS, lambdas)
    edges_ok = all(r - lo >= 2 * step and hi - r >= 2 * step for r in roots)
    gaps_ok = all(b - a >= 3 * step for a, b in zip(roots, roots[1:]))
    return edges_ok and gaps_ok and len(roots) >= 2


def scan_generate(rng):
    """Three potentials; the interval holds the three lowest roots -mu_0..-mu_2.

    A draw whose roots the 201-point grid cannot separate (closer than three
    grid steps) is redrawn; with |g_2| >= 1/2 this practically never happens.
    The check needs eigvalsh, so the runner draws once, before any clock.
    """
    problems = []
    for modes in SCAN_MODES:
        for _ in range(100):
            pot = _cosine_potential(rng, modes)
            dense, _ = oracles.undamped_section(pot, SCAN_RADIUS, 1, 2.0)
            mu = np.sort(np.linalg.eigvalsh(dense))
            hi = float(-mu[0] + rng.uniform(2.0, 6.0))
            lo = float(-mu[2] - rng.uniform(2.0, 6.0))
            if _scan_roots_separated(pot, lo, hi):
                break
        else:
            raise RuntimeError(f"no resolvable scan problem drawn for modes {modes}")
        problems.append({"potential": pot, "lambda_min": lo, "lambda_max": hi})
    return {"problems": problems}


def _hill_doc(dimension, nu, potential, scan=None):
    doc = {
        "dimension": dimension,
        "nu": nu,
        "potential": [
            {"index": list(k) if isinstance(k, tuple) else [k], "re": complex(v).real,
             "im": complex(v).imag}
            for k, v in potential.items()
        ],
    }
    if scan is not None:
        doc["scan"] = scan
    return doc


def scan_materialize(spec, env):
    paths = []
    for i, prob in enumerate(spec["problems"]):
        scan = {"lambda_min": prob["lambda_min"], "lambda_max": prob["lambda_max"],
                "steps": SCAN_STEPS}
        paths.append(write_doc(env, f"scan{i}.json", _hill_doc(1, 2.0, prob["potential"], scan)))
    return {"paths": paths}


def scan_oracles(spec):
    truth = []
    for prob in spec["problems"]:
        lambdas = np.linspace(prob["lambda_min"], prob["lambda_max"], SCAN_STEPS)
        roots, dets = oracles.scan_oracle(prob["potential"], SCAN_RADIUS, lambdas)
        truth.append({"lambdas": lambdas, "roots": roots, "dets": dets})
    return truth


def _check_scan_table(lambdas, values, truth):
    if len(lambdas) != SCAN_STEPS or np.max(np.abs(np.asarray(lambdas) - truth["lambdas"])) > 1e-12:
        return "scan grid differs from the requested linspace"
    scale = float(np.max(np.abs(truth["dets"])))
    err = float(np.max(np.abs(np.asarray(values) - truth["dets"])))
    if err > oracles.ORACLE_SLACK * scale:
        return f"section determinants off by {err:.3e} (scale {scale:.3e})"
    return None


def _check_scan_json(raw, truth):
    doc, bad = _parse_cli_json(raw)
    if bad:
        return bad
    table = doc["table"]
    problem = _check_scan_table(
        [row["lambda"] for row in table],
        [complex(row["det"]["re"], row["det"]["im"]) for row in table],
        truth,
    )
    if problem:
        return WRONG, problem, None
    found = sorted(root["lambda"] for root in doc["roots"])
    expected = truth["roots"]
    if len(found) != len(expected) or any(abs(a - b) > 1e-6 for a, b in zip(found, expected)):
        return WRONG, f"roots {found} vs eigvalsh {expected}", None
    if raw.exit != 0 or doc["failures"]:
        return FAIL, f"exit {raw.exit}, {len(doc['failures'])} refinement failures", None
    return OK, "", None


def _check_scan_csv(raw, truth):
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    if raw.exit != 0:
        return FAIL, f"exit {raw.exit}", None
    lines = raw.stdout.strip().split("\n")
    if lines[0] != "lambda,det_re,det_im,certified_error":
        return WRONG, "unexpected CSV header", None
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    problem = _check_scan_table(
        [r[0] for r in rows], [complex(r[1], r[2]) for r in rows], truth
    )
    return (WRONG, problem, None) if problem else (OK, "", None)


def scan_ops(spec, built, truth, env):
    ops = []
    for i, path in enumerate(built["paths"]):
        t = truth[i]
        ops.append(Op(f"scan{i}-json", "cli hill scan json",
                      lambda p=path: run_cli(env, ["hill", "scan", p]),
                      lambda raw, t=t: _check_scan_json(raw, t)))
        ops.append(Op(f"scan{i}-csv", "cli hill scan csv",
                      lambda p=path: run_cli(env, ["--format", "csv", "hill", "scan", p]),
                      lambda raw, t=t: _check_scan_csv(raw, t)))
    return ops


# ---------------------------------------------------------------------------
# certify: certified determinants and traces of stored diagonals, Hill
# determinants at tol 1e-6 with automatic coverage, and hill check

# (coverage range, coefficient band) per stored diagonal.  The coefficient
# band fixes the ladder length at tol 3e-6 (1, 2, 3 and 4 rungs), so the
# work per pass does not depend on the seed.
DIAGONALS = (
    ((1_000_000, 1_250_000), (0.6, 1.2)),
    ((1_750_000, 2_000_000), (1.55, 1.95)),
    ((2_500_000, 2_750_000), (2.55, 3.2)),
    ((3_250_000, 3_500_000), (3.55, 4.0)),
)
DIAGONAL_DET_TOL = 3e-6
DIAGONAL_TRACE_TOL = 1e-6
HILL_TOL = 1e-6


def certify_generate(rng):
    diagonals = [
        {"coverage": int(rng.integers(lo, hi + 1)), "coeff": float(rng.uniform(*band))}
        for (lo, hi), band in DIAGONALS
    ]
    trig = {0: float(rng.uniform(2.0, 4.0))}
    for m in (1, 2):
        trig[m] = trig[-m] = float(rng.uniform(0.5, 1.5))  # Q = g0 + 2 g_m cos(2 pi m x)
    check_trig = {0: float(rng.uniform(2.0, 5.0)), 1: float(rng.uniform(0.3, 1.0))}
    check_trig[-1] = check_trig[1]
    singular_shell = int(rng.integers(1, 3))
    return {
        "diagonals": diagonals,
        "constant": float(rng.uniform(3.5, 4.0)),  # coverage at the entry cap; converges
        "small_constant": float(rng.uniform(0.45, 0.55)),
        "trig": trig,
        "check_trig": check_trig,
        "check_singular": -FOUR_PI_SQ * singular_shell**2,
        "singular_shell": singular_shell,
    }


def damped_diagonal(env, coeff, coverage):
    """Stored diagonal a_k = coeff / (4 pi^2 k^2 + 1), |k| <= coverage, with its tail."""
    l1 = env.mods.l1_algebra
    k = np.arange(-coverage, coverage + 1, dtype=np.int32)[:, None]
    kf = k[:, 0].astype(np.float64)
    kf *= kf
    kf *= FOUR_PI_SQ
    kf += 1.0
    vals = coeff / kf
    matrix = l1.SparseL1Matrix.from_canonical_arrays(1, k, k, vals, norm=float(np.sum(vals)))
    tail = l1.TailModel.user_bound(
        lambda r: (coeff / math.pi) * (math.pi / 2 - math.atan(2 * math.pi * max(r, 1)))
    )
    return matrix, tail


def certify_materialize(spec, env):
    hill = env.mods.hill
    return {
        "diagonals": [damped_diagonal(env, d["coeff"], d["coverage"]) for d in spec["diagonals"]],
        "constant": hill.HillProblem(1, 2.0, {(0,): spec["constant"]}),
        "small_constant": hill.HillProblem(1, 2.0, {(0,): spec["small_constant"]}),
        "trig": hill.HillProblem(1, 2.0, {(k,): v for k, v in spec["trig"].items()}),
        "check_paths": [
            write_doc(env, "check_trig.json", _hill_doc(1, 2.0, spec["check_trig"])),
            write_doc(env, "check_singular.json", _hill_doc(1, 2.0, {0: spec["check_singular"]})),
        ],
    }


def certify_oracles(spec):
    trig, check_trig = oracles.monodromy_hill_dets([spec["trig"], spec["check_trig"]])
    return {
        "diag_det": [oracles.damped_diagonal_det(d["coeff"]) for d in spec["diagonals"]],
        "diag_trace": [oracles.damped_diagonal_trace(d["coeff"]) for d in spec["diagonals"]],
        "constant": oracles.constant_hill_det(spec["constant"]),
        "small_constant": oracles.constant_hill_det(spec["small_constant"]),
        "trig": trig,
        "check_trig": check_trig,
    }


def _check_trace(raw, reference, tol):
    if type(raw).__name__ == "NonConvergenceError":
        return FAIL, f"missed tol {tol}: best bound {raw.last_bound}", raw.last_bound
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    if not _within(raw.value, reference, raw.certified_error):
        return WRONG, f"{raw.value} +- {raw.certified_error} vs coth form {reference}", raw.certified_error
    if raw.certified_error > tol:
        return FAIL, f"missed tol {tol}", raw.certified_error
    return OK, "", raw.certified_error


def _check_hill_check(raw, reference, shell=None):
    """hill check stdout against the oracle determinant (0 for singular)."""
    doc, bad = _parse_cli_json(raw)
    if bad:
        return bad
    det = doc["determinant"]
    value = complex(det["value"]["re"], det["value"]["im"])
    cert = det["certified_error"]
    if not _within(value, reference, cert):
        return WRONG, f"det {value} +- {cert} vs oracle {reference}", cert
    decision = doc["decision"]
    if reference == 0 and decision == "only-trivial":
        return WRONG, "singular problem decided only-trivial", cert
    if reference != 0 and decision == "nontrivial-solution" and abs(reference) > cert + oracles.slack(reference):
        return WRONG, f"nonsingular problem (oracle {reference}) decided nontrivial", cert
    if shell is not None and decision == "nontrivial-solution":
        sol = doc.get("solution", {})
        mass = sum(c["re"] ** 2 + c["im"] ** 2 for c in sol.get("coefficients", [])
                   if abs(c["index"][0]) == shell)
        if sol.get("residual", math.inf) > 1e-10 or mass < 1.0 - 1e-8:
            return WRONG, f"null solution residual {sol.get('residual')} mass {mass}", cert
    if raw.exit != 0:
        return FAIL, f"exit {raw.exit} ({decision})", cert
    return OK, "", cert


def certify_ops(spec, built, truth, env):
    mods = env.mods
    ops = []
    for i, (matrix, tail) in enumerate(built["diagonals"]):
        ops.append(Op(f"diag{i}-det", "lib poincare_determinant",
                      lambda m=matrix, t=tail: mods.l1_algebra.poincare_determinant(
                          m, t, DIAGONAL_DET_TOL, max_radius=64),
                      lambda raw, r=truth["diag_det"][i]: check_determinant(raw, r, DIAGONAL_DET_TOL)))
        ops.append(Op(f"diag{i}-trace", "lib poincare_trace",
                      lambda m=matrix, t=tail: mods.l1_algebra.poincare_trace(m, t, DIAGONAL_TRACE_TOL),
                      lambda raw, r=truth["diag_trace"][i]: _check_trace(raw, r, DIAGONAL_TRACE_TOL)))
    for key in ("constant", "small_constant", "trig"):
        ops.append(Op(f"hill-{key}", "lib hill_determinant",
                      lambda p=built[key]: mods.hill.hill_determinant(p, HILL_TOL),
                      lambda raw, r=truth[key]: check_determinant(raw, r, HILL_TOL)))
    trig_path, singular_path = built["check_paths"]
    ops.append(Op("check-trig", "cli hill check",
                  lambda: run_cli(env, ["hill", "check", trig_path]),
                  lambda raw: _check_hill_check(raw, truth["check_trig"])))
    ops.append(Op("check-singular", "cli hill check",
                  lambda: run_cli(env, ["hill", "check", singular_path]),
                  lambda raw: _check_hill_check(raw, 0.0, shell=spec["singular_shell"])))
    return ops


# ---------------------------------------------------------------------------
# dense-2d: n = 2 determinants, existence tests and null solutions

DENSE_RADII = (12, 14, 16)  # support radii of the det matrices
# windows for the singular and the trigonometric null solution.  Both at 14,
# so only exist-singular stands above the next cost cluster: with two labels
# there, 2 x 5 passes = 10 ops, op_tail_s (10 ops beyond it) would sit on the
# boundary between two clusters and jump between them from run to run.
EXTRACT_RADII = (14, 14)
EXIST_MAX_RADIUS = 16
EXIST_COVERAGE = 64
EXIST_TOL = 1e-8
NU_2D = 3.0


def _random_2d_matrix(rng, radius):
    entries = {}
    corner = ((radius, -radius), (radius - 1, -radius))
    for _ in range(int(rng.integers(500, 700))):
        row = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=2))
        shift = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        col = tuple(max(-radius, min(radius, a + b)) for a, b in zip(row, shift))
        entries[(row, col)] = complex(rng.normal(0, 0.15), rng.normal(0, 0.15))
    entries[corner] = complex(rng.normal(0, 0.15), rng.normal(0, 0.15))
    return entries


def _trig_2d(rng):
    pot = {(0, 0): float(rng.uniform(1.0, 4.0))}
    for l in ((1, 0), (0, 1), (1, 1)):
        amp = complex(rng.uniform(0.2, 1.0))
        pot[l] = amp / 2.0
        pot[(-l[0], -l[1])] = amp / 2.0
    return pot


def dense_generate(rng):
    return {
        "matrices": [_random_2d_matrix(rng, radius) for radius in DENSE_RADII],
        "trig": [_trig_2d(rng), _trig_2d(rng)],
        "constant": float(rng.uniform(0.5, 5.0)),
    }


def dense_materialize(spec, env):
    hill = env.mods.hill
    paths = []
    for i, entries in enumerate(spec["matrices"]):
        doc = {"dimension": 2, "entries": [
            {"row": list(r), "col": list(c), "re": v.real, "im": v.imag}
            for (r, c), v in entries.items()
        ]}
        paths.append(write_doc(env, f"dense{i}.json", doc))
    singular = oracles.singular_2d_constant(NU_2D)
    return {
        "paths": paths,
        "trig": [hill.HillProblem(2, NU_2D, p) for p in spec["trig"]],
        "singular": hill.HillProblem(2, NU_2D, {(0, 0): singular}),
        "constant": hill.HillProblem(2, NU_2D, {(0, 0): spec["constant"]}),
        "windows": [env.mods.lattice.TruncationWindow(r, 2) for r in EXTRACT_RADII],
    }


def dense_oracles(spec):
    trig_sections = []
    for pot in spec["trig"]:
        # the existence ladder for max_radius 16 and coverage 64 ends at radius 16
        trig_sections.append(oracles.section_det(pot, EXIST_MAX_RADIUS, 2, NU_2D))
    return {
        "matrices": [oracles.exact_finite_det(m) for m in spec["matrices"]],
        "trig_sections": trig_sections,
        "singular": oracles.shell_sum_constant_det(oracles.singular_2d_constant(NU_2D)),
        "constant": oracles.shell_sum_constant_det(spec["constant"]),
        "trig_min_sv": oracles.section_min_singular(spec["trig"][0], EXTRACT_RADII[1], 2, NU_2D),
    }


def _check_dense_det(raw, reference):
    doc, bad = _parse_cli_json(raw)
    if bad:
        return bad
    value = complex(doc["value"]["re"], doc["value"]["im"])
    cert = doc["certified_error"]
    if not _within(value, reference, cert):
        return WRONG, f"det {value} +- {cert} vs eigvals product {reference}", cert
    if raw.exit != 0 or not doc["converged"]:
        return FAIL, f"exit {raw.exit}, converged {doc['converged']}", cert
    return OK, "", cert


def _check_existence(raw, reference=None, section=None):
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    det = raw.determinant
    cert = det.certified_error
    if section is not None:
        last = det.ladder[-1]
        if last.radius != EXIST_MAX_RADIUS or abs(last.value - section) > oracles.slack(section):
            return WRONG, f"radius-{last.radius} section {last.value} vs slogdet {section}", cert
    if reference is not None:
        if not _within(det.value, reference, cert):
            return WRONG, f"det {det.value} +- {cert} vs shell sum {reference}", cert
        if reference == 0 and raw.decision == "only-trivial":
            return WRONG, "singular constant decided only-trivial", cert
        if reference != 0 and raw.decision == "nontrivial-solution":
            return WRONG, f"nonsingular constant ({reference}) decided nontrivial", cert
    if raw.decision == "undecided":
        return FAIL, "undecided", cert
    return OK, "", cert


def _check_extract_singular(raw):
    if isinstance(raw, BaseException):
        status = WRONG if type(raw).__name__ == "NoNullSolutionError" else FAIL
        return status, f"raised {type(raw).__name__}: {raw}", None
    mass = sum(abs(v) ** 2 for k, v in raw.coefficients.items() if sum(c * c for c in k) == 1)
    if raw.residual > 1e-10 or mass < 1.0 - 1e-8:
        return WRONG, f"residual {raw.residual:.2e}, mass on |k| = 1 {mass}", None
    return OK, "", None


def _check_extract_trig(raw, min_sv):
    threshold = 1e-6
    if type(raw).__name__ == "NoNullSolutionError":
        if min_sv <= threshold or abs(raw.singular_value - min_sv) > 1e-8 * max(1.0, min_sv):
            return WRONG, f"singular value {raw.singular_value} vs svd {min_sv}", None
        return OK, "", None
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    if min_sv > threshold:
        return WRONG, f"candidate returned but smallest singular value is {min_sv}", None
    return OK, "", None


def dense_ops(spec, built, truth, env):
    mods = env.mods
    ops = []
    for i, path in enumerate(built["paths"]):
        ops.append(Op(f"det{i}", "cli det", lambda p=path: run_cli(env, ["det", p]),
                      lambda raw, r=truth["matrices"][i]: _check_dense_det(raw, r)))

    def existence(problem):
        return lambda: mods.hill.existence_test(
            problem, tol=EXIST_TOL, max_radius=EXIST_MAX_RADIUS, coverage_radius=EXIST_COVERAGE)

    for i, problem in enumerate(built["trig"]):
        ops.append(Op(f"exist-trig{i}", "lib existence_test", existence(problem),
                      lambda raw, s=truth["trig_sections"][i]: _check_existence(raw, section=s)))
    ops.append(Op("exist-singular", "lib existence_test", existence(built["singular"]),
                  lambda raw: _check_existence(raw, reference=truth["singular"])))
    ops.append(Op("exist-constant", "lib existence_test", existence(built["constant"]),
                  lambda raw: _check_existence(raw, reference=truth["constant"])))
    w_singular, w_trig = built["windows"]
    ops.append(Op("extract-singular", "lib extract_null_solution",
                  lambda: mods.hill.extract_null_solution(built["singular"], w_singular),
                  _check_extract_singular))
    ops.append(Op("extract-trig", "lib extract_null_solution",
                  lambda: mods.hill.extract_null_solution(built["trig"][0], w_trig),
                  lambda raw: _check_extract_trig(raw, truth["trig_min_sv"])))
    return ops


# ---------------------------------------------------------------------------
# symbols: diagnose, symbol2matrix, l1 membership, det_gamma, gamma_apply

MEMBERSHIP_RADII = (100_000, 1_000_000, 2_000_000, 4_000_000)
DIAGNOSE_MAX_RADIUS = 32  # diagnose window radius min(--max-radius, 64)
TABLE_RADIUS = 1100  # table symbols cover det_gamma's default coverage 1024
GAMMA_GRID = 64


def _cos_coeffs(rng, offsets, lo, hi):
    coeffs = {}
    for l in offsets:
        amp = float(rng.uniform(lo, hi))
        coeffs[l] = amp / 2.0
        coeffs[tuple(-c for c in l)] = amp / 2.0
    return coeffs


def symbols_generate(rng):
    def schroedinger(dimension, nu_lo, nu_hi, offsets):
        return {"dimension": dimension, "nu": float(rng.uniform(nu_lo, nu_hi)),
                "coeffs": _cos_coeffs(rng, offsets, 0.1, 1.0)}

    toeplitz = []
    for dimension, radius, reach in ((1, 64, 4), (2, 16, 2)):
        coeffs = {}
        for _ in range(6):
            l = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=dimension))
            coeffs[l] = complex(rng.normal(), rng.normal())
        toeplitz.append({"dimension": dimension, "radius": radius, "coeffs": coeffs})
    gammas = []
    for _ in range(2):
        entries = {}
        for _ in range(12):
            entries[(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))] = complex(
                rng.normal(), rng.normal())
        coeffs = {int(k): complex(rng.normal(), rng.normal()) for k in range(-8, 9)}
        gammas.append({"entries": entries, "coeffs": coeffs})
    return {
        "diagnose": [schroedinger(1, 1.5, 3.0, [(1,)]), schroedinger(1, 1.5, 3.0, [(1,), (2,)]),
                     schroedinger(2, 2.5, 3.5, [(1, 0), (0, 1)]),
                     schroedinger(2, 2.5, 3.5, [(1, 0), (1, 1)])],
        "toeplitz": toeplitz,
        "membership": {"amp": float(rng.uniform(0.5, 2.0)), "s": float(rng.uniform(1.0, 2.0))},
        "tables": [float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0))],
        "gamma": gammas,
    }


def _multiplication_doc(dimension, coeffs):
    return {"dimension": dimension, "kind": "multiplication", "coefficients": [
        {"index": list(l), "re": complex(v).real, "im": complex(v).imag} for l, v in coeffs.items()
    ]}


def _table_values(coeff):
    k = np.arange(-TABLE_RADIUS, TABLE_RADIUS + 1)
    return k, coeff / (FOUR_PI_SQ * k.astype(float) ** 2 + 1.0)


def symbols_materialize(spec, env):
    mods = env.mods
    diagnose = []
    for i, s in enumerate(spec["diagnose"]):
        doc = {"dimension": s["dimension"], "kind": "sum", "parts": [
            {"kind": "fractional_laplacian", "nu": s["nu"]},
            _multiplication_doc(s["dimension"], s["coeffs"]),
        ]}
        diagnose.append(write_doc(env, f"diagnose{i}.json", doc))
    toeplitz = [write_doc(env, f"toeplitz{i}.json", _multiplication_doc(t["dimension"], t["coeffs"]))
                for i, t in enumerate(spec["toeplitz"])]
    amp, s = spec["membership"]["amp"], spec["membership"]["s"]
    membership = mods.toroidal.CoefficientTableSymbol(
        1, {(1,): lambda k: amp / (1.0 + s * s * np.sum(k.astype(float) ** 2, axis=1))},
        order_m=-2.0)
    tables = []
    for i, coeff in enumerate(spec["tables"]):
        ks, vals = _table_values(coeff)
        doc = {"dimension": 1, "kind": "table", "order_m": -2.0, "entries": [
            {"offset": [0], "index": [int(k)], "re": float(v), "im": 0.0} for k, v in zip(ks, vals)
        ]}
        tables.append(mods.io.parse_input(write_doc(env, f"table{i}.json", doc), "symbol"))
    gammas = []
    for g in spec["gamma"]:
        matrix = mods.l1_algebra.SparseL1Matrix(
            1, {((r,), (c,)): v for (r, c), v in g["entries"].items()})
        samples = np.zeros(GAMMA_GRID, dtype=np.complex128)
        j = np.arange(GAMMA_GRID)
        for k, v in g["coeffs"].items():
            samples = samples + v * np.exp(2j * math.pi * k * j / GAMMA_GRID)
        gammas.append((matrix, mods.toroidal.GridFunction(1, GAMMA_GRID, samples)))
    return {"diagnose": diagnose, "toeplitz": toeplitz, "membership": membership,
            "tables": tables, "gammas": gammas}


def symbols_oracles(spec):
    amp, s = spec["membership"]["amp"], spec["membership"]["s"]
    sums = [oracles.l1_membership_sum(amp, s, r) for r in MEMBERSHIP_RADII]
    tables = []
    for coeff in spec["tables"]:
        _, vals = _table_values(coeff)
        tables.append(float(np.exp(np.sum(np.log1p(vals)))))  # exact finite product
    return {
        "toeplitz": [oracles.toeplitz_l1(t["coeffs"], t["radius"]) for t in spec["toeplitz"]],
        "toeplitz_entries": [
            sum(math.prod(max(2 * t["radius"] + 1 - abs(c), 0) for c in l)
                for l, v in t["coeffs"].items() if v != 0)
            for t in spec["toeplitz"]
        ],
        "membership": sums,
        "membership_cauchy": abs(sums[-1] - sums[-2]) <= 1e-6,
        "tables": tables,
        "gamma": [oracles.gamma_apply_dense(g["entries"], g["coeffs"], GAMMA_GRID) for g in spec["gamma"]],
    }


def _check_diagnose(raw, nu):
    doc, bad = _parse_cli_json(raw)
    if bad:
        return bad
    # the fit regresses on log<k>, which compresses small |k|, so on a
    # radius-32 window it overestimates the order by up to ~0.7
    if not nu - 0.25 <= doc["order_estimate"] <= nu + 1.0:
        return WRONG, f"order estimate {doc['order_estimate']} for order {nu}", None
    if doc["l1_membership"]["in_l1"]:
        return WRONG, f"order {nu} symbol reported summable", None
    if not doc["strong_ellipticity"]["passed"]:
        return WRONG, "fractional Laplacian plus bounded potential reported non-elliptic", None
    if raw.exit != 0:
        return FAIL, f"exit {raw.exit}", None
    return OK, "", None


def _check_toeplitz(raw, l1, count, radius):
    doc, bad = _parse_cli_json(raw)
    if bad:
        return bad
    if len(doc["entries"]) != count:
        return WRONG, f"{len(doc['entries'])} entries, expected {count}", None
    if abs(doc["l1_norm"] - l1) > oracles.slack(l1):
        return WRONG, f"l1 norm {doc['l1_norm']} vs Toeplitz count {l1}", None
    last = doc["norm_ladder"][-1]
    if last["radius"] != radius or abs(last["l1_norm"] - l1) > oracles.slack(l1):
        return WRONG, f"norm ladder ends at {last}", None
    if raw.exit != 0:
        return FAIL, f"exit {raw.exit}", None
    return OK, "", None


def _check_membership(raw, sums, cauchy):
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    for (radius, value), expected in zip(raw.ladder, sums):
        if abs(value - expected) > oracles.slack(expected):
            return WRONG, f"radius {radius}: {value} vs closed form {expected}", None
    if raw.in_l1 != cauchy:
        return WRONG, f"in_l1 {raw.in_l1}, oracle ladder Cauchy {cauchy}", None
    return OK, "", None


def _check_gamma(raw, expected):
    if isinstance(raw, BaseException):
        return FAIL, f"raised {type(raw).__name__}: {raw}", None
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(raw.samples - expected)))
    if err > 1e-10 * scale:
        return WRONG, f"samples off by {err:.2e} from the dense DFT", None
    return OK, "", None


def symbols_ops(spec, built, truth, env):
    mods = env.mods
    ops = []
    for i, path in enumerate(built["diagnose"]):
        ops.append(Op(f"diagnose{i}", f"cli diagnose {spec['diagnose'][i]['dimension']}d",
                      lambda p=path: run_cli(
                          env, ["--max-radius", str(DIAGNOSE_MAX_RADIUS), "diagnose", p]),
                      lambda raw, nu=spec["diagnose"][i]["nu"]: _check_diagnose(raw, nu)))
    for i, path in enumerate(built["toeplitz"]):
        t = spec["toeplitz"][i]
        ops.append(Op(f"symbol2matrix{i}", "cli symbol2matrix",
                      lambda p=path, r=t["radius"]: run_cli(env, ["symbol2matrix", p, "--radius", str(r)]),
                      lambda raw, i=i, r=t["radius"]: _check_toeplitz(
                          raw, truth["toeplitz"][i], truth["toeplitz_entries"][i], r)))
    ops.append(Op("membership", "lib l1_membership_check",
                  lambda: mods.toroidal.l1_membership_check(built["membership"], list(MEMBERSHIP_RADII)),
                  lambda raw: _check_membership(raw, truth["membership"], truth["membership_cauchy"])))
    for i, sym in enumerate(built["tables"]):
        ops.append(Op(f"det_gamma{i}", "lib det_gamma",
                      lambda s=sym: mods.toroidal.det_gamma(s, HILL_TOL),
                      lambda raw, r=truth["tables"][i]: check_determinant(raw, r, HILL_TOL)))
    for i, (matrix, grid) in enumerate(built["gammas"]):
        ops.append(Op(f"gamma_apply{i}", "lib gamma_apply",
                      lambda m=matrix, g=grid: mods.toroidal.gamma_apply(m, g),
                      lambda raw, e=truth["gamma"][i]: _check_gamma(raw, e)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_seconds: float  # nominal op time of one pass on the reference machine
    generate: Callable
    materialize: Callable
    oracles: Callable
    ops: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", "hill scan rebuilds a coverage-1024 matrix per shift: materialization-bound", 3.5,
                 scan_generate, scan_materialize, scan_oracles, scan_ops),
        Workload("certify", "certified determinants and traces over millions of stored entries: "
                 "ladder tail statistics dominate", 6.5, certify_generate, certify_materialize,
                 certify_oracles, certify_ops),
        Workload("dense-2d", "n = 2 sections of 289-1089 points: dense linalg dominates", 5.5,
                 dense_generate, dense_materialize, dense_oracles, dense_ops),
        Workload("symbols", "toroidal diagnostics, symbol matrices and io", 3.0,
                 symbols_generate, symbols_materialize, symbols_oracles, symbols_ops),
    )
}
