#!/usr/bin/env python3
"""torusdet benchmark: one seeded workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

The program under test is imported from ``src/`` of the checkout.  Each op
is one library call or one in-process ``torusdet.cli.main(argv)`` call, sent
only after the previous one finished.  A run repeats the seeded op list for a
fixed number of whole passes: ``--seconds`` divided by the workload's nominal
pass time on the reference machine (see NOTES.md), at least one.

With ``--trace 0`` the last stdout line is the end-to-end result.  With
``--trace 1`` the run alternates untraced passes with passes under the
outside wrappers and reports the per-layer metrics.  ``--all`` runs every
workload in its own process and prints all end-to-end metrics as a table.
Full results, the run context and the traced spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11  # timed set-ups per untraced run, spread evenly over its ops
OVERRUN = 1.5  # stop starting passes once op time exceeds OVERRUN x --seconds
WORKLOAD_NAMES = ("scan", "certify", "dense-2d", "symbols")

# end-to-end metrics reported in the result line (BENCHMARK.json) and the
# ones only printed: the fractions are 0 on most workloads and the
# certificate median is omitted for scan, so neither can carry a relative bound
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PRINTED_ONLY = {"fail_frac": "ratio", "wrong_frac": "ratio", "cert_log10_p50": "log10"}

TRACED_FUNCTIONS = (
    "cli.main",
    "io.parse_input",
    "io.dumps_fixed",
    "hill.build_hill_matrix",
    "hill.hill_determinant",
    "hill.existence_test",
    "hill.extract_null_solution",
    "hill.spectral_shift_scan",
    "l1_algebra.SparseL1Matrix.from_arrays",
    "l1_algebra.poincare_determinant",
    "l1_algebra.poincare_trace",
    "l1_algebra.truncate",
    "toroidal.symbol_to_matrix",
    "toroidal.strong_ellipticity_check",
    "toroidal.symbol_order_diagnostic",
    "toroidal.l1_membership_check",
    "toroidal.gamma_apply",
    "toroidal.det_gamma",
    "lattice.TruncationWindow.coords_array",
    "linalg.det",
    "linalg.inv",
    "linalg.svd",
)
MATERIALIZE = ("hill.build_hill_matrix", "l1_algebra.SparseL1Matrix.from_arrays")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "hill.build_hill_matrix.entries": "count",
        "l1_algebra.SparseL1Matrix.from_arrays.entries": "count",
        "hill.spectral_shift_scan.evals_per_point": "ratio",
        "l1_algebra.poincare_determinant.rungs": "count",
        "l1_algebra.poincare_determinant.corrected_frac": "ratio",
        "linalg.det.flops": "flop_computed",
        "linalg.inv.flops": "flop_computed",
        "linalg.svd.flops": "flop_computed",
        "op_time_s": "s",
        "unattributed_s": "s",
        "trace_overhead_frac": "ratio",
        "share.materialize": "ratio",
        "share.poincare_determinant": "ratio",
        "share.linalg": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# measurement


def pass_count(seconds, pass_seconds):
    """Whole passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends only on the arguments, so every run of a workload does
    the same work and the tail percentile sits at the same rank.
    """
    return max(1, round(seconds / pass_seconds))


def run_passes(ops, first_text, passes, tracer=None, budget=math.inf, after_op=None):
    """Closed loop over ``passes`` whole passes of ``ops``; one record per op.

    Passes stop early only when op time exceeds ``budget`` (a machine far
    slower than the reference).  Only the op call is timed; describing the
    outcome, checking it against its oracle and ``after_op(ops done)`` happen
    between ops.
    """
    from workloads import WRONG, describe

    records = []
    spent = 0.0
    for _ in range(passes):
        if spent > budget:
            break
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            start = time.perf_counter()
            try:
                raw = op.call()
            except Exception as exc:  # an op failure is a result, not a crash
                raw = exc
            latency = time.perf_counter() - start
            spent += latency
            text = json.dumps(describe(raw), sort_keys=True, default=repr)
            try:
                status, reason, cert = op.check(raw)
            except Exception as exc:
                status, reason, cert = WRONG, f"check raised {type(exc).__name__}: {exc}", None
            if first_text.setdefault(op.label, text) != text:
                status, reason = WRONG, "output differs from an earlier run of the same op"
            records.append({"label": op.label, "kind": op.kind,
                            "latency_s": latency, "status": status, "reason": reason,
                            "cert": cert})
            if after_op is not None:
                after_op(len(records))
    return records


def tail_latency(latencies):
    """Latency at the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def end_to_end(records, setup_s, peak_rss_mb, workload):
    latencies = [r["latency_s"] for r in records]
    count = len(records)
    failed = sum(r["status"] != "ok" for r in records)
    wrong = sum(r["status"] == "wrong" for r in records)
    tail, pct, tail_count = tail_latency(latencies)
    metrics = {
        "ops_per_s": count / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "fail_frac": failed / count,
        "wrong_frac": wrong / count,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    certs = [r["cert"] for r in records
             if r["cert"] is not None and 0 < r["cert"] < math.inf]
    if workload != "scan" and certs:
        metrics["cert_log10_p50"] = statistics.median(math.log10(c) for c in certs)
    extra = {"op_tail_pct": pct, "op_tail_ops": tail_count, "failed": failed, "wrong": wrong}
    return metrics, extra


def per_layer(tracer, traced, untraced, passes):
    stats, top_level, builds_in_scans = tracer.summarize()
    op_time = sum(r["latency_s"] for r in traced)
    untraced_rate = len(untraced) / sum(r["latency_s"] for r in untraced)
    traced_rate = len(traced) / op_time

    def stat(name, key="self_s"):
        return stats.get(name, {}).get(key, 0.0)

    def count(name, key):
        return stats.get(name, {}).get("counts", {}).get(key, 0)

    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = stat(name, "calls") / passes
        metrics[f"{name}.self_s"] = stat(name) / passes
    pd_calls = stat("l1_algebra.poincare_determinant", "calls")
    scan_points = count("hill.spectral_shift_scan", "points")
    metrics.update({
        "hill.build_hill_matrix.entries": count("hill.build_hill_matrix", "entries") / passes,
        "l1_algebra.SparseL1Matrix.from_arrays.entries":
            count("l1_algebra.SparseL1Matrix.from_arrays", "entries") / passes,
        "hill.spectral_shift_scan.evals_per_point":
            builds_in_scans / scan_points if scan_points else 0.0,
        "l1_algebra.poincare_determinant.rungs":
            count("l1_algebra.poincare_determinant", "rungs") / passes,
        "l1_algebra.poincare_determinant.corrected_frac":
            count("l1_algebra.poincare_determinant", "corrected") / pd_calls if pd_calls else 0.0,
        "linalg.det.flops": count("linalg.det", "flops") / passes,
        "linalg.inv.flops": count("linalg.inv", "flops") / passes,
        "linalg.svd.flops": count("linalg.svd", "flops") / passes,
        "op_time_s": op_time / passes,
        "unattributed_s": (op_time - top_level) / passes,
        "trace_overhead_frac": untraced_rate / traced_rate - 1.0,
        "share.materialize": tracer.outermost_time(MATERIALIZE) / op_time,
        "share.poincare_determinant": stat("l1_algebra.poincare_determinant") / op_time,
        "share.linalg": sum(stat(f"linalg.{k}") for k in ("det", "inv", "svd")) / op_time,
    })
    return metrics, stats


# ---------------------------------------------------------------------------
# run context (recorded next to the results, never used to normalize)


def blas_info():
    import ctypes

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    # numpy wheels ship OpenBLAS next to the package; ask it for its threads
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = int(getattr(lib, symbol)())
                return info
    return info


def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_scale():
    """The acceptance suite's machine factor, recorded only."""
    path = ROOT / "tests" / "test_acceptance.py"
    try:
        spec = importlib.util.spec_from_file_location("_acceptance_probe", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return float(module.machine_scale())
    except Exception as exc:  # recorded context only; never fails the run
        return f"unavailable: {type(exc).__name__}: {exc}"


def run_context():
    import platform

    import numpy as np

    context = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit_id(),
    }
    context.update(blas_info())
    context["machine_scale"] = machine_scale()
    return context


# ---------------------------------------------------------------------------
# one workload in this process


def check_checkout():
    package = ROOT / "src" / "torusdet" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; run from a torusdet checkout")
    sys.path.insert(0, str(ROOT / "src"))
    return package


def program_modules():
    return {m: sys.modules[m] for m in sys.modules if m == "torusdet" or m.startswith("torusdet.")}


def import_program(package):
    """Import torusdet afresh from the checkout (set-up repeats re-import it)."""
    for name in program_modules():
        del sys.modules[name]
    import torusdet
    from torusdet import cli, hill, io, l1_algebra, lattice, toroidal

    if Path(torusdet.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported torusdet from {torusdet.__file__}, not {package}")
    return SimpleNamespace(torusdet=torusdet, cli=cli, io=io, hill=hill, toroidal=toroidal,
                           l1_algebra=l1_algebra, lattice=lattice)


def run_workload(name, seed, seconds, trace):
    package = check_checkout()
    import numpy as np
    import numpy.linalg

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    docdir = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    docdir.mkdir(parents=True, exist_ok=True)
    try:
        # the parameters are drawn once, before any clock: scan's redraw
        # check needs eigvalsh, which is oracle work
        spec = workload.generate(np.random.default_rng([seed, WORKLOAD_NAMES.index(name)]))

        def set_up(docdir):
            """One timed set-up: a fresh import of torusdet, then the program's
            inputs (documents, stored matrices, problem objects) built from spec."""
            gc.collect()
            start = time.perf_counter()
            env = SimpleNamespace(mods=import_program(package), docdir=str(docdir))
            built = workload.materialize(spec, env)
            return time.perf_counter() - start, env, built

        elapsed, env, built = set_up(docdir)
        builds = [elapsed]
        mods = env.mods
        loaded = program_modules()

        start = time.perf_counter()
        truth = workload.oracles(spec)
        oracle_s = time.perf_counter() - start
        ops = workload.ops(spec, built, truth, env)
        # objects alive now (modules, inputs, oracle values) are never garbage;
        # freezing them keeps collector pauses inside ops short and even
        gc.collect()
        gc.freeze()

        first_text = {}
        if not trace:
            passes = pass_count(seconds, workload.pass_seconds)
            # the other set-ups run between ops, spread evenly over the run, so
            # their median sees the same machine as the ops do; each one then
            # hands sys.modules back to the modules the ops use
            total = passes * len(ops)
            repeat_after = {round(i * total / SETUP_REPEATS) for i in range(1, SETUP_REPEATS)}
            repeat_dir = docdir / "repeat"
            repeat_dir.mkdir()

            def set_up_again(done):
                if done in repeat_after:
                    builds.append(set_up(repeat_dir)[0])
                    for module in program_modules():
                        del sys.modules[module]
                    sys.modules.update(loaded)
                    gc.collect()

            records = run_passes(ops, first_text, passes, budget=OVERRUN * seconds,
                                 after_op=set_up_again)
            setup_s = statistics.median(builds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, extra = end_to_end(records, setup_s, peak_rss_mb, name)
            layer_stats = None
        else:
            # untraced and traced passes alternate, each side going first in
            # turn, so warm-up and machine drift fall on both equally; at least
            # two pairs, and about as long as an untraced run with the overhead
            tracer = tracing.Tracer(vars(mods), numpy.linalg)

            def traced_pass():
                tracer.install()
                try:
                    return run_passes(ops, first_text, 1, tracer=tracer)
                finally:
                    tracer.uninstall()

            untraced, traced = [], []
            for index in range(max(2, pass_count(seconds / 3.0, workload.pass_seconds))):
                if index % 2 == 0:
                    untraced += run_passes(ops, first_text, 1)
                    traced += traced_pass()
                else:
                    traced += traced_pass()
                    untraced += run_passes(ops, first_text, 1)
                if sum(r["latency_s"] for r in untraced + traced) > OVERRUN * seconds:
                    break
            passes = len(traced) // len(ops)
            records = untraced + traced
            metrics, layer_stats = per_layer(tracer, traced, untraced, passes)
            extra = {"failed": sum(r["status"] != "ok" for r in records),
                     "wrong": sum(r["status"] == "wrong" for r in records)}
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(records) // len(ops), "ops_per_pass": len(ops), "setup_repeats_s": builds, "oracle_s": oracle_s,
        "metrics": metrics, **extra,
        "units": {**END_TO_END, **PRINTED_ONLY} if not trace else per_layer_units(),
        "op_latencies_by_label": {
            label: [r["latency_s"] for r in records if r["label"] == label]
            for label in dict.fromkeys(r["label"] for r in records)
        },
        "problems": sorted({(r["label"], r["status"], r["reason"])
                            for r in records if r["status"] != "ok"}),
        "context": run_context(),
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        result["layers"] = layer_stats
        tracer.write(results_dir / f"{stem}.spans.jsonl.gz")
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, default=repr))
    return result, records


def report(result, records):
    """Human-readable lines; the caller prints the JSON result line last."""
    units = result["units"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(records)} ops in {result['passes']} passes of {result['ops_per_pass']}")
    for key, value in result["metrics"].items():
        print(f"  {key:48s} {value:14.6g} {units.get(key, '')}")
    if "op_tail_pct" in result:
        print(f"  op_tail_s is p{result['op_tail_pct']:.1f} of {result['op_tail_ops']} ops")
    for label, status, reason in result["problems"]:
        print(f"  {status:5s} {label}: {reason}")
    ctx = result["context"]
    print("  context: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))


def result_line(result, records):
    names = END_TO_END if not result["trace"] else per_layer_units()
    return json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": len(records),
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": names[k]} for k in names},
    })


def run_all(args):
    """Every workload in its own process; a table of all end-to-end metrics."""
    columns = list(END_TO_END) + list(PRINTED_ONLY)
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads((OUT / "results" / f"{name}-seed{args.seed}-trace0.json").read_text())
        rows.append((name, result))
    all_units = {**END_TO_END, **PRINTED_ONLY}
    print(f"{'metric':16s} {'unit':6s} " + " ".join(f"{n:>12s}" for n, _ in rows))
    for col in columns:
        cells = []
        for _, result in rows:
            value = result["metrics"].get(col)
            cells.append(f"{value:12.5g}" if value is not None else f"{'omitted':>12s}")
        print(f"{col:16s} {all_units[col]:6s} " + " ".join(cells))
    print(f"{'op_tail pct/ops':23s} " + " ".join(
        f"{r['op_tail_pct']:7.1f}/{r['op_tail_ops']:<4d}" for _, r in rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, records = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, records)
    print(result_line(result, records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
