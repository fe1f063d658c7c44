#!/usr/bin/env python3
"""Record what every benchmark op returns on a checkout, to compare two checkouts bit for bit.

    python3 tools/same_bits.py TREE OUT.json

TREE is a torusdet checkout.  Its ``perfbench/run.py`` and
``perfbench/workloads.py`` are imported read-only and torusdet from its
``src/``.  Every workload is built at seeds 1 and 7 as the benchmark builds
it, and its op list runs twice.  OUT.json maps ``workload/seed/label/pass``
to the op's ``describe(raw)`` text (the text the benchmark's determinism
check compares) and its check status.  Two checkouts give equal bits on
every op exactly when their files have equal ``ops``; a program change that
keeps its outputs leaves them equal.  No op is timed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

SEEDS = (1, 7)
PASSES = 2


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: same_bits.py TREE OUT.json")
    tree, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(tree / "perfbench"))
    import numpy as np

    import run
    import workloads

    package = run.check_checkout()
    ops_out, statuses = {}, {}
    for name in run.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        for seed in SEEDS:
            spec = workload.generate(np.random.default_rng([seed, run.WORKLOAD_NAMES.index(name)]))
            with tempfile.TemporaryDirectory() as docdir:
                env = SimpleNamespace(mods=run.import_program(package), docdir=docdir)
                built = workload.materialize(spec, env)
                ops = workload.ops(spec, built, workload.oracles(spec), env)
                for index in range(PASSES):
                    for op in ops:
                        try:
                            raw = op.call()
                        except Exception as exc:  # a failing op is an output too
                            raw = exc
                        key = f"{name}/{seed}/{op.label}/{index}"
                        ops_out[key] = json.dumps(workloads.describe(raw), sort_keys=True, default=repr)
                        try:
                            statuses[key] = op.check(raw)[0]
                        except Exception as exc:  # as in the runner, a check that raises reads as wrong
                            statuses[key] = f"{workloads.WRONG}: check raised {type(exc).__name__}"
    out.write_text(json.dumps({"ops": ops_out, "status": statuses}, indent=1, sort_keys=True))
    failed = sum(status != workloads.OK for status in statuses.values())
    print(f"{len(ops_out)} op calls, {failed} not ok, written to {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
