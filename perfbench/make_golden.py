"""Record the reference outputs that the benchmark's checks compare against.

Run once, on the commit whose outputs are the reference, from the repository
root:

    python3 perfbench/make_golden.py [WORKLOAD ...]

For each workload (default: all) it runs draws 0, 1, 2, ... until N_CASES
draws are accepted, and stores the accepted draws and their output summaries
in perfbench/golden.json, keeping the entries of workloads not named.  A draw
is accepted when every command exits 0 or 2 and the reference commit solves it
with the workload's number of BiCGStab->spsolve fallbacks (any number when
the workload names none).  With
``linear_solver: auto`` a system above 2000 unknowns only reaches spsolve
through that fallback, so counting those calls counts fallbacks; a draw whose
fallback would factor more than 10000 unknowns is rejected without waiting
for the factorization.

Regenerating the file on a later commit would make the checks compare that
commit against itself, so do not.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import env  # noqa: E402  (sets thread pinning before numpy loads)

env.pin_threads(os.environ)

import scipy.sparse.linalg as spla  # noqa: E402

import hcl.cli  # noqa: E402
import hcl.solve  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

DIRECT_LIMIT = 2000  # hcl.solve's auto mode factors directly up to this size
ABORT_ABOVE = 10000


class _Abort(Exception):
    pass


def _count_fallbacks(counter: dict):
    real = spla.spsolve

    def spsolve(a, b, *args, **kwargs):
        if a.shape[0] > DIRECT_LIMIT:
            counter["fallbacks"] += 1
            if a.shape[0] > ABORT_ABOVE:
                raise _Abort
        return real(a, b, *args, **kwargs)
    hcl.solve.spla = tracer.ModuleProxy(spla, {"spsolve": spsolve})


def main(names) -> int:
    work = ROOT / ".perfbench" / "golden"
    golden = json.loads(wl.GOLDEN.read_text()) if wl.GOLDEN.exists() else {}
    counter = {"fallbacks": 0}
    _count_fallbacks(counter)
    for name in names:
        want = wl.WORKLOADS[name].fallbacks
        draws, outputs = [], []
        draw = -1
        while len(draws) < wl.N_CASES:
            draw += 1
            shutil.rmtree(work, ignore_errors=True)
            ops, _ = wl.make_inputs(name, draw, work / "in")
            entry = {}
            counter["fallbacks"] = 0
            t0 = time.perf_counter()
            for label, argv in ops:
                out = work / "out" / label
                try:
                    rc = hcl.cli.main([*argv, "--out", str(out)])
                except _Abort:
                    rc = "aborted"
                entry[label] = wl.gold_view(wl.summarize(label, rc, out))
            kept = (all(e["rc"] in (0, 2) for e in entry.values())
                    and (want is None or counter["fallbacks"] == want))
            print(f"{name} draw {draw}: {entry}, fallbacks {counter['fallbacks']}, "
                  f"{time.perf_counter() - t0:.2f} s, {'kept' if kept else 'skipped'}",
                  flush=True)
            if kept:
                draws.append(draw)
                outputs.append(entry)
        golden[name] = {"draws": draws, "outputs": outputs}
    shutil.rmtree(work, ignore_errors=True)
    wl.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(wl.WORKLOADS)))
