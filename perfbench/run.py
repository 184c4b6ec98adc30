"""hcl benchmark: four CLI workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload lemma-battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; ``--workload all`` runs every workload both
ways.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, metrics
and the layer-to-metric table are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import workloads as wl  # noqa: E402

# setup_s: median of this many fresh-interpreter imports, after one discarded
# import that also writes the bytecode cache
SETUP_SAMPLES = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import hcl.cli; "
              "print(time.perf_counter() - t)")
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    e = dict(os.environ)
    env.pin_threads(e)
    e["PYTHONPATH"] = str(SRC)
    e["TMPDIR"] = str(ROOT / ".perfbench")
    return e


def _run(args, timeout: float) -> str:
    try:
        proc = subprocess.run(args, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout:.0f} s: {args[1]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[1]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = _run([sys.executable, "-c", SETUP_CODE], timeout=60)
        times.append(float(out.strip().splitlines()[-1]))
    return times[1:]


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"none (needs 11 samples), max {max(walls):.4f} s"
    p = math.floor(100 * (n - 10) / n)
    q = statistics.quantiles(walls, n=100, method="inclusive")[p - 1]
    return f"p{p} {q:.4f} s"


def run_one(name: str, seed: int, seconds: float, trace: bool, started: float):
    """One benchmark run; returns (correct, attempted, failed, metrics, report)."""
    workload = wl.WORKLOADS[name]
    case = seed % wl.N_CASES
    draw, _ = wl.golden_for(name, case)
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, ctx = wl.make_inputs(name, draw, work / "in")
        setup = [] if trace else measure_setup()
        spec = {"workload": name, "case": case, "ops": ops, "ctx": ctx,
                "seconds": seconds, "trace": trace, "work": str(work)}
        (work / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (perf_counter() - started)
        _run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
             timeout=budget)
        res = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = [f"# {name}  seed {seed} (input set {case}, draw {draw})  "
              f"{'traced' if trace else 'untraced'}"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        report.append(f"  traced repetitions {len(res['traced_walls'])}, "
                      f"untraced {len(res['walls'])}")
    else:
        walls = res["walls"]
        wall = statistics.median(walls)
        wall_ref = statistics.median(res["relative"])
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "items_per_ref": {"value": workload.items / wall_ref, "unit": "items/ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        report += [
            f"  {workload.items} {workload.item_unit} per repetition; "
            f"{len(walls)} warm repetitions",
            f"  wall_s {wall:.4f} s, tail {_tail(walls)}  (not gated)",
            f"  items_per_s {workload.items / wall:.6g} items/s  (not gated)",
            f"  cold_wall_s {res['cold']:.4f} s, one sample  (not gated)",
            f"  reference kernel {res['probe']:.4f} s, median  (ref unit)",
        ]
    report.append(f"  error_rate {res['failed'] / res['attempted']:.4f} "
                  f"({res['failed']} of {res['attempted']} operations failed)")
    report += [f"  FAILED {p}" for p in res["problems"]]
    for key, m in metrics.items():
        report.append(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
    return res["failed"] == 0, res["attempted"], res["failed"], metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hcl" / "__init__.py").is_file():
        print(f"no hcl sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        runs = [(name, t) for name in wl.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in runs:
        try:
            ok, att, fail, m, report = run_one(name, args.seed, args.seconds,
                                               trace, perf_counter())
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report), flush=True)
        correct &= ok
        attempted += att
        failed += fail
        if len(runs) == 1:
            metrics = m
        else:
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
