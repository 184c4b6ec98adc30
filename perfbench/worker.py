"""The workload's own process: runs repetitions of one workload in-process.

Started by run.py in a fresh interpreter with the pinned environment, so that
its first repetition is a cold CLI run and its peak RSS is the workload's.
One closed-loop caller runs the operations of a repetition one after another,
each through ``hcl.cli.main``, and checks every output between repetitions
(outside the timed region).

    python3 perfbench/worker.py SPEC.json

SPEC names the workload, case, operations, seconds, trace flag and the work
directory; the result is written to ``<work>/result.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hcl.cli  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MAX_PROBLEMS = 20


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed.

    Repetition times divided by this are what the end-to-end metrics gate on,
    because the shared 2-core host changes speed by up to 1.6x over minutes.
    """
    t0 = perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    return perf_counter() - t0


def _digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["work"])
    ops = spec["ops"]
    ctx = spec["ctx"]
    _, golden = wl.golden_for(spec["workload"], spec["case"])
    tracer = tr.Tracer() if spec["trace"] else None
    main_thread = threading.get_ident()
    state = {"attempted": 0, "failed": 0, "problems": [], "reference": None}
    layers: list[dict] = []
    last_traced: dict = {}

    def repetition(index: int, traced: bool) -> float:
        """Run, check and clean up one repetition; return its wall time."""
        out = work / "out" / f"r{index}"
        rcs = []
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            for label, argv in ops:
                # a traceback or a usage error fails the command, not the run
                try:
                    rcs.append(hcl.cli.main([*argv, "--out", str(out / label)]))
                except (Exception, SystemExit) as exc:
                    rcs.append(f"{type(exc).__name__}: {exc}")
        finally:
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()

        digests = _digests(out)
        if state["reference"] is None:
            state["reference"] = digests
        for (label, _), rc in zip(ops, rcs):
            try:
                problems = wl.check(wl.summarize(label, rc, out / label),
                                    golden[label], ctx)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc}"]
            mine, first = ({k: v for k, v in d.items() if k.startswith(label + "/")}
                           for d in (digests, state["reference"]))
            if mine != first:
                problems.append("CSV bytes differ from the first repetition")
            state["attempted"] += 1
            if problems:
                state["failed"] += 1
                state["problems"] += [f"rep {index} {label}: {p}" for p in problems]
        if traced:
            spans = tracer.take()
            metrics = tr.layer_metrics(spans, wall, main_thread)
            written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            metrics["io.bytes_written"] = (written, "bytes")
            layers.append(metrics)
            last_traced.update(rep=index, spans=spans)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    probes = [reference_kernel()]
    cold = repetition(0, False)
    probes.append(reference_kernel())
    plain: list[float] = []
    relative: list[float] = []  # wall / reference kernel around it
    traced: list[float] = []
    start = perf_counter()
    index = 1
    while True:
        want_traced = bool(tracer) and index % 2 == 1
        done = len(plain) + len(traced)
        enough = done >= (2 if tracer else 1)
        estimate = statistics.median(plain + traced or [cold])
        if enough and perf_counter() - start + estimate > spec["seconds"]:
            break
        wall = repetition(index, want_traced)
        probes.append(reference_kernel())
        if want_traced:
            traced.append(wall)
        else:
            plain.append(wall)
            relative.append(wall / (0.5 * (probes[-2] + probes[-1])))
        index += 1

    result = {
        "cold": cold,
        "walls": plain,
        "relative": relative,
        "probe": statistics.median(probes),
        "traced_walls": traced,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "problems": state["problems"][:MAX_PROBLEMS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = {
            name: (statistics.median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()}
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        tr.dump(work.parent / f"trace-{spec['workload']}.jsonl",
                last_traced["rep"], last_traced["spans"])
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
