"""The benchmark workloads: seeded inputs, per-command summaries, checks.

Each workload is a list of CLI operations that one closed-loop caller runs in
order; one pass over the list is a repetition.  The workload seed selects one
of ``N_CASES`` input sets (``case = seed % N_CASES``), because every output
check compares against the reference commit's output for that input set, stored
in ``golden.json`` by ``make_golden.py``.

Input set ``case`` is generated from draw number ``draws[case]``.  For most
workloads the draws are 0..N_CASES-1.  The solver workloads keep only draws on
which the reference commit takes the number of BiCGStab->spsolve fallbacks the
workload is defined by (``Workload.fallbacks``): none for dirichlet-newton and
closed-torus, whose fallback costs 35-70 s and would outlast the measuring
window, and exactly one for bicgstab-fallback, which measures that defect on
a grid where the sparse LU stays cheap.  ``golden.json`` records the draws.

Input generation writes only config and field files; the program sees those
and nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CASES = 32
GOLDEN = Path(__file__).with_name("golden.json")

# Numeric fingerprints must match the reference commit's to these absolute
# tolerances, scaled by (1 + |reference|): the sup norm of u_0.hcl for the
# solution field, each value for the per-instance columns.
TOLERANCES = {"u": 1e-6, "max_offset": 1e-9, "margin1": 1e-9}
# the solver's own stopping rule: residual_scale * (1 + |psi|_inf)
RESIDUAL_SCALE = 1e-9

DIRICHLET_DOMAIN = {"kind": "product", "n": 2, "x_shape": [16, 4],
                    "s_shape": [33, 33], "x_lengths": [6.2832, 6.2832],
                    "s_lengths": [1.0, 1.0]}
TORUS_DOMAIN = {"kind": "torus", "n": 2, "shape": [16, 8, 16, 8]}
FALLBACK_TORUS = {"kind": "torus", "n": 2, "shape": [8, 8, 8, 8]}


@dataclass(frozen=True)
class Workload:
    items: int  # work items per repetition, for items_per_ref and items_per_s
    item_unit: str
    fallbacks: int | None = None  # required fallbacks per solve, None: any draw


WORKLOADS = {
    "lemma-battery": Workload(3000, "instances"),
    "level-set": Workload(500 + 300, "samples"),
    "dirichlet-newton": Workload(16 * 4 * 31 * 31, "unknowns", 0),
    "closed-torus": Workload(16 * 8 * 16 * 8, "unknowns", 0),
    "bicgstab-fallback": Workload(8 ** 4, "unknowns", 1),
}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def make_inputs(name: str, draw: int, in_dir: Path):
    """Write the input files of one draw; return (operations, context).

    An operation is (label, argv without --out); the context carries what the
    checks need to know about the inputs.
    """
    in_dir.mkdir(parents=True, exist_ok=True)
    seed = ["--seed", str(draw), "--quiet"]
    rng = np.random.default_rng([draw, 20240418])
    if name == "lemma-battery":
        cfg = _write_json(in_dir / "lemma.json",
                          {"battery": {"count": 3000, "seed": draw}})
        return [("lemma-check", ["lemma-check", "--config", cfg, *seed])], {}
    if name == "level-set":
        sub = _write_json(in_dir / "subsol.json", {
            "family": {"kind": "sigma-root", "k": 2, "n": 3},
            "sigma": 3.0, "mu": [2.0, 2.0, 2.0], "delta": 0.5, "radius": 6.0,
            "samples": 500})
        cone = _write_json(in_dir / "cone.json", {
            "family": {"kind": "quotient-log", "k": 2, "n": 3,
                       "betas": [0.0, 1.0]},
            "samples": 300})
        return [("subsol-check", ["subsol-check", "--config", sub, *seed]),
                ("cone-check", ["cone-check", "--config", cone, *seed])], {}
    if name == "dirichlet-newton":
        from hcl import io as hio
        from hcl.grid import GridDomain, ScalarField

        d = DIRICHLET_DOMAIN
        dom = GridDomain.product(2, x_shape=d["x_shape"], s_shape=d["s_shape"],
                                 x_lengths=d["x_lengths"], s_lengths=d["s_lengths"])
        x0, _, s0, s1 = dom.meshgrid()
        ph = rng.uniform(0.0, 2.0 * np.pi, 3)
        psi = (0.4
               + 0.1 * np.sin(2.0 * np.pi * x0 / dom.lengths[0] + ph[0])
               * np.cos(np.pi * s0 + ph[1])
               + 0.1 * np.sin(np.pi * s1 + ph[2]))
        hio.write_scalar_field(in_dir / "psi.hcl", ScalarField(dom, psi))
        cfg = _write_json(in_dir / "dirichlet.json", {
            "domain": d, "family": {"kind": "log-det", "n": 2},
            "chi": "identity", "psi": {"file": "psi.hcl"}, "phi": "zero",
            "base_dir": str(in_dir)})
        tol = RESIDUAL_SCALE * (1.0 + float(np.max(np.abs(psi))))
        return ([("solve-dirichlet", ["solve-dirichlet", "--config", cfg, *seed])],
                {"residual_tol": tol})
    if name in ("closed-torus", "bicgstab-fallback"):
        amp = float(rng.uniform(0.35, 0.5))
        domain = TORUS_DOMAIN if name == "closed-torus" else FALLBACK_TORUS
        cfg = _write_json(in_dir / "closed.json", {
            "domain": domain, "family": {"kind": "log-det", "n": 2},
            "chi": "identity", "psi": f"sinx:{amp!r}"})
        return ([("solve-closed", ["solve-closed", "--config", cfg, *seed])],
                {"residual_tol": RESIDUAL_SCALE * (1.0 + amp)})
    raise KeyError(name)


# ---------------------------------------------------------------- summaries


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _digest(rows, columns) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row[c] for c in columns).encode() + b"\n")
    return h.hexdigest()


def _read_hcl1(path: Path) -> np.ndarray:
    """Values of an HCL1 container (layout documented in the README)."""
    raw = path.read_bytes()
    if raw[:4] != b"HCL1":
        raise ValueError(f"{path.name}: not an HCL1 container")
    _, rank = struct.unpack_from("<II", raw, 4)
    dims = struct.unpack_from(f"<{rank}I", raw, 12)
    return np.frombuffer(raw, dtype="<f8", offset=12 + 5 * rank).reshape(dims)


def _fingerprint(values) -> list[float]:
    """sup |v|, mean v and v at 32 fixed positions."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    picks = np.sort(np.random.default_rng(0).choice(flat.size, 32, replace=False))
    return [float(np.max(np.abs(flat))), float(np.mean(flat))] + [
        float(v) for v in flat[picks]]


def summarize(label: str, rc, out: Path) -> dict:
    """What the checks compare for one operation's outputs."""
    s = {"rc": rc}
    if rc not in (0, 2):
        return s
    if label == "lemma-check":
        rows = _csv_rows(out / "lemma_check.csv")
        s.update(rows=len(rows),
                 verdicts=_digest(rows, ("satisfied", "top_boundary_hit")),
                 max_offset=_fingerprint([r["max_offset"] for r in rows]))
    elif label == "subsol-check":
        rows = _csv_rows(out / "subsol_check.csv")
        s.update(rows=len(rows), verdicts=_digest(rows, ("case1", "case2")),
                 margin1=_fingerprint([r["margin1"] for r in rows]))
    elif label == "cone-check":
        (row,) = _csv_rows(out / "cone_check.csv")
        s.update(violations=int(row["violations"]))
    else:
        (row,) = _csv_rows(out / "results.csv")
        s.update(residual=float(row["residual"]),
                 sandwich_ok=row["sandwich_ok"] == "true",
                 u=_fingerprint(_read_hcl1(out / "u_0.hcl")))
    return s


def check(summary: dict, golden: dict, ctx: dict) -> list[str]:
    """Problems with one operation's summary; an empty list means correct."""
    problems = []
    for key, want in golden.items():
        got = summary.get(key)
        if key in TOLERANCES:
            if got is None or len(got) != len(want):
                problems.append(f"{key} missing or malformed")
                continue
            ref = np.asarray(want)
            scale = 1.0 + (abs(ref[0]) if key == "u" else np.abs(ref))
            excess = np.abs(np.asarray(got) - ref) / (TOLERANCES[key] * scale)
            if not np.all(excess <= 1.0):
                problems.append(f"{key} differs from the reference commit by "
                                f"{np.nanmax(excess):.3g} tolerances")
        elif got != want:
            problems.append(f"{key} {got!r} differs from the reference commit's {want!r}")
    if "residual" in summary and not summary["residual"] <= ctx["residual_tol"]:
        problems.append(f"Newton residual {summary['residual']:.3e} above "
                        f"tolerance {ctx['residual_tol']:.3e}")
    if summary.get("sandwich_ok") is False:
        problems.append("sandwich_ok is false")
    return problems


def golden_for(name: str, case: int) -> tuple[int, dict]:
    """(draw, the reference commit's summaries keyed by operation label) of a case."""
    entry = json.loads(GOLDEN.read_text())[name]
    return entry["draws"][case], entry["outputs"][case]


def gold_view(summary: dict) -> dict:
    """The part of a summary that golden.json stores; the residual and
    sandwich_ok are checked against the tolerance and the theorem instead."""
    return {k: v for k, v in summary.items() if k not in ("residual", "sandwich_ok")}
