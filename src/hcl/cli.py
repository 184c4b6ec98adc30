"""Command-line front end: lemma batteries, cone checks, solver runs.

Exit codes: 0 success, 2 lemma-violation findings, 3 numeric errors,
4 configuration errors.  All CSV artifacts carry the schema line
"# hcl-schema v1" and the seed, and are byte-deterministic for a fixed
(config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import io as hio
from . import solve as hsolve
from . import spectra, subsol, symfunc
from .errors import (
    ConfigError,
    DomainError,
    HclError,
    HypothesisError,
    LemmaViolationError,
)
from .grid import GridDomain, HermitianField, ScalarField, constant_chi, identity_chi

EXIT_OK = 0
EXIT_FINDINGS = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4


# ------------------------------------------------------------ config loading


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _family_from(cfg: dict) -> symfunc.FuncFamily:
    try:
        kind = cfg["kind"]
        n = int(cfg["n"])
        if kind == "log-det":
            return symfunc.FuncFamily.log_det(n)
        if kind == "sigma-root":
            return symfunc.FuncFamily.sigma_root(int(cfg["k"]), n)
        if kind == "log-sigma":
            return symfunc.FuncFamily.log_sigma(int(cfg["k"]), n)
        if kind == "sigma-quotient":
            return symfunc.FuncFamily.sigma_quotient(int(cfg["k"]), int(cfg["l"]), n)
        if kind == "quotient-log":
            return symfunc.FuncFamily.quotient_log(int(cfg["k"]), cfg["betas"], n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad family config: {exc}") from exc
    raise ConfigError(f"unknown family kind {cfg.get('kind')!r}")


def _domain_from(cfg: dict) -> GridDomain:
    try:
        kind = cfg["kind"]
        n = int(cfg["n"])
        if kind == "torus":
            return GridDomain.torus(n, cfg["shape"], cfg.get("lengths"))
        if kind == "product":
            return GridDomain.product(
                n,
                x_shape=cfg.get("x_shape", ()),
                s_shape=cfg.get("s_shape", (17, 17)),
                x_lengths=cfg.get("x_lengths"),
                s_lengths=cfg.get("s_lengths", (1.0, 1.0)),
                s_periodic=cfg.get("s_periodic", (False, False)),
            )
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"bad domain config: {exc}") from exc
    raise ConfigError(f"unknown domain kind {cfg.get('kind')!r}")


def _expression_field(domain: GridDomain, spec, base_dir: Path) -> ScalarField:
    if isinstance(spec, dict):
        path = base_dir / spec["file"]
        if not path.exists():
            raise ConfigError(f"field file missing: {path}")
        return hio.read_scalar_field(path, domain)
    if not isinstance(spec, str):
        raise ConfigError(f"bad field spec {spec!r}")
    if spec == "zero":
        return ScalarField.zeros(domain)
    if spec == "one":
        return ScalarField.full(domain, 1.0)
    if spec.startswith("const:"):
        return ScalarField.full(domain, float(spec.split(":", 1)[1]))
    if spec.startswith("sinx:"):
        amp = float(spec.split(":", 1)[1])
        x0 = domain.meshgrid()[0]
        scale = 2.0 * np.pi / domain.lengths[0]
        return ScalarField(domain, amp * np.sin(scale * x0))
    if spec.startswith("logbump:"):
        # log(eta + normalized squared distance from the S-factor center)
        eta = float(spec.split(":", 1)[1])
        mesh = domain.meshgrid()
        d = len(domain.shape)
        xs, ys = mesh[d - 2], mesh[d - 1]
        cx, cy = 0.5 * domain.lengths[d - 2], 0.5 * domain.lengths[d - 1]
        r2 = ((xs - cx) ** 2 + (ys - cy) ** 2) / (cx**2 + cy**2)
        return ScalarField(domain, np.log(eta + r2))
    raise ConfigError(f"unknown field expression {spec!r}")


def _chi_from(domain: GridDomain, spec, base_dir: Path) -> HermitianField:
    if spec == "identity" or spec is None:
        return identity_chi(domain)
    if isinstance(spec, dict) and "constant" in spec:
        return constant_chi(domain, np.asarray(spec["constant"], dtype=complex))
    if isinstance(spec, dict) and "file" in spec:
        path = base_dir / spec["file"]
        if not path.exists():
            raise ConfigError(f"field file missing: {path}")
        return hio.read_hermitian_values(path, domain)
    raise ConfigError(f"bad chi spec {spec!r}")


def _problem_from(cfg: dict, mode: str) -> hsolve.ProblemSpec:
    base_dir = Path(cfg.get("base_dir", "."))
    try:
        domain = _domain_from(cfg["domain"])
        family = _family_from(cfg["family"])
        chi = _chi_from(domain, cfg.get("chi", "identity"), base_dir)
        psi = _expression_field(domain, cfg["psi"], base_dir)
        phi = None
        if cfg.get("phi") is not None:
            phi = _expression_field(domain, cfg["phi"], base_dir)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem config: {exc}") from exc
    try:
        return hsolve.ProblemSpec(domain, family, chi, psi, phi, mode)
    except DomainError as exc:
        raise ConfigError(f"inconsistent problem spec: {exc}") from exc


_OPTION_KEYS = ("residual_scale", "max_newton", "delta", "continuation")


def _number_option(opts: dict, key: str, default, integral: bool = False):
    """opts[key] as a float, or with `integral` as an int: a JSON number,
    never a bool or a string, and an integral one never truncated."""
    value = opts.get(key, default)
    if value is None and default is None:  # an optional option left unset
        return value
    if type(value) in (int, float) and (not integral or float(value).is_integer()):
        return int(value) if integral else float(value)
    kind = "an integer" if integral else "a number"
    raise ValueError(f"{key!r} must be {kind}, got {value!r}")


def _options_from(cfg: dict, seed: int) -> hsolve.SolverOptions:
    opts = cfg.get("options", {})
    try:
        unknown = sorted(set(opts) - set(_OPTION_KEYS))
        if unknown:
            raise ValueError("unknown option " + ", ".join(map(repr, unknown)))
        return hsolve.SolverOptions(
            residual_scale=_number_option(opts, "residual_scale", 1e-9),
            max_newton=_number_option(opts, "max_newton", 80, integral=True),
            delta=_number_option(opts, "delta", 0.1),
            continuation=_number_option(opts, "continuation", None, integral=True),
            seed=seed,
        )
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


# ----------------------------------------------------------------- commands


def _cmd_lemma_check(cfg, out: Path, seed: int, quiet: bool) -> int:
    if isinstance(cfg, list) or "instances" in cfg:
        instances = cfg if isinstance(cfg, list) else cfg["instances"]
        work = []
        for idx, inst in enumerate(instances):
            try:
                a = np.asarray(inst["a_re"], dtype=float) + 1j * np.asarray(
                    inst["a_im"], dtype=float
                )
                b0 = spectra.BorderedHermitian.make(inst["d"], a, 0.0)
                eps = float(inst["epsilon"])
                mults = [float(m) for m in inst["corner_multipliers"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad lemma instance #{idx}: {exc}") from exc
            for mult in mults:
                corner = mult * spectra.growth_threshold(b0, eps)
                work.append((idx, b0.with_corner(corner), eps, mult))
    else:
        battery = cfg.get("battery", {})
        try:
            count = int(battery.get("count", 1000))
            bseed = int(battery.get("seed", seed))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad battery config: {exc}") from exc
        work = [
            (i, b, eps, mult)
            for i, (b, eps, mult) in enumerate(spectra.battery_instances(count, bseed))
        ]

    # one stacked oracle call per matrix size, rows kept in input order
    by_size: dict[int, list[int]] = {}
    for pos, (_, b, _, _) in enumerate(work):
        by_size.setdefault(b.n, []).append(pos)
    rows = [None] * len(work)
    for positions in by_size.values():
        lams = spectra.eig_hermitian(
            np.stack([work[pos][1].embed() for pos in positions]))
        for pos, lam in zip(positions, lams):
            idx, b, eps, mult = work[pos]
            v = spectra.localization_verdict(b, eps, lam)
            rows[pos] = (idx, b.n, eps, mult, b.corner, v.threshold,
                         v.satisfied, v.max_offset, v.top_boundary_hit)

    writer = hio.CsvWriter(
        out / "lemma_check.csv",
        ["instance", "n", "epsilon", "multiplier", "corner", "threshold",
         "satisfied", "max_offset", "top_boundary_hit"],
        seed,
    )
    bad = 0
    for row in rows:
        writer.add(*row)
        bad += 0 if row[6] else 1
    writer.flush()
    if not quiet:
        print(f"lemma-check: {len(rows)} verdicts, {bad} violations")
    return EXIT_FINDINGS if bad else EXIT_OK


def _cmd_cone_check(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    try:
        family = _family_from(cfg["family"])
        samples = int(cfg.get("samples", 100))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad cone-check config: {exc}") from exc
    rep = symfunc.check_structure(family, samples, seed)
    writer = hio.CsvWriter(
        out / "cone_check.csv",
        ["family", "samples", "min_gradient", "max_hessian_eig",
         "worst_chord_violation", "worst_fd_mismatch", "violations"],
        seed,
    )
    writer.add(family.label(), samples, rep.min_gradient,
               rep.max_hessian_eigenvalue, rep.worst_chord_violation,
               rep.worst_fd_gradient_mismatch, rep.violations)
    writer.flush()
    if not quiet:
        print(f"cone-check: {family.label()}: {rep.violations} violations")
    return EXIT_FINDINGS if rep.violations else EXIT_OK


def _cmd_subsol_check(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    try:
        family = _family_from(cfg["family"])
        sigma = float(cfg["sigma"])
        mu = np.asarray(cfg["mu"], dtype=float)
        delta = float(cfg["delta"])
        radius = float(cfg["radius"])
        samples = int(cfg.get("samples", 500))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad subsol-check config: {exc}") from exc
    if samples < 1:
        raise ConfigError("subsol-check needs samples >= 1")
    ctx = subsol.build_context(family, sigma, mu, delta, radius, seed=seed)
    pts = subsol.sample_level_set(family, ctx.sigma, samples, seed)
    writer = hio.CsvWriter(
        out / "subsol_check.csv",
        ["index", "case1", "case2", "margin1", "margin2", "weight"],
        seed,
    )
    neither = 0
    for i, o in enumerate(subsol.dichotomy_rows(ctx, pts)):
        if o is None:
            neither += 1
            writer.add(i, False, False, float("nan"), float("nan"), float("nan"))
        else:
            writer.add(i, o.case1, o.case2, o.margin1, o.margin2, o.weight)
    writer.flush()
    if not quiet:
        print(
            f"subsol-check: eps={ctx.epsilon:.6g} (R0={ctx.r0:.6g}, "
            f"eps1={ctx.eps1:.6g}, delta0={ctx.delta0:.6g}); "
            f"{samples} points, {neither} without a case"
        )
    return EXIT_FINDINGS if neither else EXIT_OK


def _result_row(writer, run_id, result, report=None):
    writer.add(
        run_id,
        result.iterations,
        result.residual_history[-1],
        result.c if result.c is not None else float("nan"),
        report.ratio2nd if report else float("nan"),
        report.bdry_ratio if report else float("nan"),
        report.sandwich_ok if report else True,
    )


_RESULT_COLUMNS = ["run_id", "iterations", "residual", "c", "ratio2nd",
                   "bdry_ratio", "sandwich_ok"]


def _cmd_solve(cfg: dict, out: Path, seed: int, quiet: bool, mode: str) -> int:
    spec = _problem_from(cfg, mode)
    opts = _options_from(cfg, seed)
    writer = hio.CsvWriter(out / "results.csv", _RESULT_COLUMNS, seed)
    if mode == "closed":
        result = hsolve.solve_closed(spec, opts)
        _result_row(writer, "closed-0", result)
    else:
        usub, _ = hsolve.build_subsolution(spec, opts.delta)
        result = hsolve.solve_dirichlet(spec, replace(opts, subsolution=usub))
        usuper = hsolve.build_supersolution(spec)
        report = hsolve.verify_estimates(result, spec, usub, usuper)
        _result_row(writer, "dirichlet-0", result, report)
    writer.flush()
    hio.write_scalar_field(out / "u_0.hcl", result.u)
    if not quiet:
        c_txt = f", c={result.c:.3e}" if result.c is not None else ""
        print(
            f"solve-{mode}: {result.iterations} iterations, "
            f"residual {result.residual_history[-1]:.3e}{c_txt}"
        )
    return EXIT_OK


def _cmd_degenerate(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    spec = _problem_from(cfg, "dirichlet")
    opts = _options_from(cfg, seed)
    shift = cfg.get("boundary_shift")
    try:
        ladder = [float(e) for e in cfg.get("ladder", [1.0, 0.5, 0.25, 0.125])]
        shift = None if shift is None else float(shift)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad degenerate-sweep config: {exc}") from exc
    perturbed = None
    if shift is not None:
        perturbed = ScalarField(spec.domain, spec.phi.values + shift)
    report = hsolve.degenerate_sweep(spec, ladder, opts, perturbed_phi=perturbed)
    writer = hio.CsvWriter(
        out / "degenerate_sweep.csv",
        ["epsilon", "rho", "iterations", "residual", "cauchy_to_next"],
        seed,
    )
    for i, (eps, res) in enumerate(zip(report.epsilons, report.results)):
        cauchy = report.cauchy[i] if i < len(report.cauchy) else float("nan")
        writer.add(eps, report.rhos[i], res.iterations,
                   res.residual_history[-1], cauchy)
    writer.flush()
    for i, res in enumerate(report.results):
        hio.write_scalar_field(out / f"u_eps{i}.hcl", res.u)
    if report.error:
        print(f"degenerate-sweep aborted: {report.error}", file=sys.stderr)
        return EXIT_NUMERIC
    if not quiet:
        extra = ""
        if report.stability_diff is not None:
            extra = (f"; stability diff {report.stability_diff:.6g}"
                     f" vs bound {report.stability_bound:.6g}")
        print(f"degenerate-sweep: {len(report.results)} solves{extra}")
    return EXIT_OK


def _cmd_exhaustion(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    spec = _problem_from(cfg, "dirichlet")
    opts = _options_from(cfg, seed)
    try:
        levels = [float(a) for a in cfg["levels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad exhaustion levels: {exc}") from exc
    report = hsolve.domain_exhaustion(spec, levels, opts)
    writer = hio.CsvWriter(
        out / "exhaustion.csv",
        ["level", "interior_nodes", "diff_to_full", "diff_to_previous"],
        seed,
    )
    for i, lev in enumerate(report.levels):
        prev = report.consecutive_diffs[i - 1] if i >= 1 else float("nan")
        writer.add(lev, report.interior_counts[i], report.diffs_to_full[i], prev)
    writer.flush()
    if not quiet:
        print(f"exhaustion: {len(report.levels)} nested solves")
    return EXIT_OK


def _cmd_estimate_report(cfg: dict, out: Path, seed: int, quiet: bool) -> int:
    spec = _problem_from(cfg, "dirichlet")
    opts = _options_from(cfg, seed)
    amplitudes = cfg.get("amplitudes", [0.25, 0.5, 1.0])
    try:
        scales = [float(a) for a in amplitudes]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad amplitudes: {exc}") from exc
    writer = hio.CsvWriter(out / "estimates.csv", _RESULT_COLUMNS, seed)
    for amp, scale in zip(amplitudes, scales):
        psi_a = ScalarField(spec.domain, scale * spec.psi.values)
        spec_a = replace(spec, psi=psi_a)
        usub, _ = hsolve.build_subsolution(spec_a, opts.delta)
        result = hsolve.solve_dirichlet(spec_a, replace(opts, subsolution=usub))
        usuper = hsolve.build_supersolution(spec_a)
        report = hsolve.verify_estimates(result, spec_a, usub, usuper)
        _result_row(writer, f"amp-{amp}", result, report)
    writer.flush()
    if not quiet:
        print(f"estimate-report: {len(amplitudes)} amplitude runs")
    return EXIT_OK


_COMMANDS = {
    "lemma-check": _cmd_lemma_check,
    "cone-check": _cmd_cone_check,
    "subsol-check": _cmd_subsol_check,
    "degenerate-sweep": _cmd_degenerate,
    "exhaustion": _cmd_exhaustion,
    "estimate-report": _cmd_estimate_report,
    "solve-closed": partial(_cmd_solve, mode="closed"),
    "solve-dirichlet": partial(_cmd_solve, mode="dirichlet"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="Numerical laboratory for complex Hessian-type equations",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, (dict, list)):
            raise ConfigError("config must be a JSON object or array")
        if isinstance(cfg, list) and args.command != "lemma-check":
            raise ConfigError("array configs are only valid for lemma-check")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.seed, args.quiet)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LemmaViolationError, HypothesisError) as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except HclError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
