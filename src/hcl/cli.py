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
from . import spectra, subsol, symfunc
from .errors import (
    ConfigError,
    DomainError,
    HclError,
    HypothesisError,
    NumericError,
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
    except ValueError as exc:  # bad JSON or UTF-8, or an int of > 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


_NAMES = {int: "an integer of magnitude <= 2**53",
          float: "a number of magnitude <= 1e150",
          bool: "a boolean", str: "a string", dict: "an object"}
# 2**53: floats stop being exact; 1e150: the square of a number stays finite
_LIMITS = {int: 2**53, float: 1e150}


def _read(cfg: dict, key: str, kind, default=..., low=None, high=None):
    """cfg[key] as `kind` (int, float, bool, str, dict, or object for any
    value), or as a JSON array of them, written [kind].  A number is a finite
    JSON number, never a bool or a string, and at most 1e150 in magnitude, so
    that its square is finite; an int is never truncated (80.0 reads as 80) and
    at most 2**53 in magnitude, where floats stop being exact.
    A missing or null key gives `default`, an error if that is `...`; `low` and
    `high` bound a number, `low` also an array's length.  Errors name the key."""
    value = cfg.get(key)
    if value is None:
        if default is ...:
            raise ConfigError(f"missing {key!r}")
        return default

    def typed(v, kind):
        if isinstance(kind, list):
            if type(v) is list:
                return [typed(x, kind[0]) for x in v]
        elif kind in (int, float):
            if (type(v) in (int, float) and abs(v) <= _LIMITS[kind]
                    and (kind is float or float(v).is_integer())):
                return kind(v)
        elif kind is object or type(v) is kind:
            return v
        what = "an array" if isinstance(kind, list) else _NAMES[kind]
        raise ConfigError(f"{key!r} needs {what}, got {v!r}")

    value = typed(value, kind)
    if low is not None and (len(value) if isinstance(kind, list) else value) < low:
        what = f"at least {low} entries" if isinstance(kind, list) else f">= {low}"
        raise ConfigError(f"{key!r} needs {what}, got {value!r}")
    if high is not None and value > high:
        raise ConfigError(f"{key!r} needs <= {high}, got {value!r}")
    return value


# the keys each family kind reads before n, in constructor order
_FAMILIES = {
    "log-det": (symfunc.FuncFamily.log_det, {}),
    "sigma-root": (symfunc.FuncFamily.sigma_root, {"k": int}),
    "log-sigma": (symfunc.FuncFamily.log_sigma, {"k": int}),
    "sigma-quotient": (symfunc.FuncFamily.sigma_quotient, {"k": int, "l": int}),
    "quotient-log": (symfunc.FuncFamily.quotient_log, {"k": int, "betas": [float]}),
}


def _family_from(cfg: dict) -> symfunc.FuncFamily:
    kind = _read(cfg, "kind", str)
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown family kind {kind!r}")
    make, keys = _FAMILIES[kind]
    args = [_read(cfg, key, how) for key, how in keys.items()]
    return make(*args, _read(cfg, "n", int, high=symfunc.DIMENSION_CAP))


def _domain_from(cfg: dict) -> GridDomain:
    kind, n = _read(cfg, "kind", str), _read(cfg, "n", int, high=symfunc.DIMENSION_CAP)
    if kind == "torus":
        return GridDomain.torus(n, _read(cfg, "shape", [int]),
                                _read(cfg, "lengths", [float], None))
    if kind == "product":  # keys left unset keep GridDomain.product's defaults
        kinds = {"x_shape": [int], "s_shape": [int], "x_lengths": [float],
                 "s_lengths": [float], "s_periodic": [bool]}
        given = {key: _read(cfg, key, how, None) for key, how in kinds.items()}
        return GridDomain.product(
            n, **{key: v for key, v in given.items() if v is not None})
    raise ConfigError(f"unknown domain kind {kind!r}")


def _expression_field(domain: GridDomain, spec, base_dir: Path) -> ScalarField:
    if isinstance(spec, dict):
        return hio.read_scalar_field(base_dir / _read(spec, "file", str), domain)
    if not isinstance(spec, str):
        raise ConfigError(f"bad field spec {spec!r}")
    name, _, arg = {"zero": "const:0", "one": "const:1"}.get(spec, spec).partition(":")
    if name not in ("const", "sinx", "logbump"):
        raise ConfigError(f"unknown field expression {spec!r}")
    try:
        value = float(arg)
    except ValueError:
        value = np.nan
    if not abs(value) <= _LIMITS[float]:  # the cap of every number; NaN fails it too
        raise ConfigError(f"bad number in field expression {spec!r}")
    if name == "const":
        return ScalarField.full(domain, value)
    if name == "sinx":
        x0 = domain.meshgrid()[0]
        scale = 2.0 * np.pi / domain.lengths[0]
        return ScalarField(domain, value * np.sin(scale * x0))
    # logbump: log(eta + normalized squared distance from the S-factor center)
    mesh = domain.meshgrid()
    d = len(domain.shape)
    xs, ys = mesh[d - 2], mesh[d - 1]
    cx, cy = 0.5 * domain.lengths[d - 2], 0.5 * domain.lengths[d - 1]
    r2 = ((xs - cx) ** 2 + (ys - cy) ** 2) / (cx**2 + cy**2)
    return ScalarField(domain, np.log(value + r2))


def _chi_from(domain: GridDomain, spec, base_dir: Path) -> HermitianField:
    if spec == "identity":
        return identity_chi(domain)
    if isinstance(spec, dict) and "constant" in spec:
        rows = _read(spec, "constant", [[float]])
        if any(len(row) != len(rows) for row in rows):
            raise ConfigError(f"'constant' must be a square matrix, got {rows!r}")
        return constant_chi(domain, rows)
    if isinstance(spec, dict) and "file" in spec:
        return hio.read_hermitian_values(base_dir / _read(spec, "file", str), domain)
    raise ConfigError(f"bad chi spec {spec!r}")


# option -> (kind, low); SolverOptions holds the defaults and checks the rest
_OPTIONS = {"residual_scale": (float, None), "max_newton": (int, 1), "delta": (float, None)}


def _problem_from(cfg: dict):
    """The ProblemSpec of a solver config, then its SolverOptions."""
    from . import solve as hsolve  # scipy loads for the solver commands only
    base_dir = Path(_read(cfg, "base_dir", str, "."))
    domain = _domain_from(_read(cfg, "domain", dict))
    family = _family_from(_read(cfg, "family", dict))
    chi = _chi_from(domain, _read(cfg, "chi", object, "identity"), base_dir)
    psi = _expression_field(domain, _read(cfg, "psi", object), base_dir)
    phi = _read(cfg, "phi", object, None)
    phi = None if phi is None else _expression_field(domain, phi, base_dir)
    spec = hsolve.ProblemSpec(domain, family, chi, psi, phi)
    opts = _read(cfg, "options", dict, {})
    unknown = sorted(set(opts) - set(_OPTIONS))
    if unknown:
        raise ConfigError("unknown option " + ", ".join(map(repr, unknown)))
    given = {key: _read(opts, key, kind, None, low) for key, (kind, low) in _OPTIONS.items()}
    return spec, hsolve.SolverOptions(**{key: v for key, v in given.items() if v is not None})


# ----------------------------------------------------------------- commands


# battery.count and samples: each is drawn and checked as arrays, all at once
COUNT_CAP = 100_000


def _lemma_blocks(cfg: dict, seed: int) -> list:
    """(rows, instance ids, instances with corner 0, eps, multipliers) per
    matrix size, from either lemma-check config form."""
    if "instances" not in cfg:
        battery = _read(cfg, "battery", dict, {})
        count = _read(battery, "count", int, 1000, low=1, high=COUNT_CAP)
        bseed = _read(battery, "seed", int, seed, low=0)
        return [(rows, rows, *rest) for rows, *rest in spectra.battery(count, bseed)]
    by_size: dict[int, list] = {}
    rows = 0
    for idx, inst in enumerate(_read(cfg, "instances", [dict], low=1)):
        n, d = _read(inst, "n", int, low=2), _read(inst, "d", [float])
        a_re, a_im = _read(inst, "a_re", [float]), _read(inst, "a_im", [float])
        if not n - 1 == len(d) == len(a_re) == len(a_im):
            raise ConfigError(f"instance #{idx}: 'd', 'a_re' and 'a_im' need "
                              f"'n' - 1 entries each, got 'n' = {n}")
        eps = _read(inst, "epsilon", float)
        for mult in _read(inst, "corner_multipliers", [float], low=1):
            by_size.setdefault(n, []).append((rows, idx, d, a_re, a_im, eps, mult))
            rows += 1
    blocks = (map(np.array, zip(*items)) for items in by_size.values())
    return [(pos, ids, spectra.BorderedStack(d, re + 1j * im, np.zeros(pos.size)), eps, mult)
            for pos, ids, d, re, im, eps, mult in blocks]


def _cmd_lemma_check(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    # per matrix size: thresholds, corners and one stacked oracle call
    parts = []
    for rows, ids, b, eps, mult in _lemma_blocks(cfg, seed):
        thr = spectra.growth_threshold(b, eps)
        with np.errstate(over="ignore", invalid="ignore"):
            b = replace(b, corner=mult * thr)
            finite = np.isfinite(np.linalg.norm(b.embed(), axis=(1, 2)))
        if not np.all(finite):  # a threshold, a corner or a matrix norm overflowed
            raise ConfigError(f"instance #{ids[~finite][0]}: the matrix with corner "
                              "multiplier * growth threshold has no finite norm")
        v = spectra.localize(b, eps)
        parts.append((rows, ids, np.full(rows.size, b.n), eps, mult, b.corner, thr,
                      v.satisfied, v.max_offset, v.top_boundary_hit))
    rows, *table = map(np.concatenate, zip(*parts))
    order = np.argsort(rows)  # rows back in input order
    hio.CsvWriter(out / "lemma_check.csv", [
        "instance", "n", "epsilon", "multiplier", "corner", "threshold",
        "satisfied", "max_offset", "top_boundary_hit"], seed).flush(
        *(col[order] for col in table))
    bad = int(np.count_nonzero(~table[6]))
    return (EXIT_FINDINGS if bad else EXIT_OK,
            f"lemma-check: {rows.size} verdicts, {bad} violations")


def _cmd_cone_check(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    family = _family_from(_read(cfg, "family", dict))
    samples = _read(cfg, "samples", int, 100, low=1, high=COUNT_CAP)
    rep = symfunc.check_structure(family, samples, seed)
    hio.CsvWriter(out / "cone_check.csv", [
        "family", "samples", "min_gradient", "max_hessian_eig",
        "worst_chord_violation", "worst_fd_mismatch", "violations"], seed).flush(
        *zip((family.label(), samples, rep.min_gradient, rep.max_hessian_eigenvalue,
              rep.worst_chord_violation, rep.worst_fd_gradient_mismatch, rep.violations)))
    return (EXIT_FINDINGS if rep.violations else EXIT_OK,
            f"cone-check: {family.label()}: {rep.violations} violations")


def _cmd_subsol_check(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    family = _family_from(_read(cfg, "family", dict))
    sigma, delta, radius = (_read(cfg, k, float) for k in ("sigma", "delta", "radius"))
    mu = np.asarray(_read(cfg, "mu", [float]))
    samples = _read(cfg, "samples", int, 500, low=1, high=COUNT_CAP)
    ctx = subsol.build_context(family, sigma, mu, delta, radius, seed=seed)
    pts = subsol.sample_level_set(family, ctx.sigma, samples, seed)
    nan = float("nan")
    outcomes = subsol.dichotomy_rows(ctx, pts)
    hio.CsvWriter(out / "subsol_check.csv", [
        "index", "case1", "case2", "margin1", "margin2", "weight"], seed).flush(
        range(samples), *zip(*((False, False, nan, nan, nan) if o is None else
                               (o.case1, o.case2, o.margin1, o.margin2, o.weight)
                               for o in outcomes)))
    neither = outcomes.count(None)
    return (EXIT_FINDINGS if neither else EXIT_OK,
            f"subsol-check: eps={ctx.epsilon:.6g} (R0={ctx.r0:.6g}, "
            f"eps1={ctx.eps1:.6g}, delta0={ctx.delta0:.6g}); "
            f"{samples} points, {neither} without a case")


def _result_row(run_id, result, report=None) -> tuple:
    nan = float("nan")
    return (run_id, result.iterations, result.residual_history[-1],
            nan if result.c is None else result.c,
            report.ratio2nd if report else nan,
            report.bdry_ratio if report else nan,
            report.sandwich_ok if report else True)


_RESULT_COLUMNS = ["run_id", "iterations", "residual", "c", "ratio2nd",
                   "bdry_ratio", "sandwich_ok"]


def _dirichlet_run(run_id, spec, opts):
    """Dirichlet solve and estimate check; returns (SolveResult, result row)."""
    from . import solve as hsolve
    result = hsolve.solve_dirichlet(spec, opts)
    usuper = hsolve.build_supersolution(spec)
    report = hsolve.verify_estimates(result, spec, result.subsolution, usuper)
    return result, _result_row(run_id, result, report)


def _cmd_solve(cfg: dict, out: Path, seed: int, mode: str) -> tuple[int, str]:
    from . import solve as hsolve
    spec, opts = _problem_from(cfg)
    if mode == "closed":
        result = hsolve.solve_closed(spec, opts)
        row = _result_row("closed-0", result)
    else:
        result, row = _dirichlet_run("dirichlet-0", spec, opts)
    hio.CsvWriter(out / "results.csv", _RESULT_COLUMNS, seed).flush(*zip(row))
    hio.write_scalar_field(out / "u_0.hcl", result.u)
    c_txt = f", c={result.c:.3e}" if result.c is not None else ""
    return EXIT_OK, (f"solve-{mode}: {result.iterations} iterations, "
                     f"residual {result.residual_history[-1]:.3e}{c_txt}")


def _cmd_degenerate(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    from . import solve as hsolve
    spec, opts = _problem_from(cfg)
    ladder = _read(cfg, "ladder", [float], [1.0, 0.5, 0.25, 0.125], low=1)
    shift = _read(cfg, "boundary_shift", float, None)
    perturbed = None if shift is None or spec.phi is None else ScalarField(
        spec.domain, spec.phi.values + shift)
    report = hsolve.degenerate_sweep(spec, ladder, opts, perturbed_phi=perturbed)
    results = report.results
    hio.CsvWriter(out / "degenerate_sweep.csv", [
        "epsilon", "rho", "iterations", "residual", "cauchy_to_next"], seed).flush(
        report.epsilons, report.rhos, [res.iterations for res in results],
        [res.residual_history[-1] for res in results],
        [*report.cauchy, float("nan")][:len(results)])
    for i, res in enumerate(results):
        hio.write_scalar_field(out / f"u_eps{i}.hcl", res.u)
    if report.error:
        raise NumericError(f"degenerate-sweep aborted: {report.error}")
    extra = "" if report.stability_diff is None else (
        f"; stability diff {report.stability_diff:.6g} vs bound {report.stability_bound:.6g}")
    return EXIT_OK, f"degenerate-sweep: {len(report.results)} solves{extra}"


def _cmd_exhaustion(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    from . import solve as hsolve
    spec, opts = _problem_from(cfg)
    levels = _read(cfg, "levels", [float], low=1)
    report = hsolve.domain_exhaustion(spec, levels, opts)
    hio.CsvWriter(out / "exhaustion.csv", [
        "level", "interior_nodes", "diff_to_full", "diff_to_previous"], seed).flush(
        report.levels, report.interior_counts, report.diffs_to_full,
        [float("nan"), *report.consecutive_diffs])
    return EXIT_OK, f"exhaustion: {len(report.levels)} nested solves"


def _cmd_estimate_report(cfg: dict, out: Path, seed: int) -> tuple[int, str]:
    spec, opts = _problem_from(cfg)
    scales = _read(cfg, "amplitudes", [float], [0.25, 0.5, 1.0], low=1)
    # run ids keep the JSON spelling of each amplitude: amp-1 is not amp-1.0
    amplitudes = cfg.get("amplitudes") or scales
    rows = [_dirichlet_run(f"amp-{amp}", replace(
        spec, psi=ScalarField(spec.domain, scale * spec.psi.values)), opts)[1]
        for amp, scale in zip(amplitudes, scales)]
    hio.CsvWriter(out / "estimates.csv", _RESULT_COLUMNS, seed).flush(*zip(*rows))
    return EXIT_OK, f"estimate-report: {len(amplitudes)} amplitude runs"


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
        if isinstance(cfg, list):
            if args.command != "lemma-check":
                raise ConfigError("array configs are only valid for lemma-check")
            cfg = {"instances": cfg}
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object or array")
        seed = _read(vars(args), "seed", int, low=0)  # numpy seeds are >= 0
        Path(args.out).mkdir(parents=True, exist_ok=True)
        code, summary = _COMMANDS[args.command](cfg, Path(args.out), seed)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except HclError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if not args.quiet:
        print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
