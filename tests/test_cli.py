import copy
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcl
import hcl.solve as solve_mod
from hcl import io as hio
from hcl import spectra, subsol, symfunc
from hcl.cli import _OPTIONS, COUNT_CAP, _domain_from, _problem_from, _read, main
from hcl.errors import ConfigError
from hcl.grid import ScalarField, identity_chi


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CLOSED_CONSTANTS = {
    "domain": {"kind": "torus", "n": 2, "shape": [8, 4, 8, 4]},
    "family": {"kind": "log-det", "n": 2},
    "chi": "identity",
    "psi": "const:0.0",
    "phi": None,
}

LEVELS_ERROR = "levels must be positive and strictly decreasing"

DIRICHLET_SMALL = {
    "domain": {
        "kind": "product", "n": 2,
        "x_shape": [8, 4], "s_shape": [13, 13],
        "x_lengths": [6.283185307179586, 6.283185307179586],
        "s_lengths": [1.0, 1.0],
    },
    "family": {"kind": "log-det", "n": 2},
    "chi": "identity",
    "psi": "const:0.4",
    "phi": "zero",
}

CONE = {"family": {"kind": "sigma-root", "k": 2, "n": 3}, "samples": 40}

INSTANCE = {"n": 3, "d": [0.4, -0.2], "a_re": [0.5, 0.1], "a_im": [0.0, 0.3],
            "epsilon": 0.3, "corner_multipliers": [1.0, 10.0]}

SUBSOL = {
    "family": {"kind": "sigma-root", "k": 1, "n": 3},
    "sigma": 3.0, "mu": [2.0, 2.0, 2.0], "delta": 0.5, "radius": 2.0,
    "samples": 40,
}

# the degenerate sweep runs on a smaller grid, which keeps its mutations and
# its pinned artifact quick, and a perturbed solve that stalls at the
# precision of a huge boundary_shift exits 3 at once
SWEEP = dict(DIRICHLET_SMALL, domain=dict(DIRICHLET_SMALL["domain"], x_shape=[4, 4],
                                          s_shape=[7, 7]),
             psi="logbump:0.01", ladder=[0.5, 0.25], boundary_shift=0.05)
EXHAUSTION = dict(DIRICHLET_SMALL, levels=[0.04, 0.02])
ESTIMATES = dict(DIRICHLET_SMALL, amplitudes=[0.5, 1.0])


class TestExitCodes:
    def test_solve_closed_constants(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", CLOSED_CONSTANTS)
        out = tmp_path / "out"
        assert main(["solve-closed", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "# hcl-schema v1"
        row = lines[3].split(",")
        assert float(row[3]) == pytest.approx(0.0, abs=1e-9)  # c column

    def test_solve_closed_high_contrast(self, tmp_path):
        # solvable for every amplitude (Yau); preconditioned at the grid-mean
        # coefficient, BiCGStab hit its iteration cap here and the run exited 3
        cfg = write_config(tmp_path, "c.json", dict(
            CLOSED_CONSTANTS, domain=dict(CLOSED_CONSTANTS["domain"], shape=[16, 8, 16, 8]),
            psi="sinx:8.0"))
        assert main(["solve-closed", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0

    def test_missing_field_file(self, tmp_path):
        bad = dict(CLOSED_CONSTANTS)
        bad["chi"] = {"file": "nope.hcl"}
        cfg = write_config(tmp_path, "bad.json", bad)
        assert main(["solve-closed", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4

    def test_unreadable_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["lemma-check", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 4

    def test_undecodable_config_and_negative_seed(self, tmp_path, capsys):
        # each of these ended in a traceback (exit 1)
        for name, raw in (("bytes.json", b"\xff\xfe"),
                          ("digits.json", b'{"samples": ' + b"9" * 5000 + b"}")):
            (tmp_path / name).write_bytes(raw)
            assert main(["cone-check", "--config", str(tmp_path / name),
                         "--out", str(tmp_path / "o")]) == 4
        cfg = write_config(tmp_path, "l.json", {"battery": {"count": 5}})
        assert main(["lemma-check", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 4
        assert "'seed'" in capsys.readouterr().err

    def test_lemma_battery_success(self, tmp_path):
        cfg = write_config(tmp_path, "l.json", {"battery": {"count": 45,
                                                            "seed": 3}})
        out = tmp_path / "out"
        assert main(["lemma-check", "--config", cfg, "--out", str(out),
                     "--seed", "3", "--quiet"]) == 0

    def test_lemma_violation_exit_two(self, tmp_path):
        # corner far below the growth threshold: localization must fail
        cfg = write_config(
            tmp_path, "v.json",
            {"instances": [{"n": 2, "d": [0.0], "a_re": [1.0], "a_im": [0.0],
                            "epsilon": 0.1, "corner_multipliers": [0.01]}]},
        )
        out = tmp_path / "out"
        assert main(["lemma-check", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2

    @pytest.mark.parametrize("multiplier, code, satisfied", [(1, 0, "true"), (0, 2, "false")])
    def test_entries_near_1e6(self, tmp_path, multiplier, code, satisfied):
        # a trace of 0 against a norm of 2e6: the oracle's trace check must
        # scale with the norm; at multiplier 0 the corner 0 is far below the
        # threshold, a genuine violation
        big = {"n": 3, "d": [1e6, -1e6], "a_re": [3e5, 2e5], "a_im": [1e5, -4e5],
               "epsilon": 0.3, "corner_multipliers": [multiplier]}
        cfg = write_config(tmp_path, "big.json", {"instances": [big]})
        out = tmp_path / "out"
        assert main(["lemma-check", "--config", cfg, "--out", str(out), "--quiet"]) == code
        (row,) = (out / "lemma_check.csv").read_text().splitlines()[3:]
        assert row.split(",")[6] == satisfied

    def test_bare_array_instances(self, tmp_path):
        cfg = write_config(
            tmp_path, "arr.json",
            [{"n": 3, "d": [0.4, -0.2], "a_re": [0.5, 0.1],
              "a_im": [0.0, 0.3], "epsilon": 0.3,
              "corner_multipliers": [1.0, 10.0]}],
        )
        out = tmp_path / "out"
        assert main(["lemma-check", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "lemma_check.csv").read_text().splitlines()
        assert len(rows) == 3 + 2  # two multipliers -> two verdicts

    def test_numeric_error_exit_three(self, tmp_path):
        cfg = dict(DIRICHLET_SMALL)
        cfg["options"] = {"max_newton": 1}  # guaranteed stall
        path = write_config(tmp_path, "stall.json", cfg)
        assert main(["solve-dirichlet", "--config", path,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 3

    def test_degenerate_sweep_abort_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "abort.json", dict(SWEEP, options={"max_newton": 1}))
        out = tmp_path / "out"
        assert main(["degenerate-sweep", "--config", cfg, "--out", str(out)]) == 3
        assert ("degenerate-sweep aborted: solve at eps=0.5 failed"
                in capsys.readouterr().err)
        rows = (out / "degenerate_sweep.csv").read_text().splitlines()
        assert len(rows) == 3  # the header only

    # a residual_scale of 1e-16 puts the solve's tol (1.4e-16) below the
    # rounding floor of its residual (2.05e-15); no step can pass it, so the
    # stall exits 3 without a retry (46 evaluations)
    def test_floor_stall_exits_three_at_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = solve_mod.residual_field

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solve_mod, "residual_field", counting)
        cfg = write_config(tmp_path, "floor.json",
                           dict(DIRICHLET_SMALL, options={"residual_scale": 1e-16}))
        assert main(["solve-dirichlet", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "damping underflow" in capsys.readouterr().err
        assert len(calls) <= 120

    # key: the config key the message must name; None where GridDomain,
    # SolverOptions, build_context or the field-expression parser rejects it
    @pytest.mark.parametrize("command, payload, key", [
        ("solve-dirichlet",
         {k: v for k, v in DIRICHLET_SMALL.items() if k != "psi"}, "psi"),
        ("lemma-check",
         {"instances": [{"n": 2, "d": [0.0], "a_im": [0.0], "epsilon": 0.1,
                         "corner_multipliers": [1.0]}]}, "a_re"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, psi={"path": "x"}), "file"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, psi="const:abc"), None),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"max_newton": "x"}),
         "max_newton"),
        ("lemma-check", {"battery": {"count": "many"}}, "count"),
        ("cone-check",
         {"family": {"kind": "sigma-root", "k": 2, "n": 3}, "samples": "x"},
         "samples"),
        ("subsol-check",
         {"family": {"kind": "sigma-root", "k": 1, "n": 3},
          "mu": [2.0, 2.0, 2.0], "delta": 0.5, "radius": 2.0}, "sigma"),
        ("exhaustion", dict(DIRICHLET_SMALL), "levels"),
        ("degenerate-sweep", dict(DIRICHLET_SMALL, boundary_shift="x"),
         "boundary_shift"),
        ("degenerate-sweep", dict(DIRICHLET_SMALL, ladder=["x"]), "ladder"),
        ("estimate-report", dict(DIRICHLET_SMALL, amplitudes=["x"]),
         "amplitudes"),
        ("solve-dirichlet",
         dict(DIRICHLET_SMALL, options={"linear_solver": "bogus"}),
         "linear_solver"),
        ("subsol-check", {k: v for k, v in SUBSOL.items() if k != "family"},
         "family"),
        ("cone-check", {"samples": 40}, "family"),
        ("subsol-check", dict(SUBSOL, mu=[2.0, 2.0]), None),
        ("subsol-check", dict(SUBSOL, samples=-3), "samples"),
        ("subsol-check", dict(SUBSOL, samples=0), "samples"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"max_newton": -3}),
         "max_newton"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"residual_scale": 0}),
         None),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"lin_tol": "x"}),
         "lin_tol"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"damping_min": 0}),
         "damping_min"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"max_newtom": 5}),
         "max_newtom"),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain=dict(
            CLOSED_CONSTANTS["domain"], shape=[8, 0, 8, 4])), None),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain=dict(
            CLOSED_CONSTANTS["domain"], lengths=[1.0, 0.0, 1.0, 1.0])), None),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], s_lengths=[1.0, 0.0])), None),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain={
            "kind": "torus", "n": 0, "shape": []}), None),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"max_newton": 1.9}),
         "max_newton"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"max_newton": True}),
         "max_newton"),
        ("solve-dirichlet",
         dict(DIRICHLET_SMALL, options={"linear_solver": "auto"}),
         "linear_solver"),
        ("solve-dirichlet",
         dict(DIRICHLET_SMALL, options={"residual_scale": True}),
         "residual_scale"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, options={"delta": "0.1"}),
         "delta"),
        ("solve-dirichlet",
         dict(DIRICHLET_SMALL, options={"residual_scale": 10 ** 400}),
         "residual_scale"),
        # misreads: each of these ran on a truncated or reinterpreted value
        ("cone-check", dict(CONE, family=dict(CONE["family"], k=2.9)), "k"),
        ("cone-check", dict(CONE, family=dict(CONE["family"], n=3.6)), "n"),
        ("cone-check", dict(CONE, family=dict(CONE["family"], n="3")), "n"),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain=dict(
            CLOSED_CONSTANTS["domain"], shape=[8.7, 4, 8, 4])), "shape"),
        ("subsol-check", dict(SUBSOL, sigma="3"), "sigma"),
        ("cone-check", dict(CONE, samples=40.7), "samples"),
        ("cone-check", dict(CONE, samples=True), "samples"),
        ("lemma-check", {"battery": {"count": 7.9}}, "count"),
        ("lemma-check", {"battery": {"count": 7, "seed": "3"}}, "seed"),
        ("lemma-check", {"battery": {"count": 7, "seed": -3}}, "seed"),
        ("lemma-check", {"instances": [dict(INSTANCE, corner_multipliers="15")]},
         "corner_multipliers"),
        ("degenerate-sweep", dict(DIRICHLET_SMALL, ladder="5"), "ladder"),
        ("estimate-report", dict(DIRICHLET_SMALL, amplitudes="1"), "amplitudes"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, base_dir=5), "base_dir"),
        ("lemma-check", {"instances": 5}, "instances"),
        ("lemma-check", {"instances": [dict(INSTANCE, n=5)]}, "n"),
        ("lemma-check", {"instances": [dict(INSTANCE, a_im=[0.3])]},
         "a_im"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, family="log-det"), "family"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, chi={"constant": [[1.0, 0.0],
                                                                    [0.0]]}),
         "constant"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, psi={"file": "."}), None),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], kind="sphere")), "unknown domain kind"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, psi="cosx:1"),
         "unknown field expression"),
        # field expressions obey the 1e150 cap of every number: these exited 3,
        # the first with three numpy warnings, the second from the ladder
        ("solve-closed", dict(CLOSED_CONSTANTS, psi="sinx:1e300"),
         "bad number in field expression"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, psi="const:1e300"),
         "bad number in field expression"),
        # empty work: each of these wrote a header-only CSV and exited 0
        ("lemma-check", {"battery": {"count": 0}}, "count"),
        ("lemma-check", {"battery": {"count": -5}}, "count"),
        ("lemma-check", {"instances": []}, "instances"),
        ("lemma-check", [], "instances"),
        ("lemma-check", {"instances": [dict(INSTANCE, corner_multipliers=[])]},
         "corner_multipliers"),
        ("degenerate-sweep", dict(DIRICHLET_SMALL, ladder=[]), "ladder"),
        ("exhaustion", dict(DIRICHLET_SMALL, levels=[]), "levels"),
        ("estimate-report", dict(DIRICHLET_SMALL, amplitudes=[]), "amplitudes"),
        # levels that cut no nested exhaustion: each of these exited 0
        ("exhaustion", dict(DIRICHLET_SMALL, levels=[-0.1, 0.0]), LEVELS_ERROR),
        ("exhaustion", dict(DIRICHLET_SMALL, levels=[0.02, 0.04]), LEVELS_ERROR),
        # spacings and dimensions the grid cannot carry: each raised in numpy or
        # in a Python float square (exit 1)
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], x_lengths=[1e300, 1.0])), "x_lengths"),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain=dict(
            CLOSED_CONSTANTS["domain"], lengths=[1e300, 1.0, 1.0, 1.0])), "lengths"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], s_lengths=[1e-300, 1.0])), "s_lengths"),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain={
            "kind": "torus", "n": 40, "shape": [2] * 80}), "n"),
        ("cone-check", dict(CONE, family=dict(CONE["family"], n=9)), "n"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], s_shape=[2, 13])), "s_shape"),
        ("solve-closed", dict(CLOSED_CONSTANTS, domain=dict(
            CLOSED_CONSTANTS["domain"], shape=[64, 64, 64, 64])), "shape"),
        ("solve-closed", DIRICHLET_SMALL, "solve_closed needs a grid without boundary nodes"),
        ("cone-check", 3, "config must be a JSON object or array"),
        ("solve-dirichlet", [DIRICHLET_SMALL], "array configs are only valid for lemma-check"),
        # each of these ran: a degenerate psi exited 3 although no numeric
        # kernel ran, and solve-closed never read a negative delta (exit 0)
        ("solve-dirichlet", dict(DIRICHLET_SMALL, family={"kind": "sigma-root", "k": 1,
                                                          "n": 2}, psi="const:0"),
         "degenerate right-hand side"),
        ("solve-closed", dict(CLOSED_CONSTANTS, options={"delta": -1}),
         "delta must be positive"),
        # solve-closed accepted continuation and ignored it; it is now unknown
        ("solve-closed", dict(CLOSED_CONSTANTS, options={"continuation": 2}),
         "continuation"),
        # solve-closed ignored phi (exit 0)
        ("solve-closed", dict(CLOSED_CONSTANTS, phi="const:5"),
         "a grid without boundary nodes takes no boundary data phi"),
        ("solve-closed", dict(CLOSED_CONSTANTS, phi="sinx:1"),
         "a grid without boundary nodes takes no boundary data phi"),
        # the grid poses the problem: a torus poses no Dirichlet problem, and a
        # grid with boundary nodes needs phi
        ("solve-dirichlet", CLOSED_CONSTANTS,
         "solve_dirichlet needs a grid with boundary nodes"),
        ("degenerate-sweep", dict(CLOSED_CONSTANTS, boundary_shift=0.1),
         "degenerate sweep needs a grid with boundary nodes"),
        ("exhaustion", dict(CLOSED_CONSTANTS, levels=[0.04, 0.02]),
         "exhaustion needs a product domain"),
        ("estimate-report", CLOSED_CONSTANTS,
         "solve_dirichlet needs a grid with boundary nodes"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, phi=None),
         "a grid with boundary nodes needs boundary data phi"),
        # an empty level ran the full solve first, then exited 3
        ("exhaustion", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], x_shape=[4, 4], s_shape=[9, 9]), levels=[0.5]),
         "level 0.5: empty sub-domain"),
        # guards of the grid and the subsolution context that no other row reached
        ("solve-dirichlet", dict(DIRICHLET_SMALL, domain=dict(
            DIRICHLET_SMALL["domain"], s_shape=[9, 9, 9])),
         "S factor is one complex variable: 2 axes"),
        ("solve-dirichlet", dict(DIRICHLET_SMALL, chi={"constant": [
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
         "background form must be n x n"),
        ("subsol-check", dict(SUBSOL, delta=0), "delta and radius must be positive"),
        ("subsol-check", dict(SUBSOL, radius=-1), "delta and radius must be positive"),
        ("subsol-check", dict(SUBSOL, mu=[-5, -5, 1]), "mu must lie in Gamma"),
    ], ids=["missing-psi", "missing-a_re", "field-without-file", "bad-const",
            "bad-option", "bad-count", "bad-samples", "missing-sigma",
            "missing-levels", "bad-boundary-shift", "bad-ladder",
            "bad-amplitude", "unknown-linear-solver",
            "subsol-missing-family", "cone-missing-family", "short-mu",
            "negative-samples", "zero-samples", "negative-max-newton",
            "zero-residual-scale", "unread-lin-tol",
            "unread-damping-min", "misspelt-option", "zero-node-count",
            "zero-torus-length", "zero-s-length", "zero-dimension",
            "fractional-max-newton", "boolean-max-newton",
            "removed-linear-solver",
            "boolean-residual-scale", "string-delta", "huge-residual-scale",
            "fractional-family-k", "fractional-family-n", "string-family-n",
            "fractional-shape", "string-sigma", "fractional-samples",
            "boolean-samples", "fractional-count", "string-battery-seed",
            "negative-battery-seed", "string-multipliers", "string-ladder",
            "string-amplitudes", "numeric-base-dir", "numeric-instances",
            "wrong-instance-n", "short-a_im", "string-family",
            "ragged-chi-constant", "directory-field-file", "unknown-domain-kind",
            "unknown-field-expression", "huge-sinx-psi", "huge-const-psi",
            "zero-count", "negative-count",
            "empty-instances", "empty-bare-array", "empty-multipliers",
            "empty-ladder", "empty-levels", "empty-amplitudes",
            "non-positive-levels", "increasing-levels", "huge-x-length",
            "huge-torus-length", "tiny-s-length", "torus-n-40", "family-n-9",
            "two-node-s-axis", "node-cap", "closed-on-product", "scalar-config",
            "array-config", "degenerate-psi", "negative-delta-closed",
            "removed-continuation-closed", "closed-const-phi", "closed-sinx-phi",
            "dirichlet-on-torus", "sweep-on-torus", "exhaustion-on-torus",
            "estimates-on-torus", "product-without-phi",
            "empty-exhaustion-level", "three-s-axes", "chi-constant-3x3-on-n-2",
            "zero-delta", "negative-radius", "mu-outside-gamma"])
    def test_malformed_config_exit_four(self, tmp_path, capsys, command,
                                        payload, key):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()  # one line, no traceback
        assert "config error" in err
        if key is not None:  # a quoted config key, or a solver's message
            assert (key if " " in key else repr(key)) in err

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_path(self, tmp_path, capsys, name):
        assert main(["lemma-check", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("config error: cannot read config")

    # the three cut-short files exited 1 with a traceback before the container
    # checked its length; no test reached the other three exits
    @pytest.mark.parametrize("field", ["psi", "chi"])
    @pytest.mark.parametrize("s_shape, damage, message", [
        ([13, 13], lambda raw: raw[:8], "cut short at 8 bytes"),
        ([13, 13], lambda raw: raw[:-8], "cut short"),
        ([13, 13], lambda raw: raw[:8] + (10**6).to_bytes(4, "little") + raw[12:],
         "cut short"),
        ([13, 13], lambda raw: b"HCL0" + raw[4:], "not an HCL1 container"),
        ([13, 11], lambda raw: raw, "does not match the domain"),
        ([13, 13], lambda raw: raw[:-8] + np.float64(np.nan).tobytes(), "finite"),
    ], ids=["cut-after-8-bytes", "data-short-of-dims", "rank-1e6", "wrong-magic",
            "wrong-shape", "nan"])
    def test_malformed_field_container_exit_four(self, tmp_path, capsys, field,
                                                 s_shape, damage, message):
        dom = _domain_from(dict(DIRICHLET_SMALL["domain"], s_shape=s_shape))
        path = tmp_path / f"{field}.hcl"
        if field == "psi":
            hio.write_scalar_field(path, ScalarField.full(dom, 0.4))
        else:
            hio.write_hermitian_field(path, identity_chi(dom))
        path.write_bytes(damage(path.read_bytes()))
        cfg = write_config(tmp_path, "bad.json", dict(
            DIRICHLET_SMALL, base_dir=str(tmp_path), **{field: {"file": path.name}}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("config error:") and message in err
        if message != "finite":
            assert str(path) in err

    # a field written on the annulus has the rectangle's shape but a periodic
    # S axis, sampled at spacing L/N, not L/(N - 1): each solved (exit 0)
    @pytest.mark.parametrize("field", ["psi", "chi"])
    def test_container_of_other_periodicity_exit_four(self, tmp_path, capsys, field):
        rectangle = dict(DIRICHLET_SMALL["domain"], x_shape=[4, 4], s_shape=[9, 9])
        annulus = _domain_from(dict(rectangle, s_periodic=[False, True]))
        path = tmp_path / f"{field}.hcl"
        if field == "psi":
            hio.write_scalar_field(path, ScalarField.full(annulus, 0.4))
        else:
            hio.write_hermitian_field(path, identity_chi(annulus))
        cfg = write_config(tmp_path, "bad.json", dict(
            DIRICHLET_SMALL, domain=rectangle, base_dir=str(tmp_path),
            **{field: {"file": path.name}}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"config error: {path}: container does not match the domain"

    # a flag byte of 7 read as periodic, so this container loaded (exit 0)
    def test_flag_byte_outside_zero_one_exit_four(self, tmp_path, capsys):
        rectangle = dict(DIRICHLET_SMALL["domain"], x_shape=[4, 4], s_shape=[9, 9])
        path = tmp_path / "psi.hcl"
        hio.write_scalar_field(path, ScalarField.full(_domain_from(rectangle), 0.4))
        raw = bytearray(path.read_bytes())
        assert raw[28:32] == bytes([1, 1, 0, 0])  # the flags follow 12 + 4 * 4 bytes
        raw[28] = 7
        path.write_bytes(raw)
        cfg = write_config(tmp_path, "bad.json", dict(
            DIRICHLET_SMALL, domain=rectangle, base_dir=str(tmp_path),
            psi={"file": path.name}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"config error: {path}: periodicity flag not 0 or 1"

    @pytest.mark.parametrize("command, payload", [
        ("solve-dirichlet", DIRICHLET_SMALL), ("solve-closed", CLOSED_CONSTANTS),
    ], ids=["dirichlet", "closed"])
    # each exited 3 with a cone violation, or an inadmissible initial iterate
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_chi_file_exit_four(self, tmp_path, capsys, command,
                                           payload, bad):
        dom = _domain_from(payload["domain"])
        values = np.zeros(dom.shape + (dom.n, dom.n, 2))
        values[..., [0, 1], [0, 1], 0] = 1.0
        values[(2,) * len(dom.shape) + (1, 1, 0)] = bad
        hio.write_array(tmp_path / "chi.hcl", values, dom.n,
                        list(dom.periodic) + [0, 0, 0])
        cfg = write_config(tmp_path, "chi.json", dict(
            payload, base_dir=str(tmp_path), chi={"file": "chi.hcl"}))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        (err,) = capsys.readouterr().err.splitlines()
        assert err == "config error: hermitian field values must be finite everywhere"

    def test_unknown_option_is_named(self, tmp_path, capsys):
        # linear_solver chose a direct factorization before BiCGStab became
        # the only Newton solver, and continuation set rungs of psi before a
        # Dirichlet solve became one Newton run; each is now unknown like a typo
        for key, value in (("max_newtom", 5), ("linear_solver", "auto"),
                           ("continuation", 4)):
            cfg = write_config(tmp_path, "typo.json",
                               dict(DIRICHLET_SMALL, options={key: value}))
            assert main(["solve-dirichlet", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 4
            assert repr(key) in capsys.readouterr().err

    def test_options_match_solver_options_and_readme(self):
        # the config keys, the SolverOptions fields and the keys README's
        # options bullet names are one set
        keys = {f.name for f in dataclasses.fields(solve_mod.SolverOptions)}
        assert set(_OPTIONS) == keys
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        bullet = readme.split("* `options` (solver commands):", 1)[1].split(";", 1)[0]
        assert set(re.findall(r"`(\w+)`", bullet)) == keys

    @pytest.mark.parametrize("command, payload", [
        ("solve-closed", dict(CLOSED_CONSTANTS, psi="sinx:0.4")),
        ("solve-dirichlet", DIRICHLET_SMALL),
    ], ids=["closed", "dirichlet"])
    def test_failed_krylov_solve_exit_three(self, tmp_path, capsys,
                                            monkeypatch, command, payload):
        monkeypatch.setattr(solve_mod.spla, "bicgstab",
                            lambda a, b, x0=None, **kwargs: (x0, -10))
        cfg = write_config(tmp_path, "krylov.json", payload)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err and "info=-10" in err

    @pytest.mark.parametrize("key, value", [
        ("max_newton", 1.9), ("max_newton", True), ("residual_scale", True),
        ("delta", "0.1"),
    ])
    def test_non_integral_option_is_named(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "frac.json",
                           dict(DIRICHLET_SMALL, options={key: value}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        assert repr(key) in capsys.readouterr().err

    def test_integral_float_option_runs(self, tmp_path):
        cfg = write_config(tmp_path, "whole.json",
                           dict(DIRICHLET_SMALL, options={"max_newton": 80.0}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_null_and_empty_values_that_stay_valid(self, tmp_path):
        # null reads as the default; an empty x_shape is the n = 1 product
        cfg = write_config(tmp_path, "null.json", dict(
            DIRICHLET_SMALL, chi=None, options={"delta": None}))
        assert main(["solve-dirichlet", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        dom = _domain_from({"kind": "product", "n": 1, "x_shape": []})
        assert dom.shape == (17, 17)

    def test_cone_check(self, tmp_path):
        cfg = write_config(
            tmp_path, "cone.json",
            {"family": {"kind": "sigma-root", "k": 2, "n": 3}, "samples": 40},
        )
        assert main(["cone-check", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_subsol_check(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SUBSOL)
        assert main(["subsol-check", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0


def fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports this hcl."""
    env = dict(os.environ, PYTHONPATH=str(Path(hcl.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


class TestLazySolverImport:
    # each in a fresh interpreter: this one imported hcl.solve long ago
    @pytest.mark.parametrize("command, payload", [
        ("lemma-check", {"instances": [INSTANCE]}), ("cone-check", CONE),
        ("subsol-check", SUBSOL), ("solve-closed", CLOSED_CONSTANTS)])
    def test_only_solver_commands_load_scipy(self, tmp_path, command, payload):
        argv = [command, "--config", write_config(tmp_path, "c.json", payload),
                "--out", str(tmp_path / "out"), "--quiet"]
        out = fresh_python("import sys; from hcl.cli import main; "
                           f"print(main({argv!r}), 'scipy' in sys.modules)")
        assert out.split() == ["0", str(command == "solve-closed")]

    def test_package_attribute_loads_solve(self):
        out = fresh_python("import sys, hcl; print('hcl.solve' in sys.modules, "
                           "hcl.solve.solve_dirichlet.__name__, 'scipy' in sys.modules)")
        assert out.split() == ["False", "solve_dirichlet", "True"]


class TestArtifacts:
    def test_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "l.json", {"battery": {"count": 30,
                                                            "seed": 9}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["lemma-check", "--config", cfg, "--out", str(out1),
                     "--seed", "9", "--quiet"]) == 0
        assert main(["lemma-check", "--config", cfg, "--out", str(out2),
                     "--seed", "9", "--quiet"]) == 0
        assert (out1 / "lemma_check.csv").read_bytes() == (
            out2 / "lemma_check.csv"
        ).read_bytes()

    def test_seed_recorded(self, tmp_path):
        cfg = write_config(tmp_path, "l.json", {"battery": {"count": 10,
                                                            "seed": 4}})
        out = tmp_path / "out"
        main(["lemma-check", "--config", cfg, "--out", str(out), "--seed", "4",
              "--quiet"])
        lines = (out / "lemma_check.csv").read_text().splitlines()
        assert lines[1] == "# seed 4"

    def test_solver_output_does_not_depend_on_seed(self, tmp_path):
        # --seed is recorded, and moves no solver number: BiCGStab always
        # starts from the seed-0 draw
        cfg = write_config(tmp_path, "d.json", DIRICHLET_SMALL)
        outs = [tmp_path / "s0", tmp_path / "s7"]
        for out, seed in zip(outs, ("0", "7")):
            assert main(["solve-dirichlet", "--config", cfg, "--out", str(out),
                         "--seed", seed, "--quiet"]) == 0
        assert (outs[0] / "u_0.hcl").read_bytes() == (outs[1] / "u_0.hcl").read_bytes()
        rows = [(out / "results.csv").read_text().splitlines() for out in outs]
        assert [rows[0][1], rows[1][1]] == ["# seed 0", "# seed 7"]
        assert rows[0][2:] == rows[1][2:]

    def test_dirichlet_writes_solution_container(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DIRICHLET_SMALL)
        out = tmp_path / "out"
        assert main(["solve-dirichlet", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "u_0.hcl").exists()
        raw = (out / "u_0.hcl").read_bytes()
        assert raw[:4] == b"HCL1"
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[2].split(",")[0] == "run_id"
        assert rows[3].split(",")[-1] == "true"  # sandwich_ok

    def test_estimate_report(self, tmp_path):
        cfg = dict(DIRICHLET_SMALL)
        cfg["amplitudes"] = [0.5, 1.0]
        path = write_config(tmp_path, "e.json", cfg)
        out = tmp_path / "out"
        assert main(["estimate-report", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "estimates.csv").read_text().splitlines()
        assert len(rows) == 3 + 2
        # run ids keep each amplitude as the config spells it
        assert [row.split(",")[0] for row in rows[3:]] == ["amp-0.5", "amp-1.0"]
        for row in rows[3:]:
            ratio = float(row.split(",")[4])
            assert np.isfinite(ratio)

    @pytest.mark.parametrize("command, extra, builds", [
        ("solve-dirichlet", {}, 1),
        ("estimate-report", {"amplitudes": [0.5, 1.0]}, 2),
    ])
    def test_one_subsolution_build_per_solve(self, tmp_path, monkeypatch,
                                              command, extra, builds):
        import hcl.solve

        calls = []
        real = hcl.solve.build_subsolution

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hcl.solve, "build_subsolution", counting)
        path = write_config(tmp_path, "d.json", dict(DIRICHLET_SMALL, **extra))
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert len(calls) == builds

    def test_degenerate_sweep_command(self, tmp_path):
        cfg = dict(DIRICHLET_SMALL)
        cfg["psi"] = "logbump:0.01"
        cfg["ladder"] = [0.5, 0.25]
        cfg["boundary_shift"] = 0.05
        path = write_config(tmp_path, "deg.json", cfg)
        out = tmp_path / "out"
        assert main(["degenerate-sweep", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "degenerate_sweep.csv").exists()
        assert (out / "u_eps0.hcl").exists()

    def test_exhaustion_command(self, tmp_path):
        cfg = dict(DIRICHLET_SMALL)
        cfg["domain"] = dict(cfg["domain"], s_shape=[21, 21])
        cfg["levels"] = [0.04, 0.02]
        path = write_config(tmp_path, "x.json", cfg)
        out = tmp_path / "out"
        assert main(["exhaustion", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "exhaustion.csv").read_text().splitlines()
        assert len(rows) == 3 + 2


class TestLargeBoundaryData:
    """Boundary data of size c put eps c / h^2 of rounding into a second
    difference of u, above the Newton and Poisson tolerances; every Dirichlet
    solve works on w = u - phi instead, so phi meets a Hessian only once.
    With phi = const:c on these grids 7 of the 9 cells, and both sweep
    shifts, exited 3."""

    def solve(self, tmp_path, domain, phi, name):
        cfg = dict(DIRICHLET_SMALL, domain=domain, phi=phi, base_dir=str(tmp_path))
        path = write_config(tmp_path, f"{name}.json", cfg)
        out = tmp_path / name
        assert main(["solve-dirichlet", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        return hio.read_scalar_field(out / "u_0.hcl", _domain_from(domain)).values

    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("x_shape, s_nodes", [([8, 4], 13), ([4, 4], 33),
                                                  ([4, 4], 65)])
    def test_constant_data_shift_the_solution(self, tmp_path, x_shape, s_nodes, c):
        domain = dict(DIRICHLET_SMALL["domain"], x_shape=x_shape,
                      s_shape=[s_nodes, s_nodes])
        u0 = self.solve(tmp_path, domain, "zero", "zero")
        u = self.solve(tmp_path, domain, f"const:{c:g}", "c")
        assert np.max(np.abs(u - u0 - c)) <= 1e-6

    def test_constant_data_repeat_the_zero_iterates(self):
        # the Newton start is the correction the subsolution ladder checked, not
        # (phi + t h) - phi: phi = const:1e6 ended at 4.7750692289127983e-13
        # against phi = zero's 4.767297667740422e-13
        def history(phi):
            spec, opts = _problem_from(dict(DIRICHLET_SMALL, phi=phi))
            return solve_mod.solve_dirichlet(spec, opts).residual_history

        zero = history("zero")
        assert history("const:1e2") == zero and history("const:1e6") == zero

    def test_affine_data(self, tmp_path):
        # phi = 1e6 (1 + 0.1 s0) stalled at residual 1.27e-7 (tol 1.4e-9)
        domain = dict(DIRICHLET_SMALL["domain"], x_shape=[4, 4], s_shape=[33, 33])
        dom = _domain_from(domain)
        phi = 1e6 * (1.0 + 0.1 * dom.meshgrid()[2])
        hio.write_scalar_field(tmp_path / "phi.hcl", ScalarField(dom, phi))
        u0 = self.solve(tmp_path, domain, "zero", "zero")
        u = self.solve(tmp_path, domain, {"file": "phi.hcl"}, "affine")
        assert np.max(np.abs(u - u0 - phi)) <= 1e-6

    @pytest.mark.parametrize("shift", [1e6, 1e10])
    def test_sweep_shift(self, tmp_path, capsys, shift):
        # the perturbed solve differs from the last rung's by the shift alone
        cfg = write_config(tmp_path, "sweep.json", dict(SWEEP, boundary_shift=shift))
        assert main(["degenerate-sweep", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert (f"stability diff {shift:.6g} vs bound {shift:.6g}"
                in capsys.readouterr().out)


class TestNumberBounds:
    """Integer keys take integral numbers up to 2**53 in magnitude, and
    battery.count is capped; beyond that exit 4, naming the key."""

    # (command, config, path to the integer key; an int entry picks an array slot)
    INTEGER_KEYS = [
        ("cone-check", CONE, ("samples",)),
        ("cone-check", CONE, ("family", "n")),
        ("cone-check", CONE, ("family", "k")),
        ("cone-check", {"family": {"kind": "sigma-quotient", "k": 2, "l": 1, "n": 3}},
         ("family", "l")),
        ("subsol-check", SUBSOL, ("samples",)),
        ("solve-closed", CLOSED_CONSTANTS, ("domain", "shape", 1)),
        ("solve-closed", CLOSED_CONSTANTS, ("domain", "n")),
        ("solve-closed", dict(CLOSED_CONSTANTS, options={"max_newton": 5}),
         ("options", "max_newton")),
        ("solve-dirichlet", DIRICHLET_SMALL, ("domain", "x_shape", 0)),
        ("solve-dirichlet", DIRICHLET_SMALL, ("domain", "s_shape", 1)),
        ("lemma-check", {"battery": {"count": 5}}, ("battery", "count")),
        ("lemma-check", {"battery": {"count": 5, "seed": 1}}, ("battery", "seed")),
        ("lemma-check", {"instances": [INSTANCE]}, ("instances", 0, "n")),
    ]

    @pytest.mark.parametrize("value", [1e300, -1e300, 10**400],
                             ids=["1e300", "-1e300", "10**400"])
    @pytest.mark.parametrize("command, payload, path", INTEGER_KEYS,
                             ids=[".".join(map(str, k[2])) + "-" + k[0]
                                  for k in INTEGER_KEYS])
    def test_huge_integer_exit_four(self, tmp_path, capsys, command, payload,
                                    path, value):
        cfg = copy.deepcopy(payload)
        node = cfg
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        key = next(k for k in reversed(path) if isinstance(k, str))
        assert main([command, "--config", write_config(tmp_path, "big.json", cfg),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err

    def test_integer_limit_is_two_to_the_53(self):
        for ok in (2**53, -(2**53), float(2**53), 80.0):
            assert _read({"k": ok}, "k", int) == int(ok)
        for bad in (2**53 + 1, -(2**53) - 1, 2.0**54, 1e300):
            with pytest.raises(ConfigError, match="'k'"):
                _read({"k": bad}, "k", int)

    def test_float_limit_is_1e150(self):
        for ok in (1e150, -1e150, 10**100, 1e-300):
            assert _read({"k": ok}, "k", float) == float(ok)
        for bad in (1.01e150, -1e151, 1e300, 10**400):
            with pytest.raises(ConfigError, match="'k' needs a number of magnitude"):
                _read({"k": bad}, "k", float)

    @pytest.mark.parametrize("count", [1e300, 10**400, COUNT_CAP + 1],
                             ids=["1e300", "10**400", "cap+1"])
    def test_battery_count_cap(self, tmp_path, capsys, monkeypatch, count):
        def no_battery(*args):
            raise AssertionError("battery drawn before the count was checked")

        monkeypatch.setattr(spectra, "battery", no_battery)
        cfg = write_config(tmp_path, "l.json", {"battery": {"count": count}})
        assert main(["lemma-check", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        assert "'count'" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [1e300, 10**400, COUNT_CAP + 1],
                             ids=["1e300", "10**400", "cap+1"])
    @pytest.mark.parametrize("command, payload, module, sampler", [
        ("cone-check", CONE, symfunc, "sample_cone"),
        ("subsol-check", SUBSOL, subsol, "sample_level_set"),
    ], ids=["cone-check", "subsol-check"])
    def test_samples_cap(self, tmp_path, capsys, monkeypatch, command, payload,
                         module, sampler, samples):
        def no_samples(*args):
            raise AssertionError("points drawn before the samples were checked")

        monkeypatch.setattr(module, sampler, no_samples)
        cfg = write_config(tmp_path, "s.json", dict(payload, samples=samples))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "'samples'" in capsys.readouterr().err

    # under the 1e150 cap: a_re overflows the threshold times the multiplier,
    # d only the matrix norm, which the Jacobi oracle needs finite
    @pytest.mark.parametrize("field, value", [("a_re", [1e150, 0.1]),
                                              ("d", [1e150, -0.2])])
    def test_overflowing_corner_names_instance(self, tmp_path, capsys, field, value):
        huge = dict(INSTANCE, corner_multipliers=[1e150], **{field: value})
        cfg = write_config(tmp_path, "o.json", {"instances": [INSTANCE, huge]})
        assert main(["lemma-check", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        assert "instance #1" in capsys.readouterr().err


# artifact digests taken at the parent of the change that had to reproduce
# them byte for byte: lemma_check.csv before the stacked lemma-check pipeline,
# cone_check.csv and subsol_check.csv before the stacked analytic Hessian, and
# results.csv and u_0.hcl of solve-closed before BiCGStab became the only
# Krylov solver.  The Dirichlet solver artifacts are those of the exact Newton
# Jacobian with the forcing floor, whose u moved by at most 1e-11 from the
# solves before it, then of the row-major stencil storage, whose matvec sums
# each row in stencil order (u moved by at most 1e-14), then of the Newton
# residual in Hermitian coordinates, with nested mixed differences and f, F
# from sigma(g) (u moved by at most 1e-14).  Re-pinned since: exhaustion.csv,
# when the masked sub-domains took their box's spectral inverse for the
# diagonal preconditioner (the largest cell change 1.5e-12 against a Newton
# tol of 1.4e-9), and cone_check.csv of log-sigma, sigma-quotient and
# quotient-log, when grad_f became the chain rule through df_dsigma
# (min_gradient moved by at most 1.4e-17, worst_fd_mismatch by 1.6e-16;
# violations unchanged), and degenerate_sweep.csv and exhaustion.csv, when a
# Newton step after one of length >= 1/2 stopped BiCGStab at the
# Eisenstat-Walker forcing term, not at 1e-11 (the largest cell change:
# cauchy_to_next moved by 2.4e-13, diff_to_full by 5.9e-13, diff_to_previous
# by 1.1e-12, and the Newton residual column, below tol on both sides;
# iterations unchanged), and every Dirichlet artifact, when BiCGStab started
# from zero instead of a seeded random vector (the largest cell change:
# ratio2nd moved by 4.7e-16, cauchy_to_next by 7.3e-13, diff_to_full by
# 9.9e-13, diff_to_previous by 1.8e-12, the sweep's residual column by 3.0e-10,
# below tol on both sides, and u_0.hcl by 4.2e-17; iterations unchanged), and
# every Dirichlet artifact again, when i ddbar became one product with a
# cached sparse matrix and the Newton operator its action, which sum in
# another order than the stencils and the assembled matrix (the largest cell
# change: ratio2nd moved by 3.4e-15, bdry_ratio by 6.7e-16, cauchy_to_next by
# 1.1e-15, diff_to_full by 5.6e-17, diff_to_previous by 1.0e-17, the residual
# columns by 2.1e-15 and, in the sweep, 6.2e-12, below tol on both sides, and
# u_0.hcl by 8.3e-17; no verdict or iterations cell changed, and solve-closed
# kept its bytes)
VIOLATING = {"n": 2, "d": [0.0], "a_re": [1.0], "a_im": [0.0], "epsilon": 0.1,
             "corner_multipliers": [0.01, 1.0, 1.5]}
WIDE = {"n": 5, "d": [0.1, 0.9, -0.4, 0.0], "a_re": [1e-3, 0.5, -0.7, 2.0],
        "a_im": [0.25, 0.0, 1e-8, -1.5], "epsilon": 0.05,
        "corner_multipliers": [1.0, 2.0, 1e3]}
LEVEL_SET = {"family": {"kind": "sigma-root", "k": 2, "n": 3}, "sigma": 3.0,
             "mu": [2.0, 2.0, 2.0], "delta": 0.5, "radius": 6.0, "samples": 500}
PINNED = [
    ("lemma-check", {"battery": {"count": 3000, "seed": 0}}, 0, 0,
     "2ca5e3595e6262b539e04df79a502cb7c82bb69933d453aa9679db5d77bddfa9"),
    ("lemma-check", {"battery": {"count": 3000, "seed": 17}}, 17, 0,
     "5d456210ff327e553fbf532e018f9e57ff634a05d94398069fd43608027badad"),
    ("lemma-check", {"instances": [INSTANCE]}, 0, 0,
     "622e2785015826fa2694b778daf5e2aa3ad960afbe4f1012bdbc77de77aeb8c4"),
    ("lemma-check", {"instances": [INSTANCE, VIOLATING, WIDE, INSTANCE]}, 2, 2,
     "e2e88e0b97fbc9a518746a4f17bb5c79e49518d374b83508c9eeb3b60216319a"),
    *(("cone-check", {"family": family, "samples": 300}, seed, 0, digest)
      for family, seed, digest in [
          ({"kind": "log-det", "n": 3}, 0,
           "c107781243071c9146d4cc16988c5b21dc6e9bfb07aef598d0f770860729bd8c"),
          ({"kind": "log-det", "n": 3}, 19,
           "8d34f76c04a9bc636a11cd379b7ddcd775c5d89f59f88d62ec841dbe44dc8c60"),
          ({"kind": "sigma-root", "k": 2, "n": 3}, 0,
           "6b4ecbc3aa84c5b1d6d461f7ae66bdf71a65e1fa9c96a48c1e01840f444c3594"),
          ({"kind": "sigma-root", "k": 2, "n": 3}, 19,
           "cb54ba53e90a83dbe2fef4a714b4f7c5cc845ab7586d5801287e519bd39c764c"),
          ({"kind": "log-sigma", "k": 2, "n": 4}, 0,
           "e615d85113ff056b1ed9b640c090e650d3379901db8ad3482f6e5d94d5fc82c9"),
          ({"kind": "log-sigma", "k": 2, "n": 4}, 19,
           "8bbd73c502169850d9c3f51a74413d08d7d9b4b70bd7a764d891867bca1969e4"),
          ({"kind": "sigma-quotient", "k": 2, "l": 1, "n": 3}, 0,
           "03daf479be9b4a5f28611b1dcb95bdc3388529a6b5650bde486b0eaecda817ed"),
          ({"kind": "sigma-quotient", "k": 2, "l": 1, "n": 3}, 19,
           "ffdb4c657628d310c6c3abe3ce2a6e741ee6a5fa1af574175c1e32c0c134b3b0"),
          ({"kind": "quotient-log", "k": 2, "n": 3, "betas": [0.0, 1.0]}, 0,
           "9dc09d75ddaca292da30d0487ac667970b60b2dbfc87ad91263d2cc765e1c137"),
          ({"kind": "quotient-log", "k": 2, "n": 3, "betas": [0.0, 1.0]}, 19,
           "799146c22a9dc8f511fdbbe15b3e4877ae83a34d0ecb0d9fbb7803caa305d84a"),
      ]),
    ("subsol-check", LEVEL_SET, 0, 0,
     "ef6e598ea552952df30775907ef0c3636a74b0f6f50f01512f44df0a505027b6"),
    ("subsol-check", LEVEL_SET, 19, 0,
     "7776077e2d84af931b96f08a1f04e2d8a3338fe0e06672ab4c68fa12adc8362c"),
    ("solve-closed", CLOSED_CONSTANTS, 0, 0,
     ("ffbd6c521b301d394f861a9e5151893a6c02745be9069d97e5c02a63e18bc458",
      "438d218c2996222a66260ee4c900ffdab0b3d43c93de41b7ce025930937d14b6")),
    ("solve-dirichlet", DIRICHLET_SMALL, 0, 0,
     ("dc3fe0e5733911ba0decb67d6beba2561f945d3043279e834ec4243c2c4df413",
      "25588db994378c0cfdafe3aebbe792639ca430667568c7c19be09fd80b0bd4e6")),
    ("degenerate-sweep", SWEEP, 0, 0,
     "f54e2660339829e375290457e1e79b6cf820b7a35659178e9330d0d2c5e2cb17"),
    ("exhaustion", EXHAUSTION, 0, 0,
     "f62e100c8068580d86d0f6ae8883710b1124d5d9f36dd62089083657f1abb652"),
    ("estimate-report", ESTIMATES, 0, 0,
     "3d5a6c39dd04b3079653296b06b1ae848b98ba4af31b2605a59cf5097dbc4370"),
]
# the files each command's digests cover, in order
ARTIFACT = {"lemma-check": ["lemma_check.csv"], "cone-check": ["cone_check.csv"],
            "subsol-check": ["subsol_check.csv"],
            "solve-closed": ["results.csv", "u_0.hcl"],
            "solve-dirichlet": ["results.csv", "u_0.hcl"],
            "degenerate-sweep": ["degenerate_sweep.csv"],
            "exhaustion": ["exhaustion.csv"], "estimate-report": ["estimates.csv"]}


@pytest.mark.parametrize("command, payload, seed, code, digest", PINNED, ids=[
    "battery-0", "battery-17", "instances", "mixed-sizes",
    *(f"cone-{kind}-{seed}" for kind in ("log-det", "sigma-root", "log-sigma",
                                         "sigma-quotient", "quotient-log")
      for seed in (0, 19)),
    "subsol-0", "subsol-19", "solve-closed", "solve-dirichlet", "degenerate-sweep",
    "exhaustion", "estimate-report"])
def test_pinned_artifact(tmp_path, command, payload, seed, code, digest):
    cfg = write_config(tmp_path, "p.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--seed", str(seed), "--quiet"]) == code
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ARTIFACT[command])
    assert got == (digest if isinstance(digest, tuple) else (digest,))



# the last pinned entry of each command, without its command name
LAST_PINNED = {command: rest for command, *rest in PINNED}


@pytest.mark.parametrize("command", sorted(ARTIFACT))
def test_summary_line_unless_quiet(tmp_path, capsys, command):
    payload, seed, code, _ = LAST_PINNED[command]
    argv = [command, "--config", write_config(tmp_path, "p.json", payload),
            "--out", str(tmp_path / "out"), "--seed", str(seed)]
    assert main(argv) == code
    printed = capsys.readouterr()
    assert len(printed.out.splitlines()) == 1 and printed.out.startswith(f"{command}: ")
    assert printed.err == ""
    assert main([*argv, "--quiet"]) == code
    assert capsys.readouterr() == ("", "")


def test_dirichlet_field_forms_match_pinned(tmp_path):
    # psi, phi and chi read from field files, and chi as a constant matrix,
    # give the bytes of the expression forms
    dom = _domain_from(DIRICHLET_SMALL["domain"])
    hio.write_scalar_field(tmp_path / "psi.hcl", ScalarField.full(dom, 0.4))
    hio.write_scalar_field(tmp_path / "phi.hcl", ScalarField.zeros(dom))
    hio.write_hermitian_field(tmp_path / "chi.hcl", identity_chi(dom))
    files = dict(DIRICHLET_SMALL, base_dir=str(tmp_path), psi={"file": "psi.hcl"},
                 phi={"file": "phi.hcl"}, chi={"file": "chi.hcl"})
    constant = dict(DIRICHLET_SMALL, chi={"constant": [[1, 0], [0, 1]]})
    for form, payload in (("files", files), ("constant", constant)):
        out = tmp_path / form
        assert main(["solve-dirichlet", "--config", write_config(tmp_path, "p.json", payload),
                     "--out", str(out), "--quiet"]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ARTIFACT["solve-dirichlet"])
        assert got == LAST_PINNED["solve-dirichlet"][-1]
