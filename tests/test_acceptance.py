"""Acceptance battery: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    bordered,
    manufactured_closed_spec,
    manufactured_dirichlet_spec,
    poisson_square_series,
)
from hcl.grid import GridDomain, ScalarField, boundary_normal_derivatives, identity_chi
from hcl.solve import (
    ProblemSpec,
    SolverOptions,
    build_supersolution,
    degenerate_sweep,
    poisson_dirichlet,
    solve_closed,
    solve_dirichlet,
    verify_estimates,
)
from hcl.spectra import (
    battery,
    char_poly_residual,
    char_poly_terms,
    closed_form_2x2,
    eig_hermitian,
    growth_threshold,
    interval_census,
    localize,
    random_instance,
)
from hcl.subsol import build_context, dichotomy_rows, sample_level_set
from hcl.symfunc import (
    FuncFamily,
    check_structure,
    gamma_g_criteria,
    in_gamma_g,
    sample_cone,
    sigma_k,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_quantitative_lemma_battery(self):
        t0 = time.perf_counter()
        violations = 0
        for _, b, eps, mult in battery(1000, seed=42):
            b = replace(b, corner=mult * growth_threshold(b, eps))
            violations += int(np.count_nonzero(~localize(b, eps).satisfied))
        elapsed = time.perf_counter() - t0
        report(
            "crit-01 lemma-battery",
            violations == 0 and elapsed < 5.0,
            f"1000 instances, {violations} violations, {elapsed:.2f}s",
        )

    def test_02_closed_form_vs_jacobi(self):
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            d = rng.uniform(-2, 2)
            corner = rng.uniform(-2, 30)
            a = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            lam = eig_hermitian(bordered([d], [a], corner).embed()[0])
            lo, hi = closed_form_2x2(d, a, corner)
            worst = max(worst, abs(lam[0] - lo), abs(lam[1] - hi))
        elapsed = time.perf_counter() - t0
        report(
            "crit-02 2x2-closed-form",
            worst <= 1e-12 and elapsed < 1.0,
            f"worst deviation {worst:.2e}, {elapsed:.2f}s",
        )

    def test_03_characteristic_polynomial(self):
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            n = 2 + i % 5
            b = replace(random_instance(rng, n), corner=np.array([rng.normal(0, 3)]))
            for x in eig_hermitian(b.embed()[0]):
                t1, t2 = char_poly_terms(b, x)
                scale = max(1.0, abs(t1), abs(t2))
                worst = max(worst, abs(char_poly_residual(b, x)) / scale)
        elapsed = time.perf_counter() - t0
        report(
            "crit-03 char-poly-residual",
            worst <= 1e-8 and elapsed < 2.0,
            f"worst relative residual {worst:.2e}, {elapsed:.2f}s",
        )

    def test_04_census_stability(self):
        rng = np.random.default_rng(13)
        violations = 0
        for i in range(200):
            n = 2 + i % 5
            b = random_instance(rng, n)
            eps = (0.1, 0.3, 1.0)[i % 3]
            thr = growth_threshold(b, eps)[0]
            rep = interval_census(b, eps, [thr, 2 * thr, 10 * thr])
            if not rep.constant:
                violations += 1
        report(
            "crit-04 census-stability",
            violations == 0,
            f"200 instances x 3 corners, {violations} non-constant",
        )

    def test_05_structure_battery(self):
        families = [
            FuncFamily.log_det(3),
            FuncFamily.sigma_root(2, 3),
            FuncFamily.sigma_root(3, 4),
            FuncFamily.quotient_log(2, (0.0, 1.0), 3),
        ]
        t0 = time.perf_counter()
        ok = True
        details = []
        for fam in families:
            rep = check_structure(fam, 100, seed=21)
            fam_ok = (
                rep.gradient_positive
                and rep.max_hessian_eigenvalue
                <= 1e-7 * (1 + rep.hessian_scale)
                and rep.worst_chord_violation == 0.0
                and rep.worst_fd_gradient_mismatch <= 1e-6
            )
            ok &= fam_ok
            details.append(f"{fam.label()}:{'ok' if fam_ok else 'FAIL'}")
        elapsed = time.perf_counter() - t0
        report(
            "crit-05 structure-battery",
            ok and elapsed < 10.0,
            f"{'; '.join(details)}, {elapsed:.2f}s",
        )

    def test_06_gamma_g_classification(self):
        mixed = FuncFamily.quotient_log(2, (0.0, 1.0), 3)
        v_out = in_gamma_g(mixed, [-0.4, 1.0, 1.0])
        v_in = in_gamma_g(mixed, [1.0, 1.0, 1.0])
        logdet = FuncFamily.log_det(3)
        logdet_ok = all(
            in_gamma_g(logdet, lam).in_gamma_g
            for lam in sample_cone(logdet, 50, seed=3)
        )
        agree = 0
        pts = sample_cone(mixed, 200, seed=5)
        for lam in pts:
            c1, c2, c3 = gamma_g_criteria(mixed, lam)
            if c1 == c2 == c3 == (sigma_k(lam, 3) >= 0.0):
                agree += 1
        ok = (
            (not v_out.in_gamma_g)
            and v_in.in_gamma_g
            and logdet_ok
            and agree == 200
        )
        report(
            "crit-06 gamma-g-classification",
            ok,
            f"outside/inside verdicts ok, log-det inside, {agree}/200 criteria agree",
        )

    def test_07_dichotomy(self):
        contexts = [
            (FuncFamily.sigma_root(1, 3), 3.0, [2.0, 2.0, 2.0], 0.5, 2.0),
            (FuncFamily.log_det(2), 0.0, [2.0, 2.0], 0.25, 3.0),
            (FuncFamily.sigma_root(2, 3), 1.0, [2.0, 2.0, 2.0], 0.5, 4.0),
        ]
        details = []
        neither_total = 0
        worked_eps = None
        for fam, sigma, mu, delta, radius in contexts:
            ctx = build_context(fam, sigma, mu, delta, radius)
            if fam.kind == "sigma-root" and fam.k == 1:
                worked_eps = ctx.epsilon
            pts = sample_level_set(fam, sigma, 500, seed=29)
            neither = dichotomy_rows(ctx, pts).count(None)
            neither_total += neither
            details.append(f"{fam.label()}: neither={neither}")
        ok = neither_total == 0 and worked_eps == pytest.approx(0.1, abs=1e-6)
        report(
            "crit-07 dichotomy",
            ok,
            f"worked eps={worked_eps:.6f}; " + "; ".join(details),
        )

    def test_08_poisson_oracle(self):
        # 64^2 cells (65 nodes per axis) against the 512^2-cell reference and
        # the spectral series of the equivalent Euclidean problem
        dom64 = GridDomain.product(1, s_shape=(65, 65), s_lengths=(1.0, 1.0))
        h64 = poisson_dirichlet(dom64, 1.0)
        center64 = h64.values[32, 32]
        dom512 = GridDomain.product(1, s_shape=(513, 513), s_lengths=(1.0, 1.0))
        h512 = poisson_dirichlet(dom512, 1.0)
        center512 = h512.values[256, 256]
        series = -4.0 * poisson_square_series(0.5, 0.5)
        rel_ref = abs(center64 - center512) / abs(center512)
        rel_series = abs(center64 - series) / abs(series)
        negative = float(np.max(h64.values[dom64.interior])) < 0.0
        normals_ok = all(
            float(np.max(dv[1:-1])) < 0.0
            for _, _, dv in boundary_normal_derivatives(h64)
        )
        ok = rel_ref <= 5e-4 and rel_series <= 5e-4 and negative and normals_ok
        report(
            "crit-08 poisson-oracle",
            ok,
            f"center {center64:.7f} vs ref {center512:.7f} (rel {rel_ref:.1e}) "
            f"vs series {series:.7f} (rel {rel_series:.1e}); "
            f"interior<0={negative}, normals<0={normals_ok}",
        )

    def test_09_manufactured_dirichlet(self):
        errors = []
        final = None
        t0 = time.perf_counter()
        for n_nodes in (16, 32, 64):
            t_grid = time.perf_counter()
            spec, ustar = manufactured_dirichlet_spec(n_nodes, amplitude=0.1)
            res = solve_dirichlet(spec)
            live = ~spec.domain.exterior
            errors.append(float(np.max(np.abs(res.u.values[live] - ustar[live]))))
            final = res
            t_final = time.perf_counter() - t_grid
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        rep = verify_estimates(final, spec, final.subsolution, build_supersolution(spec))
        ok = (
            min(orders) >= 1.8
            and final.residual_history[-1] <= 1e-9
            and rep.sandwich_ok
            and rep.normal_order_ok
            and t_final < 60.0
        )
        report(
            "crit-09 manufactured-dirichlet",
            ok,
            f"orders {orders[0]:.2f},{orders[1]:.2f}; residual "
            f"{final.residual_history[-1]:.1e}; sandwich={rep.sandwich_ok}; "
            f"normal={rep.normal_order_ok}; 64-grid {t_final:.1f}s "
            f"(total {time.perf_counter() - t0:.1f}s)",
        )

    def test_10_closed_gauge(self):
        dom = GridDomain.torus(2, (8, 4, 8, 4))
        fam = FuncFamily.log_det(2)
        base = ProblemSpec(dom, fam, identity_chi(dom),
                           ScalarField.full(dom, 0.0))
        r0 = solve_closed(base)
        shifted = ProblemSpec(dom, fam, identity_chi(dom),
                              ScalarField.full(dom, -1.0))
        r1 = solve_closed(shifted)
        constants_ok = (
            np.max(np.abs(r0.u.values)) <= 1e-9
            and abs(r0.c) <= 1e-9
            and np.max(np.abs(r1.u.values)) <= 1e-9
            and abs(r1.c - 1.0) <= 1e-9
        )
        cs = []
        for n_nodes in (16, 32):
            spec, _ = manufactured_closed_spec(n_nodes)
            cs.append(abs(solve_closed(spec).c))
        order_ok = cs[0] / cs[1] >= 3.0
        report(
            "crit-10 closed-gauge",
            constants_ok and order_ok,
            f"constants c=({r0.c:.1e},{r1.c - 1:.1e}); |c| {cs[0]:.2e}->"
            f"{cs[1]:.2e} (ratio {cs[0] / cs[1]:.2f})",
        )

    def test_11_degenerate_stability(self):
        dom = GridDomain.product(
            2, x_shape=(8, 4), s_shape=(17, 17),
            x_lengths=(2 * np.pi, 2 * np.pi), s_lengths=(1.0, 1.0),
        )
        x1, _, x2, y2 = dom.meshgrid()
        r2 = ((x2 - 0.5) ** 2 + (y2 - 0.5) ** 2) / 0.5
        psi = ScalarField(dom, np.log(1e-4 + r2))
        phi = ScalarField.zeros(dom)
        spec = ProblemSpec(dom, FuncFamily.log_det(2), identity_chi(dom),
                           psi, phi)
        bump = ScalarField(dom, phi.values + 0.05 * np.sin(x1))
        rep = degenerate_sweep(spec, [1.0, 0.5, 0.25, 0.125],
                               perturbed_phi=bump)
        monotone = all(
            a >= b - 1e-12 for a, b in zip(rep.cauchy, rep.cauchy[1:])
        )
        stable = rep.stability_diff <= 0.05 + 1e-6
        ok = rep.error is None and monotone and stable
        report(
            "crit-11 degenerate-stability",
            ok,
            f"cauchy {['%.3e' % c for c in rep.cauchy]} monotone={monotone}; "
            f"stability diff {rep.stability_diff:.6f} <= 0.05+1e-6",
        )

    def test_12_estimate_ratios(self):
        rows = []
        for amp in (0.25, 0.5, 1.0):
            spec, _ = manufactured_dirichlet_spec(16, amplitude=0.1)
            psi_a = ScalarField(spec.domain, amp * spec.psi.values)
            spec_a = ProblemSpec(spec.domain, spec.family, spec.chi, psi_a,
                                 spec.phi)
            res = solve_dirichlet(spec_a, SolverOptions(delta=0.05))
            rep = verify_estimates(res, spec_a, res.subsolution,
                                   build_supersolution(spec_a))
            rows.append((amp, rep.ratio2nd, rep.bdry_ratio))
        finite = all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)
        report(
            "crit-12 estimate-ratios",
            finite,
            "; ".join(
                f"amp {a}: ratio2nd={r:.3f} bdry={b:.3f}" for a, r, b in rows
            )
            + " (reported for inspection; the growth constants are not "
            "asserted)",
        )
