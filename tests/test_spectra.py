from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as reference
from conftest import bordered
from hcl import spectra
from hcl.errors import DomainError, NumericError, PreconditionError
from hcl.spectra import (
    BorderedStack,
    battery,
    char_poly_residual,
    char_poly_terms,
    closed_form_2x2,
    eig_hermitian,
    growth_threshold,
    hermitize,
    interval_census,
    localization_verdict,
    localize,
    random_instance,
)


def random_hermitian(rng, n):
    a = rng.normal(0, 1, (n, n)) + 1j * rng.normal(0, 1, (n, n))
    return hermitize(a)


class TestEig:
    def test_diagonal(self):
        np.testing.assert_allclose(eig_hermitian(np.diag([1.0, 2, 3])), [1, 2, 3])

    def test_pauli_x(self):
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(eig_hermitian(m), [-1, 1], atol=1e-14)

    def test_2x2_closed_form(self):
        m = np.array([[1.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(
            eig_hermitian(m), [2 - np.sqrt(2), 2 + np.sqrt(2)], atol=1e-13
        )

    def test_against_lapack_oracle(self, rng):
        for n in (2, 3, 4, 6, 8):
            for _ in range(10):
                m = random_hermitian(rng, n)
                np.testing.assert_allclose(
                    eig_hermitian(m), np.linalg.eigvalsh(m),
                    rtol=1e-10, atol=1e-10,
                )

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.array([[np.nan, 0], [0, 1.0]]))

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_rejects_overflowing_norm(self, stacked):
        # |A|_F overflows: unscaled, the target was inf, no sweep ran, and the
        # unrotated diagonal [-1e300, 1e300] came back for +-1.414e300; the
        # sweeps now rotate A / 2^e, and only a spectrum past the float
        # maximum (here 1.8e308) is rejected
        m = np.array([[1e300, 1e300], [1e300, -1e300]])
        for scale in (1.0, 1e-150):  # whose norm overflows, and is finite
            want = [-np.sqrt(2) * 1e300 * scale, np.sqrt(2) * 1e300 * scale]
            np.testing.assert_allclose(eig_hermitian(m[None] * scale if stacked else m * scale),
                                       [want] if stacked else want, rtol=1e-14)
        top = np.full((3, 3), 6e307)
        with pytest.raises(DomainError, match="overflowing norm"):
            eig_hermitian(top[None] if stacked else top)

    def test_zero_matrix(self):
        np.testing.assert_allclose(eig_hermitian(np.zeros((3, 3))), np.zeros(3))

    def test_subnormal_diagonal(self):
        # the squares underflow to zero, so the norm checks see |A|_F = 0
        m = bordered([2.2250738585e-313], [0j], 0.0).embed()[0]
        want = [0.0, 2.2250738585e-313]
        np.testing.assert_array_equal(eig_hermitian(m), want)
        np.testing.assert_array_equal(eig_hermitian(m[None]), [want])


def assert_spectra_close(got, want):
    """Within 1e-12 of each matrix's largest |eigenvalue| (exact for zero)."""
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestStackedEig:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_single_path_and_lapack(self, rng, n):
        scales = 10.0 ** rng.uniform(-3, 3, 40)
        stack = np.array([s * random_hermitian(rng, n) for s in scales])
        lam = eig_hermitian(stack)
        assert lam.shape == (40, n)
        assert_spectra_close(lam, np.array([eig_hermitian(m) for m in stack]))
        assert_spectra_close(lam, np.linalg.eigvalsh(stack))

    def test_special_matrices_in_one_stack(self, rng):
        subnormal = np.array([[1.0, 1e-310, 0.0],
                              [1e-310, 2.0, 0.5],
                              [0.0, 0.5, 3.0]], dtype=complex)
        stack = np.array([
            np.zeros((3, 3)),
            np.diag([3.0, -1.0, 2.0]),
            subnormal,
            random_hermitian(rng, 3),
        ])
        lam = eig_hermitian(stack)
        np.testing.assert_array_equal(lam[0], np.zeros(3))
        np.testing.assert_array_equal(lam[1], [-1.0, 2.0, 3.0])
        assert_spectra_close(lam, np.array([eig_hermitian(m) for m in stack]))
        assert_spectra_close(lam, np.linalg.eigvalsh(stack))

    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 3), (4, 3, 3)])
    def test_nan_anywhere_rejected(self, rng, where):
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        stack[where] = np.nan
        with pytest.raises(DomainError):
            eig_hermitian(stack)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_up_to_1e300(self, rng, n):
        # the sum of squares overflows: both paths rotate a power-of-two
        # multiple of the matrix and scale its eigenvalues back
        stack = np.array([random_hermitian(rng, n) * 10.0 ** rng.uniform(160, 300)
                          for _ in range(12)] + [np.diag([1e300] + [0.0] * (n - 1))])
        stack = np.concatenate([stack, np.eye(n)[None]])  # a normal-range row
        want = np.linalg.eigvalsh(stack)
        lam = eig_hermitian(stack)
        assert_spectra_close(lam, want)
        assert_spectra_close(np.array([eig_hermitian(m) for m in stack]), want)
        np.testing.assert_array_equal(lam[-1], np.ones(n))
        np.testing.assert_array_equal(lam[-2], [0.0] * (n - 1) + [1e300])

    @pytest.mark.parametrize("n", [3, 5])
    def test_traceless_at_every_scale(self, rng, n):
        # rounding loses about eps |A|_F of the trace, which no bound on
        # 1 + |trace| = 1 covers once the entries pass about 1e6
        unit = np.array([random_hermitian(rng, n) for _ in range(100)])
        unit -= np.trace(unit, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
        want = np.linalg.eigvalsh(unit)
        for scale in (1e4, 1e6, 1e8, 1e100, 1e300):
            stack = unit * scale
            assert_spectra_close(eig_hermitian(stack), want * scale)
            assert_spectra_close(np.array([eig_hermitian(m) for m in stack]), want * scale)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_planted_non_unitary_rotation_raises(self, rng, monkeypatch, stacked):
        # c = 1 / hypot(1, t) off by 1e-6 scales A by about 1 - 2e-6 per
        # rotation, far past the trace check's 1e-10 (1 + |A|_F)
        class Skewed:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                return getattr(self.module, name)

            def hypot(self, *x):
                return self.module.hypot(*x) * (1.0 + 1e-6)

        monkeypatch.setattr(spectra, "np" if stacked else "math",
                            Skewed(np if stacked else spectra.math))
        m = 1e8 * (random_hermitian(rng, 3) + 5.0 * np.eye(3))
        with pytest.raises(NumericError, match="lost the trace"):
            eig_hermitian(m[None] if stacked else m)

    def test_hermitize_near_float_max(self):
        # A + A^H overflows only on the diagonal entry: both paths return it
        m = np.diag([1.7e308, 1.0])
        np.testing.assert_array_equal(eig_hermitian(m[None]), [[1.0, 1.7e308]])
        np.testing.assert_array_equal(eig_hermitian(m), [1.0, 1.7e308])
        a = np.array([[1.0, 2e-310 + 3j], [5e-324 - 1j, 1.25]])
        np.testing.assert_array_equal(hermitize(a), 0.5 * (a + a.conj().T))

    @pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6)])
    def test_sweep_cap_raises(self, rng, monkeypatch, shape):
        a = rng.normal(0, 1, shape) + 1j * rng.normal(0, 1, shape)
        monkeypatch.setattr(spectra, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericError):
            eig_hermitian(a)

    def test_stacked_verdicts_match_localize(self):
        # row i of the stacked verdict is the verdict of the one-row stack of row i
        ((rows, b0, eps, mult),) = [blk for blk in battery(60, 8) if blk[1].n == 4]
        b = replace(b0, corner=mult * growth_threshold(b0, eps))
        got = localization_verdict(b, eps, eig_hermitian(b.embed()))
        for i in range(rows.size):
            want = localize(bordered(b.d[i], b.a[i], b.corner[i]), eps[i])
            for g, w in zip(got, want, strict=True):
                assert bits(g[i]) == bits(w[0])


class TestBorderedStack:
    @pytest.mark.parametrize("d, a", [
        (np.zeros((2, 3)), np.zeros((2, 2))),  # n - 1 differs
        (np.zeros((2, 2)), np.zeros((3, 2))),  # m differs
        (np.zeros((2, 0)), np.zeros((2, 0))),  # n - 1 = 0
        (np.zeros(3), np.zeros(3)),  # not (m, n-1)
    ], ids=["width", "rows", "empty", "flat"])
    def test_rejects_bad_shapes(self, d, a):
        with pytest.raises(DomainError, match="one shape"):
            BorderedStack(d, a, np.zeros(len(d)))


class TestGrowthThreshold:
    def test_n2_example(self):
        b = bordered([1.0], [1.0], 0.0)
        assert growth_threshold(b, 0.5) == pytest.approx([3.0])

    def test_zero_data(self):
        b = bordered([0.0], [0.0], 0.0)
        for eps in (0.1, 1.0, 7.0):
            np.testing.assert_array_equal(growth_threshold(b, eps), [0.0])

    def test_n3_example(self):
        b = bordered([1.0, -1.0], [1.0, 0.0], 0.0)
        assert growth_threshold(b, 1.0) == pytest.approx([22.0 / 3.0])

    def test_rejects_bad_eps(self):
        b = bordered([1.0], [1.0], 0.0)
        with pytest.raises(DomainError):
            growth_threshold(b, 0.0)


class TestLocalize:
    def test_worked_2x2(self):
        b = bordered([1.0], [1.0], 3.0)
        v = localize(b, 0.5)
        assert v.satisfied[0]
        np.testing.assert_allclose(
            v.witness, [[2 - np.sqrt(2), 2 + np.sqrt(2)]], atol=1e-13
        )
        assert abs(v.witness[0, 0] - 1.0) < 0.5
        assert 3.0 <= v.witness[0, 1] < 3.5

    def test_block_diagonal_exact(self):
        b = bordered([0.0], [0.0], 5.0)
        v = localize(b, 0.1)
        assert v.satisfied[0]
        np.testing.assert_allclose(v.witness, [[0.0, 5.0]], atol=1e-14)
        assert v.top_boundary_hit[0]  # lambda_n = corner exactly for zero border

    def test_random_n4_at_threshold(self, rng):
        for _ in range(25):
            b0 = random_instance(rng, 4)
            eps = 0.3
            b = replace(b0, corner=growth_threshold(b0, eps))
            assert localize(b, eps).satisfied[0]

    def test_degenerate_diagonal_example(self):
        # a repeated diagonal entry at the growth threshold
        b0 = bordered([1.0, 1.0], [1.0, 1.0], 0.0)
        b = replace(b0, corner=growth_threshold(b0, 1.0))
        assert b.corner == pytest.approx([31.0 / 3.0])
        v = localize(b, 1.0)
        assert v.satisfied[0]
        # (1, -1, 0) / sqrt 2 is an eigenvector with the exact eigenvalue d = 1
        assert np.min(np.abs(v.witness[0] - 1.0)) < 1e-12

    def test_zero_border_exact(self):
        b = bordered([0.3, -0.7], [0.0, 0.0], 2.0)
        v = localize(b, 0.5)
        assert v.satisfied[0] and v.top_boundary_hit[0]
        np.testing.assert_allclose(v.witness, [[-0.7, 0.3, 2.0]], atol=1e-14)
        assert v.max_offset == pytest.approx([0.0], abs=1e-14)

    def test_spread_diagonal(self):
        b0 = bordered([0.0, 2.0], [0.5, 0.5], 0.0)
        b = replace(b0, corner=growth_threshold(b0, 0.4))
        assert localize(b, 0.4).satisfied[0]

    def test_embed_shape(self):
        b = bordered([1.0, 2.0], [1j, 2.0], 7.0)
        assert b.embed().shape == (1, 3, 3)
        m = b.embed()[0]
        np.testing.assert_allclose(m, m.conj().T)
        assert m[0, 2] == 1j and m[2, 0] == -1j
        assert m[2, 2] == 7.0

    def test_top_eigenvalue_dominates_corner(self, rng):
        for n in (2, 3, 5):
            b = replace(random_instance(rng, n), corner=np.array([rng.normal(0, 3)]))
            lam = eig_hermitian(b.embed()[0])
            assert lam[-1] >= b.corner[0] - 1e-12


class TestCharPoly:
    def test_factorized_zero_border(self):
        b = bordered([1.5, -2.0], [0.0, 0.0], 3.0)
        assert char_poly_residual(b, 1.5) == 0.0

    def test_2x2_closed_form_root(self):
        b = bordered([1.0], [1.0], 3.0)
        lo, hi = closed_form_2x2(1.0, 1.0, 3.0)
        assert abs(char_poly_residual(b, lo)) < 1e-12
        assert abs(char_poly_residual(b, hi)) < 1e-12

    def test_vanishes_at_oracle_eigenvalues(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            b = replace(random_instance(rng, n), corner=np.array([rng.normal(0, 2)]))
            for x in eig_hermitian(b.embed()[0]):
                t1, t2 = char_poly_terms(b, x)
                scale = max(1.0, abs(t1), abs(t2))
                assert abs(char_poly_residual(b, x)) <= 1e-8 * scale


class TestCensus:
    def test_worked_n3(self):
        b0 = bordered([0.0, 2.0], [1.0, 1.0], 0.0)
        thr = growth_threshold(b0, 1.0)[0]
        rep = interval_census(b0, 1.0, [thr, 2 * thr, 10 * thr])
        assert rep.counts == ((1, 1), (1, 1), (1, 1))
        assert rep.constant
        assert not any(rep.top_in_interval)

    def test_zero_border_matches_multiplicities(self):
        # repeated diagonal entries merge into one component of multiplicity 2
        b0 = bordered([0.5, 0.5, -1.0], [0.0, 0.0, 0.0], 0.0)
        thr = growth_threshold(b0, 0.2)[0]
        rep = interval_census(b0, 0.2, [thr + 1.0])
        assert rep.components == ((2,), (0, 1))
        assert rep.counts == ((1, 2),)
        b1 = bordered([0.5, -1.0], [0.0, 0.0], 0.0)
        rep1 = interval_census(b1, 0.2, [growth_threshold(b1, 0.2)[0] + 1.0])
        assert rep1.counts == ((1, 1),)

    def test_2x2(self):
        b0 = bordered([1.0], [1.0], 0.0)
        rep = interval_census(b0, 0.5, [3.0, 30.0])
        assert rep.counts == ((1,), (1,))
        assert rep.constant

    def test_below_threshold_rejected(self):
        b0 = bordered([0.0, 2.0], [1.0, 1.0], 0.0)
        with pytest.raises(PreconditionError):
            interval_census(b0, 1.0, [0.5 * growth_threshold(b0, 1.0)[0]])


@st.composite
def bordered_strategy(draw):
    m = draw(st.integers(1, 5))
    d = draw(st.lists(st.floats(-2, 2), min_size=m, max_size=m))
    are = draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m))
    aim = draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m))
    corner = draw(st.floats(-3, 30))
    return bordered(d, np.asarray(are) + 1j * np.asarray(aim), corner)


class TestTraceIdentity:
    @given(b=bordered_strategy())
    @settings(max_examples=80, deadline=None)
    def test_trace(self, b):
        lam = eig_hermitian(b.embed()[0])
        lhs = float(np.sum(lam))
        rhs = float(np.sum(b.d)) + b.corner[0]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestBattery:
    def test_deterministic(self):
        for x, y in zip(battery(30, 5), battery(30, 5), strict=True):
            for u, v in zip((x[0], x[1].d, x[1].a, x[2], x[3]),
                            (y[0], y[1].d, y[1].a, y[2], y[3])):
                np.testing.assert_array_equal(u, v)

    def test_covers_parameter_grid(self):
        seen_n, seen_eps, seen_mult = set(), set(), set()
        for rows, b, eps, mult in battery(135, 0):
            assert b.d.shape == b.a.shape == (rows.size, b.n - 1)
            seen_n.add(b.n)
            seen_eps.update(eps.tolist())
            seen_mult.update(mult.tolist())
        assert seen_n == {2, 3, 4, 5, 6}
        assert seen_eps == {0.1, 0.3, 1.0}
        assert seen_mult == {1.0, 1.5, 10.0}


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestStackedBattery:
    """The stacked battery against the per-instance path of scalar_reference:
    draws, corners and thresholds bit for bit, verdicts against localize."""

    @pytest.mark.parametrize("seed", [0, 5, 17, 91])
    def test_draws_thresholds_corners_bit_identical(self, seed):
        want = list(reference.battery_instances(200, seed))
        rows_seen = []
        for rows, b0, eps, mult in battery(200, seed):
            thr = growth_threshold(b0, eps)
            corner = mult * thr
            for i, row in enumerate(rows.tolist()):
                wb, weps, wmult = want[row]
                assert b0.n == wb.n
                assert bits(b0.d[i]) == bits(wb.d[0]) and bits(b0.a[i]) == bits(wb.a[0])
                assert (eps[i], mult[i]) == (weps, wmult)
                assert bits(thr[i]) == bits(reference.growth_threshold(wb, weps))
                assert bits(corner[i]) == bits(wb.corner[0])
            rows_seen += rows.tolist()
        assert sorted(rows_seen) == list(range(200))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_instance_matches_reference(self, n):
        for seed in (0, 3, 11):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                got, want = random_instance(rng, n), reference.random_instance(ref, n)
                assert bits(got.d) == bits(want.d) and bits(got.a) == bits(want.a)
                assert bits(got.embed()[0]) == bits(reference.embed(want))
                assert bits(growth_threshold(got, 0.3)[0]) == bits(
                    reference.growth_threshold(want, 0.3))

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_verdict_columns_match_localize(self, seed):
        want = list(reference.battery_instances(200, seed))
        for rows, b0, eps, mult in battery(200, seed):
            b = replace(b0, corner=mult * growth_threshold(b0, eps))
            v = localize(b, eps)
            for i, row in enumerate(rows.tolist()):
                ref = reference.localize(want[row][0], want[row][1])
                assert v.satisfied[i] == ref.satisfied
                assert v.top_boundary_hit[i] == ref.top_boundary_hit
                assert v.max_offset[i] == pytest.approx(ref.max_offset, abs=1e-12)
                # row i of the verdict is the verdict of the one-row stack of row i
                one = localization_verdict(want[row][0], eps[i], v.witness[i])
                for f, g in zip(v, one, strict=True):
                    assert bits(f[i]) == bits(g[0])

    def test_stack_embeds_rows(self):
        (_, b0, eps, mult), *_ = battery(20, 2)
        b = replace(b0, corner=mult * growth_threshold(b0, eps))
        for i, m in enumerate(b.embed()):
            one = bordered(b.d[i], b.a[i], b.corner[i])
            assert bits(m) == bits(one.embed()[0]) == bits(reference.embed(one))
        assert isinstance(b, BorderedStack) and b.embed().shape == (b.d.shape[0], b.n, b.n)
