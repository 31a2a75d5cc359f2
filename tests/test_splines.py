"""Tests for the B-spline basis, activations, and grid refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kanc import splines
from kanc.diffengine import Tape, grad_check
from kanc.splines import (
    KnotVector,
    RefinementError,
    SplineActivation,
    basis_deriv_matrix,
    basis_eval,
    basis_matrix,
    refine,
    spline_deriv,
    spline_eval,
)


def naive_basis(knots, i, k, x):
    """Textbook recursive definition, used as the oracle for basis_matrix."""
    if k == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + k] > knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * naive_basis(knots, i, k - 1, x)
    right = 0.0
    if knots[i + k + 1] > knots[i + 1]:
        right = (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) * naive_basis(
            knots, i + 1, k - 1, x
        )
    return left + right


def clamped_cell(kv, x):
    """The knot cell ``j`` with ``t_j <= x < t_{j+1}``, clamped to the
    domain cells (found by a scalar scan)."""
    j = kv.order
    while j < kv.grid_size + kv.order - 1 and kv.knots[j + 1] <= x:
        j += 1
    return j


def piece_basis(knots, i, k, j, x):
    """Value and derivative of B_{i,k} at ``x`` on the polynomial piece of
    cell ``j``: the Cox-de Boor recursion with the order-0 indicator fixed
    to cell ``j`` (which extends boundary pieces past the domain), and the
    derivative by the product rule on that recursion."""
    if k == 0:
        return (1.0 if i == j else 0.0), 0.0
    lo_v, lo_d = piece_basis(knots, i, k - 1, j, x)
    hi_v, hi_d = piece_basis(knots, i + 1, k - 1, j, x)
    wa = knots[i + k] - knots[i]
    wb = knots[i + k + 1] - knots[i + 1]
    val = (x - knots[i]) / wa * lo_v + (knots[i + k + 1] - x) / wb * hi_v
    der = (lo_v / wa + (x - knots[i]) / wa * lo_d
           - hi_v / wb + (knots[i + k + 1] - x) / wb * hi_d)
    return val, der


@st.composite
def knots_and_points(draw):
    """A knot vector with random strictly increasing interior knots (cell
    widths within a factor of 10), and points inside the domain, outside
    it, and exactly on knots."""
    grid = draw(st.integers(1, 10))
    order = draw(st.integers(0, 3))
    lo = draw(st.floats(-2.0, 1.0))
    width = draw(st.floats(0.5, 3.0))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=grid,
                                  max_size=grid)))
    interior = tuple(lo + width * np.cumsum(gaps)[:-1] / gaps.sum())
    kv = splines.KnotVector(grid, order, lo, lo + width, interior=interior)
    inside = draw(st.lists(st.floats(lo, lo + width), min_size=1, max_size=8))
    outside = draw(st.lists(st.floats(lo - width, lo) | st.floats(lo + width,
                            lo + 2 * width), max_size=4))
    on_knots = draw(st.lists(st.sampled_from(list(kv.knots)), max_size=6))
    return kv, np.array(inside + outside + on_knots)


class TestLocalKernel:
    """``splines._local_basis`` against an independent scalar reference."""

    @settings(max_examples=150, deadline=None)
    @given(knots_and_points())
    def test_matches_scalar_cox_de_boor(self, case):
        kv, xs = case
        k = kv.order
        first, vals, derivs = splines._local_basis(kv, xs)
        assert vals.shape == derivs.shape == (k + 1,) + xs.shape
        ref_v = np.empty_like(vals)
        ref_d = np.empty_like(derivs)
        for n, x in enumerate(xs):
            j = clamped_cell(kv, x)
            assert first[n] == j - k
            for m in range(k + 1):
                ref_v[m, n], ref_d[m, n] = piece_basis(kv.knots, j - k + m,
                                                       k, j, x)
        # past the domain the extended pieces may exceed 1
        assert_allclose(vals, ref_v, rtol=0,
                        atol=1e-12 * max(1.0, np.abs(ref_v).max()))
        assert_allclose(derivs, ref_d, rtol=0,
                        atol=1e-12 * max(1.0, np.abs(ref_d).max()))

    @settings(max_examples=150, deadline=None)
    @given(knots_and_points())
    def test_partition_of_unity(self, case):
        kv, xs = case
        _, vals, derivs = splines._local_basis(kv, xs)
        scale = max(1.0, np.abs(vals).max())
        assert_allclose(vals.sum(axis=0), 1.0, rtol=0, atol=1e-12 * scale)
        assert_allclose(derivs.sum(axis=0), 0.0, rtol=0,
                        atol=1e-12 * max(1.0, np.abs(derivs).max()))

    def test_any_input_shape(self):
        kv = KnotVector(grid_size=6, order=3)
        xs = np.random.default_rng(2).uniform(-0.2, 1.2, size=(5, 4))
        first, vals, derivs = splines._local_basis(kv, xs)
        flat = splines._local_basis(kv, xs.ravel())
        assert first.shape == xs.shape and vals.shape == (4, 5, 4)
        assert np.array_equal(first.ravel(), flat[0])
        assert np.array_equal(vals.reshape(4, -1), flat[1])
        assert np.array_equal(derivs.reshape(4, -1), flat[2])
        first, vals, derivs = splines._local_basis(kv, xs[2, 1])
        assert first == flat[0][9] and vals.shape == derivs.shape == (4,)
        assert np.array_equal(vals, flat[1][:, 9])
        assert np.array_equal(derivs, flat[2][:, 9])

    @pytest.mark.parametrize("kv", [
        KnotVector(2, 3), KnotVector(4, 3), KnotVector(8, 3),
        splines.refined_knots(KnotVector(8, 3), 12), KnotVector(16, 3),
    ], ids=["2", "4", "8", "12-non-uniform", "16"])
    def test_tape_spline_grad_check(self, kv, spline_layer):
        """The tape's spline layer differentiates in a leaf input and leaf
        coefficients.  Increasing coefficients keep the spline's slope, and
        so every input gradient, away from zero."""
        rng = np.random.default_rng(kv.grid_size)
        coeffs = np.cumsum(rng.uniform(0.5, 1.5, size=kv.n_basis))
        coeffs = 2.0 * (coeffs - coeffs.min()) / np.ptp(coeffs) - 1.0
        xs = np.linspace(-0.05, 1.05, 41) + rng.uniform(-0.01, 0.01, size=41)
        tape = Tape()
        tape.sum(spline_layer(tape, tape.leaf("x", (xs.size, 1)),
                              tape.leaf("c", (1, 1, kv.n_basis)), kv))
        assert grad_check(tape, {"x": xs[:, None],
                                 "c": coeffs.reshape(1, 1, -1)}) < 1e-6


class TestKnotVector:
    def test_counts_and_spacing(self):
        """Grid G with order k keeps G + 2k + 1 uniformly spaced knots."""
        kv = KnotVector(grid_size=8, order=3)
        assert kv.knots.shape == (8 + 2 * 3 + 1,)
        assert kv.n_basis == 11
        assert_allclose(np.diff(kv.knots), 1.0 / 8, rtol=0, atol=1e-15)
        assert_allclose(kv.knots[3], 0.0, atol=1e-15)
        assert_allclose(kv.knots[-4], 1.0, atol=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            KnotVector(grid_size=0, order=3)
        with pytest.raises(ValueError):
            KnotVector(grid_size=4, order=-1)
        with pytest.raises(ValueError):
            KnotVector(grid_size=4, order=3, domain_lo=1.0, domain_hi=0.0)


class TestBasisMatrix:
    def test_order_zero_is_cell_indicator(self):
        """k=0 bases are indicators of their own knot cell."""
        kv = KnotVector(grid_size=4, order=0)
        row = basis_eval(kv, 0.3)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert_allclose(row, expected, rtol=0, atol=0)

    def test_order_one_hat_peak(self):
        """A k=1 basis function reaches exactly 1 at its central knot."""
        kv = KnotVector(grid_size=4, order=1)
        # hat number 1 spans [t_1, t_3] = [0, 0.5] and peaks at t_2 = 0.25
        row = basis_eval(kv, 0.25)
        peak = np.zeros(kv.n_basis)
        peak[1] = 1.0
        assert_allclose(row, peak, rtol=0, atol=1e-15)

    def test_matches_recursive_definition(self):
        """Vectorized evaluation agrees with the textbook recursion inside
        the domain."""
        rng = np.random.default_rng(11)
        for k in (0, 1, 2, 3):
            kv = KnotVector(grid_size=5, order=k)
            xs = rng.uniform(0.0, 0.999, size=40)
            mat = basis_matrix(kv, xs)
            for r, x in enumerate(xs):
                ref = [naive_basis(kv.knots, i, k, x) for i in range(kv.n_basis)]
                assert_allclose(mat[r], ref, rtol=0, atol=1e-12)

    def test_partition_of_unity(self):
        """Cubic bases sum to 1 everywhere in the domain."""
        rng = np.random.default_rng(5)
        kv = KnotVector(grid_size=16, order=3)
        xs = rng.uniform(0.0, 1.0, size=500)
        sums = basis_matrix(kv, xs).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9

    def test_local_support(self):
        """At most order + 1 bases are nonzero at any point."""
        rng = np.random.default_rng(6)
        for k in (0, 1, 2, 3):
            kv = KnotVector(grid_size=9, order=k)
            xs = rng.uniform(0.0, 1.0, size=200)
            nonzero = np.count_nonzero(basis_matrix(kv, xs), axis=1)
            assert nonzero.max() <= k + 1

    def test_extrapolation_is_smooth_polynomial(self):
        """Outside the domain each basis continues its boundary polynomial,
        so the sum over bases stays 1 there too."""
        kv = KnotVector(grid_size=4, order=3)
        xs = np.array([-0.2, -0.05, 1.05, 1.3])
        mat = basis_matrix(kv, xs)
        assert_allclose(mat.sum(axis=1), np.ones(4), rtol=0, atol=1e-9)
        # continuity across the boundary
        eps = 1e-7
        inside = basis_matrix(kv, [0.0 + eps, 1.0 - eps])
        outside = basis_matrix(kv, [0.0 - eps, 1.0 + eps])
        assert_allclose(inside, outside, rtol=0, atol=1e-5)


class TestBasisDerivative:
    def test_against_central_differences(self):
        """Analytic basis derivatives match central differences to 1e-5."""
        rng = np.random.default_rng(7)
        h = 1e-6
        for k in (1, 2, 3):
            kv = KnotVector(grid_size=7, order=k)
            xs = rng.uniform(0.05, 0.95, size=60)
            analytic = basis_deriv_matrix(kv, xs)
            fd = (basis_matrix(kv, xs + h) - basis_matrix(kv, xs - h)) / (2 * h)
            assert np.max(np.abs(analytic - fd)) <= 1e-5

    def test_order_zero_derivative_is_zero(self):
        kv = KnotVector(grid_size=4, order=0)
        assert_allclose(basis_deriv_matrix(kv, [0.3, 0.7]), 0.0, rtol=0, atol=0)

    def test_derivatives_sum_to_zero(self):
        """Differentiating the partition of unity gives zero."""
        kv = KnotVector(grid_size=12, order=3)
        xs = np.linspace(0.01, 0.99, 37)
        assert np.max(np.abs(basis_deriv_matrix(kv, xs).sum(axis=1))) <= 1e-8


class TestSplineActivation:
    def test_silu_only_edge(self):
        """Zero coefficients leave just the silu part: value 0 at 0 and
        2 * silu(10) at 10 when w_b=2."""
        kv = KnotVector(grid_size=4, order=3)
        act = SplineActivation(kv, np.zeros(kv.n_basis), w_b=2.0, w_s=1.0)
        assert spline_eval(act, 0.0) == 0.0
        expected = 2.0 * (10.0 / (1.0 + np.exp(-10.0)))
        assert_allclose(spline_eval(act, 10.0), expected, rtol=1e-12)

    def test_unit_coefficients_give_unit_spline_part(self):
        """With all coefficients 1 the spline part is the partition of unity."""
        kv = KnotVector(grid_size=8, order=3)
        act = SplineActivation(kv, np.ones(kv.n_basis), w_b=0.0, w_s=3.0)
        xs = np.linspace(0.0, 1.0, 33)
        assert_allclose(spline_eval(act, xs), 3.0 * np.ones(33), rtol=0, atol=1e-9)

    def test_deriv_matches_central_differences(self):
        rng = np.random.default_rng(8)
        kv = KnotVector(grid_size=6, order=3)
        act = SplineActivation(kv, rng.normal(size=kv.n_basis), w_b=1.3, w_s=0.7)
        xs = rng.uniform(0.05, 0.95, size=50)
        h = 1e-6
        fd = (spline_eval(act, xs + h) - spline_eval(act, xs - h)) / (2 * h)
        assert np.max(np.abs(spline_deriv(act, xs) - fd)) <= 1e-5

    def test_rejects_wrong_coefficient_count(self):
        kv = KnotVector(grid_size=4, order=3)
        with pytest.raises(ValueError):
            SplineActivation(kv, np.zeros(kv.n_basis + 1))


class TestRefinement:
    def test_same_grid_is_identity(self):
        """Refining onto the same grid reproduces the coefficients."""
        rng = np.random.default_rng(9)
        kv = KnotVector(grid_size=8, order=3)
        act = SplineActivation(kv, rng.normal(size=kv.n_basis))
        out = refine(act, 8)
        assert np.max(np.abs(out.coeffs - act.coeffs)) <= 1e-10

    def test_nested_refinement_is_exact(self):
        """Doubling the grid reproduces the coarse spline exactly because the
        coarse space is contained in the fine one."""
        rng = np.random.default_rng(10)
        kv = KnotVector(grid_size=2, order=3)
        act = SplineActivation(kv, rng.normal(size=kv.n_basis), w_b=0.5, w_s=1.5)
        fine = refine(act, 4)
        xs = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(spline_eval(fine, xs) - spline_eval(act, xs))) <= 1e-8

    def test_full_ladder_preserves_values(self):
        """Walking 2 -> 4 -> 8 -> 12 -> 16 keeps the function within 1e-8
        on the domain (every step inserts knots, so each transfer is exact
        up to round-off)."""
        rng = np.random.default_rng(12)
        kv = KnotVector(grid_size=2, order=3)
        act = SplineActivation(kv, rng.normal(size=kv.n_basis))
        xs = np.linspace(0.0, 1.0, 467)
        start = spline_eval(act, xs)
        for g in (4, 8, 12, 16):
            act = refine(act, g)
        assert np.max(np.abs(spline_eval(act, xs) - start)) <= 1e-8

    def test_non_nested_step_inserts_knots(self):
        """Growing 8 cells to 12 bisects every other cell, so all old knots
        survive; one more step to 16 lands back on a uniform grid."""
        kv8 = KnotVector(grid_size=8, order=3)
        kv12 = splines.refined_knots(kv8, 12)
        assert kv12.grid_size == 12
        in8 = {round(k, 12) for k in kv8.knots if 0.0 <= k <= 1.0}
        in12 = {round(k, 12) for k in kv12.knots if 0.0 <= k <= 1.0}
        assert in8 <= in12
        kv16 = splines.refined_knots(kv12, 16)
        assert kv16.interior is None
        assert_allclose(kv16.knots, KnotVector(16, 3).knots, rtol=0)

    def test_non_nested_refinement_preserves_extrapolation(self):
        """An 8 -> 12 transfer reproduces the curve outside the domain too,
        because exact interior representation pins the boundary pieces."""
        rng = np.random.default_rng(15)
        kv = KnotVector(grid_size=8, order=3)
        act = SplineActivation(kv, rng.normal(size=kv.n_basis) * 30.0)
        out = refine(act, 12)
        xs = np.linspace(-0.8, 1.9, 400)
        delta = np.abs(spline_eval(out, xs) - spline_eval(act, xs))
        assert np.max(delta) <= 1e-9

    def test_non_uniform_basis_matches_naive_recursion(self):
        kv = splines.refined_knots(KnotVector(grid_size=8, order=3), 12)
        xs = np.linspace(0.01, 0.99, 37)
        got = basis_matrix(kv, xs)
        want = np.array([[naive_basis(kv.knots, i, 3, x)
                          for i in range(kv.n_basis)] for x in xs])
        assert_allclose(got, want, atol=1e-12)

    def test_non_uniform_partition_of_unity(self):
        kv = splines.refined_knots(KnotVector(grid_size=8, order=3), 12)
        xs = np.linspace(0.0, 1.0, 211)
        assert_allclose(basis_matrix(kv, xs).sum(axis=1), 1.0, atol=1e-9)

    def test_bad_interior_knots_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(3, 3, interior=(0.5,))          # wrong count
        with pytest.raises(ValueError):
            KnotVector(3, 3, interior=(0.6, 0.4))      # not increasing
        with pytest.raises(ValueError):
            KnotVector(3, 3, interior=(0.0, 0.5))      # touches the boundary

    def test_constant_spline_survives_any_step(self):
        kv = KnotVector(grid_size=2, order=3)
        act = SplineActivation(kv, np.full(kv.n_basis, 2.5), w_b=0.0)
        out = refine(act, 12)
        xs = np.linspace(0.0, 1.0, 101)
        assert_allclose(spline_eval(out, xs), 2.5, rtol=0, atol=1e-9)

    def test_rejects_coarsening(self):
        kv = KnotVector(grid_size=8, order=3)
        act = SplineActivation(kv, np.zeros(kv.n_basis))
        with pytest.raises(ValueError):
            refine(act, 4)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refinement_is_exact_on_random_knots(self, data):
        """A spline on random non-uniform knots, refined to any larger
        grid, keeps its values inside the domain and on the boundary
        extension half a domain width out."""
        grid = data.draw(st.integers(1, 8))
        order = data.draw(st.integers(0, 3))
        gaps = np.array(data.draw(st.lists(st.floats(0.1, 1.0),
                                           min_size=grid, max_size=grid)))
        interior = tuple(np.cumsum(gaps)[:-1] / gaps.sum())
        kv = KnotVector(grid, order, interior=interior)
        coeffs = np.array(data.draw(st.lists(
            st.floats(-5.0, 5.0), min_size=kv.n_basis, max_size=kv.n_basis)))
        act = SplineActivation(kv, coeffs, w_b=0.0)
        fine = refine(act, data.draw(st.integers(grid + 1, 3 * grid + 4)))
        xs = np.concatenate([np.linspace(0.0, 1.0, 301), interior,
                             np.linspace(-0.5, 0.0, 51),
                             np.linspace(1.0, 1.5, 51)])
        assert_allclose(spline_eval(fine, xs), spline_eval(act, xs),
                        rtol=0, atol=1e-9)

    def test_rank_deficient_system_raises(self):
        """The least-squares helper refuses singular design matrices."""
        design = np.zeros((20, 3))
        design[:, 0] = 1.0
        design[:, 1] = 1.0  # duplicate column -> rank 2
        with pytest.raises(RefinementError):
            splines._solve_full_rank(design, np.ones(20))
