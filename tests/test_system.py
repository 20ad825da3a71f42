import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nonautolin import (
    OperatorSeq,
    SingularOperatorError,
    SpaceSpec,
    green_span,
    operator_norm,
    system_by_name,
)

from .conftest import LN2, random_invertible_system, span_transition
from .test_hypotheses import _non_normal_system
from .reference import green_by_factors, green_norm, transition_by_factors


class TestOperatorNorm:
    def test_identity_max(self):
        assert operator_norm(np.eye(3), "max") == 1.0

    def test_diagonal_max(self):
        lam = LN2
        m = np.diag([math.exp(-lam), math.exp(-lam)])
        assert_allclose(operator_norm(m, "max"), 0.5, atol=1e-15)

    def test_row_sums_by_hand(self):
        # rows: |1| + |2| = 3, |3| + |4| = 7 -> max is 7
        assert operator_norm(np.array([[1.0, 2.0], [3.0, 4.0]]), "max") == 7.0

    def test_euclidean_vs_sampled_sup(self, rng):
        # oracle: the 2-norm dominates |Mv|/|v| for any v, with near-attainment
        m = rng.normal(size=(3, 3))
        nrm = operator_norm(m, "euclidean")
        best = 0.0
        for _ in range(2000):
            v = rng.normal(size=3)
            best = max(best, np.linalg.norm(m @ v) / np.linalg.norm(v))
        assert best <= nrm + 1e-10
        assert best >= 0.9 * nrm

    def test_empty(self):
        assert operator_norm(np.zeros((0, 0)), "max") == 0.0
        assert operator_norm(np.zeros((3, 2, 0)), "euclidean").shape == (3,)

    @pytest.mark.parametrize("kind", ["max", "euclidean"])
    def test_stack_matches_per_matrix(self, rng, kind):
        stack = rng.normal(size=(7, 4, 4))
        got = operator_norm(stack, kind)
        assert got.shape == (7,)
        assert got.tolist() == [operator_norm(m, kind) for m in stack]

    @pytest.mark.parametrize("kind", ["max", "euclidean"])
    def test_non_finite_entries(self, kind):
        # an inf entry gives inf, a NaN entry NaN (also beside an inf), with
        # no FloatingPointError under the callers' errstate
        mats = np.array([[[1.0, np.inf], [0.0, 2.0]], [[1.0, np.nan], [0.0, 2.0]],
                         [[np.nan, -np.inf], [0.0, 2.0]], [[3.0, 0.0], [0.0, -4.0]]])
        with np.errstate(over="raise", invalid="raise"):
            got = operator_norm(mats, kind)
            singles = [operator_norm(m, kind) for m in mats]
        assert np.isinf(got[0]) and np.isnan(got[1]) and np.isnan(got[2])
        assert got[3] == 4.0
        np.testing.assert_array_equal(got, singles)


def _gram_bound(rows: int, cols: int) -> float:
    """operator_norm's bound on its euclidean relative error, delta / 2 + u
    with delta = q gamma_p + c_q u (1 + q gamma_p), taking c_q = q, plus an
    SVD's own error, max(rows, cols) u (LAPACK Users' Guide, §4.9)."""
    u = 2.0 ** -53
    p, q = max(rows, cols), min(rows, cols)
    gamma_p = p * u / (1 - p * u)
    return (q * gamma_p + q * u * (1 + q * gamma_p)) / 2 + u + p * u


class TestEuclideanNormOracle:
    """operator_norm(., "euclidean") against np.linalg.svd(compute_uv=False)."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3), (1, 1)])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600, 1e300, 1e-300])
    def test_random_stacks(self, rng, shape, scale):
        full = rng.normal(size=(200,) + shape)
        rank1 = rng.normal(size=(50, shape[0], 1)) * rng.normal(size=(50, 1, shape[1]))
        stack = np.concatenate((full, rank1, np.zeros((3,) + shape))) * scale
        got = operator_norm(stack, "euclidean")
        ref = np.linalg.svd(stack, compute_uv=False)[..., 0]
        assert np.all(np.abs(got - ref) <= _gram_bound(*shape) * ref)
        assert np.all(got[-3:] == 0.0) and np.all(ref[:-3] > 0.0)

    @pytest.mark.parametrize("build", [
        lambda: system_by_name("ex2", rotation_angle=0.3),
        lambda: system_by_name("end_cfg", gamma_scale=0.9),
        lambda: _non_normal_system(8, 2.0, "euclidean"),
    ], ids=["ex2-rotated", "end_cfg", "non-normal"])
    def test_green_rows(self, build):
        s = build()
        dx = s.space.dim_x
        for n in (-10, 0, 7):
            kernels = green_span(s, n, n - 30, n + 31)
            got = operator_norm(kernels, "euclidean")
            ref = np.linalg.svd(kernels, compute_uv=False)[..., 0]
            assert np.all(np.abs(got - ref) <= _gram_bound(dx, dx) * ref), n


class TestTransition:
    """T(m, n) read off `green_span` with the weights P = Id or P = 0."""

    def test_time_equal_is_identity(self, ex1):
        assert_allclose(span_transition(ex1, 0, 0), np.eye(2), atol=0)

    def test_ex1_closed_form(self):
        lam = 0.7
        s = system_by_name("ex1", lam=lam, gamma_scale=0.5)
        got = span_transition(s, 3, 0)
        expect = np.diag([math.exp(3 * lam), math.exp(-3 * lam)])
        assert_allclose(got, expect, rtol=1e-13)

    def test_cocycle_against_brute_force(self, rng):
        sys, mats = random_invertible_system(rng)
        # oracle: multiply the table entries directly
        expect = np.eye(2)
        for j in range(-1, 5):
            expect = mats[j % 12] @ expect
        assert_allclose(span_transition(sys, 5, -1), expect, atol=1e-10)
        assert_allclose(
            span_transition(sys, 5, 2) @ span_transition(sys, 2, -1),
            span_transition(sys, 5, -1),
            atol=1e-10,
        )

    def test_overflow_raises(self, ex1):
        s = dataclasses.replace(ex1, a=OperatorSeq(lambda n: np.eye(2) * 1e200))
        with pytest.raises(FloatingPointError):
            green_span(s, 2, 0, 0)

    def test_inverse_identity(self, rng):
        sys, _ = random_invertible_system(rng)
        prod = span_transition(sys, 4, -3) @ span_transition(sys, -3, 4)
        assert_allclose(prod, np.eye(2), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(-6, 6),
        k=st.integers(-6, 6),
        n=st.integers(-6, 6),
        seed=st.integers(0, 2**16),
    )
    def test_cocycle_property(self, m, k, n, seed):
        sys, _ = random_invertible_system(np.random.default_rng(seed))
        lhs = span_transition(sys, m, k) @ span_transition(sys, k, n)
        assert_allclose(lhs, span_transition(sys, m, n), atol=1e-10)


class TestGreen:
    """Single kernels G(m, n) = green_span(sys, m, n, n)[0]."""

    def test_time_equal_returns_weight(self, ex1):
        assert_allclose(green_span(ex1, 3, 3, 3)[0], ex1.p.matrix(3), atol=0)

    def test_ex1_block_structure(self, ex1):
        g = green_span(ex1, 5, 1, 1)[0]  # m >= n: only the lower (contracting) block
        lam = LN2
        expect = np.diag([0.0, math.exp(-lam * 4)])
        assert_allclose(g, expect, atol=1e-14)
        g_back = green_span(ex1, 1, 5, 5)[0]  # m < n: only the upper block, negated
        expect_back = -np.diag([math.exp(-lam * 4), 0.0])
        assert_allclose(g_back, expect_back, atol=1e-14)

    def test_ex2_backward_is_minus_isometry_block(self):
        angle = 0.3
        s = system_by_name("ex2", theta_ratio=2.0, rotation_angle=angle, gamma_scale=0.5)
        m, n = 1, 4  # m < n: -(0,0;0,B(m,n)) with B(m,n) = rotation by -(n-m) angle
        g = green_span(s, m, n, n)[0]
        assert_allclose(g[:2, :2], np.zeros((2, 2)), atol=0)
        c, sn = math.cos(3 * angle), math.sin(3 * angle)
        rot_inv_cubed = np.array([[c, sn], [-sn, c]])
        assert_allclose(g[2:, 2:], -rot_inv_cubed, atol=1e-12)

    def test_reconstruction(self, ex2):
        eye = np.eye(4)
        for m, n in [(3, 0), (0, 0), (-2, 5), (7, -4)]:
            g = green_span(ex2, m, n, n)[0]
            p = ex2.p.matrix(n)
            if m >= n:
                assert_allclose(g - transition_by_factors(ex2, m, n) @ p, 0, atol=1e-12)
            else:
                assert_allclose(g + transition_by_factors(ex2, m, n) @ (eye - p), 0, atol=1e-12)

    def test_green_span_matches_pointwise(self, ex2):
        span = green_span(ex2, 2, -5, 8)
        for q in range(-5, 9):
            assert_allclose(span[q + 5], green_by_factors(ex2, 2, q), atol=1e-12)


class TestGreenNorm:
    def test_ex1_eighth(self):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        assert_allclose(green_norm(s, 4, 1), 0.125, atol=1e-12)

    def test_ex2_theta_ratio(self):
        s = system_by_name("ex2", theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)
        assert_allclose(green_norm(s, 5, 2), 2.0**2 / 2.0**5, atol=1e-12)
        assert_allclose(green_norm(s, 1, 4), 1.0, atol=1e-12)

    def test_identity_weight_at_equal_times(self):
        s = system_by_name("remm", gamma_scale=0.5)
        assert_allclose(green_norm(s, 2, 2), 1.0, atol=0)

    @pytest.mark.parametrize("lam", [0.5, LN2, 1.0])
    def test_ex1_closed_form_grid(self, lam):
        s = system_by_name("ex1", lam=lam, gamma_scale=0.9)
        for n in range(-8, 9, 4):
            span = green_span(s, n, -8, 9)
            for q in range(-8, 9):
                assert_allclose(
                    operator_norm(span[q + 8], "max"),
                    math.exp(-lam * abs(n - q)),
                    atol=1e-12,
                )

    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_ex2_closed_form_grid(self, ratio):
        s = system_by_name("ex2", theta_ratio=ratio, rotation_angle=0.3, gamma_scale=0.9)

        def theta(n):
            return 1.0 if n <= 0 or ratio == 1.0 else ratio ** n

        for n in range(-6, 7, 3):
            for m in range(-6, 7, 3):
                expect = theta(n) / theta(m) if m >= n else 1.0
                assert_allclose(green_norm(s, m, n), expect, atol=1e-12)


class TestOperatorSeq:
    def test_inverse_check_rejects_singular(self):
        seq = OperatorSeq(lambda n: np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularOperatorError) as err:
            seq.inverse(7)
        assert err.value.index == 7

    def test_inverse_check_rejects_wrong_closed_form(self):
        seq = OperatorSeq(lambda n: np.eye(2) * 2.0, inv=lambda n: np.eye(2))
        with pytest.raises(SingularOperatorError):
            seq.inverse(0)

    def test_numeric_inverse_verified(self, rng):
        m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        seq = OperatorSeq(lambda n: m)
        assert_allclose(m @ seq.inverse(0), np.eye(3), atol=1e-12)

    def test_norm_bound_short_circuits(self):
        calls = []

        def mat(n):
            calls.append(n)
            return np.eye(2)

        seq = OperatorSeq(mat, norm_bound=lambda n: 5.0)
        assert seq.norm(3, "max") == 5.0
        assert calls == []


class TestSpaceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSpec(dim_x=0)
        with pytest.raises(ValueError):
            SpaceSpec(dim_x=1, dim_y=-1)
        with pytest.raises(ValueError):
            SpaceSpec(dim_x=1, norm_kind="manhattan")
