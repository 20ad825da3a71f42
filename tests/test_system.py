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
    green,
    green_span,
    operator_norm,
    system_by_name,
    transition,
    vector_norm,
)

from .conftest import LN2, random_invertible_system
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
        assert vector_norm(np.zeros(0), "euclidean") == 0.0
        assert operator_norm(np.zeros((3, 2, 0)), "euclidean").shape == (3,)

    @pytest.mark.parametrize("kind", ["max", "euclidean"])
    def test_stack_matches_per_matrix(self, rng, kind):
        stack = rng.normal(size=(7, 4, 4))
        got = operator_norm(stack, kind)
        assert got.shape == (7,)
        assert got.tolist() == [operator_norm(m, kind) for m in stack]


class TestTransition:
    def test_time_equal_is_identity(self, ex1):
        assert_allclose(transition(ex1, 0, 0), np.eye(2), atol=0)

    def test_ex1_closed_form(self):
        lam = 0.7
        s = system_by_name("ex1", lam=lam, gamma_scale=0.5)
        got = transition(s, 3, 0)
        expect = np.diag([math.exp(3 * lam), math.exp(-3 * lam)])
        assert_allclose(got, expect, rtol=1e-13)

    def test_cocycle_against_brute_force(self, rng):
        sys, mats = random_invertible_system(rng)
        # oracle: multiply the table entries directly
        expect = np.eye(2)
        for j in range(-1, 5):
            expect = mats[j % 12] @ expect
        assert_allclose(transition(sys, 5, -1), expect, atol=1e-10)
        assert_allclose(
            transition(sys, 5, 2) @ transition(sys, 2, -1),
            transition(sys, 5, -1),
            atol=1e-10,
        )

    def test_overflow_gives_inf_where_green_span_raises(self, ex1):
        s = dataclasses.replace(ex1, a=OperatorSeq(lambda n: np.eye(2) * 1e200))
        with np.errstate(all="ignore"):
            assert np.isinf(transition(s, 2, 0)).any()
            assert not np.isfinite(green(s, 2, 0)).all()
        with pytest.raises(FloatingPointError):
            green_span(s, 2, 0, 0)

    def test_inverse_identity(self, rng):
        sys, _ = random_invertible_system(rng)
        prod = transition(sys, 4, -3) @ transition(sys, -3, 4)
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
        lhs = transition(sys, m, k) @ transition(sys, k, n)
        assert_allclose(lhs, transition(sys, m, n), atol=1e-10)


class TestGreen:
    def test_time_equal_returns_weight(self, ex1):
        assert_allclose(green(ex1, 3, 3), ex1.p.matrix(3), atol=0)

    def test_ex1_block_structure(self, ex1):
        g = green(ex1, 5, 1)  # m >= n: only the lower (contracting) block
        lam = LN2
        expect = np.diag([0.0, math.exp(-lam * 4)])
        assert_allclose(g, expect, atol=1e-14)
        g_back = green(ex1, 1, 5)  # m < n: only the upper block, negated
        expect_back = -np.diag([math.exp(-lam * 4), 0.0])
        assert_allclose(g_back, expect_back, atol=1e-14)

    def test_ex2_backward_is_minus_isometry_block(self):
        angle = 0.3
        s = system_by_name("ex2", theta_ratio=2.0, rotation_angle=angle, gamma_scale=0.5)
        m, n = 1, 4  # m < n: -(0,0;0,B(m,n)) with B(m,n) = rotation by -(n-m) angle
        g = green(s, m, n)
        assert_allclose(g[:2, :2], np.zeros((2, 2)), atol=0)
        c, sn = math.cos(3 * angle), math.sin(3 * angle)
        rot_inv_cubed = np.array([[c, sn], [-sn, c]])
        assert_allclose(g[2:, 2:], -rot_inv_cubed, atol=1e-12)

    def test_reconstruction(self, ex2):
        eye = np.eye(4)
        for m, n in [(3, 0), (0, 0), (-2, 5), (7, -4)]:
            g = green(ex2, m, n)
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
