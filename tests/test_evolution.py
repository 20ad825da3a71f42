import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nonautolin import (
    ContractionViolation,
    CouplingSpec,
    DriverSpec,
    NoConvergence,
    OperatorSeq,
    SolveOptions,
    SpaceSpec,
    SystemSpec,
    WeightSeq,
    backward_step_detailed,
    system_by_name,
    transition,
)

from .conftest import LN2, random_invertible_system, with_coupling
from .reference import evolve_coupled, evolve_driver, lip_C, lip_D, lip_M


def rotation_system(angle, dim_x=2):
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=2, norm_kind="euclidean"),
        a=OperatorSeq.constant(np.eye(dim_x)),
        p=WeightSeq.constant(np.eye(dim_x)),
        f=CouplingSpec.zero(dim_x, 2),
        g=DriverSpec.rotation(angle),
    )


class TestDriver:
    def test_time_equal(self):
        s = rotation_system(0.3)
        eta = np.array([0.2, -0.4])
        assert_allclose(evolve_driver(s, 5, 5, eta), eta, atol=0)

    def test_identity_driver(self):
        s = SystemSpec(
            space=SpaceSpec(dim_x=2, dim_y=2, norm_kind="max"),
            a=OperatorSeq.constant(np.eye(2)),
            p=WeightSeq.constant(np.eye(2)),
            f=CouplingSpec.zero(2, 2),
            g=DriverSpec.identity(2),
        )
        eta = np.array([1.0, 2.0])
        assert_allclose(evolve_driver(s, 9, -3, eta), eta, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(angle=st.floats(-2.0, 2.0), n=st.integers(-5, 5))
    def test_rotation_composition(self, angle, n):
        # oracle: three applications of the rotation matrix
        s = rotation_system(angle)
        eta = np.array([0.7, -0.1])
        c, sn = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -sn], [sn, c]])
        expect = rot @ rot @ rot @ eta
        assert_allclose(evolve_driver(s, n + 3, n, eta), expect, atol=1e-12)

    def test_backward_inverts_forward(self):
        s = rotation_system(0.9)
        eta = np.array([0.3, 0.5])
        fwd = evolve_driver(s, 4, 0, eta)
        assert_allclose(evolve_driver(s, 0, 4, fwd), eta, atol=1e-12)

    def test_trivial_space(self, ex1):
        out = evolve_driver(ex1, 3, 0, np.zeros(0))
        assert out.shape == (0,)


class TestEvolveLinear:
    """The uncoupled solution transition(k, n) @ xi."""

    def test_time_equal(self, ex1):
        xi = np.array([0.3, -0.8])
        assert_allclose(transition(ex1, 2, 2) @ xi, xi, atol=0)

    def test_ex1_two_steps(self):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        out = transition(s, 2, 0) @ np.array([1.0, 1.0])
        assert_allclose(out, np.array([4.0, 0.25]), rtol=1e-14)

    def test_matches_stepwise_oracle(self, rng):
        sys, mats = random_invertible_system(rng)
        xi = rng.normal(size=2)
        x = xi.copy()
        for j in range(-2, 5):
            x = mats[j % 12] @ x
        assert_allclose(transition(sys, 5, -2) @ xi, x, atol=1e-10)


class TestBackwardStep:
    def test_linear_case_exact(self, rng):
        sys, _ = random_invertible_system(rng)
        xi = rng.normal(size=2)
        out = backward_step_detailed(sys, 3, xi, np.zeros(0)).value
        expect = sys.a.inverse(3) @ xi
        assert np.array_equal(out, expect)

    def test_defining_identity_on_probes(self, rng):
        for name, kwargs in [
            ("ex1", dict(lam=LN2, gamma_scale=0.9)),
            ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)),
            ("end_cfg", dict(gamma_scale=0.9)),
        ]:
            s = system_by_name(name, **kwargs)
            dy = s.space.dim_y
            for _ in range(40):
                j = int(rng.integers(-10, 11))
                xi = rng.uniform(-2, 2, s.space.dim_x)
                eta = rng.uniform(-2, 2, dy)
                t = backward_step_detailed(s, j, xi, eta).value
                fwd = s.a.matrix(j) @ t + np.asarray(s.f.eval(j, t, eta))
                assert np.max(np.abs(fwd - xi)) <= 1e-10

    def test_iteration_count_bound(self):
        # contraction-rate oracle: count <= ceil(log(tol / |xi|) / log(rate)) + 2
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        j = 0
        rate = s.a_inv_norm(j) * s.f.gamma(j)
        assert 0 < rate < 1
        xi = np.array([1.0, -1.0])
        opts = SolveOptions(fixed_point_tol=1e-12, max_iters=500)
        res = backward_step_detailed(s, j, xi, np.zeros(0), opts)
        bound = math.ceil(math.log(opts.fixed_point_tol / 1.0) / math.log(rate)) + 2
        assert res.iterations <= bound

    def test_observed_rate_below_margin(self, rng):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        j = 1
        rate = s.a_inv_norm(j) * s.f.gamma(j)
        res = backward_step_detailed(s, j, rng.uniform(-2, 2, 2), np.zeros(0))
        ratios = [
            b / a for a, b in zip(res.step_norms, res.step_norms[1:]) if a > 1e-12
        ]
        assert all(r <= rate + 0.01 for r in ratios)

    def test_contraction_violation(self, rng):
        sys, _ = random_invertible_system(rng)
        bad = with_coupling(sys, 100.0)
        with pytest.raises(ContractionViolation):
            backward_step_detailed(bad, 0, np.ones(2), np.zeros(0))

    def test_no_convergence_when_budget_too_small(self):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        opts = SolveOptions(fixed_point_tol=1e-12, max_iters=1)
        with pytest.raises(NoConvergence):
            backward_step_detailed(s, 0, np.array([5.0, 5.0]), np.zeros(0), opts)


class TestEvolveCoupled:
    def test_time_equal(self, ex1, rng):
        xi = rng.normal(size=2)
        assert_allclose(evolve_coupled(ex1, 4, 4, xi, np.zeros(0)), xi, atol=0)

    def test_zero_coupling_reduces_to_linear(self, rng):
        sys, _ = random_invertible_system(rng)
        xi = rng.normal(size=2)
        for k in (-4, 3):
            assert_allclose(
                evolve_coupled(sys, k, 0, xi, np.zeros(0)),
                transition(sys, k, 0) @ xi,
                atol=1e-12,
            )

    def test_round_trip(self, ex1, end_cfg, rng):
        for s in (ex1, end_cfg):
            dy = s.space.dim_y
            xi = rng.uniform(-1, 1, s.space.dim_x)
            eta = rng.uniform(-1, 1, dy)
            for k in (-6, 5):
                fwd = evolve_coupled(s, k, 0, xi, eta)
                y_k = evolve_driver(s, k, 0, eta)
                back = evolve_coupled(s, 0, k, fwd, y_k)
                assert np.max(np.abs(back - xi)) <= 1e-8

    def test_semigroup_property(self, end_cfg, rng):
        s = end_cfg
        xi = rng.uniform(-1, 1, 2)
        eta = rng.uniform(-1, 1, 2)
        for n, m, k in [(0, 2, 5), (-3, 0, 4), (1, 3, 9)]:
            direct = evolve_coupled(s, k, n, xi, eta)
            mid_x = evolve_coupled(s, m, n, xi, eta)
            mid_y = evolve_driver(s, m, n, eta)
            stepped = evolve_coupled(s, k, m, mid_x, mid_y)
            assert np.max(np.abs(direct - stepped)) <= 1e-9

    def test_backward_consistency(self, ex1, rng):
        xi = rng.uniform(-1, 1, 2)
        back = evolve_coupled(ex1, -1, 0, xi, np.zeros(0))
        fwd = ex1.a.matrix(-1) @ back + np.asarray(ex1.f.eval(-1, back, np.zeros(0)))
        assert np.max(np.abs(fwd - xi)) <= 1e-9


class TestLipschitzProducts:
    def test_time_equal_is_one(self, ex1):
        assert lip_C(ex1, 3, 3) == 1.0
        assert lip_D(ex1, 3, 3) == 1.0
        assert lip_M(ex1, 3, 3) == 1.0

    def test_ex1_uncoupled_three_steps(self):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.0)
        assert_allclose(lip_C(s, 3, 0), 8.0, rtol=1e-14)

    def test_lip_C_bounds_difference_quotients(self, ex1, rng):
        for _ in range(100):
            n = int(rng.integers(-4, 5))
            k = n + int(rng.integers(-6, 7))
            xi = rng.uniform(-1, 1, 2)
            zeta = rng.uniform(-1, 1, 2)
            if np.max(np.abs(xi - zeta)) < 1e-12:
                continue
            a = evolve_coupled(ex1, k, n, xi, np.zeros(0))
            b = evolve_coupled(ex1, k, n, zeta, np.zeros(0))
            num = np.max(np.abs(a - b))
            den = np.max(np.abs(xi - zeta))
            assert num <= lip_C(ex1, k, n) * den + 1e-9

    def test_lip_D_bounds_driver(self, end_cfg, rng):
        s = end_cfg
        for _ in range(100):
            n = int(rng.integers(-4, 5))
            k = n + int(rng.integers(-6, 7))
            e1 = rng.uniform(-1, 1, 2)
            e2 = rng.uniform(-1, 1, 2)
            a = evolve_driver(s, k, n, e1)
            b = evolve_driver(s, k, n, e2)
            lhs = np.linalg.norm(a - b)
            assert lhs <= lip_D(s, k, n) * np.linalg.norm(e1 - e2) + 1e-9

    def test_lip_M_bounds_second_variable(self, end_cfg, rng):
        s = end_cfg
        for _ in range(100):
            n = int(rng.integers(-3, 4))
            k = n + int(rng.integers(-5, 6))
            xi = rng.uniform(-1, 1, 2)
            e1 = rng.uniform(-1, 1, 2)
            e2 = rng.uniform(-1, 1, 2)
            a = evolve_coupled(s, k, n, xi, e1)
            b = evolve_coupled(s, k, n, xi, e2)
            lhs = np.linalg.norm(a - b)
            assert lhs <= lip_M(s, k, n) * np.linalg.norm(e1 - e2) + 1e-9

    def test_contraction_violation_backward(self, rng):
        sys, _ = random_invertible_system(rng)
        bad = with_coupling(sys, 50.0)
        with pytest.raises(ContractionViolation):
            lip_C(bad, -3, 0)

    def test_trivial_driver_products(self, ex1):
        # tau = sigma = 0 for the trivial driver: forward D vanishes and
        # the second-variable product reduces to the first-variable one
        assert lip_D(ex1, 4, 0) == 0.0
        assert_allclose(lip_M(ex1, 4, 0), lip_C(ex1, 4, 0), rtol=1e-14)
        assert_allclose(lip_M(ex1, -4, 0), lip_C(ex1, -4, 0), rtol=1e-14)
