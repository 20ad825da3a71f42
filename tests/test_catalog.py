import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nonautolin import (
    CONVERGED,
    DIVERGENT,
    ExampleParams,
    certify,
    make_system,
    operator_norm,
    system_by_name,
)
from nonautolin.catalog import BUILDERS, LAM_MAX, _prod_one_plus

from .conftest import LN2, advanced_at
from .reference import column_norms, fd_jacobian, green_norm, lip_C


def total_gamma(sys, halfwidth=200):
    return sum(sys.f.gamma(k) for k in range(-halfwidth, halfwidth + 1))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExampleParams(variant="nope")
        with pytest.raises(ValueError):
            ExampleParams(variant="ex1", lam=-1.0)
        with pytest.raises(ValueError):
            ExampleParams(variant="ex1", gamma_scale=1.5)
        with pytest.raises(ValueError):
            ExampleParams(variant="ex2", theta_ratio=0.5)

    def test_end_cfg_has_planar_driver(self):
        assert make_system(ExampleParams(variant="end_cfg")).space.dim_y == 2

    def test_end_alias_is_gone(self):
        with pytest.raises(ValueError):
            ExampleParams(variant="end")

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            ExampleParams(variant="ex1", lam=40.0)
        with pytest.raises(ValueError):
            ExampleParams(variant="emo", lam=LAM_MAX * (1 + 1e-12))
        with pytest.raises(ValueError):  # prod (1 + e^{-lam |j|}) overflows
            system_by_name("ex1", lam=1e-4)
        ExampleParams(variant="ex1", lam=LAM_MAX)

    def test_gamma_finite_far_out(self):
        # e^{lam (|k| + 1)} overflows a double here; gamma_k is then below 1e-308
        s = system_by_name("ex1", lam=LN2, gamma_scale=1.0)
        assert s.f.gamma(2000) == 0.0
        assert 0.0 < s.f.gamma(1000) < 1e-300
        # ex2's 1 / (T (2^{|k|+1} + 1)) is computed without 2^{|k|+1}
        s = system_by_name("ex2")
        assert s.f.gamma(2000) == 0.0
        assert 0.0 < s.f.gamma(1000) < 1e-300

    @settings(deadline=None, max_examples=40)
    @given(
        variant=st.sampled_from(sorted(BUILDERS)),
        lam=st.floats(1e-6, 800.0),
        gamma_scale=st.floats(0.0, 1.0),
        theta_ratio=st.floats(1.0, 1e6),
    )
    def test_builders_finite_or_value_error(self, variant, lam, gamma_scale, theta_ratio):
        try:
            s = make_system(ExampleParams(variant=variant, lam=lam, gamma_scale=gamma_scale,
                                          theta_ratio=theta_ratio))
        except ValueError:
            return
        env = s.envelopes
        for k in range(-50, 51):
            values = [s.f.gamma(k), s.f.mu(k), s.f.rho(k)]
            for name in ("bc2", "bc3", "barh", "dxi", "deta"):
                fn = getattr(env, name)
                if fn is not None:
                    values.append(fn(k).amplitude)
            assert all(math.isfinite(v) for v in values), (k, values)

    def test_rotation_needs_room(self):
        with pytest.raises(ValueError):
            system_by_name("ex2", dim_half=1, rotation_angle=0.5)
        s = system_by_name("ex2", dim_half=1, rotation_angle=0.0)
        assert s.space.dim_x == 2

    def test_rotation_angle_none_picks_the_family_default(self):
        assert "angle=0.7" in system_by_name("end_cfg").label
        assert "angle=0)" in system_by_name("ex2").label
        # an explicit 0 is kept: end_cfg's driver is then the identity
        s = system_by_name("end_cfg", rotation_angle=0.0)
        assert "angle=0)" in s.label
        y = np.array([[0.4, -1.0], [-0.2, 0.5]])
        assert np.array_equal(s.g.eval(3, y), y)
        assert np.array_equal(s.g.jac(3, y), np.broadcast_to(np.eye(2), (2, 2, 2)))


class TestEx1Chain:
    @pytest.mark.parametrize("lam", [0.5, LN2, 1.0])
    def test_contraction_chain(self, lam):
        # admissibility: K_n + J_n + |G(n,n+1)| gamma_n <= e^lam M sum(gamma) < 1
        s = system_by_name("ex1", lam=lam, gamma_scale=0.9)
        big_m = _prod_one_plus(math.exp(-lam))
        budget = math.exp(lam) * big_m * total_gamma(s)
        assert budget < 1.0
        for n in range(-10, 11, 2):
            k_est, j_est, total, _ = advanced_at(s, n, 50)
            mid = green_norm(s, n, n + 1) * s.f.gamma(n)
            assert total < 1.0
            assert k_est.partial_sum + j_est.partial_sum + mid <= budget + 1e-12

    def test_gamma_respects_pointwise_envelope(self):
        lam = 0.8
        s = system_by_name("ex1", lam=lam, gamma_scale=1.0)
        for k in range(-30, 31):
            assert s.f.gamma(k) <= 1.0 / (math.exp(lam * (abs(k) + 1)) + math.exp(lam))

    def test_uncoupled_scale_zero(self):
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.0)
        assert s.f.gamma(0) == 0.0
        assert np.all(s.f.eval(3, np.ones(2), np.zeros(0)) == 0.0)


class TestEx2Chain:
    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_contraction_chain(self, ratio):
        s = system_by_name("ex2", theta_ratio=ratio, rotation_angle=0.3, gamma_scale=0.9)
        big_m = _prod_one_plus(0.5)
        budget = ratio * big_m * total_gamma(s)
        assert budget < 1.0
        for n in range(-10, 11, 2):
            k_est, j_est, total, _ = advanced_at(s, n, 50)
            mid = green_norm(s, n, n + 1) * s.f.gamma(n)
            assert total < 1.0
            assert k_est.partial_sum + j_est.partial_sum + mid <= budget + 1e-12

    def test_zero_angle_passes(self):
        s = system_by_name("ex2", theta_ratio=2.0, rotation_angle=0.0, gamma_scale=0.9)
        total = advanced_at(s, 0, 40)[2]
        assert total < 1.0


class TestRemm:
    def test_k_sum_finite_with_stated_bound(self):
        # K_n <= (2M)^{2|n|} * sum_{k<n} 2^{-|k|} with M = 1
        s = system_by_name("remm", gamma_scale=1.0)
        for n in range(-10, 11, 2):
            k_est, j_est, _, _ = advanced_at(s, n, 60)
            assert k_est.verdict == CONVERGED
            assert j_est.verdict == CONVERGED
            assert j_est.partial_sum == 0.0  # future-side kernels vanish (P = Id)
            stated = 4.0 ** abs(n) * sum(
                0.5 ** abs(k) for k in range(n - 60, n)
            )
            assert k_est.partial_sum <= stated + 1e-12

    def test_shifted_envelope_gives_contraction_at_n(self):
        # scaling gamma by 2^{1-n0} reproduces the n0-shifted envelope
        n = 3
        n0 = 2 * abs(n) + 2
        s = system_by_name("remm", gamma_scale=2.0 ** (1 - n0))
        total = advanced_at(s, n, 60)[2]
        assert total < 1.0

    def test_zero_scale(self):
        s = system_by_name("remm", gamma_scale=0.0)
        k_est, j_est, total, _ = advanced_at(s, 0, 40)
        assert k_est.partial_sum == 0.0 and j_est.partial_sum == 0.0
        assert total < 1.0


class TestEnd:
    def test_second_variable_series_converges(self, end_cfg):
        for n in range(-5, 6):
            est = advanced_at(end_cfg, n, 40)[3]
            assert est.verdict == CONVERGED

    def test_sigma_rho(self, end_cfg):
        # ac6 covers [n_min - w, n_max + w]
        rep = certify(end_cfg, (0, 0), 40, probes=1)
        worst = rep.ac6_worst_index
        assert rep.ac6_ok and -40 <= worst <= 40
        assert end_cfg.g.sigma(worst) * end_cfg.f.rho(worst) <= 1.0

    def test_rho_zero_drops_to_first_variable_series(self):
        s0 = system_by_name("end_cfg", gamma_scale=0.9, rho_scale=0.0)
        for n in (-2, 0, 3):
            k_est, j_est, _, est = advanced_at(s0, n, 40)
            mid = green_norm(s0, n, n + 1) * s0.f.gamma(n)
            # with rho == 0 and sigma == 1 the M product still carries the
            # driver term, so the second-variable series dominates the first
            assert est.partial_sum >= k_est.partial_sum + j_est.partial_sum + mid - 1e-15


class TestEmo:
    def test_divergent_future_series(self):
        for c in (1e-3, 1e-2, 0.1):
            for lam in (0.1, 1.0, 2.0):
                s = system_by_name("emo", lam=lam, c=c)
                for n in (-10, 0, 10):
                    _, j_est, total, _ = advanced_at(s, n, 50)
                    assert j_est.verdict == DIVERGENT
                    assert not total < 1.0

    def test_term_lower_bound(self):
        # every future-side term is at least c e^{-lam}
        lam, c = 0.7, 0.02
        s = system_by_name("emo", lam=lam, c=c)
        n = 0
        floor = c * math.exp(-lam)
        prod = 1.0
        for k in range(1, 30):
            prod *= s.a_norm(k - 1) + s.f.gamma(k - 1)
            term = green_norm(s, n, k + 1) * s.f.gamma(k) * prod
            assert term >= floor - 1e-15

    def test_zero_constant_converges(self):
        s = system_by_name("emo", lam=1.0, c=0.0)
        k_est, j_est, total, _ = advanced_at(s, 0, 50)
        assert k_est.verdict == CONVERGED and j_est.verdict == CONVERGED
        assert total < 1.0


class TestCouplingContracts:
    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("ex1", dict(lam=LN2, gamma_scale=1.0)),
            ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=1.0)),
            ("remm", dict(gamma_scale=1.0)),
            ("end_cfg", dict(gamma_scale=1.0)),
            ("emo", dict(lam=0.5, c=0.03)),
        ],
    )
    def test_sampled_lipschitz_and_bounds(self, name, kwargs, rng):
        s = system_by_name(name, **kwargs)
        dx, dy = s.space.dim_x, s.space.dim_y

        def norm(v):
            return column_norms(v[:, None], s.space.norm_kind)[0]

        for _ in range(200):
            n = int(rng.integers(-12, 13))
            x1, x2 = rng.uniform(-3, 3, dx), rng.uniform(-3, 3, dx)
            y1, y2 = rng.uniform(-3, 3, dy), rng.uniform(-3, 3, dy)
            mu, ga, rho = s.f.mu(n), s.f.gamma(n), s.f.rho(n)
            f11 = np.asarray(s.f.eval(n, x1, y1))
            f21 = np.asarray(s.f.eval(n, x2, y1))
            assert norm(f11) <= mu * (1 + 1e-12) + 1e-15
            assert norm(f11 - f21) <= ga * norm(x1 - x2) * (1 + 1e-12) + 1e-15
            if dy:
                f12 = np.asarray(s.f.eval(n, x1, y2))
                assert norm(f11 - f12) <= rho * norm(y1 - y2) * (1 + 1e-12) + 1e-15
            jx = s.f.jac_x(n, x1[:, None], y1[:, None])[0]
            assert operator_norm(jx, s.space.norm_kind) <= ga * (1 + 1e-12) + 1e-15
            if dy:
                jy = s.f.jac_y(n, x1[:, None], y1[:, None])[0]
                assert operator_norm(jy, s.space.norm_kind) <= rho * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("ex1", dict(lam=LN2, gamma_scale=1.0)),
            ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=1.0)),
            ("remm", dict(gamma_scale=1.0, dim_half=2)),
            ("end_cfg", dict(gamma_scale=1.0)),
            ("end_cfg", dict(gamma_scale=1.0, dim_half=2, rho_scale=0.3)),
            ("emo", dict(lam=0.5, c=0.03)),
        ],
    )
    def test_batched_jacobians_match_per_column_calls(self, name, kwargs, rng):
        # jac_x, jac_y and g.jac take (dim, batch) columns and return one
        # Jacobian per column: the per-column calls, and central differences
        # of f_n and g_n
        s = system_by_name(name, **kwargs)
        dx, dy = s.space.dim_x, s.space.dim_y
        batch = 5
        x, y = rng.uniform(-3, 3, (dx, batch)), rng.uniform(-3, 3, (dy, batch))
        for n in (-4, 0, 5):
            jx, jy, jg = s.f.jac_x(n, x, y), s.f.jac_y(n, x, y), s.g.jac(n, y)
            assert (jx.shape, jy.shape, jg.shape) == ((batch, dx, dx), (batch, dx, dy),
                                                      (batch, dy, dy))
            for i in range(batch):
                xc, yc = x[:, i:i + 1], y[:, i:i + 1]
                assert_array_equal(jx[i], s.f.jac_x(n, xc, yc)[0])
                assert_array_equal(jy[i], s.f.jac_y(n, xc, yc)[0])
                assert_array_equal(jg[i], s.g.jac(n, yc)[0])
                fd_x = fd_jacobian(lambda v: s.f.eval(n, v, y[:, i]), x[:, i], 1e-6)
                assert_allclose(jx[i], fd_x, atol=1e-8)
                if dy:
                    fd_y = fd_jacobian(lambda v: s.f.eval(n, x[:, i], v), y[:, i], 1e-6)
                    assert_allclose(jy[i], fd_y, atol=1e-8)
                    assert_allclose(jg[i], fd_jacobian(lambda v: s.g.eval(n, v), y[:, i], 1e-6),
                                    atol=1e-8)

    def test_driver_isometry(self, end_cfg, rng):
        for _ in range(50):
            y1, y2 = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            g1 = np.asarray(end_cfg.g.eval(0, y1))
            g2 = np.asarray(end_cfg.g.eval(0, y2))
            assert_allclose(np.linalg.norm(g1 - g2), np.linalg.norm(y1 - y2), rtol=1e-12)
            inv = np.asarray(end_cfg.g.eval_inv(0, g1))
            assert np.max(np.abs(inv - y1)) <= 1e-12


class TestEnvelopeDomination:
    # tail bounds must dominate what further terms can add: going from
    # window W1 to W2 > W1 never adds more than the W1 tail bound
    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("ex1", dict(lam=LN2, gamma_scale=0.9)),
            ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)),
            ("remm", dict(gamma_scale=0.9)),
            ("end_cfg", dict(gamma_scale=0.9)),
        ],
    )
    @pytest.mark.parametrize("n", [-6, 0, 7])
    def test_nested_windows_first_variable(self, name, kwargs, n):
        s = system_by_name(name, **kwargs)
        w1, w2 = 12, 36
        k1, j1, _, _ = advanced_at(s, n, w1)
        k2, j2, _, _ = advanced_at(s, n, w2)
        assert k2.partial_sum >= k1.partial_sum - 1e-15
        assert j2.partial_sum >= j1.partial_sum - 1e-15
        assert k2.partial_sum - k1.partial_sum <= k1.tail_bound + 1e-15
        assert j2.partial_sum - j1.partial_sum <= j1.tail_bound + 1e-15

    @pytest.mark.parametrize("n", [-4, 0, 5])
    def test_nested_windows_second_variable(self, end_cfg, n):
        e1 = advanced_at(end_cfg, n, 12)[3]
        e2 = advanced_at(end_cfg, n, 36)[3]
        assert e2.partial_sum - e1.partial_sum <= e1.tail_bound + 1e-15

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("ex1", dict(lam=LN2, gamma_scale=0.9)),
            ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)),
            ("end_cfg", dict(gamma_scale=0.9)),
        ],
    )
    def test_value_series_envelope_dominates(self, name, kwargs):
        # mu-series terms at distance d from the center stay under a r^d
        s = system_by_name(name, **kwargs)
        kind = s.space.norm_kind
        for n in (-5, 0, 5):
            env = s.envelopes.barh(n)
            for k in range(n - 30, n + 31):
                if k == n:
                    continue
                term = green_norm(s, n, k + 1) * s.f.mu(k)
                d = abs(k - n)
                assert term <= env.amplitude * env.ratio**d * (1 + 1e-12) + 1e-300


class TestLipConsistency:
    def test_lip_C_matches_k_series_products(self):
        # the K-series product factors are exactly lip_C(k, n) backward
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
        n = 2
        for k in range(n - 6, n):
            prod = 1.0
            for j in range(k, n):
                inv = s.a_inv_norm(j)
                prod *= inv / (1.0 - s.f.gamma(j) * inv)
            assert_allclose(lip_C(s, k, n), prod, rtol=1e-14)
