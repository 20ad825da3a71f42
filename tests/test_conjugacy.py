import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonautolin import (
    ConjugacyEngine,
    ContractionViolation,
    CouplingSpec,
    DriverSpec,
    OperatorSeq,
    SolveOptions,
    SpaceSpec,
    SystemSpec,
    WeightSeq,
    WindowExhausted,
    operator_norm,
    system_by_name,
)
from nonautolin.cli import (RunConfig, _engine, _split_probes, build_system, phase_conjugate,
                            probe_grid)
from nonautolin.conjugacy import _coupling_lists, _spans
from nonautolin.errors import NoConvergence, NonautolinError
from nonautolin.evolution import _forward_step, _state_columns, _trajectory, coupled_trajectory

from .conftest import LN2, blowup_system, diag_stack, random_invertible_system
from .reference import (bar_h_series, column_norms, evolve_coupled, evolve_driver,
                        green_by_factors, h_by_picard, reordering_bound)


def one_term_system(n0, c=0.05, lam=LN2):
    """Coupling supported at the single index n0; every series has one term."""
    el, eml = math.exp(lam), math.exp(-lam)
    a = np.diag([el, eml])
    a_inv = np.diag([eml, el])

    def gamma(n):
        return c if n == n0 else 0.0

    def f(n, x, y):
        if n != n0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return c * np.tanh(np.asarray(x, dtype=float))

    return SystemSpec(
        space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
        a=OperatorSeq(lambda n: a, lambda n: a_inv,
                      norm_bound=lambda n: el, inv_norm_bound=lambda n: el),
        p=WeightSeq.constant(np.diag([0.0, 1.0])),
        f=CouplingSpec(
            eval=f,
            jac_x=lambda n, x, y: gamma(n) * diag_stack(1 - np.tanh(np.asarray(x)) ** 2),
            jac_y=lambda n, x, y: np.zeros((np.shape(x)[1], 2, 0)),
            mu=gamma,
            gamma=gamma,
            rho=lambda n: 0.0,
        ),
        g=DriverSpec.trivial(),
    )


@pytest.fixture
def engine_ex1(ex1_mild):
    return ConjugacyEngine(ex1_mild, series_tol=1e-9, fp_tol=1e-10)


@pytest.fixture
def engine_end(end_cfg):
    return ConjugacyEngine(end_cfg, series_tol=1e-9, fp_tol=1e-10)


class TestBarH:
    def test_zero_coupling_exact_zero(self, rng):
        sys, _ = random_invertible_system(rng)
        eng = ConjugacyEngine(sys)
        out = eng.bar_h(0, np.array([0.4, -0.2]))
        assert np.array_equal(out, np.zeros(2))

    def test_bounded_by_forcing_sum(self, engine_ex1, rng):
        # sup |bar_h| <= sum |G| mu (the certified bound from the engine window)
        bound = engine_ex1.series_window(0, 1e-9).value_bound
        for _ in range(25):
            xi = rng.uniform(-3, 3, 2)
            val = engine_ex1.bar_h(0, xi)
            assert np.max(np.abs(val)) <= bound + 1e-12

    def test_one_term_system_hand_value(self):
        n0 = 2
        s = one_term_system(n0, c=0.04)
        eng = ConjugacyEngine(s, series_tol=1e-12)
        xi = np.array([0.8, -0.3])
        got = eng.bar_h(n0, xi)
        expect = -(green_by_factors(s, n0, n0 + 1) @ (0.04 * np.tanh(xi)))
        assert_allclose(got, expect, atol=1e-15)

    def test_truncation_bound_reported(self, engine_ex1):
        _, tail, window = engine_ex1.bar_h_detailed(0, np.array([0.1, 0.1]))
        assert 0.0 <= tail <= 1e-9
        assert window >= 1

    def test_window_exhausted_on_slow_decay(self, emo):
        # constant mu decays only through the Green factor; a tiny cap fails
        eng = ConjugacyEngine(emo, window_halfwidth=3, series_tol=1e-12)
        with pytest.raises(WindowExhausted):
            eng.bar_h(0, np.array([0.1, 0.1]))

    def test_bar_H_components(self, engine_ex1):
        xi = np.array([0.2, 0.5])
        bx, by = engine_ex1.bar_H(0, xi)
        assert_allclose(bx, xi + engine_ex1.bar_h(0, xi), atol=1e-12)
        assert by.shape == (0,)

    def test_second_component_bitwise(self, engine_end):
        xi = np.array([0.2, 0.5])
        eta = np.array([0.3, -0.9])
        _, by = engine_end.bar_H(1, xi, eta)
        assert np.array_equal(by, eta)
        _, hy = engine_end.H(1, xi, eta)
        assert np.array_equal(hy, eta)

    def test_H_and_bar_H_state_layouts(self, engine_end, rng):
        # H and bar_H coerce (xi, eta) as bar_h and h do: a single eta is
        # repeated over the batch of xi, a single state stays one state, and
        # a 2-D eta of another batch is rejected
        xi, eta = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, 2)
        for conj in (engine_end.H, engine_end.bar_H):
            x, y = conj(0, xi, eta)
            assert x.shape == y.shape == (2, 3)
            assert np.array_equal(y, np.repeat(eta[:, None], 3, axis=1))
            x, y = conj(0, xi[:, 0], eta)
            assert x.shape == y.shape == (2,)
            with pytest.raises(ValueError):
                conj(0, xi, rng.uniform(-1, 1, (2, 2)))

    @pytest.mark.parametrize("name", ["ex1", "end_cfg"])
    def test_empty_batch(self, name, engine_ex1, engine_end):
        # no columns in, no columns out, and no walk
        eng = engine_ex1 if name == "ex1" else engine_end
        dx, dy = eng.sys.space.dim_x, eng.sys.space.dim_y
        xi, eta = np.zeros((dx, 0)), np.zeros((dy, 0))
        assert eng.bar_h(0, xi, eta).shape == eng.h(0, xi, eta).shape == (dx, 0)
        for conj in (eng.H, eng.bar_H):
            x, y = conj(0, xi, eta)
            assert x.shape == (dx, 0) and y.shape == (dy, 0)
        value, residuals, iters = eng.h_detailed(0, xi, eta)
        assert value.shape == (dx, 0) and residuals == [] and iters == 0
        tables = eng.residual_tables(range(-1, 2), xi, eta, steps=3)
        assert sorted(tables) == [-1, 0, 1]
        for res in tables.values():
            assert res.h.shape == res.bar_h.shape == (dx, 0)
            assert res.inverse.shape == res.forward.shape == res.dual.shape == (0,)
            assert not res.inverse_errors and not res.equivariance_errors

    def test_bar_H_equivariance_step(self, engine_ex1, rng):
        # stepping bar_H(x) with the linear map matches bar_H of the coupled step
        s = engine_ex1.sys
        for _ in range(10):
            xi = rng.uniform(-1, 1, 2)
            bx, _ = engine_ex1.bar_H(0, xi)
            lin = s.a.matrix(0) @ bx
            stepped = s.a.matrix(0) @ xi + np.asarray(s.f.eval(0, xi, np.zeros(0)))
            bx1, _ = engine_ex1.bar_H(1, stepped)
            assert np.max(np.abs(lin - bx1)) <= 10 * engine_ex1.series_tol


LEAN_SWEEP_SYSTEMS = [
    ("ex1", dict(lam=LN2, gamma_scale=0.5)),
    ("end_cfg", dict(gamma_scale=0.9)),
    ("ex2", dict(rotation_angle=0.4, gamma_scale=0.9)),
]


class TestLeanSweep:
    """bar_h sums the coupling values its own trajectory computed."""

    @pytest.mark.parametrize("name, kwargs", LEAN_SWEEP_SYSTEMS)
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("window", [None, 12])
    def test_bit_identical_to_series_loop(self, name, kwargs, batch, window, rng):
        # the terms bar_h sums are bit for bit the series loop's: each
        # coupling its walk computed is the loop's fresh f_k at the same
        # state.  It adds them as one product over the stacked window, in
        # another order than the loop's index order, so the two sums agree
        # within the stated rounding bound of that reordering
        sys = system_by_name(name, **kwargs)
        eng = ConjugacyEngine(sys, window_halfwidth=160, advanced_halfwidth=40)
        cols = () if batch is None else (batch,)
        for n in (0, 3):
            xi = rng.uniform(-1, 1, (sys.space.dim_x,) + cols)
            eta = rng.uniform(-1, 1, (sys.space.dim_y,) + cols)
            value = eng.bar_h(n, xi, eta, window=window)
            assert value.shape == xi.shape
            k_half = eng.series_window(n, eng.series_tol).halfwidth if window is None else window
            xi_b, eta_b, _ = _state_columns(sys, xi, eta)
            spans = _spans([(n, k_half, xi_b.shape[1])])
            couplings = _coupling_lists(spans)
            _trajectory(sys, spans, xi_b, eta_b, eng.solve, couplings)
            states = coupled_trajectory(sys, n, n - k_half, n + k_half, xi_b, eta_b, eng.solve)
            window_ks = range(n - k_half, n + k_half + 1)
            for k in window_ks:
                assert np.array_equal(couplings[0][k - n + k_half], sys.f.eval(k, *states[k]))
            kept = _coupling_lists(spans)
            summed = eng._series(spans, xi_b, eta_b, kept)
            assert np.array_equal(summed, value.reshape(summed.shape))
            # only the backward couplings, those a warm walk reads, outlive the sum
            assert [c is None for c in kept[0]] == [k >= n for k in window_ks]
            bound = reordering_bound(eng, n, k_half, states)
            diff = np.abs(summed - bar_h_series(eng, n, xi_b, eta_b, window))
            assert np.all(diff <= bound), (diff.max(), bound.min())

    @pytest.mark.parametrize("name, kwargs", LEAN_SWEEP_SYSTEMS)
    def test_no_coupling_call_beyond_the_trajectory(self, name, kwargs, rng):
        sys = system_by_name(name, **kwargs)
        calls = []
        f_eval = sys.f.eval

        def counted(j, x, y):
            calls.append(j)
            return f_eval(j, x, y)

        sys.f.eval = counted
        eng = ConjugacyEngine(sys, window_halfwidth=160, advanced_halfwidth=40)
        n, k_half = 2, 15
        xi = rng.uniform(-1, 1, (sys.space.dim_x, 4))
        eta = rng.uniform(-1, 1, (sys.space.dim_y, 4))
        coupled_trajectory(sys, n, n - k_half, n + k_half, xi, eta, eng.solve)
        in_trajectory = len(calls)
        calls.clear()
        eng.bar_h(n, xi, eta, window=k_half)
        # one f_k per state comes with its step; only the upper end needs its own
        assert len(calls) <= in_trajectory + 1
        assert set(calls) == set(range(n - k_half, n + k_half + 1))


class TestH:
    def test_zero_coupling_exact_zero(self, rng):
        sys, _ = random_invertible_system(rng)
        eng = ConjugacyEngine(sys)
        out = eng.h(0, np.array([1.0, 2.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_iteration_count_bound(self, engine_ex1):
        c = engine_ex1.contraction(0)
        win = engine_ex1.series_window(
            0, min(engine_ex1.series_tol, engine_ex1.fp_tol * (1 - c) / 2)
        )
        _, residuals, iters = engine_ex1.h_detailed(0, np.array([0.9, -0.4]))
        bound = math.ceil(math.log(engine_ex1.fp_tol / win.value_bound) / math.log(c)) + 2
        assert iters <= bound

    def test_residual_contraction(self, engine_ex1):
        c = engine_ex1.contraction(0)
        _, residuals, _ = engine_ex1.h_detailed(0, np.array([1.5, -0.8]))
        for r0, r1 in zip(residuals, residuals[1:]):
            if r0 < 1e-13:
                break
            assert r1 <= c * r0 * 1.1

    def test_round_trip_both_ways(self, engine_ex1, engine_end, rng):
        for eng in (engine_ex1, engine_end):
            tol = eng.fp_tol + 10 * eng.series_tol
            dy = eng.sys.space.dim_y
            for _ in range(10):
                xi = rng.uniform(-1, 1, eng.sys.space.dim_x)
                eta = rng.uniform(-1, 1, dy)
                assert np.max(eng.residual_tables([0], xi, eta, steps=0)[0].inverse) <= tol

    def test_contraction_violation_without_certificate(self, emo):
        eng = ConjugacyEngine(emo, window_halfwidth=50)
        with pytest.raises(ContractionViolation):
            eng.h(0, np.array([0.1, 0.1]))

    def test_exact_floating_point_stationarity(self, ex1_mild):
        # Picard iterations on the truncated series become bitwise stationary,
        # so even an unreachable tolerance ends with residual exactly 0
        eng = ConjugacyEngine(ex1_mild, series_tol=1e-9, fp_tol=1e-30)
        _, residuals, _ = eng.h_detailed(0, np.array([0.5, -0.5]))
        assert residuals[-1] == 0.0

    def test_no_convergence_guard(self, ex1_mild):
        # the stall guard fires when evaluations are not stationary (here: an
        # injected alternating perturbation well above the residual target)
        from nonautolin import NoConvergence

        class Jittery(ConjugacyEngine):
            _count = 0

            def _series(self, *args, **kwargs):
                self._count += 1
                return super()._series(*args, **kwargs) + (-1.0) ** self._count * 1e-8

        eng = Jittery(ex1_mild, series_tol=1e-9, fp_tol=1e-12)
        with pytest.raises(NoConvergence):
            eng.h(0, np.array([0.5, -0.5]))

    def test_pinned_iteration_mode(self, engine_ex1):
        # the FD stencil's smooth h is plain Picard: the updates until the
        # stop test passes, then 4 more, each walk after the first
        # warm-started from the previous walk's couplings.  The reference
        # sums each bar_h in index order: every update may differ by the
        # reordering bound, at most 2 gamma_m times the window's value bound
        # in the max norm, and the contraction at rate c keeps the sum of
        # those differences under that bound / (1 - c)
        xi = np.array([0.7, 0.2])
        _, iters = h_by_picard(engine_ex1, 0, xi, warm=True)
        pinned, _, count = engine_ex1.h_detailed(0, xi, smooth=True)
        assert count == iters
        c = engine_ex1.contraction(0)
        k_half, _ = engine_ex1.h_window(0)
        win = engine_ex1.series_window(0, min(engine_ex1.series_tol,
                                              engine_ex1.fp_tol * (1 - c) / 2))
        m = (2 * k_half + 1) * 2
        bound = 2 * m * 2.0 ** -53 / (1 - m * 2.0 ** -53) * win.value_bound / (1 - c)
        ref = h_by_picard(engine_ex1, 0, xi, updates=iters + 4, warm=True)[0]
        assert np.max(np.abs(pinned - ref)) <= bound
        free = engine_ex1.h(0, xi)
        assert np.max(np.abs(pinned - free)) <= engine_ex1.fp_tol

    @pytest.mark.parametrize("name,params", [
        ("ex1", {"gamma_scale": 0.5}),
        ("remm", {"gamma_scale": 0.5}),
        ("end_cfg", {"gamma_scale": 0.9}),
    ])
    @pytest.mark.parametrize("n", [0, 5])
    def test_anderson_matches_picard_reference(self, name, params, n):
        # any u passing the stop test is within fp_tol / (1 - c(n)) of h, so
        # the Anderson and Picard values are within twice that of each other
        s = system_by_name(name, **params)
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-10)
        rng = np.random.default_rng(100 + n)
        xi = rng.uniform(-1, 1, (s.space.dim_x, 6))
        eta = rng.uniform(-1, 1, (s.space.dim_y, 6))
        bound = 2.0 * eng.fp_tol / (1.0 - eng.contraction(n))
        got = eng.h(n, xi, eta)
        for i in range(6):
            ref, _ = h_by_picard(eng, n, xi[:, i], eta[:, i])
            assert np.max(np.abs(got[:, i] - ref)) <= bound, (name, n, i)


class TestEquivariance:
    def test_zero_coupling_zero_residual(self, rng):
        sys, _ = random_invertible_system(rng)
        eng = ConjugacyEngine(sys)
        res = eng.residual_tables([0], np.array([0.5, -0.5]), steps=10)[0]
        assert max(res.forward.max(), res.dual.max()) <= 1e-12

    def test_ex1_budget(self, engine_ex1, rng):
        for _ in range(5):
            res = engine_ex1.residual_tables([0], rng.uniform(-1, 1, 2), steps=10)[0]
            assert max(res.forward.max(), res.dual.max()) <= 1e-7

    def test_residual_improves_with_series_tol(self, ex1_mild):
        # in the truncation-dominated regime (tight fp_tol, loose series_tol)
        # a 10x tighter series tolerance buys at least a 5x smaller residual;
        # the linear-to-coupled direction is pinned to fp_tol by the budget
        # rule, so the sensitivity shows in the dual direction
        xi = np.array([0.63, -0.21])
        coarse = ConjugacyEngine(ex1_mild, series_tol=1e-7, fp_tol=1e-12)
        fine = ConjugacyEngine(ex1_mild, series_tol=1e-8, fp_tol=1e-12)
        dual_coarse = coarse.residual_tables([0], xi, steps=10)[0].dual.max()
        dual_fine = fine.residual_tables([0], xi, steps=10)[0].dual.max()
        assert dual_fine <= dual_coarse / 5.0


class TestEngineValidation:
    def test_rejects_bad_tolerances(self, ex1_mild):
        # NaN passed a `<= 0` test and failed in the first window fit, as
        # "cannot convert float NaN to integer"
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="series_tol and fp_tol must be positive"):
                ConjugacyEngine(ex1_mild, series_tol=bad)
            with pytest.raises(ValueError, match="series_tol and fp_tol must be positive"):
                ConjugacyEngine(ex1_mild, fp_tol=bad)
            with pytest.raises(ValueError, match="fixed_point_tol must be positive"):
                SolveOptions(fixed_point_tol=bad)
        with pytest.raises(ValueError):
            ConjugacyEngine(ex1_mild, window_halfwidth=0)
        # an advanced halfwidth of None is the window cap; below 1 it is an
        # error, not the cap (0) or an IndexError on the first contraction (-3)
        assert ConjugacyEngine(ex1_mild, window_halfwidth=50).advanced_halfwidth == 50
        assert ConjugacyEngine(ex1_mild, advanced_halfwidth=7).advanced_halfwidth == 7
        for bad in (0, -3):
            with pytest.raises(ValueError, match="advanced_halfwidth must be >= 1"):
                ConjugacyEngine(ex1_mild, advanced_halfwidth=bad)

    def test_rejects_negative_window_and_steps(self, engine_ex1):
        # a negative window holds no term of the series, and negative steps
        # no equivariance step; both name the argument, and 0 is allowed
        xi = np.array([0.3, -0.2])
        with pytest.raises(ValueError, match="window must be >= 0, got -1"):
            engine_ex1.bar_h(0, xi, window=-1)
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            engine_ex1.residual_tables([0, 1], xi, steps=-1)
        assert engine_ex1.bar_h(0, xi, window=0).shape == (2,)
        assert engine_ex1.residual_tables([0], xi, steps=0)[0].forward.shape == (1,)

    def test_contraction_cached(self, engine_ex1):
        c1 = engine_ex1.contraction(0)
        assert engine_ex1.contraction_estimate[0] == c1
        assert engine_ex1.contraction(0) == c1
        assert 0.0 < c1 < 1.0

    def test_batch_matches_single(self, engine_end, rng):
        xi = rng.uniform(-1, 1, (2, 5))
        eta = rng.uniform(-1, 1, (2, 5))
        batch = engine_end.bar_h(0, xi, eta)
        for i in range(5):
            single = engine_end.bar_h(0, xi[:, i], eta[:, i])
            assert np.max(np.abs(batch[:, i] - single)) <= 1e-12


class TestBruteForceOracles:
    def test_bar_h_matches_direct_summation(self, engine_end, rng):
        # oracle: sum the defining series term by term from the reference
        # Green kernels and solutions, no engine
        s = engine_end.sys
        n = 1
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        got, tail, win = engine_end.bar_h_detailed(n, xi, eta)
        direct = np.zeros(2)
        for k in range(n - win, n + win + 1):
            xk = evolve_coupled(s, k, n, xi, eta)
            yk = evolve_driver(s, k, n, eta)
            direct -= green_by_factors(s, n, k + 1) @ np.asarray(s.f.eval(k, xk, yk))
        assert np.max(np.abs(got - direct)) <= 1e-11

    def test_h_solves_declared_fixed_point(self, engine_ex1, engine_end, rng):
        for eng in (engine_ex1, engine_end):
            dy = eng.sys.space.dim_y
            xi = rng.uniform(-1, 1, 2)
            eta = rng.uniform(-1, 1, dy)
            u = eng.h(0, xi, eta)
            back = eng.bar_h(0, xi + u, eta)
            assert np.max(np.abs(u + back)) <= eng.fp_tol + 2 * eng.series_tol


class TestContractionCertificate:
    def test_sampled_barh_lipschitz_below_certificate(self, engine_ex1, engine_end, rng):
        # the certified bound dominates sampled first-variable difference
        # quotients of bar_h (up to the truncation budget)
        for eng in (engine_ex1, engine_end):
            c = eng.contraction(0)
            dy = eng.sys.space.dim_y
            kind = eng.sys.space.norm_kind
            for _ in range(40):
                eta = rng.uniform(-1, 1, dy)
                x1, x2 = rng.uniform(-2, 2, (2, 1)), rng.uniform(-2, 2, (2, 1))
                den = column_norms(x1 - x2, kind)[0]
                if den < 1e-9:
                    continue
                num = column_norms(
                    eng.bar_h(0, x1, eta) - eng.bar_h(0, x2, eta), kind
                )[0]
                assert num <= c * den + 2 * eng.series_tol


BLOCK_SYSTEMS = [("ex1", {"gamma_scale": 0.5}), ("remm", {"gamma_scale": 0.5}),
                 ("end_cfg", {"gamma_scale": 0.9})]


def _block_engine(name, params):
    cfg = RunConfig(system=name, system_params=params)
    return _engine(cfg, build_system(cfg))


def _walk_error_bound(eng, n, lo, states):
    """Per column, a bound on |x_k - x'_k| at every k in [lo, n) between two
    walks through the same (xi, eta) at n whose backward steps j each pass
    the defect test at tolerance <= fixed_point_tol / (n - lo), `states` the
    second walk's: |u - T_j(x)| <= L_j |defect| for each, and T_j is
    L_j-Lipschitz, L_j = |A_j^{-1}| / (1 - |A_j^{-1}| gamma_j); 8 eps covers
    the rounding of the computed defect.  The forward steps are the same
    arithmetic on the same columns, and so is the y walk."""
    sys, kind = eng.sys, eng.sys.space.norm_kind
    tol = eng.solve.fixed_point_tol / (n - lo)
    err, out = np.zeros(states[n][0].shape[1]), {}
    for j in range(n - 1, lo - 1, -1):
        scale = np.maximum(1.0, column_norms(states[j + 1][0], kind))
        lip = sys.a_inv_norm(j) / (1.0 - sys.a_inv_norm(j) * sys.f.gamma(j))
        err = out[j] = lip * (err + (tol + 8 * np.finfo(float).eps) * (2 * scale + err))
    return out


class TestBlockSolves:
    """One multi-centre sweep against the one-centre calls it replaces, at
    centres whose windows and caps differ (remm: 15-34 and 17-57, end_cfg:
    34-99 and 17-56)."""

    @pytest.mark.parametrize("name, params", BLOCK_SYSTEMS)
    def test_bar_h_matches_one_centre_calls(self, name, params):
        # the block and a one-centre walk differ by their backward steps'
        # defects (the block may share a tighter tolerance and more Picard
        # iterations) and by the rounding of the two sums
        eng = _block_engine(name, params)
        sys, kind = eng.sys, eng.sys.space.norm_kind
        rng = np.random.default_rng(7)
        centres, per = [-10, -4, -1, 0, 2, 5, 11, 20], 3
        xi = rng.uniform(-1, 1, (sys.space.dim_x, per * len(centres)))
        eta = rng.uniform(-1, 1, (sys.space.dim_y, per * len(centres)))
        wins = [eng.series_window(n, eng.series_tol).halfwidth for n in centres]
        block = eng._series(_spans([(n, k, per) for n, k in zip(centres, wins)]), xi, eta)
        for i, (n, k) in enumerate(zip(centres, wins)):
            cols = slice(per * i, per * (i + 1))
            one = eng.bar_h(n, xi[:, cols], eta[:, cols])
            states = coupled_trajectory(sys, n, n - k, n + k, xi[:, cols], eta[:, cols],
                                        eng.solve)
            err = _walk_error_bound(eng, n, n - k, states)
            m = (2 * k + 1) * sys.space.dim_x
            gamma_m = m * 2.0 ** -53 / (1 - m * 2.0 ** -53)
            row = operator_norm(eng.green_row(n, k), kind)
            walks = sum(row[j - n + k] * sys.f.gamma(j) * err[j] for j in range(n - k, n))
            bound = (column_norms(reordering_bound(eng, n, k, states), kind)
                     + (1 + gamma_m) * walks)
            assert np.all(column_norms(block[:, cols] - one, kind) <= bound), n

    @pytest.mark.parametrize("name, params", BLOCK_SYSTEMS)
    def test_h_within_the_stop_test_bound_at_each_centre(self, name, params):
        eng = _block_engine(name, params)
        sys = eng.sys
        rng = np.random.default_rng(8)
        centres, per = [-4, 0, 2, 8], 2
        xi = rng.uniform(-1, 1, (sys.space.dim_x, per * len(centres)))
        eta = rng.uniform(-1, 1, (sys.space.dim_y, per * len(centres)))
        u, records = eng._solve_h(centres, [per] * len(centres), xi, eta)
        for i, n in enumerate(centres):
            bound = 2.0 * eng.fp_tol / (1.0 - eng.contraction(n))
            residuals, iters, error = records[i]
            assert residuals[-1] <= eng.fp_tol and len(residuals) == iters + 1 and error is None
            for c in range(per * i, per * (i + 1)):
                ref, _ = h_by_picard(eng, n, xi[:, c], eta[:, c])
                assert np.max(np.abs(u[:, c] - ref)) <= bound, (n, c)

    @pytest.mark.parametrize("name, params", BLOCK_SYSTEMS)
    def test_a_nan_column_stays_in_its_column(self, name, params):
        # a NaN column at centre 0, in place of a copy of its neighbour,
        # leaves every centre's iterations and residuals, and the finite
        # columns bit for bit, as they are with the copy, and the iterations
        # as without the column; the column itself ends NaN, and no
        # RuntimeWarning is raised.  (It replaces a column,
        # so no other column moves: the kernels of a matrix product may
        # round a column by its place in the batch.)
        eng = _block_engine(name, params)
        sys = eng.sys
        rng = np.random.default_rng(8)
        centres, per = [-1, 0, 2], 3
        xi = rng.uniform(-1, 1, (sys.space.dim_x, per * len(centres)))
        eta = rng.uniform(-1, 1, (sys.space.dim_y, per * len(centres)))
        xi[:, per + 1], eta[:, per + 1] = xi[:, per], eta[:, per]
        u, records = eng._solve_h(centres, [per] * len(centres), xi, eta)
        xi[:, per + 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_records = eng._solve_h(centres, [per] * len(centres), xi, eta)
        assert got_records == records
        assert all(error is None and iters > 1 for _, iters, error in records)
        without = eng._solve_h(centres, [per, per - 1, per], np.delete(xi, per + 1, axis=1),
                               np.delete(eta, per + 1, axis=1))[1]
        assert [iters for _, iters, _ in without] == [iters for _, iters, _ in records]
        assert np.array_equal(np.delete(got, per + 1, axis=1), np.delete(u, per + 1, axis=1))
        assert np.isnan(got[:, per + 1]).all()

    @pytest.mark.parametrize("name, params", BLOCK_SYSTEMS)
    @pytest.mark.parametrize("fault", ["cap", "contraction"])
    def test_an_error_at_one_index_of_a_block_stays_there(self, name, params, fault):
        # index 1 fails alone, by its h cap (NoConvergence, every column
        # unconverged) or its certificate (ContractionViolation), inside a
        # block of several indices: only base 1 loses its inverse rows, only
        # the bases whose steps reach 1 lose their equivariance rows, each
        # for every probe, and every other table matches the reference on an
        # engine with the same fault
        s = system_by_name(name, **params)
        dim = s.space.dim_x + s.space.dim_y
        xi, eta = _split_probes(s, probe_grid(dim, 2, 1.0, np.random.default_rng(3)))

        def faulty():
            eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
            if fault == "cap":
                h_window = eng.h_window
                eng.h_window = lambda n: (h_window(n)[0], 1) if n == 1 else h_window(n)
            else:
                contraction = eng.contraction

                def broken(n):
                    if n == 1:
                        raise ContractionViolation(n, 1.5, what="injected")
                    return contraction(n)

                eng.contraction = broken
            return eng

        ns, steps = range(-2, 4), 2
        eng = faulty()
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        error = NoConvergence if fault == "cap" else ContractionViolation
        assert [n for n, r in tables.items() if r.inverse_errors] == [1]
        assert sorted(tables[1].inverse_errors) == list(range(xi.shape[1]))
        assert all(isinstance(e, error) for e in tables[1].inverse_errors.values())
        assert [n for n, r in tables.items() if r.equivariance_errors] == [-1, 0, 1]
        ref = reference_tables(faulty(), ns, xi, eta, steps)
        for n, res in tables.items():
            # any two h that pass the stop test are within 2 fp_tol / (1 - c(n))
            bound = None if n == 1 else 2 * eng.fp_tol / (1 - eng.contraction(n))
            TestResidualTables._assert_matches(eng, n, res, ref[n], h_atol=bound)


def reference_tables(eng, ns, xi, eta, steps):
    """Per-n loop over the public engine calls: for each base n, h(n, p),
    bar_h(n, p), the inverse residuals and the (forward, dual) equivariance
    residuals, or None for a table whose evaluation raised."""
    sys = eng.sys
    kind = sys.space.norm_kind

    def dist(a, b):
        return np.maximum(column_norms(a[0] - b[0], kind), column_norms(a[1] - b[1], kind))

    def linear_step(j, x, y):  # (A_j x, g_j(y)), the uncoupled system's step
        return sys.a.matrix(j) @ x, (sys.g.eval(j, y) if sys.space.dim_y else y)

    def coupled_step(j, x, y):
        return _forward_step(sys, j, x, y)[:2]

    def walk(n, conj, image_step, point_step):
        res = np.zeros(xi.shape[1])
        x, y = xi, eta
        image = conj(n, x, y)
        for j in range(n, n + steps):
            stepped = image_step(j, *image)
            x, y = point_step(j, x, y)
            image = conj(j + 1, x, y)
            res = np.maximum(res, dist(stepped, image))
        return res

    out = {}
    for n in ns:
        rec = {"inverse": None, "equivariance": None}
        try:
            u = eng.h(n, xi, eta)
            b = eng.bar_h(n, xi, eta)
            there = eng.bar_H(n, *eng.H(n, xi, eta))
            back = eng.H(n, *eng.bar_H(n, xi, eta))
            rec["inverse"] = (u, b, np.maximum(dist(there, (xi, eta)), dist(back, (xi, eta))))
        except NonautolinError:
            pass
        try:
            rec["equivariance"] = (walk(n, eng.H, coupled_step, linear_step),
                                   walk(n, eng.bar_H, linear_step, coupled_step))
        except NonautolinError:
            pass
        out[n] = rec
    return out


class TestResidualTables:
    def _probes(self, sys, per_axis):
        grid = probe_grid(sys.space.dim_x + sys.space.dim_y, per_axis, 1.0,
                          np.random.default_rng(3))
        return _split_probes(sys, grid)

    @pytest.mark.parametrize("name,kwargs,per_axis,ns,steps", [
        ("ex1", dict(lam=LN2, gamma_scale=0.5), 4, range(-2, 3), 4),
        ("end_cfg", dict(gamma_scale=0.9), 2, range(-1, 2), 3),
    ])
    def test_matches_per_n_reference(self, name, kwargs, per_axis, ns, steps):
        # a tight fp_tol makes h's batch-dependent stopping point invisible
        # in the equivariance residuals, which difference h at nearby indices
        s = system_by_name(name, **kwargs)
        xi, eta = self._probes(s, per_axis)
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        ref = reference_tables(ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13),
                               ns, xi, eta, steps)
        assert list(tables) == list(ns)
        for n, res in tables.items():
            assert not res.inverse_errors and not res.equivariance_errors
            self._assert_matches(eng, n, res, ref[n])

    @staticmethod
    def _assert_matches(eng, n, res, ref, h_atol=None, probes=None):
        """`res` at the probe indices `probes` (all by default) against the
        reference `ref` on those probes alone: a table lists an error for
        each of them where the reference has None, and none where it has
        values, which then match."""
        if probes is None:  # the inverse arrays are None only when every probe has its error
            probes = list(range(len(res.inverse_errors) if res.inverse is None
                                else len(res.inverse)))
        for table, errors in (("inverse", res.inverse_errors),
                              ("equivariance", res.equivariance_errors)):
            assert [i in errors for i in probes] == [ref[table] is None] * len(probes), table
        if ref["inverse"] is not None:
            u, b, inverse = ref["inverse"]
            assert_allclose(res.h[:, probes], u, rtol=0,
                            atol=eng.fp_tol if h_atol is None else h_atol)
            assert_allclose(res.bar_h[:, probes], b, rtol=0, atol=1e-13)
            assert_allclose(res.inverse[probes], inverse, rtol=0, atol=1e-12)
            assert res.tail_bound == eng.series_window(n, eng.series_tol).tail_bound
        if ref["equivariance"] is not None:
            fwd, dual = ref["equivariance"]
            assert_allclose(res.forward[probes], fwd, rtol=0, atol=1e-12)
            assert_allclose(res.dual[probes], dual, rtol=0, atol=1e-12)

    @staticmethod
    def _completed_h_solves(monkeypatch):
        """The {centre: columns} of every `_solve_h` call that returns, in
        order."""
        solve_h = ConjugacyEngine._solve_h
        done = []

        def recorded(self, centres, counts, *args, **kwargs):
            out = solve_h(self, centres, counts, *args, **kwargs)
            done.append(dict(zip(centres, counts)))
            return out

        monkeypatch.setattr(ConjugacyEngine, "_solve_h", recorded)
        return done

    def test_blocks_restart_after_an_error_and_a_gap(self, monkeypatch):
        # h reaches its cap of one iteration at index 1, which leaves every
        # probe unconverged but the one at 0 (h = 0 passes the first stop
        # test), and index 5 has no contraction certificate.  The cap takes
        # only those probes' rows, the inverse rows of base 1 and the
        # equivariance rows of the bases -1, 0 and 1 whose steps reach it,
        # each error the NoConvergence of h at 1; the probe at 0 keeps every
        # row.  The certificate takes every equivariance row of base 3, whose
        # steps reach 5, and ends the block before 5; the blocks restart
        # after it, with base 7 after a gap.  Each other index's columns (its
        # live bases' probes, plus the round trips at a base index) go
        # through exactly one h solve, and each group of probes matches the
        # reference run on that group alone
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.5)
        xi, eta = self._probes(s, 3)
        xi[:, 0] = 0.0
        batch = xi.shape[1]
        done = self._completed_h_solves(monkeypatch)
        ns, steps = [-1, 0, 1, 2, 3, 7], 2

        def faulty():
            eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
            h_window, contraction = eng.h_window, eng.contraction
            eng.h_window = lambda n: (h_window(n)[0], 1) if n == 1 else h_window(n)

            def broken(n):
                if n == 5:
                    raise ContractionViolation(n, 1.5, what="injected")
                return contraction(n)

            eng.contraction = broken
            return eng

        eng = faulty()
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        assert [list(cols) for cols in done] == [[-1, 0, 1, 2, 3, 4], [7, 8, 9]]
        live = {m: sum(n <= m <= n + steps for n in ns) for cols in done for m in cols}
        assert {m: c for cols in done for m, c in cols.items()} == {
            m: batch * (live[m] + (m in ns)) for m in live}
        rest = list(range(1, batch))
        capped = str(NoConvergence("h fixed point at n=1", 1, 0.0, eng.fp_tol)).split(" (")[0]
        for n, res in tables.items():
            assert sorted(res.inverse_errors) == (rest if n == 1 else [])
            assert sorted(res.equivariance_errors) == (
                rest if n in (-1, 0, 1) else list(range(batch)) if n == 3 else [])
            for e in [*res.inverse_errors.values(), *res.equivariance_errors.values()]:
                assert isinstance(e, ContractionViolation if n == 3 else NoConvergence)
                assert n == 3 or str(e).startswith(capped)
        for probes in ([0], rest):
            ref = reference_tables(faulty(), ns, xi[:, probes], eta[:, probes], steps)
            for n, res in tables.items():
                # any two h that pass the stop test are within 2 fp_tol / (1 - c(n))
                bound = 2 * eng.fp_tol / (1 - eng.contraction(n))
                self._assert_matches(eng, n, res, ref[n], h_atol=bound, probes=probes)

    def test_a_coupling_that_blows_up_fails_only_the_probes_past_it(self):
        # past |x| = 2 the coupling is NaN.  A = Id and sum gamma < 0.2 keep
        # every state of a walk, and H and bar_H, within 0.5 of its probe, so
        # the probes with a coordinate beyond 2.5 (all but the centre one of
        # the 3 x 3 grid over [-4, 4]^2) cross 2 at each base index n and
        # lose every row there, each error naming n; the centre probe, inside
        # 1.5, matches the reference run on it alone
        s = blowup_system(2.0, "remm", gamma_scale=0.2)
        grid = probe_grid(2, 3, 4.0, np.random.default_rng(3))
        xi, eta = _split_probes(s, grid)
        crossing = np.max(np.abs(grid), axis=1)
        assert np.sum(crossing > 2.5) == 8 and np.sum(crossing < 1.5) == 1
        past, inside = np.flatnonzero(crossing > 2.5).tolist(), np.flatnonzero(crossing < 1.5)
        ns, steps = range(-1, 3), 2
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        for n, res in tables.items():
            for errors in (res.inverse_errors, res.equivariance_errors):
                assert sorted(errors) == past
                assert {str(e) for e in errors.values()} == {
                    f"non-finite value in the residual tables at m={n}"}
        ref = reference_tables(ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13), ns,
                               xi[:, inside], eta[:, inside], steps)
        for n, res in tables.items():
            bound = 2 * eng.fp_tol / (1 - eng.contraction(n))
            self._assert_matches(eng, n, res, ref[n], h_atol=bound, probes=inside.tolist())

    def test_one_h_solve_per_index(self, monkeypatch):
        # every index from n_min to n_max + steps has its columns solved
        # once, in blocks of several indices, and the tables match the
        # reference
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.5)
        xi, eta = self._probes(s, 2)
        batch = xi.shape[1]
        done = self._completed_h_solves(monkeypatch)
        ns, steps = range(-2, 3), 10
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        solved = [m for cols in done for m in cols]
        assert sorted(solved) == list(range(-2, 2 + steps + 1))  # 15, each once
        assert len(done) < len(solved)
        live = {m: sum(n <= m <= n + steps for n in ns) for m in solved}
        assert {m: c for cols in done for m, c in cols.items()} == {
            m: batch * (live[m] + (m in ns)) for m in solved}
        ref = reference_tables(ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13),
                               ns, xi, eta, steps)
        for n, res in tables.items():
            assert not res.inverse_errors and not res.equivariance_errors
            self._assert_matches(eng, n, res, ref[n])
        # the conjugate phase on the program's engine: every index solved
        # once, and both tables list their rows base by base, probe by probe
        done.clear()
        cfg = RunConfig(system="ex1", system_params={"gamma_scale": 0.5}, n_min=-2, n_max=2)
        equi, inv, ok = phase_conjugate(cfg, _engine(cfg, build_system(cfg)))
        assert ok
        indices = list(range(-2, 2 + cfg.steps + 1))
        assert sorted(m for cols in done for m in cols) == indices and len(done) < len(indices)
        grid = probe_grid(2, cfg.probes_per_axis, cfg.probe_extent,
                          np.random.default_rng(cfg.seed))
        order = [(n, list(p)) for n in range(-2, 3) for p in grid]
        for table in (inv, equi):
            assert [(r["n"], r["probe"]) for r in table["rows"]] == order  # 5 x 25 rows

    def test_blocks_bounded_by_columns(self, monkeypatch):
        # past its first index a block takes no more than _BLOCK_COLUMNS
        # columns, and the tables do not depend on where the blocks end
        import nonautolin.conjugacy as conj

        s = system_by_name("ex1", lam=LN2, gamma_scale=0.5)
        xi, eta = self._probes(s, 2)
        batch = xi.shape[1]
        monkeypatch.setattr(conj, "_BLOCK_COLUMNS", 7 * batch)
        done = self._completed_h_solves(monkeypatch)
        ns, steps = range(-2, 3), 4
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13)
        tables = eng.residual_tables(ns, xi, eta, steps=steps)
        assert sorted(m for cols in done for m in cols) == list(range(-2, 2 + steps + 1))
        assert [list(cols) for cols in done] == [[-2, -1], [0], [1], [2], [3, 4], [5, 6]]
        assert all(len(cols) == 1 or sum(cols.values()) <= 7 * batch for cols in done)
        ref = reference_tables(ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-13),
                               ns, xi, eta, steps)
        for n, res in tables.items():
            assert not res.inverse_errors and not res.equivariance_errors
            self._assert_matches(eng, n, res, ref[n])

    def test_default_block_bound_on_the_bench_config(self, monkeypatch):
        # the conjugate phase of `report --system ex1 --gamma-scale 0.5` runs
        # four blocks, each within the default _BLOCK_COLUMNS
        import nonautolin.conjugacy as conj

        done = self._completed_h_solves(monkeypatch)
        cfg = RunConfig(system="ex1", system_params={"gamma_scale": 0.5})
        _, _, ok = phase_conjugate(cfg, _engine(cfg, build_system(cfg)))
        assert ok
        assert [list(cols) for cols in done] == [
            list(range(-10, 1)), list(range(1, 8)), list(range(8, 17)), list(range(17, 21))]
        assert all(sum(cols.values()) <= conj._BLOCK_COLUMNS for cols in done)

    def test_one_green_span_per_index(self, monkeypatch):
        # the contraction certificate reads the Green row the h and bar_h
        # series use, so each index builds one span at the advanced halfwidth
        import nonautolin.conjugacy as conj
        import nonautolin.hypotheses as hyp

        calls = []
        span, rows = conj.green_span, hyp.green_norm_rows

        def counted(sys, m, lo, hi):
            calls.append(m)
            return span(sys, m, lo, hi)

        def counted_rows(sys, lo, hi, w):
            calls.append(("rows", lo, hi))
            return rows(sys, lo, hi, w)

        monkeypatch.setattr(conj, "green_span", counted)
        monkeypatch.setattr(hyp, "green_norm_rows", counted_rows)
        cfg = RunConfig(system="ex1", system_params={"gamma_scale": 0.5}, n_min=-2, n_max=2)
        _, _, ok = phase_conjugate(cfg, _engine(cfg, build_system(cfg)))
        assert ok
        assert calls == list(range(-2, 2 + cfg.steps + 1))  # 15, one per index

    def test_error_attribution_matches_reference(self):
        # remm at full coupling: the contraction total reaches 1 at n >= 1,
        # so h fails there, and every n whose steps reach it loses equivariance
        cfg = RunConfig(system="remm", system_params={"gamma_scale": 1.0},
                        n_min=-12, n_max=2, probes_per_axis=3, force=True)
        s = build_system(cfg)
        equi, inv, _ = phase_conjugate(cfg, _engine(cfg, s))
        grid = probe_grid(s.space.dim_x, 3, 1.0, np.random.default_rng(cfg.seed))
        xi, eta = _split_probes(s, grid)
        ref = reference_tables(_engine(cfg, s), range(-12, 3), xi, eta, cfg.steps)
        for table, key in ((inv, "inverse"), (equi, "equivariance")):
            failed = {n for n, r in ref.items() if r[key] is None}
            assert {e["n"] for e in table["errors"]} == failed
        assert {e["n"] for e in inv["errors"]} == {1, 2}
        assert {e["n"] for e in equi["errors"]} == set(range(-9, 3))


def test_fields_the_benchmark_reads(ex1_mild):
    # perfbench's tracer and oracles read these names and fields from outside;
    # if one went, its traced counters would read 0 instead of failing
    eng = ConjugacyEngine(ex1_mild, window_halfwidth=64, series_tol=1e-9, fp_tol=1e-10,
                          solve=SolveOptions(), advanced_halfwidth=20)
    xi = np.array([0.5, -0.5])
    _, residuals, iters = eng.h_detailed(0, xi)
    assert type(iters) is int and iters >= 1 and len(residuals) == iters + 1
    win = eng.series_window(0, eng.series_tol).halfwidth
    assert type(win) is int and eng.bar_h_detailed(0, xi)[2] == win
    pinned = eng.bar_h(0, xi, np.zeros(0), window=win)
    assert pinned.shape == (2,) and np.array_equal(pinned, eng.bar_h(0, xi))
