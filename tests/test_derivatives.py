import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonautolin import (
    ConjugacyEngine,
    GeometricTail,
    SolveOptions,
    barh_jacobian,
    certify,
    coupled_trajectory,
    h_jacobian,
    operator_norm,
    solution_jacobian,
    system_by_name,
    validate_jacobians,
)

from nonautolin.cli import RunConfig, _engine, build_system, phase_derivatives, probe_grid
from nonautolin.derivatives import _resolvent, fd_jacobian_batch
from nonautolin.errors import NoConvergence, NonautolinError, SingularOperatorError

from .conftest import backward_step, blowup_system, random_invertible_system
from .reference import (evolve_coupled, evolve_driver, fd_jacobian, green_norm, jacobian_report,
                        lip_C, lip_D, lip_M, transition_by_factors)

def cli_engine(sys):
    """The engine the conjugate and derivatives phases run at the default
    RunConfig, with its default backward solve."""
    return _engine(RunConfig(), sys)


# the blocks of the joint (xi, eta) Jacobians, for a system with dim_x = 2


def x2_dxi(sys, k, n, xi, eta=None, opts=SolveOptions()):
    return solution_jacobian(sys, k, n, xi, eta, opts)[:2, :2]


def x2_deta(sys, k, n, xi, eta, opts=SolveOptions()):
    return solution_jacobian(sys, k, n, xi, eta, opts)[:2, 2:]


def y_deta(sys, k, n, eta):
    return solution_jacobian(sys, k, n, np.zeros(2), eta)[2:, 2:]


@pytest.fixture
def engine_ex1(ex1_mild):
    return cli_engine(ex1_mild)


@pytest.fixture
def engine_end(end_cfg):
    return cli_engine(end_cfg)


class TestFdJacobian:
    def test_linear_map_recovered(self, rng):
        a = rng.normal(size=(3, 3))
        got = fd_jacobian(lambda v: a @ v, np.zeros(3), 1e-5)
        assert_allclose(got, a, atol=1e-10)

    def test_scalar_square(self):
        got = fd_jacobian(lambda v: v * v, np.array([3.0]), 1e-6)
        assert_allclose(got[0, 0], 6.0, atol=1e-6)

    def test_empty_input(self):
        got = fd_jacobian(lambda v: np.array([1.0, 2.0]), np.zeros(0), 1e-6)
        assert got.shape == (2, 0)

    def test_batch_matches_reference_and_closed_form(self, rng):
        # F(x0, x1, x2) = (x0^2 x1 + sin x2, exp(x0) - x1 x2^3) on 4 columns:
        # a non-square Jacobian that differs per column, so a stencil that
        # swaps + and -, coordinates or columns disagrees with both oracles
        def fun(p):
            return np.array([p[0] ** 2 * p[1] + np.sin(p[2]), np.exp(p[0]) - p[1] * p[2] ** 3])

        def exact(p):
            return np.array([[2 * p[0] * p[1], p[0] ** 2, np.cos(p[2])],
                             [np.exp(p[0]), -p[2] ** 3, -3 * p[1] * p[2] ** 2]])

        points = rng.uniform(-1, 1, (3, 4))
        got = fd_jacobian_batch(fun, points, 1e-5)
        assert got.shape == (4, 2, 3)
        for i in range(4):
            assert_allclose(got[i], fd_jacobian(fun, points[:, i], 1e-5), rtol=0, atol=1e-12)
            assert_allclose(got[i], exact(points[:, i]), rtol=0, atol=1e-8)

    def test_agrees_with_analytic_solution_jacobian(self, ex1_mild, rng):
        xi = rng.uniform(-1, 1, 2)
        analytic = x2_dxi(ex1_mild, 3, 0, xi, None)
        rep = jacobian_report(
            analytic,
            lambda z: evolve_coupled(ex1_mild, 3, 0, z, np.zeros(0)),
            xi,
            1e-6,
        )
        assert rep.rel_error <= 1e-5


class TestSolutionJacobians:
    def test_time_equal(self, ex1_mild, end_cfg):
        xi = np.array([0.1, 0.2])
        assert_allclose(x2_dxi(ex1_mild, 0, 0, xi), np.eye(2), atol=0)
        assert solution_jacobian(ex1_mild, 0, 0, xi).shape == (2, 2)
        assert x2_deta(end_cfg, 0, 0, xi, np.zeros(2)).shape == (2, 2)
        assert_allclose(x2_deta(end_cfg, 0, 0, xi, np.zeros(2)), 0.0, atol=0)
        assert_allclose(y_deta(end_cfg, 0, 0, np.zeros(2)), np.eye(2), atol=0)
        assert_allclose(solution_jacobian(end_cfg, 0, 0, xi, np.zeros(2)), np.eye(4), atol=0)

    def test_zero_coupling_gives_transition(self, rng):
        sys, _ = random_invertible_system(rng)
        xi = rng.normal(size=2)
        for k in (4, -3):
            assert_allclose(
                x2_dxi(sys, k, 0, xi),
                transition_by_factors(sys, k, 0),
                atol=1e-12,
            )

    def test_rho_zero_kills_eta_jacobian(self, end_cfg, rng):
        s = system_by_name("end_cfg", gamma_scale=0.9, rho_scale=0.0)
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        for k in (5, -4):
            assert_allclose(x2_deta(s, k, 0, xi, eta), 0.0, atol=1e-14)

    def test_rotation_driver_closed_form(self, end_cfg):
        angle = 0.7  # end_cfg default rotation
        eta = np.array([0.4, -0.2])
        for k in (4, -5):
            c, s = math.cos(k * angle), math.sin(k * angle)
            expect = np.array([[c, -s], [s, c]])
            assert_allclose(y_deta(end_cfg, k, 0, eta), expect, atol=1e-12)

    @pytest.mark.parametrize("k", [5, -4])
    def test_fd_cross_validation(self, end_cfg, rng, k):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        rep = jacobian_report(
            x2_dxi(end_cfg, k, 0, xi, eta),
            lambda z: evolve_coupled(end_cfg, k, 0, z, eta),
            xi,
            1e-6,
        )
        assert rep.rel_error <= 1e-5
        rep = jacobian_report(
            x2_deta(end_cfg, k, 0, xi, eta),
            lambda z: evolve_coupled(end_cfg, k, 0, xi, z),
            eta,
            1e-6,
        )
        assert rep.rel_error <= 1e-5

    def test_backward_factor_identity(self, ex1_mild, rng):
        # (A_j + df/du at the backward point) @ L = Id
        xi = rng.uniform(-1, 1, 2)
        j = 0
        t = backward_step(ex1_mild, j, xi, np.zeros(0))[0]
        m = ex1_mild.a.matrix(j) + ex1_mild.f.jac_x(j, t[:, None], np.zeros((0, 1)))[0]
        ell = np.linalg.inv(m)
        assert_allclose(m @ ell, np.eye(2), atol=1e-10)

    def test_norm_bounds_by_lip_products(self, end_cfg, rng):
        s = end_cfg
        for _ in range(25):
            n = int(rng.integers(-3, 4))
            k = n + int(rng.integers(-5, 6))
            xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            kind = s.space.norm_kind
            assert operator_norm(x2_dxi(s, k, n, xi, eta), kind) <= lip_C(s, k, n) * (1 + 1e-9)
            assert operator_norm(y_deta(s, k, n, eta), kind) <= lip_D(s, k, n) * (1 + 1e-9)
            assert operator_norm(x2_deta(s, k, n, xi, eta), kind) <= lip_M(s, k, n) * (1 + 1e-9)


class TestConjugacyDerivatives:
    def test_zero_coupling_all_zero(self, rng):
        sys, _ = random_invertible_system(rng)
        eng = ConjugacyEngine(sys)
        xi = np.array([0.4, 0.1])
        assert_allclose(barh_jacobian(eng, 0, xi)[0], 0.0, atol=0)
        assert_allclose(h_jacobian(eng, 0, xi)[0], 0.0, atol=0)

    def test_norm_bound_below_contraction(self, engine_ex1, rng):
        c = engine_ex1.contraction(0)
        for _ in range(10):
            xi = rng.uniform(-2, 2, 2)
            b = barh_jacobian(engine_ex1, 0, xi)[0]
            assert operator_norm(b, "max") <= c + 1e-10
            assert operator_norm(b, "max") < 1.0

    def test_term_norms_obey_second_variable_envelope(self, engine_end, rng):
        # each series term is bounded by |G| (gamma M + rho D)
        s = engine_end.sys
        n = 0
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        mat, win = barh_jacobian(engine_end, n, xi, eta)
        mat = mat[:, 2:]
        total = sum(
            green_norm(s, n, k + 1)
            * (s.f.gamma(k) * lip_M(s, k, n) + s.f.rho(k) * lip_D(s, k, n))
            for k in range(n - win, n + win + 1)
        )
        assert operator_norm(mat, "euclidean") <= total + 1e-12

    def test_fd_barh_first_variable(self, engine_ex1, engine_end, rng):
        for eng in (engine_ex1, engine_end):
            dy = eng.sys.space.dim_y
            xi = rng.uniform(-1, 1, 2)
            eta = rng.uniform(-1, 1, dy)
            mat = barh_jacobian(eng, 0, xi, eta)[0][:, :2]
            win = eng.series_window(0, eng.series_tol).halfwidth
            rep = jacobian_report(
                mat, lambda z: eng.bar_h(0, z, eta, window=win), xi, 1e-6
            )
            assert rep.rel_error <= 1e-5

    def test_fd_barh_second_variable(self, engine_end, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        mat = barh_jacobian(engine_end, 0, xi, eta)[0][:, 2:]
        win = engine_end.series_window(0, engine_end.series_tol).halfwidth
        rep = jacobian_report(
            mat, lambda z: engine_end.bar_h(0, xi, z, window=win), eta, 1e-6
        )
        assert rep.rel_error <= 1e-5

    def test_rho_zero_and_y_free_coupling_zero_eta_jacobian(self):
        s = system_by_name("end_cfg", gamma_scale=0.9, rho_scale=0.0)
        eng = cli_engine(s)
        xi, eta = np.array([0.4, -0.1]), np.array([0.2, 0.9])
        assert_allclose(barh_jacobian(eng, 0, xi, eta)[0][:, 2:], 0.0, atol=1e-15)
        assert_allclose(h_jacobian(eng, 0, xi, eta)[0][:, 2:], 0.0, atol=1e-12)

    def test_resolvent_consistency(self, engine_ex1, engine_end, rng):
        # differentiating the inverse identity: (Id + R)(Id + d bar_h/du|shifted) = Id
        for eng in (engine_ex1, engine_end):
            dy = eng.sys.space.dim_y
            xi = rng.uniform(-1, 1, 2)
            eta = rng.uniform(-1, 1, dy)
            u = eng.h(0, xi, eta)
            b = barh_jacobian(eng, 0, xi + u, eta)[0][:, :2]
            r = h_jacobian(eng, 0, xi, eta)[0][:, :2]
            eye = np.eye(2)
            assert np.max(np.abs((eye + r) @ (eye + b) - eye)) <= 1e-8

    def test_fd_h_both_variables(self, engine_end, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        reports = validate_jacobians(engine_end, 0, xi, eta)
        assert reports["d_h_dxi"].rel_error <= 1e-4
        assert reports["d_h_deta"].rel_error <= 1e-4


class TestValidateJacobians:
    def test_full_set_on_end(self, engine_end, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        reports = validate_jacobians(engine_end, 1, xi, eta)
        assert set(reports) == {
            "d_x2_dxi", "d_x2_deta", "d_y_deta",
            "d_barh_dxi", "d_barh_deta", "d_h_dxi", "d_h_deta",
        }
        for kind, rep in reports.items():
            assert rep.rel_error <= 1e-4, kind

    def test_trivial_y_skips_eta_kinds(self, engine_ex1, rng):
        xi = rng.uniform(-1, 1, 2)
        reports = validate_jacobians(engine_ex1, 0, xi, None)
        # no d_x2_deta, d_y_deta, d_barh_deta or d_h_deta without a driver
        assert set(reports) == {"d_x2_dxi", "d_barh_dxi", "d_h_dxi"}

    def test_one_h_solve_and_one_h_stencil_per_step_per_n(self, engine_end, rng):
        # all probes of one n share one h solve, the one smooth h stencil,
        # which appends the probes to the stencil over (xi, eta) of every
        # probe; no other h_detailed call is made
        stencils = []
        solve = engine_end.h_detailed
        engine_end.h_detailed = lambda n, xi, eta, **kw: (
            stencils.append((n, xi.shape[1], kw)), solve(n, xi, eta, **kw))[1]
        for n in (-3, 0, 3):
            stencils.clear()
            xi, eta = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3))
            reports = validate_jacobians(engine_end, n, xi, eta)
            assert len(reports) == 3
            assert all(kw == {"smooth": True} for _, _, kw in stencils)
            assert len(stencils) == 1 and stencils[0][:2] == (n, 3 + 3 * 2 * 4)
            assert all(rep.rel_error <= 1e-4 for r in reports for rep in r.values())

    @pytest.mark.parametrize("name, params", [("ex1", {"gamma_scale": 0.5}),
                                              ("end_cfg", {"gamma_scale": 0.9})])
    def test_no_state_between_calls(self, name, params, rng):
        # the warm guesses live inside one solve: a fresh engine and one that
        # has served other solves give the same bits
        s = system_by_name(name, **params)
        dx, dy = s.space.dim_x, s.space.dim_y
        xi, eta = rng.uniform(-1, 1, (dx, 3)), rng.uniform(-1, 1, (dy, 3))

        def results(eng):
            reports = validate_jacobians(eng, 1, xi, eta)
            return ([eng.h(1, xi, eta), eng.bar_h(1, xi, eta)]
                    + [v for r in reports for rep in r.values()
                       for v in (rep.analytic, rep.finite_difference, rep.rel_error,
                                 rep.fd_step)])

        fresh = results(cli_engine(s))
        used = cli_engine(s)
        for n in (1, 2):
            other_xi, other_eta = 0.5 * xi + 0.1, eta - 0.2
            used.h(n, other_xi, other_eta)
            used.bar_h(n, other_xi, other_eta)
            validate_jacobians(used, n, other_xi, other_eta)
        again = results(used)
        assert len(again) == len(fresh)
        assert all(np.array_equal(a, b) for a, b in zip(fresh, again))

    @pytest.mark.parametrize("name", ["ex1", "end_cfg"])
    def test_one_stencil_per_map(self, name, monkeypatch):
        # one central-difference stencil per map, all at fd_step over every
        # probe: the solution map and bar_h each evaluate theirs in one
        # batched call, and h in one smooth h_detailed call that also holds
        # the probes' own columns
        import nonautolin.derivatives as der

        stencils, smooth, barh_widths = [], [], []
        stencil = der._fd_stencil
        monkeypatch.setattr(der, "_fd_stencil", lambda cols, step: (
            stencils.append((np.array(cols), step)), stencil(cols, step))[1])
        s = system_by_name(name, gamma_scale=0.5)
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-10)
        h_detailed, bar_h = eng.h_detailed, eng.bar_h
        eng.h_detailed = lambda n, xi, eta, **kw: (
            smooth.append((xi.shape[1], kw)), h_detailed(n, xi, eta, **kw))[1]
        eng.bar_h = lambda n, xi, eta, **kw: (
            barh_widths.append(xi.shape[1]), bar_h(n, xi, eta, **kw))[1]
        dx, dy = s.space.dim_x, s.space.dim_y
        batch, fd_step = 3, 2e-5
        xi = probe_grid(dx + dy, 2, 1.0, np.random.default_rng(5))[:batch].T.copy()
        reports = validate_jacobians(eng, 1, xi[:dx], xi[dx:], fd_step=fd_step)
        assert len(stencils) == 3
        assert all(np.array_equal(cols, xi) and step == fd_step for cols, step in stencils)
        assert smooth == [(batch * (1 + 2 * (dx + dy)), {"smooth": True})]
        assert barh_widths == [batch * 2 * (dx + dy)]
        assert all(rep.fd_step == fd_step for r in reports for rep in r.values())
        assert all(len(r) == (7 if dy else 3) for r in reports)

    @pytest.mark.parametrize("fd_step", [0.0, -1e-6])
    def test_nonpositive_fd_step_is_rejected(self, engine_ex1, fd_step):
        with pytest.raises(ValueError, match="step must be positive"):
            validate_jacobians(engine_ex1, 0, np.array([0.1, 0.2]), fd_step=fd_step)

    def test_unbatched_jacobian_is_rejected(self, ex1_mild):
        # a jac_x on the old one-state contract returns a (dim_x,) diagonal
        # for one column, not a (1, dim_x, dim_x) stack
        f = dataclasses.replace(ex1_mild.f,
                                jac_x=lambda n, x, y: np.diag(1 - np.tanh(np.asarray(x)) ** 2))
        s = dataclasses.replace(ex1_mild, f=f)
        with pytest.raises(ValueError, match="stack"):
            solution_jacobian(s, 3, 0, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("name,owner,attr,entries", [
        ("ex1", "f", "eval", ("bar_h", "coupled_trajectory", "certify")),
        ("end_cfg", "g", "eval_inv", ("bar_h", "coupled_trajectory")),
    ])
    def test_unbatched_map_is_rejected(self, name, owner, attr, entries):
        # a map on the old one-state contract flattens its (dim, batch)
        # columns; the pipeline calls the coupling forward and in bc1, the
        # inverse driver in the backward steps
        s = system_by_name(name, gamma_scale=0.5)
        spec = getattr(s, owner)
        batched = getattr(spec, attr)
        flat = dataclasses.replace(spec, **{attr: lambda n, *v: np.ravel(batched(n, *v))})
        s = dataclasses.replace(s, **{owner: flat})
        xi, eta = np.full(s.space.dim_x, 0.1), np.full(s.space.dim_y, 0.1)
        calls = {
            "bar_h": lambda: ConjugacyEngine(s).bar_h(0, xi, eta, window=4),
            "coupled_trajectory": lambda: coupled_trajectory(s, 0, -3, 3, xi, eta),
            "certify": lambda: certify(s, (-2, 2), 4, probes=2),
        }
        rows = s.space.dim_x if owner == "f" else s.space.dim_y
        for entry in entries:
            with pytest.raises(ValueError, match=rf"{owner}\.{attr} at j=-?\d+ must return "
                                                 rf"columns of shape \({rows}, [13]\), got \("):
                calls[entry]()

    def test_mismatched_batches_are_rejected(self, end_cfg):
        # a 2-D eta must have the batch of xi; the error names both shapes,
        # not the coupling that would first meet them
        xi, eta = np.full((2, 1), 0.1), np.full((2, 3), 0.1)
        with pytest.raises(ValueError, match=r"eta of shape \(2, 3\) does not match xi of shape \(2, 1\)"):
            coupled_trajectory(end_cfg, 0, -1, 1, xi, eta)

    def test_blocks_of_the_joint_jacobians(self, engine_end, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        reports = validate_jacobians(engine_end, 1, xi, eta)
        sol = solution_jacobian(engine_end.sys, 4, 1, xi, eta, engine_end.solve)
        assert_allclose(sol[2:, :2], 0.0, atol=0)  # y does not depend on xi
        assert_allclose(reports["d_x2_dxi"].analytic, sol[:2, :2], atol=0)
        assert_allclose(reports["d_x2_deta"].analytic, sol[:2, 2:], atol=0)
        assert_allclose(reports["d_y_deta"].analytic, sol[2:, 2:], atol=0)
        b = barh_jacobian(engine_end, 1, xi, eta)[0]
        assert_allclose(reports["d_barh_dxi"].analytic, b[:, :2], atol=0)
        assert_allclose(reports["d_barh_deta"].analytic, b[:, 2:], atol=0)
        r = h_jacobian(engine_end, 1, xi, eta)[0]
        assert_allclose(reports["d_h_dxi"].analytic, r[:, :2], atol=0)
        assert_allclose(reports["d_h_deta"].analytic, r[:, 2:], atol=0)

    def test_rel_error_definition(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])
        rep = jacobian_report(a, lambda v: a @ v + 1e-3, np.zeros(2), 1e-5)
        # rel_error = |A - FD|_F / max(1, |A|_F); the constant offset cancels
        assert rep.rel_error <= 1e-9


def reference_jacobian_rows(cfg, sys):
    """The derivatives phase one probe at a time: its (kind, n, probe,
    fd_step, rel_error) rows and its (n, probe) errors, raised or returned."""
    rng = np.random.default_rng(cfg.seed + 1)
    grid = probe_grid(sys.space.dim_x + sys.space.dim_y, cfg.probes_per_axis,
                      cfg.probe_extent, rng)
    if grid.shape[0] > cfg.jacobian_probe_cap:
        grid = grid[np.sort(rng.choice(grid.shape[0], size=cfg.jacobian_probe_cap,
                                       replace=False))]
    engine = _engine(cfg, sys)
    dx = sys.space.dim_x
    rows, errors = [], []
    for n in sorted({cfg.n_min, (cfg.n_min + cfg.n_max) // 2, cfg.n_max}):
        for probe in grid:
            try:
                reports = validate_jacobians(engine, n, probe[:dx], probe[dx:], fd_step=cfg.fd_step)
            except NonautolinError:
                reports = "raised"
            if isinstance(reports, str):
                errors.append((n, list(probe)))
                continue
            rows += [(kind, n, list(probe), rep.fd_step, rep.rel_error)
                     for kind, rep in reports.items()]
    return rows, errors


class TestDerivativesPhase:
    @pytest.mark.parametrize("system,params,cap", [
        ("ex1", {"gamma_scale": 0.5}, 4),
        ("end_cfg", {"gamma_scale": 0.9}, 3),
    ])
    def test_matches_per_probe_reference(self, system, params, cap):
        cfg = RunConfig(system=system, system_params=params, n_min=-2, n_max=2,
                        jacobian_probe_cap=cap)
        sys = build_system(cfg)
        table, ok = phase_derivatives(cfg, _engine(cfg, sys))
        ref_rows, ref_errors = reference_jacobian_rows(cfg, sys)
        assert ok and not ref_errors and not table["errors"]
        got = table["rows"]
        assert [(r["kind"], r["n"], r["probe"]) for r in got] == [r[:3] for r in ref_rows]
        assert [r["fd_step"] for r in got] == [r[3] for r in ref_rows]
        assert_allclose([r["rel_error"] for r in got], [r[4] for r in ref_rows],
                        rtol=0, atol=1e-8)

    def test_a_coupling_that_blows_up_fails_only_the_probes_past_it(self):
        # past |x| = 2 the coupling is NaN, and A = Id with sum gamma < 0.2
        # keeps every walk within 0.5 of its probe: the probes beyond 2.5
        # get an error naming their non-finite blocks from the one batched
        # call of each n, and the others keep rows that match the phase run
        # one probe at a time
        cfg = RunConfig(system="remm", system_params={"gamma_scale": 0.2}, n_min=-1, n_max=1,
                        probes_per_axis=3, probe_extent=4.0, jacobian_probe_cap=9)
        sys = blowup_system(2.0, "remm", gamma_scale=0.2)
        table, ok = phase_derivatives(cfg, _engine(cfg, sys))
        ref_rows, ref_errors = reference_jacobian_rows(cfg, sys)
        inside = {tuple(p) for _, _, p, *_ in ref_rows}
        assert len(inside) == 1 and all(np.max(np.abs(p)) < 1.5 for p in inside)
        assert len(ref_errors) == 3 * 8 and all(np.max(np.abs(p)) > 2.5 for _, p in ref_errors)
        assert [(e["n"], e["probe"]) for e in table["errors"]] == ref_errors
        assert all(e["error"].startswith(f"non-finite Jacobian blocks at n={e['n']}: ")
                   for e in table["errors"])
        got = table["rows"]
        assert [(r["kind"], r["n"], r["probe"]) for r in got] == [r[:3] for r in ref_rows]
        assert_allclose([r["rel_error"] for r in got], [r[4] for r in ref_rows],
                        rtol=0, atol=1e-8)
        assert not ok

    def test_one_h_solve_per_n(self, monkeypatch):
        # the h solve of each n is its one smooth h stencil, over the 4
        # probes and their 4 * 2 * 4 stencil points; no other h_detailed
        # call is made
        stencils = []
        h_detailed = ConjugacyEngine.h_detailed

        def counted(self, n, xi, eta, **kwargs):
            stencils.append((n, xi.shape[1], kwargs))
            return h_detailed(self, n, xi, eta, **kwargs)

        monkeypatch.setattr(ConjugacyEngine, "h_detailed", counted)
        cfg = RunConfig(system="end_cfg", system_params={"gamma_scale": 0.9}, n_min=-2,
                        n_max=2, jacobian_probe_cap=4)
        table, ok = phase_derivatives(cfg, _engine(cfg, build_system(cfg)))
        assert ok
        assert all(kw == {"smooth": True} for _, _, kw in stencils)
        for n in (-2, 0, 2):
            mine = [width for m, width, _ in stencils if m == n]
            assert mine == [4 + 4 * 2 * 4]
        assert [m for m, _, _ in stencils] == sorted(m for m, _, _ in stencils)
        assert len(table["rows"]) == 3 * 4 * 7
        # emo has no contraction certificate: the error does not depend on
        # the probe, so it is listed for every probe with no h solve at all
        stencils.clear()
        cfg = RunConfig(system="emo", system_params={"c": 0.01}, n_min=0, n_max=0,
                        jacobian_probe_cap=4, force=True)
        table, ok = phase_derivatives(cfg, _engine(cfg, build_system(cfg)))
        assert not ok and not table["rows"] and stencils == []
        assert len(table["errors"]) == 4
        assert len({e["error"] for e in table["errors"]}) == 1
        assert "contraction" in table["errors"][0]["error"]

    def test_per_probe_fallback_on_error(self, monkeypatch):
        # h reaches its cap at n = 0: the one batched call of that n raises
        # NoConvergence, which is listed once for each probe, naming it,
        # with no call per probe; the other n keep every row
        import nonautolin.cli as cli

        validate = cli.validate_jacobians
        calls = []

        def counted(engine, n, xi, eta, **kwargs):
            calls.append((n, np.ndim(xi)))
            return validate(engine, n, xi, eta, **kwargs)

        monkeypatch.setattr(cli, "validate_jacobians", counted)
        cfg = RunConfig(system="ex1", system_params={"gamma_scale": 0.5}, n_min=-1, n_max=1,
                        jacobian_probe_cap=3)
        engine = _engine(cfg, build_system(cfg))
        h_window = engine.h_window
        engine.h_window = lambda n: (h_window(n)[0], 1) if n == 0 else h_window(n)
        table, ok = phase_derivatives(cfg, engine)
        assert calls == [(-1, 2), (0, 2), (1, 2)]
        assert not ok
        probes = list(dict.fromkeys(tuple(r["probe"]) for r in table["rows"]))
        assert len(probes) == 3
        assert [(e["n"], tuple(e["probe"])) for e in table["errors"]] == [(0, p) for p in probes]
        assert len({e["error"] for e in table["errors"]}) == 1
        assert table["errors"][0]["error"].startswith(
            "h fixed point at n=0: no convergence after 1 iterations")
        kinds = ["d_x2_dxi", "d_barh_dxi", "d_h_dxi"]
        assert [(r["n"], tuple(r["probe"]), r["kind"]) for r in table["rows"]] == [
            (n, p, k) for n in (-1, 1) for p in probes for k in kinds
        ]
        assert all(r["rel_error"] <= cfg.jacobian_threshold for r in table["rows"])

    def test_derivative_window_error_is_listed_per_probe(self, monkeypatch):
        # a deta envelope too slow for the window cap: the bar_h derivative
        # window raises before any walk, and every probe lists that error
        import nonautolin.derivatives as der

        walks = []
        monkeypatch.setattr(ConjugacyEngine, "h_detailed",
                            lambda *a, **kw: walks.append("h_detailed"))
        monkeypatch.setattr(der, "coupled_trajectory",
                            lambda *a, **kw: walks.append("coupled_trajectory"))
        cfg = RunConfig(system="end_cfg", system_params={"gamma_scale": 0.9}, n_min=0,
                        n_max=0, jacobian_probe_cap=3)
        sys = build_system(cfg)
        sys = dataclasses.replace(sys, envelopes=dataclasses.replace(
            sys.envelopes, deta=lambda n: GeometricTail(1e300, 0.999)))
        table, ok = phase_derivatives(cfg, _engine(cfg, sys))
        assert not ok and not table["rows"] and walks == []
        assert len(table["errors"]) == 3
        assert len({tuple(e["probe"]) for e in table["errors"]}) == 3
        assert all(e["n"] == 0 and "series window at n=0 exhausted" in e["error"]
                   for e in table["errors"])

    def test_singular_jacobians_are_listed_errors(self, monkeypatch):
        # a driver Jacobian that cannot be inverted on the backward steps,
        # and Id + d bar_h/du that cannot be inverted in the resolvent, end
        # in SingularOperatorError, which the phase lists per probe from its
        # one validate_jacobians call
        import nonautolin.cli as cli

        calls = []
        validate = cli.validate_jacobians
        monkeypatch.setattr(cli, "validate_jacobians",
                            lambda *a, **kw: calls.append(a[1]) or validate(*a, **kw))
        cfg = RunConfig(system="end_cfg", system_params={"gamma_scale": 0.9}, n_min=0,
                        n_max=0, jacobian_probe_cap=3)
        sys = build_system(cfg)
        sys = dataclasses.replace(sys, g=dataclasses.replace(
            sys.g, jac=lambda n, y: np.zeros((y.shape[1], 2, 2))))
        table, ok = phase_derivatives(cfg, _engine(cfg, sys))
        assert calls == [0]
        assert not ok and not table["rows"]
        assert [e["error"] for e in table["errors"]] == [
            str(SingularOperatorError(-1, "Dg_k not invertible: Singular matrix"))] * 3
        b = np.concatenate([-np.eye(2), np.ones((2, 2))], axis=1)[None]
        with pytest.raises(SingularOperatorError) as err:
            _resolvent(b, 2, 5)
        assert err.value.index == 5


class TestNonlinearDriver:
    """A driver whose Jacobian varies with the state: covers the
    Newton-inverted backward driver chain end to end, on windows fitted under
    the system's derived envelopes."""

    @pytest.fixture
    def sys_nl(self):
        from .conftest import nonlinear_driver_system

        return nonlinear_driver_system()

    @pytest.fixture
    def engine_nl(self, sys_nl):
        return cli_engine(sys_nl)

    def test_driver_inverse_is_exact(self, sys_nl, rng):
        for _ in range(20):
            y = rng.uniform(-2, 2, 2)
            z = sys_nl.g.eval(0, y)
            back = sys_nl.g.eval_inv(0, z)
            assert np.max(np.abs(back - y)) <= 1e-12

    def test_d_y_deta_fd_both_directions(self, sys_nl, rng):
        eta = rng.uniform(-1, 1, 2)
        for k in (5, -5):
            rep = jacobian_report(
                y_deta(sys_nl, k, 0, eta),
                lambda z: evolve_driver(sys_nl, k, 0, z),
                eta,
                1e-6,
            )
            assert rep.rel_error <= 1e-6, k

    def test_d_x2_deta_fd_both_directions(self, sys_nl, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        for k in (4, -4):
            rep = jacobian_report(
                x2_deta(sys_nl, k, 0, xi, eta),
                lambda z: evolve_coupled(sys_nl, k, 0, xi, z),
                eta,
                1e-6,
            )
            assert rep.rel_error <= 1e-5, k

    def test_certification_under_derived_envelopes(self, sys_nl):
        from nonautolin import certify

        rep = certify(sys_nl, n_range=(-4, 4), window_halfwidth=30, probes=16)
        assert rep.basic_ok
        assert rep.advanced_series_ok
        assert all(rep.ac3.values())

    def test_full_jacobian_set_on_fitted_windows(self, engine_nl, rng):
        xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        reports = validate_jacobians(engine_nl, 0, xi, eta)
        assert len(reports) == 7
        for kind, rep in reports.items():
            assert rep.rel_error <= 1e-4, kind

    def test_derivative_windows_fitted_once_per_n(self, engine_nl, rng, monkeypatch):
        # one engine fits the dxi and deta windows once per n, however many
        # passes read them
        fits, fit = [], ConjugacyEngine._fit_window

        def counted(self, n, env, tol, sides):
            if "derivative_window" in sides.__qualname__:
                fits.append(n)
            return fit(self, n, env, tol, sides)

        monkeypatch.setattr(ConjugacyEngine, "_fit_window", counted)
        xi, eta = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (2, 4))
        for n in (-2, 0, 2):
            validate_jacobians(engine_nl, n, xi, eta)
        assert fits == [-2, -2, 0, 0, 2, 2]  # dxi and deta, once per n

    def test_round_trip_on_fitted_windows(self, engine_nl, rng):
        tol = engine_nl.fp_tol + 10 * engine_nl.series_tol
        for _ in range(5):
            xi, eta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert np.max(engine_nl.residual_tables([0], xi, eta, steps=0)[0].inverse) <= tol
