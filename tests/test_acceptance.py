"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; the runtime budgets are asserted
with `time.perf_counter`.
"""

import json
import math
import time

import numpy as np

from nonautolin import (
    CONVERGED,
    DIVERGENT,
    ConjugacyEngine,
    SolveOptions,
    backward_step_detailed,
    certify,
    green_span,
    operator_norm,
    system_by_name,
    validate_jacobians,
)
from nonautolin.cli import main, probe_grid
from nonautolin.derivatives import barh_jacobian

from .reference import evolve_coupled, evolve_driver, lip_C, lip_D, lip_M

LN2 = math.log(2.0)


def report_line(num, name, started):
    print(f"\nACCEPTANCE {num} [{name}]: PASS ({time.perf_counter() - started:.2f}s)")


def grid_for(sys, per_axis=5, extent=1.0, seed=0):
    rng = np.random.default_rng(seed)
    g = probe_grid(sys.space.dim_x + sys.space.dim_y, per_axis, extent, rng)
    dx = sys.space.dim_x
    return g[:, :dx].T.copy(), g[:, dx:].T.copy()


def test_criterion_1_green_kernel_closed_forms():
    started = time.perf_counter()
    for lam in (0.5, LN2, 1.0):
        s = system_by_name("ex1", lam=lam, gamma_scale=0.9)
        for n in range(-20, 21):
            span = green_span(s, n, -20, 20)
            for q in range(-20, 21):
                got = operator_norm(span[q + 20], "max")
                assert abs(got - math.exp(-lam * abs(n - q))) <= 1e-12
    for ratio in (1.0, 2.0):
        s = system_by_name("ex2", theta_ratio=ratio, rotation_angle=0.4, gamma_scale=0.9)

        def theta(j):
            return 1.0 if j <= 0 or ratio == 1.0 else ratio**j

        for n in range(-20, 21):
            span = green_span(s, n, -20, 20)
            for q in range(-20, 21):
                got = operator_norm(span[q + 20], "euclidean")
                expect = theta(q) / theta(n) if n >= q else 1.0
                assert abs(got - expect) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.2f}s >= 1s"
    report_line(1, "green kernel closed forms", started)


def test_criterion_2_hypothesis_chains():
    started = time.perf_counter()
    for name, kwargs in (
        ("ex1", dict(lam=LN2, gamma_scale=0.9)),
        ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)),
    ):
        s = system_by_name(name, **kwargs)
        rep = certify(s, (-10, 10), 40, probes=32)
        assert rep.bc3.verdict == CONVERGED
        assert rep.q_bound < 1.0
        for n in range(-10, 11):
            k_est, j_est = rep.ac2[n]
            assert k_est.verdict == CONVERGED and j_est.verdict == CONVERGED
            assert rep.ac3_bound[n] < 1.0, f"{name}: contraction fails at n={n}"
    remm = certify(system_by_name("remm", gamma_scale=1.0), (-10, 10), 40, probes=32)
    for n in range(-10, 11):
        k_est, j_est = remm.ac2[n]
        assert k_est.verdict == CONVERGED and math.isfinite(k_est.bound)
        assert j_est.verdict == CONVERGED and math.isfinite(j_est.bound)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.2f}s >= 10s"
    report_line(2, "hypothesis chains certified", started)


def test_criterion_3_divergence_detection():
    started = time.perf_counter()
    for c in (1e-3, 1e-2, 0.1):
        for lam in (0.1, 1.0):
            s = system_by_name("emo", lam=lam, c=c)
            for n in (-10, -5, 0, 5, 10):
                rep = certify(s, (n, n), 50, probes=0)
                assert rep.ac2[n][1].verdict == DIVERGENT, f"c={c}, lam={lam}, n={n}"
                assert not rep.ac3_bound[n] < 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 3 runtime {elapsed:.2f}s >= 5s"
    report_line(3, "divergence detection", started)


def test_criterion_4_backward_solver():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    systems = [
        system_by_name("ex1", lam=LN2, gamma_scale=0.9),
        system_by_name("ex2", theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9),
        system_by_name("remm", gamma_scale=1.0),
        system_by_name("end_cfg", gamma_scale=0.9),
        system_by_name("emo", lam=0.5, c=0.05),
    ]
    probes_per_system = 200
    for s in systems:
        dx, dy = s.space.dim_x, s.space.dim_y
        for _ in range(probes_per_system):
            j = int(rng.integers(-10, 11))
            xi = rng.uniform(-2.0, 2.0, dx)
            eta = rng.uniform(-2.0, 2.0, dy)
            res = backward_step_detailed(s, j, xi, eta)
            fwd = s.a.matrix(j) @ res.value + np.asarray(s.f.eval(j, res.value, eta))
            assert np.max(np.abs(fwd - xi)) <= 1e-10
            margin = s.contraction_margin(j)
            ratios = [
                b / a
                for a, b in zip(res.residuals, res.residuals[1:])
                if a > 1e-12
            ]
            assert all(r <= margin + 0.01 for r in ratios)
    report_line(4, "backward solver identity and rate", started)


def test_criterion_5_conjugacy_identities():
    started = time.perf_counter()
    series_tol, fp_tol = 1e-9, 1e-10
    budget = fp_tol + 10.0 * series_tol
    for name, kwargs in (
        ("ex1", dict(lam=LN2, gamma_scale=0.5)),
        ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.5)),
    ):
        s = system_by_name(name, **kwargs)
        eng = ConjugacyEngine(s, series_tol=series_tol, fp_tol=fp_tol)
        xi_b, eta_b = grid_for(s, per_axis=5)
        for n in (-5, 0, 5):
            res = eng.residual_tables([n], xi_b, eta_b, steps=0)[n]
            assert float(np.max(res.inverse)) <= budget, f"{name} round trip at n={n}"
        res = eng.residual_tables([0], xi_b, eta_b, steps=10)[0]
        assert float(np.max(np.maximum(res.forward, res.dual))) <= 1e-7, name

    # uncoupled configuration: identities hold to machine precision
    s0 = system_by_name("ex1", lam=LN2, gamma_scale=0.0)
    eng0 = ConjugacyEngine(s0, series_tol=series_tol, fp_tol=fp_tol)
    xi_b, eta_b = grid_for(s0, per_axis=5)
    res = eng0.residual_tables([0], xi_b, eta_b, steps=0)[0]
    assert float(np.max(res.inverse)) <= 1e-12
    res = eng0.residual_tables([0], xi_b, eta_b, steps=10)[0]
    assert float(np.max(np.maximum(res.forward, res.dual))) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 5 runtime {elapsed:.2f}s >= 60s"
    report_line(5, "conjugacy inverse + equivariance", started)


def test_criterion_6_lipschitz_envelopes():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    ex1 = system_by_name("ex1", lam=LN2, gamma_scale=0.9)
    end = system_by_name("end_cfg", gamma_scale=0.9)
    slack = 1e-9
    # 500 first-variable pairs on ex1, 500 pairs on end_cfg (both variables)
    for _ in range(500):
        n = int(rng.integers(-4, 5))
        k = n + int(rng.integers(-8, 9))
        xi, zeta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        den = np.max(np.abs(xi - zeta))
        if den < 1e-12:
            continue
        a = evolve_coupled(ex1, k, n, xi, np.zeros(0))
        b = evolve_coupled(ex1, k, n, zeta, np.zeros(0))
        assert np.max(np.abs(a - b)) <= lip_C(ex1, k, n) * den + slack
    for _ in range(500):
        n = int(rng.integers(-4, 5))
        k = n + int(rng.integers(-8, 9))
        xi = rng.uniform(-1, 1, 2)
        e1, e2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        y1 = evolve_driver(end, k, n, e1)
        y2 = evolve_driver(end, k, n, e2)
        den = np.linalg.norm(e1 - e2)
        assert np.linalg.norm(y1 - y2) <= lip_D(end, k, n) * den + slack
        a = evolve_coupled(end, k, n, xi, e1)
        b = evolve_coupled(end, k, n, xi, e2)
        assert np.linalg.norm(a - b) <= lip_M(end, k, n) * den + slack
    report_line(6, "lipschitz envelopes", started)


def test_criterion_7_smoothness_validation():
    started = time.perf_counter()
    solve = SolveOptions(fixed_point_tol=3e-13, max_iters=400)
    rng = np.random.default_rng(31)
    cases = (
        ("ex1", dict(lam=LN2, gamma_scale=0.9)),
        ("ex2", dict(theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)),
        ("end_cfg", dict(gamma_scale=0.9)),
    )
    for name, kwargs in cases:
        s = system_by_name(name, **kwargs)
        eng = ConjugacyEngine(s, series_tol=1e-9, fp_tol=1e-10, solve=solve)
        dx, dy = s.space.dim_x, s.space.dim_y
        eye = np.eye(dx)
        for n in (-3, 0, 3):
            contraction = eng.contraction(n)
            for _ in range(6):
                xi = rng.uniform(-1, 1, dx)
                eta = rng.uniform(-1, 1, dy)
                reports = validate_jacobians(eng, n, xi, eta)
                for kind, rep in reports.items():
                    assert rep.rel_error <= 1e-4, f"{name} {kind} at n={n}"
                # certified norm bound on the first-variable series derivative
                b = barh_jacobian(eng, n, xi, eta)[0][:, :dx]
                assert operator_norm(b, s.space.norm_kind) <= contraction + 1e-10
                # resolvent consistency of the fixed-point derivative
                u = eng.h(n, xi, eta)
                b_shift = barh_jacobian(eng, n, xi + u, eta)[0][:, :dx]
                r = -np.linalg.solve(eye + b_shift, b_shift)
                assert np.max(np.abs((eye + r) @ (eye + b_shift) - eye)) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 7 runtime {elapsed:.2f}s >= 120s"
    report_line(7, "smoothness validation", started)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    args = [
        "report", "--system", "ex1", "--gamma-scale", "0.5",
        "--n-min", "-2", "--n-max", "2", "--seed", "42",
    ]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep_a["verdict"] == rep_b["verdict"]
    for section in ("equivariance", "inverse"):
        rows_a = rep_a[section]["rows"]
        rows_b = rep_b[section]["rows"]
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["probe"] == rb["probe"]
            assert abs(ra["residual"] - rb["residual"]) <= 1e-12
    rep_a.pop("timing")
    rep_b.pop("timing")
    assert rep_a == rep_b
    report_line(8, "deterministic reports", started)
