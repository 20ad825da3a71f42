"""Output checks made apart from the program.

`row_checks` holds every report row to the thresholds the report's own
config names.  The `oracle_*` functions recompute sampled outputs with code
of their own: closed-form Green kernels, Newton backward steps and
`math.fsum` sums over windows wider than the program's, or central
differences of the public `ConjugacyEngine.bar_h`.  From the program they
take only the system definition: the declared coupling constants
`f.gamma`/`f.mu` of a built system, and for the finite differences the
engine under test.  Each check returns a list of (name, ok, detail) items,
one per operation.
"""

from __future__ import annotations

import math

import numpy as np

from nonautolin.catalog import THETA_CAP, ExampleParams, make_system
from nonautolin.conjugacy import ConjugacyEngine
from nonautolin.evolution import SolveOptions

EPS = np.finfo(float).eps


def _system(report: dict):
    cfg = report["config"]
    params = ExampleParams(variant=cfg["system"], **cfg["system_params"])
    return params, make_system(params)


def row_checks(report: dict) -> list:
    """One item per report row, per table error and for the verdict."""
    cfg = report["config"]
    out = [("verdict", report["verdict"] == "pass", report["verdict"])]
    hyp = report["hypothesis"]
    if hyp is not None:
        out.append(("hypothesis.basic", bool(hyp["basic_ok"] and hyp["bc1_sampled_ok"]
                                             and hyp["advanced_error"] is None), ""))
        for n, pair in hyp["ac2"].items():
            ok = (pair["k_series"]["verdict"] == "converged"
                  and pair["j_series"]["verdict"] == "converged"
                  and hyp["ac3"][n]
                  and hyp["ac9"].get(n, {"verdict": "converged"})["verdict"] == "converged")
            out.append((f"hypothesis.n={n}", bool(ok), ""))
    limits = {
        "inverse": cfg["inverse_threshold"] or cfg["fp_tol"] + 10.0 * cfg["series_tol"],
        "equivariance": cfg["equivariance_threshold"],
    }
    for section, limit in limits.items():
        table = report[section]
        if table is None:
            continue
        out += [(f"{section}.error", False, str(e)) for e in table["errors"]]
        out += [(f"{section}.row", r["residual"] <= limit, r["residual"]) for r in table["rows"]]
    table = report["jacobians"]
    if table is not None:
        out += [("jacobians.error", False, str(e)) for e in table["errors"]]
        out += [("jacobians.row", r["rel_error"] <= cfg["jacobian_threshold"], r["rel_error"])
                for r in table["rows"]]
    return out


def accuracy(report: dict) -> dict:
    """Largest residuals and Jacobian error the report states."""
    out = {}
    for key, section, field in (("max_inverse_residual", "inverse", "max_residual"),
                                ("max_equivariance_residual", "equivariance", "max_residual"),
                                ("max_jacobian_rel_error", "jacobians", "max_rel_error")):
        if report[section] is not None:
            out[key] = report[section][field]
    return out


# -- ex1: bar_h from its definition ------------------------------------------------

EX1_HALFWIDTH = 96  # the program's windows stay under 40 at series_tol 1e-9


def _ex1_bar_h(sys, lam: float, ns: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """bar_h(n_i, xi_i) for columns i of xi (shape (2, b)).

    ex1 has A = diag(e^lam, e^-lam), P = diag(0, 1), so
      G(n, k+1) = diag(-e^{-lam (k+1-n)}, 0)   for k >= n,
                = diag(0, e^{-lam (n-k-1)})     for k < n,
    and f_k(x) = gamma_k tanh(x).  Forward steps are explicit; backward steps
    solve a u + gamma tanh(u) = x per component by Newton's method."""
    a = np.array([[math.exp(lam)], [math.exp(-lam)]])
    w = EX1_HALFWIDTH
    b = xi.shape[1]
    gam = np.array([[sys.f.gamma(int(n) + d) for n in ns] for d in range(-w, w + 1)])
    terms0 = [[] for _ in range(b)]
    terms1 = [[] for _ in range(b)]
    x = xi.copy()
    for d in range(0, w + 1):  # k = n + d >= n
        g = gam[d + w]
        fx = g * np.tanh(x)
        weight = math.exp(-lam * (d + 1))
        for i in range(b):
            terms0[i].append(weight * fx[0, i])
        x = a * x + fx
    x = xi.copy()
    for d in range(1, w + 1):  # k = n - d < n
        g = gam[w - d]
        u = x / a
        for _ in range(100):
            t = np.tanh(u)
            step = (a * u + g * t - x) / (a + g * (1.0 - t * t))
            u = u - step
            if np.all(np.abs(step) <= 4.0 * EPS * np.maximum(1.0, np.abs(u))):
                break
        x = u
        fx = g * np.tanh(x)
        weight = math.exp(-lam * (d - 1))
        for i in range(b):
            terms1[i].append(-weight * fx[1, i])
    return np.array([[math.fsum(terms0[i]) for i in range(b)],
                     [math.fsum(terms1[i]) for i in range(b)]])


def oracle_ex1(report: dict, rng: np.random.Generator, samples: int = 48) -> list:
    params, sys = _system(report)
    cfg = report["config"]
    series_tol, fp_tol = cfg["series_tol"], cfg["fp_tol"]
    out = []

    rows = report["equivariance"]["rows"]
    pick = [rows[i] for i in rng.choice(len(rows), size=min(samples, len(rows)), replace=False)]
    ns = np.array([r["n"] for r in pick])
    xi = np.array([r["probe"] for r in pick]).T
    ref = _ex1_bar_h(sys, params.lam, ns, xi)
    for i, r in enumerate(pick):
        got = np.array(r["value"])
        err = float(np.max(np.abs(got - ref[:, i])))
        limit = series_tol + 64.0 * EPS * max(1.0, float(np.max(np.abs(ref[:, i]))))
        out.append(("ex1.bar_h_reference", err <= limit, err))

    rows = report["inverse"]["rows"]
    pick = [rows[i] for i in rng.choice(len(rows), size=min(samples, len(rows)), replace=False)]
    ns = np.array([r["n"] for r in pick])
    h = np.array([r["value"] for r in pick]).T
    xi = np.array([r["probe"] for r in pick]).T
    ref = _ex1_bar_h(sys, params.lam, ns, xi + h)
    limit = fp_tol + 10.0 * series_tol
    for i in range(len(pick)):
        err = float(np.max(np.abs(h[:, i] + ref[:, i])))
        out.append(("ex1.h_fixed_point", err <= limit, err))
    return out


# -- ex2: admissibility sums from the closed-form Green norms ------------------------


def oracle_ex2(report: dict, rng: np.random.Generator) -> list:
    """ex2 has |G(m, q)| = theta_q / theta_m for m >= q and 1 for m < q, with the
    ramp theta_n = min(T^max(n, 0), THETA_CAP), and |A_n^{-1}| = theta_{n+1}/theta_n."""
    params, sys = _system(report)
    cfg = report["config"]
    hyp = report["hypothesis"]
    lo, hi, w = cfg["n_min"], cfg["n_max"], cfg["window_halfwidth"]
    big_t = params.theta_ratio

    def theta(n: int) -> float:
        return min(big_t ** max(n, 0), THETA_CAP)

    def g_norm(m: int, q: int) -> float:
        return theta(q) / theta(m) if m >= q else 1.0

    bc2 = max(math.fsum(g_norm(m, q) * sys.f.mu(q - 1) for q in range(m - w, m + w + 1))
              for m in range(lo, hi + 1))
    bc3 = max(math.fsum(g_norm(m, q) * sys.f.gamma(q - 1) for q in range(m - w, m + w + 1))
              for m in range(lo, hi + 1))
    margin = max(theta(n + 1) / theta(n) * sys.f.gamma(n) for n in range(lo, hi + 1))

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(abs(b), 1e-300)

    tol = 1e-13
    return [
        ("ex2.bc2_partial_sum", rel(hyp["bc2"]["partial_sum"], bc2) <= tol,
         rel(hyp["bc2"]["partial_sum"], bc2)),
        ("ex2.bc3_partial_sum", rel(hyp["bc3"]["partial_sum"], bc3) <= tol,
         rel(hyp["bc3"]["partial_sum"], bc3)),
        ("ex2.n_bound_covers_sum", hyp["n_bound"] >= bc2, hyp["n_bound"] - bc2),
        ("ex2.q_bound_covers_sum", hyp["q_bound"] >= bc3, hyp["q_bound"] - bc3),
        ("ex2.bc4_worst_margin", rel(hyp["bc4_worst_margin"], margin) <= 4.0 * EPS,
         rel(hyp["bc4_worst_margin"], margin)),
        ("ex2.ac2_converged",
         all(p[s]["verdict"] == "converged" for p in hyp["ac2"].values()
             for s in ("k_series", "j_series")) and len(hyp["ac2"]) == hi - lo + 1, ""),
    ]


# -- end_cfg: rotation Jacobians and bar_h finite differences ---------------------------

FD_STEP = 1e-5


def oracle_end_cfg(report: dict, rng: np.random.Generator, samples: int = 12) -> list:
    _, sys = _system(report)
    cfg = report["config"]
    rows = report["jacobians"]["rows"]
    out = []
    # the three-step Jacobian of a planar rotation is a rotation: Frobenius norm sqrt(2)
    for r in rows:
        if r["kind"] == "d_y_deta":
            err = abs(r["analytic_norm"] - math.sqrt(2.0)) / math.sqrt(2.0)
            out.append(("end_cfg.d_y_deta_norm", err <= 16.0 * EPS, err))

    # the engine the derivatives phase uses: same window cap, tolerances and solve
    engine = ConjugacyEngine(
        sys,
        window_halfwidth=max(cfg["window_halfwidth"] * 4, 64),
        series_tol=cfg["series_tol"],
        fp_tol=cfg["fp_tol"],
        solve=SolveOptions(fixed_point_tol=3e-13, max_iters=400),
        advanced_halfwidth=cfg["window_halfwidth"],
    )
    dx = sys.space.dim_x
    barh_rows = [r for r in rows if r["kind"] == "d_barh_dxi"]
    for i in rng.choice(len(barh_rows), size=min(samples, len(barh_rows)), replace=False):
        r = barh_rows[i]
        n = r["n"]
        p = np.array(r["probe"])
        xi, eta = p[:dx], p[dx:]
        win = engine.series_window(n, cfg["series_tol"]).halfwidth
        cols = []
        for j in range(dx):
            e = np.zeros(dx)
            e[j] = FD_STEP
            plus = engine.bar_h(n, xi + e, eta, window=win)
            minus = engine.bar_h(n, xi - e, eta, window=win)
            cols.append((plus - minus) / (2.0 * FD_STEP))
        fd_norm = float(np.linalg.norm(np.stack(cols, axis=1)))
        # the program's own scale: at n far in the past the norm is ~1e-11,
        # below the rounding floor of any finite difference
        err = abs(fd_norm - r["analytic_norm"]) / max(1.0, r["analytic_norm"])
        out.append(("end_cfg.d_barh_dxi_fd", err <= 1e-5, err))
    return out
