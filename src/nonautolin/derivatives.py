"""Analytic first derivatives of the solution maps and conjugacies, plus the
finite-difference validation harness.

Solution-map Jacobians are ordered products of per-step factors along the
trajectory: forward steps contribute A_j + df_j/du, backward steps contribute
L_j = (A_j + df_j/du)^{-1} (invertible whenever |A_j^{-1}| gamma_j < 1).
Second-variable Jacobians follow the chain rule, with the backward factor
Ltilde_j = -L_j df_j/dv.

The conjugacy derivatives are truncated series sharing the engine's Green
rows but with their own tail envelopes (the mu-decay that controls the value
series says nothing about derivative tails):

    d bar_h / dxi  = - sum_k G(n,k+1) (df_k/du) d x2(k,n)/dxi
    d bar_h / deta = - sum_k G(n,k+1) [ (df_k/du) d x2/deta + (df_k/dv) d y/deta ]

and the fixed-point derivatives come from the resolvent formulas

    R      = -(Id + d bar_h/du)^{-1} d bar_h/du      (at xi + h(n, xi, eta))
    Rtilde = -(Id + d bar_h/du)^{-1} d bar_h/dv      (same base point),

well-conditioned because |d bar_h/du| < 1 under the certified contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conjugacy import ConjugacyEngine
from .errors import SingularOperatorError
from .evolution import (DEFAULT_SOLVE, SolveOptions, coupled_trajectory, evolve_coupled,
                        evolve_driver)
from .hypotheses import _advanced_terms, _envelope
from .system import SystemSpec, operator_norm


@dataclass
class JacobianReport:
    """Analytic vs central-finite-difference comparison at one probe point."""

    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_error: float
    fd_step: float


def fd_jacobian(fun: Callable, point, step: float) -> np.ndarray:
    """Central finite differences per coordinate: column i is
    (fun(p + step e_i) - fun(p - step e_i)) / (2 step)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = np.atleast_1d(np.asarray(point, dtype=float))
    cols = []
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = step
        fp = np.atleast_1d(np.asarray(fun(p + e), dtype=float))
        fm = np.atleast_1d(np.asarray(fun(p - e), dtype=float))
        cols.append((fp - fm) / (2.0 * step))
    if not cols:
        out_dim = np.atleast_1d(np.asarray(fun(p), dtype=float)).size
        return np.zeros((out_dim, 0))
    return np.stack(cols, axis=1)


def fd_jacobian_batch(fun_batch: Callable, point, step: float) -> np.ndarray:
    """Central differences with the whole +/- stencil evaluated in one
    batched call: fun_batch maps (dim, batch) columns to (out, batch)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = np.atleast_1d(np.asarray(point, dtype=float))
    d = p.size
    if d == 0:
        out = np.asarray(fun_batch(p.reshape(0, 1)), dtype=float)
        return np.zeros((out.shape[0], 0))
    stencil = np.repeat(p.reshape(d, 1), 2 * d, axis=1)
    for i in range(d):
        stencil[i, 2 * i] += step
        stencil[i, 2 * i + 1] -= step
    vals = np.asarray(fun_batch(stencil), dtype=float)
    return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * step)


def jacobian_report(analytic, fun: Callable, point, fd_step: float = 1e-6) -> JacobianReport:
    analytic = np.asarray(analytic, dtype=float)
    fd = fd_jacobian(fun, point, fd_step)
    rel = float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
    return JacobianReport(analytic, fd, rel, fd_step)


def best_jacobian_report(
    analytic, fun: Callable, point, fd_steps=(1e-5, 1e-6), good_enough: float = 1e-6
) -> JacobianReport:
    """Evaluate at several steps and keep the closest; separates
    finite-difference truncation error from genuine derivative bugs.
    Later steps are skipped once a report is already below `good_enough`."""
    best = None
    for s in fd_steps:
        rep = jacobian_report(analytic, fun, point, s)
        if best is None or rep.rel_error < best.rel_error:
            best = rep
        if best.rel_error <= good_enough:
            break
    return best


def _batch_report(analytic, fun_batch, point, fd_steps, good_enough: float = 1e-6) -> JacobianReport:
    analytic = np.asarray(analytic, dtype=float)
    best = None
    for s in fd_steps:
        fd = fd_jacobian_batch(fun_batch, point, s)
        rel = float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
        rep = JacobianReport(analytic, fd, rel, s)
        if best is None or rep.rel_error < best.rel_error:
            best = rep
        if best.rel_error <= good_enough:
            break
    return best


# -- solution-map derivatives -------------------------------------------------


def _backward_L(sys: SystemSpec, j: int, jx: np.ndarray) -> np.ndarray:
    """L_j = (A_j + df_j/du)^{-1}, with df_j/du = jx at the trajectory point."""
    sys.require_backward_margin(j)
    try:
        return np.linalg.inv(sys.a.matrix(j) + jx)
    except np.linalg.LinAlgError as exc:  # cannot occur under the margin; defensive
        raise SingularOperatorError(j, f"A_j + df/du not invertible: {exc}") from exc


def _tangents(sys: SystemSpec, states: dict, n: int, lo: int, hi: int, w0, v0):
    """Propagate the tangents (W, V) = (dx_k, dy_k) from (w0, v0) at time n.

    Yields (k, df_k/du, df_k/dv, W_k, V_k) for k = n, ..., hi, then for
    k = n - 1, ..., lo, along the coupled trajectory `states`.  Forward:
    W <- (A_k + df_k/du) W + df_k/dv V, V <- Dg_k V.  Backward:
    V <- Dg_k^{-1} V, W <- L_k (W - df_k/dv V).  Seed (Id, 0) differentiates
    in xi, (0, Id) in eta.
    """
    dy = sys.space.dim_y

    def jacs(k):
        x, y = states[k]
        jx = np.asarray(sys.f.jac_x(k, x, y), dtype=float)
        return y, jx, np.asarray(sys.f.jac_y(k, x, y), dtype=float)

    w, v = w0, v0
    for k in range(n, hi + 1):
        y, jx, jy = jacs(k)
        yield k, jx, jy, w, v
        if k < hi:
            w = (sys.a.matrix(k) + jx) @ w + jy @ v
            if dy:
                v = np.asarray(sys.g.jac(k, y), dtype=float) @ v
    w, v = w0, v0
    for k in range(n - 1, lo - 1, -1):
        y, jx, jy = jacs(k)
        if dy:
            v = np.linalg.inv(np.asarray(sys.g.jac(k, y), dtype=float)) @ v
        w = _backward_L(sys, k, jx) @ (w - jy @ v)
        yield k, jx, jy, w, v


def _seed(sys: SystemSpec, which: str) -> tuple[np.ndarray, np.ndarray]:
    """(W, V) at the base time: (Id, 0) for "dxi", (0, Id) for "deta"."""
    dx, dy = sys.space.dim_x, sys.space.dim_y
    if which == "dxi":
        return np.eye(dx), np.zeros((dy, dx))
    return np.zeros((dx, dy)), np.eye(dy)


def _d_x2(sys: SystemSpec, k: int, n: int, xi, eta, opts: SolveOptions, which: str) -> np.ndarray:
    eta = np.asarray(eta, dtype=float) if eta is not None else np.zeros(sys.space.dim_y)
    lo, hi = min(k, n), max(k, n)
    states = coupled_trajectory(sys, n, lo, hi, np.asarray(xi, dtype=float), eta, opts)
    return next(w for kk, _, _, w, _ in _tangents(sys, states, n, lo, hi, *_seed(sys, which))
                if kk == k)


def d_x2_dxi(sys: SystemSpec, k: int, n: int, xi, eta=None,
             opts: SolveOptions = DEFAULT_SOLVE) -> np.ndarray:
    """Jacobian of xi -> x2(k, n, xi, eta)."""
    return _d_x2(sys, k, n, xi, eta, opts, "dxi")


def d_y_deta(sys: SystemSpec, k: int, n: int, eta) -> np.ndarray:
    """Jacobian of eta -> y(k, n, eta): ordered product of driver Jacobians."""
    dy = sys.space.dim_y
    jac = np.eye(dy)
    y = np.asarray(eta, dtype=float)
    if dy == 0 or k == n:
        return jac
    if k > n:
        for j in range(n, k):
            jac = np.asarray(sys.g.jac(j, y), dtype=float) @ jac
            y = np.asarray(sys.g.eval(j, y), dtype=float)
    else:
        for j in range(n - 1, k - 1, -1):
            y = np.asarray(sys.g.eval_inv(j, y), dtype=float)
            jac = np.linalg.inv(np.asarray(sys.g.jac(j, y), dtype=float)) @ jac
    return jac


def d_x2_deta(sys: SystemSpec, k: int, n: int, xi, eta,
              opts: SolveOptions = DEFAULT_SOLVE) -> np.ndarray:
    """Jacobian of eta -> x2(k, n, xi, eta), recursive chain rule along the trajectory."""
    return _d_x2(sys, k, n, xi, eta, opts, "deta")


# -- conjugacy derivative series ----------------------------------------------


def _derivative_window(
    engine: ConjugacyEngine, n: int, which: str, tol: float
) -> tuple[int, float]:
    """(halfwidth, tail bound) for the dxi/deta derivative series at center n;
    without an envelope the window is fitted on the state-free bounding terms
    of the advanced conditions."""
    sys = engine.sys
    kind = sys.space.norm_kind

    def terms(k):
        row = engine.green_row(n, k)
        gn = {j + 1: operator_norm(row[j], kind) for j in range(n - k, n + k + 1) if j != n}
        return [_advanced_terms(sys, n, end, gn, which) for end in (n - k, n + k)]

    return engine._fit_window(n, _envelope(sys, which, n), tol, terms)


def _d_barh(engine: ConjugacyEngine, n: int, xi, eta, window: Optional[int], which: str):
    """- sum_k G(n,k+1) (df_k/du W_k + df_k/dv V_k) over the window, with
    (W, V) the tangents in xi ("dxi") or eta ("deta"); returns (matrix, tail
    bound, halfwidth)."""
    sys = engine.sys
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float) if eta is not None else np.zeros(sys.space.dim_y)
    if window is None:
        k_half, tail = _derivative_window(engine, n, which, engine.series_tol)
    else:
        k_half, tail = int(window), math.inf
    row = engine.green_row(n, k_half)
    lo, hi = n - k_half, n + k_half
    states = coupled_trajectory(sys, n, lo, hi, xi, eta, engine.solve)
    w0, v0 = _seed(sys, which)
    acc = np.zeros_like(w0)
    for k, jx, jy, w, v in _tangents(sys, states, n, lo, hi, w0, v0):
        acc += row[k] @ (jx @ w + jy @ v)
    return -acc, tail, k_half


def d_barh_dxi_detailed(
    engine: ConjugacyEngine, n: int, xi, eta=None, window: Optional[int] = None
) -> tuple[np.ndarray, float, int]:
    return _d_barh(engine, n, xi, eta, window, "dxi")


def d_barh_dxi(engine: ConjugacyEngine, n: int, xi, eta=None,
               window: Optional[int] = None) -> np.ndarray:
    return d_barh_dxi_detailed(engine, n, xi, eta, window)[0]


def d_barh_deta_detailed(
    engine: ConjugacyEngine, n: int, xi, eta=None, window: Optional[int] = None
) -> tuple[np.ndarray, float, int]:
    return _d_barh(engine, n, xi, eta, window, "deta")


def d_barh_deta(engine: ConjugacyEngine, n: int, xi, eta=None,
                window: Optional[int] = None) -> np.ndarray:
    return d_barh_deta_detailed(engine, n, xi, eta, window)[0]


def d_h_dxi(engine: ConjugacyEngine, n: int, xi, eta=None) -> np.ndarray:
    """R = -(Id + d bar_h/du)^{-1} d bar_h/du, evaluated at xi + h(n, xi, eta)."""
    u = engine.h(n, xi, eta)
    shifted = np.asarray(xi, dtype=float) + u
    b = d_barh_dxi(engine, n, shifted, eta)
    eye = np.eye(engine.sys.space.dim_x)
    return -np.linalg.solve(eye + b, b)


def d_h_deta(engine: ConjugacyEngine, n: int, xi, eta=None) -> np.ndarray:
    """Rtilde = -(Id + d bar_h/du)^{-1} d bar_h/dv, evaluated at xi + h(n, xi, eta)."""
    u = engine.h(n, xi, eta)
    shifted = np.asarray(xi, dtype=float) + u
    b = d_barh_dxi(engine, n, shifted, eta)
    c = d_barh_deta(engine, n, shifted, eta)
    eye = np.eye(engine.sys.space.dim_x)
    return -np.linalg.solve(eye + b, c)


# -- finite-difference validation wrappers -------------------------------------

FD_KINDS = ("d_x2_dxi", "d_x2_deta", "d_y_deta", "d_barh_dxi", "d_barh_deta",
            "d_h_dxi", "d_h_deta")


def validate_jacobians(
    engine: ConjugacyEngine,
    n: int,
    xi,
    eta=None,
    k: Optional[int] = None,
    fd_step: float = 1e-6,
    kinds=FD_KINDS,
    with_fallback_step: bool = True,
) -> dict[str, JacobianReport]:
    """Analytic-vs-FD reports for the requested derivative kinds at one probe.

    Evaluations seen by the finite differences are pinned (fixed series
    window, fixed fixed-point iteration count) so the sampled function is
    smooth across the stencil; each +/- stencil runs as one batched call.
    """
    sys = engine.sys
    dx, dy = sys.space.dim_x, sys.space.dim_y
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float) if eta is not None else np.zeros(dy)
    if k is None:
        k = n + 3
    opts = engine.solve
    steps = (fd_step * 10.0, fd_step) if with_fallback_step else (fd_step,)
    out: dict[str, JacobianReport] = {}

    def _cols(v, width):
        return np.repeat(np.asarray(v, dtype=float).reshape(-1, 1), width, axis=1)

    xi_for_eta = _cols(xi, 2 * dy) if dy else None
    eta_for_xi = _cols(eta, 2 * dx)

    if "d_x2_dxi" in kinds:
        out["d_x2_dxi"] = _batch_report(
            d_x2_dxi(sys, k, n, xi, eta, opts),
            lambda z: evolve_coupled(sys, k, n, z, eta_for_xi, opts),
            xi,
            steps,
        )
    if "d_x2_deta" in kinds:
        if dy:
            out["d_x2_deta"] = _batch_report(
                d_x2_deta(sys, k, n, xi, eta, opts),
                lambda z: evolve_coupled(sys, k, n, xi_for_eta, z, opts),
                eta,
                steps,
            )
        else:
            out["d_x2_deta"] = JacobianReport(
                np.zeros((dx, 0)), np.zeros((dx, 0)), 0.0, fd_step
            )
    if "d_y_deta" in kinds:
        out["d_y_deta"] = _batch_report(
            d_y_deta(sys, k, n, eta),
            lambda z: evolve_driver(sys, k, n, z),
            eta,
            steps,
        )
    if "d_barh_dxi" in kinds:
        mat, _, _ = d_barh_dxi_detailed(engine, n, xi, eta)
        mu_win = engine.series_window(n, engine.series_tol).halfwidth
        out["d_barh_dxi"] = _batch_report(
            mat, lambda z: engine.bar_h(n, z, eta_for_xi, window=mu_win), xi, steps
        )
    if "d_barh_deta" in kinds and dy:
        mat, _, _ = d_barh_deta_detailed(engine, n, xi, eta)
        mu_win = engine.series_window(n, engine.series_tol).halfwidth
        out["d_barh_deta"] = _batch_report(
            mat, lambda z: engine.bar_h(n, xi_for_eta, z, window=mu_win), eta, steps
        )
    if "d_h_dxi" in kinds or ("d_h_deta" in kinds and dy):
        u, _, iters, win = engine.h_detailed(n, xi, eta)
        pinned = iters + 4
        shifted = xi + u
        b = d_barh_dxi(engine, n, shifted, eta)
        eye = np.eye(dx)
        if "d_h_dxi" in kinds:
            out["d_h_dxi"] = _batch_report(
                -np.linalg.solve(eye + b, b),
                lambda z: engine.h(n, z, eta_for_xi, iters=pinned, window=win),
                xi,
                steps,
            )
        if "d_h_deta" in kinds and dy:
            c = d_barh_deta(engine, n, shifted, eta)
            out["d_h_deta"] = _batch_report(
                -np.linalg.solve(eye + b, c),
                lambda z: engine.h(n, xi_for_eta, z, iters=pinned, window=win),
                eta,
                steps,
            )
    return out
