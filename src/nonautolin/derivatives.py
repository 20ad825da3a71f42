"""Analytic first derivatives of the solution maps and conjugacies, plus the
finite-difference validation harness.

Every map is differentiated in the pair z = (xi, eta) at once: its Jacobian
has the xi block in its first dim_x columns and the eta block in the rest.
Solution-map Jacobians are ordered products of per-step factors along the
trajectory: forward steps contribute A_j + df_j/du, backward steps contribute
L_j = (A_j + df_j/du)^{-1} (invertible whenever |A_j^{-1}| gamma_j < 1), and
the eta columns pick up the driver chain rule and Ltilde_j = -L_j df_j/dv.

The conjugacy derivative is a truncated series sharing the engine's Green
rows but with its own tail envelopes (the mu-decay that controls the value
series says nothing about derivative tails):

    d bar_h / dz = - sum_k G(n,k+1) [ (df_k/du) d x2(k,n)/dz + (df_k/dv) d y(k,n)/dz ]

and the fixed-point derivative comes from the resolvent formula

    d h / dz = -(Id + d bar_h/du)^{-1} d bar_h/dz      (at xi + h(n, xi, eta)),

well-conditioned because |d bar_h/du| < 1 under the certified contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conjugacy import ConjugacyEngine
from .errors import SingularOperatorError
from .evolution import DEFAULT_SOLVE, SolveOptions, coupled_trajectory
from .hypotheses import IndexConstants, _advanced_terms, _envelope
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
    (fun(p + step e_i) - fun(p - step e_i)) / (2 step), with fun evaluated
    one stencil point at a time."""
    def fun_batch(points):
        return np.stack([np.atleast_1d(np.asarray(fun(p), dtype=float)) for p in points.T], axis=1)

    return fd_jacobian_batch(fun_batch, point, step)


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


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))


def jacobian_report(analytic, fun: Callable, point, fd_step: float = 1e-6) -> JacobianReport:
    analytic = np.asarray(analytic, dtype=float)
    fd = fd_jacobian(fun, point, fd_step)
    return JacobianReport(analytic, fd, _rel_error(analytic, fd), fd_step)


def _block_reports(analytic, fun_batch, point, blocks, fd_steps) -> dict[str, JacobianReport]:
    """One report per named (kind, rows, cols) block of one Jacobian.

    Each step runs one stencil over the whole point, and only while some
    block's error still exceeds 1e-6; a block keeps the first step that
    meets it, otherwise the step with the smaller error.
    """
    out: dict[str, JacobianReport] = {}
    for s in fd_steps:
        pending = [b for b in blocks if b[0] not in out or out[b[0]].rel_error > 1e-6]
        if not pending:
            break
        fd = fd_jacobian_batch(fun_batch, point, s)
        for kind, rows, cols in pending:
            a, d = analytic[rows, cols], fd[rows, cols]
            rel = _rel_error(a, d)
            if kind not in out or rel < out[kind].rel_error:
                out[kind] = JacobianReport(a, d, rel, s)
    return out


# -- solution-map derivatives -------------------------------------------------


def _pair(sys: SystemSpec, xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """xi and eta as float vectors, eta = 0 when absent."""
    eta = np.zeros(sys.space.dim_y) if eta is None else np.asarray(eta, dtype=float)
    return np.asarray(xi, dtype=float), eta


def _backward_L(sys: SystemSpec, j: int, jx: np.ndarray) -> np.ndarray:
    """L_j = (A_j + df_j/du)^{-1}, with df_j/du = jx at the trajectory point."""
    sys.require_backward_margin(j)
    try:
        return np.linalg.inv(sys.a.matrix(j) + jx)
    except np.linalg.LinAlgError as exc:  # cannot occur under the margin; defensive
        raise SingularOperatorError(j, f"A_j + df/du not invertible: {exc}") from exc


def _tangents(sys: SystemSpec, states: dict, n: int, lo: int, hi: int):
    """Propagate the tangents (W, V) = (dx_k/dz, dy_k/dz) in z = (xi, eta).

    Yields (k, df_k/du, df_k/dv, W_k, V_k) for k = n, ..., hi, then for
    k = n - 1, ..., lo, along the coupled trajectory `states` through z at
    time n, from the seed (W, V) = ([Id 0], [0 Id]).  Forward:
    W <- (A_k + df_k/du) W + df_k/dv V, V <- Dg_k V.  Backward:
    V <- Dg_k^{-1} V, W <- L_k (W - df_k/dv V).
    """
    dx, dy = sys.space.dim_x, sys.space.dim_y
    w0, v0 = np.eye(dx, dx + dy), np.eye(dy, dx + dy, dx)

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


def solution_jacobian(sys: SystemSpec, k: int, n: int, xi, eta=None,
                      opts: SolveOptions = DEFAULT_SOLVE) -> np.ndarray:
    """Jacobian of (xi, eta) -> (x2(k, n, xi, eta), y(k, n, eta)): the square
    matrix [[dx2/dxi, dx2/deta], [0, dy/deta]] of size dim_x + dim_y."""
    xi, eta = _pair(sys, xi, eta)
    lo, hi = min(k, n), max(k, n)
    states = coupled_trajectory(sys, n, lo, hi, xi, eta, opts)
    return next(np.vstack([w, v]) for kk, _, _, w, v in _tangents(sys, states, n, lo, hi)
                if kk == k)


# -- conjugacy derivative series ----------------------------------------------


def _derivative_window(engine: ConjugacyEngine, n: int, which: str) -> int:
    """Halfwidth of the dxi/deta derivative series at center n with tail
    <= series_tol; without an envelope the window is fitted on the
    state-free bounding terms of the advanced conditions."""
    sys = engine.sys

    def terms(k):
        c = IndexConstants.of(sys, n - k, n + k)
        g = operator_norm(engine.green_row(n, k), sys.space.norm_kind)
        side = 0 if which == "dxi" else 1
        return [_advanced_terms(c, g, n, end)[side] for end in (n - k, n + k)]

    return engine._fit_window(n, _envelope(sys, which, n), engine.series_tol, terms)[0]


def barh_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d bar_h(n, .)/d(xi, eta) = - sum_k G(n,k+1) (df_k/du W_k + df_k/dv V_k)
    over the wider of the dxi and (when dim_y > 0) deta derivative windows;
    returns (matrix, halfwidth)."""
    sys = engine.sys
    xi, eta = _pair(sys, xi, eta)
    which = ("dxi", "deta") if sys.space.dim_y else ("dxi",)
    k_half = max(_derivative_window(engine, n, w) for w in which)
    row = engine.green_row(n, k_half)
    lo, hi = n - k_half, n + k_half
    states = coupled_trajectory(sys, n, lo, hi, xi, eta, engine.solve)
    acc = sum(row[k - lo] @ (jx @ w + jy @ v)
              for k, jx, jy, w, v in _tangents(sys, states, n, lo, hi))
    return -acc, k_half


def h_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d h(n, .)/d(xi, eta) = -(Id + B_u)^{-1} [B_u | B_v], with [B_u | B_v]
    the bar_h Jacobian at xi + h(n, xi, eta); returns (matrix, Picard
    iterations) of that h solve."""
    xi, eta = _pair(engine.sys, xi, eta)
    u, _, iters = engine.h_detailed(n, xi, eta)
    b, _ = barh_jacobian(engine, n, xi + u, eta)
    dx = engine.sys.space.dim_x
    return -np.linalg.solve(np.eye(dx) + b[:, :dx], b), iters


# -- finite-difference validation ----------------------------------------------


def validate_jacobians(
    engine: ConjugacyEngine,
    n: int,
    xi,
    eta=None,
    k: Optional[int] = None,
    fd_step: float = 1e-6,
) -> dict[str, JacobianReport]:
    """Analytic-vs-FD reports of the seven derivative blocks at one probe.

    One stencil over z = (xi, eta) per map and step serves all of that
    map's blocks.  The series windows depend on n alone, so the h stencil
    pins only the fixed-point iteration count, which keeps the sampled
    function smooth across the stencil.  Without a driver (dim_y = 0) the
    bar_h and h eta blocks are left out.
    """
    sys = engine.sys
    dx, dy = sys.space.dim_x, sys.space.dim_y
    xi, eta = _pair(sys, xi, eta)
    if k is None:
        k = n + 3
    z = np.concatenate([xi, eta])
    steps = (fd_step * 10.0, fd_step)
    x_part, y_part = slice(0, dx), slice(dx, dx + dy)
    lo, hi = min(k, n), max(k, n)

    def solution(p):
        return np.vstack(coupled_trajectory(sys, n, lo, hi, p[:dx], p[dx:], engine.solve)[k])

    out = _block_reports(
        solution_jacobian(sys, k, n, xi, eta, engine.solve), solution, z,
        [("d_x2_dxi", x_part, x_part), ("d_x2_deta", x_part, y_part),
         ("d_y_deta", y_part, y_part)],
        steps,
    )
    out.update(_block_reports(
        barh_jacobian(engine, n, xi, eta)[0], lambda p: engine.bar_h(n, p[:dx], p[dx:]), z,
        [("d_barh_dxi", x_part, x_part)] + ([("d_barh_deta", x_part, y_part)] if dy else []),
        steps,
    ))
    mat, iters = h_jacobian(engine, n, xi, eta)
    out.update(_block_reports(
        mat, lambda p: engine.h(n, p[:dx], p[dx:], iters=iters + 4), z,
        [("d_h_dxi", x_part, x_part)] + ([("d_h_deta", x_part, y_part)] if dy else []),
        steps,
    ))
    return out
