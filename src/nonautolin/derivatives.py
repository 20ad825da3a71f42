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

Like bar_h and h, every Jacobian takes a single state or (dim, batch)
columns; columns give (batch, ., .) stacks, propagated along one shared
trajectory with batched matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conjugacy import ConjugacyEngine
from .errors import SingularOperatorError
from .evolution import (DEFAULT_SOLVE, SolveOptions, _map_columns, _state_columns,
                        coupled_trajectory)
from .hypotheses import IndexConstants, _advanced_terms, _envelope
from .system import SystemSpec, operator_norm


@dataclass
class JacobianReport:
    """Analytic vs central-finite-difference comparison at one probe point."""

    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_error: float
    fd_step: float


def fd_jacobian_batch(fun_batch: Callable, point, step: float) -> np.ndarray:
    """Central differences with the whole +/- stencil evaluated in one
    batched call: fun_batch maps (dim, batch) columns to (out, batch).

    A (dim,) point gives the (out, dim) Jacobian; (dim, P) columns give the
    (P, out, dim) stack of their Jacobians from one call over all P stencils.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = np.asarray(point, dtype=float)
    single = p.ndim == 1
    cols = p[:, None] if single else p
    d, batch = cols.shape
    if d == 0:
        out = np.asarray(fun_batch(cols), dtype=float)
        fd = np.zeros((batch, out.shape[0], 0))
        return fd[0] if single else fd
    stencil = np.repeat(cols[:, :, None], 2 * d, axis=2)
    for i in range(d):
        stencil[i, :, 2 * i] += step
        stencil[i, :, 2 * i + 1] -= step
    vals = np.asarray(fun_batch(stencil.reshape(d, batch * 2 * d)), dtype=float)
    vals = vals.reshape(-1, batch, 2 * d)
    fd = ((vals[:, :, 0::2] - vals[:, :, 1::2]) / (2.0 * step)).transpose(1, 0, 2)
    return fd[0] if single else fd


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))


def _block_reports(analytic, fun_batch, points, blocks, fd_steps, out: list) -> None:
    """Add to out[i] one report per named (kind, rows, cols) block of the
    Jacobian analytic[i] at probe column i of `points`.

    Each step runs one stencil over the probes that still have a block whose
    error exceeds 1e-6; a block keeps the first step that meets it,
    otherwise the step with the smaller error.
    """
    for s in fd_steps:
        pending = [[b for b in blocks if b[0] not in rep or rep[b[0]].rel_error > 1e-6]
                   for rep in out]
        probes = [i for i, p in enumerate(pending) if p]
        if not probes:
            break
        fd = fd_jacobian_batch(fun_batch, points[:, probes], s)
        for i, d in zip(probes, fd):
            for kind, rows, cols in pending[i]:
                a, f = analytic[i][rows, cols], d[rows, cols]
                rel = _rel_error(a, f)
                if kind not in out[i] or rel < out[i][kind].rel_error:
                    out[i][kind] = JacobianReport(a, f, rel, s)


# -- solution-map derivatives -------------------------------------------------


def _backward_L(sys: SystemSpec, j: int, jx: np.ndarray) -> np.ndarray:
    """L_j = (A_j + df_j/du)^{-1} per column, with df_j/du = jx the
    (batch, dim_x, dim_x) stack at the trajectory points."""
    sys.require_backward_margin(j)
    try:
        return np.linalg.inv(sys.a.matrix(j) + jx)
    except np.linalg.LinAlgError as exc:  # cannot occur under the margin; defensive
        raise SingularOperatorError(j, f"A_j + df/du not invertible: {exc}") from exc


def _tangents(sys: SystemSpec, states: dict, n: int, lo: int, hi: int):
    """Propagate the tangents (W, V) = (dx_k/dz, dy_k/dz) in z = (xi, eta).

    Yields (k, df_k/du, df_k/dv, W_k, V_k) for k = n, ..., hi, then for
    k = n - 1, ..., lo, along the coupled trajectory `states` through the
    (dim, batch) columns z at time n, as (batch, ., .) stacks, from the seed
    (W, V) = ([Id 0], [0 Id]).  Forward: W <- (A_k + df_k/du) W + df_k/dv V,
    V <- Dg_k V.  Backward: V <- Dg_k^{-1} V, W <- L_k (W - df_k/dv V).
    """
    dx, dy = sys.space.dim_x, sys.space.dim_y
    batch = states[n][0].shape[1]
    w0 = np.broadcast_to(np.eye(dx, dx + dy), (batch, dx, dx + dy))
    v0 = np.broadcast_to(np.eye(dy, dx + dy, dx), (batch, dy, dx + dy))

    def jacs(k):
        x, y = states[k]
        return y, _map_columns(sys, "f.jac_x", k, x, y), _map_columns(sys, "f.jac_y", k, x, y)

    w, v = w0, v0
    for k in range(n, hi + 1):
        y, jx, jy = jacs(k)
        yield k, jx, jy, w, v
        if k < hi:
            w = (sys.a.matrix(k) + jx) @ w + jy @ v
            if dy:
                v = _map_columns(sys, "g.jac", k, y) @ v
    w, v = w0, v0
    for k in range(n - 1, lo - 1, -1):
        y, jx, jy = jacs(k)
        if dy:
            v = np.linalg.inv(_map_columns(sys, "g.jac", k, y)) @ v
        w = _backward_L(sys, k, jx) @ (w - jy @ v)
        yield k, jx, jy, w, v


def solution_jacobian(sys: SystemSpec, k: int, n: int, xi, eta=None,
                      opts: SolveOptions = DEFAULT_SOLVE) -> np.ndarray:
    """Jacobian of (xi, eta) -> (x2(k, n, xi, eta), y(k, n, eta)): the square
    matrix [[dx2/dxi, dx2/deta], [0, dy/deta]] of size dim_x + dim_y, or
    for (dim, batch) columns the (batch, ., .) stack of those matrices."""
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    lo, hi = min(k, n), max(k, n)
    states = coupled_trajectory(sys, n, lo, hi, xi_b, eta_b, opts)
    out = next(np.concatenate([w, v], axis=1)
               for kk, _, _, w, v in _tangents(sys, states, n, lo, hi) if kk == k)
    return out[0] if single else out


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


def _barh_pass(engine: ConjugacyEngine, n: int, xi_b, eta_b, k: Optional[int] = None):
    """One trajectory and tangent pass through the (dim, batch) columns:
    the (batch, dim_x, dim_x + dim_y) stack of d bar_h(n, .)/dz over the
    wider of the dxi and (when dim_y > 0) deta derivative windows, its
    halfwidth, and, when k is given, the stack of solution Jacobians at k
    (None otherwise)."""
    sys = engine.sys
    which = ("dxi", "deta") if sys.space.dim_y else ("dxi",)
    k_half = max(_derivative_window(engine, n, w) for w in which)
    row = engine.green_row(n, k_half)
    lo, hi = n - k_half, n + k_half
    t_lo, t_hi = (lo, hi) if k is None else (min(lo, k), max(hi, k))
    states = coupled_trajectory(sys, n, t_lo, t_hi, xi_b, eta_b, engine.solve)
    acc, sol = 0.0, None
    for kk, jx, jy, w, v in _tangents(sys, states, n, t_lo, t_hi):
        if lo <= kk <= hi:
            acc = acc + row[kk - lo] @ (jx @ w + jy @ v)
        if kk == k:
            sol = np.concatenate([w, v], axis=1)
    return -acc, k_half, sol


def _resolvent(b: np.ndarray, dx: int) -> np.ndarray:
    """-(Id + B_u)^{-1} [B_u | B_v] for each matrix of the bar_h Jacobian stack b."""
    return -np.linalg.solve(np.eye(dx) + b[:, :, :dx], b)


def barh_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d bar_h(n, .)/d(xi, eta) = - sum_k G(n,k+1) (df_k/du W_k + df_k/dv V_k)
    over the wider of the dxi and (when dim_y > 0) deta derivative windows;
    returns (matrix, halfwidth), with a (batch, ., .) stack of matrices for
    (dim, batch) columns."""
    xi_b, eta_b, single = _state_columns(engine.sys, xi, eta)
    b, k_half, _ = _barh_pass(engine, n, xi_b, eta_b)
    return (b[0] if single else b), k_half


def h_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d h(n, .)/d(xi, eta) = -(Id + B_u)^{-1} [B_u | B_v], with [B_u | B_v]
    the bar_h Jacobian at xi + h(n, xi, eta); returns (matrix, Picard
    iterations) of that h solve, with a (batch, ., .) stack of matrices for
    (dim, batch) columns."""
    xi_b, eta_b, single = _state_columns(engine.sys, xi, eta)
    u, _, iters = engine.h_detailed(n, xi_b, eta_b)
    r = _resolvent(_barh_pass(engine, n, xi_b + u, eta_b)[0], engine.sys.space.dim_x)
    return (r[0] if single else r), iters


# -- finite-difference validation ----------------------------------------------


def validate_jacobians(
    engine: ConjugacyEngine,
    n: int,
    xi,
    eta=None,
    fd_step: float = 1e-6,
):
    """Analytic-vs-FD reports of the seven derivative blocks at each probe:
    a dict of reports for one state, a list of P dicts for (dim, P) columns.
    The solution blocks are those of x2(k, n, .) and y(k, n, .) at k = n + 3.

    The probes share one h solve, one trajectory and tangent pass for the
    analytic Jacobians at the probes and at their h-shifted points, and per
    map and step one stencil over z = (xi, eta) of the probes that still need
    it.  The series windows depend on n alone, so the h stencil pins only the
    fixed-point iteration count, which keeps the sampled function smooth
    across the stencil.  Without a driver (dim_y = 0) the bar_h and h eta
    blocks are left out.
    """
    sys = engine.sys
    dx, dy = sys.space.dim_x, sys.space.dim_y
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    batch = xi_b.shape[1]
    k = n + 3
    u, _, iters = engine.h_detailed(n, xi_b, eta_b)
    b, _, sol = _barh_pass(engine, n, np.hstack([xi_b, xi_b + u]), np.hstack([eta_b, eta_b]), k)
    z = np.vstack([xi_b, eta_b])
    steps = (fd_step * 10.0, fd_step)
    x_part, y_part = slice(0, dx), slice(dx, dx + dy)

    def solution(p):
        return np.vstack(coupled_trajectory(sys, n, n, k, p[:dx], p[dx:], engine.solve)[k])

    out: list = [{} for _ in range(batch)]
    _block_reports(
        sol[:batch], solution, z,
        [("d_x2_dxi", x_part, x_part), ("d_x2_deta", x_part, y_part),
         ("d_y_deta", y_part, y_part)],
        steps, out,
    )

    def conjugacy_blocks(name):  # no eta block without a driver
        blocks = [(f"{name}_dxi", x_part, x_part)]
        return (blocks + [(f"{name}_deta", x_part, y_part)]) if dy else blocks

    _block_reports(b[:batch], lambda p: engine.bar_h(n, p[:dx], p[dx:]), z,
                   conjugacy_blocks("d_barh"), steps, out)
    _block_reports(_resolvent(b[batch:], dx),
                   lambda p: engine.h(n, p[:dx], p[dx:], iters=iters + 4), z,
                   conjugacy_blocks("d_h"), steps, out)
    return out[0] if single else out
