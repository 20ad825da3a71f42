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
from typing import Callable

import numpy as np

from .conjugacy import ConjugacyEngine
from .errors import SingularOperatorError
from .evolution import (DEFAULT_SOLVE, SolveOptions, _checked, _state_columns,
                        coupled_trajectory)
from .system import SystemSpec


@dataclass
class JacobianReport:
    """Analytic vs central-finite-difference comparison at one probe point."""

    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_error: float
    fd_step: float


def fd_jacobian_batch(fun_batch: Callable, points: np.ndarray, step: float) -> np.ndarray:
    """Central differences with the whole +/- stencil evaluated in one
    batched call: fun_batch maps (dim, batch) columns to (out, batch), and
    the (dim, P) columns `points`, dim >= 1, give the (P, out, dim) stack of
    their Jacobians from one call over all P stencils."""
    return _fd_quotients(fun_batch(_fd_stencil(points, step)), points.shape, step)


def _fd_stencil(cols: np.ndarray, step: float) -> np.ndarray:
    """The (d, batch 2 d) central-difference stencil of the (d, batch)
    columns, d >= 1: column i's points z + step e_k and z - step e_k, in
    that order for k = 0, ..., d - 1, then column i + 1's."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    d, batch = cols.shape
    stencil = np.repeat(cols[:, :, None], 2 * d, axis=2)
    for i in range(d):
        stencil[i, :, 2 * i] += step
        stencil[i, :, 2 * i + 1] -= step
    return stencil.reshape(d, batch * 2 * d)


def _fd_quotients(vals, shape: tuple, step: float) -> np.ndarray:
    """The (batch, out, d) stack of central differences from a map's (out,
    batch 2 d) values on the `_fd_stencil` of (d, batch) columns."""
    d, batch = shape
    vals = np.asarray(vals, dtype=float).reshape(-1, batch, 2 * d)
    return ((vals[:, :, 0::2] - vals[:, :, 1::2]) / (2.0 * step)).transpose(1, 0, 2)


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))


def _block_reports(analytic, fd, blocks, fd_step: float, out: list) -> None:
    """Add to out[i] one report per named (kind, rows, cols) block of the
    analytic Jacobian analytic[i] and its central difference fd[i]."""
    for rep, a, f in zip(out, analytic, fd):
        for kind, rows, cols in blocks:
            rep[kind] = JacobianReport(a[rows, cols], f[rows, cols],
                                       _rel_error(a[rows, cols], f[rows, cols]), fd_step)


# -- solution-map derivatives -------------------------------------------------


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
        return (y, _checked(sys.f.jac_x(k, x, y), (batch, dx, dx), "f.jac_x", k),
                _checked(sys.f.jac_y(k, x, y), (batch, dx, dy), "f.jac_y", k))

    def driver_jac(k, y):
        return _checked(sys.g.jac(k, y), (batch, dy, dy), "g.jac", k)

    w, v = w0, v0
    for k in range(n, hi + 1):
        y, jx, jy = jacs(k)
        yield k, jx, jy, w, v
        if k < hi:
            w = (sys.a.matrix(k) + jx) @ w + jy @ v
            if dy:
                v = driver_jac(k, y) @ v
    w, v = w0, v0
    for k in range(n - 1, lo - 1, -1):
        y, jx, jy = jacs(k)
        if dy:
            try:
                v = np.linalg.inv(driver_jac(k, y)) @ v
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(k, f"Dg_k not invertible: {exc}") from exc
        # L_k = (A_k + df_k/du)^{-1}: the walk through `states` required the
        # backward margin at k, which makes it invertible
        try:
            w = np.linalg.inv(sys.a.matrix(k) + jx) @ (w - jy @ v)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(k, f"A_j + df/du not invertible: {exc}") from exc
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


def _resolvent(b: np.ndarray, dx: int, n: int) -> np.ndarray:
    """-(Id + B_u)^{-1} [B_u | B_v] for each matrix of the bar_h(n, .) Jacobian stack b."""
    try:
        return -np.linalg.solve(np.eye(dx) + b[:, :, :dx], b)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(n, f"Id + d bar_h/du not invertible: {exc}") from exc


def barh_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d bar_h(n, .)/d(xi, eta) = - sum_k G(n,k+1) (df_k/du W_k + df_k/dv V_k)
    over the engine's `derivative_window(n)`, from one trajectory and tangent
    pass over that window's span, cut to its non-zero kernels as bar_h's
    walks are (`ConjugacyEngine._spans`), so only terms 0 (...) = 0 are
    left out; returns (matrix, halfwidth), with the (batch, dim_x, dim_x +
    dim_y) stack of matrices for (dim, batch) columns."""
    sys = engine.sys
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    k_half = engine.derivative_window(n)
    row = engine.green_row(n, k_half)
    (span,) = engine._spans([(n, k_half, xi_b.shape[1])])
    states = coupled_trajectory(sys, n, span.lo, span.hi, xi_b, eta_b, engine.solve)
    acc = 0.0
    for k, jx, jy, w, v in _tangents(sys, states, n, span.lo, span.hi):
        acc = acc + row[k - n + k_half] @ (jx @ w + jy @ v)
    return -(acc[0] if single else acc), k_half


def h_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d h(n, .)/d(xi, eta) = -(Id + B_u)^{-1} [B_u | B_v], with [B_u | B_v]
    the bar_h Jacobian at xi + h(n, xi, eta); returns (matrix, iterations)
    of that h solve, with a (batch, ., .) stack of matrices for (dim, batch)
    columns."""
    xi_b, eta_b, single = _state_columns(engine.sys, xi, eta)
    u, _, iters = engine.h_detailed(n, xi_b, eta_b)
    r = _resolvent(barh_jacobian(engine, n, xi_b + u, eta_b)[0], engine.sys.space.dim_x, n)
    return (r[0] if single else r), iters


# -- finite-difference validation ----------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # a non-finite column stays in its column
def validate_jacobians(engine: ConjugacyEngine, n: int, xi, eta=None, fd_step: float = 1e-5):
    """Analytic-vs-FD reports of the derivative blocks at each probe: a
    dict of reports for one state, a list of P dicts for (dim, P) columns;
    a probe with a non-finite block gets a string naming them in its place.
    The solution blocks are those of x2(k, n, .) and y(k, n, .) at k = n + 3.
    Without a driver (dim_y = 0) every *_deta block is left out: seven
    blocks with a driver, three without.

    The probes share one h solve, one trajectory and tangent pass for the
    analytic bar_h Jacobians at the probes and at their h-shifted points, one
    3-step walk for the solution Jacobians, and per map one central-difference
    stencil at `fd_step` over z = (xi, eta) of every probe.  The d_h stencil
    is one smooth `ConjugacyEngine.h_detailed` solve (see there) with the
    probes' own columns appended: it is also their h solve.

    What depends on n alone runs first, before any walk: the contraction
    certificate c(n), h's window and the bar_h derivative window, all
    cached on the engine.  So an error there, the same for every probe,
    costs no walk.
    """
    sys = engine.sys
    dx, dy = sys.space.dim_x, sys.space.dim_y
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    engine.h_window(n)
    engine.derivative_window(n)
    batch = xi_b.shape[1]
    k = n + 3
    z = np.vstack([xi_b, eta_b])
    x, y = slice(0, dx), slice(dx, dx + dy)
    out: list = [{} for _ in range(batch)]

    def report(analytic, fd, blocks):  # every *_deta block needs a driver
        _block_reports(analytic, fd, [b for b in blocks if dy or not b[0].endswith("_deta")],
                       fd_step, out)

    def solution(p):
        return np.vstack(coupled_trajectory(sys, n, n, k, p[:dx], p[dx:], engine.solve)[k])

    report(solution_jacobian(sys, k, n, xi_b, eta_b, engine.solve),
           fd_jacobian_batch(solution, z, fd_step),
           [("d_x2_dxi", x, x), ("d_x2_deta", x, y), ("d_y_deta", y, y)])
    cols = np.hstack([_fd_stencil(z, fd_step), z])  # the d_h stencil, then the probes
    h_vals = engine.h_detailed(n, cols[:dx], cols[dx:], smooth=True)[0]
    b = barh_jacobian(engine, n, np.hstack([xi_b, xi_b + h_vals[:, -batch:]]),
                      np.hstack([eta_b, eta_b]))[0]
    report(b[:batch], fd_jacobian_batch(lambda p: engine.bar_h(n, p[:dx], p[dx:]), z, fd_step),
           [("d_barh_dxi", x, x), ("d_barh_deta", x, y)])
    report(_resolvent(b[batch:], dx, n), _fd_quotients(h_vals[:, :-batch], z.shape, fd_step),
           [("d_h_dxi", x, x), ("d_h_deta", x, y)])
    for i, reports in enumerate(out):  # a block with a non-finite entry has one rel_error
        bad = [kind for kind, r in reports.items() if not np.isfinite(r.rel_error)]
        if bad:
            out[i] = f"non-finite Jacobian blocks at n={n}: {', '.join(bad)}"
    return out[0] if single else out
