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

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conjugacy import ConjugacyEngine
from .errors import NoConvergence, SingularOperatorError
from .evolution import (DEFAULT_SOLVE, SolveOptions, _checked, _state_columns,
                        coupled_trajectory)
from .hypotheses import IndexConstants, _advanced_terms, _envelope
from .system import SystemSpec, _column_norms, operator_norm


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
    if step <= 0.0:
        raise ValueError("step must be positive")
    d, batch = points.shape
    vals = np.asarray(fun_batch(_fd_stencil(points, step)), dtype=float)
    vals = vals.reshape(-1, batch, 2 * d)
    return ((vals[:, :, 0::2] - vals[:, :, 1::2]) / (2.0 * step)).transpose(1, 0, 2)


def _fd_stencil(cols: np.ndarray, step: float) -> np.ndarray:
    """The (d, batch 2 d) central-difference stencil of the (d, batch)
    columns, d >= 1: column i's points z + step e_k and z - step e_k, in
    that order for k = 0, ..., d - 1, then column i + 1's."""
    d, batch = cols.shape
    stencil = np.repeat(cols[:, :, None], 2 * d, axis=2)
    for i in range(d):
        stencil[i, :, 2 * i] += step
        stencil[i, :, 2 * i + 1] -= step
    return stencil.reshape(d, batch * 2 * d)


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


def _barh_halfwidth(engine: ConjugacyEngine, n: int) -> int:
    """Halfwidth of the bar_h Jacobian series at center n: the wider of the
    dxi and (when dim_y > 0) deta derivative windows, each with tail <=
    series_tol; without an envelope a window is fitted on the state-free
    bounding terms of the advanced conditions."""
    sys = engine.sys

    def terms(side, k):
        c = IndexConstants.of(sys, n - k, n + k)
        g = operator_norm(engine.green_row(n, k), sys.space.norm_kind)
        return [_advanced_terms(c, g, n, end)[side] for end in (n - k, n + k)]

    which = ("dxi", "deta") if sys.space.dim_y else ("dxi",)
    return max(engine._fit_window(n, _envelope(sys, kind, n), engine.series_tol,
                                  functools.partial(terms, side))[0]
               for side, kind in enumerate(which))


def _resolvent(b: np.ndarray, dx: int, n: int) -> np.ndarray:
    """-(Id + B_u)^{-1} [B_u | B_v] for each matrix of the bar_h(n, .) Jacobian stack b."""
    try:
        return -np.linalg.solve(np.eye(dx) + b[:, :, :dx], b)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(n, f"Id + d bar_h/du not invertible: {exc}") from exc


def barh_jacobian(engine: ConjugacyEngine, n: int, xi, eta=None) -> tuple[np.ndarray, int]:
    """d bar_h(n, .)/d(xi, eta) = - sum_k G(n,k+1) (df_k/du W_k + df_k/dv V_k)
    over the wider of the dxi and (when dim_y > 0) deta derivative windows,
    from one trajectory and tangent pass; returns (matrix, halfwidth), with
    the (batch, dim_x, dim_x + dim_y) stack of matrices for (dim, batch)
    columns."""
    sys = engine.sys
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    k_half = _barh_halfwidth(engine, n)
    row = engine.green_row(n, k_half)
    lo, hi = n - k_half, n + k_half
    states = coupled_trajectory(sys, n, lo, hi, xi_b, eta_b, engine.solve)
    acc = 0.0
    for k, jx, jy, w, v in _tangents(sys, states, n, lo, hi):
        acc = acc + row[k - lo] @ (jx @ w + jy @ v)
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


_STENCIL_EXTRA_UPDATES = 4


def _h_stencil(engine: ConjugacyEngine, n: int, p: np.ndarray) -> np.ndarray:
    """h(n, .) on the (dim_x + dim_y, batch) stencil columns p by plain
    Picard iteration from 0 with one count for the whole call: the updates
    run until every column passes h_detailed's stop test, then 4 more.

    The sampled map is then the N-fold Picard composition with one N for
    every column, smooth in p, and its derivative approaches dh like
    c(n)^N; the extra updates push that gap well under the stop test.
    Neither h_detailed's Anderson iterate nor its count would do: the
    mixing weights and restarts are not smooth in p, and the count, smaller
    than the Picard count, leaves a wider derivative gap.

    Each walk after the first starts its backward steps from the previous
    walk's couplings (`_trajectory`).  That keeps the map smooth: a
    column's guess is its own previous coupling, a smooth function of that
    column alone, and every backward step's Picard count, like N, is shared
    by the batch.  It keeps the stop test's meaning too: each step ends on
    the defect test a cold walk meets, so every sampled bar_h has a cold
    walk's accuracy and a column passing the test is within fp_tol / (1 -
    c(n)) of h.
    """
    dx = engine.sys.space.dim_x
    xi, eta = p[:dx], p[dx:]
    k_half, cap = engine._h_window(n)
    norms = _column_norms(engine.sys.space.norm_kind)
    u = np.zeros_like(xi)
    guess: dict = {}  # the previous walk's couplings
    for _ in range(cap):
        v = engine.bar_h_detailed(n, xi + u, eta, window=k_half, guess=guess)[0]
        res = float(np.max(norms(u + v)))
        u = -v
        if res <= engine.fp_tol:
            for _ in range(_STENCIL_EXTRA_UPDATES - 1):
                u = -engine.bar_h_detailed(n, xi + u, eta, window=k_half, guess=guess)[0]
            return u
    raise NoConvergence(f"h stencil at n={n}", cap, res, engine.fp_tol)


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
    analytic bar_h Jacobians at the probes and at their h-shifted points, one
    3-step walk for the solution Jacobians, and per map and step one stencil
    over z = (xi, eta) of the probes that still need it.  The h solve is the
    first d_h stencil call, at the coarser step over every probe, with the
    probes' own columns appended.  The h stencil sets one plain Picard count
    per call (`_h_stencil`), keeping the sampled function smooth across the
    stencil.  Without a driver (dim_y = 0) the bar_h and h eta blocks are
    left out.

    What depends on n alone runs first, before any walk: the contraction
    certificate c(n), h's series window and the bar_h derivative windows
    (the engine caches their Green rows and c(n)).  So an error there, the
    same for every probe, costs no walk.
    """
    sys = engine.sys
    dx, dy = sys.space.dim_x, sys.space.dim_y
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    engine._h_window(n)
    _barh_halfwidth(engine, n)
    batch = xi_b.shape[1]
    k = n + 3
    z = np.vstack([xi_b, eta_b])
    steps = (fd_step * 10.0, fd_step)
    x_part, y_part = slice(0, dx), slice(dx, dx + dy)

    def solution(p):
        return np.vstack(coupled_trajectory(sys, n, n, k, p[:dx], p[dx:], engine.solve)[k])

    out: list = [{} for _ in range(batch)]
    _block_reports(
        solution_jacobian(sys, k, n, xi_b, eta_b, engine.solve), solution, z,
        [("d_x2_dxi", x_part, x_part), ("d_x2_deta", x_part, y_part),
         ("d_y_deta", y_part, y_part)],
        steps, out,
    )
    # the h solve: no probe has its d_h blocks yet, so the first d_h
    # stencil is the coarser step's over all of z; it runs here, z appended
    first = _h_stencil(engine, n, np.hstack([_fd_stencil(z, steps[0]), z]))
    u, unread = first[:, -batch:], [first[:, :-batch]]
    b = barh_jacobian(engine, n, np.hstack([xi_b, xi_b + u]), np.hstack([eta_b, eta_b]))[0]

    def conjugacy_blocks(name):  # no eta block without a driver
        blocks = [(f"{name}_dxi", x_part, x_part)]
        return (blocks + [(f"{name}_deta", x_part, y_part)]) if dy else blocks

    _block_reports(b[:batch], lambda p: engine.bar_h(n, p[:dx], p[dx:]), z,
                   conjugacy_blocks("d_barh"), steps, out)
    _block_reports(_resolvent(b[batch:], dx, n),
                   lambda p: unread.pop() if unread else _h_stencil(engine, n, p), z,
                   conjugacy_blocks("d_h"), steps, out)
    return out[0] if single else out
