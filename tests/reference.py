"""Reference code the tests check the program against: finite-difference
Jacobians evaluated one stencil point at a time, transitions multiplied one
factor at a time with the Green kernels and norms built on them, Green spans by the
second-argument recurrence, solutions at one index, the bar_h series with a
fresh coupling value per term, h by plain Picard iteration one state at a
time, and the Lipschitz products multiplied one factor at a time (the
program's series read them as `np.cumprod` arrays)."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from nonautolin.derivatives import JacobianReport, _rel_error
from nonautolin.errors import ContractionViolation
from nonautolin.evolution import SolveOptions, _state_columns, _trajectory, coupled_trajectory
from nonautolin.system import SystemSpec, operator_norm


def fd_jacobian(fun: Callable, point, step: float) -> np.ndarray:
    """Central finite differences per coordinate: column i is
    (fun(p + step e_i) - fun(p - step e_i)) / (2 step), with fun evaluated
    one stencil point at a time (a (out, 0) matrix for an empty point)."""
    p = np.asarray(point, dtype=float)
    if p.size == 0:
        return np.zeros((np.size(fun(p)), 0))
    columns = []
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = step
        diff = np.asarray(fun(p + e), dtype=float) - np.asarray(fun(p - e), dtype=float)
        columns.append(np.atleast_1d(diff / (2.0 * step)))
    return np.stack(columns, axis=1)


def jacobian_report(analytic, fun: Callable, point, fd_step: float = 1e-6) -> JacobianReport:
    analytic = np.asarray(analytic, dtype=float)
    fd = fd_jacobian(fun, point, fd_step)
    return JacobianReport(analytic, fd, _rel_error(analytic, fd), fd_step)


def transition_by_factors(sys: SystemSpec, m: int, n: int) -> np.ndarray:
    """The transition T(m, n) multiplied one factor at a time: A_{m-1} ... A_n
    for m > n, Id for m = n, A_m^{-1} ... A_{n-1}^{-1} for m < n."""
    out = np.eye(sys.space.dim_x)
    if m > n:
        for j in range(n, m):
            out = sys.a.matrix(j) @ out
    elif m < n:
        for j in range(n - 1, m - 1, -1):
            out = sys.a.inverse(j) @ out
    return out


def green_by_factors(sys: SystemSpec, m: int, n: int) -> np.ndarray:
    """The Green kernel G(m, n) from `transition_by_factors`: T(m, n) P_n for
    m >= n, -T(m, n) (Id - P_n) for m < n."""
    p = sys.p.matrix(n)
    tr = transition_by_factors(sys, m, n)
    if m >= n:
        return tr @ p
    return -(tr @ (np.eye(sys.space.dim_x) - p))


def green_norm(sys: SystemSpec, m: int, n: int) -> float:
    return operator_norm(green_by_factors(sys, m, n), sys.space.norm_kind)


def column_norms(v: np.ndarray, kind: str) -> np.ndarray:
    """The max or euclidean norms of the columns of a (dim, batch) array by
    np.linalg.norm, 0 for dim = 0."""
    if v.shape[0] == 0:
        return np.zeros(v.shape[1])
    return np.linalg.norm(v, np.inf if kind == "max" else None, axis=0)


def green_span_by_columns(sys: SystemSpec, m: int, lo: int, hi: int) -> np.ndarray:
    """What `nonautolin.system.green_span` returns, by the second-argument
    recurrences T(m, q+1) = T(m, q) @ A_q^{-1} and T(m, q-1) = T(m, q) @
    A_{q-1} from a `transition_by_factors` anchor, then the weights kernel
    by kernel.  A kernel that overflows raises FloatingPointError."""
    dx = sys.space.dim_x
    out = np.empty((max(hi - lo + 1, 0), dx, dx))
    if lo > hi:
        return out
    anchor = int(np.clip(m, lo, hi))
    with np.errstate(over="raise", invalid="raise"):
        out[anchor - lo] = transition_by_factors(sys, m, anchor)
        for q in range(anchor + 1, hi + 1):
            out[q - lo] = out[q - 1 - lo] @ sys.a.inverse(q - 1)
        for q in range(anchor - 1, lo - 1, -1):
            out[q - lo] = out[q + 1 - lo] @ sys.a.matrix(q)
        eye = np.eye(dx)
        for q in range(lo, hi + 1):
            p = sys.p.matrix(q)
            out[q - lo] = out[q - lo] @ p if m >= q else -(out[q - lo] @ (eye - p))
    return out


def green_norm_rows_per_center(sys: SystemSpec, lo: int, hi: int,
                               w: int) -> tuple[np.ndarray, dict]:
    """What `nonautolin.system.green_norm_rows` returns, from one
    `green_span_by_columns` per center: the centers whose span raises
    FloatingPointError have NaN rows and their messages in the dict."""
    rows = np.full((hi - lo + 1, 2 * w + 2), np.nan)
    failed = {}
    for n in range(lo, hi + 1):
        try:
            rows[n - lo] = operator_norm(green_span_by_columns(sys, n, n - w, n + w + 1),
                                         sys.space.norm_kind)
        except FloatingPointError as exc:
            failed[n] = str(exc)
    return rows, failed


def evolve_driver(sys: SystemSpec, k: int, n: int, eta) -> np.ndarray:
    """Driver solution y(k, n, eta): composed g_j forward, composed g_j^{-1} backward."""
    y = np.asarray(eta, dtype=float)
    if sys.space.dim_y == 0:
        return y.copy()
    if k >= n:
        for j in range(n, k):
            y = np.asarray(sys.g.eval(j, y), dtype=float)
    else:
        for j in range(n - 1, k - 1, -1):
            y = np.asarray(sys.g.eval_inv(j, y), dtype=float)
    return y


def evolve_coupled(
    sys: SystemSpec, k: int, n: int, xi, eta, opts: Optional[SolveOptions] = None
) -> np.ndarray:
    """Solution x2(k, n, xi, eta) of the coupled x-recursion.

    The state at k of `coupled_trajectory`, which splits the caller's
    fixed-point tolerance across the n - k backward steps.
    """
    states = coupled_trajectory(sys, n, min(k, n), max(k, n), xi, eta, opts)
    return np.array(states[k][0])


def _series_sum(engine, n: int, k_half: int, states: dict) -> np.ndarray:
    """-sum_k G(n, k+1) f_k over the window of halfwidth k_half, with a fresh
    f_k at every state k of `states`, added in index order."""
    row = engine.green_row(n, k_half)
    acc = np.zeros_like(states[n][0])
    for k in range(n - k_half, n + k_half + 1):
        acc += row[k - n + k_half] @ np.asarray(engine.sys.f.eval(k, *states[k]), dtype=float)
    return -acc


def bar_h_series(engine, n: int, xi, eta=None, window: Optional[int] = None) -> np.ndarray:
    """bar_h(n, xi, eta) of `engine` summed term by term: the states of
    `coupled_trajectory`, then a fresh f_k at every state k, added in index
    order.  `window` None is the engine's series window at its series_tol."""
    sys = engine.sys
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    k_half = engine.series_window(n, engine.series_tol).halfwidth if window is None else window
    states = coupled_trajectory(sys, n, n - k_half, n + k_half, xi_b, eta_b, engine.solve)
    val = _series_sum(engine, n, k_half, states)
    return val[:, 0] if single else val


def h_by_picard(engine, n: int, xi, eta=None, updates: Optional[int] = None,
                warm: bool = False):
    """h(n, xi, eta) of `engine` at one state by plain Picard iteration
    u <- -bar_h(n, xi + u, eta) from u = 0 over h's series window (the
    window at tolerance min(series_tol, fp_tol (1 - c(n)) / 2)): until
    |u + bar_h(n, xi + u, eta)| <= fp_tol, or exactly `updates` times when
    given.  Returns (u, number of updates made).

    By default every bar_h is the engine's own, a cold walk.  With `warm`,
    each walk after the first is `evolution._trajectory` given the
    couplings of the previous walk as its guess, and bar_h is summed from
    its states like `bar_h_series`."""
    c = engine.contraction(n)
    k_half = engine.series_window(
        n, min(engine.series_tol, engine.fp_tol * (1.0 - c) / 2.0)).halfwidth
    xi_b, eta_b, _ = _state_columns(engine.sys, xi, eta)
    guess: dict = {}

    def bar_h(x):
        if not warm:
            return engine.bar_h(n, x, eta_b, window=k_half)
        states, _ = _trajectory(engine.sys, n, n - k_half, n + k_half, x, eta_b,
                                engine.solve, guess)
        return _series_sum(engine, n, k_half, states)

    u = np.zeros_like(xi_b)
    for it in range(10_000 if updates is None else updates + 1):
        v = bar_h(xi_b + u)
        if it == updates or (updates is None and
                             column_norms(u + v, engine.sys.space.norm_kind)[0]
                             <= engine.fp_tol):
            return u[:, 0], it
        u = -v
    raise AssertionError(f"Picard reference for h at n={n} did not converge")


def _backward_factor(sys: SystemSpec, j: int) -> float:
    inv_norm = sys.a_inv_norm(j)
    denom = 1.0 - sys.f.gamma(j) * inv_norm
    if denom <= 0.0:
        raise ContractionViolation(j, sys.f.gamma(j) * inv_norm)
    return inv_norm / denom


def lip_C(sys: SystemSpec, k: int, n: int) -> float:
    """First-variable Lipschitz product of x2(k, n, ., eta)."""
    if k == n:
        return 1.0
    prod = 1.0
    if k > n:
        for j in range(n, k):
            prod *= sys.a_norm(j) + sys.f.gamma(j)
    else:
        for j in range(k, n):
            prod *= _backward_factor(sys, j)
    return prod


def lip_D(sys: SystemSpec, k: int, n: int) -> float:
    """Lipschitz product of eta -> y(k, n, eta)."""
    if k == n:
        return 1.0
    prod = 1.0
    if k > n:
        for j in range(n, k):
            prod *= sys.g.tau(j)
    else:
        for j in range(k, n):
            prod *= sys.g.sigma(j)
    return prod


def lip_M(sys: SystemSpec, k: int, n: int) -> float:
    """Second-variable Lipschitz product of x2(k, n, xi, .)."""
    if k == n:
        return 1.0
    prod = 1.0
    if k > n:
        for j in range(n, k):
            prod *= sys.a_norm(j) + sys.f.gamma(j) + max(sys.f.rho(j), sys.g.tau(j))
    else:
        for j in range(k, n):
            prod *= _backward_factor(sys, j) + sys.g.sigma(j)
    return prod
