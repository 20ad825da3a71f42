"""Reference code the tests check the program against: finite-difference
Jacobians evaluated one stencil point at a time, pointwise Green norms,
solutions at one index, and the Lipschitz products multiplied one factor at
a time (the program's series read them as `np.cumprod` arrays)."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from nonautolin.derivatives import JacobianReport, _rel_error, fd_jacobian_batch
from nonautolin.errors import ContractionViolation
from nonautolin.evolution import SolveOptions, coupled_trajectory
from nonautolin.system import SystemSpec, green, green_span, operator_norm


def fd_jacobian(fun: Callable, point, step: float) -> np.ndarray:
    """Central finite differences per coordinate: column i is
    (fun(p + step e_i) - fun(p - step e_i)) / (2 step), with fun evaluated
    one stencil point at a time."""
    def fun_batch(points):
        return np.stack([np.atleast_1d(np.asarray(fun(p), dtype=float)) for p in points.T], axis=1)

    return fd_jacobian_batch(fun_batch, point, step)


def jacobian_report(analytic, fun: Callable, point, fd_step: float = 1e-6) -> JacobianReport:
    analytic = np.asarray(analytic, dtype=float)
    fd = fd_jacobian(fun, point, fd_step)
    return JacobianReport(analytic, fd, _rel_error(analytic, fd), fd_step)


def green_norm(sys: SystemSpec, m: int, n: int) -> float:
    return operator_norm(green(sys, m, n), sys.space.norm_kind)


def green_norm_rows_per_center(sys: SystemSpec, lo: int, hi: int,
                               w: int) -> tuple[np.ndarray, dict]:
    """What `nonautolin.system.green_norm_rows` returns, from one `green_span`
    per center: the centers whose span raises FloatingPointError have NaN rows
    and their messages in the dict."""
    rows = np.full((hi - lo + 1, 2 * w + 2), np.nan)
    failed = {}
    for n in range(lo, hi + 1):
        try:
            rows[n - lo] = operator_norm(green_span(sys, n, n - w, n + w + 1), sys.space.norm_kind)
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
