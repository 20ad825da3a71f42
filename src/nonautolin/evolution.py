"""Solution maps of the coupled and uncoupled systems.

Forward solutions step the recursions directly.  Backward solutions of the
coupled x-recursion solve, at each step j, the fixed-point equation

    T_j(xi, eta) = A_j^{-1} xi - A_j^{-1} f_j(T_j(xi, eta), eta)

by Picard iteration; the map is a contraction with rate |A_j^{-1}| gamma_j,
which must be < 1.  T_j inverts the step map F_j(x, eta) = A_j x + f_j(x, eta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergence
from .system import SystemSpec, _column_norms


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances for the backward fixed-point steps."""

    fixed_point_tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if self.fixed_point_tol <= 0.0:
            raise ValueError("fixed_point_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


DEFAULT_SOLVE = SolveOptions()


def _as_columns(v, dim: int, batch: Optional[int] = None) -> tuple[np.ndarray, bool]:
    """(dim, batch) columns of a state or batch, and whether it was one state;
    a single state is repeated `batch` times."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"expected vector of length {dim}, got shape {arr.shape}")
        b = batch or 1
        return np.repeat(arr.reshape(dim, 1), b, axis=1) if b > 1 else arr.reshape(dim, 1), True
    if arr.shape[0] != dim:
        raise ValueError(f"expected ({dim}, batch) array, got shape {arr.shape}")
    return arr, False


def _state_columns(sys: SystemSpec, xi, eta) -> tuple[np.ndarray, np.ndarray, bool]:
    """xi and eta as (dim, batch) columns, eta = 0 when absent, and whether
    xi was a single state."""
    xi_b, single = _as_columns(xi, sys.space.dim_x)
    batch = xi_b.shape[1]
    dy = sys.space.dim_y
    eta_b = np.zeros((dy, batch)) if eta is None else _as_columns(eta, dy, batch)[0]
    return xi_b, eta_b, single


def _coupling_value(sys: SystemSpec, j: int, x, y) -> np.ndarray:
    """f_j at a state or column batch, with the batch shape enforced."""
    out = np.asarray(sys.f.eval(j, x, y), dtype=float)
    x_arr = np.asarray(x)
    if x_arr.ndim == 2 and out.ndim == 1:
        if x_arr.shape[1] != 1:
            raise ValueError("coupling eval must broadcast column batches")
        out = out.reshape(-1, 1)
    return out


def _jacobian_stack(jac, j: int, states: tuple, rows: int, cols: int) -> np.ndarray:
    """jac(j, *states) at (dim, batch) column states, enforced to be the
    (batch, rows, cols) stack of the per-column Jacobians."""
    batch = states[0].shape[1]
    out = np.asarray(jac(j, *states), dtype=float)
    if out.shape != (batch, rows, cols):
        raise ValueError(f"Jacobian at j={j} must be a ({batch}, {rows}, {cols}) stack, "
                         f"got shape {out.shape}")
    return out


def _forward_step(sys: SystemSpec, j: int, x, y, coupled: bool = True):
    """(x_{j+1}, y_{j+1}, f_j(x_j, y_j)) from (x_j, y_j) under the coupled
    system, or (x_{j+1}, y_{j+1}, None) under the uncoupled one when
    `coupled` is False."""
    x_next = sys.a.matrix(j) @ x
    fx = None
    if coupled:
        fx = _coupling_value(sys, j, x, y)
        x_next = x_next + fx
    return x_next, (np.asarray(sys.g.eval(j, y), dtype=float) if sys.space.dim_y else y), fx


_max = np.maximum.reduce  # np.max without its wrapper


@dataclass
class BackwardStepResult:
    """T_j(xi, eta) with its Picard record; `coupling` is f_j at the
    returned value, the converged iterate's coupling value."""

    value: np.ndarray
    iterations: int
    residual: float
    step_norms: list
    coupling: np.ndarray


def backward_step_detailed(
    sys: SystemSpec, j: int, xi, eta, opts: Optional[SolveOptions] = None
) -> BackwardStepResult:
    """Solve F_j(u, eta) = xi for u, i.e. evaluate T_j(xi, eta).

    Picard iteration from the initial guess A_j^{-1} xi (exact when f == 0).
    The residual is the defect |A_j u + f_j(u, eta) - xi| in the space norm,
    measured relative to max(1, |xi|): backward trajectories can grow
    exponentially, and the achievable defect scales with the data.  Step
    sizes contract at rate <= |A_j^{-1}| gamma_j.
    """
    opts = opts or DEFAULT_SOLVE
    sys.require_backward_margin(j)
    norms = _column_norms(sys.space.norm_kind)
    a = sys.a.matrix(j)
    a_inv = sys.a.inverse(j)
    x, single = _as_columns(xi, sys.space.dim_x)
    scale = np.maximum(1.0, norms(x))
    base = a_inv @ x
    u = base
    steps: list = []
    tol = opts.fixed_point_tol
    for it in range(opts.max_iters + 1):
        value = u[:, 0] if single else u
        f_value = _coupling_value(sys, j, value, eta)
        fu = f_value.reshape(u.shape)
        residual = float(_max(norms(a @ u + fu - x) / scale))
        if residual <= tol:
            return BackwardStepResult(value, it, residual, steps, f_value)
        new = base - a_inv @ fu
        steps.append(float(_max(norms(new - u))))
        u = new
    raise NoConvergence(f"backward step at j={j}", opts.max_iters, residual, tol)


def coupled_trajectory(
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """All coupled states (x_k, y_k) for k in [lo, hi] through (xi, eta) at time n.

    Batch-ready: xi may be (dim_x, batch) with eta (dim_y, batch).  One
    backward fixed-point solve per step, shared across the batch.
    """
    return _trajectory(sys, n, lo, hi, xi, eta, opts)[0]


def _trajectory(
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], dict[int, np.ndarray]]:
    """The states of `coupled_trajectory` and f_k(x_k, y_k) at every k in
    [lo, hi): the coupling values its forward and backward steps computed."""
    opts = opts or DEFAULT_SOLVE
    x0 = np.asarray(xi, dtype=float)
    y0 = np.asarray(eta, dtype=float)
    states: dict[int, tuple[np.ndarray, np.ndarray]] = {n: (x0, y0)}
    couplings: dict[int, np.ndarray] = {}
    x, y = x0, y0
    for j in range(n, hi):
        x, y, couplings[j] = _forward_step(sys, j, x, y)
        states[j + 1] = (x, y)
    x, y = x0, y0
    if lo < n:
        per_step = SolveOptions(
            fixed_point_tol=opts.fixed_point_tol / (n - lo), max_iters=opts.max_iters
        )
        for j in range(n - 1, lo - 1, -1):
            y = np.asarray(sys.g.eval_inv(j, y), dtype=float) if sys.space.dim_y else y
            step = backward_step_detailed(sys, j, x, y, per_step)
            x, couplings[j] = step.value, step.coupling
            states[j] = (x, y)
    return states, couplings
