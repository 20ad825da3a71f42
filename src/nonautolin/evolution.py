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

from .errors import NoConvergence, NonautolinError
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

_max = np.maximum.reduce  # np.max without its wrapper
_dot = np.dot  # the product of @ on 2-D arrays, with less call overhead


def _as_columns(v, dim: int, batch: int = 1) -> tuple[np.ndarray, bool]:
    """(dim, batch) columns of a state or batch, and whether it was one state;
    a single state is repeated `batch` times."""
    arr = np.asarray(v, dtype=float)
    single = arr.ndim == 1
    cols = np.repeat(arr[:, None], batch, axis=1) if single else arr
    if cols.ndim != 2 or cols.shape[0] != dim:
        raise ValueError(f"expected a ({dim},) state or ({dim}, batch) columns, got {arr.shape}")
    return cols, single


def _state_columns(sys: SystemSpec, xi, eta) -> tuple[np.ndarray, np.ndarray, bool]:
    """xi and eta as (dim, batch) columns, eta = 0 when absent, and whether
    xi was a single state; a 2-D eta must have the batch of xi."""
    xi_b, single = _as_columns(xi, sys.space.dim_x)
    batch = xi_b.shape[1]
    dy = sys.space.dim_y
    eta_b = np.zeros((dy, batch)) if eta is None else _as_columns(eta, dy, batch)[0]
    if eta_b.shape[1] != batch:
        raise ValueError(f"eta of shape {np.shape(eta)} does not match xi of shape {np.shape(xi)}")
    return xi_b, eta_b, single


def _checked(out, shape: tuple, name: str, j: int) -> np.ndarray:
    """The result `out` of the system map `name` at index j as a float array
    of `shape`: (dim, batch) columns for f.eval, g.eval and g.eval_inv, the
    (batch, rows, columns) stack of per-column Jacobians for f.jac_x, f.jac_y
    and g.jac.  Every call of a coupling or driver map in the package passes
    its result through here; a result of any other shape raises ValueError
    naming the expected one."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        layout = "a stack" if len(shape) == 3 else "columns"
        raise ValueError(f"{name} at j={j} must return {layout} of shape {shape}, got {out.shape}")
    return out


def _forward_step(sys: SystemSpec, j: int, x, y, coupled: bool = True):
    """(x_{j+1}, y_{j+1}, f_j(x_j, y_j)) from (dim, batch) columns (x_j, y_j)
    under the coupled system, or (x_{j+1}, y_{j+1}, None) under the uncoupled
    one when `coupled` is False."""
    x_next = _dot(sys.a.matrix(j), x)
    y_next = _checked(sys.g.eval(j, y), y.shape, "g.eval", j) if sys.space.dim_y else y
    if not coupled:
        return x_next, y_next, None
    fx = _checked(sys.f.eval(j, x, y), x.shape, "f.eval", j)
    return x_next + fx, y_next, fx


@dataclass
class BackwardStepResult:
    """T_j(xi, eta) with its Picard record: `residuals` holds the scaled
    defect of every iterate, the last of them `residual`, and `coupling` is
    f_j at the returned value, the converged iterate's coupling value."""

    value: np.ndarray
    iterations: int
    residual: float
    residuals: list
    coupling: np.ndarray


def backward_step_detailed(
    sys: SystemSpec, j: int, xi, eta, opts: Optional[SolveOptions] = None
) -> BackwardStepResult:
    """Solve F_j(u, eta) = xi for u, i.e. evaluate T_j(xi, eta).

    Picard iteration from the initial guess A_j^{-1} xi (exact when f == 0).
    The residual is the defect |A_j u + f_j(u, eta) - xi| in the space norm,
    measured relative to max(1, |xi|): backward trajectories can grow
    exponentially, and the achievable defect scales with the data.  As
    A_j u_{k+1} = xi - f_j(u_k), the defect of u_{k+1} is f_j(u_{k+1}) -
    f_j(u_k), so successive defects contract at rate <= |A_j^{-1}| gamma_j.
    """
    opts = opts or DEFAULT_SOLVE
    sys.require_backward_margin(j)
    norms = _column_norms(sys.space.norm_kind)
    a = sys.a.matrix(j)
    a_inv = sys.a.inverse(j)
    x, eta, single = _state_columns(sys, xi, eta)
    f, shape = sys.f.eval, x.shape
    scale = np.maximum(1.0, norms(x))
    base = _dot(a_inv, x)
    u = base
    residuals: list = []
    tol = opts.fixed_point_tol
    for it in range(opts.max_iters + 1):
        fu = _checked(f(j, u, eta), shape, "f.eval", j)
        defect = _dot(a, u)
        defect += fu
        defect -= x
        residual = float(_max(norms(defect) / scale))
        residuals.append(residual)
        if residual <= tol:
            if single:
                u, fu = u[:, 0], fu[:, 0]
            return BackwardStepResult(u, it, residual, residuals, fu)
        u = base - _dot(a_inv, fu)
    raise NoConvergence(f"backward step at j={j}", opts.max_iters, residual, tol)


def coupled_trajectory(
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """All coupled states (x_k, y_k) for k in [lo, hi] through (xi, eta) at time n.

    Batch-ready: xi may be (dim_x, batch) with eta (dim_y, batch).  One
    backward fixed-point solve per step, shared across the batch.
    """
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    states = _trajectory(sys, n, lo, hi, xi_b, eta_b, opts)[0]
    return {k: (x[:, 0], y[:, 0]) for k, (x, y) in states.items()} if single else states


def _trajectory(
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], dict[int, np.ndarray]]:
    """The states of `coupled_trajectory` through the (dim, batch) columns
    (xi, eta) and f_k(x_k, y_k) at every k in [lo, hi): the coupling values
    its forward and backward steps computed.  An overflow or invalid value
    anywhere on the walk raises NonautolinError naming the step j."""
    opts = opts or DEFAULT_SOLVE
    states: dict[int, tuple[np.ndarray, np.ndarray]] = {n: (xi, eta)}
    couplings: dict[int, np.ndarray] = {}
    x, y = xi, eta
    try:
        with np.errstate(over="raise", invalid="raise"):  # once per walk, not per Picard step
            for j in range(n, hi):
                x, y, couplings[j] = _forward_step(sys, j, x, y)
                states[j + 1] = (x, y)
            x, y = xi, eta
            if lo < n:
                per_step = SolveOptions(
                    fixed_point_tol=opts.fixed_point_tol / (n - lo), max_iters=opts.max_iters
                )
                for j in range(n - 1, lo - 1, -1):
                    if sys.space.dim_y:
                        y = _checked(sys.g.eval_inv(j, y), y.shape, "g.eval_inv", j)
                    step = backward_step_detailed(sys, j, x, y, per_step)
                    x, couplings[j] = step.value, step.coupling
                    states[j] = (x, y)
    except FloatingPointError as exc:
        raise NonautolinError(
            f"arithmetic failure in the coupled trajectory at j={j}: {exc}") from exc
    return states, couplings
