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


def _backward_picard(sys: SystemSpec, j: int, x: np.ndarray, eta: np.ndarray, guess,
                     tol: float, max_iters: int, norms) -> tuple[np.ndarray, np.ndarray, list]:
    """The one Picard kernel of the backward steps: u with A_j u + f_j(u, eta)
    = x on the (dim_x, batch) columns x, eta, with f_j(u, eta) and the scaled
    defect of every iterate.  `norms` is the space's column norm, picked once
    per walk by the caller.

    Iteration starts from A_j^{-1} (x - guess), with `guess` a previous
    value of f_j near the answer, or from A_j^{-1} x when it is None; both
    are exact when f == 0.  The stop test does not look at the start: the
    defect d = A_j u + f_j(u) - x of the returned u is at most tol max(1,
    |x|) per column, and as T_j contracts at rate |A_j^{-1}| gamma_j, every
    u that passes it satisfies |u - T_j(x)| <= |A_j^{-1}| |d| / (1 -
    |A_j^{-1}| gamma_j), however it was reached, so a warm-started walk
    and the bar_h and h built on it keep a cold walk's accuracy.  The
    iteration count is the largest over the columns, shared by the batch,
    so with each column's guess a smooth function of that column's data,
    the returned u is one too.
    """
    sys.require_backward_margin(j)
    a, a_inv = sys.a.matrix(j), sys.a.inverse(j)
    f, shape = sys.f.eval, x.shape
    scale = np.maximum(1.0, norms(x))
    base = _dot(a_inv, x)
    u = base if guess is None else base - _dot(a_inv, guess)
    residuals: list = []
    for _ in range(max_iters + 1):
        fu = _checked(f(j, u, eta), shape, "f.eval", j)
        defect = _dot(a, u)
        defect += fu
        defect -= x
        residual = float(_max(norms(defect) / scale))
        residuals.append(residual)
        if residual <= tol:
            return u, fu, residuals
        u = base - _dot(a_inv, fu)
    raise NoConvergence(f"backward step at j={j}", max_iters, residual, tol)


def backward_step_detailed(
    sys: SystemSpec, j: int, xi, eta, opts: Optional[SolveOptions] = None
) -> BackwardStepResult:
    """Solve F_j(u, eta) = xi for u, i.e. evaluate T_j(xi, eta).

    Picard iteration from the initial guess A_j^{-1} xi (exact when f == 0),
    by the kernel every backward step of a trajectory runs.  The residual is
    the defect |A_j u + f_j(u, eta) - xi| in the space norm, measured
    relative to max(1, |xi|): backward trajectories can grow exponentially,
    and the achievable defect scales with the data.  As A_j u_{k+1} = xi -
    f_j(u_k), the defect of u_{k+1} is f_j(u_{k+1}) - f_j(u_k), so
    successive defects contract at rate <= |A_j^{-1}| gamma_j.
    """
    opts = opts or DEFAULT_SOLVE
    x, eta, single = _state_columns(sys, xi, eta)
    u, fu, residuals = _backward_picard(sys, j, x, eta, None, opts.fixed_point_tol,
                                        opts.max_iters, _column_norms(sys.space.norm_kind))
    if single:
        u, fu = u[:, 0], fu[:, 0]
    return BackwardStepResult(u, len(residuals) - 1, residuals[-1], residuals, fu)


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
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None,
    guess: Optional[dict] = None,
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], dict[int, np.ndarray]]:
    """The states of `coupled_trajectory` through the (dim, batch) columns
    (xi, eta) and f_k(x_k, y_k) at every k in [lo, hi): the coupling values
    its forward and backward steps computed.  An overflow or invalid value
    anywhere on the walk raises NonautolinError naming the step j.

    Each backward step j solves its fixed point by `_backward_picard` to the
    per-step tolerance fixed_point_tol / (n - lo) of its defect.  `guess`,
    when given, is the coupling dict of an earlier walk of the same solve,
    over the same columns: step j then starts from A_j^{-1} (x_{j+1} -
    guess[j]), and the walk writes its own couplings into that dict, which
    it returns, so the earlier walk's arrays are released as it goes.  The
    stop test is the same from any start, so a warm walk's states are held
    to the same bound on their defects as a cold walk's, the bar_h summed
    from them is as accurate, and an h solve's stop test |u + bar_h(n, xi
    + u, eta)| <= fp_tol still gives |u - h| <= fp_tol / (1 - c(n)).
    Column i's guess is its own earlier coupling, a smooth function of its
    own data, and each step's Picard count is shared by the batch, so the
    sampled walk stays a smooth function of each column, as the smooth h
    solves of the d_h stencil need (`ConjugacyEngine.h_detailed`).
    """
    opts = opts or DEFAULT_SOLVE
    states: dict[int, tuple[np.ndarray, np.ndarray]] = {n: (xi, eta)}
    couplings: dict[int, np.ndarray] = {} if guess is None else guess
    x, y = xi, eta
    try:
        with np.errstate(over="raise", invalid="raise"):  # once per walk, not per Picard step
            for j in range(n, hi):
                x, y, couplings[j] = _forward_step(sys, j, x, y)
                states[j + 1] = (x, y)
            x, y = xi, eta
            if lo < n:
                tol, max_iters = opts.fixed_point_tol / (n - lo), opts.max_iters
                norms = _column_norms(sys.space.norm_kind)
                g_inv = sys.g.eval_inv if sys.space.dim_y else None
                for j in range(n - 1, lo - 1, -1):
                    if g_inv is not None:
                        y = _checked(g_inv(j, y), y.shape, "g.eval_inv", j)
                    x, couplings[j], _ = _backward_picard(sys, j, x, y, couplings.get(j), tol,
                                                          max_iters, norms)
                    states[j] = (x, y)
    except FloatingPointError as exc:
        raise NonautolinError(
            f"arithmetic failure in the coupled trajectory at j={j}: {exc}") from exc
    return states, couplings
