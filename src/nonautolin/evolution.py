"""Solution maps of the coupled and uncoupled systems.

Forward solutions step the recursions directly.  Backward solutions of the
coupled x-recursion solve, at each step j, the fixed-point equation

    T_j(xi, eta) = A_j^{-1} xi - A_j^{-1} f_j(T_j(xi, eta), eta)

by Picard iteration; the map is a contraction with rate |A_j^{-1}| gamma_j,
which must be < 1.  T_j inverts the step map F_j(x, eta) = A_j x + f_j(x, eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NoConvergence
from .system import SystemSpec, _column_norms


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances for the backward fixed-point steps."""

    fixed_point_tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if not self.fixed_point_tol > 0.0:  # NaN too
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


def _forward_step(sys: SystemSpec, j: int, x, y):
    """(x_{j+1}, y_{j+1}, f_j(x_j, y_j)) from (dim, batch) columns (x_j, y_j)
    under the coupled system: the one place that forms A_j x + f_j(x, y)."""
    x_next = _dot(sys.a.matrix(j), x)
    y_next = _checked(sys.g.eval(j, y), y.shape, "g.eval", j) if sys.space.dim_y else y
    fx = _checked(sys.f.eval(j, x, y), x.shape, "f.eval", j)
    return x_next + fx, y_next, fx


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
    and the bar_h and h built on it keep a cold walk's accuracy.  As A_j
    u_{k+1} = x - f_j(u_k), the defect of u_{k+1} is f_j(u_{k+1}) -
    f_j(u_k), so successive defects contract at rate |A_j^{-1}| gamma_j.  The
    iteration count is the largest over the finite columns, shared by the
    batch, so with each column's guess a smooth function of that column's
    data, the returned u is one too.
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
        r = norms(defect) / scale
        residual = float(_max(r))
        if not math.isfinite(residual):  # the largest finite defect, 0 if none is
            residual = float(_max(r, where=np.isfinite(r), initial=0.0))
        residuals.append(residual)
        if residual <= tol:
            return u, fu, residuals
        u = base - _dot(a_inv, fu)
    raise NoConvergence(f"backward step at j={j}", max_iters, residual, tol)


def coupled_trajectory(
    sys: SystemSpec, n: int, lo: int, hi: int, xi, eta, opts: Optional[SolveOptions] = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """All coupled states (x_k, y_k) for k in [lo, hi] through (xi, eta) at time n.

    Batch-ready: xi may be (dim_x, batch) with eta (dim_y, batch).  One
    backward fixed-point solve per step, shared across the batch.  Raises
    ValueError unless lo <= n <= hi.
    """
    if not lo <= n <= hi:
        raise ValueError(f"coupled_trajectory needs lo <= n <= hi, got n={n} in [{lo}, {hi}]")
    xi_b, eta_b, single = _state_columns(sys, xi, eta)
    states = {n: (xi_b, eta_b)}
    _trajectory(sys, [Span(n, lo, hi, xi_b.shape[1])], xi_b, eta_b, opts, states=states)
    return {k: (x[:, 0], y[:, 0]) for k, (x, y) in states.items()} if single else states


def _nan_unless_finite(fx: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The couplings fx, NaN in each column whose state (x, y) is not finite."""
    finite = np.isfinite(x).all(axis=0) & np.isfinite(y).all(axis=0)
    return fx if finite.all() else np.where(finite, fx, math.nan)


class Span(NamedTuple):
    """One centre of a `_trajectory` sweep: `count` consecutive columns
    through their (xi, eta) at time n, walked over [lo, hi], lo <= n <= hi + 1.
    A bar_h walk's span is its fitted window: lo = n where it keeps no term
    k < n, and hi = n - 1, evaluating no coupling at n, where none k >= n."""

    n: int
    lo: int
    hi: int
    count: int


def _trajectory(
    sys: SystemSpec, spans: list, xi, eta, opts: Optional[SolveOptions] = None,
    couplings: Optional[list] = None, warm: bool = False, states: Optional[dict] = None,
) -> None:
    """The one walk of the package: a sweep over the (dim, batch) columns
    (xi, eta), laid out by the `Span`s in ascending order of their centres,
    each span's columns walked forward from its centre n to hi and backward
    to lo; a span with hi <= n takes no forward step, one with lo = n no
    backward step.  At each j one `_forward_step` steps every column whose centre
    is <= j < its hi, and one `_backward_picard` call every column whose lo
    is <= j < its centre, so the walks of neighbouring centres share each
    step's coupling evaluation.  One span is exactly a single walk.

    With `couplings`, one list of hi - lo + 1 entries per span, the sweep
    puts f_k(x_k, y_k) of the span's columns, (dim_x, count), at every k
    of its window, the upper end included, in entry k - lo.  With `warm`,
    these hold the couplings of an earlier sweep of the same solve over the
    same columns and windows: backward step j of a column starts from
    A_j^{-1} (x_{j+1} - that guess), and the step's own coupling replaces
    it.  With `states`, a dict, a one-span sweep also records (x_k, y_k) at
    every k of [lo, hi] but n, which the caller sets.  A non-finite value
    stays in its column, which the Picard stop test skips, and stays so to
    lo and hi, A_j being invertible: there its coupling is set to NaN.

    Each backward step solves its fixed point by `_backward_picard` to the
    per-step tolerance fixed_point_tol / (n - lo) of its defect, the
    smallest over the spans it steps.  The stop test is the same from any
    start, so a warm walk's states are held to the same bound on their
    defects as a cold walk's, the bar_h summed from them is as accurate,
    and an h solve's stop test |u + bar_h(n, xi + u, eta)| <= fp_tol still
    gives |u - h| <= fp_tol / (1 - c(n)).  Column i's guess is its own
    earlier coupling, a smooth function of its own data, and each step's
    Picard count is shared by the batch, so the sampled walk stays a smooth
    function of each column, as the smooth h solves of the d_h stencil
    need (`ConjugacyEngine.h_detailed`).
    """
    opts = opts or DEFAULT_SOLVE
    starts = np.cumsum([0] + [s.count for s in spans]).tolist()
    top = couplings is not None  # whether f is needed at the upper end

    def columns(now, prev, x, y):
        """The states of the spans `now`, and where each span's couplings
        go: a span of `prev` keeps its columns of (x, y), a new one starts
        from its (xi, eta); each run of consecutive spans from one source
        is one slice."""
        held, pos = {}, 0
        for i in prev:
            held[i] = pos
            pos += spans[i].count
        runs: list = []  # [held, start, stop]
        targets, pos = [], 0  # (coupling list, its lo, the span's columns)
        for i in now:
            a = held.get(i, starts[i])
            if runs and runs[-1][0] == (i in held) and runs[-1][2] == a:
                runs[-1][2] += spans[i].count
            else:
                runs.append([i in held, a, a + spans[i].count])
            if top:
                targets.append((couplings[i], spans[i].lo, slice(pos, pos + spans[i].count)))
            pos += spans[i].count
        cols = [(x[:, a:b], y[:, a:b]) if kept else (xi[:, a:b], eta[:, a:b])
                for kept, a, b in runs]
        if len(cols) == 1:
            return cols[0] + (targets,)
        return np.hstack([c[0] for c in cols]), np.hstack([c[1] for c in cols]), targets

    def segments(window, backward):
        """(steps, spans) in sweep order: the runs of j over which the set
        of spans whose half-open `window` holds j stays the same."""
        ends = sorted({e for s in spans for e in window(s)})
        runs = []
        for a, b in zip(ends, ends[1:]):
            inside = tuple(i for i, s in enumerate(spans) if window(s)[0] <= a < window(s)[1])
            if inside:
                runs.append((range(b - 1, a - 1, -1) if backward else range(a, b), inside))
        return runs[::-1] if backward else runs

    x = y = None
    with np.errstate(over="ignore", invalid="ignore"):  # once per sweep, not per Picard step
        prev: tuple = ()
        for steps, now in segments(lambda s: (s.n, s.hi + top), False):
            x, y, targets = columns(now, prev, x, y)
            prev, end = now, max(spans[i].hi for i in now)
            for j in steps:
                x_j, y_j = x, y
                if j == end:  # every window ends at j: its coupling alone
                    fx = _checked(sys.f.eval(j, x, y), x.shape, "f.eval", j)
                else:
                    x, y, fx = _forward_step(sys, j, x, y)
                    if states is not None:
                        states[j + 1] = (x, y)
                for out, lo, cols in targets:  # hi = lo + len(out) - 1
                    out[j - lo] = (fx[:, cols] if j - lo < len(out) - 1 else
                                   _nan_unless_finite(fx[:, cols], x_j[:, cols], y_j[:, cols]))
        norms = _column_norms(sys.space.norm_kind)
        g_inv = sys.g.eval_inv if sys.space.dim_y else None
        prev = ()
        for steps, now in segments(lambda s: (s.lo, s.n), True):
            x, y, targets = columns(now, prev, x, y)
            prev = now
            tol = opts.fixed_point_tol / max(spans[i].n - spans[i].lo for i in now)
            for j in steps:
                if g_inv is not None:
                    y = _checked(g_inv(j, y), y.shape, "g.eval_inv", j)
                guess = None
                if warm:
                    guess = [out[j - lo] for out, lo, _ in targets]
                    guess = guess[0] if len(guess) == 1 else np.hstack(guess)
                x, fx, _ = _backward_picard(sys, j, x, y, guess, tol, opts.max_iters, norms)
                for out, lo, cols in targets:
                    out[j - lo] = (fx[:, cols] if j > lo else
                                   _nan_unless_finite(fx[:, cols], x[:, cols], y[:, cols]))
                if states is not None:
                    states[j] = (x, y)
