"""System description and linear machinery.

A coupled system

    x_{n+1} = A_n x_n + f_n(x_n, y_n),    y_{n+1} = g_n(y_n)

on X = R^dim_x, Y = R^dim_y is described by a `SystemSpec`.  This module
holds the building blocks (operator, weight, coupling and driver sequences),
the transition operators

    transition(m, n) = A_{m-1} ... A_n          (m > n)
                     = Id                        (m = n)
                     = A_m^{-1} ... A_{n-1}^{-1} (m < n)

and the Green kernel

    green(m, n) = transition(m, n) @ P_n             (m >= n)
                = -transition(m, n) @ (Id - P_n)     (m < n),

where the weights P_n need not be projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .errors import ContractionViolation, SingularOperatorError

NormKind = Literal["max", "euclidean"]

INVERSE_CHECK_TOL = 1e-12


def vector_norm(v: np.ndarray, kind: NormKind) -> float:
    """Vector norm: max-norm or euclidean norm. Empty vectors have norm 0."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    if kind == "max":
        return float(np.max(np.abs(v)))
    return float(np.linalg.norm(v))


def batch_vector_norm(v: np.ndarray, kind: NormKind) -> np.ndarray:
    """Column-wise norms of a (dim, batch) array; returns shape (batch,)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.asarray([vector_norm(v, kind)])
    if v.shape[0] == 0:
        return np.zeros(v.shape[1])
    if kind == "max":
        return np.max(np.abs(v), axis=0)
    return np.linalg.norm(v, axis=0)


def operator_norm(mat: np.ndarray, kind: NormKind) -> float | np.ndarray:
    """Induced operator norm of a matrix (a float), or of every matrix of a
    (..., r, c) stack (an array of shape (...)).

    For the max vector norm this is the maximum absolute row sum (exact);
    for the euclidean norm it is the largest singular value.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        out = np.zeros(m.shape[:-2])
    elif kind == "max":
        out = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    else:
        out = np.linalg.norm(m, 2, axis=(-2, -1))
    return float(out) if m.ndim == 2 else out


@dataclass(frozen=True)
class SpaceSpec:
    """Dimensions and norm of the product space X x Y.

    dim_y = 0 encodes the trivial-Y case: the y component is the empty
    vector and the coupled system degenerates to a single perturbed linear
    recursion.  The product-space norm is the max of the component norms.
    """

    dim_x: int
    dim_y: int = 0
    norm_kind: NormKind = "max"

    def __post_init__(self):
        if self.dim_x < 1:
            raise ValueError("dim_x must be >= 1")
        if self.dim_y < 0:
            raise ValueError("dim_y must be >= 0")
        if self.norm_kind not in ("max", "euclidean"):
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}")

    def norm_x(self, v) -> float:
        return vector_norm(v, self.norm_kind)

    def norm_y(self, v) -> float:
        return vector_norm(v, self.norm_kind)


class OperatorSeq:
    """Function-backed bi-infinite sequence of invertible operators A_n.

    Inverses come from `inv` when supplied (closed form) and are computed
    numerically otherwise; either way A_n @ A_n^{-1} must reproduce the
    identity to 1e-12 in the max operator norm.  Values are memoized per
    index.
    """

    def __init__(
        self,
        matrix: Callable[[int], np.ndarray],
        inv: Optional[Callable[[int], np.ndarray]] = None,
        norm_bound: Optional[Callable[[int], float]] = None,
        inv_norm_bound: Optional[Callable[[int], float]] = None,
    ):
        self._matrix_fn = matrix
        self._inv_fn = inv
        self._norm_bound = norm_bound
        self._inv_norm_bound = inv_norm_bound
        self._cache: dict = {}

    @staticmethod
    def constant(mat: np.ndarray, inv: Optional[np.ndarray] = None) -> "OperatorSeq":
        mat = np.asarray(mat, dtype=float)
        if inv is None:
            inv = np.linalg.inv(mat)
        else:
            inv = np.asarray(inv, dtype=float)
        return OperatorSeq(lambda n: mat, lambda n: inv)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def matrix(self, n: int) -> np.ndarray:
        return self._cached(("a", n), lambda: np.asarray(self._matrix_fn(n), dtype=float))

    def inverse(self, n: int) -> np.ndarray:
        return self._cached(("inv", n), lambda: self._build_inverse(n))

    def _build_inverse(self, n: int) -> np.ndarray:
        a = self.matrix(n)
        if self._inv_fn is not None:
            inv = np.asarray(self._inv_fn(n), dtype=float)
        else:
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise SingularOperatorError(n, str(exc)) from exc
        resid = operator_norm(a @ inv - np.eye(a.shape[0]), "max")
        if not np.isfinite(resid) or resid > INVERSE_CHECK_TOL:
            raise SingularOperatorError(n, f"A @ A^-1 deviates from identity by {resid:.3e}")
        return inv

    def norm(self, n: int, kind: NormKind) -> float:
        if self._norm_bound is not None:
            return float(self._norm_bound(n))
        return self._cached(("norm", n, kind), lambda: operator_norm(self.matrix(n), kind))

    def inv_norm(self, n: int, kind: NormKind) -> float:
        if self._inv_norm_bound is not None:
            return float(self._inv_norm_bound(n))
        return self._cached(("inorm", n, kind), lambda: operator_norm(self.inverse(n), kind))


class WeightSeq:
    """Function-backed sequence of weights P_n (not required to be projections)."""

    def __init__(self, matrix: Callable[[int], np.ndarray]):
        self._matrix_fn = matrix
        self._cache: dict = {}

    @staticmethod
    def constant(mat: np.ndarray) -> "WeightSeq":
        mat = np.asarray(mat, dtype=float)
        return WeightSeq(lambda n: mat)

    def matrix(self, n: int) -> np.ndarray:
        if n not in self._cache:
            self._cache[n] = np.asarray(self._matrix_fn(n), dtype=float)
        return self._cache[n]


@dataclass
class CouplingSpec:
    """Coupling maps f_n : X x Y -> X with their constants.

    `eval` must accept states of shape (dim_x,) and may also receive
    (dim_x, batch) column batches (all built-ins broadcast).  `jac_x` and
    `jac_y` receive (dim_x, batch) and (dim_y, batch) columns and return
    the (batch, dim_x, dim_x) and (batch, dim_x, dim_y) stacks of the
    per-column Jacobians.  The constants
    are the bound mu_n >= sup |f_n|, the first-variable Lipschitz constant
    gamma_n and the second-variable Lipschitz constant rho_n.
    """

    eval: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    jac_y: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    mu: Callable[[int], float]
    gamma: Callable[[int], float]
    rho: Callable[[int], float]

    @staticmethod
    def zero(dim_x: int, dim_y: int) -> "CouplingSpec":
        def _f(n, x, y):
            return np.zeros_like(np.asarray(x, dtype=float))

        return CouplingSpec(
            eval=_f,
            jac_x=lambda n, x, y: np.zeros((np.shape(x)[1], dim_x, dim_x)),
            jac_y=lambda n, x, y: np.zeros((np.shape(x)[1], dim_x, dim_y)),
            mu=lambda n: 0.0,
            gamma=lambda n: 0.0,
            rho=lambda n: 0.0,
        )


@dataclass
class DriverSpec:
    """Driver maps g_n : Y -> Y, their inverses, Jacobians and Lipschitz constants.

    `jac` receives (dim_y, batch) columns and returns the (batch, dim_y,
    dim_y) stack of the per-column Jacobians.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    eval_inv: Callable[[int, np.ndarray], np.ndarray]
    jac: Callable[[int, np.ndarray], np.ndarray]
    tau: Callable[[int], float]
    sigma: Callable[[int], float]

    @staticmethod
    def trivial() -> "DriverSpec":
        # dim_y = 0: the driver acts on empty vectors; tau = sigma = 0 keeps
        # the second-variable Lipschitz products equal to the first-variable ones.
        def _id(n, y):
            return np.asarray(y, dtype=float)

        return DriverSpec(
            eval=_id,
            eval_inv=_id,
            jac=lambda n, y: np.zeros((np.shape(y)[1], 0, 0)),
            tau=lambda n: 0.0,
            sigma=lambda n: 0.0,
        )

    @staticmethod
    def identity(dim_y: int) -> "DriverSpec":
        def _id(n, y):
            return np.asarray(y, dtype=float)

        return DriverSpec(
            eval=_id,
            eval_inv=_id,
            jac=lambda n, y: np.broadcast_to(np.eye(dim_y), (np.shape(y)[1], dim_y, dim_y)),
            tau=lambda n: 1.0,
            sigma=lambda n: 1.0,
        )

    @staticmethod
    def rotation(angle: float) -> "DriverSpec":
        """Planar rotation driver; an exact isometry in the euclidean norm."""
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        rot_inv = rot.T.copy()
        return DriverSpec(
            eval=lambda n, y: rot @ y,
            eval_inv=lambda n, y: rot_inv @ y,
            jac=lambda n, y: np.broadcast_to(rot, (np.shape(y)[1], 2, 2)),
            tau=lambda n: 1.0,
            sigma=lambda n: 1.0,
        )


@dataclass(frozen=True)
class GeometricTail:
    """Geometric term envelope: term(center +/- d) <= amplitude * ratio**d for d >= 1."""

    amplitude: float
    ratio: float

    def __post_init__(self):
        if not (0.0 <= self.ratio < 1.0):
            raise ValueError("envelope ratio must lie in [0, 1)")
        if self.amplitude < 0.0:
            raise ValueError("envelope amplitude must be nonnegative")

    def one_sided(self, halfwidth: int) -> float:
        """Bound on the sum of terms beyond distance `halfwidth` on one side."""
        if self.amplitude == 0.0 or self.ratio == 0.0:
            return 0.0
        return self.amplitude * self.ratio ** (halfwidth + 1) / (1.0 - self.ratio)

    def two_sided(self, halfwidth: int) -> float:
        return 2.0 * self.one_sided(halfwidth)

    def required_halfwidth(self, target: float) -> Optional[int]:
        """Smallest halfwidth with the two-sided tail <= target, or None if
        target <= 0 or the amplitude is infinite."""
        if target <= 0.0 or math.isinf(self.amplitude):
            return None
        if self.amplitude == 0.0 or self.ratio == 0.0:
            return 1
        # closed form, then nudge for float rounding
        est = math.log(target * (1.0 - self.ratio) / (2 * self.amplitude)) / math.log(self.ratio) - 1.0
        k = max(1, int(math.ceil(est)))
        while self.two_sided(k) > target:
            k += 1
        return k


@dataclass(frozen=True)
class TailEnvelopes:
    """Analytic geometric envelopes for the hypothesis and conjugacy series.

    Each entry maps the series center to a `GeometricTail` dominating the
    series terms at distance d from the center:

      bc2  : |G(m, n')| mu_{n'-1}                       (center m)
      bc3  : |G(m, n')| gamma_{n'-1}                    (center m)
      barh : |G(n, k+1)| mu_k                           (center n)
      dxi  : |G(n, k+1)| gamma_k C_{k,n}                (center n)
      deta : |G(n, k+1)| (gamma_k M_{k,n} + rho_k D_{k,n})   (center n)
    """

    bc2: Optional[Callable[[int], GeometricTail]] = None
    bc3: Optional[Callable[[int], GeometricTail]] = None
    barh: Optional[Callable[[int], GeometricTail]] = None
    dxi: Optional[Callable[[int], GeometricTail]] = None
    deta: Optional[Callable[[int], GeometricTail]] = None


@dataclass
class SystemSpec:
    """Full description of one coupled system."""

    space: SpaceSpec
    a: OperatorSeq
    p: WeightSeq
    f: CouplingSpec
    g: DriverSpec
    envelopes: Optional[TailEnvelopes] = None
    label: str = ""

    def a_norm(self, n: int) -> float:
        return self.a.norm(n, self.space.norm_kind)

    def a_inv_norm(self, n: int) -> float:
        return self.a.inv_norm(n, self.space.norm_kind)

    def contraction_margin(self, n: int) -> float:
        """|A_n^{-1}| * gamma_n; backward evolution requires this < 1."""
        return self.a_inv_norm(n) * self.f.gamma(n)

    def require_backward_margin(self, n: int) -> float:
        margin = self.contraction_margin(n)
        if not margin < 1.0:
            raise ContractionViolation(n, margin)
        return margin


def transition(sys: SystemSpec, m: int, n: int) -> np.ndarray:
    """Transition operator moving time n to time m (ordered operator product)."""
    dx = sys.space.dim_x
    out = np.eye(dx)
    if m > n:
        for j in range(n, m):
            out = sys.a.matrix(j) @ out
    elif m < n:
        for j in range(n - 1, m - 1, -1):
            out = sys.a.inverse(j) @ out
    return out


def green(sys: SystemSpec, m: int, n: int) -> np.ndarray:
    """Green kernel: transition(m,n) @ P_n for m >= n, else -transition(m,n) @ (Id - P_n)."""
    p = sys.p.matrix(n)
    tr = transition(sys, m, n)
    if m >= n:
        return tr @ p
    return -(tr @ (np.eye(sys.space.dim_x) - p))


def green_span(sys: SystemSpec, m: int, lo: int, hi: int) -> np.ndarray:
    """Green kernels G(m, q) for every q in [lo, hi] as one (hi - lo + 1, dim_x,
    dim_x) stack, with G(m, q) at [q - lo].

    Uses the second-argument recurrences transition(m, q+1) =
    transition(m, q) @ A_q^{-1} and transition(m, q-1) = transition(m, q) @ A_{q-1},
    so the whole span costs one matrix product per step.  A kernel that
    overflows raises FloatingPointError.
    """
    dx = sys.space.dim_x
    out = np.empty((max(hi - lo + 1, 0), dx, dx))
    if lo > hi:
        return out
    anchor = int(np.clip(m, lo, hi))
    with np.errstate(over="raise", invalid="raise"):
        out[anchor - lo] = transition(sys, m, anchor)
        for q in range(anchor + 1, hi + 1):
            out[q - lo] = out[q - 1 - lo] @ sys.a.inverse(q - 1)
        for q in range(anchor - 1, lo - 1, -1):
            out[q - lo] = out[q + 1 - lo] @ sys.a.matrix(q)
        eye = np.eye(dx)
        for q in range(lo, hi + 1):
            p = sys.p.matrix(q)
            out[q - lo] = out[q - lo] @ p if m >= q else -(out[q - lo] @ (eye - p))
    return out


def green_norm_rows(sys: SystemSpec, lo: int, hi: int, w: int) -> tuple[np.ndarray, dict]:
    """|G(n, q)| for every center n in [lo, hi] and q in [n - w, n + w + 1], at
    [n - lo, q - n + w] of a (hi - lo + 1, 2w + 2) array, and {n: message} for
    the centers whose span overflows (their rows are NaN).

    Each half of the span slides from center to center by a first-argument
    recurrence of the raw transitions, one batched product per center: the
    past half (q <= n) upward, T(n+1, q) = A_n T(n, q), and the future half
    (q > n) downward, T(n-1, q) = A_{n-1}^{-1} T(n, q), so no factor is ever
    cancelled against its inverse.  One more batched product applies the
    weights P_q or -(Id - P_q), and only the norms are kept.  The first
    center, and the one after an overflowing center, builds its half from an
    empty stack.
    """
    dx, kind = sys.space.dim_x, sys.space.norm_kind
    eye = np.eye(dx)
    p = np.array([sys.p.matrix(q) for q in range(lo - w, hi + w + 2)])
    rows = np.full((hi - lo + 1, 2 * w + 2), np.nan)
    failed: dict[int, str] = {}

    def past(c, stack):  # the half of center c from that of c - 1
        return np.concatenate((np.matmul(sys.a.matrix(c - 1), stack[-w:]), eye[None]))

    def future(c, stack):  # the half of center c from that of c + 1
        return np.matmul(sys.a.inverse(c), np.concatenate((eye[None], stack[:w])))

    # per half: step, weights over [lo - w, hi + w + 1], columns, centers in
    # sweep order, and the steps that build a center's half from scratch
    halves = ((future, -(eye - p), slice(w + 1, 2 * w + 2), range(hi, lo - 1, -1),
               lambda n: range(n + w, n - 1, -1)),
              (past, p, slice(0, w + 1), range(lo, hi + 1), lambda n: range(n - w, n + 1)))
    with np.errstate(over="raise", invalid="raise"):
        for step, weights, cols, centers, scratch in halves:
            stack = None
            for n in centers:
                try:
                    if stack is None:
                        stack = np.empty((0, dx, dx))
                        for c in scratch(n):
                            stack = step(c, stack)
                    else:
                        stack = step(n, stack)
                    kernels = np.matmul(stack, weights[n - lo:][cols])
                    rows[n - lo, cols] = operator_norm(kernels, kind)
                except FloatingPointError as exc:
                    failed.setdefault(n, str(exc))
                    stack = None
    rows[[n - lo for n in failed]] = np.nan
    return rows, failed
