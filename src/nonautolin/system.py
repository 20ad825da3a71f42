"""System description and linear machinery.

A coupled system

    x_{n+1} = A_n x_n + f_n(x_n, y_n),    y_{n+1} = g_n(y_n)

on X = R^dim_x, Y = R^dim_y is described by a `SystemSpec`.  This module
holds the building blocks (operator, weight, coupling and driver sequences)
and `green_span`, which returns the Green kernels

    G(m, n) = T(m, n) P_n              (m >= n)
            = -T(m, n) (Id - P_n)      (m < n)

of the transition operators

    T(m, n) = A_{m-1} ... A_n          (m > n)
            = Id                        (m = n)
            = A_m^{-1} ... A_{n-1}^{-1} (m < n),

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


def _column_norms(kind: NormKind) -> Callable[[np.ndarray], np.ndarray]:
    """The one column norm: the norms of the columns of a (dim, batch) float
    array with dim >= 1 as bare ufunc reductions, the values of
    np.max(|v|, axis=0) and np.linalg.norm(v, axis=0) without their
    wrappers; each caller picks it once per call, outside its loops."""
    if kind == "max":
        return lambda v: np.maximum.reduce(np.abs(v), axis=0)
    return lambda v: np.sqrt(np.add.reduce(v * v, axis=0))


def operator_norm(mat: np.ndarray, kind: NormKind) -> float | np.ndarray:
    """Induced operator norm of a matrix (a float), or of every matrix of a
    (..., r, c) stack (an array of shape (...)).

    For the max vector norm this is the maximum absolute row sum (exact).
    For the euclidean norm it is sqrt(lambda_max) of the q x q Gram matrix G
    of the smaller side of S = 2^-e M (p x q after a transpose), 2^e the power
    of two above max |m_ij|: an exact scaling to |s_ij| < 1 and ||S||_2 >= 1/2,
    so G cannot overflow and underflow adds under u ||S||_2^2.  The computed
    G + E has |E| <= gamma_p |S|^T |S| (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., §3.5), so ||E||_2 <= q gamma_p ||S||_2^2;
    eigvalsh returns lambda_max of G + E + F, ||F||_2 <= c_q u ||G + E||_2
    with c_q modest (LAPACK Users' Guide, §4.7).  By Weyl's bound lambda_max
    moves by delta = q gamma_p + c_q u (1 + q gamma_p) relative at most, the
    norm by delta / 2 + u to first order (u = 2^-53, gamma_p = p u/(1 - p u)).
    For both kinds an inf entry gives inf, a NaN entry NaN, and a norm past
    the largest double inf unless over="raise".
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        out = np.zeros(m.shape[:-2])
    elif kind == "max":
        out = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    else:
        # each matrix's max |m_ij|, reduced along the stack: a copy entries-first is faster
        big = np.abs(m).reshape(-1, m.shape[-2] * m.shape[-1]).T.copy().max(axis=0)
        big = big.reshape(m.shape[:-2])
        ok = np.isfinite(big)
        e = np.frexp(np.where(ok, big, 0.0))[1]
        s = np.ldexp(m, -e[..., None, None], out=np.zeros(m.shape), where=ok[..., None, None])
        st = np.swapaxes(s, -1, -2).copy()  # contiguous, for matmul's fast path
        lam = np.linalg.eigvalsh(st @ s if m.shape[-2] > m.shape[-1] else s @ st)[..., -1]
        out = np.where(ok, np.ldexp(np.sqrt(lam), e), big)
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

    Every map receives (dim_x, batch) and (dim_y, batch) float columns, one
    state per column: `eval` returns the (dim_x, batch) columns of f_n, and
    `jac_x` and `jac_y` the (batch, dim_x, dim_x) and (batch, dim_x, dim_y)
    stacks of the per-column Jacobians.  The constants are the bound
    mu_n >= sup |f_n|, the first-variable Lipschitz constant gamma_n and the
    second-variable Lipschitz constant rho_n.
    """

    eval: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    jac_y: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    mu: Callable[[int], float]
    gamma: Callable[[int], float]
    rho: Callable[[int], float]

    @staticmethod
    def zero(dim_x: int, dim_y: int) -> "CouplingSpec":
        return CouplingSpec(
            eval=lambda n, x, y: np.zeros_like(x),
            jac_x=lambda n, x, y: np.zeros((np.shape(x)[1], dim_x, dim_x)),
            jac_y=lambda n, x, y: np.zeros((np.shape(x)[1], dim_x, dim_y)),
            mu=lambda n: 0.0,
            gamma=lambda n: 0.0,
            rho=lambda n: 0.0,
        )


@dataclass
class DriverSpec:
    """Driver maps g_n : Y -> Y, their inverses, Jacobians and Lipschitz constants.

    Every map receives (dim_y, batch) float columns, one state per column:
    `eval` and `eval_inv` return (dim_y, batch) columns, `jac` the (batch,
    dim_y, dim_y) stack of the per-column Jacobians.
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
        return DriverSpec(
            eval=lambda n, y: y,
            eval_inv=lambda n, y: y,
            jac=lambda n, y: np.zeros((np.shape(y)[1], 0, 0)),
            tau=lambda n: 0.0,
            sigma=lambda n: 0.0,
        )

    @staticmethod
    def identity(dim_y: int) -> "DriverSpec":
        return DriverSpec(
            eval=lambda n, y: y,
            eval_inv=lambda n, y: y,
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


def _half_steps(sys: SystemSpec, w: int) -> tuple[Callable, Callable]:
    """The one Green recurrence: steps of the raw transitions T(c, q) to each
    center c in turn, each half keeping at most w + 1 kernels: past,
    [A_{c-1} T, Id] (q <= c), from [Id] at its first center by default, and
    future, A_c^{-1} [Id, T] (q > c), from an empty stack by default; no
    factor ever meets its inverse, and none outside the centers' span is read."""
    eye = np.eye(sys.space.dim_x)

    def past(centers, stack=None):
        for c in centers:
            stack = eye[None] if stack is None else np.concatenate(
                (np.matmul(sys.a.matrix(c - 1), stack[max(len(stack) - w, 0):]), eye[None]))
        return stack

    def future(centers, stack=np.empty((0,) + eye.shape)):
        for c in centers:
            stack = np.matmul(sys.a.inverse(c), np.concatenate((eye[None], stack[:w])))
        return stack

    return past, future


def green_span(sys: SystemSpec, m: int, lo: int, hi: int) -> np.ndarray:
    """Green kernels G(m, q) for every q in [lo, hi] as one (hi - lo + 1, dim_x,
    dim_x) stack, with G(m, q) at [q - lo], by the one Green recurrence run
    from scratch for the center m over [min(lo, m), max(hi, m)], as in
    `green_norm_rows`, then one batched product with the weights.  Overflow
    raises FloatingPointError.  Oracle: tests/reference.py."""
    dx = sys.space.dim_x
    if lo > hi:
        return np.empty((0, dx, dx))
    a, b = min(lo, m), max(hi, m)
    past, future = _half_steps(sys, b - a + 1)
    p = np.array([sys.p.matrix(q) for q in range(lo, hi + 1)])
    p = np.where((np.arange(lo, hi + 1) > m)[:, None, None], -(np.eye(dx) - p), p)
    with np.errstate(over="raise", invalid="raise"):
        raw = np.concatenate((past(range(a, m + 1)), future(range(b - 1, m - 1, -1))))
        return np.matmul(raw[lo - a:hi - a + 1], p)


# Kernels per norm call of green_norm_rows and terms per row of certify's series chunks.
# On `check --system ex2 --n-min -100 --n-max 100 --window 200`: peak RSS 38.8 / 40.1 /
# 42.6 MB at 2,048 / 4,096 / 8,192 (38.8 with SVD norms); the rows 50 / 53 / 74 ms, 58 at 1.
_CHUNK = 2048


def _chunks(centers: range, width: int) -> list:
    """`centers` in runs of at most max(1, _CHUNK // width) consecutive ones."""
    per = max(1, _CHUNK // width)
    return [centers[i:i + per] for i in range(0, len(centers), per)]


def green_norm_rows(sys: SystemSpec, lo: int, hi: int, w: int) -> tuple[np.ndarray, dict]:
    """|G(n, q)| for every center n in [lo, hi] and q in [n - w, n + w + 1], at
    [n - lo, q - n + w] of a (hi - lo + 1, 2w + 2) array, and {n: message} for
    the centers whose span overflows (their rows are NaN).

    Each half of the span slides from center to center by the one Green
    recurrence (`_half_steps`; oracle in tests/reference.py), one batched
    product per center: the past half (q <= n) upward, T(n+1, q) = A_n T(n, q),
    the future half (q > n) downward, T(n-1, q) = A_{n-1}^{-1} T(n, q); one
    more applies the weights P_q or -(Id - P_q).  The first center, and the
    one after an overflowing center, builds its half from scratch.  One
    operator_norm call takes the kernels of a chunk of centers (`_CHUNK`).
    """
    dx, kind = sys.space.dim_x, sys.space.norm_kind
    p = np.array([sys.p.matrix(q) for q in range(lo - w, hi + w + 2)])
    rows = np.full((hi - lo + 1, 2 * w + 2), np.nan)
    failed: dict[int, str] = {}
    past, future = _half_steps(sys, w)
    # per half: step, weights over [lo - w, hi + w + 1], columns, centers in
    # sweep order, and the steps that build a center's half from scratch
    halves = ((future, -(np.eye(dx) - p), slice(w + 1, 2 * w + 2), range(hi, lo - 1, -1),
               lambda n: range(n + w, n - 1, -1)),
              (past, p, slice(0, w + 1), range(lo, hi + 1), lambda n: range(n - w, n + 1)))
    with np.errstate(over="raise", invalid="raise"):
        for step, weights, cols, centers, scratch in halves:
            stack = None
            for chunk in _chunks(centers, w + 1):
                kernels = np.zeros((len(chunk), w + 1, dx, dx))
                for i, n in enumerate(chunk):
                    try:
                        stack = step(scratch(n)) if stack is None else step((n,), stack)
                        np.matmul(stack, weights[n - lo:][cols], out=kernels[i])
                    except FloatingPointError as exc:
                        failed.setdefault(n, str(exc))
                        stack = None
                with np.errstate(over="ignore"):  # a norm past the largest double is inf
                    rows[[n - lo for n in chunk], cols] = operator_norm(kernels, kind)
    rows[[n - lo for n in failed]] = np.nan
    return rows, failed
