"""Built-in parametric systems.

Each constructor returns a `SystemSpec` whose constants satisfy the
admissibility inequalities of its family by construction (scaled by
`gamma_scale`), and carries closed-form geometric tail envelopes for the
truncated series so hypothesis checks and conjugacy windows get rigorous
tail bounds.

Families:

  ex1     hyperbolic block system A = diag(e^l Id, e^-l Id), P = lower block;
          |G(m, n)| = e^{-l |m-n|}; gamma decays like e^{-l |k|}.
  ex2     nonhyperbolic system A = diag((theta_n/theta_{n+1}) Id, B_n) with
          isometric B_n and a nondecreasing ramp theta; P = upper block;
          |G(m, n)| = theta_n/theta_m for m >= n, 1 for m < n.
  remm    A = P = Id (no asymptotic behavior at all); gamma_k ~ (2M)^{-2|k|-1};
          the K/J sums are finite for every n but their total need not be < 1.
  end_cfg remm operators plus a planar-rotation driver (tau = sigma = 1) and a
          y-dependent coupling with rho_k ~ 2^{-|k|}; exercises every
          second-variable hypothesis.
  emo     ex1 operators with *constant* gamma = c: the future-side derivative
          series diverges term-by-term (each term >= c e^{-l}), so the
          first-variable contraction condition cannot hold.  Exists to
          exercise divergence detection.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .system import (
    CouplingSpec,
    DriverSpec,
    GeometricTail,
    OperatorSeq,
    SpaceSpec,
    SystemSpec,
    TailEnvelopes,
    WeightSeq,
)

THETA_CAP = 1e12
BUDGET_MARGIN = 0.99  # keeps the summability budgets strict at gamma_scale = 1
# Largest ex1/emo rate: e^{lam |n|}, which the transition products and the
# dxi/deta envelope amplitudes reach, stays a finite double for |n| <= 70.
LAM_MAX = 10.0
_FLOAT_MAX = float(np.finfo(float).max)
_LOG_MAX = math.log(_FLOAT_MAX)

# what a field of each declared type accepts: no bool is a number, every float is finite
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real)
              and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj, error: type[Exception]) -> None:
    """Raise `error` unless each dataclass field of `obj` holds a value of its
    declared type (`int`, `float`, `bool`, `str`, or `Optional` of one)."""
    for f in fields(obj):
        value, declared = getattr(obj, f.name), f.type
        if declared.startswith("Optional["):
            if value is None:
                continue
            declared = declared[len("Optional["):-1]
        if declared in _FIELD_TYPES:
            kind, accepts = _FIELD_TYPES[declared]
            if not accepts(value):
                raise error(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ExampleParams:
    """Knobs for the built-in families.

    gamma_scale multiplies the maximal admissible gamma envelope of the
    family (1.0 saturates it, 0.0 uncouples the system).  `c` is the
    constant coupling bound of the emo family (defaults to 0.05 *
    gamma_scale).  `rho_scale` scales the second-variable envelope of
    end_cfg.  `dim_half` is the dimension of the factor space and
    `rotation_angle` the angle of the ex2/end_cfg rotations (None picks the
    family default: 0 for ex2, 0.7 for end_cfg).
    """

    variant: str = "ex1"
    lam: float = math.log(2.0)
    dim_half: Optional[int] = None
    gamma_scale: float = 0.9
    theta_ratio: float = 2.0
    rotation_angle: Optional[float] = None
    c: Optional[float] = None
    rho_scale: float = 1.0

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.variant not in BUILDERS:
            raise ValueError(f"unknown system {self.variant!r}; choose from {sorted(BUILDERS)}")
        if not (0.0 <= self.gamma_scale <= 1.0):
            raise ValueError("gamma_scale must lie in [0, 1]")
        if self.variant in ("ex1", "emo") and not 0.0 < self.lam <= LAM_MAX:
            raise ValueError(f"lam must lie in (0, {LAM_MAX:g}]")
        if self.dim_half is not None and self.dim_half < 1:
            raise ValueError("dim_half must be >= 1")
        if self.theta_ratio < 1.0:
            raise ValueError("theta_ratio must be >= 1")
        if not (0.0 <= self.rho_scale <= 1.0):
            raise ValueError("rho_scale must lie in [0, 1]")


def _geom_sum(r: float) -> float:
    """sum_{k in Z} r^{|k|} = (1 + r) / (1 - r) for 0 <= r < 1."""
    return (1.0 + r) / (1.0 - r)


def _prod_one_plus(r: float, cap: int = 20000) -> float:
    """prod_{j in Z} (1 + r^{|j|}) for 0 <= r < 1.

    Raises ValueError when the product overflows a double, which happens
    (near r = 1) before the cap truncates a finite product.
    """
    total = math.log(2.0)
    for j in range(1, cap + 1):
        t = r**j
        total += 2.0 * math.log1p(t)
        if t < 1e-18:
            break
    try:
        return math.exp(total)
    except OverflowError:
        raise ValueError(f"prod (1 + {r:g}^|j|) overflows a double") from None


def _prod_inv_one_minus(gamma: Callable[[int], float], halfwidth: int = 96) -> float:
    """Upper bound on prod_{j in Z} 1/(1 - gamma_j), with slack for the omitted tail."""
    acc = 0.0
    for j in range(-halfwidth, halfwidth + 1):
        acc -= math.log1p(-gamma(j))
    return math.exp(acc) * (1.0 + 1e-10)


def _block_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    h = upper.shape[0]
    out = np.zeros((2 * h, 2 * h))
    out[:h, :h] = upper
    out[h:, h:] = lower
    return out


def _rotation_block(dim: int, angle: float) -> np.ndarray:
    if dim == 1:
        if angle != 0.0:
            raise ValueError("a planar rotation needs dim_half >= 2 (or rotation_angle = 0)")
        return np.eye(1)
    out = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    out[0, 0] = c
    out[0, 1] = -s
    out[1, 0] = s
    out[1, 1] = c
    return out


def _hyperbolic_pair(lam: float, h: int) -> tuple[OperatorSeq, WeightSeq]:
    """A = diag(e^lam Id, e^-lam Id) with its inverse and norms e^lam, and P
    the lower block (ex1 and emo)."""
    el, eml = math.exp(lam), math.exp(-lam)
    a_mat = _block_diag(el * np.eye(h), eml * np.eye(h))
    a_inv = _block_diag(eml * np.eye(h), el * np.eye(h))
    return (OperatorSeq(lambda n: a_mat, lambda n: a_inv,
                        norm_bound=lambda n: el, inv_norm_bound=lambda n: el),
            WeightSeq.constant(_block_diag(np.zeros((h, h)), np.eye(h))))


def _identity_pair(dim: int) -> tuple[OperatorSeq, WeightSeq]:
    """A = P = Id with norms 1 (remm and end_cfg)."""
    eye = np.eye(dim)
    return (OperatorSeq(lambda n: eye, lambda n: eye,
                        norm_bound=lambda n: 1.0, inv_norm_bound=lambda n: 1.0),
            WeightSeq.constant(eye))


def _tanh_coupling(
    dim_x: int,
    dim_y: int,
    gamma: Callable[[int], float],
    rho: Callable[[int], float],
    norm_kind: str,
) -> CouplingSpec:
    """f_n(x, y) = gamma_n s(x) + rho_n t(y) with s, t smooth, bounded by 1,
    Lipschitz with constant 1 (componentwise tanh, scaled 1/sqrt(dim_x) in
    euclidean spaces), so mu_n = gamma_n + rho_n.  gamma and rho are memoized
    per index as they are first asked for."""
    gamma, rho = functools.cache(gamma), functools.cache(rho)
    scale = 1.0 if norm_kind == "max" else 1.0 / math.sqrt(dim_x)
    idx = np.array([i % dim_y for i in range(dim_x)]) if dim_y else None

    def f(n, x, y):
        out = gamma(n) * scale * np.tanh(x)
        r = rho(n)
        if r != 0.0 and idx is not None:
            out = out + r * scale * np.tanh(y[idx])
        return out

    diag = np.arange(dim_x)

    def jac_x(n, x, y):  # (dim_x, batch) columns -> (batch, dim_x, dim_x)
        d = 1.0 - np.tanh(x) ** 2
        out = np.zeros((d.shape[1], dim_x, dim_x))
        out[:, diag, diag] = (gamma(n) * scale * d).T
        return out

    def jac_y(n, x, y):  # -> (batch, dim_x, dim_y)
        out = np.zeros((np.shape(x)[1], dim_x, dim_y))
        r = rho(n)
        if r != 0.0 and idx is not None:
            d = 1.0 - np.tanh(y) ** 2
            out[:, diag, idx] = (r * scale * d[idx]).T
        return out

    return CouplingSpec(
        eval=f,
        jac_x=jac_x,
        jac_y=jac_y,
        mu=lambda n: gamma(n) + rho(n),
        gamma=gamma,
        rho=rho,
    )


def make_ex1(params: ExampleParams) -> SystemSpec:
    """Hyperbolic block system with e^{-lam |m-n|} Green norms."""
    lam = params.lam
    h = params.dim_half or 1
    gs = params.gamma_scale
    dim_x = 2 * h

    el, eml = math.exp(lam), math.exp(-lam)
    big_m = _prod_one_plus(eml)
    budget = BUDGET_MARGIN / (el * big_m * _geom_sum(eml))

    def gamma(k: int) -> float:
        t = lam * (abs(k) + 1)
        head = 1.0 / (math.exp(t) + el) if t < _LOG_MAX else 0.0  # below 1e-308 there
        return gs * min(head, budget * eml ** abs(k))

    c_env = gs * min(eml, budget)  # gamma_k <= c_env * e^{-lam |k|}
    envelopes = TailEnvelopes(
        bc2=lambda m: GeometricTail(c_env, eml),
        bc3=lambda m: GeometricTail(c_env, eml),
        barh=lambda n: GeometricTail(c_env * el, eml),
        dxi=lambda n: GeometricTail(el * big_m * c_env * eml ** (-abs(n)), eml),
        deta=lambda n: GeometricTail(el * big_m * c_env * eml ** (-abs(n)), eml),
    )

    a, p = _hyperbolic_pair(lam, h)
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=0, norm_kind="max"),
        a=a, p=p,
        f=_tanh_coupling(dim_x, 0, gamma, lambda n: 0.0, "max"),
        g=DriverSpec.trivial(),
        envelopes=envelopes,
        label=f"ex1(lam={lam:g}, gamma_scale={gs:g})",
    )


def make_ex2(params: ExampleParams) -> SystemSpec:
    """Nondichotomic ramp system with theta_n / theta_m Green norms (euclidean)."""
    big_t = params.theta_ratio
    h = params.dim_half if params.dim_half is not None else 2
    gs = params.gamma_scale
    dim_x = 2 * h

    angle = 0.0 if params.rotation_angle is None else params.rotation_angle
    rot = _rotation_block(h, angle)
    cap_log = math.log(THETA_CAP)
    lt = math.log(big_t) if big_t > 1.0 else 0.0

    def theta(n: int) -> float:
        if n <= 0 or lt == 0.0:
            return 1.0
        if n * lt >= cap_log:
            return THETA_CAP
        return big_t**n

    def a_mat(n: int) -> np.ndarray:
        return _block_diag((theta(n) / theta(n + 1)) * np.eye(h), rot)

    def a_inv(n: int) -> np.ndarray:
        return _block_diag((theta(n + 1) / theta(n)) * np.eye(h), rot.T)

    p_mat = _block_diag(np.eye(h), np.zeros((h, h)))

    big_m = _prod_one_plus(0.5)
    budget = BUDGET_MARGIN / (big_t * big_m * _geom_sum(0.5))

    def gamma(k: int) -> float:
        e = abs(k) + 1
        head = 0.5 ** e / (big_t * (1.0 + 0.5 ** e))  # = 1 / (T (2^e + 1)), without 2^e
        return gs * min(head, budget * 0.5 ** abs(k))

    c_env = gs * min(1.0 / (2.0 * big_t), budget)
    envelopes = TailEnvelopes(
        bc2=lambda m: GeometricTail(2.0 * c_env * 2.0 ** abs(m), 0.5),
        bc3=lambda m: GeometricTail(2.0 * c_env * 2.0 ** abs(m), 0.5),
        barh=lambda n: GeometricTail(c_env * 2.0 ** abs(n), 0.5),
        dxi=lambda n: GeometricTail(big_t * big_m * c_env * 2.0 ** abs(n), 0.5),
        deta=lambda n: GeometricTail(big_t * big_m * c_env * 2.0 ** abs(n), 0.5),
    )

    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=0, norm_kind="euclidean"),
        a=OperatorSeq(a_mat, a_inv,
                      norm_bound=lambda n: 1.0,
                      inv_norm_bound=lambda n: theta(n + 1) / theta(n)),
        p=WeightSeq.constant(p_mat),
        f=_tanh_coupling(dim_x, 0, gamma, lambda n: 0.0, "euclidean"),
        g=DriverSpec.trivial(),
        envelopes=envelopes,
        label=f"ex2(T={big_t:g}, gamma_scale={gs:g}, angle={angle:g})",
    )


def make_remm(params: ExampleParams) -> SystemSpec:
    """A = P = Id with gamma_k = gs / 2^{2|k|+1}: K/J sums finite for every n."""
    h = params.dim_half or 1
    gs = params.gamma_scale
    dim_x = 2 * h

    def gamma(k: int) -> float:
        return gs * 0.5 * 0.25 ** abs(k)

    p_inf = _prod_inv_one_minus(gamma)
    envelopes = TailEnvelopes(
        bc2=lambda m: GeometricTail(2.0 * gs * 4.0 ** abs(m), 0.25),
        bc3=lambda m: GeometricTail(2.0 * gs * 4.0 ** abs(m), 0.25),
        barh=lambda n: GeometricTail(0.5 * gs * 4.0 ** abs(n), 0.25),
        dxi=lambda n: GeometricTail(p_inf * 0.5 * gs * 4.0 ** abs(n), 0.25),
        deta=lambda n: GeometricTail(p_inf * 0.5 * gs * 4.0 ** abs(n), 0.25),
    )

    a, p = _identity_pair(dim_x)
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=0, norm_kind="max"),
        a=a, p=p,
        f=_tanh_coupling(dim_x, 0, gamma, lambda n: 0.0, "max"),
        g=DriverSpec.trivial(),
        envelopes=envelopes,
        label=f"remm(gamma_scale={gs:g})",
    )


def make_end(params: ExampleParams) -> SystemSpec:
    """remm operators + planar rotation driver + y-dependent coupling.

    gamma_k = gs / 3^{2|k|+1}, rho_k = rho_scale * 2^{-|k|}, tau = sigma = 1;
    the second-variable series converges for every n and sigma*rho <= 1.
    """
    h = params.dim_half or 1
    gs = params.gamma_scale
    rs = params.rho_scale
    dim_x, dim_y = 2 * h, 2
    angle = 0.7 if params.rotation_angle is None else params.rotation_angle

    def gamma(k: int) -> float:
        return gs * (1.0 / 3.0) * (1.0 / 9.0) ** abs(k)

    def rho(k: int) -> float:
        return rs * 0.5 ** abs(k)

    p_inf = _prod_inv_one_minus(gamma)

    def mixed_amp(n: int) -> float:
        return p_inf * (gs / 3.0) * 9.0 ** abs(n) + rs * 2.0 ** abs(n)

    envelopes = TailEnvelopes(
        bc2=lambda m: GeometricTail(3.0 * gs * 9.0 ** abs(m) + 2.0 * rs * 2.0 ** abs(m), 0.5),
        bc3=lambda m: GeometricTail(3.0 * gs * 9.0 ** abs(m), 1.0 / 9.0),
        barh=lambda n: GeometricTail((gs / 3.0) * 9.0 ** abs(n) + rs * 2.0 ** abs(n), 0.5),
        dxi=lambda n: GeometricTail(p_inf * (gs / 3.0) * 9.0 ** abs(n), 1.0 / 9.0),
        deta=lambda n: GeometricTail(mixed_amp(n), 0.5),
    )

    a, p = _identity_pair(dim_x)
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=dim_y, norm_kind="euclidean"),
        a=a, p=p,
        f=_tanh_coupling(dim_x, dim_y, gamma, rho, "euclidean"),
        g=DriverSpec.rotation(angle),
        envelopes=envelopes,
        label=f"end_cfg(gamma_scale={gs:g}, rho_scale={rs:g}, angle={angle:g})",
    )


def make_emo(params: ExampleParams) -> SystemSpec:
    """ex1 operators with constant gamma = c: divergence-detection target."""
    lam = params.lam
    h = params.dim_half or 1
    c = params.c if params.c is not None else 0.05 * params.gamma_scale
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    dim_x = 2 * h

    el, eml = math.exp(lam), math.exp(-lam)
    # built once, here, so that a ratio e^{-lam} rounding to 1 fails the build
    bc_tail, barh_tail = GeometricTail(c, eml), GeometricTail(c * el, eml)
    envelopes = TailEnvelopes(
        bc2=lambda m: bc_tail,
        bc3=lambda m: bc_tail,
        barh=lambda n: barh_tail,
        dxi=None,
        deta=None,
    )

    a, p = _hyperbolic_pair(lam, h)
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=0, norm_kind="max"),
        a=a, p=p,
        f=_tanh_coupling(dim_x, 0, lambda n: c, lambda n: 0.0, "max"),
        g=DriverSpec.trivial(),
        envelopes=envelopes,
        label=f"emo(lam={lam:g}, c={c:g})",
    )


BUILDERS: dict[str, Callable[[ExampleParams], SystemSpec]] = {
    "ex1": make_ex1,
    "ex2": make_ex2,
    "remm": make_remm,
    "end_cfg": make_end,
    "emo": make_emo,
}


def make_system(params: ExampleParams) -> SystemSpec:
    return BUILDERS[params.variant](params)


def system_by_name(name: str, **kwargs) -> SystemSpec:
    """Build a system from the family name and keyword overrides."""
    return make_system(ExampleParams(variant=name, **kwargs))
