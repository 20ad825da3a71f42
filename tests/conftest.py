import dataclasses
import math

import numpy as np
import pytest

from nonautolin import (
    CouplingSpec,
    DriverSpec,
    GeometricTail,
    OperatorSeq,
    SpaceSpec,
    SystemSpec,
    TailEnvelopes,
    WeightSeq,
    certify,
    green_span,
    system_by_name,
)
from nonautolin.evolution import DEFAULT_SOLVE, _backward_picard, _state_columns
from nonautolin.system import _column_norms

LN2 = math.log(2.0)


def diag_stack(d):
    """The (batch, dim, dim) stack of diagonal matrices whose diagonals are
    the columns of the (dim, batch) array d: the batched Jacobian contract of
    `CouplingSpec.jac_x`/`jac_y` and `DriverSpec.jac`."""
    d = np.asarray(d, dtype=float)
    return d.T[:, :, None] * np.eye(d.shape[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ex1():
    return system_by_name("ex1", lam=LN2, gamma_scale=0.9)


@pytest.fixture
def ex1_mild():
    return system_by_name("ex1", lam=LN2, gamma_scale=0.5)


@pytest.fixture
def ex2():
    return system_by_name("ex2", theta_ratio=2.0, rotation_angle=0.4, gamma_scale=0.9)


@pytest.fixture
def end_cfg():
    return system_by_name("end_cfg", gamma_scale=0.9)


@pytest.fixture
def emo():
    return system_by_name("emo", lam=1.0, c=0.01)


def backward_step(sys, j, xi, eta, opts=DEFAULT_SOLVE):
    """T_j(xi, eta) by the package's one Picard kernel, started cold:
    (value, f_j at the value, the scaled defect of every iterate), the
    iterations used being len(defects) - 1, for one state or (dim, batch)
    columns.  The kernel takes eta as y_j; a walk's backward step applies
    g_j^{-1} first."""
    x, y, single = _state_columns(sys, xi, eta)
    u, fu, residuals = _backward_picard(sys, j, x, y, None, opts.fixed_point_tol,
                                        opts.max_iters, _column_norms(sys.space.norm_kind))
    return (u[:, 0], fu[:, 0], residuals) if single else (u, fu, residuals)


def span_transition(sys, m, n):
    """The transition T(m, n) as `green_span` computes it: with weights
    P = Id, green_span(sys, m, q, q)[0] is T(m, q) for q <= m, and with
    P = 0 it is -T(m, q) for q > m."""
    eye = np.eye(sys.space.dim_x)
    if n <= m:
        return green_span(dataclasses.replace(sys, p=WeightSeq.constant(eye)), m, n, n)[0]
    return -green_span(dataclasses.replace(sys, p=WeightSeq.constant(0 * eye)), m, n, n)[0]


def advanced_at(sys, n, w):
    """(K_n, J_n, contraction total, ac9 sum) over [n - w, n + w], read from a
    one-index `certify` report."""
    rep = certify(sys, (n, n), w, probes=1)
    return (*rep.ac2[n], rep.ac3_bound[n], rep.ac9[n])


def zero_envelopes():
    """The envelopes of a system whose coupling is 0: every series term is 0."""
    def zero(n):
        return GeometricTail(0.0, 0.5)

    return TailEnvelopes(bc2=zero, bc3=zero, barh=zero, dxi=zero, deta=zero)


def random_invertible_system(rng, dim=2, count=12, norm_kind="max"):
    """A system over a periodic table of random well-conditioned operators,
    with zero coupling (and zero envelopes) by default.  The table makes
    brute-force oracles easy."""
    mats = []
    for _ in range(count):
        while True:
            m = rng.uniform(-1.0, 1.0, (dim, dim)) + 2.0 * np.eye(dim)
            if abs(np.linalg.det(m)) > 0.3:
                mats.append(m)
                break

    def a_mat(n):
        return mats[n % count]

    return SystemSpec(
        space=SpaceSpec(dim_x=dim, dim_y=0, norm_kind=norm_kind),
        a=OperatorSeq(a_mat),
        p=WeightSeq.constant(np.eye(dim)),
        f=CouplingSpec.zero(dim, 0),
        g=DriverSpec.trivial(),
        envelopes=zero_envelopes(),
    ), mats


def nonlinear_driver_system(dim_half=1):
    """A = P = Id with a genuinely nonlinear diffeomorphism driver
    g(y) = y + 0.3 tanh(y) (inverse by Newton, Dg varies with y) and a
    y-dependent coupling, with closed-form envelopes.

    |G(n, k+1)| is 1 for k < n and 0 for k >= n, so only the past side
    (k = n - d, d >= 1) has terms, and 4^{-|n - d|} <= 4^{|n|} 4^{-d}.  With
    gamma_k = 0.1 4^{-|k|}, rho_k = 0.05 4^{-|k|}, mu = gamma + rho <= 0.16
    4^{-|k|} (above the rounding of its float sum), the backward factor
    1 / (1 - gamma_j) and sigma = 1:
      bc2, bc3  mu_{m-d-1}, gamma_{m-d-1} <= 4^{|m|+1} (0.16, 0.1) 4^{-d};
      barh      mu_{n-d} <= 0.16 4^{|n|} 4^{-d};
      dxi       C_{k,n} = prod_j 1 / (1 - gamma_j) <= exp(sum_j gamma_j / 0.9)
                = e^{5/27}, as -log(1 - x) <= x / (1 - x) and sum_j gamma_j =
                0.1 (5/3): gamma_k C_{k,n} <= 0.1 e^{5/27} 4^{|n|} 4^{-d};
      deta      M_{k,n} = prod_j (1 / (1 - gamma_j) + 1) <= 2^d e^{5/54} and
                D_{k,n} = 1: gamma_k M + rho_k D <= (0.1 e^{5/54} + 0.05)
                4^{|n|} 2^{-d}.
    """
    dim_x, dim_y = 2 * dim_half, 2
    a = 0.3

    def g(n, y):
        y = np.asarray(y, dtype=float)
        return y + a * np.tanh(y)

    def g_inv(n, z):
        z = np.asarray(z, dtype=float)
        y = z.copy()
        for _ in range(80):
            t = np.tanh(y)
            step = (y + a * t - z) / (1.0 + a * (1.0 - t * t))
            y = y - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return y

    def gamma(k):
        return 0.1 * 0.25 ** abs(k)

    def rho(k):
        return 0.05 * 0.25 ** abs(k)

    idx = np.array([i % dim_y for i in range(dim_x)])

    def f(n, x, y):
        out = gamma(n) * np.tanh(np.asarray(x, dtype=float))
        return out + rho(n) * np.tanh(np.asarray(y, dtype=float)[idx])

    def jac_y(n, x, y):
        d = 1.0 - np.tanh(np.asarray(y, dtype=float)) ** 2
        out = np.zeros((d.shape[1], dim_x, dim_y))
        out[:, np.arange(dim_x), idx] = (rho(n) * d[idx]).T
        return out

    eye = np.eye(dim_x)
    return SystemSpec(
        space=SpaceSpec(dim_x=dim_x, dim_y=dim_y, norm_kind="max"),
        a=OperatorSeq(lambda n: eye, lambda n: eye,
                      norm_bound=lambda n: 1.0, inv_norm_bound=lambda n: 1.0),
        p=WeightSeq.constant(eye),
        f=CouplingSpec(
            eval=f,
            jac_x=lambda n, x, y: gamma(n) * diag_stack(1 - np.tanh(np.asarray(x)) ** 2),
            jac_y=jac_y,
            mu=lambda n: gamma(n) + rho(n),
            gamma=gamma,
            rho=rho,
        ),
        g=DriverSpec(
            eval=g,
            eval_inv=g_inv,
            jac=lambda n, y: diag_stack(1.0 + a * (1.0 - np.tanh(np.asarray(y)) ** 2)),
            tau=lambda n: 1.0 + a,
            sigma=lambda n: 1.0,
        ),
        envelopes=TailEnvelopes(
            bc2=lambda m: GeometricTail(0.64 * 4.0 ** abs(m), 0.25),
            bc3=lambda m: GeometricTail(0.4 * 4.0 ** abs(m), 0.25),
            barh=lambda n: GeometricTail(0.16 * 4.0 ** abs(n), 0.25),
            dxi=lambda n: GeometricTail(0.1 * math.exp(5 / 27) * 4.0 ** abs(n), 0.25),
            deta=lambda n: GeometricTail((0.1 * math.exp(5 / 54) + 0.05) * 4.0 ** abs(n), 0.5),
        ),
    )


def with_coupling(sys, gamma, kind="max", envelopes=None):
    """Replace the zero coupling by gamma * tanh (per-index constant gamma),
    with the given envelopes, the caller's to derive."""
    dim = sys.space.dim_x
    scale = 1.0 if kind == "max" else 1.0 / math.sqrt(dim)

    gamma_fn = gamma if callable(gamma) else (lambda n: gamma)
    return SystemSpec(
        space=sys.space,
        a=sys.a,
        p=sys.p,
        f=CouplingSpec(
            eval=lambda n, x, y: gamma_fn(n) * scale * np.tanh(np.asarray(x, dtype=float)),
            jac_x=lambda n, x, y: gamma_fn(n)
            * scale
            * diag_stack(1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2),
            jac_y=lambda n, x, y: np.zeros((np.shape(x)[1], dim, sys.space.dim_y)),
            mu=gamma_fn,
            gamma=gamma_fn,
            rho=lambda n: 0.0,
        ),
        g=sys.g,
        envelopes=envelopes,
    )


def blowup_system(limit, name="remm", **params):
    """The built-in system `name` with a coupling that is NaN, with its
    Jacobians, in every column whose state has |x| > limit: a map that
    leaves the floats past a set |x|."""
    sys = system_by_name(name, **params)
    f = sys.f

    def past(x):  # the columns past the limit
        return np.max(np.abs(np.asarray(x, dtype=float)), axis=0) > limit

    return dataclasses.replace(sys, f=dataclasses.replace(
        f,
        eval=lambda n, x, y: np.where(past(x), np.nan, f.eval(n, x, y)),
        jac_x=lambda n, x, y: np.where(past(x)[:, None, None], np.nan, f.jac_x(n, x, y)),
        jac_y=lambda n, x, y: np.where(past(x)[:, None, None], np.nan, f.jac_y(n, x, y)),
    ))


def expanding_system(lam=LN2, c=0.1):
    """P = 0 under the expanding A = diag(e^lam, e^{2 lam}), with the coupling
    c 2^{-|n|} tanh(x): every past kernel G(n, k+1), k < n, is T(n, k+1) P =
    0, so a bar_h walk needs no backward step.

    Its bar_h envelope: a future kernel (k = n + d, d >= 1) is -A^{-(d+1)},
    of max norm e^{-lam (d+1)}, and mu_k = c 2^{-|n+d|} <= c 2^{|n|} 2^{-d},
    so each term is at most c e^{-lam} 2^{|n|} (e^{-lam} / 2)^d."""
    a = np.diag([math.exp(lam), math.exp(2 * lam)])
    a_inv = np.diag([math.exp(-lam), math.exp(-2 * lam)])
    base = SystemSpec(
        space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
        a=OperatorSeq(lambda n: a, lambda n: a_inv, norm_bound=lambda n: math.exp(2 * lam),
                      inv_norm_bound=lambda n: math.exp(-lam)),
        p=WeightSeq.constant(np.zeros((2, 2))),
        f=CouplingSpec.zero(2, 0),
        g=DriverSpec.trivial(),
    )
    eml = math.exp(-lam)
    return with_coupling(base, lambda n: c * 0.5 ** abs(n), envelopes=TailEnvelopes(
        barh=lambda n: GeometricTail(c * eml * 2.0 ** abs(n), eml / 2.0)))
