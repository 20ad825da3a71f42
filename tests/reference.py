"""Reference code the tests check the program against: finite-difference
Jacobians evaluated one stencil point at a time."""

from __future__ import annotations

from typing import Callable

import numpy as np

from nonautolin.derivatives import JacobianReport, _rel_error, fd_jacobian_batch


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
