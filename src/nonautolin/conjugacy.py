"""Construction of the conjugacies between the coupled and uncoupled systems.

The coupled-to-linear direction is the truncated series

    bar_h(n, xi, eta) = - sum_k  G(n, k+1) f_k(x2(k, n, xi, eta), y(k, n, eta)),
    bar_H(n, xi, eta) = (xi + bar_h(n, xi, eta), eta),

whose absolute truncation error over a window of halfwidth K is bounded by
sum_{|k-n|>K} |G(n,k+1)| mu_k; the window is enlarged until that bound drops
under `series_tol` (analytic envelope when the system has one, ratio
extrapolation otherwise; the bounding terms are state-free, so the window
depends only on n).  The series sums the coupling values its trajectory
computed: every forward step and every backward fixed-point step returns
f_k at the state it stepped from, so one bar_h is one trajectory walk plus
one coupling evaluation, at the upper end of the window.

The inverse direction is obtained pointwise from the fixed-point relation

    h(n, xi, eta) = -bar_h(n, xi + h(n, xi, eta), eta),
    H(n, xi, eta) = (xi + h(n, xi, eta), eta),

solved from 0 by Anderson-mixed fixed-point iteration.  The map contracts at
the certified first-variable bound c(n) = K_n + J_n + |G(n,n+1)| gamma_n,
which must be < 1; the inner series tolerance is tightened to
fp_tol (1 - c(n)) / 2 so the truncation bias stays below the fixed-point
residual target.

Evaluations accept either a single state (dim,) or a column batch
(dim, batch); trajectories and fixed points are then shared across the batch.

The residual diagnostics test bar_H(H(p)) = p, H(bar_H(p)) = p and the
equivariance of H and bar_H along `steps` steps of the linear and coupled
maps.  The points at which the conjugacies are evaluated do not depend on
them, so `residual_tables` runs index-major: one wide h and at most two wide
bar_h solves per index m, shared by every base index whose steps reach m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractionViolation, NoConvergence, NonautolinError, WindowExhausted
from .evolution import (DEFAULT_SOLVE, SolveOptions, _checked, _dot, _forward_step,
                        _state_columns, _trajectory)
from .hypotheses import (CONVERGED, IndexConstants, _advanced, _advanced_terms, _envelope,
                         _ratio_tail)
from .system import SystemSpec, _column_norms, green_span, operator_norm


@dataclass
class SeriesWindow:
    halfwidth: int
    tail_bound: float
    value_bound: float  # sum of |G| mu over the window plus the tail


class ConjugacyEngine:
    """Shared caches and tolerances for conjugacy evaluations on one system."""

    def __init__(
        self,
        sys: SystemSpec,
        window_halfwidth: int = 128,
        series_tol: float = 1e-9,
        fp_tol: float = 1e-10,
        solve: SolveOptions = DEFAULT_SOLVE,
        advanced_halfwidth: Optional[int] = None,
    ):
        if window_halfwidth < 1 or (advanced_halfwidth is not None and advanced_halfwidth < 1):
            raise ValueError("window_halfwidth and advanced_halfwidth must be >= 1")
        if series_tol <= 0.0 or fp_tol <= 0.0:
            raise ValueError("series_tol and fp_tol must be positive")
        self.sys = sys
        self.window_halfwidth = int(window_halfwidth)
        self.series_tol = float(series_tol)
        self.fp_tol = float(fp_tol)
        self.solve = solve
        self.advanced_halfwidth = int(advanced_halfwidth or window_halfwidth)
        self.contraction_estimate: dict[int, float] = {}
        self._green_rows: dict[int, np.ndarray] = {}
        self._mu_windows: dict[tuple[int, float], SeriesWindow] = {}
        self._derivative_windows: dict[int, int] = {}

    # -- caches ------------------------------------------------------------

    def green_row(self, n: int, halfwidth: int) -> np.ndarray:
        """G(n, k+1) for k in [n - halfwidth, n + halfwidth] as a stack, with
        G(n, k+1) at [k - n + halfwidth].  One stack is cached per n, the
        widest built so far and at least `advanced_halfwidth` wide, the row
        `contraction(n)` reads; narrower rows are its centre."""
        row = self._green_rows.get(n)
        if row is None or len(row) < 2 * halfwidth + 1:
            w = max(halfwidth, self.advanced_halfwidth)
            try:
                row = green_span(self.sys, n, n - w + 1, n + w + 1)
            except FloatingPointError as exc:
                raise NonautolinError(
                    f"arithmetic failure in the Green span at n={n}: {exc}") from exc
            self._green_rows[n] = row
        cut = (len(row) - 2 * halfwidth - 1) // 2
        return row[cut:len(row) - cut]

    def series_window(self, n: int, tol: float) -> SeriesWindow:
        """Window halfwidth for bar_h at center n with truncation error <= tol."""
        key = (n, float(tol))
        if key in self._mu_windows:
            return self._mu_windows[key]

        def mu_terms(k):  # |G(n, j+1)| mu_j for j in [n - k, n + k]
            mu = [self.sys.f.mu(j) for j in range(n - k, n + k + 1)]
            return operator_norm(self.green_row(n, k), self.sys.space.norm_kind) * mu

        def sides(k):
            terms = mu_terms(k)
            return terms[:k][::-1], terms[k + 1:]

        k, tail = self._fit_window(n, _envelope(self.sys, "barh", n), tol, sides)
        # the builtin sum adds the terms in index order
        win = self._mu_windows[key] = SeriesWindow(k, tail, sum(mu_terms(k)) + tail)
        return win

    def derivative_window(self, n: int) -> int:
        """Halfwidth of the bar_h Jacobian series at center n, cached per n:
        the wider of the dxi and (when dim_y > 0) deta derivative windows,
        each with tail <= series_tol; without an envelope a window is fitted
        on the state-free bounding terms of the advanced conditions."""
        if n in self._derivative_windows:
            return self._derivative_windows[n]

        def terms(k, side):
            c = IndexConstants.of(self.sys, n - k, n + k)
            g = operator_norm(self.green_row(n, k), self.sys.space.norm_kind)
            return [_advanced_terms(c, g, n, end)[side] for end in (n - k, n + k)]

        which = ("dxi", "deta") if self.sys.space.dim_y else ("dxi",)
        k = self._derivative_windows[n] = max(
            self._fit_window(n, _envelope(self.sys, kind, n), self.series_tol,
                             lambda w: terms(w, side))[0]
            for side, kind in enumerate(which))
        return k

    def _fit_window(self, n: int, env, tol: float, terms) -> tuple[int, float]:
        """(halfwidth, two-sided tail) of a series at center n with tail <= tol.

        With an analytic envelope the halfwidth is closed-form; otherwise the
        window doubles from 8 until the geometric-ratio extrapolation of the
        outward term lists `terms(k)` = (left, right) meets tol.  Both stop at
        the engine's window cap.
        """
        cap = self.window_halfwidth
        if env is not None:
            k = env.required_halfwidth(tol)
            if k is None or k > cap:
                raise WindowExhausted(n, cap, tol, env.two_sided(cap))
            return k, env.two_sided(k)
        k = min(8, cap)
        while True:
            left, right = terms(k)
            lt, lv = _ratio_tail(left)
            rt, rv = _ratio_tail(right)
            if lv == CONVERGED and rv == CONVERGED and (lt + rt) <= tol:
                return k, lt + rt
            if k >= cap:
                raise WindowExhausted(n, cap, tol, None if (lt is None or rt is None) else lt + rt)
            k = min(cap, k * 2)

    # -- contraction certificate --------------------------------------------

    def contraction(self, n: int) -> float:
        """Certified bound on the first-variable Lipschitz constant of bar_h
        (K_n + J_n + |G(n,n+1)| gamma_n including tails); must be < 1 for h/H.
        The same float as `certify`'s ac3_bound[n] at the advanced halfwidth,
        read off the cached Green row of n, as both build it by the one Green
        recurrence of `system` (oracle in tests/reference.py)."""
        if n in self.contraction_estimate:
            return self.contraction_estimate[n]
        sys, w = self.sys, self.advanced_halfwidth
        g = operator_norm(self.green_row(n, w), sys.space.norm_kind)
        consts = IndexConstants.of(sys, n - w, n + w)
        k_est, j_est, c, _ = _advanced(sys, n, n - w, n + w, consts, g)
        if k_est.verdict != CONVERGED or j_est.verdict != CONVERGED:
            raise ContractionViolation(n, math.inf, what="first-variable series bound")
        if not c < 1.0:
            raise ContractionViolation(n, c, what="K + J + |G(n,n+1)|*gamma")
        self.contraction_estimate[n] = c
        return c

    # -- conjugacy evaluations ----------------------------------------------

    def bar_h_detailed(
        self, n: int, xi, eta=None, window: Optional[int] = None, *, guess: Optional[dict] = None
    ) -> tuple[np.ndarray, float, int]:
        """Series value, truncation-error bound and window halfwidth.

        `guess` is for the outer loops of the h solves alone: the coupling
        dict of the solve's previous walk over the same columns and window,
        which the walk overwrites with its own (see `_trajectory`).  Without
        it the walk starts every backward step cold."""
        sys = self.sys
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)
        if window is None:
            win = self.series_window(n, self.series_tol)
            k_half, tail = win.halfwidth, win.tail_bound
        else:
            k_half = int(window)
            env = _envelope(sys, "barh", n)
            tail = env.two_sided(k_half) if env else math.inf
        row = self.green_row(n, k_half)
        lo, hi = n - k_half, n + k_half
        states, couplings = _trajectory(sys, n, lo, hi, xi_b, eta_b, self.solve, guess)
        couplings[hi] = _checked(sys.f.eval(hi, *states[hi]), xi_b.shape, "f.eval", hi)
        acc = np.zeros_like(xi_b)
        for k in range(lo, hi + 1):
            acc += _dot(row[k - lo], couplings[k])
        val = -acc
        return (val[:, 0] if single else val), tail, k_half

    def bar_h(self, n: int, xi, eta=None, window: Optional[int] = None) -> np.ndarray:
        return self.bar_h_detailed(n, xi, eta, window=window)[0]

    def bar_H(self, n: int, xi, eta=None) -> tuple[np.ndarray, np.ndarray]:
        return self._shifted(self.bar_h, n, xi, eta)

    def h_detailed(self, n: int, xi, eta=None, *, smooth: bool = False
                   ) -> tuple[np.ndarray, list, int]:
        """Fixed-point value, residual history and iterations used.

        Solves u = -bar_h(n, xi + u, eta) from u = 0 until every column
        passes the stop test |u + bar_h(n, xi + u, eta)| <= fp_tol, within
        the a-priori Picard count of `h_window`; the iterations returned are
        those before the stop test.  Each walk after the first starts from
        the previous walk's couplings.  Why a passing column is then within
        fp_tol / (1 - c(n)) of h(n, xi, eta), however u was produced, and
        why the walks stay smooth in each column's data: `_trajectory`.

        By default each column's iterates are type-II Anderson-mixed with
        depth 2 (Walker & Ni, "Anderson acceleration for fixed-point
        iterations", SIAM J. Numer. Anal. 49, 2011): the next iterate
        combines the column's last values of -bar_h with the weights that
        best cancel its last residuals, and whenever the max residual fails
        to shrink, the step is a plain Picard step and the history restarts.

        `smooth=True`, the mode of the d_h finite-difference stencil, is
        plain Picard iteration with 4 further updates after the stop test.
        The N-fold Picard composition, one N for every column, is smooth in
        the data, and its derivative approaches dh like c(n)^N; the extra
        updates push that gap well under the stop test.  The Anderson
        iterate cannot serve a stencil: its weights and restarts are not
        smooth in the data, and its count, smaller than Picard's, would
        leave a wider derivative gap.
        """
        k_half, cap = self.h_window(n)
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)
        norms = _column_norms(self.sys.space.norm_kind)
        guess: dict = {}  # the previous walk's couplings

        def update(u):
            return -self.bar_h_detailed(n, xi_b + u, eta_b, window=k_half, guess=guess)[0]

        u = np.zeros_like(xi_b)
        residuals: list = []
        values: list = []  # the last (-bar_h(xi + u), residual) pairs since a restart
        for it in range(cap):
            g = update(u)
            f = g - u
            res = float(np.max(norms(f)))
            if residuals and not res < residuals[-1]:
                values.clear()
            residuals.append(res)
            if res <= self.fp_tol:
                if smooth:  # 4 further updates, g the first of them
                    u = g
                    for _ in range(3):
                        u = update(u)
                return (u[:, 0] if single else u), residuals, it
            values = values[-_ANDERSON_DEPTH:] + [(g, f)]
            u = g if smooth or len(values) == 1 else _anderson_step(values)
        raise NoConvergence(f"h fixed point at n={n}", cap, residuals[-1], self.fp_tol)

    def h_window(self, n: int) -> tuple[int, int]:
        """(halfwidth, iteration cap >= 8) of h at n: its series window at the
        tightened tolerance fp_tol (1 - c(n)) / 2, and the Picard count that
        brings the window's value bound under fp_tol at rate c(n), plus 16."""
        c = self.contraction(n)
        win = self.series_window(n, min(self.series_tol, self.fp_tol * (1.0 - c) / 2.0))
        if c <= 0.0 or win.value_bound <= self.fp_tol:
            cap = 8
        else:
            cap = int(math.ceil(math.log(self.fp_tol / win.value_bound) / math.log(c))) + 16
        return win.halfwidth, cap

    def h(self, n: int, xi, eta=None) -> np.ndarray:
        return self.h_detailed(n, xi, eta)[0]

    def H(self, n: int, xi, eta=None) -> tuple[np.ndarray, np.ndarray]:
        return self._shifted(self.h, n, xi, eta)

    def _shifted(self, conj, n: int, xi, eta) -> tuple[np.ndarray, np.ndarray]:
        """(xi + conj(n, xi, eta), eta) on the state columns of (xi, eta), a
        single state unwrapped as bar_h and h do."""
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)
        x = xi_b + conj(n, xi_b, eta_b)
        return (x[:, 0], eta_b[:, 0]) if single else (x, eta_b)

    # -- residual diagnostics -----------------------------------------------

    def residual_tables(self, ns, xi, eta=None, steps: int = 10) -> dict[int, BaseResiduals]:
        """Inverse and equivariance residuals at every base index in `ns`.

        Evaluated index-major.  The probes' linear and coupled trajectories do
        not depend on the conjugacies, so for each index m from min(ns) to
        max(ns) + steps, in ascending order, the tables need one bar_h(m, .)
        on every coupled point at m, one h(m, .) on every linear point at m
        plus, when m is a base index, the round-trip points p + bar_h(m, p),
        and at a base index one bar_h(m, p + h(m, p)) to close the round
        trip.  The live bases' probes are flat column blocks, one per base in
        ascending order: a starting base appends its block, the retiring
        oldest base drops the first.

        A NonautolinError at index m becomes the `equivariance_error` of
        every base n with m in [n, n + steps] that has none yet, and the
        `inverse_error` of n = m; the bases it hits take no further columns.
        """
        norms = _column_norms(self.sys.space.norm_kind)
        xi_b, eta_b, _ = _state_columns(self.sys, xi, eta)
        batch = xi_b.shape[1]
        out = {n: BaseResiduals() for n in sorted({int(n) for n in ns})}
        if not out:
            return out
        live: list[int] = []  # the bases whose steps reach m, ascending
        for m in range(min(out), max(out) + steps + 1):
            base = m in out
            if base:
                if not live:  # the blocks restart
                    lin = cpl = h_img = bh_img = xi_b[:, :0]
                    y, fwd, dual = eta_b[:, :0], np.zeros(0), np.zeros(0)
                live.append(m)
                lin = np.hstack([lin, xi_b])
                cpl = np.hstack([cpl, xi_b])
                y = np.hstack([y, eta_b])
                fwd, dual = np.append(fwd, np.zeros(batch)), np.append(dual, np.zeros(batch))
            if not live:
                continue
            width = lin.shape[1]
            try:
                bvals, tail, _ = self.bar_h_detailed(m, cpl, y)
                if base:  # base m is the last block
                    b0 = bvals[:, width - batch:]
                    hvals = self.h(m, np.hstack([lin, xi_b + b0]), np.hstack([y, eta_b]))
                    u0 = hvals[:, width - batch:width]
                    closing = self.bar_h(m, xi_b + u0, eta_b)
                else:
                    hvals = self.h(m, lin, y)
            except NonautolinError as exc:
                for n in live:
                    out[n].equivariance_error = exc
                live.clear()
                if base:
                    out[m].inverse_error = exc
                continue
            if base:
                rec = out[m]
                rec.h, rec.bar_h, rec.tail_bound = u0, b0, tail
                # H and bar_H leave y unchanged, so only x can miss the probe
                rec.inverse = np.maximum(
                    norms((xi_b + u0) + closing - xi_b),
                    norms((xi_b + b0) + hvals[:, width:] - xi_b),
                )
            hx = lin + hvals[:, :width]  # H(m, linear points)
            bx = cpl + bvals  # bar_H(m, coupled points)
            # the images cover the bases started before m; both trajectories
            # step y with the same g, so again only x differs
            old = h_img.shape[1]
            fwd = np.concatenate([np.maximum(fwd[:old], norms(h_img - hx[:, :old])), fwd[old:]])
            dual = np.concatenate([np.maximum(dual[:old], norms(bh_img - bx[:, :old])), dual[old:]])
            if live[0] + steps == m:  # only the oldest base can end here
                first = out[live.pop(0)]
                first.forward, first.dual = fwd[:batch], dual[:batch]
                if not live:
                    continue
            cut = width - len(live) * batch  # past the retired block, if any
            hx, bx, lin, cpl, y = (a[:, cut:] for a in (hx, bx, lin, cpl, y))
            fwd, dual, half = fwd[cut:], dual[cut:], width - cut
            x_c, _, _ = _forward_step(self.sys, m, np.hstack([hx, cpl]),
                                      np.hstack([y, y]), coupled=True)
            x_l, y, _ = _forward_step(self.sys, m, np.hstack([bx, lin]),
                                      y, coupled=False)
            h_img, cpl = x_c[:, :half], x_c[:, half:]
            bh_img, lin = x_l[:, :half], x_l[:, half:]
        return out


_ANDERSON_DEPTH = 2  # residual differences per Anderson step
_RELATIVE_REG = 1e-10  # of the trace of a column's normal equations
_ABSOLUTE_REG = 1e-300


def _anderson_step(values: list) -> np.ndarray:
    """The type-II Anderson iterate from the (dim, batch) pairs (g_i, f_i) =
    (G(u_i), G(u_i) - u_i) of the last iterates, oldest first: per column,
    g - dG gamma with gamma minimising |f - dF gamma|_2 over the differences
    dF, dG of consecutive pairs.  All columns' normal equations are solved
    in one batched call, regularised relative to their trace and by an
    absolute floor, since an exactly converged column has dF = 0."""
    g, f = values[-1]
    d_g = np.stack([b[0] - a[0] for a, b in zip(values, values[1:])], axis=-1)
    d_f = np.stack([b[1] - a[1] for a, b in zip(values, values[1:])], axis=-1)
    gram = np.einsum("dbi,dbj->bij", d_f, d_f)
    diag = np.einsum("bii->b", gram) * _RELATIVE_REG + _ABSOLUTE_REG
    gram += diag[:, None, None] * np.eye(d_f.shape[-1])
    gamma = np.linalg.solve(gram, np.einsum("dbi,db->bi", d_f, f)[..., None])[..., 0]
    return g - np.einsum("dbi,bi->db", d_g, gamma)


@dataclass
class BaseResiduals:
    """`residual_tables`' results at one base index n, one entry per probe.

    `h` and `bar_h` are h(n, p) and bar_h(n, p) as columns, `tail_bound` the
    truncation bound of bar_h(n, .), `inverse` the max of |bar_H(H(p)) - p|
    and |H(bar_H(p)) - p|, and `forward`/`dual` the equivariance residuals.
    A field stays None when the error of its table is set.
    """

    h: Optional[np.ndarray] = None
    bar_h: Optional[np.ndarray] = None
    tail_bound: float = math.inf
    inverse: Optional[np.ndarray] = None
    forward: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None
    inverse_error: Optional[NonautolinError] = None
    equivariance_error: Optional[NonautolinError] = None
