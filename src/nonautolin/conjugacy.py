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

solved by Picard iteration from 0.  The iteration contracts at the certified
first-variable bound c(n) = K_n + J_n + |G(n,n+1)| gamma_n, which must be
< 1; the inner series tolerance is tightened to fp_tol (1 - c(n)) / 2 so the
truncation bias stays below the fixed-point residual target.

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
from .evolution import (DEFAULT_SOLVE, SolveOptions, _forward_step, _map_columns,
                        _state_columns, _trajectory)
from .hypotheses import CONVERGED, IndexConstants, _advanced, _envelope, _ratio_tail
from .system import SystemSpec, batch_vector_norm, green_span, operator_norm


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
        if window_halfwidth < 1:
            raise ValueError("window_halfwidth must be >= 1")
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

    # -- caches ------------------------------------------------------------

    def green_row(self, n: int, halfwidth: int) -> np.ndarray:
        """G(n, k+1) for k in [n - halfwidth, n + halfwidth] as a stack, with
        G(n, k+1) at [k - n + halfwidth].  One stack is cached per n, the
        widest built so far; narrower rows are its centre."""
        row = self._green_rows.get(n)
        if row is None or len(row) < 2 * halfwidth + 1:
            try:
                row = green_span(self.sys, n, n - halfwidth + 1, n + halfwidth + 1)
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
        self, n: int, xi, eta=None, window: Optional[int] = None
    ) -> tuple[np.ndarray, float, int]:
        """Series value, truncation-error bound and window halfwidth."""
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
        states, couplings = _trajectory(sys, n, lo, hi, xi_b, eta_b, self.solve)
        couplings[hi] = _map_columns(sys, "f.eval", hi, *states[hi])
        acc = np.zeros_like(xi_b)
        for k in range(lo, hi + 1):
            acc += row[k - lo] @ couplings[k]
        val = -acc
        return (val[:, 0] if single else val), tail, k_half

    def bar_h(self, n: int, xi, eta=None, window: Optional[int] = None) -> np.ndarray:
        return self.bar_h_detailed(n, xi, eta, window=window)[0]

    def bar_H(self, n: int, xi, eta=None) -> tuple[np.ndarray, np.ndarray]:
        return self._shifted(xi, eta, self.bar_h(n, xi, eta))

    def h_detailed(
        self, n: int, xi, eta=None, iters: Optional[int] = None
    ) -> tuple[np.ndarray, list, int]:
        """Fixed-point value, residual history and iterations used.

        With `iters` given, runs exactly that many Picard updates with no
        early stop (smooth in xi; used by the finite-difference harness).
        """
        c, k_half, value_bound = self._h_window(n)
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)

        if iters is not None:
            u = np.zeros_like(xi_b)
            for _ in range(iters):
                u = -self.bar_h(n, xi_b + u, eta_b, window=k_half)
            return (u[:, 0] if single else u), [], iters

        if c <= 0.0 or value_bound <= self.fp_tol:
            cap = 4
        else:
            cap = int(math.ceil(math.log(self.fp_tol / value_bound) / math.log(c))) + 16
        cap = max(cap, 8)
        u = np.zeros_like(xi_b)
        residuals: list = []
        for it in range(cap):
            v = self.bar_h(n, xi_b + u, eta_b, window=k_half)
            res = float(np.max(batch_vector_norm(u + v, self.sys.space.norm_kind)))
            residuals.append(res)
            if res <= self.fp_tol:
                return (u[:, 0] if single else u), residuals, it
            u = -v
        raise NoConvergence(f"h fixed point at n={n}", cap, residuals[-1], self.fp_tol)

    def _h_window(self, n: int) -> tuple[float, int, float]:
        """(c(n), halfwidth, value bound) of h at n: its series window at the
        tightened tolerance fp_tol (1 - c(n)) / 2."""
        c = self.contraction(n)
        win = self.series_window(n, min(self.series_tol, self.fp_tol * (1.0 - c) / 2.0))
        return c, win.halfwidth, win.value_bound

    def h(self, n: int, xi, eta=None, iters: Optional[int] = None) -> np.ndarray:
        return self.h_detailed(n, xi, eta, iters=iters)[0]

    def H(self, n: int, xi, eta=None) -> tuple[np.ndarray, np.ndarray]:
        return self._shifted(xi, eta, self.h(n, xi, eta))

    def _shifted(self, xi, eta, u) -> tuple[np.ndarray, np.ndarray]:
        """(xi + u, eta), with eta = 0 when absent."""
        xi_arr = np.asarray(xi, dtype=float)
        if eta is None:
            return xi_arr + u, np.zeros((self.sys.space.dim_y,) + xi_arr.shape[1:])
        return xi_arr + u, np.array(eta, dtype=float)

    # -- residual diagnostics -----------------------------------------------

    def residual_tables(self, ns, xi, eta=None, steps: int = 10) -> dict[int, BaseResiduals]:
        """Inverse and equivariance residuals at every base index in `ns`.

        Evaluated index-major.  The probes' linear and coupled trajectories do
        not depend on the conjugacies, so for each index m from min(ns) to
        max(ns) + steps, in ascending order, the tables need one bar_h(m, .)
        on every coupled point at m, one h(m, .) on every linear point at m
        plus, when m is a base index, the round-trip points p + bar_h(m, p),
        and at a base index one bar_h(m, p + h(m, p)) to close the round
        trip.  Columns are laid out by (sorted ns, probe order) alone.

        A NonautolinError at index m becomes the `equivariance_error` of
        every base n with m in [n, n + steps] that has none yet, and the
        `inverse_error` of n = m; the bases it hits take no further columns.
        """
        kind = self.sys.space.norm_kind
        xi_b, eta_b, _ = _state_columns(self.sys, xi, eta)
        batch = xi_b.shape[1]
        out = {n: BaseResiduals() for n in sorted({int(n) for n in ns})}
        if not out:
            return out
        live: dict[int, _Walk] = {}  # the bases whose steps reach m, ascending
        for m in range(min(out), max(out) + steps + 1):
            base = m in out
            if base:
                live[m] = _Walk(xi_b, xi_b, eta_b, np.zeros(batch), np.zeros(batch))
            if not live:
                continue
            walks = list(live.values())
            lin = np.hstack([w.lin for w in walks])
            cpl = np.hstack([w.cpl for w in walks])
            y = np.hstack([w.y for w in walks])
            width = lin.shape[1]
            try:
                self._h_window(m)  # builds m's Green row at the wider h window first
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
                    batch_vector_norm((xi_b + u0) + closing - xi_b, kind),
                    batch_vector_norm((xi_b + b0) + hvals[:, width:] - xi_b, kind),
                )
            hx = lin + hvals[:, :width]  # H(m, linear points)
            bx = cpl + bvals  # bar_H(m, coupled points)
            # both trajectories step y with the same g, so again only x differs
            for i, (n, w) in enumerate(live.items()):
                if m > n:
                    cols = slice(i * batch, (i + 1) * batch)
                    fwd = batch_vector_norm(w.h_image - hx[:, cols], kind)
                    dual = batch_vector_norm(w.bar_h_image - bx[:, cols], kind)
                    w.forward, w.dual = np.maximum(w.forward, fwd), np.maximum(w.dual, dual)
            first = next(iter(live))
            if first + steps == m:  # only the oldest base can end here
                w = live.pop(first)
                out[first].forward, out[first].dual = w.forward, w.dual
                if not live:
                    continue
            half = len(live) * batch
            rest = slice(width - half, width)
            x_c, _, _ = _forward_step(self.sys, m, np.hstack([hx[:, rest], cpl[:, rest]]),
                                      np.hstack([y[:, rest], y[:, rest]]), coupled=True)
            x_l, y_next, _ = _forward_step(self.sys, m, np.hstack([bx[:, rest], lin[:, rest]]),
                                           y[:, rest], coupled=False)
            for i, w in enumerate(live.values()):
                a, b = i * batch, (i + 1) * batch
                w.h_image, w.cpl = x_c[:, a:b], x_c[:, half + a:half + b]
                w.bar_h_image, w.lin = x_l[:, a:b], x_l[:, half + a:half + b]
                w.y = y_next[:, a:b]
        return out


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


@dataclass
class _Walk:
    """One base's probes at the current index of `residual_tables`: linear and
    coupled states, driver states, the step images of the previous H and
    bar_H values, and the running forward and dual residuals."""

    lin: np.ndarray
    cpl: np.ndarray
    y: np.ndarray
    forward: np.ndarray
    dual: np.ndarray
    h_image: Optional[np.ndarray] = None
    bar_h_image: Optional[np.ndarray] = None
