"""Construction of the conjugacies between the coupled and uncoupled systems.

The coupled-to-linear direction is the truncated series

    bar_h(n, xi, eta) = - sum_k  G(n, k+1) f_k(x2(k, n, xi, eta), y(k, n, eta)),
    bar_H(n, xi, eta) = (xi + bar_h(n, xi, eta), eta),

whose absolute truncation error over a window of halfwidth K is bounded by
sum_{|k-n|>K} |G(n,k+1)| mu_k; the window is enlarged until that bound drops
under `series_tol` (analytic envelope when the system has one, ratio
extrapolation otherwise; the bounding terms are state-free, so the window
depends only on n).  A walk covers the window's span, each side of
[n - K, n + K] cut back to the outermost k with G(n, k+1) != 0: with every
future kernel 0 (A = P = Id) it takes no forward step, with every past
kernel 0 (P = 0) no backward one.  The series sums the coupling values its
trajectory computed: every forward step and every backward fixed-point step
returns f_k at the state it stepped from, and the walk evaluates f at the
upper end of its span, so one bar_h is one trajectory walk, and the sum one
product of the Green row with the span's stacked couplings.  bar_h at several
centres is one sweep over all of their columns, neighbouring walks sharing
each step's kernel call (`evolution._trajectory`).

The inverse direction is obtained pointwise from the fixed-point relation

    h(n, xi, eta) = -bar_h(n, xi + h(n, xi, eta), eta),
    H(n, xi, eta) = (xi + h(n, xi, eta), eta),

solved from 0 by Anderson-mixed fixed-point iteration.  The map contracts at
the certified first-variable bound c(n) = K_n + J_n + |G(n,n+1)| gamma_n,
which must be < 1; the inner series tolerance is tightened to
fp_tol (1 - c(n)) / 2 so the truncation bias stays below the fixed-point
residual target.

Evaluations accept either a single state (dim,) or a column batch
(dim, batch), which shares its walks and iteration counts; a value that is
not finite stays in its own column.  `residual_tables` tests bar_H(H(p)) = p,
H(bar_H(p)) = p and the equivariance of H and bar_H along the linear and
coupled maps.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractionViolation, NoConvergence, NonautolinError, WindowExhausted
from .evolution import (DEFAULT_SOLVE, SolveOptions, Span, _dot, _forward_step, _max,
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
        if not (series_tol > 0.0 and fp_tol > 0.0):  # NaN too
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
        self._span_ends: dict[tuple[int, int], tuple[int, int]] = {}
        self._backward_checked: set[int] = set()  # j whose A_j^{-1} and margin hold

    # -- caches ------------------------------------------------------------

    def green_row(self, n: int, halfwidth: int) -> np.ndarray:
        """G(n, k+1) for k in [n - halfwidth, n + halfwidth] as a stack, with
        G(n, k+1) at [k - n + halfwidth].  One stack is cached per n, the
        widest built so far and at least `advanced_halfwidth` wide, the row
        `contraction(n)` reads and `_spans` cuts to the non-zero kernels;
        narrower rows are its centre."""
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

    def _spans(self, centres) -> list:
        """The `Span`s of (n, halfwidth K, count) triples, ascending in n: each
        side of [n - K, n + K] cut back to the outermost k whose kernel
        G(n, k+1) has a non-zero entry, n kept (cached per (n, K)).  A term
        cut off is G f = 0 at every finite state, so no other term changes."""
        out = []
        for n, k_half, count in centres:
            ends = self._span_ends.get((n, k_half))
            if ends is None:
                live = np.flatnonzero(self.green_row(n, k_half).any(axis=(1, 2))) + (n - k_half)
                ends = self._span_ends[n, k_half] = (int(live.min(initial=n)),
                                                     int(live.max(initial=n)))
            out.append(Span(n, *ends, count))
        return out

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
            c = IndexConstants.of(self.sys, n - k, n + k).rows(2 * k + 1)
            g = operator_norm(self.green_row(n, k), self.sys.space.norm_kind)
            return [t[0] for t in _advanced_terms(c, g[None], k)[side]]

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
        consts = IndexConstants.of(sys, n - w, n + w).rows(2 * w + 1)
        ((k_est, j_est, c, _),) = _advanced(sys, consts, g[None], w)
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
        """Series value, truncation-error bound and window halfwidth; a
        negative `window` raises ValueError."""
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)
        if window is None:
            win = self.series_window(n, self.series_tol)
            k_half, tail = win.halfwidth, win.tail_bound
        else:
            k_half = int(window)
            if k_half < 0:
                raise ValueError(f"window must be >= 0, got {window}")
            env = _envelope(self.sys, "barh", n)
            tail = env.two_sided(k_half) if env else math.inf
        val = (self._series(self._spans([(n, k_half, xi_b.shape[1])]), xi_b, eta_b)
               if xi_b.size else xi_b)  # no columns, no walk
        return (val[:, 0] if single else val), tail, k_half

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite column stays in its column
    def _series(self, spans: list, xi: np.ndarray, eta: np.ndarray,
                couplings: Optional[list] = None, warm: bool = False) -> np.ndarray:
        """bar_h(n, ., .) at the (dim, batch) columns (xi, eta) of every span,
        n its centre and [lo, hi] its window, as `_spans` cuts it: one
        `_trajectory` sweep over all of them, which fills `couplings` (fresh
        lists when None; see there for `warm`), then per span one product of
        the Green row sliced to [lo, hi] with its stacked couplings, after
        which only its backward couplings, those a warm walk reads, stay in
        its list.  That product adds the terms in another order than index
        order, and without the kernels `_spans` cut: per column and
        component the two sums differ by at most 2 gamma_m sum_k |G(n,k+1)|
        |f_k|, with m = (2K+1) dim_x terms and gamma_m = m u / (1 - m u),
        u = 2^-53 (Higham, "Accuracy and Stability of Numerical Algorithms",
        2nd ed., §3.1)."""
        if couplings is None:
            couplings = _coupling_lists(spans)
        _trajectory(self.sys, spans, xi, eta, self.solve, couplings, warm)
        out = np.empty_like(xi)
        pos = 0
        for s, window in zip(spans, couplings):
            w = max(s.n - s.lo, s.hi - s.n)
            row = self.green_row(s.n, w)[s.lo - s.n + w:s.hi - s.n + w + 1]
            # side by side, as np.vstack stacks f_k
            out[:, pos:pos + s.count] = -_dot(row.transpose(1, 0, 2).reshape(len(xi), -1),
                                              np.vstack(window))
            window[s.n - s.lo:] = [None] * (s.hi - s.n + 1)
            pos += s.count
        return out

    def bar_h(self, n: int, xi, eta=None, window: Optional[int] = None) -> np.ndarray:
        return self.bar_h_detailed(n, xi, eta, window=window)[0]

    def bar_H(self, n: int, xi, eta=None) -> tuple[np.ndarray, np.ndarray]:
        return self._shifted(self.bar_h, n, xi, eta)

    def h_detailed(self, n: int, xi, eta=None, *, smooth: bool = False
                   ) -> tuple[np.ndarray, list, int]:
        """Fixed-point value, residual history and iterations used: `_solve_h`
        with one centre, whose NoConvergence it raises."""
        xi_b, eta_b, single = _state_columns(self.sys, xi, eta)
        if not xi_b.size:  # no columns, nothing to solve
            return xi_b, [], 0
        u, ((residuals, iters, error),) = self._solve_h([n], [xi_b.shape[1]], xi_b, eta_b, smooth)
        if error:
            raise error
        return (u[:, 0] if single else u), residuals, iters

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite column stays in its column
    def _solve_h(self, centres: list, counts: list, xi: np.ndarray, eta: np.ndarray,
                 smooth: bool = False) -> tuple[np.ndarray, list]:
        """h(n, ., .) at the (dim, batch) columns (xi, eta), the first
        counts[0] columns at centres[0], the next counts[1] at centres[1], and
        so on, with the centres ascending; returns the values and each
        centre's (residual history, iterations used, NoConvergence or None).

        Each centre solves u = -bar_h(n, xi + u, eta) from u = 0, one
        `_series` sweep per iteration over the centres still iterating (each
        walk after the first warm from the last one's backward couplings),
        until its finite columns pass |u + bar_h(n, xi + u, eta)| <= fp_tol or
        it reaches the Picard count of `h_window(n)`; the iterations returned
        are those before the stop test.  A column with a non-finite residual,
        or not passed at that count, ends as NaN.  Why a passing column is
        within fp_tol / (1 - c(n)) of h however u was produced, and why the
        walks stay smooth in each column's data: `_trajectory`.

        By default each column's iterates are type-II Anderson-mixed with
        depth 2 (Walker & Ni, "Anderson acceleration for fixed-point
        iterations", SIAM J. Numer. Anal. 49, 2011): the next iterate
        combines the column's last values of -bar_h with the weights that
        best cancel its last residuals, and whenever its centre's max
        residual fails to shrink, the step is a plain Picard step and the
        centre's history restarts.  No history or restart mixes centres.

        `smooth=True`, the mode of the d_h finite-difference stencil, is
        plain Picard iteration with 4 further updates after the stop test.
        The N-fold Picard composition, one N for every column, is smooth in
        the data, and its derivative approaches dh like c(n)^N; the extra
        updates push that gap well under the stop test.  The Anderson
        iterate cannot serve a stencil: its weights and restarts are not
        smooth in the data, and its count, smaller than Picard's, would
        leave a wider derivative gap.
        """
        windows = [self.h_window(n) for n in centres]
        caps = [cap for _, cap in windows]
        spans = self._spans([(n, k, b) for n, (k, _), b in zip(centres, windows, counts)])
        couplings = _coupling_lists(spans)
        starts = np.cumsum([0] + list(counts))
        norms = _column_norms(self.sys.space.norm_kind)
        u = np.zeros_like(xi)
        residuals: list = [[] for _ in centres]
        values: list = [[] for _ in centres]  # the last (-bar_h(xi + u), residual) pairs
        iters: list = [0] * len(centres)
        errors: list = [None] * len(centres)
        extra = [0] * len(centres)  # smooth updates still to make after the stop test
        live = list(range(len(centres)))
        walks = 0
        while live:
            cols = (slice(None) if len(live) == len(centres) else
                    np.concatenate([np.arange(starts[i], starts[i + 1]) for i in live]))
            u_live = u[:, cols]
            g = -self._series([spans[i] for i in live], xi[:, cols] + u_live, eta[:, cols],
                              [couplings[i] for i in live], warm=walks > 0)
            f = g - u_live
            r = norms(f)
            walks += 1
            pos, still = 0, []
            for i in live:
                here, mine = slice(pos, pos + counts[i]), slice(starts[i], starts[i + 1])
                pos += counts[i]
                if extra[i]:
                    u[:, mine] = g[:, here]
                    extra[i] -= 1
                    if extra[i]:
                        still.append(i)
                    continue
                r_i = r[here]
                res = float(_max(r_i))
                if not math.isfinite(res):  # the largest finite residual, 0 if none is
                    u[:, mine] = np.where(np.isfinite(r_i), u[:, mine], math.nan)
                    res = float(_max(r_i, where=np.isfinite(r_i), initial=0.0))
                if residuals[i] and not res < residuals[i][-1]:
                    values[i].clear()
                residuals[i].append(res)
                if res <= self.fp_tol:
                    iters[i] = len(residuals[i]) - 1
                    if smooth:  # 4 further updates, g the first of them
                        u[:, mine] = g[:, here]
                        extra[i] = 3
                        still.append(i)
                    continue
                if len(residuals[i]) == caps[i]:
                    errors[i] = NoConvergence(f"h fixed point at n={centres[i]}", caps[i], res,
                                              self.fp_tol)
                    u[:, mine] = np.where(r_i <= self.fp_tol, u[:, mine], math.nan)
                    continue
                values[i] = values[i][-_ANDERSON_DEPTH:] + [(g[:, here], f[:, here])]
                u[:, mine] = (g[:, here] if smooth or len(values[i]) == 1
                              else _anderson_step(values[i]))
                still.append(i)
            for i in set(live) - set(still):  # its couplings hold arrays live centres share
                couplings[i] = None
            live = still
        return u, list(zip(residuals, iters, errors))

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

        The probes' linear and coupled trajectories do not depend on the
        conjugacies, so the tables advance over the indices m from min(ns) to
        max(ns) + steps in blocks of consecutive indices, a block of several
        within `_BLOCK_COLUMNS` columns.  A block solves, each as one
        multi-centre solve, bar_h(m, .) on the coupled points at each of its
        indices m, h(m, .) on the linear points and at a base index the round
        trips p + bar_h(m, p), and bar_h(m, p + h(m, p)) closing them
        (`_residual_block`).

        A row is a claim about one probe: one whose values turn non-finite
        at index m has that index's error (`_residual_block`).  What fails
        for every probe at m is checked before any walk of its block, which
        ends before m (`_first_unfit`); that error, or one escaping the walks
        of a block, at each of its indices, goes to each probe with none yet,
        in the `equivariance_errors` of each base n with m in [n, n + steps]
        and the `inverse_errors` of n = m, and the bases it hits take no
        further columns.  A negative `steps` raises ValueError.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        xi_b, eta_b, _ = _state_columns(self.sys, xi, eta)
        out = {n: BaseResiduals() for n in sorted({int(n) for n in ns})}
        if not xi_b.size:  # no probes: empty tables, no walk
            return {n: BaseResiduals(xi_b, xi_b, math.inf, *[np.zeros(0)] * 3) for n in out}
        if not out:
            return out
        bases, batch = list(out), xi_b.shape[1]
        none = np.zeros((0, batch))
        idle = _Live((), xi_b[:, :0], xi_b[:, :0], eta_b[:, :0], xi_b[:, :0], xi_b[:, :0],
                     none, none, np.empty((0, batch), dtype=object))

        def width(k):  # an index's columns: its bases' probes and round trips, at most
            return batch * (bisect.bisect_right(bases, k) - bisect.bisect_left(bases, k - steps)
                            + (k in out))

        live, m, end = idle, min(out), max(out) + steps
        while m <= end:
            stop, cols = m + 1, width(m)
            while stop <= end and cols + width(stop) <= _BLOCK_COLUMNS:
                cols += width(stop)
                stop += 1
            block = range(m, stop)
            unfit = self._first_unfit(block, live, out, steps)
            if unfit is not None:  # the indices before it run as a block
                block = range(m, max(unfit[0], m + 1))
            try:
                if unfit is not None and unfit[0] == m:
                    raise unfit[1]
                live, results = self._residual_block(block, live, out, xi_b, eta_b, steps)
            except NonautolinError as exc:  # a probe it hits keeps an earlier error
                new = [n for n in block if n in out]
                results = [(n, {"equivariance_errors": _errors(fail, exc)}) for n, fail in zip(
                    live.bases + tuple(new), [*live.fail, *[[None] * batch] * len(new)])]
                results += [(n, {"inverse_errors": dict.fromkeys(range(batch), exc)}) for n in new]
                live = idle
            for n, fields in results:
                vars(out[n]).update(fields)
            m = block.stop
        return out

    def _first_unfit(self, block: range, live: _Live, out: dict,
                     steps: int) -> Optional[tuple[int, NonautolinError]]:
        """(m, error) for the first index m of `block` that some base's steps
        reach and whose series window, h window, contraction certificate or
        backward steps raise, or None: the backward steps of h's span, the
        widest at m and the only ones its walks take, each checked once per
        engine for A_j^{-1} and |A_j^{-1}| gamma_j < 1."""
        for m in block:
            if any(n + steps >= m for n in live.bases) or any(
                    block[0] <= n <= m <= n + steps for n in out):
                try:
                    self.series_window(m, self.series_tol)
                    (span,) = self._spans([(m, self.h_window(m)[0], 0)])
                    for j in range(span.lo, m):
                        if j not in self._backward_checked:
                            self.sys.require_backward_margin(j)
                            self.sys.a.inverse(j)
                            self._backward_checked.add(j)
                except NonautolinError as exc:
                    return m, exc
        return None

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite column stays in its column
    def _residual_block(self, block: range, live: _Live, out: dict, xi: np.ndarray,
                        eta: np.ndarray, steps: int) -> tuple[_Live, list]:
        """The bases live after the consecutive indices `block`, and the
        (base, fields) results the block completed, from the bases `live`
        after the index before it.

        In order: the probes' linear and coupled points are stepped to every
        index of the block; one bar_h solve over the block's centres takes
        the coupled points, the probes at a base index among them; one h
        solve takes the linear points and the round trips; one bar_h solve
        closes the round trips; then the images of H and bar_H at each index
        are stepped to the next and compared.  A probe's values turn
        non-finite at the first m where its inverse residual or a running
        maximum of its equivariance residuals, from 0 |H(n, p)| and 0
        |bar_H(n, p)|, is not finite; its error is h's NoConvergence at m, if
        any, or names m."""
        sys, batch = self.sys, xi.shape[1]
        norms = _column_norms(sys.space.norm_kind)
        at = []  # (m, bases, lin, cpl, y) at each index of the block with live bases
        bases, lin, cpl, y = live.bases, live.lin, live.cpl, live.y
        for m in block:
            if bases:
                lin = _dot(sys.a.matrix(m - 1), lin)
                cpl, y, _ = _forward_step(sys, m - 1, cpl, y)
            if m in out:
                bases += (m,)
                lin, cpl, y = np.hstack([lin, xi]), np.hstack([cpl, xi]), np.hstack([y, eta])
            if bases:
                at.append((m, bases, lin, cpl, y))
                if bases[0] + steps == m:  # only the oldest base can end here
                    bases, lin, cpl, y = bases[1:], lin[:, batch:], cpl[:, batch:], y[:, batch:]
        if not at:
            return live, []
        ms, _, lins, cpls, ys = zip(*at)
        wins = [self.series_window(m, self.series_tol) for m in ms]
        widths = [c.shape[1] for c in cpls]
        bars = _split(self._series(self._spans(zip(ms, [w.halfwidth for w in wins], widths)),
                                   np.hstack(cpls), np.hstack(ys)), widths)
        # h on the linear points and, at a base index, the round trips
        h_x, h_eta, counts = [], [], []
        for m, lin, y, b in zip(ms, lins, ys, bars):
            h_x += [lin, xi + b[:, -batch:]] if m in out else [lin]
            h_eta += [y, eta] if m in out else [y]
            counts.append(lin.shape[1] + batch * (m in out))
        u, records = self._solve_h(list(ms), counts, np.hstack(h_x), np.hstack(h_eta))
        hs = _split(u, counts)
        errors = {m: cap or NonautolinError(f"non-finite value in the residual tables at m={m}")
                  for m, (*_, cap) in zip(ms, records)}  # of a probe turning non-finite at m
        trips = [(m, w, h) for m, w, h in zip(ms, wins, hs) if m in out]
        if trips:  # bar_h(m, p + h(m, p)) closes the round trips
            closing = self._series(self._spans((m, w.halfwidth, batch) for m, w, _ in trips),
                                   np.hstack([xi + h[:, -2 * batch:-batch] for *_, h in trips]),
                                   np.tile(eta, len(trips)))

        results: list = []
        prev = live
        for (m, bases, lin, cpl, y), win, b, h in zip(at, wins, bars, hs):
            hx, bx = lin + h[:, :lin.shape[1]], cpl + b  # H(m, lin), bar_H(m, cpl)
            fwd, dual, fail, old = prev.fwd, prev.dual, prev.fail, len(prev.bases)
            if old:  # the images at m of H and bar_H at m - 1
                h_img = _forward_step(sys, m - 1, prev.hx, prev.y)[0]
                bh_img = _dot(sys.a.matrix(m - 1), prev.bx)
                fwd = np.maximum(fwd, norms(h_img - hx[:, :old * batch]).reshape(old, batch))
                dual = np.maximum(dual, norms(bh_img - bx[:, :old * batch]).reshape(old, batch))
            if m in out:
                u0, b0 = h[:, -2 * batch:-batch], b[:, -batch:]
                back, closing = closing[:, :batch], closing[:, batch:]
                # H and bar_H leave y unchanged, so only x can miss the probe
                inverse = np.maximum(norms((xi + u0) + back - xi),
                                     norms((xi + b0) + h[:, -batch:] - xi))
                results.append((m, {"h": u0, "bar_h": b0, "tail_bound": win.tail_bound,
                                    "inverse": inverse, "inverse_errors": _errors(
                                        np.where(np.isfinite(inverse), None, errors[m]))}))
                fwd = np.vstack([fwd, 0.0 * norms(hx[:, -batch:])])
                dual = np.vstack([dual, 0.0 * norms(bx[:, -batch:])])
                fail = np.vstack([fail, np.full((1, batch), None)])
            fail = np.where(~np.isfinite(fwd + dual) & np.equal(fail, None), errors[m], fail)
            if bases[0] + steps == m:
                results.append((bases[0], {"forward": fwd[0], "dual": dual[0],
                                           "equivariance_errors": _errors(fail[0])}))
                bases, fwd, dual, fail = bases[1:], fwd[1:], dual[1:], fail[1:]
                lin, cpl, y, hx, bx = (v[:, batch:] for v in (lin, cpl, y, hx, bx))
            prev = _Live(bases, lin, cpl, y, hx, bx, fwd, dual, fail)
        return prev, results


def _errors(fail, exc: Optional[NonautolinError] = None) -> dict:
    """{probe: error} of one base's row of `_Live.fail`, `exc` that of each probe with none."""
    return {i: e or exc for i, e in enumerate(fail) if e or exc}


def _split(cols: np.ndarray, counts: list) -> list:
    """The (dim, batch) columns `cols` cut into consecutive pieces of `counts` columns."""
    return np.split(cols, np.cumsum(counts)[:-1], axis=1)


def _coupling_lists(spans: list) -> list:
    """Empty coupling lists for a `_trajectory` sweep over `spans`."""
    return [[None] * (s.hi - s.lo + 1) for s in spans]


# Columns per residual block: past its first index a block of `residual_tables`
# takes indices while its columns stay within it.  A longer block shares each
# kernel call among more centres but holds more couplings at once; 2,100, seven
# of ex1's widest indices, gave perfbench ex1_report its lowest peak_rss_mb
# (2-core x86_64; the sweep from 1,800 to 4,096 is in CHANGES.md).
_BLOCK_COLUMNS = 2100

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


class _Live(NamedTuple):
    """The bases of `residual_tables` whose steps reach past index m - 1,
    ascending, after that index: their probes' columns, base after base, as
    linear points, coupled points and y at m - 1, and H and bar_H at m - 1
    of those points, with the (bases, batch) running maxima of the forward
    and dual residuals and of each probe's error, None while it has none."""

    bases: tuple
    lin: np.ndarray
    cpl: np.ndarray
    y: np.ndarray
    hx: np.ndarray
    bx: np.ndarray
    fwd: np.ndarray
    dual: np.ndarray
    fail: np.ndarray


@dataclass
class BaseResiduals:
    """`residual_tables`' results at one base index n, one entry per probe.

    `h` and `bar_h` are h(n, p) and bar_h(n, p) as columns, `tail_bound` the
    truncation bound of bar_h(n, .), `inverse` the max of |bar_H(H(p)) - p|
    and |H(bar_H(p)) - p|, and `forward`/`dual` the equivariance residuals.
    `inverse_errors` and `equivariance_errors` map a probe to the error
    that took its row from that table, where its entries are not finite, or
    where the arrays stay None when one error took every row.
    """

    h: Optional[np.ndarray] = None
    bar_h: Optional[np.ndarray] = None
    tail_bound: float = math.inf
    inverse: Optional[np.ndarray] = None
    forward: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None
    inverse_errors: dict = field(default_factory=dict)
    equivariance_errors: dict = field(default_factory=dict)
