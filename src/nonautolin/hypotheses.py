"""Numerical certification of the admissibility conditions.

All bi-infinite sums are evaluated over explicit finite windows and reported
as `SeriesEstimate` records: partial sum, tail bound and a three-valued
verdict.  Every verdict rests on closed forms the system declares
(`TailEnvelopes`): a side of a sum converges under an analytic envelope on
its terms, diverges under a positive lower bound on them that its computed
terms bear out, and is inconclusive otherwise.  A finite tool cannot
certify a supremum over all of Z, so every report names its window.

Condition ids used in reports:

  bc1  coupling bounds: |f_n| <= mu_n and x-Lipschitz constant <= gamma_n (sampled)
  bc2  N = sup_m  sum_n |G(m,n)| mu_{n-1}  finite
  bc3  q = sup_m  sum_n |G(m,n)| gamma_{n-1}  < 1
  bc4  |A_n^{-1}| gamma_n < 1 for every n
  ac2  K_n = sum_{k<n} |G(n,k+1)| gamma_k C_{k,n} and
       J_n = sum_{k>n} |G(n,k+1)| gamma_k C_{k,n} both finite
  ac3  K_n + J_n + |G(n,n+1)| gamma_n < 1
  ac6  sigma_n rho_n <= 1 for every n
  ac9  sum_k |G(n,k+1)| (gamma_k M_{k,n} + rho_k D_{k,n}) finite
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractionViolation, NonautolinError, SingularOperatorError
from .evolution import _checked
from .system import GeometricTail, SystemSpec, _chunks, _column_norms, green_norm_rows

CONVERGED = "converged"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_SAMPLING_SLACK = 1e-9


def _json_number(x) -> Optional[float]:
    """JSON value of a number: None when it is missing or not finite."""
    if x is None or not np.isfinite(x):
        return None
    return float(x)


@dataclass
class SeriesEstimate:
    """Partial sum plus tail bound and verdict for one truncated series."""

    partial_sum: float
    tail_bound: Optional[float]
    verdict: str
    window: tuple[int, int]
    terms_inspected: int

    @property
    def bound(self) -> float:
        """partial_sum + tail_bound; infinite when the tail is unknown."""
        if self.verdict != CONVERGED or self.tail_bound is None:
            return math.inf
        return self.partial_sum + self.tail_bound

    def to_json(self) -> dict:
        return {
            "partial_sum": _json_number(self.partial_sum),
            "tail_bound": _json_number(self.tail_bound),
            "verdict": self.verdict,
            "window": list(self.window),
            "terms_inspected": self.terms_inspected,
        }


def rounding_slack(dim_x: int, width: int) -> float:
    """1 + s, the rounding slack of a series of `_advanced_terms`, or of
    |G(n, k+1)| mu_k, over a window of `width` terms per side: times 1 + s a
    computed term, or a sum of them plus an envelope tail, bounds its exact
    value on the engine's kernels, as Higham ("Accuracy and Stability of
    Numerical Algorithms", 2nd ed., §4.2) bounds a sum.

    Their errors, to first order in u = 2^-53 with q = dim_x, w = width:
    the norm's, `operator_norm`'s gamma_{q-1} or delta / 2 + u, at most
    q (q + 1) u with c_q <= q; the weight's, mu_k or gamma_k or rho_k times
    at most w factors of 4 u each and a sum, 5 w + 4 u; the sum of w terms,
    w u; the tail and the bound's own arithmetic, 7 u: in all q (q + 1) +
    6 w + 11 u.  s = 2 (q (q + 1) + 6 w + 12) u, over twice that, covers the
    second order too.
    """
    return 1.0 + 2 * (dim_x * (dim_x + 1) + 6 * width + 12) * 2.0 ** -53


def _side_tail(terms, envelope_tail: Optional[float], floor: float,
               slack: float) -> tuple[Optional[float], str]:
    """(tail bound, verdict) of one side of a series from its computed terms:
    divergent under a positive closed-form `floor` on every term, but
    inconclusive if a term times `slack` undercuts it; else converged under
    a finite analytic envelope tail (an overflowed one bounds nothing); else
    inconclusive, even with no terms, as then the tail is the whole side."""
    if floor > 0.0:
        return None, DIVERGENT if np.all(np.asarray(terms) * slack >= floor) else INCONCLUSIVE
    if envelope_tail is not None and math.isfinite(envelope_tail):
        return envelope_tail, CONVERGED
    return None, INCONCLUSIVE


def _estimate(window: tuple[int, int], sides: tuple, middle: Optional[float], partial: float,
              slack: float = 1.0) -> SeriesEstimate:
    """One estimate from the (terms outward from the center, envelope tail
    or None, floor) of each side of a series (`_side_tail`; a one-sided
    series passes one), `middle` its center term or None and `partial` the
    sum of all its terms.

    A divergent side makes the sum divergent, and so does an infinite
    partial sum: a sum past the largest double can never give a converged
    verdict or a bound < 1, whether or not its exact value is finite.  A NaN
    sum, an arithmetic failure (inf * 0 in an overflowed Green kernel), is
    inconclusive whatever its sides say."""
    inspected, tail, verdicts = int(middle is not None), 0.0, []
    for terms, envelope_tail, floor in sides:
        side_tail, verdict = _side_tail(terms, envelope_tail, floor, slack)
        inspected, tail = inspected + len(terms), tail + (side_tail or 0.0)
        verdicts.append(verdict)
    if math.isnan(partial):
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    if math.isinf(partial) or DIVERGENT in verdicts:
        return SeriesEstimate(partial, None, DIVERGENT, window, inspected)
    if INCONCLUSIVE in verdicts:
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    return SeriesEstimate(partial, tail, CONVERGED, window, inspected)


def _unknown(lo: int, hi: int) -> SeriesEstimate:
    """The estimate of a series over [lo, hi] none of whose terms could be
    computed."""
    return SeriesEstimate(math.nan, None, INCONCLUSIVE, (lo, hi), 0)


@dataclass
class HypothesisReport:
    """Certification record: basic conditions plus per-n advanced conditions."""

    window: tuple[int, int]
    bc1_sampled_ok: Optional[bool] = None
    bc2: Optional[SeriesEstimate] = None
    bc3: Optional[SeriesEstimate] = None
    bc4_ok: Optional[bool] = None
    bc4_worst_index: Optional[int] = None
    bc4_worst_margin: Optional[float] = None
    n_bound: Optional[float] = None
    q_bound: Optional[float] = None
    ac2: dict = field(default_factory=dict)  # n -> (K SeriesEstimate, J SeriesEstimate)
    ac3_bound: dict = field(default_factory=dict)  # n -> float (K+J+middle incl. tails)
    ac6_ok: Optional[bool] = None
    ac6_worst_index: Optional[int] = None
    ac9: dict = field(default_factory=dict)  # n -> SeriesEstimate
    advanced_error: Optional[str] = None

    @property
    def ac3(self) -> dict:
        """n -> whether the contraction total ac3_bound[n] is < 1 (it is
        infinite unless K_n and J_n both converged)."""
        return {n: total < 1.0 for n, total in self.ac3_bound.items()}

    @property
    def basic_ok(self) -> bool:
        return bool(
            self.bc1_sampled_ok
            and self.bc2 is not None
            and self.bc2.verdict == CONVERGED
            and self.bc3 is not None
            and self.bc3.verdict == CONVERGED
            and self.q_bound is not None
            and self.q_bound < 1.0
            and self.bc4_ok
        )

    @property
    def advanced_series_ok(self) -> bool:
        """All advanced sums certified convergent (ac3 truth is reported per n,
        but only gates operations that invert the conjugacy)."""
        if self.advanced_error is not None:
            return False
        pairs_ok = all(
            k.verdict == CONVERGED and j.verdict == CONVERGED for k, j in self.ac2.values()
        )
        second_ok = all(e.verdict == CONVERGED for e in self.ac9.values())
        return bool(pairs_ok and second_ok and (self.ac6_ok is not False))

    @property
    def overall_ok(self) -> bool:
        return self.basic_ok and self.advanced_series_ok

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "bc1_sampled_ok": self.bc1_sampled_ok,
            "bc2": self.bc2.to_json() if self.bc2 else None,
            "bc3": self.bc3.to_json() if self.bc3 else None,
            "bc4_ok": self.bc4_ok,
            "bc4_worst_index": self.bc4_worst_index,
            "bc4_worst_margin": _json_number(self.bc4_worst_margin),
            "n_bound": _json_number(self.n_bound),
            "q_bound": _json_number(self.q_bound),
            "ac2": {
                str(n): {"k_series": k.to_json(), "j_series": j.to_json()}
                for n, (k, j) in sorted(self.ac2.items())
            },
            "ac3": {str(n): bool(v) for n, v in sorted(self.ac3.items())},
            "ac3_bound": {str(n): _json_number(v) for n, v in sorted(self.ac3_bound.items())},
            "ac6_ok": self.ac6_ok,
            "ac6_worst_index": self.ac6_worst_index,
            "ac9": {str(n): e.to_json() for n, e in sorted(self.ac9.items())},
            "advanced_error": self.advanced_error,
            "basic_ok": self.basic_ok,
            "advanced_series_ok": self.advanced_series_ok,
        }


def _worst_verdict(verdicts) -> str:
    if DIVERGENT in verdicts:
        return DIVERGENT
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return CONVERGED


def _worst(values: np.ndarray, lo: int) -> tuple[int, float]:
    """Index of the largest entry of values[k - lo] (the first on ties) and its value."""
    i = int(np.argmax(values))
    return lo + i, float(values[i])


# an envelope whose closed-form amplitude overflows a double: its tails are
# infinite, so the sides it covers stay inconclusive and no window fits it
_UNBOUNDED = GeometricTail(math.inf, 0.5)


def _envelope(sys: SystemSpec, which: str, n: int) -> Optional[GeometricTail]:
    """The system's analytic envelope `which` at center n: None when it has
    none, `_UNBOUNDED` when its amplitude overflows a double."""
    env_fn = getattr(sys.envelopes, which) if sys.envelopes else None
    if env_fn is None:
        return None
    try:
        env = env_fn(n)
    except OverflowError:  # a closed-form amplitude such as 2.0 ** |n|
        return _UNBOUNDED
    return env if math.isfinite(env.amplitude) else _UNBOUNDED


class IndexConstants(namedtuple("IndexConstants", "lo mu gamma rho sigma tau step margin back")):
    """The per-index constants of the series on [lo, hi], entry k of each
    array at [k - lo].

    `step` is the forward Lipschitz factor |A_k| + gamma_k, `margin` the
    backward contraction rate |A_k^{-1}| gamma_k and `back` the backward
    factor |A_k^{-1}| / (1 - margin_k), which holds only where margin_k < 1.
    """

    @staticmethod
    def of(sys: SystemSpec, lo: int, hi: int) -> "IndexConstants":
        fns = (sys.f.mu, sys.f.gamma, sys.f.rho, sys.g.sigma, sys.g.tau, sys.a_norm, sys.a_inv_norm)
        mu, gamma, rho, sigma, tau, a, a_inv = np.array([[fn(k) for k in range(lo, hi + 1)]
                                                         for fn in fns], dtype=float)
        margin = a_inv * gamma
        with np.errstate(divide="ignore"):
            return IndexConstants(lo, mu, gamma, rho, sigma, tau, a + gamma, margin,
                                  a_inv / (1.0 - margin))

    def window(self, lo: int, hi: int) -> "IndexConstants":
        """The constants on [lo, hi], a sub-window of this one."""
        s = slice(lo - self.lo, hi - self.lo + 1)
        return IndexConstants(lo, *(a[s] for a in self[1:]))

    def rows(self, width: int) -> "IndexConstants":
        """The windows of `width` indices sliding over these constants, one
        row each: the constant of k in row i at [i, k - lo - i]."""
        windows = np.lib.stride_tricks.sliding_window_view(np.array(self[1:]), width, axis=1)
        return IndexConstants(self.lo, *windows)


def _lip_products(r: IndexConstants, w: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """((C, M, D) past, (C, M, D) future): C_{k,n}, M_{k,n} and D_{k,n} for
    k = n - 1, ..., n - w and k = n + 1, ..., n + w as (centers, w) arrays,
    r the `rows(2w + 1)` of the centers n = r.lo + w + i: products walking
    outward from n, a cumprod along each row.  Raises ContractionViolation at
    the first center whose past side meets a margin_k >= 1, at the k nearest it.
    """
    bad = r.margin[:, :w] >= 1.0
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.flatnonzero(bad[i])[-1])
        raise ContractionViolation(r.lo + i + j, float(r.margin[i, j]))
    back, sigma = r.back[:, :w][:, ::-1], r.sigma[:, :w][:, ::-1]
    step, tau, rho = r.step[:, w:2 * w], r.tau[:, w:2 * w], r.rho[:, w:2 * w]
    with np.errstate(over="ignore"):  # a divergent series' products may reach inf
        return tuple(tuple(np.cumprod(f, axis=1) for f in side) for side in (
            (back, back + sigma, sigma), (step, step + np.maximum(rho, tau), tau)))


def _sup(per_center: list[SeriesEstimate], window: tuple[int, int]) -> tuple[SeriesEstimate, float]:
    """The per-center estimates of one basic sum aggregated over the window
    (sup of partial sums and tails, worst verdict) and the sup of their bounds."""
    tails = [e.tail_bound for e in per_center]
    agg = SeriesEstimate(
        max(e.partial_sum for e in per_center),
        None if any(t is None for t in tails) else max(tails),
        _worst_verdict([e.verdict for e in per_center]),
        window,
        sum(e.terms_inspected for e in per_center),
    )
    return agg, max(e.bound for e in per_center)


def sample_coupling_bounds(
    sys: SystemSpec,
    window: tuple[int, int],
    probes: int = 64,
    seed: int = 0,
    extent: float = 1.0,
) -> bool:
    """Spot-check |f_n| <= mu_n and the x/y Lipschitz constants at random
    probes (n, x1, x2, y, y2 drawn in that order), with f on the columns
    (x1, y), (x2, y), (x1, y2) of all probes at one n in one call."""
    rng = np.random.default_rng(seed)
    dx, dy = sys.space.dim_x, sys.space.dim_y
    lo, hi = window
    norms = _column_norms(sys.space.norm_kind)
    draws = [(int(rng.integers(lo, hi + 1)), rng.uniform(-extent, extent, (2, dx)).T,
              rng.uniform(-extent, extent, (2, dy)).T) for _ in range(probes)]
    slack = 1.0 + _SAMPLING_SLACK
    for n in dict.fromkeys(n for n, _, _ in draws):
        x, y = (np.hstack([d[i] for d in draws if d[0] == n]) for i in (1, 2))
        x1, x2, y1, y2, m = x[:, 0::2], x[:, 1::2], y[:, 0::2], y[:, 1::2], x.shape[1] // 2
        f = _checked(sys.f.eval(n, np.hstack((x1, x2, x1)), np.hstack((y1, y1, y2))),
                     (dx, 3 * m), "f.eval", n)
        f1, df_x, df_y = (norms(v) for v in (f[:, :m], f[:, :m] - f[:, m:2 * m],
                                             f[:, :m] - f[:, 2 * m:]))
        mu, ga, rho = sys.f.mu(n), sys.f.gamma(n), sys.f.rho(n)
        if (np.any(f1 > mu * slack + 1e-15) or np.any(df_x > ga * norms(x2 - x1) * slack + 1e-15)
                or dy and np.any(df_y > rho * norms(y2 - y1) * slack + 1e-15)):
            return False
    return True


def _advanced_terms(r: IndexConstants, g: np.ndarray, w: int) -> tuple:
    """Terms of the advanced sums at the centers of `_lip_products`, with
    g[i, k - n + w] = |G(n, k + 1)| for k in [n - w, n + w] at the center n
    of row i: ((past, future) of |G(n,k+1)| gamma_k C_{k,n}, the K_n / J_n
    terms ("dxi"), (past, future) of |G(n,k+1)| (gamma_k M_{k,n} +
    rho_k D_{k,n}), the ac9 terms ("deta")), each (centers, w), outward from n."""
    sides = (lambda a: a[:, :w][:, ::-1], lambda a: a[:, w + 1:])
    with np.errstate(over="ignore", invalid="ignore"):  # _estimate judges inf and NaN sums
        return tuple(zip(*((s(g) * s(r.gamma) * c, s(g) * (s(r.gamma) * m + s(r.rho) * d))
                           for s, (c, m, d) in zip(sides, _lip_products(r, w)))))


def _advanced(sys: SystemSpec, r: IndexConstants, g: np.ndarray, w: int) -> list:
    """(K_n, J_n, their contraction total, the ac9 sum) over [n - w, n + w]
    at each center n of `_advanced_terms`, each center's terms summed
    array-wide.

    The total K_n + J_n + |G(n,n+1)| gamma_n includes the tails and is
    infinite unless both sums converged, so ac3 holds exactly when it is < 1.
    """
    (past, future), (left, right) = _advanced_terms(r, g, w)
    first, second = g[:, w] * r.gamma[:, w], g[:, w] * (r.gamma[:, w] + r.rho[:, w])
    sums = zip(past.sum(axis=1), future.sum(axis=1), second + left.sum(axis=1) + right.sum(axis=1))
    slack, out = rounding_slack(sys.space.dim_x, w), []
    floors = sys.envelopes and sys.envelopes.floors or {}
    xi_floors, eta_floors = (floors.get(kind, lambda n: (0.0, 0.0)) for kind in ("dxi", "deta"))
    for i, (k_sum, j_sum, eta_sum) in enumerate(sums):
        n = r.lo + w + i
        dxi, deta = _envelope(sys, "dxi", n), _envelope(sys, "deta", n)
        xi_tail, eta_tail = dxi and dxi.one_sided(w), deta and deta.one_sided(w)
        (k_floor, j_floor), (eta_past, eta_future) = xi_floors(n), eta_floors(n)
        k_est = _estimate((n - w, n - 1), ((past[i], xi_tail, k_floor),), None, k_sum, slack)
        j_est = _estimate((n + 1, n + w), ((future[i], xi_tail, j_floor),), None, j_sum, slack)
        eta_sides = ((left[i], eta_tail, eta_past), (right[i], eta_tail, eta_future))
        out.append((k_est, j_est, float(k_est.bound + j_est.bound + first[i]),
                    _estimate((n - w, n + w), eta_sides, second[i], eta_sum, slack)))
    return out


def certify(
    sys: SystemSpec,
    n_range: tuple[int, int] = (-10, 10),
    window_halfwidth: int = 40,
    probes: int = 64,
    seed: int = 0,
    probe_extent: float = 1.0,
) -> HypothesisReport:
    """Certify the hypotheses over n_range with windows of halfwidth w.

    The basic sums bc2/bc3 are sups over the centers m in n_range of sums
    over q in [m - w, m + w]; bc4 covers n_range and ac6 [lo - w, hi + w].
    The advanced series of every n in n_range run over [n - w, n + w].  bc1
    is spot-checked at `probes` seeded random points.  An operator without
    an inverse in [lo - w - 1, hi + w] leaves bc2/bc3 inconclusive and fails
    bc4 at its index, with no advanced series.  An empty n_range, probes < 1
    or w < 0 raises ValueError.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise ValueError("n_range must be nonempty")
    if probes < 1 or window_halfwidth < 0:
        raise ValueError(f"certify needs probes >= 1 and window_halfwidth >= 0, "
                         f"got probes={probes}, window_halfwidth={window_halfwidth}")
    w = window_halfwidth
    bc1 = sample_coupling_bounds(sys, (lo, hi), probes=probes, seed=seed, extent=probe_extent)
    try:
        consts = IndexConstants.of(sys, lo - w - 1, hi + w)
        # one span per center serves the basic sums (q in [n - w, n + w]) and
        # the advanced ones (q = k + 1 for k in [n - w, n + w])
        g_rows, failed = green_norm_rows(sys, lo, hi, w)
    except SingularOperatorError as exc:
        # no A^{-1} at exc.index: bc4 fails there, and no span reaching it exists
        return HypothesisReport(
            window=(lo, hi), bc1_sampled_ok=bc1, bc2=_unknown(lo, hi), bc3=_unknown(lo, hi),
            bc4_ok=False, bc4_worst_index=exc.index, bc4_worst_margin=math.inf,
            n_bound=math.inf, q_bound=math.inf, advanced_error=f"{exc}; no series computed",
        )
    bc4_index, margin = _worst(consts.window(lo, hi).margin, lo)
    ac6 = consts.window(lo - w, hi + w)
    ac6_index, sigma_rho = _worst(ac6.sigma * ac6.rho, ac6.lo)
    report = HypothesisReport(
        window=(lo, hi), bc1_sampled_ok=bc1, bc4_ok=margin < 1.0, bc4_worst_index=bc4_index,
        bc4_worst_margin=margin, ac6_ok=sigma_rho <= 1.0, ac6_worst_index=ac6_index,
    )
    if not report.bc4_ok:
        # the advanced products are undefined without the backward margin
        report.advanced_error = f"backward margin >= 1 at n={bc4_index}; advanced series skipped"
    bc2, bc3 = [], []
    # array-wide over chunks of centers; a violated margin below lo reaches
    # every center up to it, so only the first center can raise one
    rows = consts.rows(2 * w + 2)  # row n - lo: the constants on [n - w - 1, n + w]

    def part(a, b, skip):  # the rows of the centers in [a, b), from column skip on
        return IndexConstants(a - w - 1 + skip, *(x[a - lo:b - lo, skip:] for x in rows[1:]))

    for chunk in _chunks(range(lo, hi + 1), 2 * w + 2):
        a, b = chunk[0], chunk[-1] + 1
        g, r = g_rows[a - lo:b - lo], part(a, b, 0)
        for weight, which, out in ((r.mu, "bc2", bc2), (r.gamma, "bc3", bc3)):
            terms = g * weight
            left, right = terms[:, :w][:, ::-1], terms[:, w + 1:2 * w + 1]
            sums = terms[:, w] + left.sum(axis=1) + right.sum(axis=1)
            for i, n in enumerate(chunk):
                env = _envelope(sys, which, n)
                tail = env.one_sided(w) if env else None
                out.append(_unknown(n - w, n + w) if n in failed else _estimate(
                    (n - w, n + w), ((left[i], tail, 0.0), (right[i], tail, 0.0)), terms[i, w],
                    sums[i]))
        if report.advanced_error is not None:
            continue
        stop = min((n for n in chunk if n in failed), default=b)
        try:
            results = _advanced(sys, part(a, stop, 1), g[:stop - a, 1:], w) if stop > a else []
        except NonautolinError as exc:
            report.advanced_error = str(exc)
            continue
        for n, (k_est, j_est, total, second) in zip(chunk, results):
            report.ac2[n], report.ac3_bound[n], report.ac9[n] = (k_est, j_est), total, second
        if stop < b:  # an overflowing span leaves every series of its center unknown
            report.ac2[stop] = (_unknown(stop - w, stop - 1), _unknown(stop + 1, stop + w))
            report.ac3_bound[stop], report.ac9[stop] = math.inf, _unknown(stop - w, stop + w)
            report.advanced_error = (f"arithmetic failure in the Green span at n={stop}: "
                                     f"{failed[stop]}")
    report.bc2, report.n_bound = _sup(bc2, (lo, hi))
    report.bc3, report.q_bound = _sup(bc3, (lo, hi))
    return report
