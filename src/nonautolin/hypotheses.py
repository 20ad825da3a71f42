"""Numerical certification of the admissibility conditions.

All bi-infinite sums are evaluated over explicit finite windows and reported
as `SeriesEstimate` records: partial sum, tail bound (analytic envelope when
the system carries one, geometric-ratio extrapolation otherwise) and a
three-valued verdict.  A finite tool cannot certify a supremum over all of
Z, so every report names its window; the built-in systems additionally carry
closed-form envelopes that dominate their tails for every index.

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

# Heuristics of the series estimator, for sides without an analytic envelope
EXPLOSION_CAP = 1e6  # a larger partial sum is divergent
DIVERGENCE_RUN = 10  # this many positive non-decreasing terms witness divergence
RATIO_CUTOFF = 0.999  # no geometric tail is extrapolated from a larger ratio
RATIO_TERMS = 10  # the outermost terms the ratio is read from


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


def _has_divergence_run(terms: list, run_len: int) -> bool:
    """True when >= run_len consecutive positive non-decreasing terms appear
    (scanning outward from the series center)."""
    run = 0
    prev = 0.0
    for t in terms:
        if t > 0.0 and run > 0 and t >= prev * (1.0 - 1e-12):
            run += 1
        elif t > 0.0:
            run = 1
        else:
            run = 0
        if run >= run_len:
            return True
        prev = t
    return False


def _ratio_tail(terms: list) -> tuple[Optional[float], str]:
    """Tail estimate by geometric-ratio extrapolation from the outermost terms."""
    if len(terms) == 0:
        return 0.0, CONVERGED
    chunk = terms[-RATIO_TERMS:]
    if all(t == 0.0 for t in chunk):
        return 0.0, CONVERGED
    ratios = [b / a for a, b in zip(chunk, chunk[1:]) if a > 0.0 and b > 0.0]
    if not ratios:
        return None, INCONCLUSIVE
    r = max(ratios)
    if r >= RATIO_CUTOFF:
        return None, INCONCLUSIVE
    base = next(t for t in reversed(terms) if t > 0.0)
    return base * r / (1.0 - r), CONVERGED


def _side_tail(terms: list, envelope_tail: Optional[float]) -> tuple[Optional[float], str]:
    # An analytic envelope certifies convergence outright; the run witness is
    # a heuristic for envelope-less systems only (legitimate series can rise
    # transiently toward the gamma peak before their decay sets in).
    if envelope_tail is not None:
        # an overflowed envelope's infinite tail bounds nothing
        return (envelope_tail, CONVERGED) if math.isfinite(envelope_tail) else (None, INCONCLUSIVE)
    if _has_divergence_run(terms, DIVERGENCE_RUN):
        return None, DIVERGENT
    return _ratio_tail(terms)


def _estimate(
    window: tuple[int, int],
    left_terms: list,
    right_terms: list,
    middle: Optional[float],
    left_env_tail: Optional[float],
    right_env_tail: Optional[float],
    partial: Optional[float] = None,
) -> SeriesEstimate:
    """Combine the two outward-ordered term lists into one estimate.

    `middle` is the center term of a two-sided series, or None for a
    one-sided series with no center term.  The env tails are analytic
    bounds on the sum beyond each side's window (None: extrapolate).
    An absent side must be passed as an empty term list with tail None.
    `partial` is the sum of all terms, when the caller has it.
    """
    if partial is None:
        partial = (middle or 0.0) + float(np.sum(left_terms)) + float(np.sum(right_terms))
    lt, lv = _side_tail(left_terms, left_env_tail)
    rt, rv = _side_tail(right_terms, right_env_tail)
    inspected = len(left_terms) + len(right_terms) + (0 if middle is None else 1)
    # the explosion cap is a heuristic like the ratio tail: analytic envelopes
    # on every side that has terms bound a large partial sum's tails outright
    extrapolated = (len(left_terms) > 0 and left_env_tail is None) or (
        len(right_terms) > 0 and right_env_tail is None
    )
    exploded = partial > EXPLOSION_CAP and extrapolated
    # a NaN sum is an arithmetic failure (inf * 0 in an overflowed Green
    # kernel), not a divergence witness
    if math.isnan(partial):
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    if exploded or math.isinf(partial) or DIVERGENT in (lv, rv):
        return SeriesEstimate(partial, None, DIVERGENT, window, inspected)
    if INCONCLUSIVE in (lv, rv):
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    return SeriesEstimate(partial, lt + rt, CONVERGED, window, inspected)


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
    probes, with f on the columns (x1, y), (x2, y), (x1, y2) as the pipeline calls it."""
    rng = np.random.default_rng(seed)
    dx, dy = sys.space.dim_x, sys.space.dim_y
    lo, hi = window
    norms = _column_norms(sys.space.norm_kind)
    for _ in range(probes):
        n = int(rng.integers(lo, hi + 1))
        x = rng.uniform(-extent, extent, (2, dx)).T  # columns x1, x2
        y = rng.uniform(-extent, extent, (2, dy)).T  # columns y, y2
        mu, ga, rho = sys.f.mu(n), sys.f.gamma(n), sys.f.rho(n)
        f = _checked(sys.f.eval(n, x[:, [0, 1, 0]], y[:, [0, 0, 1]]), (dx, 3), "f.eval", n)
        f1, df_x, df_y = norms(np.concatenate((f[:, :1], f[:, :1] - f[:, 1:]), axis=1))
        if f1 > mu * (1.0 + _SAMPLING_SLACK) + 1e-15:
            return False
        if df_x > ga * norms(np.diff(x))[0] * (1.0 + _SAMPLING_SLACK) + 1e-15:
            return False
        if dy and df_y > rho * norms(np.diff(y))[0] * (1.0 + _SAMPLING_SLACK) + 1e-15:
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
    out = []
    for i, (k_sum, j_sum, eta_sum) in enumerate(sums):
        n = r.lo + w + i
        dxi, deta = _envelope(sys, "dxi", n), _envelope(sys, "deta", n)
        xi_tail, eta_tail = dxi and dxi.one_sided(w), deta and deta.one_sided(w)
        k_est = _estimate((n - w, n - 1), past[i], [], None, xi_tail, None, k_sum)
        j_est = _estimate((n + 1, n + w), [], future[i], None, None, xi_tail, j_sum)
        out.append((k_est, j_est, float(k_est.bound + j_est.bound + first[i]), _estimate(
            (n - w, n + w), left[i], right[i], second[i], eta_tail, eta_tail, eta_sum)))
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
    bc4 at its index, with no advanced series.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise ValueError("n_range must be nonempty")
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
                    (n - w, n + w), left[i], right[i], terms[i, w], tail, tail, sums[i]))
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
