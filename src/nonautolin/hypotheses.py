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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonautolinError
from .evolution import _lip_products
from .system import GeometricTail, SystemSpec, green_span, operator_norm

CONVERGED = "converged"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_SAMPLING_SLACK = 1e-9


@dataclass(frozen=True)
class EstimateOptions:
    """Heuristics for the series estimator."""

    explosion_cap: float = 1e6
    divergence_run: int = 10
    ratio_cutoff: float = 0.999
    ratio_terms: int = 10


DEFAULT_ESTIMATE = EstimateOptions()


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


def _ratio_tail(terms: list, opts: EstimateOptions) -> tuple[Optional[float], str]:
    """Tail estimate by geometric-ratio extrapolation from the outermost terms."""
    if not terms:
        return 0.0, CONVERGED
    chunk = terms[-opts.ratio_terms:]
    if all(t == 0.0 for t in chunk):
        return 0.0, CONVERGED
    ratios = [b / a for a, b in zip(chunk, chunk[1:]) if a > 0.0 and b > 0.0]
    if not ratios:
        return None, INCONCLUSIVE
    r = max(ratios)
    if r >= opts.ratio_cutoff:
        return None, INCONCLUSIVE
    base = next(t for t in reversed(terms) if t > 0.0)
    return base * r / (1.0 - r), CONVERGED


def _side_tail(
    terms: list, envelope_tail: Optional[float], opts: EstimateOptions
) -> tuple[Optional[float], str]:
    # An analytic envelope certifies convergence outright; the run witness is
    # a heuristic for envelope-less systems only (legitimate series can rise
    # transiently toward the gamma peak before their decay sets in).
    if envelope_tail is not None:
        return envelope_tail, CONVERGED
    if _has_divergence_run(terms, opts.divergence_run):
        return None, DIVERGENT
    return _ratio_tail(terms, opts)


def _estimate(
    window: tuple[int, int],
    left_terms: list,
    right_terms: list,
    middle: Optional[float],
    left_env_tail: Optional[float],
    right_env_tail: Optional[float],
    opts: EstimateOptions,
) -> SeriesEstimate:
    """Combine the two outward-ordered term lists into one estimate.

    `middle` is the center term of a two-sided series, or None for a
    one-sided series with no center term.  The env tails are analytic
    bounds on the sum beyond each side's window (None: extrapolate).
    An absent side must be passed as an empty term list with tail None.
    """
    partial = (middle or 0.0) + float(np.sum(left_terms)) + float(np.sum(right_terms))
    lt, lv = _side_tail(left_terms, left_env_tail, opts)
    rt, rv = _side_tail(right_terms, right_env_tail, opts)
    inspected = len(left_terms) + len(right_terms) + (0 if middle is None else 1)
    # the explosion cap is a heuristic like the ratio tail: analytic envelopes
    # on every side that has terms bound a large partial sum's tails outright
    extrapolated = (bool(left_terms) and left_env_tail is None) or (
        bool(right_terms) and right_env_tail is None
    )
    exploded = partial > opts.explosion_cap and extrapolated
    # a NaN sum is an arithmetic failure (inf * 0 in an overflowed Green
    # kernel), not a divergence witness
    if math.isnan(partial):
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    if exploded or math.isinf(partial) or DIVERGENT in (lv, rv):
        return SeriesEstimate(partial, None, DIVERGENT, window, inspected)
    if INCONCLUSIVE in (lv, rv):
        return SeriesEstimate(partial, None, INCONCLUSIVE, window, inspected)
    return SeriesEstimate(partial, lt + rt, CONVERGED, window, inspected)


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
    ac3: dict = field(default_factory=dict)  # n -> bool
    ac3_bound: dict = field(default_factory=dict)  # n -> float (K+J+middle incl. tails)
    ac6_ok: Optional[bool] = None
    ac6_worst_index: Optional[int] = None
    ac9: dict = field(default_factory=dict)  # n -> SeriesEstimate
    advanced_error: Optional[str] = None

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


def _worst(fn, lo: int, hi: int) -> tuple[int, float]:
    """Index of the largest fn(n) over [lo, hi] (the first on ties) and its value."""
    idx = max(range(lo, hi + 1), key=fn)
    return idx, fn(idx)


def _envelope(sys: SystemSpec, which: str, n: int) -> Optional[GeometricTail]:
    """The system's analytic envelope `which` at center n, or None."""
    env_fn = getattr(sys.envelopes, which) if sys.envelopes else None
    return env_fn(n) if env_fn else None


def _green_norms(sys: SystemSpec, n: int, lo: int, hi: int) -> dict[int, float]:
    """{q: |G(n, q)|} for q in [lo, hi]: one Green span, one operator norm per kernel."""
    kind = sys.space.norm_kind
    return {q: operator_norm(mat, kind) for q, mat in green_span(sys, n, lo, hi).items()}


def _new_report(sys: SystemSpec, lo: int, hi: int) -> HypothesisReport:
    """Report over [lo, hi] holding only the backward margin bc4."""
    if lo > hi:
        raise ValueError("window must be nonempty")
    idx, margin = _worst(sys.contraction_margin, lo, hi)
    return HypothesisReport(
        window=(lo, hi), bc4_ok=margin < 1.0, bc4_worst_index=idx, bc4_worst_margin=margin
    )


def _basic_series(
    sys: SystemSpec, m: int, w: int, gn: dict, opts: EstimateOptions
) -> tuple[SeriesEstimate, SeriesEstimate]:
    """The bc2 and bc3 sums at center m over [m - w, m + w]; gn[q] = |G(m, q)|."""

    def series(weight, which):
        left = [gn[m - d] * weight(m - d - 1) for d in range(1, w + 1)]
        right = [gn[m + d] * weight(m + d - 1) for d in range(1, w + 1)]
        env = _envelope(sys, which, m)
        tail = env.one_sided(w) if env else None
        return _estimate((m - w, m + w), left, right, gn[m] * weight(m - 1), tail, tail, opts)

    return series(sys.f.mu, "bc2"), series(sys.f.gamma, "bc3")


def _finish_basic(
    report: HypothesisReport,
    sys: SystemSpec,
    per_m: list,
    probes: int,
    seed: int,
    probe_extent: float,
) -> HypothesisReport:
    """Aggregate the per-center (bc2, bc3) estimates (sup over the window) and
    spot-check bc1."""
    lo, hi = report.window

    def _aggregate(per_center: list[SeriesEstimate]) -> tuple[SeriesEstimate, float]:
        verdict = _worst_verdict([e.verdict for e in per_center])
        partial = max(e.partial_sum for e in per_center)
        tails = [e.tail_bound for e in per_center]
        tail = None if any(t is None for t in tails) else max(tails)
        agg = SeriesEstimate(
            partial, tail, verdict, (lo, hi), sum(e.terms_inspected for e in per_center)
        )
        bound = max(e.bound for e in per_center)
        return agg, bound

    report.bc2, report.n_bound = _aggregate([e2 for e2, _ in per_m])
    report.bc3, report.q_bound = _aggregate([e3 for _, e3 in per_m])
    report.bc1_sampled_ok = sample_coupling_bounds(
        sys, (lo, hi), probes=probes, seed=seed, extent=probe_extent
    )
    return report


def check_basic(
    sys: SystemSpec,
    window: tuple[int, int],
    probes: int = 64,
    seed: int = 0,
    probe_extent: float = 1.0,
    inner_halfwidth: Optional[int] = None,
    opts: EstimateOptions = DEFAULT_ESTIMATE,
) -> HypothesisReport:
    """Certify the basic conditions over the given index window.

    The sup over m runs over `window`; each inner sum runs over
    [m - W, m + W] with W = inner_halfwidth (default: half the window span).
    bc1 is spot-checked at seeded random probe points.
    """
    lo, hi = int(window[0]), int(window[1])
    report = _new_report(sys, lo, hi)
    w_in = inner_halfwidth if inner_halfwidth is not None else max((hi - lo) // 2, 8)
    per_m = [
        _basic_series(sys, m, w_in, _green_norms(sys, m, m - w_in, m + w_in), opts)
        for m in range(lo, hi + 1)
    ]
    return _finish_basic(report, sys, per_m, probes, seed, probe_extent)


def sample_coupling_bounds(
    sys: SystemSpec,
    window: tuple[int, int],
    probes: int = 64,
    seed: int = 0,
    extent: float = 1.0,
) -> bool:
    """Spot-check |f_n| <= mu_n and the x/y Lipschitz constants at random probes."""
    rng = np.random.default_rng(seed)
    dx, dy = sys.space.dim_x, sys.space.dim_y
    lo, hi = window
    for _ in range(probes):
        n = int(rng.integers(lo, hi + 1))
        x1 = rng.uniform(-extent, extent, dx)
        x2 = rng.uniform(-extent, extent, dx)
        y = rng.uniform(-extent, extent, dy)
        y2 = rng.uniform(-extent, extent, dy)
        mu, ga, rho = sys.f.mu(n), sys.f.gamma(n), sys.f.rho(n)
        f1 = np.asarray(sys.f.eval(n, x1, y), dtype=float)
        f2 = np.asarray(sys.f.eval(n, x2, y), dtype=float)
        if sys.space.norm_x(f1) > mu * (1.0 + _SAMPLING_SLACK) + 1e-15:
            return False
        lhs = sys.space.norm_x(f1 - f2)
        if lhs > ga * sys.space.norm_x(x1 - x2) * (1.0 + _SAMPLING_SLACK) + 1e-15:
            return False
        if dy:
            f1b = np.asarray(sys.f.eval(n, x1, y2), dtype=float)
            if sys.space.norm_x(f1 - f1b) > rho * sys.space.norm_y(y - y2) * (
                1.0 + _SAMPLING_SLACK
            ) + 1e-15:
                return False
    return True


def _advanced_terms(sys: SystemSpec, n: int, end: int, gn: dict, which: str) -> list[float]:
    """Terms of an advanced sum on the side of `end`, outward from n, with
    gn[q] = |G(n, q)|: |G(n,k+1)| gamma_k C_{k,n} of K_n / J_n for which =
    "dxi", |G(n,k+1)| (gamma_k M_{k,n} + rho_k D_{k,n}) of ac9 for "deta"."""
    if which == "dxi":
        return [gn[k + 1] * sys.f.gamma(k) * c for k, c, _, _ in _lip_products(sys, n, end)]
    return [
        gn[k + 1] * (sys.f.gamma(k) * m + sys.f.rho(k) * d)
        for k, _, m, d in _lip_products(sys, n, end)
    ]


def _advanced_first(
    sys: SystemSpec, n: int, lo: int, hi: int, gn: dict, opts: EstimateOptions
) -> tuple[SeriesEstimate, SeriesEstimate, float]:
    env = _envelope(sys, "dxi", n)
    k_tail = env.one_sided(n - lo) if env else None
    j_tail = env.one_sided(hi - n) if env else None
    past, future = _advanced_terms(sys, n, lo, gn, "dxi"), _advanced_terms(sys, n, hi, gn, "dxi")
    k_est = _estimate((lo, n - 1), past, [], None, k_tail, None, opts)
    j_est = _estimate((n + 1, hi), [], future, None, None, j_tail, opts)
    return k_est, j_est, k_est.bound + j_est.bound + gn[n + 1] * sys.f.gamma(n)


def check_advanced_first(
    sys: SystemSpec,
    n: int,
    window: tuple[int, int],
    opts: EstimateOptions = DEFAULT_ESTIMATE,
) -> tuple[SeriesEstimate, SeriesEstimate, float]:
    """Evaluate the K_n (past) and J_n (future) derivative sums and the
    contraction total K_n + J_n + |G(n,n+1)| gamma_n with tails included.

    The total is infinite unless both sums converged, so ac3 holds exactly
    when it is < 1.
    """
    lo, hi = int(window[0]), int(window[1])
    return _advanced_first(sys, n, lo, hi, _green_norms(sys, n, lo + 1, hi + 1), opts)


def _advanced_second(
    sys: SystemSpec, n: int, lo: int, hi: int, gn: dict, opts: EstimateOptions
) -> SeriesEstimate:
    middle = gn[n + 1] * (sys.f.gamma(n) + sys.f.rho(n))
    env = _envelope(sys, "deta", n)
    lt = env.one_sided(n - lo) if env else None
    rt = env.one_sided(hi - n) if env else None
    left, right = _advanced_terms(sys, n, lo, gn, "deta"), _advanced_terms(sys, n, hi, gn, "deta")
    return _estimate((lo, hi), left, right, middle, lt, rt, opts)


def check_advanced_second(
    sys: SystemSpec,
    n: int,
    window: tuple[int, int],
    opts: EstimateOptions = DEFAULT_ESTIMATE,
) -> SeriesEstimate:
    """Evaluate sum_k |G(n,k+1)| (gamma_k M_{k,n} + rho_k D_{k,n}) over the window."""
    lo, hi = int(window[0]), int(window[1])
    return _advanced_second(sys, n, lo, hi, _green_norms(sys, n, lo + 1, hi + 1), opts)


def check_sigma_rho(sys: SystemSpec, window: tuple[int, int]) -> tuple[bool, int, float]:
    """sigma_n rho_n <= 1 over the window; returns (ok, worst index, worst value)."""
    idx, val = _worst(lambda n: sys.g.sigma(n) * sys.f.rho(n), window[0], window[1])
    return val <= 1.0, idx, val


def certify(
    sys: SystemSpec,
    n_range: tuple[int, int] = (-10, 10),
    window_halfwidth: int = 40,
    probes: int = 64,
    seed: int = 0,
    probe_extent: float = 1.0,
    opts: EstimateOptions = DEFAULT_ESTIMATE,
) -> HypothesisReport:
    """Full hypothesis report: basic conditions over n_range plus the advanced
    series at every n in n_range with per-n windows of the given halfwidth."""
    lo, hi = int(n_range[0]), int(n_range[1])
    w = window_halfwidth
    report = _new_report(sys, lo, hi)
    ok6, idx6, _ = check_sigma_rho(sys, (lo - w, hi + w))
    report.ac6_ok = ok6
    report.ac6_worst_index = idx6
    if not report.bc4_ok:
        # the advanced products are undefined without the backward margin
        report.advanced_error = (
            f"backward margin >= 1 at n={report.bc4_worst_index}; advanced series skipped"
        )
    per_m = []
    for n in range(lo, hi + 1):
        # one span serves the basic sums (q in [n - w, n + w]) and the
        # advanced ones (q = k + 1 for k in [n - w, n + w])
        gn = _green_norms(sys, n, n - w, n + w + 1)
        per_m.append(_basic_series(sys, n, w, gn, opts))
        if report.advanced_error is not None:
            continue
        try:
            k_est, j_est, total = _advanced_first(sys, n, n - w, n + w, gn, opts)
            report.ac2[n] = (k_est, j_est)
            report.ac3[n] = total < 1.0
            report.ac3_bound[n] = total
            report.ac9[n] = _advanced_second(sys, n, n - w, n + w, gn, opts)
        except NonautolinError as exc:
            report.advanced_error = str(exc)
    return _finish_basic(report, sys, per_m, probes, seed, probe_extent)
