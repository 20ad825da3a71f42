import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautolin import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    CouplingSpec,
    DriverSpec,
    GeometricTail,
    OperatorSeq,
    SpaceSpec,
    SystemSpec,
    TailEnvelopes,
    WeightSeq,
    certify,
    system_by_name,
)
import nonautolin.hypotheses as hyp
import nonautolin.system as system_module
from nonautolin.hypotheses import (IndexConstants, _estimate, _lip_products, _side_tail,
                                   rounding_slack, sample_coupling_bounds)
from nonautolin.system import green_norm_rows, green_span

from .conftest import (LN2, advanced_at, diag_stack, random_invertible_system, with_coupling,
                       zero_envelopes)
from .reference import (coupling_bounds_per_probe, green_norm, green_norm_rows_per_center,
                        green_span_by_columns, lip_C, lip_D, lip_M)


def scaling_driver_system(tau, rho, gamma=0.0, lam=LN2):
    """ex1-style operators, y -> tau*y driver, coupling rho-Lipschitz in y.

    In the max norm |G(m, q)| = e^{-lam |m - q|} in the basic sums, which
    gives their envelopes.  In the advanced ones |G(n, k+1)| is
    e^{-lam (d-1)} on the past side (k = n - d, d >= 1) and e^{-lam (d+1)}
    on the future side (k = n + d), with C, M >= e^{lam d} and D = tau^{-d}
    (past) or tau^d (future), so every term is at least its floor: gamma e^lam
    on the past side of dxi and deta, gamma e^{-lam} on the future side of
    dxi, and on the future side of deta e^{-lam} (gamma + rho (tau e^{-lam})^d),
    at least e^{-lam} (gamma + rho) where tau >= e^lam: a driver expanding
    faster than the Green kernel decays makes those terms grow.
    """
    el, eml = math.exp(lam), math.exp(-lam)
    dxi = (gamma * el, gamma * eml)
    deta = (gamma * el, eml * (gamma + (rho if tau >= el else 0.0)))
    a = np.diag([el, eml])
    a_inv = np.diag([eml, el])
    p = np.diag([0.0, 1.0])

    def f(n, x, y):
        base = gamma * np.tanh(np.asarray(x, dtype=float))
        return base + rho * np.tanh(np.asarray(y, dtype=float))[:2]

    return SystemSpec(
        space=SpaceSpec(dim_x=2, dim_y=2, norm_kind="max"),
        a=OperatorSeq(lambda n: a, lambda n: a_inv,
                      norm_bound=lambda n: el, inv_norm_bound=lambda n: el),
        p=WeightSeq.constant(p),
        f=CouplingSpec(
            eval=f,
            jac_x=lambda n, x, y: gamma * diag_stack(1 - np.tanh(np.asarray(x)) ** 2),
            jac_y=lambda n, x, y: rho * diag_stack(1 - np.tanh(np.asarray(y)) ** 2),
            mu=lambda n: gamma + rho,
            gamma=lambda n: gamma,
            rho=lambda n: rho,
        ),
        g=DriverSpec(
            eval=lambda n, y: tau * np.asarray(y, dtype=float),
            eval_inv=lambda n, y: np.asarray(y, dtype=float) / tau,
            jac=lambda n, y: tau * diag_stack(np.ones_like(np.asarray(y, dtype=float))),
            tau=lambda n: tau,
            sigma=lambda n: 1.0 / tau,
        ),
        envelopes=TailEnvelopes(
            bc2=lambda m: GeometricTail(gamma + rho, eml),
            bc3=lambda m: GeometricTail(gamma, eml),
            floors={"dxi": lambda n: dxi, "deta": lambda n: deta},
        ),
    )


class TestEstimatorInternals:
    def test_non_finite_partial_sum_never_converges(self):
        for bad, verdict in ((math.inf, DIVERGENT), (math.nan, INCONCLUSIVE)):
            est = _estimate((-1, 1), (([bad], 0.5, 0.0), ([1.0], 0.5, 0.0)), None, bad)
            assert est.verdict == verdict
            assert est.to_json()["partial_sum"] is None

    def test_nan_partial_sum_is_inconclusive(self):
        # NaN is an arithmetic failure, not a divergence proof, whatever the
        # envelopes and floors say; an infinite sum still diverges
        for left_env, floor in ((0.5, 0.0), (None, 0.0), (None, 0.5)):
            est = _estimate((-11, 1), (([1.0] * 10 + [math.nan], left_env, floor),
                                       ([2e7], None, 0.0)), None, math.nan)
            assert est.verdict == INCONCLUSIVE
            assert est.tail_bound is None and est.bound == math.inf
        est = _estimate((-1, 1), (([math.inf], None, 0.0),), None, math.inf)
        assert est.verdict == DIVERGENT

    def test_infinite_envelope_tail_is_inconclusive(self):
        # an overflowed envelope bounds nothing, not even all-zero terms
        est = _estimate((-1, 1), (([0.0], math.inf, 0.0), ([0.0], 0.5, 0.0)), 0.0, 0.0)
        assert est.verdict == INCONCLUSIVE and est.tail_bound is None

    def test_a_side_converges_only_under_an_envelope(self):
        # the envelope tails add; a large partial sum under them converges
        est = _estimate((-2, 2), (([6e6, 5e6], 0.5, 0.0), ([7e6, 4e6], 0.25, 0.0)), 1e6, 2.3e7)
        assert est.verdict == CONVERGED and est.tail_bound == 0.75
        # a one-sided series passes one side; a side of no terms (a window of
        # halfwidth 0) is all tail, so it too needs an envelope
        est = _estimate((-2, -1), (([6e6, 5e6], 0.5, 0.0),), None, 1.1e7)
        assert est.verdict == CONVERGED and est.tail_bound == 0.5
        for env, verdict in ((None, INCONCLUSIVE), (0.25, CONVERGED)):
            assert _estimate((0, 0), (([], env, 0.0), ([], env, 0.0)), 1.0, 1.0).verdict == verdict
        # decaying terms without an envelope prove nothing, however fast they decay
        for terms in ([0.5 ** d for d in range(1, 40)], [1e-300, 0.0, 0.0]):
            assert _side_tail(terms, None, 0.0, 1.0) == (None, INCONCLUSIVE)
            est = _estimate((0, 40), ((terms, None, 0.0),), None, math.fsum(terms))
            assert est.verdict == INCONCLUSIVE and est.bound == math.inf

    def test_a_side_diverges_only_under_a_floor_its_terms_bear_out(self):
        slack = rounding_slack(2, 3)  # 1 + 72 u
        # every term at or above the floor, the first within rounding of it
        assert _side_tail([0.1 * (1 - 2.0 ** -50), 0.2, 0.3], None, 0.1, slack) == (
            None, DIVERGENT)
        # a divergent side makes the sum divergent, whatever the other side says
        est = _estimate((-3, 3), (([0.1, 0.2, 0.3], None, 0.1), ([0.0] * 3, 0.5, 0.0)), 0.0, 0.6)
        assert est.verdict == DIVERGENT and est.tail_bound is None
        # one computed term below the floor: the floor is wrong, not the series divergent,
        # even under an envelope
        for env in (None, 0.5):
            assert _side_tail([0.2, 0.1 * (1 - 2.0 ** -40), 0.3], env, 0.1, slack) == (
                None, INCONCLUSIVE)
            est = _estimate((-3, 0), (([0.2, 0.09, 0.3], env, 0.1),), None, 0.59, slack)
            assert est.verdict == INCONCLUSIVE


class TestCheckBasic:
    def test_zero_coupling_exact_zero(self, rng):
        sys, _ = random_invertible_system(rng)
        rep = certify(sys, (-5, 5), 8, probes=16)
        assert rep.bc2.partial_sum == 0.0
        assert rep.n_bound == 0.0
        assert rep.q_bound == 0.0
        assert rep.bc2.verdict == CONVERGED and rep.bc3.verdict == CONVERGED
        assert rep.bc4_ok

    def test_ex1_q_below_one(self, ex1):
        rep = certify(ex1, (-10, 10), 40, probes=32)
        assert rep.bc3.verdict == CONVERGED
        assert rep.q_bound < 1.0
        assert rep.bc1_sampled_ok
        assert rep.bc4_ok

    def test_emo_basic_converges(self, emo):
        # constant gamma: the Green decay still sums the basic series
        rep = certify(emo, (-5, 5), 50, probes=16)
        assert rep.bc3.verdict == CONVERGED
        assert rep.q_bound < 1.0

    def test_bc1_catches_lying_constants(self, rng):
        sys, _ = random_invertible_system(rng)
        lying = with_coupling(sys, 0.3)
        lying.f.gamma = lambda n: 1e-6  # claimed far below the actual slope
        lying.f.mu = lambda n: 1e-6
        rep = certify(lying, (-3, 3), 8, probes=64)
        assert not rep.bc1_sampled_ok

    @pytest.mark.parametrize("understated", ["gamma", "rho"])
    def test_bc1_catches_an_understated_lipschitz_constant(self, understated):
        # mu = gamma + rho bounds |f| truthfully, so the x- (gamma) or the
        # y-Lipschitz check (rho) is the one that fails
        s = scaling_driver_system(tau=1.0, rho=0.1, gamma=0.1)
        lying = dataclasses.replace(s, f=dataclasses.replace(s.f, **{understated: lambda n: 0.01}))
        assert sample_coupling_bounds(s, (-3, 3), probes=16)
        assert certify(s, (-3, 3), 8, probes=16).basic_ok
        assert not sample_coupling_bounds(lying, (-3, 3), probes=16)
        assert not certify(lying, (-3, 3), 8, probes=16).basic_ok

    def test_bc1_hands_f_the_drawn_states_as_float_columns(self, end_cfg):
        # the seeded draws come in their order n, x1, x2, y, y2 per probe,
        # and f sees, once per distinct n in the order n is first drawn, the
        # columns (x1, y), (x2, y), (x1, y2) of that n's probes: each
        # probe's x1, then each x2, then each x1 again
        seen = []
        f = end_cfg.f.eval

        def spy(n, x, y):
            seen.append((n, x, y))
            return f(n, x, y)

        s = dataclasses.replace(end_cfg, f=dataclasses.replace(end_cfg.f, eval=spy))
        assert sample_coupling_bounds(s, (-5, 5), probes=16, seed=3, extent=2.0)
        rng = np.random.default_rng(3)
        draws = [(int(rng.integers(-5, 6)), *(rng.uniform(-2.0, 2.0, 2) for _ in range(4)))
                 for _ in range(16)]
        ns = list(dict.fromkeys(n for n, *_ in draws))  # 16 draws of 11 values repeat some
        assert [n for n, _, _ in seen] == ns
        for n, x, y in seen:
            mine = [d[1:] for d in draws if d[0] == n]
            for got, order in ((x, (0, 1, 0)), (y, (2, 2, 3))):
                want = np.stack([p[i] for i in order for p in mine], axis=1)
                assert isinstance(got, np.ndarray) and got.dtype == np.float64
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name, kwargs", [
        ("ex1", {}), ("ex2", {}), ("remm", {}), ("end_cfg", {}), ("emo", {}),
        ("ex1", {"lam": 10.0}), ("end_cfg", {"rho_scale": 0.3})])
    def test_bc1_grouped_by_index_keeps_the_per_probe_verdict(self, name, kwargs):
        # one f call per distinct n (at most 21 on [-10, 10], where the
        # probes once made 64), and the verdict of the per-probe reference
        # at every test seed, for the true constants and for understated ones
        calls = []
        s = system_by_name(name, **kwargs)
        f = s.f.eval
        s.f.eval = lambda n, x, y: calls.append(n) or f(n, x, y)
        for seed in (0, 1, 2, 3, 11, 13):
            for lying in (False, True):
                t = dataclasses.replace(s, f=dataclasses.replace(
                    s.f, gamma=lambda n: 0.9 * s.f.gamma(n))) if lying else s
                calls.clear()
                got = sample_coupling_bounds(t, (-10, 10), probes=64, seed=seed)
                assert len(calls) == len(set(calls)) <= 21
                calls.clear()
                assert got == coupling_bounds_per_probe(t, (-10, 10), 64, seed), (seed, lying)

    def test_bc4_worst_index(self, rng):
        sys, _ = random_invertible_system(rng)
        gam = with_coupling(sys, lambda n: 10.0 if n == 2 else 0.0)
        rep = certify(gam, (-5, 5), 8, probes=8)
        assert not rep.bc4_ok
        assert rep.bc4_worst_index == 2


class TestAdvancedFirst:
    def test_zero_coupling(self, rng):
        sys, _ = random_invertible_system(rng)
        k_est, j_est, total, _ = advanced_at(sys, 0, 30)
        assert k_est.partial_sum == 0.0 and j_est.partial_sum == 0.0
        assert total < 1.0

    def test_emo_divergent_every_n(self, emo):
        for n in range(-10, 11, 5):
            _, j_est, total, _ = advanced_at(emo, n, 50)
            assert j_est.verdict == DIVERGENT
            assert not total < 1.0

    def test_floor_above_the_computed_terms_is_inconclusive(self, emo):
        # a declared floor that the computed terms undercut proves nothing:
        # its side is inconclusive, never divergent
        c, lam = 0.01, 1.0
        for past, future in ((10, 1), (1, 10), (10, 10)):
            floors = (past * c * math.exp(lam), future * c * math.exp(-lam))
            s = dataclasses.replace(emo, envelopes=dataclasses.replace(emo.envelopes, floors={
                "dxi": lambda n, f=floors: f, "deta": lambda n, f=floors: f}))
            k_est, j_est, total, eta_est = advanced_at(s, 0, 50)
            assert k_est.verdict == (INCONCLUSIVE if past > 1 else DIVERGENT)
            assert j_est.verdict == (INCONCLUSIVE if future > 1 else DIVERGENT)
            assert eta_est.verdict == (INCONCLUSIVE if past == future == 10 else DIVERGENT)
            assert total == math.inf

    def test_ex2_certified(self, ex2):
        for n in range(-10, 11, 5):
            k_est, j_est, total, _ = advanced_at(ex2, n, 40)
            assert total < 1.0
            assert k_est.bound + j_est.bound < 1.0


class TestAdvancedSecond:
    def test_zero_series(self, rng):
        sys, _ = random_invertible_system(rng)
        est = advanced_at(sys, 0, 30)[3]
        assert est.partial_sum == 0.0
        assert est.verdict == CONVERGED

    def test_end_converged(self, end_cfg):
        for n in (-5, 0, 5):
            est = advanced_at(end_cfg, n, 40)[3]
            assert est.verdict == CONVERGED

    def test_expanding_driver_divergent(self):
        # tau = 2 doubles the second-variable products each step; with
        # lam < ln 2 the Green decay cannot compensate: terms grow like
        # (2 e^{-lam})^d, a hand-checkable lower bound
        s = scaling_driver_system(tau=2.0, rho=0.05, lam=0.3)
        est = advanced_at(s, 0, 50)[3]
        assert est.verdict == DIVERGENT

    def test_explosion_cap_triggers(self):
        # a partial sum far above 1e6, divergent by the deta floor e^{-lam} rho
        # and not by its size
        s = scaling_driver_system(tau=3.0, rho=1.0, lam=0.1)
        est = advanced_at(s, 0, 40)[3]
        assert est.verdict == DIVERGENT


class TestMonotonicity:
    def test_partial_sums_grow_with_window(self, ex1):
        small = certify(ex1, (-3, 3), 10, probes=8)
        large = certify(ex1, (-3, 3), 40, probes=8)
        assert large.bc2.partial_sum >= small.bc2.partial_sum - 1e-15
        assert large.bc3.partial_sum >= small.bc3.partial_sum - 1e-15

    def test_divergent_stays_divergent(self, emo):
        for w in (20, 50, 80):
            j_est = advanced_at(emo, 0, w)[1]
            assert j_est.verdict == DIVERGENT


class TestCertify:
    def test_ex1_overall(self, ex1):
        rep = certify(ex1, n_range=(-10, 10), window_halfwidth=40, probes=32)
        assert rep.basic_ok
        assert rep.advanced_series_ok
        assert all(rep.ac3.values())
        assert rep.ac6_ok
        assert all(e.verdict == CONVERGED for e in rep.ac9.values())
        assert rep.overall_ok

    def test_remm_reports_k_finite_but_ac3_false_at_large_n(self):
        rep = certify(
            system_by_name("remm", gamma_scale=1.0),
            n_range=(-10, 10),
            window_halfwidth=40,
            probes=16,
        )
        assert rep.advanced_series_ok  # K and J converge everywhere
        assert rep.ac3[0]  # contraction holds near the gamma peak
        assert not rep.ac3[10]  # but not far out: K_n grows like 4^{|n|}

    def test_empty_n_range_is_rejected(self, ex1):
        with pytest.raises(ValueError, match="n_range must be nonempty"):
            certify(ex1, n_range=(3, 1), window_halfwidth=10, probes=4)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(probes=0), "probes=0"), (dict(probes=-3), "probes=-3"),
        (dict(window_halfwidth=-2), "window_halfwidth=-2"),
    ])
    def test_bad_probes_and_window_are_rejected(self, ex1, kwargs, named):
        # zero probes would report bc1 sampled ok from no sample, and a
        # negative window would reach numpy as a negative dimension
        args = dict(n_range=(0, 0), window_halfwidth=10, probes=4) | kwargs
        with pytest.raises(ValueError, match=named):
            certify(ex1, **args)
        assert certify(ex1, n_range=(0, 0), window_halfwidth=0, probes=1).window == (0, 0)

    def test_bc4_failure_skips_advanced(self, rng):
        sys, _ = random_invertible_system(rng)
        bad = with_coupling(sys, 10.0)
        rep = certify(bad, n_range=(-3, 3), window_halfwidth=10, probes=8)
        assert not rep.bc4_ok
        assert rep.advanced_error is not None
        assert not rep.overall_ok

    def test_json_round_trip(self, ex1):
        import json

        rep = certify(ex1, n_range=(-2, 2), window_halfwidth=20, probes=8)
        blob = json.dumps(rep.to_json(), allow_nan=False)
        back = json.loads(blob)
        assert back["basic_ok"] is True
        assert back["ac2"]["0"]["k_series"]["verdict"] == CONVERGED

    def test_spans_slide_from_center_to_center(self, ex1, monkeypatch):
        # each half of the span is built from scratch once (w + 1 steps) and
        # then takes one step per center: 41 + w inverses, not 41 (w + 1)
        counts = {"matrix": 0, "inverse": 0}
        for name in counts:
            method = getattr(ex1.a, name)

            def counted(n, name=name, method=method):
                counts[name] += 1
                return method(n)

            monkeypatch.setattr(ex1.a, name, counted)
        w = 20
        rep = certify(ex1, n_range=(-20, 20), window_halfwidth=w, probes=4)
        assert rep.overall_ok and len(rep.ac9) == 41
        assert counts["inverse"] == 41 + w
        # the past half's steps, plus one per inverse built
        assert counts["matrix"] <= 2 * (41 + w)

    def test_contraction_total_is_one_number(self):
        # a one-index report, a range report and the engine read the same float
        from nonautolin import ConjugacyEngine

        # on the non-diagonal A_n of the non-normal case the two agree only
        # because green_span and green_norm_rows run the same recurrence
        w = 30
        for name, build in (("ex1", lambda: system_by_name("ex1", lam=LN2, gamma_scale=0.9)),
                            ("end_cfg", lambda: system_by_name("end_cfg", gamma_scale=0.9)),
                            ("non-normal", lambda: _non_normal_system(8, 0.1, "euclidean"))):
            s = build()
            rep = certify(s, n_range=(-3, 3), window_halfwidth=w, probes=4)
            eng = ConjugacyEngine(s, advanced_halfwidth=w)
            for n in range(-3, 4):
                total = advanced_at(s, n, w)[2]
                assert isinstance(total, float) and total < 1.0
                assert total == rep.ac3_bound[n] == eng.contraction(n), (name, n)
                assert rep.ac3[n] is True

    @pytest.mark.parametrize("name,n", [("ex1", 1030), ("ex2", 1030)])
    def test_overflowed_envelope_certifies_nothing(self, name, n):
        # ex1's dxi envelope and all of ex2's overflow a double here, where
        # gamma underflows to 0: the envelopes must not turn into tails of 0
        from nonautolin import ConjugacyEngine, WindowExhausted
        from nonautolin.hypotheses import _UNBOUNDED, _envelope

        s = system_by_name(name)
        assert _envelope(s, "dxi", n) is _UNBOUNDED
        rep = certify(s, n_range=(n, n), window_halfwidth=5, probes=4)
        k_est, j_est = rep.ac2[n]
        assert k_est.verdict == j_est.verdict == INCONCLUSIVE
        assert rep.ac3_bound[n] == math.inf and not rep.overall_ok
        if name == "ex2":
            assert rep.bc2.verdict == rep.bc3.verdict == INCONCLUSIVE
            with pytest.raises(WindowExhausted):
                ConjugacyEngine(s).series_window(n, 1e-9)

    def test_ac3_implies_converged_and_below_one(self, ex2):
        rep = certify(ex2, n_range=(-6, 6), window_halfwidth=40, probes=8)
        for n, flag in rep.ac3.items():
            if flag:
                k_est, j_est = rep.ac2[n]
                assert k_est.verdict == CONVERGED and j_est.verdict == CONVERGED
                assert rep.ac3_bound[n] < 1.0


class TestWindowReporting:
    def test_estimates_carry_windows(self, ex1):
        k_est, j_est, _, second = advanced_at(ex1, 3, 20)
        assert k_est.window == (-17, 2)
        assert j_est.window == (4, 23)
        assert second.window == (-17, 23)
        assert k_est.terms_inspected == j_est.terms_inspected == 20
        assert second.terms_inspected == 41

    def test_unbounded_weights_reported_not_rejected(self):
        # |P_n| growing with n is allowed; the report simply shows big sums
        growing = SystemSpec(
            space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
            a=OperatorSeq.constant(np.eye(2)),
            p=WeightSeq(lambda n: (1.0 + abs(n)) * np.eye(2)),
            f=CouplingSpec.zero(2, 0),
            g=DriverSpec.trivial(),
            envelopes=zero_envelopes(),
        )
        rep = certify(growing, (-5, 5), 8, probes=8)
        assert rep.bc2.verdict == CONVERGED  # zero coupling keeps sums zero


class TestEstimatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        ratio=st.floats(0.01, 0.9),
        amp=st.floats(1e-6, 10.0),
    )
    def test_geometric_tail_dominates_true_tail(self, ratio, amp):
        # the envelope tail beyond 29 terms amp ratio^d, the converged verdict's bound
        terms = [amp * ratio**d for d in range(1, 30)]
        tail, verdict = _side_tail(terms, GeometricTail(amp, ratio).one_sided(29), 0.0, 1.0)
        assert verdict == CONVERGED
        true_tail = amp * ratio**30 / (1.0 - ratio)  # sum over d >= 30
        assert tail >= true_tail * (1.0 - 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(ratio=st.floats(1.0, 3.0), amp=st.floats(1e-3, 1.0))
    def test_non_decaying_series_witnessed(self, ratio, amp):
        # non-decreasing terms bear out the floor of their first term, and
        # nothing above it
        terms = [amp * ratio**d for d in range(20)]
        slack = rounding_slack(2, 20)
        assert _side_tail(terms, None, amp, slack) == (None, DIVERGENT)
        assert _side_tail(terms, None, amp * slack * 1.01, slack) == (None, INCONCLUSIVE)

    @settings(max_examples=50, deadline=None)
    @given(
        amp=st.floats(1e-9, 1e3),
        ratio=st.floats(0.05, 0.95),
        target=st.floats(1e-12, 1e-3),
    )
    def test_required_halfwidth_meets_target(self, amp, ratio, target):
        env = GeometricTail(amp, ratio)
        k = env.required_halfwidth(target)
        assert k >= 1
        assert env.two_sided(k) <= target


class TestBruteForceSums:
    def test_advanced_first_matches_lip_product_sum(self, end_cfg):
        # oracle: assemble K_n and J_n directly from green_norm and lip_C
        n, w = 1, 25
        k_est, j_est, _, _ = advanced_at(end_cfg, n, w)
        k_direct = sum(
            green_norm(end_cfg, n, k + 1) * end_cfg.f.gamma(k) * lip_C(end_cfg, k, n)
            for k in range(n - w, n)
        )
        j_direct = sum(
            green_norm(end_cfg, n, k + 1) * end_cfg.f.gamma(k) * lip_C(end_cfg, k, n)
            for k in range(n + 1, n + w + 1)
        )
        assert abs(k_est.partial_sum - k_direct) <= 1e-14
        assert abs(j_est.partial_sum - j_direct) <= 1e-14

    def test_advanced_second_matches_lip_product_sum(self, end_cfg):
        n, w = -2, 25
        est = advanced_at(end_cfg, n, w)[3]
        direct = sum(
            green_norm(end_cfg, n, k + 1)
            * (end_cfg.f.gamma(k) * lip_M(end_cfg, k, n) + end_cfg.f.rho(k) * lip_D(end_cfg, k, n))
            for k in range(n - w, n + w + 1)
        )
        assert abs(est.partial_sum - direct) <= 1e-14

    def test_basic_sums_match_direct_green_norms(self, ex1):
        w = 20
        rep = certify(ex1, (0, 0), w, probes=4)
        direct = sum(
            green_norm(ex1, 0, q) * ex1.f.gamma(q - 1) for q in range(-w, w + 1)
        )
        assert abs(rep.bc3.partial_sum - direct) <= 1e-14


class TestArraySeries:
    @pytest.mark.parametrize("name", ["end_cfg", "ex2"])
    def test_lip_products_match_sequential_references(self, name):
        # the references multiply from k inward, the arrays from n outward
        s = system_by_name(name, gamma_scale=0.9)
        w = 40
        for n in (-5, 0, 5):
            c = IndexConstants.of(s, n - w, n + w)
            for ks, side in zip((range(n - 1, n - w - 1, -1), range(n + 1, n + w + 1)),
                                _lip_products(c.rows(2 * w + 1), w)):
                for ref, prods in zip((lip_C, lip_M, lip_D), side):
                    assert prods.shape == (1, w)
                    np.testing.assert_allclose(prods[0], [ref(s, k, n) for k in ks], rtol=1e-13)

    def test_violation_beyond_bc4_window_stops_the_advanced_series(self):
        # bc4 covers only n_range; the advanced series of n = -3 reach back to
        # -23 and meet the violated margins, the one nearest n first
        s = system_by_name("ex1", lam=LN2, gamma_scale=0.5)
        gamma = s.f.gamma
        s.f.gamma = lambda k: 0.9 if k in (-12, -15) else gamma(k)
        rep = certify(s, n_range=(-3, 3), window_halfwidth=20, probes=4)
        assert rep.bc4_ok is True
        assert rep.advanced_error == "contraction violated at index -12: |A^-1|*gamma = 1.8 >= 1"
        assert rep.ac2 == {} and rep.ac9 == {}


def _overflowing_system():
    """A_k = diag(2^k, 2^-k): the spans of the centers n >= 89 overflow at
    w = 10 (TestSlidingSpans.test_overflow_in_the_middle_of_the_range)."""
    def a_mat(k):
        return np.diag([2.0 ** k, 2.0 ** -k])

    return with_coupling(SystemSpec(
        space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
        a=OperatorSeq(a_mat, lambda k: a_mat(-k)),
        p=WeightSeq.constant(np.diag([1.0, 0.0])),
        f=CouplingSpec.zero(2, 0),
        g=DriverSpec.trivial(),
    ), lambda k: 1e-3 * 0.25 ** abs(k))


class TestChunks:
    """`green_norm_rows` and `certify` take their centers in chunks of
    `system._CHUNK` kernels or terms; any chunk size gives the same results."""

    @pytest.mark.parametrize("build,n_range,w", [
        (_overflowing_system, (70, 115), 10),
        (lambda: system_by_name("ex2", gamma_scale=0.9, rotation_angle=0.3), (-20, 20), 30),
    ], ids=["overflow", "ex2-rotated"])
    def test_green_norm_rows(self, build, n_range, w, monkeypatch):
        # 46 or 41 centers: one per norm call, seven (a non-divisor), all;
        # the first overflowing center (89) falls mid-chunk
        s = build()
        rows, failed = green_norm_rows(s, *n_range, w)
        for chunk in (1, 7 * (w + 1)):
            monkeypatch.setattr(system_module, "_CHUNK", chunk)
            got, got_failed = green_norm_rows(s, *n_range, w)
            assert got_failed == failed
            assert np.array_equal(got, rows, equal_nan=True)

    @pytest.mark.parametrize("case", ["violation", "emo", "overflow"])
    def test_certify(self, case, monkeypatch):
        # a violated margin below n_range reaches the first three centers,
        # across chunks of 3 (a non-divisor of 7); emo's advanced sums diverge
        # by their floors
        if case == "violation":
            s = system_by_name("ex1", lam=LN2, gamma_scale=0.5)
            gamma = s.f.gamma
            s.f.gamma = lambda k: 0.9 if k in (-12, -15) else gamma(k)
            args = ((-3, 3), 20)
        elif case == "emo":
            s, args = system_by_name("emo"), ((-4, 4), 12)
        else:
            s, args = _overflowing_system(), ((70, 115), 10)
        rep = certify(s, *args, probes=4).to_json()
        w = args[1]
        for chunk in (1, 3 * (2 * w + 2)):
            monkeypatch.setattr(system_module, "_CHUNK", chunk)
            assert certify(s, *args, probes=4).to_json() == rep
        if case == "violation":
            assert rep["advanced_error"].startswith("contraction violated at index -12")
        elif case == "emo":  # an envelope tail, and a floor in every advanced sum
            assert rep["bc2"]["verdict"] == "converged" and rep["bc2"]["tail_bound"] > 0.0
            assert rep["ac9"] and all(e["verdict"] == "divergent" for e in rep["ac9"].values())
        else:
            assert rep["advanced_error"].endswith("at n=89: overflow encountered in matmul")


def _verdicts(rep) -> list:
    """Every verdict and flag of a report, in a fixed order."""
    out = rep.to_json()
    series = [out["bc2"], out["bc3"], *(e for pair in out["ac2"].values() for e in pair.values()),
              *out["ac9"].values()]
    return [s["verdict"] for s in series] + [out[k] for k in (
        "ac3", "bc4_ok", "ac6_ok", "basic_ok", "advanced_series_ok", "advanced_error")]


def _non_normal_system(seed, strength, norm_kind, dim=3):
    """A_n = D_n + strength * U_n with D_n diagonal in [0.6, 1.4] and U_n
    strictly upper triangular with entries in [-1, 1], a non-projection
    weight P with entries in [-1, 1] and the coupling gamma_k = g 10^{-|k|},
    g = 0.02, with envelopes wherever the bounds below give a ratio < 1.

    |U_n| <= u (dim - 1 in the max norm, sqrt(dim (dim - 1) / 2) in the
    euclidean one), so |A_n| <= a = 1.4 + strength u.  N = D_n^{-1} strength
    U_n is nilpotent with |N| <= v = strength u / 0.6, so |A_n^{-1}| <= b =
    sum_{i < dim} v^i / 0.6, and |P|, |Id - P| <= 1 + dim.  With gamma at
    distance d from n (or from m - 1) at most g 10^{|n|} (or g 10^{|m|+1})
    times 10^{-d}:
      bc2, bc3  |T(m, q) P| <= a^d, |T(m, q) (Id - P)| <= b^d: ratio
                max(a, b) / 10;
      dxi, deta (M = C, no rho) past |T(n, k+1) P| <= a^{d-1} and
                C_{k,n} <= (b / (1 - b g))^d; future |T(n, k+1) (Id - P)| <=
                b^{d+1} and C_{k,n} <= (a + g)^d: ratio max(a b / (1 - b g),
                b (a + g)) / 10, amplitude (1 + dim) g b 10^{|n|}.
    """
    rng = np.random.default_rng(seed)
    mats = {}

    def a_mat(n):
        if n not in mats:
            r = np.random.default_rng([seed, n + 1000])
            mats[n] = np.diag(r.uniform(0.6, 1.4, dim)) + strength * np.triu(
                r.uniform(-1.0, 1.0, (dim, dim)), 1)
        return mats[n]

    base = SystemSpec(
        space=SpaceSpec(dim_x=dim, dim_y=0, norm_kind=norm_kind),
        a=OperatorSeq(a_mat),
        p=WeightSeq.constant(rng.uniform(-1.0, 1.0, (dim, dim))),
        f=CouplingSpec.zero(dim, 0),
        g=DriverSpec.trivial(),
    )
    g = 0.02
    u = dim - 1.0 if norm_kind == "max" else math.sqrt(dim * (dim - 1) / 2)
    a, v = 1.4 + strength * u, strength * u / 0.6
    b = sum(v ** i for i in range(dim)) / 0.6
    basic, advanced = max(a, b) / 10, max(a * b / (1 - b * g), b * (a + g)) / 10
    envelopes = None
    if b * g < 1 and max(basic, advanced) < 1:
        def advanced_env(n):
            return GeometricTail((1 + dim) * g * b * 10.0 ** abs(n), advanced)

        def basic_env(m):
            return GeometricTail((1 + dim) * g * 10.0 ** (abs(m) + 1), basic)

        envelopes = TailEnvelopes(bc2=basic_env, bc3=basic_env, dxi=advanced_env,
                                  deta=advanced_env)
    return with_coupling(base, lambda k: g * 0.1 ** abs(k), kind=norm_kind, envelopes=envelopes)


class TestSlidingSpans:
    """`green_norm_rows` and `green_span` against the second-argument
    recurrence of `green_span_by_columns`."""

    # (center, lo, hi): centers inside the span, and outside it on either side
    SPANS = ((0, -30, 31), (5, -20, 20), (-40, -30, 31), (40, -30, 31), (3, 3, 3))

    @pytest.mark.parametrize("name", ["ex1", "ex2", "remm", "end_cfg"])
    def test_green_span_bit_identical_on_builtins(self, name):
        s = system_by_name(name)
        for m, lo, hi in self.SPANS:
            span = green_span(s, m, lo, hi)
            assert span.shape == (hi - lo + 1, s.space.dim_x, s.space.dim_x)
            assert np.array_equal(span, green_span_by_columns(s, m, lo, hi)), (m, lo, hi)

    @pytest.mark.parametrize("build", [
        lambda: system_by_name("ex2", rotation_angle=0.3),
        lambda: _non_normal_system(7, 0.1, "max"),
        lambda: _non_normal_system(7, 2.0, "max"),
        lambda: _non_normal_system(8, 0.1, "euclidean"),
        lambda: _non_normal_system(8, 2.0, "euclidean"),
    ], ids=["ex2-rotated", "max-0.1", "max-2.0", "euclidean-0.1", "euclidean-2.0"])
    def test_green_span_within_rounding(self, build):
        # the two recurrences associate the products the other way round:
        # each entry moves by at most 8 L u of its kernel's largest entry, L
        # the length of the products, max(hi, m) - min(lo, m) + 1, u = 2^-53
        s = build()
        for m, lo, hi in self.SPANS:
            span, ref = green_span(s, m, lo, hi), green_span_by_columns(s, m, lo, hi)
            bound = 8 * (max(hi, m) - min(lo, m) + 1) * 2.0 ** -53
            scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
            assert np.all(np.abs(span - ref) <= bound * scale), (m, lo, hi)

    @pytest.mark.parametrize("name,kwargs,n_range,w", [
        ("ex1", dict(gamma_scale=0.5), (-10, 10), 40),
        ("ex2", dict(gamma_scale=0.9), (-100, 100), 200),
        ("end_cfg", dict(gamma_scale=0.9), (-10, 10), 40),
        ("remm", dict(gamma_scale=0.5), (-10, 10), 40),
    ])
    def test_bit_identical_on_builtins(self, name, kwargs, n_range, w):
        s = system_by_name(name, **kwargs)
        rows, failed = green_norm_rows(s, *n_range, w)
        ref, ref_failed = green_norm_rows_per_center(s, *n_range, w)
        assert failed == ref_failed == {}
        assert rows.shape == (n_range[1] - n_range[0] + 1, 2 * w + 2)
        assert np.array_equal(rows, ref)

    @pytest.mark.parametrize("build,n_range,w", [
        (lambda: (system_by_name("ex2", gamma_scale=0.9, rotation_angle=0.3), {CONVERGED}),
         (-20, 20), 60),
        (lambda: (_non_normal_system(7, 0.1, "max"), {CONVERGED}), (-10, 10), 30),
        (lambda: (_non_normal_system(7, 2.0, "max"), {INCONCLUSIVE}), (-10, 10), 30),
        (lambda: (_non_normal_system(8, 0.1, "euclidean"), {CONVERGED}), (-10, 10), 30),
        (lambda: (_non_normal_system(8, 2.0, "euclidean"), {INCONCLUSIVE}), (-10, 10), 30),
        (lambda: (system_by_name("emo", c=0.01), {CONVERGED, DIVERGENT}), (-10, 10), 30),
    ])
    def test_within_rounding_and_same_verdicts(self, build, n_range, w, monkeypatch):
        # the sliding products associate the other way round: each norm moves
        # by at most 8 L u relative, L = 2w + 2 the span length, u = 2^-53;
        # `seen` are the series verdicts compared
        s, seen = build()
        rows, failed = green_norm_rows(s, *n_range, w)
        ref, ref_failed = green_norm_rows_per_center(s, *n_range, w)
        assert failed == ref_failed == {}
        bound = 8 * (2 * w + 2) * 2.0 ** -53
        assert np.all(np.abs(rows - ref) <= bound * np.abs(ref))
        slid = _verdicts(certify(s, n_range, w, probes=4))
        monkeypatch.setattr(hyp, "green_norm_rows", green_norm_rows_per_center)
        assert slid == _verdicts(certify(s, n_range, w, probes=4))
        assert seen == {v for v in slid if v in (CONVERGED, DIVERGENT, INCONCLUSIVE)}

    @pytest.mark.parametrize("name", ["ex1", "ex2", "end_cfg"])
    def test_zero_halfwidth(self, name):
        # w = 0 keeps one kernel per half, G(n, n) and G(n, n + 1)
        s = system_by_name(name)
        rows, failed = green_norm_rows(s, -2, 2, 0)
        ref, ref_failed = green_norm_rows_per_center(s, -2, 2, 0)
        assert failed == ref_failed == {}
        assert rows.shape == (5, 2) and np.array_equal(rows, ref)
        rep = certify(s, (-2, 2), 0, probes=2)
        assert sorted(rep.ac3_bound) == list(range(-2, 3))

    @pytest.mark.parametrize("w", [0, 3])
    def test_no_operator_outside_the_span(self, w):
        # the kernels over [lo, hi] need A_k for k in [lo, hi - 1] only, and
        # the rows of the centers in [lo, hi] those of [lo - w, hi + w] only
        base = system_by_name("ex1")

        def guarded(first, last):
            def a_mat(k):
                if not first <= k <= last:
                    raise IndexError(f"A_{k} lies outside [{first}, {last}]")
                return base.a.matrix(k)

            return dataclasses.replace(base, a=OperatorSeq(a_mat, base.a.inverse))

        for m, lo, hi in ((0, -3, 3), (5, -3, 3), (-6, -3, 3), (2, 2, 2)):
            s = guarded(min(lo, m), max(hi, m) - 1)
            assert np.array_equal(green_span(s, m, lo, hi), green_span_by_columns(base, m, lo, hi))
        rows, failed = green_norm_rows(guarded(-2 - w, 2 + w), -2, 2, w)
        assert failed == {}
        assert np.array_equal(rows, green_norm_rows_per_center(base, -2, 2, w)[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_the_middle_of_the_range(self, monkeypatch):
        # A_k = diag(2^k, 2^-k): the span of center n reaches 2^{+-S} with S
        # growing in n, so only the upper centers overflow, the future half
        # (at n >= 89 for w = 10) before the past half (n >= 108); the
        # advanced terms of the centers below reach inf without a warning
        def a_mat(k):
            return np.diag([2.0 ** k, 2.0 ** -k])

        s = with_coupling(SystemSpec(
            space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
            a=OperatorSeq(a_mat, lambda k: a_mat(-k)),
            p=WeightSeq.constant(np.diag([1.0, 0.0])),
            f=CouplingSpec.zero(2, 0),
            g=DriverSpec.trivial(),
        ), lambda k: 1e-3 * 0.25 ** abs(k))
        n_range, w = (70, 115), 10
        rows, failed = green_norm_rows(s, *n_range, w)
        ref_rows, ref_failed = green_norm_rows_per_center(s, *n_range, w)
        assert failed == ref_failed
        assert sorted(failed) == list(range(89, 116))
        assert np.all(np.isnan(rows[89 - 70:]))
        assert np.array_equal(rows[:89 - 70], ref_rows[:89 - 70])
        rep = certify(s, n_range, w, probes=4)
        monkeypatch.setattr(hyp, "green_norm_rows", green_norm_rows_per_center)
        assert rep.to_json() == certify(s, n_range, w, probes=4).to_json()
        assert rep.advanced_error == ("arithmetic failure in the Green span at n=89: "
                                      "overflow encountered in matmul")
        assert not rep.basic_ok and sorted(rep.ac9) == list(range(70, 90))
