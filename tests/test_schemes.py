import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dpgt.graphs import build_graph_pair, spectral_constants
from dpgt.objectives import generate_quadratic_datasets, make_quadratic
from dpgt.schemes import (
    S1Params,
    S2Params,
    check_budget_finiteness,
    q_caps,
    rates_at,
    theta,
    validate,
    validate_s1,
    validate_s2,
)


def s1_reference(p_noise=0.1, **kw):
    base = dict(
        a1=0.2, a2=0.2, a3=1.0, a4=0.00007,
        p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
        p_zeta=(p_noise,) * 5, p_eta=(p_noise,) * 5,
    )
    base.update(kw)
    return S1Params(**base)


@pytest.fixture(scope="module")
def sc5():
    rng = np.random.default_rng(7)
    R = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(C, 0.0)
    return build_graph_pair(R, C), spectral_constants(build_graph_pair(R, C))


class TestRates:
    def test_reported_decaying_schedule(self):
        p = s1_reference(a1=72, a2=0.95, a3=98, p_m=1.78)
        r = rates_at(p, 2000)
        assert r.alpha == pytest.approx(0.04, abs=5e-4)
        assert r.beta == pytest.approx(0.005, abs=5e-5)
        assert r.gamma == pytest.approx(0.05, abs=5e-4)
        assert r.m == 53

    def test_reported_geometric_sampling_count(self):
        p = S2Params(alpha=0.1, beta=0.01, gamma=0.1, p_m=1.002, p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
        assert rates_at(p, 2000).m == 55

    def test_unit_batch_regime(self):
        p = s1_reference(a4=0.0, p_m=0.0)
        for K in (0, 1, 10, 1000):
            assert rates_at(p, K).m == 1

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            rates_at(s1_reference(), -1)

    def test_s1_step_sizes_strictly_decreasing_in_horizon(self):
        p = s1_reference()
        prev = rates_at(p, 0)
        for K in range(1, 60):
            cur = rates_at(p, K)
            assert cur.alpha < prev.alpha
            assert cur.beta < prev.beta
            assert cur.gamma < prev.gamma
            prev = cur

    def test_s2_sampling_count_nondecreasing(self):
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(0.93,), p_eta=(0.93,))
        ms = [rates_at(p, K).m for K in range(0, 120)]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert ms[0] >= 1

    def test_s1_noise_grows_with_iteration(self):
        r = rates_at(s1_reference(p_noise=0.2), 100)
        assert r.sigma_cols(50)[0][0] == 51.0**0.2

    def test_s2_noise_constant_in_iteration(self):
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(0.9,), p_eta=(0.8,))
        r = rates_at(p, 40)
        assert r.sigma_cols(0)[0] == r.sigma_cols(39)[0] == [0.9**40]
        assert r.sigma_cols(13)[1] == [0.8**40]

    @settings(max_examples=200, deadline=None)
    @given(
        kind=hst.sampled_from(["S1", "S2"]),
        p=hst.tuples(hst.floats(-3.0, 3.0), hst.floats(-3.0, 3.0)),
        k0=hst.integers(0, 2**40),
        length=hst.integers(0, 40),
        noise_off=hst.booleans(),
    )
    def test_sigma_rows_equal_per_k_scales(self, kind, p, k0, length, noise_off):
        if kind == "S1":
            params = s1_reference(p_zeta=(0.1, p[0]), p_eta=(0.1, p[1]))
        else:
            bases = tuple((0.9, 0.05 + abs(q) / 3) for q in p)
            params = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=bases[0], p_eta=bases[1])
        rates = dataclasses.replace(rates_at(params, 50), noise_off=noise_off)
        ks = range(k0, k0 + length)
        for role, got in enumerate(rates.sigma_rows(1, ks)):
            assert got.tobytes() == np.array([rates.sigma_cols(k)[role][1] for k in ks], dtype=float).tobytes()

    def test_geometric_overflow_guard(self):
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.5, p_zeta=(0.9,), p_eta=(0.9,))
        assert math.isinf(rates_at(p, 10**6).m)

    def test_polynomial_product_overflow_guard(self):
        # K**p_m = 1e15 is finite; a4 * K**p_m overflows, so m is inf and run refuses it.
        from dpgt.engine import ConfigError, run
        from dpgt.objectives import generate_quadratic_datasets, make_quadratic

        p = s1_reference(a4=1e300, p_m=3.0, p_zeta=(0.1, 0.1), p_eta=(0.1, 0.1))
        assert math.isinf(rates_at(p, 10**5).m)
        assert math.isinf(rates_at(s1_reference(p_m=100.0), 10**5).m)  # K**p_m itself overflows
        assert rates_at(s1_reference(a4=0.0, p_m=100.0), 10**5).m == 1
        gp = build_graph_pair(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([[0.0, 0.5], [0.5, 0.0]]))
        obj = make_quadratic(np.eye(2), np.ones(2), 2, generate_quadratic_datasets(2, 10, 0))
        with pytest.raises(ConfigError):
            run(gp, p, obj, K=10**5, seed=0)


class TestValidateS1:
    def test_exponent_inequalities_pass_for_reference_set(self, sc5):
        gp, sc = sc5
        rep = validate_s1(s1_reference(), sc, L=0.1)
        assert rep.overall
        assert rep.derived["theta"] == pytest.approx(1.084)

    def test_small_beta_exponent_fails_named_entry(self, sc5):
        _, sc = sc5
        rep = validate_s1(s1_reference(p_beta=0.4), sc, L=0.1)
        assert not rep.entry("1/2 < p_beta").satisfied
        assert not rep.overall

    def test_noise_exponent_bounds(self, sc5):
        _, sc = sc5
        # 2 p_alpha - p_beta - 2 max(p_zeta, 0) >= 1 forces p_zeta <= 0.142
        assert validate_s1(s1_reference(p_noise=0.142), sc, L=0.1).overall
        assert not validate_s1(s1_reference(p_noise=0.15), sc, L=0.1).overall

    def test_reports_are_pure(self, sc5):
        _, sc = sc5
        assert validate_s1(s1_reference(), sc, 0.1) == validate_s1(s1_reference(), sc, 0.1)

    def test_batch_that_never_grows_fails_on_a4_alone(self, sc5):
        # Acceptance criterion 5's scheme and objective: with a4 = 0, m stays 1
        # and the p_m - p_beta term of theta does not apply.
        _, sc = sc5
        L = make_quadratic(
            np.eye(10), np.full(10, 3.0 / math.sqrt(10)), 5, generate_quadratic_datasets(5, 200, seed=42)
        ).L1_smooth
        base = dict(
            a1=0.05, a2=0.4, a3=2.4, p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
            p_zeta=(0.1,) * 5, p_eta=(0.1,) * 5,
        )
        flat = validate_s1(S1Params(a4=0.0, **base), sc, L)
        assert [e.name for e in flat.entries if not e.satisfied] == ["0 < a4"]
        assert validate_s1(S1Params(a4=4e-5, **base), sc, L).overall


class TestValidateS2:
    def test_reference_constant_set_passes(self):
        # lightly-weighted symmetric pair keeps the caps above 0.1
        M = np.array([[0.0, 0.3], [0.3, 0.0]])
        gp = build_graph_pair(M, M)
        sc = spectral_constants(gp)
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(0.93, 0.93), p_eta=(0.93, 0.93))
        rep = validate_s2(p, sc, L=0.05, mu=0.05)
        assert rep.overall
        assert rep.derived["Q1"] > 0 and rep.derived["Q2"] > 0

    def test_indicator_activates_when_mu_zero(self, sc5):
        _, sc = sc5
        L = 0.5
        q1_zero, _ = q_caps(sc, L, 0.0)
        # with mu = 0 the second branch becomes r1 / (2 |v2| L) * sqrt(1/2)
        branch = sc.r1 / (2 * sc.norm_v2 * L) * math.sqrt(0.5)
        first = sc.n * math.sqrt(3 * sc.n) * sc.r1 / (24 * sc.norm_v2 * L)
        assert q1_zero == pytest.approx(min(first, branch))

    def test_q_values_numeric_on_two_cycle(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        sc = spectral_constants(build_graph_pair(M, M))
        # n=2, r1=r2=1.2, |v1|=|v2|=sqrt(2), v1.v2=2, rho(L1)=2, L=1, mu=1
        q1, q2 = q_caps(sc, 1.0, 1.0)
        exp_q1 = min(
            2 * math.sqrt(6) * 1.2 / (24 * math.sqrt(2)),
            1.2 / (2 * math.sqrt(2)) * math.sqrt(1 / 14.0),
        )
        exp_q2 = min(
            math.sqrt(3) * 1.2 / 12.0,
            math.sqrt(3) * 2 * 1.2 / (36 * 2),
            math.sqrt(6) * 2 * 1.2 * 1.2 / (144 * 2 * 2),
            math.sqrt(6) * 2 * 1.2 / (12 * 2) * math.sqrt(1 / 43.0),
        )
        assert q1 == pytest.approx(exp_q1, rel=1e-12)
        assert q2 == pytest.approx(exp_q2, rel=1e-12)

    def test_gamma_above_cap_fails(self, sc5):
        _, sc = sc5
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.9, p_m=1.1, p_zeta=(0.93,) * 5, p_eta=(0.93,) * 5)
        rep = validate_s2(p, sc, L=1.0, mu=1.0)
        assert not rep.overall


class TestValidate:
    def test_picks_the_validator_of_the_scheme(self, sc5):
        _, sc = sc5
        s2 = S2Params(alpha=0.1, beta=0.1, gamma=0.9, p_m=1.1, p_zeta=(0.93,) * 5, p_eta=(0.93,) * 5)
        assert validate(s1_reference(), sc, 0.1, 0.3) == validate_s1(s1_reference(), sc, 0.1)
        assert validate(s2, sc, 1.0, 0.3) == validate_s2(s2, sc, 1.0, 0.3)
        assert (S1Params.fit_model, S2Params.fit_model) == ("power", "exponential")

    @pytest.mark.parametrize("agents", [4, 6])
    def test_scheme_for_another_agent_count_is_refused(self, sc5, agents):
        _, sc = sc5
        message = f"the scheme has {agents} agents, the graph pair 5"
        s1 = s1_reference(p_zeta=(0.1,) * agents, p_eta=(0.1,) * agents)
        s2 = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(0.93,) * agents, p_eta=(0.93,) * agents)
        for check in (lambda: validate_s1(s1, sc, 0.1), lambda: validate_s2(s2, sc, 0.1, 0.1),
                      lambda: validate(s1, sc, 0.1, 0.1), lambda: validate(s2, sc, 0.1, 0.1)):
            with pytest.raises(ValueError, match=message):
                check()


class TestTheta:
    def test_reference_value(self):
        assert theta(s1_reference()) == pytest.approx(min(1.31, 1.084, 1.18))

    def test_nonpositive_noise_exponents_drop_out(self):
        p = s1_reference(p_noise=-0.25)
        assert theta(p) == pytest.approx(min(2 - 0.69, 2 * 0.987 - 0.69, 2 * 0.69))

    def test_matches_bruteforce_minimum(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p = S1Params(
                a1=1, a2=1, a3=1, a4=1,
                p_alpha=rng.uniform(0.5, 1.5),
                p_beta=rng.uniform(0.1, 1.5),
                p_gamma=rng.uniform(0.5, 1.5),
                p_m=rng.uniform(0.0, 3.0),
                p_zeta=tuple(rng.uniform(-0.5, 0.5, 3)),
                p_eta=tuple(rng.uniform(-0.5, 0.5, 3)),
            )
            cands = [
                p.p_m - p.p_beta,
                2 * p.p_alpha - p.p_beta - 2 * max(max(p.p_zeta), 0.0),
                2 * p.p_beta - 2 * max(max(p.p_eta), 0.0),
            ]
            assert theta(p) == pytest.approx(min(cands), rel=1e-12)


class TestBudgetFiniteness:
    def test_reference_decaying_set_passes(self, sc5):
        gp, _ = sc5
        rep = check_budget_finiteness(s1_reference(), gp)
        assert rep.overall
        # both exponents strictly positive
        assert rep.derived["tracking_exponent"] > 0
        assert rep.derived["state_exponent"] > 0

    def test_geometric_margin(self):
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(0.95,), p_eta=(0.95,))
        rep = check_budget_finiteness(p)
        assert rep.entry("p_m > max_i max(1/p_zeta, 1/p_eta)").satisfied
        assert rep.overall

    def test_unit_base_fails_open_interval(self):
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.1, p_zeta=(1.0,), p_eta=(0.95,))
        rep = check_budget_finiteness(p)
        assert not rep.entry("max p_zeta < 1").satisfied
        assert not rep.overall

    def test_constant_sampling_count_reports_instead_of_raising(self):
        # p_m = 0 keeps m = 1: the decay base is 0 and the budget grows without bound.
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=0.0, p_zeta=(0.95,), p_eta=(0.95,))
        rep = check_budget_finiteness(p)
        assert not rep.entry("p_m > max_i max(1/p_zeta, 1/p_eta)").satisfied
        assert rep.derived["tail_order"] == "O(K * (inf)^K)"

    def test_sampling_count_that_never_grows_is_not_finite(self, sc5):
        # Acceptance criterion 5's scheme with a4 = 0: m = 1 at every horizon.
        gp, _ = sc5
        base = dict(
            a1=0.05, a2=0.4, a3=2.4, p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
            p_zeta=(0.1,) * 5, p_eta=(0.1,) * 5,
        )
        flat = S1Params(a4=0.0, **base)
        assert all(rates_at(flat, K).m == 1.0 for K in (10, 10**3, 10**5))
        rep = check_budget_finiteness(flat, gp)
        assert not rep.entry("0 < a4").satisfied
        assert not rep.overall
        growing = check_budget_finiteness(S1Params(a4=4e-5, **base), gp)
        assert growing.entry("0 < a4").satisfied
        assert growing.overall

    def test_weight_caps_checked_with_graph(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        gp = build_graph_pair(M, M)
        rep = check_budget_finiteness(s1_reference(a1=1.5), gp)
        assert not rep.entry("a1 < min_i 1/row_sum_R").satisfied
