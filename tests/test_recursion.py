import math

import numpy as np
import pytest

from dpgt.engine import run_ensemble
from dpgt.graphs import build_graph_pair, spectral_constants
from dpgt.objectives import generate_quadratic_datasets, make_quadratic
from dpgt.recursion import (
    CapViolation,
    EnsembleTooSmall,
    ObjectiveConstants,
    build_model,
    certificate_check,
    contraction_check,
    dominance_check,
)
from dpgt.schemes import S2Params, q_caps, rates_at, validate_s2


def two_cycle_sc():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    return spectral_constants(build_graph_pair(M, M))


def five_pair(seed=7):
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(C, 0.0)
    gp = build_graph_pair(R, C)
    return gp, spectral_constants(gp)


def admissible_s2(sc, L, mu, frac=0.9, p_m=1.05, p_noise=0.9):
    q1, q2 = q_caps(sc, L, mu)
    beta = frac * sc.beta_cap
    a_extra = (
        math.sqrt(2) * sc.v1_dot_v2 * sc.r2 * beta / (12.0 * sc.rhoL1 * sc.norm_v1 * L)
    )
    alpha = frac * min(sc.alpha_cap, a_extra)
    gamma = frac * min(1.0, sc.n / (20.0 * sc.v1_dot_v2 * L), q1 * alpha, q2 * beta)
    n = sc.n
    return S2Params(
        alpha=alpha, beta=beta, gamma=gamma, p_m=p_m,
        p_zeta=(p_noise,) * n, p_eta=(p_noise,) * n,
    )


class TestBuildModel:
    def test_gap_row_diagonal_hand_value(self):
        # symmetric 2-cycle, mu = 1, gamma = 0.01, L = 1:
        # A[2,2] = 1 - (v1.v2) mu gamma / n + 4 (v1.v2)^2 gamma^2 L / n^2
        sc = two_cycle_sc()
        scheme = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.05, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 1.0, 1.0), K=5, d=3)
        expect = 1.0 - 2.0 * 1.0 * 0.01 / 2.0 + 4.0 * 4.0 * 0.0001 * 1.0 / 4.0
        assert model.A[2, 2] == pytest.approx(expect, rel=1e-12)

    def test_flat_case_gap_row_not_contracting(self):
        sc = two_cycle_sc()
        scheme = S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.05, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.0, 1.0), K=5, d=3)
        assert model.A[2, 2] >= 1.0

    def test_drift_vanishes_with_no_noise_and_unbounded_batch(self):
        _, sc = five_pair()
        scheme = admissible_s2(sc, L=1.0, mu=0.5, p_m=1.5)
        K = 4000  # batch overflows to +inf, killing the 1/m terms
        assert not math.isfinite(rates_at(scheme, K).m)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=K, d=3)
        # noise scales p^K underflow to zero as well
        assert np.allclose(model.u[0], 0.0)
        assert np.allclose(model.u[K], 0.0)

    def test_cap_violation_reported_with_name(self):
        _, sc = five_pair()
        scheme = S2Params(alpha=0.99, beta=0.1, gamma=0.001, p_m=1.05, p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
        with pytest.raises(CapViolation, match="alpha"):
            build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=5, d=3)

    @pytest.mark.parametrize("agents", [4, 6])
    def test_scheme_for_another_agent_count_is_refused(self, agents):
        _, sc = five_pair()
        noise = (0.9,) * agents
        scheme = S2Params(alpha=0.1, beta=0.1, gamma=0.001, p_m=1.05, p_zeta=noise, p_eta=noise)
        with pytest.raises(ValueError, match=f"the scheme has {agents} agents, the graph pair 5"):
            build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=5, d=3)

    def test_entries_monotone_in_gamma(self):
        _, sc = five_pair()
        consts = ObjectiveConstants(1.0, 0.5, 1.0)

        def model_at(gamma):
            scheme = S2Params(alpha=0.1, beta=0.1, gamma=gamma, p_m=1.05, p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
            return build_model(sc, scheme, consts, K=3, d=3)

        small, big = model_at(0.002), model_at(0.02)
        assert big.A[0, 1] > small.A[0, 1]  # quadratic in gamma
        assert big.A[0, 2] > small.A[0, 2]
        assert big.A[2, 1] > small.A[2, 1]  # linear in gamma

    def test_drift_accumulator_grows_with_iteration(self):
        # growing per-iteration noise feeds the accumulated tracking term
        _, sc = five_pair()
        scheme = admissible_s2(sc, L=1.0, mu=0.5)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=50, d=3)
        assert model.u[50, 0] > model.u[1, 0]
        assert (model.u >= 0).all()


class TestContraction:
    def test_admissible_set_contracts(self):
        _, sc = five_pair()
        L, mu = 1.5, 0.8
        scheme = admissible_s2(sc, L, mu)
        assert validate_s2(scheme, sc, L, mu).overall
        model = build_model(sc, scheme, ObjectiveConstants(L, mu, 1.0), K=10, d=3)
        rep = contraction_check(model)
        assert rep.contracts and rep.rho < 1.0

    def test_vanishing_gamma_approaches_unit_radius(self):
        _, sc = five_pair()
        consts = ObjectiveConstants(1.0, 1.0, 1.0)
        rhos = []
        for gamma in (1e-3, 1e-5, 1e-7):
            scheme = S2Params(alpha=0.1, beta=0.1, gamma=gamma, p_m=1.05, p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
            rhos.append(contraction_check(build_model(sc, scheme, consts, K=3, d=3)).rho)
        assert all(r < 1.0 for r in rhos)
        assert rhos[0] < rhos[1] < rhos[2] < 1.0

    def test_certificate_on_admissible_set(self):
        _, sc = five_pair()
        L, mu = 1.5, 0.8
        scheme = admissible_s2(sc, L, mu)
        model = build_model(sc, scheme, ObjectiveConstants(L, mu, 1.0), K=10, d=3)
        cert = certificate_check(model)
        assert cert.ok
        assert np.allclose(cert.s, [1 / L**2, sc.v1_dot_v2**2 / (3 * sc.norm_v1**2), 3 / mu])

    def test_certificate_fails_for_small_smoothness_constant(self):
        # the alpha cap scales like 1/L, but the certificate's middle row
        # needs an L-free alpha bound: near the cap with L << 1 the
        # entrywise test genuinely fails even though every admissibility
        # inequality holds
        _, sc = five_pair()
        L, mu = 0.1, 0.05
        scheme = admissible_s2(sc, L, mu, frac=0.95)
        assert validate_s2(scheme, sc, L, mu).overall
        model = build_model(sc, scheme, ObjectiveConstants(L, mu, 1.0), K=10, d=3)
        assert not certificate_check(model).ok

    def test_certificate_requires_positive_mu(self):
        _, sc = five_pair()
        scheme = admissible_s2(sc, 1.0, 0.5)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.0, 1.0), K=3, d=3)
        with pytest.raises(ValueError):
            certificate_check(model)


class TestDrift:
    def test_decaying_schedule_drift_ratio_tracks_theta(self):
        # with noise exponents (-0.2, 0.1) the slowest drift term scales like
        # (K+1)^-theta, so doubling the horizon shrinks it by about 2^-theta
        from dpgt.schemes import S1Params, theta

        _, sc = five_pair()
        p = S1Params(
            a1=0.1, a2=0.1, a3=0.5, a4=0.05, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(-0.2,) * 5, p_eta=(0.1,) * 5,
        )
        th = theta(p)
        consts = ObjectiveConstants(1.0, 0.5, 1.0)
        ratios = []
        for K in (256, 512, 1024):
            m1 = build_model(sc, p, consts, K=K, d=3)
            m2 = build_model(sc, p, consts, K=2 * K, d=3)
            ratios.append(np.linalg.norm(m2.u[2 * K]) / np.linalg.norm(m1.u[K]))
        for r in ratios:
            assert 0.8 * 2.0**-th <= r <= 1.2 * 2.0**-th

    def test_refuses_small_ensembles(self):
        _, sc = five_pair()
        scheme = admissible_s2(sc, 1.0, 0.5)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=3, d=3)
        with pytest.raises(EnsembleTooSmall):
            dominance_check(model, np.zeros((5, 3)), np.zeros((5, 3)), n_runs=10)

    def test_empty_series_is_vacuous_pass(self):
        _, sc = five_pair()
        scheme = admissible_s2(sc, 1.0, 0.5)
        model = build_model(sc, scheme, ObjectiveConstants(1.0, 0.5, 1.0), K=0, d=3)
        rep = dominance_check(model, np.zeros((1, 3)), np.zeros((1, 3)), n_runs=50)
        assert rep.checked == 0 and rep.ok

    def test_deterministic_run_dominated_exactly(self):
        # no privacy noise, full batch: expectations equal realizations and
        # the recursion must dominate with zero statistical slack
        gp, sc = five_pair()
        n, d, D = 5, 3, 2
        ds = generate_quadratic_datasets(n, D, seed=1)
        obj = make_quadratic(0.9 * np.eye(d), np.full(d, 2.0), n, ds)
        # honest constants for this instance, measured on the visited region
        L_true = 0.9**2 / n * 1.6  # least-squares modulus plus coupling slack
        mu_true = 0.05
        # p_m just above 1 keeps the batch at floor(1) + 1 = 2 = D: full batch
        scheme = admissible_s2(sc, L_true, mu_true, frac=0.5, p_m=1.0 + 1e-9)
        assert rates_at(scheme, 100).m_int == D
        x0 = np.tile(np.full(d, 2.0 / 0.9), (n, 1)) + 0.3
        ens = run_ensemble(
            gp, scheme, obj, K=100,
            seeds=[0] * 30,  # identical deterministic runs
            x0=x0, sc=sc, noise_off=True,
        )
        assert np.allclose(ens.se_v, 0.0)
        model = build_model(
            sc, scheme, ObjectiveConstants(L_true, mu_true, obj.sigma_g), K=100, d=d
        )
        rep = dominance_check(model, ens.mean_v, ens.se_v, ens.n_runs)
        assert rep.violations == 0
