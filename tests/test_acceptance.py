"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines live.
The heavy ensemble criteria take a few minutes each; the whole module runs
in roughly a quarter hour on one core.
"""

import math
import time

import numpy as np
import pytest

from dpgt.engine import compact_step, initialize, rates_at, run_ensemble, step
from dpgt.engine import run as engine_run
from dpgt.experiments import fit_rate, suboptimal_horizon
from dpgt.graphs import build_graph_pair, check_connectivity, spectral_constants
from dpgt.objectives import (
    generate_quadratic_datasets,
    make_dataset,
    make_quadratic,
)
from dpgt.privacy import (
    adjacency_constant,
    coupled_pair_run,
    epsilon,
    micro_dp_check,
    sensitivity_trace,
)
from dpgt.recursion import (
    ObjectiveConstants,
    build_model,
    certificate_check,
    contraction_check,
    dominance_check,
)
from dpgt.schemes import S1Params, S2Params, q_caps, theta, validate_s1, validate_s2

import dataclasses


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def random_rooted_pair(rng, n=5):
    while True:
        R = np.zeros((n, n))
        C = np.zeros((n, n))
        for i in range(1, n):
            R[i, rng.integers(0, i)] = rng.uniform(0.2, 1.0)
            C[rng.integers(0, i), i] = rng.uniform(0.2, 1.0)
        for _ in range(rng.integers(3, 9)):
            i, j = rng.integers(0, n, 2)
            if i != j:
                R[i, j] = rng.uniform(0.1, 1.0)
        for _ in range(rng.integers(3, 9)):
            i, j = rng.integers(0, n, 2)
            if i != j:
                C[i, j] = rng.uniform(0.1, 1.0)
        gp = build_graph_pair(R, C)
        if check_connectivity(gp).ok:
            return gp


def dense_pair(seed=7, n=5):
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.15, 0.25, (n, n))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.15, 0.25, (n, n))
    np.fill_diagonal(C, 0.0)
    return build_graph_pair(R, C)


def admissible_s2(sc, L, mu, frac, p_m, p_noise):
    q1, q2 = q_caps(sc, L, mu)
    beta = frac * sc.beta_cap
    alpha = frac * min(
        sc.alpha_cap,
        math.sqrt(2) * sc.v1_dot_v2 * sc.r2 * beta / (12.0 * sc.rhoL1 * sc.norm_v1 * L),
    )
    gamma = frac * min(1.0, sc.n / (20.0 * sc.v1_dot_v2 * L), q1 * alpha, q2 * beta)
    return S2Params(
        alpha=alpha, beta=beta, gamma=gamma, p_m=p_m,
        p_zeta=(p_noise,) * sc.n, p_eta=(p_noise,) * sc.n,
    )


def measured_constants(obj, center, spread, seed=9):
    """Regularity constants measured over the operating region around center."""
    rng = np.random.default_rng(seed)
    d = obj.dim
    pooled = np.vstack([ds.samples for ds in obj.datasets])
    lip = 0.0
    for _ in range(3000):
        x = center + rng.normal(0, spread, d)
        y = x + rng.normal(0, spread / 2, d)
        xi = pooled[rng.integers(pooled.shape[0])]
        gap = np.linalg.norm(x - y)
        if gap > 1e-9:
            lip = max(lip, float(np.linalg.norm(obj.grad(x, xi) - obj.grad(y, xi)) / gap))
    var = 0.0
    for _ in range(200):
        x = center + rng.normal(0, spread, d)
        for i in range(obj.n_agents):
            g = obj.grad_batch(x, obj.datasets[i].samples)
            var = max(var, float(((g - g.mean(axis=0)) ** 2).sum(axis=1).mean()))
    pl = math.inf
    for _ in range(2000):
        x = center + rng.normal(0, 1.2 * spread, d)
        gap = obj.global_value(x) - obj.F_star
        if gap >= 1e-10:
            pl = min(pl, float(np.linalg.norm(obj.global_gradient_rows(x[None])[0]) ** 2 / (2 * gap)))
    return ObjectiveConstants(L1_smooth=1.1 * lip, mu=0.9 * pl, sigma_g=1.1 * math.sqrt(var))


@pytest.fixture(scope="module")
def quad_instance():
    """The shared desk-scale quadratic problem: n = 5, d = 10, D = 200."""
    gp = dense_pair(seed=7)
    sc = spectral_constants(gp)
    ds = generate_quadratic_datasets(5, 200, seed=42)
    obj = make_quadratic(np.eye(10), np.full(10, 3.0 / math.sqrt(10)), 5, ds)
    return gp, sc, obj


def test_01_spectral_certificate():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_rho_slack = math.inf
    worst_res = 0.0
    for _ in range(20):
        gp = random_rooted_pair(rng)
        sc = spectral_constants(gp)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = frac * sc.alpha_cap
            b = frac * sc.beta_cap
            rho1 = max(abs(np.linalg.eigvals(sc.W1 - a * gp.L1)))
            rho2 = max(abs(np.linalg.eigvals(sc.W2 - b * gp.L2)))
            worst_rho_slack = min(
                worst_rho_slack,
                (1 - sc.r1 * a + 1e-9) - rho1,
                (1 - sc.r2 * b + 1e-9) - rho2,
            )
            res1 = np.linalg.norm(sc.v1 @ (np.eye(gp.n) - a * gp.L1) - sc.v1)
            res2 = np.linalg.norm((np.eye(gp.n) - b * gp.L2) @ sc.v2 - sc.v2)
            worst_res = max(worst_res, res1, res2)
    elapsed = time.time() - t0
    ok = worst_rho_slack >= 0 and worst_res <= 1e-9 and elapsed < 10
    report(
        1, "spectral contraction certificate", ok,
        f"min slack {worst_rho_slack:.2e}, max residual {worst_res:.2e}, {elapsed:.1f}s",
    )


def test_02_update_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(10):
        gp = random_rooted_pair(rng, n=int(rng.integers(2, 6)))
        sc = spectral_constants(gp)
        d = int(rng.integers(2, 6))
        ds = generate_quadratic_datasets(gp.n, 30, seed=trial)
        obj = make_quadratic(
            np.eye(d) * rng.uniform(0.5, 1.5), rng.normal(0, 1, d), gp.n, ds
        )
        scheme = S2Params(
            alpha=0.5 * sc.alpha_cap, beta=0.5 * sc.beta_cap, gamma=0.002,
            p_m=1.01, p_zeta=(0.9,) * gp.n, p_eta=(0.9,) * gp.n,
        )
        rates = rates_at(scheme, 100)
        st_a = initialize(gp, (rates,), obj, seeds=(1000 + trial,))
        st_b = st_a
        for _ in range(100):
            st_a = step(st_a, gp, (rates,), obj)
            st_b = compact_step(st_b, gp, rates, obj)
            worst = max(worst, np.abs(st_a.x - st_b.x).max(), np.abs(st_a.y - st_b.y).max())
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 5
    report(2, "agentwise = stacked update", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_03_tracking_identity(quad_instance):
    gp, sc, obj = quad_instance
    scheme = admissible_s2(sc, obj.L1_smooth, obj.mu, frac=0.9, p_m=1.0, p_noise=0.93)
    rates = dataclasses.replace(rates_at(scheme, 500), noise_off=True)
    st = initialize(gp, (rates,), obj, seeds=(33,))
    worst = 0.0
    for _ in range(500):
        st = step(st, gp, (rates,), obj)
        num = np.abs(st.y.sum(axis=-2) - st.g_prev.sum(axis=-2)).max()
        den = max(1.0, np.abs(st.g_prev.sum(axis=-2)).max())
        worst = max(worst, num / den)
    ok = worst <= 1e-10
    report(3, "tracking conservation, zero noise", ok, f"worst relative gap {worst:.2e}")


def test_04_exponential_rate(quad_instance):
    t0 = time.time()
    gp, sc, obj = quad_instance
    scheme = admissible_s2(sc, obj.L1_smooth, obj.mu, frac=0.98, p_m=1.0106, p_noise=0.93)
    assert validate_s2(scheme, sc, obj.L1_smooth, obj.mu).overall
    ens = run_ensemble(gp, scheme, obj, K=500, seeds=range(1000, 1200), sc=sc)
    series = ens.mean_max_grad
    fit = fit_rate(np.arange(1, 502), series, model="exponential")
    ratio = series[-1] / series[0]
    elapsed = time.time() - t0
    ok = fit.r2 >= 0.9 and fit.base < 1.0 and ratio <= 1e-3 and elapsed < 300
    report(
        4, "geometric decay at constant steps", ok,
        f"R2 {fit.r2:.4f}, base {fit.base:.4f}, final/initial {ratio:.2e}, {elapsed:.0f}s",
    )


def test_05_polynomial_rate(quad_instance):
    t0 = time.time()
    gp, sc, obj = quad_instance
    scheme = S1Params(
        a1=0.05, a2=0.4, a3=2.4, a4=4e-5,
        p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
        p_zeta=(0.1,) * 5, p_eta=(0.1,) * 5,
    )
    rep = validate_s1(scheme, sc, obj.L1_smooth)
    assert rep.overall
    predicted = -(theta(scheme) - scheme.p_gamma)
    assert predicted == pytest.approx(-0.087)
    # start near the solution so the slow deterministic transient and the
    # tracking-noise floor are comparable across the horizon range
    import scipy.optimize

    x_hat = scipy.optimize.minimize(
        obj.global_value, np.full(10, 3.0 / math.sqrt(10)),
        jac=lambda x: obj.global_gradient_rows(x[None])[0], tol=1e-14,
    ).x
    x0 = np.tile(x_hat + 0.776 * np.ones(10) / math.sqrt(10), (5, 1))
    finals = []
    horizons = (250, 500, 1000, 2000)
    for K in horizons:
        ens = run_ensemble(gp, scheme, obj, K, seeds=range(31000, 31300), x0=x0, sc=sc)
        finals.append(float(ens.mean_final_grad.max()))
    slope = float(np.polyfit(np.log([K + 1 for K in horizons]), np.log(finals), 1)[0])
    elapsed = time.time() - t0
    ok = abs(slope - predicted) <= 0.3 * abs(predicted) and elapsed < 1800
    report(
        5, "polynomial decay across horizons", ok,
        f"fitted {slope:.4f} vs predicted {predicted:.4f} +- 30%, {elapsed:.0f}s",
    )


def test_06_sensitivity_dominance():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_margin = math.inf
    for trial in range(100):
        n = int(rng.integers(2, 5))
        gp = random_rooted_pair(rng, n=n)
        sc = spectral_constants(gp)
        d = int(rng.integers(1, 4))
        D = int(rng.integers(10, 30))
        ds = generate_quadratic_datasets(n, D, seed=trial)
        obj = make_quadratic(np.eye(d) * rng.uniform(0.4, 1.2), rng.normal(0, 1, d), n, ds)
        scheme = S2Params(
            alpha=rng.uniform(0.3, 0.9) * sc.alpha_cap,
            beta=rng.uniform(0.3, 0.9) * sc.beta_cap,
            gamma=rng.uniform(0.005, 0.03),
            p_m=rng.uniform(1.001, 1.01),
            p_zeta=(0.9,) * n, p_eta=(0.9,) * n,
        )
        agent = int(rng.integers(0, n))
        l0 = int(rng.integers(0, D))
        alt = list(ds)
        samples = ds[agent].samples.copy()
        samples[l0, 0] += rng.uniform(0.5, 3.0)
        alt[agent] = make_dataset(agent, samples)
        C = adjacency_constant(obj, ds[agent], alt[agent])
        tr = sensitivity_trace(gp, scheme, C, 200)
        res = coupled_pair_run(gp, scheme, obj, list(ds), alt, K=200, seed=trial)
        worst_margin = min(
            worst_margin,
            float((tr.dx - res.dx_measured).min()),
            float((tr.dy - res.dy_measured).min()),
        )
    elapsed = time.time() - t0
    ok = worst_margin >= 0.0
    report(
        6, "coupled runs below sensitivity bounds", ok,
        f"min bound slack {worst_margin:.3e} over 100 pairs, {elapsed:.0f}s",
    )


def test_07_budget_finiteness():
    t0 = time.time()
    M = np.array([[0.0, 0.9], [0.9, 0.0]])
    gp = build_graph_pair(M, M)
    s1 = S1Params(
        a1=0.4, a2=0.4, a3=1.0, a4=4e-5,
        p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
        p_zeta=(0.1,) * 2, p_eta=(0.1,) * 2,
    )
    eps4 = epsilon(sensitivity_trace(gp, s1, 1.0, 10**4), s1, 10**4).eps_max
    eps5 = epsilon(sensitivity_trace(gp, s1, 1.0, 10**5), s1, 10**5).eps_max
    decaying_ok = (eps5 - eps4) < 0.01 * eps4

    s2 = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.93,) * 2, p_eta=(0.93,) * 2)
    eps_by_K = [epsilon(sensitivity_trace(gp, s2, 1.0, K), s2, K).eps_max for K in range(1, 401)]
    increases = [k for k in range(len(eps_by_K) - 1) if eps_by_K[k + 1] > eps_by_K[k]]
    turnover = (increases[-1] + 1) if increases else 0
    tail = eps_by_K[turnover:]
    geometric_ok = turnover < 120 and all(b < a for a, b in zip(tail, tail[1:]))
    elapsed = time.time() - t0
    ok = decaying_ok and geometric_ok and elapsed < 60
    report(
        7, "budget settles over horizons", ok,
        f"eps(1e5)-eps(1e4) = {eps5 - eps4:.3e} vs 1% = {0.01 * eps4:.3e}; "
        f"monotone decrease after K = {turnover}, {elapsed:.1f}s",
    )


def test_08_contraction_certificate():
    t0 = time.time()
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 50:
        gp = random_rooted_pair(rng)
        sc = spectral_constants(gp)
        L = float(rng.uniform(1.2, 6.0))
        mu = float(rng.uniform(0.05, 1.0)) * L
        scheme = admissible_s2(
            sc, L, mu,
            frac=float(rng.uniform(0.3, 0.98)),
            p_m=float(rng.uniform(1.01, 1.5)),
            p_noise=float(rng.uniform(0.5, 0.99)),
        )
        if not validate_s2(scheme, sc, L, mu).overall:
            continue
        checked += 1
        model = build_model(sc, scheme, ObjectiveConstants(L, mu, 1.0), K=20, d=8)
        con = contraction_check(model)
        cert = certificate_check(model)
        if not (con.contracts and cert.ok):
            report(8, "drift matrix contraction certificate", False,
                   f"set {checked}: rho={con.rho:.6f}, cert={cert.ok}")
    elapsed = time.time() - t0
    report(8, "drift matrix contraction certificate", elapsed < 60,
           f"50 admissible sets contract with certificate, {elapsed:.1f}s")


def test_09_recursion_dominance(quad_instance):
    t0 = time.time()
    gp, sc, obj = quad_instance
    x_center = np.full(10, 3.0 / math.sqrt(10))
    consts = measured_constants(obj, x_center, spread=1.0)
    scheme = admissible_s2(sc, consts.L1_smooth, consts.mu, frac=0.8, p_m=1.008, p_noise=0.93)
    assert validate_s2(scheme, sc, consts.L1_smooth, consts.mu).overall
    x0 = np.tile(x_center, (5, 1)) + np.linspace(-0.5, 0.5, 50).reshape(5, 10)
    ens = run_ensemble(gp, scheme, obj, K=200, seeds=range(100, 300), x0=x0, sc=sc)
    model = build_model(sc, scheme, consts, K=200, d=10)
    rep = dominance_check(model, ens.mean_v, ens.se_v, ens.n_runs)
    elapsed = time.time() - t0
    ok = rep.pass_rate >= 0.99
    report(
        9, "ensemble dominated by drift recursion", ok,
        f"pass rate {rep.pass_rate:.4f} over {rep.checked} checks, {elapsed:.0f}s",
    )


def test_10_micro_dp():
    t0 = time.time()
    M = np.array([[0.0, 0.8], [0.8, 0.0]])
    gp = build_graph_pair(M, M)
    # small-amplitude samples keep the swap constant C, and hence the budget,
    # small enough that the exp(eps) ceiling is actually informative
    base = np.array([0.020, -0.030, 0.010, 0.040, -0.020, 0.030])[:, None]
    ds = [make_dataset(0, base), make_dataset(1, -base)]
    obj = make_quadratic(np.array([[0.6]]), np.array([0.3]), 2, ds)
    alt = list(ds)
    samples = base.copy()
    samples[2, 0] = -0.045
    alt[0] = make_dataset(0, samples)
    scheme = S2Params(alpha=0.2, beta=0.2, gamma=0.1, p_m=1.3, p_zeta=(0.8,) * 2, p_eta=(0.8,) * 2)
    rep = micro_dp_check(scheme, gp, obj, list(ds), alt, K=2, trials=10**6, seed=2024)
    elapsed = time.time() - t0
    ok = rep.passed and rep.boxes_tested >= 30 and rep.eps < 1.5
    report(
        10, "output distribution ratio within budget", ok,
        f"eps {rep.eps:.3f}, worst ratio {rep.worst_ratio:.4f} <= allowance "
        f"{rep.worst_allowance:.4f}, {rep.boxes_tested} boxes, {elapsed:.0f}s",
    )


def test_11_oracle_complexity(quad_instance):
    t0 = time.time()
    gp, sc, obj = quad_instance
    scheme = admissible_s2(sc, obj.L1_smooth, obj.mu, frac=0.98, p_m=1.002, p_noise=0.93)
    assert validate_s2(scheme, sc, obj.L1_smooth, obj.mu).overall
    finals = {}
    for K in (150, 200, 250, 300):
        ens = run_ensemble(gp, scheme, obj, K, seeds=range(7000, 7030), sc=sc)
        finals[K] = ens.mean_final_grad
    res = suboptimal_horizon(finals, phi=0.02, scheme=scheme)
    elapsed = time.time() - t0
    ok = res.reached and 10**1.5 <= res.oracle_count <= 10**3
    report(
        11, "sample count to reach 0.02", ok,
        f"horizon {res.horizon}, per-agent samples {res.oracle_count}, {elapsed:.0f}s",
    )
