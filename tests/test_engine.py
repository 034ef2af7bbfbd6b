import dataclasses
import math
import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dpgt import engine
from dpgt.engine import (
    ConfigError,
    DivergenceError,
    compact_step,
    draw_x0,
    initialize,
    keyed_generator,
    laplace_vector,
    noise,
    perturb,
    run,
    run_ensemble,
    run_horizons,
    sample_indices,
    step,
    update,
)
from dpgt.graphs import build_graph_pair, spectral_constants
from dpgt.objectives import (
    generate_logistic_datasets,
    generate_quadratic_datasets,
    generate_trig_datasets,
    make_logistic,
    make_quadratic,
    make_trig,
)
from dpgt.schemes import Rates, S1Params, S2Params, rates_at


def five_node_pair(seed=7):
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.15, 0.25, (5, 5))
    np.fill_diagonal(C, 0.0)
    return build_graph_pair(R, C)


def quad_objective(n=5, d=4, D=40, seed=42, scale=1.0):
    ds = generate_quadratic_datasets(n, D, seed)
    return make_quadratic(scale * np.eye(d), np.full(d, 1.0), n, ds)


def s2(n=5, **kw):
    base = dict(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.002, p_zeta=(0.93,) * n, p_eta=(0.93,) * n)
    base.update(kw)
    return S2Params(**base)


def s1(n=5, **kw):
    base = dict(
        a1=0.05, a2=0.4, a3=2.4, a4=4e-3, p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
        p_zeta=(0.1,) * n, p_eta=(0.1,) * n,
    )
    base.update(kw)
    return S1Params(**base)


def family_objective(kind, n=5):
    if kind == "quadratic":
        return quad_objective(n=n, d=4, D=40)
    if kind == "trig":
        return make_trig(n, generate_trig_datasets(n, 40, seed=3))
    return make_logistic(n, generate_logistic_datasets(n, 30, dim=3, seed=4))


DIVERGENCE_FIELDS = ("variable", "k", "agent", "magnitude", "seed")


def one(seed, agent, k, role, draw):
    """``draw`` applied to the keyed generator of one seed."""
    (got,) = keyed_generator([seed], agent, k, role, draw)
    return got


def laplace4(gen):
    return gen.laplace(0, 1, 4)


class TestLaplace:
    def test_zero_scale_vector_is_exact_zero(self):
        assert np.array_equal(laplace_vector([1], 0, 0, 1, 8, 0.0), np.zeros((1, 8)))


class TestKeyedStreams:
    def test_same_key_same_draws_any_order(self):
        a = one(9, 2, 5, 1, laplace4)
        _ = one(9, 3, 5, 1, laplace4)  # interleaved other stream
        b = one(9, 2, 5, 1, laplace4)
        assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=hst.integers(0, 2**70),
        agent=hst.integers(0, 2**16 - 1),
        k=hst.integers(0, 2**40 - 1),
        role=hst.integers(0, 2**8 - 1),
        before=hst.sampled_from(["nothing", "random", "integers", "permutation"]),
        size=hst.integers(1, 9),
    )
    def test_rekeyed_equals_fresh_generator(self, seed, agent, k, role, before, size):
        # Whatever the shared generator drew last (a partly used buffer, a
        # spare uint32 from integers), a re-keyed draw equals a fresh stream's.
        word = (agent << 48) | (role << 40) | k
        for draw in (
            lambda g: g.random(size),
            lambda g: g.laplace(0.0, 0.7, size),
            lambda g: g.permutation(size + 3),
        ):
            def prior(gen):
                if before == "random":
                    gen.random(size)
                elif before == "integers":
                    gen.integers(0, 10, size=size, dtype=np.int32)
                elif before == "permutation":
                    gen.permutation(size)

            one(seed + 1, (agent + 1) % 2**16, k, role, prior)
            got = one(seed, agent, k, role, draw)
            # A uint64 array: a plain list with a word >= 2**63 would pass through float64.
            key = np.array([seed % 2**64, word], dtype=np.uint64)
            want = draw(np.random.Generator(np.random.Philox(key=key)))
            assert np.array_equal(got, want)

    def test_threads_interleaving_keep_their_own_streams(self):
        # Each thread re-keys, waits until the other has re-keyed too, then
        # draws: a generator shared across threads would give it the other's stream.
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def worker(seed):
            got, want = [], []

            def draw(gen):
                barrier.wait()
                return gen.random(5)

            for k in range(25):
                got.append(one(seed, 3, k, 2, draw))
                barrier.wait()
                key = np.array([seed, (3 << 48) | (2 << 40) | k], dtype=np.uint64)
                want.append(np.random.Generator(np.random.Philox(key=key)).random(5))
            results[seed] = (got, want)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (5, 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert sorted(results) == [5, 6]
        for got, want in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_distinct_keys_decorrelated(self):
        a = one(9, 2, 5, 1, lambda gen: gen.laplace(0, 1, 1000))
        b = one(9, 2, 6, 1, lambda gen: gen.laplace(0, 1, 1000))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_key_range_guards(self):
        with pytest.raises(ConfigError):
            one(1, -1, 0, 0, laplace4)
        with pytest.raises(ConfigError):
            one(1, 0, 2**40, 0, laplace4)


class TestSampling:
    def test_distinct_and_in_range(self):
        for k in range(20):
            (idx,) = sample_indices([3], 1, k, 30, 7)
            assert len(np.unique(idx)) == 7
            assert idx.min() >= 0 and idx.max() < 30

    def test_full_batch_is_permutation(self):
        (idx,) = sample_indices([3], 0, 0, 12, 12)
        assert sorted(idx.tolist()) == list(range(12))

    def test_inclusion_frequencies_uniform(self):
        D, m, trials = 20, 6, 4000
        counts = np.zeros(D)
        for k in range(trials):
            counts[sample_indices([77], 0, k, D, m)[0]] += 1
        p = m / D
        se = math.sqrt(p * (1 - p) / trials)
        assert np.abs(counts / trials - p).max() <= 3.5 * se

    def test_bounds_guard(self):
        with pytest.raises(ConfigError):
            sample_indices([0], 0, 0, 5, 6)


class TestPerturb:
    def test_zero_scales_identity(self):
        gp = five_node_pair()
        obj = quad_objective()
        rates = dataclasses.replace(rates_at(s2(), 10), noise_off=True)
        st = initialize(gp, (rates,), obj, seeds=[1])
        xb, yb = perturb(st, (rates,), 0)
        assert np.array_equal(xb, st.x)
        assert np.array_equal(yb, st.y)

    def test_noise_power_bound(self):
        # total perturbation power stays below 2 n d max(scale)^2
        gp = five_node_pair()
        obj = quad_objective()
        rates = rates_at(s2(p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5), 3)
        st = initialize(gp, (rates,), obj, seeds=[1])
        _, n, d = st.x.shape
        smax2 = max(rates.sigma_cols(0)[0]) ** 2
        powers = []
        for rep in range(4000):
            st2 = dataclasses.replace(st, seeds=(rep,))
            xb, _ = perturb(st2, (rates,), 0)
            powers.append(((xb - st.x) ** 2).sum())
        mean_power = np.mean(powers)
        assert mean_power <= 2 * n * d * smax2 * 1.05
        # all agents share the same scale here, so the bound is tight
        assert mean_power == pytest.approx(2 * n * d * smax2, rel=0.1)

    def test_noise_depends_on_key_not_call_order(self):
        gp = five_node_pair()
        obj = quad_objective()
        rates = rates_at(s2(), 5)
        st = initialize(gp, (rates,), obj, seeds=[4])
        xb1, yb1 = perturb(st, (rates,), 2)
        xb2, yb2 = perturb(st, (rates,), 2)
        assert np.array_equal(xb1, xb2) and np.array_equal(yb1, yb2)


class TestStep:
    def test_single_agent_reduces_to_centralized_sgd(self):
        # one agent, no links, zero noise, full batch: x+ = x - gamma * grad f
        ds = generate_quadratic_datasets(1, 2, 3)
        obj = make_quadratic(np.eye(2), np.array([1.0, 2.0]), 1, ds)
        gp = build_graph_pair(np.zeros((1, 1)), np.zeros((1, 1)))
        scheme = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.0, p_zeta=(0.9,), p_eta=(0.9,))
        rates = dataclasses.replace(rates_at(scheme, 0), noise_off=True)
        assert rates.m_int == 2  # full batch
        st = initialize(gp, (rates,), obj, seeds=[2], x0=np.array([[3.0, -1.0]]))
        nxt = step(st, gp, (rates,), obj)
        expect = st.x[0, 0] - 0.05 * st.y[0, 0]
        assert np.allclose(nxt.x[0, 0], expect, atol=1e-15)
        full_batch = obj.grad_batch(st.x[0, 0], obj.datasets[0].samples).mean(axis=0)
        assert np.allclose(st.y[0, 0], full_batch, atol=1e-15)

    def test_agentwise_equals_stacked_form(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            gp = five_node_pair(seed=trial)
            obj = quad_objective(seed=trial)
            scheme = s2(p_zeta=(0.95,) * 5, p_eta=(0.95,) * 5)
            rates = rates_at(scheme, 30)
            st_a = initialize(gp, (rates,), obj, seeds=[100 + trial])
            st_b = st_a
            for _ in range(30):
                st_a = step(st_a, gp, (rates,), obj)
                st_b = compact_step(st_b, gp, rates, obj)
                assert np.abs(st_a.x - st_b.x).max() <= 1e-12
                assert np.abs(st_a.y - st_b.y).max() <= 1e-12

    def test_divergence_guard_fires(self):
        gp = five_node_pair()
        obj = quad_objective()
        bad = s2(gamma=900.0)
        with pytest.raises(DivergenceError):
            run(gp, bad, obj, K=200, seed=0)

    def test_divergence_error_locates_the_largest_entry(self):
        arr = np.zeros((2, 5, 3))
        arr[1, 3, 2] = -2e12
        with pytest.raises(DivergenceError) as caught:
            engine._guard("tracking", arr, 7)
        err = caught.value
        assert [getattr(err, a) for a in DIVERGENCE_FIELDS] == ["tracking", 7, 3, 2e12, None]
        arr[0, 4, 0] = np.nan  # NaN counts as the largest
        with pytest.raises(DivergenceError) as caught:
            engine._guard("state", arr, 2)
        assert caught.value.agent == 4 and math.isnan(caught.value.magnitude)

    def test_divergence_error_survives_pickling(self):
        with pytest.raises(DivergenceError) as caught:
            run(five_node_pair(), s2(gamma=900.0), quad_objective(), K=200, seed=3)
        err = caught.value
        assert err.seed == 3 and err.variable in ("state", "tracking") and 0 <= err.agent < 5
        assert "seed 3" in str(err) and f"agent {err.agent}" in str(err)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is DivergenceError
        assert [getattr(clone, a) for a in DIVERGENCE_FIELDS] == [getattr(err, a) for a in DIVERGENCE_FIELDS]
        assert str(clone) == str(err)

    def test_compact_step_divergence_guard_fires(self):
        gp = five_node_pair()
        obj = quad_objective()
        rates = rates_at(s2(gamma=900.0), 200)
        st = initialize(gp, (rates,), obj, seeds=[0])
        with pytest.raises(DivergenceError):
            for _ in range(201):
                st = compact_step(st, gp, rates, obj)

    @pytest.mark.parametrize("d", [1, 4, 10])
    def test_update_on_a_batch_equals_separate_calls(self, d):
        # Agents sit on axis -2, so an (S, n, d) batch is S independent runs.
        gp = five_node_pair()
        rates = rates_at(s2(), 10)
        rng = np.random.default_rng(11)
        n = gp.n

        def grad_at(x_next):
            return np.sin(x_next) + 0.5 * x_next

        for S in (1, 7, 300):
            x, y, g, xb, yb = (rng.normal(size=(S, n, d)) for _ in range(5))
            batched = update(x, y, g, xb, yb, grad_at, (rates,), gp, 3)
            for s in range(S):
                single = update(x[s], y[s], g[s], xb[s], yb[s], grad_at, (rates,), gp, 3)
                for got, want in zip(batched, single):
                    assert got[s].tobytes() == want.tobytes()


    def test_update_with_one_schedule_per_group_equals_separate_calls(self):
        # Lanes g*S .. g*S + S - 1 step with group g's a, b and c.
        gp = five_node_pair()
        groups = tuple(rates_at(s1(), K) for K in (30, 12, 0))
        assert len({(r.alpha, r.beta, r.gamma) for r in groups}) == 3
        rng = np.random.default_rng(12)
        S, n, d = 4, gp.n, 3
        x, y, g, xb, yb = (rng.normal(size=(3 * S, n, d)) for _ in range(5))
        swept = update(x, y, g, xb, yb, np.sin, groups, gp, 3)
        for j, r in enumerate(groups):
            lanes = slice(j * S, (j + 1) * S)
            single = update(x[lanes], y[lanes], g[lanes], xb[lanes], yb[lanes], np.sin, (r,), gp, 3)
            for got, want in zip(swept, single):
                assert got[lanes].tobytes() == want.tobytes()


class TestRun:
    def test_minimal_horizon_single_record(self):
        gp = five_node_pair()
        obj = quad_objective()
        traj = run(gp, s2(), obj, K=0, seed=5)
        assert traj.ks.tolist() == [1]
        assert traj.consensus_x.shape == (1,)
        assert traj.final_x.shape == (5, 4)

    def test_tracking_identity_without_noise(self):
        gp = five_node_pair()
        obj = quad_objective(D=60)
        scheme = s2()
        rates = dataclasses.replace(rates_at(scheme, 500), noise_off=True)
        st = initialize(gp, (rates,), obj, seeds=[8])
        for _ in range(500):
            st = step(st, gp, (rates,), obj)
            lhs = st.y.sum(axis=-2)
            rhs = st.g_prev.sum(axis=-2)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_agent_count_mismatch_rejected(self):
        for n_obj in (4, 6):
            with pytest.raises(ConfigError):
                run(five_node_pair(), s2(), quad_objective(n=n_obj), K=3, seed=0)

    def test_sampling_count_exceeding_dataset_rejected(self):
        gp = five_node_pair()
        obj = quad_objective(D=10)
        with pytest.raises(ConfigError):
            run(gp, s2(p_m=1.1), obj, K=100, seed=0)

    def test_fixed_seed_reproducibility(self):
        gp = five_node_pair()
        obj = quad_objective()
        a = run(gp, s2(), obj, K=40, seed=21)
        b = run(gp, s2(), obj, K=40, seed=21)
        assert np.array_equal(a.final_x, b.final_x)
        assert np.array_equal(a.grad_norm_sq, b.grad_norm_sq)

    def test_update_order_independence(self):
        # stepping agents one at a time, in any order, from the same broadcast
        # snapshot gives identical states (noise is keyed, not sequential);
        # the vectorized engine matches up to BLAS summation order
        gp = five_node_pair()
        obj = quad_objective()
        scheme = s2(p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
        rates = rates_at(scheme, 10)

        def agentwise(st, order):
            (xb,), (yb,) = perturb(st, (rates,), st.k)
            (x,), (y,), (g,) = st.x, st.y, st.g_prev
            x_next = np.empty_like(x)
            g_next = np.empty_like(g)
            y_next = np.empty_like(y)
            for i in order:
                row = gp.R[i].sum()
                col = gp.C[:, i].sum()
                x_next[i] = (1 - rates.alpha * row) * x[i] + rates.alpha * (
                    gp.R[i] @ xb
                ) - rates.gamma * y[i]
                (idx,) = sample_indices(st.seeds, i, st.k + 1, obj.datasets[i].size, rates.m_int)
                g_next[i] = obj.grad_batch(x_next[i], obj.datasets[i].samples[idx]).mean(axis=0)
                y_next[i] = (1 - rates.beta * col) * y[i] + rates.beta * (
                    gp.C[i] @ yb
                ) + g_next[i] - g[i]
            return x_next, y_next

        st = initialize(gp, (rates,), obj, seeds=[3])
        rng = np.random.default_rng(0)
        for _ in range(10):
            fwd = agentwise(st, range(gp.n))
            for _ in range(3):
                perm = rng.permutation(gp.n)
                shuffled = agentwise(st, perm)
                assert np.array_equal(fwd[0], shuffled[0])
                assert np.array_equal(fwd[1], shuffled[1])
            ref = step(st, gp, (rates,), obj)
            scale = max(1.0, np.abs(ref.x).max(), np.abs(ref.y).max())
            assert np.abs(ref.x[0] - fwd[0]).max() <= 1e-12 * scale
            assert np.abs(ref.y[0] - fwd[1]).max() <= 1e-12 * scale
            st = ref

    def test_zero_noise_run_converges_on_network(self):
        gp = five_node_pair()
        obj = quad_objective(D=60)
        traj = run(gp, s2(gamma=0.03), obj, K=400, seed=11, noise_off=True)
        assert traj.gap[-1] < traj.v[0, 2]
        # consensus trend: late average well below early average
        assert traj.consensus_x[-50:].mean() < 0.2 * traj.consensus_x[:50].mean()

    def test_single_agent_linear_gap_decay(self):
        ds = generate_quadratic_datasets(1, 10, 3)
        obj = make_quadratic(np.eye(2), np.array([1.0, 2.0]), 1, ds)
        gp = build_graph_pair(np.zeros((1, 1)), np.zeros((1, 1)))
        # polynomial schedule with a4 = D - 1, p_m = 0 keeps the batch full
        scheme = S1Params(
            a1=0.01, a2=0.01, a3=0.4 * 61.0**0.997, a4=9.0,
            p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=0.0,
            p_zeta=(0.1,), p_eta=(0.1,),
        )
        rates = rates_at(scheme, 60)
        assert rates.m_int == 10
        mu_true = 0.5  # smallest Hessian eigenvalue of the least-squares part
        traj = run(gp, scheme, obj, K=60, seed=2, noise_off=True)
        gaps = traj.v[:, 2]
        for a, b in zip(gaps[:-1], gaps[1:]):
            if a < 1e-18:
                break
            assert b / a <= 1 - rates.gamma * mu_true / 2 + 1e-9


def no_fork(*args, **kwargs):
    raise AssertionError("ensemble workers were forked")


def spy_forks(monkeypatch) -> list:
    """Record the seed blocks of every forked run that run_ensemble starts."""
    calls = []
    real = engine._run_forked

    def spy(fn, blocks):
        calls.append([list(b) for b in blocks])
        return real(fn, blocks)

    monkeypatch.setattr(engine, "_run_forked", spy)
    return calls


def pool_on(monkeypatch, cores: int = 2) -> None:
    """Give run_ensemble ``cores`` cores and make every ensemble large enough to fork for."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(engine, "_POOL_MIN_S", 0.0)


def fail_batches(monkeypatch) -> None:
    """Make every chunk fail, so that its seeds rerun through ``engine.run``."""

    def failing(gp, groups, obj, seeds, x0, sc):
        raise RuntimeError("batched chunk failed")

    monkeypatch.setattr(engine, "_run_chunk", failing)


def spy_batches(monkeypatch) -> list:
    """Record the seeds of every chunk that runs in this process, run's one-seed chunks included."""
    calls = []
    real = engine._run_chunk

    def spy(gp, groups, obj, seeds, x0, sc):
        calls.append(list(seeds))
        return real(gp, groups, obj, seeds, x0, sc)

    monkeypatch.setattr(engine, "_run_chunk", spy)
    return calls


def spy_runs(monkeypatch) -> list:
    """Record the seed of every ``engine.run`` call that run_ensemble makes in this process."""
    calls = []
    real = engine.run

    def spy(gp, scheme, obj, K, seed, **kw):
        calls.append(seed)
        return real(gp, scheme, obj, K, seed, **kw)

    monkeypatch.setattr(engine, "run", spy)
    return calls


def merge_like_run_ensemble(trajs) -> dict:
    """Every field and property of run_ensemble's result, from separate runs merged in order."""
    grad = np.stack([t.grad_norm_sq for t in trajs])
    vs = np.stack([t.v for t in trajs])
    finals = np.stack([t.grad_norm_sq[-1] for t in trajs])
    R = len(trajs)
    return {
        "K": trajs[0].K,
        "n_runs": R,
        "seeds": tuple(t.seed for t in trajs),
        "mean_consensus_x": np.mean([t.consensus_x for t in trajs], axis=0),
        "mean_consensus_y": np.mean([t.consensus_y for t in trajs], axis=0),
        "mean_gap": np.mean([t.gap for t in trajs], axis=0),
        "mean_grad_norm_sq": grad.mean(axis=0),
        "var_grad_norm_sq": grad.var(axis=0, ddof=1),
        "mean_v": vs.mean(axis=0),
        "se_v": vs.std(axis=0, ddof=1) / math.sqrt(R),
        "mean_final_grad": finals.mean(axis=0),
        "se_final_grad": finals.std(axis=0, ddof=1) / math.sqrt(R),
        "samples_cum": trajs[0].samples_cum,
    }


def assert_equal_results(got, want: dict) -> None:
    assert {f.name for f in dataclasses.fields(got)} <= want.keys()
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value), name


def log_seed(path, seed) -> None:
    with open(path, "a") as f:
        f.write(f"{seed}\n")


class TestEnsemble:
    def test_single_run_matches(self):
        gp = five_node_pair()
        obj = quad_objective()
        ens = run_ensemble(gp, s2(), obj, K=20, seeds=[9])
        traj = run(gp, s2(), obj, K=20, seed=9)
        assert np.allclose(ens.mean_final_grad, traj.grad_norm_sq[-1])
        assert np.allclose(ens.mean_v, traj.v)

    def test_deterministic_runs_have_zero_variance(self):
        gp = five_node_pair()
        obj = quad_objective()
        ens = run_ensemble(gp, s2(), obj, K=15, seeds=[1, 1, 1], noise_off=True)
        assert np.allclose(ens.var_grad_norm_sq, 0.0)
        assert np.allclose(ens.se_v, 0.0)

    def test_disjoint_seed_blocks_agree_within_two_se(self):
        gp = five_node_pair()
        obj = quad_objective(D=60)
        scheme = s2(p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
        a = run_ensemble(gp, scheme, obj, K=60, seeds=range(0, 100))
        b = run_ensemble(gp, scheme, obj, K=60, seeds=range(100, 200))
        se = np.hypot(a.se_final_grad, b.se_final_grad)
        assert np.all(np.abs(a.mean_final_grad - b.mean_final_grad) <= 2.5 * se + 1e-12)

    def test_pooled_run_matches_per_seed_runs(self, monkeypatch):
        gp = five_node_pair()
        obj = quad_objective()
        seeds = [3, 8, 21, 5, 13]
        forks = spy_forks(monkeypatch)
        pool_on(monkeypatch)
        pooled = run_ensemble(gp, s2(), obj, K=6, seeds=seeds)
        assert forks == [[[3, 8], [21, 5, 13]]]  # contiguous blocks, in seed order
        assert_equal_results(pooled, merge_like_run_ensemble([run(gp, s2(), obj, K=6, seed=s) for s in seeds]))

    def test_more_workers_than_cores(self, monkeypatch):
        # Four workers, whatever the host has, share the inputs copy-on-write.
        gp = five_node_pair()
        obj = quad_objective()
        forks = spy_forks(monkeypatch)
        pool_on(monkeypatch, cores=4)
        pooled = run_ensemble(gp, s2(), obj, K=4, seeds=range(6))
        assert forks == [[[0], [1, 2], [3], [4, 5]]]
        assert_equal_results(pooled, merge_like_run_ensemble([run(gp, s2(), obj, K=4, seed=s) for s in range(6)]))

    def test_benchmark_sized_ensemble_builds_a_pool(self, monkeypatch):
        # The shortest full horizon of the ensemble_small benchmark, 20 seeds x
        # K=25 at n=5, d=10, D=200, is estimated above the pool's threshold.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = spy_forks(monkeypatch)
        run_ensemble(five_node_pair(), s2(), quad_objective(d=10, D=200), K=25, seeds=range(20))
        assert forks == [[list(range(10)), list(range(10, 20))]]

    @pytest.mark.parametrize("one_core", ["affinity", "cpu_count"])
    def test_one_core_runs_serially_with_equal_outputs(self, monkeypatch, one_core):
        gp = five_node_pair()
        obj = quad_objective()
        forks = spy_forks(monkeypatch)
        pool_on(monkeypatch)
        pooled = run_ensemble(gp, s2(), obj, K=6, seeds=range(3))
        assert len(forks) == 1
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        if one_core == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:  # platforms without an affinity call fall back to the CPU count
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = run_ensemble(gp, s2(), obj, K=6, seeds=range(3))
        for f in dataclasses.fields(serial):
            assert np.array_equal(getattr(serial, f.name), getattr(pooled, f.name)), f.name

    def test_no_fork_start_method_runs_serially(self, monkeypatch):
        import multiprocessing

        pool_on(monkeypatch)
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(4))

    def test_another_live_thread_runs_serially(self, monkeypatch):
        pool_on(monkeypatch)
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(4))
        finally:
            stop.set()
            other.join()

    def test_daemonic_process_runs_serially(self, monkeypatch):
        import multiprocessing

        pool_on(monkeypatch)
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(4))

    def test_one_seed_never_builds_a_pool(self, monkeypatch):
        pool_on(monkeypatch)
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=[4])

    def test_self_test_shapes_never_batch(self, monkeypatch):
        # The self-test's closed-form counts are those of run's per-seed calls:
        # every seed goes through run, as a chunk of one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        runs = spy_runs(monkeypatch)
        batches = spy_batches(monkeypatch)
        gp = five_node_pair()
        for K in (5, 10):
            run_ensemble(gp, s2(), quad_objective(d=10, D=200), K=K, seeds=range(3))
        run_ensemble(gp, s2(), quad_objective(d=10, D=50_000), K=8, seeds=[1])
        assert runs == [0, 1, 2, 0, 1, 2, 1]
        assert batches == [[s] for s in runs]
        # The benchmark's full shape does batch, in one chunk on one core.
        batches.clear()
        run_ensemble(gp, s2(), quad_objective(d=10, D=200), K=25, seeds=range(20))
        assert batches == [list(range(20))]
        assert len(runs) == 7

    def test_self_test_shapes_never_build_a_pool(self, monkeypatch):
        # The benchmark self-test pins traced call counts, which calls made in
        # forked workers would miss: 3 seeds x K 5 and 10 at n=5, d=10, D=200,
        # and one seed at D=5e4.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(engine, "_run_forked", no_fork)
        gp = five_node_pair()
        for K in (5, 10):
            run_ensemble(gp, s2(), quad_objective(d=10, D=200), K=K, seeds=range(3))
        run_ensemble(gp, s2(), quad_objective(d=10, D=50_000), K=8, seeds=[1])

    def test_diverging_pooled_ensemble_raises_the_first_seeds_error(self, monkeypatch):
        gp = five_node_pair()
        obj = quad_objective()
        bad = s2(gamma=900.0)
        forks = spy_forks(monkeypatch)
        pool_on(monkeypatch)
        with pytest.raises(DivergenceError) as serial:
            run(gp, bad, obj, K=200, seed=10)
        with pytest.raises(DivergenceError) as pooled:
            run_ensemble(gp, bad, obj, K=200, seeds=range(10, 16))
        assert forks == [[[10, 11, 12], [13, 14, 15]]]
        assert pooled.value.seed == 10
        assert [getattr(pooled.value, a) for a in DIVERGENCE_FIELDS] == [
            getattr(serial.value, a) for a in DIVERGENCE_FIELDS
        ]
        assert str(pooled.value) == str(serial.value)

    def test_first_failure_cancels_queued_seeds(self, monkeypatch, tmp_path):
        # Every chunk fails, so the seeds run again one by one, and that loop
        # stops at its first failure: seeds 2-9 never start.
        started = tmp_path / "started"

        def fake_run(gp, scheme, obj, K, seed, **kw):
            log_seed(started, seed)
            if seed in (1, 7):
                raise DivergenceError("state", 1, 0, math.inf, seed)

        monkeypatch.setattr(engine, "run", fake_run)
        fail_batches(monkeypatch)
        pool_on(monkeypatch)
        with pytest.raises(DivergenceError) as caught:
            run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(10))
        assert caught.value.seed == 1
        assert sorted(map(int, started.read_text().split())) == [0, 1]

    def test_later_block_failing_first_raises_the_lowest_seeds_error(self, monkeypatch, tmp_path):
        # Seeds 2 and 4 fail, seed 2 slowly.  Every chunk fails, so the seeds
        # run again one by one, and seed 2's error is raised before seed 4 runs.
        failed = tmp_path / "failed"

        def fake_run(gp, scheme, obj, K, seed, **kw):
            if seed == 2:
                threading.Event().wait(0.3)
            if seed in (2, 4):
                log_seed(failed, seed)
                raise DivergenceError("tracking", 5, seed % 5, 2e12, seed)

        monkeypatch.setattr(engine, "run", fake_run)
        fail_batches(monkeypatch)
        pool_on(monkeypatch)
        with pytest.raises(DivergenceError) as caught:
            run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(6))
        assert failed.read_text().split() == ["2"]
        assert [getattr(caught.value, a) for a in DIVERGENCE_FIELDS] == ["tracking", 5, 2, 2e12, 2]

    def test_worker_dying_in_a_chunk_is_reported(self, monkeypatch):
        # Only an exception in a chunk reruns the seeds one by one: a worker
        # that dies is an error of its own.
        parent = os.getpid()

        def dying(gp, groups, obj, seeds, x0, sc):
            assert os.getpid() != parent, "the seeds ran again in this process"
            os._exit(3)

        monkeypatch.setattr(engine, "_run_chunk", dying)
        pool_on(monkeypatch)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_ensemble(five_node_pair(), s2(), quad_objective(), K=3, seeds=range(4))

    def test_dead_worker_is_reported(self):
        with pytest.raises(RuntimeError, match="exited with code 3"):
            engine._run_forked(lambda block: os._exit(3), [[0], [1]])

    def test_final_error_decreases_across_horizons(self):
        # longer geometric-schedule runs end closer to stationarity
        gp = five_node_pair()
        obj = quad_objective(D=60)
        scheme = s2(gamma=0.02, p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5)
        finals = []
        for K in (40, 120, 360):
            ens = run_ensemble(gp, scheme, obj, K, seeds=range(100, 200))
            finals.append(ens.mean_final_grad.max())
        assert finals[0] > finals[1] > finals[2]


def batch_on(monkeypatch) -> list:
    """One core, every ensemble large: run_ensemble batches in this process; returns the chunk spy."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(engine, "_POOL_MIN_S", 0.0)
    return spy_batches(monkeypatch)


class TestBatchedEnsemble:
    """run_ensemble's batched chunks against run, seed by seed, bit for bit."""

    @pytest.mark.parametrize("variant", ["plain", "x0", "noise_off"])
    @pytest.mark.parametrize("scheme", ["S1", "S2"])
    @pytest.mark.parametrize("kind", ["quadratic", "trig", "logistic"])
    def test_batched_equals_per_seed_runs(self, monkeypatch, kind, scheme, variant):
        gp = five_node_pair()
        obj = family_objective(kind)
        params = s1() if scheme == "S1" else s2()
        K = 24 if kind != "logistic" else 8
        kw = {}
        if variant == "x0":
            kw["x0"] = np.random.default_rng(5).uniform(-1.0, 1.0, (gp.n, obj.dim))
        elif variant == "noise_off":
            kw["noise_off"] = True
        seeds = [4, 17, 2, 9, 30, 11]
        batches = batch_on(monkeypatch)
        got = run_ensemble(gp, params, obj, K, seeds, **kw)
        assert batches == [seeds]
        want = merge_like_run_ensemble([run(gp, params, obj, K, s, **kw) for s in seeds])
        assert_equal_results(got, want)

    @pytest.mark.parametrize("chunk", [1, 7, 15])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_for_any_chunk_and_worker_count(self, monkeypatch, tmp_path, workers, chunk):
        gp = five_node_pair()
        obj = quad_objective(d=10, D=60)
        K, seeds = 30, list(range(40, 55))
        m = rates_at(s1(), K).m_int
        assert m > 1
        monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk * 8 * gp.n * obj.dim * m)
        pool_on(monkeypatch, cores=workers)
        sizes = tmp_path / "sizes"
        real = engine._run_chunk

        def spy(gp, groups, obj, seeds, x0, sc):
            log_seed(sizes, len(seeds))
            return real(gp, groups, obj, seeds, x0, sc)

        monkeypatch.setattr(engine, "_run_chunk", spy)
        got = run_ensemble(gp, s1(), obj, K, seeds)
        blocks = [seeds] if workers == 1 else [seeds[:7], seeds[7:]]
        expected_sizes = [min(chunk, len(b) - i) for b in blocks for i in range(0, len(b), chunk)]
        assert sorted(map(int, sizes.read_text().split())) == sorted(expected_sizes)
        want = merge_like_run_ensemble([run(gp, s1(), obj, K, s) for s in seeds])
        assert_equal_results(got, want)

    def test_one_seed_block_runs_per_seed(self, monkeypatch):
        # A large ensemble's one-seed block is a chunk of one, with run's bits.
        batches = batch_on(monkeypatch)
        got = run_ensemble(five_node_pair(), s1(), quad_objective(), 12, [8])
        assert batches == [[8]]
        want = run(five_node_pair(), s1(), quad_objective(), 12, 8)
        assert np.array_equal(got.mean_v, want.v)
        assert np.array_equal(got.mean_grad_norm_sq, want.grad_norm_sq)

    def test_diverging_batch_raises_the_serial_error(self, monkeypatch):
        gp = five_node_pair()
        obj = quad_objective()
        bad = s2(gamma=900.0)
        with pytest.raises(DivergenceError) as serial:
            run(gp, bad, obj, K=200, seed=12)
        batches = batch_on(monkeypatch)
        with pytest.raises(DivergenceError) as batched:
            run_ensemble(gp, bad, obj, K=200, seeds=range(12, 16))
        assert batches == [[12, 13, 14, 15], [12]]  # the chunk, then run's rerun of seed 12
        assert [getattr(batched.value, a) for a in DIVERGENCE_FIELDS] == [
            getattr(serial.value, a) for a in DIVERGENCE_FIELDS
        ]
        assert str(batched.value) == str(serial.value)

    def test_rejected_inputs_raise_runs_error(self, monkeypatch):
        gp = five_node_pair()
        obj = quad_objective()
        batch_on(monkeypatch)
        with pytest.raises(ConfigError, match="x0 must have shape"):
            run_ensemble(gp, s2(), obj, K=3, seeds=range(3), x0=np.zeros(4))
        with pytest.raises(ConfigError, match="exceeds the smallest dataset"):
            run_ensemble(gp, s2(p_m=2.0), obj, K=10, seeds=range(3))

    @pytest.mark.parametrize("make", [s1, s2])
    @pytest.mark.parametrize("agents", [4, 6])
    def test_scheme_for_another_agent_count_is_refused(self, monkeypatch, make, agents):
        gp, obj = five_node_pair(), quad_objective()
        message = f"the scheme has {agents} agents, the graph pair 5"
        with pytest.raises(ValueError, match=message):
            run(gp, make(n=agents), obj, K=3, seed=0)
        batches = batch_on(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_ensemble(gp, make(n=agents), obj, K=3, seeds=range(40))
        assert batches == []

    def test_squared_norms_square_with_libm_pow(self):
        # As float(np.sqrt(w.dot(w)) ** 2) does: a NumPy scalar's ** 2 is libm's pow.
        v = next(v for v in np.random.default_rng(0).uniform(1.0, 2.0, 100_000).tolist() if np.float64(v) ** 2 != v * v)
        w = np.random.default_rng(1).normal(size=(3, 5, 10))
        w[1] = 0.0
        w[1, 2, 3] = v
        got = engine._squared_norms(w)
        for s in range(3):
            flat = w[s].ravel()
            assert got[s] == float(np.sqrt(flat.dot(flat)) ** 2)
        assert got[1] == np.float64(v) ** 2 != v * v

    @pytest.mark.parametrize("S", [1, 7, 300])
    def test_metrics_on_a_batch_equal_separate_calls(self, S):
        gp = five_node_pair()
        sc = spectral_constants(gp)
        obj = quad_objective(d=10, D=20)
        rng = np.random.default_rng(S)
        x = rng.normal(0.0, 2.0, (S, gp.n, obj.dim))
        y = rng.normal(0.0, 2.0, (S, gp.n, obj.dim))
        x[0, 2] = 0.0
        got = engine._metrics(x, y, sc, obj, obj.F_star)
        for s in range(S):
            want = engine._metrics(x[s], y[s], sc, obj, obj.F_star)
            for g, w in zip(got, want):
                assert np.asarray(g[s]).tobytes() == np.asarray(w, dtype=float).tobytes()


def fixed_scales(zeta, eta) -> Rates:
    """A schedule whose noise scales are zeta and eta at every iteration: exponent 0, factor the scale."""
    flat = (0.0,) * len(zeta)
    return Rates(K=0, alpha=0.0, beta=0.0, gamma=0.0, m=1.0, c=(zeta, eta), q=(flat, flat))


lane_seeds = hst.lists(
    hst.one_of(hst.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 7, 2**70 + 3]), hst.integers(0, 2**70)),
    min_size=1, max_size=4,
)
# Zero rows, scales whose Laplace products are subnormal or flush to zero, and ordinary ones.
lane_scales = hst.one_of(
    hst.just(0.0), hst.sampled_from([5e-324, 1e-310, 2.2e-308, 1e-300]), hst.floats(1e-3, 1e3),
)


def leave_partial_state(before: str) -> None:
    """A keyed draw that leaves the shared generator mid-buffer or with a spare uint32."""
    def draw(gen):
        if before == "partial buffer":
            gen.random(3)
        elif before == "spare uint32":
            gen.integers(0, 10, size=1, dtype=np.int32)

    one(123, 4, 5, 1, draw)


lane_agents = hst.one_of(hst.just(2**16 - 1), hst.integers(0, 2**16 - 1))
lane_ks = hst.one_of(hst.just(2**40 - 1), hst.integers(0, 2**40 - 1))
lane_befores = hst.sampled_from(["nothing", "partial buffer", "spare uint32"])


class TestLaneDraws:
    """Each keyed draw on S lanes against S one-lane calls, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(seeds=lane_seeds, agent=lane_agents, k=lane_ks, role=hst.integers(0, 2**8 - 1), before=lane_befores)
    def test_keyed_generator_lanes_equal_one_lane_calls(self, seeds, agent, k, role, before):
        def draw(gen):
            # Three int32 draws leave a spare uint32 that the next lane must not take.
            return gen.integers(0, 2**31 - 1, size=3, dtype=np.int32).tobytes() + gen.random(2).tobytes()

        want = [one(s, agent, k, role, draw) for s in seeds]
        leave_partial_state(before)
        assert keyed_generator(seeds, agent, k, role, draw) == want

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=lane_seeds, agent=lane_agents, k=lane_ks, d=hst.sampled_from([1, 10]), scale=lane_scales,
        before=lane_befores,
    )
    def test_laplace_vector_lanes_equal_one_lane_calls(self, seeds, agent, k, d, scale, before):
        want = np.concatenate([laplace_vector([s], agent, k, engine.ROLE_ETA, d, scale) for s in seeds])
        leave_partial_state(before)
        got = laplace_vector(seeds, agent, k, engine.ROLE_ETA, d, scale)
        assert got.shape == (len(seeds), d) and got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=lane_seeds, agent=lane_agents, k=lane_ks, D=hst.sampled_from([1, 2, 200, 2**14 + 1]),
        full=hst.booleans(), before=lane_befores,
    )
    def test_index_lanes_equal_sample_indices(self, seeds, agent, k, D, full, before):
        m = D if full else 1
        want = np.concatenate([sample_indices([s], agent, k, D, m) for s in seeds])
        leave_partial_state(before)
        got = sample_indices(seeds, agent, k, D, m)
        assert got.dtype == want.dtype and got.shape == (len(seeds), m)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seeds=lane_seeds, n=hst.integers(1, 4), d=hst.sampled_from([1, 10]), before=lane_befores)
    def test_x0_lanes_equal_one_lane_calls(self, seeds, n, d, before):
        want = np.concatenate([draw_x0([s], n, d) for s in seeds])
        leave_partial_state(before)
        got = draw_x0(seeds, n, d)
        assert got.shape == (len(seeds), n, d) and got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=lane_seeds,
        k=lane_ks,
        d=hst.sampled_from([1, 10]),
        scales=hst.lists(hst.tuples(lane_scales, lane_scales), min_size=1, max_size=3),
        before=lane_befores,
    )
    def test_noise_lanes_equal_one_lane_calls(self, seeds, k, d, scales, before):
        n = len(scales)
        rates = fixed_scales(*zip(*scales))
        want = [np.concatenate(blocks) for blocks in zip(*(noise([s], (rates,), k, n, d) for s in seeds))]
        leave_partial_state(before)
        got = noise(seeds, (rates,), k, n, d)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (len(seeds), n, d) and g.tobytes() == w.tobytes()
        for i, (sz, se) in enumerate(scales):
            for g, scale in ((got[0], sz), (got[1], se)):
                if scale == 0.0:
                    assert not np.signbit(g[:, i]).any() and not g[:, i].any()

    def test_lane_drawn_between_per_seed_draws(self):
        # Lanes drawn between the calls of other keys, each leaving the
        # shared generator with a spare uint32: every lane still draws its own stream.
        seeds = [3, 2**64 - 1, 11]
        got = []
        for s in seeds:
            got += keyed_generator([s], 7, 9, engine.ROLE_SAMPLES, lambda gen: gen.permutation(50))
            one(1, 2, 3, 1, lambda gen: gen.integers(0, 10, size=1, dtype=np.int32))
        want = keyed_generator(seeds, 7, 9, engine.ROLE_SAMPLES, lambda gen: gen.permutation(50))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))

    def test_draws_of_two_keys_taken_in_turn_are_their_own(self):
        # Two keys' draws taken one after the other, the first before the
        # second: each equals its fresh generator's draw, not the other key's.
        first, second = (keyed_generator([1], agent, 0, 1, lambda gen: gen.random(4)) for agent in (0, 1))
        for (got,), agent in ((first, 0), (second, 1)):
            fresh = np.random.Generator(np.random.Philox(key=np.array([1, (agent << 48) | (1 << 40)], dtype=np.uint64)))
            assert got.tobytes() == fresh.random(4).tobytes()
        assert first[0].tobytes() != second[0].tobytes()

    def test_compact_step_lanes_equal_one_lane_states(self):
        gp, obj = five_node_pair(), quad_objective()
        rates = rates_at(s2(p_zeta=(0.9,) * 5, p_eta=(0.9,) * 5), 10)
        seeds = [3, 2**64 - 1, 11]
        lanes = initialize(gp, (rates,), obj, seeds)
        singles = [initialize(gp, (rates,), obj, [s]) for s in seeds]
        for _ in range(6):
            lanes = compact_step(lanes, gp, rates, obj)
            singles = [compact_step(st, gp, rates, obj) for st in singles]
            for name in ("x", "y", "g_prev"):
                want = np.concatenate([getattr(st, name) for st in singles])
                assert getattr(lanes, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("bits, value", [("_KEY_ITER_BITS", 4), ("_KEY_AGENT_BITS", 2)])
    def test_key_range_failure_raises_runs_error(self, monkeypatch, bits, value):
        # Keys beyond a narrowed field: the chunk fails, and the ensemble
        # raises the error run raises at the first such key.
        gp = five_node_pair()
        obj = quad_objective()
        monkeypatch.setattr(engine, bits, value)
        with pytest.raises(ConfigError) as serial:
            run(gp, s2(), obj, K=20, seed=3)
        batches = batch_on(monkeypatch)
        with pytest.raises(ConfigError) as batched:
            run_ensemble(gp, s2(), obj, K=20, seeds=[3, 4, 5])
        assert batches == [[3, 4, 5], [3]]
        assert str(batched.value) == str(serial.value)
        assert "outside key range" in str(serial.value)


def sweep_results(gp, scheme, obj, horizons, seeds, **kw) -> list:
    """``run_ensemble``'s result per horizon, every seed through ``run``: the per-horizon reference of a sweep."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_POOL_MIN_S", math.inf)
        return [run_ensemble(gp, scheme, obj, K, seeds, **kw) for K in horizons]


def assert_same_bits(got, want) -> None:
    """Every field of two ensemble results, byte for byte."""
    for f in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def per_group_noise(seeds, groups, k, n, d) -> tuple[np.ndarray, np.ndarray]:
    """Each group's blocks drawn at its own scales, one keyed draw per positive scale: the reference of ``noise``."""
    zeta, eta = np.zeros((2, len(groups), len(seeds), n, d))
    for g, r in enumerate(groups):
        for role, scales, block in zip((engine.ROLE_ZETA, engine.ROLE_ETA), r.sigma_cols(k), (zeta, eta)):
            for i, scale in enumerate(scales):
                if scale > 0.0:
                    block[g, :, i] = laplace_vector(seeds, i, k, role, d, scale)
    return zeta.reshape(-1, n, d), eta.reshape(-1, n, d)


class TestHorizonSweep:
    """run_horizons' lanes against run_ensemble per horizon, and the shared draws behind them, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 4, 100])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("variant", ["S1", "S2", "noise_off"])
    def test_sweep_equals_per_horizon_ensembles(self, monkeypatch, tmp_path, variant, workers, chunk):
        # Unsorted and repeated horizons; S1's m is 1, 2 and 19 over them, so
        # groups take different prefixes of one index draw.
        gp, obj = five_node_pair(), quad_objective()
        scheme = s1(a4=0.02) if variant == "S1" else s2()
        kw = {"noise_off": True} if variant == "noise_off" else {}
        horizons, seeds = [12, 0, 30, 12, 5], [4, 17, 2, 9, 30, 11]
        distinct = "30-12-5-0"
        m_sum = sum(rates_at(scheme, K).m_int for K in (30, 12, 5, 0))
        monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk * 8 * gp.n * obj.dim * m_sum)
        pool_on(monkeypatch, cores=workers)
        forks = spy_forks(monkeypatch)
        chunks = tmp_path / "chunks"
        real = engine._run_chunk

        def spy(gp, groups, obj, seeds, x0, sc):
            log_seed(chunks, f"{'-'.join(str(r.K) for r in groups)}:{len(seeds)}")
            return real(gp, groups, obj, seeds, x0, sc)

        monkeypatch.setattr(engine, "_run_chunk", spy)
        got = list(run_horizons(gp, scheme, obj, horizons, seeds, **kw))
        assert len(forks) == (1 if workers == 2 else 0)
        blocks = [seeds] if workers == 1 else [seeds[:3], seeds[3:]]
        sizes = [min(chunk, len(b) - i) for b in blocks for i in range(0, len(b), chunk)]
        assert sorted(chunks.read_text().split()) == sorted(f"{distinct}:{size}" for size in sizes)
        monkeypatch.setattr(engine, "_run_chunk", real)
        assert [ens.K for ens in got] == horizons
        for ens, want in zip(got, sweep_results(gp, scheme, obj, horizons, seeds, **kw), strict=True):
            assert_same_bits(ens, want)

    @pytest.mark.parametrize("kind", ["quadratic", "trig", "logistic"])
    def test_chunk_lanes_equal_one_lane_runs(self, kind):
        # Every field of every (horizon, seed) trajectory, final states included.
        gp, obj = five_node_pair(), family_objective(kind)
        scheme = s1(a4=0.02)
        sc = spectral_constants(gp)
        groups = tuple(rates_at(scheme, K) for K in (17, 9, 4, 0))
        seeds = [6, 1, 2**64 + 5]
        got = engine._run_chunk(gp, groups, obj, seeds, None, sc)
        for r, trajs in zip(groups, got, strict=True):
            for s, traj in zip(seeds, trajs, strict=True):
                want = run(gp, scheme, obj, r.K, s, sc=sc)
                for f in dataclasses.fields(want):
                    a, b = np.asarray(getattr(traj, f.name)), np.asarray(getattr(want, f.name))
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (r.K, s, f.name)

    def test_sweep_from_a_given_x0_equals_per_horizon_ensembles(self, monkeypatch):
        gp, obj = five_node_pair(), family_objective("trig")
        x0 = np.random.default_rng(5).uniform(-1.0, 1.0, (gp.n, obj.dim))
        batch_on(monkeypatch)
        got = list(run_horizons(gp, s2(), obj, [7, 3], [5, 6, 7], x0=x0))
        for ens, want in zip(got, sweep_results(gp, s2(), obj, [7, 3], [5, 6, 7], x0=x0), strict=True):
            assert_same_bits(ens, want)

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=lane_seeds, agent=lane_agents, k=lane_ks, d=hst.sampled_from([1, 10]),
        scale=hst.one_of(lane_scales, hst.floats(1e-300, 1e300)),
    )
    def test_laplace_blocks_are_linear_in_scale(self, seeds, agent, k, d, scale):
        want = laplace_vector(seeds, agent, k, engine.ROLE_ZETA, d, scale)
        got = laplace_vector(seeds, agent, k, engine.ROLE_ZETA, d, 1.0) * scale + 0.0
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=lane_seeds, k=lane_ks, d=hst.sampled_from([1, 10]),
        scales=hst.lists(
            hst.lists(hst.tuples(lane_scales, lane_scales), min_size=3, max_size=3), min_size=1, max_size=3,
        ),
    )
    def test_noise_groups_equal_draws_at_each_groups_scales(self, seeds, k, d, scales):
        # Three agents; per group, each agent's (zeta, eta) scale, zero and subnormal ones included.
        groups = tuple(fixed_scales(*zip(*group)) for group in scales)
        got = noise(seeds, groups, k, 3, d)
        for g, w in zip(got, per_group_noise(seeds, groups, k, 3, d), strict=True):
            assert g.shape == (len(groups) * len(seeds), 3, d) and g.tobytes() == w.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        seeds=lane_seeds, agent=lane_agents, k=lane_ks, D=hst.sampled_from([1, 2, 200, 2**14 + 1]),
        data=hst.data(),
    )
    def test_sample_prefixes_are_nested_in_m(self, seeds, agent, k, D, data):
        m_small = data.draw(hst.integers(1, D))
        m_large = data.draw(hst.integers(m_small, D))
        want = sample_indices(seeds, agent, k, D, m_small)
        assert sample_indices(seeds, agent, k, D, m_large)[:, :m_small].tobytes() == want.tobytes()

    def test_self_test_sized_sweep_calls_run_ensemble_per_horizon(self, monkeypatch):
        # The benchmark self-test's closed forms count run_ensemble, run and
        # step per horizon: its 3 seeds x K 5 and 10 at n=5, d=10, D=200 stay
        # a small sweep.  So do 20 seeds x K 5 and 10: neither horizon is
        # large alone, though their sum is.  The full 20 seeds x K 25, 50,
        # 100 sweep as lanes.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        horizons = []
        real = engine.run_ensemble

        def spy(gp, scheme, obj, K, seeds, **kw):
            horizons.append(K)
            return real(gp, scheme, obj, K, seeds, **kw)

        monkeypatch.setattr(engine, "run_ensemble", spy)
        gp, obj = five_node_pair(), quad_objective(d=10, D=200)
        assert [ens.K for ens in run_horizons(gp, s2(), obj, (5, 10), range(3))] == [5, 10]
        assert horizons == [5, 10]
        assert not any(engine._large(obj, K, 20) for K in (5, 10))
        assert engine._large(obj, 5 + 10 + 2, 20)  # the summed steps, 20 x (7 + 12), are large
        assert [ens.K for ens in run_horizons(gp, s2(), obj, (5, 10), range(20))] == [5, 10]
        assert horizons == [5, 10] * 2
        batches = spy_batches(monkeypatch)
        assert [ens.K for ens in run_horizons(gp, s2(), obj, (25, 50, 100), range(20))] == [25, 50, 100]
        assert horizons == [5, 10] * 2
        assert batches == [list(range(20))]

    def test_refused_horizon_raises_after_the_earlier_results(self, monkeypatch):
        gp, obj = five_node_pair(), quad_objective()
        scheme = s2(p_m=1.2)  # m exceeds D = 40 from K = 21 on
        with pytest.raises(ConfigError) as alone:
            run_ensemble(gp, scheme, obj, 30, range(4))
        batches = batch_on(monkeypatch)
        sweep = run_horizons(gp, scheme, obj, [8, 3, 30, 5], range(4))
        assert [next(sweep).K, next(sweep).K] == [8, 3]
        with pytest.raises(ConfigError) as swept:
            next(sweep)
        assert str(swept.value) == str(alone.value)
        assert batches == [[0, 1, 2, 3]] * 2  # one chunk per horizon for K 8 and 3; K 5, after the refusal, never runs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wrong_shape_x0_raises_the_per_horizon_error(self, monkeypatch, workers):
        gp, obj = five_node_pair(), quad_objective()
        with pytest.raises(ConfigError) as per_horizon:
            sweep_results(gp, s2(), obj, [7, 3], range(4), x0=np.zeros(4))
        pool_on(monkeypatch, cores=workers)
        with pytest.raises(ConfigError) as swept:
            next(run_horizons(gp, s2(), obj, [7, 3], range(4), x0=np.zeros(4)))
        assert str(swept.value) == str(per_horizon.value)
        assert "x0 must have shape" in str(swept.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverging_sweep_raises_the_per_horizon_error(self, monkeypatch, workers):
        # gamma = 100 diverges within 30 steps, seed 14 first, at iteration 9;
        # K = 0 does not.  The error is the first failing horizon's lowest
        # seed's, as the per-horizon loop raises it.
        gp, obj = five_node_pair(), quad_objective()
        bad = s2(gamma=100.0)
        seeds = [12, 13, 14, 15]
        with pytest.raises(DivergenceError) as per_horizon:
            for _ in sweep_results(gp, bad, obj, [0, 30], seeds):
                pass
        pool_on(monkeypatch, cores=workers)
        sweep = run_horizons(gp, bad, obj, [0, 30, 60], seeds)
        assert_same_bits(next(sweep), run_ensemble(gp, bad, obj, 0, seeds))
        with pytest.raises(DivergenceError) as swept:
            next(sweep)
        assert per_horizon.value.seed == 12
        assert [getattr(swept.value, a) for a in DIVERGENCE_FIELDS] == [
            getattr(per_horizon.value, a) for a in DIVERGENCE_FIELDS
        ]
        assert str(swept.value) == str(per_horizon.value)


def spy_grad_batch(monkeypatch, obj) -> list:
    """Record the (x, samples) shapes of every grad_batch call of ``obj``'s evaluator."""
    calls = []
    real = obj.family.grad_batch

    def spy(x, xis):
        calls.append((x.shape, xis.shape))
        return real(x, xis)

    monkeypatch.setattr(obj.family, "grad_batch", spy)
    return calls


noise_scales = hst.one_of(hst.just(0.0), lane_scales)


class TestGradBatchCalls:
    """One grad_batch call per live horizon group and step in a chunk, and noise drawn once per live block."""

    def test_chunk_calls_grad_batch_once_per_live_group_per_step(self, monkeypatch):
        gp, obj = five_node_pair(), quad_objective()
        groups = tuple(rates_at(s1(a4=0.1), K) for K in (9, 4, 0))  # m 9, 2 and 1
        seeds = [3, 4, 5]
        calls = spy_grad_batch(monkeypatch, obj)
        engine._run_chunk(gp, groups, obj, seeds, None, spectral_constants(gp))
        S, n, d = len(seeds), gp.n, obj.dim
        want = [
            ((S, n, d), (S, n, r.m_int, 1))
            for k in range(-1, groups[0].K + 1)  # the first batch, then K+1 steps
            for r in groups if r.K >= k
        ]
        assert [m for (_, (_, _, m, _)) in want[:3]] == [9, 2, 1]
        assert calls == want

    def test_one_lane_run_calls_grad_batch_per_agent(self, monkeypatch):
        gp, obj = five_node_pair(), quad_objective()
        scheme, K = s1(a4=0.1), 6
        calls = spy_grad_batch(monkeypatch, obj)
        run(gp, scheme, obj, K, seed=2)
        m = rates_at(scheme, K).m_int
        assert calls == [((obj.dim,), (m, 1))] * gp.n * (K + 2)

    @settings(max_examples=150, deadline=None)
    @given(seeds=lane_seeds, k=lane_ks, n=hst.integers(1, 4), d=hst.sampled_from([1, 3]), data=hst.data())
    def test_noise_equals_per_group_reference_drawing_each_live_block_once(self, seeds, k, n, d, data):
        G = data.draw(hst.integers(1, 4))
        groups = tuple(
            fixed_scales(*(tuple(data.draw(hst.lists(noise_scales, min_size=n, max_size=n))) for _ in "ze"))
            for _ in range(G)
        )
        draws = []
        real = engine.laplace_vector

        def spy(seeds, agent, k, role, d, scale):
            draws.append((agent, role, scale))
            return real(seeds, agent, k, role, d, scale)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "laplace_vector", spy)
            got = noise(seeds, groups, k, n, d)
        for g, w in zip(got, per_group_noise(seeds, groups, k, n, d), strict=True):
            assert g.shape == (G * len(seeds), n, d) and g.tobytes() == w.tobytes()
        live = [
            (i, role, 1.0)
            for role, col in ((engine.ROLE_ZETA, 0), (engine.ROLE_ETA, 1))
            for i in range(n) if any(r.c[col][i] > 0.0 for r in groups)
        ]
        assert draws == live
