import csv
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgt import privacy
from dpgt.engine import DivergenceError, EnsembleResult
from dpgt.experiments import write_trace_csv
from dpgt.graphs import build_graph_pair, spectral_constants
from dpgt.objectives import (
    generate_logistic_datasets,
    generate_quadratic_datasets,
    generate_trig_datasets,
    make_dataset,
    make_logistic,
    make_quadratic,
    make_trig,
)
from dpgt.privacy import (
    AdjacencyError,
    adjacency_constant,
    coupled_pair_run,
    differing_index,
    epsilon,
    micro_dp_check,
    sensitivity_trace,
)
from dpgt.schemes import S1Params, S2Params, check_budget_finiteness, rates_at, validate_s1
from increment_table import increment_table


def replace_sample(ds, index, value):
    samples = ds.samples.copy()
    samples[index] = value
    return make_dataset(ds.agent, samples)


def two_agent_pair(w=1.0):
    M = np.array([[0.0, w], [w, 0.0]])
    return build_graph_pair(M, M)


@pytest.fixture(scope="module")
def quad2():
    ds = generate_quadratic_datasets(2, 20, seed=3)
    return make_quadratic(np.eye(3), np.ones(3), 2, ds), ds


class TestAdjacency:
    def test_identical_datasets_rejected(self, quad2):
        obj, ds = quad2
        with pytest.raises(AdjacencyError):
            adjacency_constant(obj, ds[0], ds[0])

    def test_two_changed_samples_rejected(self, quad2):
        obj, ds = quad2
        alt = replace_sample(replace_sample(ds[0], 0, [9.0]), 1, [8.0])
        with pytest.raises(AdjacencyError):
            adjacency_constant(obj, ds[0], alt)

    def test_bound_formula(self, quad2):
        obj, ds = quad2
        alt = replace_sample(ds[0], 4, [5.0])
        C = adjacency_constant(obj, ds[0], alt)
        norms = np.abs(np.concatenate([ds[0].samples[:, 0], alt.samples[:, 0]]))
        # tau = 1, L2 = 1, d = 3: coefficient (2 + 1) sqrt(3)
        assert C == pytest.approx(3.0 * math.sqrt(3) * norms.max())

    def test_holder_exponent_zero_is_data_free(self):
        ds = generate_trig_datasets(1, 10, seed=0)
        obj = dataclasses.replace(make_trig(1, ds), tau=0.0)
        alt = [replace_sample(ds[0], 2, [4.0])]
        C = adjacency_constant(obj, ds[0], alt[0])
        assert C == pytest.approx(2.0 * math.sqrt(1) * obj.L2_holder)

    def test_empirical_difference_below_bound_on_grid(self, quad2):
        obj, ds = quad2
        alt = replace_sample(ds[0], 4, [5.0])
        xs = np.random.default_rng(0).normal(0, 2, (50, 3))
        # max over the grid of ||g(x, xi) - g(x, xi')||_1 for the swapped sample
        diff = obj.grad_batch(xs, ds[0].samples[None, 4]) - obj.grad_batch(xs, alt.samples[None, 4])
        emp = float(np.abs(diff).sum(axis=-1).max())
        bound = adjacency_constant(obj, ds[0], alt)
        assert 0 < emp <= bound

    def test_differing_index_found(self, quad2):
        _, ds = quad2
        alt = replace_sample(ds[1], 7, [2.5])
        assert differing_index(ds[1], alt) == 7


class TestSensitivityTrace:
    def test_initial_values(self):
        gp = two_agent_pair()
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=3**0.2, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        tr = sensitivity_trace(gp, p, C=1.0, K=5)
        m = rates_at(p, 5).m
        assert np.allclose(tr.dx[:, 0], 0.0)
        assert np.allclose(tr.dy[:, 0], 1.0 / m)

    def test_matches_direct_double_sum(self):
        # 2-agent graph, alpha = beta = 0.1, gamma = 0.05, C = 1, m = 4, K = 5
        gp = two_agent_pair()
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=3**0.2, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        K, C, m = 5, 1.0, 4.0
        assert rates_at(p, K).m == m
        tr = sensitivity_trace(gp, p, C, K)
        qy = abs(1 - 0.1 * 1.0)
        qx = abs(1 - 0.1 * 1.0)
        dy = np.zeros(K + 1)
        dx = np.zeros(K + 1)
        dy[0] = C / m
        for k in range(1, K + 1):
            dy[k] = sum(qy**l * 2 * C / m for l in range(k)) + qy**k * C / m
            dx[k] = 0.05 * sum(qx ** (k - l - 1) * dy[l] for l in range(k))
        assert np.abs(tr.dy[0] - dy).max() <= 1e-10 * dy.max()
        assert np.abs(tr.dx[0] - dx).max() <= 1e-10 * max(dx.max(), 1e-300)

    def test_rolling_equals_double_sum_large_horizon(self):
        rng = np.random.default_rng(4)
        R = rng.uniform(0.1, 0.5, (3, 3))
        C_ = rng.uniform(0.1, 0.5, (3, 3))
        gp = build_graph_pair(R, C_)
        p = S1Params(
            a1=0.3, a2=0.3, a3=1.0, a4=0.5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=1.7, p_zeta=(0.1,) * 3, p_eta=(0.1,) * 3,
        )
        K = 50
        r = rates_at(p, K)
        tr = sensitivity_trace(gp, p, 2.0, K)
        for i in range(3):
            qy = abs(1 - r.beta * gp.col_sums_C[i])
            qx = abs(1 - r.alpha * gp.row_sums_R[i])
            dy = [2.0 / r.m]
            for k in range(1, K + 1):
                dy.append(sum(qy**l * 4.0 / r.m for l in range(k)) + qy**k * 2.0 / r.m)
            dx = [0.0]
            for k in range(1, K + 1):
                dx.append(r.gamma * sum(qx ** (k - l - 1) * dy[l] for l in range(k)))
            assert np.abs(tr.dy[i] - dy).max() <= 1e-10 * max(dy)
            assert np.abs(tr.dx[i] - dx).max() <= 1e-10 * max(max(dx), 1e-300)

    def test_unit_mixing_coefficient_saturates_immediately(self):
        gp = two_agent_pair()
        # beta * col_sum = 1 makes the geometric ratio zero
        p = S2Params(alpha=0.1, beta=1.0, gamma=0.05, p_m=3**0.2, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        tr = sensitivity_trace(gp, p, 1.0, 6)
        m = rates_at(p, 6).m
        assert np.allclose(tr.dy[:, 1:], 2.0 / m)

    def test_geometric_series_cap(self):
        rng = np.random.default_rng(8)
        R = rng.uniform(0.1, 0.4, (4, 4))
        C_ = rng.uniform(0.1, 0.4, (4, 4))
        gp = build_graph_pair(R, C_)
        p = S2Params(alpha=0.2, beta=0.2, gamma=0.05, p_m=1.1, p_zeta=(0.9,) * 4, p_eta=(0.9,) * 4)
        K = 200
        r = rates_at(p, K)
        tr = sensitivity_trace(gp, p, 1.5, K)
        for i in range(4):
            b = r.beta * gp.col_sums_C[i]
            assert 0 < b < 1
            cap = 2 * 1.5 / (r.m * b) + 1.5 / r.m
            assert tr.dy[i].max() <= cap + 1e-12

    @pytest.mark.parametrize("agents", [1, 3])
    def test_scheme_for_another_agent_count_is_refused(self, agents):
        gp = two_agent_pair()
        message = f"the scheme has {agents} agents, the graph pair 2"
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.9,) * agents, p_eta=(0.9,) * agents)
        with pytest.raises(ValueError, match=message):
            sensitivity_trace(gp, p, 1.0, 10)
        fits = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        with pytest.raises(ValueError, match=message):
            epsilon(sensitivity_trace(gp, fits, 1.0, 10), p, 10)

    @pytest.mark.parametrize("C", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_adjacency_constant_must_be_finite_and_positive(self, C):
        # A NaN constant used to give NaN bounds and then a NaN budget.
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        with pytest.raises(ValueError, match="finite and positive"):
            sensitivity_trace(two_agent_pair(), p, C, 10)


class TestEpsilon:
    def test_budget_is_linear_in_inverse_scale(self):
        gp = two_agent_pair()
        K = 40
        base = S1Params(
            a1=0.3, a2=0.3, a3=1.0, a4=0.5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=1.7, p_zeta=(0.1,) * 2, p_eta=(0.1,) * 2,
        )
        tr = sensitivity_trace(gp, base, 1.0, K)
        rep1 = epsilon(tr, base, K)
        # scaling every sensitivity by c scales eps by exactly c
        tr10 = sensitivity_trace(gp, base, 10.0, K)
        rep10 = epsilon(tr10, base, K)
        assert np.allclose(rep10.eps, 10.0 * rep1.eps, rtol=1e-12)

    def test_finiteness_is_checked_once_on_first_access(self):
        gp = two_agent_pair()
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.93,) * 2, p_eta=(0.93,) * 2)
        with mock.patch.object(privacy, "check_budget_finiteness", wraps=check_budget_finiteness) as spy:
            reports = [epsilon(sensitivity_trace(gp, p, 1.0, K), p, K) for K in range(1, 40)]
            assert spy.call_count == 0
            first = reports[0].finiteness
            assert reports[0].finiteness is first and reports[0].tail_order == first.derived["tail_order"]
            assert spy.call_count == 1
        assert first.to_dict() == check_budget_finiteness(p, gp).to_dict()

    def test_scaling_all_scales_divides_budget_exactly(self):
        # under the geometric schedule the scales are p^K for every k, so
        # replacing p by c^(1/K) * p multiplies each scale by exactly c
        gp = two_agent_pair()
        K, c = 25, 3.0
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(0.8,) * 2, p_eta=(0.8,) * 2)
        scaled = S2Params(
            alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2,
            p_zeta=(0.8 * c ** (1 / K),) * 2, p_eta=(0.8 * c ** (1 / K),) * 2,
        )
        tr = sensitivity_trace(gp, p, 1.0, K)
        eps = epsilon(tr, p, K).eps
        eps_scaled = epsilon(tr, scaled, K).eps
        assert np.allclose(eps_scaled, eps / c, rtol=1e-12)

    def test_monotone_decrease_when_scales_grow(self):
        gp = two_agent_pair()
        K = 30
        p_small = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(0.5,) * 2, p_eta=(0.5,) * 2)
        p_large = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(0.9,) * 2, p_eta=(0.9,) * 2)
        tr = sensitivity_trace(gp, p_small, 1.0, K)
        # larger noise bases give larger scales p^K, hence smaller budget
        assert epsilon(tr, p_large, K).eps_max < epsilon(tr, p_small, K).eps_max

    def test_integer_noise_base_is_a_float_scale(self):
        # A document's "p_zeta": [1, 1] gave integer scales, which epsilon's
        # in-place divide could not take.
        gp = two_agent_pair()
        as_int = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(1, 1), p_eta=(0.9, 0.9))
        as_float = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(1.0, 1.0), p_eta=(0.9, 0.9))
        tr = sensitivity_trace(gp, as_float, 1.0, 10)
        assert np.array_equal(epsilon(tr, as_int, 10).eps, epsilon(tr, as_float, 10).eps)

    def test_zero_scale_reports_infinite_budget(self):
        gp = two_agent_pair()
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.2, p_zeta=(1e-9,) * 2, p_eta=(1e-9,) * 2)
        tr = sensitivity_trace(gp, p, 1.0, 3)
        rep = epsilon(tr, p, 3)  # p^K underflows to 0 for huge K; force via tiny base
        assert np.isfinite(rep.eps).all() or np.isinf(rep.eps).any()

    def test_decaying_schedule_budget_settles(self):
        # the total budget at a 10x larger horizon moves by less than 1%
        # of its level (it in fact decreases as the batch grows)
        gp = two_agent_pair(w=0.9)
        p = S1Params(
            a1=0.4, a2=0.4, a3=1.0, a4=4e-5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(0.1,) * 2, p_eta=(0.1,) * 2,
        )
        eps_small = epsilon(sensitivity_trace(gp, p, 1.0, 10**4), p, 10**4).eps_max
        eps_large = epsilon(sensitivity_trace(gp, p, 1.0, 10**5), p, 10**5).eps_max
        assert eps_large - eps_small < 0.01 * eps_small
        assert eps_large < eps_small

    def test_decaying_schedule_tail_follows_tail_order(self):
        # Acceptance criterion 7's pair and S1 scheme: eps_max ~ log(K) / K^e
        # with e = min(state, tracking exponent) = 0.41, so eps_max K^e / log K
        # stays within a factor 2 of its value at K = 1e3.  Without batch
        # growth (a4 = 0) the same exponents are reported, but eps_max grows
        # far out of that band.
        gp = two_agent_pair(w=0.9)
        base = dict(
            a1=0.4, a2=0.4, a3=1.0, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(0.1,) * 2, p_eta=(0.1,) * 2,
        )
        horizons = (10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5)

        def normalized(p):
            derived = check_budget_finiteness(p).derived
            e = min(derived["state_exponent"], derived["tracking_exponent"])
            assert e == pytest.approx(0.41)
            vals = [epsilon(sensitivity_trace(gp, p, 1.0, K), p, K).eps_max * K**e / math.log(K) for K in horizons]
            return np.array(vals) / vals[0]

        growing = normalized(S1Params(a4=4e-5, **base))
        assert ((growing >= 0.5) & (growing <= 2.0)).all(), growing
        assert normalized(S1Params(a4=0.0, **base)).max() > 2.0

    def test_geometric_schedule_budget_eventually_decreasing(self):
        gp = two_agent_pair(w=0.9)
        p = S2Params(alpha=0.1, beta=0.1, gamma=0.05, p_m=1.1, p_zeta=(0.93,) * 2, p_eta=(0.93,) * 2)
        eps_by_K = [epsilon(sensitivity_trace(gp, p, 1.0, K), p, K).eps_max for K in range(1, 301)]
        increases = [k for k in range(len(eps_by_K) - 1) if eps_by_K[k + 1] > eps_by_K[k]]
        assert increases, "budget should rise before the batch growth takes over"
        turnover = increases[-1] + 1
        # strictly decreasing beyond the turnover, which sits near the
        # continuous-model estimate 1 / log(p_m * p) (integer batch jitter
        # delays it somewhat)
        continuous = 1.0 / math.log(1.1 * 0.93)
        assert continuous < turnover < 3 * continuous
        tail = eps_by_K[turnover:]
        assert all(b < a for a, b in zip(tail, tail[1:]))


@st.composite
def rooted_budget_instances(draw):
    """A small pair rooted at agent 0 and an S1 or S2 scheme whose budget stays finite and normal."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = np.zeros((n, n))
    C = np.zeros((n, n))
    for i in range(1, n):  # a tree from agent 0 in each graph
        R[i, rng.integers(0, i)] = rng.uniform(0.1, 1.0)
        C[rng.integers(0, i), i] = rng.uniform(0.1, 1.0)
    extra = rng.random((2, n, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    np.fill_diagonal(extra[0], False)
    np.fill_diagonal(extra[1], False)
    R[extra[0]] = rng.uniform(0.1, 1.0, extra[0].sum())
    C[extra[1]] = rng.uniform(0.1, 1.0, extra[1].sum())
    steps = st.floats(1e-3, 1.0)
    if draw(st.booleans()):
        noise = st.floats(-2.0, 2.0)
        scheme = S1Params(
            a1=draw(steps), a2=draw(steps), a3=draw(steps), a4=draw(st.floats(1e-3, 10.0)),
            p_alpha=draw(st.floats(0.05, 2.0)), p_beta=draw(st.floats(0.05, 2.0)),
            p_gamma=draw(st.floats(0.05, 2.0)), p_m=draw(st.floats(0.0, 3.0)),
            p_zeta=tuple(draw(noise) for _ in range(n)), p_eta=tuple(draw(noise) for _ in range(n)),
        )
    else:
        noise = st.floats(0.5, 0.99)
        scheme = S2Params(
            alpha=draw(steps), beta=draw(steps), gamma=draw(steps), p_m=draw(st.floats(1.0, 3.0)),
            p_zeta=tuple(draw(noise) for _ in range(n)), p_eta=tuple(draw(noise) for _ in range(n)),
        )
    return build_graph_pair(R, C), scheme, draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 200))


class TestBudgetLinearity:
    """The budget is linear in the adjacency constant: exactly so for powers of two."""

    @settings(max_examples=150, deadline=None)
    @given(rooted_budget_instances(), st.integers(-20, 20), st.floats(1e-2, 1e2))
    def test_budget_scales_with_the_adjacency_constant(self, inst, j, factor):
        gp, scheme, C, K = inst
        eps = epsilon(sensitivity_trace(gp, scheme, C, K), scheme, K).eps
        assert np.isfinite(eps).all()
        doubled = epsilon(sensitivity_trace(gp, scheme, 2.0**j * C, K), scheme, K).eps
        assert np.array_equal(doubled, 2.0**j * eps)
        scaled = epsilon(sensitivity_trace(gp, scheme, factor * C, K), scheme, K).eps
        np.testing.assert_allclose(scaled, factor * eps, rtol=1e-12, atol=0.0)

    def test_powers_of_two_on_criterion_5s_scheme(self):
        rng = np.random.default_rng(7)
        R = rng.uniform(0.15, 0.25, (5, 5))
        np.fill_diagonal(R, 0.0)
        Cm = rng.uniform(0.15, 0.25, (5, 5))
        np.fill_diagonal(Cm, 0.0)
        gp = build_graph_pair(R, Cm)
        scheme = S1Params(
            a1=0.05, a2=0.4, a3=2.4, a4=4e-5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(0.1,) * 5, p_eta=(0.1,) * 5,
        )
        K = 2 * 10**4
        eps = epsilon(sensitivity_trace(gp, scheme, 1.0, K), scheme, K).eps
        for j in (-7, 1, 5):
            got = epsilon(sensitivity_trace(gp, scheme, 2.0**j, K), scheme, K).eps
            assert np.array_equal(got, 2.0**j * eps)


def per_row_reference(gp, rates, C, K):
    """dx, dy and the budget increments, one agent and one k at a time, from the recursions and the composition sum."""
    inv_m = 0.0 if not math.isfinite(rates.m) else 1.0 / rates.m
    dx, dy, inc = np.zeros((3, gp.n, K + 1))
    for i in range(gp.n):
        q_x = abs(1.0 - rates.alpha * float(gp.row_sums_R[i]))
        q_y = abs(1.0 - rates.beta * float(gp.col_sums_C[i]))
        x, y = 0.0, C * inv_m
        for k in range(K + 1):
            if k > 0:
                x, y = q_x * x + rates.gamma * y, q_y * y + 2.0 * C * inv_m
            dx[i, k], dy[i, k] = x, y
            total = 0.0
            for sens, r in ((x, 0), (y, 1)):
                scale = 0.0 if rates.noise_off else rates.c[r][i] * (k + 1.0) ** rates.q[r][i]
                total += 0.0 if sens == 0.0 else (sens / scale if scale > 0.0 else math.inf)
            inc[i, k] = total
    return dx, dy, inc


# Per-agent sums drawn from a few values, so that damping pairs and noise
# exponents are often shared between agents and often distinct.
_SUMS = st.sampled_from([0.3, 0.5, 1.0])


def ring_pair(row, col):
    """A ring pair whose row i of R sums to row[i] and whose column i of C sums to col[i]."""
    n = len(row)
    R, Cm = np.zeros((2, n, n))
    for i in range(n):
        R[i, (i + 1) % n] = row[i]
        Cm[(i + 1) % n, i] = col[i]
    return build_graph_pair(R, Cm)


@st.composite
def accountant_case(draw):
    n = draw(st.integers(1, 4))
    row, col = (draw(st.lists(_SUMS, min_size=n, max_size=n)) for _ in range(2))
    gp = ring_pair(row, col)
    if draw(st.booleans()):
        exps = st.sampled_from([0.0, 0.1, 0.5, -0.3])
        scheme = S1Params(
            a1=draw(st.floats(0.05, 1.5)), a2=draw(st.floats(0.05, 1.5)), a3=draw(st.floats(0.01, 2.0)),
            a4=draw(st.sampled_from([0.0, 1e-3, 0.5])), p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
            p_zeta=tuple(draw(st.lists(exps, min_size=n, max_size=n))),
            p_eta=tuple(draw(st.lists(exps, min_size=n, max_size=n))),
        )
    else:
        bases = st.sampled_from([0.2, 0.5, 0.93])
        scheme = S2Params(
            alpha=draw(st.floats(0.05, 1.5)), beta=draw(st.floats(0.05, 1.5)), gamma=draw(st.floats(0.001, 0.5)),
            p_m=1.1, p_zeta=tuple(draw(st.lists(bases, min_size=n, max_size=n))),
            p_eta=tuple(draw(st.lists(bases, min_size=n, max_size=n))),
        )
    return gp, scheme


class TestAccountantAgainstPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(
        case=accountant_case(),
        C=st.floats(0.1, 5.0),
        K=st.integers(0, 60),
        block=st.sampled_from([1, 7, 4096]),
        noise_off=st.booleans(),
    )
    def test_trace_and_budget_equal_the_reference_bit_for_bit(self, case, C, K, block, noise_off):
        gp, scheme = case
        rates = dataclasses.replace(rates_at(scheme, K), noise_off=noise_off)
        with mock.patch.object(privacy, "_BUDGET_BLOCK", block), \
                mock.patch.object(privacy, "rates_at", lambda params, K: rates):
            trace = sensitivity_trace(gp, scheme, C, K)
            budget = epsilon(trace, scheme, K)
        dx, dy, inc = per_row_reference(gp, rates, C, K)
        assert trace.dx.tobytes() == dx.tobytes()
        assert trace.dy.tobytes() == dy.tobytes()
        assert increment_table(budget).tobytes() == inc.tobytes()
        assert budget.eps.tobytes() == inc.sum(axis=1).tobytes()


def streamed_case(n, case, K):
    """(gp, scheme, noise_off) for one agent count and case of TestStreamedAccountant."""
    if case == "overflow":
        # Agent 0's state scale underflows to 0, so its increments are inf wherever dx > 0; every
        # tracking scale is about 1e-307, so each tracking term is about 1e307 and the row sums overflow.
        base = 1e-307 ** (1.0 / K) if K else 0.5
        scheme = S2Params(
            alpha=0.1, beta=0.1, gamma=0.05, p_m=1.0, p_zeta=(1e-200,) + (0.9,) * (n - 1), p_eta=(base,) * n,
        )
        return ring_pair([0.5] * n, [0.7] * n), scheme, False
    if case == "distinct":
        sums = [0.3, 0.5, 1.0, 0.7, 0.9][:n]
        gp, p_zeta, p_eta = ring_pair(sums, sums[::-1]), (0.1, 0.5, -0.3, 0.0, 0.2)[:n], (0.2, 0.1, 0.0, -0.1, 0.3)[:n]
    else:  # "shared" and "noise_off": one damping pair and one exponent for every agent
        gp, p_zeta, p_eta = ring_pair([0.5] * n, [0.5] * n), (0.1,) * n, (0.1,) * n
    scheme = S1Params(
        a1=0.4, a2=0.4, a3=1.0, a4=1e-3, p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=2.0,
        p_zeta=p_zeta, p_eta=p_eta,
    )
    return gp, scheme, case == "noise_off"


class TestStreamedAccountant:
    """Rows and budgets streamed in blocks equal the per-row reference, at and across block edges."""

    @pytest.mark.parametrize("n, case", [
        (1, "shared"), (1, "noise_off"), (1, "overflow"),
        (2, "shared"), (2, "distinct"), (2, "noise_off"), (2, "overflow"),
        (5, "shared"), (5, "distinct"), (5, "overflow"),
    ])
    def test_blocks_keep_the_bits(self, n, case):
        # eps is added up NumPy's pairwise tree, which splits a row longer than 128 and, here,
        # one longer than a block; a change to NumPy's order fails this test.
        B = privacy._block_width(n)
        for length in (1, 127, 128, 129, B - 1, B, B + 1, 3 * B + 17, 10**5):
            K = length - 1
            gp, scheme, noise_off = streamed_case(n, case, K)
            rates = dataclasses.replace(rates_at(scheme, K), noise_off=noise_off)
            with mock.patch.object(privacy, "rates_at", lambda params, K: rates):
                trace = sensitivity_trace(gp, scheme, 1.5, K)
                budget = epsilon(trace, scheme, K)
            dx, dy, inc = per_row_reference(gp, rates, 1.5, K)
            with np.errstate(over="ignore"):
                eps = inc.sum(axis=1)
            assert trace.dx.tobytes() == dx.tobytes() and trace.dy.tobytes() == dy.tobytes(), length
            assert increment_table(budget).tobytes() == inc.tobytes(), length
            assert budget.eps.tobytes() == eps.tobytes(), length
        if case == "overflow":
            assert budget.eps[0] == math.inf and np.isinf(inc[0]).any()

    def test_peak_memory_does_not_grow_with_the_horizon(self):
        # The audit's two-agent S1 budget at K = 2e5, where one (2, K+1) table is 3.2 MB.
        # Holding every row, the accountant peaked at 9.34 MiB on this instance; the cap is 2 MiB.
        gp = two_agent_pair(0.87)
        scheme = S1Params(
            a1=0.4, a2=0.4, a3=1.0, a4=4e-5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(0.1,) * 2, p_eta=(0.1,) * 2,
        )
        K = 2 * 10**5
        cap = 16 * 8 * privacy._BUDGET_BLOCK  # sixteen (n, width) float arrays
        assert 2 * (K + 1) * 8 > cap
        tracemalloc.start()
        try:
            epsilon(sensitivity_trace(gp, scheme, 1.0, K), scheme, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, peak


def trace_rows(ens, eps_cum):
    """The mean-trace rows of ``ens`` written one k at a time, with an ``eps_cum`` column unless it is None."""
    for j in range(ens.K + 1):
        row = [
            j + 1, "mean", f"{ens.mean_consensus_x[j]:.12g}", f"{ens.mean_consensus_y[j]:.12g}",
            f"{ens.mean_grad_norm_sq[j].mean():.12g}", f"{ens.mean_gap[j]:.12g}", int(ens.samples_cum[j]),
        ]
        yield row if eps_cum is None else row + [f"{eps_cum[j]:.12g}"]


class TestStreamedTraceCsv:
    @pytest.mark.parametrize("case", ["distinct", "overflow"])
    def test_eps_cum_streamed_over_blocks_keeps_the_bytes(self, tmp_path, case):
        # Over three blocks and a part, the trace whose eps_cum is streamed from the budget's
        # increment blocks is the file written row by row from the whole table's cumulative
        # maximum, with the table taken from the per-row reference.
        n = 5
        K = 3 * privacy._block_width(n) + 17
        gp, scheme, _ = streamed_case(n, case, K)
        budget = epsilon(sensitivity_trace(gp, scheme, 1.5, K), scheme, K)
        _, _, inc = per_row_reference(gp, rates_at(scheme, K), 1.5, K)
        rng = np.random.default_rng(11)
        ens = EnsembleResult(
            K=K, n_runs=4, seeds=(0, 1, 2, 3), mean_grad_norm_sq=rng.exponential(1.0, (K + 1, n)),
            var_grad_norm_sq=rng.exponential(1.0, (K + 1, n)), mean_v=rng.normal(0.0, 1.0, (K + 2, 3)),
            se_v=rng.exponential(1.0, (K + 2, 3)), samples_cum=7 * np.arange(2, K + 3, dtype=np.int64),
        )
        header = ["k", "agent", "consensus_x", "consensus_y", "grad_norm_sq", "gap", "samples_cum"]
        with np.errstate(invalid="ignore"):
            eps_cum = np.cumsum(inc.max(axis=0))
        for name, report, extra, column in (("noisy", budget, ["eps_cum"], eps_cum), ("baseline", None, [], None)):
            write_trace_csv(tmp_path / f"{name}.csv", ens, report)
            with open(tmp_path / f"{name}_table.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header + extra)
                writer.writerows(trace_rows(ens, column))
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_table.csv").read_bytes(), name
        if case == "overflow":
            assert eps_cum[-1] == math.inf


class TestCoupledRuns:
    def setup_pair(self, change=True, seed=3):
        n = 3
        rng = np.random.default_rng(seed)
        R = rng.uniform(0.1, 0.4, (n, n))
        C_ = rng.uniform(0.1, 0.4, (n, n))
        gp = build_graph_pair(R, C_)
        ds = generate_quadratic_datasets(n, 25, seed=seed)
        obj = make_quadratic(np.eye(3), np.ones(3), n, ds)
        alt = list(ds)
        if change:
            alt[1] = replace_sample(ds[1], 5, [ds[1].samples[5, 0] + 2.0])
        p = S2Params(alpha=0.15, beta=0.15, gamma=0.02, p_m=1.02, p_zeta=(0.9,) * n, p_eta=(0.9,) * n)
        return gp, p, obj, ds, alt

    @pytest.mark.parametrize("agents", [2, 4])
    def test_scheme_for_another_agent_count_is_refused(self, agents):
        gp, p, obj, ds, alt = self.setup_pair()
        other = dataclasses.replace(p, p_zeta=(0.9,) * agents, p_eta=(0.9,) * agents)
        with pytest.raises(ValueError, match=f"the scheme has {agents} agents, the graph pair 3"):
            coupled_pair_run(gp, other, obj, list(ds), alt, K=5, seed=1)

    def test_identical_collections_zero_difference(self):
        gp, p, obj, ds, _ = self.setup_pair(change=False)
        res = coupled_pair_run(gp, p, obj, list(ds), list(ds), K=30, seed=1)
        assert res.dx_measured.max() == 0.0
        assert res.dy_measured.max() == 0.0

    @pytest.mark.parametrize("also_agent_1", [True, False])
    def test_agent_differing_in_two_samples_is_refused(self, also_agent_1):
        gp, p, obj, ds, alt = self.setup_pair(change=also_agent_1)
        alt[0] = replace_sample(replace_sample(ds[0], 0, [9.0]), 1, [8.0])
        with pytest.raises(AdjacencyError, match="datasets differ in 2 samples, need exactly one"):
            coupled_pair_run(gp, p, obj, list(ds), alt, K=5, seed=1)

    def test_sampling_count_beyond_the_integer_range_is_a_value_error(self):
        # As engine.run refuses the scheme: a typed input error naming m, not an OverflowError.
        gp, p, obj, ds, alt = TestMicroDP().make_instance()
        with pytest.raises(ValueError, match=r"^sampling count m=inf exceeds the integer range$"):
            coupled_pair_run(gp, dataclasses.replace(p, p_m=1e300), obj, list(ds), alt, K=5, seed=1)

    def test_measured_differences_below_bounds(self):
        gp, p, obj, ds, alt = self.setup_pair()
        C = adjacency_constant(obj, ds[1], alt[1])
        tr = sensitivity_trace(gp, p, C, 60)
        for seed in range(5):
            res = coupled_pair_run(gp, p, obj, list(ds), alt, K=60, seed=seed)
            assert (res.dx_measured <= tr.dx + 1e-12).all()
            assert (res.dy_measured <= tr.dy + 1e-12).all()

    @staticmethod
    def s1_instance(seed, K):
        """A rooted pair of 2-4 agents, a quadratic of dimension 1-3, an admissible S1 scheme and one swap."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        R, C_ = np.zeros((n, n)), np.zeros((n, n))
        for i in range(1, n):  # spanning trees rooted at agent 0
            R[i, rng.integers(0, i)] = rng.uniform(0.2, 1.0)
            C_[rng.integers(0, i), i] = rng.uniform(0.2, 1.0)
        for _ in range(int(rng.integers(1, 5))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                R[i, j] = rng.uniform(0.1, 1.0)
        gp = build_graph_pair(R, C_)
        sc = spectral_constants(gp)
        ds = generate_quadratic_datasets(n, 30, seed=seed)
        obj = make_quadratic(np.eye(d) * rng.uniform(0.5, 1.2), rng.normal(0, 1, d), n, ds)
        p = S1Params(
            a1=rng.uniform(0.3, 0.9) * sc.alpha_cap, a2=rng.uniform(0.3, 0.9) * sc.beta_cap,
            a3=rng.uniform(0.3, 0.9) * n / (4 * sc.v1_dot_v2 * obj.L1_smooth), a4=0.01,
            p_alpha=0.987, p_beta=0.69, p_gamma=0.997, p_m=1.7, p_zeta=(0.1,) * n, p_eta=(0.1,) * n,
        )
        assert validate_s1(p, sc, obj.L1_smooth).overall
        assert rates_at(p, K).m_int == 6
        agent, l0 = int(rng.integers(0, n)), int(rng.integers(0, 30))
        alt = list(ds)
        alt[agent] = replace_sample(ds[agent], l0, ds[agent].samples[l0] + rng.uniform(0.5, 3.0))
        return gp, p, obj, ds, alt, agent

    def test_s1_measured_differences_below_bounds(self):
        # S1's steps and batch follow the horizon and its noise scales the iteration;
        # ten fixed instances at K = 40, each bound checked entrywise with no tolerance.
        K, worst = 40, 0.0
        for seed in range(10):
            gp, p, obj, ds, alt, agent = self.s1_instance(seed, K)
            tr = sensitivity_trace(gp, p, adjacency_constant(obj, ds[agent], alt[agent]), K)
            res = coupled_pair_run(gp, p, obj, list(ds), alt, K=K, seed=seed)
            assert (res.dx_measured <= tr.dx).all() and (res.dy_measured <= tr.dy).all(), seed
            measured, bound = np.stack([res.dx_measured, res.dy_measured]), np.stack([tr.dx, tr.dy])
            worst = max(worst, float((measured[bound > 0] / bound[bound > 0]).max()))
        print(f"S1 coupled runs: largest measured/bound ratio {worst:.4f} over 10 instances")

    def test_untouched_agents_stay_identical(self):
        gp, p, obj, ds, alt = self.setup_pair()
        res = coupled_pair_run(gp, p, obj, list(ds), alt, K=40, seed=2)
        assert res.dx_measured[0].max() == 0.0
        assert res.dx_measured[2].max() == 0.0
        assert res.dy_measured[0].max() == 0.0

    def test_divergence_names_the_seed(self):
        # As engine.run's error does: the seed, next to the agent, iteration and variable.
        gp, p, obj, ds, alt = self.setup_pair()
        unstable = dataclasses.replace(p, gamma=900.0)
        with pytest.raises(DivergenceError) as caught:
            coupled_pair_run(gp, unstable, obj, list(ds), alt, K=60, seed=7)
        err = caught.value
        assert err.seed == 7 and err.variable in ("state", "tracking") and 0 < err.k <= 60
        assert str(err).endswith(f"at iteration {err.k} (seed 7); step sizes are unstable for this problem")


class TestMicroDP:
    def make_instance(self):
        gp = two_agent_pair(w=0.8)
        base = np.array([0.02, -0.03, 0.01, 0.04, -0.02, 0.03])[:, None]
        ds = [make_dataset(0, base), make_dataset(1, -base)]
        obj = make_quadratic(np.array([[0.6]]), np.array([0.3]), 2, ds)
        alt = list(ds)
        alt[0] = replace_sample(ds[0], 2, [-0.045])
        p = S2Params(alpha=0.2, beta=0.2, gamma=0.1, p_m=1.3, p_zeta=(0.8,) * 2, p_eta=(0.8,) * 2)
        return gp, p, obj, ds, alt

    def test_guards(self):
        gp, p, obj, ds, alt = self.make_instance()
        with pytest.raises(ValueError):
            micro_dp_check(p, gp, obj, list(ds), alt, K=3, trials=10**4)
        with pytest.raises(ValueError):
            micro_dp_check(p, gp, obj, list(ds), alt, K=1, trials=100)

    def test_identical_collections_raise(self):
        gp, p, obj, ds, _ = self.make_instance()
        with pytest.raises(AdjacencyError):
            micro_dp_check(p, gp, obj, list(ds), list(ds), K=1, trials=10**4)

    @pytest.mark.parametrize("also_agent_1", [True, False])
    def test_agent_differing_in_two_samples_is_refused(self, also_agent_1):
        # Agent 0 differs in two samples: neither skipped (with agent 1 differing in one) nor
        # read as no difference at all (alone).
        gp, p, obj, ds, alt = self.make_instance()
        alt[0] = replace_sample(replace_sample(ds[0], 0, [0.05]), 1, [0.06])
        if also_agent_1:
            alt[1] = replace_sample(ds[1], 3, [0.01])
        with pytest.raises(AdjacencyError, match="datasets differ in 2 samples, need exactly one"):
            micro_dp_check(p, gp, obj, list(ds), alt, K=1, trials=10**4)

    def test_sampling_count_beyond_the_integer_range_is_a_value_error(self):
        # At K = 1, p_m = 1e300 still gives a finite m (one that takes every sample); 1e308 does not.
        gp, p, obj, ds, alt = self.make_instance()
        with pytest.raises(ValueError, match=r"^sampling count m=inf exceeds the integer range$"):
            micro_dp_check(dataclasses.replace(p, p_m=1e308), gp, obj, list(ds), alt, K=1, trials=10**4)

    def test_ratio_within_allowance_small_budget(self):
        gp, p, obj, ds, alt = self.make_instance()
        rep = micro_dp_check(p, gp, obj, list(ds), alt, K=1, trials=10**5, seed=5)
        assert rep.boxes_tested > 20
        assert rep.passed
        assert rep.worst_ratio <= math.exp(rep.eps) * 1.5

    def test_trig_ratio_within_allowance(self):
        gp, p, _, ds, alt = self.make_instance()
        rep = micro_dp_check(p, gp, make_trig(2, ds), list(ds), alt, K=1, trials=10**5, seed=5)
        assert rep.boxes_tested > 20
        assert rep.passed
        assert rep.worst_ratio <= math.exp(rep.eps) * 1.5

    def test_loss_not_affine_in_the_sample_rejected(self):
        gp, p, _, _, _ = self.make_instance()
        ds = generate_logistic_datasets(2, 6, dim=1, seed=0)
        alt = list(ds)
        alt[0] = replace_sample(ds[0], 2, [0.5, -1.0])
        with pytest.raises(ValueError, match="not affine"):
            micro_dp_check(p, gp, make_logistic(2, ds), list(ds), alt, K=1, trials=10**4)
