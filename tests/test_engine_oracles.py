"""The engine's hot path against the expressions it replaced, bit for bit.

The oracles below are the earlier forms of the per-step arithmetic:
``np.linalg.norm`` for every norm, ``np.outer`` for the sample coupling,
``np.stack`` of ``.mean(axis=0)`` rows for the sampled gradients, and
``np.errstate`` + ``np.where`` for the kink at x = 0.  The lean forms must
agree with them exactly (``tobytes``), not within a tolerance: benchmark
outputs are compared with recorded values, and acceptance criterion 6 runs
at zero bound slack.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgt.engine import _metrics, draw_indices, sampled_gradients
from dpgt.graphs import build_graph_pair, spectral_constants
from dpgt.objectives import generate_quadratic_datasets, make_quadratic

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def coupling_oracle(x):
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return np.zeros_like(x)
    return x / (nx * (1.0 + nx) ** 2)


def mean_sample(obj):
    return float(np.array([ds.samples.mean() for ds in obj.datasets[: obj.n_agents]]).mean())


def grad_batch_oracle(obj, x, xis):
    A, dvec, n = obj.family.A, obj.family.dvec, obj.n_agents
    base = A.T @ (A @ x - dvec) / n
    return base[None, :] + np.outer(xis[:, 0], coupling_oracle(x))


def global_value_oracle(obj, x):
    A, dvec, n = obj.family.A, obj.family.dvec, obj.n_agents
    res = A @ x - dvec
    nx = np.linalg.norm(x)
    return float(0.5 * (res @ res) / n + mean_sample(obj) * nx / (1.0 + nx))


def global_gradient_rows_oracle(obj, xs):
    A, dvec, n = obj.family.A, obj.family.dvec, obj.n_agents
    base = (xs @ (A.T @ A) - (A.T @ dvec)[None, :]) / n
    norms = np.linalg.norm(xs, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        coupling = np.where(norms > 0, xs / (norms * (1.0 + norms) ** 2), 0.0)
    return base + mean_sample(obj) * coupling


def sampled_gradients_oracle(obj, x, idxs):
    return np.stack(
        [grad_batch_oracle(obj, xi, ds.samples[idx]).mean(axis=0) for xi, ds, idx in zip(x, obj.datasets, idxs)]
    )


def metrics_oracle(x, y, sc, obj, f_star):
    cx = float(np.linalg.norm(sc.W1 @ x) ** 2)
    cy = float(np.linalg.norm(sc.W2 @ y) ** 2)
    grads = (global_gradient_rows_oracle(obj, x) ** 2).sum(axis=1)
    x_bar = (sc.v1 @ x) / sc.n
    gap = global_value_oracle(obj, x_bar) - f_star
    return cx, cy, grads, gap


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def instance(seed, n, d, D, zero_rows):
    """A quadratic objective, a dense pair, and states with the chosen rows at 0."""
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 1.0, (d + int(rng.integers(0, 3)), d))
    A[:d] += 2.0 * np.eye(d)
    dvec = rng.normal(0.0, 1.0, A.shape[0])
    obj = make_quadratic(A, dvec, n, generate_quadratic_datasets(n, D, seed))
    R = rng.uniform(0.1, 0.3, (n, n))
    C = rng.uniform(0.1, 0.3, (n, n))
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(C, 0.0)
    gp = build_graph_pair(R, C)
    x = rng.normal(0.0, float(rng.choice([1e-3, 1.0, 1e3])), (n, d))
    y = rng.normal(0.0, 1.0, (n, d))
    x[list(zero_rows)] = 0.0
    return obj, gp, x, y


@st.composite
def cases(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 6))
    D = draw(st.integers(1, 12))
    m = draw(st.sampled_from([1, D, draw(st.integers(1, D))]))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return draw(st.integers(0, 2**32 - 1)), n, d, D, m, zero_rows


class TestQuadraticEvaluators:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_grad_batch_and_value(self, case):
        seed, n, d, D, m, zero_rows = case
        obj, _, x, _ = instance(seed, n, d, D, zero_rows)
        for i in range(n):
            xis = obj.datasets[i].samples[:m]
            assert same_bits(obj.grad_batch(x[i], xis), grad_batch_oracle(obj, x[i], xis))
            assert same_bits(obj.global_value(x[i]), global_value_oracle(obj, x[i]))

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_global_gradient_rows(self, case):
        seed, n, d, D, m, zero_rows = case
        obj, _, x, _ = instance(seed, n, d, D, zero_rows)
        assert same_bits(obj.global_gradient_rows(x), global_gradient_rows_oracle(obj, x))

    def test_kink_at_zero(self):
        obj, _, x, _ = instance(5, 3, 4, 8, {0, 1, 2})
        xis = obj.datasets[0].samples
        assert same_bits(obj.grad_batch(x[0], xis), grad_batch_oracle(obj, x[0], xis))
        assert same_bits(obj.global_value(x[0]), global_value_oracle(obj, x[0]))
        assert same_bits(obj.global_gradient_rows(x), global_gradient_rows_oracle(obj, x))

    def test_zero_row_among_nonzero_rows(self):
        obj, _, x, _ = instance(6, 4, 3, 8, {2})
        assert same_bits(obj.global_gradient_rows(x), global_gradient_rows_oracle(obj, x))


class TestEngineHotPath:
    @settings(max_examples=150, deadline=None)
    @given(cases(), st.integers(0, 2**20))
    def test_sampled_gradients(self, case, k):
        seed, n, d, D, m, zero_rows = case
        obj, _, x, _ = instance(seed, n, d, D, zero_rows)
        idxs = draw_indices(seed, obj.datasets, k, m)
        assert same_bits(sampled_gradients(obj, obj.datasets, x, idxs), sampled_gradients_oracle(obj, x, idxs))

    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_metrics(self, case):
        seed, n, d, D, _, zero_rows = case
        obj, gp, x, y = instance(seed, n, d, D, zero_rows)
        sc = spectral_constants(gp)
        got = _metrics(x, y, sc, obj, obj.F_star)
        want = metrics_oracle(x, y, sc, obj, obj.F_star)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_full_batch_and_single_sample(self):
        obj, _, x, _ = instance(9, 3, 4, 7, set())
        for m in (1, 7):
            idxs = draw_indices(9, obj.datasets, 3, m)
            assert same_bits(sampled_gradients(obj, obj.datasets, x, idxs), sampled_gradients_oracle(obj, x, idxs))
