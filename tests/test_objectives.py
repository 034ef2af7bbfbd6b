import itertools
import math

import numpy as np
import pytest

from dpgt.objectives import (
    DatasetError,
    RankDeficientError,
    generate_logistic_datasets,
    generate_quadratic_datasets,
    generate_trig_datasets,
    make_dataset,
    make_logistic,
    make_quadratic,
    make_trig,
    verify_constants,
)
from dpgt.engine import sampled_gradients
from dpgt.objectives import _norm_coupling_grad


@pytest.fixture(scope="module")
def quad():
    ds = generate_quadratic_datasets(2, 12, seed=5)
    return make_quadratic(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 2, ds)


@pytest.fixture(scope="module")
def trig():
    ds = generate_trig_datasets(3, 12, seed=5)
    return make_trig(3, ds)


class TestQuadratic:
    def test_declared_constants(self, quad):
        # rho(A) = 2, theta_min(AtA) = 1, n = 2
        assert quad.L1_smooth == pytest.approx(4.0 / 4.0)
        assert quad.L2_holder == 1.0
        assert quad.tau == 1.0
        assert quad.sigma_g == 2.0
        assert quad.mu == pytest.approx(2.0)

    def test_stationary_at_origin_with_zero_sample(self):
        ds = generate_quadratic_datasets(1, 4, seed=0)
        obj = make_quadratic(np.eye(3), np.zeros(3), 1, ds)
        assert np.allclose(obj.grad(np.zeros(3), np.array([0.0])), 0.0)

    def test_smooth_part_at_origin(self, quad):
        # d/dx ||A x - b||^2 / (2 n) at x = 0 equals -A^T b / n = -(1, 2)/2
        g = quad.grad(np.zeros(2), np.array([0.0]))
        assert np.allclose(g, [-0.5, -1.0], atol=1e-14)

    def test_rank_deficient_rejected(self):
        ds = generate_quadratic_datasets(1, 4, seed=0)
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficientError):
            make_quadratic(A, np.zeros(2), 1, ds)

    def test_gradient_matches_central_differences(self, quad):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(25):
            x = rng.normal(0.0, 2.0, 2)
            if np.linalg.norm(x) < 0.2:
                continue
            xi = np.array([rng.normal(0.0, 2.0)])
            g = quad.grad(x, xi)
            num = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                num[j] = (quad.loss(x + e, xi) - quad.loss(x - e, xi)) / (2 * h)
            assert np.linalg.norm(g - num) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_f_star_is_a_lower_bound_nearby(self, quad):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(0.0, 3.0, 2)
            assert quad.global_value(x) >= quad.F_star - 1e-12


class TestTrig:
    def test_declared_constants(self, trig):
        assert (trig.L1_smooth, trig.L2_holder, trig.tau, trig.sigma_g) == (8.0, 2.0, 1.0, 2.5)
        assert trig.mu == pytest.approx(3 / 32.0)

    def test_gradient_zero_at_origin_zero_sample(self, trig):
        assert trig.grad(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(0.0)

    def test_gradient_closed_form_point(self, trig):
        # 2x + (3 + xi) sin(2x) - 2 xi sin(x) at x = pi/2, xi = 1 gives pi - 2
        g = trig.grad(np.array([math.pi / 2]), np.array([1.0]))
        assert g[0] == pytest.approx(math.pi - 2.0, abs=1e-12)

    def test_gradient_matches_central_differences(self, trig):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(25):
            x = np.array([rng.uniform(-3, 3)])
            xi = np.array([rng.laplace(0, 0.5)])
            g = trig.grad(x, xi)[0]
            num = (trig.loss(x + h, xi) - trig.loss(x - h, xi)) / (2 * h)
            assert abs(g - num) <= 1e-5 * max(1.0, abs(g))

    def test_f_star_lower_bound_on_grid(self, trig):
        xs = np.linspace(-3, 3, 1001)
        vals = [trig.global_value(np.array([x])) for x in xs]
        assert min(vals) >= trig.F_star - 1e-9


@pytest.fixture(scope="module", params=["quadratic", "trig", "logistic"])
def family(request):
    """One objective per family, with its dimension > 1 where the family allows."""
    if request.param == "quadratic":
        ds = generate_quadratic_datasets(3, 12, seed=4)
        A = np.array([[1.0, 0.3], [0.0, 2.0], [0.5, 0.5]])
        return make_quadratic(A, np.array([1.0, -1.0, 0.5]), 3, ds)
    if request.param == "trig":
        return make_trig(3, generate_trig_datasets(3, 12, seed=4))
    return make_logistic(2, generate_logistic_datasets(2, 20, dim=3, seed=4))


class TestGlobalEvaluators:
    def test_rows_equal_per_row_gradient(self, family):
        xs = np.random.default_rng(1).normal(0.0, 1.5, (7, family.dim))
        xs[3] = 0.0
        rows = family.global_gradient_rows(xs)
        assert rows.shape == xs.shape
        for x, row in zip(xs, rows):
            assert np.array_equal(row, family.global_gradient_rows(x[None])[0])

    def test_gradient_matches_central_differences(self, family):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(0.0, 1.5, family.dim)
            num = np.array([
                (family.global_value(x + h * e) - family.global_value(x - h * e)) / (2 * h)
                for e in np.eye(family.dim)
            ])
            assert np.allclose(family.global_gradient_rows(x[None])[0], num, rtol=1e-6, atol=1e-6)


class TestAffineSplit:
    @pytest.mark.parametrize("kind", ["quadratic", "trig"])
    def test_mean_gradient_from_sample_mean(self, kind):
        # both losses are affine in the sample: the mean sampled gradient
        # depends on the draw only through the mean of its samples
        ds = generate_trig_datasets(2, 9, seed=6)
        if kind == "trig":
            obj = make_trig(2, ds)
        else:
            obj = make_quadratic(np.array([[0.6]]), np.array([0.3]), 2, ds)
        xs = np.array([-2.0, -0.3, 0.0, 0.4, 1.7])
        samples = ds[0].samples[[1, 4, 6]]
        got = obj.family.mean_gradient_d1(xs, samples.mean())
        want = [obj.grad_batch(np.array([x]), samples).mean() for x in xs]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def sampled_mean(obj, agent, x, idx):
    """The engine's sampled gradient of one agent: the mean over the drawn samples."""
    return sampled_gradients(obj, obj.datasets[agent:agent + 1], np.asarray(x, float)[None], [np.asarray(idx)])[0]


class TestSampledOracle:
    def test_single_index_equals_pointwise(self, quad):
        x = np.array([0.3, -0.7])
        g = sampled_mean(quad, 0, x, [4])
        assert np.allclose(g, quad.grad(x, quad.datasets[0].samples[4]))

    def test_full_batch_equals_local_gradient(self, quad):
        # local gradient: grad f_i at x, the mean over agent i's whole dataset
        x = np.array([1.0, 0.5])
        ds = quad.datasets[1]
        g = sampled_mean(quad, 1, x, list(range(ds.size)))
        local = sum(quad.grad(x, xi) for xi in ds.samples) / ds.size
        assert np.allclose(g, local, atol=1e-14)

    def test_random_subset_matches_direct_sum(self, quad):
        x = np.array([-0.4, 1.1])
        idx = [7, 2, 9]
        g = sampled_mean(quad, 0, x, idx)
        direct = sum(quad.grad(x, quad.datasets[0].samples[i]) for i in idx) / 3
        assert np.allclose(g, direct, atol=1e-14)

    def test_unbiased_over_all_subsets(self):
        # averaging over every m-subset reproduces the full-batch gradient
        ds = generate_quadratic_datasets(1, 6, seed=9)
        obj = make_quadratic(np.eye(2), np.array([1.0, -2.0]), 1, ds)
        x = np.array([0.6, 0.9])
        full = sampled_mean(obj, 0, x, list(range(6)))
        for m in (1, 2, 3, 5):
            subs = list(itertools.combinations(range(6), m))
            avg = sum(sampled_mean(obj, 0, x, list(sub)) for sub in subs) / len(subs)
            assert np.allclose(avg, full, atol=1e-13)


def pow_trap() -> float:
    """A v in [1, 2) with ``np.float64(v) ** 2 != v * v``, where the difference reaches the coupling.

    A NumPy scalar's ``** 2`` is libm's pow; an array's multiplies.  At a
    point x with ||x|| = v - 1 the coupling gradient x / (||x|| (1 + ||x||)^2)
    squares v, and for this v its bits depend on how.
    """
    for v in np.random.default_rng(0).uniform(1.0, 2.0, 100_000).tolist():
        if np.float64(v) ** 2 != v * v and 1.0 / (np.float64(v) ** 2) != 1.0 / (v * v):
            return v
    raise AssertionError("no trap value found")


def lane_points(family, lead: tuple, seed: int = 3) -> np.ndarray:
    """Points (*lead, d) with one zero lane (the coupling's kink) and one pow-trap lane."""
    x = np.random.default_rng(seed).normal(0.0, 1.5, lead + (family.dim,))
    flat = x.reshape(-1, family.dim)
    flat[0] = 0.0
    if flat.shape[0] > 1:
        # ||x|| = v - 1 exactly, so the coupling squares 1 + ||x|| = v.
        flat[1] = 0.0
        flat[1, 0] = pow_trap() - 1.0
    return x


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


LEADS = [(1,), (7,), (300,), (60, 5)]


class TestLeadingBatchAxes:
    """Each lane of a batched call has the bits of a call on that lane alone."""

    def test_pow_trap_is_a_trap(self):
        v = pow_trap()
        assert np.float64(v) ** 2 != np.array([v]) ** 2

    @pytest.mark.parametrize("lead", LEADS)
    def test_grad_batch(self, family, lead):
        x = lane_points(family, lead)
        pooled = np.vstack([ds.samples for ds in family.datasets])
        rng = np.random.default_rng(4)
        xis = pooled[rng.integers(0, pooled.shape[0], lead + (6,))]
        got = family.grad_batch(x, xis)
        assert got.shape == lead + (6, family.dim)
        for i in np.ndindex(*lead):
            assert same_bits(got[i], family.grad_batch(x[i], xis[i])), i

    @pytest.mark.parametrize("lead", LEADS)
    def test_global_gradient_rows(self, family, lead):
        x = lane_points(family, lead + (4,))
        got = family.global_gradient_rows(x)
        assert got.shape == x.shape
        for i in np.ndindex(*lead):
            assert same_bits(got[i], family.global_gradient_rows(x[i])), i

    @pytest.mark.parametrize("lead", LEADS)
    def test_global_value(self, family, lead):
        x = lane_points(family, lead)
        got = family.global_value(x)
        assert got.shape == lead
        for i in np.ndindex(*lead):
            assert same_bits(got[i], np.float64(family.global_value(x[i]))), i

    def test_the_trap_lane_needs_libm_pow(self):
        v = pow_trap()
        x = np.array([[v - 1.0, 0.0, 0.0]] * 3)
        got = _norm_coupling_grad(x)
        nx = np.sqrt(x[0].dot(x[0]))
        assert nx == v - 1.0
        assert same_bits(got[1], x[0] / (nx * (1.0 + nx) ** 2))  # a NumPy scalar's ** 2
        assert not same_bits(got[1], x[0] / (nx * (np.array([1.0 + nx]) ** 2)[0]))


class TestDatasets:
    def test_make_dataset_validation(self):
        with pytest.raises(DatasetError):
            make_dataset(0, np.zeros((0, 1)))
        with pytest.raises(DatasetError):
            make_dataset(0, [[np.inf]])

    def test_generators_are_seed_deterministic(self):
        a = generate_trig_datasets(2, 30, seed=3)
        b = generate_trig_datasets(2, 30, seed=3)
        assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))

    def test_trig_samples_have_expected_scale(self):
        ds = generate_trig_datasets(1, 40000, seed=0)[0]
        # density exp(-|t| / b) / (2 b) with b = 1/2 has variance 2 b^2 = 1/2
        assert ds.samples.var() == pytest.approx(0.5, rel=0.05)

    def test_quadratic_samples_have_expected_scale(self):
        ds = generate_quadratic_datasets(1, 40000, seed=0)[0]
        assert ds.samples.var() == pytest.approx(4.0, rel=0.05)


class TestVerifyConstants:
    def test_zero_variance_dataset(self):
        ds = [make_dataset(0, np.full((8, 1), 1.5))]
        obj = make_quadratic(np.eye(2), np.ones(2), 1, ds)
        rep = verify_constants(obj, trials=100, grid=50, seed=0)
        assert rep.variance.estimate == pytest.approx(0.0, abs=1e-15)
        assert rep.variance.passed

    def test_trig_growth_ratio_on_grid(self, trig):
        rep = verify_constants(trig, trials=100, grid=600, seed=1)
        assert rep.pl is not None
        # independent re-computation of the grid minimum
        xs = np.linspace(-3, 3, 600)
        ratios = []
        for x in xs:
            gap = trig.global_value(np.array([x])) - trig.F_star
            if gap >= 1e-10:
                ratios.append(np.linalg.norm(trig.global_gradient_rows(np.array([[x]]))[0]) ** 2 / (2 * gap))
        assert rep.pl.estimate == pytest.approx(min(ratios), rel=1e-9)
        assert rep.pl.estimate >= trig.mu * 0.95
        assert rep.pl.passed

    def test_quadratic_lipschitz_claim_is_reported_honestly(self):
        # the least-squares part alone has modulus rho(A)^2 / n, twice the
        # declared rho(A)^2 / (2 n): the checker must flag the excess
        ds = generate_quadratic_datasets(1, 12, seed=5)
        obj = make_quadratic(np.eye(2), np.ones(2), 1, ds)
        rep = verify_constants(obj, trials=500, grid=50, seed=0)
        assert rep.lipschitz.estimate > obj.L1_smooth * 1.05
        assert not rep.lipschitz.passed

    def test_report_is_deterministic(self, quad):
        a = verify_constants(quad, trials=60, grid=40, seed=7)
        b = verify_constants(quad, trials=60, grid=40, seed=7)
        assert a == b


class TestLogisticDemo:
    def test_construction_and_gradient_consistency(self):
        ds = generate_logistic_datasets(2, 30, dim=3, seed=1)
        obj = make_logistic(2, ds)
        assert obj.mu == 0.0
        rng = np.random.default_rng(0)
        h = 1e-6
        x = rng.normal(0, 1, 3)
        xi = ds[0].samples[4]
        g = obj.grad(x, xi)
        num = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            num[j] = (obj.loss(x + e, xi) - obj.loss(x - e, xi)) / (2 * h)
        assert np.linalg.norm(g - num) <= 1e-5

    # The per-sample loops the vectorized evaluators replaced, fixed as an oracle.
    # Both sides sum the same terms in other orders: F within a relative 1e-12,
    # each gradient entry within 1e-12 relative plus 1e-13 absolute.
    @staticmethod
    def loop_value(obj, x) -> float:
        return float(np.mean([np.mean([obj.loss(x, xi) for xi in ds.samples]) for ds in obj.datasets]))

    @staticmethod
    def loop_gradient(obj, x) -> np.ndarray:
        return np.mean([np.mean([obj.grad(x, xi) for xi in ds.samples], axis=0) for ds in obj.datasets], axis=0)

    @pytest.mark.parametrize("n, D, dim, seed", [(2, 20, 3, 4), (5, 200, 10, 0), (3, 41, 1, 2)])
    def test_global_evaluators_match_the_per_sample_loops(self, n, D, dim, seed):
        obj = make_logistic(n, generate_logistic_datasets(n, D, dim=dim, seed=seed))
        xs = np.random.default_rng(seed).normal(0.0, 1.5, (6, dim))
        xs[0] = 0.0
        values = obj.global_value(xs)
        rows = obj.global_gradient_rows(xs)
        for x, value, row in zip(xs, values, rows):
            assert value == pytest.approx(self.loop_value(obj, x), rel=1e-12, abs=0.0)
            assert np.allclose(row, self.loop_gradient(obj, x), rtol=1e-12, atol=1e-13)
