import math
import warnings

import numpy as np
import pytest

from dpgt.graphs import (
    ConnectivityError,
    DegenerateGraphError,
    DimensionMismatchError,
    GraphValidationError,
    NegativeEntryError,
    NonFiniteEntryError,
    _sum_cap,
    build_graph_pair,
    check_connectivity,
    spectral_constants,
    spectrum,
)


def two_cycle():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    return build_graph_pair(M, M)


def three_cycle():
    R = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return build_graph_pair(R, R)


def random_rooted_pair(rng, n=5):
    """Random dense-ish digraph pair that always has a common root."""
    while True:
        R = np.zeros((n, n))
        C = np.zeros((n, n))
        for i in range(1, n):
            R[i, rng.integers(0, i)] = rng.uniform(0.2, 1.0)  # tree edge into i
            C[rng.integers(0, i), i] = rng.uniform(0.2, 1.0)
        extra = rng.integers(3, 9)
        for _ in range(extra):
            i, j = rng.integers(0, n, 2)
            if i != j:
                R[i, j] = rng.uniform(0.1, 1.0)
        for _ in range(extra):
            i, j = rng.integers(0, n, 2)
            if i != j:
                C[i, j] = rng.uniform(0.1, 1.0)
        gp = build_graph_pair(R, C)
        if check_connectivity(gp).ok:
            return gp


class TestBuildGraphPair:
    def test_symmetric_two_cycle_laplacians(self):
        gp = two_cycle()
        expect = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(gp.L1, expect)
        assert np.array_equal(gp.L2, expect)

    def test_three_cycle_laplacian_is_identity_minus_weights(self):
        gp = three_cycle()
        assert np.array_equal(gp.L1, np.eye(3) - gp.R)

    def test_laplacian_null_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gp = random_rooted_pair(rng)
            assert np.abs(gp.L1 @ np.ones(gp.n)).max() < 1e-12
            assert np.abs(np.ones(gp.n) @ gp.L2).max() < 1e-12

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            build_graph_pair([[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_graph_pair(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            build_graph_pair(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            build_graph_pair([[0.0, np.nan], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])


class TestConnectivity:
    def test_cycle_is_jointly_rooted(self):
        rep = check_connectivity(three_cycle())
        assert rep.r_has_tree and rep.ct_has_tree
        assert rep.common_root is not None

    def test_directed_path_rooted_at_first_node(self):
        # edges 0 -> 1 -> 2: node i+1 receives from node i
        R = np.zeros((3, 3))
        R[1, 0] = 1.0
        R[2, 1] = 1.0
        C = R.T  # transposed tracking graph equals the same path
        gp = build_graph_pair(R, C)
        rep = check_connectivity(gp)
        assert rep.r_has_tree and rep.ct_has_tree
        assert rep.common_root == 0

    def test_disconnected_component_has_no_tree(self):
        R = np.zeros((4, 4))
        R[1, 0] = 1.0
        R[0, 1] = 1.0
        R[3, 2] = 1.0
        R[2, 3] = 1.0
        gp = build_graph_pair(R, R)
        rep = check_connectivity(gp)
        assert not rep.r_has_tree
        assert rep.common_root is None


class TestSpectrum:
    def test_identity(self):
        vals = spectrum(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_rotation_pair(self):
        vals = spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted(v.imag for v in vals), [-1.0, 1.0], atol=1e-10)
        assert np.allclose([v.real for v in vals], 0.0, atol=1e-10)

    def test_three_cycle_laplacian_roots(self):
        # det(L - t I) = -t (t^2 - 3 t + 3): roots 0 and (3 +- i sqrt(3)) / 2
        vals = spectrum(three_cycle().L1)
        expect = np.array([0.0, 1.5 - 0.8660254037844386j, 1.5 + 0.8660254037844386j])
        assert np.allclose(vals, expect, atol=1e-9)

    def test_sorted_by_modulus_then_real_then_imag(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vals = spectrum(rng.normal(size=(6, 6)))
            keys = [(abs(v), v.real, v.imag) for v in vals]
            assert keys == sorted(keys)

    def test_residual_certificate_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rng.normal(size=(8, 8))
            vals = spectrum(M)
            poly = np.sort_complex(np.roots(np.poly(M)))
            assert np.allclose(np.sort_complex(vals), poly, atol=1e-6)

    def test_size_cap(self):
        with pytest.raises(GraphValidationError):
            spectrum(np.eye(10), max_n=5)


class TestSumCap:
    def test_subnormal_sum_gives_an_infinite_cap_without_a_warning(self):
        # 1 / 5e-324 overflows to inf, the correctly rounded cap; the other sum sets the minimum.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sum_cap(np.array([5e-324, 1.0])) == 1.0
            assert _sum_cap(np.array([5e-324])) == math.inf
            assert _sum_cap(np.array([0.0, -1.0])) == math.inf

    def test_least_reciprocal_of_the_positive_sums(self):
        assert _sum_cap(np.array([0.0, 0.5, 2.0, 4.0])) == 0.25


class TestSpectralConstants:
    def test_two_cycle_hand_values(self):
        sc = spectral_constants(two_cycle())
        # nonzero Laplacian eigenvalue is 2: caps and rate follow directly
        assert math.isclose(sc.alpha_cap, min(1.0, 2.0 / 5.0))
        assert math.isclose(sc.beta_cap, 0.4)
        assert math.isclose(sc.r1, (2 + 4) * 2 / (2 + 8))  # = 1.2
        assert math.isclose(sc.r2, 1.2)
        assert np.allclose(sc.v1, [1.0, 1.0], atol=1e-12)
        assert np.allclose(sc.v2, [1.0, 1.0], atol=1e-12)

    def test_three_cycle_circulant_vectors(self):
        sc = spectral_constants(three_cycle())
        assert np.allclose(sc.v1, np.ones(3), atol=1e-9)
        assert np.allclose(sc.v2, np.ones(3), atol=1e-9)

    def test_unrooted_pair_rejected(self):
        R = np.zeros((3, 3))
        R[1, 0] = 1.0  # node 2 unreachable
        with pytest.raises(ConnectivityError):
            spectral_constants(build_graph_pair(R, R))

    def test_zero_eigenvalue_multiplicity_guard(self):
        # two disjoint 2-cycles: rank-deficient Laplacian
        R = np.zeros((4, 4))
        R[0, 1] = R[1, 0] = R[2, 3] = R[3, 2] = 1.0
        gp = build_graph_pair(R, R)
        with pytest.raises((DegenerateGraphError, ConnectivityError)):
            spectral_constants(gp)

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sc = spectral_constants(random_rooted_pair(rng))
            assert math.isclose(sc.v1.sum(), sc.n, rel_tol=1e-9)
            assert math.isclose(sc.v2.sum(), sc.n, rel_tol=1e-9)
            assert (sc.v1 >= 0).all() and (sc.v2 >= 0).all()
            assert sc.v1_dot_v2 > 0

    def test_fixed_point_residuals_across_steps(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            gp = random_rooted_pair(rng)
            sc = spectral_constants(gp)
            for frac in (0.1, 0.45, 0.95):
                a = frac * sc.alpha_cap
                b = frac * sc.beta_cap
                assert np.linalg.norm(sc.v1 @ (np.eye(gp.n) - a * gp.L1) - sc.v1) <= 1e-9
                assert np.linalg.norm((np.eye(gp.n) - b * gp.L2) @ sc.v2 - sc.v2) <= 1e-9

    def test_contraction_inequality(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            gp = random_rooted_pair(rng)
            sc = spectral_constants(gp)
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                a = frac * sc.alpha_cap
                b = frac * sc.beta_cap
                rho1 = max(abs(np.linalg.eigvals(sc.W1 - a * gp.L1)))
                rho2 = max(abs(np.linalg.eigvals(sc.W2 - b * gp.L2)))
                assert rho1 <= 1.0 - sc.r1 * a + 1e-9
                assert rho2 <= 1.0 - sc.r2 * b + 1e-9

    def test_simple_zero_and_positive_real_parts(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sc = spectral_constants(random_rooted_pair(rng))
            for eigs in (sc.eigs_L1, sc.eigs_L2):
                rho = np.abs(eigs).max()
                near_zero = np.abs(eigs) < 1e-8 * (1 + rho)
                assert near_zero.sum() == 1
                assert (eigs[~near_zero].real > 0).all()
