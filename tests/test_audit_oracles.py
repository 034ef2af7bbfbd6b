"""The audit layer against the loops it replaced, bit for bit.

The oracles below are the earlier pure-Python forms: a depth-first search
from every node for rootedness, the per-k rolling update of the sensitivity
recursions, and the per-entry loop of the budget composition.  The fast
forms must agree with them exactly, not within a tolerance: acceptance
criterion 6 runs at zero bound slack, so a last-ulp change can flip it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgt.graphs import ConnectivityReport, _spanning_roots, build_graph_pair, check_connectivity
from dpgt.privacy import _BUDGET_BLOCK, epsilon, sensitivity_trace
from dpgt.schemes import S1Params, S2Params, rates_at

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def dfs_spanning_roots(adjacency):
    """Nodes from which every node is reachable, by a DFS from every node."""
    n = adjacency.shape[0]
    roots = []
    for r in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[r] = True
        stack = [r]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adjacency[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        if seen.all():
            roots.append(r)
    return roots


def dfs_connectivity(gp):
    roots_r = dfs_spanning_roots(gp.R.T > 0)
    roots_ct = dfs_spanning_roots(gp.C > 0)
    common = sorted(set(roots_r) & set(roots_ct))
    return ConnectivityReport(
        r_has_tree=bool(roots_r),
        ct_has_tree=bool(roots_ct),
        common_root=common[0] if common else None,
    )


def rolling_sensitivity(gp, scheme, C, K):
    """(dx, dy) by the per-k update of both rows for all agents at once."""
    rates = rates_at(scheme, K)
    inv_m = 0.0 if not math.isfinite(rates.m) else 1.0 / rates.m
    q_x = np.abs(1.0 - rates.alpha * gp.row_sums_R)
    q_y = np.abs(1.0 - rates.beta * gp.col_sums_C)
    dx = np.zeros((gp.n, K + 1))
    dy = np.zeros((gp.n, K + 1))
    dy[:, 0] = C * inv_m
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            dy[:, k] = q_y * dy[:, k - 1] + 2.0 * C * inv_m
            dx[:, k] = q_x * dx[:, k - 1] + rates.gamma * dy[:, k - 1]
    return dx, dy


# The noise scale of exponent or base p at iteration k of a horizon-K run,
# written from each scheme's definition rather than read from its Rates.
SCHEME_SIGMA = {S1Params: lambda p, k, K: (k + 1.0) ** p, S2Params: lambda p, k, K: p**K}


def loop_budget(dx, dy, scheme, K):
    """(increments, eps) by the per-entry loop of the Laplace composition."""
    sigma = SCHEME_SIGMA[type(scheme)]
    n = dx.shape[0]
    inc = np.zeros((n, K + 1))
    # An overflowing quotient is inf, as in epsilon's own divide.
    with np.errstate(over="ignore"):
        for i in range(n):
            for k in range(K + 1):
                total = 0.0
                for sens, p in ((dx[i, k], scheme.p_zeta[i]), (dy[i, k], scheme.p_eta[i])):
                    scale = sigma(p, k, K)
                    if sens == 0.0:
                        continue
                    total += sens / scale if scale > 0.0 else math.inf
                inc[i, k] = total
    return inc, inc.sum(axis=1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Rootedness
# ---------------------------------------------------------------------------


@st.composite
def digraphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((n, n)) < density


class TestRootednessOracle:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_roots_equal_dfs(self, adjacency):
        assert _spanning_roots(adjacency) == dfs_spanning_roots(adjacency)

    @settings(max_examples=200, deadline=None)
    @given(digraphs(), st.integers(0, 2**32 - 1))
    def test_report_equals_dfs(self, mask_r, seed):
        rng = np.random.default_rng(seed)
        n = mask_r.shape[0]
        mask_c = rng.random((n, n)) < rng.uniform(0.0, 0.6)
        gp = build_graph_pair(mask_r * rng.uniform(0.1, 1.0, (n, n)), mask_c * rng.uniform(0.1, 1.0, (n, n)))
        assert check_connectivity(gp) == dfs_connectivity(gp)

    def test_dense_pair_n256(self):
        rng = np.random.default_rng(11)
        R = rng.uniform(0.15, 0.25, (256, 256))
        C = rng.uniform(0.15, 0.25, (256, 256))
        np.fill_diagonal(R, 0.0)
        np.fill_diagonal(C, 0.0)
        R[:, 7] = 0.0  # nobody hears agent 7: only 7 cannot root the state graph
        gp = build_graph_pair(R, C)
        rep = check_connectivity(gp)
        assert rep == dfs_connectivity(gp)
        assert rep.common_root == 0
        assert _spanning_roots(gp.R.T > 0) == [i for i in range(256) if i != 7]

    @pytest.mark.parametrize("n", [2, 64, 256])
    def test_paths(self, n):
        path = np.zeros((n, n), dtype=bool)
        path[np.arange(n - 1), np.arange(1, n)] = True  # 0 -> 1 -> ... -> n-1
        assert _spanning_roots(path) == dfs_spanning_roots(path) == [0]
        assert _spanning_roots(path.T) == dfs_spanning_roots(path.T) == [n - 1]
        cut = path.copy()
        cut[n // 2 - 1, n // 2] = False
        assert _spanning_roots(cut) == dfs_spanning_roots(cut) == []


# ---------------------------------------------------------------------------
# Sensitivity recursions and budget
# ---------------------------------------------------------------------------

# Weights and steps that hit q = 1 (zero row or column sum) and q = 0
# (step times sum exactly 1), next to generic values.
weights = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
steps = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 4.0]), st.floats(1e-3, 3.0))
exponents = st.floats(0.05, 2.0)
# Noise exponents: 1e-200 (S2) and -1100 (S1) underflow to a zero scale.
s1_noise = st.one_of(st.floats(-3.0, 3.0), st.just(-1100.0))
s2_noise = st.one_of(st.floats(0.05, 2.0), st.just(1e-200))


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 4))
    R = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    C = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    return build_graph_pair(R, C)


@st.composite
def schemes_for(draw, n):
    if draw(st.booleans()):
        return S1Params(
            a1=draw(steps), a2=draw(steps), a3=draw(steps), a4=draw(st.floats(0.0, 10.0)),
            p_alpha=draw(exponents), p_beta=draw(exponents), p_gamma=draw(exponents),
            p_m=draw(st.floats(0.0, 3.0)),
            p_zeta=tuple(draw(s1_noise) for _ in range(n)), p_eta=tuple(draw(s1_noise) for _ in range(n)),
        )
    # p_m = 1e300 overflows m to infinity from K = 2 on, so inv_m = 0.
    return S2Params(
        alpha=draw(steps), beta=draw(steps), gamma=draw(steps),
        p_m=draw(st.one_of(st.floats(0.0, 5.0), st.just(1e300))),
        p_zeta=tuple(draw(s2_noise) for _ in range(n)), p_eta=tuple(draw(s2_noise) for _ in range(n)),
    )


@st.composite
def instances(draw):
    gp = draw(pairs())
    scheme = draw(schemes_for(gp.n))
    C = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    K = draw(st.one_of(st.just(0), st.integers(0, 400)))
    return gp, scheme, C, K


class TestAccountantOracle:
    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_trace_and_budget_equal_loops(self, inst):
        gp, scheme, C, K = inst
        dx, dy = rolling_sensitivity(gp, scheme, C, K)
        tr = sensitivity_trace(gp, scheme, C, K)
        assert same_bits(tr.dx, dx)
        assert same_bits(tr.dy, dy)
        inc, eps = loop_budget(dx, dy, scheme, K)
        budget = epsilon(tr, scheme, K)
        assert same_bits(budget.increments, inc)
        assert same_bits(budget.eps, eps)

    @pytest.mark.parametrize("p_m, K", [(1.0, 700), (1e300, 5)])
    def test_edge_cases(self, p_m, K):
        # Agent 0 has q_x = 0 and q_y = 3, agent 1 has q_x = q_y = 1, and
        # agent 0's state noise scale underflows to 0.  With m = 2 and K = 700,
        # dy overflows and dx turns NaN (0 * inf) against that zero scale; with
        # p_m = 1e300, m is infinite and every bound is 0.
        gp = build_graph_pair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [4.0, 0.0]]))
        scheme = S2Params(alpha=1.0, beta=1.0, gamma=0.5, p_m=p_m, p_zeta=(1e-200, 0.9), p_eta=(0.9, 0.9))
        assert rates_at(scheme, K).sigma_cols(0)[0][0] == 0.0
        tr = sensitivity_trace(gp, scheme, 1.0, K)
        dx, dy = rolling_sensitivity(gp, scheme, 1.0, K)
        assert same_bits(tr.dx, dx) and same_bits(tr.dy, dy)
        inc, eps = loop_budget(dx, dy, scheme, K)
        budget = epsilon(tr, scheme, K)
        assert same_bits(budget.increments, inc) and same_bits(budget.eps, eps)
        if math.isfinite(rates_at(scheme, K).m):
            assert np.isnan(dx[0]).any() and np.isinf(inc[0]).any()
        else:
            assert not dy.any() and not inc.any()

    def test_budget_across_blocks(self):
        # A horizon spanning several blocks of epsilon's per-block loop.
        gp = build_graph_pair(np.array([[0.0, 0.87], [0.87, 0.0]]), np.array([[0.0, 0.87], [0.87, 0.0]]))
        scheme = S1Params(
            a1=0.4, a2=0.4, a3=1.0, a4=4e-5, p_alpha=0.987, p_beta=0.69, p_gamma=0.997,
            p_m=2.0, p_zeta=(0.1, 0.1), p_eta=(0.1, 0.1),
        )
        K = 2 * _BUDGET_BLOCK + 17
        tr = sensitivity_trace(gp, scheme, 1.0, K)
        dx, dy = rolling_sensitivity(gp, scheme, 1.0, K)
        assert same_bits(tr.dx, dx) and same_bits(tr.dy, dy)
        inc, eps = loop_budget(dx, dy, scheme, K)
        budget = epsilon(tr, scheme, K)
        assert same_bits(budget.increments, inc)
        assert same_bits(budget.eps, eps)
