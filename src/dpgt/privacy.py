"""Worst-case sensitivity accounting and the cumulative privacy budget.

The published object at iteration k is the perturbed pair (xb_{i,k}, yb_{i,k}).
Two dataset collections are *adjacent* for agent i when they differ in exactly
one sample and the per-sample gradients differ by at most a constant C in the
l1 norm at every point.  Conditioned on identical published values at all
earlier iterations, swapping the differing sample can shift the pre-noise pair
at iteration k by at most (dx[k], dy[k]) in the l1 norm, where with
q_y = |1 - b * col_sum_i| and q_x = |1 - a * row_sum_i|:

  dy[0] = C / m,   dy[k] = q_y * dy[k-1] + 2C / m
  dx[0] = 0,       dx[k] = q_x * dx[k-1] + gamma * dy[k-1]

(the first-order recursive form of the explicit geometric sums; the 1/m
factor is the subsampling gain from averaging m of the D samples).  The
cumulative budget after a horizon-K run is then the Laplace-mechanism
composition

  eps_i = sum_k ( dx[k] / sigma_zeta(i, k) + dy[k] / sigma_eta(i, k) ),

where a term with zero sensitivity is 0 and a nonzero sensitivity facing a
zero noise scale is inf.  Each increment is 0.0 + zeta term + eta term, and
every term is one float division, so a budget is exactly linear in 1/scale.

Budgets here are always computed from these closed-form bounds.  The coupled
two-run simulator and the small-instance likelihood-ratio test below exist
only to check that realized differences never exceed the bounds and that the
observed output-distribution ratio respects exp(eps).  Both advance their
states with ``engine.update``, the single update rule; they differ from an
ordinary run only in the broadcasts and gradient oracles they hand it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat

import numpy as np

from .engine import DivergenceError, draw_indices, draw_x0, noise, sampled_gradients, update
from .graphs import GraphPair
from .objectives import Dataset, Objective
from .schemes import SchemeParams, ValidationReport, check_agent_count, check_budget_finiteness, rates_at

__all__ = [
    "AdjacencyError",
    "SensitivityTrace",
    "BudgetReport",
    "CoupledRunResult",
    "MicroDPReport",
    "adjacency_constant",
    "swap_bound",
    "differing_index",
    "sensitivity_trace",
    "epsilon",
    "coupled_pair_run",
    "micro_dp_check",
]


class AdjacencyError(ValueError):
    """Dataset pair is not adjacent (must differ in exactly one sample)."""


def differing_index(ds: Dataset, ds_alt: Dataset) -> int:
    """Index of the single differing sample; raises when there is not exactly one."""
    if ds.samples.shape != ds_alt.samples.shape:
        raise AdjacencyError("adjacent datasets must have identical shape")
    diff = np.nonzero((ds.samples != ds_alt.samples).any(axis=1))[0]
    if diff.size == 0:
        raise AdjacencyError("datasets are identical; no differing sample")
    if diff.size > 1:
        raise AdjacencyError(f"datasets differ in {diff.size} samples, need exactly one")
    return int(diff[0])


def swap_bound(obj: Objective, datasets) -> float:
    """(2^tau + 1) * sqrt(d) * L2 * max ||xi||^tau over every sample of ``datasets``.

    Dominates the l1 change of the per-sample gradient, at every x, when any
    one of these samples is swapped for another.
    """
    worst = max(float(np.linalg.norm(ds.samples, axis=1).max()) for ds in datasets)
    return (2.0**obj.tau + 1.0) * math.sqrt(obj.dim) * obj.L2_holder * worst**obj.tau


def adjacency_constant(
    obj: Objective,
    ds: Dataset,
    ds_alt: Dataset,
    mode: str = "bound",
    xs: np.ndarray | None = None,
) -> float:
    """Gradient-difference constant C for one adjacent dataset pair.

    mode="bound" returns :func:`swap_bound` over both datasets.
    mode="empirical" instead takes the maximum of
    ||g(x, xi) - g(x, xi')||_1 over the supplied grid of points x.
    """
    l0 = differing_index(ds, ds_alt)
    if mode == "bound":
        return swap_bound(obj, (ds, ds_alt))
    if mode == "empirical":
        if xs is None:
            raise ValueError("empirical mode needs a grid of points xs")
        xs = np.atleast_2d(np.asarray(xs, float))
        diff = obj.grad_batch(xs, ds.samples[None, l0]) - obj.grad_batch(xs, ds_alt.samples[None, l0])
        return float(np.abs(diff).sum(axis=-1).max(initial=0.0))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SensitivityTrace:
    """Per-agent l1 shift bounds dx[k], dy[k] for k = 0..K at one horizon."""

    K: int
    C: float
    m: float
    dx: np.ndarray  # (n, K+1)
    dy: np.ndarray  # (n, K+1)
    gp: GraphPair


def _rows(n: int, K: int, rows) -> np.ndarray:
    """(n, K+1) array filled from n iterables of K+1 floats, with no temporary rows."""
    return np.fromiter(chain.from_iterable(rows), float, n * (K + 1)).reshape(n, K + 1)


def sensitivity_trace(gp: GraphPair, scheme: SchemeParams, C: float, K: int) -> SensitivityTrace:
    """The sensitivity recursions, once per distinct damping pair (q_y, q_x).

    Each row is a first-order recursion run by ``itertools.accumulate``
    straight into the array, with the same float operations in the same
    order as a per-k update of both rows.  An agent's rows depend only on
    its damping pair, so agents with equal pairs get copies of one run.
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"adjacency constant C must be finite and positive, got {C!r}")
    check_agent_count(scheme, gp.n)
    rates = rates_at(scheme, K)
    n = gp.n
    inv_m = 0.0 if not math.isfinite(rates.m) else 1.0 / rates.m
    q_x = np.abs(1.0 - rates.alpha * gp.row_sums_R).tolist()
    q_y = np.abs(1.0 - rates.beta * gp.col_sums_C).tolist()
    gamma = rates.gamma
    pairs = list(zip(q_y, q_x))
    runs = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}  # each distinct pair's run
    dy = _rows(len(runs), K, (
        accumulate(repeat(2.0 * C * inv_m, K), lambda y, u, q=q: q * y + u, initial=C * inv_m)
        for q, _ in runs
    ))
    # A memoryview of a row yields Python floats, with no list of K of them.
    dx = _rows(len(runs), K, (
        accumulate(row[:-1].data, lambda x, v, q=q: q * x + gamma * v, initial=0.0)
        for (_, q), row in zip(runs, dy)
    ))
    if len(runs) < n:
        agent_runs = [runs[pair] for pair in pairs]
        dx, dy = dx[agent_runs], dy[agent_runs]
    return SensitivityTrace(K=K, C=C, m=rates.m, dx=dx, dy=dy, gp=gp)


@dataclass(frozen=True)
class BudgetReport:
    K: int
    eps: np.ndarray  # (n,)
    increments: np.ndarray  # (n, K+1)
    scheme: SchemeParams
    gp: GraphPair

    @property
    def eps_max(self) -> float:
        return float(self.eps.max())

    @cached_property
    def finiteness(self) -> ValidationReport:
        """The scheme's finite-budget conditions on the pair, checked on first access, once per report."""
        return check_budget_finiteness(self.scheme, self.gp)

    @property
    def tail_order(self) -> str:
        return str(self.finiteness.derived.get("tail_order", ""))


#: Budget terms computed per block in :func:`epsilon`: a block holds as many
#: iterations of every agent as fit.
_BUDGET_BLOCK = 4096


def epsilon(trace: SensitivityTrace, scheme: SchemeParams, K: int) -> BudgetReport:
    """Cumulative budget eps_i from a sensitivity trace over the same horizon.

    A zero noise scale facing a nonzero sensitivity yields an infinite budget
    entry (reported, not raised).  Budgets are exactly linear in 1/scale.
    The finiteness verdict, which does not depend on K, is left to the
    report's first ``finiteness`` access, so a scan over horizons that never
    reads it never computes it.
    """
    if trace.K != K:
        raise ValueError(f"trace horizon {trace.K} does not match K={K}")
    check_agent_count(scheme, trace.gp.n)
    rates = rates_at(scheme, K)
    n = trace.dx.shape[0]
    inc = np.zeros((n, K + 1))
    # Blocks of k bound the temporaries; whole-row ones at K = 1e5 raised
    # the peak resident set of a budget run by about 2%.
    width = max(1, _BUDGET_BLOCK // n)
    for k0 in range(0, K + 1, width):
        block = slice(k0, k0 + width)
        for sens, scale in zip((trace.dx[:, block], trace.dy[:, block]), rates.sigma_rows(range(K + 1)[block])):
            no_noise = ~(scale > 0.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(sens, scale, out=scale)
            scale[no_noise] = math.inf
            scale[sens == 0.0] = 0.0
            inc[:, block] += scale  # 0.0 + zeta term + eta term
    return BudgetReport(K=K, eps=inc.sum(axis=1), increments=inc, scheme=scheme, gp=trace.gp)


# ---------------------------------------------------------------------------
# Coupled adjacent-dataset runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledRunResult:
    K: int
    dx_measured: np.ndarray  # (n, K+1) realized l1 state differences
    dy_measured: np.ndarray
    differing: dict  # agent -> differing sample index


def coupled_pair_run(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    datasets: list[Dataset],
    datasets_alt: list[Dataset],
    K: int,
    seed: int,
    x0: np.ndarray | None = None,
) -> CoupledRunResult:
    """Two runs with pinned broadcasts, differing only through the datasets.

    Both runs consume the first run's perturbed values and the same sample
    index draws, realizing the conditioning under which the sensitivity
    recursion is stated.  A ``DivergenceError`` from either side names
    ``seed``, as ``engine.run``'s does.
    """
    n, d = gp.n, obj.dim
    differing = {}
    for i in range(n):
        try:
            differing[i] = differing_index(datasets[i], datasets_alt[i])
        except AdjacencyError as exc:
            if "identical" in str(exc):
                continue  # identical collections are allowed; their differences are 0
            raise

    check_agent_count(scheme, n)
    rates = rates_at(scheme, K)
    m = rates.m_int
    # One lane: states are (1, n, d), index draws (1, m) per agent.
    seeds = [seed]
    x0 = draw_x0(seeds, n, d) if x0 is None else np.asarray(x0, dtype=float)[None]

    idxs = draw_indices(seeds, datasets, 0, m)
    x_a, y_a = x0, sampled_gradients(obj, datasets, x0, idxs)
    x_b, y_b = x0, sampled_gradients(obj, datasets_alt, x0, idxs)
    g_a, g_b = y_a, y_b

    dx_meas = np.zeros((n, K + 1))
    dy_meas = np.zeros((n, K + 1))
    dy_meas[:, 0] = np.abs(y_a - y_b)[0].sum(axis=1)
    try:
        for k in range(K):
            zeta, eta = noise(seeds, (rates,), k, n, d)
            xb, yb = x_a + zeta, y_a + eta  # side a's broadcast, received by both sides
            idxs = draw_indices(seeds, datasets, k + 1, m)
            x_a, y_a, g_a = update(
                x_a, y_a, g_a, xb, yb, lambda x: sampled_gradients(obj, datasets, x, idxs), (rates,), gp, k
            )
            x_b, y_b, g_b = update(
                x_b, y_b, g_b, xb, yb, lambda x: sampled_gradients(obj, datasets_alt, x, idxs), (rates,), gp, k
            )
            dx_meas[:, k + 1] = np.abs(x_a - x_b)[0].sum(axis=1)
            dy_meas[:, k + 1] = np.abs(y_a - y_b)[0].sum(axis=1)
    except DivergenceError as err:
        err.seed = seed
        raise

    return CoupledRunResult(K=K, dx_measured=dx_meas, dy_measured=dy_meas, differing=differing)


# ---------------------------------------------------------------------------
# Small-instance likelihood-ratio check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MicroDPReport:
    eps: float
    worst_ratio: float
    worst_allowance: float
    boxes_tested: int
    passed: bool


def _subset_means(rng: np.random.Generator, values: np.ndarray, m: int, trials: int) -> np.ndarray:
    """Mean of a uniform m-subset of ``values`` per trial (without replacement)."""
    D = values.shape[0]
    if m >= D:
        return np.full(trials, values.mean())
    keys = rng.random((trials, D))
    idx = np.argpartition(keys, m - 1, axis=1)[:, :m]
    return values[idx].mean(axis=1)


def micro_dp_check(
    scheme: SchemeParams,
    gp: GraphPair,
    obj: Objective,
    datasets: list[Dataset],
    datasets_alt: list[Dataset],
    K: int,
    trials: int = 10**6,
    seed: int = 20240,
    n_boxes: int = 120,
    min_hits: int = 500,
) -> MicroDPReport:
    """Monte-Carlo output-distribution ratio test on a tiny instance.

    Guards: K <= 2, scalar states, at most two agents, and a loss affine in
    the sample (quadratic or trig).  The mechanism is run ``trials`` times
    per dataset collection; over a family of axis-aligned boxes on the
    differing agent's published sequence, the empirical ratio
    P(out in box | datasets) / P(out in box | datasets_alt) must not exceed
    exp(eps) beyond three binomial standard errors (both directions checked).
    """
    if K > 2:
        raise ValueError("likelihood-ratio check is limited to K <= 2")
    if obj.dim != 1:
        raise ValueError("likelihood-ratio check needs scalar states")
    if gp.n > 2:
        raise ValueError("likelihood-ratio check is limited to n <= 2")
    if trials < 10**4:
        raise ValueError("need at least 1e4 trials for stable counts")
    grad = getattr(obj.family, "mean_gradient_d1", None)  # as g(x, mean xi), vectorized
    if grad is None:
        raise ValueError(f"the {obj.kind} loss is not affine in the sample")

    agent = None
    for i in range(gp.n):
        try:
            differing_index(datasets[i], datasets_alt[i])
            agent = i
            break
        except AdjacencyError:
            continue
    if agent is None:
        raise AdjacencyError("no differing sample in any agent's dataset")

    C = adjacency_constant(obj, datasets[agent], datasets_alt[agent])
    budget = epsilon(sensitivity_trace(gp, scheme, C, K), scheme, K)
    eps = float(budget.eps[agent])

    rates = rates_at(scheme, K)
    m = rates.m_int
    n = gp.n
    x0 = draw_x0([seed], n, 1)[0]

    def simulate(side: int, sample_sets: list[Dataset]) -> np.ndarray:
        # States are (trials, n, 1): one scalar run per trial along the batch axis.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(side,)))
        values = [sample_sets[i].samples[:, 0] for i in range(n)]

        def grad_at(x: np.ndarray) -> np.ndarray:
            cols = [grad(x[:, i, 0], _subset_means(rng, values[i], m, trials)) for i in range(n)]
            return np.stack(cols, axis=1)[:, :, None]

        x = np.broadcast_to(x0, (trials, n, 1))
        g = grad_at(x)
        y = g
        obs = np.empty((trials, 2 * (K + 1)))
        for k in range(K + 1):
            zeta = np.empty((trials, n, 1))
            eta = np.empty((trials, n, 1))
            scales_zeta, scales_eta = rates.sigma_cols(k)
            for i in range(n):
                zeta[:, i, 0] = rng.laplace(0.0, scales_zeta[i], size=trials)
                eta[:, i, 0] = rng.laplace(0.0, scales_eta[i], size=trials)
            xb, yb = x + zeta, y + eta
            obs[:, 2 * k] = xb[:, agent, 0]
            obs[:, 2 * k + 1] = yb[:, agent, 0]
            if k == K:
                break
            x, y, g = update(x, y, g, xb, yb, grad_at, (rates,), gp, k)
        return obs

    obs_a = simulate(0, datasets)
    obs_b = simulate(1, datasets_alt)

    # Axis-aligned boxes from pooled quantiles over a few random coordinates.
    box_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    pooled = np.vstack([obs_a[: trials // 10], obs_b[: trials // 10]])
    n_coord = obs_a.shape[1]
    worst_ratio = 0.0
    worst_allowance = math.inf
    passed = True
    tested = 0
    e_eps = math.exp(eps)
    for _ in range(n_boxes):
        n_active = int(box_rng.integers(1, min(3, n_coord) + 1))
        coords = box_rng.choice(n_coord, size=n_active, replace=False)
        mask_a = np.ones(trials, dtype=bool)
        mask_b = np.ones(trials, dtype=bool)
        for cidx in coords:
            qs = np.sort(box_rng.uniform(0.0, 1.0, size=2))
            lo, hi = np.quantile(pooled[:, cidx], qs)
            if box_rng.random() < 0.3:
                lo = -math.inf
            if box_rng.random() < 0.3:
                hi = math.inf
            mask_a &= (obs_a[:, cidx] >= lo) & (obs_a[:, cidx] <= hi)
            mask_b &= (obs_b[:, cidx] >= lo) & (obs_b[:, cidx] <= hi)
        hits_a = int(mask_a.sum())
        hits_b = int(mask_b.sum())
        if min(hits_a, hits_b) < min_hits:
            continue
        tested += 1
        p_a = hits_a / trials
        p_b = hits_b / trials
        rel_se = math.sqrt((1.0 - p_a) / hits_a + (1.0 - p_b) / hits_b)
        allowance = e_eps * (1.0 + 3.0 * rel_se)
        for ratio in (p_a / p_b, p_b / p_a):
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_allowance = allowance
            if ratio > allowance:
                passed = False
    return MicroDPReport(
        eps=eps,
        worst_ratio=worst_ratio,
        worst_allowance=worst_allowance,
        boxes_tested=tested,
        passed=passed,
    )
