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

The accountant's memory is O(n x block) at any K.  A trace keeps each
distinct damping pair's recursion and yields its rows block by block;
``epsilon`` divides each block by the matching ``Rates.sigma_rows`` block and
adds each agent's increments in NumPy's pairwise order, so ``eps`` is their
table's ``.sum(axis=1)`` bit for bit (a test pins this against NumPy).  The
increments leave only as blocks; the (n, K+1) rows are built only when read.

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
from itertools import accumulate, chain, islice, repeat, tee

import numpy as np

from .engine import DivergenceError, draw_indices, draw_x0, noise, sampled_gradients, update
from .graphs import GraphPair
from .objectives import Dataset, Objective
from .schemes import Rates, SchemeParams, ValidationReport, check_agent_count, check_budget_finiteness, rates_at

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


def adjacency_constant(obj: Objective, ds: Dataset, ds_alt: Dataset) -> float:
    """Gradient-difference constant C for one adjacent dataset pair: :func:`swap_bound` over both."""
    differing_index(ds, ds_alt)
    return swap_bound(obj, (ds, ds_alt))


#: Entries of each (n, width) array that the accountant holds at once: a block
#: of the trace or the budget spans about _BUDGET_BLOCK // n iterations, so its
#: memory does not grow with K.
_BUDGET_BLOCK = 1 << 14

#: NumPy's pairwise summation adds a contiguous span of at most this many values
#: without splitting it (``PW_BLOCKSIZE`` in its source).
_PAIRWISE_LEAF = 128


def _half(length: int) -> int:
    """Where NumPy's pairwise summation splits a longer span: half, rounded down to a multiple of 8."""
    return length // 2 - length // 2 % 8


def _spans(start: int, length: int, width: int):
    """The blocks of ``range(start, start + length)``, in order, for a width of at least ``_PAIRWISE_LEAF``.

    They are the nodes of NumPy's pairwise-summation tree that fit ``width``:
    a node's ``.sum`` adds its values in the order that the whole row's does.
    """
    if length <= width:
        yield range(start, start + length)
    else:
        half = _half(length)
        yield from _spans(start, half, width)
        yield from _spans(start + half, length - half, width)


def _pairwise_sum(sums, length: int, width: int) -> np.ndarray:
    """The row sums of an (n, length) table from its :func:`_spans` blocks' row sums, taken in order.

    Each pair of nodes is added as NumPy adds them, so the result is the
    table's ``.sum(axis=1)`` bit for bit.  Each block's ``.sum`` starts from
    0.0, where the row's starts once; that differs only for a sum of -0.0,
    and no budget increment is negative.
    """
    if length <= width:
        return next(sums)
    half = _half(length)
    return _pairwise_sum(sums, half, width) + _pairwise_sum(sums, length - half, width)


def _block_width(n: int) -> int:
    """The widest block of n agents' rows."""
    return max(_PAIRWISE_LEAF, _BUDGET_BLOCK // n)


@dataclass(frozen=True)
class SensitivityTrace:
    """Per-agent l1 shift bounds dx[k], dy[k] for k = 0..K at one horizon.

    The trace holds each distinct damping pair's recursion, not its rows:
    :meth:`blocks` yields the rows block by block, and :attr:`dx` and
    :attr:`dy` are built, together, when first read.
    """

    K: int
    C: float
    m: float
    gp: GraphPair
    gamma: float
    damping: tuple[tuple[float, float], ...]  # each distinct (q_y, q_x), in order of first agent
    agent_runs: tuple[int, ...]  # agent i's index into damping

    def blocks(self):
        """(ks, dx, dy) per block of k = 0..K, in order, with dx and dy (n, len(ks)).

        Each damping pair's recursion is one ``itertools.accumulate`` run over
        every block, so a block carries on from the one before, with the same
        float operations in the same order as a per-k update of both rows.
        Agents with equal pairs get copies of one run.
        """
        inv_m = 0.0 if not math.isfinite(self.m) else 1.0 / self.m
        C, gamma = self.C, self.gamma
        ys, xs = [], []
        for q_y, q_x in self.damping:
            dy, lagged = tee(accumulate(repeat(2.0 * C * inv_m), lambda y, u, q=q_y: q * y + u, initial=C * inv_m))
            ys.append(dy)
            xs.append(accumulate(lagged, lambda x, v, q=q_x: q * x + gamma * v, initial=0.0))
        runs, copies = len(self.damping), list(self.agent_runs)
        for ks in _spans(0, self.K + 1, _block_width(self.gp.n)):
            w = len(ks)
            dy, dx = (
                np.fromiter(chain.from_iterable(islice(it, w) for it in rows), float, runs * w).reshape(runs, w)
                for rows in (ys, xs)
            )
            if runs < len(copies):
                dx, dy = dx[copies], dy[copies]
            yield ks, dx, dy

    @cached_property
    def _table(self) -> np.ndarray:
        table = np.empty((2, self.gp.n, self.K + 1))
        for ks, dx, dy in self.blocks():
            table[:, :, ks.start:ks.stop] = dx, dy
        return table

    @property
    def dx(self) -> np.ndarray:
        """(n, K+1), built with :attr:`dy` on first access."""
        return self._table[0]

    @property
    def dy(self) -> np.ndarray:
        """(n, K+1), built with :attr:`dx` on first access."""
        return self._table[1]


def sensitivity_trace(gp: GraphPair, scheme: SchemeParams, C: float, K: int) -> SensitivityTrace:
    """The sensitivity recursions of a horizon-K run, once per distinct damping pair (q_y, q_x).

    An agent's rows depend only on its damping pair.  Nothing of length K is
    computed here: the rows are streamed by :meth:`SensitivityTrace.blocks`.
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"adjacency constant C must be finite and positive, got {C!r}")
    check_agent_count(scheme, gp.n)
    rates = rates_at(scheme, K)
    q_x = np.abs(1.0 - rates.alpha * gp.row_sums_R).tolist()
    q_y = np.abs(1.0 - rates.beta * gp.col_sums_C).tolist()
    pairs = list(zip(q_y, q_x))
    runs = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}  # each distinct pair's run
    return SensitivityTrace(
        K=K, C=C, m=rates.m, gp=gp, gamma=rates.gamma, damping=tuple(runs), agent_runs=tuple(runs[p] for p in pairs),
    )


def _increment_blocks(trace: SensitivityTrace, rates: Rates):
    """(ks, increments) per block of k = 0..K, increments (n, len(ks)): 0.0 + zeta term + eta term."""
    for ks, dx, dy in trace.blocks():
        inc = np.zeros(dx.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for sens, scale in zip((dx, dy), rates.sigma_rows(ks)):
                no_noise = ~(scale > 0.0)
                np.divide(sens, scale, out=scale)
                scale[no_noise] = math.inf
                scale[sens == 0.0] = 0.0
                inc += scale
        yield ks, inc


@dataclass(frozen=True)
class BudgetReport:
    """Per-agent budgets of one horizon, with the trace and the schedule that :meth:`increment_blocks` reads."""

    K: int
    eps: np.ndarray  # (n,)
    scheme: SchemeParams
    trace: SensitivityTrace
    rates: Rates  # the schedule that epsilon divided by

    @property
    def gp(self) -> GraphPair:
        return self.trace.gp

    @property
    def eps_max(self) -> float:
        return float(self.eps.max())

    def increment_blocks(self):
        """(ks, increments) per block of k = 0..K, increments (n, len(ks)), recomputed on each call."""
        return _increment_blocks(self.trace, self.rates)

    @cached_property
    def finiteness(self) -> ValidationReport:
        """The scheme's finite-budget conditions on the pair, checked on first access, once per report."""
        return check_budget_finiteness(self.scheme, self.gp)

    @property
    def tail_order(self) -> str:
        return str(self.finiteness.derived.get("tail_order", ""))


def epsilon(trace: SensitivityTrace, scheme: SchemeParams, K: int) -> BudgetReport:
    """Cumulative budget eps_i from a sensitivity trace over the same horizon.

    A zero noise scale facing a nonzero sensitivity, or a quotient, increment
    or sum beyond the float range, yields an infinite budget entry (reported,
    not raised).  Budgets are exactly linear in 1/scale.
    The trace's rows and the increments are streamed in blocks whose memory
    does not grow with K, and each agent's increments are added in NumPy's
    pairwise order, so ``eps`` is the increment table's ``.sum(axis=1)`` bit
    for bit.  The finiteness verdict, which does not depend on K, is left to
    the report's first access, so a scan over horizons that never reads it
    never computes it.
    """
    if trace.K != K:
        raise ValueError(f"trace horizon {trace.K} does not match K={K}")
    check_agent_count(scheme, trace.gp.n)
    rates = rates_at(scheme, K)
    sums = (inc.sum(axis=1) for _, inc in _increment_blocks(trace, rates))
    with np.errstate(over="ignore", invalid="ignore"):
        eps = _pairwise_sum(sums, K + 1, _block_width(trace.gp.n))
    return BudgetReport(K=K, eps=eps, scheme=scheme, trace=trace, rates=rates)


# ---------------------------------------------------------------------------
# Coupled adjacent-dataset runs
# ---------------------------------------------------------------------------

def _differing_agents(datasets: list[Dataset], datasets_alt: list[Dataset]) -> list[int]:
    """The agents whose collections differ, each in exactly one sample (:func:`differing_index`), in order."""
    agents = []
    for i, (ds, ds_alt) in enumerate(zip(datasets, datasets_alt, strict=True)):
        if not np.array_equal(ds.samples, ds_alt.samples):
            differing_index(ds, ds_alt)
            agents.append(i)
    return agents


@dataclass(frozen=True)
class CoupledRunResult:
    K: int
    dx_measured: np.ndarray  # (n, K+1) realized l1 state differences
    dy_measured: np.ndarray


def coupled_pair_run(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    datasets: list[Dataset],
    datasets_alt: list[Dataset],
    K: int,
    seed: int,
) -> CoupledRunResult:
    """Two runs with pinned broadcasts, differing only through the datasets.

    Both start at the seed's keyed x0 and consume the first run's perturbed
    values and the same sample index draws, realizing the conditioning under
    which the sensitivity recursion is stated.  A ``DivergenceError`` from
    either side names ``seed``, as ``engine.run``'s does.
    """
    n, d = gp.n, obj.dim
    _differing_agents(datasets, datasets_alt)  # identical collections are allowed; their differences are 0
    check_agent_count(scheme, n)
    rates = rates_at(scheme, K)
    m = rates.m_int
    # One lane: states are (1, n, d), index draws (1, m) per agent.
    seeds = [seed]
    x0 = draw_x0(seeds, n, d)

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

    return CoupledRunResult(K=K, dx_measured=dx_meas, dy_measured=dy_meas)


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


#: Boxes drawn by :func:`micro_dp_check`, and the fewest outputs of each run
#: that a box must hold to be tested.
_N_BOXES = 120
_MIN_HITS = 500


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
) -> MicroDPReport:
    """Monte-Carlo output-distribution ratio test on a tiny instance.

    Guards: K <= 2, scalar states, at most two agents, and a loss affine in
    the sample (quadratic or trig).  The mechanism is run ``trials`` times
    per dataset collection; over ``_N_BOXES`` axis-aligned boxes on the
    differing agent's published sequence, each holding at least ``_MIN_HITS``
    outputs of both runs, the empirical ratio
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

    agents = _differing_agents(datasets, datasets_alt)
    if not agents:
        raise AdjacencyError("no differing sample in any agent's dataset")
    agent = agents[0]

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
            zeta, eta = np.empty((2, trials, n, 1))
            for i in range(n):
                zeta[:, i, 0] = rng.laplace(0.0, rates.sigma[0, i, k], size=trials)
                eta[:, i, 0] = rng.laplace(0.0, rates.sigma[1, i, k], size=trials)
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
    for _ in range(_N_BOXES):
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
        if min(hits_a, hits_b) < _MIN_HITS:
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
