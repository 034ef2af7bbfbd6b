"""Noisy gradient-tracking engine over a weighted digraph pair.

One iteration, for every agent i simultaneously:

  1. perturb:    xb_i = x_i + zeta_i,   yb_i = y_i + eta_i
                 (coordinatewise Laplace noise, scales from the schedule)
  2. broadcast / receive the perturbed values along the two graphs
  3. state:      x_i <- (1 - a * sum_j R_ij) x_i + a * sum_j R_ij xb_j - c * y_i
  4. sample:     m distinct dataset indices, uniformly without replacement
  5. gradient:   g_i <- mean of the sampled per-sample gradients at the new x_i
  6. tracking:   y_i <- (1 - b * sum_j C_ji) y_i + b * sum_j C_ij yb_j
                        + g_i(new) - g_i(old)

Steps 2, 3 and 6 are written once, in :func:`update`, which every simulator
of the algorithm calls: :func:`step` here, and both sides of the coupled run
and the likelihood-ratio check in ``privacy``.  The caller supplies the
broadcast pair and the gradient oracle, so the kernel needs no knowledge of
where the noise or the samples come from.

Stacked over agents, steps 3 and 6 read

  x+ = ((I - a L1) ⊗ I_d) x + a (R ⊗ I_d) zeta - c y
  y+ = ((I - b L2) ⊗ I_d) y + b (C ⊗ I_d) eta + g+ - g

:func:`compact_step` writes this form out separately, as the independent
reference the equivalence tests check :func:`step` against.  With all noise
off, 1ᵀ y_k = 1ᵀ g_k holds exactly for every k by telescoping from y_0 = g_0.

Randomness is counter-based: every Laplace block and every index draw comes
from a fresh Philox stream keyed by (seed, agent, iteration, role), so the
trajectory is independent of evaluation order and identical across reruns.
Seeds are therefore independent lanes, and the engine is written once for a
leading lane axis: the keyed draws, the state and the loop all take a list of
seeds and arrays of shape (G·S, n, d), and every array operation acts on each
lane as it acts on one seed's arrays.  The G groups of S lanes are horizons:
no key names the horizon, so the runs of one seed at several horizons share
x_0, every index permutation (a horizon's m-sample is a prefix of it) and
every Laplace block up to its scale, which :func:`noise` alone applies.
Chunks draw each once per seed for all groups; a :func:`run` is a chunk of one
lane.  Every ensemble is a sweep of one or more horizons through one driver,
``_sweep``, which :func:`run_ensemble` and :func:`run_horizons` call.  A sweep
with a large horizon runs in forked worker processes, one contiguous block of
seeds each, and advances a block's seeds together in chunks, every horizon's
lanes in one chunk, with one gradient pass per group and one metrics pass per
step.  A small one runs seed after seed through :func:`run`, as the benchmark
self-test counts; so, once, does a sweep with a refused horizon or a failing
chunk, and that loop alone raises errors.  The bits are the same every way.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .graphs import GraphPair, SpectralConstants, spectral_constants
from .objectives import Objective
from .schemes import Rates, SchemeParams, check_agent_count, rates_at

__all__ = [
    "EngineState",
    "Trajectory",
    "EnsembleResult",
    "ConfigError",
    "DivergenceError",
    "keyed_generator",
    "laplace_vector",
    "sample_indices",
    "noise",
    "draw_x0",
    "draw_indices",
    "sampled_gradients",
    "update",
    "perturb",
    "initialize",
    "step",
    "run",
    "run_ensemble",
    "run_horizons",
    "compact_step",
]

ROLE_X0 = 0
ROLE_ZETA = 1
ROLE_ETA = 2
ROLE_SAMPLES = 3

DIVERGENCE_LIMIT = 1e12

_KEY_AGENT_BITS = 16
_KEY_ROLE_BITS = 8
_KEY_ITER_BITS = 40

# Serial cost of one agent's step: a fixed part, and the O(D) index shuffle
# per sample of its dataset (2-core x86 host, n=5, d=10).  An ensemble forks
# workers and batches seeds when the estimated serial time of the ensemble
# reaches _POOL_MIN_S, well above the 8-18 ms that starting two workers costs.
_AGENT_STEP_S = 30e-6
_SAMPLE_S = 14e-9
_POOL_MIN_S = 0.05

# Bound on the per-sample gradients of a batched chunk of seeds, S * n * m * d
# floats summed over its horizons; a block runs in chunks of as many seeds as fit.
_CHUNK_BYTES = 1 << 23


class ConfigError(ValueError):
    """Run configuration rejected before execution."""


class DivergenceError(RuntimeError):
    """A state entry left the admissible range; parameters are unstable.

    ``variable`` ("state" or "tracking"), iteration ``k`` and ``agent`` locate
    the largest entry, of absolute value ``magnitude``.  ``seed`` is the
    seed of the run that diverged, or None where no one run is known: a
    chunk of several lanes, or a bare :func:`step`.
    """

    def __init__(self, variable: str, k: int, agent: int, magnitude: float, seed: int | None = None):
        super().__init__(variable, k, agent, magnitude, seed)
        self.variable, self.k, self.agent, self.magnitude, self.seed = variable, k, agent, magnitude, seed

    def __str__(self) -> str:
        run = "" if self.seed is None else f" (seed {self.seed})"
        return (
            f"{self.variable} of agent {self.agent} reached magnitude {self.magnitude:.3e} "
            f"at iteration {self.k}{run}; step sizes are unstable for this problem"
        )

    def __reduce__(self):
        # The attributes, not ``args``: run sets ``seed`` after construction.
        return type(self), (self.variable, self.k, self.agent, self.magnitude, self.seed)


_local = threading.local()


def _slot() -> tuple[np.random.Generator, np.random.Philox, list[int], dict]:
    """This thread's generator, its Philox, and the key list inside the state dict that re-keys it."""
    try:
        return _local.slot
    except AttributeError:
        pass
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    key = [0, 0]
    # Philox's state setter reads these entries by index, so plain lists
    # serve, and rewriting two key words re-keys without building arrays.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    _local.slot = np.random.Generator(bitgen), bitgen, key, state
    return _local.slot


def keyed_generator(seeds, agent: int, k: int, role: int, draw) -> list:
    """``[draw(gen) for each seed]``, where gen is the Philox stream keyed by (seed, agent, iteration, role).

    Each seed's generator draws as a fresh ``Generator(Philox(key=k2))`` with
    ``k2 = np.array([seed % 2**64, word], dtype=np.uint64)`` and
    ``word = agent << 48 | role << 40 | k``, whatever was drawn before.  It
    is one generator per thread, re-keyed in place for every draw (which
    resets the counter and empties the buffers), so ``draw`` must not keep it
    or make a keyed draw of its own.  The key ranges are checked once per call.
    """
    if not (0 <= agent < 2**_KEY_AGENT_BITS):
        raise ConfigError(f"agent id {agent} outside key range")
    if not (0 <= k < 2**_KEY_ITER_BITS):
        raise ConfigError(f"iteration index {k} outside key range")
    if not (0 <= role < 2**_KEY_ROLE_BITS):
        raise ConfigError(f"role {role} outside key range")
    gen, bitgen, key, state = _slot()
    word = (agent << (_KEY_ROLE_BITS + _KEY_ITER_BITS)) | (role << _KEY_ITER_BITS) | k
    out = []
    for seed in seeds:
        key[0] = seed % 2**64
        key[1] = word
        bitgen.state = state
        out.append(draw(gen))
    return out


def laplace_vector(seeds, agent: int, k: int, role: int, d: int) -> np.ndarray:
    """Keyed d-dimensional unit-scale Laplace blocks, one row per seed: (S, d); :func:`noise` scales them."""
    return np.array(keyed_generator(seeds, agent, k, role, lambda gen: gen.laplace(0.0, 1.0, d)))


def sample_indices(seeds, agent: int, k: int, D: int, m: int) -> np.ndarray:
    """m distinct indices in [0, D) per seed, uniform without replacement, keyed per (agent, k): (S, m).

    Each row is the m-prefix of one C-level Fisher-Yates shuffle; the prefix
    of a uniform permutation is a uniform ordered m-subset.
    """
    if not (1 <= m <= D):
        raise ConfigError(f"need 1 <= m <= D, got m={m}, D={D}")
    return np.array(keyed_generator(seeds, agent, k, ROLE_SAMPLES, lambda gen: gen.permutation(D)[:m]))


@dataclass(frozen=True)
class EngineState:
    """Iteration k of the runs of ``seeds`` in G horizon groups.

    Lane g·S + s holds seed s's arrays under group g's schedule, where S is
    ``len(seeds)``; the functions that take a state take the G schedules as
    the tuple ``rates``.
    """

    k: int
    x: np.ndarray  # (G·S, n, d)
    y: np.ndarray  # (G·S, n, d)
    g_prev: np.ndarray  # (G·S, n, d)
    seeds: tuple[int, ...]


def noise(seeds, rates: tuple[Rates, ...], k: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Keyed Laplace blocks (zeta, eta), each (G·S, n, d), for iteration k <= every group's K.

    The one place a scale meets a draw: each agent's block of a role is drawn
    once per seed, at unit scale, and every group's lanes take it times their
    ``Rates.sigma`` entry, in one broadcast product.  NumPy draws a Laplace
    variate as ``0.0 ± scale·log(u)``, so ``s·laplace(0, 1) + 0.0`` is
    ``laplace(0, s)`` bit for bit: the product is the same, and adding 0.0
    gives a product that underflows to -0.0 the sign of ``0.0 ± ...``.
    Noise is drawn for every agent whenever one of its scales is nonzero, so
    streams stay aligned across topologies; an agent whose scales are all
    zero draws nothing, and a lane whose scale is zero stays exactly +0.0.
    """
    if any(k > r.K for r in rates):
        raise ConfigError(f"iteration {k} is past the horizon K={min(r.K for r in rates)}")
    sigma = np.array([r.sigma[:, :, k] for r in rates]).swapaxes(0, 1)  # (2, G, n)
    blocks = []
    for role, scales in zip((ROLE_ZETA, ROLE_ETA), sigma):
        unit = np.zeros((len(seeds), n, d))
        for i in np.flatnonzero((scales > 0.0).any(axis=0)).tolist():
            unit[:, i] = laplace_vector(seeds, i, k, role, d)
        blocks.append((unit * scales[:, None, :, None] + 0.0).reshape(-1, n, d))
    return tuple(blocks)


def draw_x0(seeds, n: int, d: int) -> np.ndarray:
    """Keyed initial states, uniform on [-1, 1]^d per agent, shape (S, n, d)."""
    x0 = np.empty((len(seeds), n, d))
    for i in range(n):
        x0[:, i] = keyed_generator(seeds, i, 0, ROLE_X0, lambda gen: gen.uniform(-1.0, 1.0, d))
    return x0


def draw_indices(seeds, datasets, k: int, m: int) -> list[np.ndarray]:
    """Agent i's m sample indices per seed for iteration k, (S, m) each, one keyed draw per agent."""
    return [sample_indices(seeds, i, k, ds.size, m) for i, ds in enumerate(datasets)]


def sampled_gradients(obj: Objective, datasets, x: np.ndarray, idxs) -> np.ndarray:
    """Entry (..., i, :): mean per-sample gradient at x[..., i, :] over datasets[i].samples[idxs[i]].

    Lanes (S, n, d) gather every agent's samples into one (S, n, m, r) block,
    stacked agent by agent so that dataset sizes may differ, for one
    ``grad_batch`` call.  A single lane goes without its lane axis, one call
    per agent: the one-point evaluators give the same bits at a fraction of
    the per-call cost.  Each mean is ``.mean(axis=0)``'s own arithmetic, a
    sum reduction over the sample axis and then a division by the count.
    """
    if x.ndim == 3 and len(x) == 1:
        return sampled_gradients(obj, datasets, x[0], [idx[0] for idx in idxs])[None]
    if x.ndim == 3:
        xis = np.stack([ds.samples[idx] for ds, idx in zip(datasets, idxs, strict=True)], axis=-3)
        out = np.add.reduce(obj.grad_batch(x, xis), axis=-2)
    else:
        out = np.empty(x.shape)
        for i, (ds, idx) in enumerate(zip(datasets, idxs, strict=True)):
            np.add.reduce(obj.grad_batch(x[i], ds.samples[idx]), axis=-2, out=out[i])
    out /= idxs[0].shape[-1]
    return out


def _lane_gradients(obj: Objective, seeds, rates: tuple[Rates, ...], k: int, x: np.ndarray) -> np.ndarray:
    """Sampled gradients at the lanes x (G·S, n, d) for iteration k.

    Each agent's indices are drawn once per seed, with the largest m of the
    groups, and each group's lanes take their m-prefix: a prefix of one
    keyed permutation is the smaller draw.  One :func:`sampled_gradients`
    call per group.
    """
    idxs = draw_indices(seeds, obj.datasets, k, max(r.m_int for r in rates))
    if len(rates) == 1:
        return sampled_gradients(obj, obj.datasets, x, idxs)
    S = len(seeds)
    return np.concatenate([
        sampled_gradients(obj, obj.datasets, x[g * S:(g + 1) * S], [idx[:, :r.m_int] for idx in idxs])
        for g, r in enumerate(rates)
    ])


def _guard(name: str, arr: np.ndarray, k: int) -> None:
    worst = float(np.abs(arr).max())
    if not math.isfinite(worst) or worst > DIVERGENCE_LIMIT:
        # The entry behind ``worst`` (argmax, like max, stops at the first NaN); agents sit on axis -2.
        agent = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)[-2]
        raise DivergenceError(name, k, int(agent), worst)


def _step_sizes(rates: tuple[Rates, ...], gp: GraphPair, lanes: int) -> tuple:
    """(a, b, c, keep_x, keep_y) for :func:`update`.

    One schedule gives floats and the pair's cached (n, 1) self-weights;
    several give lane columns of each group's values, with the same
    1 - a·row_sum per entry.
    """
    if len(rates) == 1:
        r = rates[0]
        return r.alpha, r.beta, r.gamma, *gp.mixing_coefficients(r.alpha, r.beta)
    a, b, c = (
        np.repeat([getattr(r, name) for r in rates], lanes // len(rates))[:, None, None]
        for name in ("alpha", "beta", "gamma")
    )
    return a, b, c, 1.0 - a * gp.row_sums_R[:, None], 1.0 - b * gp.col_sums_C[:, None]


def update(
    x: np.ndarray, y: np.ndarray, g: np.ndarray, xb: np.ndarray, yb: np.ndarray,
    grad_at, rates: tuple[Rates, ...], gp: GraphPair, k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradient-tracking update from iteration k to k+1, given the broadcasts.

    (xb, yb) is the perturbed pair the agents receive and ``grad_at(x_next)``
    returns the sampled gradients at the new states.  Agents sit on axis -2,
    so a leading batch axis on every array broadcasts.  With one schedule
    per horizon group (see :class:`EngineState`), each group's lanes take
    its own step sizes.  Returns (x_next, y_next, g_next).
    """
    a, b, c, keep_x, keep_y = _step_sizes(rates, gp, len(x))
    x_next = keep_x * x + a * (gp.R @ xb) - c * y
    _guard("state", x_next, k + 1)
    g_next = grad_at(x_next)
    y_next = keep_y * y + b * (gp.C @ yb) + g_next - g
    _guard("tracking", y_next, k + 1)
    return x_next, y_next, g_next


def perturb(state: EngineState, rates: tuple[Rates, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed broadcast pair (xb, yb) for iteration k."""
    zeta, eta = noise(state.seeds, rates, k, *state.x.shape[1:])
    return state.x + zeta, state.y + eta


def initialize(
    gp: GraphPair,
    rates: tuple[Rates, ...],
    obj: Objective,
    seeds,
    x0: np.ndarray | None = None,
) -> EngineState:
    """Draw each seed's x_0 once for all groups, or start every lane at x0 (n, d); sample the first batches; set y_0 = g_0."""
    n, d = gp.n, obj.dim
    if len(obj.datasets) != n:
        raise ConfigError(f"the objective has {len(obj.datasets)} agents, the graph pair {n}")
    G = len(rates)
    if x0 is None:
        x0 = np.tile(draw_x0(seeds, n, d), (G, 1, 1))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n, d):
            raise ConfigError(f"x0 must have shape {(n, d)}, got {x0.shape}")
        x0 = np.repeat(x0[None], G * len(seeds), axis=0)
    g0 = _lane_gradients(obj, seeds, rates, 0, x0)
    return EngineState(k=0, x=x0, y=g0.copy(), g_prev=g0, seeds=tuple(seeds))


def step(state: EngineState, gp: GraphPair, rates: tuple[Rates, ...], obj: Objective) -> EngineState:
    """Advance one iteration: perturb, then :func:`update`."""
    k = state.k
    xb, yb = perturb(state, rates, k)

    def grad_at(x_next: np.ndarray) -> np.ndarray:
        return _lane_gradients(obj, state.seeds, rates, k + 1, x_next)

    x, y, g = update(state.x, state.y, state.g_prev, xb, yb, grad_at, rates, gp, k)
    return EngineState(k=k + 1, x=x, y=y, g_prev=g, seeds=state.seeds)


def compact_step(
    state: EngineState,
    gp: GraphPair,
    rates: Rates,
    obj: Objective,
) -> EngineState:
    """Same update written with the stacked mixing matrices (cross-check path).

    Deliberately independent of :func:`update`: it mixes with I - a L1 and
    I - b L2 and adds the mixed noise, where :func:`update` mixes the
    perturbed values.  It uses the identical noise and sampling streams, so
    the two must agree entrywise up to floating-point roundoff.
    """
    k = state.k
    a, b, c = rates.alpha, rates.beta, rates.gamma
    n = gp.n
    zeta, eta = noise(state.seeds, (rates,), k, *state.x.shape[1:])
    eye = np.eye(n)
    x_next = (eye - a * gp.L1) @ state.x + a * (gp.R @ zeta) - c * state.y
    _guard("state", x_next, k + 1)
    idxs = draw_indices(state.seeds, obj.datasets, k + 1, rates.m_int)
    g_next = sampled_gradients(obj, obj.datasets, x_next, idxs)
    y_next = (eye - b * gp.L2) @ state.y + b * (gp.C @ eta) + g_next - state.g_prev
    _guard("tracking", y_next, k + 1)
    return EngineState(k=k + 1, x=x_next, y=y_next, g_prev=g_next, seeds=state.seeds)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Metrics of one run: ``v`` for k = 0..K+1, the other series after each step.

    Row k of ``v`` is (consensus_x, consensus_y, gap) at iteration k, row 0
    being the initial state.  ``gap`` is measured at the v1-weighted network
    average, the same point the drift analysis tracks.
    """

    K: int
    ks: np.ndarray  # (K+1,) = 1..K+1
    v: np.ndarray  # (K+2, 3)
    grad_norm_sq: np.ndarray  # (K+1, n)
    samples_cum: np.ndarray  # (K+1,) per-agent cumulative draw count
    final_x: np.ndarray  # (n, d)
    seed: int

    @property
    def consensus_x(self) -> np.ndarray:
        return self.v[1:, 0]

    @property
    def consensus_y(self) -> np.ndarray:
        return self.v[1:, 1]

    @property
    def gap(self) -> np.ndarray:
        return self.v[1:, 2]


def _squared_norms(w: np.ndarray) -> np.ndarray:
    """||w||^2 per matrix w (..., n, d), as ``float(np.sqrt(w.ravel().dot(w.ravel())) ** 2)``.

    np.sqrt of the dot is np.linalg.norm's arithmetic for a flat vector, and
    ``** 2`` on a float calls libm's pow, as it does on a NumPy scalar.
    """
    flat = w.reshape(w.shape[:-2] + (1, -1))
    norms = np.sqrt(flat @ flat.swapaxes(-1, -2))  # one BLAS dot per matrix, as w.dot(w)
    return np.array([r**2 for r in norms.ravel().tolist()]).reshape(w.shape[:-2])


def _metrics(
    x: np.ndarray,
    y: np.ndarray,
    sc: SpectralConstants,
    obj: Objective,
    f_star: float,
):
    """(consensus_x, consensus_y, squared gradient norm per agent, gap) at states (..., n, d)."""
    cx = _squared_norms(sc.W1 @ x)
    cy = _squared_norms(sc.W2 @ y)
    grads = (obj.global_gradient_rows(x) ** 2).sum(axis=-1)
    x_bar = (sc.v1 @ x) / sc.n
    gap = obj.global_value(x_bar) - f_star
    return cx, cy, grads, gap


def _checked_rates(gp: GraphPair, scheme: SchemeParams, obj: Objective, K: int, noise_off: bool) -> Rates:
    """The schedule at horizon K, refused for another agent count or a sampling count above a dataset's size."""
    if K < 0:
        raise ConfigError("K must be nonnegative")
    check_agent_count(scheme, gp.n)
    rates = rates_at(scheme, K)
    if noise_off:
        rates = replace(rates, noise_off=True)
    if not math.isfinite(rates.m) or rates.m_int > obj.min_dataset_size():
        raise ConfigError(
            f"sampling count m={rates.m} exceeds the smallest dataset "
            f"({obj.min_dataset_size()} samples); choose a smaller growth parameter"
        )
    return rates


def _run_chunk(
    gp: GraphPair,
    groups: tuple[Rates, ...],
    obj: Objective,
    seeds: list[int],
    x0: np.ndarray | None,
    sc: SpectralConstants,
) -> list[list[Trajectory]]:
    """Each group's trajectories of ``seeds``, all advanced together on (G·S, n, d) arrays.

    ``groups`` holds one schedule per distinct horizon, longest first.  A
    group's lanes retire once its K+1 steps are done, so the live lanes are
    always a leading slice.  A divergence is raised without a seed, since a
    chunk cannot tell which of its diverging lanes the serial loop would have
    named.
    """
    S, n = len(seeds), gp.n
    f_star = obj.F_star if obj.F_star is not None else 0.0
    state = initialize(gp, groups, obj, seeds, x0)
    v = np.empty((len(state.x), groups[0].K + 2, 3))
    grad_norm_sq = np.empty((len(state.x), groups[0].K + 1, n))
    v[:, 0, 0], v[:, 0, 1], _, v[:, 0, 2] = _metrics(state.x, state.y, sc, obj, f_star)
    final_x = np.empty(state.x.shape)
    live = len(groups)
    for k in range(groups[0].K + 1):
        while groups[live - 1].K < k:
            live -= 1
            final_x[live * S:(live + 1) * S] = state.x[live * S:]
            state = replace(state, x=state.x[:live * S], y=state.y[:live * S], g_prev=state.g_prev[:live * S])
        state = step(state, gp, groups[:live], obj)
        L = live * S
        cx, cy, grad_norm_sq[:L, k], gap = _metrics(state.x, state.y, sc, obj, f_star)
        v[:L, k + 1, 0], v[:L, k + 1, 1], v[:L, k + 1, 2] = cx, cy, gap
    final_x[:live * S] = state.x
    return [
        [
            Trajectory(
                K=r.K, ks=np.arange(1, r.K + 2), v=v[lane, :r.K + 2], grad_norm_sq=grad_norm_sq[lane, :r.K + 1],
                samples_cum=r.m_int * np.arange(2, r.K + 3, dtype=np.int64),  # the first batch plus K+1 more
                final_x=final_x[lane], seed=s,
            )
            for lane, s in zip(range(g * S, (g + 1) * S), seeds)
        ]
        for g, r in enumerate(groups)
    ]


def run(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    K: int,
    seed: int,
    x0: np.ndarray | None = None,
    sc: SpectralConstants | None = None,
    noise_off: bool = False,
) -> Trajectory:
    """Execute K+1 update cycles from the initialization and record metrics.

    ``noise_off`` zeroes every perturbation while keeping all other streams
    (initial states, index draws) identical; this is the baseline mode.
    """
    rates = _checked_rates(gp, scheme, obj, K, noise_off)
    if sc is None:
        sc = spectral_constants(gp)
    try:
        return _run_chunk(gp, (rates,), obj, [seed], x0, sc)[0][0]
    except DivergenceError as err:
        err.seed = seed
        raise


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise mean/variance of trajectory series across seeds."""

    K: int
    n_runs: int
    seeds: tuple[int, ...]
    mean_grad_norm_sq: np.ndarray  # (K+1, n)
    var_grad_norm_sq: np.ndarray
    mean_v: np.ndarray  # (K+2, 3) including the initial state
    se_v: np.ndarray
    samples_cum: np.ndarray

    @property
    def mean_consensus_x(self) -> np.ndarray:
        return self.mean_v[1:, 0]

    @property
    def mean_consensus_y(self) -> np.ndarray:
        return self.mean_v[1:, 1]

    @property
    def mean_gap(self) -> np.ndarray:
        return self.mean_v[1:, 2]

    @property
    def mean_final_grad(self) -> np.ndarray:
        return self.mean_grad_norm_sq[-1]

    @property
    def se_final_grad(self) -> np.ndarray:
        return np.sqrt(self.var_grad_norm_sq[-1]) / math.sqrt(self.n_runs)

    @property
    def mean_max_grad(self) -> np.ndarray:
        """Max over agents of the ensemble-mean gradient norm, per iteration."""
        return self.mean_grad_norm_sq.max(axis=1)


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _large(obj: Objective, K: int, n_seeds: int) -> bool:
    """Whether an ensemble's estimated serial time reaches ``_POOL_MIN_S``.

    That is seeds x (K + 2) steps of n x ``_AGENT_STEP_S`` plus ``_SAMPLE_S``
    per dataset sample.  A large ensemble is pooled where cores allow, and
    its seeds are batched; a sweep with a large horizon runs as one.
    """
    seed_step_s = obj.n_agents * _AGENT_STEP_S + _SAMPLE_S * sum(ds.size for ds in obj.datasets)
    return n_seeds * (K + 2) * seed_step_s >= _POOL_MIN_S


def _workers(n_tasks: int) -> int:
    """Processes for a large ensemble or a large pair's spectra: one per core up to one per task, or 1 (serial).

    Serial while other threads are alive, since a forked child may inherit a
    lock one of them holds, and inside a daemonic process, which may not
    start children.
    """
    workers = min(n_tasks, _cores())
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing  # here, so that importing dpgt does not pay for it

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return 1
    return workers


def _send(conn, fn, arg) -> None:
    conn.send(fn(arg))
    conn.close()


def _run_forked(fn, args: list) -> list:
    """``[fn(a) for a in args]``, each call in its own forked process.

    Nothing is pickled on the way in: every child finds ``fn`` and its
    argument in its copy of this process's memory, so closures serve.  Each
    result is pickled back through a pipe and read in order.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for a in args:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send, args=(writer, fn, a), daemon=True)
            proc.start()
            writer.close()  # the child holds the only writer, so its death reads as EOF
            children.append((reader, proc))
        results = []
        for reader, proc in children:
            try:
                results.append(reader.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"a forked worker exited with code {proc.exitcode}") from None
    except BaseException:
        for _, proc in children:
            proc.terminate()
        raise
    finally:
        for reader, proc in children:
            reader.close()
            proc.join()
    return results


def _merge(K: int, seeds: list[int], trajectories: list[Trajectory]) -> EnsembleResult:
    """The runs of ``seeds`` at horizon K, in seed order, as one result."""
    R = len(trajectories)
    grad = np.stack([t.grad_norm_sq for t in trajectories])  # (R, K+1, n)
    vs = np.stack([t.v for t in trajectories])  # (R, K+2, 3)
    ddof = 1 if R > 1 else 0
    return EnsembleResult(
        K=K,
        n_runs=R,
        seeds=tuple(seeds),
        mean_grad_norm_sq=grad.mean(axis=0),
        var_grad_norm_sq=grad.var(axis=0, ddof=ddof),
        mean_v=vs.mean(axis=0),
        se_v=vs.std(axis=0, ddof=ddof) / math.sqrt(R),
        samples_cum=trajectories[0].samples_cum,
    )


def _sweep(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    horizons: list[int],
    seeds: list[int],
    x0: np.ndarray | None,
    sc: SpectralConstants | None,
    noise_off: bool,
):
    """Each horizon's ensemble of ``seeds`` in turn, merged in seed order.

    A sweep with a large horizon (see :func:`_large`) is computed before its
    first result: each worker's block of seeds (see :func:`_workers`)
    advances in chunks whose per-sample gradients fit in ``_CHUNK_BYTES``,
    every distinct horizon's lanes together, and stops at its first failing
    chunk.  A small sweep, a refused horizon or a failing chunk runs the
    seeds through :func:`run` instead, horizon after horizon, once; that
    loop raises the lowest failing seed's error after the earlier results.
    """
    if sc is None:
        sc = spectral_constants(gp)
    rates = {}
    if any(_large(obj, K, len(seeds)) for K in horizons):
        try:
            rates = {K: _checked_rates(gp, scheme, obj, K, noise_off) for K in horizons}
        except ValueError:  # a refused horizon: the loop below raises its error in turn
            pass
    if rates:
        groups = tuple(sorted(rates.values(), key=lambda r: -r.K))
        size = max(1, _CHUNK_BYTES // (8 * gp.n * obj.dim * sum(r.m_int for r in groups)))

        def run_block(block: list[int]) -> list[list[list[Trajectory]]] | None:
            """Each chunk's runs per group, in seed order, or None at the first failing chunk."""
            chunks = []
            for start in range(0, len(block), size):
                try:
                    chunks.append(_run_chunk(gp, groups, obj, block[start:start + size], x0, sc))
                except Exception:
                    return None
            return chunks

        w = _workers(len(seeds))
        if w > 1:
            results = _run_forked(run_block, [seeds[i * len(seeds) // w:(i + 1) * len(seeds) // w] for i in range(w)])
        else:
            results = [run_block(seeds)]
        if None not in results:
            runs = [[t for chunks in results for chunk in chunks for t in chunk[g]] for g in range(len(groups))]
            by_K = {r.K: _merge(r.K, seeds, runs[g]) for g, r in enumerate(groups)}
            yield from (by_K[K] for K in horizons)
            return
    for K in horizons:
        yield _merge(K, seeds, [run(gp, scheme, obj, K, s, x0=x0, sc=sc, noise_off=noise_off) for s in seeds])


def run_ensemble(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    K: int,
    seeds,
    x0: np.ndarray | None = None,
    sc: SpectralConstants | None = None,
    noise_off: bool = False,
) -> EnsembleResult:
    """Independent runs over a seed list, merged in seed order: the one-horizon case of ``_sweep``.

    Results are identical batched or per seed, pooled or serially: a small
    ensemble (see :func:`_large`) runs seed after seed through :func:`run`,
    a large one in chunks, on forked workers where cores allow.  A failing
    ensemble raises its lowest failing seed's error, and a forked worker
    that dies raises ``RuntimeError``.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    return next(_sweep(gp, scheme, obj, [K], seeds, x0, sc, noise_off))


def run_horizons(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    horizons,
    seeds,
    x0: np.ndarray | None = None,
    sc: SpectralConstants | None = None,
    noise_off: bool = False,
):
    """The :func:`run_ensemble` result of each horizon in turn, as a generator.

    Results, errors and their order are those of :func:`run_ensemble` called
    per horizon, for horizons in any order, repeated or not: a horizon's
    error is raised after the earlier horizons' results.  A sweep with no
    large horizon (see :func:`_large`) calls it per horizon with one ``sc``,
    as the benchmark self-test counts; any other is one :func:`_sweep`.
    """
    horizons = [int(K) for K in horizons]
    seeds = [int(s) for s in seeds]
    if sc is None:
        sc = spectral_constants(gp)
    if seeds and any(_large(obj, K, len(seeds)) for K in horizons):
        yield from _sweep(gp, scheme, obj, horizons, seeds, x0, sc, noise_off)
    else:
        for K in horizons:
            yield run_ensemble(gp, scheme, obj, K, seeds, x0=x0, sc=sc, noise_off=noise_off)
