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
Seeds are therefore independent: :func:`run_ensemble` runs large ensembles
in forked worker processes, one contiguous block of seeds each, and gets the
same bits as one seed after another.  The keyed generator is one object per
thread, so callers that run seeds on threads draw the same streams too.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .graphs import GraphPair, SpectralConstants, spectral_constants
from .objectives import Objective
from .schemes import Rates, SchemeParams, rates_at

__all__ = [
    "EngineState",
    "IterationRecord",
    "Trajectory",
    "EnsembleResult",
    "ConfigError",
    "DivergenceError",
    "keyed_generator",
    "laplace_sample",
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
# per sample of its dataset (2-core x86 host, n=5, d=10).  run_ensemble forks
# workers when the estimated serial time of the ensemble reaches _POOL_MIN_S,
# well above the 8-18 ms that starting two workers costs.
_AGENT_STEP_S = 30e-6
_SAMPLE_S = 14e-9
_POOL_MIN_S = 0.05


class ConfigError(ValueError):
    """Run configuration rejected before execution."""


class DivergenceError(RuntimeError):
    """A state entry left the admissible range; parameters are unstable.

    ``variable`` ("state" or "tracking"), iteration ``k`` and ``agent`` locate
    the largest entry, of absolute value ``magnitude``.  ``seed`` is the
    seed of the run that diverged, or None outside :func:`run`.
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


def _new_slot() -> tuple[np.random.Generator, np.random.Philox, list[int], dict]:
    """A generator, its Philox, and the key list inside the state dict that re-keys it."""
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
    return np.random.Generator(bitgen), bitgen, key, state


def keyed_generator(seed: int, agent: int, k: int, role: int) -> np.random.Generator:
    """Philox stream uniquely keyed by (seed, agent, iteration, role).

    The draws equal those of a fresh ``Generator(Philox(key=k2))`` with
    ``k2 = np.array([seed % 2**64, word], dtype=np.uint64)`` and
    ``word = agent << 48 | role << 40 | k``, whatever was drawn before:
    each call resets the counter and empties the buffers.

    The result is one generator shared by every keyed call in this thread,
    re-keyed in place and valid only until the next keyed call, so callers
    draw from it at once and never hold it.  Returning the draws instead
    (ROADMAP item 4) changes the call structure that the benchmark
    self-test pins as a closed form for ``engine.keyed_generator.calls``,
    so that fix waits for a change that rewrites the closed form.
    """
    if not (0 <= agent < 2**_KEY_AGENT_BITS):
        raise ConfigError(f"agent id {agent} outside key range")
    if not (0 <= k < 2**_KEY_ITER_BITS):
        raise ConfigError(f"iteration index {k} outside key range")
    if not (0 <= role < 2**_KEY_ROLE_BITS):
        raise ConfigError(f"role {role} outside key range")
    try:
        gen, bitgen, key, state = _local.slot
    except AttributeError:
        gen, bitgen, key, state = _local.slot = _new_slot()
    key[0] = seed % 2**64
    key[1] = (agent << (_KEY_ROLE_BITS + _KEY_ITER_BITS)) | (role << _KEY_ITER_BITS) | k
    bitgen.state = state
    return gen


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """Single draw with density exp(-|t|/scale) / (2 scale); mean 0, variance 2 scale^2."""
    if scale <= 0:
        raise ValueError("Laplace scale must be positive")
    return float(rng.laplace(0.0, scale))


def laplace_vector(seed: int, agent: int, k: int, role: int, d: int, scale: float) -> np.ndarray:
    """Keyed d-dimensional Laplace block; scale 0 is the exact no-noise baseline."""
    if scale < 0:
        raise ValueError("Laplace scale must be nonnegative")
    if scale == 0.0:
        return np.zeros(d)
    return keyed_generator(seed, agent, k, role).laplace(0.0, scale, size=d)


def sample_indices(seed: int, agent: int, k: int, D: int, m: int) -> np.ndarray:
    """m distinct indices in [0, D), uniform without replacement, keyed per (agent, k).

    A single C-level Fisher-Yates shuffle is drawn and truncated; the prefix
    of a uniform permutation is a uniform ordered m-subset.
    """
    if not (1 <= m <= D):
        raise ConfigError(f"need 1 <= m <= D, got m={m}, D={D}")
    gen = keyed_generator(seed, agent, k, ROLE_SAMPLES)
    # A copy, so that callers holding every agent's draw do not keep n O(D) permutations alive.
    return gen.permutation(D)[:m].copy()


@dataclass(frozen=True)
class EngineState:
    k: int
    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n, d)
    g_prev: np.ndarray  # (n, d)
    seed: int


def noise(seed: int, rates: Rates, k: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Keyed Laplace blocks (zeta, eta), each (n, d), for iteration k.

    Noise is drawn for every agent whenever its scale is nonzero, whether or
    not anyone listens, so streams stay aligned across topologies; a row whose
    scale is zero stays exactly zero.
    """
    zeta = np.zeros((n, d))
    eta = np.zeros((n, d))
    for i in range(n):
        sz = rates.sigma_zeta(i, k)
        se = rates.sigma_eta(i, k)
        if sz > 0.0:
            zeta[i] = laplace_vector(seed, i, k, ROLE_ZETA, d, sz)
        if se > 0.0:
            eta[i] = laplace_vector(seed, i, k, ROLE_ETA, d, se)
    return zeta, eta


def draw_x0(seed: int, n: int, d: int) -> np.ndarray:
    """Keyed initial states, uniform on [-1, 1]^d per agent, shape (n, d)."""
    return np.stack(
        [keyed_generator(seed, i, 0, ROLE_X0).uniform(-1.0, 1.0, size=d) for i in range(n)]
    )


def draw_indices(seed: int, datasets, k: int, m: int) -> list[np.ndarray]:
    """Agent i's m sample indices for iteration k, one keyed draw per agent."""
    return [sample_indices(seed, i, k, ds.size, m) for i, ds in enumerate(datasets)]


def sampled_gradients(obj: Objective, datasets, x: np.ndarray, idxs) -> np.ndarray:
    """Row i: mean per-sample gradient at x[i] over datasets[i].samples[idxs[i]].

    Each row is ``.mean(axis=0)``'s own arithmetic, a sum reduction and then
    an in-place division by the count, written into the output directly.
    """
    out = np.empty(np.shape(x))
    for row, xi, ds, idx in zip(out, x, datasets, idxs, strict=True):
        g = obj.grad_batch(xi, ds.samples[idx])
        np.add.reduce(g, axis=0, out=row)
        row /= g.shape[0]
    return out


def _guard(name: str, arr: np.ndarray, k: int) -> None:
    worst = float(np.abs(arr).max())
    if not math.isfinite(worst) or worst > DIVERGENCE_LIMIT:
        # The entry behind ``worst`` (argmax, like max, stops at the first NaN); agents sit on axis -2.
        agent = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)[-2]
        raise DivergenceError(name, k, int(agent), worst)


def update(
    x: np.ndarray, y: np.ndarray, g: np.ndarray, xb: np.ndarray, yb: np.ndarray,
    grad_at, rates: Rates, gp: GraphPair, k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradient-tracking update from iteration k to k+1, given the broadcasts.

    (xb, yb) is the perturbed pair the agents receive and ``grad_at(x_next)``
    returns the sampled gradients at the new states.  Agents sit on axis -2,
    so a leading batch axis on every array broadcasts.  Returns
    (x_next, y_next, g_next).
    """
    a, b, c = rates.alpha, rates.beta, rates.gamma
    x_next = (1.0 - a * gp.row_sums_R)[:, None] * x + a * (gp.R @ xb) - c * y
    _guard("state", x_next, k + 1)
    g_next = grad_at(x_next)
    y_next = (1.0 - b * gp.col_sums_C)[:, None] * y + b * (gp.C @ yb) + g_next - g
    _guard("tracking", y_next, k + 1)
    return x_next, y_next, g_next


def perturb(state: EngineState, rates: Rates, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed broadcast pair (xb, yb) for iteration k."""
    zeta, eta = noise(state.seed, rates, k, *state.x.shape)
    return state.x + zeta, state.y + eta


def initialize(
    gp: GraphPair,
    rates: Rates,
    obj: Objective,
    seed: int,
    x0: np.ndarray | None = None,
) -> EngineState:
    """Draw x_0 if absent, sample the first gradient batches, and set y_0 = g_0."""
    n, d = gp.n, obj.dim
    if len(obj.datasets) != n:
        raise ConfigError(f"the objective has {len(obj.datasets)} agents, the graph pair {n}")
    if x0 is None:
        x0 = draw_x0(seed, n, d)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n, d):
            raise ConfigError(f"x0 must have shape {(n, d)}, got {x0.shape}")
    g0 = sampled_gradients(obj, obj.datasets, x0, draw_indices(seed, obj.datasets, 0, rates.m_int))
    return EngineState(k=0, x=x0, y=g0.copy(), g_prev=g0, seed=seed)


def step(state: EngineState, gp: GraphPair, rates: Rates, obj: Objective) -> EngineState:
    """Advance one iteration: perturb, then :func:`update`."""
    k = state.k
    xb, yb = perturb(state, rates, k)

    def grad_at(x_next: np.ndarray) -> np.ndarray:
        idxs = draw_indices(state.seed, obj.datasets, k + 1, rates.m_int)
        return sampled_gradients(obj, obj.datasets, x_next, idxs)

    x, y, g = update(state.x, state.y, state.g_prev, xb, yb, grad_at, rates, gp, k)
    return EngineState(k=k + 1, x=x, y=y, g_prev=g, seed=state.seed)


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
    zeta, eta = noise(state.seed, rates, k, *state.x.shape)
    eye = np.eye(n)
    x_next = (eye - a * gp.L1) @ state.x + a * (gp.R @ zeta) - c * state.y
    _guard("state", x_next, k + 1)
    idxs = draw_indices(state.seed, obj.datasets, k + 1, rates.m_int)
    g_next = sampled_gradients(obj, obj.datasets, x_next, idxs)
    y_next = (eye - b * gp.L2) @ state.y + b * (gp.C @ eta) + g_next - state.g_prev
    _guard("tracking", y_next, k + 1)
    return EngineState(k=k + 1, x=x_next, y=y_next, g_prev=g_next, seed=state.seed)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    k: int
    consensus_x: float
    consensus_y: float
    grad_norm_sq: np.ndarray  # (n,)
    gap: float
    samples_cum: int


@dataclass(frozen=True)
class Trajectory:
    """Post-step records for k = 1..K+1 plus the initial-state record.

    ``gap`` is measured at the v1-weighted network average, the same point the
    drift analysis tracks.
    """

    K: int
    ks: np.ndarray  # (K+1,) = 1..K+1
    consensus_x: np.ndarray
    consensus_y: np.ndarray
    grad_norm_sq: np.ndarray  # (K+1, n)
    gap: np.ndarray
    samples_cum: np.ndarray  # (K+1,) per-agent cumulative draw count
    initial: IterationRecord
    final_x: np.ndarray  # (n, d)
    seed: int

    @property
    def final_grad_norm_sq(self) -> np.ndarray:
        return self.grad_norm_sq[-1]

    def v_series(self) -> np.ndarray:
        """(K+2, 3) array of (consensus_x, consensus_y, gap) for k = 0..K+1."""
        head = np.array([[self.initial.consensus_x, self.initial.consensus_y, self.initial.gap]])
        body = np.column_stack([self.consensus_x, self.consensus_y, self.gap])
        return np.vstack([head, body])


def _metrics(
    x: np.ndarray,
    y: np.ndarray,
    sc: SpectralConstants,
    obj: Objective,
    f_star: float,
    avg_weights: np.ndarray,
) -> tuple[float, float, np.ndarray, float]:
    # np.sqrt(w.dot(w)) is np.linalg.norm's arithmetic for a flat vector.
    wx = (sc.W1 @ x).ravel()
    wy = (sc.W2 @ y).ravel()
    cx = float(np.sqrt(wx.dot(wx)) ** 2)
    cy = float(np.sqrt(wy.dot(wy)) ** 2)
    grads = (obj.global_gradient_rows(x) ** 2).sum(axis=1)
    x_bar = (avg_weights @ x) / sc.n
    gap = obj.global_value(x_bar) - f_star
    return cx, cy, grads, gap


def run(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    K: int,
    seed: int,
    x0: np.ndarray | None = None,
    sc: SpectralConstants | None = None,
    noise_off: bool = False,
    gap_weighting: str = "weighted",
) -> Trajectory:
    """Execute K+1 update cycles from the initialization and record metrics.

    ``noise_off`` zeroes every perturbation while keeping all other streams
    (initial states, index draws) identical; this is the baseline mode.
    ``gap_weighting`` selects the network average behind the recorded gap:
    "weighted" (the v1-weighted mean the drift analysis tracks, default) or
    "uniform".
    """
    if K < 0:
        raise ConfigError("K must be nonnegative")
    if gap_weighting not in ("weighted", "uniform"):
        raise ConfigError("gap_weighting must be 'weighted' or 'uniform'")
    rates = rates_at(scheme, K)
    if noise_off:
        rates = replace(rates, noise_off=True)
    if not math.isfinite(rates.m) or rates.m_int > obj.min_dataset_size():
        raise ConfigError(
            f"sampling count m={rates.m} exceeds the smallest dataset "
            f"({obj.min_dataset_size()} samples); choose a smaller growth parameter"
        )
    if sc is None:
        sc = spectral_constants(gp)
    f_star = obj.F_star if obj.F_star is not None else 0.0
    m = rates.m_int
    avg_w = sc.v1 if gap_weighting == "weighted" else np.ones(gp.n)

    state = initialize(gp, rates, obj, seed, x0)
    cx, cy, grads, gap = _metrics(state.x, state.y, sc, obj, f_star, avg_w)
    initial = IterationRecord(0, cx, cy, grads, gap, m)

    n_rec = K + 1
    consensus_x = np.empty(n_rec)
    consensus_y = np.empty(n_rec)
    grad_norm_sq = np.empty((n_rec, gp.n))
    gap_arr = np.empty(n_rec)
    samples = np.empty(n_rec, dtype=np.int64)
    for k in range(K + 1):
        try:
            state = step(state, gp, rates, obj)
        except DivergenceError as err:
            err.seed = seed
            raise
        cx, cy, grads, gap = _metrics(state.x, state.y, sc, obj, f_star, avg_w)
        consensus_x[k] = cx
        consensus_y[k] = cy
        grad_norm_sq[k] = grads
        gap_arr[k] = gap
        samples[k] = m * (k + 2)  # initialization batch plus k+1 step batches
    return Trajectory(
        K=K,
        ks=np.arange(1, K + 2),
        consensus_x=consensus_x,
        consensus_y=consensus_y,
        grad_norm_sq=grad_norm_sq,
        gap=gap_arr,
        samples_cum=samples,
        initial=initial,
        final_x=state.x,
        seed=seed,
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise mean/variance of trajectory series across seeds."""

    K: int
    n_runs: int
    seeds: tuple[int, ...]
    mean_consensus_x: np.ndarray
    mean_consensus_y: np.ndarray
    mean_gap: np.ndarray
    mean_grad_norm_sq: np.ndarray  # (K+1, n)
    var_grad_norm_sq: np.ndarray
    mean_v: np.ndarray  # (K+2, 3) including the initial state
    se_v: np.ndarray
    mean_final_grad: np.ndarray  # (n,)
    se_final_grad: np.ndarray
    samples_cum: np.ndarray

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


def _workers(obj: Objective, K: int, n_seeds: int) -> int:
    """Processes for an ensemble: one per core up to one per seed, or 1 (serial).

    Serial while other threads are alive, since a forked child may inherit a
    lock one of them holds, and inside a daemonic process, which may not
    start children.
    """
    workers = min(n_seeds, _cores())
    seed_step_s = obj.n_agents * _AGENT_STEP_S + _SAMPLE_S * sum(ds.size for ds in obj.datasets)
    if workers < 2 or n_seeds * (K + 2) * seed_step_s < _POOL_MIN_S or threading.active_count() > 1:
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
                raise RuntimeError(f"an ensemble worker exited with code {proc.exitcode}") from None
    except BaseException:
        for _, proc in children:
            proc.terminate()
        raise
    finally:
        for reader, proc in children:
            reader.close()
            proc.join()
    return results


def run_ensemble(
    gp: GraphPair,
    scheme: SchemeParams,
    obj: Objective,
    K: int,
    seeds,
    x0: np.ndarray | None = None,
    sc: SpectralConstants | None = None,
    noise_off: bool = False,
    gap_weighting: str = "weighted",
) -> EnsembleResult:
    """Independent runs over a seed list, merged in seed order.

    A large ensemble runs on forked worker processes, one per available core
    up to one per seed, each running one contiguous block of seeds in order.
    It is large when its estimated serial time, seeds x (K + 2) steps of
    n x ``_AGENT_STEP_S`` plus ``_SAMPLE_S`` per dataset sample, reaches
    ``_POOL_MIN_S``.  Other ensembles run serially, as does every ensemble on
    one core, where ``fork`` is unavailable, while other threads are alive,
    or inside a daemonic process.  Every run is pure with keyed RNG streams, so results are
    identical either way.  A block stops at its first failure, and the error
    of the lowest failing seed is raised, as the serial loop raises it.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    if sc is None:
        sc = spectral_constants(gp)

    def run_block(block: list[int]) -> tuple[list[Trajectory], Exception | None]:
        """The runs of a block in seed order up to its first failure, and that failure."""
        done = []
        for s in block:
            try:
                done.append(run(
                    gp, scheme, obj, K, s,
                    x0=x0, sc=sc, noise_off=noise_off, gap_weighting=gap_weighting,
                ))
            except Exception as err:
                return done, err
        return done, None

    w = _workers(obj, K, len(seeds))
    if w > 1:
        blocks = [seeds[i * len(seeds) // w:(i + 1) * len(seeds) // w] for i in range(w)]
        results = _run_forked(run_block, blocks)
    else:
        results = [run_block(seeds)]
    trajectories = []
    for done, err in results:
        trajectories += done
        if err is not None:
            raise err

    R = len(trajectories)
    grad = np.stack([t.grad_norm_sq for t in trajectories])  # (R, K+1, n)
    vs = np.stack([t.v_series() for t in trajectories])  # (R, K+2, 3)
    finals = np.stack([t.final_grad_norm_sq for t in trajectories])  # (R, n)
    ddof = 1 if R > 1 else 0
    se_scale = math.sqrt(R)
    return EnsembleResult(
        K=K,
        n_runs=R,
        seeds=tuple(seeds),
        mean_consensus_x=np.mean([t.consensus_x for t in trajectories], axis=0),
        mean_consensus_y=np.mean([t.consensus_y for t in trajectories], axis=0),
        mean_gap=np.mean([t.gap for t in trajectories], axis=0),
        mean_grad_norm_sq=grad.mean(axis=0),
        var_grad_norm_sq=grad.var(axis=0, ddof=ddof),
        mean_v=vs.mean(axis=0),
        se_v=vs.std(axis=0, ddof=ddof) / se_scale,
        mean_final_grad=finals.mean(axis=0),
        se_final_grad=finals.std(axis=0, ddof=ddof) / se_scale,
        samples_cum=trajectories[0].samples_cum,
    )
