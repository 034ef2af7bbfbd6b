"""Dataset-backed local objectives with a subsampled first-order oracle.

Each agent i holds a frozen dataset of vectors and minimizes the empirical
risk f_i(x) = (1/D) * sum_l loss(x, xi_{i,l}); the network objective is
F(x) = (1/n) * sum_i f_i(x).  The oracle returns per-sample gradients
g(x, xi) = d/dx loss(x, xi), and averaging over a without-replacement draw of
m indices gives an unbiased estimate of grad f_i with variance shrinking in m.

Two closed-form families are built in, each with declared regularity
constants (gradient Lipschitz constant in x, Hölder constants in the sample,
gradient-noise bound, and a quadratic-growth constant for F):

  quadratic:  loss(x, xi) = ||A x - b||^2 / (2 n) + xi * ||x|| / (1 + ||x||),
              scalar xi drawn N(0, 4)
  trig (d=1): loss(x, xi) = x^2 + (3 + xi) * sin(x)^2 + 2 * xi * cos(x),
              scalar xi drawn Laplace with density exp(-|t|/b)/(2b), b = 1/2

The declared constants are treated as claims; ``verify_constants`` estimates
each one by brute force and reports pass/fail per constant.  A small logistic
regression objective is included as a demo with numerically estimated
constants and no quadratic-growth claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.optimize

__all__ = [
    "Dataset",
    "Objective",
    "ConstantCheck",
    "ConstantsReport",
    "DatasetError",
    "RankDeficientError",
    "SampleIndexError",
    "make_dataset",
    "generate_quadratic_datasets",
    "generate_trig_datasets",
    "generate_logistic_datasets",
    "make_quadratic",
    "make_trig",
    "make_logistic",
    "averaged_sampled_gradient",
    "verify_constants",
]


class DatasetError(ValueError):
    """Malformed dataset."""


class RankDeficientError(ValueError):
    """Design matrix does not have full column rank."""


class SampleIndexError(ValueError):
    """Duplicate or out-of-range sample index."""


@dataclass(frozen=True)
class Dataset:
    agent: int
    samples: np.ndarray  # shape (D, r)

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_dim(self) -> int:
        return self.samples.shape[1]


def make_dataset(agent: int, samples) -> Dataset:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise DatasetError(f"samples must be a nonempty (D, r) array, got {samples.shape}")
    if not np.isfinite(samples).all():
        raise DatasetError("samples contain non-finite values")
    return Dataset(agent=int(agent), samples=samples)


@dataclass(frozen=True)
class Objective:
    """Immutable bundle of evaluators, datasets, and declared constants.

    ``grad_batch(x, xis)`` evaluates the per-sample gradient for a whole
    (m, r) block of samples at once and is the hot path for the engine.
    """

    kind: str
    dim: int
    n_agents: int
    datasets: tuple[Dataset, ...]
    L1_smooth: float
    L2_holder: float
    tau: float
    sigma_g: float
    mu: float
    F_star: float | None
    loss_fn: Callable[[np.ndarray, np.ndarray], float]
    grad_batch_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    global_value_fn: Callable[[np.ndarray], float]
    global_grad_fn: Callable[[np.ndarray], np.ndarray]
    meta: dict = field(default_factory=dict, compare=False)
    global_grad_rows_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.L1_smooth <= 0:
            raise ValueError("L1_smooth must be positive")
        if self.tau < 0 or self.sigma_g <= 0 or self.mu < 0:
            raise ValueError("constants must satisfy tau >= 0, sigma_g > 0, mu >= 0")
        if len(self.datasets) != self.n_agents:
            raise DatasetError("need one dataset per agent")

    # -- pointwise oracle ---------------------------------------------------
    def loss(self, x, xi) -> float:
        return float(self.loss_fn(np.asarray(x, float), np.asarray(xi, float)))

    def grad(self, x, xi) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xi, float))
        return self.grad_batch_fn(np.asarray(x, float), xi[None, :])[0]

    def grad_batch(self, x, xis) -> np.ndarray:
        return self.grad_batch_fn(np.asarray(x, float), np.asarray(xis, float))

    # -- empirical-risk quantities -------------------------------------------
    def local_gradient(self, agent: int, x) -> np.ndarray:
        ds = self.datasets[agent]
        return self.grad_batch(x, ds.samples).mean(axis=0)

    def global_value(self, x) -> float:
        return float(self.global_value_fn(np.asarray(x, float)))

    def global_gradient(self, x) -> np.ndarray:
        return self.global_grad_fn(np.asarray(x, float))

    def global_gradient_rows(self, xs) -> np.ndarray:
        """Network gradient at each row of xs; vectorized where available."""
        xs = np.asarray(xs, float)
        if self.global_grad_rows_fn is not None:
            return self.global_grad_rows_fn(xs)
        return np.stack([self.global_grad_fn(x) for x in xs])

    def min_dataset_size(self) -> int:
        return min(ds.size for ds in self.datasets)

    def with_constants(self, **kwargs) -> "Objective":
        """Copy with some declared constants replaced (e.g. measured bounds)."""
        allowed = {"L1_smooth", "L2_holder", "tau", "sigma_g", "mu", "F_star"}
        bad = set(kwargs) - allowed
        if bad:
            raise ValueError(f"cannot replace fields {sorted(bad)}")
        return replace(self, **kwargs)


def averaged_sampled_gradient(obj: Objective, agent: int, x, sample_indices) -> np.ndarray:
    """Mean of the per-sample gradients at the given distinct dataset indices."""
    idx = np.asarray(sample_indices, dtype=int)
    ds = obj.datasets[agent]
    if idx.size == 0:
        raise SampleIndexError("need at least one sample index")
    if len(np.unique(idx)) != idx.size:
        raise SampleIndexError("sample indices must be distinct")
    if idx.min() < 0 or idx.max() >= ds.size:
        raise SampleIndexError(f"index out of range for dataset of size {ds.size}")
    return obj.grad_batch(x, ds.samples[idx]).mean(axis=0)


# ---------------------------------------------------------------------------
# Dataset generators
# ---------------------------------------------------------------------------

def generate_quadratic_datasets(n_agents: int, D: int, seed: int) -> list[Dataset]:
    """Scalar Gaussian draws with variance 4, one frozen dataset per agent."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [make_dataset(i, rng.normal(0.0, 2.0, size=(D, 1))) for i in range(n_agents)]


def generate_trig_datasets(n_agents: int, D: int, seed: int) -> list[Dataset]:
    """Scalar Laplace draws with density scale 1/2 (variance 1/2)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [make_dataset(i, rng.laplace(0.0, 0.5, size=(D, 1))) for i in range(n_agents)]


def generate_logistic_datasets(n_agents: int, D: int, dim: int, seed: int) -> list[Dataset]:
    """Two-class Gaussian blobs; each sample is (features..., label in {-1, +1})."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for i in range(n_agents):
        labels = rng.choice([-1.0, 1.0], size=D)
        feats = rng.normal(0.0, 1.0, size=(D, dim)) + 0.75 * labels[:, None]
        out.append(make_dataset(i, np.column_stack([feats, labels])))
    return out


# ---------------------------------------------------------------------------
# Built-in objective families
# ---------------------------------------------------------------------------

def _norm_coupling_grad(x: np.ndarray) -> np.ndarray:
    # Gradient of ||x|| / (1 + ||x||); the kink at the origin is resolved as 0.
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return np.zeros_like(x)
    return x / (nx * (1.0 + nx) ** 2)


def make_quadratic(A, dvec, n_agents: int, datasets) -> Objective:
    """Least-squares loss plus a bounded sample-coupling term.

    Declared constants: L1 = rho(A)^2 / (2 n), L2 = 1, tau = 1, sigma_g = 2,
    mu = 2 * theta^2 with theta the smallest eigenvalue of AᵀA.  The reference
    value F* is obtained by polishing the least-squares minimizer.
    """
    A = np.asarray(A, dtype=float)
    dvec = np.asarray(dvec, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, d = A.shape
    if dvec.shape != (m,):
        raise ValueError(f"dvec must have length {m}, got {dvec.shape}")
    datasets = tuple(datasets)
    if any(ds.sample_dim != 1 for ds in datasets):
        raise DatasetError("quadratic objective expects scalar samples")
    gram = A.T @ A
    eigs = np.linalg.eigvalsh(gram)
    theta = float(eigs.min())
    if theta <= 1e-12 * max(1.0, float(eigs.max())):
        raise RankDeficientError("A does not have full column rank")
    rho_A = float(max(np.abs(np.linalg.eigvals(A)))) if m == d else math.sqrt(float(eigs.max()))

    n = n_agents
    sample_means = np.array([ds.samples.mean() for ds in datasets[:n]])
    mean_all = float(sample_means.mean())

    def loss_fn(x, xi):
        res = A @ x - dvec
        nx = np.linalg.norm(x)
        xi0 = float(np.asarray(xi).reshape(-1)[0])
        return 0.5 * (res @ res) / n + xi0 * nx / (1.0 + nx)

    def smooth_grad(x):
        return A.T @ (A @ x - dvec) / n

    def grad_batch_fn(x, xis):
        base = smooth_grad(x)
        coupling = _norm_coupling_grad(x)
        return base[None, :] + np.outer(xis[:, 0], coupling)

    def global_value_fn(x):
        res = A @ x - dvec
        nx = np.linalg.norm(x)
        return 0.5 * (res @ res) / n + mean_all * nx / (1.0 + nx)

    def global_grad_fn(x):
        return smooth_grad(x) + mean_all * _norm_coupling_grad(x)

    def global_grad_rows_fn(xs):
        base = (xs @ gram - (A.T @ dvec)[None, :]) / n
        norms = np.linalg.norm(xs, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            coupling = np.where(norms > 0, xs / (norms * (1.0 + norms) ** 2), 0.0)
        return base + mean_all * coupling

    x_ls = np.linalg.solve(gram, A.T @ dvec)
    opt = scipy.optimize.minimize(global_value_fn, x_ls, jac=global_grad_fn, tol=1e-14)
    f_star = float(min(global_value_fn(x_ls), opt.fun))

    return Objective(
        kind="quadratic",
        dim=d,
        n_agents=n,
        datasets=datasets,
        L1_smooth=rho_A**2 / (2 * n),
        L2_holder=1.0,
        tau=1.0,
        sigma_g=2.0,
        mu=2.0 * theta**2,
        F_star=f_star,
        loss_fn=loss_fn,
        grad_batch_fn=grad_batch_fn,
        global_value_fn=global_value_fn,
        global_grad_fn=global_grad_fn,
        meta={"A": A, "dvec": dvec},
        global_grad_rows_fn=global_grad_rows_fn,
    )


def make_trig(n_agents: int, datasets) -> Objective:
    """Scalar nonconvex loss x^2 + (3 + xi) sin(x)^2 + 2 xi cos(x).

    Declared constants: L1 = 8, L2 = 2, tau = 1, sigma_g = 5/2, mu = n/32.
    F* has no closed form for a generic dataset; it is located by a grid
    bracket followed by golden-section refinement to 1e-10.
    """
    datasets = tuple(datasets)
    if any(ds.sample_dim != 1 for ds in datasets):
        raise DatasetError("trig objective expects scalar samples")
    n = n_agents
    sample_means = np.array([ds.samples.mean() for ds in datasets[:n]])
    mean_all = float(sample_means.mean())

    def loss_fn(x, xi):
        x0 = float(np.asarray(x).reshape(-1)[0])
        xi0 = float(np.asarray(xi).reshape(-1)[0])
        return x0 * x0 + (3.0 + xi0) * math.sin(x0) ** 2 + 2.0 * xi0 * math.cos(x0)

    def grad_batch_fn(x, xis):
        x0 = float(np.asarray(x).reshape(()))
        vals = 2.0 * x0 + (3.0 + xis[:, 0]) * math.sin(2.0 * x0) - 2.0 * xis[:, 0] * math.sin(x0)
        return vals[:, None]

    def global_value_fn(x):
        x0 = float(np.asarray(x).reshape(()))
        return x0 * x0 + (3.0 + mean_all) * math.sin(x0) ** 2 + 2.0 * mean_all * math.cos(x0)

    def global_grad_fn(x):
        x0 = float(np.asarray(x).reshape(()))
        return np.array([2.0 * x0 + (3.0 + mean_all) * math.sin(2.0 * x0) - 2.0 * mean_all * math.sin(x0)])

    grid = np.linspace(-3.0, 3.0, 601)
    vals = [global_value_fn(np.array([g])) for g in grid]
    j = int(np.argmin(vals))
    scalar_f = lambda t: global_value_fn(np.array([t]))
    try:
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        res = scipy.optimize.minimize_scalar(
            scalar_f, bracket=(lo, grid[j], hi), method="golden", options={"xtol": 1e-10}
        )
    except ValueError:  # degenerate bracket (flat or boundary grid minimum)
        res = scipy.optimize.minimize_scalar(
            scalar_f, bounds=(grid[j] - 0.05, grid[j] + 0.05), method="bounded",
            options={"xatol": 1e-10},
        )
    f_star = float(min(res.fun, vals[j]))

    return Objective(
        kind="trig",
        dim=1,
        n_agents=n,
        datasets=datasets,
        L1_smooth=8.0,
        L2_holder=2.0,
        tau=1.0,
        sigma_g=2.5,
        mu=n / 32.0,
        F_star=f_star,
        loss_fn=loss_fn,
        grad_batch_fn=grad_batch_fn,
        global_value_fn=global_value_fn,
        global_grad_fn=global_grad_fn,
    )


def make_logistic(n_agents: int, datasets, ridge: float = 1e-2, seed: int = 0) -> Objective:
    """Binary logistic regression demo with numerically estimated constants."""
    datasets = tuple(datasets)
    d = datasets[0].sample_dim - 1
    if d < 1:
        raise DatasetError("logistic samples must be (features..., label)")
    n = n_agents

    def loss_fn(x, xi):
        xi = np.asarray(xi, float)
        margin = float(xi[-1]) * float(xi[:-1] @ x)
        return float(np.logaddexp(0.0, -margin) + 0.5 * ridge * (x @ x))

    def grad_batch_fn(x, xis):
        feats, labels = xis[:, :-1], xis[:, -1]
        margins = labels * (feats @ x)
        coef = -labels / (1.0 + np.exp(margins))
        return coef[:, None] * feats + ridge * x[None, :]

    all_samples = np.vstack([ds.samples for ds in datasets[:n]])

    def global_value_fn(x):
        vals = [np.mean([loss_fn(x, xi) for xi in ds.samples]) for ds in datasets[:n]]
        return float(np.mean(vals))

    def global_grad_fn(x):
        return np.mean([grad_batch_fn(x, ds.samples).mean(axis=0) for ds in datasets[:n]], axis=0)

    # Curvature bound 0.25 * max ||f||^2 + ridge; noise bound from the pooled data.
    feat_norms2 = (all_samples[:, :-1] ** 2).sum(axis=1)
    L1 = 0.25 * float(feat_norms2.max()) + ridge
    rng = np.random.default_rng(seed)
    sig2 = 0.0
    for _ in range(8):
        x = rng.normal(0.0, 1.0, d)
        for ds in datasets[:n]:
            g = grad_batch_fn(x, ds.samples)
            sig2 = max(sig2, float(((g - g.mean(axis=0)) ** 2).sum(axis=1).mean()))
    opt = scipy.optimize.minimize(global_value_fn, np.zeros(d), jac=global_grad_fn, tol=1e-12)

    return Objective(
        kind="logistic",
        dim=d,
        n_agents=n,
        datasets=datasets,
        L1_smooth=L1,
        L2_holder=1.0,
        tau=1.0,
        sigma_g=math.sqrt(max(sig2, 1e-12)) * 1.1,
        mu=0.0,
        F_star=float(opt.fun),
        loss_fn=loss_fn,
        grad_batch_fn=grad_batch_fn,
        global_value_fn=global_value_fn,
        global_grad_fn=global_grad_fn,
    )


# ---------------------------------------------------------------------------
# Brute-force verification of the declared constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCheck:
    name: str
    estimate: float
    declared: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class ConstantsReport:
    lipschitz: ConstantCheck
    variance: ConstantCheck
    pl: ConstantCheck | None

    @property
    def all_passed(self) -> bool:
        checks = [self.lipschitz, self.variance] + ([self.pl] if self.pl else [])
        return all(c.passed for c in checks)


def verify_constants(
    obj: Objective,
    trials: int = 400,
    grid: int = 400,
    seed: int = 0,
    margin: float = 0.05,
) -> ConstantsReport:
    """Monte-Carlo / grid estimates of the declared constants.

    Lipschitz and noise estimates must not exceed their declared bounds by
    more than ``margin``; the quadratic-growth ratio must not fall below the
    declared constant by more than ``margin``.  Skipped when mu == 0.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = obj.dim
    pooled = np.vstack([ds.samples for ds in obj.datasets])

    lip = 0.0
    for _ in range(trials):
        x = rng.normal(0.0, 2.0, d)
        y = x + rng.normal(0.0, 1.0, d)
        xi = pooled[rng.integers(pooled.shape[0])]
        gap = np.linalg.norm(x - y)
        if gap < 1e-9:
            continue
        lip = max(lip, float(np.linalg.norm(obj.grad(x, xi) - obj.grad(y, xi)) / gap))
    lip_check = ConstantCheck(
        "gradient_lipschitz", lip, obj.L1_smooth, margin, lip <= obj.L1_smooth * (1.0 + margin)
    )

    var = 0.0
    for _ in range(max(trials // 10, 10)):
        x = rng.normal(0.0, 2.0, d)
        for agent in range(obj.n_agents):
            g = obj.grad_batch(x, obj.datasets[agent].samples)
            var = max(var, float(((g - g.mean(axis=0)) ** 2).sum(axis=1).mean()))
    var_check = ConstantCheck(
        "gradient_noise_var", var, obj.sigma_g**2, margin, var <= obj.sigma_g**2 * (1.0 + margin)
    )

    pl_check = None
    if obj.mu > 0 and obj.F_star is not None:
        if d == 1:
            xs = np.linspace(-3.0, 3.0, grid)[:, None]
        else:
            xs = rng.normal(0.0, 2.0, size=(grid, d))
        ratio = math.inf
        for x in xs:
            gap = obj.global_value(x) - obj.F_star
            if gap < 1e-10:
                continue
            ratio = min(ratio, float(np.linalg.norm(obj.global_gradient(x)) ** 2 / (2.0 * gap)))
        pl_check = ConstantCheck(
            "quadratic_growth", ratio, obj.mu, margin, ratio >= obj.mu * (1.0 - margin)
        )

    return ConstantsReport(lipschitz=lip_check, variance=var_check, pl=pl_check)
