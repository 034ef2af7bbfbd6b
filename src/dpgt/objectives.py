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

Each family is one evaluator class (``_Quadratic``, ``_Trig``, ``_Logistic``)
with ``loss``, ``grad_batch``, ``global_value`` and ``global_gradient_rows``;
``Objective`` wraps one with the datasets and the declared constants.  The
last three take leading batch axes natively in every family, one independent
point per lane, and each lane gets the bits of a call on that point alone:
the engine evaluates every seed of an ensemble in one call.  Both closed-form
losses are affine in the sample, so their classes also give the d = 1 mean
sampled gradient from the samples' mean (``mean_gradient_d1``).

The declared constants are treated as claims; ``verify_constants`` estimates
each one by brute force and reports pass/fail per constant.  A small logistic
regression objective is included as a demo with numerically estimated
constants and no quadratic-growth claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

__all__ = [
    "Dataset",
    "Objective",
    "ConstantCheck",
    "ConstantsReport",
    "DatasetError",
    "RankDeficientError",
    "make_dataset",
    "generate_quadratic_datasets",
    "generate_trig_datasets",
    "generate_logistic_datasets",
    "make_quadratic",
    "make_trig",
    "make_logistic",
    "verify_constants",
]


class DatasetError(ValueError):
    """Malformed dataset."""


class RankDeficientError(ValueError):
    """Design matrix does not have full column rank."""


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
    """Immutable bundle of a family evaluator, datasets, and declared constants.

    ``grad_batch(x, xis)`` evaluates the per-sample gradient for a whole
    (m, r) block of samples at once and is the hot path for the engine.
    ``grad_batch``, ``global_value`` and ``global_gradient_rows`` broadcast
    over leading batch axes: x (..., d) with samples (..., m, r), and rows
    (..., d).
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
    family: _Quadratic | _Trig | _Logistic

    def __post_init__(self):
        if self.L1_smooth <= 0:
            raise ValueError("L1_smooth must be positive")
        if self.tau < 0 or self.sigma_g <= 0 or self.mu < 0:
            raise ValueError("constants must satisfy tau >= 0, sigma_g > 0, mu >= 0")
        if len(self.datasets) != self.n_agents:
            raise DatasetError("need one dataset per agent")

    # -- pointwise oracle ---------------------------------------------------
    def loss(self, x, xi) -> float:
        return float(self.family.loss(np.asarray(x, float), np.asarray(xi, float)))

    def grad(self, x, xi) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xi, float))
        return self.family.grad_batch(np.asarray(x, float), xi[None, :])[0]

    def grad_batch(self, x, xis) -> np.ndarray:
        return self.family.grad_batch(np.asarray(x, float), np.asarray(xis, float))

    # -- empirical-risk quantities -------------------------------------------
    def global_value(self, x):
        """F at x (d,) as a float, or at each row of x (..., d) as an array."""
        value = self.family.global_value(np.asarray(x, float))
        return float(value) if np.ndim(value) == 0 else value

    def global_gradient_rows(self, xs) -> np.ndarray:
        """Network gradient at each row of xs."""
        return self.family.global_gradient_rows(np.asarray(xs, float))

    def min_dataset_size(self) -> int:
        return min(ds.size for ds in self.datasets)


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

def _dots(v: np.ndarray) -> np.ndarray:
    """v . v per row of v (..., k): one BLAS dot each, the arithmetic of ``v.dot(v)``."""
    return v.dot(v) if v.ndim == 1 else (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v per row of v (..., k): one gemv each, the arithmetic of ``M @ v`` for 1-D v."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def _lanes(fn, a: np.ndarray) -> np.ndarray:
    """The Python float function ``fn`` at each entry of ``a``, e.g. libm's sin.

    ``v ** 2`` on a float calls libm's pow, as a NumPy scalar's does, where an
    array's ``** 2`` multiplies; the two differ in the last bit now and then.
    """
    return np.array([fn(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _square(v: float) -> float:
    return v**2


def _norm_coupling_grad(x: np.ndarray) -> np.ndarray:
    # Gradient of ||x|| / (1 + ||x||) per row of x (..., d); the kink at the origin is resolved as 0.
    nx = np.sqrt(_dots(x))  # np.linalg.norm's arithmetic for a 1-D x
    if x.ndim == 1:
        return x / (nx * (1.0 + nx) ** 2) if nx != 0.0 else np.zeros_like(x)
    nx = nx[..., None]
    if nx.all():
        return x / (nx * _lanes(_square, 1.0 + nx))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(nx == 0.0, 0.0, x / (nx * _lanes(_square, 1.0 + nx)))


def _sample_mean(datasets) -> float:
    """Mean over agents of each dataset's sample mean."""
    return float(np.array([ds.samples.mean() for ds in datasets]).mean())


class _Quadratic:
    """loss(x, xi) = ||A x - b||^2 / (2 n) + xi * ||x|| / (1 + ||x||).

    Affine in the sample, so F is the loss at the mean sample ``mean_all``.
    """

    def __init__(self, A: np.ndarray, dvec: np.ndarray, n: int, mean_all: float):
        self.A, self.dvec, self.n, self.mean_all = A, dvec, n, mean_all
        self.gram = A.T @ A
        self.At_dvec = (A.T @ dvec)[None, :]

    def _value(self, x, xi0: float):
        res = _mv(self.A, x) - self.dvec
        nx = np.sqrt(_dots(x))  # np.linalg.norm's arithmetic for a 1-D x
        return 0.5 * _dots(res) / self.n + xi0 * nx / (1.0 + nx)

    def loss(self, x, xi) -> float:
        return self._value(x, float(np.asarray(xi).reshape(-1)[0]))

    def grad_batch(self, x, xis) -> np.ndarray:
        base = _mv(self.A.T, _mv(self.A, x) - self.dvec) / self.n
        # np.outer(xis[:, 0], coupling), written as the broadcast product it is.
        return base[..., None, :] + xis[..., :1] * _norm_coupling_grad(x)[..., None, :]

    def global_value(self, x):
        return self._value(x, self.mean_all)

    def global_gradient_rows(self, xs) -> np.ndarray:
        base = (xs @ self.gram - self.At_dvec) / self.n
        # np.linalg.norm(xs, axis=-1, keepdims=True), by the same reduction.
        norms = np.sqrt(np.add.reduce(xs * xs, axis=-1, keepdims=True))
        positive = norms > 0
        if positive.all():
            coupling = xs / (norms * (1.0 + norms) ** 2)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                coupling = np.where(positive, xs / (norms * (1.0 + norms) ** 2), 0.0)
        return base + self.mean_all * coupling

    def mean_gradient_d1(self, x: np.ndarray, xibar: np.ndarray) -> np.ndarray:
        """Elementwise mean sampled gradient for d = 1, from the samples' mean xibar."""
        q = float(self.gram[0, 0])
        c0 = float(self.At_dvec[0, 0])
        coupling = np.where(x == 0.0, 0.0, np.sign(x) / (1.0 + np.abs(x)) ** 2)
        return (q * x - c0) / self.n + xibar * coupling


def _trig_grad(x0: np.ndarray, xi):
    """d/dx of the trig loss at points x0, for samples xi broadcasting against them.

    Sines are libm's, one ``math.sin`` call per point.
    """
    return 2.0 * x0 + (3.0 + xi) * _lanes(math.sin, 2.0 * x0) - 2.0 * xi * _lanes(math.sin, x0)


def _trig_loss(x0: float, xi0: float) -> float:
    return x0 * x0 + (3.0 + xi0) * math.sin(x0) ** 2 + 2.0 * xi0 * math.cos(x0)


class _Trig:
    """loss(x, xi) = x^2 + (3 + xi) sin(x)^2 + 2 xi cos(x) for scalar x and xi.

    Affine in the sample, so F is the loss at the mean sample ``mean_all``.
    """

    def __init__(self, mean_all: float):
        self.mean_all = mean_all

    def loss(self, x, xi) -> float:
        return _trig_loss(float(np.asarray(x).reshape(-1)[0]), float(np.asarray(xi).reshape(-1)[0]))

    def grad_batch(self, x, xis) -> np.ndarray:
        return _trig_grad(x, xis[..., 0])[..., None]

    def global_value(self, x):
        return _lanes(lambda x0: _trig_loss(x0, self.mean_all), x[..., 0])

    def global_gradient_rows(self, xs) -> np.ndarray:
        return _trig_grad(xs, self.mean_all)

    def mean_gradient_d1(self, x: np.ndarray, xibar: np.ndarray) -> np.ndarray:
        """Elementwise mean sampled gradient, from the samples' mean xibar."""
        return 2.0 * x + (3.0 + xibar) * np.sin(2.0 * x) - 2.0 * xibar * np.sin(x)


def _margins(x: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """label * <features, x> per sample (..., d+1), with one gemv per lane of x (..., d)."""
    return samples[..., -1] * _mv(samples[..., :-1], x)


def _logistic_coef(x: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """d loss / d <features, x> per sample, without the ridge term."""
    return -samples[..., -1] / (1.0 + np.exp(_margins(x, samples)))


class _Logistic:
    """Logistic loss with a ridge term; each sample is (features..., label).

    F and its gradient reduce through each agent's (..., D) margins in turn:
    no per-sample gradient block, and a lane's bits do not depend on the lane count.
    """

    def __init__(self, datasets, ridge: float):
        self.samples = [ds.samples for ds in datasets]
        self.ridge = ridge

    def loss(self, x, xi):
        return np.logaddexp(0.0, -_margins(x, xi)) + 0.5 * self.ridge * _dots(x)

    def grad_batch(self, x, xis) -> np.ndarray:
        return _logistic_coef(x, xis)[..., None] * xis[..., :-1] + self.ridge * x[..., None, :]

    def global_value(self, x):
        total = sum(np.logaddexp(0.0, -_margins(x, s)).mean(axis=-1) for s in self.samples)
        return total / len(self.samples) + 0.5 * self.ridge * _dots(x)

    def global_gradient_rows(self, xs) -> np.ndarray:
        total = sum(_mv(s[:, :-1].T, _logistic_coef(xs, s)) / s.shape[0] for s in self.samples)
        return total / len(self.samples) + self.ridge * xs


def _noise_var(g: np.ndarray) -> np.ndarray:
    """Mean squared distance of per-sample gradients (..., m, d) from their mean, per lane."""
    return ((g - g.mean(axis=-2, keepdims=True)) ** 2).sum(axis=-1).mean(axis=-1)


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
    n = n_agents
    fam = _Quadratic(A, dvec, n, _sample_mean(datasets[:n]))
    eigs = np.linalg.eigvalsh(fam.gram)
    theta = float(eigs.min())
    if theta <= 1e-12 * max(1.0, float(eigs.max())):
        raise RankDeficientError("A does not have full column rank")
    rho_A = float(max(np.abs(np.linalg.eigvals(A)))) if m == d else math.sqrt(float(eigs.max()))

    x_ls = np.linalg.solve(fam.gram, A.T @ dvec)
    opt = scipy.optimize.minimize(
        fam.global_value, x_ls, jac=lambda x: fam.global_gradient_rows(x[None])[0], tol=1e-14
    )
    f_star = float(min(fam.global_value(x_ls), opt.fun))

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
        family=fam,
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
    fam = _Trig(_sample_mean(datasets[:n]))

    def value(x) -> float:
        return fam.loss(x, fam.mean_all)

    grid = np.linspace(-3.0, 3.0, 601)
    vals = [value(g) for g in grid]
    j = int(np.argmin(vals))
    try:
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        res = scipy.optimize.minimize_scalar(
            value, bracket=(lo, grid[j], hi), method="golden", options={"xtol": 1e-10}
        )
    except ValueError:  # degenerate bracket (flat or boundary grid minimum)
        res = scipy.optimize.minimize_scalar(
            value, bounds=(grid[j] - 0.05, grid[j] + 0.05), method="bounded",
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
        family=fam,
    )


def make_logistic(n_agents: int, datasets, ridge: float = 1e-2, seed: int = 0) -> Objective:
    """Binary logistic regression demo with numerically estimated constants."""
    datasets = tuple(datasets)
    d = datasets[0].sample_dim - 1
    if d < 1:
        raise DatasetError("logistic samples must be (features..., label)")
    n = n_agents
    fam = _Logistic(datasets[:n], ridge)

    # Curvature bound 0.25 * max ||f||^2 + ridge; noise bound over every agent's data at 8 points.
    L1 = 0.25 * max(float((s[:, :-1] ** 2).sum(axis=1).max()) for s in fam.samples) + ridge
    xs = np.random.default_rng(seed).normal(0.0, 1.0, (8, d))
    sig2 = max(float(_noise_var(fam.grad_batch(xs, s)).max()) for s in fam.samples)
    opt = scipy.optimize.minimize(fam.global_value, np.zeros(d), jac=fam.global_gradient_rows, tol=1e-12)

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
        family=fam,
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
            var = max(var, float(_noise_var(obj.grad_batch(x, obj.datasets[agent].samples))))
    var_check = ConstantCheck(
        "gradient_noise_var", var, obj.sigma_g**2, margin, var <= obj.sigma_g**2 * (1.0 + margin)
    )

    pl_check = None
    if obj.mu > 0 and obj.F_star is not None:
        if d == 1:
            xs = np.linspace(-3.0, 3.0, grid)[:, None]
        else:
            xs = rng.normal(0.0, 2.0, size=(grid, d))
        gaps = obj.global_value(xs) - obj.F_star
        # ||grad F||^2 at each point, by the arithmetic of float(np.linalg.norm(g) ** 2).
        sq_norms = _lanes(_square, np.sqrt(_dots(obj.global_gradient_rows(xs))))
        keep = gaps >= 1e-10
        ratio = float(np.min(sq_norms[keep] / (2.0 * gaps[keep]), initial=math.inf))
        pl_check = ConstantCheck(
            "quadratic_growth", ratio, obj.mu, margin, ratio >= obj.mu * (1.0 - margin)
        )

    return ConstantsReport(lipschitz=lip_check, variance=var_check, pl=pl_check)
