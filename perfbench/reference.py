"""Independent reference values for the benchmark's correctness gate.

Everything here is written from the model's definitions with numpy and scipy
only; nothing imports dpgt.  The gate compares dpgt's outputs against these
values, so a changed RNG stream, a dropped noise block or a wrong closed form
in dpgt shows as a mismatch, while a faithful rewrite of dpgt does not.

Conventions shared with dpgt (they define the model, not its implementation):

* every random block comes from a Philox stream keyed by
  (seed, agent << 48 | role << 40 | k), counter 0;
* x0 rows are uniform(-1, 1) draws of role 0 at k = 0;
* index draws are the first m entries of a permutation of range(D), role 3;
* Laplace blocks use role 1 (state) and role 2 (tracking);
* quadratic datasets are N(0, 4) scalars drawn agent by agent from
  default_rng(SeedSequence(data_seed)).

The engine reference uses the stacked update form, and the accountant uses
``scipy.signal.lfilter`` for the linear sensitivity recursions, so neither
shares an arithmetic path with dpgt.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.optimize

ROLE_X0, ROLE_ZETA, ROLE_ETA, ROLE_SAMPLES = 0, 1, 2, 3


def keyed(seed: int, agent: int, k: int, role: int) -> np.random.Generator:
    word = (agent << 48) | (role << 40) | k
    key = np.array([seed % 2**64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def laplacians(R: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.diag(R.sum(axis=1)) - R, np.diag(C.sum(axis=0)) - C


def _nonzero_tail(L: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(L)
    return np.delete(eigs, int(np.argmin(np.abs(eigs))))


def _null_vector(M: np.ndarray) -> np.ndarray:
    """Null vector of M (smallest right singular vector), scaled to sum n."""
    v = np.linalg.svd(M)[2][-1]
    return v * (M.shape[0] / v.sum())


def spectral(R: np.ndarray, C: np.ndarray) -> dict:
    """Caps, contraction rates and weighting vectors of a rooted pair."""
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    n = R.shape[0]
    L1, L2 = laplacians(R, C)
    t1, t2 = _nonzero_tail(L1), _nonzero_tail(L2)

    def cap(sums, tail):
        return min(float((1.0 / sums[sums > 0]).min()), float((tail.real / (1.0 + np.abs(tail) ** 2)).min()))

    def rate(tail):
        mods2 = np.abs(tail) ** 2
        return float(((2.0 + mods2) * tail.real / (2.0 + 2.0 * mods2)).min())

    v1 = _null_vector(L1.T)
    v2 = _null_vector(L2)
    return {
        "n": n,
        "alpha_cap": cap(R.sum(axis=1), t1),
        "beta_cap": cap(C.sum(axis=0), t2),
        "r1": rate(t1),
        "r2": rate(t2),
        "v1": v1,
        "v2": v2,
        "rhoL1": float(np.abs(np.append(t1, 0.0)).max()),
    }


def q_caps(sc: dict, L: float, mu: float) -> tuple[float, float]:
    """The paper's two gamma-cap multipliers for constant (S2) steps."""
    n, r1, r2 = sc["n"], sc["r1"], sc["r2"]
    v1v2 = float(sc["v1"] @ sc["v2"])
    nv1, nv2 = float(np.linalg.norm(sc["v1"])), float(np.linalg.norm(sc["v2"]))
    ind = 1.0 if mu == 0.0 else 0.0
    q1 = min(
        n * math.sqrt(3.0 * n) * r1 / (24.0 * nv2 * L),
        r1 / (2.0 * nv2 * L) * math.sqrt(mu / (12.0 * L + 2.0 * mu) + ind / 2.0),
    )
    q2 = min(
        math.sqrt(3.0) * r2 / (6.0 * n * L),
        math.sqrt(3.0) * v1v2 * r2 / (36.0 * nv1 * nv2 * L),
        math.sqrt(6.0) * v1v2 * r1 * r2 / (144.0 * sc["rhoL1"] * nv1 * nv2 * L),
        math.sqrt(6.0) * v1v2 * r2 / (12.0 * nv1 * nv2 * L) * math.sqrt(mu / (36.0 * L + 7.0 * mu) + ind / 7.0),
    )
    return q1, q2


def admissible_s2(sc: dict, L: float, mu: float, frac: float, p_m: float, p_noise: float) -> dict:
    """S2 scheme document at ``frac`` of every step-size cap (frac < 1)."""
    q1, q2 = q_caps(sc, L, mu)
    v1v2 = float(sc["v1"] @ sc["v2"])
    beta = frac * sc["beta_cap"]
    alpha = frac * min(
        sc["alpha_cap"],
        math.sqrt(2.0) * v1v2 * sc["r2"] * beta / (12.0 * sc["rhoL1"] * float(np.linalg.norm(sc["v1"])) * L),
    )
    gamma = frac * min(1.0, sc["n"] / (20.0 * v1v2 * L), q1 * alpha, q2 * beta)
    n = sc["n"]
    return {
        "schema_version": 1, "kind": "S2", "alpha": alpha, "beta": beta, "gamma": gamma,
        "p_m": p_m, "p_zeta": [p_noise] * n, "p_eta": [p_noise] * n,
    }


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def rates(scheme: dict, K: int) -> dict:
    """Step sizes, batch size m and per-(agent, k) noise scales at horizon K."""
    pz = np.asarray(scheme["p_zeta"], float)
    pe = np.asarray(scheme["p_eta"], float)
    ks = np.arange(K + 1, dtype=float)
    if scheme["kind"] == "S1":
        kp1 = K + 1.0
        growth = float(K) ** scheme["p_m"] if K > 0 else (1.0 if scheme["p_m"] == 0 else 0.0)
        return {
            "alpha": scheme["a1"] / kp1 ** scheme["p_alpha"],
            "beta": scheme["a2"] / kp1 ** scheme["p_beta"],
            "gamma": scheme["a3"] / kp1 ** scheme["p_gamma"],
            "m": math.floor(scheme["a4"] * growth) + 1,
            "sigma_zeta": (ks[None, :] + 1.0) ** pz[:, None],
            "sigma_eta": (ks[None, :] + 1.0) ** pe[:, None],
        }
    ones = np.ones(K + 1)
    return {
        "alpha": scheme["alpha"],
        "beta": scheme["beta"],
        "gamma": scheme["gamma"],
        "m": math.floor(scheme["p_m"] ** K) + 1,
        "sigma_zeta": (pz**K)[:, None] * ones[None, :],
        "sigma_eta": (pe**K)[:, None] * ones[None, :],
    }


# ---------------------------------------------------------------------------
# Privacy accountant
# ---------------------------------------------------------------------------

def epsilon(R: np.ndarray, C: np.ndarray, scheme: dict, adj_C: float, K: int) -> np.ndarray:
    """Per-agent cumulative budget eps_i at horizon K (Laplace composition)."""
    import scipy.signal  # imported here: it is slow to load and set-up must not pay for it

    rt = rates(scheme, K)
    inv_m = 1.0 / rt["m"]
    q_x = np.abs(1.0 - rt["alpha"] * np.asarray(R).sum(axis=1))
    q_y = np.abs(1.0 - rt["beta"] * np.asarray(C).sum(axis=0))
    drive_y = np.full(K + 1, 2.0 * adj_C * inv_m)
    drive_y[0] = adj_C * inv_m
    eps = np.empty(len(q_x))
    for i in range(len(q_x)):
        dy = scipy.signal.lfilter([1.0], [1.0, -q_y[i]], drive_y)
        drive_x = np.concatenate(([0.0], rt["gamma"] * dy[:-1]))
        dx = scipy.signal.lfilter([1.0], [1.0, -q_x[i]], drive_x)
        eps[i] = float((dx / rt["sigma_zeta"][i]).sum() + (dy / rt["sigma_eta"][i]).sum())
    return eps


# ---------------------------------------------------------------------------
# Quadratic objective and noisy gradient tracking
# ---------------------------------------------------------------------------

class Quadratic:
    """loss(x, xi) = ||A x - d||^2 / (2 n) + xi ||x|| / (1 + ||x||), scalar xi."""

    def __init__(self, A, dvec, n: int, samples: list[np.ndarray]):
        self.A = np.asarray(A, float)
        self.dvec = np.asarray(dvec, float)
        self.n = n
        self.samples = [np.asarray(s, float).reshape(-1) for s in samples]
        self.mean_xi = float(np.mean([s.mean() for s in self.samples]))
        eigs = np.linalg.eigvalsh(self.A.T @ self.A)
        self.L1_smooth = float(np.abs(np.linalg.eigvals(self.A)).max()) ** 2 / (2 * n)
        self.mu = 2.0 * float(eigs.min()) ** 2

    @functools.cached_property
    def F_star(self) -> float:
        """Polished least-squares minimum of F (the reference optimum)."""
        x_ls = np.linalg.solve(self.A.T @ self.A, self.A.T @ self.dvec)
        opt = scipy.optimize.minimize(self.value, x_ls, jac=self.gradient, tol=1e-14)
        return float(min(self.value(x_ls), opt.fun))

    @staticmethod
    def datasets(n: int, D: int, data_seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(np.random.SeedSequence(data_seed))
        return [rng.normal(0.0, 2.0, size=(D, 1)) for _ in range(n)]

    def _coupling(self, X: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(X, axis=-1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return np.where(norms > 0, X / (safe * (1.0 + safe) ** 2), 0.0)

    def _smooth(self, X: np.ndarray) -> np.ndarray:
        return (X @ self.A.T - self.dvec) @ self.A / self.n

    def value(self, x) -> float:
        res = self.A @ x - self.dvec
        nx = float(np.linalg.norm(x))
        return 0.5 * float(res @ res) / self.n + self.mean_xi * nx / (1.0 + nx)

    def gradient(self, X):
        """Network gradient at x, or at each row of X."""
        return self._smooth(X) + self.mean_xi * self._coupling(X)

    def sampled_gradient(self, X: np.ndarray, xibar: np.ndarray) -> np.ndarray:
        """Mean sampled gradient per row of X, given each row's sample mean."""
        return self._smooth(X) + xibar[:, None] * self._coupling(X)

    def adjacency_bound(self) -> float:
        """(2^tau + 1) sqrt(d) L2 max|xi|^tau with tau = L2 = 1."""
        return 3.0 * math.sqrt(self.A.shape[1]) * max(float(np.abs(s).max()) for s in self.samples)


def _sample_means(obj: Quadratic, seed: int, k: int, m: int) -> np.ndarray:
    return np.array([
        obj.samples[i][keyed(seed, i, k, ROLE_SAMPLES).permutation(obj.samples[i].size)[:m]].mean()
        for i in range(obj.n)
    ])


def run_seed(R, C, obj: Quadratic, rt: dict, K: int, seed: int, v1: np.ndarray) -> tuple[np.ndarray, float]:
    """One noisy run of K+1 steps; returns (per-agent ||grad F(x_i)||^2, gap at the v1 average)."""
    n, d = obj.n, obj.A.shape[1]
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    L1, L2 = laplacians(R, C)
    Mx = np.eye(n) - rt["alpha"] * L1
    My = np.eye(n) - rt["beta"] * L2
    m = rt["m"]
    x = np.stack([keyed(seed, i, 0, ROLE_X0).uniform(-1.0, 1.0, size=d) for i in range(n)])
    g = obj.sampled_gradient(x, _sample_means(obj, seed, 0, m))
    y = g.copy()
    for k in range(K + 1):
        zeta = np.stack([keyed(seed, i, k, ROLE_ZETA).laplace(0.0, rt["sigma_zeta"][i, k], size=d) for i in range(n)])
        eta = np.stack([keyed(seed, i, k, ROLE_ETA).laplace(0.0, rt["sigma_eta"][i, k], size=d) for i in range(n)])
        x_next = Mx @ x + rt["alpha"] * (R @ zeta) - rt["gamma"] * y
        g_next = obj.sampled_gradient(x_next, _sample_means(obj, seed, k + 1, m))
        y = My @ y + rt["beta"] * (C @ eta) + g_next - g
        x, g = x_next, g_next
    grad_sq = (obj.gradient(x) ** 2).sum(axis=1)
    gap = obj.value(v1 @ x / n) - obj.F_star
    return grad_sq, gap


def ensemble(R, C, obj: Quadratic, scheme: dict, K: int, seeds, v1: np.ndarray) -> dict:
    """Seed-mean final gradient norms (max over agents) and final gap at horizon K."""
    rt = rates(scheme, K)
    finals = [run_seed(R, C, obj, rt, K, s, v1) for s in seeds]
    grad = np.mean([f[0] for f in finals], axis=0)
    return {
        "final_grad_norm_sq_max": float(grad.max()),
        "final_gap": float(np.mean([f[1] for f in finals])),
    }


def coupled(R, C, obj: Quadratic, samples_alt: list[np.ndarray], scheme: dict, K: int, seed: int):
    """Realized l1 differences (dx, dy), shape (n, K+1), of two runs sharing every broadcast.

    Side a runs on ``obj.samples`` and publishes; side b runs on
    ``samples_alt`` but mixes side a's perturbed values, with the same index
    draws, as in the conditioning behind the sensitivity recursion.
    """
    n, d = obj.n, obj.A.shape[1]
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    rt = rates(scheme, K)
    a, b, c, m = rt["alpha"], rt["beta"], rt["gamma"], rt["m"]
    keep_x = (1.0 - a * R.sum(axis=1))[:, None]
    keep_y = (1.0 - b * C.sum(axis=0))[:, None]
    alt = [np.asarray(s, float).reshape(-1) for s in samples_alt]

    def grads(xa, xb, k):
        idx = [keyed(seed, i, k, ROLE_SAMPLES).permutation(obj.samples[i].size)[:m] for i in range(n)]
        mean_a = np.array([obj.samples[i][idx[i]].mean() for i in range(n)])
        mean_b = np.array([alt[i][idx[i]].mean() for i in range(n)])
        return obj.sampled_gradient(xa, mean_a), obj.sampled_gradient(xb, mean_b)

    xa = np.stack([keyed(seed, i, 0, ROLE_X0).uniform(-1.0, 1.0, size=d) for i in range(n)])
    xb = xa.copy()
    ga, gb = grads(xa, xb, 0)
    ya, yb = ga.copy(), gb.copy()
    dx = np.zeros((n, K + 1))
    dy = np.zeros((n, K + 1))
    dy[:, 0] = np.abs(ya - yb).sum(axis=1)
    for k in range(K):
        zeta = np.stack([keyed(seed, i, k, ROLE_ZETA).laplace(0.0, rt["sigma_zeta"][i, k], size=d) for i in range(n)])
        eta = np.stack([keyed(seed, i, k, ROLE_ETA).laplace(0.0, rt["sigma_eta"][i, k], size=d) for i in range(n)])
        mixed_x = a * (R @ (xa + zeta))
        mixed_y = b * (C @ (ya + eta))
        xa, xb = keep_x * xa + mixed_x - c * ya, keep_x * xb + mixed_x - c * yb
        ga_next, gb_next = grads(xa, xb, k + 1)
        ya = keep_y * ya + mixed_y + ga_next - ga
        yb = keep_y * yb + mixed_y + gb_next - gb
        ga, gb = ga_next, gb_next
        dx[:, k + 1] = np.abs(xa - xb).sum(axis=1)
        dy[:, k + 1] = np.abs(ya - yb).sum(axis=1)
    return dx, dy
