"""Three-state drift recursion bounding the engine's expected error vector.

The bound tracks V_k = (E||(W1 x k)||^2, E||(W2 y k)||^2, E[F(xbar_k) - F*]),
with xbar the v1-weighted network average, and asserts a linear recursion

    E V_{k+1} <= A E V_k + u_k        (entrywise)

whose 3x3 coefficient matrix A depends on the step sizes, the contraction
rates r1/r2, the weighting vectors, and the smoothness / quadratic-growth
constants, while the drift u_k collects gradient-noise and privacy-noise
power (including the accumulated tracking-noise sums).  When the constant
step sizes pass the S2 admissibility checks with a positive quadratic-growth
constant, rho(A) < 1 and the explicit positive vector

    s = (1/L^2, (v1.v2)^2 / (3 ||v1||^2), 3/mu)

certifies the contraction via A s < s.  ``dominance_check`` compares the
recursion against ensemble estimates of E V_k with a statistical slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import SpectralConstants
from .schemes import SchemeParams, check_agent_count, rates_at

__all__ = [
    "ObjectiveConstants",
    "RecursionModel",
    "ContractionReport",
    "CertificateReport",
    "DominanceReport",
    "CapViolation",
    "EnsembleTooSmall",
    "build_model",
    "contraction_check",
    "certificate_check",
    "dominance_check",
]


class CapViolation(ValueError):
    """Step sizes outside the range where the recursion bound is valid."""


class EnsembleTooSmall(ValueError):
    """Too few runs to estimate expectations; use at least 30."""


@dataclass(frozen=True)
class ObjectiveConstants:
    """The three constants the recursion needs, decoupled from any dataset."""

    L1_smooth: float
    mu: float
    sigma_g: float

    @staticmethod
    def of(obj) -> "ObjectiveConstants":
        return ObjectiveConstants(
            L1_smooth=float(obj.L1_smooth), mu=float(obj.mu), sigma_g=float(obj.sigma_g)
        )


@dataclass(frozen=True)
class RecursionModel:
    A: np.ndarray  # (3, 3)
    u: np.ndarray  # (K+1, 3)
    K: int
    inputs: dict


def build_model(
    sc: SpectralConstants,
    scheme: SchemeParams,
    constants: ObjectiveConstants,
    K: int,
    d: int,
) -> RecursionModel:
    """Populate A and u_k for one horizon.

    Preconditions: the horizon's step sizes must sit below the mixing caps and
    gamma below n / (4 (v1.v2) L); violations are reported with the failing cap.
    """
    check_agent_count(scheme, sc.n)
    rates = rates_at(scheme, K)
    a, b, c = rates.alpha, rates.beta, rates.gamma
    n = sc.n
    L = constants.L1_smooth
    mu = constants.mu
    sg2 = constants.sigma_g**2
    v1v2 = sc.v1_dot_v2
    nv1 = sc.norm_v1
    nv2 = sc.norm_v2
    r1, r2 = sc.r1, sc.r2
    rhoR2 = sc.rhoR**2
    rhoC2 = sc.rhoC**2

    gamma_cap = n / (4.0 * v1v2 * L)
    for name, val, cap in (
        ("alpha", a, sc.alpha_cap),
        ("beta", b, sc.beta_cap),
        ("gamma", c, gamma_cap),
    ):
        if not val < cap:
            raise CapViolation(f"{name}={val:.6g} must be below its cap {cap:.6g}")

    ra = r1 * a
    rb = r2 * b
    inv_m = 0.0 if not math.isfinite(rates.m) else 1.0 / rates.m

    A = np.empty((3, 3))
    A[0, 0] = 1.0 - ra + 4.0 * (1.0 + ra) * nv2**2 * c**2 * L**2 / (n**3 * ra)
    A[0, 1] = 2.0 * (1.0 + ra) * c**2 / ra
    A[0, 2] = 8.0 * (1.0 + ra) * nv2**2 * c**2 * L / (n**2 * ra)
    A[1, 0] = 6.0 * (1.0 + rb) * (n * sc.rhoL1**2 * a**2 + 2.0 * nv2**2 * c**2 * L**2) * L**2 / (n * rb)
    A[1, 1] = 1.0 - rb + 6.0 * (1.0 + rb) * c**2 * L**2 / rb
    A[1, 2] = 24.0 * (1.0 + rb) * nv2**2 * c**2 * L**3 / rb
    A[2, 0] = v1v2 * (3.0 * n + 4.0 * v1v2 * c * L) * c * L**2 / (2.0 * n**3)
    A[2, 1] = 3.0 * nv1**2 * c / (2.0 * n * v1v2)
    A[2, 2] = 1.0 - v1v2 * mu * c / n + 4.0 * v1v2**2 * c**2 * L / n**2

    u = np.empty((K + 1, 3))
    eta_cum = 0.0  # sum over l < k of max_i sigma_eta(i, l)^2
    for k, (z, e) in enumerate(rates.sigma.max(axis=1).T.tolist()):  # max_i sigma_zeta(i, k), max_i sigma_eta(i, k)
        z2, e2 = z**2, e**2
        u[k, 0] = (
            2.0 * n * d * rhoR2 * a**2 * z2
            + 2.0 * (1.0 + ra) * nv2**2 * c**2 * sg2 * inv_m / (n**2 * ra)
            + 4.0 * d * (1.0 + ra) * nv2**2 * rhoC2 * b**2 * c**2 * eta_cum / (n**3 * ra)
        )
        u[k, 1] = (
            12.0 * d * (1.0 + rb) * nv2**2 * rhoC2 * b * c**2 * L**2 * eta_cum / (n * r2)
            + (2.0 * n + 3.0 * n * rb + (6.0 + 6.0 * rb) * nv2**2 * c**2 * L**2) * sg2 * inv_m / (r2 * b)
            + 2.0 * n * d * rhoC2 * b**2 * e2
            + 4.0 * (1.0 + rb) * n * d * rhoR2 * a**2 * L**2 * z2 / (r2 * b)
        )
        u[k, 2] = (
            v1v2 * (3.0 * n + 2.0 * v1v2 * c * L) * c * sg2 * inv_m / (2.0 * n**2)
            + 2.0 * d * nv1**2 * rhoR2 * a * z2 / n
            + v1v2 * d * rhoC2 * (3.0 * n + 2.0 * v1v2 * c * L) * b**2 * c * eta_cum / n**3
        )
        eta_cum += e2

    return RecursionModel(
        A=A,
        u=u,
        K=K,
        inputs={
            "n": n,
            "d": d,
            "L1_smooth": L,
            "mu": mu,
            "sigma_g": constants.sigma_g,
            "r1": r1,
            "r2": r2,
            "norm_v1": nv1,
            "norm_v2": nv2,
            "v1_dot_v2": v1v2,
            "rhoR": sc.rhoR,
            "rhoC": sc.rhoC,
            "rhoL1": sc.rhoL1,
            "alpha": a,
            "beta": b,
            "gamma": c,
            "m": rates.m,
            "scheme_kind": scheme.kind,
        },
    )


@dataclass(frozen=True)
class ContractionReport:
    rho: float
    contracts: bool


def contraction_check(model: RecursionModel) -> ContractionReport:
    rho = float(np.abs(np.linalg.eigvals(model.A)).max())
    return ContractionReport(rho=rho, contracts=rho < 1.0)


@dataclass(frozen=True)
class CertificateReport:
    s: np.ndarray
    As: np.ndarray
    ok: bool


def certificate_check(model: RecursionModel) -> CertificateReport:
    """Entrywise test A s < s with the explicit certificate vector."""
    L = model.inputs["L1_smooth"]
    mu = model.inputs["mu"]
    if mu <= 0:
        raise ValueError("certificate requires a positive quadratic-growth constant")
    v1v2 = model.inputs["v1_dot_v2"]
    nv1 = model.inputs["norm_v1"]
    s = np.array([1.0 / L**2, v1v2**2 / (3.0 * nv1**2), 3.0 / mu])
    As = model.A @ s
    return CertificateReport(s=s, As=As, ok=bool((As < s).all()))


@dataclass(frozen=True)
class DominanceReport:
    checked: int
    violations: int
    pass_rate: float
    worst_margin: float  # most negative slack across all checks, in slack units

    @property
    def ok(self) -> bool:
        return self.checked == 0 or self.pass_rate >= 0.99


def dominance_check(model: RecursionModel, v_mean: np.ndarray, v_se: np.ndarray, n_runs: int) -> DominanceReport:
    """Compare ensemble estimates of E V_k against the recursion, with slack.

    ``v_mean``/``v_se`` are (T, 3) arrays for consecutive iterations starting
    at k = 0; transition k -> k+1 passes when

      mean_{k+1, p} <= (A mean_k + u_k)_p + 3 * sqrt(se_{k+1,p}^2 + sum_q (A_pq se_{k,q})^2).

    The recursion is an exact-expectation statement, so only statistically
    explainable violations are tolerated.
    """
    if n_runs < 30:
        raise EnsembleTooSmall(f"need >= 30 runs for expectation estimates, got {n_runs}")
    v_mean = np.asarray(v_mean, float)
    v_se = np.asarray(v_se, float)
    T = v_mean.shape[0]
    n_trans = min(T - 1, model.K + 1)
    checked = 0
    violations = 0
    worst = math.inf
    for k in range(n_trans):
        rhs = model.A @ v_mean[k] + model.u[k]
        slack = 3.0 * np.sqrt(v_se[k + 1] ** 2 + (model.A**2) @ (v_se[k] ** 2))
        margin = rhs + slack - v_mean[k + 1]
        for p in range(3):
            checked += 1
            denom = slack[p] if slack[p] > 0 else max(abs(rhs[p]), 1e-300)
            worst = min(worst, float(margin[p] / denom))
            if margin[p] < 0:
                violations += 1
    pass_rate = 1.0 if checked == 0 else (checked - violations) / checked
    return DominanceReport(
        checked=checked,
        violations=violations,
        pass_rate=pass_rate,
        worst_margin=worst if checked else math.inf,
    )
