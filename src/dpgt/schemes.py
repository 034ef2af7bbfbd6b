"""Step-size / sampling / noise schedules and their admissibility checks.

Two parameterizations drive the engine.  Both are indexed by the maximum
iteration number K of a run: step sizes and the sampling count are constant
within a run and change only across horizons.

  S1  alpha_K = a1/(K+1)^p_alpha, beta_K = a2/(K+1)^p_beta,
      gamma_K = a3/(K+1)^p_gamma, m_K = floor(a4 * K^p_m) + 1,
      noise scales sigma_k = (k+1)^p per agent (growing, flat, or decaying
      with the iteration index k).

  S2  alpha, beta, gamma constant, m_K = floor(p_m^K) + 1,
      noise scales sigma_k = p^K per agent (constant in k, shrinking in K).

This is the only module that tells the two apart.  :func:`rates_at` turns
either into one :class:`Rates`, whose noise schedule is data: per role and
agent, sigma_{i,k} = c_i * (k+1)^{q_i}, with c = 1, q = p under S1 and
c = p^K, q = 0 under S2 (both exact, as 1.0 * x == x and x**0.0 == 1.0).
``validate_s1`` / ``validate_s2`` evaluate every admissibility inequality
against the spectral constants of a graph pair and the gradient smoothness
constant, recording numeric lhs/rhs so near-misses are visible; ``validate``
picks the one that fits a scheme.
``check_budget_finiteness`` evaluates the separate conditions under which the
cumulative privacy budget stays finite as K grows without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar, Union

import numpy as np

from .graphs import GraphPair, SpectralConstants, _sum_cap

__all__ = [
    "S1Params",
    "S2Params",
    "SchemeParams",
    "SCHEME_KINDS",
    "Rates",
    "InequalityCheck",
    "ValidationReport",
    "rates_at",
    "check_agent_count",
    "validate",
    "validate_s1",
    "validate_s2",
    "theta",
    "check_budget_finiteness",
]

_EXP_OVERFLOW = 700.0  # log-scale guard before float overflow


@dataclass(frozen=True)
class S1Params:
    """Decaying step sizes with polynomially growing sampling count."""

    a1: float
    a2: float
    a3: float
    a4: float
    p_alpha: float
    p_beta: float
    p_gamma: float
    p_m: float
    p_zeta: tuple[float, ...]
    p_eta: tuple[float, ...]
    kind: ClassVar[str] = "S1"
    fit_model: ClassVar[str] = "power"  # how a run's gradient norm decays within its horizon

    def __post_init__(self):
        if min(self.a1, self.a2, self.a3) <= 0 or self.a4 < 0:
            raise ValueError("a1, a2, a3 must be positive and a4 nonnegative")
        if min(self.p_alpha, self.p_beta, self.p_gamma) <= 0 or self.p_m < 0:
            raise ValueError("exponents must satisfy p_alpha, p_beta, p_gamma > 0, p_m >= 0")
        if len(self.p_zeta) != len(self.p_eta):
            raise ValueError("p_zeta and p_eta must have equal length")

    @property
    def n_agents(self) -> int:
        return len(self.p_zeta)


@dataclass(frozen=True)
class S2Params:
    """Constant step sizes with geometrically growing sampling count."""

    alpha: float
    beta: float
    gamma: float
    p_m: float
    p_zeta: tuple[float, ...]
    p_eta: tuple[float, ...]
    kind: ClassVar[str] = "S2"
    fit_model: ClassVar[str] = "exponential"

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) <= 0 or self.p_m < 0:
            raise ValueError("alpha, beta, gamma must be positive and p_m nonnegative")
        if any(p <= 0 for p in self.p_zeta) or any(p <= 0 for p in self.p_eta):
            raise ValueError("noise bases must be positive")
        if len(self.p_zeta) != len(self.p_eta):
            raise ValueError("p_zeta and p_eta must have equal length")

    @property
    def n_agents(self) -> int:
        return len(self.p_zeta)


SchemeParams = Union[S1Params, S2Params]


SCHEME_KINDS = {cls.kind: cls for cls in (S1Params, S2Params)}


@dataclass(frozen=True)
class Rates:
    """Realized schedule at one horizon K.

    Noise scale of agent i at iteration k: c[r][i] * (k+1)**q[r][i], for the
    state role r = 0 (zeta) and the tracking role r = 1 (eta).
    """

    K: int
    alpha: float
    beta: float
    gamma: float
    m: float  # math.inf when the sampling count overflows the float range
    c: tuple[tuple[float, ...], tuple[float, ...]]
    q: tuple[tuple[float, ...], tuple[float, ...]]
    noise_off: bool = False

    def sigma_cols(self, k: int) -> tuple[list[float], list[float]]:
        """Every agent's sigma_zeta and sigma_eta at iteration k."""
        if self.noise_off:
            return [0.0] * len(self.c[0]), [0.0] * len(self.c[1])
        base = k + 1.0
        zeta, eta = ([ci * base**qi for ci, qi in zip(c, q)] for c, q in zip(self.c, self.q))
        return zeta, eta

    def sigma_rows(self, agent: int, ks: range) -> tuple[np.ndarray, np.ndarray]:
        """The agent's entries of :meth:`sigma_cols` for k in a step-1 range, bit for bit.

        Powers stay Python floats, since ``np.power`` can differ from ``**``
        in the last ulp; ``float(k + 1)`` is ``k + 1.0`` below 2**53.  A zero
        exponent leaves c exactly, with no powers to take.
        """
        if self.noise_off:
            return np.zeros(len(ks)), np.zeros(len(ks))
        zeta, eta = (
            np.full(len(ks), c[agent]) if q[agent] == 0.0
            else c[agent] * np.fromiter(
                map(pow, map(float, range(ks.start + 1, ks.stop + 1)), repeat(q[agent])), float, len(ks)
            )
            for c, q in zip(self.c, self.q)
        )
        return zeta, eta

    @property
    def m_int(self) -> int:
        if not math.isfinite(self.m):
            raise OverflowError("sampling count exceeds the integer range")
        return int(self.m)


def _power_int(base: float, K: int) -> float:
    if base <= 0.0:
        return 0.0 if K > 0 else 1.0
    if K * math.log(base) > _EXP_OVERFLOW:
        return math.inf
    return base**K


def rates_at(params: SchemeParams, K: int) -> Rates:
    """Step sizes, sampling count, and noise schedules for horizon K."""
    if K < 0:
        raise ValueError("horizon K must be nonnegative")
    n = params.n_agents
    if isinstance(params, S1Params):
        kp1 = (K + 1.0)
        try:
            growth = float(K) ** params.p_m if K > 0 else (1.0 if params.p_m == 0 else 0.0)
        except OverflowError:  # K**p_m beyond the float range
            growth = math.inf
        # a4 * growth can overflow where growth does not; a4 = 0 keeps m = 1.
        scaled = params.a4 * growth if params.a4 > 0 else 0.0
        m = math.floor(scaled) + 1 if math.isfinite(scaled) else math.inf
        return Rates(
            K=K,
            alpha=params.a1 / kp1**params.p_alpha,
            beta=params.a2 / kp1**params.p_beta,
            gamma=params.a3 / kp1**params.p_gamma,
            m=float(m),
            c=((1.0,) * n,) * 2,
            q=(params.p_zeta, params.p_eta),
        )
    growth = _power_int(params.p_m, K)
    m = math.floor(growth) + 1 if math.isfinite(growth) else math.inf
    return Rates(
        K=K,
        alpha=params.alpha,
        beta=params.beta,
        gamma=params.gamma,
        m=float(m),
        c=tuple(tuple(float(_power_int(p, K)) for p in ps) for ps in (params.p_zeta, params.p_eta)),
        q=((0.0,) * n,) * 2,
    )


def check_agent_count(params: SchemeParams, n: int) -> None:
    """Refuse a scheme whose per-agent noise exponents do not fit an n-agent graph pair."""
    if params.n_agents != n:
        raise ValueError(f"the scheme has {params.n_agents} agents, the graph pair {n}")


# ---------------------------------------------------------------------------
# Admissibility reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    strict: bool
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[InequalityCheck, ...]
    derived: dict

    @property
    def overall(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def entry(self, name: str) -> InequalityCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        """JSON form: verdict, derived values (numbers as floats), every inequality."""
        return {
            "overall": self.overall,
            "derived": {k: (v if isinstance(v, str) else float(v)) for k, v in self.derived.items()},
            "entries": [
                {"name": e.name, "lhs": e.lhs, "rhs": e.rhs, "slack": e.slack, "satisfied": e.satisfied}
                for e in self.entries
            ],
        }


def _lt(name: str, lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(name, float(lhs), float(rhs), True, bool(lhs < rhs))


def _le(name: str, lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(name, float(lhs), float(rhs), False, bool(lhs <= rhs))


def validate_s1(params: S1Params, sc: SpectralConstants, L: float) -> ValidationReport:
    """Every S1 admissibility inequality, with the decay exponent attached.

    L is the gradient Lipschitz constant of the objective; it bounds the
    a3 cap and is used uniformly wherever smoothness enters.
    """
    if params.kind != "S1":
        raise TypeError("expected S1 parameters")
    check_agent_count(params, sc.n)
    pz = max(max(params.p_zeta), 0.0)
    pe = max(max(params.p_eta), 0.0)
    entries = (
        _lt("a1 < alpha_cap", params.a1, sc.alpha_cap),
        _lt("a2 < beta_cap", params.a2, sc.beta_cap),
        _lt("a3 < n/(4 v1v2 L)", params.a3, sc.n / (4.0 * sc.v1_dot_v2 * L)),
        # With a4 = 0 the sampling count stays at 1 and p_m - p_beta does not apply.
        _lt("0 < a4", 0.0, params.a4),
        _lt("1/2 < p_beta", 0.5, params.p_beta),
        _lt("p_beta < p_alpha", params.p_beta, params.p_alpha),
        _lt("p_alpha < p_gamma", params.p_alpha, params.p_gamma),
        _lt("p_gamma < 1", params.p_gamma, 1.0),
        _le("1 <= p_m - p_beta", 1.0, params.p_m - params.p_beta),
        _le("1 <= 2 p_gamma - p_alpha", 1.0, 2.0 * params.p_gamma - params.p_alpha),
        _le(
            "1 <= 2 p_alpha - p_beta - 2 max(p_zeta, 0)",
            1.0,
            2.0 * params.p_alpha - params.p_beta - 2.0 * pz,
        ),
        _le(
            "2 <= p_gamma + 2 p_beta - 2 max(p_eta, 0)",
            2.0,
            params.p_gamma + 2.0 * params.p_beta - 2.0 * pe,
        ),
    )
    return ValidationReport(entries=entries, derived={"theta": theta(params)})


def q_caps(sc: SpectralConstants, L: float, mu: float) -> tuple[float, float]:
    """The two gamma-cap multipliers used by the S2 admissibility test."""
    v1v2 = sc.v1_dot_v2
    nv1, nv2 = sc.norm_v1, sc.norm_v2
    n, r1, r2 = sc.n, sc.r1, sc.r2
    ind = 1.0 if mu == 0.0 else 0.0
    q1 = min(
        n * math.sqrt(3.0 * n) * r1 / (24.0 * nv2 * L),
        r1 / (2.0 * nv2 * L) * math.sqrt(mu / (12.0 * L + 2.0 * mu) + ind / 2.0),
    )
    q2 = min(
        math.sqrt(3.0) * r2 / (6.0 * n * L),
        math.sqrt(3.0) * v1v2 * r2 / (36.0 * nv1 * nv2 * L),
        math.sqrt(6.0) * v1v2 * r1 * r2 / (144.0 * sc.rhoL1 * nv1 * nv2 * L),
        math.sqrt(6.0)
        * v1v2
        * r2
        / (12.0 * nv1 * nv2 * L)
        * math.sqrt(mu / (36.0 * L + 7.0 * mu) + ind / 7.0),
    )
    return q1, q2


def validate_s2(
    params: S2Params, sc: SpectralConstants, L: float, mu: float
) -> ValidationReport:
    """Every S2 admissibility inequality, with the gamma-cap multipliers attached."""
    if params.kind != "S2":
        raise TypeError("expected S2 parameters")
    check_agent_count(params, sc.n)
    q1, q2 = q_caps(sc, L, mu)
    alpha_extra = (
        math.sqrt(2.0) * sc.v1_dot_v2 * sc.r2 * params.beta / (12.0 * sc.rhoL1 * sc.norm_v1 * L)
        if sc.rhoL1 > 0
        else math.inf
    )
    entries = (
        _lt("beta < beta_cap", params.beta, sc.beta_cap),
        _lt("alpha < alpha_cap", params.alpha, sc.alpha_cap),
        _lt("alpha < sqrt(2) v1v2 r2 beta / (12 rho(L1) |v1| L)", params.alpha, alpha_extra),
        _lt("gamma < 1", params.gamma, 1.0),
        _lt("gamma < n/(20 v1v2 L)", params.gamma, sc.n / (20.0 * sc.v1_dot_v2 * L)),
        _lt("gamma < Q1 alpha", params.gamma, q1 * params.alpha),
        _lt("gamma < Q2 beta", params.gamma, q2 * params.beta),
        _lt("0 < min p_zeta", 0.0, min(params.p_zeta)),
        _lt("max p_zeta < 1", max(params.p_zeta), 1.0),
        _lt("0 < min p_eta", 0.0, min(params.p_eta)),
        _lt("max p_eta < 1", max(params.p_eta), 1.0),
        _lt("1 < p_m", 1.0, params.p_m),
    )
    return ValidationReport(entries=entries, derived={"Q1": q1, "Q2": q2})


def validate(params: SchemeParams, sc: SpectralConstants, L: float, mu: float) -> ValidationReport:
    """The admissibility report of either kind; the S1 conditions do not involve mu."""
    if isinstance(params, S1Params):
        return validate_s1(params, sc, L)
    return validate_s2(params, sc, L, mu)


def theta(params: S1Params) -> float:
    """Decay exponent of the mean-square gradient bound under S1.

    The predicted decay of the final gradient norm is (K+1)^-(theta - p_gamma).
    """
    pz = max(max(params.p_zeta), 0.0)
    pe = max(max(params.p_eta), 0.0)
    return min(
        params.p_m - params.p_beta,
        2.0 * params.p_alpha - params.p_beta - 2.0 * pz,
        2.0 * params.p_beta - 2.0 * pe,
    )


def check_budget_finiteness(
    params: SchemeParams, gp: GraphPair | None = None
) -> ValidationReport:
    """Conditions under which the cumulative privacy budget stays bounded in K.

    The weight-matrix caps (which keep the per-agent mixing coefficients
    inside (0, 1)) are evaluated when a graph pair is supplied.
    """
    entries: list[InequalityCheck] = []
    derived: dict = {}
    if isinstance(params, S1Params):
        e_y = params.p_m - params.p_beta + min(min(params.p_eta) - 1.0, 0.0)
        e_x = (
            params.p_m
            + min(0.0, params.p_gamma - params.p_alpha - params.p_beta)
            + min(min(params.p_zeta) - 1.0, 0.0)
        )
        # With a4 = 0 the sampling count stays at 1 and no exponent below applies.
        entries.append(_lt("0 < a4", 0.0, params.a4))
        entries.append(_lt("0 < p_m - p_beta + min(min p_eta - 1, 0)", 0.0, e_y))
        entries.append(
            _lt(
                "0 < p_m + min(0, p_gamma - p_alpha - p_beta) + min(min p_zeta - 1, 0)",
                0.0,
                e_x,
            )
        )
        derived.update({"tracking_exponent": e_y, "state_exponent": e_x})
        derived["tail_order"] = f"O(log(K) / K^{min(e_x, e_y):.4g})"
        steps = ("a1", params.a1), ("a2", params.a2)
    else:
        entries.append(_lt("0 < min p_zeta", 0.0, min(params.p_zeta)))
        entries.append(_lt("max p_zeta < 1", max(params.p_zeta), 1.0))
        entries.append(_lt("0 < min p_eta", 0.0, min(params.p_eta)))
        entries.append(_lt("max p_eta < 1", max(params.p_eta), 1.0))
        need = max(max(1.0 / p for p in params.p_zeta), max(1.0 / p for p in params.p_eta))
        entries.append(_lt("p_m > max_i max(1/p_zeta, 1/p_eta)", need, params.p_m))
        base = params.p_m * min(min(params.p_zeta), min(params.p_eta))
        derived["decay_base"] = base
        derived["tail_order"] = f"O(K * ({1.0 / base if base > 0.0 else math.inf:.6g})^K)"
        if base > 1.0:
            derived["decreasing_after"] = 1.0 / math.log(base)
        steps = ("alpha", params.alpha), ("beta", params.beta)
    if gp is not None:
        (x_name, x_step), (y_name, y_step) = steps
        entries.append(_lt(f"{x_name} < min_i 1/row_sum_R", x_step, _sum_cap(gp.row_sums_R)))
        entries.append(_lt(f"{y_name} < min_i 1/col_sum_C", y_step, _sum_cap(gp.col_sums_C)))
    return ValidationReport(entries=tuple(entries), derived=derived)
