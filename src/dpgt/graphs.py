"""Weighted digraph pairs and the spectral constants of their consensus matrices.

A network is described by two nonnegative weight matrices R and C: agent i
receives state values along row i of R and receives tracking values along
row i of C, while the damping of its own tracking variable is set by the
column sum of C.  The derived objects are

  L1 = diag(R·1) - R          (in-Laplacian of the state graph)
  L2 = diag(1ᵀC) - C          (out-Laplacian of the tracking graph)
  v1, v2                      left/right null vectors of L1/L2, scaled to sum n
  W1 = I - (1/n)·1·v1ᵀ        projector removing the v1-weighted average
  W2 = I - (1/n)·v2·1ᵀ        projector removing the uniform average of y

For mixing-step sizes a below ``alpha_cap`` (resp. b below ``beta_cap``) the
matrices I - a·L1 and I - b·L2 are nonnegative with spectral radius 1, and the
consensus error contracts at least linearly:

  rho(W1 - a·L1) <= 1 - r1·a,     rho(W2 - b·L2) <= 1 - r2·b,

with r1, r2 computed from the nonzero Laplacian eigenvalues.  All of this is
only meaningful when each graph is rooted: the state graph and the transpose
of the tracking graph must both contain a spanning tree with a common root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

__all__ = [
    "GraphPair",
    "SpectralConstants",
    "ConnectivityReport",
    "GraphValidationError",
    "DimensionMismatchError",
    "NegativeEntryError",
    "NonFiniteEntryError",
    "ConnectivityError",
    "DegenerateGraphError",
    "EigensolverError",
    "build_graph_pair",
    "check_connectivity",
    "spectrum",
    "spectral_constants",
]

#: Hard cap on matrix size for the dense eigensolver path.
DEFAULT_MAX_N = 256

#: Residual tolerance for eigenpairs returned by :func:`spectrum`.
EIG_RESIDUAL_TOL = 1e-8

#: Residual tolerance for the v1/v2 fixed-point equations.
V_RESIDUAL_TOL = 1e-9


class GraphValidationError(ValueError):
    """Invalid weight-matrix input."""


class DimensionMismatchError(GraphValidationError):
    pass


class NegativeEntryError(GraphValidationError):
    pass


class NonFiniteEntryError(GraphValidationError):
    pass


class ConnectivityError(ValueError):
    """The graph pair has no common spanning-tree root."""


class DegenerateGraphError(ValueError):
    """Zero Laplacian eigenvalue is not algebraically simple."""


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge or missed its residual target."""


@dataclass(frozen=True)
class GraphPair:
    """The two weight matrices and their Laplacians."""

    n: int
    R: np.ndarray
    C: np.ndarray
    L1: np.ndarray
    L2: np.ndarray

    # Summed once per pair, not on every update; read-only, since every
    # caller shares the one array.
    @cached_property
    def row_sums_R(self) -> np.ndarray:
        return _read_only(self.R.sum(axis=1))

    @cached_property
    def col_sums_C(self) -> np.ndarray:
        return _read_only(self.C.sum(axis=0))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ConnectivityReport:
    r_has_tree: bool
    ct_has_tree: bool
    common_root: int | None

    @property
    def ok(self) -> bool:
        return self.r_has_tree and self.ct_has_tree and self.common_root is not None


@dataclass(frozen=True)
class SpectralConstants:
    """Everything downstream code needs about one graph pair."""

    n: int
    eigs_L1: np.ndarray
    eigs_L2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    r1: float
    r2: float
    alpha_cap: float
    beta_cap: float
    W1: np.ndarray
    W2: np.ndarray
    rhoR: float
    rhoC: float
    rhoL1: float

    @property
    def v1_dot_v2(self) -> float:
        return float(self.v1 @ self.v2)

    @property
    def norm_v1(self) -> float:
        return float(np.linalg.norm(self.v1))

    @property
    def norm_v2(self) -> float:
        return float(np.linalg.norm(self.v2))


def _as_weight_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteEntryError(f"{name} contains non-finite entries")
    if (M < 0).any():
        raise NegativeEntryError(f"{name} contains negative entries")
    return M


def build_graph_pair(R, C) -> GraphPair:
    """Validate the weight matrices and assemble both Laplacians.

    Raises a distinct error for shape mismatch, negative entries, and
    non-finite entries.  Self-loops (nonzero diagonal) are allowed.
    """
    R = _as_weight_matrix(R, "R")
    C = _as_weight_matrix(C, "C")
    if R.shape != C.shape:
        raise DimensionMismatchError(
            f"R and C must have identical shape, got {R.shape} vs {C.shape}"
        )
    n = R.shape[0]
    if n < 1:
        raise DimensionMismatchError("need at least one agent")
    L1 = np.diag(R.sum(axis=1)) - R
    L2 = np.diag(C.sum(axis=0)) - C
    return GraphPair(n=n, R=R, C=C, L1=L1, L2=L2)


def _reach(adjacency: np.ndarray, start: int, allowed: np.ndarray) -> np.ndarray:
    """Nodes of ``allowed`` reachable from ``start`` through ``allowed``, breadth first."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & allowed & ~seen
        seen |= frontier
    return seen


def _spanning_roots(adjacency: np.ndarray) -> list[int]:
    """Nodes from which every node is reachable (adjacency[u, v]: edge u -> v).

    Search from each node not yet visited, through unvisited nodes only.  The
    visited set is closed under out-edges after every search, so a root found
    before the last search would have reached its start: if any root exists,
    the start ``last`` of the last search is one.  The roots are then exactly
    the nodes that reach ``last``, found by one search on the reversed edges.
    """
    n = adjacency.shape[0]
    visited = np.zeros(n, dtype=bool)
    last = 0
    for r in range(n):
        if not visited[r]:
            last = r
            visited |= _reach(adjacency, r, ~visited)
    everything = np.ones(n, dtype=bool)
    if not _reach(adjacency, last, everything).all():
        return []
    return np.flatnonzero(_reach(adjacency.T, last, everything)).tolist()


def check_connectivity(gp: GraphPair) -> ConnectivityReport:
    """Spanning-tree test for the state graph and the transposed tracking graph.

    An edge u -> v exists in the state graph when v receives from u, i.e. when
    R[v, u] > 0; in the transposed tracking graph when C[u, v] > 0.  Each
    graph's roots come from :func:`_spanning_roots`, which visits every node
    once and then runs two more searches, not a search from every node.  The
    report carries the smallest common root of both graphs if one exists.
    """
    roots_r = _spanning_roots(gp.R.T > 0)
    roots_ct = _spanning_roots(gp.C > 0)
    common = sorted(set(roots_r) & set(roots_ct))
    return ConnectivityReport(
        r_has_tree=bool(roots_r),
        ct_has_tree=bool(roots_ct),
        common_root=common[0] if common else None,
    )


def _sort_eigs(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    return vals[order]


def spectrum(M, max_n: int = DEFAULT_MAX_N, residual_tol: float = EIG_RESIDUAL_TOL) -> np.ndarray:
    """All eigenvalues of a dense real matrix, sorted by (modulus, real, imag).

    Every returned eigenvalue is certified against its eigenvector:
    ||M v - lam v|| <= residual_tol * max(1, ||M||_2).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteEntryError("matrix contains non-finite entries")
    if M.shape[0] > max_n:
        raise GraphValidationError(f"matrix size {M.shape[0]} exceeds cap {max_n}")
    try:
        vals, vecs = scipy.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(M, 2))) if M.size else 1.0
    residuals = np.linalg.norm(M @ vecs - vecs * vals[None, :], axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > residual_tol * scale:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds {residual_tol * scale:.3e}"
        )
    return _sort_eigs(vals)


def _zero_split(eigs: np.ndarray, which: str) -> np.ndarray:
    """Drop the simple zero eigenvalue; require all others to have Re > 0."""
    rho = float(np.abs(eigs).max()) if eigs.size else 0.0
    tol = 1e-8 * (1.0 + rho)
    zero_mask = np.abs(eigs) < tol
    n_zero = int(zero_mask.sum())
    if n_zero != 1:
        raise DegenerateGraphError(
            f"{which}: expected a simple zero eigenvalue, found {n_zero} within {tol:.2e}"
        )
    rest = eigs[~zero_mask]
    if rest.size and (rest.real <= 0).any():
        raise DegenerateGraphError(
            f"{which}: nonzero eigenvalue with nonpositive real part"
        )
    return rest


def _left_unit_eigvec(M: np.ndarray, tol: float) -> np.ndarray:
    """Left eigenvector of M at eigenvalue 1 by shifted inverse iteration.

    Seeded with the all-ones vector; the shift sits 1e-10 off the eigenvalue so
    the solve is well defined while still amplifying the target direction.
    """
    n = M.shape[0]
    if n == 1:
        return np.ones(1)
    A = M.T - (1.0 + 1e-10) * np.eye(n)
    lu, piv = scipy.linalg.lu_factor(A)
    w = np.ones(n)
    for _ in range(25):
        w = scipy.linalg.lu_solve((lu, piv), w)
        w = w / np.linalg.norm(w)
        if np.linalg.norm(M.T @ w - w) <= 0.01 * tol * np.linalg.norm(w):
            break
    return w


def _scaled_nonneg(w: np.ndarray, n: int, which: str) -> np.ndarray:
    total = w.sum()
    if abs(total) < 1e-14:
        raise DegenerateGraphError(f"{which}: null vector orthogonal to ones")
    v = w * (n / total)
    if (v < -1e-12).any():
        raise DegenerateGraphError(f"{which}: null vector has a negative entry")
    return np.where((v > -1e-12) & (v < 0.0), 0.0, v)


def _sum_cap(sums: np.ndarray) -> float:
    """Step cap from weight sums: the least 1 / sum over the positive sums, inf if none.

    Below it, every mixing coefficient 1 - step * sum stays positive.
    """
    pos = sums[sums > 0]
    if not pos.size:
        return np.inf
    with np.errstate(over="ignore"):  # 1 / a subnormal sum rounds to inf, the correct cap
        return float((1.0 / pos).min())


def spectral_constants(gp: GraphPair) -> SpectralConstants:
    """Caps, contraction rates, weighting vectors and projectors for one pair.

    v1 and v2 are computed at the midpoint of the admissible step ranges and
    verified to satisfy their fixed-point equations at two other step values
    (they are step-independent; the verification guards the solver).
    """
    report = check_connectivity(gp)
    if not report.ok:
        raise ConnectivityError(
            "graph pair is not jointly rooted: "
            f"state graph rooted={report.r_has_tree}, "
            f"transposed tracking graph rooted={report.ct_has_tree}"
        )
    n = gp.n
    eigs_L1 = spectrum(gp.L1)
    eigs_L2 = spectrum(gp.L2)
    tail1 = _zero_split(eigs_L1, "L1")
    tail2 = _zero_split(eigs_L2, "L2")

    def eig_cap(tail: np.ndarray) -> float:
        if not tail.size:
            return np.inf
        return float((tail.real / (1.0 + np.abs(tail) ** 2)).min())

    def contraction_rate(tail: np.ndarray) -> float:
        if not tail.size:
            return np.inf
        mods2 = np.abs(tail) ** 2
        return float(((2.0 + mods2) * tail.real / (2.0 + 2.0 * mods2)).min())

    alpha_cap = min(_sum_cap(gp.row_sums_R), eig_cap(tail1))
    beta_cap = min(_sum_cap(gp.col_sums_C), eig_cap(tail2))
    r1 = contraction_rate(tail1)
    r2 = contraction_rate(tail2)

    a_mid = 0.5 * alpha_cap if np.isfinite(alpha_cap) else 0.5
    b_mid = 0.5 * beta_cap if np.isfinite(beta_cap) else 0.5
    v1 = _scaled_nonneg(_left_unit_eigvec(np.eye(n) - a_mid * gp.L1, V_RESIDUAL_TOL), n, "v1")
    v2 = _scaled_nonneg(_left_unit_eigvec((np.eye(n) - b_mid * gp.L2).T, V_RESIDUAL_TOL), n, "v2")

    # Fixed-point residuals at the midpoint and two other admissible steps.
    for frac in (0.25, 0.5, 0.75):
        a = frac * a_mid * 2.0
        b = frac * b_mid * 2.0
        res1 = np.linalg.norm(v1 @ (np.eye(n) - a * gp.L1) - v1)
        res2 = np.linalg.norm((np.eye(n) - b * gp.L2) @ v2 - v2)
        if res1 > V_RESIDUAL_TOL or res2 > V_RESIDUAL_TOL:
            raise EigensolverError(
                f"weighting-vector residual {max(res1, res2):.3e} at step fraction {frac}"
            )

    if float(v1 @ v2) <= 0.0:
        raise ConnectivityError("weighting vectors are orthogonal; pair not jointly rooted")

    return SpectralConstants(
        n=n,
        eigs_L1=eigs_L1,
        eigs_L2=eigs_L2,
        v1=v1,
        v2=v2,
        r1=r1,
        r2=r2,
        alpha_cap=alpha_cap,
        beta_cap=beta_cap,
        W1=np.eye(n) - np.outer(np.ones(n), v1) / n,
        W2=np.eye(n) - np.outer(v2, np.ones(n)) / n,
        rhoR=float(np.abs(spectrum(gp.R)).max()),
        rhoC=float(np.abs(spectrum(gp.C)).max()),
        rhoL1=float(np.abs(eigs_L1).max()),
    )
