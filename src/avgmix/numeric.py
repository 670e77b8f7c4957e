"""Floating-point spectral pipeline: eigensolver, walk matrices, averages.

This is the cross-validation side of the package.  Precision lives in the
exact pipeline; here LAPACK's symmetric eigensolver (through numpy) feeds
spectral idempotents, the walk matrices U(t) = exp(itA) and
M(t) = U(t) o conj(U(t)), time averages, and a numeric rank, all compared
against the exact results in the test suites.  Eigenvalues closer than
1e-8 * max(1, spectral radius) form one cluster; the numeric rank counts
eigenvalues above 1e-8 times the largest.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .graphs import Graph


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if a.size and np.max(np.abs(a - a.T)) > 1e-12:
        raise DomainError("matrix is not symmetric")
    return np.linalg.eigh(a)


def spectral_decomp(x: Graph) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) per cluster of numerically equal eigenvalues, ascending."""
    w, v = eigh(np.array(x.adjacency(), dtype=float))
    cluster_tol = 1e-8 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    clusters = []
    i = 0
    n = x.n
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= cluster_tol:
            j += 1
        block = v[:, i:j]
        clusters.append((float(np.mean(w[i:j])), block @ block.T))
        i = j
    return clusters


def transition_matrix(x: Graph, t: float) -> np.ndarray:
    """U(t) = exp(itA) assembled from the spectral decomposition."""
    u = np.zeros((x.n, x.n), dtype=complex)
    for ev, proj in spectral_decomp(x):
        u += np.exp(1j * ev * t) * proj
    return u


def mixing_at_time(x: Graph, t: float) -> np.ndarray:
    """M(t): entrywise squared modulus of U(t); doubly stochastic."""
    u = transition_matrix(x, t)
    return np.abs(u) ** 2


def cesaro_average(x: Graph, T: float, samples: int) -> np.ndarray:
    """Trapezoidal approximation of the time average of M(t) over [0, T]."""
    if T <= 0:
        raise DomainError("averaging horizon must be positive")
    if samples < 1:
        raise DomainError("need at least one sample interval")
    clusters = spectral_decomp(x)
    evs = np.array([ev for ev, _ in clusters])
    projs = np.stack([proj for _, proj in clusters])
    ts = np.linspace(0.0, T, samples + 1)
    acc = np.zeros((x.n, x.n))
    batch = max(1, 4_000_000 // (x.n * x.n * len(evs)))
    for start in range(0, len(ts), batch):
        chunk = ts[start : start + batch]
        phases = np.exp(1j * np.outer(chunk, evs))
        u = np.tensordot(phases, projs, axes=(1, 0))
        m = np.abs(u) ** 2
        weights = np.ones(len(chunk))
        if start == 0:
            weights[0] = 0.5
        if start + len(chunk) == len(ts):
            weights[-1] = 0.5
        acc += np.tensordot(weights, m, axes=(0, 0))
    return acc / samples


def _projector_square_sum(n: int, clusters) -> np.ndarray:
    out = np.zeros((n, n))
    for _, proj in clusters:
        out += proj * proj
    return out


def average_mixing_float(x: Graph) -> np.ndarray:
    """Sum of the squared cluster projectors."""
    return _projector_square_sum(x.n, spectral_decomp(x))


def classify_float(x: Graph) -> tuple[int, bool, np.ndarray]:
    """(numeric rank, simple, matrix) of the float average mixing matrix.

    One decomposition serves all three: simplicity is one eigenvalue per
    cluster, and the matrix is `average_mixing_float(x)`.
    """
    clusters = spectral_decomp(x)
    m = _projector_square_sum(x.n, clusters)
    return numeric_rank(m), len(clusters) == x.n, m


def numeric_rank(m) -> int:
    """Count of eigenvalues of a PSD symmetric matrix above 1e-8 times the largest."""
    w, _ = eigh(np.array(m, dtype=float))
    top = float(w[-1]) if len(w) else 0.0
    if top <= 0.0:
        return 0
    return int(np.sum(w > 1e-8 * top))


def verify_cvdv_identity(t: Graph) -> float:
    """Residual of the coefficient-matrix factorization of the average mixing matrix.

    For a graph with distinct eigenvalues theta_r, the integer coefficient
    matrix C, the Vandermonde V of the eigenvalues, and the diagonal of
    derivative values phi'(theta_r) satisfy  M = C V D^-2 V^T C^T; returns
    the max-norm gap against the float pipeline's M.
    """
    from .exact import coefficient_matrix
    from .polynomials import char_poly, is_squarefree, poly_derivative, poly_eval

    phi = char_poly(t)
    if not is_squarefree(phi):
        raise DomainError("factorization requires distinct eigenvalues")
    n = t.n
    w, _ = eigh(np.array(t.adjacency(), dtype=float))
    c = np.array(coefficient_matrix(t, phi), dtype=float)
    vand = np.vander(w, n, increasing=True).T  # V[i, j] = theta_j ** i
    dphi = poly_derivative(phi)
    delta = np.array([poly_eval(dphi, float(ev)) for ev in w])
    lhs = c @ vand @ np.diag(delta**-2.0) @ vand.T @ c.T
    return float(np.max(np.abs(lhs - average_mixing_float(t))))


def float_matrix_csv(m) -> str:
    """CSV with 17 significant digits per entry."""
    rows = []
    for row in np.asarray(m, dtype=float):
        rows.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(rows) + "\n"
