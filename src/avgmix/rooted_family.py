"""Pendant rooted products and the low-rank tree family built from them.

Attaching a pendant vertex to every vertex of a graph X with all
eigenvalues distinct doubles the vertex count, keeps the spectrum simple
(each eigenvalue lambda splits into the two roots of t^2 - lambda t - 1),
and transforms the average mixing matrix by an explicit block formula

    [[M - N, N], [N, M - N]],   N = sum_i 2/(lambda_i^2 + 4) F_i o F_i,

which this module evaluates exactly and cross-checks against the direct
computation.  Iterating the construction from a distinguished 18-vertex
starting tree produces trees whose average-mixing rank falls further and
further below the ceil(n/2) ceiling.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .census import classify_tree, map_chunks
from .errors import ConsistencyError, DomainError
from .enumeration import enumerate_trees
from .exact import (
    RatMatrix,
    average_mixing_exact,
    coefficient_matrix,
    exact_rank,
    weighted_projector_schur_sum,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, Tree, rooted_product_k2
from .matchings import (
    counts_to_char_poly,
    forest_matching_counts,
    matching_number,
    simple_from_matching_counts,
)
# is_squarefree is not called here; perfbench/layers.py wraps avgmix.rooted_family:is_squarefree
from .polynomials import IntPoly, char_poly, is_squarefree, poly_add, poly_mul, poly_scale, poly_shift

# Factors of the characteristic polynomial of the distinguished 18-vertex
# tree, ascending coefficients; their expanded product is the acceptance
# fingerprint for the search below.
TSTAR_CHARPOLY_FACTORS: list[IntPoly] = [
    [-1, 1],                    # x - 1
    [1, 1],                     # x + 1
    [-1, -1, 1],                # x^2 - x - 1
    [-1, 1, 1],                 # x^2 + x - 1
    [1, -2, -1, 1],             # x^3 - x^2 - 2x + 1
    [-1, -2, 1, 1],             # x^3 + x^2 - 2x - 1
    [-1, 0, 12, 0, -8, 0, 1],   # x^6 - 8x^4 + 12x^2 - 1
]


def tstar_charpoly() -> IntPoly:
    out: IntPoly = [1]
    for f in TSTAR_CHARPOLY_FACTORS:
        out = poly_mul(out, f)
    return out


def k2_spectrum_map(eigenvalues) -> list[float]:
    """Eigenvalues of X with pendants attached: both roots of t^2 - lambda t - 1.

    The two roots of each pair multiply to -1; for a simple input spectrum
    all 2n outputs are distinct.
    """
    out = []
    for lam in eigenvalues:
        lam = float(lam)
        disc = math.sqrt(lam * lam + 4.0)
        out.append((lam + disc) / 2.0)
        out.append((lam - disc) / 2.0)
    return sorted(out)


def k2_eigenbasis(eigenvalues, vectors) -> tuple[list[float], np.ndarray]:
    """Orthonormal eigenbasis of X-with-pendants from an eigenbasis of X.

    Input columns must be orthonormal (Gram deviation above 1e-8 is
    rejected).  Each eigenvector z of X with eigenvalue lambda lifts to
    (mu z, z)/sqrt(mu^2 + 1) for both roots mu of t^2 - lambda t - 1.
    Output is sorted by eigenvalue.
    """
    v = np.asarray(vectors, dtype=float)
    n = v.shape[0]
    if v.shape != (n, n):
        raise DomainError("expected a square eigenvector matrix")
    if np.max(np.abs(v.T @ v - np.eye(n))) > 1e-8:
        raise DomainError("input basis is not orthonormal")
    evs = []
    cols = []
    for i, lam in enumerate(eigenvalues):
        lam = float(lam)
        disc = math.sqrt(lam * lam + 4.0)
        for mu in ((lam + disc) / 2.0, (lam - disc) / 2.0):
            scale = 1.0 / math.sqrt(mu * mu + 1.0)
            cols.append(np.concatenate([mu * v[:, i], v[:, i]]) * scale)
            evs.append(mu)
    order = np.argsort(evs, kind="stable")
    return [evs[i] for i in order], np.column_stack([cols[i] for i in order])


def rooted_product_char_poly(phi: IntPoly, n: int) -> IntPoly:
    """Characteristic polynomial after attaching pendants, via substitution.

    Expands t^n phi(t - 1/t) = sum_k phi_k (t^2 - 1)^k t^(n - k) exactly.
    """
    out: IntPoly = []
    tsq_minus_1_pow: IntPoly = [1]
    for k, c in enumerate(phi):
        if c:
            term = poly_shift(poly_scale(tsq_minus_1_pow, c), n - k)
            out = poly_add(out, term)
        tsq_minus_1_pow = poly_mul(tsq_minus_1_pow, [-1, 0, 1])
    return out


def amm_rooted_product_exact(x: Graph) -> RatMatrix:
    """Average mixing matrix of X-with-pendants via the block formula.

    Requires X to have all eigenvalues distinct; equals the direct exact
    computation on rooted_product_k2(x) entry for entry.
    """
    amm = average_mixing_exact(x)
    if not amm.simple:
        raise DomainError("block formula requires distinct eigenvalues")
    mh = amm.matrix
    nmat = weighted_projector_schur_sum(x, [2], [4, 0, 1])
    n = x.n
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for u in range(n):
        for v in range(u, n):
            diag = mh[u][v] - nmat[u][v]
            off = nmat[u][v]
            out[u][v] = out[v][u] = out[n + u][n + v] = out[n + v][n + u] = diag
            out[u][n + v] = out[v][n + u] = out[n + u][v] = out[n + v][u] = off
    return out


# ---------------------------------------------------------------------------
# the distinguished tree and its family

_SEARCH_ORDER = 18
_SEARCH_RANK_CEILING = 9


def _scan_chunk(rank_below: int, trees) -> tuple[int, list[tuple[int, Tree]]]:
    """(trees scanned, [(rank, tree)] of the chunk's hits in order)."""
    scanned = 0
    hits = []
    for t in trees:
        scanned += 1
        if 2 * matching_number(t) < t.n - 1:
            continue
        counts = forest_matching_counts(t)
        if not simple_from_matching_counts(t.n, counts):
            continue
        rank = exact_rank(coefficient_matrix(t, counts_to_char_poly(t.n, counts)))
        if rank < rank_below:
            hits.append((rank, t))
    return scanned, hits


def search_low_rank_simple_trees(
    n: int,
    rank_below: int,
    threads: int = 1,
    chunk_size: int = 2048,
    progress=None,
) -> list[tuple[int, Tree]]:
    """All simple-spectrum trees on n vertices with coefficient rank below a bound.

    Returns (rank, tree) pairs in enumeration order.  Greedy leaf matching
    prefilters: a tree whose matching number nu has 2 nu < n - 1 has the
    eigenvalue 0 at least twice and is skipped.  Simplicity of the others
    is then decided by the matching-count squarefree test and the rank by
    fraction-free elimination of the integer coefficient matrix, so the
    scan is exact.  `progress(trees_scanned)` fires after every chunk.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    scan = functools.partial(_scan_chunk, rank_below)
    hits: list[tuple[int, Tree]] = []
    scanned = 0
    for count, part in map_chunks(scan, enumerate_trees(n), chunk_size, threads):
        hits.extend(part)
        scanned += count
        if progress:
            progress(scanned)
    return hits


def load_t_star(path: str) -> Tree:
    """Read the cached tree and re-verify its characteristic polynomial."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
    g = parse_graph6(line)
    t = Tree(g.n, g.edges)
    if t.n != _SEARCH_ORDER or char_poly(t) != tstar_charpoly():
        raise ConsistencyError("cached tree fails the characteristic polynomial check", [line])
    return t


def confirm_unique_low_rank_tree(hits: list[tuple[int, Tree]]) -> Tree:
    """Validate the search outcome: exactly one hit, rank 8, right char poly."""
    if len(hits) != 1 or hits[0][0] != 8:
        raise ConsistencyError(
            f"expected exactly one simple tree of rank 8 on {_SEARCH_ORDER} vertices, "
            f"found {[(r, write_graph6(t)) for r, t in hits]}",
            [write_graph6(t) for _, t in hits],
        )
    t = hits[0][1]
    if char_poly(t) != tstar_charpoly():
        raise ConsistencyError(
            "discovered tree fails the characteristic polynomial check", [write_graph6(t)],
        )
    return t


def find_t_star(cache_path: str | None = None, threads: int = 1, progress=None) -> Tree:
    """The unique 18-vertex tree with simple eigenvalues and average-mixing rank 8.

    Runs the exhaustive scan (long: ~124k trees) unless a verified cache
    file is present; on success the tree's characteristic polynomial must
    equal the expanded factor product, and the discovered graph6 line is
    written to the cache.
    """
    if cache_path and os.path.exists(cache_path):
        return load_t_star(cache_path)
    hits = search_low_rank_simple_trees(
        _SEARCH_ORDER, _SEARCH_RANK_CEILING, threads=threads, progress=progress,
    )
    t = confirm_unique_low_rank_tree(hits)
    if cache_path:
        with open(cache_path, "w", encoding="ascii") as fh:
            fh.write(write_graph6(t) + "\n")
    return t


@dataclass
class FamilyMember:
    index: int
    graph: Tree
    rank: int

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def rank_bound(self) -> int:
        return 2 ** (self.index + 3)

    @property
    def gap(self) -> int:
        return (self.n + 1) // 2 - self.rank

    @property
    def gap_bound(self) -> int:
        return 2**self.index


def build_family(
    k: int,
    vertex_cap: int = 144,
    cache_path: str | None = None,
    threads: int = 1,
    base: Tree | None = None,
) -> list[FamilyMember]:
    """Members 0..k of the iterated pendant family rooted at the 18-vertex tree.

    Each member is ranked by `census.classify_tree`, the coefficient-matrix
    rank of a simple tree; a member that is not simple raises
    ConsistencyError.  Refuses members beyond the vertex cap.
    """
    if k < 0:
        raise ValueError(f"family index must be non-negative, got {k}")
    order = (18 if base is None else base.n) * 2**k
    if order > vertex_cap:
        raise ValueError(f"family member {k} needs {order} vertices, above the cap {vertex_cap}")
    g = base if base is not None else find_t_star(cache_path, threads=threads)
    members = []
    for i in range(k + 1):
        rank, simple = classify_tree(g, "coeff-fast")
        if not simple:
            raise ConsistencyError(
                f"family member {i} lost eigenvalue simplicity", [write_graph6(g)],
            )
        members.append(FamilyMember(i, g, rank))
        if i < k:
            g = rooted_product_k2(g)
    return members


def family_report_csv(members: list[FamilyMember]) -> str:
    lines = ["i,n,rank,rank_bound,gap,gap_bound"]
    for m in members:
        lines.append(f"{m.index},{m.n},{m.rank},{m.rank_bound},{m.gap},{m.gap_bound}")
    return "\n".join(lines) + "\n"
