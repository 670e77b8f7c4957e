"""Pendant rooted products and the low-rank tree family built from them.

Attaching a pendant vertex to every vertex of a graph X maps each
eigenvalue theta to the two roots of t^2 - theta t - 1, with the same
multiplicity (`rooted_product_char_poly` expands this exactly), and
transforms the average mixing matrix by an explicit block formula

    [[M - N, N], [N, M - N]],   N = sum_theta 2/(theta^2 + 4) E_theta o E_theta,

over the distinct eigenvalues theta of X, whatever their multiplicities.
This module evaluates it exactly and cross-checks it against the direct
computation.  Iterating the construction from a distinguished 18-vertex
starting tree t*, held as the checked constant `TSTAR_GRAPH6`, produces
trees whose average-mixing rank falls further and further below the
ceil(n/2) ceiling.  `find_t_star` is the exhaustive search that finds t*
as the only simple tree on 18 vertices below that ceiling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .census import classify_tree, map_chunks
from .errors import ConsistencyError
# The scan draws (key, nu) items under the name enumerate_trees, one per tree in
# enumeration order; perfbench/layers.py and perfbench/workloads.py look it up here.
from .enumeration import enumerate_tree_keys as enumerate_trees
from .enumeration import matching_counts_from_key, tree_from_key
# coefficient_matrix and exact_rank are not called here; perfbench/layers.py wraps
# avgmix.rooted_family:coefficient_matrix and :exact_rank
from .exact import (
    RatMatrix,
    _certified_walk_ranks,
    average_mixing_exact,
    coefficient_matrix,
    exact_rank,
    walk_rank,
    weighted_projector_schur_sum,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, Tree, rooted_product_k2
# forest_matching_counts is not called here; perfbench/layers.py wraps
# avgmix.rooted_family:forest_matching_counts
from .matchings import forest_matching_counts, matching_number, simple_from_matching_counts
# is_squarefree is not called here; perfbench/layers.py wraps avgmix.rooted_family:is_squarefree
from .polynomials import IntPoly, char_poly, is_squarefree, poly_add, poly_mul, poly_scale, poly_shift

# The distinguished 18-vertex tree t*, as found by `find_t_star`.
TSTAR_GRAPH6 = "QhD?I?@_??_@?@_???G?@??E???"

# Factors of t*'s characteristic polynomial, ascending coefficients; their
# expanded product is the fingerprint that both `tstar` and the search check.
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
    """Average mixing matrix of X-with-pendants via the block formula, for
    any graph X; equals the direct exact computation on rooted_product_k2(x)
    entry for entry.

    Proof.  The pendant product has adjacency [[A, I], [I, 0]].  Let theta
    be an eigenvalue of A with projector E_theta, of any rank, and mu a root
    of mu^2 - theta mu - 1.  For every y with A y = theta y,

        [[A, I], [I, 0]] (mu y, y) = (mu theta y + y, mu y) = mu (mu y, y).

    The two roots are real and distinct, and distinct theta give distinct
    mu, since theta = mu - 1/mu.  So over both roots of every theta these
    vectors fill 2n dimensions, the mu-eigenspace is exactly {(mu y, y)},
    and an orthonormal basis Y of theta's eigenspace gives the orthonormal
    basis (mu Y, Y)/sqrt(mu^2 + 1) of mu's.  Hence

        F_mu = [[mu^2 E_theta, mu E_theta], [mu E_theta, E_theta]] / (mu^2 + 1).

    Sum F_mu o F_mu over both roots, with a = mu^2 for one root and 1/a for
    the other (their product is -1).  The off-diagonal blocks carry
    2a/(a + 1)^2 E_theta o E_theta = 2/(theta^2 + 4) E_theta o E_theta, as
    (a + 1)^2/a = a + 1/a + 2 and a + 1/a = (sum of the roots)^2 + 2 =
    theta^2 + 2.  Both diagonal blocks carry (1 + a^2)/(a + 1)^2 =
    1 - 2/(theta^2 + 4) times E_theta o E_theta.  Summing over theta, with
    M = sum_theta E_theta o E_theta, gives [[M - N, N], [N, M - N]].
    Nowhere is rank E_theta = 1 used.
    """
    mh = average_mixing_exact(x).matrix
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


def _scan_chunk(n: int, rank_below: int, items) -> tuple[int, list[tuple[int, Tree]]]:
    """(trees scanned, [(rank, tree)] of the chunk's hits in order), from
    `enumerate_tree_keys(n)` items; only trees with 2 nu >= n - 1 have
    their counts folded, only simple ones are built, and those are ranked
    by one batched certificate, with `walk_rank` only where it fails."""
    scanned = 0
    keys = []
    counts = []
    for key, nu in items:
        scanned += 1
        if 2 * nu < n - 1:
            continue
        c = matching_counts_from_key(n, key)
        if simple_from_matching_counts(n, c):
            keys.append(key)
            counts.append(c)
    trees = [tree_from_key(n, key) for key in keys]
    hits = []
    for t, c, rank in zip(trees, counts, _certified_walk_ranks(trees, counts)):
        if rank is None:
            rank = walk_rank(t, c)
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

    Returns (rank, tree) pairs in enumeration order.  The matching number
    prefilters: a tree whose matching number nu has 2 nu < n - 1 has the
    eigenvalue 0 at least twice and is skipped.  The enumerator reads nu
    off cached subtree states (`enumeration.enumerate_tree_keys`), so a
    skipped tree is never built.  For the others the matching counts are
    one fold at the root over the same cached states; simplicity is then
    decided by the matching-count squarefree test.  A simple tree has
    k = n - 2 nu <= 1, so its [W | x o x] of `exact.walk_rank` has nu + k
    columns, one shape per order: each chunk's simple trees are built and
    ranked together by one certificate, the rank of those matrices modulo
    the prime p = 2^31 - 1 in numpy int64 (products below 2n p < 2^63 in
    the walk powers and p^2 < 2^62 in the elimination).  A full rank mod p
    is a nonzero minor mod p, so a nonzero integer, and proves rank M =
    nu + k; only a tree left uncertified is ranked by `walk_rank` itself.
    So the scan is exact.  At n = 18, 2,891 of the 123,867 trees pass the
    prefilter, and the certificate ranks all 1,728 simple ones but t*.
    `progress(trees_scanned)` fires after every chunk.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    scan = functools.partial(_scan_chunk, n, rank_below)
    hits: list[tuple[int, Tree]] = []
    scanned = 0
    for count, part in map_chunks(scan, enumerate_trees(n), chunk_size, threads):
        hits.extend(part)
        scanned += count
        if progress:
            progress(scanned)
    return hits


def tstar() -> Tree:
    """t*, parsed from `TSTAR_GRAPH6`, with its characteristic polynomial checked."""
    g = parse_graph6(TSTAR_GRAPH6)
    t = Tree(g.n, g.edges)
    if char_poly(t) != tstar_charpoly():
        raise ConsistencyError("t* fails the characteristic polynomial check", [TSTAR_GRAPH6])
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


def find_t_star(threads: int = 1, progress=None) -> Tree:
    """The unique 18-vertex tree with simple eigenvalues and average-mixing rank 8.

    Always runs the exhaustive scan over the 123,867 trees of order 18;
    the one hit must have rank 8 and the characteristic polynomial
    `tstar_charpoly()`.  The family does not call this: it starts from the
    constant `tstar()`, and the tests check that the two agree.
    """
    hits = search_low_rank_simple_trees(
        _SEARCH_ORDER, _SEARCH_RANK_CEILING, threads=threads, progress=progress,
    )
    return confirm_unique_low_rank_tree(hits)


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


def build_family(k: int, vertex_cap: int = 144, base: Tree | None = None) -> list[FamilyMember]:
    """Members 0..k of the iterated pendant family rooted at `base`, by default
    the 18-vertex tree `tstar()`; no search runs.

    Each member is ranked by `census.classify_tree`, which ranks a simple
    tree by `exact.walk_rank`; a member that is not simple raises
    ConsistencyError.  Refuses members beyond the vertex cap.

    Rank doubling.  The block formula M(X o K2) = [[M - N, N], [N, M - N]],
    N = sum_theta 2/(theta^2 + 4) E_theta o E_theta, is taken by the
    orthogonal (1/sqrt 2)[[I, I], [I, -I]] to diag(M, M - 2N), so

        rank M(X o K2) = rank M + rank sum_theta theta^2/(theta^2 + 4) E_theta o E_theta.

    Every term is PSD, and the weights theta^2/(theta^2 + 4) are positive
    unless theta = 0, so without the eigenvalue 0 the second sum has the
    kernel of M (the kernel argument of `exact.amm_rank`) and the rank
    doubles.  A forest has the eigenvalue 0 exactly n - 2 nu times, nu its
    matching number, so a member with 2 nu = n whose successor's rank is not
    twice its own raises ConsistencyError.  Every pendant product has a
    perfect matching (each vertex with its pendant), so from member 1 on
    every step doubles the rank whatever the base; from t*, which has a
    perfect matching too, every step does.
    """
    if k < 0:
        raise ValueError(f"family index must be non-negative, got {k}")
    g = base if base is not None else tstar()
    order = g.n * 2**k
    if order > vertex_cap:
        raise ValueError(f"family member {k} needs {order} vertices, above the cap {vertex_cap}")
    members = []
    for i in range(k + 1):
        rank, simple = classify_tree(g, "coeff-fast")
        if not simple:
            raise ConsistencyError(
                f"family member {i} lost eigenvalue simplicity", [write_graph6(g)],
            )
        if members:
            prev = members[-1]
            if 2 * matching_number(prev.graph) == prev.n and rank != 2 * prev.rank:
                raise ConsistencyError(
                    f"family member {i} has rank {rank}, not twice the rank {prev.rank} "
                    f"of member {i - 1}, which has no eigenvalue 0",
                    [write_graph6(g)],
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
