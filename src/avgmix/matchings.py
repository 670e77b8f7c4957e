"""Matching counts on forests and the rank lower-bound certificates.

For a forest the characteristic polynomial carries the matching counts in
its coefficients (coefficient of t^(n-2k) is (-1)^k m_k).  The counts come
from one rooted pass per component that folds each child into two count
vectors, and the same traversal rejects a graph with a cycle.  Its caller
hands `counts_to_char_poly` of the counts to `exact`, so one DP per tree
gives both simplicity and rank.

The matching number nu alone comes cheaper, in linear time, from greedy
leaf matching (Karp & Sipser, FOCS 1981), and it already rules most trees
out: the eigenvalue 0 of a forest has multiplicity n - 2 nu (Cvetkovic,
Doob & Sachs, Spectra of Graphs), so a tree with 2 nu < n - 1 is not
simple.  The 18-vertex scan runs the DP only on the trees that pass.

The rows of the coefficient matrix are the characteristic polynomials of
the vertex-deleted forests, the diagonal of adj(tI - A) (`exact`).  The
certificate machinery reads from that matrix: for every tree with all
eigenvalues distinct (other than the path on four vertices) it produces
a 3x3 integer submatrix with nonzero determinant, certifying that the
average mixing matrix has rank at least three.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .graphs import Graph
from .polynomials import poly_add, poly_mul


def _require_tree(t: Graph, what: str) -> None:
    if t.m != t.n - 1 or not t.is_connected():
        raise DomainError(f"{what} expects a tree")


def forest_matching_counts(g: Graph) -> list[int]:
    """Counts (m_0, m_1, ..., m_M) of k-edge matchings of a forest.

    Trailing zero counts are stripped, so the last entry belongs to a
    maximum matching.  One depth-first traversal roots each component; a
    visited neighbour other than the parent closes a cycle and raises
    DomainError.  Children first, each vertex folds its children c into
    two count vectors, A (all matchings of its subtree) and F (those
    leaving the vertex free), from A = F = [1]:

        A <- A*A_c + x*F*F_c,    F <- F*A_c

    where x shifts by one edge (the vertex matched to c).  The forest's
    counts are the product of the roots' A.
    """
    nbr = g.neighbors()
    parent = [-2] * g.n  # -2: not reached yet, -1: a root
    total = [1]
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in nbr[v]:
                if parent[w] == -2:
                    parent[w] = v
                    stack.append(w)
                elif w != parent[v]:
                    raise DomainError("matching counts by this recurrence need an acyclic graph")
        table: dict[int, tuple[list[int], list[int]]] = {}
        for v in reversed(order):
            a, f = [1], [1]
            for c in nbr[v]:
                if c != parent[v]:
                    ac, fc = table.pop(c)
                    a, f = poly_add(poly_mul(a, ac), [0] + poly_mul(f, fc)), poly_mul(f, ac)
            table[v] = (a, f)
        total = poly_mul(total, table.pop(root)[0])
    return total


def counts_to_char_poly(n: int, counts: list[int]) -> list[int]:
    """Assemble sum_k (-1)^k m_k t^(n-2k) from a count vector."""
    out = [0] * (n + 1)
    for k, mk in enumerate(counts):
        out[n - 2 * k] = -mk if k % 2 else mk
    while out and not out[-1]:
        out.pop()
    return out


def simple_from_matching_counts(n: int, counts: list[int]) -> bool:
    """Eigenvalue simplicity of a forest, decided from its matching counts.

    With m the maximum matching size, the characteristic polynomial is
    t^(n-2m) H(t^2) for the degree-m monic H(y) = sum_k (-1)^k m_k y^(m-k),
    whose roots are the squares of the nonzero eigenvalues.  All n
    eigenvalues are distinct iff n - 2m <= 1 and H is squarefree.
    """
    from .polynomials import is_squarefree

    m = len(counts) - 1
    if n - 2 * m >= 2:
        return False
    h = [0] * (m + 1)
    for k, mk in enumerate(counts):
        h[m - k] = -mk if k % 2 else mk
    return is_squarefree(h)


def matching_number(g: Graph) -> int:
    """Size nu of a maximum matching, by greedy leaf matching.

    A leaf lies on an edge of some maximum matching together with its one
    neighbour, in any graph, so matching each leaf to its neighbour,
    deleting both and dropping isolated vertices until no vertex is left
    yields a maximum matching (Karp & Sipser, FOCS 1981).  That answer is
    exact on every forest, and on any graph the greedy gets through; when
    the vertices left include no leaf they all have degree >= 2, which
    closes a cycle: DomainError.  Linear time.

    For a forest, n - 2 nu is the multiplicity of the eigenvalue 0
    (Cvetkovic, Doob & Sachs, Spectra of Graphs), so a forest with
    2 nu < n - 1 has a repeated eigenvalue.
    """
    nbr: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    deg = [len(ns) for ns in nbr]  # neighbours left; -1 once removed
    stack = [v for v in range(g.n) if deg[v] <= 1]
    left = g.n
    matched = 0
    while stack:
        u = stack.pop()
        if deg[u] < 0:
            continue
        isolated = not deg[u]
        deg[u] = -1
        left -= 1
        if isolated:
            continue
        for v in nbr[u]:  # the one neighbour u has left
            if deg[v] >= 0:
                break
        deg[v] = -1
        left -= 1
        matched += 1
        for w in nbr[v]:
            if deg[w] > 0:
                deg[w] -= 1
                if deg[w] <= 1:
                    stack.append(w)
    if left:
        raise DomainError("greedy leaf matching needs an acyclic graph")
    return matched


def forest_has_perfect_matching(g: Graph) -> bool:
    """Whether a forest has a perfect matching; DomainError on a cycle the
    greedy of `matching_number` cannot get past."""
    return g.n % 2 == 0 and 2 * matching_number(g) == g.n


def near_perfect_vertex(t: Graph) -> int | None:
    """Least vertex v such that T minus v has a perfect matching, if any."""
    _require_tree(t, "near_perfect_vertex")
    if t.n % 2 == 0:
        return None
    for v in range(t.n):
        if forest_has_perfect_matching(t.delete_vertex(v)):
            return v
    return None


def leaf_next_to_degree_two(t: Graph) -> tuple[int, int]:
    """Lexicographically least pair (leaf u, neighbor v) with deg(v) = 2.

    Every tree with all eigenvalues distinct on >= 3 vertices has one; a
    miss on such a tree is reported as a consistency failure, a miss on a
    tree with repeated eigenvalues is a precondition violation.
    """
    _require_tree(t, "leaf_next_to_degree_two")
    if t.n < 3:
        raise DomainError("need at least three vertices")
    deg = t.degrees()
    nbr = t.neighbors()
    for u in range(t.n):
        if deg[u] == 1 and deg[nbr[u][0]] == 2:
            return (u, nbr[u][0])
    from .exact import is_simple
    from .graph6 import write_graph6

    if is_simple(t):
        raise ConsistencyError(
            "tree with simple eigenvalues has no leaf next to a degree-two vertex",
            [write_graph6(t)],
        )
    raise DomainError("tree has repeated eigenvalues and no leaf next to a degree-two vertex")


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A 3x3 integer submatrix of the coefficient matrix with nonzero determinant."""

    case: str  # "C1" | "C2" | "C3"
    vertices: tuple[int, int, int]
    columns: tuple[int, int, int]  # t-exponents selecting the three columns
    submatrix: tuple[tuple[int, int, int], ...]
    det: int
    closed_form_det: int
    graph6: str

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "vertices": list(self.vertices),
            "submatrix": [list(row) for row in self.submatrix],
            "det": self.det,
            "closed_form_det": self.closed_form_det,
            "graph6": self.graph6,
        }


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def lower_bound_certificate(t: Graph) -> LowerBoundCertificate:
    """Certify rank(average mixing matrix) >= 3 for a simple-spectrum tree.

    Follows the three-way case split on perfect matchings.  With u a leaf
    whose neighbor v has degree two and w the other neighbor of v of degree
    ell:

      C1: T has a perfect matching (n even, n >= 6); rows u, v, w, columns
          t^1, t^(n-3), t^(n-1); determinant (-1)^(k-1) (1 + q(1 - ell))
          with k = n/2 and q the (k-2)-matching count of T minus {u, v, w}.
      C2: T minus u has a perfect matching (n odd); rows u, v, w, columns
          t^0, t^(n-3), t^(n-1); determinant (-1)^j (1 - ell), j = (n-1)/2.
      C3: otherwise; rows u, v, z with z the least vertex whose deletion
          leaves a perfect matching; same columns; determinant (-1)^(j+1).

    Simplicity, the C1 test and the submatrix of `exact.coefficient_matrix`
    come from one matching DP; the determinant must equal the closed form
    and be nonzero; the path on four vertices is the unique exception,
    rejected.
    """
    from .exact import coefficient_matrix
    from .graph6 import write_graph6

    _require_tree(t, "lower_bound_certificate")
    n = t.n
    if n < 4:
        raise DomainError("lower bound certificates start at four vertices")
    if n == 4 and sorted(t.degrees()) == [1, 1, 2, 2]:
        raise DomainError("the path on four vertices has rank 2; no certificate exists")
    counts = forest_matching_counts(t)
    if not simple_from_matching_counts(n, counts):
        raise DomainError("certificate requires a tree with all eigenvalues distinct")
    g6 = write_graph6(t)
    u, v = leaf_next_to_degree_two(t)
    w = next(x for x in t.neighbors()[v] if x != u)
    ell = t.degrees()[w]

    if 2 * (len(counts) - 1) == n:  # a maximum matching covers every vertex
        if n < 6:
            raise ConsistencyError("perfect matching case outside n even >= 6", [g6])
        k = n // 2
        keep = [x for x in range(n) if x not in (u, v, w)]
        q_counts = forest_matching_counts(t.induced(keep))
        q = q_counts[k - 2] if k - 2 < len(q_counts) else 0
        case, rows, cols = "C1", (u, v, w), (1, n - 3, n - 1)
        closed = (1 + q * (1 - ell)) * (-1 if (k - 1) % 2 else 1)
    elif forest_has_perfect_matching(t.delete_vertex(u)):
        # det works out to (-1)^j (1 - ell): nonzero since deg(w) >= 2
        j = (n - 1) // 2
        case, rows, cols = "C2", (u, v, w), (0, n - 3, n - 1)
        closed = (1 - ell) * (-1 if j % 2 else 1)
    else:
        z = near_perfect_vertex(t)
        if z is None:
            raise ConsistencyError(
                "simple tree with no perfect matching and no near-perfect vertex", [g6],
            )
        j = (n - 1) // 2
        case, rows, cols = "C3", (u, v, z), (0, n - 3, n - 1)
        closed = -1 if j % 2 == 0 else 1

    coeffs = coefficient_matrix(t, counts_to_char_poly(n, counts))
    sub = tuple(tuple(coeffs[i][c] for c in cols) for i in rows)
    det = _det3(sub)
    if det == 0 or det != closed:
        raise ConsistencyError(
            f"certificate determinant {det} disagrees with closed form {closed} ({case})",
            [g6],
        )
    return LowerBoundCertificate(case, rows, cols, sub, det, closed, g6)
