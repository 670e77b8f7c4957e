"""Matching counts on forests, leaf matching with its kernel basis, and the
rank lower-bound certificates.

For a forest the characteristic polynomial carries the matching counts in
its coefficients (coefficient of t^(n-2k) is (-1)^k m_k; Godsil & Gutman,
J. Graph Theory 1981).  Both matching routines walk the graph's one
spanning forest, `Graph.spanning_forest`, children first (its
parent-first order reversed), and share one domain: a graph is a forest
exactly when m = n - (number of roots), and any other graph raises
DomainError.  The counts come from folding each child into its parent's
two count vectors (`fold_child`, the one step of the DP, which
`enumeration` also folds over canonical subtrees); the caller hands
`counts_to_char_poly` of them to `exact`, so one DP per tree gives both
simplicity and rank.

The matching number nu alone comes cheaper, in linear time, from greedy
leaf matching (Karp & Sipser, FOCS 1981): the same leaf rule, run children
first over the spanning forest, on the same domain of forests.  It
already rules most trees out: the eigenvalue 0 of a forest has
multiplicity n - 2 nu (Cvetkovic, Doob & Sachs, Spectra of Graphs), so a
tree with 2 nu < n - 1 is not simple.  (The 18-vertex scan gets nu and
the counts of the trees that pass from the enumerator's cached subtree
states instead.)  The same greedy, `leaf_matching`, also yields an
integer basis of the kernel of A: each matched leaf and its partner are
one step of back-substitution (`kernel_basis`), and `exact.walk_rank`
ranks the average mixing matrix from that basis.

The rows of the coefficient matrix are the characteristic polynomials of
the vertex-deleted forests, the diagonal of adj(tI - A) (`exact`).  The
certificate machinery reads from that matrix: for every tree with all
eigenvalues distinct (other than the path on four vertices) it produces
a 3x3 integer submatrix with nonzero determinant, certifying that the
average mixing matrix has rank at least three.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import ConsistencyError, DomainError
from .graph6 import write_graph6
from .graphs import Graph
from .polynomials import poly_add, poly_mul


def _require_tree(t: Graph, what: str) -> None:
    if t.m != t.n - 1 or not t.is_connected():
        raise DomainError(f"{what} expects a tree")


def _forest(g: Graph) -> tuple[list[int], list[int]]:
    """g's spanning forest (order, parent), the order parent-first, or
    DomainError unless g is that forest, i.e. m = n - (number of roots)."""
    order, parent = g.spanning_forest()
    if g.m != g.n - parent.count(-1):
        raise DomainError("matching counts and leaf matching need an acyclic graph")
    return order, parent


def fold_child(a_p, f_p, a_c, f_c) -> tuple[list[int], list[int]]:
    """The matching DP's one step: a vertex p's count vectors (A_p, F_p)
    after the complete subtree of its child c, with (A_c, F_c), joins it by
    the edge pc.  A counts all matchings of the subtree, F those leaving its
    root free, and a lone vertex has A = F = [1]:

        A_p <- A_p*A_c + x*F_p*F_c,    F_p <- F_p*A_c

    where x shifts by one edge (p matched to c).  The inputs are not
    modified.
    """
    return poly_add(poly_mul(a_p, a_c), [0] + poly_mul(f_p, f_c)), poly_mul(f_p, a_c)


def forest_matching_counts(g: Graph) -> list[int]:
    """Counts (m_0, m_1, ..., m_M) of k-edge matchings of a forest.

    Trailing zero counts are stripped, so the last entry belongs to a
    maximum matching.  DomainError unless g is a forest.  Children first,
    over the spanning forest's parent-first order reversed, each vertex's
    subtree is complete when it is reached, and is folded into its parent
    by `fold_child`.  The forest's counts are the product of the roots' A.
    """
    order, parent = _forest(g)
    a = [[1]] * g.n
    f = [[1]] * g.n
    total = [1]
    for c in reversed(order):
        p = parent[c]
        if p < 0:
            total = poly_mul(total, a[c])
        else:
            a[p], f[p] = fold_child(a[p], f[p], a[c], f[c])
    return total


def counts_to_char_poly(n: int, counts: list[int]) -> list[int]:
    """Assemble sum_k (-1)^k m_k t^(n-2k) from a count vector."""
    out = [0] * (n + 1)
    for k, mk in enumerate(counts):
        out[n - 2 * k] = -mk if k % 2 else mk
    while out and not out[-1]:
        out.pop()
    return out


def nonzero_eigenvalues_simple(counts: list[int]) -> bool:
    """Whether every nonzero eigenvalue of a forest with these matching
    counts is simple: with m the maximum matching size, the characteristic
    polynomial is t^(n-2m) H(t^2) for the degree-m monic
    H(y) = sum_k (-1)^k m_k y^(m-k), whose roots are the squares of the
    nonzero eigenvalues, all positive, so this holds iff H is squarefree."""
    from .polynomials import is_squarefree

    m = len(counts) - 1
    h = [0] * (m + 1)
    for k, mk in enumerate(counts):
        h[m - k] = -mk if k % 2 else mk
    return is_squarefree(h)


def simple_from_matching_counts(n: int, counts: list[int]) -> bool:
    """Eigenvalue simplicity of a forest, decided from its matching counts.

    All n eigenvalues are distinct iff the eigenvalue 0, of multiplicity
    n - 2m for m the maximum matching size, is at most simple and H is
    squarefree (`nonzero_eigenvalues_simple`); H is tested only when
    n - 2m <= 1.
    """
    return n - 2 * (len(counts) - 1) <= 1 and nonzero_eigenvalues_simple(counts)


def leaf_matching(g: Graph) -> tuple[int, list[tuple[int, int]], tuple[list[int], list[int]]]:
    """(nu, pairs, forest): a maximum matching of a forest by greedy leaf
    matching, its size nu, its edges as (leaf v, partner p) in the order
    matched, and the spanning forest (order, parent) the greedy walked,
    its order parent-first.

    A leaf lies on an edge of some maximum matching together with its one
    neighbour, so matching each leaf to its neighbour and deleting both
    until no edge is left yields a maximum matching (Karp & Sipser, FOCS
    1981).  Run children first over the spanning forest (its parent-first
    order reversed, so every vertex comes after all its descendants), the
    same rule reads: a vertex still free when its subtree is done has lost
    every child to an earlier pair, so it is a leaf (or isolated) in what
    is left, and it is matched to its parent if the parent is free.  The
    vertices left free are pairwise non-adjacent: of two adjacent ones, the
    child would have been matched to the parent.  DomainError unless g is a
    forest.  Linear time.
    """
    order, parent = forest = _forest(g)
    free = [True] * g.n
    pairs = []
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and free[v] and free[p]:
            free[v] = free[p] = False
            pairs.append((v, p))
    return len(pairs), pairs, forest


def matching_number(g: Graph) -> int:
    """Size nu of a maximum matching of a forest, from `leaf_matching`.

    For a forest, n - 2 nu is the multiplicity of the eigenvalue 0
    (Cvetkovic, Doob & Sachs, Spectra of Graphs), so a forest with
    2 nu < n - 1 has a repeated eigenvalue.
    """
    return leaf_matching(g)[0]


def _in_kernel(nbr: list[list[int]], x: list[list[int]]) -> bool:
    """A X = 0 for the n x k matrix X with rows x: at every vertex the rows
    of its neighbours sum to zero.  O(nk)."""
    for ws in nbr:
        total = x[ws[0]] if ws else []
        for w in ws[1:]:
            total = list(map(add, total, x[w]))
        if any(total):
            return False
    return True


def kernel_basis(g: Graph, counts: list[int]) -> tuple[list[list[int]], tuple[list[int], list[int]]]:
    """(X, forest): the n x k integer matrix X, as rows, whose columns are a
    basis x_1..x_k of the kernel of A for a forest g with matching counts
    `counts`, and the spanning forest `leaf_matching` walked.

    The kernel of a forest has dimension k = n - 2 nu (Cvetkovic, Doob &
    Sachs).  Let (v, p) be a leaf v of a forest F and its neighbour.  Then
    A(F) x = 0 reads x_p = 0 at v, x_v = -sum of x_w over p's other
    neighbours w at p, and at every other vertex the equations of
    A(F - v - p) on the rest of x, as v touches only p and x_p = 0.  So
    x -> x restricted to F - v - p is an isomorphism of the kernels.  The
    pairs of `leaf_matching` are such steps in order, with the vertices
    of later pairs and the free ones still present at each step, and they
    leave the free vertices without edges, whose kernel has the unit
    vectors as basis.  Back-substituting through the pairs in reverse
    order, x_p = 0 and x_v = -(sum over p's neighbours still present),
    extends each unit vector to x_j, which is 1 at the j-th free vertex
    and 0 at the others, so the k vectors are independent.  Any
    children-first walk gives such pairs.  Which leaves it matches, and so which
    basis comes out, depends on the walk's order, but the span is ker A
    either way: on `star(m)` the edge route matches the last leaf, a
    depth-first preorder the first.

    The greedy's nu must equal the DP's len(counts) - 1, and every x_j
    must satisfy A x_j = 0; either failure raises ConsistencyError with
    g's graph6.
    """
    nu, pairs, forest = leaf_matching(g)
    if nu != len(counts) - 1:
        raise ConsistencyError(
            f"leaf matching finds a matching of size {nu}, the matching DP one of size "
            f"{len(counts) - 1}",
            [write_graph6(g)],
        )
    n = g.n
    step = [nu] * n  # the pair that removes each vertex; free vertices stay to the end
    for i, (v, p) in enumerate(pairs):
        step[v] = step[p] = i
    free = [u for u in range(n) if step[u] == nu]
    k = len(free)
    x: list[list[int]] = [[]] * n
    for j, u in enumerate(free):
        x[u] = [0] * k
        x[u][j] = 1
    nbr = g.neighbors()
    zero = [0] * k
    for i in range(nu - 1, -1, -1):
        v, p = pairs[i]
        x[p] = zero
        total = zero
        for w in nbr[p]:
            if step[w] > i:  # present at step i; v itself has step i
                total = list(map(add, total, x[w]))
        x[v] = [-c for c in total]
    if not _in_kernel(nbr, x):
        raise ConsistencyError("leaf-matching kernel vector with A x != 0", [write_graph6(g)])
    return x, forest


def forest_has_perfect_matching(g: Graph) -> bool:
    """Whether a forest has a perfect matching, 2 nu = n; DomainError
    unless g is a forest."""
    return 2 * matching_number(g) == g.n


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
