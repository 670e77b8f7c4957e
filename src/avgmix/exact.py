"""Exact rational computation of average mixing matrices and their ranks.

Everything here stays in exact arithmetic.  With psi (degree d) the
squarefree part of the characteristic polynomial of A, a weighted sum
sum_theta w(theta) E_theta o E_theta, E_theta = q_theta(A)/psi'(theta) and
q_theta(x) = psi(x)/(x - theta), has entry (u, v) a Hankel form in the
coefficients of q_theta(A)_uv.  One assembly builds it over the roots of a
monic factor f of psi, from 2 deg f - 1 moments sum_theta theta^m
r(theta), each the weight residue r convolved with the integer Newton
power sums of f, never touching a root numerically.  The matrix takes
f = psi and r = D w/(psi'^2) mod psi over one common integer denominator
D, from an integer extended Euclid.  The rank needs no weights: the
simple eigenvalues contribute only the diagonals of the adjugate's
coefficients, reduced modulo the polynomial of the simple roots, and the
repeated ones the assembly with r = 1 over f, the polynomial of the
repeated roots (`amm_rank`).  Both rank on integers.  A forest whose only
repeated eigenvalue, if any, is 0 needs no polynomial at all:
`walk_rank` ranks its closed-walk counts beside the Schur squares of an
integer kernel basis, and a full rank of those modulo a prime, taken for
a whole batch of simple trees of one order in numpy, certifies it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

import numpy as np

from .errors import DomainError
from .graphs import Graph
from .matchings import kernel_basis
from .polynomials import (
    IntPoly,
    _adjugate,
    char_poly,
    degree,
    forest_char_poly,
    is_squarefree,
    poly_derivative,
    poly_gcd_int,
    poly_inverse_mod_int,
    poly_mod_monic_int,
    poly_mul,
    poly_pseudo_divmod,
    power_sums,
    squarefree_part,
)

RatMatrix = list[list[Fraction]]


def _phi(x: Graph) -> IntPoly:
    """Characteristic polynomial from the matching-count DP on a forest, or
    from Faddeev-LeVerrier when the DP's forest test, m = n - (number of
    spanning-forest roots), finds a cycle (DomainError)."""
    try:
        return forest_char_poly(x)
    except DomainError:
        return char_poly(x)


def is_simple(x: Graph) -> bool:
    """True when all adjacency eigenvalues are distinct (squarefree char poly)."""
    return is_squarefree(_phi(x))


@dataclass
class AmmResult:
    matrix: RatMatrix
    rank: int
    simple: bool


def average_mixing_exact(x: Graph) -> AmmResult:
    """Exact rational average mixing matrix, its rank, and the simple flag."""
    phi = _phi(x)
    psi = squarefree_part(phi)
    scaled, denom = _scaled_schur_sum(x, psi, [1], [1])
    return AmmResult(_over(scaled, denom), exact_rank(scaled), degree(psi) == degree(phi))


def amm_rank(x: Graph, phi: IntPoly | None = None) -> int:
    """Rank of the average mixing matrix M of any graph, in integers only;
    `phi`, x's characteristic polynomial, is computed when not given.

    Statement.  Let psi = squarefree_part(phi), of degree d; f = gcd(psi,
    phi/psi), whose roots are the repeated eigenvalues; and psi_s = psi/f,
    whose roots are the simple ones.  Both divide the monic phi, so both are
    monic integer polynomials (Gauss's lemma).  One Horner run,
    `_adjugate(x, psi)`, gives B_0..B_(d-1) with q_theta(A) = sum_m theta^m
    B_m = psi'(theta) E_theta.  Then

        rank M = rank [D | S],

    where row u of D is (sum_m (B_m)_uu t^m) mod psi_s and S = sum over the
    roots theta of f of q_theta(A) o q_theta(A).

    Proof.
    1. M = sum_theta E_theta o E_theta is a sum of PSD matrices (Schur
       product theorem), so its column space is the sum of theirs, and
       positive weights on the terms do not change it.
    2. A simple theta has E_theta = x x^T (Godsil, Algebraic Combinatorics,
       ch. 4), so the column space of E_theta o E_theta is span{x o x} =
       span{diag q_theta(A)}.  As psi_s(theta) = 0, diag q_theta(A) =
       D (1, theta, theta^2, ...)^T; over the roots of psi_s these vectors
       span the column space of D V, V their invertible Vandermonde matrix,
       which is that of D.
    3. S = sum psi'(theta)^2 E_theta o E_theta over the repeated theta, with
       psi'(theta) != 0 as psi is squarefree.  Its entry (u, v) is
       sum_theta b(theta)^2 for b = sum_m (B_m)_uv t^m mod f: the Hankel form
       of f's power sums, integers as f is monic (`_hankel_form`).
    4. A rational matrix has the same rank over R as over Q.  Only the real
       symmetry of A was used, so this holds for any graph.

    With f = 1 (all eigenvalues distinct) S is empty and D is the
    coefficient matrix: the paper's rank M = rank C.
    """
    phi = _phi(x) if phi is None else phi
    psi = squarefree_part(phi)
    f = poly_gcd_int(psi, poly_pseudo_divmod(phi, psi)[0])
    psi_s = poly_pseudo_divmod(psi, f)[0]
    powers = list(_adjugate(x, psi))[::-1]
    ds = degree(psi_s)
    rows = []
    for u in range(x.n):
        row = poly_mod_monic_int([bm[u][u] for bm in powers], psi_s)
        rows.append(row + [0] * (ds - len(row)))
    if degree(f):
        for row, s_row in zip(rows, _hankel_form(powers, f, [1])):
            row += s_row
    return exact_rank(rows)


def walk_rank(x: Graph, counts: list[int]) -> int:
    """Rank of the average mixing matrix M of a forest whose nonzero
    eigenvalues are all simple, from closed-walk counts and the kernel of
    A, in integers only; `counts` are x's matching counts
    (`matchings.forest_matching_counts`), which must satisfy
    `matchings.nonzero_eigenvalues_simple`.

    Statement.  phi = t^k H(t^2) with nu = deg H the matching number and
    k = n - 2 nu, and H squarefree.  Let W_uj = (A^(2j))_uu =
    ||A^j e_u||^2 for j = 1..nu, and let x_1..x_k be an integer basis of
    ker A (`matchings.kernel_basis`).  Then

        rank M = rank [W | x_a o x_b  (a <= b)].

    Proof.
    1. M = sum_theta E_theta o E_theta is a sum of PSD matrices (Schur
       product theorem), so its column space is the sum of theirs.
    2. A simple theta has E_theta = y y^T (Godsil, "Average mixing of
       continuous quantum walks", JCTA 2013), so E_theta o E_theta has
       column space span{diag E_theta}.  A forest is bipartite: with S the
       diagonal +-1 matrix of a 2-colouring, S A S = -A, so the spectrum is
       symmetric and E_(-theta) = S E_theta S has the same diagonal as
       E_theta.  The nonzero eigenvalues thus contribute
       span{diag E_theta : theta > 0}.
    3. diag A^(2j) = sum_theta theta^(2j) diag E_theta = sum_(theta > 0)
       2 theta^(2j) diag E_theta for j >= 1, as theta = 0 adds nothing.
       The nu values theta^2 are the roots of H, distinct and positive, so
       the nu x nu matrix (2 theta_i^(2j)) is invertible (a Vandermonde
       matrix times a diagonal one), and the columns of W span what step 2
       found.
    4. E_0 = X G X^T with X = [x_1..x_k] and G = (X^T X)^(-1) positive
       definite, so E_0 = Y Y^T for Y = X G^(1/2), and E_0 o E_0 =
       sum_(a,b) (y_a o y_b)(y_a o y_b)^T has column space span{y_a o y_b}.
       The y's and the x's span the same space and o is bilinear, so that
       is span{x_a o x_b : a <= b}.
    5. A rational matrix has the same rank over R as over Q.

    For k <= 1 this ranks the simple trees too, beside the paper's
    rank M = rank C (`rank_via_coefficient`), its cross-check.

    Certificate.  For k <= 1, [W | x o x] has nu + k columns, so rank M <=
    nu + k, and a full column rank modulo a prime p proves equality: a
    nonzero minor mod p is a nonzero integer.  `_certified_walk_ranks`
    ranks a batch of forests of one order this way, with p = 2^31 - 1, in
    numpy int64: W mod p from the powers of the bipartite blocks of A^2,
    each product below 2n p < 2^63, then fraction-free elimination mod p,
    each product below p^2 < 2^62.  A forest it leaves uncertified, of rank
    below nu + k or with p dividing every maximal minor, needs this
    function.  The order-18 scan certifies 1,727 of its 1,728 simple trees;
    t* is the one below nu + k.

    Computation.  Row u of A^j is zero off the colour class
    c(u) xor (j mod 2), for the 2-colouring c of the spanning forest
    that `kernel_basis` walked, read parent-first along the forest's
    order, so each row is kept as a list over that class alone.  Step j
    builds row u as the sum of its neighbours' rows of A^(j-1), and W_uj
    is the row's squared norm; nu steps suffice.  The kernel basis, and so
    the Schur squares, may change with the labels; their span, and so the
    rank, does not.
    """
    kernel, (order, parent) = kernel_basis(x, counts)
    colour = [0] * x.n
    for v in order:
        if parent[v] >= 0:
            colour[v] = colour[parent[v]] ^ 1
    size = [0, 0]
    pos = []  # u's index within its colour class
    for c in colour:
        pos.append(size[c])
        size[c] += 1
    rows = [[int(i == at) for i in range(size[c])] for at, c in zip(pos, colour)]  # A^0 = I
    out = [[] for _ in range(x.n)]
    nbr = x.neighbors()
    for _ in range(len(counts) - 1):
        nxt = []
        for ws in nbr:
            row = rows[ws[0]] if ws else []  # an isolated vertex's rows are zero from A^1 on
            for w in ws[1:]:
                row = list(map(add, row, rows[w]))
            nxt.append(row)
        rows = nxt
        for w_row, row in zip(out, rows):
            w_row.append(sum(map(mul, row, row)))
    k = len(kernel[0])
    for w_row, xu in zip(out, kernel):
        w_row += [xu[a] * xu[b] for a in range(k) for b in range(a, k)]
    return exact_rank(out)


# The prime of the walk-rank certificate, 2^31 - 1: p^2 < 2^62, so a product
# of two residues, and the difference of two such, fits in int64.
_PRIME = 2**31 - 1


def _walk_matrices_mod_p(forests, counts) -> np.ndarray:
    """[W | x o x] of `walk_rank` modulo _PRIME for forests of one order n
    with one matching number nu and k = n - 2 nu <= 1, stacked into an int64
    array of shape (len(forests), n, nu + k); `counts` are the forests'
    matching counts.  DomainError for any other batch.

    Both colour classes of a 2-colouring hold at least nu vertices, as every
    matching edge joins them, so they hold nu + k and nu once the larger is
    named class 0.  Rows 0..nu+k-1 are class 0 and the rest class 1, each in
    label order, and C is the (nu + k) x nu biadjacency matrix.  As A^2 =
    diag(B_0, B_1) with B_0 = C C^T and B_1 = C^T C, W_uj = (B^j)_uu for the
    block B of u's class.  B is exact: its entries are small integers.  Each
    power P B is reduced mod p, and cannot overflow: P < p entrywise, and a
    column w of B sums to sum_(v ~ w) deg v <= 2m < 2n, so every entry of
    P B is below 2n p < 2^63 for n < 2^31.  For k = 1 the last column is
    x o x for the kernel vector x of `matchings.kernel_basis`.
    """
    n = forests[0].n
    nu = len(counts[0]) - 1
    k = n - 2 * nu
    if k > 1 or any(g.n != n or len(c) != nu + 1 for g, c in zip(forests, counts)):
        raise DomainError("the walk-rank certificate needs forests of one order and one nu, k <= 1")
    big = nu + k
    ones = ([], [], [])  # (forest, row, column) of every 1 in the C's
    squares = np.zeros((len(forests), n), np.int64)
    for i, (g, cnt) in enumerate(zip(forests, counts)):
        if k:
            kernel, (order, parent) = kernel_basis(g, cnt)
        else:
            order, parent = g.spanning_forest()
        colour = [0] * n
        for v in order:
            if parent[v] >= 0:
                colour[v] = colour[parent[v]] ^ 1
        if 2 * sum(colour) > n:
            colour = [1 - c for c in colour]
        size = [0, big]
        row = []
        for c in colour:
            row.append(size[c])
            size[c] += 1
        for u, v in g.edges:
            if colour[u]:
                u, v = v, u
            ones[0].append(i)
            ones[1].append(row[u])
            ones[2].append(row[v] - big)
        if k:
            for u, (xu,) in zip(row, kernel):
                squares[i, u] = xu * xu % _PRIME
    cmat = np.zeros((len(forests), big, nu), np.int64)
    cmat[ones] = 1
    ct = cmat.transpose(0, 2, 1)
    out = np.empty((len(forests), n, nu + k), np.int64)
    for b, rows in ((cmat @ ct, slice(0, big)), (ct @ cmat, slice(big, n))):
        power = b
        for j in range(nu):
            if j:
                power = power @ b % _PRIME
            out[:, rows, j] = np.diagonal(power, axis1=1, axis2=2)
    if k:
        out[:, :, nu] = squares
    return out


def _full_column_rank_mod_p(mats: np.ndarray) -> np.ndarray:
    """For each integer matrix of the stack `mats` (shape (T, rows, cols),
    rows >= cols), whether its rank modulo _PRIME is cols.

    Fraction-free elimination over Z/p, batched over the stack: column c
    takes the first row at or below c that is nonzero in it as pivot (no
    such row: rank mod p < cols), moves row c into the pivot's place, as
    row c is not read again, and replaces every row r below c by
    a r - b (pivot row) for the pivot a and b = r's entry in column c,
    mod p.  As a != 0 mod p and p is prime, this keeps the row space over
    Z/p.  Every entry is reduced first, so each product is below
    p^2 < 2^62.
    """
    mats = mats % _PRIME
    count, _, cols = mats.shape
    full = np.ones(count, bool)
    ix = np.arange(count)
    for c in range(cols):
        below = mats[:, c:, c] != 0
        full &= below.any(1)
        pivot = c + below.argmax(1)
        top = mats[ix, pivot]
        mats[ix, pivot] = mats[:, c]
        rest = mats[:, c + 1 :, c:]
        mats[:, c + 1 :, c:] = (top[:, c, None, None] * rest - rest[:, :, :1] * top[:, None, c:]) % _PRIME
    return full


def _certified_walk_ranks(forests, counts) -> list[int | None]:
    """nu + k, the rank of M, for each forest of the batch whose [W | x o x]
    has full column rank modulo _PRIME, and None for the others, which need
    `walk_rank` (its Certificate paragraph has the proof); the batch is that
    of `_walk_matrices_mod_p`, and every forest must satisfy `walk_rank`'s
    hypothesis."""
    if not forests:
        return []
    mats = _walk_matrices_mod_p(forests, counts)
    cols = mats.shape[2]
    return [cols if ok else None for ok in _full_column_rank_mod_p(mats)]


def _scaled_schur_sum(x: Graph, psi: IntPoly, w_num: IntPoly, w_den: IntPoly):
    """(S, D): S = D * sum_theta w(theta) E_theta o E_theta is an integer matrix,
    the Hankel form of the residue r = D w_num / (w_den psi'^2) mod psi, an
    integer polynomial over the one denominator D of the inverse of
    w_den psi'^2 modulo psi."""
    dpsi = poly_derivative(psi)
    inv, denom = poly_inverse_mod_int(poly_mul(w_den, poly_mul(dpsi, dpsi)), psi)
    residue = poly_mod_monic_int(poly_mul(w_num, inv), psi)
    return _hankel_form(list(_adjugate(x, psi))[::-1], psi, residue), denom


def _hankel_form(powers, f: IntPoly, residue: IntPoly) -> list[list[int]]:
    """Entry (u, v) is sum_theta r(theta) q_theta(A)_uv^2 over the roots theta
    of f, a monic factor of psi of positive degree, for the integer residue r.

    `powers`, a list that this call consumes, is B_0..B_(d-1) of the Horner
    recurrence `polynomials._adjugate(x, psi)`, so q_theta(A)_uv =
    sum_m theta^m (B_m)_uv.  Each B_m with m >= deg f is folded down mod f
    in place, as `poly_mod_monic_int` folds a coefficient (nothing folds for
    f = psi), which leaves b, the coefficients of q_theta(A)_uv mod f.  The
    entry is then b^T H b: H_ij = mu_(i+j), the moments mu_m =
    sum_theta theta^m r(theta) = sum_k r_k s_(m+k) from the power sums s
    of f.
    """
    e = degree(f)
    while len(powers) > e:
        top = powers.pop()
        off = len(powers) - e
        for j, c in enumerate(f[:e]):
            if c:
                powers[off + j] = [
                    [a - c * b for a, b in zip(row, top_row)]
                    for row, top_row in zip(powers[off + j], top)
                ]
    s = power_sums(f, 2 * e - 2 + len(residue))
    moments = [sum(map(mul, residue, s[m:])) for m in range(2 * e - 1)]
    hankel = [moments[i : i + e] for i in range(e)]
    n = len(powers[0])
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v, b in enumerate(zip(*(bm[u][u:] for bm in powers)), u):
            out[u][v] = out[v][u] = sum(bi * sum(map(mul, b, h)) for bi, h in zip(b, hankel) if bi)
    return out


def _over(scaled: list[list[int]], denom: int) -> RatMatrix:
    """scaled / denom with one Fraction per unordered pair, shared by (u, v) and (v, u)."""
    out = [row[:] for row in scaled]
    for u, row in enumerate(scaled):
        for v in range(u, len(row)):
            out[u][v] = out[v][u] = Fraction(row[v], denom)
    return out


def weighted_projector_schur_sum(x: Graph, w_num: IntPoly, w_den: IntPoly) -> RatMatrix:
    """Exact sum over distinct eigenvalues of w(theta) * E_theta o E_theta.

    The weight w = w_num/w_den is a rational function with integer
    coefficients whose denominator must not vanish at an eigenvalue
    (DomainError otherwise).  w = 1 gives the average mixing matrix.
    """
    if not w_den:
        raise DomainError("weight denominator is zero")
    return _over(*_scaled_schur_sum(x, squarefree_part(_phi(x)), w_num, w_den))


def exact_rank(mat) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    A repeated row adds nothing to the row space, so only the first copy
    of each row is kept, in order.  Rows of Python ints are taken as they
    are; any other row is scaled by the lcm of its entries' denominators.
    The pivot is always the lowest-index row with a nonzero entry in the
    current column, so the computation, deduplication included, is
    reproducible bit for bit.
    """
    if len(mat) == 0:
        return 0
    rows = []
    for row in dict.fromkeys(map(tuple, mat)):
        if not {int}.issuperset(map(type, row)):
            fr = [Fraction(c) for c in row]
            den = math.lcm(*(c.denominator for c in fr))
            row = [int(c * den) for c in fr]
        rows.append(row)
    # a column that is zero in every row stays zero, so only the others are eliminated
    live = [j for j, col in enumerate(zip(*rows)) if any(col)]
    if not live:
        return 0
    rows = [list(map(row.__getitem__, live)) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        prc = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            ri = rows[i]
            rr = rows[r]
            for j in range(c + 1, ncols):
                ri[j] = (ri[j] * prc - ric * rr[j]) // prev
            ri[c] = 0
        prev = prc
        r += 1
    return r


def kernel_exact(mat) -> list[list[Fraction]]:
    """Basis of the rational null space, from the reduced row echelon form."""
    if len(mat) == 0:
        return []
    a = [[Fraction(c) for c in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0])
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivot_of_col[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivot_of_col:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivot_of_col.items():
            vec[pc] = -a[pr][c]
        basis.append(vec)
    return basis


def coefficient_matrix(x: Graph, phi: IntPoly | None = None) -> list[list[int]]:
    """Row u holds the coefficients of char_poly(X - u), entry (u, u) of
    adj(tI - A) by Cramer's rule; column r holds the coefficient of t^r, the
    diagonal of the adjugate's coefficient B_r from the Horner recurrence
    `polynomials._adjugate(x, phi)`, with `phi`, x's characteristic
    polynomial, computed when not given."""
    if x.n < 2:
        raise DomainError("coefficient matrix needs at least two vertices")
    adj = _adjugate(x, _phi(x) if phi is None else phi)
    diags = [[row[i] for i, row in enumerate(b)] for b in adj]
    return [list(row) for row in zip(*reversed(diags))]


def rank_via_coefficient(x: Graph) -> int:
    """Rank of the coefficient matrix; equals the average mixing rank for
    graphs with all eigenvalues distinct (the only case accepted)."""
    phi = _phi(x)
    if not is_squarefree(phi):
        raise DomainError("coefficient rank shortcut requires distinct eigenvalues")
    return exact_rank(coefficient_matrix(x, phi))


def is_psd_exact(mat: RatMatrix) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    Symmetric elimination on the first strictly positive diagonal pivot; a
    zero diagonal entry forces its whole row to vanish, a negative one
    refutes immediately.
    """
    n = len(mat)
    a = [[Fraction(c) for c in row] for row in mat]
    active = list(range(n))
    while active:
        pivot = None
        for i in active:
            d = a[i][i]
            if d < 0:
                return False
            if d > 0 and pivot is None:
                pivot = i
        if pivot is None:
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(pivot)
        d = a[pivot][pivot]
        for i in active:
            f = a[i][pivot] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[pivot][j]
    return True


# ---------------------------------------------------------------------------
# serialization


def rat_matrix_to_csv(mat: RatMatrix) -> str:
    lines = []
    for row in mat:
        lines.append(",".join(f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in row))
    return "\n".join(lines) + "\n"


def rat_matrix_to_json(mat: RatMatrix) -> str:
    obj = [
        [{"num": Fraction(c).numerator, "den": Fraction(c).denominator} for c in row]
        for row in mat
    ]
    return json.dumps(obj)
