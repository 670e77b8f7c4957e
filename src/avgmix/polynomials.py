"""Dense univariate polynomial arithmetic over exact integers.

Polynomials are plain lists of coefficients in ascending degree order with
no trailing zeros; the empty list is the zero polynomial.  IntPoly entries
are Python ints; only a root sum gives fractions.

Besides the arithmetic toolkit this module houses the one Horner
recurrence of a graph's adjacency matrix, whose matrices give adj(tI - A)
(`exact` reads the coefficient matrix and the Hankel form off them);
Faddeev-LeVerrier, which is that recurrence with the characteristic
polynomial's coefficients read off traces; the characteristic polynomial of
a forest from its matching counts (the one rooted forest recurrence lives
in `matchings` and shares no code with the Horner one); one integer
pseudo-division, whose primitive pseudo-remainder sequence gives the gcd,
the squarefree part and, carrying a cofactor, the inverse modulo psi over
one integer denominator; and summation of a rational function over the
roots of a squarefree polynomial via Newton power sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import ConsistencyError, DomainError
from .graph6 import write_graph6
from .graphs import Graph

IntPoly = list[int]

_FAST_GCD_PRIME = (1 << 61) - 1  # Mersenne prime, used for a one-sided squarefree test


def normalize(p):
    """Strip trailing zero coefficients in place and return p."""
    while p and not p[-1]:
        p.pop()
    return p


def degree(p) -> int:
    return len(p) - 1


def poly_add(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def poly_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return normalize(out)


def poly_scale(a, s):
    if not s:
        return []
    return [c * s for c in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return normalize(out)


def poly_shift(a, k: int):
    """Multiply by x**k."""
    if not a:
        return []
    return [0] * k + list(a)


def poly_derivative(a):
    return normalize([i * c for i, c in enumerate(a)][1:])


def poly_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_mod_monic_int(a: IntPoly, m: IntPoly) -> IntPoly:
    """Remainder of an integer polynomial modulo a monic integer polynomial."""
    r = list(a)
    dm = degree(m)
    while len(r) - 1 >= dm:
        c = r[-1]
        if c:
            off = len(r) - 1 - dm
            for j in range(dm):
                r[off + j] -= c * m[j]
        r.pop()
    return normalize(r)


def poly_content(a: IntPoly) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def poly_primitive(a: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if not a:
        return []
    g = poly_content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def poly_pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(q, r) with lc(b)^k a = q b + r, deg r < deg b and k = max(deg a - deg b + 1, 0),
    all over the integers (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R)."""
    db, lb = degree(b), b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in reversed(range(len(q))):
        lead = r.pop()  # lb * lead - lead * lb cancels the top term
        if lb != 1:
            r = [lb * c for c in r]
        q[i] = lead * lb**i  # the i steps still to come scale it by lb each
        if lead:
            for j in range(db):
                r[i + j] -= lead * b[j]
    return normalize(q), normalize(r)


def poly_gcd_int(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor over Z via a primitive pseudo-remainder sequence.

    Result is primitive with positive leading coefficient; content of the
    inputs is folded back in.
    """
    if not a:
        return poly_primitive(b)
    if not b:
        return poly_primitive(a)
    cont = math.gcd(poly_content(a), poly_content(b))
    a = poly_primitive(a)
    b = poly_primitive(b)
    if degree(a) < degree(b):
        a, b = b, a
    while b:
        a, b = b, poly_primitive(poly_pseudo_divmod(a, b)[1])
    return poly_scale(a, cont)


def poly_inverse_mod_int(f: IntPoly, psi: IntPoly) -> tuple[IntPoly, int]:
    """(u, D) with u f = D (mod psi), D > 0, gcd(D, content u) = 1 and
    deg u < deg psi: the inverse of f modulo a monic psi is u/D.

    The extended form of `poly_gcd_int`'s pseudo-remainder sequence.  Each
    remainder r = lc^k r0 - q r1 carries the cofactor t = lc^k t0 - q t1, so
    t f = r (mod psi) throughout, and the pair is divided by its joint
    content.  As in the extended Euclid over the rationals, a cofactor's
    degree is deg psi minus that of the remainder before its own, below
    deg psi, so no cofactor needs reducing.  DomainError when f and psi
    share a root.
    """
    if degree(psi) < 1 or psi[-1] != 1:
        raise DomainError("modulus must be monic of positive degree")
    r0, r1 = psi, poly_mod_monic_int(f, psi)
    t0, t1 = [], [1]
    while degree(r1) > 0:
        q, r = poly_pseudo_divmod(r0, r1)
        t = poly_sub(poly_scale(t0, r1[-1] ** (len(r0) - len(r1) + 1)), poly_mul(q, t1))
        g = math.gcd(poly_content(r), poly_content(t))
        r0, r1 = r1, [c // g for c in r]
        t0, t1 = t1, [c // g for c in t]
    if not r1:
        raise DomainError("polynomial is not invertible modulo the given modulus")
    g = math.gcd(r1[0], poly_content(t1))
    if r1[0] < 0:
        g = -g
    return [c // g for c in t1], r1[0] // g


def _poly_gcd_degree_modp(a: IntPoly, b: IntPoly, p: int) -> int:
    """Degree of gcd(a mod p, b mod p); -1 when that gcd is zero."""
    a = normalize([c % p for c in a])
    b = normalize([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        db = degree(b)
        r = list(a)
        while len(r) - 1 >= db and r:
            c = (r[-1] * inv) % p
            if c:
                off = len(r) - 1 - db
                for j in range(db + 1):
                    r[off + j] = (r[off + j] - c * b[j]) % p
            normalize(r)
            if len(r) - 1 < db:
                break
        a, b = b, normalize(r)
    return degree(a)


def is_squarefree(p: IntPoly) -> bool:
    """True when p has no repeated roots (gcd(p, p') is a constant)."""
    if not p:
        raise DomainError("zero polynomial has no squarefree part")
    if degree(p) <= 1:
        return True
    dp = poly_derivative(p)
    # One-sided fast path: a constant gcd mod a prime certifies a constant
    # gcd over Z (the integer gcd of a +-1-leading-coefficient polynomial
    # reduces mod p without degree loss).  Non-constant results fall back.
    if p[-1] in (1, -1):
        if _poly_gcd_degree_modp(p, dp, _FAST_GCD_PRIME) == 0:
            return True
    return degree(poly_gcd_int(p, dp)) == 0


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if not p:
        raise DomainError("zero polynomial has no squarefree part")
    q, r = poly_pseudo_divmod(poly_primitive(p), poly_gcd_int(p, poly_derivative(p)))
    if r:
        raise ConsistencyError(f"gcd failed to divide its argument: {p}")
    return poly_primitive(q)


# ---------------------------------------------------------------------------
# characteristic polynomials


def _adjugate(x: Graph, p: IntPoly):
    """Yield B_(d-1) = I, ..., B_0 with B_(m-1) = A B_m + p_m I (Horner) for
    monic p of degree d: sum_m t^m B_m = (p(t) - p(A))/(t - A), adj(tI - A)
    for p = phi.  It holds only B_m and the B_(m-1) being built, and reads
    p_m only after it has yielded B_m, so a caller may fill p in as the
    recurrence runs."""
    n, nbr = x.n, x.neighbors()
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    yield b
    for m in range(degree(p) - 1, 0, -1):
        nxt = []
        for i, ws in enumerate(nbr):
            row = b[ws[0]][:] if ws else [0] * n  # row i of A B sums B's rows at i's neighbours
            for w in ws[1:]:
                row = list(map(add, row, b[w]))
            row[i] += p[m]
            nxt.append(row)
        b = nxt
        yield b


def char_poly(x: Graph) -> IntPoly:
    """Monic characteristic polynomial phi = det(tI - A) by Faddeev-LeVerrier.

    `_adjugate(x, q)` on q = t phi, filled in as it runs: its k-th matrix is
    B_(n-k) of adj(tI - A), and phi_(n-k) = -tr(A B_(n-k))/k with tr(A B) =
    2 sum over edges (u, v) of B_uv.  Each trace division must be exact and
    the last matrix, phi(A), zero (Cayley-Hamilton); a failure raises
    ConsistencyError with the graph's graph6.
    """
    n = x.n
    q = [0] * (n + 1) + [1]
    adj = _adjugate(x, q)
    for k, b in zip(range(1, n + 1), adj):  # zip stops before asking adj for phi(A)
        tr = 2 * sum(b[u][v] for u, v in x.edges)
        if tr % k:
            raise ConsistencyError(
                "Faddeev-LeVerrier trace division not exact", [write_graph6(x)],
            )
        q[n + 1 - k] = -(tr // k)
    if any(map(any, next(adj))):
        raise ConsistencyError("Cayley-Hamilton check failed", [write_graph6(x)])
    return q[1:]


def forest_char_poly(x: Graph) -> IntPoly:
    """Characteristic polynomial of a forest from its matching counts.

    A forest has no cycles, so by Sachs' theorem its characteristic
    polynomial is its matching polynomial, sum_k (-1)^k m_k t^(n-2k)
    (Godsil & Gutman, J. Graph Theory 1981); the counts m_k come from
    `matchings.forest_matching_counts`, which raises DomainError on a cycle.
    """
    from .matchings import counts_to_char_poly, forest_matching_counts

    return counts_to_char_poly(x.n, forest_matching_counts(x))


# ---------------------------------------------------------------------------
# sums over the roots of a squarefree polynomial


def power_sums(psi: IntPoly, count: int | None = None) -> IntPoly:
    """Power sums p_0..p_{count-1} of the roots of monic integer psi via
    Newton's identities; count defaults to max(deg psi, 1)."""
    d = degree(psi)
    if d < 0:
        raise DomainError("zero polynomial")
    if psi[-1] != 1:
        raise DomainError("power sums need a monic polynomial")
    if count is None:
        count = max(d, 1)
    ps = [d] if count else []
    for k in range(1, count):
        acc = -k * psi[d - k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            acc -= psi[d - i] * ps[k - i]
        ps.append(acc)
    return ps


def trace_over_roots(num: IntPoly, den: IntPoly, psi: IntPoly) -> Fraction:
    """Sum of num(theta)/den(theta) over the roots theta of squarefree psi.

    One RootSumContext query, no root ever computed.  psi, made primitive
    with leading coefficient c and degree d, becomes the monic integer
    c^(d-1) psi(y/c), whose roots are y = c theta, and num and den are
    rewritten in y over the common factor c^e, e the larger of their degrees.
    """
    if not is_squarefree(psi):
        raise DomainError("psi must be squarefree")
    if degree(psi) == 0:
        return Fraction(0)
    psi = poly_primitive(psi)
    c, d = psi[-1], degree(psi)
    e = max(degree(num), degree(den))
    monic = [a * c ** (d - 1 - i) for i, a in enumerate(psi[:-1])] + [1]
    num, den = ([a * c ** (e - i) for i, a in enumerate(p)] for p in (num, den))
    return RootSumContext(monic, den).sum_ratio(num)


class RootSumContext:
    """Exact root sums against one denominator over a squarefree monic modulus,
    the reference that `trace_over_roots` evaluates.

    Holds the Newton power sums of psi and the inverse of the weight modulo
    psi as `poly_inverse_mod_int` gives it, the integer polynomial
    `inv_scaled` over the integer `denom`, so that each query
        sum over roots of  num(theta) / weight(theta)
    costs only polynomial multiplication and reduction.
    """

    def __init__(self, psi: IntPoly, weight: IntPoly):
        self.psi = psi
        self.powers = power_sums(psi)
        self.inv_scaled, self.denom = poly_inverse_mod_int(weight, psi)

    def sum_ratio(self, num: IntPoly) -> Fraction:
        s = poly_mod_monic_int(num, self.psi)
        s = poly_mod_monic_int(poly_mul(s, self.inv_scaled), self.psi)
        total = sum(s[k] * self.powers[k] for k in range(len(s)))
        return Fraction(total, self.denom)
