import math
import random
from fractions import Fraction

import pytest

import avgmix.polynomials as polynomials_module
from avgmix.enumeration import enumerate_trees, random_tree
from avgmix.errors import ConsistencyError, DomainError
from avgmix.exact import coefficient_matrix
from avgmix.graph6 import write_graph6
from avgmix.graphs import from_edges, path, rooted_product_k2, star
from avgmix.polynomials import (
    char_poly,
    forest_char_poly,
    is_squarefree,
    poly_add,
    poly_derivative,
    poly_gcd_int,
    poly_inverse_mod_int,
    poly_mod_monic_int,
    poly_mul,
    power_sums,
    squarefree_part,
    trace_over_roots,
)


def test_char_poly_examples():
    assert char_poly(path(2)) == [-1, 0, 1]
    # star on 4 vertices: t^2 (t^2 - 3)
    assert char_poly(star(4)) == [0, 0, -3, 0, 1]
    assert char_poly(path(1)) == [0, 1]


def test_char_poly_is_monic_degree_n():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tree(rng.randint(1, 12), rng)
        p = char_poly(t)
        assert len(p) == t.n + 1 and p[-1] == 1


def _product(*factors):
    out = [1]
    for f, power in factors:
        for _ in range(power):
            out = poly_mul(out, f)
    return out


def test_char_poly_on_a_cycle():
    # C4: t^4 - 4t^2; eigenvalues 2, 0, 0, -2
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert char_poly(c4) == [0, 0, -4, 0, 1]
    # graphs with cycles, disconnected and edgeless ones against their
    # closed-form spectra, a reference shared with neither the matching DP
    # nor Faddeev-LeVerrier
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k23 = from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])
    petersen = from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)],
    )
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    empty4 = from_edges(4, [])
    for g, factors in (
        (c5, (([-2, 1], 1), ([-1, 1, 1], 2))),
        (k4, (([-3, 1], 1), ([1, 1], 3))),
        (k23, (([0, 1], 3), ([-6, 0, 1], 1))),
        (petersen, (([-3, 1], 1), ([-1, 1], 5), ([2, 1], 4))),
        (two_triangles, (([-2, 1], 2), ([1, 1], 4))),
        (empty4, (([0, 1], 4),)),
    ):
        assert char_poly(g) == _product(*factors), g.edges


def _perturbed_adjugate(monkeypatch, at: int, u: int, v: int):
    """Let polynomials._adjugate add 1 to entry (u, v) of its at-th matrix."""
    adjugate = polynomials_module._adjugate

    def perturbed(x, p):
        for k, b in enumerate(adjugate(x, p), 1):
            if k == at:
                b[u][v] += 1
            yield b

    monkeypatch.setattr(polynomials_module, "_adjugate", perturbed)


def test_char_poly_checks_catch_a_broken_recurrence(monkeypatch):
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    g6 = write_graph6(c5)
    # one more at edge (0, 1) of B_(n-3) adds 2 to tr(A B_(n-3)), which 3 must divide
    _perturbed_adjugate(monkeypatch, 3, 0, 1)
    with pytest.raises(ConsistencyError, match="trace division not exact") as caught:
        char_poly(c5)
    assert caught.value.certificates == [g6]
    # the last of the n + 1 matrices is phi(A), which must vanish
    monkeypatch.undo()
    _perturbed_adjugate(monkeypatch, c5.n + 1, 0, 0)
    with pytest.raises(ConsistencyError, match="Cayley-Hamilton") as caught:
        char_poly(c5)
    assert caught.value.certificates == [g6]


def test_forest_char_poly_examples():
    # P4 by hand: m1 = 3, m2 = 1
    assert forest_char_poly(path(4)) == [1, 0, -3, 0, 1]
    assert forest_char_poly(star(4)) == [0, 0, -3, 0, 1]
    assert forest_char_poly(path(1)) == [0, 1]


def test_char_equals_matching_on_random_trees():
    rng = random.Random(11)
    for _ in range(300):
        t = random_tree(rng.randint(1, 16), rng)
        assert char_poly(t) == forest_char_poly(t)


def test_vertex_deleted_polys(tstar):
    vd = coefficient_matrix(path(3))
    assert vd[0] == [-1, 0, 1]      # delete a leaf: single edge remains
    assert vd[1] == [0, 0, 1]       # delete the center: two isolated vertices
    assert vd[2] == [-1, 0, 1]
    with pytest.raises(DomainError):
        coefficient_matrix(path(1))
    # the adjugate's diagonal holds every deletion's char poly, forest or not
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    p2_c4 = from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    empty4 = from_edges(4, [])
    two_p3 = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for g in (c5, p2_c4, k4, empty4, two_p3):
        assert coefficient_matrix(g) == [char_poly(g.delete_vertex(u)) for u in range(g.n)]
    # C5's deletions are paths, so the matching-count route cross-checks them
    assert coefficient_matrix(c5) == [forest_char_poly(c5.delete_vertex(u)) for u in range(5)]
    # family member 2: 72 vertices, integers far beyond 64 bits
    member2 = rooted_product_k2(rooted_product_k2(tstar))
    assert coefficient_matrix(member2) == [
        forest_char_poly(member2.delete_vertex(u)) for u in range(member2.n)
    ]


def test_derivative_identity_exhaustive():
    for n in range(2, 11):
        for t in enumerate_trees(n):
            total = []
            for p in coefficient_matrix(t):
                total = poly_add(total, p)
            assert total == poly_derivative(char_poly(t))


def test_squarefree_examples():
    assert squarefree_part([0, 0, -3, 0, 1]) == [0, -3, 0, 1]
    assert not is_squarefree([0, 0, -3, 0, 1])
    assert is_squarefree([1, 0, -3, 0, 1])
    assert squarefree_part([1, 0, -3, 0, 1]) == [1, 0, -3, 0, 1]
    assert squarefree_part([0, 0, 1]) == [0, 1]
    # (2t - 1)^2 (t + 3): the gcd 2t - 1 is not monic
    assert squarefree_part(_product(([-1, 2], 2), ([3, 1], 1))) == [-3, 5, 2]
    # gcd(6t^2, 12t) = 6t keeps the content; the squarefree part drops it
    assert squarefree_part([0, 0, 6]) == [0, 1]
    with pytest.raises(DomainError):
        squarefree_part([])


def test_gcd_via_euclid_oracle():
    # (t-1)^2 (t+2) against its derivative: gcd should be t-1
    p = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
    g = poly_gcd_int(p, poly_derivative(p))
    assert g == [-1, 1]


def test_trace_over_roots_examples():
    assert trace_over_roots([0, 0, 1], [1], [-1, 0, 1]) == 2
    # psi = t^2 - t - 1: sum of 1/(theta+5) = (e1 + 10)/(e2 + 5 e1 + 25) = 11/29
    assert trace_over_roots([1], [5, 1], [-1, -1, 1]) == Fraction(11, 29)
    assert trace_over_roots([0, 1], [1], [-1, -1, 1]) == 1
    # non-monic psi: roots 1/2; +-1/sqrt(2); the roots of 6t^2 + t - 1
    assert trace_over_roots([0, 1], [1], [-1, 2]) == Fraction(1, 2)
    assert trace_over_roots([0, 0, 1], [1], [-1, 0, 2]) == 1
    assert trace_over_roots([1], [5, 1], [-1, 1, 6]) == Fraction(59, 144)


def test_trace_over_roots_errors():
    with pytest.raises(DomainError):
        trace_over_roots([1], [1], [1, 2, 1])  # (t+1)^2 not squarefree
    with pytest.raises(DomainError):
        trace_over_roots([1], [-1, 1], [-1, 0, 1])  # denominator shares root 1
    with pytest.raises(DomainError):
        trace_over_roots([1], [1], [])


def test_trace_over_roots_newton_property():
    rng = random.Random(5)
    for _ in range(30):
        psi = squarefree_part([rng.randint(-4, 4) for _ in range(rng.randint(1, 9))] + [1])
        ps = power_sums(psi)
        for k in range(len(ps)):
            assert trace_over_roots([0] * k + [1], [1], psi) == ps[k]
        assert power_sums(psi, 0) == []
    with pytest.raises(DomainError):
        power_sums([-1, 2])  # not monic


def test_trace_over_roots_scaling_invariance():
    assert trace_over_roots([1], [5, 1], [-3, -3, 3]) == Fraction(11, 29)


def _inverse(f, psi):
    """poly_inverse_mod_int(f, psi), checked by multiplying back."""
    u, denom = poly_inverse_mod_int(f, psi)
    assert poly_mod_monic_int(poly_mul(u, f), psi) == [denom]
    assert denom > 0 and math.gcd(denom, *u) == 1 and len(u) < len(psi)
    return u, denom


def test_poly_inverse_mod(tstar):
    # t + 5 mod t^2 - t - 1: (t + 5)(6 - t) = 30 + t - t^2 = 29
    assert _inverse([5, 1], [-1, -1, 1]) == ([6, -1], 29)
    with pytest.raises(DomainError):
        poly_inverse_mod_int([-1, 1], [-1, 0, 1])
    with pytest.raises(DomainError):  # a weight that vanishes mod psi
        poly_inverse_mod_int([-2, -1, 2, 1], [-1, 0, 1])  # (t + 2)(t^2 - 1)
    # the single vertex and the empty graph on 4 vertices: psi = t
    for g in (path(1), from_edges(4, [])):
        psi = squarefree_part(char_poly(g))
        assert psi == [0, 1]
        assert _inverse([1], psi) == ([1], 1)
        assert _inverse([4, 0, 1], psi) == ([1], 4)
    # psi'^2 and (t^2 + 4) psi'^2, the weights the exact assembly inverts,
    # for t* and family member 1: non-monic remainders, big integers
    for g in (tstar, rooted_product_k2(tstar)):
        psi = squarefree_part(char_poly(g))
        dpsi = poly_derivative(psi)
        for w in ([1], [4, 0, 1]):
            _inverse(poly_mul(w, poly_mul(dpsi, dpsi)), psi)


def test_forest_char_poly_multiplies_components():
    g = from_edges(5, [(0, 1), (2, 3)])
    assert forest_char_poly(g) == poly_mul(poly_mul([-1, 0, 1], [-1, 0, 1]), [0, 1])


def test_forest_char_poly_equals_faddeev_leverrier_on_deleted_forests():
    # every vertex deletion of every tree up to order 9: disconnected
    # forests and isolated vertices included
    for n in range(2, 10):
        for t in enumerate_trees(n):
            for u in range(n):
                sub = t.delete_vertex(u)
                assert forest_char_poly(sub) == char_poly(sub), (n, t.edges, u)
    for cyclic in (
        from_edges(3, [(0, 1), (1, 2), (0, 2)]),  # triangle through the root
        from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]),  # P2 and C4
        from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]),  # triangle off the root
    ):
        with pytest.raises(DomainError):
            forest_char_poly(cyclic)


def test_squarefree_part_broken_gcd_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(polynomials_module, "poly_gcd_int", lambda a, b: [1, 1])
    with pytest.raises(ConsistencyError, match="gcd failed to divide"):
        squarefree_part([0, 0, -3, 0, 1])


def test_rooted_product_char_poly_by_hand():
    # P2 with pendants = P4: t^2 ((t - 1/t)^2 - 1) = t^4 - 3t^2 + 1
    assert char_poly(rooted_product_k2(path(2))) == [1, 0, -3, 0, 1]
