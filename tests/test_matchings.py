import itertools
import random

import pytest

from avgmix.enumeration import enumerate_trees, random_tree
from avgmix.errors import DomainError
from avgmix.exact import is_simple
from avgmix.graphs import from_edges, path, star
from avgmix.matchings import (
    counts_to_char_poly,
    forest_has_perfect_matching,
    forest_matching_counts,
    leaf_next_to_degree_two,
    lower_bound_certificate,
    matching_number,
    near_perfect_vertex,
    simple_from_matching_counts,
)
from avgmix.polynomials import char_poly


def test_matching_counts_examples():
    assert forest_matching_counts(path(4)) == [1, 3, 1]
    assert forest_matching_counts(star(4)) == [1, 3]
    assert forest_matching_counts(path(1)) == [1]


def test_counts_match_char_poly_coefficients():
    rng = random.Random(123)
    for _ in range(300):
        t = random_tree(rng.randint(1, 16), rng)
        assert counts_to_char_poly(t.n, forest_matching_counts(t)) == char_poly(t)


def test_simple_flag_from_counts_matches_char_poly_route():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            got = simple_from_matching_counts(t.n, forest_matching_counts(t))
            assert got == is_simple(t)


def _cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_matching_number_and_prefilter_exhaustive():
    """Greedy leaf matching gives the DP's maximum matching size, and the DP's
    simplicity test rejects every tree with 2 nu < n - 1, so the scan's
    prefilter drops no tree the DP would keep."""
    survivors = []
    for n in range(2, 15):
        kept = 0
        for t in enumerate_trees(n):
            nu = matching_number(t)
            counts = forest_matching_counts(t)
            assert nu == len(counts) - 1, t.edges
            if 2 * nu >= n - 1:
                kept += 1
            else:
                assert not simple_from_matching_counts(n, counts), t.edges
        survivors.append(kept)
    assert survivors == [1, 1, 1, 2, 2, 6, 5, 20, 15, 76, 49, 313, 180]


def test_matching_number_forests_and_cycles():
    assert matching_number(path(1)) == 0
    assert matching_number(from_edges(3, [])) == 0
    assert matching_number(star(5).delete_vertex(0)) == 0  # four isolated vertices
    assert matching_number(path(7).delete_vertex(2)) == 3  # P2 and P4
    for n in range(2, 9):
        for t in enumerate_trees(n):
            for v in range(n):
                f = t.delete_vertex(v)
                assert matching_number(f) == len(forest_matching_counts(f)) - 1, (t.edges, v)
    for n in (3, 4, 6):
        with pytest.raises(DomainError):
            matching_number(_cycle(n))
    # the domain is forests, also where a leaf's pairing would be forced:
    # a triangle with a pendant
    with pytest.raises(DomainError):
        matching_number(from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]))


def test_matching_routines_share_one_domain():
    """Over every labelled graph on at most 5 vertices, the greedy raises
    exactly where the DP raises, and otherwise gives the DP's nu."""
    forests = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            try:
                counts = forest_matching_counts(g)
            except DomainError:
                with pytest.raises(DomainError):
                    matching_number(g)
                continue
            forests += 1
            assert matching_number(g) == len(counts) - 1, g.edges
    assert forests == 1 + 2 + 7 + 38 + 291  # labelled forests on 1..5 vertices


def test_perfect_matching():
    assert forest_has_perfect_matching(path(4))
    assert not forest_has_perfect_matching(star(4))
    assert not forest_has_perfect_matching(path(5))
    # even order and a cycle, also beside two isolated vertices: not a forest
    for g in (_cycle(4), _cycle(6), from_edges(6, [(2, 3), (3, 4), (4, 5), (5, 2)])):
        with pytest.raises(DomainError):
            forest_has_perfect_matching(g)
    # forests through the induced interface
    assert forest_matching_counts(path(5).delete_vertex(0))[-1] == 1


def test_near_perfect_vertex():
    assert near_perfect_vertex(path(5)) == 0
    assert near_perfect_vertex(star(4)) is None  # even order: never
    assert near_perfect_vertex(path(3)) == 0  # deleting leaf 0 leaves one edge
    # star on 5 vertices: only deleting the center leaves no perfect matching,
    # and deleting a leaf leaves the star on 4, still unmatched -> none
    assert near_perfect_vertex(star(5)) is None


def test_leaf_next_to_degree_two():
    assert leaf_next_to_degree_two(path(3)) == (0, 1)
    assert leaf_next_to_degree_two(path(4)) == (0, 1)
    with pytest.raises(DomainError):
        leaf_next_to_degree_two(path(2))
    with pytest.raises(DomainError):
        # star has repeated eigenvalues and no such pair: precondition violation
        leaf_next_to_degree_two(star(4))


def test_leaf_next_to_degree_two_simple_trees_exhaustive():
    for n in range(3, 13):
        for t in enumerate_trees(n):
            if simple_from_matching_counts(t.n, forest_matching_counts(t)):
                u, v = leaf_next_to_degree_two(t)
                assert t.degrees()[u] == 1 and t.degrees()[v] == 2


def test_certificate_p6_by_hand():
    # u,v,w = 0,1,2 on the path; ell = 2, q = m_1(P3) = 2 -> det = 1 + 2(1-2) = -1
    cert = lower_bound_certificate(path(6))
    assert cert.case == "C1"
    assert cert.vertices == (0, 1, 2)
    assert cert.columns == (1, 3, 5)
    assert cert.det == cert.closed_form_det == -1
    assert cert.submatrix == ((3, -4, 1), (1, -3, 1), (2, -3, 1))


def test_certificate_p5():
    cert = lower_bound_certificate(path(5))
    assert cert.case == "C2"
    assert abs(cert.det) == 1  # ell - 1 with ell = 2
    assert cert.det == cert.closed_form_det


def test_certificate_rejections():
    with pytest.raises(DomainError):
        lower_bound_certificate(path(4))
    with pytest.raises(DomainError):
        lower_bound_certificate(star(5))  # repeated eigenvalues
    with pytest.raises(DomainError):
        lower_bound_certificate(path(3))


def test_certificates_exhaustive_to_ten():
    seen = set()
    for n in range(4, 11):
        for t in enumerate_trees(n):
            if not simple_from_matching_counts(t.n, forest_matching_counts(t)):
                continue
            if n == 4 and sorted(t.degrees()) == [1, 1, 2, 2]:
                continue
            cert = lower_bound_certificate(t)
            assert cert.det != 0 and cert.det == cert.closed_form_det
            seen.add(cert.case)
    assert seen == {"C1", "C2", "C3"}
