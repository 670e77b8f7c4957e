import math

import numpy as np
import pytest

from avgmix.enumeration import enumerate_trees
from avgmix.errors import ConsistencyError
from avgmix.exact import average_mixing_exact, coefficient_matrix, exact_rank, is_simple, kernel_exact
from avgmix.graph6 import write_graph6
from avgmix.graphs import Graph, path, rooted_product_k2, star
from avgmix.matchings import counts_to_char_poly, forest_matching_counts, simple_from_matching_counts
from avgmix.polynomials import char_poly, is_squarefree
from avgmix.rooted_family import (
    TSTAR_GRAPH6,
    amm_rooted_product_exact,
    build_family,
    confirm_unique_low_rank_tree,
    rooted_product_char_poly,
    search_low_rank_simple_trees,
    tstar,
    tstar_charpoly,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_spectrum_map_examples():
    # each eigenvalue theta splits into the two roots of t^2 - theta t - 1:
    # K1 o K2 = P2 has the roots +-1 of t^2 - 1
    assert rooted_product_char_poly([0, 1], 1) == [-1, 0, 1]
    # P2 o K2 = P4: +-1 split into +-golden ratio and +-its inverse
    phi_p4 = rooted_product_char_poly([-1, 0, 1], 2)
    assert phi_p4 == [1, 0, -3, 0, 1] == char_poly(path(4))
    assert np.allclose(sorted(np.roots(phi_p4[::-1]).real), [-GOLDEN, 1 - GOLDEN, GOLDEN - 1, GOLDEN])


def test_spectrum_map_distinct_for_simple():
    # P5 is simple, and so is its pendant product: a squarefree degree-10 char poly
    phi = rooted_product_char_poly(char_poly(path(5)), 5)
    assert len(phi) == 11 and is_squarefree(phi)
    assert phi == char_poly(rooted_product_k2(path(5)))


def test_block_formula_p2():
    from fractions import Fraction

    m = amm_rooted_product_exact(path(2))
    assert m[0][2] == Fraction(1, 5) and m[0][0] == Fraction(3, 10)
    assert m == average_mixing_exact(rooted_product_k2(path(2))).matrix


def test_block_formula_rejects_repeated_spectrum():
    # The block formula takes repeated spectra too: star(4) and C4 (not a
    # forest) have the eigenvalue 0 twice, P3 has a squarefree char poly.
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for g in (star(4), c4, path(3)):
        assert amm_rooted_product_exact(g) == average_mixing_exact(rooted_product_k2(g)).matrix


def test_block_formula_equals_direct_exhaustive_small():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            if is_simple(t):
                assert amm_rooted_product_exact(t) == average_mixing_exact(rooted_product_k2(t)).matrix


def test_kernel_lifting_small():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            if not is_simple(t):
                continue
            basis = kernel_exact(average_mixing_exact(t).matrix)
            if not basis:
                continue
            big = average_mixing_exact(rooted_product_k2(t)).matrix
            from fractions import Fraction

            zero = [Fraction(0)] * t.n
            for v in basis:
                for vec in (list(v) + zero, zero + list(v)):
                    assert all(
                        sum(big[i][j] * vec[j] for j in range(2 * t.n)) == 0
                        for i in range(2 * t.n)
                    )


def test_rooted_product_char_poly_identity():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert rooted_product_char_poly(char_poly(t), t.n) == char_poly(rooted_product_k2(t))


def test_search_hits_independent_of_threads_and_chunk_size():
    runs = {
        (threads, chunk_size): [
            (rank, t.edges) for rank, t in search_low_rank_simple_trees(
                10, 6, threads=threads, chunk_size=chunk_size,
            )
        ]
        for threads in (1, 2)
        for chunk_size in (7, 2048)
    }
    first = runs[(1, 2048)]
    assert len(first) == 11
    assert all(hits == first for hits in runs.values())


def test_search_at_odd_order_matches_dp_on_every_tree():
    """At odd n the prefilter's bound 2 nu >= n - 1 keeps trees with a
    near-perfect matching; every simple tree of order 11 has rank <= 6, so
    with rank_below 7 every simple tree is a hit."""
    want = []
    for t in enumerate_trees(11):
        counts = forest_matching_counts(t)
        if simple_from_matching_counts(t.n, counts):
            rank = exact_rank(coefficient_matrix(t, counts_to_char_poly(t.n, counts)))
            want.append((rank, t.edges))
    got = [(rank, t.edges) for rank, t in search_low_rank_simple_trees(11, 7, chunk_size=50)]
    assert got == want and len(want) > 0


def test_search_progress_counts_trees_scanned():
    seen = []
    search_low_rank_simple_trees(10, 6, chunk_size=7, progress=seen.append)
    assert seen == [*range(7, 106, 7), 106]  # 106 trees on 10 vertices
    with pytest.raises(ValueError, match="chunk_size"):
        search_low_rank_simple_trees(10, 6, chunk_size=0)
    with pytest.raises(ValueError, match="threads"):
        search_low_rank_simple_trees(10, 6, threads=0)


def test_tstar_charpoly_expansion():
    phi = tstar_charpoly()
    assert len(phi) == 19 and phi[-1] == 1
    assert is_squarefree(phi)
    # the degree-6 factor evaluated at 0 and 1: -1 and 4 -> sign change checks
    assert phi[0] == (-1) * 1 * (-1) * (-1) * 1 * (-1) * (-1)


def test_build_family_ranks_and_gaps():
    members = build_family(1)  # from t*, with no search
    assert members[0].graph == tstar()
    assert [(m.n, m.rank, m.gap) for m in members] == [(18, 8, 1), (36, 16, 2)]
    assert members[0].rank_bound == 8 and members[1].rank_bound == 16
    assert members[1].gap >= members[1].gap_bound == 2
    with pytest.raises(ValueError):
        build_family(4)  # 288 vertices above the default cap
    with pytest.raises(ValueError):
        build_family(2, vertex_cap=144, base=path(40))  # the base's own order counts: 160


def test_build_family_rank_doubling(monkeypatch):
    from avgmix import rooted_family

    # P3 has the eigenvalue 0, so its first step need not double; its
    # pendant product has a perfect matching, so every later step does
    assert [m.rank for m in build_family(2, base=path(3))] == [2, 3, 6]
    real = rooted_family.classify_tree

    def one_too_many(t, method):
        rank, simple = real(t, method)
        return rank + (t.n == 8), simple

    monkeypatch.setattr(rooted_family, "classify_tree", one_too_many)
    with pytest.raises(ConsistencyError, match="not twice"):
        build_family(2, base=path(2))

    def member_one_not_simple(t, method):
        rank, simple = real(t, method)
        return rank, simple and t.n != 4

    monkeypatch.setattr(rooted_family, "classify_tree", member_one_not_simple)
    with pytest.raises(ConsistencyError, match="member 1 lost eigenvalue simplicity") as exc:
        build_family(2, base=path(2))
    assert exc.value.certificates == [write_graph6(rooted_product_k2(path(2)))]


def test_tstar_constant_is_the_search_hit(tstar_scan, monkeypatch):
    from avgmix import rooted_family

    hits, walk_rank_calls = tstar_scan
    assert write_graph6(confirm_unique_low_rank_tree(hits)) == TSTAR_GRAPH6
    assert tstar() == hits[0][1]
    # the mod-p certificate ranks 1,727 of the 1,728 simple trees; t* alone,
    # of rank 8 < nu = 9, needs walk_rank
    assert walk_rank_calls == 1
    wrong = write_graph6(path(18))
    monkeypatch.setattr(rooted_family, "TSTAR_GRAPH6", wrong)
    with pytest.raises(ConsistencyError, match="characteristic polynomial") as exc:
        tstar()
    assert exc.value.certificates == [wrong]
