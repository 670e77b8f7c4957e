from fractions import Fraction

import pytest

from avgmix.enumeration import enumerate_trees, random_tree
from avgmix.errors import ConsistencyError, DomainError
from avgmix.exact import (
    _PRIME,
    _certified_walk_ranks,
    _full_column_rank_mod_p,
    _walk_matrices_mod_p,
    amm_rank,
    average_mixing_exact,
    coefficient_matrix,
    exact_rank,
    is_psd_exact,
    is_simple,
    kernel_exact,
    rank_via_coefficient,
    rat_matrix_to_csv,
    rat_matrix_to_json,
    walk_rank,
    weighted_projector_schur_sum,
)
from avgmix.graph6 import write_graph6
from avgmix.graphs import Graph, path, rooted_product_k2, star
from avgmix.matchings import (
    forest_matching_counts,
    kernel_basis,
    nonzero_eigenvalues_simple,
    simple_from_matching_counts,
)
from avgmix.rooted_family import build_family
from avgmix.verify import certificate_mismatches, non_tree_graphs, run_suite

HALF = Fraction(1, 2)


def test_p2_half_j():
    res = average_mixing_exact(path(2))
    assert res.matrix == [[HALF, HALF], [HALF, HALF]]
    assert res.rank == 1 and res.simple and len(res.matrix) == 2


def test_p4_block_matrix():
    # pendant product of P2, originals first: [[3/10 J, 1/5 J], [1/5 J, 3/10 J]]
    a, b = Fraction(3, 10), Fraction(1, 5)
    res = average_mixing_exact(rooted_product_k2(path(2)))
    assert res.matrix == [
        [a, a, b, b],
        [a, a, b, b],
        [b, b, a, a],
        [b, b, a, a],
    ]
    assert res.rank == 2 and res.simple
    assert average_mixing_exact(path(4)).rank == 2


def test_star_full_rank():
    res = average_mixing_exact(star(4))
    assert res.rank == 4 and not res.simple
    # the smallest star is the known exception: rank 2 of 3
    assert average_mixing_exact(path(3)).rank == 2


def test_mixing_invariants_small():
    for g in (path(2), path(3), path(4), star(4), star(5), rooted_product_k2(star(3))):
        m = average_mixing_exact(g).matrix
        n = g.n
        for i in range(n):
            assert sum(m[i]) == 1
            for j in range(n):
                assert m[i][j] == m[j][i] >= 0
        assert is_psd_exact(m)


def test_empty_graph_identity():
    res = average_mixing_exact(Graph(3, ()))
    assert res.matrix == [[Fraction(i == j) for j in range(3)] for i in range(3)]
    assert res.rank == 3


def test_exact_rank_basics():
    import numpy as np

    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    ints = [[2, 4, 6], [1, 2, 3]]
    assert exact_rank(ints) == 1 and ints == [[2, 4, 6], [1, 2, 3]]  # rows copied, not eliminated in place
    assert exact_rank([[1, Fraction(1, 2)], [2, 1]]) == 1  # a mixed row is scaled by its lcm
    # fixed-width integers take the scaled route: in int64 the pivot product 2**64 wraps to 0
    assert exact_rank([list(row) for row in np.array([[2**32, 0], [0, 2**32]], dtype=np.int64)]) == 2
    assert exact_rank(np.array([[2**32, 0], [0, 2**32]], dtype=np.int64)) == 2  # a 2-D array as it is
    assert kernel_exact(np.array([[1, 2], [2, 4]], dtype=np.int64)) == [[-2, 1]]


def test_exact_rank_matches_fraction_elimination_on_random():
    import random

    rng = random.Random(2024)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
        # oracle: rank = cols - nullity via reduced row echelon kernel
        assert exact_rank(m) == cols - len(kernel_exact(m))


def test_exact_rank_ignores_repeated_rows():
    import random

    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        fracs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        for m in (ints, fracs):
            rank = exact_rank(m)
            assert exact_rank(m + m) == rank
            interleaved = [row for pair in zip(m, m, [m[0]] * rows) for row in pair]
            assert exact_rank(interleaved) == rank


def test_exact_rank_low_rank_with_column_skips():
    import random

    import numpy as np

    rng = random.Random(99)
    for _ in range(40):
        n, m, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3)
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        a = [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(m)] for i in range(n)]
        at = rng.randint(0, m)
        for row in a:
            row.insert(at, 0)  # guaranteed pivot skip
        assert exact_rank(a) == int(np.linalg.matrix_rank(np.array(a, dtype=float)))


def test_amm_rank_equals_exact_rank():
    import random

    graphs = [t for n in range(1, 13) for t in enumerate_trees(n)]
    rng = random.Random(6)
    graphs += [random_tree(n, rng) for n in (16, 18, 20) for _ in range(20)]
    # cycles, complete graphs, two disjoint P3 and empty graphs: all with
    # repeated eigenvalues, the cycles and complete graphs through char_poly
    graphs += non_tree_graphs()
    for g in graphs:
        assert amm_rank(g) == average_mixing_exact(g).rank, g.edges


def _covered(trees):
    """(tree, matching counts) of the trees whose nonzero eigenvalues are simple."""
    for t in trees:
        counts = forest_matching_counts(t)
        if nonzero_eigenvalues_simple(counts):
            yield t, counts


def test_walk_rank_equals_amm_rank():
    import random

    for t, counts in _covered(t for n in range(1, 14) for t in enumerate_trees(n)):
        assert walk_rank(t, counts) == amm_rank(t), t.edges
    for t, counts in _covered(t for n in range(1, 10) for t in enumerate_trees(n)):
        assert walk_rank(t, counts) == average_mixing_exact(t).rank, t.edges
    rng = random.Random(21)
    covered = list(_covered(random_tree(n, rng) for n in (20, 24, 30, 40, 60) for _ in range(8)))
    assert len(covered) >= 20
    for t, counts in covered:
        assert walk_rank(t, counts) == amm_rank(t), t.edges


def test_walk_rank_certificate_mod_p(tstar):
    # all 510 simple trees of orders 2..14, in batches of 1, 7 and their
    # whole order: certified exactly when walk_rank's rank is full
    checked, bad = certificate_mismatches(14)
    assert checked == 510 and not bad, bad[:3]
    assert _certified_walk_ranks([tstar], [forest_matching_counts(tstar)]) == [None]
    # column j times p is 0 mod p, and column j - 1 plus p times column j is
    # column j - 1 mod p: either way the rank falls mod p, so none certifies
    trees = [t for t in enumerate_trees(11) if simple_from_matching_counts(11, forest_matching_counts(t))]
    mats = _walk_matrices_mod_p(trees, [forest_matching_counts(t) for t in trees])
    assert mats.shape == (62, 11, 6) and _full_column_rank_mod_p(mats).all()
    assert _full_column_rank_mod_p(mats + _PRIME * mats[::-1]).all()  # entries reduced first
    for j in range(6):
        for column in (_PRIME * mats[:, :, j], mats[:, :, j - 1] + _PRIME * mats[:, :, j]):
            broken = mats.copy()
            broken[:, :, j] = column
            assert not _full_column_rank_mod_p(broken).any(), j
    with pytest.raises(DomainError):
        _certified_walk_ranks([star(4)], [forest_matching_counts(star(4))])  # k = 2


def test_walk_rank_certificate_on_large_forests():
    """Paths to P_64, whose closed walks reach C(64, 32), about 2^60, are
    certified with walk_rank's rank.  Members 1 and 2 of the family (n = 36
    and 72, ranks 16 and 32) fall short of nu + k = 18 and 36; member 2's
    closed walks pass 2^63, and a W whose powers were not reduced mod p
    would wrap and certify it."""
    for m in range(1, 65):
        counts = forest_matching_counts(path(m))
        assert _certified_walk_ranks([path(m)], [counts]) == [walk_rank(path(m), counts)], m
    for member in build_family(2)[1:]:
        counts = forest_matching_counts(member.graph)
        assert member.rank < len(counts) - 1
        assert _certified_walk_ranks([member.graph], [counts]) == [None], member.n


def test_kernel_basis_on_paths_stars_and_tstar(tstar):
    for t in [path(m) for m in range(1, 10)] + [star(m) for m in range(2, 10)] + [tstar]:
        counts = forest_matching_counts(t)
        x, _ = kernel_basis(t, counts)
        k = t.n - 2 * (len(counts) - 1)
        assert len(x) == t.n and all(len(row) == k for row in x)
        adj = t.adjacency()
        assert all(sum(a * xw[j] for a, xw in zip(adj_u, x)) == 0 for adj_u in adj for j in range(k))
        assert exact_rank(x) == k  # the k columns are independent
    assert kernel_basis(path(5), forest_matching_counts(path(5)))[0] == [[1], [0], [-1], [0], [1]]
    assert len(kernel_basis(tstar, forest_matching_counts(tstar))[0][0]) == 0
    # a DP that disagrees with the greedy on nu is a broken invariant
    with pytest.raises(ConsistencyError, match=write_graph6(path(4))):
        kernel_basis(path(4), [1, 3])


def test_coefficient_matrix_p3():
    assert coefficient_matrix(path(3)) == [[-1, 0, 1], [0, 0, 1], [-1, 0, 1]]
    assert exact_rank(coefficient_matrix(path(3))) == 2
    assert coefficient_matrix(path(2)) == [[0, 1], [0, 1]]
    with pytest.raises(DomainError):
        coefficient_matrix(path(1))


def test_rank_via_coefficient():
    assert rank_via_coefficient(path(4)) == 2
    assert rank_via_coefficient(path(2)) == 1
    with pytest.raises(DomainError):
        rank_via_coefficient(star(4))


def test_coefficient_rank_equals_exact_rank_simple_trees():
    for n in range(2, 10):
        for t in enumerate_trees(n):
            if is_simple(t):
                assert rank_via_coefficient(t) == average_mixing_exact(t).rank


def test_kernel():
    assert kernel_exact([[1, 0], [0, 1]]) == []
    basis = kernel_exact(average_mixing_exact(path(4)).matrix)
    assert len(basis) == 2
    b2 = kernel_exact(average_mixing_exact(path(2)).matrix)
    assert len(b2) == 1 and b2[0][0] == -b2[0][1]


def test_bipartite_rank_bound_to_twelve():
    # trees are bipartite: with all eigenvalues distinct the rank never
    # exceeds ceil(n/2); the `bipartite` suite checks every order up to 12
    lines = []
    assert run_suite("bipartite", out=lines.append), [ln for ln in lines if ln.startswith("FAIL")]


def test_weighted_sums_share_the_kernel():
    weights = [([2], [4, 0, 1]), ([1], [1, 0, 1]), ([3], [9, 0, 0, 0, 1])]
    for n in range(2, 9):
        for t in enumerate_trees(n):
            basis = kernel_exact(average_mixing_exact(t).matrix)
            if not basis:
                continue
            for w_num, w_den in weights:
                g = weighted_projector_schur_sum(t, w_num, w_den)
                for v in basis:
                    assert all(
                        sum(g[i][j] * v[j] for j in range(t.n)) == 0 for i in range(t.n)
                    )


def test_weighted_projector_sum_is_block_ingredient():
    # weight 1 gives the average mixing matrix itself
    assert weighted_projector_schur_sum(path(3), [1], [1]) == average_mixing_exact(path(3)).matrix
    n = weighted_projector_schur_sum(path(2), [2], [4, 0, 1])
    assert n == [[Fraction(1, 5), Fraction(1, 5)], [Fraction(1, 5), Fraction(1, 5)]]
    # polynomial numerators; K3 has eigenvalues 2 (E = J/3) and -1 (E = I - J/3)
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for x, w_num, w_den, diag, off in (
        (k3, [0, 0, 0, 1], [1], Fraction(4, 9), Fraction(7, 9)),
        (k3, [0, 0, 0, 1], [2, 0, 1], 0, Fraction(1, 9)),
        (path(2), [0, 1, 0, 0, 1], [1], HALF, HALF),
    ):
        got = weighted_projector_schur_sum(x, w_num, w_den)
        assert got == [[diag if u == v else off for v in range(x.n)] for u in range(x.n)]
    with pytest.raises(DomainError):
        weighted_projector_schur_sum(path(2), [1], [])


def test_psd_checker():
    assert is_psd_exact([[2, 1], [1, 2]])
    assert not is_psd_exact([[1, 2], [2, 1]])
    assert is_psd_exact([[0, 0], [0, 1]])
    assert not is_psd_exact([[0, 1], [1, 0]])
    assert not is_psd_exact([[-1]])


def test_serialization_roundtrip():
    m = average_mixing_exact(path(3)).matrix
    assert rat_matrix_to_csv(m) == "3/8,1/4,3/8\n1/4,1/2,1/4\n3/8,1/4,3/8\n"
    row = '[{"num": 3, "den": 8}, {"num": 1, "den": 4}, {"num": 3, "den": 8}]'
    mid = '[{"num": 1, "den": 4}, {"num": 1, "den": 2}, {"num": 1, "den": 4}]'
    assert rat_matrix_to_json(m) == f"[{row}, {mid}, {row}]"
    assert "1/2" in rat_matrix_to_csv(average_mixing_exact(path(2)).matrix)
