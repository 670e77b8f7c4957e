import random

import pytest

from avgmix.enumeration import enumerate_trees
from avgmix.errors import DomainError, GraphInputError
from avgmix.exact import walk_rank
from avgmix.graphs import (
    Graph,
    Tree,
    from_edges,
    parse_edge_list,
    path,
    rooted_product_k2,
    star,
    write_edge_list,
)
from avgmix.matchings import (
    _forest,
    forest_matching_counts,
    kernel_basis,
    leaf_matching,
    matching_number,
    nonzero_eigenvalues_simple,
)


def test_constructors():
    s = star(4)
    assert sorted(s.degrees()) == [1, 1, 1, 3]
    assert s.degrees()[0] == 3  # vertex 0 is the center
    assert path(2).edges == ((0, 1),)
    p = path(4)
    assert p.edges == ((0, 1), (1, 2), (2, 3))
    assert path(1).m == 0 and star(1).m == 0
    # both are built from parent arrays, and equal the edge-list route
    for m in range(1, 9):
        assert path(m) == Tree(m, tuple((i, i + 1) for i in range(m - 1))), m
        assert star(m) == Tree(m, tuple((0, i) for i in range(1, m))), m


def test_edge_normalization_and_errors():
    g = from_edges(3, [(2, 0), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    with pytest.raises(GraphInputError):
        from_edges(2, [(0, 0)])
    with pytest.raises(GraphInputError):
        from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphInputError):
        from_edges(2, [(0, 2)])
    with pytest.raises(GraphInputError):
        Graph(0, ())
    with pytest.raises(GraphInputError):
        Tree(3, ((0, 1),))
    with pytest.raises(GraphInputError):
        Tree(4, ((0, 1), (2, 3), (0, 2), (1, 3)))


def test_adjacency_is_symmetric_01_zero_diagonal():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    a = g.adjacency()
    for i in range(4):
        assert a[i][i] == 0
        for j in range(4):
            assert a[i][j] == a[j][i]
            assert a[i][j] in (0, 1)


def test_rooted_product_block_structure():
    # single vertex -> single edge
    assert rooted_product_k2(path(1)).edges == ((0, 1),)
    x = star(3)
    y = rooted_product_k2(x)
    assert y.n == 2 * x.n and y.m == x.m + x.n
    a = y.adjacency()
    for i in range(x.n):
        for j in range(x.n):
            assert a[i][x.n + j] == (1 if i == j else 0)
            assert a[x.n + i][x.n + j] == 0
    assert isinstance(y, Tree)


def test_delete_and_induced():
    p = path(4)
    assert p.delete_vertex(0).edges == ((0, 1), (1, 2))
    assert p.delete_vertex(1).edges == ((1, 2),)
    assert p.induced([0, 1, 3]).edges == ((0, 1),)
    with pytest.raises(GraphInputError):
        path(1).delete_vertex(0)


def test_components_and_forest():
    g = from_edges(5, [(0, 1), (2, 3)])
    order, parent = g.spanning_forest()
    assert sorted(order) == list(range(5))
    assert [v for v in order if parent[v] == -1] == [0, 2, 4]
    assert all(order.index(parent[v]) < order.index(v) for v in order if parent[v] != -1)
    assert not g.is_connected()
    nbr = from_edges(5, [(4, 0), (3, 0), (2, 4), (1, 0)]).neighbors()
    assert nbr == [[1, 3, 4], [0], [4], [0], [0, 2]]


def _parent_first(order, parent):
    at = {v: i for i, v in enumerate(order)}
    return sorted(order) == list(range(len(parent))) and all(
        at[p] < at[v] for v, p in enumerate(parent) if p >= 0
    )


def _increasing(g):
    """No vertex is the larger end of two edges: the edge route's condition."""
    larger = [v for _, v in g.edges]
    return len(set(larger)) == len(larger)


def test_spanning_forest_routes_agree():
    # the edge route against the depth-first one on the same trees: every
    # enumerated tree has increasing labels and is read off its edges
    # (order range(n)); a relabelling with some vertex the larger end of two
    # edges takes the depth-first route, whose preorder is then never
    # range(n), as a preorder range(n) would give every vertex one smaller
    # neighbour
    rng = random.Random(25)
    relabelled = 0
    for n in range(1, 12):
        for t in enumerate_trees(n):
            order, parent = t.spanning_forest()
            assert order == list(range(n)) and _parent_first(order, parent)
            assert parent.count(-1) == 1
            if n < 3:
                continue  # every labelling of one edge is increasing
            perm = list(range(n))
            while True:
                rng.shuffle(perm)
                g = Tree(n, tuple((perm[u], perm[v]) for u, v in t.edges))
                if not _increasing(g):
                    break
            relabelled += 1
            order_g, parent_g = g.spanning_forest()
            assert order_g != list(range(n)) and _parent_first(order_g, parent_g)
            assert parent_g.count(-1) == 1
            counts = forest_matching_counts(t)
            assert forest_matching_counts(g) == counts
            assert matching_number(g) == matching_number(t) == len(counts) - 1
            if nonzero_eigenvalues_simple(counts):
                assert walk_rank(g, counts) == walk_rank(t, counts), t.edges
    assert relabelled == 436 - 2  # the trees of orders 1..11 but the two below 3
    # the greedy now matches a star's last leaf; the basis stays certified
    for m in range(2, 10):
        s = star(m)
        nu, pairs, _ = leaf_matching(s)
        assert pairs == [(m - 1, 0)]
        x, _ = kernel_basis(s, forest_matching_counts(s))
        k = m - 2 * nu
        assert all(len(row) == k for row in x)
        adj = s.adjacency()
        assert all(sum(a * xw[j] for a, xw in zip(row, x)) == 0 for row in adj for j in range(k))


def test_non_forests_keep_their_errors():
    for g in [from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)] + [
        from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    ]:
        with pytest.raises(DomainError):
            _forest(g)
    with pytest.raises(GraphInputError, match="disconnected"):
        Tree(4, [(0, 1), (1, 2), (0, 2)])
    # a forest whose labels are not increasing takes the depth-first route
    g = from_edges(3, [(0, 2), (1, 2)])
    order, parent = g.spanning_forest()
    assert order == [0, 2, 1] and parent == [-1, 2, 0]
    assert parent.count(-1) == path(3).spanning_forest()[1].count(-1) == 1
    assert _forest(g) == (order, parent)


def test_edge_list_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert parse_edge_list(write_edge_list(g)) == g
    with pytest.raises(GraphInputError):
        parse_edge_list("")
    for bad in ("3\n0 1 2\n", "3\n0 x\n", "3\n0 1.5\n"):
        with pytest.raises(GraphInputError, match="bad edge line"):
            parse_edge_list(bad)
