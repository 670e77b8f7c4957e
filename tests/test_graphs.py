import pytest

from avgmix.errors import GraphInputError
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


def test_constructors():
    s = star(4)
    assert sorted(s.degrees()) == [1, 1, 1, 3]
    assert s.degrees()[0] == 3  # vertex 0 is the center
    assert path(2).edges == ((0, 1),)
    p = path(4)
    assert p.edges == ((0, 1), (1, 2), (2, 3))
    assert path(1).m == 0 and star(1).m == 0


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
    assert g.components() == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()


def test_edge_list_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert parse_edge_list(write_edge_list(g)) == g
    with pytest.raises(GraphInputError):
        parse_edge_list("")
    with pytest.raises(GraphInputError):
        parse_edge_list("3\n0 1 2\n")
