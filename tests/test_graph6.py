import random

import pytest

from avgmix.enumeration import random_tree
from avgmix.errors import Graph6Error
from avgmix.graph6 import parse_graph6, write_graph6
from avgmix.graphs import from_edges, path, star


def test_hand_encoded_two_vertex_graph():
    # n=2 -> 'A' (63+2); single upper-triangle bit set, padded: 100000 -> 63+32='_'
    assert write_graph6(path(2)) == "A_"
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_small_fixtures():
    assert write_graph6(path(1)) == "@"
    assert parse_graph6("@").n == 1
    assert parse_graph6(write_graph6(star(4))).edges == star(4).edges


def test_roundtrip_random_trees():
    rng = random.Random(424242)
    for _ in range(1000):
        t = random_tree(rng.randint(1, 20), rng)
        s = write_graph6(t)
        back = parse_graph6(s)
        assert back.n == t.n and back.edges == t.edges
        assert write_graph6(back) == s


def test_large_vertex_count_header():
    g = from_edges(100, [(0, 99)])
    back = parse_graph6(write_graph6(g))
    assert back.n == 100 and back.edges == ((0, 99),)


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("A" + chr(30))
    assert ei.value.offset == 1
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("")
    assert ei.value.offset == 0
    for text in ("A\u00e9", "B\u20ac"):  # non-ASCII, not replaced by a valid "?"
        with pytest.raises(Graph6Error) as ei:
            parse_graph6(text)
        assert ei.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("D_")  # n=5 needs two body bytes
    with pytest.raises(Graph6Error):
        parse_graph6("A_?")  # trailing bytes
