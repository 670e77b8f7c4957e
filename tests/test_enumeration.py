import hashlib
import itertools
import pickle
import random

import pytest

from avgmix.enumeration import (
    _forests,
    _rooted_sequences,
    _sequence_to_parents,
    enumerate_tree_keys,
    enumerate_trees,
    free_tree_count,
    matching_counts_from_key,
    random_tree,
    tree_from_key,
)
from avgmix.errors import GraphInputError
from avgmix.graph6 import parse_graph6, write_graph6
from avgmix.graphs import Tree
from avgmix.matchings import forest_matching_counts, matching_number
from avgmix.reference_data import REFERENCE_RANK_TABLE
from avgmix.rooted_family import TSTAR_GRAPH6

# Per-order totals of the published census tables (equal to the standard
# unlabelled-tree counts).
TABLE_TOTALS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159,
}


def test_counts_match_published_totals():
    for n, expected in TABLE_TOTALS.items():
        if n <= 12:
            assert sum(1 for _ in enumerate_trees(n)) == expected, n


def test_free_tree_count_matches_published_totals():
    assert free_tree_count(1) == 1
    for n, rows in REFERENCE_RANK_TABLE.items():
        assert free_tree_count(n) == sum(trees for _, trees, _ in rows), n
    assert free_tree_count(21) == 2_144_505 and free_tree_count(22) == 5_623_756
    with pytest.raises(ValueError):
        free_tree_count(0)


def test_single_vertex_and_examples():
    for n, expected in ((1, 1), (4, 2), (10, 106)):
        assert sum(1 for _ in enumerate_trees(n)) == expected, n


def test_every_output_is_a_valid_tree():
    # the enumerator builds trees with Tree.from_parents, which skips
    # __post_init__: each must be the tree the validating constructor
    # builds from its edges, on orders 1..14 and the benchmark's order-18
    # scan window
    streams = [(n, enumerate_trees(n)) for n in range(1, 15)]
    streams.append((18, itertools.islice(enumerate_trees(18), 34_816)))
    for n, trees in streams:
        for t in trees:
            ref = Tree(n, t.edges)
            assert type(t) is Tree and t == ref and hash(t) == hash(ref)
            assert type(t.edges) is tuple and list(t.edges) == sorted(t.edges)
            assert all(type(e) is tuple and 0 <= e[0] < e[1] < n for e in t.edges)
            assert t.is_connected()
            assert pickle.dumps(t) == pickle.dumps(ref) and pickle.loads(pickle.dumps(t)) == t


def _depth_sequences(n):
    """The depth sequences of the order-n trees, in enumeration order: the
    centroid's forests under a new root, then the bicentroidal pairs."""
    for forest in _forests(n - 1, (n - 1) // 2, None):
        seq = [0]
        for sub in forest:
            seq.extend(d + 1 for d in sub)
        yield seq
    if n % 2 == 0:
        halves = _rooted_sequences(n // 2)
        for t1 in halves:
            for t2 in halves:
                if t2 <= t1:
                    yield t1 + tuple(d + 1 for d in t2)


def test_cached_placements_match_the_depth_sequence_route():
    # each parent array assembled from cached subtree placements is the one
    # the depth sequence gives, down to the pickled bytes, on orders 1..16
    for n in range(1, 17):
        got = enumerate_trees(n)
        for seq in _depth_sequences(n):
            ref = Tree.from_parents(_sequence_to_parents(seq))
            assert pickle.dumps(next(got)) == pickle.dumps(ref), (n, seq)
        assert next(got, None) is None, n


def test_from_parents_rejects_non_trees():
    assert Tree.from_parents([-1]) == Tree(1, ())
    assert Tree.from_parents((-1, 0, 1, 0)).edges == ((0, 1), (0, 3), (1, 2))
    for bad in ([], [0, 0], [-1, 1], [-1, 0, -1], [-1, 5], [-1, 0.0], [-1, True], [-1, "0"]):
        with pytest.raises(GraphInputError):
            Tree.from_parents(bad)


def _isomorphic_bruteforce(a: Tree, b: Tree) -> bool:
    ea = set(a.edges)
    for perm in itertools.permutations(range(b.n)):
        eb = {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges}
        if eb == ea:
            return True
    return False


def test_pairwise_nonisomorphic_small_orders():
    # independent oracle: exhaustive permutation check
    for n in range(1, 8):
        trees = list(enumerate_trees(n))
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                assert not _isomorphic_bruteforce(trees[i], trees[j]), (n, i, j)


def test_deterministic_order_and_index_partitioning():
    first = [t.edges for t in enumerate_trees(9)]
    second = [t.edges for t in enumerate_trees(9)]
    assert first == second
    # parallel consumers partition by index ranges
    mid = len(first) // 2
    shard_a = [t.edges for i, t in enumerate(enumerate_trees(9)) if i < mid]
    shard_b = [t.edges for i, t in enumerate(enumerate_trees(9)) if i >= mid]
    assert shard_a + shard_b == first
    # the order itself is frozen: the stream of orders 1..14 as graph6 lines,
    # and the index of the order-18 tree t* on which the benchmark's scan
    # window and the order-18 sample depend
    stream = "\n".join(write_graph6(t) for n in range(1, 15) for t in enumerate_trees(n))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "b2f2c495d1c5678cb63db6cc57a984f0eb9c0e5ba7e1a9056075fd3bb809c22d"
    )
    tstar = parse_graph6(TSTAR_GRAPH6).edges
    assert next(i for i, t in enumerate(enumerate_trees(18)) if t.edges == tstar) == 33_973


def test_key_stream_matches_the_tree_stream():
    # every key's matching number against greedy leaf matching, its built
    # tree against enumerate_trees' tree down to the pickled bytes, and its
    # folded counts against the matching DP: on orders 1..14 for every
    # tree, and on the benchmark's order-18 scan window for the counts of
    # the trees that pass the scan's prefilter
    streams = [(n, enumerate_trees(n), enumerate_tree_keys(n), 0) for n in range(1, 15)]
    window = 34_816
    streams.append((18, itertools.islice(enumerate_trees(18), window),
                    itertools.islice(enumerate_tree_keys(18), window), 17))
    for n, trees, keys, counted_from in streams:
        folded = 0
        for t, (key, nu) in zip(trees, keys, strict=True):
            assert nu == matching_number(t), (n, key)
            built = tree_from_key(n, key)
            assert built == t and hash(built) == hash(t), (n, key)
            assert pickle.dumps(built) == pickle.dumps(t), (n, key)
            if 2 * nu >= counted_from:  # every tree below order 15
                assert matching_counts_from_key(n, key) == forest_matching_counts(t), (n, key)
                folded += 1
        if n == 18:
            assert folded == 1_218


def test_rejects_nonpositive():
    for stream in (enumerate_trees, enumerate_tree_keys):
        with pytest.raises(ValueError):
            next(stream(0))


def test_random_tree_is_tree():
    rng = random.Random(7)
    for _ in range(200):
        t = random_tree(rng.randint(1, 30), rng)
        assert t.m == t.n - 1 and t.is_connected()
