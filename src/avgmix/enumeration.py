"""Isomorph-free generation of free trees.

A rooted tree is encoded by its depth sequence: depths of the vertices in
preorder, root depth 0, with the subtrees of every vertex listed in
non-increasing order of their own sequences.  That encoding is a canonical
form, so generating only encodings in canonical order produces exactly one
representative per isomorphism class with no post-filtering.

Free trees are reduced to rooted ones through the centroid:

  * one centroid: root there; equivalently, pick a multiset of rooted
    subtrees with sizes summing to n-1, each of size <= floor((n-1)/2);
  * two centroids (n even): an unordered pair t1 >= t2 of rooted trees on
    n/2 vertices joined root to root.  Rooted at the first centroid, with
    the second as its child, that is the one depth sequence t1 followed by
    t2 with every depth raised by one.

The two cases are disjoint and cover everything, so each isomorphism class
appears exactly once.  Output order is deterministic.

A depth sequence is a preorder, so each vertex's parent is the latest
vertex one level up, and always has a smaller label.  Trees leave as that
parent array through `Tree.from_parents`, whose O(n) check
(0 <= parent[i] < i) already proves a tree, so the enumerator never
re-normalises edges or traverses what it built.  The array is assembled
from its subtrees: a rooted sequence placed at an offset, hanging from
vertex 0, always contributes the same run of entries, so each such run is
built once and cached (`_placed`).  Labels that grow away from the root
also let `Graph.spanning_forest` read every enumerated tree off its edges.

The matching DP's state composes the same way.  Each canonical rooted
sequence caches its pair (A, F) of matching-count vectors
(`_matching_state`), folded from its children's pairs by
`matchings.fold_child`.  `enumerate_tree_keys` walks the same trees in the
same order without building them: it yields each tree's subtrees (its key)
and its matching number, read off the cached pairs in integer operations.
`tree_from_key` and `matching_counts_from_key` then build the tree and fold
its counts at the root only for the keys a caller keeps, as the 18-vertex
scan does for the 2.3 % of trees that pass its matching-number prefilter.
"""

from __future__ import annotations

import functools
import heapq
import random
from collections.abc import Iterator, Sequence

from .graphs import Tree
from .matchings import fold_child

Seq = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _rooted_sequences(size: int) -> tuple[Seq, ...]:
    """All canonical depth sequences of rooted trees on `size` vertices."""
    if size == 1:
        return ((0,),)
    out = []
    for forest in _forests(size - 1, size - 1, None):
        seq = [0]
        for sub in forest:
            seq.extend(d + 1 for d in sub)
        out.append(tuple(seq))
    return tuple(out)


def _forests(total: int, max_size: int, bound: Seq | None) -> Iterator[tuple[Seq, ...]]:
    """Multisets of canonical rooted sequences, listed non-increasingly.

    Every member has at most `max_size` vertices and sequence <= `bound`
    (the preceding sibling); sizes sum to `total`.
    """
    if total == 0:
        yield ()
        return
    for s in range(min(total, max_size), 0, -1):
        for t in _rooted_sequences(s):
            if bound is not None and t > bound:
                continue
            for rest in _forests(total - s, max_size, t):
                yield (t,) + rest


def _sequence_to_parents(seq: Sequence[int]) -> list[int]:
    """Parent array of the rooted tree encoded by a depth sequence.

    The vertex at preorder position i and depth d > 0 hangs from the
    latest vertex seen at depth d - 1; the root's entry is -1.
    """
    chain = [0] * len(seq)  # chain[d] = latest vertex seen at depth d
    parent = [-1] * len(seq)
    for i in range(1, len(seq)):
        d = seq[i]
        parent[i] = chain[d - 1]
        chain[d] = i
    return parent


@functools.lru_cache(maxsize=None)
def _placed(sub: Seq, offset: int) -> tuple[int, ...]:
    """Parent entries of the rooted tree `sub` placed at positions offset,
    offset + 1, ... of a depth sequence with every depth raised by one, so
    that its root hangs from vertex 0: the entries `_sequence_to_parents`
    gives those positions."""
    return (0,) + tuple(offset + p for p in _sequence_to_parents(sub)[1:])


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Yield one representative of every free tree on n vertices.

    Deterministic order; the stream may be chunked by index for parallel
    consumers.  Orders 1 and 2 need no case of their own: one vertex roots
    the empty forest, and one edge is the bicentroidal pair of vertices.
    Each parent array is the one `_sequence_to_parents` gives the tree's
    depth sequence, assembled from the cached runs of its subtrees.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for forest in _forests(n - 1, (n - 1) // 2, None):
        parent = [-1]
        for sub in forest:
            parent += _placed(sub, len(parent))
        yield Tree.from_parents(parent)
    if n % 2 == 0:
        half = n // 2
        halves = _rooted_sequences(half)
        for t1 in halves:
            first = tuple(_sequence_to_parents(t1))
            for t2 in halves:
                if t2 <= t1:
                    yield Tree.from_parents(first + _placed(t2, half))


@functools.lru_cache(maxsize=None)
def _children(seq: Seq) -> tuple[Seq, ...]:
    """The root's subtrees of a depth sequence, in order, each as a depth
    sequence of its own: the runs that start at depth 1, lowered by one."""
    starts = [i for i, d in enumerate(seq) if d == 1] + [len(seq)]
    return tuple(tuple(d - 1 for d in seq[a:b]) for a, b in zip(starts, starts[1:]))


def _fold(children: Sequence[Seq]) -> tuple[list[int], list[int]]:
    """(A, F) of a root whose subtrees are `children`, folded in order."""
    a = f = [1]
    for c in children:
        a, f = fold_child(a, f, *_matching_state(c))
    return a, f


@functools.lru_cache(maxsize=None)
def _matching_state(seq: Seq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The matching DP's pair (A, F) of the rooted tree `seq`: the counts of
    its k-edge matchings, and of those leaving its root free.  One entry per
    canonical sequence; about 500 cover the subtrees of order 18."""
    a, f = _fold(_children(seq))
    return tuple(a), tuple(f)


def enumerate_tree_keys(n: int) -> Iterator[tuple[tuple[Seq, ...], int]]:
    """Yield (key, nu) for every free tree on n vertices, in the order of
    `enumerate_trees(n)`, without building the trees.

    The key is the centroid forest, or the bicentroidal pair (t1, t2); nu
    is the tree's matching number.  `tree_from_key(n, key)` is the tree
    `enumerate_trees(n)` yields at the same place, and
    `matching_counts_from_key(n, key)` its matching counts.

    nu comes from the subtrees' cached pairs in integer operations.  For a
    rooted tree c let nu(c) = len(A_c) - 1 be its matching number and
    nu_F(c) = len(F_c) - 1 the largest matching leaving its root free.
    Then nu_F(c) is nu(c) or nu(c) - 1: deleting the root's edge from a
    maximum matching leaves one that avoids the root.  A maximum matching
    of a tree rooted at r with subtrees c_i either leaves r free, with
    sum nu(c_i) edges, or matches r to some c_j, with
    1 + nu_F(c_j) + sum over i != j of nu(c_i) edges.  So

        nu = sum nu(c_i) + [some child has nu_F(c_j) = nu(c_j)]

    (that is, len F_c = len A_c): r is matched exactly when some child can
    leave its own root free at no cost.  Likewise a maximum matching of a
    bicentroidal pair either avoids the edge between the two roots, with
    nu(t1) + nu(t2) edges, or uses it, with 1 + nu_F(t1) + nu_F(t2), so

        nu = nu(t1) + nu(t2) + [both roots free].
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for forest in _forests(n - 1, (n - 1) // 2, None):
        nu = 0
        root_matched = False
        for sub in forest:
            a, f = _matching_state(sub)
            nu += len(a) - 1
            root_matched |= len(f) == len(a)
        yield forest, nu + root_matched
    if n % 2 == 0:
        halves = _rooted_sequences(n // 2)
        for t1 in halves:
            a1, f1 = _matching_state(t1)
            for t2 in halves:
                if t2 <= t1:
                    a2, f2 = _matching_state(t2)
                    both_free = len(f1) == len(a1) and len(f2) == len(a2)
                    yield (t1, t2), len(a1) + len(a2) - 2 + both_free


def _root_subtrees(n: int, key: tuple[Seq, ...]) -> tuple[Seq, ...]:
    """The subtrees at vertex 0 of the tree with this key: the centroid
    forest itself, or, for a bicentroidal pair (t1, t2), t1's subtrees
    followed by t2.  Members of a centroid forest have fewer than n/2
    vertices, and the halves of a pair exactly n/2."""
    if key and 2 * len(key[0]) == n:
        return _children(key[0]) + key[1:]
    return key


def tree_from_key(n: int, key: tuple[Seq, ...]) -> Tree:
    """The tree of an `enumerate_tree_keys(n)` item, equal to the one
    `enumerate_trees(n)` yields at the same place, down to its pickled
    bytes: its parent array is assembled from the same cached runs."""
    parent = [-1]
    for sub in _root_subtrees(n, key):
        parent += _placed(sub, len(parent))
    return Tree.from_parents(parent)


def matching_counts_from_key(n: int, key: tuple[Seq, ...]) -> list[int]:
    """The matching counts of the tree of an `enumerate_tree_keys(n)` item,
    equal to `matchings.forest_matching_counts` of `tree_from_key(n, key)`:
    one fold at vertex 0 over its subtrees' cached pairs."""
    return _fold(_root_subtrees(n, key))[0]


def free_tree_count(n: int) -> int:
    """Number of free trees on n vertices, in exact integers.

    The rooted counts r come from Cayley's recurrence
    (m - 1) r(m) = sum_{k<m} (sum_{d | k} d r(d)) r(m - k), and Otter's
    formula (Ann. Math. 1948), the coefficient of x^n in
    r(x) - (r(x)^2 - r(x^2)) / 2, gives the free ones.  An independent
    check on `enumerate_trees(n)`.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    r = [0, 1]
    a = [0, 1]  # a[k] = sum_{d | k} d r(d)
    for m in range(2, n + 1):
        r.append(sum(a[k] * r[m - k] for k in range(1, m)) // (m - 1))
        a.append(sum(d * r[d] for d in range(1, m + 1) if m % d == 0))
    pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
    return r[n] - pairs // 2


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return Tree(1, ())
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, tuple(edges))
