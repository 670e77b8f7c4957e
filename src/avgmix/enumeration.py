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
"""

from __future__ import annotations

import functools
import heapq
import random
from collections.abc import Iterator, Sequence

from .graphs import Tree

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
