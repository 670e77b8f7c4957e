"""Undirected simple graphs and trees on 0-based vertex labels.

Graphs are immutable after construction: edges are stored as a sorted tuple
of ordered pairs (u < v).  Everything downstream (enumeration workers,
census pools) relies on instances being safe to share and pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphInputError


def _normalize_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    seen = set()
    out = []
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge {e!r} out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphInputError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        out.append((u, v))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise GraphInputError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Dense 0/1 adjacency matrix."""
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return a

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists, each ascending with no sort: the edges are sorted
        pairs u < v, so v's list gets every smaller u (edges (u, v)) in
        order before every larger w (edges (v, w)) in order."""
        nbr = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return nbr

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def spanning_forest(self) -> tuple[list[int], list[int]]:
        """(order, parent) of one spanning forest, the order parent-first:
        every parent precedes its children.

        Each component's least vertex roots a tree (parent -1).  There is one
        root per connected component, and the graph is a forest exactly when
        m = n - (number of roots).  Two routes, by the labels:

          * edges: when no vertex is the larger end of two edges, each edge
            (u, v) is v's parent edge, and the order is range(n), as every
            parent is smaller than its children.  Such a graph is a forest,
            since a cycle's largest vertex has two smaller neighbours.  Trees
            from parent arrays (the enumerator's) and their graph6 parses
            take this route, with no adjacency lists and no traversal.
          * depth-first, for any other graph: every other vertex's parent is
            the vertex it was first reached from, and the order is a
            preorder, as a stack visits each subtree whole.

        In a forest both routes give each vertex its neighbour towards the
        component's least vertex as parent.  Computed on every call and
        never stored, so instances stay small to pickle.
        """
        parent = [-1] * self.n
        for u, v in self.edges:
            if parent[v] >= 0:
                break
            parent[v] = u
        else:
            return list(range(self.n)), parent
        nbr = self.neighbors()
        parent = [-2] * self.n  # -2: not reached yet
        order = []
        for root in range(self.n):
            if parent[root] != -2:
                continue
            parent[root] = -1
            stack = [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for w in nbr[v]:
                    if parent[w] == -2:
                        parent[w] = v
                        stack.append(w)
        return order, parent

    def is_connected(self) -> bool:
        return self.spanning_forest()[1].count(-1) == 1

    def delete_vertex(self, u: int) -> "Graph":
        """Induced subgraph on V minus u, remaining vertices relabelled in order."""
        if not 0 <= u < self.n:
            raise GraphInputError(f"vertex {u} out of range")
        return self.induced(v for v in range(self.n) if v != u)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph on the given vertices, relabelled in sorted order."""
        keep = sorted(set(vertices))
        if not keep:
            raise GraphInputError("induced subgraph needs at least one vertex")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise GraphInputError("induced vertex out of range")
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [
            (relabel[a], relabel[b])
            for a, b in self.edges
            if a in relabel and b in relabel
        ]
        return Graph(len(keep), tuple(edges))


@dataclass(frozen=True)
class Tree(Graph):
    """A Graph that is verified connected and acyclic at construction.

    Two constructors, one result: equal, equally hashed and pickled the
    same for the same tree.  `Tree(n, edges)` takes any edge list and runs
    the full check (edge normalisation, then n - 1 edges and one spanning
    forest for connectivity); graph6 and edge-list input, t*
    included, `random_tree` and `rooted_product_k2` go through it.
    `Tree.from_parents(parent)` takes a parent array and is checked in
    O(n) with no traversal; the enumerator and `path` and `star` use it.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.m != self.n - 1:
            raise GraphInputError(f"tree on {self.n} vertices needs {self.n - 1} edges, got {self.m}")
        if not self.is_connected():
            raise GraphInputError("tree input is disconnected")

    @classmethod
    def from_parents(cls, parent) -> "Tree":
        """The tree with edges (parent[v], v), v >= 1, for parent[0] = -1.

        Every other entry must be an int with 0 <= parent[v] < v, or
        `GraphInputError` is raised.  That check is the certificate: it
        gives n - 1 distinct edges, and each vertex reaches the root 0
        through ever smaller labels, so the graph is connected.  The
        sorted edge tuple is set directly, without `__post_init__`.
        """
        n = len(parent)
        if n == 0 or parent[0] != -1:
            raise GraphInputError(f"parent array must start with the root's -1, got {parent[:1]!r}")
        edges = []
        for v in range(1, n):
            p = parent[v]
            if type(p) is not int or not 0 <= p < v:
                raise GraphInputError(f"parent[{v}] = {p!r} is not a vertex below {v}")
            edges.append((p, v))
        edges.sort()
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "edges", tuple(edges))
        return t


def from_edges(n: int, edges) -> Graph:
    return Graph(n, tuple(edges))


def star(m: int) -> Tree:
    """Star on m vertices with vertex 0 as the center."""
    if m < 1:
        raise GraphInputError("star needs at least one vertex")
    return Tree.from_parents([-1] + [0] * (m - 1))


def path(m: int) -> Tree:
    """Path 0 - 1 - ... - m-1."""
    if m < 1:
        raise GraphInputError("path needs at least one vertex")
    return Tree.from_parents(list(range(-1, m - 1)))


def rooted_product_k2(x: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of x.

    Vertices 0..n-1 are the originals, vertex n+i is the pendant hanging
    from vertex i, so the adjacency matrix has the block form
    [[A, I], [I, 0]].  Applied to a tree the result is again a tree.
    """
    n = x.n
    edges = list(x.edges) + [(i, n + i) for i in range(n)]
    if isinstance(x, Tree):
        return Tree(2 * n, tuple(edges))
    return Graph(2 * n, tuple(edges))


def write_edge_list(g: Graph) -> str:
    """Plain text fixture format: first line n, then one "u v" line per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphInputError("empty edge-list text")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphInputError(f"bad vertex count line {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:  # a wrong field count or a non-integer endpoint
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphInputError(f"bad edge line {ln!r}: need two integer endpoints") from None
        edges.append((u, v))
    return Graph(n, tuple(edges))
