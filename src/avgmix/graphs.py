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
        """Adjacency lists, each sorted ascending."""
        nbr = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        for lst in nbr:
            lst.sort()
        return nbr

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        nbr = self.neighbors()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in nbr[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comp.sort()
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def delete_vertex(self, u: int) -> "Graph":
        """Induced subgraph on V minus u, remaining vertices relabelled in order."""
        if not 0 <= u < self.n:
            raise GraphInputError(f"vertex {u} out of range")
        if self.n == 1:
            raise GraphInputError("cannot delete the only vertex")
        relabel = [v if v < u else v - 1 for v in range(self.n)]
        edges = [(relabel[a], relabel[b]) for a, b in self.edges if a != u and b != u]
        return Graph(self.n - 1, tuple(edges))

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
    """A Graph that is verified connected and acyclic at construction."""

    def __post_init__(self):
        super().__post_init__()
        if self.m != self.n - 1:
            raise GraphInputError(f"tree on {self.n} vertices needs {self.n - 1} edges, got {self.m}")
        if not self.is_connected():
            raise GraphInputError("tree input is disconnected")


def from_edges(n: int, edges) -> Graph:
    return Graph(n, tuple(edges))


def star(m: int) -> Tree:
    """Star on m vertices with vertex 0 as the center."""
    if m < 1:
        raise GraphInputError("star needs at least one vertex")
    return Tree(m, tuple((0, i) for i in range(1, m)))


def path(m: int) -> Tree:
    """Path 0 - 1 - ... - m-1."""
    if m < 1:
        raise GraphInputError("path needs at least one vertex")
    return Tree(m, tuple((i, i + 1) for i in range(m - 1)))


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
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, tuple(edges))
