"""graph6 text codec.

The format packs the upper triangle of the adjacency matrix, read column by
column ((0,1), (0,2), (1,2), (0,3), ...), into 6-bit groups, each stored as
one printable byte with offset 63.  A header encodes the vertex count: one
byte for n <= 62, otherwise 126 followed by a 3-group (n <= 258047) or
126 126 followed by a 6-group.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graphs import Graph


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = [63 + n]
    elif n <= 258047:
        header = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        header = [126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)]
    adj = set(g.edges)
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        body.append(63 + val)
    return bytes(header + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {s[exc.start]!r}", exc.start) from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"non-printable or out-of-range byte {bytes([b])!r}", i)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise Graph6Error("truncated 8-byte vertex count header", len(data))
            n = 0
            for b in data[2:8]:
                n = (n << 6) | (b - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise Graph6Error("truncated 4-byte vertex count header", len(data))
            n = 0
            for b in data[1:4]:
                n = (n << 6) | (b - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n < 1:
        raise Graph6Error(f"vertex count {n} out of range", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} body bytes for n={n}, found {len(data) - pos}", pos,
        )
    bits = []
    for b in data[pos:]:
        val = b - 63
        for s_ in range(5, -1, -1):
            bits.append((val >> s_) & 1)
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6Error("nonzero padding bit", pos + i // 6)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, tuple(edges))
