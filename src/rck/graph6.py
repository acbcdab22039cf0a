"""graph6 codec: printable ASCII lines for small undirected graphs.

One graph per line.  The first byte is 63+n (n <= 62).  The upper triangle
of the adjacency matrix follows in column order x(0,1), x(0,2), x(1,2),
x(0,3), ..., padded with zero bits to a multiple of 6, each 6-bit group
stored as its value plus 63.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, unchecked_graph

HEADER = ">>graph6<<"


def pack_graph6(n: int, word: int) -> str:
    """The graph6 line of an n-vertex graph whose upper-triangle bits, in
    column order with the first bit highest, form word."""
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    word <<= 6 * groups - nbits
    body = [chr(63 + (word >> 6 * i & 63)) for i in range(groups - 1, -1, -1)]
    return chr(63 + n) + "".join(body)


def to_graph6(g: Graph) -> str:
    adj = g.adj
    word = 0
    for v in range(1, g.n):
        # Column v holds rows 0..v-1, row 0 highest.
        column = 0
        rows = adj[v] & ((1 << v) - 1)
        while rows:
            low = rows & -rows
            column |= 1 << (v - low.bit_length())
            rows ^= low
        word = word << v | column
    return pack_graph6(g.n, word)


def parse_graph6(line: str) -> Graph:
    """Parse one graph6 line; strict about length, padding, and size limits."""
    text = line.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    if not text:
        raise ValueError("empty graph6 line")
    first = ord(text[0])
    if first == 126:
        raise ValueError("multi-byte graph6 sizes exceed the 32-vertex limit")
    n = first - 63
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    body = text[1:]
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}"
        )
    word = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        word = word << 6 | val
    pad = 6 * expect - nbits
    if word & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 line")
    # Column v is the next v bits after column v-1, row 0 highest, so the
    # last column is the lowest: peel columns off the low end.
    word >>= pad
    adj = [0] * n
    for v in range(n - 1, 0, -1):
        column = word & ((1 << v) - 1)
        word >>= v
        while column:
            low = column & -column
            u = v - low.bit_length()
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            column ^= low
    return unchecked_graph(n, tuple(adj))
