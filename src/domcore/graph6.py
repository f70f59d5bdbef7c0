"""Strict reader and writer for the graph6 encoding.

Covers graphs on 0..64 vertices, every order a Graph can have.  The
header is one byte chr(n + 63) for n <= 62, and for n = 63 or 64 the
byte "~" followed by n in three bytes of six bits each, high bits
first.  Then comes the upper triangle of the adjacency matrix in column
order ((0,1), (0,2), (1,2), (0,3), ...) packed six bits per printable
byte, each offset by 63.  Padding bits in the final byte must be zero;
the parser rejects bad headers, a long header for n <= 62 (not the
canonical form), wrong lengths, out-of-range bytes and nonzero padding
rather than guessing.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, GraphError, _derived


class Graph6Error(GraphError):
    """Raised for malformed graph6 text or out-of-range graphs."""


def _data_length(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def write_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = ["~", chr((g.n >> 12) + 63), chr((g.n >> 6 & 63) + 63), chr((g.n & 63) + 63)]
    group = 0
    filled = 0
    for col in range(1, g.n):
        for row in range(col):
            group = (group << 1) | ((g.adj[row] >> col) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string; raises Graph6Error on any deviation."""
    if not text:
        raise Graph6Error("empty graph6 string")
    values = []
    for i, ch in enumerate(text):
        code = ord(ch)
        if not 63 <= code <= 126:
            if code < 0x80:
                found = f"byte {code}"
            else:
                # the input's bytes: UTF-8, where a surrogate escape
                # (U+DC80..U+DCFF) is one byte that was not UTF-8, and any
                # other lone surrogate passes as its UTF-8 form
                escape = "surrogateescape" if 0xDC80 <= code <= 0xDCFF else "surrogatepass"
                raw = ch.encode("utf-8", escape)
                found = ("byte " if len(raw) == 1 else "bytes ") + " ".join(f"{b:#04x}" for b in raw)
            raise Graph6Error(f"{found} at position {i} outside graph6 range")
        values.append(code - 63)
    n = values[0]
    header = 1
    if n == 63:
        if values[1:2] == [63]:
            raise Graph6Error(f"the 8-byte graph6 header is for n far above {MAX_VERTICES}")
        if len(values) < 4:
            raise Graph6Error("truncated graph6 long header")
        n = values[1] << 12 | values[2] << 6 | values[3]
        if n <= 62:
            raise Graph6Error(f"long graph6 header for n={n}, which has a one-byte header")
        if n > MAX_VERTICES:
            raise Graph6Error(f"graph6 string for n={n} exceeds {MAX_VERTICES} vertices")
        header = 4
    expected = header + _data_length(n)
    if len(values) != expected:
        raise Graph6Error(
            f"graph6 string for n={n} must be {expected} bytes, got {len(values)}"
        )
    adj = [0] * n
    bit_index = 0
    data = values[header:]
    for col in range(1, n):
        for row in range(col):
            group = data[bit_index // 6]
            if (group >> (5 - bit_index % 6)) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit_index += 1
    if data:
        used = bit_index % 6
        if used and data[-1] & ((1 << (6 - used)) - 1):
            raise Graph6Error("nonzero padding bits in final graph6 byte")
    # well formed by construction (see graph._derived), so not validated again
    return _derived(n, tuple(adj))
