"""Plain-text formats for hypergraphs (.uhg) and edge colorings (.col).

.uhg:  header line ``uhg <n> <k>``; every following non-empty line is one
edge given as k ascending 1-based vertex indices separated by single
spaces.  Lines starting with ``#`` are comments.

.col:  header line ``col <n> <k> <L>``; every following line is
``v1 ... vk c`` with a color c in 1..L.  The colored edges must form the
host's edge set exactly.

Writers emit canonical, byte-deterministic output (edges in lexicographic
order, LF newlines); reading back a written file reproduces the object.
"""

from __future__ import annotations

import os
from typing import Iterator

from .hypergraph import Edge, EdgeColoring, UniformHypergraph, _canonical_edge

__all__ = [
    "FormatError",
    "read_hypergraph",
    "write_hypergraph",
    "read_coloring",
    "write_coloring",
]


class FormatError(ValueError):
    """Parse failure; the message names the offending file and line."""

    def __init__(self, path: str | os.PathLike, lineno: int, message: str):
        self.path = os.fspath(path)
        self.lineno = lineno
        super().__init__(f"{self.path}:{lineno}: {message}")


def _content_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    # surrogateescape turns each byte that is not UTF-8 into a lone
    # surrogate, which re-encoding finds, so the error can name its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise FormatError(
                    path, lineno, f"byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
                ) from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(path, lineno, f"{what}: {token!r} is not an integer") from None


# what each header field is called in error messages
_HEADER_FIELDS = {"<n>": "vertex count", "<k>": "uniformity", "<L>": "color count"}


def _read_header(path, lines, spec: str) -> tuple[int, list[int]]:
    """Parse the first content line against `spec`, e.g. ``uhg <n> <k>``;
    returns its line number and its integer fields."""
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError(path, 1, f"missing '{spec}' header") from None
    tokens, fields = header.split(), spec.split()
    if len(tokens) != len(fields) or tokens[0] != fields[0]:
        raise FormatError(path, lineno, f"malformed header {header!r}, expected '{spec}'")
    return lineno, [
        _parse_int(tok, path, lineno, _HEADER_FIELDS[field])
        for tok, field in zip(tokens[1:], fields[1:])
    ]


def _parse_edge(tokens: list[str], n: int, k: int, path, lineno: int) -> Edge:
    verts = tuple(_parse_int(tok, path, lineno, "vertex") for tok in tokens)
    try:
        edge = _canonical_edge(verts, k, n)
    except ValueError as exc:
        raise FormatError(path, lineno, str(exc)) from None
    if edge != verts:
        raise FormatError(path, lineno, "vertices must be strictly ascending")
    return edge


def read_hypergraph(path: str | os.PathLike) -> UniformHypergraph:
    """Parse a .uhg file; raises FormatError naming the offending line."""
    lines = _content_lines(path)
    lineno, (n, k) = _read_header(path, lines, "uhg <n> <k>")
    if n < 0 or k < 2:
        raise FormatError(path, lineno, f"need n >= 0 and k >= 2, got n={n}, k={k}")
    edges: dict[Edge, int] = {}
    for lineno, line in lines:
        edge = _parse_edge(line.split(), n, k, path, lineno)
        if edge in edges:
            raise FormatError(path, lineno, f"duplicate edge (first at line {edges[edge]})")
        edges[edge] = lineno
    return UniformHypergraph._from_canonical(n, k, tuple(sorted(edges)))


def write_hypergraph(H: UniformHypergraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"uhg {H.n} {H.k}\n")
        for edge in H.edges:
            fh.write(" ".join(map(str, edge)) + "\n")


def read_coloring(
    path: str | os.PathLike, host: UniformHypergraph | None = None
) -> EdgeColoring:
    """Parse a .col file.

    When `host` is given, the file must color the host's edge set exactly
    (same n, k, and edges); otherwise the host is reconstructed from the
    colored edges themselves.
    """
    lines = _content_lines(path)
    lineno, (n, k, num_colors) = _read_header(path, lines, "col <n> <k> <L>")
    if n < 0 or k < 2 or num_colors < 1:
        raise FormatError(path, lineno, "need n >= 0, k >= 2 and L >= 1")
    if host is not None and (host.n != n or host.k != k):
        raise FormatError(
            path, lineno, f"header (n={n}, k={k}) does not match host (n={host.n}, k={host.k})"
        )
    assignment: dict[Edge, int] = {}
    first_seen: dict[Edge, int] = {}
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != k + 1:
            raise FormatError(path, lineno, f"expected {k} vertices and a color, got {len(tokens)} tokens")
        edge = _parse_edge(tokens[:k], n, k, path, lineno)
        color = _parse_int(tokens[k], path, lineno, "color")
        if not 1 <= color <= num_colors:
            raise FormatError(path, lineno, f"color {color} out of range 1..{num_colors}")
        if edge in assignment:
            raise FormatError(
                path, lineno, f"duplicate edge (first at line {first_seen[edge]})"
            )
        if host is not None and edge not in host.edge_set:
            raise FormatError(path, lineno, f"edge {edge} is not an edge of the host")
        assignment[edge] = color
        first_seen[edge] = lineno
    if host is None:
        host = UniformHypergraph._from_canonical(n, k, tuple(sorted(assignment)))
    elif len(assignment) != host.num_edges:
        missing = sorted(host.edge_set - assignment.keys())[0]
        raise FormatError(path, lineno, f"host edge {missing} is not colored")
    return EdgeColoring(host, num_colors, assignment)


def write_coloring(coloring: EdgeColoring, path: str | os.PathLike) -> None:
    host = coloring.host
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"col {host.n} {host.k} {coloring.num_colors}\n")
        for edge in host.edges:
            fh.write(" ".join(map(str, edge)) + f" {coloring.assignment[edge]}\n")
