import functools
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    EdgeColoring,
    FormatError,
    UniformHypergraph,
    complete_hypergraph,
    read_coloring,
    read_hypergraph,
    write_coloring,
    write_hypergraph,
)


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 9))
    candidates = list(itertools.combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(candidates), max_size=len(candidates)))
    return UniformHypergraph(n, k, edges)


class TestHypergraphRoundTrip:
    @given(H=hypergraphs())
    @settings(max_examples=50)
    def test_round_trip(self, tmp_path_factory, H):
        path = tmp_path_factory.mktemp("uhg") / "g.uhg"
        write_hypergraph(H, path)
        assert read_hypergraph(path) == H

    def test_written_bytes_are_canonical(self, tmp_path):
        H = UniformHypergraph(4, 2, [(3, 4), (1, 2)])
        path = tmp_path / "g.uhg"
        write_hypergraph(H, path)
        assert path.read_text() == "uhg 4 2\n1 2\n3 4\n"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.uhg"
        path.write_text("# a witness\n\nuhg 5 2\n1 2\n# middle\n4 5\n")
        H = read_hypergraph(path)
        assert H.edges == ((1, 2), (4, 5))


# Test files are written with surrogateescape, so "\udcff" in a test
# string stands for the raw byte 0xff, which is not UTF-8.


class TestHypergraphParseErrors:
    def _expect(self, tmp_path, text, lineno, fragment):
        path = tmp_path / "bad.uhg"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(FormatError) as err:
            read_hypergraph(path)
        assert f":{lineno}:" in str(err.value)
        assert fragment in str(err.value)

    def test_missing_header(self, tmp_path):
        self._expect(tmp_path, "# nothing\n", 1, "header")

    def test_malformed_header(self, tmp_path):
        self._expect(tmp_path, "uhg 5\n", 1, "header")

    def test_header_out_of_range(self, tmp_path):
        self._expect(tmp_path, "# k = 1\nuhg 5 1\n", 2, "need n >= 0 and k >= 2, got n=5, k=1")

    def test_repeated_vertex(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 1 2\n", 2, "repeated vertex")

    def test_unsorted_vertices(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n2 1 3\n", 2, "ascending")

    def test_out_of_range(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 2 9\n", 2, "out of range")

    def test_wrong_arity(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 2\n", 2, "expected 3")

    @pytest.mark.parametrize("line, message", [
        ("1 2 9", "vertex 9 out of range 1..5 in edge (1, 2, 9)"),
        ("0 1 2", "vertex 0 out of range 1..5 in edge (0, 1, 2)"),
        ("1 1 2", "repeated vertex 1 in edge (1, 1, 2)"),
        ("1 2", "edge (1, 2) has 2 vertices, expected 3"),
        ("1 2 3 4", "edge (1, 2, 3, 4) has 4 vertices, expected 3"),
    ])
    def test_edge_errors_name_the_edge(self, tmp_path, line, message):
        self._expect(tmp_path, f"uhg 5 3\n2 3 4\n{line}\n", 3, message)

    def test_duplicate_edge(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 2 3\n2 3 4\n1 2 3\n", 4, "duplicate")

    def test_non_integer(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 2 x\n", 2, "not an integer")

    def test_not_utf8(self, tmp_path):
        self._expect(tmp_path, "uhg 5 3\n1 2 3\n1 \udcff 4\n", 3, "byte 0xff at column 3")


class TestColoringRoundTrip:
    @given(H=hypergraphs(), data=st.data())
    @settings(max_examples=50)
    def test_round_trip(self, tmp_path_factory, H, data):
        ell = data.draw(st.integers(1, 3))
        colors = {
            e: data.draw(st.integers(1, ell), label=f"color{i}")
            for i, e in enumerate(H.edges)
        }
        coloring = EdgeColoring(H, ell, colors)
        path = tmp_path_factory.mktemp("col") / "c.col"
        write_coloring(coloring, path)
        assert read_coloring(path, host=H) == coloring
        # host reconstructed from the file body when not supplied
        recovered = read_coloring(path)
        assert recovered.assignment == coloring.assignment
        assert recovered.host.edges == H.edges

    def test_written_bytes(self, tmp_path):
        host = UniformHypergraph(3, 2, [(1, 2), (2, 3)])
        c = EdgeColoring(host, 2, {(1, 2): 1, (2, 3): 2})
        path = tmp_path / "c.col"
        write_coloring(c, path)
        assert path.read_text() == "col 3 2 2\n1 2 1\n2 3 2\n"


class TestColoringParseErrors:
    def _expect(self, tmp_path, text, fragment, host=None):
        path = tmp_path / "bad.col"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(FormatError) as err:
            read_coloring(path, host=host)
        assert fragment in str(err.value)

    def test_bad_header(self, tmp_path):
        self._expect(tmp_path, "col 3 2\n", "header")
        self._expect(tmp_path, "col 3 2 0\n", ":1: need n >= 0, k >= 2 and L >= 1")

    def test_wrong_token_count(self, tmp_path):
        self._expect(tmp_path, "col 3 2 2\n1 2 1\n2 3\n",
                     ":3: expected 2 vertices and a color, got 2 tokens")

    @pytest.mark.parametrize("line, message", [
        ("1 4 1", ":3: vertex 4 out of range 1..3 in edge (1, 4)"),
        ("2 2 1", ":3: repeated vertex 2 in edge (2, 2)"),
    ])
    def test_edge_errors_name_the_edge(self, tmp_path, line, message):
        self._expect(tmp_path, f"col 3 2 2\n1 2 1\n{line}\n", message)

    def test_color_out_of_range(self, tmp_path):
        self._expect(tmp_path, "col 3 2 2\n1 2 3\n", "out of range")

    def test_incomplete_cover(self, tmp_path):
        host = complete_hypergraph(3, 2)
        self._expect(tmp_path, "col 3 2 2\n1 2 1\n1 3 1\n", "not colored", host=host)

    def test_extra_edge(self, tmp_path):
        host = UniformHypergraph(3, 2, [(1, 2)])
        self._expect(tmp_path, "col 3 2 2\n1 2 1\n2 3 1\n", "not an edge", host=host)

    def test_host_mismatch(self, tmp_path):
        host = complete_hypergraph(4, 2)
        self._expect(tmp_path, "col 3 2 2\n1 2 1\n", "does not match host", host=host)

    def test_duplicate_line(self, tmp_path):
        self._expect(tmp_path, "col 3 2 2\n1 2 1\n1 2 2\n", "duplicate")

    def test_not_utf8(self, tmp_path):
        self._expect(tmp_path, "col 3 2 2\n# caf\udce9\n1 2 1\n", ":2: byte 0xe9 at column 6")


# Fuzzed files are built from these lines: good and broken headers and
# edges, comments, words, huge and negative numbers, other digits,
# bytes that are not UTF-8, and arbitrary text.
_TOKENS = st.integers(-2, 9).map(str) | st.sampled_from(
    ["uhg", "col", "#", "x", "1.5", "1_0", "9" * 5000, "\u0663", "\x00", "\udcff", "\udce9"]
)
_LINES = st.lists(_TOKENS, max_size=6).map(" ".join) | st.text(max_size=10)


@st.composite
def malformed_files(draw, kind):
    fields = st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=4)
    header = draw(fields.map(lambda xs: " ".join([kind, *xs])) | _LINES)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *draw(st.lists(_LINES, max_size=8))])


class TestMalformedInput:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_failure_is_a_format_error_naming_the_line(self, tmp_path_factory, data):
        kind = data.draw(st.sampled_from(["uhg", "col"]))
        path = tmp_path_factory.getbasetemp() / f"fuzz.{kind}"
        text = data.draw(malformed_files(kind))
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
        if kind == "uhg":
            read = read_hypergraph
        else:
            host = data.draw(st.none() | st.just(complete_hypergraph(3, 2)))
            read = functools.partial(read_coloring, host=host)
        try:
            read(path)
        except FormatError as err:
            assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(err)), str(err)
