import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from oracles import bitwise_graph6_rows
from rck.graph6 import HEADER, parse_graph6, to_graph6
from rck.graphs import MAX_VERTICES, complete_graph, empty_graph, from_edges


def test_k3_encodes_to_bw():
    # Hand-computed from the format: n=3 -> chr(66)='B'; bits 111 padded to
    # 111000 -> 56 -> chr(119)='w'.
    assert to_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)


def test_single_vertex_and_empty_graphs():
    assert to_graph6(empty_graph(1)) == "@"
    assert parse_graph6("@") == empty_graph(1)
    assert parse_graph6(to_graph6(empty_graph(5))) == empty_graph(5)


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # missing body
    with pytest.raises(ValueError):
        parse_graph6("Bww")  # body too long
    with pytest.raises(ValueError):
        parse_graph6("B6")  # byte below 63
    with pytest.raises(ValueError):
        parse_graph6("~??")  # multi-byte size prefix
    with pytest.raises(ValueError):
        parse_graph6("A@")  # nonzero padding bit for n=2
    assert parse_graph6("A_") == complete_graph(2)


@settings(max_examples=300)
@given(small_graphs(max_n=MAX_VERTICES))
def test_round_trip_random_graphs(g):
    assert parse_graph6(to_graph6(g)) == g


def test_round_trip_line_identity():
    # Every n up to the limit, so every padding length 0..5 occurs.
    rng = random.Random(6)
    for n in range(1, MAX_VERTICES + 1):
        pairs = list(combinations(range(n), 2))
        sparse = from_edges(n, [e for e in pairs if rng.random() < 0.3])
        for g in (sparse, complete_graph(n), empty_graph(n)):
            line = to_graph6(g)
            assert parse_graph6(line) == g
            assert to_graph6(parse_graph6(line)) == line


def test_parse_matches_the_bitwise_decoder():
    # Random densities at every n, so every padding length 0..5 occurs.
    rng = random.Random(22)
    for n in range(1, MAX_VERTICES + 1):
        pairs = list(combinations(range(n), 2))
        for _ in range(20):
            density = rng.random()
            g = from_edges(n, [e for e in pairs if rng.random() < density])
            line = to_graph6(g)
            parsed = parse_graph6(line)
            assert (parsed.n, parsed.adj) == bitwise_graph6_rows(line)
            assert parsed == g and hash(parsed) == hash(g)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "B",
        "Bww",
        "B6",
        "~??",
        "A@",
        "Gé~~~{",  # non-ASCII byte
        "G~~~~" + chr(127),  # DEL, one past the last graph6 byte
        "G~~~~}",  # final byte with a padding bit set
        "G~~~~>",  # final byte below 63
        "B" + chr(127),
        "a" + "?" * 83,  # n = 34
        ">>graph6<<",
    ],
)
def test_rejections_match_the_bitwise_decoder(line):
    with pytest.raises(ValueError) as expected:
        bitwise_graph6_rows(line)
    with pytest.raises(ValueError) as got:
        parse_graph6(line)
    assert str(got.value) == str(expected.value)


@st.composite
def mutated_lines(draw):
    """A valid line, sometimes under the header, with a few characters
    replaced, inserted or deleted, and surrounding whitespace at times."""
    line = to_graph6(draw(small_graphs(max_n=MAX_VERTICES)))
    line = draw(st.sampled_from(["", HEADER])) + line
    chars = st.one_of(st.characters(min_codepoint=58, max_codepoint=130), st.characters())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        tail = line[i + 1:] if edit != "insert" else line[i:]
        line = line[:i] + ("" if edit == "delete" else draw(chars)) + tail
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "\n", " \r\n"]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), mutated_lines()))
def test_parse_accepts_only_the_encoding_it_returns(line):
    # Like the CLI, the parser drops surrounding whitespace and the header;
    # what remains must be the one graph6 line of the graph it returns.
    try:
        g = parse_graph6(line)
    except ValueError:
        return
    assert to_graph6(g) == line.strip().removeprefix(HEADER)
