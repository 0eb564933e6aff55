"""Text format round-trips, canonical serialization, and error reporting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet.dsl import ErrorKind, ParseError, parse_network, serialize_network
from spinnet.errors import InvalidNetwork
from spinnet.model import Edge, End, SpinNetwork, Vertex, networks_isomorphic

SPEC_TEXT = "edge e1 2\nedge e2 2\nedge e3 0\nvertex v1 e1 e2 e3"


def spans_lie_within(text: str, errors: list[ParseError]) -> bool:
    lines = text.split("\n")
    for e in errors:
        if not 1 <= e.span.line <= len(lines):
            return False
        line = lines[e.span.line - 1].rstrip("\r")
        if not 1 <= e.span.column <= len(line) + 1:
            return False
        if e.span.column - 1 + e.span.length > len(line) + 1:
            return False
    return True


# -- parsing ------------------------------------------------------------------


def test_parse_example_network():
    net = parse_network(SPEC_TEXT)
    assert isinstance(net, SpinNetwork)
    assert len(net.edges) == 3 and len(net.vertices) == 1
    free = set(net.free_ends)
    assert End("e1", 1) in free and End("e2", 1) in free
    assert len(free) == 3


def test_parse_negative_label_is_lexical_at_the_token():
    errors = parse_network("edge e1 -1")
    assert isinstance(errors, list) and len(errors) == 1
    err = errors[0]
    assert err.kind is ErrorKind.LEXICAL
    assert (err.span.line, err.span.column, err.span.length) == (1, 9, 2)
    assert str(err) == f"1:9: lexical: {err.message}"


def test_a_label_past_the_digit_bound_is_lexical_at_the_token():
    # 5,000 digits is past the interpreter's default int-conversion limit
    # (4,300); the bound is 640, the least limit any setting allows
    text = "edge a " + "1" * 5000 + "\nedge b 1"
    errors = parse_network(text)
    assert isinstance(errors, list) and len(errors) == 1
    err = errors[0]
    assert err.kind is ErrorKind.LEXICAL
    assert (err.span.line, err.span.column, err.span.length) == (1, 8, 5000)
    assert err.message == "label has 5000 digits, more than 640"
    assert parse_network("edge a " + "9" * 640).edges == (Edge("a", 10**640 - 1),)
    assert isinstance(parse_network("edge a " + "0" * 641), list)


def test_parse_triple_use_of_one_edge_is_semantic():
    errors = parse_network("edge e1 1\nvertex v1 e1 e1 e1")
    assert isinstance(errors, list)
    assert any(e.kind is ErrorKind.SEMANTIC for e in errors)
    assert spans_lie_within("edge e1 1\nvertex v1 e1 e1 e1", errors)


def test_version_header_rules():
    assert isinstance(parse_network("version 1\n" + SPEC_TEXT), SpinNetwork)
    late = parse_network("edge a 0\nversion 1")
    assert any(e.kind is ErrorKind.SYNTACTIC for e in late)
    twice = parse_network("version 1\nversion 1\nedge a 0")
    assert any(e.kind is ErrorKind.SYNTACTIC for e in twice)
    wrong = parse_network("version 2\nedge a 0")
    assert any(e.kind is ErrorKind.SYNTACTIC for e in wrong)


def test_crlf_and_comments_and_blanks():
    text = "# header\r\n\r\nedge a 1\r\nedge b 1\r\n  # indented comment\r\n"
    net = parse_network(text)
    assert isinstance(net, SpinNetwork)
    assert sorted(e.id for e in net.edges) == ["a", "b"]


def test_syntactic_errors_for_arity_and_unknown_statements():
    errors = parse_network("frob x\nedge a\nvertex v a a")
    assert isinstance(errors, list) and len(errors) == 3
    assert all(e.kind is ErrorKind.SYNTACTIC for e in errors)
    assert [e.span.line for e in errors] == [1, 2, 3]


def test_duplicate_ids_are_semantic():
    errors = parse_network("edge a 1\nedge a 2")
    assert any(e.kind is ErrorKind.SEMANTIC and e.span.line == 2 for e in errors)
    text = (
        "edge a 1\nedge b 1\nedge c 0\nedge d 0\n"
        "vertex v a b c\nvertex v a b d"
    )
    errors = parse_network(text)
    assert any(e.kind is ErrorKind.SEMANTIC and e.span.line == 6 for e in errors)


def test_unknown_edge_references_all_reported():
    errors = parse_network("vertex v a b c")
    assert isinstance(errors, list) and len(errors) == 3
    assert all(e.kind is ErrorKind.SEMANTIC for e in errors)
    assert [e.span.column for e in errors] == [10, 12, 14]


def test_inadmissible_vertex_is_semantic():
    errors = parse_network("edge a 1\nedge b 1\nedge c 1\nvertex v a b c")
    assert isinstance(errors, list)
    assert all(e.kind is ErrorKind.SEMANTIC for e in errors)
    assert errors


GOLDEN_DIAGNOSTICS = [
    # (input, [(kind, line, column, length, message), ...])
    ("edge a 0\nversion 1",
     [("syntactic", 2, 1, 7, "version line must come first, once")]),
    ("version 1\nversion 1",
     [("syntactic", 2, 1, 7, "version line must come first, once")]),
    ("version 2", [("syntactic", 1, 9, 1, "only `version 1` is supported")]),
    ("version", [("syntactic", 1, 1, 7, "only `version 1` is supported")]),
    ("edge a", [("syntactic", 1, 1, 4, "expected `edge <id> <label>`")]),
    ("vertex v a a",
     [("syntactic", 1, 1, 6, "expected `vertex <id> <edge> <edge> <edge>`")]),
    ("frob x", [("syntactic", 1, 1, 4, "unknown statement 'frob'")]),
    ("edge a -1",
     [("lexical", 1, 8, 2, "label must be a non-negative integer, got '-1'")]),
    ("edge a 1e3",
     [("lexical", 1, 8, 3, "label must be a non-negative integer, got '1e3'")]),
    ("edge a ²",
     [("lexical", 1, 8, 1, "label must be a non-negative integer, got '²'")]),
    ("edge a 1\nedge a 2", [("semantic", 2, 6, 1, "duplicate edge id 'a'")]),
    ("edge a 1\nedge b 1\nedge c 0\nedge d 0\nvertex v a b c\nvertex v a b d",
     [("semantic", 6, 8, 1, "duplicate vertex id 'v'")]),
    ("edge a 0\nvertex v a b a", [("semantic", 2, 12, 1, "unknown edge id 'b'")]),
    ("edge a 0\nedge b 0\nvertex v a a b\nvertex w a b b",
     [("semantic", 4, 10, 1, "edge 'a' has no end left to attach"),
      ("semantic", 4, 14, 1, "edge 'b' has no end left to attach")]),
    ("edge a 0\nedge b 0\nedge c 0\nvertex a b c b",
     [("semantic", 4, 8, 1, "[structure] a: vertex id collides with an edge id")]),
    ("edge a 1\nedge b 1\nedge c 1\nvertex v a b c",
     [("semantic", 4, 8, 1,
       "[admissibility] v: labels (1, 1, 1) violate triangle or parity")]),
]


@pytest.mark.parametrize("text,expected", GOLDEN_DIAGNOSTICS)
def test_golden_diagnostics(text, expected):
    errors = parse_network(text)
    assert isinstance(errors, list)
    got = [
        (e.kind.value, e.span.line, e.span.column, e.span.length, e.message)
        for e in errors
    ]
    assert got == expected


def test_errors_are_sorted_by_position():
    errors = parse_network("vertex v a b c\nedge e -3")
    assert isinstance(errors, list)
    keys = [(e.span.line, e.span.column) for e in errors]
    assert keys == sorted(keys)
    kinds = {e.kind for e in errors}
    assert ErrorKind.SEMANTIC in kinds and ErrorKind.LEXICAL in kinds


# -- serializing --------------------------------------------------------------


def test_serialize_empty_network_is_empty_text():
    assert serialize_network(SpinNetwork((), ())) == ""


def test_serialize_rejects_invalid_networks():
    dup = SpinNetwork((Edge("a", 1), Edge("a", 2)), ())
    with pytest.raises(InvalidNetwork):
        serialize_network(dup)
    unknown = SpinNetwork(
        (Edge("a", 1), Edge("b", 1), Edge("c", 2)),
        (Vertex("v", (End("a", 0), End("b", 0), End("zz", 0))),),
    )
    with pytest.raises(InvalidNetwork):
        serialize_network(unknown)


def test_serialize_is_order_insensitive():
    # Resolution is two-pass, so a vertex line may precede its edges.
    shuffled = "edge e3 0\nvertex v1 e1 e2 e3\nedge e2 2\nedge e1 2"
    a, b = parse_network(SPEC_TEXT), parse_network(shuffled)
    assert isinstance(b, SpinNetwork)
    assert serialize_network(a) == serialize_network(b)


def test_round_trip_corpora(closed_nets, open_nets):
    for net in list(closed_nets) + list(open_nets):
        text = serialize_network(net)
        back = parse_network(text)
        assert isinstance(back, SpinNetwork), text
        assert networks_isomorphic(net, back)
        assert {e.id: e.label for e in back.edges} == {
            e.id: e.label for e in net.edges
        }
        assert {v.id for v in back.vertices} == {v.id for v in net.vertices}
        assert serialize_network(back) == text


# -- fuzzing ------------------------------------------------------------------


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_fuzz_arbitrary_text_never_crashes(text):
    out = parse_network(text)
    if isinstance(out, list):
        assert out and all(isinstance(e, ParseError) for e in out)
        assert spans_lie_within(text, out)
    else:
        assert isinstance(out, SpinNetwork)


def test_fuzz_near_miss_grammar_inputs():
    rng = random.Random(20260815)
    words = ["edge", "vertex", "version", "e1", "e2", "v1", "#", "1", "2",
             "-1", "03", "1e3", "", "\t", "  ", "\r"]
    for _ in range(1500):
        lines = [
            " ".join(rng.choice(words) for _ in range(rng.randrange(6)))
            for _ in range(rng.randrange(6))
        ]
        text = "\n".join(lines)
        out = parse_network(text)
        if isinstance(out, list):
            assert spans_lie_within(text, out)
