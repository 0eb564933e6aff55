"""Line-oriented text format for spin networks.

Grammar (one statement per line, UTF-8, LF or CRLF):

    version 1                     optional header, at most once, first
    edge <id> <label>             label a non-negative integer of at
                                  most MAX_LABEL_DIGITS digits
    vertex <id> <e1> <e2> <e3>    three edge ids, ends claimed in order
    # comment                     full-line comments and blanks ignored

Free ends are implicit: every edge end not claimed by a vertex line is
free.  Claiming an edge id a third time is an error.  Parsing reports
every problem it can find, each with a 1-based source span; semantic
checks reuse the network validator, so the format accepts exactly the
networks the model does.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import InvalidNetwork
from .model import End, SpinNetwork, Vertex, Edge, validate_network

_TOKEN = re.compile(r"\S+")

# The least int-to-str digit limit any interpreter setting allows, so a
# label converts whatever the setting is.  No label this long can be
# evaluated anyway: the closed forms take factorials of the labels.
MAX_LABEL_DIGITS = 640


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based (line, column) position and the length of the token there."""

    line: int
    column: int
    length: int


class ErrorKind(enum.Enum):
    LEXICAL = "lexical"
    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class ParseError:
    message: str
    span: SourceSpan
    kind: ErrorKind

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.kind.value}: {self.message}"


def parse_network(text: str) -> SpinNetwork | list[ParseError]:
    """Parse the format above; returns the network or every error found."""
    errors: list[ParseError] = []

    def err(kind: ErrorKind, token: tuple[str, int, int], message: str) -> None:
        word, line, column = token
        errors.append(ParseError(message, SourceSpan(line, column, len(word)), kind))

    # A token is (text, line, column).  Edges resolve as they are read;
    # vertex lines wait for the last edge, so a vertex may precede its edges.
    claims: dict[str, int] = {}  # edge id -> ends claimed so far
    edges: list[Edge] = []
    vertex_lines: list[list[tuple[str, int, int]]] = []
    seen_version = seen_statement = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = [(m.group(), lineno, m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens or tokens[0][0].startswith("#"):
            continue
        head, *args = tokens
        statement = head[0]
        if statement == "version":
            if seen_version or seen_statement:
                err(ErrorKind.SYNTACTIC, head, "version line must come first, once")
            elif len(args) != 1 or args[0][0] != "1":
                err(ErrorKind.SYNTACTIC, args[0] if args else head, "only `version 1` is supported")
            seen_version = True
            continue
        seen_statement = True
        if statement == "edge":
            if len(args) != 2:
                err(ErrorKind.SYNTACTIC, head, "expected `edge <id> <label>`")
                continue
            (eid, _, _), label = args
            if eid in claims:
                err(ErrorKind.SEMANTIC, args[0], f"duplicate edge id {eid!r}")
                continue
            claims[eid] = 0
            word, value = label[0], 0
            if not (word.isascii() and word.isdigit()):
                err(ErrorKind.LEXICAL, label, f"label must be a non-negative integer, got {word!r}")
            elif len(word) > MAX_LABEL_DIGITS:
                err(ErrorKind.LEXICAL, label, f"label has {len(word)} digits, more than {MAX_LABEL_DIGITS}")
            else:
                value = int(word)
            edges.append(Edge(eid, value))
        elif statement == "vertex":
            if len(args) != 4:
                err(ErrorKind.SYNTACTIC, head, "expected `vertex <id> <edge> <edge> <edge>`")
                continue
            vertex_lines.append(args)
        else:
            err(ErrorKind.SYNTACTIC, head, f"unknown statement {statement!r}")

    vertex_at: dict[str, tuple[str, int, int]] = {}
    vertices: list[Vertex] = []
    for id_token, *refs in vertex_lines:
        vid = id_token[0]
        if vid in vertex_at:
            err(ErrorKind.SEMANTIC, id_token, f"duplicate vertex id {vid!r}")
            continue
        vertex_at[vid] = id_token
        ends = []
        for ref in refs:
            eid = ref[0]
            n = claims.get(eid)
            if n is None:
                err(ErrorKind.SEMANTIC, ref, f"unknown edge id {eid!r}")
            elif n == 2:
                err(ErrorKind.SEMANTIC, ref, f"edge {eid!r} has no end left to attach")
            else:
                claims[eid] = n + 1
                ends.append(End(eid, n))
        if len(ends) == 3:  # a vertex is kept when all three ends resolve
            vertices.append(Vertex(vid, tuple(ends)))

    net = SpinNetwork(tuple(edges), tuple(vertices))
    # Ids are unique and labels are integers by now, so the validator can
    # only report an id collision or inadmissible labels, both at a vertex.
    for violation in validate_network(net):
        err(ErrorKind.SEMANTIC, vertex_at[violation.subject], str(violation))
    if errors:
        return sorted(errors, key=lambda e: (e.span.line, e.span.column, e.message))
    return net


def serialize_network(net: SpinNetwork) -> str:
    """Canonical text for a valid network: edges then vertices, sorted by id.

    parse_network(serialize_network(n)) reproduces n up to which side of an
    edge each vertex slot holds (sides are re-claimed in declaration order),
    an id-preserving isomorphism.
    """
    problems = validate_network(net)
    if problems:
        raise InvalidNetwork(problems)
    out = []
    for e in sorted(net.edges, key=lambda e: e.id):
        out.append(f"edge {e.id} {e.label}")
    for v in sorted(net.vertices, key=lambda v: v.id):
        out.append(f"vertex {v.id} {' '.join(end.edge for end in v.ends)}")
    return "\n".join(out) + ("\n" if out else "")
