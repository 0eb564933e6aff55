import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netgen import grown_network
from spinnet.errors import InadmissibleJoin, InvalidNetwork, NotAFreeEnd
from spinnet.model import (
    Edge,
    End,
    SpinNetwork,
    Vertex,
    admissible_couplings,
    merge_free_ends,
    networks_isomorphic,
    validate_network,
    vertex_admissible,
)

labels = st.integers(min_value=0, max_value=60)


def test_admissible_examples():
    assert vertex_admissible(1, 1, 2)
    assert not vertex_admissible(1, 1, 1)
    assert not vertex_admissible(1, 2, 5)
    negative = [t for t in itertools.product(range(-4, 5), repeat=3) if min(t) < 0]
    assert not any(vertex_admissible(*t) for t in negative)


@given(labels, labels, labels)
def test_admissible_symmetric(a, b, c):
    results = {
        vertex_admissible(a, b, c),
        vertex_admissible(a, c, b),
        vertex_admissible(b, a, c),
        vertex_admissible(b, c, a),
        vertex_admissible(c, a, b),
        vertex_admissible(c, b, a),
    }
    assert len(results) == 1


@given(labels, labels)
def test_couplings_are_the_even_ladder(a, b):
    couplings = admissible_couplings(a, b)
    assert couplings == tuple(range(abs(a - b), a + b + 1, 2))
    assert len(couplings) == min(a, b) + 1
    assert all(vertex_admissible(a, b, c) for c in couplings)


@pytest.mark.parametrize("triple", [
    (1, 1, 2.0), (True, True, 0), (2, 1, Fraction(1)), (1, "1", 2), (1.0, 1, 0), (0, 0, False),
])
def test_vertex_admissible_refuses_what_is_not_a_label(triple):
    # each triple couples in value
    assert not vertex_admissible(*triple)


@pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2", 1.5, None, -1])
def test_what_is_not_a_label_has_no_couplings(bad):
    assert admissible_couplings(bad, 1) == () == admissible_couplings(1, bad)


@pytest.mark.parametrize("bad", [2.7, True, "3", Fraction(2), 2.0])
def test_from_spec_refuses_a_label_that_is_not_an_int(bad):
    with pytest.raises(InvalidNetwork) as info:
        SpinNetwork.from_spec({"a": 2, "b": bad})
    assert [v.kind for v in info.value.violations] == ["label"]


def test_from_spec_names_edges_the_same_way_in_edges_and_vertices():
    net = SpinNetwork.from_spec({1: 1, 2: 1, 3: 0}, [("v", (1, 2, 3))])
    assert [e.id for e in net.edges] == ["1", "2", "3"]
    assert net.vertex("v").ends == (End("1", 0), End("2", 0), End("3", 0))
    with pytest.raises(InvalidNetwork) as info:
        SpinNetwork.from_spec({1: 2, 2: 2}, [(5, (1, 1, 1))])
    assert {v.subject for v in info.value.violations} == {"5"}


def test_validate_empty_network():
    assert validate_network(SpinNetwork((), ())) == []


def test_validate_flags_inadmissible_vertex():
    net = SpinNetwork(
        (Edge("x", 1), Edge("y", 1), Edge("z", 1)),
        (Vertex("v", (End("x", 0), End("y", 0), End("z", 0))),),
    )
    violations = validate_network(net)
    assert any(v.kind == "admissibility" and v.subject == "v" for v in violations)


def test_validate_flags_shared_end():
    end = End("x", 0)
    net = SpinNetwork(
        (Edge("x", 2), Edge("y", 2), Edge("z", 2), Edge("w", 0)),
        (
            Vertex("u", (end, End("y", 0), End("z", 0))),
            Vertex("v", (end, End("y", 1), End("w", 0))),
        ),
    )
    assert any(v.kind == "structure" for v in validate_network(net))


def test_merge_adds_vertex_and_free_end():
    net = SpinNetwork.from_spec({"a": 1, "b": 1})
    merged = merge_free_ends(net, End("a", 0), End("b", 0), 0)
    assert len(merged.vertices) == len(net.vertices) + 1
    assert len(merged.edges) == len(net.edges) + 1
    new_edge = next(e for e in merged.edges if e.id not in {"a", "b"})
    assert new_edge.label == 0
    assert merged.is_free(End(new_edge.id, 1))
    # input untouched
    assert net == SpinNetwork.from_spec({"a": 1, "b": 1})
    assert validate_network(merged) == []


def test_merge_rejects_bad_coupling():
    net = SpinNetwork.from_spec({"a": 1, "b": 1})
    with pytest.raises(InadmissibleJoin):
        merge_free_ends(net, End("a", 0), End("b", 0), 1)


@pytest.mark.parametrize("labels, new_label", [
    ((1, 1), 2.0), ((1, 1), Fraction(2)), ((1, 0), True), ((1, 1), "2"),
])
def test_merge_refuses_a_label_that_is_not_an_int(labels, new_label):
    # each one couples the two ends in value, but validate_network would flag
    # the merged edge's label
    net = SpinNetwork.from_spec({"a": labels[0], "b": labels[1]})
    with pytest.raises(InadmissibleJoin):
        merge_free_ends(net, End("a", 0), End("b", 0), new_label)


def test_merge_label_zero_forces_copy():
    net = SpinNetwork.from_spec({"a": 2, "b": 0})
    merged = merge_free_ends(net, End("a", 0), End("b", 0), 2)
    assert validate_network(merged) == []


def test_merge_requires_free_distinct_ends():
    net = SpinNetwork.from_spec({"a": 2, "b": 2, "c": 2}, [("v", ("a", "b", "c"))])
    with pytest.raises(NotAFreeEnd):
        merge_free_ends(net, End("a", 0), End("b", 1), 2)  # a:0 sits in v
    with pytest.raises(NotAFreeEnd):
        merge_free_ends(net, End("a", 1), End("a", 1), 2)


def test_is_free_only_for_side_0_or_1():
    net = SpinNetwork.from_spec({"a": 2, "b": 2})
    assert net.is_free(End("a", 0)) and net.is_free(End("a", 1))
    for side in (2, -1):
        assert not net.is_free(End("a", side))


def test_from_spec_claims_ends_in_declaration_order():
    net = SpinNetwork.from_spec(
        {"a": 1, "b": 1, "c": 2, "d": 2},
        [("u", ("a", "b", "c")), ("v", ("c", "d", "d"))],
    )
    assert net.vertex("u").ends == (End("a", 0), End("b", 0), End("c", 0))
    assert net.vertex("v").ends == (End("c", 1), End("d", 0), End("d", 1))
    assert net.free_ends == (End("a", 1), End("b", 1))


def test_from_spec_rejects_overclaimed_edge():
    with pytest.raises(InvalidNetwork):
        SpinNetwork.from_spec(
            {"a": 2, "b": 2, "c": 2, "d": 2},
            [("u", ("a", "a", "b")), ("v", ("a", "c", "d"))],
        )


def test_fresh_id_avoids_collisions():
    net = SpinNetwork.from_spec({"u1": 1, "u2": 3})
    fresh = net.fresh_id("u")
    assert fresh not in {e.id for e in net.edges}


def test_a_network_is_validated_once_and_each_call_gets_its_own_list(monkeypatch):
    import spinnet.model as model

    calls = 0
    find = model._find_violations

    def counted(net):
        nonlocal calls
        calls += 1
        return find(net)

    monkeypatch.setattr(model, "_find_violations", counted)
    net = SpinNetwork(
        (Edge("x", 1), Edge("y", 1), Edge("z", 1)),
        (Vertex("v", (End("x", 0), End("y", 0), End("z", 0))),),
    )
    first = validate_network(net)
    first.clear()
    second = validate_network(net)
    assert [v.kind for v in second] == ["admissibility"]
    assert second is not validate_network(net)
    assert calls == 1


def test_isomorphism_ignores_slot_order_but_not_labels():
    a = SpinNetwork.from_spec({"x": 1, "y": 1, "z": 2}, [("v", ("x", "y", "z"))])
    b = SpinNetwork.from_spec({"z": 2, "y": 1, "x": 1}, [("v", ("y", "z", "x"))])
    c = SpinNetwork.from_spec({"x": 1, "y": 1, "z": 0}, [("v", ("y", "x", "z"))])
    assert networks_isomorphic(a, b)
    assert not networks_isomorphic(a, c)


@given(st.integers(min_value=0, max_value=10_000))
def test_grown_networks_always_validate(seed):
    net = grown_network(random.Random(seed))
    assert validate_network(net) == []


# -- the records ---------------------------------------------------------------


def test_the_records_keep_their_fields_order_and_repr():
    end = End("a", 0)
    assert (end.edge, end.side) == ("a", 0)
    assert end.opposite() == End("a", 1) and end.opposite().opposite() == end
    assert repr(end) == "End(edge='a', side=0)"
    # ends sort by edge id, then side
    assert sorted([End("b", 0), End("a", 1), End("a", 0)]) == [End("a", 0), End("a", 1), End("b", 0)]
    edge = Edge("a", 2)
    assert (edge.id, edge.label) == ("a", 2)
    assert repr(edge) == "Edge(id='a', label=2)"
    vertex = Vertex("v", (End("a", 0), End("b", 0), End("c", 1)))
    assert vertex.id == "v" and vertex.ends == (End("a", 0), End("b", 0), End("c", 1))
    assert repr(vertex) == (
        "Vertex(id='v', ends=(End(edge='a', side=0), End(edge='b', side=0), End(edge='c', side=1)))"
    )


def test_equal_records_hash_equal_and_fields_cannot_be_assigned():
    pairs = [
        (End("a", 0), End("a", 0)),
        (Edge("a", 2), Edge("a", 2)),
        (Vertex("v", (End("a", 0), End("b", 0), End("c", 1))), Vertex("v", (End("a", 0), End("b", 0), End("c", 1)))),
    ]
    for x, y in pairs:
        assert x == y and x is not y and hash(x) == hash(y)
    assert End("a", 0) != End("a", 1) and Edge("a", 2) != Edge("a", 4)
    for record, field in [(End("a", 0), "side"), (Edge("a", 2), "label"), (pairs[2][0], "id")]:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


def test_records_are_the_keys_of_a_networks_ends():
    net = SpinNetwork.from_spec({"a": 1, "b": 1, "c": 2, "d": 2}, [("v", ("a", "b", "c"))])
    assert net.free_ends == (End("a", 1), End("b", 1), End("c", 1), End("d", 0), End("d", 1))
    assert net._attachment == {End("a", 0): "v", End("b", 0): "v", End("c", 0): "v"}
    assert net.attachment(End("a", 0)) == "v" and net.attachment(End("a", 1)) is None
    assert {end: net.label(end) for end in net.free_ends}[End("d", 1)] == 2


def test_a_record_equals_a_tuple_of_its_fields():
    # the records are named tuples, so they compare and hash as tuples do:
    # with a plain tuple, and with another record of the same fields
    assert End("a", 0) == ("a", 0) and hash(End("a", 0)) == hash(("a", 0))
    assert Edge("a", 0) == End("a", 0) == ("a", 0)
    assert Vertex("v", ()) == ("v", ())
    net = SpinNetwork.from_spec({"a": 1, "b": 1, "c": 0}, [("v", ("a", "b", "c"))])
    assert net.attachment(("a", 0)) == "v"
