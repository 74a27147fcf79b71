import hashlib

import pytest

from causalspace import orders as ords
from causalspace.encoding import is_subset, iter_bitvec
from causalspace.spaces import Space, ext_hset

TOTAL_ABC = ords.total_order("A", "B", "C")
DISCRETE_ABC = ords.discrete_order("ABC")
BC_GROUP = ords.total_order("A", "BC")
DIAMOND = ords.order_from_pairs("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


def test_classify():
    assert ords.classify(TOTAL_ABC, "A", "B") == ords.CausalRelation.PRECEDES
    assert ords.classify(TOTAL_ABC, "B", "A") == ords.CausalRelation.SUCCEEDS
    assert ords.classify(DISCRETE_ABC, "A", "B") == ords.CausalRelation.UNRELATED
    assert ords.classify(BC_GROUP, "B", "C") == ords.CausalRelation.INDEFINITE
    with pytest.raises(ValueError):
        ords.classify(TOTAL_ABC, "A", "A")


def test_causal_order_rejects_non_preorders():
    with pytest.raises(ValueError, match="reflexive"):
        ords.CausalOrder(("A", "B"), (0b01, 0b00))
    # A <= B and B <= C, but not A <= C
    with pytest.raises(ValueError, match="transitive"):
        ords.CausalOrder(("A", "B", "C"), (0b001, 0b011, 0b110))


def test_causal_past_future():
    assert ords.causal_past(DIAMOND, "B") == frozenset("AB")
    assert ords.causal_past(DIAMOND, "D") == frozenset("ABCD")
    assert ords.causal_future(DIAMOND, "B") == frozenset("BD")
    for o in (TOTAL_ABC, BC_GROUP, DIAMOND):
        for e in o.events:
            assert e in ords.causal_past(o, e) & ords.causal_future(o, e)
    assert ords.causal_eq_class(BC_GROUP, "B") == frozenset("BC")


def test_is_definite():
    assert ords.is_definite(TOTAL_ABC)
    assert not ords.is_definite(BC_GROUP)
    assert ords.is_definite(ords.discrete_order("A"))


def test_lowersets():
    chain = ords.lowersets(TOTAL_ABC)
    assert chain == (
        frozenset(),
        frozenset("A"),
        frozenset("AB"),
        frozenset("ABC"),
    )
    diamond_sets = set(ords.lowersets(DIAMOND))
    assert frozenset("ABC") in diamond_sets  # not any single event's past
    assert len(ords.lowersets(ords.discrete_order("AB"))) == 4


def test_lowersets_closed_under_union_intersection():
    for o in (TOTAL_ABC, DISCRETE_ABC, BC_GROUP, DIAMOND):
        sets = set(ords.lowersets(o))
        assert frozenset() in sets and frozenset(o.events) in sets
        for u in sets:
            for v in sets:
                assert u | v in sets and u & v in sets


def test_order_join_meet():
    ab = ords.total_order("A", "B")
    ba = ords.total_order("B", "A")
    joined = ords.order_join(ab, ba)
    assert joined == ords.indiscrete_order("AB")

    abc = TOTAL_ABC
    acb = ords.total_order("A", "C", "B")
    met = ords.order_meet(abc, acb)
    assert met == ords.order_from_pairs("ABC", [("A", "B"), ("A", "C")])

    with pytest.raises(ValueError):
        ords.order_join(ab, ords.total_order("A", "C"))


def test_lowersets_of_join_are_intersection():
    all3 = ords.all_orders(3)
    for a in all3[::3]:
        for b in all3[::4]:
            j = ords.order_join(a, b)
            assert set(ords.lowersets(j)) == set(ords.lowersets(a)) & set(
                ords.lowersets(b)
            )
            m = ords.order_meet(a, b)
            assert set(ords.lowersets(a)) | set(ords.lowersets(b)) <= set(
                ords.lowersets(m)
            )


def test_hist_space_sizes():
    assert ords.hist_space(TOTAL_ABC).bit_count() == 14  # 2 + 4 + 8
    assert ords.hist_space(DISCRETE_ABC).bit_count() == 6
    assert ords.ext_hist_space(DISCRETE_ABC).bit_count() == 26
    # indefinite pair: histories for B and C share domain {A,B,C}
    hs = ords.hist_space(BC_GROUP)
    from causalspace.encoding import dom

    doms = {dom(h) for h in iter_bitvec(hs)}
    assert doms == {frozenset("A"), frozenset("ABC")}


def test_hist_space_is_join_prime_and_ext_matches_closure():
    for o in ords.all_orders(3):
        hs = ords.hist_space(o)
        sp = Space(hs)  # constructor validates join-primality
        assert ords.ext_hist_space(o) == ext_hset(hs)


def test_order_inclusion_matches_ext_inclusion():
    # inclusion of orders is equivalent to reverse inclusion of extended spaces
    all3 = ords.all_orders(3)
    for a in all3:
        for b in all3:
            lhs = ords.order_leq(a, b)
            rhs = is_subset(ords.ext_hist_space(b), ords.ext_hist_space(a))
            assert lhs == rhs


def test_order_leq_across_event_sets():
    # an order on fewer events is below one on more events iff each of its
    # relations holds there; never the other way round
    pairs = [
        ords.CausalOrder(events, o.below)
        for events in [("A", "B"), ("A", "C"), ("B", "C")]
        for o in ords.all_orders(2)
    ]
    for a in pairs:
        for b in ords.all_orders(3):
            expected = all(
                b.leq(x, y) for x in a.events for y in a.events if a.leq(x, y)
            )
            assert ords.order_leq(a, b) == expected
            assert not ords.order_leq(b, a)


def test_is_definite_is_antisymmetry():
    for n in range(1, 5):
        for o in ords.all_orders(n):
            antisymmetric = not any(
                o.leq(x, y) and o.leq(y, x)
                for x in o.events
                for y in o.events
                if x != y
            )
            assert ords.is_definite(o) == antisymmetric


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29)])
def test_order_counts(n, count):
    assert len(ords.all_orders(n)) == count


def test_order_hierarchy_extremes():
    orders3, edges = ords.order_hierarchy(2)
    assert len(orders3) == 4
    leqs = [sum(ords.order_leq(o, p) for p in orders3) for o in orders3]
    # discrete is below all four, indiscrete only below itself
    assert sorted(leqs) == [1, 2, 2, 4]
    assert len(edges) == 4


def test_parse_and_format_roundtrip():
    cases = [
        "discrete(A,B,C)",
        "total(A,B,C)",
        "total(A,B)|discrete(C)",
        "total(A,C)|total(B,C)",
        "total(A,B)|total(A,C)",
        "total(A,{B,C})",
        "indiscrete(A,B)",
    ]
    for text in cases:
        order = ords.parse_order(text)
        assert ords.parse_order(ords.format_order(order)) == order


# sha256 of the formatted orders of ``all_orders(n)``, one per line
FORMAT_DIGESTS = {
    1: "03fe3c98e951eac1c00fb2f3128cb66b93f6be16170e8b6ed223f9b0f3970a56",
    2: "114b69e80c747d083a44d73c4c47b643e3042a1a7983353eeb5456771e29d48b",
    3: "362a4e73e3d65ddcc2889898064c43543401585e4c2d32300b50cfc1a32f513c",
    4: "b5be442957fb9b4ce596dc1bbffd54768021b41957d44d26ba2796daae738483",
}


@pytest.mark.parametrize("n", sorted(FORMAT_DIGESTS))
def test_format_order_pinned(n):
    text = "\n".join(ords.format_order(o) for o in ords.all_orders(n))
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_order_roundtrips(n):
    for order in ords.all_orders(n):
        assert ords.parse_order(ords.format_order(order)) == order


def test_order_on_no_events_has_no_literal():
    # every literal names an event, so neither direction accepts the empty order
    (empty,) = ords.all_orders(0)
    with pytest.raises(ValueError, match="at least one event"):
        ords.format_order(empty)
    with pytest.raises(ValueError):
        ords.parse_order("discrete()")


def test_catalogue_orders_parse(catalogue3):
    texts = {
        text
        for node in catalogue3.values()
        for text in (node["order"]["induced_by"], node["order"]["refines"])
        if text is not None
    }
    assert len(texts) == 13
    for text in texts:
        assert ords.format_order(ords.parse_order(text)) == text


def test_parse_order_whitespace_and_case():
    assert ords.parse_order("total( A , { B , C } )") == BC_GROUP
    assert ords.parse_order(" total(a,b) | discrete( c ) ") == ords.parse_order(
        "total(A,B)|discrete(C)"
    )


def test_parse_order_examples():
    assert ords.parse_order("total(A,B,C)") == TOTAL_ABC
    assert ords.parse_order("total(A,{B,C})") == BC_GROUP
    assert ords.parse_order("discrete(A)|total(C,B)") == ords.order_from_pairs(
        "ABC", [("C", "B")]
    )
    with pytest.raises(ValueError):
        ords.parse_order("chain(A,B)")


@pytest.mark.parametrize(
    "text",
    [
        "total(A,{B,C)",
        "total(A,1,B)",
        "total(AB)",
        "total(A;B)",
        "total(A,,B)",
        "total(A,[B,C])",
        "total(A,{})",
        "total()",
        "total(A,B)|",
    ],
)
def test_parse_order_rejects_malformed_literals(text):
    with pytest.raises(ValueError, match="Invalid"):
        ords.parse_order(text)


def test_order_hierarchy_is_bounded(monkeypatch):
    def no_enumeration(num_events):
        raise AssertionError("all_orders must not run")

    monkeypatch.setattr(ords, "all_orders", no_enumeration)
    with pytest.raises(ValueError, match="at most 4 events"):
        ords.order_hierarchy(ords.MAX_ORDER_HIERARCHY_EVENTS + 1)


def test_hist_space_complete_iff_definite():
    from causalspace.spaces import is_causally_complete

    for o in ords.all_orders(3):
        sp = Space(ords.hist_space(o))
        assert is_causally_complete(sp) == ords.is_definite(o)
