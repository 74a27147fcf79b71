import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalspace import encoding as enc


def test_bitvec_packs_elements():
    assert enc.bitvec({1, 3, 5, 8}) == 298
    assert enc.bitvec([]) == 0
    assert enc.bitvec([0]) == 1


def test_bitvec_rejects_negative():
    with pytest.raises(ValueError):
        enc.bitvec([3, -1])


def test_sub_and_is_subset():
    assert enc.sub(298, enc.bitvec({2})) == 298  # disjoint sets
    assert enc.sub(298, 2) == 296  # 2 encodes {1}, which is a member
    assert enc.sub(298, 298) == 0
    assert enc.sub(0b1011, 0b0010) == 0b1001
    assert enc.is_subset(0, 298)
    assert enc.is_subset(298, 298)
    assert not enc.is_subset(0b11, 0b01)


def test_iter_bitvec():
    assert list(enc.iter_bitvec(298)) == [1, 3, 5, 8]
    assert list(enc.iter_bitvec(0)) == []
    assert list(enc.iter_bitvec(137)) == [0, 3, 7]


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_bitvec_iter_roundtrip(elements):
    v = enc.bitvec(elements)
    assert set(enc.iter_bitvec(v)) == elements
    assert enc.bitvec(enc.iter_bitvec(v)) == v


@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=1 << 40),
)
def test_sub_properties(u, v):
    assert enc.is_subset(enc.sub(u, v), u)
    assert enc.sub(u, v) & v == 0


def test_history_encoding():
    assert enc.history({"A": 0, "B": 1, "D": 1}) == 137
    assert enc.history({}) == 0
    assert enc.history({"A": 0}) == 1


def test_history_rejects_duplicate_event():
    with pytest.raises(ValueError):
        enc.history([("A", 0), ("A", 1)])
    with pytest.raises(ValueError):
        enc.history([("B", 1), ("B", 1)])


def test_history_items_roundtrip():
    h = enc.history({"A": 0, "B": 1, "D": 1})
    assert enc.history_items(h) == (("A", 0), ("B", 1), ("D", 1))
    assert enc.history(enc.history_items(h)) == h


def test_dom_and_domsize():
    h = enc.history({"A": 0, "B": 1, "D": 1})
    assert enc.dom(h) == frozenset("ABD")
    assert enc.domsize(h) == 3
    assert enc.dom(0) == frozenset()
    assert enc.domsize(0) == 0
    assert enc.dom(1) == frozenset("A")
    assert enc.domsize(1) == 1


def test_history_sort_key_orders_by_length_then_content():
    a0 = enc.history({"A": 0})
    a1 = enc.history({"A": 1})
    a0b0 = enc.history({"A": 0, "B": 0})
    assert enc.history_sort_key(a0) < enc.history_sort_key(a0b0)
    assert enc.history_sort_key(a0) < enc.history_sort_key(a1)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=6))
def test_history_sort_key_injective(items):
    seen = {}
    for e_idx, v in items:
        seen[enc.idx_to_event(e_idx)] = v
    h = enc.history(seen)
    k = enc.history(dict(enc.history_items(h)))
    assert (enc.history_sort_key(h) == enc.history_sort_key(k)) == (h == k)


def test_max_histories():
    assert enc.max_histories(1) == (enc.history({"A": 0}), enc.history({"A": 1}))
    assert len(enc.max_histories(2)) == 4
    hs3 = enc.max_histories(3)
    assert len(hs3) == 8
    assert hs3[0] == enc.history({"A": 0, "B": 0, "C": 0})


def test_child_histories():
    h = enc.history({"A": 0, "B": 0, "C": 0})
    children = set(enc.child_histories(h))
    assert children == {
        enc.history({"A": 0, "B": 0}),
        enc.history({"A": 0, "C": 0}),
        enc.history({"B": 0, "C": 0}),
    }
    assert enc.child_histories(enc.history({"A": 0})) == ()
    assert set(enc.child_histories(enc.history({"A": 1, "B": 1}))) == {
        enc.history({"A": 1}),
        enc.history({"B": 1}),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sub_histories_closure_size(n):
    # each event absent/0/1, minus the empty history
    assert len(enc.sub_histories(enc.max_histories(n))) == 3**n - 1


def test_sub_histories_includes_originals_first():
    hs = enc.max_histories(2)
    closure = enc.sub_histories(hs)
    assert closure[: len(hs)] == hs
    assert enc.sub_histories([enc.history({"A": 0})]) == (enc.history({"A": 0}),)


def test_history_literals_roundtrip():
    h = enc.history({"A": 0, "C": 1})
    assert enc.format_history(h) == "A/0,C/1"
    assert enc.parse_history("A/0,C/1") == h
    assert enc.parse_history("-") == 0
    with pytest.raises(ValueError):
        enc.parse_history("A-0")


def test_hset_literals():
    s = enc.bitvec([enc.history({"A": 0}), enc.history({"A": 1, "B": 0})])
    assert enc.parse_hset(enc.format_hset(s)) == s
    assert enc.parse_hset(str(s)) == s
    assert enc.parse_hset("[A/0, A/1]") == enc.bitvec(
        [enc.history({"A": 0}), enc.history({"A": 1})]
    )


def test_hset_literal_needs_closing_bracket():
    for text in ("[", "[A/0; A/1; B/0; B/1"):
        with pytest.raises(ValueError, match="Unclosed"):
            enc.parse_hset(text)
    assert enc.parse_hset("[]") == 0
