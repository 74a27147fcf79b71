import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalspace import symmetry as sym
from causalspace.encoding import bitvec, history, iter_bitvec


def H(text):
    return history({p.split("/")[0]: int(p.split("/")[1]) for p in text.split(",")})


@pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 48)])
def test_group_sizes(n, size):
    events = "ABC"[:n]
    assert len(list(sym.iter_perm_group(events))) == size


def test_iter_perm_group_rejects_repeats():
    with pytest.raises(ValueError):
        list(sym.iter_perm_group("AA"))


def test_permute_history_examples():
    identity = sym.identity_perm("AB")
    h = H("A/0,B/1")
    assert sym.permute_history(h, identity) == h
    swap = (("B", "A"), (0, 0))
    assert sym.permute_history(h, swap) == H("A/1,B/0")
    flip_a = (("A", "B"), (1, 0))
    assert sym.permute_history(H("A/0"), flip_a) == H("A/1")


def compose(g1, g2, events):
    """g1 after g2, derived from the action on histories."""
    table = {}
    for e in events:
        for v in (0, 1):
            h = history({e: v})
            table[h] = sym.permute_history(sym.permute_history(h, g2), g1)
    return table


@given(st.integers(0, 47), st.integers(0, 47))
@settings(max_examples=40, deadline=None)
def test_group_action_composes(i, j):
    group = list(sym.iter_perm_group("ABC"))
    g1, g2 = group[i], group[j]
    comp = compose(g1, g2, "ABC")
    for h in (H("A/0,B/1"), H("A/1,B/0,C/1"), H("C/0")):
        step = sym.permute_history(sym.permute_history(h, g2), g1)
        # composite action agrees with the item-wise composite
        from causalspace.encoding import history_items

        rebuilt = 0
        for e, v in history_items(h):
            rebuilt |= comp[history({e: v})]
        assert step == rebuilt


def test_history_stabiliser_order_divides_group():
    group = list(sym.iter_perm_group("ABC"))
    for h in (H("A/0"), H("A/0,B/0"), H("A/1,B/0,C/1")):
        stab = sym.history_stabiliser(h, group)
        orbit = {sym.permute_history(h, g) for g in group}
        assert len(orbit) * len(stab) == len(group)


def test_space_orbit_of_middle_class():
    table = sym.perm_table(2)
    orbit = sym.space_orbit(1362, table)
    assert list(orbit) == [1362, 820, 1558, 358]
    assert sym.canonical_rep(1362, table) == 358
    assert sym.space_orbit(278, table) == (278,)
    assert sym.canonical_rep(278, table) == 278


def test_space_stabiliser_of_children_subset():
    # the three-member children subset fixed at the first step of the
    # 3-event top-level optimisation has a 6-element stabiliser
    table = sym.perm_table(3)
    subset = bitvec([H("A/0,C/0"), H("B/0,C/0"), H("A/0,B/0")])
    stab = sym.space_stabiliser(subset, table)
    assert len(stab) == 6


def test_orbit_stabiliser_product():
    table = sym.perm_table(2)
    for space in (1362, 1638, 278, bitvec([H("A/0")])):
        orbit = sym.space_orbit(space, table)
        stab = sym.space_stabiliser(space, table)
        assert len(orbit) * len(stab) == len(table.group)


def test_canonical_rep_is_idempotent_and_orbit_invariant():
    table = sym.perm_table(2)
    for space in (1362, 1638, 278):
        canon = sym.canonical_rep(space, table)
        assert canon in sym.space_orbit(space, table)
        assert sym.canonical_rep(canon, table) == canon
        for img in sym.space_orbit(space, table):
            assert sym.canonical_rep(img, table) == canon


@pytest.mark.parametrize("n", [1, 2, 3])
def test_action_tables_match_permute_history(n):
    table = sym.PermTable(n)
    expected = {
        g: {h: sym.permute_history(h, g) for h in table.histories} for g in table.group
    }
    assert list(table.action) == list(expected)
    for g in table.group:
        assert list(table.action[g].items()) == list(expected[g].items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_images_match_permute_space(n):
    table = sym.perm_table(n)
    rng = random.Random(n)
    for _ in range(12):
        size = rng.randint(1, len(table.histories))
        s = bitvec(rng.sample(table.histories, size))
        keys = table.dense_images(iter_bitvec(s))
        images = [table.permute_space(s, g) for g in table.group]
        assert [table.sparse(k) for k in keys] == images
        # comparing keys as bytes compares the history sets as numbers
        assert [table.sparse(k) for k in sorted(keys)] == sorted(images)
        assert sym.space_orbit(s, table) == tuple(dict.fromkeys(images))
        assert sym.canonical_rep(s, table) == min(images)
        assert sym.space_stabiliser(s, table) == tuple(
            g for g, img in zip(table.group, images) if img == s
        )
