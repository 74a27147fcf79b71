import hashlib
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalspace import enumerator as en
from causalspace import spaces as sp
from causalspace.analysis import causal_function_set
from causalspace.encoding import (
    bitvec,
    history,
    history_sort_key,
    is_subset,
    iter_bitvec,
    max_histories,
    sub_histories,
    total_assignments,
)
from causalspace.enumerator import enumerate_classes
from causalspace.orders import (
    all_orders,
    discrete_order,
    hist_space,
    parse_order,
    total_order,
)
from causalspace.symmetry import perm_table, space_orbit


def H(text):
    return history({p.split("/")[0]: int(p.split("/")[1]) for p in text.split(",")})


def space_of(*texts):
    return sp.Space.from_histories(H(t) for t in texts)


DISCRETE3 = sp.Space(hist_space(discrete_order("ABC")))
TOTAL3 = sp.Space(hist_space(total_order("A", "B", "C")))
BC_GROUP = sp.Space(hist_space(total_order("A", "BC")))


def test_space_constructor_rejects_non_prime():
    with pytest.raises(ValueError):
        sp.Space.from_histories([H("A/0"), H("B/1"), H("A/0,B/1")])
    with pytest.raises(ValueError):
        sp.Space(bitvec([0]))  # the empty history is never a member


def test_ext_examples():
    assert sp.ext(DISCRETE3).bit_count() == 26
    assert sp.ext(TOTAL3) == TOTAL3.histories  # closed space
    two = space_of("A/0", "A/1", "B/0", "B/1")
    assert sp.ext(two).bit_count() == 8  # adds the four total assignments


@given(st.sets(st.sampled_from(sorted(sub_histories(max_histories(3)))), max_size=8))
@settings(max_examples=60, deadline=None)
def test_ext_hset_is_every_compatible_join(members):
    # brute force over every subset of the members
    hs = sorted(members)
    expected = set()
    for mask in range(1, 1 << len(hs)):
        u = 0
        for i, h in enumerate(hs):
            if mask >> i & 1:
                u |= h
        if all(not (u >> (2 * e) & 1 and u >> (2 * e + 1) & 1) for e in range(3)):
            expected.add(u)
    assert sp.ext_hset(bitvec(members)) == bitvec(expected)


def test_ext_idempotent_and_monotone():
    for space in (DISCRETE3, TOTAL3, BC_GROUP):
        e = sp.ext(space)
        assert sp.ext_hset(e) == e
    assert is_subset(TOTAL3.histories, sp.ext(TOTAL3))


def test_prime_examples():
    assert sp.prime(sp.ext(DISCRETE3)) == DISCRETE3
    assert sp.prime(sp.ext(TOTAL3)) == TOTAL3
    one = space_of("A/1")
    assert sp.prime(one.histories) == one


def test_free_choice():
    assert sp.is_free_choice(DISCRETE3)
    assert sp.is_free_choice(TOTAL3)
    assert sp.is_free_choice(BC_GROUP)
    assert not sp.is_free_choice(space_of("A/0", "B/0", "B/1"))


def _random_prime_hset(rng, num_events):
    evs = "ABCD"[:num_events]
    pool = [
        history(zip(dom, values))
        for size in range(1, num_events + 1)
        for dom in combinations(evs, size)
        for values in product((0, 1), repeat=size)
    ]
    density = rng.random()
    return sp.prime_hset(bitvec(h for h in pool if rng.random() < density))


def test_free_choice_matches_maxima_definition():
    # the definition: the maxima of the join-closure are the total assignments
    rng = random.Random(2644)
    spaces = [sp.Space(0)] + [
        sp.Space(_random_prime_hset(rng, rng.randint(1, 4))) for _ in range(2000)
    ]
    free = 0
    for space in spaces:
        maxima = set(sp.maxima_hset(sp.ext(space)))
        expected = maxima == set(total_assignments(space.events))
        assert sp.is_free_choice(space) == expected, str(space)
        free += expected
    # both outcomes are well represented
    assert 200 < free < len(spaces) - 200


def test_tips_examples():
    assert sp.tips(DISCRETE3, H("A/0")) == frozenset("A")
    assert sp.tips(TOTAL3, H("A/0,B/1")) == frozenset("B")
    # indefinite pair: two tip events
    full = H("A/0,B/0,C/0")
    assert sp.tips(BC_GROUP, full) == frozenset("BC")
    with pytest.raises(ValueError):
        sp.tips(TOTAL3, H("B/0"))  # not an extended history of the space


def test_is_causally_complete():
    assert sp.is_causally_complete(TOTAL3)
    assert sp.is_causally_complete(DISCRETE3)
    assert not sp.is_causally_complete(BC_GROUP)
    with pytest.raises(ValueError):
        sp.is_causally_complete(space_of("A/0", "B/0", "B/1"))


def _reference_determination(space):
    """Union-find over the determining sets, then per-class output cells.

    Returns a map from each class (a frozenset of members) to its cells:
    bit ``i * n + (n - 1 - p)`` for the ``i``-th total assignment and the
    tip at event position ``p`` of each member below it.
    """
    evs = sorted(space.events)
    n = len(evs)
    members = list(iter_bitvec(space.histories))
    tip_of = {h: sp.tip(space, h) for h in members}
    parent = {h: h for h in members}

    def find(h):
        while parent[h] != h:
            h = parent[h]
        return h

    inputs = total_assignments(evs)
    for k in inputs:
        for e in evs:
            dset = [h for h in members if is_subset(h, k) and tip_of[h] == e]
            for h in dset[1:]:
                parent[find(h)] = find(dset[0])
    classes, cells = {}, {}
    for i, k in enumerate(inputs):
        for h in members:
            if is_subset(h, k):
                root = find(h)
                classes.setdefault(root, set()).add(h)
                cell = 1 << (i * n + n - 1 - evs.index(tip_of[h]))
                cells[root] = cells.get(root, 0) | cell
    return {frozenset(c): cells[root] for root, c in classes.items()}


def test_determination_matches_reference():
    rng = random.Random(102)
    spaces = []
    for n in (1, 2, 3):
        table = perm_table(n)
        for rep in enumerate_classes(n)[0]:
            orbit = space_orbit(rep, table)
            spaces += [rep, rng.choice(orbit)]
    for bits in spaces:
        space = sp.Space(bits)
        reference = _reference_determination(space)
        classes = sp.determination_classes(space)
        assert {frozenset(g) for g in classes} == set(reference)
        assert all(list(g) == sorted(g, key=history_sort_key) for g in classes)
        assert list(classes) == sorted(classes, key=lambda g: history_sort_key(g[0]))
        functions = [0]
        for mask in reference.values():
            functions += [f | mask for f in functions]
        assert causal_function_set(space) == frozenset(functions)


def test_tightness_examples(catalogue3, hierarchy3):
    node5 = hierarchy3.nodes[5]
    tight5, groups5 = sp.tightness(sp.Space(node5.representative))
    assert tight5 and groups5 == ()
    node100 = hierarchy3.nodes[100]
    tight100, groups100 = sp.tightness(sp.Space(node100.representative))
    assert tight100 and groups100 == ()
    node17 = hierarchy3.nodes[17]
    t17, g17 = sp.tightness(sp.Space(node17.representative))
    assert not t17
    assert g17 == ((H("A/1,C/1"), H("B/1,C/1")),)
    node3 = hierarchy3.nodes[3]
    t3, g3 = sp.tightness(sp.Space(node3.representative))
    assert not t3
    assert len(g3) == 2 and all(len(g) == 4 for g in g3)


def test_space_lattice_examples():
    assert sp.space_join(TOTAL3, TOTAL3) == TOTAL3
    assert sp.space_leq(DISCRETE3, TOTAL3)
    assert not sp.space_leq(TOTAL3, DISCRETE3)
    j = sp.space_join(TOTAL3, DISCRETE3)
    assert j == TOTAL3
    m = sp.space_meet(TOTAL3, DISCRETE3)
    assert m == DISCRETE3


def small_spaces():
    pool = [
        DISCRETE3,
        TOTAL3,
        sp.Space(hist_space(total_order("B", "A", "C"))),
        sp.Space(hist_space(parse_order("total(A,B)|discrete(C)"))),
        sp.Space(hist_space(parse_order("total(A,C)|total(B,C)"))),
        sp.Space(hist_space(parse_order("total(A,B)|total(A,C)"))),
    ]
    return st.sampled_from(pool)


@given(small_spaces(), small_spaces(), small_spaces())
@settings(max_examples=30, deadline=None)
def test_lattice_laws(a, b, c):
    assert sp.space_join(a, b) == sp.space_join(b, a)
    assert sp.space_meet(a, b) == sp.space_meet(b, a)
    assert sp.space_join(a, sp.space_meet(a, b)) == a  # absorption
    assert sp.space_meet(a, sp.space_join(a, b)) == a
    assert sp.space_leq(sp.space_join(a, b), b) or sp.space_leq(b, sp.space_join(a, b))


def test_order_space_monotone():
    ab_c = sp.Space(hist_space(parse_order("total(A,B)|discrete(C)")))
    assert sp.space_leq(DISCRETE3, ab_c)
    assert sp.space_leq(ab_c, TOTAL3)


def test_parallel_compose():
    left = sp.Space(hist_space(discrete_order("AB")))
    right = sp.Space(hist_space(total_order("C", "D")))
    par = sp.parallel_compose(left, right)
    assert par.histories == left.histories | right.histories
    empty = sp.Space(0)
    assert sp.parallel_compose(left, empty) == left
    with pytest.raises(ValueError):
        sp.parallel_compose(left, left)


def test_seq_compose_copies():
    left = sp.Space(hist_space(discrete_order("AB")))
    right = sp.Space(hist_space(total_order("C", "D")))
    seq = sp.seq_compose(left, right)
    # one copy of the 6-history right space after each of the 4 maximal
    # extended histories, plus the left space itself
    assert seq.histories.bit_count() == (
        left.histories.bit_count() + 4 * right.histories.bit_count()
    )


def test_cond_seq_compose_switch():
    head = space_of("A/0", "A/1")
    bc = sp.Space(hist_space(total_order("B", "C")))
    cb = sp.Space(hist_space(total_order("C", "B")))
    switch = sp.cond_seq_compose(head, {H("A/0"): bc, H("A/1"): cb})
    assert sp.is_causally_complete(switch)
    assert sp.ext(switch) == switch.histories
    assert switch.histories.bit_count() == 14
    with pytest.raises(ValueError):
        sp.cond_seq_compose(head, {H("A/0"): bc})


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12)])
def test_causal_switch_space_counts(n, count):
    switches = sp.causal_switch_spaces(n)
    assert len(switches) == count
    for s in switches:
        assert sp.is_causally_complete(s)
        assert sp.ext(s) == s.histories


def test_switch_spaces_are_classes_100_and_101(hierarchy3):
    switch_sets = {s.histories for s in sp.causal_switch_spaces(3)}
    members = {
        s
        for s, cid in hierarchy3.class_of_space.items()
        if cid in (100, 101)
    }
    assert switch_sets == members


def test_closed_complete_spaces_are_exactly_switches(hierarchy3):
    # spaces equal to their own closure and causally complete = switch spaces
    closed = {
        s
        for s in hierarchy3.class_of_space
        if sp.ext_hset(s) == s
    }
    assert closed == {s.histories for s in sp.causal_switch_spaces(3)}


def test_maxima_of_complete_hierarchy_are_switches(hierarchy3):
    exts = {s: sp.ext_hset(s) for s in hierarchy3.class_of_space}
    maxima = {
        s
        for s in exts
        if not any(t != s and exts[t] != exts[s] and is_subset(exts[t], exts[s]) for t in exts)
    }
    assert maxima == {s.histories for s in sp.causal_switch_spaces(3)}


def test_causal_completions_of_indefinite_pair():
    comps = sp.causal_completions(BC_GROUP)
    assert len(comps) == 4
    for c in comps:
        assert sp.is_causally_complete(c)
        assert sp.space_leq(c, BC_GROUP)


def test_causal_completions_of_complete_space():
    assert sp.causal_completions(TOTAL3) == (TOTAL3,)
    assert sp.causal_completions(DISCRETE3) == (DISCRETE3,)


@pytest.mark.parametrize("n", [2, 3])
def test_causal_completions_of_order_spaces_match_quadratic_filter(n):
    # every complete space on n events; keep those refining the order's
    # space, then drop any with a strictly smaller closure among them
    table = perm_table(n)
    complete = {s for rep in enumerate_classes(n)[0] for s in space_orbit(rep, table)}
    for o in all_orders(n):
        space = sp.Space(hist_space(o))
        target = sp.ext(space)
        refining = [s for s in complete if is_subset(target, sp.ext_hset(s))]
        closest = sorted(
            s
            for s in refining
            if not any(
                t != s and is_subset(sp.ext_hset(t), sp.ext_hset(s)) for t in refining
            )
        )
        assert [c.histories for c in sp.causal_completions(space)] == closest


def test_causal_completions_read_the_class_table_not_the_search(monkeypatch, enumeration3):
    table = perm_table(3)
    complete = sorted(s for rep in enumeration3[0] for s in space_orbit(rep, table))
    rng = random.Random(2644)
    pairs = (rng.sample(complete, 2) for _ in range(40))
    spaces = [sp.space_join(sp.Space(a), sp.Space(b)) for a, b in pairs]
    spaces += [sp.Space(hist_space(o)) for o in all_orders(3)]
    assert sum(not sp.is_causally_complete(s) for s in spaces) == 39

    def unreachable(*args, **kwargs):
        raise AssertionError("a search was started")

    monkeypatch.setattr(en, "SpaceFinder", unreachable)
    sp._all_complete_hsets.cache_clear()
    out = [[c.histories for c in sp.causal_completions(s)] for s in spaces]
    # the completions as computed from the orbits of a complete search
    assert sum(map(len, out)) == 222
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "18259919255ee1a3f2c1236d350cf1233cc9f581027ae9ff23ebe3fc5a32080e"
    )


def test_causal_completions_reject_incomplete_space_beyond_three_events():
    pair = sp.Space(hist_space(parse_order("indiscrete(B,C)")))
    par = sp.parallel_compose(pair, space_of("A/0", "A/1", "D/0", "D/1"))
    assert not sp.is_causally_complete(par)
    with pytest.raises(ValueError, match="up to 3 events"):
        sp.causal_completions(par)


def test_causal_completions_distribute_over_parallel():
    # 1 + 2 events: an incomplete indefinite pair next to a free event
    pair = sp.Space(hist_space(parse_order("indiscrete(B,C)")))
    one = space_of("A/0", "A/1")
    par = sp.parallel_compose(pair, one)
    lhs = {c.histories for c in sp.causal_completions(par)}
    rhs = {
        sp.parallel_compose(x, y).histories
        for x in sp.causal_completions(pair)
        for y in sp.causal_completions(one)
    }
    assert lhs == rhs


def test_causal_completions_distribute_over_sequential():
    # sequential composition is conditional composition with a constant
    # family, so its completions range over per-branch completion choices
    head = space_of("A/0", "A/1")
    tail = sp.Space(hist_space(parse_order("indiscrete(B,C)")))  # incomplete
    seq = sp.seq_compose(head, tail)
    lhs = {c.histories for c in sp.causal_completions(seq)}
    tail_comps = sp.causal_completions(tail)
    k0, k1 = sp.maxima_hset(sp.ext(head))
    rhs = {
        sp.cond_seq_compose(x, {k0: t0, k1: t1}).histories
        for x in sp.causal_completions(head)
        for t0 in tail_comps
        for t1 in tail_comps
    }
    assert lhs == rhs
    assert len(lhs) == 4  # two fixed orderings and two input-controlled ones
