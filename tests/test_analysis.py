import json
from itertools import product

import pytest

from causalspace import analysis as an
from causalspace.encoding import (
    history,
    hset_members,
    is_subset,
)
from causalspace.orders import format_order, hist_space, parse_order
from causalspace.spaces import (
    Space,
    determination_classes,
    ext_hset,
    tip,
    total_assignments,
)
from causalspace.symmetry import perm_table, space_orbit


def H(text):
    return history({p.split("/")[0]: int(p.split("/")[1]) for p in text.split(",")})


def order_space(text):
    return Space(hist_space(parse_order(text)))


def brute_force_function_count(space):
    """Independent oracle: filter all input-to-output tables.

    A table is causal when, for every member history, the output at its
    tip event is constant across all total assignments extending it.
    """
    evs = sorted(space.events)
    n = len(evs)
    pos = {e: i for i, e in enumerate(evs)}
    assignments = total_assignments(evs)
    members = hset_members(space.histories)
    tips_of = {h: tip(space, h) for h in members}
    count = 0
    for table in product(range(1 << n), repeat=1 << n):
        ok = True
        for h in members:
            bitpos = n - 1 - pos[tips_of[h]]
            seen = {
                (table[idx] >> bitpos) & 1
                for idx, k in enumerate(assignments)
                if is_subset(h, k)
            }
            if len(seen) > 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_counts_for_order_spaces():
    assert an.count_causal_functions(order_space("discrete(A,B,C)")) == 64
    assert an.count_causal_functions(order_space("total(A,B,C)")) == 16384
    assert an.count_causal_functions(order_space("discrete(A,B)")) == 16


def test_two_event_oracle_equivalence(enumeration2, hierarchy2):
    classes, _ = enumeration2
    table = perm_table(2)
    for rep in classes:
        for space_bits in space_orbit(rep, table):
            space = Space(space_bits)
            assert an.count_causal_functions(space) == brute_force_function_count(
                space
            )


def test_function_classes_partition():
    disc = order_space("discrete(A,B,C)")
    classes = determination_classes(disc)
    assert all(len(g) == 1 for g in classes)
    assert len(classes) == 6


def test_function_classes_merge_on_identifications(hierarchy3):
    node1 = hierarchy3.nodes[1]
    groups = determination_classes(Space(node1.representative))
    merged = [g for g in groups if len(g) > 1]
    assert merged == [
        tuple(
            sorted(
                (H("A/1,B/0"), H("A/1,B/1"), H("A/1,C/0"), H("A/1,C/1")),
                key=lambda h: (bin(h).count("1"), h),
            )
        )
    ] or {tuple(sorted(g)) for g in merged} == {
        tuple(sorted((H("A/1,B/0"), H("A/1,B/1"), H("A/1,C/0"), H("A/1,C/1"))))
    }


def test_enumerate_causal_functions_explicit():
    one = Space.from_histories([1, 2])  # single event
    funcs = an.enumerate_causal_functions(one)
    assert len(funcs) == 4
    tables = {f.table for f in funcs}
    assert tables == {(0, 0), (0, 1), (1, 0), (1, 1)}

    disc = order_space("discrete(A,B,C)")
    funcs3 = an.enumerate_causal_functions(disc)
    assert len(funcs3) == 64
    # outputs depend only on the event's own input
    for f in funcs3:
        for e_pos in range(3):
            for idx_a in range(8):
                for idx_b in range(8):
                    same_input = ((idx_a >> (2 - e_pos)) & 1) == (
                        (idx_b >> (2 - e_pos)) & 1
                    )
                    if same_input:
                        assert ((f.table[idx_a] >> (2 - e_pos)) & 1) == (
                            (f.table[idx_b] >> (2 - e_pos)) & 1
                        )


def test_function_invariant_by_construction(hierarchy3):
    node = hierarchy3.nodes[17]
    space = Space(node.representative)
    evs = sorted(space.events)
    n = len(evs)
    pos = {e: i for i, e in enumerate(evs)}
    assignments = total_assignments(evs)
    members = hset_members(space.histories)
    for f in an.enumerate_causal_functions(space):
        for h in members:
            bitpos = n - 1 - pos[tip(space, h)]
            vals = {
                (f.table[i] >> bitpos) & 1
                for i, k in enumerate(assignments)
                if is_subset(h, k)
            }
            assert len(vals) == 1


def test_function_sets_monotone_under_refinement(hierarchy2, hierarchy3):
    for hierarchy in (hierarchy2, hierarchy3):
        ids = sorted(hierarchy.nodes)
        for i in ids[:20]:
            node = hierarchy.nodes[i]
            own = an.causal_function_set(Space(node.representative))
            rep_ext = ext_hset(node.representative)
            for s in list(hierarchy.class_of_space)[:300]:
                if s != node.representative and is_subset(rep_ext, ext_hset(s)):
                    assert an.causal_function_set(Space(s)) <= own


def test_novel_functions_formula(hierarchy2):
    # middle class of the 2-event hierarchy: refinement is the discrete space
    node1 = hierarchy2.nodes[1]
    disc = hierarchy2.nodes[0]
    novel = an.novel_causal_functions(
        Space(node1.representative), [Space(disc.representative)]
    )
    own = an.causal_function_set(Space(node1.representative))
    shared = an.causal_function_set(Space(disc.representative))
    assert novel == len(own - shared) == 16


def test_two_event_hierarchy_structure(hierarchy2):
    assert hierarchy2.minima == (0,)
    assert hierarchy2.maxima == (2,)
    assert hierarchy2.nodes[0].closest_coarsenings == (1,)
    assert hierarchy2.nodes[1].closest_refinements == (0,)
    assert hierarchy2.nodes[1].closest_coarsenings == (2,)
    assert [hierarchy2.nodes[i].orbit_size for i in (0, 1, 2)] == [1, 4, 2]
    assert [hierarchy2.nodes[i].causal_function_count for i in (0, 1, 2)] == [
        16,
        32,
        64,
    ]
    assert all(hierarchy2.nodes[i].is_tight for i in (0, 1, 2))


def test_classify_order_relation():
    disc = order_space("discrete(A,B)")
    induced, coarsenings = an.classify_order_relation(disc)
    assert induced is not None and format_order(induced) == "discrete(A,B)"

    total = order_space("total(A,B)")
    induced_t, _ = an.classify_order_relation(total)
    assert format_order(induced_t) == "total(A,B)"


def test_order_induced_classes(hierarchy3):
    induced = sorted(
        i for i, n in hierarchy3.nodes.items() if n.induced_by_order is not None
    )
    assert induced == [0, 33, 77, 92, 100]
    no_order = sorted(
        i for i, n in hierarchy3.nodes.items() if not n.closest_order_coarsenings
    )
    assert len(no_order) == 13


def test_diff_from_order(hierarchy3):
    node98 = hierarchy3.nodes[98]
    diffs = an.diff_from_order(Space(node98.representative), parse_order("total(A,B,C)"))
    assert len(diffs) == 1
    assert diffs[0].assignments == (H("B/1"),)
    assert diffs[0].events == ("B",)
    assert diffs[0].freed_events == ("A",)

    node3 = hierarchy3.nodes[3]
    diffs3 = an.diff_from_order(
        Space(node3.representative), parse_order("total(A,B)|discrete(C)")
    )
    grp = [d for d in diffs3 if set(d.events) == {"B", "C"}]
    assert len(grp) == 1 and len(grp[0].assignments) == 4

    total = order_space("total(A,B,C)")
    assert an.diff_from_order(total, parse_order("total(A,B,C)")) == ()
    with pytest.raises(ValueError):
        an.diff_from_order(order_space("total(A,B,C)"), parse_order("total(B,A,C)"))


def test_report_record(hierarchy3):
    record = an.report(0, hierarchy3)
    assert record["class_id"] == 0
    assert record["class_size"] == 1
    assert record["causaltope"] == {
        "dimension": 26,
        "equations": 91,
        "independent_equations": 37,
        "dimension_of_coarsening_meet": 26,
    }
    assert record["causal_functions"] == 64
    assert record["is_tight"]
    assert record["closest_refinements"] == []
    assert record["closest_coarsenings"] == [1]
    assert record["induced_by_order"] == "discrete(A,B,C)"
    with pytest.raises(ValueError):
        an.report(999, hierarchy3)


def test_report_by_space(hierarchy2):
    rec = an.report(Space(hierarchy2.nodes[2].representative), hierarchy2)
    assert rec["class_id"] == 2
    with pytest.raises(ValueError):
        an.report(Space.from_histories([1, 2]), hierarchy2)


def test_hierarchy_edges_are_converse(hierarchy3):
    nodes = hierarchy3.nodes
    for i, node in nodes.items():
        for j in node.closest_coarsenings:
            assert i in nodes[j].closest_refinements
        for j in node.closest_refinements:
            assert i in nodes[j].closest_coarsenings


def test_hierarchy_edges_transitively_reduced(hierarchy3):
    nodes = hierarchy3.nodes
    reach = {}

    def descendants(i):
        if i not in reach:
            out = set()
            for j in nodes[i].closest_refinements:
                out.add(j)
                out |= descendants(j)
            reach[i] = out
        return reach[i]

    for i, node in nodes.items():
        for j in node.closest_refinements:
            assert not any(
                j in descendants(k) for k in node.closest_refinements if k != j
            )


def test_causaltope_dim_monotone(hierarchy3):
    nodes = hierarchy3.nodes
    for i, node in nodes.items():
        for j in node.closest_refinements:
            assert nodes[j].causaltope_dim <= node.causaltope_dim


def test_hierarchy_exports(hierarchy2):
    dot = an.hierarchy_dot(hierarchy2)
    assert dot.count('label="') == 3
    assert '"0" -> "1";' in dot and '"1" -> "2";' in dot
    assert an.hierarchy_dot(hierarchy2) == dot  # deterministic

    payload = json.loads(an.hierarchy_json(hierarchy2))
    assert payload["num_events"] == 2
    assert [c["class_id"] for c in payload["classes"]] == [0, 1, 2]
    assert an.hierarchy_json(hierarchy2) == an.hierarchy_json(hierarchy2)
