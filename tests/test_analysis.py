import json
from hashlib import sha256
from itertools import product

import pytest

from causalspace import analysis as an
from causalspace import causaltope as ct
from causalspace.encoding import (
    history,
    hset_members,
    is_subset,
)
from causalspace.enumerator import enumerate_classes
from causalspace.orders import format_order, hist_space, parse_order
from causalspace.spaces import (
    Space,
    determination_classes,
    ext_hset,
    tip,
    total_assignments,
)
from causalspace.symmetry import PermTable, perm_table, space_orbit
from elimination import rank_of_rows


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


def test_three_event_exports_pinned(hierarchy3):
    # sha256 of the exports; any change to a class record or an edge shows here
    assert sha256(an.hierarchy_json(hierarchy3).encode()).hexdigest() == (
        "8cf2b09dd602cac23a9c55f8a47022cdfbe1007c359118695aead80d20843d4c"
    )
    assert sha256(an.hierarchy_dot(hierarchy3).encode()).hexdigest() == (
        "9cc6d114f0d18b28e2eb3cbb992013388062b47e8c1be54aa17f791aade94483"
    )


def test_lazy_hierarchy_matches_eager(enumeration3, hierarchy3):
    lazy = an._catalogue(enumeration3[0], 3)
    assert lazy.class_of_space == hierarchy3.class_of_space
    # read in an order unlike the numbering, so no class relies on another
    for class_id in sorted(hierarchy3.nodes, key=lambda i: (i * 37) % 102):
        assert an.report(class_id, lazy) == an.report(class_id, hierarchy3)
    assert an.hierarchy_dot(lazy) == an.hierarchy_dot(hierarchy3)


@pytest.mark.parametrize("num_events", [2, 3])
def test_space_views_match_group_action_and_closures(request, num_events):
    # recomputed from the group's history action and ext_hset of each space,
    # none of which the catalogue's packed images use
    hierarchy = request.getfixturevalue(f"hierarchy{num_events}")
    table = perm_table(num_events)
    class_of_space = {
        table.permute_space(node.representative, g): class_id
        for class_id, node in hierarchy.nodes.items()
        for g in table.group
    }
    assert len(class_of_space) == {2: 7, 3: 2644}[num_events]
    assert hierarchy.class_of_space == class_of_space
    assert hierarchy.ext_of_space == {s: ext_hset(s) for s in class_of_space}
    assert list(hierarchy.ext_of_space) == sorted(class_of_space)
    # built once, on first read
    assert hierarchy.class_of_space is hierarchy.class_of_space
    assert hierarchy.ext_of_space is hierarchy.ext_of_space


def _count_sparse_decodes(monkeypatch):
    calls = []
    sparse = PermTable.sparse

    def counted(table, key):
        calls.append(key)
        return sparse(table, key)

    monkeypatch.setattr(PermTable, "sparse", counted)
    return calls


def test_one_class_report_decodes_one_class(monkeypatch, enumeration3, hierarchy3):
    # class 17's closest refinement spaces: the minimal closures above its own
    exts = hierarchy3.ext_of_space
    rep_ext = exts[hierarchy3.nodes[17].representative]
    below = [e for e in exts.values() if e != rep_ext and is_subset(rep_ext, e)]
    covered = [e for e in below if not any(f != e and is_subset(f, e) for f in below)]
    calls = _count_sparse_decodes(monkeypatch)
    lazy = an._catalogue(enumeration3[0], 3)
    assert an.report(17, lazy) == an.report(17, hierarchy3)
    # one canonical form per class; then class 17's closest refinement spaces
    # for its novel functions, and one AND and one OR of closures. Decoding
    # every orbit member and closure takes 5,492 more.
    assert len(calls) <= 102 + len(covered) + 2


def _count_dense_images(monkeypatch):
    calls = []
    images = an._dense_images

    def counted(num_events, s):
        calls.append(s)
        return images(num_events, s)

    monkeypatch.setattr(an, "_dense_images", counted)
    return calls


def test_catalogue_images_each_table_representative_once(monkeypatch):
    calls = _count_dense_images(monkeypatch)
    reps = an._load_class_table(3)
    assert an._load_class_table(3) is reps  # the table is read once per process
    an._catalogue(reps.values(), 3)
    # each table representative and each of their closures, once
    closures = [ext_hset(r) for r in reps.values()]
    assert sorted(calls) == sorted([*reps.values(), *closures])
    assert len(calls) == 204


def test_hierarchy_images_no_representative_twice(monkeypatch, enumeration3):
    # the analysis reads each class's own dense int from the catalogue:
    # 102 table representatives and 102 closures, plus the search's own
    # representatives that are not the table's (96 of 102)
    calls = _count_dense_images(monkeypatch)
    an.build_hierarchy(an._load_class_table(3).values(), 3)
    assert len(calls) == 204
    calls.clear()
    an.build_hierarchy(enumeration3[0], 3)
    assert len(calls) == 300


@pytest.mark.parametrize("num_events", [2, 3])
def test_coarsening_meet_dimension_matches_stacked_systems(request, num_events):
    # the reference definition: stack the systems of a class's closest
    # coarsening spaces and rank the stacked rows
    hierarchy = request.getfixturevalue(f"hierarchy{num_events}")
    exts = hierarchy.ext_of_space
    num_columns = 1 << (2 * num_events)
    stacked = 0
    for class_id, node in hierarchy.nodes.items():
        rep_ext = exts[node.representative]
        above = [s for s, e in exts.items() if e != rep_ext and is_subset(e, rep_ext)]
        covering = [
            s for s in above if not any(t != s and is_subset(exts[s], exts[t]) for t in above)
        ]
        if not covering:
            assert node.causaltope_dim_of_coarsening_meet is None, class_id
            continue
        rows = [row for s in covering for row in ct.build_equations(Space(s)).rows]
        rank = rank_of_rows(rows, num_columns)
        assert node.causaltope_dim_of_coarsening_meet == num_columns - rank - 1, class_id
        stacked += 1
    assert stacked == len(hierarchy.nodes) - len(hierarchy.maxima)


def _orbit(table, s):
    # from the group's action tables, not the catalogue's packed images
    return frozenset(table.permute_space(s, g) for g in table.group)


@pytest.mark.parametrize("num_events, num_spaces", [(1, 1), (2, 7), (3, 2644)])
def test_class_table_matches_search(num_events, num_spaces):
    # the search is the oracle for the shipped numbering that the CLI trusts
    reps = an._load_class_table(num_events)
    assert list(reps) == list(range(len(reps)))
    table = perm_table(num_events)
    orbits = {i: _orbit(table, r) for i, r in reps.items()}
    assert len(set(orbits.values())) == len(reps)
    searched, _ = enumerate_classes(num_events)
    assert set(orbits.values()) == {_orbit(table, r) for r in searched}
    assert sum(len(o) for o in orbits.values()) == num_spaces
    if num_events <= 2:
        # the ranking that numbered these tables: causaltope dimension, causal
        # function count, canonical form; each representative is its canonical form
        def rank(i):
            sp = Space(reps[i])
            return ct.causaltope_dim(sp), an.count_causal_functions(sp), min(orbits[i])

        assert sorted(reps, key=rank) == list(reps)
        assert all(r == min(orbits[i]) for i, r in reps.items())


def test_catalogue_rejects_history_set_outside_class_table(enumeration2):
    # not causally complete, so no class of the table holds it
    partial = Space.parse("[A/0; B/0]").histories
    canonical = min(_orbit(perm_table(2), partial))
    with pytest.raises(ValueError) as exc:
        an._catalogue([*enumeration2[0], partial], 2)
    assert str(exc.value) == (
        f"No class in the 2-event table has canonical form {canonical}."
    )


def test_hierarchy_without_class_table_raises_before_analysis(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the catalogue was started")

    for module, name in ((ct, "build_equations"), (an, "ext_hset"), (an, "perm_table")):
        monkeypatch.setattr(module, name, unreachable)
    discrete4 = Space.parse("[A/0; A/1; B/0; B/1; C/0; C/1; D/0; D/1]").histories
    with pytest.raises(ValueError) as exc:
        an.build_hierarchy([discrete4], 4)
    assert str(exc.value) == "No class table ships for 4 events."
