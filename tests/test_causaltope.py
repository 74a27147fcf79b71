import random
from hashlib import sha256
from itertools import combinations, islice

import pytest
import sympy

from causalspace import causaltope as ct
from causalspace.analysis import CausalFunction, causal_function_set
from causalspace.encoding import (
    domsize,
    history_items,
    hset_members,
    is_subset,
    total_assignments,
)
from causalspace.enumerator import SpaceFinder
from causalspace.orders import all_orders, hist_space, is_definite, parse_order
from causalspace.spaces import Space, ext
from elimination import rank_of_rows


def order_space(text):
    return Space(hist_space(parse_order(text)))


ANCHORS = [
    ("discrete(A,B,C)", 91, 37, 26),
    ("total(A,B,C)", 35, 21, 42),
    ("total(A,C)|total(B,C)", 47, 23, 40),
    ("total(A,B)|total(A,C)", 51, 29, 34),
    ("total(A,B)|discrete(C)", 63, 31, 32),
]


@pytest.mark.parametrize("text,rows,indep,dim", ANCHORS)
def test_order_space_systems(text, rows, indep, dim):
    space = order_space(text)
    system = ct.build_equations(space)
    assert system.num_rows == rows
    assert ct.num_equations(ext(space), space.events) == rows
    assert rank_of_rows(system.rows, system.num_columns) == indep
    assert ct.rank(ext(space), space.events) == indep
    assert ct.causaltope_dim(space) == dim


def test_three_event_dumps_pinned(hierarchy3):
    # sha256 of the CSV and PGM dumps of the 102 class representatives'
    # systems, concatenated in class-id order; any change to a row shows here
    systems = [
        ct.build_equations(Space(hierarchy3.nodes[i].representative))
        for i in sorted(hierarchy3.nodes)
    ]
    assert len(systems) == 102
    assert sha256(b"".join(map(ct.dump_csv, systems))).hexdigest() == (
        "c0cfb7ff0ab90707dfdef4fb6f665e9063013fe7f22ab2b1a91e5362123546c1"
    )
    assert sha256(b"".join(map(ct.dump_pgm, systems))).hexdigest() == (
        "d211371f50dd774fb596bd4007b8ae14a360ef4b69bafcb698ec8336968cd62f"
    )


def test_four_event_order_dumps_pinned():
    # sha256 of the CSV dumps of the 219 complete order spaces on 4 events,
    # concatenated in the order of all_orders; any change to a row shows here
    spaces = [Space(hist_space(o)) for o in all_orders(4) if is_definite(o)]
    assert len(spaces) == 219
    dumps = b"".join(ct.dump_csv(ct.build_equations(s)) for s in spaces)
    assert sha256(dumps).hexdigest() == (
        "a6392f079a78447a18020f1d397f0c622f9f2538b7b71f1f68ce0d4f3aa051a8"
    )


def test_single_event_space_dim():
    space = Space.from_histories(
        [1, 2]  # A/0, A/1
    )
    assert ct.causaltope_dim(space) == 2  # 4 - 1 - 1


def test_rank_of_zero_system():
    assert rank_of_rows((), 16) == 0
    assert rank_of_rows(((0,) * 16, (0,) * 16), 16) == 0


def test_rows_are_marginal_differences():
    system = ct.build_equations(order_space("total(A,B,C)"))
    for row in system.rows:
        assert sum(v for v in row if v > 0) == -sum(v for v in row if v < 0)
        assert set(row) <= {-1, 0, 1}


def test_rank_matches_sympy():
    for text, *_ in ANCHORS[:3]:
        space = order_space(text)
        system = ct.build_equations(space)
        expected = sympy.Matrix(system.rows).rank()
        assert rank_of_rows(system.rows, system.num_columns) == expected
        assert ct.rank(ext(space), space.events) == expected


def all_pairs_system(space):
    """The system of a space with a row per pair of extending inputs.

    ``build_equations`` takes only consecutive pairs; every pair spans the
    same constraints with more rows.
    """
    evs = tuple(sorted(space.events))
    n = len(evs)
    inputs = total_assignments(evs)
    rows = []
    for h in [h for h in hset_members(ext(space)) if domsize(h) < n] + [0]:
        dmask = sum(1 << (n - 1 - evs.index(e)) for e, _ in history_items(h))
        ext_inputs = [i for i, k in enumerate(inputs) if is_subset(h, k)]
        for part in dict.fromkeys(o & dmask for o in range(1 << n)):
            outputs = [o for o in range(1 << n) if o & dmask == part]
            for a, b in combinations(ext_inputs, 2):
                row = [0] * (1 << (2 * n))
                for o in outputs:
                    row[(a << n) | o] = 1
                    row[(b << n) | o] = -1
                rows.append(tuple(row))
    return ct.LinearSystem(tuple(rows), n)


def test_rank_invariant_under_row_permutation_and_pair_scheme():
    space = order_space("total(A,B)|discrete(C)")
    system = ct.build_equations(space)
    width = system.num_columns
    rank = rank_of_rows(system.rows, width)
    assert rank_of_rows(reversed(system.rows), width) == rank
    all_pairs = all_pairs_system(space)
    assert rank_of_rows(all_pairs.rows, width) == rank
    assert all_pairs.num_rows >= system.num_rows


def test_rank_matches_elimination_on_three_event_classes(hierarchy3):
    # the 102 class systems; the 100 coarsening meets are checked against
    # the elimination of their stacked systems in test_analysis
    for class_id, node in hierarchy3.nodes.items():
        system = ct.build_equations(Space(node.representative))
        assert node.num_independent_equations == rank_of_rows(system.rows, 64), class_id
        assert node.num_equations == system.num_rows, class_id
    assert len(hierarchy3.nodes) == 102


def test_rank_matches_elimination_on_four_event_spaces():
    orders = [Space(hist_space(o)) for o in all_orders(4) if is_definite(o)]
    assert len(orders) == 219
    finder = SpaceFinder(4, verbose=False)
    finder.blank_state()
    searched = [Space(s) for s in islice(finder.iter_find_eq_classes(), 20)]
    for space in random.Random(18).sample(orders, 30) + searched:
        system = ct.build_equations(space)
        assert ct.rank(ext(space), space.events) == rank_of_rows(system.rows, 256), space
        assert ct.num_equations(ext(space), space.events) == system.num_rows, space


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_discrete_space_dim_is_no_signalling_dim(n):
    # S. Pironio, J. Math. Phys. 46, 062112 (2005): 3**n - 1 for binary
    # inputs and outputs
    events = [chr(ord("A") + e) for e in range(n)]
    discrete = Space.from_histories(h for e in events for h in total_assignments([e]))
    assert ct.causaltope_dim(discrete) == 3**n - 1


def test_product_models_satisfy_causality_rows():
    # models whose outputs are input-independent coin tosses null every row
    for text, *_ in ANCHORS[:3]:
        system = ct.build_equations(order_space(text))
        n = system.num_events
        weights = [3, 5, 7][:n]
        model = []
        for i in range(1 << n):
            for o in range(1 << n):
                p = 1
                for e in range(n):
                    p *= weights[e] if (o >> (n - 1 - e)) & 1 else 13 - weights[e]
                model.append(p)
        for row in system.rows:
            assert sum(c * m for c, m in zip(row, model)) == 0


def test_dump_csv_roundtrip():
    space = order_space("total(A,B)")
    system = ct.build_equations(space)
    data = ct.dump_csv(system)
    lines = data.decode().strip().split("\n")
    assert len(lines) == system.num_rows + 1  # header included
    parsed = ct.parse_csv(data, system.num_events)
    assert parsed == system


def test_dump_csv_empty_system():
    empty = ct.LinearSystem((), 2)
    data = ct.dump_csv(empty)
    assert data.decode().strip().count("\n") == 0  # header only
    assert ct.parse_csv(data, 2) == empty


def test_dump_pgm():
    system = ct.build_equations(order_space("total(A,B)"))
    data = ct.dump_pgm(system).decode()
    header = data.split("\n")[0].split()
    assert header[0] == "P2"
    assert int(header[1]) == system.num_columns
    assert int(header[2]) == system.num_rows
    values = {int(v) for line in data.split("\n")[1:] if line for v in line.split()}
    assert values <= {0, 128, 255}


def test_dump_system_dispatch():
    system = ct.build_equations(order_space("total(A,B)"))
    assert ct.dump_system(system, "csv") == ct.dump_csv(system)
    assert ct.dump_system(system, "pgm") == ct.dump_pgm(system)
    with pytest.raises(ValueError):
        ct.dump_system(system, "svg")


def test_build_equations_requires_complete_space():
    incomplete = Space(hist_space(parse_order("total(A,{B,C})")))
    with pytest.raises(ValueError):
        ct.build_equations(incomplete)
    not_free = Space.from_histories([1, 4, 8])  # A/0, B/0, B/1
    with pytest.raises(ValueError):
        ct.build_equations(not_free)


def _bareiss_rank(rows):
    """Exact rank by Bareiss fraction-free elimination.

    Each update divides by the previous pivot, and that division is exact.
    Columns and rows that are zero throughout are dropped first.
    """
    width = len(rows[0]) if rows else 0
    cols = [j for j in range(width) if any(r[j] for r in rows)]
    m = [[r[j] for j in cols] for r in rows if any(r)]
    rank, prev = 0, 1
    for col in range(len(cols)):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            r = m[i]
            m[i] = r[:col] + [
                (x * p[col] - r[col] * y) // prev for x, y in zip(r[col:], p[col:])
            ]
        prev = p[col]
        rank += 1
    return rank


def test_bareiss_rank_matches_sympy():
    rng = random.Random(0)
    for _ in range(100):
        width, count = rng.randint(1, 10), rng.randint(1, 12)
        basis = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rng.randint(1, 6))]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(width)]
            for _ in range(count)
        ]
        assert _bareiss_rank(rows) == sympy.Matrix(rows).rank()


def test_causal_functions_are_points_of_the_causaltope(hierarchy3):
    # deterministic causal functions are points of the causaltope: each
    # function's 0/1 model nulls every row, and a seeded sample of them
    # spans an affine hull no larger than the causaltope
    for class_id, node in sorted(hierarchy3.nodes.items()):
        space = Space(node.representative)
        system = ct.build_equations(space)
        n = system.num_events
        assert all(v in (-1, 0, 1) for row in system.rows for v in row)
        # a row applied to a 0/1 model: its +1 columns hit minus its -1 columns hit
        signs = [
            (sum(1 << c for c, v in enumerate(row) if v == 1),
             sum(1 << c for c, v in enumerate(row) if v == -1))
            for row in system.rows
        ]
        functions = sorted(causal_function_set(space))
        sample = random.Random(class_id).sample(functions, min(100, len(functions)))
        points = []
        for packed in sample:
            table = CausalFunction.from_packed(packed, n).table
            model = sum(1 << ((i << n) | o) for i, o in enumerate(table))
            assert all(
                (model & plus).bit_count() == (model & minus).bit_count()
                for plus, minus in signs
            ), class_id
            points.append([(model >> c) & 1 for c in range(system.num_columns)])
        differences = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
        assert _bareiss_rank(differences) <= node.causaltope_dim, class_id
