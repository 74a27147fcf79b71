"""Causally complete spaces of input histories with binary inputs.

Enumeration, classification and analysis of spaces of input histories:
the bitvector encodings, the restriction semilattice, causal orders and
their induced spaces, the event-input permutation symmetry, the
checkpointable search for causally complete spaces, the linear systems of
their standard empirical models, and the condensed hierarchy with
per-class reports.
"""

from .encoding import (
    Bitvec,
    Event,
    History,
    HistoryItem,
    HistorySet,
    bitvec,
    child_histories,
    dom,
    domsize,
    format_history,
    format_hset,
    history,
    history_sort_key,
    hset,
    hset_members,
    is_subset,
    iter_bitvec,
    max_histories,
    parents,
    parse_history,
    parse_hset,
    sub,
    sub_histories,
)
from .histories import compatible, compatible_set, join, meet, restriction_leq
from .orders import (
    CausalOrder,
    CausalRelation,
    causal_eq_class,
    causal_future,
    causal_past,
    classify,
    discrete_order,
    ext_hist_space,
    hist_space,
    indiscrete_order,
    is_definite,
    lowersets,
    order_hierarchy,
    order_join,
    order_leq,
    order_meet,
    parse_order,
    total_order,
)
from .spaces import (
    Space,
    causal_completions,
    causal_switch_spaces,
    cond_seq_compose,
    ext,
    is_causally_complete,
    is_free_choice,
    parallel_compose,
    prime,
    seq_compose,
    space_join,
    space_leq,
    space_meet,
    tightness,
    tip,
    tips,
)
from .symmetry import (
    PermGroupEl,
    canonical_rep,
    history_stabiliser,
    iter_perm_group,
    perm_table,
    permute_history,
    space_orbit,
    space_stabiliser,
)
from .enumerator import (
    CorruptStateError,
    SearchState,
    SpaceFinder,
    enumerate_classes,
    find_eq_classes_parallel,
    read_hsets,
    read_state,
    write_hsets,
    write_state,
)
from .causaltope import (
    LinearSystem,
    build_equations,
    causaltope_dim,
    dump_system,
    rank,
)
from .analysis import (
    CausalFunction,
    Hierarchy,
    HierarchyNode,
    build_hierarchy,
    classify_order_relation,
    count_causal_functions,
    diff_from_order,
    enumerate_causal_functions,
    hierarchy_dot,
    hierarchy_json,
    novel_causal_functions,
    report,
)

__version__ = "0.1.0"
