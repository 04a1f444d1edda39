import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refs
from conftest import graphs
from sepgames import (
    ADAM,
    EVE,
    AlphabetMismatchError,
    Game,
    Graph,
    InvalidGameError,
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
    Path,
    PositionalStrategy,
    Safety,
    accepts_all_paths,
    build_separator,
    find_negative_cycle,
    graph_satisfies_mp,
    graph_satisfies_parity,
    reachable_graph,
    restrict_to_strategy,
    scc_decompose,
)
from sepgames.core import Lasso, _scc_labels


# ---------------------------------------------------------------------------
# Graph and game construction invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_duplicate_edges():
    with pytest.raises(InvalidGameError):
        Graph(2, [(0, 1, 1), (0, 1, 1)])


def test_graph_allows_parallel_edges_with_distinct_colors():
    g = Graph(2, [(0, 1, 1), (0, 2, 1)])
    assert g.edge_count == 2


def test_graph_rejects_out_of_range_ids():
    with pytest.raises(InvalidGameError):
        Graph(2, [(0, 1, 2)])


def test_graph_rejects_mixed_color_shapes():
    with pytest.raises(InvalidGameError):
        Graph(2, [(0, 1, 1), (0, (1, 2), 1)])


def test_game_rejects_out_of_bound_colors():
    with pytest.raises(InvalidGameError):
        Game(Graph(1, [(0, 5, 0)]), (EVE,), Parity(4))
    with pytest.raises(InvalidGameError):
        Game(Graph(1, [(0, -4, 0)]), (EVE,), MeanPayoff(3))


def test_game_names_the_first_edge_with_a_rejected_color():
    # equal colors are checked once, but a bool or a float equal to an
    # accepted int is still rejected, on its own edge
    cases = [
        (Parity(4), [(0, 1, 1), (1, 7, 2), (2, 7, 0), (0, 9, 2)], "(1, 7, 2)"),
        (Parity(4), [(0, 1, 1), (1, True, 2)], "(1, True, 2)"),
        (MeanPayoff(3), [(0, 1, 1), (0, 2, 2), (2, 1.0, 0)], "(2, 1.0, 0)"),
        (MeanPayoffDisjunction(2, 1), [(0, (1, 0), 1), (1, (1, False), 2)], "(1, (1, False), 2)"),
    ]
    for objective, edges, named in cases:
        with pytest.raises(InvalidGameError, match=re.escape(f"edge {named}:")):
            Game(Graph(3, edges), (EVE,) * 3, objective)
        with pytest.raises(AlphabetMismatchError, match=re.escape(f"edge {named}:")):
            accepts_all_paths(build_separator(objective, 3), Graph(3, edges))


def test_game_needs_owner_per_vertex():
    with pytest.raises(InvalidGameError):
        Game(Graph(2, []), (EVE,), MeanPayoff(1))


# probes for color_error: in and out of range, bools, floats, a string,
# tuples of every length up to 3 (some holding a bool or a float), a list
_COLOR_PROBES = [
    None, 0, 1, 2, 4, 5, -1, -2, -3, True, False, 1.0, "1", (), (0,), (1,), (0, 0), (2, -1),
    (5, 0), (0, 3), (0, 0, 0), (1, -1, 1), (True, 0), (0, False), (0, 1.0), (1.0, 0), [0, 0],
]


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def test_objective_descriptors_are_pinned():
    # per objective: its color arity, a digest of its colors in order, its
    # color_error on every probe and 30 random draws, and a digest of its
    # separator's reduced induced graph at n = 1 and n = 3 (None for safety,
    # which has no separator)
    pinned = [
        (Safety(), 0, "8e0f64ac8991eeab", None),
        (Parity(0), 1, "6f04ee5fa74b7f4d", "e7b59dc38171aee1"),
        (Parity(1), 1, "a09b683de0194415", "7207151d988dbcf5"),
        (Parity(4), 1, "bfa0c27052108174", "fe0d180574c6889b"),
        (MeanPayoff(0), 1, "bea5e474e7a0ef8e", "e7b59dc38171aee1"),
        (MeanPayoff(2), 1, "0ebd7ceaee194eac", "27672861300468d0"),
        (ParityOrMeanPayoff(0, 0), 2, "cb372ff1a863fe32", "7341165bebd201f5"),
        (ParityOrMeanPayoff(3, 1), 2, "5d31df4c32af1397", "21a020f3caf1c933"),
        (ParityOrMeanPayoff(2, 2), 2, "72a74d6e25566bcb", "508cc54cbb34c0e1"),
        (MeanPayoffDisjunction(1, 0), 1, "8c6aeb2d1dcd445b", "903426291a3dd711"),
        (MeanPayoffDisjunction(2, 1), 2, "a2874b46c6ab4dfc", "168ba7ebe81ed27b"),
        (MeanPayoffDisjunction(3, 1), 3, "a30b749ddee83bed", "93c504edd5fdf851"),
    ]
    for objective, arity, colors_digest, separator_digest in pinned:
        colors = list(objective.colors())
        assert objective.alphabet_size == len(colors), objective
        assert objective.color_arity == arity, objective
        rng = random.Random(7)
        record = (
            colors,
            [objective.color_error(c) for c in _COLOR_PROBES],
            [objective.random_color(rng) for _ in range(30)],
        )
        assert _digest(record) == colors_digest, objective
        if separator_digest is not None:
            graphs = [reachable_graph(build_separator(objective, n)).edges for n in (1, 3)]
            assert _digest(graphs) == separator_digest, objective


def test_path_and_lasso_validation():
    p = Path((0, 1, 0), (2, 3))
    assert p.length == 2 and p.last == 0 and p.is_cycle
    assert p.is_path_of(Graph(2, [(0, 2, 1), (1, 3, 0)]))
    with pytest.raises(InvalidGameError):
        Path((0,), (1,))
    with pytest.raises(InvalidGameError):
        Lasso(Path((0,), ()), Path((1, 1), (0,)))  # stem does not meet cycle
    Lasso(Path((1,), ()), Path((1, 1), (0,)))


# ---------------------------------------------------------------------------
# scc_decompose
# ---------------------------------------------------------------------------


def test_scc_cycle_is_one_component():
    g = Graph(3, [(0, 0, 1), (1, 0, 2), (2, 0, 0)])
    assert scc_decompose(g) == [frozenset({0, 1, 2})]


def test_scc_dag_gives_singletons_in_order():
    g = Graph(3, [(0, 0, 1), (1, 0, 2)])
    assert scc_decompose(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_scc_two_pairs():
    # 0 <-> 1, 1 -> 2, 2 <-> 3: pairwise-reachability oracle fixes the split
    g = Graph(4, [(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 0, 3), (3, 0, 2)])
    comps = scc_decompose(g)
    assert comps == [frozenset({0, 1}), frozenset({2, 3})]
    assert set(refs.mutual_reachability_components(g)) == set(comps)


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=8))
def test_scc_matches_closure_and_is_topological(g):
    comps = scc_decompose(g)
    assert sorted(v for c in comps for v in c) == list(range(g.vertex_count))
    assert set(comps) == set(refs.mutual_reachability_components(g))
    position = {}
    for i, comp in enumerate(comps):
        for v in comp:
            position[v] = i
    for u, _, v in g.edges:
        assert position[u] <= position[v]


def test_tarjan_and_scipy_agree():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = list(
            {(rng.randrange(n), 0, rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))}
        )
        g = Graph(n, tuple(edges))
        _, small = _scc_labels(n, g._src_array, g._dst_array)
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        import numpy as np

        m = coo_matrix(
            (np.ones(len(edges)), (g._src_array, g._dst_array)), shape=(n, n)
        )
        _, big = connected_components(m, directed=True, connection="strong")
        # same partition, possibly different label names
        seen = {}
        for a, b in zip(small.tolist(), big.tolist()):
            assert seen.setdefault(a, b) == b


# ---------------------------------------------------------------------------
# restrict_to_strategy
# ---------------------------------------------------------------------------


def _two_loop_game(owner):
    g = Graph(1, [(0, 1, 0), (0, 2, 0)])
    return Game(g, (owner,), MeanPayoff(2))


def test_restrict_eve_keeps_only_choice():
    game = _two_loop_game(EVE)
    sigma = PositionalStrategy({0: (0, 1, 0)})
    r = restrict_to_strategy(game, sigma, 0)
    assert r.graph.edges == ((0, 1, 0),)


def test_restrict_adam_keeps_everything():
    game = _two_loop_game(ADAM)
    r = restrict_to_strategy(game, PositionalStrategy({}), 0)
    assert set(r.graph.edges) == {(0, 1, 0), (0, 2, 0)}


def test_restrict_drops_unreachable():
    g = Graph(3, [(0, 0, 1)])
    game = Game(g, (EVE, EVE, EVE), MeanPayoff(1))
    sigma = PositionalStrategy({0: (0, 0, 1)})
    r = restrict_to_strategy(game, sigma, 0)
    assert r.graph.vertex_count == 2
    assert set(r.original_vertex) == refs.bfs_reachable_under_strategy(game, sigma, 0)


def test_restrict_silent_eve_vertex_becomes_sink():
    g = Graph(2, [(0, 0, 1), (1, 0, 0)])
    game = Game(g, (EVE, EVE), MeanPayoff(1))
    r = restrict_to_strategy(game, PositionalStrategy({0: (0, 0, 1)}), 0)
    new_of_old = {o: i for i, o in enumerate(r.original_vertex)}
    assert r.graph.is_sink(new_of_old[1])


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=6, color=st.integers(-2, 2)), st.randoms(use_true_random=False))
def test_restrict_never_leaves_eve_a_choice(g, rnd):
    owner = tuple(rnd.choice([EVE, ADAM]) for _ in range(g.vertex_count))
    game = Game(g, owner, MeanPayoff(3))
    choices = {}
    for v in range(g.vertex_count):
        if owner[v] is EVE and g.successors[v] and rnd.random() < 0.9:
            c, w = rnd.choice(list(g.successors[v]))
            choices[v] = (v, c, w)
    r = restrict_to_strategy(game, PositionalStrategy(choices), 0)
    for v in range(r.graph.vertex_count):
        if game.owner[r.to_original(v)] is EVE:
            assert r.graph.out_degree(v) <= 1
    assert set(r.original_vertex) == refs.bfs_reachable_under_strategy(
        game, PositionalStrategy(choices), 0
    )


# ---------------------------------------------------------------------------
# Negative cycles
# ---------------------------------------------------------------------------


def test_negative_self_loop_found():
    g = Graph(1, [(0, -1, 0)])
    cycle = find_negative_cycle(g)
    assert cycle is not None and cycle.vertices == (0, 0) and cycle.colors == (-1,)


def test_zero_cycle_is_not_negative():
    assert find_negative_cycle(Graph(1, [(0, 0, 0)])) is None


def test_negative_cycle_walk_starts_from_the_last_relaxed_vertex():
    # the first pass relaxes 1 (its loop) and then 0 (from 2, never relaxed
    # itself): walking back from 0 would leave the predecessor map at 2
    g = Graph(3, [(0, 0, 1), (1, -1, 1), (1, 3, 2), (2, -1, 0)])
    cycle = find_negative_cycle(g)
    assert cycle is not None and cycle.vertices == (1, 1) and cycle.colors == (-1,)


def test_first_negative_cycle_is_the_self_loop():
    # 2-cycle of total +2 plus a separate -2 self-loop; the simple-cycle
    # oracle confirms the loop is the only negative cycle
    g = Graph(3, [(0, 3, 1), (1, -1, 0), (2, -2, 2)])
    negatives = [
        (vs, cs) for vs, cs in refs.simple_cycles(g) if refs.cycle_weight(cs) < 0
    ]
    assert negatives == [([2], [-2])]
    cycle = find_negative_cycle(g)
    assert cycle.vertices == (2, 2) and cycle.colors == (-2,)


@settings(max_examples=200, deadline=None)
@given(graphs(max_vertices=6, color=st.integers(-3, 3)))
def test_negative_cycle_matches_enumeration(g):
    expected = any(refs.cycle_weight(cs) < 0 for _, cs in refs.simple_cycles(g))
    cycle = find_negative_cycle(g)
    assert (cycle is not None) == expected
    if cycle is not None:
        assert cycle.is_cycle and cycle.is_path_of(g) and cycle.total_weight() < 0
    assert graph_satisfies_mp(g) == (not expected)


def test_negative_cycle_vector_dimension():
    g = Graph(1, [(0, (1, -1), 0)])
    assert find_negative_cycle(g, dimension=0) is None
    cycle = find_negative_cycle(g, dimension=1)
    assert cycle is not None and cycle.total_weight(1) == -1
    with pytest.raises(InvalidGameError):
        find_negative_cycle(g)


# ---------------------------------------------------------------------------
# graph_satisfies_mp / graph_satisfies_parity
# ---------------------------------------------------------------------------


def test_mp_satisfaction_trivia():
    assert graph_satisfies_mp(Graph(1, [(0, 0, 0)]))
    assert not graph_satisfies_mp(Graph(1, [(0, -1, 0)]))


def test_mp_mixed_cycles_sharing_a_vertex():
    # +1 two-cycle and -1 three-cycle through vertex 0
    g = Graph(3, [(0, 1, 1), (1, 0, 0), (0, 0, 2), (2, 0, 1), (1, -1, 0)])
    has_negative = any(refs.cycle_weight(cs) < 0 for _, cs in refs.simple_cycles(g))
    assert has_negative
    assert not graph_satisfies_mp(g)


def test_mp_implies_sampled_lasso_cycles_nonnegative():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 6)
        edges = {
            (rng.randrange(n), rng.randint(-3, 3), rng.randrange(n))
            for _ in range(rng.randint(1, 10))
        }
        g = Graph(n, tuple(edges))
        if not graph_satisfies_mp(g):
            continue
        lasso = refs.sample_lasso(rng, g, rng.randrange(n))
        if lasso is None:
            continue
        _, _, _, cycle_colors = lasso
        assert sum(cycle_colors) >= 0
        checked += 1


def test_parity_satisfaction_trivia():
    assert graph_satisfies_parity(Graph(1, [(0, 2, 0)]))
    assert not graph_satisfies_parity(Graph(1, [(0, 1, 0)]))


def test_parity_reachable_odd_loop():
    # 2-cycle with priorities {1,2} is fine, but the 1-loop hanging off it is odd
    g = Graph(2, [(0, 1, 1), (1, 2, 0), (1, 1, 1)])
    cycles = refs.simple_cycles(g)
    assert any(max(cs) % 2 == 1 for _, cs in cycles)
    assert not graph_satisfies_parity(g)


def test_parity_matches_enumeration_bulk():
    # randomized sweep: n <= 5, d <= 4
    rng = random.Random(23)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        edges = {
            (rng.randrange(n), rng.randint(0, 4), rng.randrange(n))
            for _ in range(rng.randint(0, 8))
        }
        g = Graph(n, tuple(edges))
        expected = all(max(cs) % 2 == 0 for _, cs in refs.simple_cycles(g))
        assert graph_satisfies_parity(g) == expected
