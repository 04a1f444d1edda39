import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refs
from sepgames import (
    ADAM,
    EVE,
    AlphabetMismatchError,
    Game,
    Graph,
    InvalidGameError,
    MeanPayoff,
    SafetyAutomaton,
    Safety,
    accepts_all_paths,
    automaton_dot,
    chained_game,
    chained_game_dot,
    eve_wins_bruteforce,
    mp_separator,
    run,
    separating_winning_region,
    separator_stats,
    sequential_fold,
    sequential_product,
    solve_safety,
    solve_via_separating,
)
from sepgames import automaton
from sepgames.automaton import _preimages, _solve_cascade, _solve_flat, _solve_lifts, _transition_table
from sepgames.frontend import build_separator, generate_game


def _table_automaton(states, initial, table, weight_bound=1):
    """Small automaton from an explicit (state, letter) -> state dict."""
    return SafetyAutomaton(
        state_count=states,
        initial=initial,
        alphabet=MeanPayoff(weight_bound),
        delta=lambda q, c: table.get((q, c)),
    )


@st.composite
def table_automata(draw, max_states=4):
    states = draw(st.integers(1, max_states))
    letters = [-1, 0, 1]
    table = {}
    for q in range(states):
        for c in letters:
            t = draw(st.integers(-1, states - 1))
            if t >= 0:
                table[(q, c)] = t
    return _table_automaton(states, draw(st.integers(0, states - 1)), table)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_empty_word_stays_at_initial():
    aut = mp_separator(3, 2)
    assert run(aut, []) == aut.initial == 4


def test_total_one_state_loop():
    aut = _table_automaton(1, 0, {(0, c): 0 for c in (-1, 0, 1)})
    assert run(aut, [0, 1, -1, 1]) == 0


def test_counter_rejects_after_draining():
    aut = mp_separator(3, 2)
    assert run(aut, [-2, -2]) == 0
    assert run(aut, [-2, -2, -1]) is None


def test_run_rejects_foreign_letters():
    aut = mp_separator(2, 1)
    with pytest.raises(AlphabetMismatchError):
        run(aut, [2])


# ---------------------------------------------------------------------------
# accepts_all_paths
# ---------------------------------------------------------------------------


def test_accepts_everything_on_edgeless_graph():
    assert accepts_all_paths(mp_separator(2, 1), Graph(3, []))


def test_zero_loop_accepted_by_counter():
    assert accepts_all_paths(mp_separator(2, 1), Graph(1, [(0, 0, 0)]))


def test_negative_loop_rejected_by_counter():
    assert not accepts_all_paths(mp_separator(2, 1), Graph(1, [(0, -1, 0)]))


def test_check_stops_at_the_first_undefined_transition():
    # every root's first edge is undefined; 10 x 8 product states, each with
    # 11 edges, are reachable, and collecting them before answering would
    # take one delta call per product edge
    n, k = 10, 8
    cycle = _table_automaton(k, 0, {(q, 0): (q + 1) % k for q in range(k)})
    calls = 0

    def counting(q, c):
        nonlocal calls
        calls += 1
        return cycle.delta(q, c)

    aut = dataclasses.replace(cycle, delta=counting)
    edges = [(v, -1, v) for v in range(n)] + [(v, 0, w) for v in range(n) for w in range(n)]
    graph = Graph(n, edges)
    assert not accepts_all_paths(aut, graph)
    assert 0 < calls <= n + 1
    # the product the check did not walk
    game = Game(graph, (EVE,) * n, MeanPayoff(1))
    assert separator_stats(aut, game=game)["product_edges"] == n * k * (n + 1)


# ---------------------------------------------------------------------------
# sequential product and fold
# ---------------------------------------------------------------------------


def test_forced_jump_then_loop():
    reject_all = _table_automaton(1, 0, {})
    loop = _table_automaton(1, 0, {(0, c): 0 for c in (-1, 0, 1)})
    prod = sequential_product(reject_all, loop)
    assert prod.state_count == 2
    # first letter jumps into the loop copy, everything after stays there
    assert run(prod, [0]) == 1
    assert run(prod, [0, 1, -1]) == 1


def test_singleton_fold_is_identity():
    aut = mp_separator(2, 1)
    assert sequential_fold([aut]) is aut


def test_two_counters_absorb_two_hits_each():
    aut = sequential_product(mp_separator(2, 1), mp_separator(2, 1))
    # init 1 -> 0 -> jump; then 1 -> 0 -> undefined at the fourth letter
    assert run(aut, [-1]) == 0
    assert run(aut, [-1, -1]) == 2 + 1  # second copy's initial (offset 2, counter 1)
    assert run(aut, [-1, -1, -1]) == 2 + 0
    assert run(aut, [-1, -1, -1, -1]) is None


def test_fold_sizes_add():
    parts = [mp_separator(3, 1), mp_separator(4, 1), mp_separator(5, 1)]
    assert sequential_fold(parts).state_count == sum(p.state_count for p in parts)


def test_fold_rejects_empty_and_mixed_alphabets():
    with pytest.raises(ValueError):
        sequential_fold([])
    with pytest.raises(AlphabetMismatchError):
        sequential_product(mp_separator(2, 1), mp_separator(2, 2))


def test_product_flattening_matches_pairwise_nesting():
    a, b, c = mp_separator(2, 1), mp_separator(3, 1), mp_separator(2, 1)
    left = sequential_product(sequential_product(a, b), c)
    right = sequential_product(a, sequential_product(b, c))
    rng = random.Random(4)
    for _ in range(300):
        word = [rng.randint(-1, 1) for _ in range(rng.randint(0, 12))]
        assert run(left, word) == run(right, word)


@settings(max_examples=200, deadline=None)
@given(table_automata(), table_automata(), st.lists(st.sampled_from([-1, 0, 1]), max_size=10))
def test_product_language_is_staged_simulation(a1, a2, word):
    prod = sequential_product(a1, a2)
    assert (run(prod, word) is not None) == refs.staged_run_defined(a1, a2, word)


def test_chain_runs_eventually_settle_in_one_copy():
    # block index never decreases along transitions, so every cycle (hence
    # every lasso's loop) stays inside a single copy
    aut = sequential_fold([mp_separator(3, 1)] * 4)
    offsets = []
    acc = 0
    for part in aut.parts:
        offsets.append(acc)
        acc += part.state_count

    def block(state):
        return max(i for i, off in enumerate(offsets) if off <= state)

    for q in range(aut.state_count):
        for c in (-1, 0, 1):
            t = aut.delta(q, c)
            if t is not None:
                assert block(t) >= block(q)
    rng = random.Random(9)
    from sepgames import reachable_graph

    g = reachable_graph(aut)
    for _ in range(200):
        lasso = refs.sample_lasso(rng, g, rng.randrange(g.vertex_count))
        if lasso is None:
            continue
        _, _, cycle_vs, _ = lasso
        assert len({block(v) for v in cycle_vs}) <= 1  # reindexed ids keep order


def test_reachable_state_count_is_the_induced_graph_size():
    from sepgames import MeanPayoffDisjunction, Parity, ParityOrMeanPayoff, reachable_graph, reachable_state_count

    rng = random.Random(744)
    auts = [
        build_separator(objective, n)
        for objective in (Parity(3), MeanPayoff(2), ParityOrMeanPayoff(2, 1), MeanPayoffDisjunction(2, 1))
        for n in (1, 3)
    ]
    auts += [_kernelless_chain(rng) for _ in range(5)]
    for aut in auts:
        assert reachable_state_count(aut) == reachable_graph(aut).vertex_count


# ---------------------------------------------------------------------------
# chained game
# ---------------------------------------------------------------------------


def test_chained_total_automaton_omits_bottom():
    game = Game(Graph(1, [(0, 0, 0)]), (EVE,), MeanPayoff(1))
    loop = _table_automaton(1, 0, {(0, c): 0 for c in (-1, 0, 1)})
    chain = chained_game(game, loop, 0)
    assert chain.game.vertex_count == 1
    assert chain.bottom is None
    assert chain.game.graph.edges == ((0, None, 0),)


def test_chained_undefined_goes_to_bottom():
    game = Game(Graph(1, [(0, 0, 0)]), (EVE,), MeanPayoff(1))
    never = _table_automaton(1, 0, {})
    chain = chained_game(game, never, 0)
    assert chain.bottom is not None
    bottom = chain.bottom
    assert chain.game.graph.edges == ((0, None, bottom),)
    assert chain.game.owner[bottom] is EVE
    assert chain.game.graph.is_sink(bottom)


def _chained_inputs():
    """Games with their separators, all four families, then chains with a
    block that has no row kernel."""
    from conftest import random_objective

    rng = random.Random(31)
    for kind in ("parity", "mp", "parity-mp", "disj-mp"):
        for _ in range(15):
            n = rng.randint(1, 5)
            obj = random_objective(rng, kind)
            yield generate_game(n, 0, 3, obj, seed=rng.randrange(10**9)), build_separator(obj, n)
    for _ in range(15):
        table = {(q, c): rng.randrange(2) for q in range(2) for c in (-1, 0, 1) if rng.random() < 0.7}
        n = rng.randint(1, 5)
        game = generate_game(n, 0, 3, MeanPayoff(1), seed=rng.randrange(10**9))
        yield game, sequential_fold([mp_separator(n, 1), _table_automaton(2, 0, table)])


def test_chained_size_bound_and_edge_origins():
    # every product edge checked against a fresh ``delta`` call on the
    # game edge it records
    rng = random.Random(32)
    bottoms = edgeless_roots = 0
    for game, aut in _chained_inputs():
        n = game.vertex_count
        v0 = rng.randrange(n)
        chain = chained_game(game, aut, v0)
        assert chain.roots == (0,) == (chain.product_vertex(v0, aut.initial),)
        assert chain.game.vertex_count <= n * aut.state_count + 1
        # ownership is inherited from the game component
        for pid, pair in enumerate(chain.product_pairs):
            if pair is not None:
                assert chain.game.owner[pid] == game.owner[pair[0]]
        # each product edge is induced by the recorded game edge
        for (src, _, dst), origin in zip(chain.game.graph.edges, chain.edge_origin):
            u, c, v = game.graph.edges[origin]
            sv, sq = chain.product_pairs[src]
            assert sv == u
            t = aut.delta(sq, c)
            if t is None:
                assert dst == chain.bottom
            else:
                assert chain.product_pairs[dst] == (v, t)
        bottoms += chain.bottom is not None
        edgeless_roots += game.graph.is_sink(v0)
    assert bottoms > 0 and edgeless_roots > 0


# ---------------------------------------------------------------------------
# solve_via_separating
# ---------------------------------------------------------------------------


def test_solve_matches_strategy_enumeration_on_loops():
    win = Game(Graph(1, [(0, 0, 0)]), (EVE,), MeanPayoff(1))
    lose = Game(Graph(1, [(0, -1, 0)]), (EVE,), MeanPayoff(1))
    adam = Game(Graph(1, [(0, 1, 0), (0, -1, 0)]), (ADAM,), MeanPayoff(1))
    aut = mp_separator(1, 1)
    for game, expected in ((win, True), (lose, False), (adam, False)):
        assert solve_via_separating(game, 0, aut) == expected == eve_wins_bruteforce(game, 0)


def test_solve_rejects_alphabet_mismatch():
    game = Game(Graph(1, [(0, 0, 0)]), (EVE,), MeanPayoff(1))
    with pytest.raises(AlphabetMismatchError):
        solve_via_separating(game, 0, mp_separator(1, 2))


def _cone_vertices(game, roots):
    """The game vertices reachable from ``roots``, in vertex order."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for _, w in game.graph.successors[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def _full_product(game, aut, cone):
    """The chained safety game on every (vertex of ``cone``, state) pair,
    reached or not, built with the scalar ``delta``: ids ``i * state_count
    + q`` for the i-th vertex of ``cone``, then the Eve-owned sink."""
    nq = aut.state_count
    index = {v: i for i, v in enumerate(cone)}
    sink = len(cone) * nq
    edges = set()
    for v in cone:
        for q in range(nq):
            for c, w in game.graph.successors[v]:
                t = aut.delta(q, c)
                edges.add((index[v] * nq + q, None, sink if t is None else index[w] * nq + t))
    owner = tuple(game.owner[v] for v in cone for _ in range(nq)) + (EVE,)
    return Game(Graph(sink + 1, tuple(edges)), owner, Safety())


def _kernelless_chain(rng):
    table = {(q, c): rng.randrange(2) for q in range(2) for c in (-1, 0, 1) if rng.random() < 0.7}
    return sequential_fold([mp_separator(3, 1), _table_automaton(2, 0, table)])


def test_flat_and_object_paths_agree():
    # the flat solve's implicit predecessors against the safety solver on
    # the product decoded by chained_game, from every root: all four
    # families and a chain without a row kernel, on games with dead ends of
    # both owners; its attracted count and the root's verdict against the
    # full product's, solved by the reference outside the shared attractor
    from conftest import random_objective

    rng = random.Random(13)
    dead_ends = set()
    for kind in ("parity", "mp", "parity-mp", "disj-mp", "chain"):
        for _ in range(40):
            n = rng.randint(1, 6)
            if kind == "chain":
                obj, aut = MeanPayoff(1), _kernelless_chain(rng)
            else:
                obj = random_objective(rng, kind)
                aut = build_separator(obj, n)
            game = generate_game(n, 0, 3, obj, seed=rng.randrange(10**9))
            nq = aut.state_count
            flags, stats = _solve_flat(game, aut, list(range(n)))
            assert stats["product_states"] == n * nq + 1
            for v in range(n):
                chain = chained_game(game, aut, v)
                won = chain.product_vertex(v, aut.initial) in solve_safety(chain.game).eve_wins
                single, single_stats = _solve_flat(game, aut, [v])
                assert bool(flags[v]) == bool(single[0]) == won
                cone = _cone_vertices(game, [v])
                assert single_stats["product_states"] == len(cone) * nq + 1
                if len(cone) * nq <= 400:
                    full = _full_product(game, aut, cone)
                    region = refs.naive_safety_region(full)
                    assert single_stats["attracted"] == full.vertex_count - len(region)
                    assert (cone.index(v) * nq + aut.initial in region) == won
            assert frozenset(v for v in range(n) if flags[v]) == separating_winning_region(game, aut)
            dead_ends |= {game.owner[v] for v in range(n) if not game.graph.successors[v]}
    assert dead_ends == {EVE, ADAM}


def test_flat_product_same_under_either_frontier_branch(monkeypatch):
    # the shared attractor drains a small frontier with a worklist and a
    # large one by vectorized levels: forcing either branch throughout must
    # not change a parity-mp verdict or stat
    from conftest import random_objective

    from sepgames import safety

    rng = random.Random(88)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(4, 9)
        obj = random_objective(rng, "parity-mp")
        game = generate_game(n, 0, 3, obj, seed=rng.randrange(10**9))
        aut = build_separator(obj, n)
        roots = list(range(n))
        runs = []
        for threshold in (0, 10**9):
            monkeypatch.setattr(safety, "_SMALL_FRONTIER", threshold)
            flags, stats = _solve_flat(game, aut, roots)
            runs.append((flags.tolist(), stats))
        assert runs[0] == runs[1]
        verdicts.add(frozenset(runs[0][0]))
    assert frozenset({True, False}) in verdicts


def test_rank_must_be_a_permutation_of_the_states():
    # a zero rank used to shrink this region to {0, 1, 4} without an error,
    # and a rank of the wrong length to end in a raw IndexError
    edges = ((0, 0, 4), (0, 1, 0), (1, 0, 1), (1, 1, 4), (1, -1, 4), (2, 1, 1))
    edges += ((2, -1, 4), (2, -1, 3), (3, 1, 0), (3, 0, 0), (3, -1, 4), (4, 1, 1))
    game = Game(Graph(5, edges), (ADAM, EVE, ADAM, ADAM, EVE), MeanPayoff(1))
    aut = build_separator(MeanPayoff(1), 5)
    assert separating_winning_region(game, aut) == frozenset(range(5))
    for rank in (np.zeros(5, dtype=np.int64), np.arange(3), np.arange(6), np.arange(-1, 4), [[0, 1, 2, 3, 4]]):
        with pytest.raises(InvalidGameError):
            dataclasses.replace(aut, rank=rank)
    assert dataclasses.replace(aut, rank=[4, 2, 0, 1, 3]).rank == [4, 2, 0, 1, 3]


def test_preimages_list_each_state_and_color_once():
    # every (q, i) under table[q, i], the sink nq where undefined
    from sepgames import ParityOrMeanPayoff
    from sepgames.automaton import _game_colors

    rng = random.Random(742)
    tables = []
    for _ in range(60):
        nq, ncol = rng.randint(1, 9), rng.randint(0, 5)
        cells = [rng.randrange(nq + 1) for _ in range(nq * ncol)]
        tables.append(np.array(cells, dtype=np.int32).reshape(nq, ncol))
    game = generate_game(6, 1, 3, ParityOrMeanPayoff(3, 2), seed=743)
    aut = build_separator(game.objective, 6)
    tables.append(_transition_table(aut, _game_colors(game.graph)))
    for table in tables:
        nq, ncol = table.shape
        ptr, states = _preimages(table)
        assert ptr.size == ncol * (nq + 1) + 1 and states.dtype == np.int32
        listed = sorted((int(q), g) for g in range(ncol * (nq + 1)) for q in states[ptr[g] : ptr[g + 1]])
        expected = sorted(
            (q, i * (nq + 1) + t) for q in range(nq) for i, t in enumerate(table[q].tolist())
        )
        assert listed == expected


def _flat_region(game, aut):
    n = game.vertex_count
    flags, _ = _solve_flat(game, aut, list(range(n)))
    return frozenset(v for v in range(n) if flags[v])


def test_flat_parity_matches_recursive_solver_above_object_limit():
    from sepgames import Parity

    rng = random.Random(731)
    for n, d in ((60, 6), (40, 8), (100, 4)):
        for _ in range(4):
            game = generate_game(n, 1, 3, Parity(d), seed=rng.randrange(10**9))
            aut = build_separator(game.objective, n)
            assert _flat_region(game, aut) == refs.zielonka_region(game)


def test_flat_parity_mp_with_negative_weights_is_parity_above_object_limit():
    # every weight at -N makes every cycle negative, so only the parity
    # component can win and the region is that of the parity projection
    from sepgames import Parity, ParityOrMeanPayoff

    rng = random.Random(732)
    for n, d, N in ((16, 3, 1), (12, 4, 2)):
        for _ in range(4):
            base = generate_game(n, 1, 3, Parity(d), seed=rng.randrange(10**9))
            game = Game(
                Graph(n, tuple((u, (p, -N), v) for (u, p, v) in base.graph.edges)),
                base.owner,
                ParityOrMeanPayoff(d, N),
            )
            aut = build_separator(game.objective, n)
            assert _flat_region(game, aut) == refs.zielonka_region(base)


def test_flat_row_kernel_matches_scalar_fill_above_object_limit():
    # the same flat solve with the table filled by the kernel and by delta
    from sepgames import ParityOrMeanPayoff

    rng = random.Random(734)
    for n, d, N in ((16, 3, 2), (14, 4, 2)):
        game = generate_game(n, 1, 3, ParityOrMeanPayoff(d, N), seed=rng.randrange(10**9))
        assert {w for (_, (_, w), _) in game.graph.edges} >= {-N, N}
        aut = build_separator(game.objective, n)
        scalar = dataclasses.replace(aut, row_kernel=None)
        assert aut.row_kernel is not None
        assert _flat_region(game, aut) == _flat_region(game, scalar)
        roots = list(range(n))
        assert _solve_flat(game, aut, roots)[1] == _solve_flat(game, scalar, roots)[1]


def test_chain_with_a_kernelless_block_falls_back_to_delta():
    rng = random.Random(735)
    for _ in range(20):
        table = {(q, c): rng.randrange(2) for q in range(2) for c in (-1, 0, 1) if rng.random() < 0.7}
        aut = sequential_fold([mp_separator(3, 1), _table_automaton(2, 0, table)])
        assert aut.row_kernel is None
        n = rng.randint(1, 5)
        game = generate_game(n, 0, 3, MeanPayoff(1), seed=rng.randrange(10**9))
        flags, _ = _solve_flat(game, aut, list(range(n)))
        assert frozenset(v for v in range(n) if flags[v]) == separating_winning_region(game, aut)


def _flags_region(flags):
    return frozenset(v for v, f in enumerate(flags) if f)


def test_lifts_match_flat_product_and_recursive_solver():
    from sepgames import Parity

    rng = random.Random(736)
    for _ in range(60):
        n = rng.randint(1, 60)
        d = rng.randint(0, 8)
        # minimum degree 0: sinks of both owners, and some edgeless games
        game = generate_game(n, 0, 3, Parity(d), seed=rng.randrange(10**9))
        aut = build_separator(game.objective, n)
        roots = list(range(n))
        lifts, stats = _solve_lifts(game, aut, roots)
        assert stats["path"] == "lifts"
        # every vertex with an edge is lifted at least once
        assert stats["vertex_lifts"] >= len({u for (u, _, _) in game.graph.edges})
        assert _flags_region(lifts) == _flags_region(_solve_flat(game, aut, roots)[0])
        assert _flags_region(lifts) == refs.zielonka_region(game)
        scalar = dataclasses.replace(aut, row_kernel=None, pre_kernel=None)
        assert _flags_region(_solve_lifts(game, scalar, roots)[0]) == _flags_region(lifts)
        # repeated roots, in any order, and none, on both routes
        for solve in (_solve_lifts, _solve_flat):
            assert list(map(bool, solve(game, aut, [n - 1, 0, n - 1])[0])) == [lifts[n - 1], lifts[0], lifts[n - 1]]
            assert list(solve(game, aut, [])[0]) == []


def test_ranked_counter_lifts_match_flat_product_and_value_iteration():
    # counters are lifted in rank order (top counter first): mixed-sign
    # weights, with sinks of both owners
    from sepgames import MeanPayoffDisjunction

    rng = random.Random(740)
    sinks, signs = set(), set()
    for _ in range(60):
        n = rng.randint(1, 60)
        disjunction = MeanPayoffDisjunction(rng.randint(1, 3), rng.randint(1, 2))
        for objective in (MeanPayoff(rng.randint(1, 3)), disjunction):
            game = generate_game(n, 0, 3, objective, seed=rng.randrange(10**9))
            aut = build_separator(objective, n)
            roots = list(range(n))
            lifts, stats = _solve_lifts(game, aut, roots)
            assert stats["path"] == "lifts"
            region = _flags_region(lifts)
            assert region == _flags_region(_solve_flat(game, aut, roots)[0])
            if isinstance(objective, MeanPayoff):
                assert region == refs.mp_value_iteration_region(game)
                signs |= {(c > 0) - (c < 0) for (_, c, _) in game.graph.edges}
            sinks |= {game.owner[v] for v in range(n) if not game.graph.successors[v]}
    assert sinks == {EVE, ADAM} and signs == {-1, 0, 1}


def test_lifts_solve_only_the_cone_of_the_roots():
    # two Eve cycles of priority 1 joined one way: from 0 both are reached,
    # from 2 only the second; every lift lowers a threshold by one leaf
    from sepgames import Parity

    n = 4
    game = Game(Graph(n, ((0, 1, 1), (1, 1, 0), (1, 0, 2), (2, 1, 3), (3, 1, 2))), (EVE,) * n, Parity(1))
    aut = build_separator(Parity(1), n)
    flags, stats = _solve_lifts(game, aut, [2])
    assert flags == [False]
    cone = stats["vertex_lifts"]
    flags, stats = _solve_lifts(game, aut, [0, 2])
    assert flags == [False, False]
    assert cone < stats["vertex_lifts"]


def test_route_follows_size_and_monotonicity():
    from sepgames import MeanPayoffDisjunction, Parity, ParityOrMeanPayoff

    # one rule at every size: parity-mp as a cascade, lifts when the table
    # is monotone in the automaton's rank order, the product otherwise;
    # counters rank from the top down, so mean payoff and its disjunctions
    # take lifts too, and parity-mp without its cascade parts the product
    cases = (
        (Parity(4), 5, "lifts"),
        (Parity(8), 60, "lifts"),
        (MeanPayoffDisjunction(2, 2), 5, "lifts"),
        (MeanPayoffDisjunction(2, 2), 80, "lifts"),
        (ParityOrMeanPayoff(3, 2), 5, "cascade"),
        (ParityOrMeanPayoff(4, 2), 12, "cascade"),
        (ParityOrMeanPayoff(4, 2), 12, "product"),
    )
    for objective, n, path in cases:
        game = generate_game(n, 1, 3, objective, seed=738)
        aut = build_separator(objective, n)
        if path == "product":
            aut = dataclasses.replace(aut, cascade=None)
        region, stats = separating_winning_region(game, aut, with_stats=True)
        assert stats["path"] == path
        assert solve_via_separating(game, 0, aut) == (0 in region)
        assert region == _flags_region(_solve_flat(game, aut, list(range(n)))[0])
    # a counter's column in state order decreases on a negative weight only,
    # in rank order on none
    for weights, n in ((range(0, 7), 100), (range(-6, 7), 100), (range(-6, 7), 6)):
        rng = random.Random(737)
        edges = tuple({(u, rng.choice(weights), rng.randrange(n)) for u in range(n) for _ in range(2)})
        game = Game(Graph(n, edges), tuple(rng.choice((EVE, ADAM)) for _ in range(n)), MeanPayoff(6))
        aut = build_separator(game.objective, n)
        region, stats = separating_winning_region(game, aut, with_stats=True)
        assert stats["path"] == "lifts"
        assert region == _flags_region(_solve_flat(game, aut, list(range(n)))[0])


def test_cascade_matches_flat_product_and_chained_game():
    # about 300 random parity-mp games, weight bound 0 included, with dead
    # ends of both owners and an edgeless game: the cascade from all roots
    # and from each root alone against the product route and against the
    # safety solver on the product chained_game builds with ``delta``; an
    # empty root list reaches nothing
    from conftest import random_objective
    from sepgames import ParityOrMeanPayoff

    rng = random.Random(746)
    games = [Game(Graph(3, ()), (EVE, ADAM, EVE), ParityOrMeanPayoff(2, 1))]
    for _ in range(300):
        objective = random_objective(rng, "parity-mp")
        n = rng.randint(1, 9)
        games.append(generate_game(n, rng.choice((0, 1, 1)), 3, objective, seed=rng.randrange(10**9)))
    dead_ends, bounds = set(), set()
    for game in games:
        n = game.vertex_count
        aut = build_separator(game.objective, n)
        flags, stats = _solve_cascade(game, aut, list(range(n)))
        assert stats["path"] == "cascade" and stats["automaton_states"] == aut.state_count
        assert stats["key_product_states"] <= n * stats["key_states"]
        assert list(map(bool, flags)) == list(map(bool, _solve_flat(game, aut, list(range(n)))[0]))
        # repeated roots, in any order, and none
        assert _solve_cascade(game, aut, [n - 1, 0, n - 1])[0] == [flags[n - 1], flags[0], flags[n - 1]]
        assert _solve_cascade(game, aut, [])[0] == []
        for v in range(n):
            single, single_stats = _solve_cascade(game, aut, [v])
            chain = chained_game(game, aut, v)
            won = chain.product_vertex(v, aut.initial) in solve_safety(chain.game).eve_wins
            assert bool(single[0]) == bool(flags[v]) == bool(_solve_flat(game, aut, [v])[0][0]) == won
            assert single_stats["key_product_states"] <= stats["key_product_states"]
        dead_ends |= {game.owner[v] for v in range(n) if not game.graph.successors[v]}
        bounds.add(game.objective.weight_bound)
    assert dead_ends == {EVE, ADAM} and 0 in bounds


@pytest.mark.parametrize(
    "suite",
    [
        test_lifts_match_flat_product_and_recursive_solver,
        test_ranked_counter_lifts_match_flat_product_and_value_iteration,
        test_cascade_matches_flat_product_and_chained_game,
    ],
)
def test_lift_suites_with_jumps_from_the_first_drop(suite, monkeypatch):
    # jumps at a vertex's 1st, 2nd, 4th, ... drop, each with one round of
    # x <- g(x) before windows that start one rank wide
    monkeypatch.setattr(automaton, "_JUMP_AFTER", 1)
    suite()


def test_negative_cycle_jumps_down_the_counter(monkeypatch):
    # Adam keeps Eve on a cycle of weight -1 rather than leave for her
    # positive loop; the weight -500 edge makes the counter 1,501 states
    # tall, and without the jump its threshold falls one state per pass
    n = 4
    edges = ((0, -1, 1), (1, 0, 0), (1, 0, 2), (2, 1, 2), (3, -500, 0), (3, 500, 3))
    game = Game(Graph(n, edges), (EVE, ADAM, EVE, ADAM), MeanPayoff(500))
    aut = build_separator(game.objective, n)
    assert aut.state_count == 1_501
    flags, stats = _solve_lifts(game, aut, list(range(n)))
    assert _flags_region(flags) == refs.mp_value_iteration_region(game) == {2}
    assert stats["cycle_jumps"] >= 1 and stats["vertex_lifts"] < aut.state_count // 10
    monkeypatch.setattr(automaton, "_JUMP_AFTER", 10**9)
    flags, stats = _solve_lifts(game, aut, list(range(n)))
    assert _flags_region(flags) == {2}
    assert stats["cycle_jumps"] == 0 and stats["vertex_lifts"] > aut.state_count


def test_lifts_leave_the_cyclic_collector_as_they_found_it():
    # _lift pauses the collector while it builds its per-edge lists
    import gc

    from sepgames import Parity, ParityOrMeanPayoff

    games = [generate_game(30, 1, 3, objective, seed=5) for objective in (Parity(4), ParityOrMeanPayoff(3, 2))]
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            for game in games:
                (gc.enable if state else gc.disable)()
                _, stats = separating_winning_region(game, build_separator(game.objective, 30), with_stats=True)
                assert gc.isenabled() is state
                assert stats["path"] in ("lifts", "cascade")
    finally:
        (gc.enable if enabled else gc.disable)()


def test_cascade_reads_any_parity_part_and_falls_back_without_order():
    # the cascade treats the parity part as a black box: a part whose table
    # is not monotone sends the solve to the product route, and a ranked
    # one is read in its rank order
    from sepgames import Parity, ParityOrMeanPayoff, parity_mp_separator, parity_separator

    rng = random.Random(747)
    seen = set()
    for _ in range(30):
        n = rng.randint(2, 6)
        objective = ParityOrMeanPayoff(2, 1)
        game = generate_game(n, 0, 3, objective, seed=rng.randrange(10**9))
        table = {(q, p): rng.randrange(3) for q in range(3) for p in range(3) if rng.random() < 0.8}
        scrambled = SafetyAutomaton(3, 0, Parity(2), lambda q, p, table=table: table.get((q, p)))
        base = parity_separator(n, 2)
        reversed_order = dataclasses.replace(
            base,
            initial=base.state_count - 1,
            delta=lambda q, p, k=base.state_count - 1: None if (t := base.delta(k - q, p)) is None else k - t,
            row_kernel=None,
            rank=np.arange(base.state_count)[::-1].copy(),
        )
        for parity in (scrambled, reversed_order):
            aut = parity_mp_separator(parity, mp_separator(n, 1))
            region, stats = separating_winning_region(game, aut, with_stats=True)
            seen.add(stats["path"])
            for v in range(n):
                chain = chained_game(game, aut, v)
                won = chain.product_vertex(v, aut.initial) in solve_safety(chain.game).eve_wins
                assert (v in region) == won
    assert seen == {"cascade", "product"}


def test_lift_counts_of_the_pinned_benchmark_games():
    # the two games the benchmark solves from root 0, rebuilt from their
    # seeds and checked against the pinned sha256 and verdict (LOSE).  The
    # lifts' worklist starts in id order, so the lift counts pin the cone's
    # numbering: code order, where discovery order takes 2,845 lifts on
    # disj-mp and 40,358 on parity-mp.  On parity-mp, 395 keys (accumulator
    # x counter), 10,989 of whose 15,800 codes with the game's vertices are
    # reached, against the 72,285 states the product route would pair with
    # each vertex
    import hashlib
    import importlib.util
    from pathlib import Path

    from sepgames import parse_game

    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_gen", root / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)

    def pinned(name, n, kw, params, pin):
        text = gen.game_text(random.Random(f"{name}:0"), n, (4, 4), kw, params)
        assert hashlib.sha256(text.encode()).hexdigest() == pin
        game = parse_game(text)
        return game, build_separator(game.objective, n)

    game, aut = pinned(
        "disjmp-root", 300, "disj-mp", (2, 2), "8303160484427e4f4630b5cf8bd5c10b1793fbcabe07c81c3cee61fb5f41cbfe"
    )
    flags, stats = _solve_lifts(game, aut, [0])
    assert flags == [False]
    assert (stats["automaton_states"], stats["vertex_lifts"]) == (8_192, 2_021)

    game, aut = pinned(
        "paritymp-root", 40, "parity-mp", (4, 2), "438b2842785eda4244960291b12a6b4a7b47c6e5f25bc32fc0940d98966c7533"
    )
    flags, stats = _solve_cascade(game, aut, [0])
    assert flags == [False]
    assert (stats["automaton_states"], stats["key_states"], stats["key_product_states"]) == (72_285, 395, 10_989)
    assert stats["vertex_lifts"] == 32_573


def test_parity_1000_vertices_8_priorities_matches_recursive_solver():
    # 173,117 leaves: the product's dense code map would hold 173M entries
    from sepgames import Parity

    game = generate_game(1000, 1, 3, Parity(8), seed=739)
    aut = build_separator(game.objective, 1000)
    assert aut.state_count == 173_117
    region, stats = separating_winning_region(game, aut, with_stats=True)
    assert stats["path"] == "lifts"
    assert region == refs.zielonka_region(game)
    # 880,915 lifts without the jump
    assert (stats["vertex_lifts"], stats["cycle_jumps"]) == (3_532, 2)


def _reached_pairs(game, aut, roots):
    """Plain BFS: the reached (vertex, state) pairs, and whether an
    undefined transition is reached."""
    seen = {(v, aut.initial) for v in roots}
    queue = list(seen)
    sink = False
    while queue:
        v, q = queue.pop()
        for c, w in game.graph.successors[v]:
            t = aut.delta(q, c)
            if t is None:
                sink = True
            elif (w, t) not in seen:
                seen.add((w, t))
                queue.append((w, t))
    return seen, sink


def test_flat_product_states_count_reached_pairs():
    # the walk reaches exactly the pairs a plain BFS does: from all roots
    # (separator_stats) and from one (chained_game); each reached pair but
    # the sink has one product edge per game edge; the flat solve spans
    # every code of the roots' cone
    from sepgames import MeanPayoffDisjunction, Parity

    rng = random.Random(733)
    for objective, n in ((Parity(6), 60), (MeanPayoffDisjunction(2, 2), 80)):
        game = generate_game(n, 1, 3, objective, seed=rng.randrange(10**9))
        aut = build_separator(objective, n)
        reached, sink = _reached_pairs(game, aut, range(n))
        stats = separator_stats(aut, game=game)
        assert stats["product_states"] == len(reached) + sink
        assert stats["product_edges"] == sum(len(game.graph.successors[v]) for v, _ in reached)
        reached, sink = _reached_pairs(game, aut, [0])
        assert chained_game(game, aut, 0).game.vertex_count == len(reached) + sink
        for roots in ([0], list(range(n))):
            _, stats = _solve_flat(game, aut, roots)
            assert stats["product_states"] == len(_cone_vertices(game, roots)) * aut.state_count + 1
            assert 0 < stats["attracted"] <= stats["product_states"]


def test_parity_reduction_matches_recursive_solver_at_medium_scale():
    # independent cross-check far beyond brute-force reach
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(2, 22)
        d = rng.randint(1, 5)
        from sepgames import Parity

        game = generate_game(n, 0, 3, Parity(d), seed=rng.randrange(10**9))
        aut = build_separator(game.objective, n)
        assert separating_winning_region(game, aut) == refs.zielonka_region(game)


def test_mp_reduction_matches_value_iteration_at_medium_scale():
    rng = random.Random(516)
    for _ in range(25):
        n = rng.randint(2, 40)
        game = generate_game(n, 0, 3, MeanPayoff(rng.randint(0, 3)), seed=rng.randrange(10**9))
        aut = build_separator(game.objective, n)
        assert separating_winning_region(game, aut) == refs.mp_value_iteration_region(game)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_automaton_dot_is_stable_and_complete():
    aut = mp_separator(2, 1)
    dot = automaton_dot(aut)
    assert dot == automaton_dot(aut)
    assert "doublecircle" in dot  # initial state highlighted
    assert dot.count("->") == sum(
        1 for q in range(aut.state_count) for c in (-1, 0, 1) if aut.delta(q, c) is not None
    )


def test_chained_game_dot_renders_bottom_as_double_octagon():
    game = Game(Graph(1, [(0, -1, 0)]), (ADAM,), MeanPayoff(1))
    chain = chained_game(game, mp_separator(1, 1), 0)
    dot = chained_game_dot(chain)
    assert "doubleoctagon" in dot
    assert "box" in dot  # Adam vertex
