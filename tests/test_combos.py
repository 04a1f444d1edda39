import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refs
from sepgames import (
    AlphabetMismatchError,
    Graph,
    InvalidGameError,
    MeanPayoffDisjunction,
    accepts_all_paths,
    disjmp_scc_separator,
    disjmp_separator,
    disjmp_state_count,
    embeds,
    graph_satisfies_disjmp,
    graph_satisfies_mp,
    graph_satisfies_parity_or_mp,
    mp_separator,
    naive_general_separator,
    parity_mp_separator,
    parity_separator,
    reachable_graph,
    run,
    separator_stats,
    universal_sequence,
    universal_sequence_constant,
    universal_sequence_size,
)


def _pvmp(n, d, big_n):
    return parity_mp_separator(parity_separator(n, d), mp_separator(n, big_n))


def _top_initialized(n, d, big_n):
    """The parity-mp separator with its priority accumulator started at d
    instead of 0."""
    parity, mp = parity_separator(n, d), mp_separator(n, big_n)
    aut = parity_mp_separator(parity, mp)
    return dataclasses.replace(aut, initial=aut.initial + d * parity.state_count * mp.state_count)


# ---------------------------------------------------------------------------
# parity-or-mean-payoff product automaton
# ---------------------------------------------------------------------------


def test_pvmp_three_step_trace():
    # d=2, parity on 2 states {(0),(1)}, counter over {0,1} starting at 1
    aut = _pvmp(2, 2, 1)
    nmp = 2
    np_ = 2

    def decode(s):
        rest, qmp = divmod(s, nmp)
        p, qp = divmod(rest, np_)
        return (p, qp, qmp)

    s0 = aut.initial
    assert decode(s0) == (0, 0, 1)
    s1 = aut.delta(s0, (1, -1))
    assert decode(s1) == (1, 0, 0)
    s2 = aut.delta(s1, (0, -1))  # counter rejects; parity reads max(1,0)=1
    assert decode(s2) == (0, 1, 1)
    s3 = aut.delta(s2, (1, -1))
    assert decode(s3) == (1, 1, 0)
    assert aut.delta(s3, (1, -1)) is None  # counter and parity both reject


def test_pvmp_state_count_formula():
    aut = _pvmp(4, 3, 2)
    assert aut.state_count == (3 + 1) * parity_separator(4, 3).state_count * mp_separator(4, 2).state_count


def test_pvmp_reset_discards_weight():
    # any letter that triggers a reset leaves the counter at its initial value
    aut = _pvmp(3, 2, 2)
    nmp = mp_separator(3, 2).state_count
    rng = random.Random(8)
    resets = 0
    for _ in range(3000):
        s = rng.randrange(aut.state_count)
        letter = (rng.randint(0, 2), rng.randint(-2, 2))
        rest, qmp = divmod(s, nmp)
        if mp_separator(3, 2).delta(qmp, letter[1]) is not None:
            continue
        t = aut.delta(s, letter)
        if t is None:
            continue
        resets += 1
        assert t % nmp == mp_separator(3, 2).initial
    assert resets > 50


def test_pvmp_alphabet_checks():
    with pytest.raises(AlphabetMismatchError):
        parity_mp_separator(mp_separator(2, 1), mp_separator(2, 1))
    with pytest.raises(AlphabetMismatchError):
        parity_mp_separator(parity_separator(2, 2), parity_separator(2, 2))


def test_pvmp_soundness_small_grid():
    for n in (1, 2, 4):
        for d in (1, 2, 3):
            for big_n in (0, 1, 2):
                g = reachable_graph(_pvmp(n, d, big_n))
                assert graph_satisfies_parity_or_mp(g), (n, d, big_n)


def _random_pair_graph(rng, n, d, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            p = rng.randint(0, d)
            w = rng.randint(-big_n, big_n)
            if p % 2 and w < 0 and rng.random() < 0.7:
                w = -w
            edges.add((v, (p, w), rng.randrange(n)))
    return Graph(n, tuple(edges))


def test_pvmp_separation_randomized():
    rng = random.Random(300)
    for n in (1, 3, 5):
        for d in (1, 2, 4):
            for big_n in (0, 2):
                aut = _pvmp(n, d, big_n)
                survivors = 0
                for _ in range(4000):
                    g = _random_pair_graph(rng, n, d, big_n)
                    if not graph_satisfies_parity_or_mp(g):
                        continue
                    survivors += 1
                    assert accepts_all_paths(aut, g), (n, d, big_n, g.edges)
                    if survivors >= 300:
                        break
                assert survivors >= 300


def test_top_initialized_accumulator_is_sound_but_not_separating():
    # starting the priority accumulator at max_priority instead of 0 keeps
    # the language inside the objective but loses separation: the very first
    # reset feeds an inflated priority to the parity automaton
    g = Graph(1, [(0, (0, -1), 0)])
    assert graph_satisfies_parity_or_mp(g)  # the lone cycle has even max priority
    assert accepts_all_paths(_pvmp(1, 1, 1), g)
    assert not accepts_all_paths(_top_initialized(1, 1, 1), g)
    # soundness survives the toggle: only the first reset sees the inflated
    # value, which cannot turn a violating run into an accepted one
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            top = reachable_graph(_top_initialized(n, d, 1))
            assert graph_satisfies_parity_or_mp(top), (n, d)


# ---------------------------------------------------------------------------
# naive chaining of a strongly-connected separator
# ---------------------------------------------------------------------------


def test_naive_general_identity_and_sizes():
    aut = mp_separator(2, 1)
    assert naive_general_separator(aut, 1) is aut
    assert naive_general_separator(aut, 3).state_count == 3 * aut.state_count
    with pytest.raises(ValueError):
        naive_general_separator(aut, 0)


def test_naive_general_counter_square_separates_two_vertex_graphs():
    aut = naive_general_separator(mp_separator(2, 1), 2)
    rng = random.Random(17)
    survivors = 0
    for _ in range(4000):
        edges = {
            (rng.randrange(2), rng.randint(-1, 1), rng.randrange(2))
            for _ in range(rng.randint(1, 4))
        }
        g = Graph(2, tuple(edges))
        if not graph_satisfies_mp(g):
            continue
        survivors += 1
        assert accepts_all_paths(aut, g), g.edges
    assert survivors >= 500


# ---------------------------------------------------------------------------
# universal sequences and embeddings
# ---------------------------------------------------------------------------


def test_sequence_values_up_to_six():
    assert universal_sequence(1) == (1,)
    assert universal_sequence(2) == (1, 2)
    assert universal_sequence(3) == (1, 3, 1)
    assert universal_sequence(4) == (1, 2, 4, 1)
    assert universal_sequence(5) == (1, 2, 5, 1, 2)
    assert universal_sequence(6) == (1, 3, 1, 6, 1, 2)


def test_sequence_size_recursion_exact():
    for n in range(2, 65):
        assert universal_sequence_size(n) == (
            universal_sequence_size(n // 2) + n + universal_sequence_size(n - 1 - n // 2)
        )


def test_sequence_entry_count_is_n():
    for n in range(0, 65):
        assert len(universal_sequence(n)) == n


def test_embeds_examples():
    assert embeds((5, 2, 3, 3), (4, 6, 1, 2, 4, 1, 3))
    assert not embeds((5, 2, 3, 3), (3, 2, 5, 3, 3))
    assert embeds((), (3, 1))
    assert embeds((), ())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 6), max_size=5),
    st.lists(st.integers(1, 6), max_size=7),
)
def test_embeds_matches_bruteforce(v, u):
    assert embeds(v, u) == refs.embeds_bruteforce(v, u)


def test_universality_exhaustive_small():
    for n in range(0, 13):
        u = universal_sequence(n)
        for total in range(1, n + 1):
            for seq in refs.compositions(total):
                assert embeds(seq, u), (seq, n)


def test_universality_randomized_to_64():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 64)
        u = universal_sequence(n)
        total = rng.randint(1, n)
        seq = []
        left = total
        while left:
            x = rng.randint(1, left)
            seq.append(x)
            left -= x
        assert embeds(tuple(seq), u)


def test_sequence_constant_is_attained_at_one():
    c = universal_sequence_constant(256)
    assert c == pytest.approx(1.0)
    for n in range(1, 257):
        assert universal_sequence_size(n) <= c * n * math.log2(n + 1) + 1e-9


# ---------------------------------------------------------------------------
# disjunction-of-mean-payoff separators
# ---------------------------------------------------------------------------


def test_scc_separator_single_dimension_mirrors_counter():
    aut = disjmp_scc_separator(3, 1, 2)
    base = mp_separator(3, 2)
    assert aut.state_count == base.state_count
    rng = random.Random(3)
    for _ in range(200):
        word = [rng.randint(-2, 2) for _ in range(rng.randint(0, 8))]
        boxed = [(w,) for w in word]
        assert run(aut, boxed) == run(base, word)


def test_scc_separator_switches_to_surviving_component():
    aut = disjmp_scc_separator(2, 2, 1)
    # copy 1 drains on -1s, copy 2 then reads the all-zero second component
    assert run(aut, [(-1, 0)] * 6) is not None
    # alternating letters keep the first counter alive forever
    word = [(-1, 1), (1, -1)] * 5
    state = run(aut, word)
    assert state is not None and state < mp_separator(2, 1).state_count


def test_disjmp_state_counts():
    assert disjmp_separator(1, 1, 1).state_count == 1
    assert disjmp_separator(4, 2, 1).state_count == 16
    for n in (1, 2, 5, 9):
        for d in (1, 2, 3):
            for big_n in (0, 1, 2):
                assert disjmp_separator(n, d, big_n).state_count == disjmp_state_count(
                    n, d, big_n
                )


def test_disjmp_builds_one_counter_per_distinct_size(monkeypatch):
    from sepgames import combos

    sizes = []
    build = combos.mp_separator
    monkeypatch.setattr(combos, "mp_separator", lambda k, big_n: sizes.append(k) or build(k, big_n))
    for n, d in [(1, 1), (6, 2), (10, 3)]:
        sizes.clear()
        disjmp_separator(n, d, 2)
        assert sorted(sizes) == sorted(set(universal_sequence(n)))


def test_disjmp_rejects_empty():
    with pytest.raises(InvalidGameError):
        disjmp_separator(0, 2, 1)


def test_disjmp_soundness_small_grid():
    for n in (1, 2, 4, 6):
        for d in (1, 2, 3):
            for big_n in (0, 1, 2):
                g = reachable_graph(disjmp_separator(n, d, big_n))
                assert graph_satisfies_disjmp(g), (n, d, big_n)


def _random_vector_graph(rng, n, d, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            vec = tuple(rng.randint(-big_n, big_n) for _ in range(d))
            edges.add((v, vec, rng.randrange(n)))
    return Graph(n, tuple(edges))


def test_disjmp_separation_randomized():
    rng = random.Random(404)
    for n in (1, 3, 5):
        for d in (1, 2, 3):
            for big_n in (0, 1, 2):
                aut = disjmp_separator(n, d, big_n)
                survivors = 0
                for _ in range(4000):
                    g = _random_vector_graph(rng, n, d, big_n)
                    if not graph_satisfies_disjmp(g):
                        continue
                    survivors += 1
                    assert accepts_all_paths(aut, g), (n, d, big_n, g.edges)
                    if survivors >= 300:
                        break
                assert survivors >= 300


def test_pvmp_degenerate_projections_at_medium_scale():
    # with every priority odd the parity half never helps, so the game is a
    # pure mean-payoff game; with every weight negative the counter half
    # never helps, so it is a pure parity game.  Both projections have
    # independent solvers that work far beyond brute force.
    from sepgames import Game, MeanPayoff, Parity, ParityOrMeanPayoff, separating_winning_region
    from sepgames.frontend import build_separator, generate_game

    rng = random.Random(606)
    for _ in range(12):
        n = rng.randint(2, 12)
        base = generate_game(n, 0, 3, ParityOrMeanPayoff(3, 2), seed=rng.randrange(10**9))

        odd_prio = Game(
            Graph(n, tuple(dict.fromkeys((u, (1, w), v) for (u, (_, w), v) in base.graph.edges))),
            base.owner,
            ParityOrMeanPayoff(3, 2),
        )
        region = separating_winning_region(odd_prio, build_separator(odd_prio.objective, n))
        mp_game = Game(
            Graph(n, tuple((u, w, v) for (u, (_, w), v) in odd_prio.graph.edges)),
            base.owner,
            MeanPayoff(2),
        )
        assert region == refs.mp_value_iteration_region(mp_game)

        all_neg = Game(
            Graph(n, tuple(dict.fromkeys((u, (p, -1), v) for (u, (p, _), v) in base.graph.edges))),
            base.owner,
            ParityOrMeanPayoff(3, 2),
        )
        region = separating_winning_region(all_neg, build_separator(all_neg.objective, n))
        parity_game = Game(
            Graph(n, tuple((u, p, v) for (u, (p, _), v) in all_neg.graph.edges)),
            base.owner,
            Parity(3),
        )
        assert region == refs.zielonka_region(parity_game)


def test_disjmp_degenerate_projection_at_medium_scale():
    # pinning every component but the first at -1 reduces the disjunction to
    # plain mean payoff on the first component
    from sepgames import Game, MeanPayoff, separating_winning_region
    from sepgames.frontend import build_separator, generate_game

    rng = random.Random(607)
    for _ in range(12):
        n = rng.randint(2, 12)
        base = generate_game(n, 0, 3, MeanPayoffDisjunction(3, 2), seed=rng.randrange(10**9))
        pinned = Game(
            Graph(
                n,
                tuple(
                    dict.fromkeys((u, (vec[0], -1, -1), v) for (u, vec, v) in base.graph.edges)
                ),
            ),
            base.owner,
            MeanPayoffDisjunction(3, 2),
        )
        region = separating_winning_region(pinned, build_separator(pinned.objective, n))
        mp_game = Game(
            Graph(n, tuple((u, vec[0], v) for (u, vec, v) in pinned.graph.edges)),
            base.owner,
            MeanPayoff(2),
        )
        assert region == refs.mp_value_iteration_region(mp_game)


def test_disjmp_flat_pipeline_matches_value_iteration_at_scale():
    # products of over 50k pairs, solved by the product route and by the
    # routed solver (lifts); pinning the extra components keeps an
    # independent oracle viable
    from sepgames import Game, MeanPayoff, separating_winning_region
    from sepgames.automaton import _solve_product
    from sepgames.frontend import build_separator, generate_game

    rng = random.Random(608)
    for _ in range(3):
        n = 60
        base = generate_game(n, 1, 2, MeanPayoffDisjunction(3, 2), seed=rng.randrange(10**9))
        pinned = Game(
            Graph(
                n,
                tuple(dict.fromkeys((u, (vec[0], -1, -1), v) for (u, vec, v) in base.graph.edges)),
            ),
            base.owner,
            MeanPayoffDisjunction(3, 2),
        )
        aut = build_separator(pinned.objective, n)
        region = separating_winning_region(pinned, aut)
        flags, _ = _solve_product(pinned, aut, list(range(n)))
        assert region == frozenset(v for v in range(n) if flags[v])
        mp_game = Game(
            Graph(n, tuple((u, vec[0], v) for (u, vec, v) in pinned.graph.edges)),
            base.owner,
            MeanPayoff(2),
        )
        assert region == refs.mp_value_iteration_region(mp_game)


def test_reduced_outgoing_matches_full_enumeration():
    # the reduced reachable graph must be the componentwise-minimal collapse
    # of the full alphabet enumeration
    from sepgames import SafetyAutomaton

    aut = disjmp_separator(3, 2, 1)
    full = SafetyAutomaton(
        state_count=aut.state_count,
        initial=aut.initial,
        alphabet=aut.alphabet,
        delta=aut.delta,
    )
    assert reachable_graph(aut).edges == reachable_graph(full).edges


def test_combo_stats_reports_product_sizes():
    from sepgames import EVE, Game

    aut = disjmp_separator(2, 2, 1)
    game = Game(
        Graph(2, [(0, (0, 0), 1), (1, (-1, 1), 0)]),
        (EVE, EVE),
        MeanPayoffDisjunction(2, 1),
    )
    stats = separator_stats(aut, bound=disjmp_state_count(2, 2, 1), game=game)
    assert stats["states"] == aut.state_count
    assert stats["bound"] == aut.state_count
    assert 0 < stats["product_states"] <= game.vertex_count * aut.state_count + 1
