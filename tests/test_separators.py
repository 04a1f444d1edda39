import random

import pytest

import refs
from sepgames import (
    Graph,
    InvalidGameError,
    accepts_all_paths,
    graph_satisfies_mp,
    graph_satisfies_parity,
    mp_separator,
    parity_separator,
    parity_state_bound,
    reachable_graph,
    run,
    separator_stats,
    universal_tree,
)


# ---------------------------------------------------------------------------
# Universal trees
# ---------------------------------------------------------------------------


def test_height_one_trees_have_n_leaves():
    for n in range(0, 12):
        assert universal_tree(n, 1).leaf_count == n


def test_capacity_one_is_a_single_path():
    for h in range(0, 5):
        t = universal_tree(1, h)
        assert t.leaf_count == 1
        assert t.leaf_tuple(0) == (0,) * h


def test_three_leaf_capacity_height_two_has_five_leaves():
    assert universal_tree(3, 2).leaf_count == 5


def test_leaf_tuples_are_sorted_and_roundtrip():
    t = universal_tree(5, 3)
    tuples = [t.leaf_tuple(i) for i in range(t.leaf_count)]
    assert tuples == sorted(tuples)
    assert [t.leaf_index(tp) for tp in tuples] == list(range(t.leaf_count))


def test_ancestor_span_degenerate_levels():
    t = universal_tree(4, 2)
    for i in range(t.leaf_count):
        assert t.ancestor_span(i, 0) == (i, 1)
        assert t.ancestor_span(i, t.height) == (0, t.leaf_count)


@pytest.mark.parametrize("n,h", [(0, 2), (1, 0), (1, 3), (4, 2), (9, 3), (30, 4)])
def test_span_table_matches_ancestor_span(n, h):
    t = universal_tree(n, h)
    starts, ends = t.span_table()
    assert starts.shape == ends.shape == (h + 1, t.leaf_count)
    for i in range(t.leaf_count):
        for level in range(h + 1):
            start, count = t.ancestor_span(i, level)
            assert (starts[level, i], ends[level, i]) == (start, start + count)


@pytest.mark.parametrize("n,h", [(n, h) for n in range(1, 6) for h in range(1, 4)])
def test_universality_exhaustive(n, h):
    u = refs.universal_tree_as_nested(universal_tree(n, h))
    for k in range(1, n + 1):
        for tree in refs.ordered_trees(k, h):
            assert refs.tree_embeds(tree, u, h), (tree, n, h)


def test_three_leaf_trees_embed_into_u32():
    u = refs.universal_tree_as_nested(universal_tree(3, 2))
    for tree in refs.ordered_trees(3, 2):
        assert refs.tree_embeds(tree, u, 2)


# ---------------------------------------------------------------------------
# Parity separator
# ---------------------------------------------------------------------------


def test_parity_two_states_full_table():
    aut = parity_separator(2, 2)
    assert aut.state_count == 2 and aut.initial == 0
    assert [aut.delta(0, p) for p in (0, 1, 2)] == [0, 1, 0]
    assert [aut.delta(1, p) for p in (0, 1, 2)] == [1, None, 0]


def test_parity_word_examples():
    aut = parity_separator(2, 2)
    assert run(aut, [1, 1]) is None
    for k in (1, 2, 5):
        assert run(aut, [1, 2] * k) == 0


def test_parity_zero_is_identity_and_top_even_resets():
    aut = parity_separator(5, 4)
    for q in range(aut.state_count):
        assert aut.delta(q, 0) == q
        assert aut.delta(q, 4) == 0


def test_parity_state_count_is_leaf_count():
    for n in range(1, 9):
        for d in range(1, 7):
            aut = parity_separator(n, d)
            assert aut.state_count == universal_tree(n, (d + 1) // 2).leaf_count


def test_parity_state_count_within_binomial_bound():
    for n in range(1, 33):
        for d in (0, 2, 4, 6, 8):
            assert parity_separator(n, d).state_count <= parity_state_bound(n, d)


def test_parity_soundness_on_reachable_graph():
    for n in range(1, 9):
        for d in range(1, 7):
            assert graph_satisfies_parity(reachable_graph(parity_separator(n, d)))


def test_parity_odd_top_priority_moves_top_component():
    aut = parity_separator(4, 3)  # height 2, top odd priority 3
    tree = universal_tree(4, 2)
    for q in range(aut.state_count):
        t = aut.delta(q, 3)
        if t is not None:
            assert tree.leaf_tuple(t)[0] > tree.leaf_tuple(q)[0]


def _random_parity_graph(rng, n, d):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            p = rng.randint(0, d)
            if p % 2 and rng.random() < 0.6:
                p = p - 1  # bias toward satisfying graphs
            edges.add((v, p, rng.randrange(n)))
    return Graph(n, tuple(edges))


def test_parity_separation_randomized():
    rng = random.Random(101)
    for n in range(1, 9):
        for d in range(1, 7):
            aut = parity_separator(n, d)
            survivors = 0
            for _ in range(12000):
                g = _random_parity_graph(rng, n, d)
                if not graph_satisfies_parity(g):
                    continue
                survivors += 1
                assert accepts_all_paths(aut, g), (n, d, g.edges)
                if survivors >= 1000:
                    break
            assert survivors >= 1000, (n, d, survivors)


# ---------------------------------------------------------------------------
# Mean payoff separator
# ---------------------------------------------------------------------------


def test_counter_single_vertex_accepts_exactly_nonnegative_letters():
    aut = mp_separator(1, 3)
    assert aut.state_count == 1
    assert run(aut, [0, 3, 1]) == 0
    assert run(aut, [0, -1]) is None


def test_counter_examples():
    aut = mp_separator(3, 2)
    assert run(aut, [-2, -2]) == 0
    assert run(aut, [-2, -2, -1]) is None
    assert aut.delta(3, 2) == 4  # saturates at the top


def test_counter_state_count_exact():
    for n in range(1, 9):
        for big_n in range(0, 5):
            assert mp_separator(n, big_n).state_count == (n - 1) * big_n + 1


def test_counter_monotone():
    aut = mp_separator(5, 3)
    for q in range(aut.state_count):
        for qq in range(q, aut.state_count):
            for w in range(-3, 4):
                a, b = aut.delta(q, w), aut.delta(qq, w)
                if a is not None:
                    assert b is not None and a <= b


def test_counter_soundness_on_reachable_graph():
    for n in range(1, 9):
        for big_n in range(0, 5):
            assert graph_satisfies_mp(reachable_graph(mp_separator(n, big_n)))


def _random_weight_graph(rng, n, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            w = rng.randint(-big_n, big_n)
            if w < 0 and rng.random() < 0.6:
                w = -w  # bias toward satisfying graphs
            edges.add((v, w, rng.randrange(n)))
    return Graph(n, tuple(edges))


def test_counter_separation_randomized():
    rng = random.Random(202)
    for n in range(1, 9):
        for big_n in range(0, 5):
            aut = mp_separator(n, big_n)
            survivors = 0
            for _ in range(12000):
                g = _random_weight_graph(rng, n, big_n)
                if not graph_satisfies_mp(g):
                    continue
                survivors += 1
                assert accepts_all_paths(aut, g), (n, big_n, g.edges)
                if survivors >= 1000:
                    break
            assert survivors >= 1000, (n, big_n, survivors)


def test_degenerate_priority_zero_alphabet():
    # priorities capped at 0 make every infinite play winning; the separator
    # collapses to a single total state
    aut = parity_separator(4, 0)
    assert aut.state_count == 1 and aut.delta(0, 0) == 0
    from sepgames import EVE, Game, Parity, eve_winning_region_bruteforce, separating_winning_region

    game = Game(Graph(2, [(0, 0, 0)]), (EVE, EVE), Parity(0))
    assert separating_winning_region(game, aut) == eve_winning_region_bruteforce(game) == {0}


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidGameError):
        mp_separator(0, 1)
    with pytest.raises(InvalidGameError):
        mp_separator(2, -1)
    with pytest.raises(InvalidGameError):
        parity_separator(0, 2)


def test_stats_emitter():
    aut = mp_separator(4, 2)
    stats = separator_stats(aut, bound=(4 - 1) * 2 + 1)
    assert stats == {"states": 7, "alphabet_size": 5, "bound": 7}
