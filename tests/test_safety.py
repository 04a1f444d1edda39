import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import refs
from conftest import safety_games
from sepgames import (
    ADAM,
    EVE,
    Game,
    Graph,
    InvalidGameError,
    MeanPayoff,
    Safety,
    adam_attractor,
    solve_safety,
)
from sepgames.safety import _SMALL_FRONTIER, _attract


def _game(n, edges, owners):
    return Game(Graph(n, edges), owners, Safety())


def test_attractor_of_empty_target_with_loops_is_empty():
    game = _game(2, [(0, None, 0), (1, None, 1)], (EVE, EVE))
    assert adam_attractor(game, []) == frozenset()


def test_attractor_absorbs_eve_sinks_and_forced_moves():
    # s is an Eve sink, v's only move goes to s: both are attracted
    game = _game(2, [(1, None, 0)], (EVE, EVE))
    assert adam_attractor(game, []) == frozenset({0, 1})


def test_attractor_adam_escape():
    # Adam vertex 0 with edges to a safe loop vertex 1 and to the target 2
    game = _game(
        3,
        [(0, None, 1), (0, None, 2), (1, None, 1), (2, None, 2)],
        (ADAM, EVE, EVE),
    )
    assert adam_attractor(game, [2]) == refs.naive_attractor(game, [2]) == frozenset({0, 2})


def test_attractor_rejects_safety_violations():
    with pytest.raises(InvalidGameError):
        adam_attractor(Game(Graph(1, [(0, 0, 0)]), (EVE,), MeanPayoff(1)), [])
    with pytest.raises(InvalidGameError):
        adam_attractor(_game(1, [], (EVE,)), [3])


def test_single_adam_sink_wins_for_eve():
    region = solve_safety(_game(1, [], (ADAM,)))
    assert region.eve_wins == frozenset({0})


def test_single_eve_sink_loses():
    region = solve_safety(_game(1, [], (EVE,)))
    assert region.eve_wins == frozenset()


def test_eve_escapes_via_self_loop():
    # Eve vertex 0: self-loop or step into the Eve sink 1; the loop survives
    game = _game(2, [(0, None, 0), (0, None, 1)], (EVE, EVE))
    region = solve_safety(game)
    assert region.eve_wins == refs.naive_safety_region(game) == frozenset({0})
    assert region.witness.choices[0] == (0, None, 0)


@settings(max_examples=300, deadline=None)
@given(safety_games())
def test_agrees_with_naive_fixpoint(game):
    region = solve_safety(game)
    assert region.eve_wins == refs.naive_safety_region(game)
    # witness sanity: defined exactly on Eve non-sinks inside the region,
    # always staying inside the region
    for v, e in region.witness.choices.items():
        assert game.owner[v] is EVE
        assert v in region.eve_wins and e[2] in region.eve_wins
    for v in region.eve_wins:
        if game.owner[v] is EVE and not game.graph.is_sink(v):
            assert v in region.witness.choices


def test_agrees_with_naive_fixpoint_bulk():
    # 10^4 seeded random games with n <= 7
    rng = random.Random(123)
    for _ in range(10_000):
        n = rng.randint(1, 7)
        owners = tuple(rng.choice([EVE, ADAM]) for _ in range(n))
        edges = {(rng.randrange(n), None, rng.randrange(n)) for _ in range(rng.randint(0, 12))}
        game = _game(n, tuple(edges), owners)
        assert solve_safety(game).eve_wins == refs.naive_safety_region(game)


def test_attractor_spreads_through_sink_heavy_game():
    # sinks seed the attractor; a fair share of the graph gets absorbed
    rng = random.Random(6)
    n = 3000
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(0, 3)):
            edges.add((v, None, rng.randrange(n)))
    owners = tuple(rng.choice([EVE, ADAM]) for _ in range(n))
    game = _game(n, tuple(edges), owners)
    region = solve_safety(game)
    assert region.eve_wins == refs.naive_safety_region(game)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_attract_vectorized_levels_match_naive_fixpoint(dtype):
    # a seed well above the worklist threshold sends the first levels through
    # the vectorized branch; repeated edges and a shuffled edge order must
    # not change the fixpoint
    rng = random.Random(41)
    for _ in range(4):
        n = 1500
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 3 * n))]
        edges += rng.sample(edges, len(edges) // 4)
        rng.shuffle(edges)
        owners = tuple(rng.choice([EVE, ADAM]) for _ in range(n))
        eve = np.array([o is EVE for o in owners])
        outdeg = Counter(u for u, _ in edges)
        sinks = [v for v in range(n) if owners[v] is EVE and outdeg[v] == 0]
        target = sorted(set(rng.sample(range(n), 4 * _SMALL_FRONTIER) + sinks))
        srcs = np.array([u for u, _ in edges], dtype=dtype)
        dsts = np.array([v for _, v in edges], dtype=dtype)
        x = _attract(n, srcs, dsts, eve, np.array(target, dtype=dtype))
        assert x.dtype == bool and x.shape == (n,)
        game = _game(n, tuple({(u, None, v) for u, v in edges}), owners)
        assert frozenset(np.flatnonzero(x).tolist()) == refs.naive_attractor(game, target)


def test_monotone_in_added_edges():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 6)
        owners = tuple(rng.choice([EVE, ADAM]) for _ in range(n))
        edges = {(rng.randrange(n), None, rng.randrange(n)) for _ in range(rng.randint(0, 8))}
        game = _game(n, tuple(edges), owners)
        before = solve_safety(game).eve_wins
        u = rng.randrange(n)
        v = rng.randrange(n)
        if (u, None, v) in edges:
            continue
        bigger = _game(n, tuple(edges | {(u, None, v)}), owners)
        after = solve_safety(bigger).eve_wins
        if owners[u] is EVE:
            assert before <= after
        else:
            assert after <= before
