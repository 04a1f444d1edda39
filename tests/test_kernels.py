"""Row kernels against the scalar ``delta``, entry by entry, and ``pre``
kernels against the filled table's ``pre``.

Every library separator evaluates its transitions two ways: ``delta`` one
(state, color) at a time, and ``row_kernel`` for whole arrays of states.
The kernel must agree with ``delta`` on every state and every color, with
-1 where ``delta`` is undefined; the solvers' transition table holds the
same entries, with ``state_count`` (the losing sink) in place of -1.  The
``pre_kernel`` the solver reads instead of that table must give exactly
the ``pre`` read off it, ``_pre_table`` of the table in rank order.
"""

import dataclasses
import random

import numpy as np
import pytest

from sepgames import (
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
    automaton,
    disjmp_scc_separator,
    disjmp_separator,
    generate_game,
    mp_separator,
    naive_general_separator,
    parity_mp_separator,
    parity_separator,
    separating_winning_region,
    sequential_product,
)
from sepgames.automaton import _is_monotone, _pre_table, _ranked, _solve_flat, _transition_table
from sepgames.frontend import build_separator


def _scalar_table(aut, colors, states):
    return np.array(
        [[-1 if (t := aut.delta(q, c)) is None else t for c in colors] for q in states],
        dtype=np.int64,
    ).reshape(len(states), len(colors))


def _assert_kernel_is_delta(aut):
    assert aut.row_kernel is not None
    colors = list(aut.alphabet.colors())
    rows = aut.row_kernel(colors)
    every = np.arange(aut.state_count)
    kernel = rows(every)
    assert np.array_equal(kernel, _scalar_table(aut, colors, every))
    table = _transition_table(aut, colors)
    assert np.array_equal(table, np.where(kernel < 0, aut.state_count, kernel))
    # arbitrary order with repeats, and a subset of the colors
    rng = random.Random(aut.state_count)
    shuffled = np.array([rng.randrange(aut.state_count) for _ in range(2 * aut.state_count)])
    subset = colors[::-2]
    assert np.array_equal(
        aut.row_kernel(subset)(shuffled), _scalar_table(aut, subset, shuffled.tolist())
    )


@pytest.mark.parametrize("d", [0, 1, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_parity_kernel_is_delta(n, d):
    _assert_kernel_is_delta(parity_separator(n, d))


@pytest.mark.parametrize("N", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_mp_kernel_is_delta(n, N):
    _assert_kernel_is_delta(mp_separator(n, N))


@pytest.mark.parametrize("d,N", [(0, 1), (1, 2), (2, 1), (3, 0), (3, 2), (4, 1)])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_parity_mp_kernel_is_delta(n, d, N):
    _assert_kernel_is_delta(parity_mp_separator(parity_separator(n, d), mp_separator(n, N)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4, 6])
def test_disjmp_kernel_is_delta(n, d):
    _assert_kernel_is_delta(disjmp_separator(n, d, 1))


def test_naive_general_kernel_is_delta():
    _assert_kernel_is_delta(naive_general_separator(parity_separator(3, 3), 3))
    _assert_kernel_is_delta(naive_general_separator(mp_separator(4, 2), 4))
    pvmp = parity_mp_separator(parity_separator(2, 2), mp_separator(2, 1))
    _assert_kernel_is_delta(naive_general_separator(pvmp, 3))


@pytest.mark.parametrize("d", range(9))
@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_parity_delta_is_monotone_in_leaf_order(n, d):
    # the order value iteration relies on: each color's column of successors
    # never decreases, and undefined entries only fill a suffix of the leaves
    aut = parity_separator(n, d)
    table = _scalar_table(aut, list(aut.alphabet.colors()), range(aut.state_count))
    for column in table.T:
        undefined = column < 0
        assert undefined[np.argmax(undefined) :].all() or not undefined.any()
        assert (np.diff(column[~undefined]) >= 0).all()
    # and the solver's check, on the table its route fills, agrees
    assert _is_monotone(_transition_table(aut, list(aut.alphabet.colors())))


def test_pre_table_is_the_last_state_at_or_below_each_rank():
    # random monotone tables whose undefined entries (nq, the sink) fill a
    # suffix of each column, of every length from none to the whole column,
    # against pre(c, t) = max{q : table[q, c] <= t}, or -1
    rng = random.Random(745)
    shapes = [(1, 0), (3, 0), (1, 1), (1, 3)] + [(rng.randint(1, 40), rng.randint(1, 5)) for _ in range(60)]
    sinks = set()
    for nq, ncol in shapes:
        columns = []
        for _ in range(ncol):
            undefined = rng.choice((0, rng.randint(0, nq), nq))
            columns.append(sorted(rng.randrange(nq) for _ in range(nq - undefined)) + [nq] * undefined)
            sinks.add(min(undefined, 2))
        table = np.array(columns, dtype=np.int32).T.reshape(nq, ncol)
        assert _is_monotone(table)
        pre = _pre_table(table)
        assert pre.dtype == np.int32 and pre.size == ncol * (nq + 1)
        for i, column in enumerate(columns):
            for t in range(-1, nq):
                expected = max((q for q in range(nq) if column[q] <= t), default=-1)
                assert pre[i * (nq + 1) + t + 1] == expected
    assert sinks == {0, 1, 2}


def test_parity_tree_levels_are_built_on_first_query_only(monkeypatch):
    # the tree's arrays are a cost of the first query, never of construction
    from sepgames import separators

    calls = []
    node_starts = separators._node_starts
    monkeypatch.setattr(separators, "_node_starts", lambda n, h: calls.append((n, h)) or node_starts(n, h))
    assert parity_separator(10**6, 20).state_count == 5_119_738_089_749
    aut = parity_separator(40, 8)
    assert calls == []
    aut.row_kernel([0, 3])
    aut.row_kernel([8])
    aut.delta(0, 3)
    assert calls == [(40, 4)]


def test_parity_tree_query_caches_its_own_levels_only():
    # the halving recursion shares its subtrees within one build, and the
    # process keeps only the levels of the trees asked for, each built once
    from sepgames import separators, universal_tree

    before = separators._node_starts.cache_info().currsize
    levels = universal_tree(1234, 3).levels
    assert separators._node_starts.cache_info().currsize == before + 1
    again = universal_tree(1234, 3).levels
    assert all(a is b is c for a, b, c in zip(levels[1:], again[1:], separators._node_starts(1234, 3)))
    assert separators._node_starts.cache_info().currsize == before + 1


@pytest.mark.parametrize(
    "aut",
    [
        mp_separator(1, 2),
        mp_separator(2, 1),
        mp_separator(7, 3),
        disjmp_scc_separator(4, 1, 2),
        disjmp_scc_separator(5, 3, 1),
        disjmp_separator(6, 2, 2),
        disjmp_separator(9, 3, 1),
        naive_general_separator(mp_separator(4, 2), 4),
    ],
    ids=lambda aut: f"{type(aut.alphabet).__name__}-{aut.state_count}",
)
def test_counter_ranks_order_delta_monotonically(aut):
    # counters rank from the top down and chains block by block: the order
    # in which value iteration sees a monotone table
    assert aut.rank is not None
    assert sorted(aut.rank.tolist()) == list(range(aut.state_count))
    table = _transition_table(aut, list(aut.alphabet.colors()))
    assert _is_monotone(_ranked(table, aut.rank))
    if aut.state_count > 1:
        # in state order a negative weight leaves the low counters undefined
        assert not _is_monotone(table)


def test_parity_and_parity_mp_keep_state_order():
    assert parity_separator(5, 4).rank is None
    assert naive_general_separator(parity_separator(3, 3), 3).rank is None
    assert parity_mp_separator(parity_separator(3, 2), mp_separator(3, 1)).rank is None


# ---------------------------------------------------------------------------
# pre kernels against the filled table's pre
# ---------------------------------------------------------------------------


def _assert_pre_kernel_is_table_pre(aut, colors):
    colors = list(colors)
    pre = aut.pre_kernel(colors)
    assert pre.dtype == np.int32 and pre.shape == (len(colors) * (aut.state_count + 1),)
    assert np.array_equal(pre, _pre_table(_ranked(_transition_table(aut, colors), aut.rank)))


def _color_lists(aut):
    # every color, reordered with repeats, a few, and none
    colors = list(aut.alphabet.colors())
    rng = random.Random(len(colors))
    return [colors, rng.choices(colors, k=2 * len(colors) + 1), colors[::-3], []]


@pytest.mark.parametrize("d", range(10))
def test_parity_pre_kernel_is_table_pre(d):
    for n in range(1, 41):
        aut = parity_separator(n, d)
        for colors in _color_lists(aut):
            _assert_pre_kernel_is_table_pre(aut, colors)


@pytest.mark.parametrize("N", range(4))
def test_mp_pre_kernel_is_table_pre(N):
    for n in range(1, 13):
        aut = mp_separator(n, N)
        for colors in _color_lists(aut):
            _assert_pre_kernel_is_table_pre(aut, colors)


@pytest.mark.parametrize("N", range(3))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_disjmp_pre_kernel_is_table_pre(d, N):
    for n in (1, 2, 4, 7, 10):
        for aut in (disjmp_scc_separator(n, d, N), disjmp_separator(n, d, N)):
            for colors in _color_lists(aut):
                _assert_pre_kernel_is_table_pre(aut, colors)


def test_chain_pre_kernels_are_table_pre():
    chains = [
        naive_general_separator(parity_separator(3, 3), 3),
        naive_general_separator(parity_separator(5, 4), 2),
        naive_general_separator(disjmp_scc_separator(3, 2, 1), 3),
        naive_general_separator(disjmp_scc_separator(4, 1, 2), 4),
        sequential_product(parity_separator(4, 5), parity_separator(6, 5)),
        sequential_product(parity_separator(1, 0), parity_separator(3, 0)),
    ]
    for aut in chains:
        assert aut.pre_kernel is not None
        for colors in _color_lists(aut):
            _assert_pre_kernel_is_table_pre(aut, colors)


def test_chain_without_a_first_ranked_initial_has_no_pre_kernel():
    # a jump into a block lands on its initial state; ranked anywhere but
    # first, the states before it in the block are better than the jump's
    # target, and the chain's table is no longer monotone
    inner = dataclasses.replace(parity_separator(3, 2), initial=1)
    assert inner.pre_kernel is not None
    for aut in (
        sequential_product(parity_separator(3, 2), inner),
        sequential_product(inner, parity_separator(3, 2)),
        naive_general_separator(dataclasses.replace(mp_separator(3, 1), initial=0), 2),
    ):
        assert aut.pre_kernel is None and aut.row_kernel is not None
    # the table route still solves them, by the lifts where the table is
    # monotone, else by the product
    game = generate_game(5, 1, 3, Parity(2), seed=748)
    aut = sequential_product(parity_separator(3, 2), inner)
    assert separating_winning_region(game, aut) == _flat_region(game, aut)


def _flat_region(game, aut):
    flags, _ = _solve_flat(game, aut, list(range(game.vertex_count)))
    return frozenset(v for v, f in enumerate(flags) if f)


def test_package_separators_solve_without_a_transition_table(monkeypatch):
    # parity, mean payoff and disj-mp by the lifts on their pre kernels,
    # parity-mp by the cascade on its parity part's kernel: none fills,
    # ranks or checks a table
    def refused(*args, **kwargs):
        raise AssertionError("a table was built")

    rng = random.Random(749)
    for objective in (Parity(6), MeanPayoff(2), ParityOrMeanPayoff(3, 2), MeanPayoffDisjunction(2, 2)):
        game = generate_game(12, 1, 3, objective, seed=rng.randrange(10**9))
        aut = build_separator(objective, 12)
        with monkeypatch.context() as patch:
            for name in ("_transition_table", "_ranked", "_is_monotone"):
                patch.setattr(automaton, name, refused)
            region, stats = separating_winning_region(game, aut, with_stats=True)
        assert stats["path"] == ("cascade" if isinstance(objective, ParityOrMeanPayoff) else "lifts")
        assert region == _flat_region(game, aut)
