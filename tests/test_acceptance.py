"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import refs
from sepgames import (
    Graph,
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
    accepts_all_paths,
    cli,
    disjmp_separator,
    disjmp_state_count,
    embeds,
    generate_game,
    graph_satisfies_disjmp,
    graph_satisfies_mp,
    graph_satisfies_parity,
    graph_satisfies_parity_or_mp,
    mp_separator,
    parity_mp_separator,
    parity_separator,
    parity_state_bound,
    print_game,
    reachable_graph,
    universal_sequence,
    universal_sequence_constant,
    violating_subset_exists,
)
from sepgames.separators import universal_tree


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: PASS{suffix}")


def _run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli(args)
    return code, out.getvalue(), err.getvalue()


def _pvmp(n, d, big_n):
    return parity_mp_separator(parity_separator(n, d), mp_separator(n, big_n))


# ---------------------------------------------------------------------------
# Criterion 1: end-to-end equivalence, separating reduction vs oracle
# ---------------------------------------------------------------------------


def test_criterion_1_end_to_end_equivalence(tmp_path):
    started = time.perf_counter()
    rng = random.Random(20260808)
    families = [
        ("parity", lambda: Parity(rng.randint(1, 4)), 6),
        ("mp", lambda: MeanPayoff(rng.randint(0, 3)), 6),
        ("parity-mp", lambda: ParityOrMeanPayoff(rng.randint(1, 4), rng.randint(0, 3)), 5),
        ("disj-mp", lambda: MeanPayoffDisjunction(rng.randint(1, 3), rng.randint(0, 2)), 5),
    ]
    game_file = tmp_path / "case.game"
    total = 0
    for name, make_objective, max_n in families:
        for i in range(500):
            n = rng.randint(1, max_n)
            game = generate_game(
                n, 0 if i % 2 else 1, 3, make_objective(), seed=rng.randrange(10**9)
            )
            game_file.write_text(print_game(game))
            base = ["solve", "--input", str(game_file), "--from", "0", "--region"]
            code_sep, out_sep, _ = _run_cli(base)
            code_orc, out_orc, _ = _run_cli(base + ["--algo", "oracle"])
            assert code_sep == code_orc == 0
            assert out_sep.splitlines()[:2] == out_orc.splitlines()[:2], print_game(game)
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes ({elapsed:.0f}s)"
    _report(1, "end-to-end equivalence", f"{total} games, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 2: soundness of every separator's reachable graph
# ---------------------------------------------------------------------------


def test_criterion_2_soundness_full_grid():
    started = time.perf_counter()
    points = 0
    for n in range(1, 9):
        for big_n in range(0, 4):
            assert graph_satisfies_mp(reachable_graph(mp_separator(n, big_n))), (n, big_n)
            points += 1
        for d in range(1, 5):
            assert graph_satisfies_parity(reachable_graph(parity_separator(n, d))), (n, d)
            points += 1
        for d in range(1, 5):
            for big_n in range(0, 4):
                g = reachable_graph(_pvmp(n, d, big_n))
                assert graph_satisfies_parity_or_mp(g), ("parity-mp", n, d, big_n)
                g = reachable_graph(disjmp_separator(n, d, big_n))
                assert graph_satisfies_disjmp(g), ("disj-mp", n, d, big_n)
                points += 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 2 exceeded 2 minutes ({elapsed:.0f}s)"
    _report(2, "soundness grids", f"{points} grid points, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 3: separation on filtered random graphs
# ---------------------------------------------------------------------------


def _sample_parity(rng, n, d):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            p = rng.randint(0, d)
            if p % 2 and rng.random() < 0.6:
                p -= 1
            edges.add((v, p, rng.randrange(n)))
    return Graph(n, tuple(edges))


def _sample_mp(rng, n, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            w = rng.randint(-big_n, big_n)
            if w < 0 and rng.random() < 0.6:
                w = -w
            edges.add((v, w, rng.randrange(n)))
    return Graph(n, tuple(edges))


def _sample_pair(rng, n, d, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            p = rng.randint(0, d)
            w = rng.randint(-big_n, big_n)
            if p % 2 and w < 0 and rng.random() < 0.7:
                w = -w
            edges.add((v, (p, w), rng.randrange(n)))
    return Graph(n, tuple(edges))


def _sample_vector(rng, n, d, big_n):
    edges = set()
    for v in range(n):
        for _ in range(rng.randint(1, 2)):
            vec = list(rng.randint(-big_n, big_n) for _ in range(d))
            if big_n and rng.random() < 0.4:
                vec[rng.randrange(d)] = abs(vec[rng.randrange(d)])
            edges.add((v, tuple(vec), rng.randrange(n)))
    return Graph(n, tuple(edges))


def _separation_sweep(points, sampler, checker, automaton_of, rng, needed=1000, cap=30000):
    for point in points:
        aut = automaton_of(*point)
        survivors = 0
        for _ in range(cap):
            g = sampler(rng, *point)
            if not checker(g):
                continue
            survivors += 1
            assert accepts_all_paths(aut, g), (point, g.edges)
            if survivors >= needed:
                break
        assert survivors >= needed, (point, survivors)


def test_criterion_3_separation_sweeps():
    started = time.perf_counter()
    rng = random.Random(31337)
    _separation_sweep(
        [(n, d) for n in range(1, 9) for d in range(1, 5)],
        _sample_parity,
        graph_satisfies_parity,
        parity_separator,
        rng,
    )
    _separation_sweep(
        [(n, big_n) for n in range(1, 9) for big_n in range(0, 4)],
        _sample_mp,
        graph_satisfies_mp,
        mp_separator,
        rng,
    )
    _separation_sweep(
        [(n, d, big_n) for n in range(1, 9) for d in range(1, 5) for big_n in range(0, 4)],
        _sample_pair,
        graph_satisfies_parity_or_mp,
        _pvmp,
        rng,
    )
    _separation_sweep(
        [(n, d, big_n) for n in range(1, 9) for d in range(1, 5) for big_n in range(0, 4)],
        _sample_vector,
        graph_satisfies_disjmp,
        disjmp_separator,
        rng,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"criterion 3 exceeded 10 minutes ({elapsed:.0f}s)"
    _report(3, "separation sweeps", f"320 grid points x >= 1000 filtered graphs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 4: size formulas
# ---------------------------------------------------------------------------


def test_criterion_4_size_formulas():
    # counter automaton: exactly (n-1)*N + 1 states
    for n in range(1, 13):
        for big_n in range(0, 5):
            assert mp_separator(n, big_n).state_count == (n - 1) * big_n + 1

    # product automaton: reachable part within (d+1) * |A_P| * |A_MP|
    for n in range(1, 9):
        for d in range(1, 5):
            for big_n in range(0, 4):
                aut = _pvmp(n, d, big_n)
                cap = (d + 1) * parity_separator(n, d).state_count * mp_separator(n, big_n).state_count
                assert aut.state_count == cap
                assert reachable_graph(aut).vertex_count <= cap

    # chained disjunction separator: exact sum formula and the c * n log n * d * N bound
    constant = universal_sequence_constant(256)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256):
        for d in (1, 2, 3):
            for big_n in (0, 1, 2, 3):
                states = disjmp_separator(n, d, big_n).state_count
                assert states == disjmp_state_count(n, d, big_n)
                if big_n >= 1:
                    bound = constant * n * math.log2(n + 1) * d * big_n
                    assert states <= bound + 1e-6, (n, d, big_n, states, bound)

    # tree-leaf automaton within the binomial bound
    for n in range(1, 33):
        for d in (2, 4, 6, 8):
            aut = parity_separator(n, d)
            assert aut.state_count == universal_tree(n, d // 2).leaf_count
            assert aut.state_count <= parity_state_bound(n, d)
    _report(4, "size formulas", f"c = {constant:.3f}")


# ---------------------------------------------------------------------------
# Criterion 5: universal sequence table and embeddings
# ---------------------------------------------------------------------------


def test_criterion_5_universal_sequences():
    assert universal_sequence(2) == (1, 2)
    assert universal_sequence(3) == (1, 3, 1)
    assert universal_sequence(4) == (1, 2, 4, 1)
    assert universal_sequence(5) == (1, 2, 5, 1, 2)
    assert universal_sequence(6) == (1, 3, 1, 6, 1, 2)
    assert embeds((5, 2, 3, 3), (4, 6, 1, 2, 4, 1, 3))
    assert not embeds((5, 2, 3, 3), (3, 2, 5, 3, 3))
    checked = 0
    for n in range(0, 13):
        u = universal_sequence(n)
        for total in range(1, n + 1):
            for seq in refs.compositions(total):
                assert embeds(seq, u), (seq, n)
                checked += 1
    _report(5, "universal sequences", f"{checked} exhaustive embeddings")


# ---------------------------------------------------------------------------
# Criterion 6: oracle self-consistency
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_self_consistency():
    started = time.perf_counter()
    rng = random.Random(60606)

    for _ in range(10_000):
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        big_n = rng.randint(1, 2)
        edges = set()
        for _ in range(rng.randint(0, 10)):
            edges.add(
                (rng.randrange(n), (rng.randint(0, d), rng.randint(-big_n, big_n)), rng.randrange(n))
            )
        g = Graph(n, tuple(edges))
        assert graph_satisfies_parity_or_mp(g) == (
            not violating_subset_exists(g, ParityOrMeanPayoff(d, big_n))
        ), g.edges

    for _ in range(10_000):
        n = rng.randint(1, 4)
        dims = rng.randint(1, 3)
        edges = set()
        for _ in range(rng.randint(0, 10)):
            edges.add(
                (
                    rng.randrange(n),
                    tuple(rng.randint(-1, 1) for _ in range(dims)),
                    rng.randrange(n),
                )
            )
        g = Graph(n, tuple(edges))
        assert graph_satisfies_disjmp(g) == (
            not violating_subset_exists(g, MeanPayoffDisjunction(dims, 1))
        ), g.edges

    # exhaustive over all graphs with at most 4 edges on 2 vertices
    import itertools

    pair_palette = [
        (u, (p, w), v)
        for u in range(2)
        for v in range(2)
        for p in range(0, 3)
        for w in (-1, 1)
    ]
    count = 0
    for k in range(0, 5):
        for combo in itertools.combinations(pair_palette, k):
            g = Graph(2, combo)
            assert graph_satisfies_parity_or_mp(g) == (
                not violating_subset_exists(g, ParityOrMeanPayoff(2, 1))
            ), combo
            count += 1

    vec_palette = [
        (u, (w1, w2), v) for u in range(2) for v in range(2) for w1 in (-1, 1) for w2 in (-1, 1)
    ]
    for k in range(0, 5):
        for combo in itertools.combinations(vec_palette, k):
            g = Graph(2, combo)
            assert graph_satisfies_disjmp(g) == (
                not violating_subset_exists(g, MeanPayoffDisjunction(2, 1))
            ), combo
            count += 1
    elapsed = time.perf_counter() - started
    _report(6, "oracle self-consistency", f"20000 random + {count} exhaustive, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 7: scaling smoke test
# ---------------------------------------------------------------------------


def test_criterion_7_scaling_smoke():
    code, out, _ = _run_cli(["bench", "--suite", "scaling"])
    assert code == 0
    lines = out.splitlines()
    constant = None
    for line in lines:
        if line.startswith("#") and "c =" in line:
            constant = float(line.rsplit("c =", 1)[1].strip())
    assert constant is not None
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    assert rows[0] == ["n", "d", "N", "states", "product_states", "ms"]
    disj_rows = [r for r in rows[1:] if r[1] != "-"]
    safety_rows = [r for r in rows[1:] if r[1] == "-"]
    assert [int(r[0]) for r in disj_rows] == [50, 100, 200, 400]

    times = {}
    for r in disj_rows:
        n, d, big_n, states = int(r[0]), int(r[1]), int(r[2]), int(r[3])
        assert states == disjmp_state_count(n, d, big_n)
        assert states <= constant * n * math.log2(n + 1) * d * big_n + 1e-6
        times[n] = float(r[5])

    # cubic guard: each doubling of n may cost at most 8x (with a noise floor)
    for small, big in ((50, 100), (100, 200), (200, 400)):
        allowed = max(8 * times[small], times[small] + 250.0)
        assert times[big] <= allowed, (small, big, times)

    assert len(safety_rows) == 1
    assert float(safety_rows[0][5]) < 1000.0, safety_rows
    _report(7, "scaling smoke", f"disj-mp ms: {[times[n] for n in (50, 100, 200, 400)]}, "
            f"safety ms: {safety_rows[0][5]}")
