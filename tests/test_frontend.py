import dataclasses
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import refs
from conftest import random_objective
from sepgames import (
    ADAM,
    EVE,
    Game,
    Graph,
    MeanPayoff,
    MeanPayoffDisjunction,
    Parity,
    ParityOrMeanPayoff,
    ParseError,
    Safety,
    build_separator,
    cli,
    generate_game,
    parse_game,
    print_game,
)

MINIMAL = """sepgame 1
objective mp 1
vertices 1
vertex 0 E
edge 0 0 0
"""


def _product_route(patch):
    """Have ``build_separator`` drop the cascade parts of parity-mp
    separators, so that their solves take the product route."""
    from sepgames import frontend

    build, bound = frontend._SEPARATORS[ParityOrMeanPayoff]
    strip = (lambda o, n: dataclasses.replace(build(o, n), cascade=None), bound)
    patch.setitem(frontend._SEPARATORS, ParityOrMeanPayoff, strip)


def _run_cli(args, entry=cli):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(args)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_minimal():
    game = parse_game(MINIMAL)
    assert game.vertex_count == 1
    assert game.objective == MeanPayoff(1)
    assert game.graph.edges == ((0, 0, 0),)
    assert game.owner == (EVE,)


def test_parse_pair_color_arity():
    text = "sepgame 1 objective parity-mp 4 10 vertices 1 vertex 0 A edge 0 0 2 -7"
    game = parse_game(text)
    assert game.graph.edges == ((0, (2, -7), 0),)


def test_parse_comments_and_whitespace():
    text = "sepgame 1  # header\n objective   mp 1\nvertices 1\nvertex 0 E # Eve\nedge 0 0 0\n"
    assert parse_game(text) == parse_game(MINIMAL)


def test_priority_out_of_bounds_is_positioned():
    text = "sepgame 1\nobjective parity 4\nvertices 1\nvertex 0 E\nedge 0 0 5\n"
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert "priority 5 exceeds d=4" in str(exc.value)
    assert exc.value.line == 5 and exc.value.column == 10


def test_duplicate_edge_rejected():
    text = MINIMAL + "edge 0 0 0\n"
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert "duplicate" in str(exc.value)


def test_id_out_of_range():
    text = "sepgame 1\nobjective mp 1\nvertices 1\nvertex 0 E\nedge 0 3 0\n"
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert "out of range" in str(exc.value)


def test_wrong_arity_reported():
    text = "sepgame 1\nobjective parity-mp 2 2\nvertices 1\nvertex 0 E\nedge 0 0 1\nedge 0 0 1 1\n"
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert "component" in str(exc.value)


def test_bad_token_reported():
    with pytest.raises(ParseError):
        parse_game("sepgame 2\n")
    with pytest.raises(ParseError):
        parse_game("sepgame 1\nobjective tetris\n")
    with pytest.raises(ParseError):
        parse_game("sepgame 1\nobjective mp 1\nvertices one\n")


def test_vertices_must_be_declared_in_order():
    text = "sepgame 1\nobjective mp 1\nvertices 2\nvertex 1 E\nvertex 0 E\n"
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert "in order" in str(exc.value)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_print_parse_roundtrip_across_objectives():
    rng = random.Random(19)
    for kind in ("parity", "mp", "parity-mp", "disj-mp"):
        for _ in range(30):
            obj = random_objective(rng, kind)
            game = generate_game(rng.randint(1, 7), 0, 3, obj, seed=rng.randrange(10**9))
            text = print_game(game)
            reparsed = parse_game(text)
            assert reparsed == game
            assert print_game(reparsed) == text  # canonical form is stable


def test_safety_games_roundtrip():
    game = Game(Graph(2, [(0, None, 1), (1, None, 1)]), (EVE, ADAM), Safety())
    assert parse_game(print_game(game)) == game


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generator_is_seed_deterministic():
    a = generate_game(6, 1, 3, ParityOrMeanPayoff(2, 2), seed=42)
    b = generate_game(6, 1, 3, ParityOrMeanPayoff(2, 2), seed=42)
    assert print_game(a) == print_game(b)
    c = generate_game(6, 1, 3, ParityOrMeanPayoff(2, 2), seed=43)
    assert print_game(a) != print_game(c)


def test_generator_output_is_pinned():
    # sha256 of the printed games over seeds 0-9, one objective per class:
    # fixes the order of each objective's random_color draws
    pinned = {
        Safety(): "ac46a5ff940e16c3e5a28f7c9bceb62c68243302b2d03b0e788c662b3f9869eb",
        Parity(3): "b34c99a6bebe61fa26c7494824a584f0d4f9ca94b3f62f2b9470808cd1280508",
        MeanPayoff(2): "25da358c41ec74518daf6c5b1295b96355bcaa04f389f27ec0a61c6d9baa7384",
        ParityOrMeanPayoff(2, 2): "4610dca25c740bd0c86537c6b864727183d98d33980d4297d24c00afbb46d5f8",
        MeanPayoffDisjunction(3, 1): "99a49ac0e1f06eb8be8dce33bf83553c2d6ab3b06021d5ac1d911c21f893d3ac",
    }
    for objective, digest in pinned.items():
        text = "".join(print_game(generate_game(7, 0, 3, objective, seed)) for seed in range(10))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, objective


def test_generator_degrees_in_range():
    game = generate_game(6, 1, 3, MeanPayoff(2), seed=7)
    degrees = [game.graph.out_degree(v) for v in range(6)]
    assert all(1 <= d <= 3 for d in degrees)


def test_generator_emits_fewer_edges_when_no_distinct_ones_remain():
    # one vertex and one priority leave a single distinct edge, (0, 0, 0),
    # although every vertex draws degree 3
    game = generate_game(1, 3, 3, Parity(0), seed=5)
    assert game.graph.edges == ((0, 0, 0),)


def test_generator_ownership_roughly_uniform():
    eve = total = 0
    for seed in range(1000):
        game = generate_game(6, 1, 2, MeanPayoff(1), seed=seed)
        eve += sum(1 for o in game.owner if o is EVE)
        total += 6
    assert abs(eve / total - 0.5) < 0.05


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_solve_minimal(tmp_path):
    f = tmp_path / "min.game"
    f.write_text(MINIMAL)
    code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0"])
    assert code == 0 and out.strip() == "WIN"
    code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--algo", "oracle"])
    assert code == 0 and out.strip() == "WIN"


def test_cli_parser_is_reused_after_a_failed_parse(tmp_path):
    # the parser is built once per process: an argument error leaves
    # nothing behind for the next call
    from sepgames import frontend

    f = tmp_path / "min.game"
    f.write_text(MINIMAL.replace("edge 0 0 0", "edge 0 0 -1"))
    assert frontend._build_parser() is frontend._build_parser()
    for bad in (["solve", "--input", str(f)], ["solve", "--from", "x"], ["frobnicate"]):
        code, out, err = _run_cli(bad)
        assert code == 2 and out == "" and "usage:" in err
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0"])
        assert code == 0 and out.strip() == "LOSE"
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--region", "--stats"])
        assert code == 0 and out.splitlines()[:3] == ["LOSE", "region: ", "path: lifts"]


def test_cli_solve_region_and_stats(tmp_path, monkeypatch):
    # parity-mp is solved as a cascade and sized by its key product; without
    # its cascade parts it takes the product route, sized by the product
    f = tmp_path / "g.game"
    game = generate_game(5, 1, 2, ParityOrMeanPayoff(3, 2), seed=3)
    f.write_text(print_game(game))
    argv = ["solve", "--input", str(f), "--from", "0", "--region", "--stats"]
    code, out, _ = _run_cli(argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] in ("WIN", "LOSE")
    assert lines[1].startswith("region:")
    assert "path: cascade" in lines
    keys = [line.split(":")[0] for line in lines[2:]]
    assert keys == ["path", "automaton_states", "key_states", "key_product_states", "vertex_lifts", "cycle_jumps"]
    with monkeypatch.context() as patch:
        _product_route(patch)
        code, product_out, _ = _run_cli(argv)
    assert code == 0
    product_lines = product_out.splitlines()
    assert product_lines[:2] == lines[:2]
    assert "path: product" in product_lines
    assert any(line.startswith("product_states:") for line in product_lines)
    assert any(line.startswith("attracted:") for line in product_lines)
    assert not any(line.startswith("product_edges:") for line in product_lines)


def test_cli_stats_describe_the_solve_asked_for(tmp_path):
    # --stats alone reports the solve from --from, with --region the solve
    # from every vertex
    from sepgames.automaton import _solve_roots

    cases = ((Parity(6), 200, "vertex_lifts"), (ParityOrMeanPayoff(3, 2), 6, "key_product_states"))
    for objective, n, measure in cases:
        game = generate_game(n, 1, 2, objective, seed=3)
        f = tmp_path / "g.game"
        f.write_text(print_game(game))
        aut = build_separator(objective, n)
        single = _solve_roots(game, aut, [0])[1][measure]
        every = _solve_roots(game, aut, list(range(n)))[1][measure]
        assert single != every
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--stats"])
        assert code == 0 and f"{measure}: {single}" in out.splitlines()
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--region", "--stats"])
        assert code == 0 and f"{measure}: {every}" in out.splitlines()


def test_cli_stats_name_the_lifts_path(tmp_path):
    f = tmp_path / "g.game"
    f.write_text(print_game(generate_game(60, 1, 3, Parity(8), seed=5)))
    code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--stats"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] in ("WIN", "LOSE")
    assert "path: lifts" in lines and "automaton_states: 2393" in lines
    assert any(line.startswith("vertex_lifts: ") for line in lines)
    assert not any(line.startswith("product_") for line in lines)


def test_cli_algo_agreement(tmp_path):
    rng = random.Random(8)
    for kind in ("parity", "mp", "parity-mp", "disj-mp"):
        for _ in range(5):
            game = generate_game(rng.randint(1, 5), 0, 3, random_objective(rng, kind), seed=rng.randrange(10**9))
            f = tmp_path / "g.game"
            f.write_text(print_game(game))
            _, sep_out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--region"])
            _, orc_out, _ = _run_cli(
                ["solve", "--input", str(f), "--from", "0", "--region", "--algo", "oracle"]
            )
            assert sep_out.splitlines()[:2] == orc_out.splitlines()[:2]


def test_cli_solve_safety_objective(tmp_path):
    f = tmp_path / "safe.game"
    f.write_text(
        "sepgame 1\nobjective safety\nvertices 3\n"
        "vertex 0 A\nvertex 1 E\nvertex 2 E\nedge 0 1\nedge 1 1\n"
    )
    for algo in ("separating", "oracle"):
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--region", "--algo", algo])
        assert code == 0
        assert out.splitlines() == ["WIN", "region: 0 1"]


def test_cli_check_ok_and_parse_error(tmp_path):
    good = tmp_path / "good.game"
    good.write_text(MINIMAL)
    code, out, _ = _run_cli(["check", "--input", str(good)])
    assert code == 0 and out.startswith("ok:")

    bad = tmp_path / "bad.game"
    bad.write_text("sepgame 1\nobjective parity 4\nvertices 1\nvertex 0 E\nedge 0 0 5\n")
    code, _, err = _run_cli(["check", "--input", str(bad)])
    assert code == 2
    assert "line 5" in err and "column 10" in err


def test_cli_invariant_violation_exit_code(tmp_path):
    f = tmp_path / "min.game"
    f.write_text(MINIMAL)
    code, _, err = _run_cli(["solve", "--input", str(f), "--from", "5"])
    assert code == 3 and "out of range" in err
    code, _, err = _run_cli(["generate", "--vertices", "3", "--objective", "parity-mp", "--d", "2"])
    assert code == 3 and "--d and --N are required for parity-mp" in err


def test_cli_guard_exit_code(tmp_path):
    # oracle on a game with a huge strategy space
    game = generate_game(25, 3, 3, MeanPayoff(1), seed=1)
    f = tmp_path / "big.game"
    f.write_text(print_game(game))
    code, _, err = _run_cli(["solve", "--input", str(f), "--from", "0", "--algo", "oracle"])
    assert code == 4 and "strategy space" in err


def test_cli_out_of_memory_exit_code(tmp_path, monkeypatch):
    from sepgames import automaton

    def exhausted(*args, **kwargs):
        raise MemoryError

    # parity-mp takes the cascade (the product route without its cascade
    # parts), disj-mp the lifts; a route that is not reached would let the
    # solve print its verdict
    routes = (
        (ParityOrMeanPayoff(3, 2), "_solve_cascade", False),
        (ParityOrMeanPayoff(3, 2), "_solve_product", True),
        (MeanPayoffDisjunction(2, 2), "_solve_lifts", False),
    )
    for objective, route, product in routes:
        game = generate_game(12, 1, 3, objective, seed=4)
        f = tmp_path / "big.game"
        f.write_text(print_game(game))
        with monkeypatch.context() as patch:
            if product:
                _product_route(patch)
            patch.setattr(automaton, route, exhausted)
            for extra in ([], ["--region"]):
                code, out, err = _run_cli(["solve", "--input", str(f), "--from", "0"] + extra)
                assert code == 4 and out == ""
                assert err.startswith("error:") and len(err.splitlines()) == 1


def test_module_entry_points_solve(tmp_path):
    import sepgames

    f = tmp_path / "min.game"
    f.write_text(MINIMAL)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepgames.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for module in ("sepgames", "sepgames.frontend"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "solve", "--input", str(f), "--from", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "WIN", (module, proc.stderr)
        assert proc.stderr == "", (module, proc.stderr)


def test_cli_automaton_stats_and_dot():
    code, out, _ = _run_cli(
        ["automaton", "--objective", "disj-mp", "--n", "4", "--d", "2", "--N", "1", "--emit", "stats"]
    )
    assert code == 0
    assert "states: 16" in out and "bound: 16" in out

    code, out, _ = _run_cli(
        ["automaton", "--objective", "parity", "--n", "3", "--d", "2", "--emit", "dot"]
    )
    assert code == 0 and out.startswith("digraph") and "doublecircle" in out

    code, out, _ = _run_cli(["automaton", "--objective", "mp", "--n", "4", "--N", "2"])
    assert code == 0 and out.splitlines() == ["states: 7", "alphabet_size: 5", "bound: 7"]

    # a 0-priority tree is a single leaf, whatever n
    for n in ("1", "4"):
        code, out, _ = _run_cli(["automaton", "--objective", "parity", "--n", n, "--d", "0"])
        assert code == 0 and out.splitlines() == ["states: 1", "alphabet_size: 1", "bound: 1"]

    # no closed-form bound is stated for parity with odd d
    code, out, _ = _run_cli(["automaton", "--objective", "parity", "--n", "3", "--d", "3"])
    assert code == 0 and "states:" in out and "bound:" not in out

    code, out, _ = _run_cli(
        ["automaton", "--objective", "parity-mp", "--n", "2", "--d", "2", "--N", "1", "--emit", "stats"]
    )
    assert code == 0
    # (d+1) * |parity states| * |counter states| = 3 * 2 * 2
    assert "states: 12" in out and "bound: 12" in out

    # no automaton is sized for fewer than one vertex; rejected before any output
    for argv in (
        ["--objective", "mp", "--n", "0", "--N", "2"],
        ["--objective", "mp", "--n", "-5", "--N", "2"],
        ["--objective", "parity", "--n", "0", "--d", "4"],
        ["--objective", "disj-mp", "--n", "0", "--d", "2", "--N", "1"],
        ["--objective", "parity-mp", "--n", "0", "--d", "2", "--N", "1"],
        ["--objective", "parity", "--n", "0", "--d", "2", "--emit", "dot"],
    ):
        code, out, err = _run_cli(["automaton"] + argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_solves_games_with_trees_taller_than_the_recursion_limit(tmp_path):
    # the parity separator's tree has height ceil(d/2): 500 and 2501 here
    games = {
        "tall-2.txt": "objective parity 1000\nvertices 2\nvertex 0 E\nvertex 1 A\n"
        "edge 0 1 999\nedge 1 0 1000\n",
        "tall-3.txt": "objective parity 5001\nvertices 3\nvertex 0 E\nvertex 1 A\nvertex 2 E\n"
        "edge 0 1 5001\nedge 0 0 5000\nedge 1 0 4999\nedge 1 2 3\nedge 2 2 5001\n",
    }
    for name, body in games.items():
        f = tmp_path / name
        f.write_text("sepgame 1\n" + body)
        code, out, err = _run_cli(["solve", "--input", str(f), "--from", "0", "--region"])
        region = refs.zielonka_region(parse_game(f.read_text()))
        assert code == 0 and err == "", (name, err)
        assert out.splitlines() == ["WIN" if 0 in region else "LOSE", "region: " + " ".join(map(str, sorted(region)))]


def test_cli_automaton_stats_with_trees_taller_than_the_recursion_limit():
    code, out, err = _run_cli(["automaton", "--objective", "parity", "--n", "10", "--d", "5000", "--emit", "stats"])
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == ["states: 7834387501", "alphabet_size: 5001"]
    code, out, err = _run_cli(
        ["automaton", "--objective", "parity-mp", "--n", "10", "--d", "5000", "--N", "2", "--emit", "stats"]
    )
    # (d+1) * |parity states| * |counter states| = 5001 * 7834387501 * 19
    assert code == 0 and err == "" and out.splitlines()[0] == f"states: {5001 * 7834387501 * 19}"


def test_cli_generate_writes_parseable_output(tmp_path):
    out_file = tmp_path / "gen.game"
    code, _, _ = _run_cli(
        [
            "generate", "--vertices", "5", "--objective", "disj-mp", "--d", "2",
            "--N", "1", "--seed", "11", "--output", str(out_file),
        ]
    )
    assert code == 0
    game = parse_game(out_file.read_text())
    assert game.vertex_count == 5
    assert game.objective == MeanPayoffDisjunction(2, 1)

    code, _, _ = _run_cli(
        ["generate", "--vertices", "3", "--objective", "safety", "--output", str(out_file)]
    )
    assert code == 0
    game = parse_game(out_file.read_text())
    assert game.objective == Safety() and all(c is None for _, c, _ in game.graph.edges)


def test_cli_bench_small_emits_table():
    code, out, _ = _run_cli(["bench", "--suite", "small"])
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines[0].split("\t") == ["n", "d", "N", "states", "path", "ms"]
    assert len(lines) == 5
    for row in lines[1:]:
        assert len(row.split("\t")) == 6
    assert [row.split("\t")[4] for row in lines[1:]] == ["lifts", "lifts", "cascade", "lifts"]


def test_benchmark_tracer_installs_and_undoes(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps these attributes by name; a rename or a
    # removal would break the traced benchmark run
    from sepgames import automaton, core, frontend, safety

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = [
        (frontend, "cli"),
        (frontend, "parse_game"),
        (frontend, "build_separator"),
        (frontend, "separating_winning_region"),
        (frontend, "solve_via_separating"),
        (automaton, "accepts_all_paths"),
        (automaton, "solve_safety"),
        (automaton, "_attract"),
        (safety, "_attract"),
        (core.Graph, "__init__"),
    ]
    originals = [getattr(owner, attr) for owner, attr in patched]
    f = tmp_path / "min.game"
    f.write_text(MINIMAL)
    # parity-mp is solved as a cascade, and by the product route without
    # its cascade parts; the tracer's separator keeps the parts
    pmp = tmp_path / "pmp.game"
    pmp.write_text(print_game(generate_game(6, 1, 3, ParityOrMeanPayoff(3, 2), seed=4)))
    solve_pmp = ["solve", "--input", str(pmp), "--from", "0", "--stats"]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert all(getattr(o, a) is not orig for (o, a), orig in zip(patched, originals))
        # through the traced ``frontend.cli``, as the benchmark calls it: the
        # product route's traced ``delta`` calls then fall in its span
        code, out, _ = _run_cli(["solve", "--input", str(f), "--from", "0", "--region"], frontend.cli)
        cascade_code, cascade_out, _ = _run_cli(solve_pmp, frontend.cli)
        with monkeypatch.context() as patch:
            _product_route(patch)
            product_code, product_out, _ = _run_cli(solve_pmp, frontend.cli)
        # through the module attributes, as the benchmark's check calls them
        separator = frontend.build_separator(MeanPayoff(1), 2)
        checked = automaton.accepts_all_paths(separator, Graph(2, [(0, 1, 1), (1, -1, 0)]))
    finally:
        undo()
    assert code == 0 and out.splitlines()[0] == "WIN"
    assert cascade_code == 0 and "path: cascade" in cascade_out.splitlines()
    assert product_code == 0 and "path: product" in product_out.splitlines()
    assert cascade_out.splitlines()[0] == product_out.splitlines()[0]
    names = {rec[0] for rec in tracer.spans}
    assert {"frontend.parse_game", "frontend.build_separator", "automaton.solve"} <= names
    assert all(getattr(o, a) is orig for (o, a), orig in zip(patched, originals))
    # the check's walk calls the traced ``delta``: a walk over a table would
    # leave the per-layer delta metrics at 0
    checks = [rec for rec in tracer.spans if rec[tracing.NAME] == "automaton.check"]
    assert checked and len(checks) == 1 and checks[0][tracing.LEAF_CALLS] > 0
    # traced, each route prints what it prints untraced
    assert (cascade_code, cascade_out) == _run_cli(solve_pmp)[:2]
    with monkeypatch.context() as patch:
        _product_route(patch)
        assert (product_code, product_out) == _run_cli(solve_pmp)[:2]


def test_cli_usage_error_exit_code():
    code, _, _ = _run_cli(["solve"])  # missing required flags
    assert code == 2
