"""Text format, parser, random game generator, CLI, and benchmark harness.

The game format is token-based (whitespace separates, ``#`` comments run to
end of line) with a canonical line layout::

    sepgame 1
    objective mp 1          # safety | parity d | mp N | parity-mp d N | disj-mp d N
    vertices 2
    vertex 0 E
    vertex 1 A
    edge 0 1 -1             # color arity: 0 / 1 / 1 / 2 / d respectively

Exit codes: 0 success, 2 parse error, 3 invariant violation, 4 oracle guard
exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .automaton import (
    SafetyAutomaton,
    _solve_roots,
    automaton_dot,
    separating_winning_region,
    solve_via_separating,
)
from .combos import (
    disjmp_separator,
    disjmp_state_count,
    parity_mp_separator,
    universal_sequence_constant,
)
from .core import (
    ADAM,
    EVE,
    OBJECTIVES,
    AlphabetMismatchError,
    Color,
    Game,
    Graph,
    GuardExceededError,
    InvalidGameError,
    MeanPayoff,
    MeanPayoffDisjunction,
    Objective,
    Parity,
    ParityOrMeanPayoff,
    Safety,
    SepgamesError,
)
from .oracle import eve_winning_region_bruteforce
from .safety import solve_safety
from .separators import mp_separator, parity_separator, parity_state_bound

__all__ = [
    "ParseError",
    "parse_game",
    "print_game",
    "generate_game",
    "build_separator",
    "cli",
    "main",
]

FORMAT_HEADER = "sepgame"
FORMAT_VERSION = "1"


class ParseError(SepgamesError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str) -> None:
        self.items: list = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            col = 1
            for piece in line.split():
                col = line.index(piece, col - 1) + 1
                self.items.append((piece, ln, col))
                col += len(piece)
        self.pos = 0
        last_line = text.count("\n") + 1
        self.eof = ("<end of input>", last_line, 1)

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else self.eof

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def next(self, what: str):
        if self.done():
            tok, ln, col = self.eof
            raise ParseError(f"expected {what}, got end of input", ln, col)
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok, ln, col = self.next(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, got {tok!r}", ln, col)

    def integer(self, what: str) -> tuple:
        tok, ln, col = self.next(what)
        try:
            return int(tok), ln, col
        except ValueError:
            raise ParseError(f"expected {what} (an integer), got {tok!r}", ln, col) from None


def objective_keyword(objective: Objective) -> str:
    return " ".join([objective.keyword, *map(str, dataclasses.astuple(objective))])


def parse_game(text: str) -> Game:
    """Parse the game format, reporting positioned diagnostics for malformed
    tokens, out-of-range ids, out-of-bounds colors, wrong color arity and
    duplicate edges."""
    toks = _Tokens(text)
    toks.expect(FORMAT_HEADER)
    toks.expect(FORMAT_VERSION)

    toks.expect("objective")
    kw, ln, col = toks.next("an objective keyword")
    if kw not in OBJECTIVES:
        raise ParseError(
            f"unknown objective {kw!r} (one of {', '.join(sorted(OBJECTIVES))})", ln, col
        )
    kind = OBJECTIVES[kw]
    params = [
        toks.integer(f"objective parameter {i + 1}")[0] for i in range(len(dataclasses.fields(kind)))
    ]
    try:
        objective = kind(*params)
    except InvalidGameError as exc:
        raise ParseError(str(exc), ln, col) from None

    toks.expect("vertices")
    n, ln, col = toks.integer("the vertex count")
    if n < 0:
        raise ParseError(f"vertex count must be >= 0, got {n}", ln, col)

    owners = []
    for i in range(n):
        toks.expect("vertex")
        vid, ln, col = toks.integer("a vertex id")
        if vid != i:
            raise ParseError(f"vertex ids must be declared in order: expected {i}, got {vid}", ln, col)
        tok, ln, col = toks.next("an owner (E or A)")
        if tok not in ("E", "A"):
            raise ParseError(f"owner must be E or A, got {tok!r}", ln, col)
        owners.append(EVE if tok == "E" else ADAM)

    arity = objective.color_arity
    edges = []
    seen = set()
    # each distinct color's error, checked once: the colors are plain ints
    errors: dict = {}
    while not toks.done():
        kw_tok, ln, col = toks.next("'edge'")
        if kw_tok != "edge":
            raise ParseError(f"expected 'edge', got {kw_tok!r}", ln, col)
        src, sl, sc = toks.integer("a source vertex id")
        if not 0 <= src < n:
            raise ParseError(f"source id {src} out of range [0, {n})", sl, sc)
        dst, dl, dc = toks.integer("a target vertex id")
        if not 0 <= dst < n:
            raise ParseError(f"target id {dst} out of range [0, {n})", dl, dc)
        components = []
        for i in range(arity):
            nxt, el, ec = toks.peek()
            if nxt == "edge" or toks.done():
                raise ParseError(
                    f"edge color needs {arity} component(s) for objective '{kw}', got {i}", el, ec
                )
            w, wl, wc = toks.integer(f"color component {i + 1}")
            components.append((w, wl, wc))
        color: Color
        if arity == 0:
            color = None
        elif isinstance(objective, (Parity, MeanPayoff)):
            color = components[0][0]
        else:
            color = tuple(w for (w, _, _) in components)
        if color not in errors:
            errors[color] = objective.color_error(color)
        err = errors[color]
        if err:
            _, el, ec = components[0] if components else (None, ln, col)
            raise ParseError(err, el, ec)
        triple = (src, color, dst)
        if triple in seen:
            raise ParseError(f"duplicate edge {src} -> {dst} with color {color!r}", ln, col)
        seen.add(triple)
        edges.append(triple)

    return Game(graph=Graph(n, tuple(edges)), owner=tuple(owners), objective=objective)


def print_game(game: Game) -> str:
    """Canonical serialization; parsing it back yields an equal game."""
    lines = [f"{FORMAT_HEADER} {FORMAT_VERSION}", f"objective {objective_keyword(game.objective)}"]
    lines.append(f"vertices {game.vertex_count}")
    for v in range(game.vertex_count):
        lines.append(f"vertex {v} {game.owner[v].value}")
    for u, c, v in game.graph.edges:
        if c is None:
            lines.append(f"edge {u} {v}")
        elif isinstance(c, tuple):
            lines.append(f"edge {u} {v} " + " ".join(str(x) for x in c))
        else:
            lines.append(f"edge {u} {v} {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random games
# ---------------------------------------------------------------------------


def generate_game(
    vertices: int,
    min_degree: int,
    max_degree: int,
    objective: Objective,
    seed: int,
) -> Game:
    """Seed-deterministic random game: ownership is uniform, each vertex draws
    an out-degree in the given range (0 allowed, producing sinks), targets and
    colors are uniform within the objective's bounds.

    Edges of one vertex are distinct, and drawing stops after
    64 * (degree + 1) attempts, so a vertex gets fewer edges than its drawn
    degree when there are fewer distinct (color, target) pairs, or when the
    draws keep repeating: ``generate_game(1, 3, 3, Parity(0), seed)`` has a
    single edge.  Nothing reports the shortfall."""
    if vertices < 1:
        raise InvalidGameError("need at least one vertex")
    if not 0 <= min_degree <= max_degree:
        raise InvalidGameError("need 0 <= min_degree <= max_degree")
    rng = random.Random(seed)
    owners = tuple(EVE if rng.random() < 0.5 else ADAM for _ in range(vertices))
    edges = []
    for v in range(vertices):
        degree = rng.randint(min_degree, max_degree)
        chosen = set()
        attempts = 0
        while len(chosen) < degree and attempts < 64 * (degree + 1):
            attempts += 1
            candidate = (v, objective.random_color(rng), rng.randrange(vertices))
            if candidate not in chosen:
                chosen.add(candidate)
                edges.append(candidate)
    return Game(graph=Graph(vertices, tuple(edges)), owner=owners, objective=objective)


# ---------------------------------------------------------------------------
# Separator selection
# ---------------------------------------------------------------------------


# objective class -> (separator builder, closed-form bound on its state count
# or None where none is stated), both called as f(objective, n)
_SEPARATORS = {
    Parity: (
        lambda o, n: parity_separator(n, o.max_priority),
        lambda o, n: None if o.max_priority % 2 else parity_state_bound(n, o.max_priority),
    ),
    MeanPayoff: (
        lambda o, n: mp_separator(n, o.weight_bound),
        lambda o, n: (n - 1) * o.weight_bound + 1,
    ),
    ParityOrMeanPayoff: (
        lambda o, n: parity_mp_separator(
            parity_separator(n, o.max_priority), mp_separator(n, o.weight_bound)
        ),
        lambda o, n: (o.max_priority + 1)
        * parity_separator(n, o.max_priority).state_count
        * mp_separator(n, o.weight_bound).state_count,
    ),
    MeanPayoffDisjunction: (
        lambda o, n: disjmp_separator(n, o.dimensions, o.weight_bound),
        lambda o, n: disjmp_state_count(n, o.dimensions, o.weight_bound),
    ),
}


def build_separator(objective: Objective, n: int) -> SafetyAutomaton:
    """The separating automaton matching an objective, sized for games with
    at most ``n`` vertices."""
    if type(objective) not in _SEPARATORS:
        raise InvalidGameError(f"no separating automaton for objective {objective!r}")
    return _SEPARATORS[type(objective)][0](objective, max(n, 1))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_game(path: str) -> Game:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidGameError(f"cannot read {path}: {exc}") from None
    return parse_game(text)


def _cmd_solve(args) -> int:
    game = _load_game(args.input)
    v0 = args.start
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range [0, {game.vertex_count})")
    stats: dict = {}
    if isinstance(game.objective, Safety):
        region = solve_safety(game).eve_wins
    elif args.algo == "oracle":
        region = eve_winning_region_bruteforce(game)
    else:
        aut = build_separator(game.objective, game.vertex_count)
        if not (args.region or args.stats):
            print("WIN" if solve_via_separating(game, v0, aut) else "LOSE")
            return 0
        if args.region:
            region, stats = separating_winning_region(game, aut, with_stats=True)
        else:
            # the stats of the solve from v0 alone, not of all roots
            flags, stats = _solve_roots(game, aut, [v0])
            region = {v0} if flags[0] else set()
    print("WIN" if v0 in region else "LOSE")
    if args.region:
        print("region: " + " ".join(str(v) for v in sorted(region)))
    if args.stats:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return 0


def _cmd_automaton(args) -> int:
    if args.n < 1:
        raise InvalidGameError(f"--n must be at least 1, got {args.n}")
    objective = _objective_from_flags(args)
    aut = build_separator(objective, args.n)
    if args.emit == "dot":
        print(automaton_dot(aut), end="")
        return 0
    print(f"states: {aut.state_count}")
    print(f"alphabet_size: {aut.alphabet.alphabet_size}")
    bound = _SEPARATORS[type(objective)][1](objective, args.n)
    if bound is not None:
        print(f"bound: {bound}")
    return 0


# objective parameter -> the CLI flag (``--d`` or ``--N``) that sets it
_FLAGS = {"max_priority": "d", "dimensions": "d", "weight_bound": "N"}


def _objective_from_flags(args) -> Objective:
    kind = OBJECTIVES[args.objective]
    flags = [_FLAGS[f.name] for f in dataclasses.fields(kind)]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        verb = "is" if len(flags) == 1 else "are"
        named = " and ".join(f"--{flag}" for flag in flags)
        raise InvalidGameError(f"{named} {verb} required for {kind.keyword}")
    return kind(*values)


def _cmd_generate(args) -> int:
    objective = _objective_from_flags(args)
    game = generate_game(args.vertices, args.min_degree, args.max_degree, objective, args.seed)
    text = print_game(game)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_check(args) -> int:
    game = _load_game(args.input)
    print(
        f"ok: {game.vertex_count} vertices, {game.graph.edge_count} edges, "
        f"objective {objective_keyword(game.objective)}"
    )
    return 0


def _cmd_bench(args) -> int:
    print(f"# suite: {args.suite}")
    constant = universal_sequence_constant()
    print(f"# disj-mp state bound: states <= c * n * log2(n+1) * d * N with c = {constant:.6f}")
    print("n\td\tN\tstates\tpath\tms")
    # (objective, n, d, N, min and max degree, seed); each row is solved
    # from every vertex, and reports the route its solve took
    if args.suite == "small":
        rows = [
            ("parity", 6, 3, None, (1, 3), 11),
            ("mp", 6, None, 2, (1, 3), 12),
            ("parity-mp", 5, 3, 2, (1, 3), 13),
            ("disj-mp", 5, 2, 2, (1, 3), 14),
        ]
    else:  # scaling: disj-mp growth, then the plain safety solver at scale
        rows = [("disj-mp", n, 2, 2, (4, 4), 1000 + n) for n in (50, 100, 200, 400)]
    for kind, n, d, N, degrees, seed in rows:
        objective = OBJECTIVES[kind](*(x for x in (d, N) if x is not None))
        game = generate_game(n, *degrees, objective, seed)
        aut = build_separator(objective, n)
        t0 = time.perf_counter()
        _, stats = separating_winning_region(game, aut, with_stats=True)
        ms = (time.perf_counter() - t0) * 1000
        print(_bench_line(n, d, N, aut.state_count, stats["path"], ms))
    if args.suite == "scaling":
        n = 100_000
        game = generate_game(n, 5, 5, Safety(), seed=99)
        t0 = time.perf_counter()
        solve_safety(game)
        ms = (time.perf_counter() - t0) * 1000
        print(_bench_line(n, None, None, None, None, ms))
    return 0


def _bench_line(n, d, N, states, path, ms) -> str:
    def cell(x):
        return "-" if x is None else str(x)

    return "\t".join([cell(n), cell(d), cell(N), cell(states), cell(path), f"{ms:.1f}"])


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: every parse makes a fresh
    namespace, so it can be reused."""
    parser = argparse.ArgumentParser(
        prog="sepgames",
        description="Solve parity / mean-payoff style games via separating automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game from a given start vertex")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--algo", choices=["separating", "oracle"], default="separating")
    p.add_argument("--region", action="store_true", help="also print Eve's full winning region")
    p.add_argument("--stats", action="store_true", help="print the route taken and its sizes")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("automaton", help="emit a separating automaton")
    p.add_argument("--objective", required=True, choices=[kind.keyword for kind in _SEPARATORS])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--emit", choices=["dot", "stats"], default="stats")
    p.set_defaults(func=_cmd_automaton)

    p = sub.add_parser("generate", help="generate a seeded random game")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--objective", required=True, choices=list(OBJECTIVES))
    p.add_argument("--d", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="validate a game file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bench", help="run the benchmark table")
    p.add_argument("--suite", choices=["small", "scaling"], default="small")
    p.set_defaults(func=_cmd_bench)
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory (instance too large)", file=sys.stderr)
        return 4
    except (InvalidGameError, AlphabetMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
