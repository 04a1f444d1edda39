"""Seeded benchmark inputs: games in the ``sepgame 1`` text format and
edge lists for separation checks.

The library's own ``generate_game`` is deliberately not used, so that a
change to it never changes what the benchmark measures.  Every vertex here
gets exactly the out-degree drawn, with distinct targets.
"""

from __future__ import annotations

import random


def color(rng: random.Random, kw: str, params: tuple, bias: bool = False):
    """A uniform color for the objective, in the library's form: an int for
    parity and mp, a tuple for parity-mp and disj-mp.  ``bias`` tilts the
    draw toward colors that satisfy the objective, as the separation sweeps
    of the acceptance suite do."""
    if kw == "parity":
        p = rng.randint(0, params[0])
        if bias and p % 2 and rng.random() < 0.6:
            p -= 1
        return p
    if kw == "mp":
        w = rng.randint(-params[0], params[0])
        if bias and w < 0 and rng.random() < 0.6:
            w = -w
        return w
    if kw == "parity-mp":
        p = rng.randint(0, params[0])
        w = rng.randint(-params[1], params[1])
        if bias and p % 2 and w < 0 and rng.random() < 0.7:
            w = -w
        return (p, w)
    if kw == "disj-mp":
        dims, bound = params
        vec = [rng.randint(-bound, bound) for _ in range(dims)]
        if bias and rng.random() < 0.4:
            vec[rng.randrange(dims)] = abs(vec[rng.randrange(dims)])
        return tuple(vec)
    raise ValueError(f"unknown objective {kw!r}")


def edges(rng: random.Random, n: int, degrees: tuple, kw: str, params: tuple, bias: bool = False):
    """Edge triples ``(u, color, v)``: each vertex draws an out-degree in
    ``degrees`` (inclusive) and that many distinct targets."""
    out = []
    for u in range(n):
        for v in rng.sample(range(n), rng.randint(*degrees)):
            out.append((u, color(rng, kw, params, bias), v))
    return out


def _color_text(c) -> str:
    return " ".join(str(x) for x in c) if isinstance(c, tuple) else str(c)


def game_text(rng: random.Random, n: int, degrees: tuple, kw: str, params: tuple) -> str:
    """A random game with uniform ownership, as ``sepgame 1`` text."""
    lines = ["sepgame 1", f"objective {kw} " + " ".join(str(p) for p in params), f"vertices {n}"]
    lines += [f"vertex {v} {'E' if rng.random() < 0.5 else 'A'}" for v in range(n)]
    lines += [f"edge {u} {v} {_color_text(c)}" for u, c, v in edges(rng, n, degrees, kw, params)]
    return "\n".join(lines) + "\n"
