"""Shared substrate: colored graphs, arenas, games, paths and strategies,
plus the cycle-structure queries everything else is built on (strongly
connected components, negative cycles, odd-dominated cycles).

Colors come in five flavors, one per objective:

  * ``None``                    -- safety (colors are irrelevant)
  * ``int`` in ``[0, d]``       -- parity priority
  * ``int`` in ``[-N, N]``      -- mean-payoff weight
  * ``(priority, weight)``      -- disjunction of parity and mean payoff
  * ``(w_1, ..., w_d)``         -- disjunction of d mean-payoff components

A graph never knows which flavor it holds beyond its shape; the objective
descriptor attached to a :class:`Game` carries the bounds.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator, Mapping, Optional, Union

import numpy as np

__all__ = [
    "SepgamesError",
    "InvalidGameError",
    "AlphabetMismatchError",
    "GuardExceededError",
    "Color",
    "Edge",
    "Player",
    "EVE",
    "ADAM",
    "Safety",
    "Parity",
    "MeanPayoff",
    "ParityOrMeanPayoff",
    "MeanPayoffDisjunction",
    "Objective",
    "OBJECTIVES",
    "Graph",
    "Game",
    "Path",
    "Lasso",
    "PositionalStrategy",
    "StrategyRestriction",
    "scc_decompose",
    "restrict_to_strategy",
    "find_negative_cycle",
    "graph_satisfies_mp",
    "graph_satisfies_parity",
]


class SepgamesError(Exception):
    """Base class for all library errors."""


class InvalidGameError(SepgamesError):
    """A graph, game, automaton or strategy violates a construction invariant."""


class AlphabetMismatchError(SepgamesError):
    """A color was fed to an automaton whose alphabet does not contain it."""


class GuardExceededError(SepgamesError):
    """An exhaustive oracle was asked to search a space beyond its hard guard."""


Color = Union[None, int, tuple]
Edge = tuple  # (source vertex, color, target vertex)


class Player(enum.Enum):
    EVE = "E"
    ADAM = "A"

    def __repr__(self) -> str:  # keeps game dumps short
        return self.value


EVE = Player.EVE
ADAM = Player.ADAM


# ---------------------------------------------------------------------------
# Objective descriptors
#
# An objective's parameters are its dataclass fields, in order; ``keyword``
# names it in the game format and on the command line.  Its colors are
# described once, by ``components``: one ``(kind, bound)`` per component, in
# order, a "priority" in [0, bound] or a "weight" in [-bound, bound].  The
# base class derives everything else from that description: the checks,
# the enumeration, the random draws (the random game generator's) and the
# conversion between a color and the tuple of its component values.
# ---------------------------------------------------------------------------


def _component_error(kind: str, bound: int, x) -> Optional[str]:
    if not isinstance(x, int) or isinstance(x, bool):
        return f"expected a {kind}, got {x!r}"
    if kind == "priority" and not 0 <= x <= bound:
        return f"priority {x} exceeds d={bound}"
    if kind == "weight" and not -bound <= x <= bound:
        return f"weight {x} outside [-{bound}, {bound}]"
    return None


class Objective:
    """Base of the objective descriptors.  A color is ``None`` when there are
    no components, the bare int when ``scalar`` is set, and otherwise the
    tuple of its components.  ``shape`` words the error for a color of the
    wrong shape, formatted with the objective and the color."""

    keyword: ClassVar[str]
    scalar: ClassVar[bool] = False
    shape: ClassVar[str] = ""

    @property
    def components(self) -> tuple:
        raise NotImplementedError

    @property
    def color_arity(self) -> int:
        return len(self.components)

    def values(self, c: Color) -> tuple:
        """The component values of color ``c``, in order."""
        if self.scalar:
            return (c,)
        return () if c is None else c

    def color(self, values) -> Color:
        """The color whose component values are ``values``."""
        if self.scalar:
            return values[0]
        return tuple(values) if values else None

    def color_error(self, c: Color) -> Optional[str]:
        kinds = self.components
        if self.scalar:
            return _component_error(*kinds[0], c)
        # a tuple of one value per component, or None when there are none
        if not (isinstance(c, tuple) and len(c) == len(kinds) if kinds else c is None):
            return self.shape.format(self, c)
        for (kind, bound), x in zip(kinds, c or ()):
            err = _component_error(kind, bound, x)
            if err:
                return err
        return None

    def _ranges(self) -> list:
        """Each component's values, in order."""
        return [range(0 if kind == "priority" else -bound, bound + 1) for kind, bound in self.components]

    def colors(self) -> Iterator[Color]:
        ranges = self._ranges()
        if self.scalar:
            return iter(ranges[0])
        return itertools.product(*ranges) if ranges else iter([None])

    def random_color(self, rng: random.Random) -> Color:
        return self.color([rng.randint(r[0], r[-1]) for r in self._ranges()])

    @property
    def alphabet_size(self) -> int:
        return math.prod(map(len, self._ranges()))


@dataclass(frozen=True)
class Safety(Objective):
    """All infinite plays are fine; only Eve-controlled dead ends lose."""

    keyword: ClassVar[str] = "safety"
    shape: ClassVar[str] = "safety edges carry no color, got {1!r}"
    components: ClassVar[tuple] = ()


@dataclass(frozen=True)
class Parity(Objective):
    """Largest priority seen infinitely often must be even (max convention)."""

    keyword: ClassVar[str] = "parity"
    scalar: ClassVar[bool] = True
    max_priority: int

    def __post_init__(self) -> None:
        if self.max_priority < 0:
            raise InvalidGameError("max_priority must be >= 0")

    @property
    def components(self) -> tuple:
        return (("priority", self.max_priority),)


@dataclass(frozen=True)
class MeanPayoff(Objective):
    """liminf of the average weight must be >= 0; weights in [-N, N]."""

    keyword: ClassVar[str] = "mp"
    scalar: ClassVar[bool] = True
    weight_bound: int

    def __post_init__(self) -> None:
        if self.weight_bound < 0:
            raise InvalidGameError("weight_bound must be >= 0")

    @property
    def components(self) -> tuple:
        return (("weight", self.weight_bound),)


@dataclass(frozen=True)
class ParityOrMeanPayoff(Objective):
    """A play wins if its priorities satisfy parity OR its weights satisfy
    mean payoff; colors are (priority, weight) pairs."""

    keyword: ClassVar[str] = "parity-mp"
    shape: ClassVar[str] = "expected a (priority, weight) pair, got {1!r}"
    max_priority: int
    weight_bound: int

    def __post_init__(self) -> None:
        if self.max_priority < 0 or self.weight_bound < 0:
            raise InvalidGameError("bounds must be >= 0")

    @property
    def components(self) -> tuple:
        return (("priority", self.max_priority), ("weight", self.weight_bound))


@dataclass(frozen=True)
class MeanPayoffDisjunction(Objective):
    """A play wins if at least one of the d weight components satisfies mean
    payoff; colors are d-vectors of weights."""

    keyword: ClassVar[str] = "disj-mp"
    shape: ClassVar[str] = "expected a weight vector of length {0.dimensions}, got {1!r}"
    dimensions: int
    weight_bound: int

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise InvalidGameError("dimensions must be >= 1")
        if self.weight_bound < 0:
            raise InvalidGameError("weight_bound must be >= 0")

    @property
    def components(self) -> tuple:
        return (("weight", self.weight_bound),) * self.dimensions


OBJECTIVES = {
    cls.keyword: cls for cls in (Safety, Parity, MeanPayoff, ParityOrMeanPayoff, MeanPayoffDisjunction)
}


# ---------------------------------------------------------------------------
# Graphs and games
# ---------------------------------------------------------------------------


def _color_shape(c: Color):
    if c is None:
        return "unit"
    if isinstance(c, tuple):
        return ("vec", len(c))
    return "scalar"


def _first_color_error(objective: Objective, colors: list) -> Optional[tuple]:
    """(index, error) of the first of ``colors`` that ``objective`` rejects,
    or ``None``.  Equal ints, or equal tuples of ints, get one verdict, so
    when the colors are all such (or ``None``) each distinct one is checked
    once; a bool, a float or an int subclass can equal an int and still be
    rejected, so colors with any of those are checked one by one."""
    kinds = set(map(type, colors))
    if kinds == {tuple}:
        kinds = set(map(type, itertools.chain.from_iterable(colors)))
    for c in dict.fromkeys(colors) if kinds <= {int, type(None)} else colors:
        err = objective.color_error(c)
        if err:
            # c is the first color equal to it, and the first one rejected
            return next(i for i, x in enumerate(colors) if x is c), err
    return None


@dataclass(frozen=True)
class Graph:
    """Edge-colored directed graph over dense vertex ids ``0..vertex_count-1``.

    Edges form a set: duplicate (source, color, target) triples are rejected;
    parallel edges with distinct colors are allowed.  Immutable after
    construction, so instances can be shared freely.
    """

    vertex_count: int
    edges: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.vertex_count < 0:
            raise InvalidGameError("vertex_count must be >= 0")
        seen = set()
        shape = None
        for e in self.edges:
            if len(e) != 3:
                raise InvalidGameError(f"edge {e!r} is not a (src, color, dst) triple")
            u, c, v = e
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidGameError(f"edge {e!r} has endpoint outside [0, {self.vertex_count})")
            s = _color_shape(c)
            if shape is None:
                shape = s
            elif s != shape:
                raise InvalidGameError(f"edge {e!r} mixes color shapes ({s} vs {shape})")
            if e in seen:
                raise InvalidGameError(f"duplicate edge {e!r}")
            seen.add(e)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def successors(self) -> tuple:
        """Per-vertex tuple of (color, target) pairs, in edge order."""
        out = [[] for _ in range(self.vertex_count)]
        for u, c, v in self.edges:
            out[u].append((c, v))
        return tuple(tuple(x) for x in out)

    @cached_property
    def _src_array(self) -> np.ndarray:
        return np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=len(self.edges))

    @cached_property
    def _dst_array(self) -> np.ndarray:
        return np.fromiter((e[2] for e in self.edges), dtype=np.int64, count=len(self.edges))

    def out_degree(self, v: int) -> int:
        return len(self.successors[v])

    def is_sink(self, v: int) -> bool:
        return not self.successors[v]

    def sinks(self) -> Iterator[int]:
        return (v for v in range(self.vertex_count) if not self.successors[v])

    def weight_array(self, dimension: Optional[int] = None) -> np.ndarray:
        """Scalar weight per edge; `dimension` selects a vector component."""
        if dimension is None:
            vals = [e[1] for e in self.edges]
            if any(not isinstance(w, int) or isinstance(w, bool) for w in vals):
                raise InvalidGameError("edges do not carry scalar weights; pass a dimension")
        else:
            vals = [e[1][dimension] for e in self.edges]
        return np.array(vals, dtype=np.int64)


@dataclass(frozen=True)
class Game:
    """An arena (graph + ownership partition) with an objective descriptor."""

    graph: Graph
    owner: tuple
    objective: Objective

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(self.owner))
        if len(self.owner) != self.graph.vertex_count:
            raise InvalidGameError("owner must be defined for every vertex")
        for o in self.owner:
            if not isinstance(o, Player):
                raise InvalidGameError(f"owner entries must be Player, got {o!r}")
        bad = _first_color_error(self.objective, [e[1] for e in self.graph.edges])
        if bad:
            raise InvalidGameError(f"edge {self.graph.edges[bad[0]]!r}: {bad[1]}")

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def is_eve(self, v: int) -> bool:
        return self.owner[v] is EVE

    def eve_vertices(self) -> Iterator[int]:
        return (v for v in range(self.vertex_count) if self.owner[v] is EVE)


@dataclass(frozen=True)
class Path:
    """Finite path ``v0 c0 v1 c1 ... v_k``; length is the number of edges."""

    vertices: tuple
    colors: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.vertices) != len(self.colors) + 1:
            raise InvalidGameError("a path with k edges has k+1 vertices")
        if not self.vertices:
            raise InvalidGameError("a path has at least one vertex")

    @property
    def length(self) -> int:
        return len(self.colors)

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    @property
    def is_cycle(self) -> bool:
        return self.length >= 1 and self.first == self.last

    def edge_triples(self) -> Iterator[Edge]:
        for i, c in enumerate(self.colors):
            yield (self.vertices[i], c, self.vertices[i + 1])

    def is_path_of(self, graph: Graph) -> bool:
        edge_set = set(graph.edges)
        return all(t in edge_set for t in self.edge_triples())

    def total_weight(self, dimension: Optional[int] = None) -> int:
        if dimension is None:
            return sum(self.colors)
        return sum(c[dimension] for c in self.colors)


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic path: a stem into a nonempty cycle."""

    stem: Path
    cycle: Path

    def __post_init__(self) -> None:
        if not self.cycle.is_cycle:
            raise InvalidGameError("lasso cycle must be a nonempty cycle")
        if self.stem.last != self.cycle.first:
            raise InvalidGameError("lasso stem must end where the cycle starts")


@dataclass(frozen=True)
class PositionalStrategy:
    """Partial map from Eve-owned vertices to a chosen outgoing edge."""

    choices: Mapping[int, Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", dict(self.choices))
        for v, e in self.choices.items():
            if e[0] != v:
                raise InvalidGameError(f"choice for {v} is an edge out of {e[0]}")

    def validate(self, game: Game) -> None:
        edge_set = set(game.graph.edges)
        for v, e in self.choices.items():
            if not game.is_eve(v):
                raise InvalidGameError(f"strategy chooses at Adam vertex {v}")
            if tuple(e) not in edge_set:
                raise InvalidGameError(f"choice {e!r} is not a game edge")


# ---------------------------------------------------------------------------
# Strongly connected components
# ---------------------------------------------------------------------------

_SCIPY_SCC_THRESHOLD = 256


def _scc_labels(vertex_count: int, srcs, dsts) -> tuple[int, np.ndarray]:
    """Component label per vertex (no particular label order)."""
    if vertex_count == 0:
        return 0, np.zeros(0, dtype=np.int64)
    if vertex_count <= _SCIPY_SCC_THRESHOLD and len(srcs) <= 4 * _SCIPY_SCC_THRESHOLD:
        return _tarjan_labels(vertex_count, srcs, dsts)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    m = coo_matrix(
        (np.ones(len(srcs), dtype=np.int8), (np.asarray(srcs), np.asarray(dsts))),
        shape=(vertex_count, vertex_count),
    )
    ncomp, labels = connected_components(m, directed=True, connection="strong")
    return ncomp, labels.astype(np.int64)


def _tarjan_labels(vertex_count: int, srcs, dsts) -> tuple[int, np.ndarray]:
    """Iterative Tarjan; labels are assigned in reverse topological order."""
    adj = [[] for _ in range(vertex_count)]
    for u, v in zip(srcs, dsts):
        adj[int(u)].append(int(v))
    UNSEEN = -1
    index = [UNSEEN] * vertex_count
    lowlink = [0] * vertex_count
    on_stack = [False] * vertex_count
    stack: list[int] = []
    labels = np.full(vertex_count, -1, dtype=np.int64)
    counter = 0
    ncomp = 0
    for root in range(vertex_count):
        if index[root] != UNSEEN:
            continue
        # explicit DFS stack of (vertex, next-child pointer)
        work = [(root, 0)]
        while work:
            v, ptr = work.pop()
            if ptr == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            children = adj[v]
            while ptr < len(children):
                w = children[ptr]
                ptr += 1
                if index[w] == UNSEEN:
                    work.append((v, ptr))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    labels[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return ncomp, labels


def scc_decompose(graph: Graph) -> list[frozenset[int]]:
    """Maximal strongly connected components in topological order.

    Every edge of the graph goes from an earlier component to the same or a
    later one; every vertex appears in exactly one component.
    """
    n = graph.vertex_count
    if n == 0:
        return []
    srcs, dsts = graph._src_array, graph._dst_array
    ncomp, labels = _scc_labels(n, srcs, dsts)
    order = _topological_component_order(ncomp, labels, srcs, dsts)
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for v in range(n):
        members[labels[v]].append(v)
    return [frozenset(members[c]) for c in order]


def _topological_component_order(ncomp, labels, srcs, dsts) -> list[int]:
    indeg = [0] * ncomp
    out: list[set[int]] = [set() for _ in range(ncomp)]
    for u, v in zip(labels[np.asarray(srcs, dtype=np.int64)], labels[np.asarray(dsts, dtype=np.int64)]):
        u, v = int(u), int(v)
        if u != v and v not in out[u]:
            out[u].add(v)
            indeg[v] += 1
    ready = [c for c in range(ncomp) if indeg[c] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        c = heapq.heappop(ready)
        order.append(c)
        for w in sorted(out[c]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


# ---------------------------------------------------------------------------
# Strategy restrictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyRestriction:
    """Subgraph reachable from a start vertex when Eve plays a fixed positional
    strategy and Adam plays arbitrarily, re-indexed densely.

    ``original_vertex[i]`` is the id the i-th restriction vertex had in the
    original game.
    """

    graph: Graph
    original_vertex: tuple

    def to_original(self, v: int) -> int:
        return self.original_vertex[v]


def restrict_to_strategy(game: Game, sigma: PositionalStrategy, v0: int) -> StrategyRestriction:
    """Build the reachable strategy subgraph from ``v0``.

    Eve vertices keep only their chosen edge (none at all when the strategy is
    silent there, turning them into sinks); Adam vertices keep every edge.
    """
    if not 0 <= v0 < game.vertex_count:
        raise InvalidGameError(f"start vertex {v0} out of range")
    sigma.validate(game)
    index: dict[int, int] = {v0: 0}
    order = [v0]
    edges = []
    queue = [v0]
    while queue:
        v = queue.pop(0)
        if game.is_eve(v):
            chosen = sigma.choices.get(v)
            outgoing = [(chosen[1], chosen[2])] if chosen is not None else []
        else:
            outgoing = list(game.graph.successors[v])
        for c, w in outgoing:
            if w not in index:
                index[w] = len(order)
                order.append(w)
                queue.append(w)
            edges.append((index[v], c, index[w]))
    return StrategyRestriction(
        graph=Graph(len(order), tuple(dict.fromkeys(edges))),
        original_vertex=tuple(order),
    )


# ---------------------------------------------------------------------------
# Negative cycles and cycle-parity checks
# ---------------------------------------------------------------------------


def _negative_cycle_exists(vertex_count: int, srcs, dsts, weights) -> bool:
    """Vectorized Bellman-Ford from a virtual source connected to everything.

    Distances start at zero everywhere; if a full pass still improves some
    distance after `vertex_count` passes, the improvement comes from a
    non-simple walk, i.e. a strictly negative cycle.
    """
    m = len(weights)
    if m == 0 or vertex_count == 0:
        return False
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    dist = np.zeros(vertex_count, dtype=np.int64)
    for _ in range(vertex_count):
        before = dist.copy()
        np.minimum.at(dist, dsts, before[srcs] + weights)
        if np.array_equal(dist, before):
            return False
    return True


def find_negative_cycle(graph: Graph, dimension: Optional[int] = None) -> Optional[Path]:
    """Some strictly negative cycle, or ``None``.

    Runs Bellman-Ford per strongly connected component from a virtual source;
    the first negative cycle found is returned with no minimality guarantee.
    `dimension` selects the component of vector-valued colors to sum.
    """

    def wt(c: Color) -> int:
        return c if dimension is None else c[dimension]

    if dimension is None and graph.edges and isinstance(graph.edges[0][1], tuple):
        raise InvalidGameError("vector-colored graph needs an explicit dimension")

    for comp in scc_decompose(graph):
        internal = [e for e in graph.edges if e[0] in comp and e[2] in comp]
        if not internal:
            continue
        verts = sorted(comp)
        dist = {v: 0 for v in verts}
        pred: dict[int, Edge] = {}
        for _ in range(len(verts)):
            x = None  # the last vertex relaxed in this pass
            for e in internal:
                u, c, v = e
                cand = dist[u] + wt(c)
                if cand < dist[v]:
                    dist[v] = cand
                    pred[v] = e
                    x = v
            if x is None:
                break
        if x is None:
            continue
        # x was relaxed in the last pass, so walking its predecessors far
        # enough lands on a negative cycle (a vertex relaxed earlier may lead
        # back to one never relaxed); then collect the cycle
        for _ in range(len(verts)):
            x = pred[x][0]
        cycle_edges = []
        y = x
        while True:
            e = pred[y]
            cycle_edges.append(e)
            y = e[0]
            if y == x:
                break
        cycle_edges.reverse()
        vertices = [x] + [e[2] for e in cycle_edges]
        colors = [e[1] for e in cycle_edges]
        path = Path(tuple(vertices), tuple(colors))
        assert path.is_cycle and path.total_weight(dimension) < 0
        return path
    return None


def graph_satisfies_mp(graph: Graph, dimension: Optional[int] = None) -> bool:
    """True iff the graph has no strictly negative cycle.

    For a finite graph this is equivalent to all infinite paths having
    liminf average weight >= 0: with every cycle nonnegative, any infix sum
    stays above -(n-1) * max_weight.
    """
    if dimension is None and graph.edges and isinstance(graph.edges[0][1], tuple):
        raise InvalidGameError("vector-colored graph needs an explicit dimension")
    return not _negative_cycle_exists(
        graph.vertex_count, graph._src_array, graph._dst_array, graph.weight_array(dimension)
    )


def graph_satisfies_parity(graph: Graph) -> bool:
    """True iff no cycle has an odd maximum priority.

    For each odd priority p, looks at the subgraph of edges with priority
    <= p: a violating cycle through priority p exists exactly when some
    strongly connected component of that subgraph contains an edge labeled
    exactly p with both endpoints inside the component.
    """
    priorities = {e[1] for e in graph.edges}
    for p in sorted(x for x in priorities if x % 2 == 1):
        sub = [(u, c, v) for (u, c, v) in graph.edges if c <= p]
        srcs = np.fromiter((e[0] for e in sub), dtype=np.int64, count=len(sub))
        dsts = np.fromiter((e[2] for e in sub), dtype=np.int64, count=len(sub))
        _, labels = _scc_labels(graph.vertex_count, srcs, dsts)
        for u, c, v in sub:
            if c == p and labels[u] == labels[v]:
                return False
    return True
