"""Exact improvement-graph analysis (small games).

Theorem 1 is equivalent to a graph statement: the *improvement graph* —
configurations as nodes, better-response steps as edges — is acyclic,
and its sinks are exactly the pure equilibria. This module extracts the
exact quantities no sampling can give:

* :func:`analyze_improvement_dag` — one pass over the whole space:
  acyclicity (Theorem 1), the exact longest improving path (the tight
  worst case over every scheduler, policy and start), and all sinks.
  The default ``backend="space"`` runs on
  :class:`repro.kernel.space.ConfigSpace` — integer configuration
  codes, improving moves built for blocks of nodes at once with numpy,
  the longest path found by peeling sinks level by level, and
  equal-power symmetry reduction — which raises the practical size
  frontier by orders of magnitude over the Fraction brute force (kept
  as ``backend="exact"``).
* :func:`reachable_equilibria` — which equilibria a given start can
  end at (the exact version of basin analysis), also int-code based by
  default.
* :func:`improvement_graph` / :func:`is_acyclic` /
  :func:`longest_improvement_path` / :func:`sink_configurations` — the
  original Configuration-keyed graph API, used by the ``exact``
  backend and the parity suite.

On a masked :class:`~repro.core.game.Game` (the paper's asymmetric
case) every analysis covers only mask-valid nodes and legal edges, on
both backends.

Everything here is exponential in ``n`` and guarded accordingly; the
space backend's guard counts *scanned* nodes, i.e. symmetry orbits when
reduction applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.exceptions import InvalidModelError

#: Adjacency: configuration → better-response successors.
ImprovementGraph = Dict[Configuration, Tuple[Configuration, ...]]

#: Node cap for the Fraction (Configuration-object) graph.
_DEFAULT_LIMIT = 100_000

#: Node cap for the integer-code space backend — two orders of
#: magnitude more headroom; at this size the full analysis still runs
#: in well under a minute (~2M nodes ≈ 21 miners × 2 coins).
_SPACE_LIMIT = 2_000_000


@dataclass(frozen=True)
class DagAnalysis:
    """Exact improvement-DAG facts for one game.

    ``longest_path`` is ``None`` only when ``acyclic`` is ``False``
    (which Theorem 1 forbids and would indicate a payoff-model bug).
    ``sinks`` always lists *all* pure equilibria, in the enumeration
    (product) order, with symmetry orbits expanded.
    """

    acyclic: bool
    longest_path: Optional[int]
    sinks: Tuple[Configuration, ...]
    nodes_scanned: int
    total_configurations: int
    symmetry_reduced: bool


def analyze_improvement_dag(
    game: Game,
    *,
    limit: int = _SPACE_LIMIT,
    backend: str = "space",
) -> DagAnalysis:
    """Acyclicity, exact longest path and all sinks, in one pass.

    With ``backend="space"`` the scan runs at the integer-code level
    (no Configuration or Fraction per node); when the game has
    interchangeable miners, one count matrix per orbit is scanned and
    ``limit`` guards that (much smaller) count. ``backend="exact"``
    materializes the Configuration-keyed graph — same answers, for
    audits and parity.

    On a masked game the analysis covers the *restricted* improvement
    DAG — mask-valid nodes, legal better-response edges only — whose
    sinks are exactly the restricted equilibria, and symmetry merges
    only miners with equal power *and* equal allowed set.
    """
    if backend == "exact":
        graph = improvement_graph(game, limit=limit)
        acyclic = is_acyclic(graph)
        return DagAnalysis(
            acyclic=acyclic,
            longest_path=longest_improvement_path(graph) if acyclic else None,
            sinks=tuple(sink_configurations(graph)),
            nodes_scanned=len(graph),
            total_configurations=game.configuration_count(),
            symmetry_reduced=False,
        )
    if backend != "space":
        raise InvalidModelError(
            f"unknown DAG backend {backend!r}; expected 'space' or 'exact'"
        )
    from repro.kernel.space import ConfigSpace

    space = ConfigSpace(game)
    if space.scan_size > limit:
        raise InvalidModelError(
            f"improvement DAG has {space.scan_size} nodes to scan, above the limit {limit}"
        )
    report = space.dag_report(max_sinks=limit)
    return DagAnalysis(
        acyclic=report.acyclic,
        longest_path=report.longest_path,
        sinks=tuple(space.config_of(code) for code in report.sink_codes),
        nodes_scanned=report.nodes_scanned,
        total_configurations=report.total_configurations,
        symmetry_reduced=report.symmetry_reduced,
    )


def improvement_graph(game: Game, *, limit: int = _DEFAULT_LIMIT) -> ImprovementGraph:
    """The full better-response graph of *game*, Configuration-keyed.

    Raises :class:`InvalidModelError` when the configuration space
    exceeds *limit* (the graph has ``|C|^n`` nodes — ``Π_p
    |allowed(p)|`` under a restriction). This is the Fraction path;
    scans that only need the derived quantities should use
    :func:`analyze_improvement_dag` instead. On a masked game the nodes
    are the mask-valid configurations and the edges the *legal*
    better-response moves.
    """
    count = game.configuration_count()
    if count > limit:
        raise InvalidModelError(
            f"improvement graph has {count} nodes, above the limit {limit}"
        )
    graph: ImprovementGraph = {}
    for config in game.all_configurations():
        successors: List[Configuration] = []
        for miner in game.miners:
            for coin in game.better_response_moves(miner, config):
                successors.append(config.move(miner, coin))
        graph[config] = tuple(successors)
    return graph


def sink_configurations(graph: ImprovementGraph) -> List[Configuration]:
    """Nodes with no outgoing edge — the pure equilibria."""
    return [config for config, successors in graph.items() if not successors]


def is_acyclic(graph: ImprovementGraph) -> bool:
    """Whether the improvement graph has no directed cycle.

    Theorem 1 implies ``True`` for every game; this decides it exactly
    by iterative DFS with colors.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Configuration, int] = {node: WHITE for node in graph}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[Configuration, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, index = stack[-1]
            successors = graph[node]
            if index < len(successors):
                stack[-1] = (node, index + 1)
                child = successors[index]
                if color[child] == GRAY:
                    return False
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return True


def longest_improvement_path(graph: ImprovementGraph) -> int:
    """The maximum number of steps any improving path can take.

    Computed by memoized longest-path on the DAG (raises if the graph
    is cyclic, which Theorem 1 forbids). This is the exact worst case
    over *all* schedulers, policies and starts.
    """
    if not is_acyclic(graph):
        raise InvalidModelError(
            "improvement graph is cyclic; this contradicts Theorem 1 and "
            "indicates a payoff-model bug"
        )
    # One pass over all nodes fills the memo (iterative post-order — a
    # node is finalized only once every successor has an entry); the
    # answer is the maximum entry.
    memo: Dict[Configuration, int] = {}
    for node in graph:
        if node in memo:
            continue
        stack = [node]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            pending = [child for child in graph[current] if child not in memo]
            if pending:
                stack.extend(pending)
            else:
                memo[current] = max(
                    (1 + memo[child] for child in graph[current]), default=0
                )
                stack.pop()
    return max(memo.values()) if memo else 0


def reachable_equilibria(
    game: Game,
    start: Configuration,
    *,
    limit: int = _SPACE_LIMIT,
    backend: str = "space",
) -> List[Configuration]:
    """All equilibria some improving path from *start* can reach.

    The exact counterpart of :func:`repro.analysis.basins.basin_profile`
    (which samples one path per start). DFS over better-response
    successors restricted to nodes reachable from *start*; the space
    backend runs it over integer codes with the identical traversal
    order, so results — including list order — match the Fraction path.
    On a masked game only legal moves are followed; a mask-invalid
    *start* raises.
    """
    count = game.configuration_count()
    if backend == "space":
        if count > limit:
            raise InvalidModelError(
                f"reachability needs the improvement DAG ({count} nodes > {limit})"
            )
        from repro.kernel.space import ConfigSpace

        space = ConfigSpace(game)
        return [
            space.config_of(code)
            for code in space.reachable_sink_codes(space.code_of(start))
        ]
    if backend != "exact":
        raise InvalidModelError(
            f"unknown reachability backend {backend!r}; expected 'space' or 'exact'"
        )
    if count > limit:
        raise InvalidModelError(
            f"reachability needs the improvement graph ({count} nodes > {limit})"
        )
    game.validate_configuration(start)
    frontier = [start]
    seen: Set[Configuration] = {start}
    sinks: List[Configuration] = []
    while frontier:
        config = frontier.pop()
        successors: List[Configuration] = []
        for miner in game.miners:
            for coin in game.better_response_moves(miner, config):
                successors.append(config.move(miner, coin))
        if not successors:
            sinks.append(config)
            continue
        for child in successors:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return sinks
