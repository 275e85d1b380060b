"""Tree-based design-space pruning (paper Algorithm 1 and Fig. 3).

The raw design space is the cartesian product of all directive-site
value sets and is astronomically large (SORT_RADIX: > 3.8e12 in the
paper).  Most of it is invalid or obviously non-optimal because loop
unrolling and array partitioning interact:

- if the partition factor of an array is *smaller* than the unroll
  factor of the loop indexing it, the unroll cannot be realized (the
  memory ports throttle it);
- if it is *larger*, extra BRAM is burnt with no added parallelism;
- unrolling a loop that drives a *non*-partitioned index dimension of a
  cyclically partitioned array creates port conflicts (Fig. 3's "we will
  not unroll L1").

Algorithm 1 builds one tree per array (array = root, indexing loops =
children), merges trees sharing loop nodes, and enumerates only the
*compatible* joint assignments: partition factor == unroll factor along
every access edge, outer-index loops kept rolled when the array is
partitioned.  This module implements that generatively — the pruned
space is enumerated directly, never by filtering the raw product (which
would be infeasible at 1e12 scale).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.dse.directives import (
    Configuration,
    DirectiveKind,
    DirectiveSchema,
    DirectiveSite,
)
from repro.hlsim.ir import Kernel


@dataclass
class PruningTree:
    """One merged tree: a connected component of arrays and loops.

    ``arrays`` are the root nodes, ``loops`` the loop nodes (both sets,
    since merged trees can have several roots — paper Fig. 3(b) merges
    the trees of A and B).  ``edges`` are the (array, index_loop) access
    edges, and ``outer_edges`` the (array, outer_loop) incompatibility
    edges.
    """

    arrays: set[str] = field(default_factory=set)
    loops: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    outer_edges: set[tuple[str, str]] = field(default_factory=set)

    def node_count(self) -> int:
        return len(self.arrays) + len(self.loops)


class _UnionFind:
    """Minimal union-find over hashable node ids."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, x: object) -> object:
        self._parent.setdefault(x, x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self) -> dict[object, set[object]]:
        result: dict[object, set[object]] = {}
        for node in list(self._parent):
            result.setdefault(self.find(node), set()).add(node)
        return result


def build_pruning_trees(kernel: Kernel) -> list[PruningTree]:
    """Construct per-array trees and merge those sharing loop nodes.

    Returns one :class:`PruningTree` per connected component, sorted by
    the lexicographically smallest array name for determinism.  Loops
    that access no array do not appear in any tree.
    """
    uf = _UnionFind()
    edges: set[tuple[str, str]] = set()
    outer_edges: set[tuple[str, str]] = set()
    for _loop, access in kernel.all_accesses():
        array_node = ("array", access.array)
        loop_node = ("loop", access.index_loop)
        uf.union(array_node, loop_node)
        edges.add((access.array, access.index_loop))
        for outer in access.outer_loops:
            uf.union(array_node, ("loop", outer))
            outer_edges.add((access.array, outer))

    trees: list[PruningTree] = []
    for members in uf.groups().values():
        tree = PruningTree()
        for tag, name in members:  # type: ignore[misc]
            if tag == "array":
                tree.arrays.add(name)
            else:
                tree.loops.add(name)
        tree.edges = {e for e in edges if e[0] in tree.arrays}
        tree.outer_edges = {e for e in outer_edges if e[0] in tree.arrays}
        trees.append(tree)
    trees.sort(key=lambda t: min(t.arrays) if t.arrays else min(t.loops))
    return trees


def _site_key(kind: DirectiveKind, target: str) -> str:
    return f"{kind.value}@{target}"


def _tree_assignments(
    tree: PruningTree, schema: DirectiveSchema
) -> list[dict[str, int]]:
    """Enumerate compatible (unroll, partition) assignments of one tree.

    Equality constraints (partition factor == index-loop unroll factor)
    tie sites into classes; each class enumerates the intersection of its
    members' value sets.  The outer-edge rule then rejects combinations
    where a partitioned array coexists with an unrolled outer-index loop.
    """
    keys = set()
    for array in tree.arrays:
        key = _site_key(DirectiveKind.ARRAY_PARTITION, array)
        if _has_site(schema, key):
            keys.add(key)
    for loop in tree.loops:
        key = _site_key(DirectiveKind.UNROLL, loop)
        if _has_site(schema, key):
            keys.add(key)
    if not keys:
        return [{}]

    uf = _UnionFind()
    for key in keys:
        uf.find(key)
    for array, loop in tree.edges:
        a_key = _site_key(DirectiveKind.ARRAY_PARTITION, array)
        l_key = _site_key(DirectiveKind.UNROLL, loop)
        if a_key in keys and l_key in keys:
            uf.union(a_key, l_key)

    classes = sorted(
        (sorted(group) for group in uf.groups().values()),
        key=lambda g: g[0],
    )
    domains: list[list[int]] = []
    for group in classes:
        domain: set[int] | None = None
        for key in group:
            values = set(schema.site(key).values)
            domain = values if domain is None else domain & values
        if not domain:
            # No commonly supported factor: the only safe choice is the
            # baseline (factor 1) if every member offers it.
            domain = {1} if all(1 in schema.site(k).values for k in group) else set()
        domains.append(sorted(domain))

    class_of = {key: i for i, group in enumerate(classes) for key in group}
    assignments: list[dict[str, int]] = []
    for combo in itertools.product(*domains):
        if not _outer_rule_ok(tree, schema, keys, class_of, combo):
            continue
        assignment: dict[str, int] = {}
        for group, value in zip(classes, combo):
            for key in group:
                assignment[key] = value
        assignments.append(assignment)
    return assignments


def _outer_rule_ok(
    tree: PruningTree,
    schema: DirectiveSchema,
    keys: set[str],
    class_of: dict[str, int],
    combo: tuple[int, ...],
) -> bool:
    """Check Fig. 3's rule: partitioned array => outer-index loops rolled."""
    for array, outer in tree.outer_edges:
        a_key = _site_key(DirectiveKind.ARRAY_PARTITION, array)
        o_key = _site_key(DirectiveKind.UNROLL, outer)
        if a_key not in keys or o_key not in keys:
            continue
        partition = combo[class_of[a_key]]
        outer_unroll = combo[class_of[o_key]]
        if partition > 1 and outer_unroll > 1:
            return False
    return True


def _has_site(schema: DirectiveSchema, key: str) -> bool:
    try:
        schema.site(key)
    except KeyError:
        return False
    return True


def prune_design_space(
    kernel: Kernel, schema: DirectiveSchema
) -> list[Configuration]:
    """Enumerate the pruned design space of a kernel (Algorithm 1).

    The result is the cross product of per-tree compatible assignments
    with the free sites (pipeline/II, inline, and any unroll/partition
    site not tied into a tree), deduplicated and deterministically
    ordered.
    """
    trees = build_pruning_trees(kernel)
    tree_choices: list[list[dict[str, int]]] = [
        _tree_assignments(tree, schema) for tree in trees
    ]
    constrained = {key for choices in tree_choices for c in choices for key in c}
    # Sites never mentioned by any tree assignment vary freely —
    # pipeline/II choices, inline toggles, and any unroll/partition
    # site whose loop or array no tree constrains.
    free_sites: list[DirectiveSite] = [
        site for site in schema.sites if site.key not in constrained
    ]

    # Each tree is a group of tied sites with its compatible rows, each
    # free site a group of one with its whole domain.  Expanding the
    # site defaults group by group (first group slowest) writes every
    # combination; a lexsort (first column primary) orders the rows like
    # tuples and dropping repeats of the previous row dedupes them.
    groups = [
        (list(choices[0]) if choices else [], [list(c.values()) for c in choices])
        for choices in tree_choices
    ] + [([site.key], [[v] for v in site.values]) for site in free_sites]
    V = np.array([[site.values[0] for site in schema.sites]], dtype=np.int64)
    for keys, rows in groups:
        table = np.array(rows, dtype=np.int64).reshape(len(rows), len(keys))
        n = V.shape[0]
        V = np.repeat(V, len(rows), axis=0)
        V[:, [schema.site_index(key) for key in keys]] = np.tile(table, (n, 1))
    V = V[np.lexsort(V.T[::-1])]
    V = V[np.r_[True, (V[1:] != V[:-1]).any(axis=1)]]
    return [Configuration(tuple(row)) for row in V.tolist()]


def pruning_ratio(kernel: Kernel, schema: DirectiveSchema) -> tuple[int, int]:
    """Return ``(raw_size, pruned_size)`` of a kernel's design space."""
    pruned = prune_design_space(kernel, schema)
    return schema.raw_size(), len(pruned)
