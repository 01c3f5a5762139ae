"""Inclusion posets of realized subspaces, with Hasse-diagram output."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .linalg import Subspace


@dataclass
class PosetNode:
    subspace: Subspace
    witnesses: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def label(self) -> str:
        labels = self.subspace.basis_labels()
        return "Q(" + ", ".join(labels) + ")" if labels else "0"


@dataclass
class Poset:
    nodes: list[PosetNode]
    edges: list[tuple[int, int]]  # (larger, smaller): covering relations

    def longest_path(self) -> list[int]:
        """Node indices of a longest path along the edges; [] when empty.

        Ties go to the first node, then to the first edge, in stored order.
        """
        below: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for a, b in self.edges:
            below[a].append(b)
        memo: dict[int, list[int]] = {}

        def path(i: int) -> list[int]:
            if i not in memo:
                memo[i] = [i] + max((path(j) for j in below[i]), key=len, default=[])
            return memo[i]

        return max((path(i) for i in below), key=len, default=[])


def poset_of_subspaces(realized: dict[str, Subspace]) -> Poset:
    """Deduplicate realized subspaces and take the transitive reduction."""
    by_subspace: dict[Subspace, list[str]] = {}
    for key in sorted(realized):
        by_subspace.setdefault(realized[key], []).append(key)
    nodes = [
        PosetNode(sub, witnesses)
        for sub, witnesses in sorted(
            by_subspace.items(), key=lambda kv: (-kv[0].dim, kv[0].rows)
        )
    ]
    n = len(nodes)
    strict = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and nodes[i].subspace.includes(nodes[j].subspace)
    }
    edges = [
        (i, j)
        for (i, j) in sorted(strict)
        if not any((i, k) in strict and (k, j) in strict for k in range(n))
    ]
    return Poset(nodes, edges)


def render(p: Poset, format: str = "text") -> str:
    """Serialize a Hasse diagram as Graphviz DOT, JSON, or plain text."""
    if format == "dot":
        lines = ["digraph gottlieb_poset {"]
        for i, node in enumerate(p.nodes):
            lines.append(f'  n{i} [label="{node.label}"];')
        for a, b in p.edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        doc = {
            "nodes": [
                {
                    "id": i,
                    "dim": node.dim,
                    "basis": node.subspace.basis_labels(),
                    "witnesses": node.witnesses,
                }
                for i, node in enumerate(p.nodes)
            ],
            "edges": [[a, b] for a, b in p.edges],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if format == "text":
        lines = []
        for i, node in enumerate(p.nodes):
            lines.append(f"[{i}] dim {node.dim}  {node.label}  <- {', '.join(node.witnesses)}")
        for a, b in p.edges:
            lines.append(f"  [{a}] > [{b}]")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
