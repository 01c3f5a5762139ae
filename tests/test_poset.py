"""Inclusion posets: transitive reduction, determinism, rendering."""

import json
import random

from rht import Poset, Subspace, depth_of_subspaces, poset_of_subspaces, render

FRAME = ("a*", "b*", "c*", "d*")


def span(*rows):
    return Subspace(FRAME, rows)


def chain_family():
    return {
        "top": span({0: 1}, {1: 1}, {2: 1}),
        "mid": span({1: 1}, {2: 1}),
        "bot": span({2: 1}),
    }


def diamond_family():
    return {
        "top": span({0: 1}, {1: 1}, {2: 1}),
        "left": span({0: 1}, {1: 1}),
        "right": span({1: 1}, {2: 1}),
        "bot": span({1: 1}),
        "bot-again": span({1: 2}),
    }


def full_inclusion_closure(nodes):
    """Independent all-pairs strict-inclusion relation."""
    n = len(nodes)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and nodes[i].subspace.includes(nodes[j].subspace)
    }


def test_chain_poset():
    p = poset_of_subspaces(chain_family())
    assert [node.dim for node in p.nodes] == [3, 2, 1]
    assert p.edges == [(0, 1), (1, 2)]
    assert depth_of_subspaces(chain_family()).depth == 2


def test_diamond_poset_dedupes_and_reduces():
    p = poset_of_subspaces(diamond_family())
    assert len(p.nodes) == 4  # bot and bot-again merge
    bottom = next(node for node in p.nodes if node.dim == 1)
    assert sorted(bottom.witnesses) == ["bot", "bot-again"]
    # no edge skips the middle layer
    assert (0, p.nodes.index(bottom)) not in p.edges
    assert depth_of_subspaces(diamond_family()).depth == 2


def edge_closure(edges):
    """Transitive closure of a covering relation, by repeated composition."""
    closure = set(edges)
    while True:
        step = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not step:
            return closure
        closure |= step


def test_transitive_reduction_preserves_reachability():
    for family in (chain_family(), diamond_family()):
        p = poset_of_subspaces(family)
        assert edge_closure(p.edges) == full_inclusion_closure(p.nodes)


def test_poset_invariant_under_permutation():
    family = diamond_family()
    keys = list(family)
    rng = random.Random(5)
    reference = render(poset_of_subspaces(family), "json")
    for _ in range(5):
        rng.shuffle(keys)
        shuffled = {k: family[k] for k in keys}
        assert render(poset_of_subspaces(shuffled), "json") == reference


def test_empty_and_singleton():
    assert depth_of_subspaces({}).depth == -1
    single = poset_of_subspaces({"x": span({0: 1})})
    assert len(single.nodes) == 1 and single.edges == []
    assert depth_of_subspaces({"x": span({0: 1})}).depth == 0


def test_render_dot():
    p = poset_of_subspaces(chain_family())
    dot = render(p, "dot")
    assert dot.startswith("digraph")
    assert 'n0 [label="Q(a*, b*, c*)"];' in dot
    assert "n0 -> n1;" in dot and "n1 -> n2;" in dot


def test_render_json_schema():
    p = poset_of_subspaces(chain_family())
    doc = json.loads(render(p, "json"))
    assert {n["id"] for n in doc["nodes"]} == {0, 1, 2}
    assert doc["nodes"][0]["basis"] == ["a*", "b*", "c*"]
    assert doc["edges"] == [[0, 1], [1, 2]]


def test_render_text_and_unknown_format():
    p = poset_of_subspaces(chain_family())
    text = render(p, "text")
    assert "dim 3" in text and "[0] > [1]" in text
    try:
        render(p, "yaml")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown format should raise")


def test_zero_subspace_label():
    p = poset_of_subspaces({"zero": Subspace(FRAME)})
    assert p.nodes[0].label == "0"
