"""Metamorphic tests: transformations of a model that must not change its answers.

Serializing and parsing back, renaming and reordering generators, and taking
products, each checked on the random families of conftest.py.
"""

import random

from rht import (
    AlgElement,
    Cochains,
    GenSet,
    RelativeModel,
    SullivanModel,
    finiteness_window,
    fibre_gottlieb,
    gottlieb,
    parse_document,
    trivial_fibration,
)
from rht.invariants import top_shift

from conftest import diff_of, normalize_word, random_fibration, random_space


def random_models(seed, count):
    rng = random.Random(seed)
    return [random_space(rng) if i % 2 else random_fibration(rng) for i in range(count)]


def total_of(m):
    return m.total if isinstance(m, RelativeModel) else m


def test_serialize_parse_round_trips_random_models():
    for m in random_models(3, 80):
        text = m.serialize()
        again = parse_document(text)[0]
        assert again.serialize() == text, text
        assert type(again) is type(m)
        if isinstance(m, RelativeModel):
            assert again.base.gens == m.base.gens and again.base.diff == m.base.diff
            assert again.fiber.gens == m.fiber.gens and again.fiber.diff == m.fiber.diff
        assert total_of(again).gens == total_of(m).gens
        assert total_of(again).diff == total_of(m).diff, text


def relabel(el: AlgElement, gens: GenSet, position: dict) -> AlgElement:
    """The element with generator i moved to index position[i] of gens, Koszul-signed."""
    out = {}
    for mono, c in el.terms.items():
        sign, new = normalize_word(gens, [(position[i], e) for i, e in mono.exponents])
        out[new] = out.get(new, 0) + sign * c
    return AlgElement(gens, out)


def renamed(m, prefix, rng=None):
    """m with generators named prefix0, prefix1, ...; rng shuffles the (fiber) order."""
    base = None if isinstance(m, SullivanModel) else renamed(m.base, prefix + "b")
    fiber, total = (m, m) if base is None else (m.fiber, m.total)
    k, n = len(total.gens) - len(fiber.gens), len(fiber.gens)
    order = rng.sample(range(n), n) if rng else list(range(n))  # new index -> old
    position = {i: i for i in range(k)} | {k + old: k + j for j, old in enumerate(order)}
    new = [(f"{prefix}{j}", fiber.gens[old].degree) for j, old in enumerate(order)]
    head = [] if base is None else [(g.name, g.degree) for g in base.gens]
    gens = GenSet(head + new)
    diff = {
        gens[position[g.index]].name: relabel(diff_of(total, g.name), gens, position)
        for g in total.gens[k:]
    }
    if base is None:
        return SullivanModel(gens, diff, name=m.name)
    return RelativeModel(base, GenSet(new), diff, name=m.name)


def invariants(m):
    total = total_of(m)
    out = {
        "cohomology": [h.dim for _, h in Cochains(total).slices(range(16))],
        "windows": [finiteness_window(m, w)[:2] for w in (1, 3, 6)],
        "gottlieb": gottlieb(m).dims(),
    }
    if isinstance(m, RelativeModel):
        out["fibre_gottlieb"] = fibre_gottlieb(m).dims()
    return out


def test_renaming_and_reordering_generators_keeps_every_answer():
    rng = random.Random(17)
    for m in random_models(5, 30):
        again = renamed(m, "z", rng)
        assert [g.name for g in total_of(again).gens] != [g.name for g in total_of(m).gens]
        assert invariants(again) == invariants(m), m.serialize()


def test_gottlieb_groups_of_a_product_add():
    rng = random.Random(23)
    for _ in range(15):
        x, y = random_space(rng, max_gens=3), renamed(random_space(rng, max_gens=3), "y")
        product = trivial_fibration(x, y).total
        top = max(top_shift(x), top_shift(y))
        gx, gy = gottlieb(x, top).dims(), gottlieb(y, top).dims()
        want = {n: gx.get(n, 0) + gy.get(n, 0) for n in range(1, top + 1)}
        assert gottlieb(product, top).dims() == {n: d for n, d in want.items() if d}, (
            x.serialize() + y.serialize()
        )
