"""Seeded random fibrations, built so that D.D = 0 holds by construction.

The construction has two stages.  A random fibre space first closes a
front segment of its generators (d = 0) and sends every other generator
into products of that segment.  The fibration then adds base-twisting
terms only to generators that no fibre differential touches, with values
in the subalgebra spanned by the base and untouched cocycles.  Only the
standard library and ``rht`` itself are used, so the program under test
receives nothing but the generated models.
"""

from __future__ import annotations

import random


def random_space(rht, rng: random.Random, max_gens: int, max_degree: int):
    """A minimal-looking Sullivan model with 2..max_gens generators."""
    k = rng.randint(2, max_gens)
    degrees = sorted(rng.randint(2, max_degree) for _ in range(k))
    gens = rht.GenSet([(f"g{i}", d) for i, d in enumerate(degrees)])
    closed = rng.randint(1, k)  # the first `closed` generators stay cocycles
    diff = {}
    for i in range(closed, k):
        g = gens[i]
        candidates = [
            m
            for m in rht.basis_in_degree(gens, g.degree + 1)
            if m.exponents
            and all(j < closed for j, _ in m.exponents)
            and len(m.word()) >= 2
        ]
        value = rht.AlgElement.zero(gens)
        for m in candidates:
            c = rng.choice([0, 0, 1, -1, 2])
            if c:
                value = value + rht.AlgElement.monomial(gens, m, c)
        if not value.is_zero():
            diff[g.name] = value
    return rht.SullivanModel(gens, diff, name=f"random-{rng.getrandbits(24):06x}")


def random_fibration(rht, rng: random.Random, max_gens: int, max_degree: int):
    """A one-generator-base fibration twisting a random fibre space."""
    fiber = random_space(rht, rng, max_gens, max_degree)
    base_degree = rng.choice([2, 2, 2, 4])
    base = rht.SullivanModel(rht.GenSet([("t", base_degree)]), {}, name="base")
    combined = rht.GenSet(
        [("t", base_degree)] + [(g.name, g.degree) for g in fiber.gens]
    )
    # generators appearing in any fibre differential must stay untwisted,
    # otherwise closure of the total differential could break; a random
    # slice of the remaining cocycle generators joins them
    safe = {
        fiber.gens[i].name
        for value in fiber.diff.values()
        for m in value.terms
        for i, _ in m.exponents
    }
    for g in fiber.gens:
        if g.name not in fiber.diff and rng.random() < 0.5:
            safe.add(g.name)
    allowed = {0} | {combined.get(name).index for name in safe}
    total_diff = {}
    for g in fiber.gens:
        value = rht.AlgElement.zero(combined)
        if g.name in fiber.diff:
            for m, c in fiber.diff[g.name].terms.items():
                shifted = rht.Monomial(tuple((i + 1, e) for i, e in m.exponents))
                value = value + rht.AlgElement.monomial(combined, shifted, c)
        elif g.name in safe:
            continue
        candidates = [
            m
            for m in rht.basis_in_degree(combined, g.degree + 1)
            if any(i == 0 for i, _ in m.exponents)
            and all(i in allowed for i, _ in m.exponents)
        ]
        for m in candidates:
            c = rng.choice([0, 0, 0, 1, -1])
            if c:
                value = value + rht.AlgElement.monomial(combined, m, c)
        total_diff[g.name] = value
    total_diff = {k: v for k, v in total_diff.items() if not v.is_zero()}
    return rht.RelativeModel(
        base,
        fiber.gens,
        total_diff,
        fiber_diff=dict(fiber.diff),
        name=f"{fiber.name}-twist",
    )


def random_family(rht, seed: int, count: int, max_gens: int, max_degree: int):
    """``count`` fibrations drawn from one generator seeded with ``seed``."""
    rng = random.Random(seed)
    return [random_fibration(rht, rng, max_gens, max_degree) for _ in range(count)]
