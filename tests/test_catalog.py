"""Catalogs: validation, enumeration, and poset assembly."""

import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

import rht.catalog
import rht.derivations
import rht.model
from rht import (
    AlgElement,
    Catalog,
    GenSet,
    GottliebResult,
    Monomial,
    RelativeModel,
    SullivanModel,
    basis_in_degree,
    enumerate_fibrations,
    fibre_gottlieb,
    finiteness_window,
    parse_fibration,
    poset_of_subspaces,
)
from rht.errors import (
    BoundExceeded,
    CombinatorialBlowup,
    FiberMismatch,
    NotAComplex,
    NotClosed,
    NotFiniteAtBound,
    RhtError,
)
from rht.derivations import ABSOLUTE, IDEAL, RELATIVE, DerComplex, frame_degrees
from rht.invariants import top_shift
from rht.linalg import RatMatrix
from rht.model import parse_document, trivial_fibration

from conftest import (
    diff_of,
    evaluation_matrix,
    fixture_texts,
    image_by_projection,
    load,
    product,
    random_space,
    spaces_of,
)


def qt_base():
    return SullivanModel(GenSet([("t", 2)]), {}, name="qt")


def s2_base():
    """(t, s; ds = t^2), the minimal model of S^2: a base with a differential."""
    gens = GenSet([("t", 2), ("s", 3)])
    return SullivanModel(gens, {"s": AlgElement.monomial(gens, Monomial(((0, 2),)))}, name="s2")


def odd_fiber(*degrees):
    gens = GenSet([(f"w{i+1}", d) for i, d in enumerate(degrees)])
    return SullivanModel(gens, {}, name="odd")


# ----------------------------------------------------------------------
# catalog invariants


def test_catalog_rejects_duplicate_ids(ex47):
    f = ex47["first"]
    with pytest.raises(ValueError):
        Catalog(f.fiber, [("x", f), ("x", f)])


def test_catalog_rejects_fiber_mismatch(ex47, su5_bundle):
    with pytest.raises(FiberMismatch):
        Catalog(ex47["first"].fiber, [("odd", su5_bundle)])

    # d compares as packed terms in any order: the same base and fibre with
    # their terms written in another order are one group; one coefficient
    # changed is another fibre
    def fibration(name, ds, dx, Dx):
        return parse_fibration(
            f"[fibration {name}]\n[base]\ngen t 2\ngen r 2\ngen s 3\nd s = {ds}\n"
            f"[fiber]\ngen u 2\ngen v 2\ngen x 3\ngen y 3\nd x = {dx}\nd y = u*v\n"
            f"[total]\nD x = {Dx}\nD y = v*u\n"
        )

    a = fibration("a", "t^2 + r^2", "u^2 + v^2", "u^2 + v^2 + t*u")
    b = fibration("b", "r^2 + t^2", "v^2 + u^2", "t*u + v^2 + u^2")
    assert a.base.images != b.base.images and a.fiber.images != b.fiber.images
    cat = Catalog(a.fiber, [("a", a), ("b", b)])
    assert len({id(twist) for _, twist, _ in cat._twists}) == 1
    assert cat.realized_subspaces()["a"] == cat.realized_subspaces()["b"]
    changed = fibration("c", "t^2 + r^2", "u^2 + 2*v^2", "u^2 + 2*v^2 + t*u")
    with pytest.raises(FiberMismatch):
        Catalog(a.fiber, [("a", a), ("c", changed)])


def test_catalog_finiteness_gate_lists_offenders(su4_fixtures):
    cat = Catalog(
        su4_fixtures["su4-circle"].fiber,
        [
            ("circle", su4_fixtures["su4-circle"]),
            ("trivial", su4_fixtures["su4-trivial"]),
        ],
    )
    with pytest.raises(NotFiniteAtBound) as err:
        cat.check_finite(6)
    assert "trivial" in str(err.value)
    subs = cat.realized_subspaces()
    assert set(subs) == {"circle", "trivial"}


def test_build_poset_of_named_fibrations(ex47):
    cat = Catalog(
        ex47["first"].fiber,
        [(name, f) for name, f in ex47.items()],
    )
    p = poset_of_subspaces(cat.realized_subspaces())
    assert [node.dim for node in p.nodes] == [4, 2, 1]
    assert p.edges == [(0, 1), (1, 2)]


# ----------------------------------------------------------------------
# enumeration


def test_enumeration_case_all_equal_degrees():
    # four S^3 factors: no w*w*t monomial has degree 4, so only t^2
    # twistings arise and every surviving entry realizes the full group
    cat = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base(), require_finite=True)
    assert len(cat.entries) == 15  # any nonempty subset of {w1..w4} hit by t^2
    p = poset_of_subspaces(cat.realized_subspaces())
    assert len(p.nodes) == 1 and p.nodes[0].dim == 4


def test_enumeration_case_two_realized_subspaces():
    # degrees (3,5,7,9): w1*w2 can twist w4 (degree 8 + t), w1*w3 cannot
    # appear with a base factor, and the two realized values are the full
    # group and a 2-dimensional one
    cat = enumerate_fibrations(odd_fiber(3, 5, 7, 9), qt_base(), require_finite=True)
    dims = {sub.dim for sub in cat.realized_subspaces().values()}
    assert dims == {4, 2}


def test_enumeration_is_deterministic():
    a = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base())
    b = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base())
    assert [key for key, _ in a.entries] == [key for key, _ in b.entries]


def test_enumeration_entries_round_trip():
    cat = enumerate_fibrations(odd_fiber(3, 3, 3, 3), qt_base(), require_finite=True)
    for key, entry in cat.entries[:5]:
        again = parse_fibration(entry.serialize())
        assert again.serialize() == entry.serialize()
        assert again.fiber.gens == entry.fiber.gens


def test_enumeration_discards_non_closed():
    # a twisted fiber differential constrains the admissible assignments:
    # every emitted entry must satisfy D.D = 0 by construction
    fiber = parse_fibration(
        """
[fibration seed]
[base]
gen t 2
[fiber]
gen u 4
gen x 7
d x = u^2
[total]
D x = u^2
"""
    ).fiber
    cat = enumerate_fibrations(fiber, qt_base(), require_finite=False)
    for _, entry in cat.entries:
        entry.total.validate()


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(rht.catalog, "MAX_CANDIDATES", 10)
    with pytest.raises(CombinatorialBlowup, match="exceed the cap of 10"):
        enumerate_fibrations(odd_fiber(3, 5, 9, 17), qt_base())


def test_enumeration_refuses_inexact_coefficients():
    # a float 0.1 would twist by 3602879701896397/36028797018963968*t^2
    fiber, base = load("fiber-3-3-3-3.smf")[0], load("base-qt.smf")[0]
    for bad in (0.1, 1.0, Decimal("0.5")):
        with pytest.raises(TypeError, match="exact rationals"):
            enumerate_fibrations(fiber, base, coeff_set=[bad])
    # ints, Fractions and exact rational strings stay accepted
    want = [key for key, _ in enumerate_fibrations(fiber, base, [Fraction(1, 2)]).entries]
    assert want[1] == "Dw4+=1/2*t^2"
    for exact in (["1/2"], ["0.5"], [0, Fraction(1, 2)]):
        assert [key for key, _ in enumerate_fibrations(fiber, base, exact).entries] == want
    assert len(enumerate_fibrations(fiber, base, [2])) == len(want)


def test_enumeration_widened_coefficients():
    cat = enumerate_fibrations(
        odd_fiber(3, 3, 3, 3), qt_base(), coeff_set=(0, 1, -1), require_finite=True
    )
    # sign changes never change the realized subspace here
    dims = {sub.dim for sub in cat.realized_subspaces().values()}
    assert dims == {4}


COEFF_SETS = ((0, 1), (0, 1, -1), (0, 2), (0, Fraction(1, 2)))


def enumeration_slots(fiber, base):
    """The slots (name of w, m) an enumeration over this base twists."""
    trivial = trivial_fibration(fiber, base)
    return [
        (w.name, mono)
        for w in fiber.gens
        for mono in basis_in_degree(trivial.total.gens, w.degree + 1)
        if any(i < trivial.base_size for i, _ in mono.exponents)
    ]


def brute_force(fiber, base, coeff_set, most=300):
    """The enumeration by construction: every candidate is built as a
    RelativeModel, and NotClosed rejects it.  Returns (entries, number of
    candidates), or None when there are more than ``most`` candidates."""
    trivial = trivial_fibration(fiber, base)
    combined = trivial.total.gens
    slots = enumeration_slots(fiber, base)
    coeffs = sorted({Fraction(0), *map(Fraction, coeff_set)}, key=lambda c: (c != 0, c))
    if len(coeffs) ** len(slots) > most:
        return None
    out = []
    for assignment in itertools.product(coeffs, repeat=len(slots)):
        diff = {w.name: diff_of(trivial.total, w.name) for w in fiber.gens}
        added = []
        for (name, mono), c in zip(slots, assignment):
            if c:
                diff[name] = diff[name] + AlgElement.monomial(combined, mono, c)
                coeff = "" if c == 1 else f"{c}*"
                added.append(f"D{name}+={coeff}{mono.format(combined)}")
        key = "; ".join(added) if added else "trivial"
        try:
            entry = RelativeModel(
                base, fiber.gens, diff, fiber_diff=dict(fiber.diff), name=key, bound=fiber.bound
            )
        except NotClosed:
            continue
        out.append((key, entry))
    return out, len(coeffs) ** len(slots)


def test_enumeration_matches_brute_force():
    # D.D = 0 decided from per-slot terms keeps exactly the candidates that
    # construct, in the same order and with the same models
    fibers = [load("fiber-3-3-3-3.smf")[0], load("fiber-3-5-9-17.smf")[0]]
    # 25 seeded random fibers; about one in six has a differential, so
    # twelve of those are drawn on purpose
    rng = random.Random(13)
    spaces = [random_space(rng, 4, 8) for _ in range(100)]
    fibers += [f for f in spaces if f.diff][:12] + [f for f in spaces if not f.diff][:13]
    ran, rejected = Counter(), 0
    for fiber in fibers:
        for base in (qt_base(), s2_base()):
            for coeff_set in COEFF_SETS:
                oracle = brute_force(fiber, base, coeff_set)
                if oracle is None:
                    continue  # the brute force would take too long
                want, candidates = oracle
                got = enumerate_fibrations(fiber, base, coeff_set).entries
                assert [k for k, _ in got] == [k for k, _ in want], (fiber.name, base.name, coeff_set)
                for (key, a), (_, b) in zip(got, want):
                    assert a.serialize() == b.serialize(), key
                ran[base.name, coeff_set] += 1
                rejected += candidates - len(want)
    # every base and coefficient set ran on several fibers, and most
    # candidates were rejected
    assert len(ran) == 2 * len(COEFF_SETS) and min(ran.values()) >= 5, ran
    assert rejected > 4000


def test_enumeration_builds_only_closed_candidates(monkeypatch, built_key_lists):
    fiber, base = load("fiber-3-5-9-17.smf")[0], qt_base()
    closed = len(enumerate_fibrations(fiber, base).entries)
    built, bases = [], built_key_lists
    bases.clear()  # count the gated enumeration's key lists alone
    real_assemble = rht.model.RelativeModel._assemble  # every RelativeModel, given or packed

    def counting_assemble(self, *args, **kwargs):
        built.append(self)
        return real_assemble(self, *args, **kwargs)

    monkeypatch.setattr(rht.model.RelativeModel, "_assemble", counting_assemble)
    cat = enumerate_fibrations(fiber, base, require_finite=True)
    cat.realized_subspaces()
    # the trivial fibration alone: a closed candidate stays its vector
    assert len(built) == 1 and 0 < len(cat) < closed < 2**8
    # the first read of entries builds each kept entry once
    assert cat.entries is cat.entries and len(built) == 1 + len(cat)
    # every entry shares one generator set, and so each of its degree bases
    totals = {id(entry.total.gens) for _, entry in cat.entries}
    assert len(totals) == 1
    gens = cat.entries[0][1].total.gens
    per_degree = Counter(n for g, n in bases if g == gens)
    assert per_degree and max(per_degree.values()) == 1, per_degree


def test_enumerated_entries_match_brute_force_once_read():
    # the benchmark's fibres over qt, gated and not: an enumerated catalog
    # keeps vectors, realizes them as the oracle does, and its entries are,
    # once read, the RelativeModels the construction keeps
    base = load("base-qt.smf")[0]
    for name in ("fiber-3-5-9-17.smf", "fiber-3-3-3-3.smf"):
        fiber = load(name)[0]
        want, _ = brute_force(fiber, base, (0, 1))
        finite = [(key, entry) for key, entry in want if finiteness_window(entry)[0]]
        assert 0 < len(finite) <= len(want)
        for gate, kept in ((False, want), (True, finite)):
            cat = enumerate_fibrations(fiber, base, (0, 1), require_finite=gate)
            assert len(cat) == len(kept) and cat._entries is None
            realized = cat.realized_subspaces()
            assert realized == {key: fibre_gottlieb(entry).total() for key, entry in kept}
            got = cat.entries
            assert got is cat.entries and [k for k, _ in got] == [k for k, _ in kept]
            for (key, a), (_, b) in zip(got, kept):
                assert isinstance(a, RelativeModel) and a.serialize() == b.serialize(), key
                assert a.fiber.gens == fiber.gens and a.fiber.diff == fiber.diff, key
            assert cat.realized_subspaces() == realized


def test_closure_search_matches_brute_force_where_it_prunes():
    # with {0, 1, -1} most of the 3^8 assignments are cut off before their
    # last slot; the closed ones still come out as the construction keeps them
    fiber, base = load("fiber-3-5-9-17.smf")[0], qt_base()
    want, candidates = brute_force(fiber, base, (0, 1, -1), most=7000)
    got = enumerate_fibrations(fiber, base, (0, 1, -1)).entries
    assert candidates == 3**8 and len(want) == 513
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, a), (_, b) in zip(got, want):
        assert a.serialize() == b.serialize(), key


def test_closure_search_visits_few_nodes(monkeypatch):
    fiber, base = load("fiber-3-5-9-17.smf")[0], qt_base()
    visits, real_visit = [], rht.catalog._visit

    def counting_visit(search, u, c):
        added = real_visit(search, u, c)
        visits.append((u, c, added is not None))
        return added

    monkeypatch.setattr(rht.catalog, "_visit", counting_visit)
    # 2^8 and 3^8 assignments: each slot is tried once per coefficient below
    # every node the search keeps, and nothing more
    for coeff_set, nodes, closed in (((0, 1), 266, 58), ((0, 1, -1), 2568, 513)):
        visits.clear()
        assert len(enumerate_fibrations(fiber, base, coeff_set).entries) == closed
        assert len(visits) == nodes, (coeff_set, len(visits))
        # each closed candidate is a kept node at the last of the 8 slots
        assert sum(u == 7 and kept for u, _, kept in visits) == closed
    # integral coefficients and pieces are summed in ints, others in Fractions
    for coeff_set, kind in (((0, 2), int), ((0, Fraction(1, 2)), Fraction)):
        visits.clear()
        enumerate_fibrations(fiber, base, coeff_set)
        assert {type(c) for _, c, _ in visits} == {kind}, coeff_set


# ----------------------------------------------------------------------
# realized subspaces from one twisted complex per base


def assert_realized_matches_oracle(cat):
    """realized_subspaces() is fibre_gottlieb(entry).total() for every entry,
    of the catalog and of a catalog of its entries, also reversed, so that
    another entry comes first; returns the number of distinct subspaces."""
    want = {key: fibre_gottlieb(entry).total() for key, entry in cat.entries}
    for c in (cat, Catalog(cat.fiber, cat.entries), Catalog(cat.fiber, cat.entries[::-1])):
        got = c.realized_subspaces()
        assert list(got) == [key for key, _ in c.entries]
        for key in want:
            assert got[key] == want[key], key
    return len(set(want.values()))


def benchmark_enumerations():
    """The benchmark's enumerations over qt: E1 and E2 gated, E3 not."""
    base = load("base-qt.smf")[0]
    return [
        enumerate_fibrations(load(name)[0], base, (0, 1), require_finite=gate)
        for name, gate in (
            ("fiber-3-5-9-17.smf", True), ("fiber-3-3-3-3.smf", True), ("fiber-3-5-9-17.smf", False)
        )
    ]


def test_validation_and_brackets_unpack_no_key(monkeypatch):
    # a model packs the d it is given once and reads only keys after: no key
    # is unpacked while every fixture is parsed, its fibrations included,
    # while the entries of E1-E3 are built from packed terms and their
    # totals validated again, nor while every fixture's boundaries are
    # bracketed in each scope
    texts, enumerations = fixture_texts(), benchmark_enumerations()  # ids print their slots
    unpacked, real = [], GenSet.unpack

    def counting(gens, key):
        unpacked.append(key)
        return real(gens, key)

    monkeypatch.setattr(GenSet, "unpack", counting)
    documents = [parse_document(text) for text in texts]
    totals = [entry.total for cat in enumerations for _, entry in cat.entries]
    for t in totals:
        t.validate()
    brackets = 0
    for m in (m for models in documents for m in models):
        for scope in (ABSOLUTE, RELATIVE, IDEAL) if isinstance(m, RelativeModel) else (ABSOLUTE,):
            cx = DerComplex(m, scope)
            for n in range(1, top_shift(m) + 2):
                brackets += cx.boundary(n).cols
    assert len(totals) > 50 and len(spaces_of(m for models in documents for m in models)) > 30
    assert sum(isinstance(m, RelativeModel) for models in documents for m in models) > 5
    assert brackets > 1000 and not unpacked


def test_realized_subspaces_match_fibre_gottlieb():
    rng = random.Random(14)
    spaces = [random_space(rng, 4, 8) for _ in range(60)]
    fibers = [load("fiber-3-5-9-17.smf")[0]]
    fibers += [f for f in spaces if f.diff][:6] + [f for f in spaces if not f.diff][:6]
    ran, varied = Counter(), 0
    for fiber in fibers:
        for base in (qt_base(), s2_base()):
            for coeff_set in ((0, 1), (0, 1, -1), (0, Fraction(1, 2))):
                coeffs = len(set(coeff_set))
                if coeffs ** len(enumeration_slots(fiber, base)) > 300:
                    continue
                cat = enumerate_fibrations(fiber, base, coeff_set)
                varied += assert_realized_matches_oracle(cat) > 1
                ran[base.name, coeff_set] += 1
    # every base and coefficient set ran on several fibers, and many
    # catalogs realize more than one subspace
    assert len(ran) == 6 and min(ran.values()) >= 3, ran
    assert varied >= 10, varied
    # file catalogs, each over one base
    for name in ("ex47.smf", "wedge.smf"):
        fibs = load(name)
        assert assert_realized_matches_oracle(Catalog(fibs[0].fiber, [(f.name, f) for f in fibs])) == 3
    # a catalog mixing two bases, their entries interleaved
    fiber = odd_fiber(3, 5, 7, 9)
    over_qt = [(f"qt {key}", f) for key, f in enumerate_fibrations(fiber, qt_base(), (0, 1, -1)).entries]
    over_s2 = [(f"s2 {key}", f) for key, f in enumerate_fibrations(fiber, s2_base()).entries]
    mixed = [kv for pair in itertools.zip_longest(over_qt, over_s2) for kv in pair if kv]
    assert len(over_qt) > 50 and len(over_s2) > 20
    assert assert_realized_matches_oracle(Catalog(fiber, mixed)) > 1
    # the gated enumerations, whose first entry is a twist, not the trivial fibration
    for cat in benchmark_enumerations()[:2]:
        assert cat.entries[0][0] != "trivial"
        assert_realized_matches_oracle(cat)


BOUNDED = """
[fibration NAME]
[base]
gen t 2
bound BOUND
[fiber]
gen w1 3
gen w2 11
[total]
D w2 = t^6
"""


def low_and_high():
    """One fibration over equal bases under two bounds; the slices of the
    low one pass its bound."""
    return [
        parse_fibration(BOUNDED.replace("NAME", name).replace("BOUND", bound))
        for name, bound in (("low", "8"), ("high", "30"))
    ]


TWO_BASES = """
[fibration NAME]
[base]
gen t 2
gen s 3
DS
[fiber]
gen x 3
gen y 7
[total]
D x = t^2
D y = t^4
"""


def test_realized_subspaces_raise_what_fibre_gottlieb_raises():
    def outcome(call):
        try:
            return call()
        except RhtError as exc:
            return type(exc), str(exc)

    def oracle(cat):
        return {key: fibre_gottlieb(entry).total() for key, entry in cat.entries}

    # a non-minimal fibre: evaluation does not kill the boundaries
    gens = GenSet([("y", 3), ("x", 4)])
    fiber = SullivanModel(gens, {"y": AlgElement.monomial(gens, Monomial(((1, 1),)))}, name="pair")
    catalogs = [enumerate_fibrations(fiber, qt_base())]
    # equal bases under two bounds: the entries form two groups
    low, high = low_and_high()
    for entries in ([high], [high, low], [low, high]):
        catalogs.append(Catalog(low.fiber, [(f.name, f) for f in entries]))
    kinds = []
    for cat in catalogs:
        got = outcome(cat.realized_subspaces)
        assert got == outcome(lambda: oracle(cat))
        kinds.append(got[0] if isinstance(got, tuple) else type(got))
    assert kinds == [NotAComplex, dict, BoundExceeded, BoundExceeded]


def test_evaluation_kills_every_twist_bracket():
    # realized_subspaces keys the image at shift n by the terms at n alone and
    # checks evaluation against delta_T^{n+1} of the trivial fibration T of the
    # group, for evaluation(n) kills every B_s^{n+1} = [theta_s, -]: its values
    # lie in the base ideal
    catalogs = benchmark_enumerations()
    for name in ("ex47.smf", "wedge.smf"):
        fibs = load(name)
        catalogs.append(Catalog(fibs[0].fiber, [(f.name, f) for f in fibs]))
    checked = Counter()
    for i, cat in enumerate(catalogs):
        first = cat.entries[0][1]
        twist = rht.catalog._Twist(cat.fiber, first.base, first.bound)
        slots = set()
        for _, entry in cat.entries:  # each entry twists T: the same base value and bound
            assert (entry.base._value, entry.bound) == (first.base._value, first.bound)
            slots.update(twist.read(entry))
        for n, _ in twist.frames:
            for s in slots:
                part = twist.cx.bracket(n + 1, {s[0]: ((s[1], 1),)})
                if not part.is_zero():
                    assert not any(product(evaluation_matrix(twist.cx, n), part)), (i, n)
                    checked[i] += 1
    # E2's fibre has one degree, and wedge's brackets vanish one shift above
    # each of its frames: only E1, E3 and ex47 have brackets to check
    assert sorted(checked) == [0, 2, 3], checked


def test_realized_subspaces_build_each_part_once(monkeypatch, su4_fixtures):
    # fiber-3-5-9-17 over qt, ungated and gated, both read over the trivial
    # fibration: one complex for its one base, each bracket [E, -] built
    # once, and each image once per distinct d_out at its shift (before
    # _Twist, the ungated one built 58 complexes and 232 images)
    ungated, gated = (benchmark_enumerations()[i] for i in (2, 0))
    # given catalogs: one relative complex per distinct base and bound
    given = []
    for name in ("ex47.smf", "wedge.smf"):
        fibs = load(name)
        given.append((Catalog(fibs[0].fiber, [(f.name, f) for f in fibs]), 1))
    su4 = list(su4_fixtures.items())  # circle and trivial over qt, torus over three t
    given += [(Catalog(su4[0][1].fiber, entries), 2) for entries in (su4, su4[::-1])]
    # one fibre twisted alike over two bases of one layout that differ in d alone: two groups
    two = [
        (n, parse_fibration(TWO_BASES.replace("NAME", n).replace("DS", ds)))
        for n, ds in (("exact", "d s = t^2"), ("free", ""))
    ]
    given.append((Catalog(two[0][1].fiber, two), 2))
    low, high = low_and_high()
    bounded = Catalog(low.fiber, [("high", high), ("low", low)])
    complexes, brackets, images = [], Counter(), []
    real_init, real_bracket = rht.derivations.DerComplex.__init__, rht.derivations.DerComplex.bracket
    real_image = rht.catalog._image_on_cycles

    def counting_init(self, *args, **kwargs):
        complexes.append(self)
        real_init(self, *args, **kwargs)

    def counting_bracket(self, n, images):
        brackets[id(self), n, tuple(sorted(images.items()))] += 1
        return real_bracket(self, n, images)

    def counting_image(positions, rows, frame):
        d_out = tuple(tuple(sorted(r.items())) for r in rows)
        images.append((tuple(frame), tuple(positions), d_out))
        return real_image(positions, rows, frame)

    monkeypatch.setattr(rht.derivations.DerComplex, "__init__", counting_init)
    monkeypatch.setattr(rht.derivations.DerComplex, "bracket", counting_bracket)
    monkeypatch.setattr(rht.catalog, "_image_on_cycles", counting_image)
    for cat, size in ((ungated, 58), (gated, 42)):
        for counted in (complexes, brackets, images):
            counted.clear()
        subspaces = cat.realized_subspaces()
        assert len(subspaces) == len(cat.entries) == size
        assert len(complexes) == 1
        assert brackets and max(brackets.values()) == 1, brackets.most_common(3)
        assert len(images) == len(set(images)) <= 68, len(images)
    for cat, groups in [*given, (bounded, 2)]:
        for counted in (complexes, brackets, images):
            counted.clear()
        if cat is bounded:  # the high group first, then the low one raises
            with pytest.raises(BoundExceeded):
                cat.realized_subspaces()
        else:
            assert len(cat.realized_subspaces()) == len(cat)
        assert len(complexes) == groups and {cx.scope for cx in complexes} == {rht.derivations.RELATIVE}
        assert brackets and max(brackets.values()) == 1, brackets.most_common(3)


def test_realization_checks_evaluation_once_per_shift(monkeypatch):
    # fiber-3-5-9-17 over qt, ungated and gated: one twist with four frame
    # degrees, so evaluation and its check against delta_T^{n+1} run once per
    # frame degree and delta_T^n's rows are read once, for the 68 distinct
    # images each one needs (the check once ran per image)
    ungated, gated = (benchmark_enumerations()[i] for i in (2, 0))
    complexes, evaluations, scans, images, read = [], [], [], [], Counter()
    real_init, real_evaluation = DerComplex.__init__, DerComplex.evaluation
    real_scan, real_image, real_rows = (
        rht.catalog._evaluation_shift, rht.catalog._image_on_cycles, RatMatrix.row_lines
    )

    def counting_init(self, *args, **kwargs):
        complexes.append(self)
        real_init(self, *args, **kwargs)

    def counting_evaluation(self, n):
        evaluations.append((self, n))
        return real_evaluation(self, n)

    def counting_scan(cx, n):
        scans.append((cx, n))
        return real_scan(cx, n)

    def counting_image(positions, rows, frame):
        images.append(frame)
        return real_image(positions, rows, frame)

    def counting_rows(self):
        read[id(self)] += 1
        return real_rows(self)

    monkeypatch.setattr(DerComplex, "__init__", counting_init)
    monkeypatch.setattr(DerComplex, "evaluation", counting_evaluation)
    monkeypatch.setattr(rht.catalog, "_evaluation_shift", counting_scan)
    monkeypatch.setattr(rht.catalog, "_image_on_cycles", counting_image)
    monkeypatch.setattr(RatMatrix, "row_lines", counting_rows)
    for cat in (ungated, gated):
        for counted in (complexes, evaluations, scans, images, read):
            counted.clear()
        for _ in range(2):  # a second pass builds nothing again
            assert len(cat.realized_subspaces()) == len(cat.entries)
        (cx,) = complexes
        shifts = [(cx, n) for n in frame_degrees(cat.fiber, top_shift(cat.fiber))]
        assert len(shifts) == 4 and evaluations == scans == shifts, (evaluations, scans)
        assert all(read[id(cx.boundary(n))] == 1 for _, n in shifts), read
        assert len(images) == 68, len(images)


def test_realization_builds_one_total_per_image_value(monkeypatch):
    # E3 (fiber-3-5-9-17 over qt, ungated): its 68 images take 7 values and
    # its 58 entries realize 5 subspaces.  Each image is kept once per value,
    # so a total is built once per distinct tuple of image values, 5 (29 when
    # totals were keyed by image objects), and equal subspaces are one object
    cat = benchmark_enumerations()[2]
    totals, images = [], []
    real_total, real_image = GottliebResult.total, rht.catalog._image_on_cycles

    def counting_total(self):
        totals.append(self)
        return real_total(self)

    def counting_image(positions, rows, frame):
        images.append(real_image(positions, rows, frame))
        return images[-1]

    monkeypatch.setattr(GottliebResult, "total", counting_total)
    monkeypatch.setattr(rht.catalog, "_image_on_cycles", counting_image)
    realized = cat.realized_subspaces()
    assert len(realized) == len(cat) == 58
    assert len(images) == 68 and len(set(images)) == 7
    assert len(totals) == len(set(realized.values())) == 5, len(totals)
    assert len({id(s) for s in realized.values()}) == 5
    # the totals read the images kept, one object per value
    assert len({id(s) for t in totals for s in t.per_degree.values()}) == len(set(images))
    totals.clear()
    assert cat.realized_subspaces() == realized and not totals


def test_enumerated_images_match_kernel_then_project(monkeypatch):
    # every image the benchmark's enumerations compute equals the reference,
    # a kernel vector of d_out per free column moved through evaluation
    real_image, checked = rht.catalog._image_on_cycles, []

    def checked_image(positions, rows, frame):
        image = real_image(positions, rows, frame)
        cols = len(positions)  # each kept pair j sits at cols + evaluation[j]
        evaluation = [None if p < cols else p - cols for p in positions]
        columns = [{r: row[j] for r, row in enumerate(rows) if j in row} for j in range(cols)]
        d_out = RatMatrix(len(rows), columns)
        assert image == image_by_projection(evaluation, d_out, frame), (frame, d_out)
        checked.append(image.dim)
        return image

    monkeypatch.setattr(rht.catalog, "_image_on_cycles", checked_image)
    for cat in benchmark_enumerations():
        assert len(cat.realized_subspaces()) == len(cat.entries)
    assert len(checked) >= 50 and any(checked) and not all(checked), checked


def test_given_entries_read_back_the_enumerated_coefficients():
    # a catalog of an enumeration's entries reads, per id, the slot
    # coefficients the enumeration kept, over one trivial fibration
    rng = random.Random(15)
    spaces = [random_space(rng, 4, 8) for _ in range(60)]
    catalogs = benchmark_enumerations()
    for fiber in [f for f in spaces if f.diff][:6] + [f for f in spaces if not f.diff][:6]:
        for base in (qt_base(), s2_base()):
            if 3 ** len(enumeration_slots(fiber, base)) <= 300:
                catalogs.append(enumerate_fibrations(fiber, base, (0, 1, -1)))
    assert len(catalogs) >= 12
    twisted = 0
    for cat in catalogs:
        kept = [(key, c) for key, _, c in cat._twists]
        given = Catalog(cat.fiber, cat.entries)
        assert [(key, c) for key, _, c in given._twists] == kept
        assert len({id(twist) for _, twist, _ in given._twists}) == 1
        twisted += sum(len(c) > 1 for _, c in kept)
    # many entries twist more than one slot
    assert twisted > 100, twisted


def test_pure_quotient_bases_are_built_once_per_enumeration(built_key_lists):
    # gated fiber-3-5-9-17 over qt: every candidate's total shares one
    # GenSet, and so one pure quotient set and each of its key lists (a
    # quotient set per candidate once built 145 bases for 25)
    fiber, base = load("fiber-3-5-9-17.smf")[0], qt_base()
    built = built_key_lists
    cat = enumerate_fibrations(fiber, base, require_finite=True)
    quotient = cat.entries[0][1].total.gens.even()
    pure = Counter(n for gens, n in built if gens is quotient)
    assert pure and max(pure.values()) == 1, pure
    # no other set of even generators had a basis built
    others = {id(g) for g, _ in built if g is not quotient and all(not x.is_odd for x in g)}
    assert not others
    assert Counter((id(g), n) for g, n in built).most_common(1)[0][1] == 1
