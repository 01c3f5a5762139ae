"""Gottlieb-type invariants on the worked fixtures."""

import os
import random
import subprocess
from collections import Counter
from fractions import Fraction
import sys
from pathlib import Path

import pytest

import rht
import rht.catalog
import rht.cli
import rht.invariants
import rht.linalg
import rht.model

from rht import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    Cochains,
    Echelon,
    GenSet,
    HomologySlice,
    Monomial,
    RatMatrix,
    RelativeModel,
    SullivanModel,
    Subspace,
    basis_in_degree,
    cohomology,
    connecting_images,
    depth_of_subspaces,
    enumerate_fibrations,
    fibre_gottlieb,
    finiteness_window,
    gottlieb,
    les_check,
    parse_document,
    parse_model,
    toral_certificate,
    trivial_fibration,
)
from rht.catalog import Catalog
from rht.derivations import ComplexSlice, DerComplex, dual_frame
from rht.errors import (
    BaseNotDegreeTwo,
    BoundExceeded,
    FiberMismatch,
    NotAComplex,
    NotFiniteAtBound,
)
from rht.invariants import _pure_quotient_vanishes, top_shift
from rht.model import formal_dimension_estimate, parse_expression

from conftest import (
    FIXTURES,
    image_by_projection,
    les_by_coordinates,
    load,
    random_fibration,
    random_pure_elliptic,
    random_space,
)

CP3 = Path(__file__).parent.parent / "perfbench" / "cp3.smf"

# random fibrations the inclusion and product tests read at seed 11
INCLUSION_DRAWS = 40


def fixture_models():
    """Every model of every well-formed fixture file, and cp3.smf."""
    paths = [p for p in sorted(FIXTURES.glob("*.smf")) if p.name != "bad-degree.smf"]
    return [m for p in paths + [CP3] for m in parse_document(p.read_text())]


def total_of(m):
    return m.total if isinstance(m, RelativeModel) else m


def degree_two_base(m):
    return isinstance(m, RelativeModel) and all(g.degree == 2 for g in m.base.gens)


# ----------------------------------------------------------------------
# derivation homology of the S3 x S5 x S7 x S9 model


SU5_ABSOLUTE_DIMS = {1: 1, 2: 3, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 0, 9: 1}

SU5_ABSOLUTE_REPS = {
    1: [("v4", [("v1", 1), ("v2", 1)])],
    2: [("v4", [("v3", 1)]), ("v3", [("v2", 1)]), ("v2", [("v1", 1)])],
    3: [("v1", [])],
    4: [("v3", [("v1", 1)]), ("v4", [("v2", 1)])],
    5: [("v2", [])],
    6: [("v4", [("v1", 1)])],
    7: [("v3", [])],
    8: [],
    9: [("v4", [])],
}


def pair_vector(m, n, scope, gen_name, mono_factors):
    """Sparse coordinate vector of the derivation (gen, monomial) in the slice basis."""
    basis = DerComplex(m, scope).slice(n)
    gens = basis.value_gens
    mono = Monomial(tuple((gens.get(g).index, e) for g, e in mono_factors))
    return {basis.index[(gens.get(gen_name).index, gens.pack(mono.exponents))]: 1}


def test_absolute_der_homology_dims(su5):
    cx = DerComplex(su5, ABSOLUTE)
    dims = {n: cx.homology(n).dim for n in range(1, 10)}
    assert dims == SU5_ABSOLUTE_DIMS


def test_absolute_der_homology_representatives(su5):
    # the listed (generator, monomial) pairs are cycles and span each H_n
    cx = DerComplex(su5, ABSOLUTE)
    for n, listed in SU5_ABSOLUTE_REPS.items():
        h = cx.homology(n)
        delta = cx.boundary(n)
        vectors = []
        for gen_name, mono_factors in listed:
            vec = pair_vector(su5, n, ABSOLUTE, gen_name, mono_factors)
            assert delta.apply(vec) == {}, (n, gen_name)
            vectors.append(vec)
        assert h.classes(vectors, f"H_{n}").rank == h.dim == len(listed)


SU5_RELATIVE_DIMS = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0, 9: 1}


def test_relative_der_homology_dims(su5_bundle):
    cx = DerComplex(su5_bundle, RELATIVE)
    dims = {n: cx.homology(n).dim for n in range(1, 10)}
    assert dims == SU5_RELATIVE_DIMS


def test_relative_surviving_classes(su5_bundle):
    # (v4, v3) survives at shift 2 and (v_i, 1) at each generator degree
    cx = DerComplex(su5_bundle, RELATIVE)
    h2 = cx.homology(2)
    vec = pair_vector(su5_bundle, 2, RELATIVE, "v4", [("v3", 1)])
    assert h2.classes([vec], "H_2").rank == 1
    for n, gen_name in ((3, "v1"), (5, "v2"), (7, "v3"), (9, "v4")):
        h = cx.homology(n)
        assert h.dim == 1
        assert h.classes([pair_vector(su5_bundle, n, RELATIVE, gen_name, [])], f"H_{n}").rank == 1


# ----------------------------------------------------------------------
# Gottlieb groups


def test_gottlieb_of_odd_product(su5):
    g = gottlieb(su5)
    assert g.dims() == {3: 1, 5: 1, 7: 1, 9: 1}
    assert g.total().basis_labels() == ["v1*", "v2*", "v3*", "v4*"]


def test_fibre_gottlieb_of_su5_bundle(su5_bundle):
    g = fibre_gottlieb(su5_bundle)
    assert g.total().basis_labels() == ["v1*", "v2*", "v3*", "v4*"]


def test_gottlieb_of_twisted_product(ex44):
    g = gottlieb(ex44)
    assert g.total().basis_labels() == ["w1*", "w2*", "w4*"]
    assert g.dims() == {3: 2, 7: 1}


def test_fibre_gottlieb_of_two_sphere_twist(ex44):
    assert fibre_gottlieb(ex44).total().basis_labels() == ["w4*"]


def test_fibre_gottlieb_chain(ex47):
    assert fibre_gottlieb(ex47["tpower"]).total().basis_labels() == ["w1*", "w2*", "w3*", "w4*"]
    assert fibre_gottlieb(ex47["first"]).total().basis_labels() == ["w3*", "w4*"]
    assert fibre_gottlieb(ex47["second"]).total().basis_labels() == ["w4*"]


def test_gottlieb_even_degrees_vanish_on_elliptic_fixtures(su5, ex44, ex47):
    for m in (su5, ex44, ex47["first"]):
        g = gottlieb(m)
        for n, sub in g.per_degree.items():
            if n % 2 == 0:
                assert sub.dim == 0, n


def test_trivial_fibration_gottlieb_equality(su5, ex44):
    # over Q[t] and over CP^2's model, on the fixtures and on the fibres of
    # random fibrations, whose generators g0... are named apart from the base's
    bases = [
        parse_model("[space qt]\ngen t 2"),
        parse_model("[space cp2]\ngen t 2\ngen u 5\nd u = t^3"),
    ]
    rng = random.Random(11)
    fibres = [su5, ex44.fiber] + [random_fibration(rng).fiber for _ in range(INCLUSION_DRAWS)]
    checked = 0
    for base in bases:
        for m in fibres:
            fg = fibre_gottlieb(trivial_fibration(m, base))
            g = gottlieb(m)
            for n in set(fg.per_degree) | set(g.per_degree):
                assert fg.degree(n) == g.degree(n), (base.name, m.serialize(), n)
                checked += 1
    assert checked >= 200, checked


def test_images_match_kernel_then_project():
    # the image read off one echelon of d_out equals the reference, a kernel
    # vector of d_out per free column moved through evaluation, in the
    # absolute and the relative scope, on every fixture and on random models
    rng = random.Random(3)
    models = fixture_models() + [random_pure_elliptic(rng) for _ in range(20)]
    models += [random_space(rng) for _ in range(30)] + [random_fibration(rng) for _ in range(30)]
    checked = 0
    for m in models:
        scopes = [(gottlieb, ABSOLUTE)]
        if isinstance(m, RelativeModel):
            scopes.append((fibre_gottlieb, RELATIVE))
        for invariant, scope in scopes:
            cx = DerComplex(m, scope)
            for n, image in invariant(m).per_degree.items():
                frame = dual_frame(m.fiber, n)
                assert image == image_by_projection(cx.evaluation(n), cx.boundary(n), frame), (
                    m.serialize(), scope, n
                )
                checked += 1
    assert checked >= 300, checked


def test_top_degree_equality(su5_bundle, ex44, ex47):
    for f in (su5_bundle, ex44, ex47["first"], ex47["second"]):
        top = max(g.degree for g in f.fiber.gens)
        assert fibre_gottlieb(f).degree(top) == gottlieb(f).degree(top)


# ----------------------------------------------------------------------
# connecting images


def test_connecting_image_of_linear_part(su5_bundle):
    # D v1 = t1 and D v2 = t2 are linear, v3 and v4 are untouched
    images = connecting_images(su5_bundle)
    assert images[3].basis_labels() == ["v1*"]
    assert images[5].basis_labels() == ["v2*"]
    assert images[7].dim == 0
    assert images[9].dim == 0


def test_connecting_contained_in_fibre_gottlieb(su5_bundle, ex44, ex47):
    for f in [su5_bundle, ex44] + list(ex47.values()):
        fg = fibre_gottlieb(f)
        for n, sub in connecting_images(f).items():
            assert fg.degree(n).includes(sub), (f.name, n)


def test_fibre_gottlieb_contained_in_gottlieb(su5_bundle, ex44, ex47):
    # G^xi_*(X) lies in G_*(X) for every fibration, random ones too
    rng = random.Random(11)
    fibrations = [random_fibration(rng) for _ in range(INCLUSION_DRAWS)]
    checked = 0
    for f in [su5_bundle, ex44] + list(ex47.values()) + fibrations:
        g = gottlieb(f)
        fg = fibre_gottlieb(f)
        for n in fg.per_degree:
            assert g.degree(n).includes(fg.degree(n)), (f.serialize(), n)
            checked += 1
    assert checked >= 100, checked


# ----------------------------------------------------------------------
# long exact sequence


def test_les_exact_on_su5_bundle(su5_bundle):
    report = les_check(su5_bundle, range(1, 10))
    assert report.chain_level_ok
    assert report.exact, [nd for nd in report.nodes if not nd.exact]


def test_les_exact_on_two_sphere_twist(ex44):
    report = les_check(ex44, range(1, 8))
    assert report.exact, [nd for nd in report.nodes if not nd.exact]


def test_les_rejects_bad_degrees(su5_bundle):
    with pytest.raises(ValueError):
        les_check(su5_bundle, [0, 1])
    with pytest.raises(ValueError, match="at least one degree"):
        les_check(su5_bundle, [])


def test_les_reports_each_node_once(su5_bundle):
    # a degree given twice names its nodes once, as when given once
    def nodes(degrees):
        return [vars(nd) for nd in les_check(su5_bundle, degrees).nodes]

    assert nodes([2, 2]) == nodes([2])
    assert [nd["node"] for nd in nodes([2, 2])] == ["H_2(relative)", "H_2(ideal)", "H_2(absolute)"]
    assert nodes([3, 1, 3]) == nodes([1, 3])


def test_each_slice_is_built_once_per_call(ex47, monkeypatch):
    built = []
    real_init = ComplexSlice.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append((self.scope, self.degree))

    monkeypatch.setattr(ComplexSlice, "__init__", counting_init)
    for f in ex47.values():
        calls = {
            "les_check": lambda: les_check(f, range(1, top_shift(f) + 1)),
            "gottlieb": lambda: gottlieb(f),
            "fibre_gottlieb": lambda: fibre_gottlieb(f),
        }
        for name, call in calls.items():
            built.clear()
            call()
            repeats = {key: k for key, k in Counter(built).items() if k > 1}
            assert built and not repeats, (f.name, name, repeats)


def test_les_check_ranks_each_map_once(ex47, monkeypatch):
    # each homology slice is the source of one map and the target of one:
    # its cycles are read once, for the image of the map out of it, and it
    # takes at most two classes calls, that image of the map into it and
    # the composite at the node before it, which a zero image skips
    read, sent = [], []
    real_cycles, real_classes = HomologySlice.cycles, HomologySlice.classes

    def recording_cycles(self):
        read.append(self)
        return real_cycles.fget(self)

    def recording_classes(self, vectors, where):
        sent.append(self)
        return real_classes(self, vectors, where)

    monkeypatch.setattr(HomologySlice, "cycles", property(recording_cycles))
    monkeypatch.setattr(HomologySlice, "classes", recording_classes)
    for f in ex47.values():
        read.clear()
        sent.clear()
        report = les_check(f, range(1, top_shift(f) + 1))
        assert report.exact and read, f.name
        # the lists keep every slice alive, so equal ids mean one object
        assert max(Counter(map(id, read)).values()) == 1, f.name
        assert max(Counter(map(id, sent)).values()) == 2, f.name
        assert len(sent) == len(read) + sum(nd.rank_in > 0 for nd in report.nodes), f.name


def test_les_check_matches_the_coordinate_reference(monkeypatch):
    # the nodes equal those of the coordinate path: representatives, class
    # coordinates, an induced matrix per map, its rank and out . in as a
    # product; on every fixture fibration, random draws and the benchmark's
    # random family at two seeds
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import randfib

    rng = random.Random(38)
    fibrations = [m for m in fixture_models() if isinstance(m, RelativeModel)]
    fibrations += [random_fibration(rng, 5) for _ in range(40)]
    for seed in (1, 7):
        fibrations += randfib.random_family(rht, seed, 15, 5, 11)
    for f in fibrations:
        degrees = range(1, top_shift(f) + 1)
        assert les_check(f, degrees) == les_by_coordinates(f, degrees), f.serialize()


def test_les_check_names_the_node_of_an_image_that_is_no_cycle(ex47, monkeypatch, capsys):
    # a restriction that swaps two kept pairs of slice 2 is still a bijection
    # onto the absolute pairs, but sends a relative cycle to a chain that is
    # no cycle; the CLI prints one line and exits 2
    real_positions = DerComplex.positions

    def swapping(self, other, n):
        pos = real_positions(self, other, n)
        if (self.scope, other.scope, n) == (RELATIVE, ABSOLUTE, 2):
            i, j = [k for k, a in enumerate(pos) if a is not None][:2]
            pos[i], pos[j] = pos[j], pos[i]
        return pos

    monkeypatch.setattr(DerComplex, "positions", swapping)
    with pytest.raises(NotAComplex, match=r"^a vector sent to H_2\(absolute\) is not a cycle$"):
        les_check(ex47["tpower"], [2])
    code = rht.cli.main(["les-check", str(FIXTURES / "ex47.smf"), "--degrees", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "NotAComplex: a vector sent to H_2(absolute) is not a cycle\n"


def test_les_check_catches_a_misplaced_pair(ex47, monkeypatch, capsys):
    # with nodes in degrees 2..3 the slices of degrees 1..4 are read, and the
    # inclusion of ideal slice 4 only by the chain-level check; one of its
    # pairs lands where another one does
    real_positions = DerComplex.positions

    def misplacing(self, other, n):
        pos = real_positions(self, other, n)
        if self.scope == IDEAL and n == 4:
            pos[0] = pos[1]
        return pos

    monkeypatch.setattr(DerComplex, "positions", misplacing)
    for f in ex47.values():
        report = les_check(f, [2, 3])
        assert not report.chain_level_ok and all(nd.exact for nd in report.nodes), f.name
    code = rht.cli.main(["les-check", str(FIXTURES / "ex47.smf"), "--degrees", "2..3"])
    out = capsys.readouterr().out
    assert code == 1 and out.count("NOT exact") == 3


def test_les_check_catches_a_boundary_that_leaves_the_ideal(su5_bundle, monkeypatch):
    # nodes in degree 2 lift the 3-classes of the absolute complex through
    # the relative d_3; an entry planted in d_3 on a pair that the restriction
    # keeps takes one lift out of the ideal.  The planted row is a relative
    # 2-cycle, so d_2 . d_3 stays zero.
    f = su5_bundle
    rel, ab = DerComplex(f, RELATIVE), DerComplex(f, ABSOLUTE)
    lifted = rel.positions(ab, 3).index(min(ab.homology(3).representatives[0]))
    kept = rel.positions(ab, 2)
    row = next(r for r, a in enumerate(kept) if a is not None and not rel.boundary(2).columns[r])
    real_boundary = DerComplex.boundary

    def planted(self, n):
        d = real_boundary(self, n)
        if self.scope == RELATIVE and n == 3:
            d = RatMatrix(d.rows, d.columns)
            d.columns[lifted][row] = d.columns[lifted].get(row, 0) + 1
        return d

    monkeypatch.setattr(DerComplex, "boundary", planted)
    with pytest.raises(NotAComplex, match="left the ideal"):
        les_check(f, [2])


def test_les_check_does_each_piece_of_work_once(ex47, monkeypatch):
    # the ideal's boundaries are cut from the relative ones, each map between
    # two scopes and its converse come from one list per degree, and no
    # zero vector is eliminated
    brackets, lists, added = [], [], []
    real_bracket, real_positions, real_add = DerComplex.bracket, DerComplex.positions, Echelon.add

    def recording_bracket(self, n, images):
        brackets.append(self.scope)
        return real_bracket(self, n, images)

    def recording_positions(self, other, n):
        lists.append((frozenset((self.scope, other.scope)), n))
        return real_positions(self, other, n)

    def recording_add(self, v):
        added.append(bool(v))
        return real_add(self, v)

    monkeypatch.setattr(DerComplex, "bracket", recording_bracket)
    monkeypatch.setattr(DerComplex, "positions", recording_positions)
    monkeypatch.setattr(Echelon, "add", recording_add)
    for f in ex47.values():
        for record in (brackets, lists, added):
            record.clear()
        assert les_check(f, range(1, top_shift(f) + 1)).exact, f.name
        assert set(brackets) == {RELATIVE, ABSOLUTE}, f.name
        repeats = {key: k for key, k in Counter(lists).items() if k > 1}
        assert lists and not repeats, (f.name, repeats)
        assert added and all(added), (f.name, added.count(False))


def test_images_eliminate_no_empty_vector(monkeypatch):
    # each evaluation image is the kernel of one echelon on its frame, and no
    # elimination is handed an empty vector: gottlieb and fibre_gottlieb on
    # every fixture, and the 3-5-9-17 enumerations over qt, gated and not
    added, kernels, frames = [], [], []
    real_add, real_kernel, real_image = Echelon.add, Echelon.kernel, rht.invariants._image_on_cycles

    def recording_add(self, v):
        added.append(bool(v))
        return real_add(self, v)

    def recording_kernel(self):
        if frames:
            kernels.append((self.n, frames[-1]))
        return real_kernel(self)

    def recording_image(evaluation, d_out, d_in, frame):
        frames.append(len(frame))
        image = real_image(evaluation, d_out, d_in, frame)
        frames.pop()
        return image

    monkeypatch.setattr(Echelon, "add", recording_add)
    monkeypatch.setattr(Echelon, "kernel", recording_kernel)
    monkeypatch.setattr(rht.invariants, "_image_on_cycles", recording_image)
    monkeypatch.setattr(rht.catalog, "_image_on_cycles", recording_image)
    for m in fixture_models():
        gottlieb(m)
        if isinstance(m, RelativeModel):
            fibre_gottlieb(m)
    fiber, base = load("fiber-3-5-9-17.smf")[0], load("base-qt.smf")[0]
    for gate in (True, False):
        enumerate_fibrations(fiber, base, (0, 1), require_finite=gate).realized_subspaces()
    assert kernels and all(n == width for n, width in kernels), Counter(kernels).most_common(3)
    assert added and all(added), (len(added), added.count(False))


def test_a_column_leaving_the_ideal_is_not_a_complex(su5_bundle, monkeypatch, capsys):
    # an operator sending t1 to v2 takes an ideal pair out of the ideal
    with pytest.raises(NotAComplex, match="leaves the ideal"):
        DerComplex(su5_bundle, IDEAL).bracket(1, {0: ((((3, 1),), 1),)})
    # an entry planted in the relative d_2 on an ideal pair's column, at a
    # pair the restriction keeps; nodes in degree 2 read the ideal d_2 first
    rel = DerComplex(su5_bundle, RELATIVE)
    kept = rel.positions(DerComplex(su5_bundle, ABSOLUTE), 1)
    row = next(j for j, a in enumerate(kept) if a is not None)
    column = DerComplex(su5_bundle, IDEAL).positions(rel, 2)[0]
    real_boundary = DerComplex.boundary

    def planted(self, n):
        d = real_boundary(self, n)
        if self.scope == RELATIVE and n == 2:
            d = RatMatrix(d.rows, d.columns)
            d.columns[column][row] = d.columns[column].get(row, 0) + 1
        return d

    monkeypatch.setattr(DerComplex, "boundary", planted)
    with pytest.raises(NotAComplex, match="leaves the ideal"):
        les_check(su5_bundle, [2])
    code = rht.cli.main(["les-check", str(FIXTURES / "su5-bundle.smf"), "--degrees", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("NotAComplex: "), err


def test_les_check_multiplies_only_homology_sized_maps(ex47, su5_bundle, monkeypatch):
    # no representative is built; an image maps each cycle of its source
    # once, and a composite only the rows of the incoming map's image
    # echelon, rank_in vectors, however large the slice
    read, sent = [], []
    real_cycles, real_classes = HomologySlice.cycles, HomologySlice.classes

    def recording_cycles(self):
        cycles = real_cycles.fget(self)
        read.append(len(cycles))
        return cycles

    def recording_classes(self, vectors, where):
        vectors = list(vectors)
        sent.append(len(vectors))
        return real_classes(self, vectors, where)

    def no_representatives(self):
        raise AssertionError("les_check built representatives")

    monkeypatch.setattr(HomologySlice, "cycles", property(recording_cycles))
    monkeypatch.setattr(HomologySlice, "classes", recording_classes)
    monkeypatch.setattr(HomologySlice, "representatives", property(no_representatives))
    for f in [*ex47.values(), su5_bundle]:
        read.clear()
        sent.clear()
        report = les_check(f, range(1, top_shift(f) + 1))
        assert report.exact, f.name
        assert sum(sent) == sum(read) + sum(nd.rank_in for nd in report.nodes), f.name


# ----------------------------------------------------------------------
# toral certificates and finiteness


def test_toral_certificates(su4_fixtures):
    circle = toral_certificate(su4_fixtures["su4-circle"], window=8)
    assert circle.verdict == "certified" and circle.r == 1

    torus = toral_certificate(su4_fixtures["su4-torus"], window=6)
    assert torus.verdict == "certified" and torus.r == 3

    trivial = toral_certificate(su4_fixtures["su4-trivial"], window=8)
    assert trivial.verdict == "refuted-at-bound"
    assert trivial.top_nonzero == trivial.finite_through


def test_toral_requires_degree_two_base(su5_bundle):
    with pytest.raises(BaseNotDegreeTwo):
        toral_certificate(su5_bundle)


@pytest.mark.parametrize("window", [0, -2])
def test_window_below_one_is_rejected(su4_fixtures, window):
    # the vanishing range (fd, fd + window] would be empty and certify
    # su4-trivial, which a window of 6 or 8 refutes
    with pytest.raises(ValueError):
        toral_certificate(su4_fixtures["su4-trivial"], window=window)
    with pytest.raises(ValueError):
        finiteness_window(su4_fixtures["su4-trivial"], window)


def test_finiteness_window(su4_fixtures):
    circle = finiteness_window(su4_fixtures["su4-circle"], 6)
    assert circle.finite and circle.fd == 3 + 5 + 7 - 1 and circle.top_nonzero is None
    trivial = finiteness_window(su4_fixtures["su4-trivial"], 6)
    assert not trivial.finite and trivial[0] is trivial.finite
    assert trivial.fd < trivial.top_nonzero <= trivial.fd + 6


def scaling_family(k, connected=False):
    """ex47's fibre over t1..tk in degree 2, twisted by D w4 = w1*w2*t1^3 + t1^9.

    The connected variant adds + t2^9 + ... + tk^9 to D w4.
    """
    base = "".join(f"gen t{i} 2\n" for i in range(1, k + 1))
    more = "".join(f" + t{i}^9" for i in range(2, k + 1)) if connected else ""
    text = (
        f"[fibration scale-{k}]\n[base]\n{base}[fiber]\n"
        "gen u 2\ngen w1 3\ngen w2 9\ngen w3 11\ngen w4 17\nd w3 = u^6\n"
        f"[total]\nD w3 = u^6\nD w4 = w1*w2*t1^3 + t1^9{more}\n"
    )
    return parse_document(text)[0]


def test_scaling_family_k3_is_refuted_at_bound():
    # its window reaches cochain degrees of thousands of dimensions, against
    # the hypothesis matrices of at most five in test_linalg
    cert = toral_certificate(scaling_family(3), 6)
    assert (cert.verdict, cert.top_nonzero) == ("refuted-at-bound", 42)


def test_connected_scaling_family_k3_cohomology_above_fd():
    # C^37..C^42 have 2,842 to 4,537 dimensions
    total = scaling_family(3, connected=True).total
    cx = rht.model.Cochains(total)
    assert formal_dimension_estimate(total.gens) == 36
    assert [cx.homology(n).dim for n in range(37, 43)] == [1080, 1134, 1188, 1242, 1296, 1350]


def test_window_verdicts_match_full_cohomology():
    # the window reads only (fd, fd + window]; recompute every verdict from
    # the full cohomology in degrees 0..fd + window
    rng = random.Random(41)
    models = fixture_models() + [scaling_family(1), scaling_family(2)]
    models.append(scaling_family(2, connected=True))
    models += [random_fibration(rng) for _ in range(12)] + [random_space(rng) for _ in range(6)]
    for m in models:
        total = total_of(m)
        fd = formal_dimension_estimate(total.gens)
        if fd is None:
            assert finiteness_window(m, 6)[:2] == (False, None), m.name
            continue
        windows = [w for w in (1, 3, 6) if total.bound is None or fd + w <= total.bound]
        for window in {1, 3, 6} - set(windows):
            with pytest.raises(BoundExceeded):
                finiteness_window(m, window)
        if not windows:
            continue
        coh = cohomology(total, fd + max(windows))
        for window in windows:
            # the highest nonzero degree in the window, and the verdict it implies
            top = max((n for n in range(fd + 1, fd + window + 1) if coh[n][0]), default=None)
            decided = finiteness_window(m, window)
            assert decided[:2] == (top is None, fd), (m.name, window)
            assert decided.top_nonzero == top, (m.name, window)
            if degree_two_base(m):
                cert = toral_certificate(m, window)
                assert cert.top_nonzero == top, (m.name, window)
                if top is not None:
                    # refuted exactly when a top class has a base-only monomial
                    base_only = any(
                        mono.exponents and all(i < m.base_size for i, _ in mono.exponents)
                        for rep in coh[top][1]
                        for mono in parse_expression(rep, total.gens).terms
                    )
                    verdict = "refuted-at-bound" if base_only else "inconclusive"
                    assert cert.verdict == verdict, (m.name, window)


def test_touches_reads_what_the_representatives_hold():
    # every column one by one, as a sample can miss a column that only the
    # boundary rows decide, and a few random sets of columns
    rng = random.Random(31)
    models = fixture_models() + [scaling_family(k) for k in (1, 2)]
    models += [scaling_family(k, connected=True) for k in (1, 2)]
    models += [random_space(rng) for _ in range(150)] + [random_fibration(rng) for _ in range(150)]
    compared = Counter()  # (touched, a single column) -> comparisons
    for m in models:
        total = total_of(m)
        fd = formal_dimension_estimate(total.gens)
        top = min(30 if fd is None else fd + 6, 30 if total.bound is None else total.bound)
        cx = Cochains(total)
        for n in range(top + 1):
            h = cx.homology(n)
            if not h.dim:
                continue
            columns = range(len(cx.keys(n)))
            touched = [h.touches([j]) for j in columns]  # before any representative is built
            sets = [rng.sample(columns, rng.randint(1, len(columns))) for _ in range(3)]
            touched_sets = [h.touches(s) for s in sets]
            reps = h.representatives
            for j in columns:
                want = any(rep.get(j) for rep in reps)
                assert touched[j] == want, (m.name, n, j)
                compared[(want, True)] += 1
            for s, got in zip(sets, touched_sets):
                want = any(rep.get(j) for rep in reps for j in s)
                assert got == want, (m.name, n, s)
                compared[(want, False)] += 1
    # touched and untouched, one column and several, all occur
    assert sum(compared.values()) > 20000 and len(compared) == 4, compared


# models the pure quotient must leave to the window.  In the non-minimal
# even-pair models, x4 and dx = y5 form a contractible pair: H is finite, but
# the quotient Q[x] is not.  In odd-term, dp = x*a*c has no term in Lambda Q,
# so d_s p = 0, every x^k survives and H is infinite.
UNDECIDED = """
[space even-pair]
gen x 4
gen y 5
d x = y
[space even-pair-times-s2]
gen a 2
gen b 3
gen x 4
gen y 5
d b = a^2
d x = y
[space odd-term]
gen x 2
gen a 3
gen c 3
gen p 7
d p = x*a*c
"""
UNDECIDED_VERDICTS = {"even-pair": True, "even-pair-times-s2": True, "odd-term": False}


def cocycle_family(rng, count):
    """Spaces whose odd-generator terms in dp decide what d_s keeps.

    Cocycles x (even) and a (odd) have d = 0; each odd p has dp a random sum
    of products of at least two cocycles, in one even degree, some purely
    even and some with odd factors.  So d vanishes on every dp (closed) and
    every term is decomposable (minimal).
    """
    models = []
    for k in range(count):
        cocycles = [(f"x{j}", rng.choice((2, 4))) for j in range(rng.randint(1, 2))]
        cocycles += [(f"a{j}", rng.choice((3, 5))) for j in range(2)]
        gens = GenSet(cocycles)
        lines = [f"[space cocycle-{k}]"] + [f"gen {name} {deg}" for name, deg in cocycles]
        for j in range(rng.randint(1, 2)):
            words = []
            while not words:
                deg = rng.choice((4, 6, 8, 10))
                words = [m for m in basis_in_degree(gens, deg) if sum(e for _, e in m.exponents) > 1]
            terms = rng.sample(words, rng.randint(1, min(3, len(words))))
            dp = " + ".join(f"{rng.choice((1, 2, -1, -3))}*{m.format(gens)}" for m in terms)
            lines += [f"gen p{j} {deg - 1}", f"d p{j} = {dp}"]
        models += parse_document("\n".join(lines) + "\n")
    return models


def pure_soundness_inputs():
    rng = random.Random(9)
    models = fixture_models() + [scaling_family(1), scaling_family(2)]
    models += parse_document(UNDECIDED)
    models += [random_space(rng) for _ in range(100)] + [random_fibration(rng) for _ in range(100)]
    return models + cocycle_family(random.Random(5), 40)


def test_pure_quotient_certificate_is_sound():
    # whenever the pure quotient certifies, H vanishes well past the window,
    # and finiteness_window says what the window alone says
    certified = undecided = 0
    odd_terms = Counter()  # (a dp has odd-factor terms, its model certified) -> models
    for m in pure_soundness_inputs():
        total = total_of(m)
        fd = formal_dimension_estimate(total.gens)
        if fd is None:
            continue
        windows = [w for w in (1, 3, 6) if total.bound is None or fd + w <= total.bound]
        pure = [w for w in windows if _pure_quotient_vanishes(total, fd, w)]
        if pure:
            top = fd + max(pure) + 6
            dims = {n: dim for n, (dim, _) in cohomology(total, top).items()}
            for w in pure:
                assert not any(dims[n] for n in range(fd + 1, fd + w + 7)), (m.name, w)
        for w in windows:
            cx = Cochains(total)
            want = all(cx.homology(n).dim == 0 for n in range(fd + 1, fd + w + 1))
            assert finiteness_window(m, w)[:2] == (want, fd), (m.name, w)
        certified += len(pure)
        undecided += len(windows) - len(pure)
        if m.name.startswith("cocycle-"):
            odd = any(m.gens[i].is_odd for dp in m.images.values() for t, _ in dp for i, _ in t)
            odd_terms[(odd, bool(pure))] += 1
    assert certified > 100 and undecided > 100
    # the cocycle family certifies and leaves undecided models with odd-factor terms
    assert odd_terms[(True, True)] >= 5 and odd_terms[(True, False)] >= 5, odd_terms


def test_pure_quotient_leaves_undecided_models_to_the_window():
    for m in parse_document(UNDECIDED):
        fd = formal_dimension_estimate(m.gens)
        for window in (1, 3, 6):
            assert not _pure_quotient_vanishes(m, fd, window), (m.name, window)
            verdict = UNDECIDED_VERDICTS[m.name]
            assert finiteness_window(m, window)[:2] == (verdict, fd), (m.name, window)


def test_krull_count_skips_the_pure_quotient_search(built_key_lists):
    # fewer nonzero d_s p than even generators: Lambda Q/(d_s P) is infinite,
    # so the search is skipped before it builds any key list of Lambda Q
    models = parse_document(CP3.read_text()) + load("su4-trivial.smf")
    models += [scaling_family(k) for k in (2, 3, 4)]
    for m in models:
        total = total_of(m)
        gens, fd = total.gens, formal_dimension_estimate(total.gens)
        even = [g for g in gens if not g.is_odd]
        r = sum(
            any(all(not gens[i].is_odd for i, _ in t) for t, _ in total.images.get(p.index, ()))
            for p in gens
            if p.is_odd
        )
        assert r < len(even), m.name
        for window in (1, 6):
            assert not _pure_quotient_vanishes(total, fd, window), (m.name, window)
        assert not built_key_lists, (m.name, built_key_lists)


def test_finiteness_window_reads_only_its_window(monkeypatch):
    bases, pure_bases, slices, diffs, kernels, read = [], [], [], [], [], []
    real_keys, real_slice, real_d = (
        rht.model.Cochains.keys,
        rht.model.HomologySlice,
        rht.model.Cochains.d,
    )
    real_even, real_gens_keys = rht.algebra.GenSet.even, rht.algebra.GenSet.keys
    quotients = []  # the generator sets of the pure quotients read
    real_kernel = rht.linalg.Echelon.kernel
    real_reps = rht.linalg.HomologySlice.representatives

    # bases read through Cochains, which its GenSet may have built already
    def counting_keys(self, n):
        bases.append(n)
        return real_keys(self, n)

    def recording_even(gens):
        quotients.append(real_even(gens))
        return quotients[-1]

    # a pure quotient reads its bases from its own GenSet, which may have them
    def counting_pure_keys(gens, n):
        if any(gens is q for q in quotients):
            pure_bases.append(n)
        return real_gens_keys(gens, n)

    def counting_slice(d_in, d_out):
        slices.append(d_out)
        return real_slice(d_in, d_out)

    def counting_d(self, n):
        diffs.append((n, real_d(self, n)))
        return diffs[-1][1]

    def counting_kernel(self):
        kernels.append(self)
        return real_kernel(self)

    def reading_reps(h):
        read.append(h)
        return real_reps.fget(h)

    monkeypatch.setattr(rht.model.Cochains, "keys", counting_keys)
    monkeypatch.setattr(rht.algebra.GenSet, "even", recording_even)
    monkeypatch.setattr(rht.algebra.GenSet, "keys", counting_pure_keys)
    monkeypatch.setattr(rht.model, "HomologySlice", counting_slice)
    monkeypatch.setattr(rht.model.Cochains, "d", counting_d)
    monkeypatch.setattr(rht.linalg.Echelon, "kernel", counting_kernel)
    monkeypatch.setattr(rht.linalg.HomologySlice, "representatives", property(reading_reps))
    # the verdicts need only dimensions: no kernel, no representative
    for m in fixture_models():
        try:
            finiteness_window(m, 6)
        except BoundExceeded:
            pass  # wedge.smf: its window passes its bound
        assert not kernels and not read, m.name
    models = [m for m in fixture_models() if degree_two_base(m)]
    assert len(models) >= 5
    by_window = Counter()  # (decided by the window, verdict) -> calls
    verdicts = Counter()  # certificate verdict -> calls
    for m in models:
        for window in (1, 6):
            for seen in (bases, pure_bases, slices, diffs):
                seen.clear()
            finite, fd, _, _ = finiteness_window(m, window)
            pure = _pure_quotient_vanishes(total_of(m), fd, window)
            by_window[(not pure, finite)] += 1
            # the pure quotient reads no degree above the window
            assert max(pure_bases, default=fd) <= fd + window, (m.name, window)
            if pure:
                # an exact certificate: no cochain is built at all
                assert finite and not slices and not bases, (m.name, window)
            else:
                # the slice at degree n is built from d(n - 1) and d(n)
                degrees = [next(n for n, d in diffs if d is d_out) for d_out in slices]
                assert min(bases) >= fd, (m.name, window, sorted(set(bases)))
                assert degrees and min(degrees) > fd and max(degrees) <= fd + window
                # the one scan runs down the window, so a finite verdict reads all of it
                assert not finite or degrees == list(range(fd + window, fd, -1))
            # the certificate reads no representative and calls no kernel,
            # also when it refutes from its top nonzero degree
            read.clear()
            kernels.clear()
            verdicts[toral_certificate(m, window).verdict] += 1
            assert not read and not kernels, (m.name, window)
    # both paths and both window verdicts are exercised, and every certificate verdict
    assert by_window[(False, True)] and by_window[(True, True)] and by_window[(True, False)]
    assert set(verdicts) == {"certified", "refuted-at-bound", "inconclusive"}, verdicts


def test_toral_scan_reads_down_from_the_top(su4_fixtures, monkeypatch):
    # top_nonzero is the highest nonzero degree of the window: the one scan
    # runs down from fd + window, builds no slice below the degree it stops
    # at and builds each degree at most once
    calls, built = [], []  # degrees of the open Cochains.homology calls, of each new slice
    real_homology, real_slice = rht.model.Cochains.homology, rht.model.HomologySlice

    def recording_homology(self, n):
        calls.append(n)
        try:
            return real_homology(self, n)
        finally:
            calls.pop()

    def counting_slice(d_in, d_out):
        built.append(calls[-1])
        return real_slice(d_in, d_out)

    monkeypatch.setattr(rht.model.Cochains, "homology", recording_homology)
    monkeypatch.setattr(rht.model, "HomologySlice", counting_slice)
    for m, window in ((scaling_family(2), 6), (su4_fixtures["su4-trivial"], 8)):
        built.clear()
        cert = toral_certificate(m, window)
        assert cert.top_nonzero is not None, m.name
        fd = cert.finite_through - window
        assert built == list(range(fd + window, cert.top_nonzero - 1, -1)), (m.name, built)


def test_each_degree_basis_is_built_once_per_call(built_key_lists):
    # GenSet.keys builds the key lists every Cochains, slice and pure
    # quotient reads
    built = built_key_lists
    keyed = set()  # the calls that built a key list
    for m in fixture_models():
        total = total_of(m)
        calls = {
            "cohomology": lambda: cohomology(m, total.bound or 12),
            "finiteness_window": lambda: finiteness_window(m),
            "gottlieb": lambda: gottlieb(m),
        }
        if isinstance(m, RelativeModel):
            calls["fibre_gottlieb"] = lambda: fibre_gottlieb(m)
            calls["les_check"] = lambda: les_check(m, range(1, top_shift(m) + 1))
        if degree_two_base(m):
            calls["toral_certificate"] = lambda: toral_certificate(m)
        for name, call in calls.items():
            built.clear()
            try:
                call()
            except BoundExceeded:
                pass  # wedge.smf: its window passes its bound
            repeats = {n: k for (_, n), k in Counter(built).items() if k > 1}
            assert not repeats, (m.name, name, repeats)
            keyed.update([name] if built else [])
    # the sets keep their lists, so a later call on the same model may build none
    assert {"cohomology", "gottlieb"} <= keyed


def test_invariant_checks_survive_optimize_flag():
    # on the contractible pair (y3, x4, dy = x) evaluation does not kill the
    # boundaries, so it is not a chain map; the check must raise even when
    # python -O strips assert statements
    code = (
        "from rht import AlgElement, GenSet, SullivanModel, gottlieb\n"
        "from rht.errors import NotAComplex\n"
        "gens = GenSet([('y', 3), ('x', 4)])\n"
        "pair = SullivanModel(gens, {'y': AlgElement.gen(gens, 'x')}, name='pair')\n"
        "try:\n"
        "    gottlieb(pair)\n"
        "except NotAComplex:\n"
        "    print('NotAComplex')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rht.__file__).parent.parent))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "NotAComplex"


# ----------------------------------------------------------------------
# number types: integral data stays int


@pytest.fixture
def built(monkeypatch):
    """Every RatMatrix and Echelon constructed while the test runs."""
    made = []
    for cls in (rht.linalg.RatMatrix, rht.linalg.Echelon):
        def record(self, *args, _init=cls.__init__):
            _init(self, *args)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    return made


def entry_types(objects):
    """The types of the entries of matrices (by column) and echelons (by row)."""
    return {
        type(x)
        for obj in objects
        for line in (obj.columns if isinstance(obj, rht.linalg.RatMatrix) else obj.rows.values())
        for x in line.values()
    }


def test_integral_models_eliminate_in_ints(built, ex47, monkeypatch):
    # cp3's d matrices, its homology echelons and the pure quotient's hold no
    # Fraction: every pivot they meet is 1 or -1
    cp3 = parse_document(CP3.read_text())[0]
    assert toral_certificate(cp3, 6).verdict == "refuted-at-bound"
    assert built and entry_types(built) == {int}
    # ex47's elimination meets other pivots, but its boundaries stay int
    boundaries = []
    bracket = DerComplex.bracket

    def recording(self, n, images):
        boundaries.append(bracket(self, n, images))
        return boundaries[-1]

    monkeypatch.setattr(DerComplex, "bracket", recording)
    for f in ex47.values():
        boundaries.clear()
        les_check(f, range(1, top_shift(f) + 1))
        assert boundaries and entry_types(boundaries) == {int}, f.name


def test_rational_coefficients_reach_the_matrices(built):
    # D x = 2/3*t^2: the pure quotient's relation is a Fraction, and so is
    # its scaled echelon row
    f = load("parse/rational-coefficient.smf")[0]
    assert toral_certificate(f, 6).verdict == "certified"
    assert Fraction in entry_types(built)


# ----------------------------------------------------------------------
# depth


def test_depth_of_subspace_families():
    frame = ("w1*", "w2*", "w3*", "w4*", "w5*")

    def span(*labels):
        return Subspace(frame, [{frame.index(lbl + "*"): 1} for lbl in labels])

    family_a = {
        "all": span("w1", "w2", "w3", "w4", "w5"),
        "135": span("w1", "w3", "w5"),
        "145": span("w1", "w4", "w5"),
        "235": span("w2", "w3", "w5"),
        "245": span("w2", "w4", "w5"),
        "345": span("w3", "w4", "w5"),
        "35": span("w3", "w5"),
        "45": span("w4", "w5"),
        "5": span("w5"),
    }
    assert depth_of_subspaces(family_a).depth == 3

    family_b = {
        "all": span("w1", "w2", "w3", "w4", "w5"),
        "135": span("w1", "w3", "w5"),
        "345": span("w3", "w4", "w5"),
        "35": span("w3", "w5"),
    }
    assert depth_of_subspaces(family_b).depth == 2


def test_depth_edge_cases():
    frame = ("x*",)
    assert depth_of_subspaces({}).depth == -1
    single = depth_of_subspaces({"only": Subspace(frame, [{0: 1}])})
    assert single.depth == 0 and single.witness == ["only"]
    # duplicates collapse to one node
    dup = depth_of_subspaces(
        {"a": Subspace(frame, [{0: 1}]), "b": Subspace(frame, [{0: 2}])}
    )
    assert dup.depth == 0


def test_depth_over_wedge_catalog(wedge):
    fiber = wedge["p00"].fiber
    result = depth_of_subspaces(
        Catalog(fiber, list(wedge.items())).realized_subspaces()
    )
    assert result.depth == 2
    assert result.witness == ["p00", "p10", "p11"]


def test_depth_over_catalog_fiber_mismatch(wedge, su5_bundle):
    fiber = wedge["p00"].fiber
    with pytest.raises(FiberMismatch):
        depth_of_subspaces(
            Catalog(fiber, [("odd", su5_bundle)]).realized_subspaces()
        )


def test_depth_over_catalog_finiteness_gate(su4_fixtures):
    fiber = su4_fixtures["su4-circle"].fiber
    catalog = Catalog(
        fiber,
        [
            ("circle", su4_fixtures["su4-circle"]),
            ("trivial", su4_fixtures["su4-trivial"]),
        ],
    )
    with pytest.raises(NotFiniteAtBound) as err:
        catalog.check_finite(6)
    assert "trivial" in str(err.value)
