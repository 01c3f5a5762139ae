"""Sullivan models, relative (Koszul-Sullivan) models, and the file format.

A model file is line oriented, UTF-8, with '#' comments:

    [space NAME]
    gen NAME DEGREE          # declaration order = canonical order
    d NAME = EXPR            # omitted => 0
    bound N                  # optional validity bound

    [fibration NAME]         # bound N here or in [fiber], not both
    [base]   ... gen/d/bound lines ...
    [fiber]  ... gen/d/bound lines (d lines optional) ...
    [total]  D NAME = EXPR   # for fiber generators only

A section takes only the line kinds listed for it (_LINE_KINDS), at most one
d or D line per generator and at most one bound; anything else is a
ModelSyntaxError naming the line.

EXPR is a sum of terms; a term is an optional rational coefficient times
'*'-joined powers of generator names (e.g. ``w1*w2*t^3 + 2/3*t^9``).  Section
names are identifier-like, or double-quoted when they contain other
characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

from .algebra import AlgElement, GenSet, Rational, _compile, _format_sum, _format_terms, _leibniz, _sum
from .errors import (
    BaseDiffViolated,
    BoundExceeded,
    CombinatorialBlowup,
    DegreeMismatch,
    GeneratorSetMismatch,
    ModelSyntaxError,
    NotClosed,
    UnknownGenerator,
)
from .linalg import HomologySlice, RatMatrix


class SullivanModel:
    """A free graded-commutative algebra with a differential on generators.

    images is d as packed terms, the one form the model keeps; diff is a
    view of it as elements, built on first read."""

    def __init__(
        self,
        gens: GenSet,
        diff: Optional[Mapping[str, AlgElement]] = None,
        bound: Optional[int] = None,
        name: Optional[str] = None,
    ):
        self.gens, self.bound, self.name = gens, bound, name
        self.images = _pack_elements(gens, diff or {})
        self.validate()

    @classmethod
    def _packed(cls, gens: GenSet, images: dict, bound: Optional[int], name: Optional[str]):
        """The model of d already packed over gens, from terms that were
        checked when they were packed: only d.d = 0 is checked."""
        m = cls.__new__(cls)
        m.gens, m.images, m.bound, m.name = gens, images, bound, name
        m.validate()
        return m

    # a space is its own fibre and total, as a RelativeModel has both
    fiber = total = property(lambda self: self)

    @cached_property
    def diff(self) -> Mapping[str, AlgElement]:
        """d as one element over gens per generator with d(g) != 0, unpacked
        from images on first read, for printing and callers outside the
        package; read-only."""
        gens = self.gens
        return MappingProxyType({
            gens[i].name: AlgElement(gens, {gens.unpack(key): c for key, c in terms})
            for i, terms in self.images.items()
        })

    @cached_property
    def _value(self) -> tuple:
        """The model as a value, its bound aside: the generator layout and d,
        term order ignored.  Two models are the same exactly when these are
        equal; built once per model, its frozen d hashed once."""
        return self.gens._layout, frozenset((i, frozenset(terms)) for i, terms in self.images.items())

    @cached_property
    def operator(self) -> tuple:
        """d compiled for the Leibniz kernel (_compile), on first use, once per model."""
        return _compile(self.gens, self.images, 1)

    # --- validation ---------------------------------------------------

    def validate(self):
        images, gens = self.images, self.gens
        held = sum(gens._packing.bits[i] for i in images)  # the fields of generators with images
        for g in gens:  # declaration order: the first failure is reported
            # d(d(g)) is zero at once when no term of d(g) holds a generator with an image
            terms = images.get(g.index, ())
            if any(key & held for key, _ in terms):
                dd = _sum(self.operator, terms)
                if dd:
                    raise NotClosed(f"d(d({g.name})) = {_format_terms(gens, dd.items())} != 0")

    @property
    def is_minimal(self) -> bool:
        """True when no differential has a linear (single-generator) part."""
        linear = {1 << s for s in self.gens._packing.shift}  # the key of each generator
        return not any(key in linear for terms in self.images.values() for key, _ in terms)

    # --- degrees ------------------------------------------------------

    def check_bound(self, n: int):
        if self.bound is not None and n > self.bound:
            raise BoundExceeded(
                f"degree {n} exceeds the model's validity bound {self.bound}"
            )

    # --- serialization ------------------------------------------------

    def serialize(self) -> str:
        lines = [f"[space {_format_name(self.name or 'model')}]", *_section_lines(self, self.bound)]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SullivanModel({self.gens!r}, name={self.name!r})"


def _pack(gens: GenSet, diff: Mapping[str, Mapping[int, Rational]]) -> dict[int, tuple]:
    """d given as packed terms over gens, {name: {key: coeff}} with no zero
    coefficient, laid out as images: {index: ((key, coeff), ...)} for each
    generator with d(g) != 0, an integral coefficient an int, so that the
    matrices of an integral d hold ints.  The one checker of a given d:
    each name must be a generator and each key of degree |g| + 1."""
    out, p = {}, gens._packing
    for gname, terms in diff.items():
        g = gens.get(gname)  # raises UnknownGenerator
        degrees = {p.degree(key) for key in terms}
        if degrees - {g.degree + 1}:
            got = degrees.pop() if len(degrees) == 1 else "mixed"
            raise DegreeMismatch(
                f"d({gname}) must be homogeneous of degree {g.degree + 1}, got degree {got}"
            )
        if terms:
            out[g.index] = tuple((key, int(c) if c.denominator == 1 else c) for key, c in terms.items())
    return out


def _pack_elements(gens: GenSet, diff: Mapping[str, AlgElement]) -> dict[int, tuple]:
    """_pack of d given as elements, as the public constructors take it: each
    over gens, each monomial in normal form over it (indices increasing and
    in the set, exponents positive, an odd generator's 1)."""
    terms = {}
    for gname, val in diff.items():
        if val.gens != gens:  # its exponents index its own set: over gens they name others
            raise GeneratorSetMismatch(f"d({gname}) is given over {val.gens!r}, not {gens!r}")
        for m in val.terms:
            indices = [i for i, _ in m.exponents]
            if any(not 0 <= i < len(gens) for i in indices):
                raise GeneratorSetMismatch(f"d({gname}) has the term {m.exponents}, indexing past {gens!r}")
            odd_power = any(e > 1 and gens[i].is_odd for i, e in m.exponents)
            if indices != sorted(set(indices)) or odd_power or any(e < 1 for _, e in m.exponents):
                raise ValueError(f"d({gname}) has the term {m.exponents}, not in normal form over {gens!r}")
        terms[gname] = {gens.pack(m.exponents): c for m, c in val.terms.items()}
    return _pack(gens, terms)


class RelativeModel:
    """A Koszul-Sullivan model Lambda V -> Lambda V (x) Lambda W -> Lambda W."""

    def __init__(
        self,
        base: SullivanModel,
        fiber_gens: GenSet,
        total_diff: Mapping[str, AlgElement],
        fiber_diff: Optional[Mapping[str, AlgElement]] = None,
        name: Optional[str] = None,
        bound: Optional[int] = None,
    ):
        # the base generators, then the fiber's; D given over a set of this
        # layout lends it to the total, so that fibrations built over one set
        # share it and its degree bases
        layout = GenSet([(g.name, g.degree) for g in (*base.gens, *fiber_gens)])
        total_gens = next((v.gens for v in total_diff.values() if v.gens == layout), layout)
        for gname in total_diff:  # any other name not of the fibre is unknown to _pack
            if gname in base.gens.by_name:
                raise BaseDiffViolated(
                    f"total differential may only be given on fiber generators, not {gname}"
                )
        images = _pack_elements(total_gens, total_diff)
        declared = None if fiber_diff is None else _pack_elements(fiber_gens, fiber_diff)
        self._assemble(base, fiber_gens, total_gens, images, name, bound, declared)

    def _assemble(self, base, fiber_gens, total_gens, images, name, bound, declared=None):
        """Build the fibre, then the total, from D packed over total_gens (the
        base's generators, then fiber_gens), so that a fibre violation is
        reported before the total's; returns self.  images may leave out the
        base's d, which is laid out in the total set here.  declared, a fibre
        d packed over fiber_gens, must equal the projection of D."""
        self.base, self.name, self.base_size = base, name, len(base.gens)
        if bound is None:
            bound = base.bound
        elif base.bound is not None:
            bound = min(bound, base.bound)
        # fiber differential = base-killing projection of D, key by key
        proj, k = {}, self.base_size
        for i, terms in images.items():
            keys = total_gens.move([key for key, _ in terms], fiber_gens) if i >= k else ()
            kept = tuple((key, c) for key, (_, c) in zip(keys, terms) if key is not None)
            if kept:
                proj[i - k] = kept
        if declared is not None:
            for g in fiber_gens:
                if dict(declared.get(g.index, ())) != dict(proj.get(g.index, ())):
                    raise BaseDiffViolated(
                        f"declared fiber differential of {g.name} disagrees with "
                        "the base-killing projection of D"
                    )
        try:
            self.fiber = SullivanModel._packed(fiber_gens, proj, bound, name)
        except NotClosed as exc:
            raise BaseDiffViolated(
                f"projected fiber differential does not square to zero: {exc}"
            ) from exc
        if base.images:
            # the base's keys in the total set: its odd bits keep their place,
            # and its even fields move up past the fibre's odd bits
            below, above = base.gens._packing.odd, total_gens._packing.odd.bit_length()
            lead = below.bit_length()
            lifted = {
                i: tuple((key & below | key >> lead << above, c) for key, c in terms)
                for i, terms in base.images.items()
            }
            images = {**lifted, **images}
        self.total = SullivanModel._packed(total_gens, images, bound, name)
        return self

    @property
    def bound(self) -> Optional[int]:
        return self.total.bound

    def serialize(self) -> str:
        lines = [
            f"[fibration {_format_name(self.name or 'fibration')}]",
            "[base]",
            *_section_lines(self.base, self.base.bound),
            "[fiber]",
            # the base's bound caps the fibration's; a lower one is written here
            *_section_lines(self.fiber, self.bound if self.bound != self.base.bound else None),
            "[total]",
        ]
        lines += _d_lines("D", self.total, self.total.gens[self.base_size:])
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RelativeModel(base={self.base.gens!r}, fiber={self.fiber.gens!r})"


# a space, or a fibration; each answers .fiber and .total
ModelLike = Union[SullivanModel, RelativeModel]


def trivial_fibration(
    fiber: SullivanModel, base: SullivanModel, name: Optional[str] = None
) -> RelativeModel:
    """The product fibration: D = d_W, no base terms in any D(w)."""
    return _product(fiber, base, fiber.bound, name)


def _product(fiber: SullivanModel, base: SullivanModel, bound, name=None) -> RelativeModel:
    """The product fibration at bound, over a new set of the base's
    generators then the fibre's: D is d_W, its keys moved into that set."""
    gens, k = GenSet([(g.name, g.degree) for g in (*base.gens, *fiber.gens)]), len(base.gens)
    images = {
        i + k: tuple(zip(fiber.gens.move([key for key, _ in terms], gens), [c for _, c in terms]))
        for i, terms in fiber.images.items()
    }
    return _relative(base, fiber.gens, gens, images, name, bound)


def _relative(*args) -> RelativeModel:
    """The RelativeModel of D packed from checked terms (RelativeModel._assemble)."""
    return RelativeModel.__new__(RelativeModel)._assemble(*args)


def _section_lines(m: SullivanModel, bound: Optional[int]) -> list[str]:
    """The gen, d and bound lines of a [space], [base] or [fiber] section."""
    lines = [f"gen {g.name} {g.degree}" for g in m.gens]
    return lines + _d_lines("d", m, m.gens) + ([] if bound is None else [f"bound {bound}"])


def _d_lines(kind: str, m: SullivanModel, gens) -> list[str]:
    """The d (or D) line of each of gens with d(g) != 0 in m, its terms in sort_key order."""
    d = [(g.name, m.images[g.index]) for g in gens if g.index in m.images]
    return [f"{kind} {name} = {_format_terms(m.gens, terms)}" for name, terms in d]


# ----------------------------------------------------------------------
# cohomology and formal dimension


class Cochains:
    """The cochain complex (Lambda V, d) of one model.

    It keeps no matrix and no slice: d(n) builds anew on each call, and a
    walk of slices holds only the two d its slice reads.  The degree bases
    are the packed key lists of the model's GenSet, which every model over
    it shares; a caller unpacks only the monomials it prints.
    """

    def __init__(self, m: SullivanModel):
        self.model = m

    def keys(self, n: int) -> list[int]:
        """The degree-n basis as packed monomials; d(-1) is the zero map into H^0."""
        return self.model.gens.keys(n) if n >= 0 else []

    def d(self, n: int) -> RatMatrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis."""
        images = self.model.operator
        index = {k: i for i, k in enumerate(self.keys(n + 1))}
        columns = [
            {index[k]: c for k, c in _leibniz(images, key, {}).items() if c}
            for key in self.keys(n)
        ]
        return RatMatrix._trusted(len(index), columns)

    def slices(self, degrees: range) -> Iterator[tuple[int, HomologySlice]]:
        """(n, H^n in coordinates of the degree-n basis) for n in degrees, a
        range of step 1 or -1.  Each d is built once, d(n - 1) before d(n), so
        an oversized degree is refused at the same degree either way."""
        if degrees.step not in (1, -1):
            raise ValueError(f"Cochains.slices needs a range of step 1 or -1, got {degrees.step}")
        d = {}  # d(n - 1) and d(n), by degree; the next slice takes one of them over
        for n in degrees:
            d = {k: d[k] if k in d else self.d(k) for k in (n - 1, n)}
            yield n, HomologySlice(d[n - 1], d[n])


def cohomology(model: ModelLike, max_degree: int) -> Iterator[tuple[int, tuple[int, list[str]]]]:
    """(n, (dim H^n, the text of a representative cocycle of each basis class))
    of the (total) algebra for n = 0..max_degree, one degree at a time; the
    bound and the basis sizes are checked on the call, before any row."""
    m = model.total
    m.check_bound(max_degree)
    for n in range(max_degree + 2):
        m.gens.size(n)  # an oversized basis is refused before any is built

    def text(keys, rep):  # basis order is sort_key order within a degree
        return _format_sum(m.gens, [(m.gens.unpack(keys[i]), rep[i]) for i in sorted(rep)])

    walk = Cochains(m).slices(range(max_degree + 1))
    return ((n, (h.dim, [text(m.gens.keys(n), rep) for rep in h.representatives])) for n, h in walk)


def formal_dimension_estimate(gens: GenSet) -> Optional[int]:
    """Elliptic-space formula: sum of odd degrees minus sum of (even - 1).

    0 is the formal dimension of a rationally contractible model; a negative
    estimate means no elliptic model has these degrees.
    """
    est = sum(g.degree for g in gens if g.is_odd) - sum(
        g.degree - 1 for g in gens if not g.is_odd
    )
    return est if est >= 0 else None


# ----------------------------------------------------------------------
# parser

# any other non-space character is a "bad" token, so that an error names it
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def parse_expression(
    text: str, gens: GenSet, line: Optional[int] = None, column: int = 1
) -> dict[int, Fraction]:
    """Parse a sum-of-terms expression over the given generator set into
    packed terms {key: coefficient}, without the terms that cancel.

    Each term is a signed coefficient times a word of factors, which the
    packed product takes into one key, factor by factor.  column is where
    text starts in its line, so that an error names the column of the
    line; an exponent no packed field holds is refused at its own."""
    p = gens._packing
    tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
    for mm in _TOKEN_RE.finditer(text):
        kind, col = mm.lastgroup, column + mm.start(mm.lastgroup)
        if kind == "bad":
            raise ModelSyntaxError(f"unexpected character {mm[kind]!r}", line, col)
        tokens.append((kind, mm[kind], col))
    if not tokens:
        raise ModelSyntaxError("empty expression", line)
    tokens.append(("end", "", column + len(text)))
    terms: dict[int, Fraction] = {}
    i = 0
    while True:
        # a term: signs, then a coefficient, '*'-joined factors, or both
        sign = 1
        while tokens[i][1] in ("+", "-"):
            sign = -sign if tokens[i][1] == "-" else sign
            i += 1
        coeff, koszul, key = Fraction(sign), 1, 0
        kind, value, col = tokens[i]
        if kind == "num":
            coeff *= _number(value, line, col)
            if tokens[i + 1][1] == "/":
                kind, value, col = tokens[i + 2]
                denominator = _number(value, line, col) if kind == "num" else 0
                if not denominator:
                    raise ModelSyntaxError("expected a positive integer denominator", line, col)
                coeff /= denominator
                i += 2
            i += 1
            more = tokens[i][0] == "name" or tokens[i][1] == "*"
            if tokens[i][1] == "*":
                i += 1
        elif kind == "name":
            more = True
        else:
            raise ModelSyntaxError(f"expected a term, got {value!r}", line, col)
        while more:
            kind, value, col = tokens[i]
            if kind != "name":
                raise ModelSyntaxError(f"expected a generator name, got {value!r}", line, col)
            if value not in gens.by_name:
                raise ModelSyntaxError(f"unknown generator {value!r}", line, col)
            index, exp = gens.by_name[value].index, 1
            if tokens[i + 1][1] == "^":
                kind, digits, col = tokens[i + 2]
                exp = _number(digits, line, col) if kind == "num" else 0
                if exp < 1:
                    raise ModelSyntaxError("expected a positive integer exponent", line, col)
                i += 2
            try:  # the term so far times this factor, in normal form
                sign, key = p.product(((index, exp),), key)
            except CombinatorialBlowup as exc:  # no field holds the exponent: no valid d has it
                raise ModelSyntaxError(str(exc), line, col) from None
            koszul *= sign
            more = tokens[i + 1][1] == "*"
            i += 2 if more else 1
        if koszul:
            c = terms.get(key, 0) + koszul * coeff
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)  # so a later term on key comes last, as in a sum
        if tokens[i][1] not in ("+", "-"):
            break
    if tokens[i][0] != "end":
        raise ModelSyntaxError(f"unexpected token {tokens[i][1]!r}", line, tokens[i][2])
    return terms


def _number(digits: str, line: Optional[int], column: int) -> int:
    """The int of a digit string of a model file; a ModelSyntaxError at its
    place when it is longer than int() converts (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ModelSyntaxError(f"a number of {len(digits)} digits, more than can be read", line, column) from None


# the line kinds each section takes; a fibration's bound goes in its
# header or in its [fiber], once
_LINE_KINDS = {
    "space": ("gen", "d", "bound"),
    "base": ("gen", "d", "bound"),
    "fiber": ("gen", "d", "bound"),
    "fibration": ("bound",),
    "total": ("D",),
}


@dataclass
class _Section:
    kind: str  # space | fibration | base | fiber | total
    name: Optional[str]
    line: int
    gens: list[tuple[str, int]] = field(default_factory=list)  # name, degree
    # name -> expression, line, column of the expression
    dlines: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    bound: Optional[int] = None
    parts: dict[str, _Section] = field(default_factory=dict)  # a fibration's sections

    def read(self, code: str, lineno: int, column: int, top: _Section) -> None:
        """File one line of this section, code starting at column; top is the
        [space] or [fibration] holding it."""
        parts, end = code.split(), column + len(code)  # a number ends the line: its column is end - len
        kind = parts[0]
        if kind not in ("gen", "d", "D", "bound"):
            raise ModelSyntaxError(f"unrecognized line {code!r}", lineno)
        if kind not in _LINE_KINDS[self.kind]:
            raise ModelSyntaxError(f"a [{self.kind}] section takes no '{kind}' line", lineno)
        if kind == "gen":
            if len(parts) != 3 or not re.fullmatch("[0-9]+", parts[2]):
                raise ModelSyntaxError("expected 'gen NAME DEGREE'", lineno)
            # a fibration's base and fibre generators share one namespace
            declared = (name for sec in top.parts.values() or [self] for name, _ in sec.gens)
            if parts[1] in declared:
                raise ModelSyntaxError(f"generator {parts[1]} declared twice", lineno)
            self.gens.append((parts[1], _number(parts[2], lineno, end - len(parts[2]))))
        elif kind == "bound":
            if len(parts) != 2 or not re.fullmatch("[0-9]+", parts[1]):
                raise ModelSyntaxError("expected 'bound N'", lineno)
            owner = top if self.kind == "fiber" else self
            if owner.bound is not None:
                raise ModelSyntaxError(f"a second 'bound' line for one {owner.kind}", lineno)
            owner.bound = _number(parts[1], lineno, end - len(parts[1]))
        else:
            m = re.fullmatch(r"[dD]\s+([A-Za-z_][A-Za-z0-9_']*)\s*=\s*(.+)", code)
            if not m:
                raise ModelSyntaxError(f"expected '{kind} NAME = EXPR'", lineno)
            if m.group(1) in self.dlines:
                raise ModelSyntaxError(f"a second '{kind}' line for {m.group(1)}", lineno)
            self.dlines[m.group(1)] = (m.group(2), lineno, column + m.start(2))

    def terms(self, gens: GenSet) -> dict[str, dict[int, Fraction]]:
        """The section's d or D lines, parsed over gens into packed terms."""
        out = {}
        for name, (expr, lineno, column) in self.dlines.items():
            try:
                gens.get(name)
            except UnknownGenerator:
                raise ModelSyntaxError(f"unknown generator {name!r}", lineno) from None
            out[name] = parse_expression(expr, gens, lineno, column)
        return out

    def space(self, gens: GenSet, name: Optional[str] = None) -> SullivanModel:
        return SullivanModel._packed(gens, _pack(gens, self.terms(gens)), self.bound, name)


_HEADER_RE = re.compile(
    r"\[\s*(space|fibration|base|fiber|total)\s*"
    r"(?:\"([^\"]*)\"|([A-Za-z0-9_.'-]*))\s*\]"
)


def _format_name(name: str) -> str:
    if re.fullmatch(r"[A-Za-z0-9_.'-]+", name):
        return name
    # '#' starts a comment even inside quotes, and a line break ends the header
    bad = next((c for c in name if c in '#"' or c.splitlines() != [c]), None)
    if bad is not None:
        raise ModelSyntaxError(f"the name {name!r} holds {bad!r}, which a section header cannot")
    return f'"{name}"'


def _split_sections(text: str) -> list[_Section]:
    """The [space] and [fibration] sections, in order; a fibration holds the
    [base], [fiber] and [total] sections that follow its header."""
    sections: list[_Section] = []
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if not code:
            continue
        if code.startswith("["):
            m = _HEADER_RE.fullmatch(code)
            if not m:
                raise ModelSyntaxError(f"bad section header {code!r}", lineno)
            current = _Section(m.group(1), m.group(2) or m.group(3) or None, lineno)
            if current.kind in ("space", "fibration"):
                sections.append(current)
            elif not sections or sections[-1].kind != "fibration":
                raise ModelSyntaxError(f"[{current.kind}] section outside a fibration", lineno)
            elif current.kind in sections[-1].parts:
                raise ModelSyntaxError(f"duplicate [{current.kind}] section", lineno)
            else:
                sections[-1].parts[current.kind] = current
            continue
        if current is None:
            # headerless file: implicit [space]
            current = _Section("space", None, lineno)
            sections.append(current)
        current.read(code, lineno, len(raw) - len(raw.lstrip()) + 1, sections[-1])
    return sections


def parse_document(text: str) -> list[ModelLike]:
    """Parse a model file; returns the models in order of appearance.  Models of one
    layout share one GenSet, and [base] sections of equal text, so of equal _value, one
    base model, parsed and validated once."""
    sets: dict[tuple, GenSet] = {}  # one per generator layout: its models share its degree bases
    bases: dict[tuple, SullivanModel] = {}  # per [base] text: its generators, d lines and bound

    def gen_set(layout: list[tuple[str, int]]) -> GenSet:
        if tuple(layout) not in sets:
            sets[tuple(layout)] = GenSet(layout)
        return sets[tuple(layout)]

    out: list[ModelLike] = []
    for sec in _split_sections(text):
        if sec.kind == "space":
            out.append(sec.space(gen_set(sec.gens), sec.name))
            continue
        for needed in ("base", "fiber", "total"):
            if needed not in sec.parts:
                raise ModelSyntaxError(
                    f"fibration {sec.name!r} is missing a [{needed}] section", sec.line
                )
        bsec, fsec = sec.parts["base"], sec.parts["fiber"]
        key = (tuple(bsec.gens), tuple((n, e) for n, (e, _, _) in bsec.dlines.items()), bsec.bound)
        if key not in bases:
            bases[key] = bsec.space(gen_set(bsec.gens))
        base, fiber_gens = bases[key], gen_set(fsec.gens)
        fiber_diff = fsec.terms(fiber_gens)
        total_gens = gen_set(bsec.gens + fsec.gens)
        total_diff = sec.parts["total"].terms(total_gens)
        for name, (_, lineno, _) in sec.parts["total"].dlines.items():
            if name in base.gens.by_name:
                raise ModelSyntaxError(
                    f"total differential may only be given on fiber generators, not {name}", lineno
                )
        images = _pack(total_gens, total_diff)
        declared = _pack(fiber_gens, fiber_diff) if fsec.dlines else None
        out.append(_relative(base, fiber_gens, total_gens, images, sec.name, sec.bound, declared))
    return out


def parse_model(text: str) -> SullivanModel:
    models = [m for m in parse_document(text) if isinstance(m, SullivanModel)]
    if len(models) != 1:
        raise ModelSyntaxError(f"expected exactly one [space], found {len(models)}")
    return models[0]


def parse_fibration(text: str) -> RelativeModel:
    models = [m for m in parse_document(text) if isinstance(m, RelativeModel)]
    if len(models) != 1:
        raise ModelSyntaxError(f"expected exactly one [fibration], found {len(models)}")
    return models[0]
