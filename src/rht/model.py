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
from typing import Optional, Union

from .algebra import (
    MIXED,
    AlgElement,
    GenSet,
    Monomial,
    _apply,
    _format_sum,
    _Operator,
    _sum,
    _leibniz,
    monomial_images,
    normalize_word,
)
from .errors import (
    BaseDiffViolated,
    BoundExceeded,
    DegreeMismatch,
    ModelSyntaxError,
    NotClosed,
    UnknownGenerator,
)
from .linalg import HomologySlice, RatMatrix


class SullivanModel:
    """A free graded-commutative algebra with a differential on generators."""

    def __init__(
        self,
        gens: GenSet,
        diff: Optional[dict[str, AlgElement]] = None,
        bound: Optional[int] = None,
        name: Optional[str] = None,
    ):
        self.gens = gens
        self.diff: dict[str, AlgElement] = {}
        for gname, val in (diff or {}).items():
            gens.get(gname)  # raises UnknownGenerator
            if not val.is_zero():
                self.diff[gname] = val
        self.bound = bound
        self.name = name
        self.images = monomial_images(
            gens, {gens.get(n).index: v for n, v in self.diff.items()}
        )
        self.validate()

    # a space is its own fibre and total, as a RelativeModel has both
    fiber = total = property(lambda self: self)

    @cached_property
    def operator(self) -> _Operator:
        """d compiled for the Leibniz kernel, on first use (never before the
        degree check), once per model."""
        return _Operator(self.gens, self.images, 1)

    # --- differential -------------------------------------------------

    def diff_of(self, name: str) -> AlgElement:
        self.gens.get(name)
        return self.diff.get(name, AlgElement.zero(self.gens))

    def d(self, element: AlgElement) -> AlgElement:
        """Apply the differential (degree +1 derivation) to any element."""
        return _apply(self.gens, self.operator, element)

    # --- validation ---------------------------------------------------

    def validate(self):
        for gname, val in self.diff.items():
            g = self.gens.get(gname)
            deg = val.degree()
            if deg is MIXED or (deg is not None and deg != g.degree + 1):
                raise DegreeMismatch(
                    f"d({gname}) must be homogeneous of degree {g.degree + 1}, "
                    f"got degree {deg if deg is not MIXED else 'mixed'}"
                )
        images = self.images
        for g in self.gens:  # declaration order: the first failure is reported
            # d(d(g)) is zero at once when no factor of a term of d(g) has an image
            if any(x in images for t, _ in images.get(g.index, ()) for x, _ in t):
                op = self.operator
                if _sum(op.entries, op.terms[g.index]):
                    raise NotClosed(f"d(d({g.name})) = {self.d(self.diff[g.name]).format()} != 0")

    @property
    def is_minimal(self) -> bool:
        """True when no differential has a linear (single-generator) part."""
        for val in self.diff.values():
            for mono in val.terms:
                if len(mono.exponents) == 1 and mono.exponents[0][1] == 1:
                    return False
        return True

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


class RelativeModel:
    """A Koszul-Sullivan model Lambda V -> Lambda V (x) Lambda W -> Lambda W."""

    def __init__(
        self,
        base: SullivanModel,
        fiber_gens: GenSet,
        total_diff: dict[str, AlgElement],
        fiber_diff: Optional[dict[str, AlgElement]] = None,
        name: Optional[str] = None,
        bound: Optional[int] = None,
    ):
        self.base = base
        self.name = name
        self.base_size = len(base.gens)
        # the base generators, then the fiber's; D given over a set of this
        # layout lends it to the total, so that fibrations built over one set
        # share it and its degree bases
        layout = [(g.name, g.degree) for g in (*base.gens, *fiber_gens)]
        total_gens = next(
            (v.gens for v in total_diff.values() if [(g.name, g.degree) for g in v.gens] == layout),
            None,
        )
        if total_gens is None:
            total_gens = GenSet(layout)
        if bound is None:
            bound = base.bound
        elif base.bound is not None:
            bound = min(bound, base.bound)
        # total differential: base generators keep the base differential,
        # unchanged because they lead the total set
        tdiff = {n: AlgElement(total_gens, v.terms) for n, v in base.diff.items()}
        for gname, val in total_diff.items():
            if gname in base.gens.by_name:
                raise BaseDiffViolated(
                    f"total differential may only be given on fiber generators, not {gname}"
                )
            fiber_gens.get(gname)
            if val.gens != total_gens:
                val = _reexpress(val, total_gens)
            tdiff[gname] = val
        # fiber differential = base-killing projection of D
        proj_diff = {
            g.name: AlgElement(fiber_gens, self._fiber_terms(tdiff[g.name]))
            for g in fiber_gens
            if g.name in tdiff
        }
        if fiber_diff is not None:
            for g in fiber_gens:
                declared = fiber_diff.get(g.name, AlgElement.zero(fiber_gens))
                if declared != proj_diff.get(g.name, AlgElement.zero(fiber_gens)):
                    raise BaseDiffViolated(
                        f"declared fiber differential of {g.name} disagrees with "
                        "the base-killing projection of D"
                    )
        try:
            self.fiber = SullivanModel(fiber_gens, proj_diff, bound=bound, name=name)
        except NotClosed as exc:
            raise BaseDiffViolated(
                f"projected fiber differential does not square to zero: {exc}"
            ) from exc
        # last, so that a fiber violation is reported before the total's
        self.total = SullivanModel(total_gens, tdiff, bound=bound, name=name)

    @property
    def bound(self) -> Optional[int]:
        return self.total.bound

    # --- moving elements between the three algebras -------------------

    def fiber_exponents(self, e: tuple) -> Optional[tuple]:
        """p_V on one total exponent tuple: None when it holds a base generator."""
        k = self.base_size
        # sorted by generator index, and the base generators lead
        return None if e and e[0][0] < k else tuple((i - k, x) for i, x in e)

    def _fiber_terms(self, el: AlgElement) -> dict[Monomial, Fraction]:
        """The terms of p_V(el), in fiber monomials."""
        terms = ((self.fiber_exponents(m.exponents), c) for m, c in el.terms.items())
        return {Monomial(e): c for e, c in terms if e is not None}

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
        for g in self.fiber.gens:
            dv = self.total.diff_of(g.name)
            if not dv.is_zero():
                lines.append(f"D {g.name} = {dv.format()}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RelativeModel(base={self.base.gens!r}, fiber={self.fiber.gens!r})"


# a space, or a fibration; each answers .fiber and .total
ModelLike = Union[SullivanModel, RelativeModel]


def trivial_fibration(
    fiber: SullivanModel, base: SullivanModel, name: Optional[str] = None
) -> RelativeModel:
    """The product fibration: D = d_W, no base terms in any D(w)."""
    return RelativeModel(
        base, fiber.gens, fiber.diff, fiber_diff=fiber.diff, name=name, bound=fiber.bound
    )


def _section_lines(m: SullivanModel, bound: Optional[int]) -> list[str]:
    """The gen, d and bound lines of a [space], [base] or [fiber] section."""
    lines = [f"gen {g.name} {g.degree}" for g in m.gens]
    lines += [f"d {g.name} = {m.diff[g.name].format()}" for g in m.gens if g.name in m.diff]
    return lines + ([] if bound is None else [f"bound {bound}"])


def _reexpress(el: AlgElement, target: GenSet) -> AlgElement:
    """Map an element into a generator set containing the same names."""
    out = {}
    for m, c in el.terms.items():
        new = []
        for i, e in m.exponents:
            g = el.gens[i]
            tg = target.get(g.name)
            if tg.degree != g.degree:
                raise DegreeMismatch(f"generator {g.name} changes degree")
            new.append((tg.index, e))
        out[Monomial(tuple(sorted(new)))] = c
    return AlgElement(target, out)


# ----------------------------------------------------------------------
# cohomology and formal dimension


class Cochains:
    """The cochain complex (Lambda V, d) of one model, for one call.

    Each degree's differential and cohomology is built at most once, on first
    use, and lives only as long as this object.  The degree bases are the
    packed key lists of the model's GenSet, which every model over it
    shares; a caller unpacks only the monomials it prints.
    """

    def __init__(self, m: SullivanModel):
        self.model = m
        self._d: dict[int, RatMatrix] = {}
        self._h: dict[int, HomologySlice] = {}

    def keys(self, n: int) -> list[int]:
        """The degree-n basis as packed monomials; d(-1) is the zero map into H^0."""
        return self.model.gens.keys(n) if n >= 0 else []

    def d(self, n: int) -> RatMatrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis."""
        if n not in self._d:
            images = self.model.operator.entries
            index = {k: i for i, k in enumerate(self.keys(n + 1))}
            columns = [
                {index[k]: c for k, c in _leibniz(images, key, {}).items() if c}
                for key in self.keys(n)
            ]
            self._d[n] = RatMatrix._trusted(len(index), columns)
        return self._d[n]

    def homology(self, n: int) -> HomologySlice:
        """H^n, in coordinates of the degree-n basis."""
        if n not in self._h:
            self._h[n] = HomologySlice(self.d(n - 1), self.d(n))
        return self._h[n]


def cohomology(model: ModelLike, max_degree: int) -> dict[int, tuple[int, list[str]]]:
    """H^n of the (total) algebra for n = 0..max_degree: its dimension and
    the text of a representative cocycle of each basis class."""
    m = model.total
    m.check_bound(max_degree)
    for n in range(max_degree + 2):
        m.gens.size(n)  # an oversized basis is refused before any is built
    cx = Cochains(m)
    out = {}
    for n in range(max_degree + 1):
        h, keys = cx.homology(n), cx.keys(n)
        # basis order is sort_key order within a degree
        reps = [
            _format_sum(m.gens, [(m.gens.unpack(keys[i]), rep[i]) for i in sorted(rep)])
            for rep in h.representatives
        ]
        out[n] = (h.dim, reps)
    return out


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
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def parse_expression(
    text: str, gens: GenSet, line: Optional[int] = None, column: int = 1
) -> AlgElement:
    """Parse a sum-of-terms expression over the given generator set.

    Each term is read as a signed coefficient and a list of (generator index,
    exponent) factors, which normalize_word brings to normal form once.
    column is where text starts in its line, so that an error names the
    column of the line."""
    tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
    for mm in _TOKEN_RE.finditer(text):
        kind, col = mm.lastgroup, column + mm.start(mm.lastgroup)
        if kind == "bad":
            raise ModelSyntaxError(f"unexpected character {mm[kind]!r}", line, col)
        tokens.append((kind, mm[kind], col))
    if not tokens:
        raise ModelSyntaxError("empty expression", line)
    tokens.append(("end", "", column + len(text)))
    terms: dict[Monomial, Fraction] = {}
    i = 0
    while True:
        # a term: signs, then a coefficient, '*'-joined factors, or both
        sign = 1
        while tokens[i][1] in ("+", "-"):
            sign = -sign if tokens[i][1] == "-" else sign
            i += 1
        coeff, factors = Fraction(sign), []
        kind, value, col = tokens[i]
        if kind == "num":
            coeff *= int(value)
            if tokens[i + 1][1] == "/":
                kind, value, col = tokens[i + 2]
                if kind != "num" or int(value) == 0:
                    raise ModelSyntaxError("expected a positive integer denominator", line, col)
                coeff /= int(value)
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
            exp = 1
            if tokens[i + 1][1] == "^":
                kind, digits, col = tokens[i + 2]
                if kind != "num" or int(digits) < 1:
                    raise ModelSyntaxError("expected a positive integer exponent", line, col)
                exp, i = int(digits), i + 2
            factors.append((gens.by_name[value].index, exp))
            more = tokens[i + 1][1] == "*"
            i += 2 if more else 1
        norm = normalize_word(gens, factors)  # None: an odd generator twice
        if norm is not None:
            koszul, mono = norm
            c = terms.get(mono, 0) + koszul * coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)  # so a later term on mono comes last, as in a sum
        if tokens[i][1] not in ("+", "-"):
            break
    if tokens[i][0] != "end":
        raise ModelSyntaxError(f"unexpected token {tokens[i][1]!r}", line, tokens[i][2])
    return AlgElement(gens, terms)


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
        parts = code.split()
        kind = parts[0]
        if kind not in ("gen", "d", "D", "bound"):
            raise ModelSyntaxError(f"unrecognized line {code!r}", lineno)
        if kind not in _LINE_KINDS[self.kind]:
            raise ModelSyntaxError(f"a [{self.kind}] section takes no '{kind}' line", lineno)
        if kind == "gen":
            if len(parts) != 3 or not parts[2].isdigit():
                raise ModelSyntaxError("expected 'gen NAME DEGREE'", lineno)
            # a fibration's base and fibre generators share one namespace
            declared = (name for sec in top.parts.values() or [self] for name, _ in sec.gens)
            if parts[1] in declared:
                raise ModelSyntaxError(f"generator {parts[1]} declared twice", lineno)
            self.gens.append((parts[1], int(parts[2])))
        elif kind == "bound":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ModelSyntaxError("expected 'bound N'", lineno)
            owner = top if self.kind == "fiber" else self
            if owner.bound is not None:
                raise ModelSyntaxError(f"a second 'bound' line for one {owner.kind}", lineno)
            owner.bound = int(parts[1])
        else:
            m = re.fullmatch(r"[dD]\s+([A-Za-z_][A-Za-z0-9_']*)\s*=\s*(.+)", code)
            if not m:
                raise ModelSyntaxError(f"expected '{kind} NAME = EXPR'", lineno)
            if m.group(1) in self.dlines:
                raise ModelSyntaxError(f"a second '{kind}' line for {m.group(1)}", lineno)
            self.dlines[m.group(1)] = (m.group(2), lineno, column + m.start(2))

    def diff(self, gens: GenSet) -> dict[str, AlgElement]:
        """The section's d or D lines, parsed over gens."""
        out = {}
        for name, (expr, lineno, column) in self.dlines.items():
            try:
                gens.get(name)
            except UnknownGenerator:
                raise ModelSyntaxError(f"unknown generator {name!r}", lineno) from None
            out[name] = parse_expression(expr, gens, lineno, column)
        return out

    def space(self, gens: GenSet, name: Optional[str] = None) -> SullivanModel:
        return SullivanModel(gens, self.diff(gens), bound=self.bound, name=name)


_HEADER_RE = re.compile(
    r"\[\s*(space|fibration|base|fiber|total)\s*"
    r"(?:\"([^\"]*)\"|([A-Za-z0-9_.'-]*))\s*\]"
)


def _format_name(name: str) -> str:
    if re.fullmatch(r"[A-Za-z0-9_.'-]+", name):
        return name
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
    """Parse a model file; returns the models in order of appearance."""
    sets: dict[tuple, GenSet] = {}  # one per generator layout: its models share its degree bases

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
        base, fiber_gens = bsec.space(gen_set(bsec.gens)), gen_set(fsec.gens)
        fiber_diff = fsec.diff(fiber_gens) if fsec.dlines else None
        total_gens = gen_set(bsec.gens + fsec.gens)
        total_diff = sec.parts["total"].diff(total_gens)
        if not total_diff and fsec.gens:  # an empty [total] lends the total its set by a zero D
            total_diff = {fsec.gens[0][0]: AlgElement.zero(total_gens)}
        for name, (_, lineno, _) in sec.parts["total"].dlines.items():
            if name in base.gens.by_name:
                raise ModelSyntaxError(
                    f"total differential may only be given on fiber generators, not {name}", lineno
                )
        out.append(
            RelativeModel(
                base, fiber_gens, total_diff, fiber_diff=fiber_diff, name=sec.name, bound=sec.bound
            )
        )
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
