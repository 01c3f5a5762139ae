"""Sullivan models, relative (Koszul-Sullivan) models, and the file format.

A model file is line oriented, UTF-8, with '#' comments:

    [space NAME]
    gen NAME DEGREE          # declaration order = canonical order
    d NAME = EXPR            # omitted => 0
    bound N                  # optional validity bound

    [fibration NAME]
    [base]   ... gen/d/bound lines ...
    [fiber]  ... gen/d lines (d lines optional) ...
    [total]  D NAME = EXPR   # for fiber generators only

EXPR is a sum of terms; a term is an optional rational coefficient times
'*'-joined powers of generator names (e.g. ``w1*w2*t^3 + 2/3*t^9``).  Section
names are identifier-like, or double-quoted when they contain other
characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .algebra import (
    MIXED,
    AlgElement,
    GenSet,
    Monomial,
    apply_to_monomial,
    basis_in_degree,
    leibniz_apply,
    monomial_images,
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
        validate: bool = True,
    ):
        self.gens = gens
        self.diff: dict[str, AlgElement] = {}
        for gname, val in (diff or {}).items():
            gens.get(gname)  # raises UnknownGenerator
            if not val.is_zero():
                self.diff[gname] = val
        self.bound = bound
        self.name = name
        self._diff_by_index = {
            gens.get(n).index: v for n, v in self.diff.items()
        }
        self.images = monomial_images(gens, self._diff_by_index)
        if validate:
            self.validate()

    # --- differential -------------------------------------------------

    def diff_of(self, name: str) -> AlgElement:
        self.gens.get(name)
        return self.diff.get(name, AlgElement.zero(self.gens))

    def d(self, element: AlgElement) -> AlgElement:
        """Apply the differential (degree +1 derivation) to any element."""
        return leibniz_apply(self.gens, self._diff_by_index, 1, element)

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
        for g in self.gens:
            dd = self.d(self.diff_of(g.name))
            if not dd.is_zero():
                raise NotClosed(f"d(d({g.name})) = {dd.format()} != 0")

    @property
    def is_minimal(self) -> bool:
        """True when no differential has a linear (single-generator) part."""
        for val in self.diff.values():
            for mono in val.terms:
                if len(mono.exponents) == 1 and mono.exponents[0][1] == 1:
                    return False
        return True

    @property
    def is_pure(self) -> bool:
        """d vanishes on even generators and sends odd generators into the
        polynomial algebra on the even ones."""
        for gname, val in self.diff.items():
            g = self.gens.get(gname)
            if not g.is_odd:
                if not val.is_zero():
                    return False
                continue
            for mono in val.terms:
                if any(self.gens[i].is_odd for i, _ in mono.exponents):
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
        lines = [f"[space {_format_name(self.name or 'model')}]"]
        for g in self.gens:
            lines.append(f"gen {g.name} {g.degree}")
        for g in self.gens:
            if g.name in self.diff:
                lines.append(f"d {g.name} = {self.diff[g.name].format()}")
        if self.bound is not None:
            lines.append(f"bound {self.bound}")
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
        combined = [(g.name, g.degree) for g in base.gens] + [
            (g.name, g.degree) for g in fiber_gens
        ]
        total_gens = GenSet(combined)
        if bound is None:
            bound = base.bound
        elif base.bound is not None:
            bound = min(bound, base.bound)
        self._total_gens = total_gens
        # total differential: base generators keep the base differential
        tdiff: dict[str, AlgElement] = {
            n: self.embed_base(v) for n, v in base.diff.items()
        }
        for gname, val in total_diff.items():
            if gname in base.gens.by_name:
                raise BaseDiffViolated(
                    f"total differential may only be given on fiber generators, not {gname}"
                )
            fiber_gens.get(gname)
            if val.gens != total_gens:
                val = _reexpress(val, total_gens)
            tdiff[gname] = val
        self.total = SullivanModel(
            total_gens, tdiff, bound=bound, name=name, validate=False
        )
        # fiber differential = base-killing projection of D
        proj_diff: dict[str, AlgElement] = {}
        for g in fiber_gens:
            pv = self.project_fiber_named(fiber_gens, self.total.diff_of(g.name))
            if not pv.is_zero():
                proj_diff[g.name] = pv
        if fiber_diff is not None:
            for g in fiber_gens:
                declared = fiber_diff.get(g.name, AlgElement.zero(fiber_gens))
                if declared != proj_diff.get(g.name, AlgElement.zero(fiber_gens)):
                    raise BaseDiffViolated(
                        f"declared fiber differential of {g.name} disagrees with "
                        "the base-killing projection of D"
                    )
        try:
            self.fiber = SullivanModel(
                fiber_gens, proj_diff, bound=bound, name=name, validate=True
            )
        except NotClosed as exc:
            raise BaseDiffViolated(
                f"projected fiber differential does not square to zero: {exc}"
            ) from exc
        self.total.validate()  # degree homogeneity and D.D = 0

    @property
    def bound(self) -> Optional[int]:
        return self.total.bound

    # --- moving elements between the three algebras -------------------

    def embed_base(self, el: AlgElement) -> AlgElement:
        # base generators occupy the leading indices of the total set
        return AlgElement(self._total_gens, {m: c for m, c in el.terms.items()})

    def total_monomial(self, m: Monomial) -> Monomial:
        """A fiber monomial in the total generator set."""
        return Monomial(tuple((i + self.base_size, e) for i, e in m.exponents))

    def fiber_monomial(self, m: Monomial) -> Optional[Monomial]:
        """p_V on one total monomial: None when it contains a base generator."""
        if self.monomial_has_base(m):
            return None
        return Monomial(tuple((i - self.base_size, e) for i, e in m.exponents))

    def embed_fiber(self, el: AlgElement) -> AlgElement:
        return AlgElement(
            self._total_gens, {self.total_monomial(m): c for m, c in el.terms.items()}
        )

    def project_fiber(self, el: AlgElement) -> AlgElement:
        """p_V: kill every monomial containing a base generator."""
        return self.project_fiber_named(self.fiber.gens, el)

    def project_fiber_named(self, fiber_gens: GenSet, el: AlgElement) -> AlgElement:
        out = {}
        for m, c in el.terms.items():
            fm = self.fiber_monomial(m)
            if fm is not None:
                out[fm] = c
        return AlgElement(fiber_gens, out)

    def is_base_index(self, i: int) -> bool:
        return i < self.base_size

    def monomial_has_base(self, m: Monomial) -> bool:
        return any(i < self.base_size for i, _ in m.exponents)

    def serialize(self) -> str:
        lines = [f"[fibration {_format_name(self.name or 'fibration')}]", "[base]"]
        for g in self.base.gens:
            lines.append(f"gen {g.name} {g.degree}")
        for g in self.base.gens:
            if g.name in self.base.diff:
                lines.append(f"d {g.name} = {self.base.diff[g.name].format()}")
        if self.base.bound is not None:
            lines.append(f"bound {self.base.bound}")
        lines.append("[fiber]")
        for g in self.fiber.gens:
            lines.append(f"gen {g.name} {g.degree}")
        for g in self.fiber.gens:
            if g.name in self.fiber.diff:
                lines.append(f"d {g.name} = {self.fiber.diff[g.name].format()}")
        if self.bound != self.base.bound:
            lines.append(f"bound {self.bound}")
        lines.append("[total]")
        for g in self.fiber.gens:
            dv = self.total.diff_of(g.name)
            if not dv.is_zero():
                lines.append(f"D {g.name} = {dv.format()}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RelativeModel(base={self.base.gens!r}, fiber={self.fiber.gens!r})"


def trivial_fibration(
    fiber: SullivanModel, base: SullivanModel, name: Optional[str] = None
) -> RelativeModel:
    """The product fibration: D = d_W, no base terms in any D(w)."""
    return RelativeModel(
        base, fiber.gens, fiber.diff, fiber_diff=fiber.diff, name=name, bound=fiber.bound
    )


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

    Each degree's basis, differential and cohomology is built at most once,
    on first use, and lives only as long as this object.
    """

    def __init__(self, m: SullivanModel):
        self.model = m
        self._bases: dict[int, list[Monomial]] = {-1: []}  # d(-1) is the zero map into H^0
        self._d: dict[int, RatMatrix] = {}
        self._h: dict[int, HomologySlice] = {}

    def basis(self, n: int) -> list[Monomial]:
        if n not in self._bases:
            self._bases[n] = basis_in_degree(self.model.gens, n)
        return self._bases[n]

    def d(self, n: int) -> RatMatrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis."""
        if n not in self._d:
            m, src = self.model, self.basis(n)
            tgt_index = {mono: i for i, mono in enumerate(self.basis(n + 1))}
            columns = [
                {tgt_index[t]: c for t, c in apply_to_monomial(m.gens, m.images, 1, mono).items()}
                for mono in src
            ]
            self._d[n] = RatMatrix(len(tgt_index), columns)
        return self._d[n]

    def homology(self, n: int) -> HomologySlice:
        """H^n, in coordinates of the degree-n basis."""
        if n not in self._h:
            self._h[n] = HomologySlice(self.d(n - 1), self.d(n))
        return self._h[n]


def cohomology(
    model: Union[SullivanModel, RelativeModel], max_degree: int
) -> dict[int, tuple[int, list[AlgElement]]]:
    """H^n of the (total) algebra for n = 0..max_degree, with representatives."""
    m = model.total if isinstance(model, RelativeModel) else model
    m.check_bound(max_degree)
    cx = Cochains(m)
    for n in range(max_degree + 2):
        cx.basis(n)  # an oversized basis is refused before any elimination
    out = {}
    for n in range(max_degree + 1):
        h, basis = cx.homology(n), cx.basis(n)
        reps = [AlgElement(m.gens, {basis[i]: c for i, c in rep.items()}) for rep in h.representatives]
        out[n] = (h.dim, reps)
    return out


def formal_dimension_estimate(gens: GenSet) -> Optional[int]:
    """Elliptic-space formula: sum of odd degrees minus sum of (even - 1)."""
    est = sum(g.degree for g in gens if g.is_odd) - sum(
        g.degree - 1 for g in gens if not g.is_odd
    )
    return est if est > 0 else None


# ----------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[-+*/^()]))")


def parse_expression(
    text: str, gens: GenSet, line: Optional[int] = None
) -> AlgElement:
    """Parse a sum-of-terms expression over the given generator set."""
    tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
    pos = 0
    while pos < len(text):
        mm = _TOKEN_RE.match(text, pos)
        if mm is None or mm.end() == pos:
            if text[pos:].strip():
                raise ModelSyntaxError(
                    f"unexpected character {text[pos]!r}", line, pos + 1
                )
            break
        if mm.group("num"):
            tokens.append(("num", mm.group("num"), mm.start("num") + 1))
        elif mm.group("name"):
            tokens.append(("name", mm.group("name"), mm.start("name") + 1))
        else:
            tokens.append(("op", mm.group("op"), mm.start("op") + 1))
        pos = mm.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else ("end", "", len(text) + 1)

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def fail(msg, col):
        raise ModelSyntaxError(msg, line, col)

    def parse_rational(sign: int) -> Fraction:
        kind, value, col = take()
        assert kind == "num"
        num = int(value)
        if peek()[:2] == ("op", "/"):
            take()
            k2, v2, c2 = take()
            if k2 != "num" or int(v2) == 0:
                fail("expected a positive integer denominator", c2)
            return Fraction(sign * num, int(v2))
        return Fraction(sign * num)

    def parse_factor() -> AlgElement:
        kind, value, col = take()
        if kind != "name":
            fail(f"expected a generator name, got {value!r}", col)
        try:
            g = gens.get(value)
        except UnknownGenerator:
            fail(f"unknown generator {value!r}", col)
        exp = 1
        if peek()[:2] == ("op", "^"):
            take()
            k2, v2, c2 = take()
            if k2 != "num" or int(v2) < 1:
                fail("expected a positive integer exponent", c2)
            exp = int(v2)
        if g.is_odd and exp > 1:
            return AlgElement.zero(gens)
        return AlgElement.monomial(gens, Monomial(((g.index, exp),)))

    def parse_term() -> AlgElement:
        sign = 1
        while peek()[:2] in (("op", "+"), ("op", "-")):
            if take()[1] == "-":
                sign = -sign
        coeff = Fraction(sign)
        have_factor = False
        if peek()[0] == "num":
            coeff = parse_rational(sign)
            if peek()[:2] == ("op", "*"):
                take()
                have_factor = True
            elif peek()[0] == "name":
                have_factor = True
        elif peek()[0] == "name":
            have_factor = True
        else:
            fail(f"expected a term, got {peek()[1]!r}", peek()[2])
        result = AlgElement.unit(gens, coeff)
        if have_factor:
            result = result * parse_factor()
            while peek()[:2] == ("op", "*"):
                take()
                result = result * parse_factor()
        return result

    if not tokens:
        raise ModelSyntaxError("empty expression", line)
    total = parse_term()
    while peek()[:2] in (("op", "+"), ("op", "-")):
        # leave the sign for parse_term to consume
        total = total + parse_term()
    if peek()[0] != "end":
        fail(f"unexpected token {peek()[1]!r}", peek()[2])
    return total


@dataclass
class _Section:
    kind: str  # space | fibration | base | fiber | total
    name: Optional[str]
    line: int
    gens: list[tuple[str, int, int]] = field(default_factory=list)  # name, degree, line
    dlines: list[tuple[str, str, str, int]] = field(default_factory=list)  # op, name, expr, line
    bound: Optional[int] = None


_HEADER_RE = re.compile(
    r"\[\s*(space|fibration|base|fiber|total)\s*"
    r"(?:\"([^\"]*)\"|([A-Za-z0-9_.'-]*))\s*\]"
)


def _format_name(name: str) -> str:
    if re.fullmatch(r"[A-Za-z0-9_.'-]+", name):
        return name
    return f'"{name}"'


def _split_sections(text: str) -> list[_Section]:
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
            kind, name = m.group(1), m.group(2) or m.group(3) or None
            current = _Section(kind, name, lineno)
            sections.append(current)
            continue
        if current is None:
            # headerless file: implicit [space]
            current = _Section("space", None, lineno)
            sections.append(current)
        parts = code.split()
        if parts[0] == "gen":
            if len(parts) != 3 or not parts[2].isdigit():
                raise ModelSyntaxError("expected 'gen NAME DEGREE'", lineno)
            current.gens.append((parts[1], int(parts[2]), lineno))
        elif parts[0] == "bound":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ModelSyntaxError("expected 'bound N'", lineno)
            current.bound = int(parts[1])
        elif parts[0] in ("d", "D"):
            m = re.fullmatch(r"[dD]\s+([A-Za-z_][A-Za-z0-9_']*)\s*=\s*(.+)", code)
            if not m:
                raise ModelSyntaxError(f"expected '{parts[0]} NAME = EXPR'", lineno)
            current.dlines.append((parts[0], m.group(1), m.group(2), lineno))
        else:
            raise ModelSyntaxError(f"unrecognized line {code!r}", lineno)
    return sections


def _build_space(sec: _Section) -> SullivanModel:
    gens = GenSet([(n, d) for n, d, _ in sec.gens])
    diff = {}
    for op, name, expr, lineno in sec.dlines:
        if op != "d":
            raise ModelSyntaxError("'D' lines belong in a [total] section", lineno)
        gens.get(name)
        diff[name] = parse_expression(expr, gens, lineno)
    return SullivanModel(gens, diff, bound=sec.bound, name=sec.name)


def parse_document(text: str) -> list[Union[SullivanModel, RelativeModel]]:
    """Parse a model file; returns the models in order of appearance."""
    sections = _split_sections(text)
    out: list[Union[SullivanModel, RelativeModel]] = []
    i = 0
    while i < len(sections):
        sec = sections[i]
        if sec.kind == "space":
            out.append(_build_space(sec))
            i += 1
        elif sec.kind == "fibration":
            parts: dict[str, _Section] = {}
            j = i + 1
            while j < len(sections) and sections[j].kind in ("base", "fiber", "total"):
                if sections[j].kind in parts:
                    raise ModelSyntaxError(
                        f"duplicate [{sections[j].kind}] section", sections[j].line
                    )
                parts[sections[j].kind] = sections[j]
                j += 1
            for needed in ("base", "fiber", "total"):
                if needed not in parts:
                    raise ModelSyntaxError(
                        f"fibration {sec.name!r} is missing a [{needed}] section",
                        sec.line,
                    )
            base = _build_space(parts["base"])
            base.name = None
            fsec = parts["fiber"]
            fiber_gens = GenSet([(n, d) for n, d, _ in fsec.gens])
            fiber_diff: Optional[dict[str, AlgElement]] = None
            if fsec.dlines:
                fiber_diff = {}
                for op, name, expr, lineno in fsec.dlines:
                    if op != "d":
                        raise ModelSyntaxError("fiber sections use 'd' lines", lineno)
                    fiber_gens.get(name)
                    fiber_diff[name] = parse_expression(expr, fiber_gens, lineno)
            combined = GenSet(
                [(g.name, g.degree) for g in base.gens]
                + [(g.name, g.degree) for g in fiber_gens]
            )
            total_diff = {}
            for op, name, expr, lineno in parts["total"].dlines:
                if op != "D":
                    raise ModelSyntaxError("total sections use 'D' lines", lineno)
                total_diff[name] = parse_expression(expr, combined, lineno)
            out.append(
                RelativeModel(
                    base,
                    fiber_gens,
                    total_diff,
                    fiber_diff=fiber_diff,
                    name=sec.name,
                    bound=fsec.bound if fsec.bound is not None else sec.bound,
                )
            )
            i = j
        else:
            raise ModelSyntaxError(
                f"[{sec.kind}] section outside a fibration", sec.line
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
