"""Command-line front end.

Every subcommand reads line-oriented model files, runs one computation, and
prints a text table or, with --json, a stable JSON document of the shape
{"model": ..., "degrees": {...}, "bound": ..., "window": ...}.  Exit status
is 0 on success, 1 for validation failures, 2 for computation failures
(bound overruns, enumeration blowups, failed finiteness gates), and 141 when
the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .algebra import MAX_BASIS
from .catalog import Catalog, _d, enumerate_fibrations
from .derivations import ABSOLUTE, RELATIVE, DerComplex, frame_degrees
from .errors import (
    AmbientMismatch,
    BoundExceeded,
    CombinatorialBlowup,
    ModelSyntaxError,
    NotAComplex,
    NotFiniteAtBound,
    RhtError,
)
from .invariants import (
    DEFAULT_WINDOW,
    _les_check,
    _pure_quotient_vanishes,
    connecting_images,
    depth_of_subspaces,
    fibre_gottlieb,
    gottlieb,
    top_shift,
    toral_certificate,
)
from .model import (
    ModelLike,
    RelativeModel,
    SullivanModel,
    cohomology,
    formal_dimension_estimate,
    parse_document,
)
from .poset import poset_of_subspaces, render

COMPUTATION_ERRORS = (
    BoundExceeded,
    CombinatorialBlowup,
    NotFiniteAtBound,
    NotAComplex,
    AmbientMismatch,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _load_models(paths: Sequence[str]) -> list[ModelLike]:
    out: list[ModelLike] = []
    for path in paths:
        out.extend(parse_document(_read(path)))
    if not out:
        raise RhtError("no models found in " + ", ".join(paths))
    return out


def _fibrations(models: Sequence[ModelLike]) -> list[RelativeModel]:
    fibs = [m for m in models if isinstance(m, RelativeModel)]
    if not fibs:
        raise RhtError("this subcommand needs at least one [fibration]")
    return fibs


def _per_fibre(build):
    """m -> build(m), build called once per distinct fibre: same generators,
    d (as Catalog compares fibres) and bound; kept as long as the function."""
    fibres, made = [], []  # per fibre, its (generators, bound, d) and what build made

    def get(m: ModelLike):
        key = (m.fiber.gens, m.fiber.bound, _d(m.fiber))
        if key not in fibres:  # compared by ==: a GenSet's hash costs a tuple per call
            made.append(build(m))
            fibres.append(key)
        return made[fibres.index(key)]

    return get


def _parse_degrees(spec: Optional[str], default: tuple[int, int]) -> range:
    if spec is None:
        lo, hi = default
    else:
        a, dots, b = spec.partition("..")
        try:
            lo, hi = int(a), int(b if dots else a)
        except ValueError:
            raise RhtError(f"--degrees expects a..b or a single degree, got {spec!r}") from None
        if not 1 <= lo <= hi:
            raise RhtError(f"--degrees needs 1 <= a <= b, got {spec!r}")
        if hi > MAX_BASIS:
            raise CombinatorialBlowup(f"--degrees ends at {hi}, past {MAX_BASIS}, the highest generator degree")
    return range(lo, hi + 1)


def _parse_coeffs(spec: str) -> list[Fraction]:
    try:
        coeffs = [Fraction(tok.strip()) for tok in spec.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        coeffs = []  # refused below, as is a list of no coefficient ("" or ",,")
    if not coeffs:
        raise RhtError(f"--coeffs expects comma-separated rationals, got {spec!r}")
    return coeffs


def _emit(args, doc, lines) -> None:
    """Print one report: doc as indented JSON under --json, else the text lines."""
    print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))


def _report_degrees(args, model_name, rows, bound=None):
    """Write rows, (n, (dim, basis labels)) in ascending n, each as it comes: a text
    table, or json.dumps(doc, indent=2)'s layout under --json.  "window" is part
    of the pinned schema; no per-degree report has one."""
    if not args.json:
        print(f"model {model_name}")
        for n, (dim, basis) in rows:
            print(f"  n={n}  dim {dim}" + ("  " + ", ".join(basis) if basis else ""))
        return
    print(f'{{\n  "model": {json.dumps(model_name)},\n  "degrees": {{', end="")
    sep = ""  # "," once a row is written
    for n, (dim, basis) in rows:
        labels = "[\n        " + ",\n        ".join(map(json.dumps, basis)) + "\n      ]" if basis else "[]"
        print(f'{sep}\n    "{n}": {{\n      "dim": {dim},\n      "basis": {labels}\n    }}', end="")
        sep = ","
    print(("\n  }" if sep else "}") + f',\n  "bound": {json.dumps(bound)},\n  "window": null\n}}')


def _report_les(args, name, report) -> None:
    """Write a LesReport: a text table, or json.dumps(doc, indent=2)'s bytes
    under --json, one f-string per node, with no pure-Python encoder."""
    if not args.json:
        print(f"model {name}")
        for nd in report.nodes:
            flag = "ok" if nd.exact else "FAIL"
            print(f"  {nd.node}: dim {nd.dim}, in {nd.rank_in}, out {nd.rank_out}  [{flag}]")
        print("  exact" if report.exact else "  NOT exact")
        return
    # str(b).lower() is a bool's JSON, at a hundredth of json.dumps(b)'s cost
    nodes = ",".join(
        f'\n    {{\n      "node": {json.dumps(nd.node)},\n      "dim": {nd.dim},\n      "rank_in": '
        f'{nd.rank_in},\n      "rank_out": {nd.rank_out},\n      "exact": {str(nd.exact).lower()}\n    }}'
        for nd in report.nodes
    )
    nodes = f"[{nodes}\n  ]" if nodes else "[]"
    print(
        f'{{\n  "model": {json.dumps(name)},\n  "chain_level_ok": {str(report.chain_level_ok).lower()},'
        f'\n  "exact": {str(report.exact).lower()},\n  "nodes": {nodes}\n}}'
    )


def _subspace_rows(per_degree) -> list[tuple[int, tuple[int, list[str]]]]:
    """The report rows of per-degree subspaces of Hom(W^n, Q)."""
    return [(n, (sub.dim, sub.basis_labels())) for n, sub in sorted(per_degree.items())]


# ----------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    status = 0
    for path in args.files:
        try:
            models = parse_document(_read(path))  # parsing validates every model
            print(f"{path}: OK ({len(models)} model(s))")
        except (RhtError, OSError) as exc:
            print(f"{path}: {type(exc).__name__}: {exc}")
            status = 1
    return status


def _cmd_homotopy(args) -> int:
    for m in _load_models(args.files):
        space = m.fiber
        top = top_shift(m) if args.max_degree is None else args.max_degree
        names = [(n, [g.name for g in space.gens if g.degree == n]) for n in frame_degrees(space, top)]
        rows = [(n, (len(v), v)) for n, v in names]
        _report_degrees(args, space.name or "model", rows, bound=space.bound)
    return 0


def _cmd_cohomology(args) -> int:
    for m in _load_models(args.files):
        total = m.total
        fd = formal_dimension_estimate(total.gens)
        top = args.max_degree
        if top is None:
            top = total.bound if total.bound is not None else fd
        if top is None:
            raise RhtError("need --max-degree for a model with no bound and even generators")
        total.check_bound(top)
        if fd is not None and fd < top and _pure_quotient_vanishes(total, fd, top - fd):
            top = fd  # H is finite, so zero above fd: only nonzero rows are printed
        rows = ((n, row) for n, row in cohomology(m, top) if row[0])
        _report_degrees(args, m.name or "model", rows, bound=total.bound)
    return 0


def _cmd_der_homology(args) -> int:
    for m in _load_models(args.files):
        scope = RELATIVE if isinstance(m, RelativeModel) else ABSOLUTE
        degrees = _parse_degrees(args.degrees, (1, top_shift(m)))
        cx = DerComplex(m, scope)  # one complex for every degree of this model
        rows = {}
        for n in degrees:
            h, basis = cx.homology(n), cx.slice(n)
            rows[n] = (h.dim, [basis.format(rep) for rep in h.representatives])
        _report_degrees(args, m.name or "model", sorted(rows.items()))
    return 0


def _cmd_gottlieb(args) -> int:
    group = _per_fibre(lambda m: gottlieb(m, args.max_degree))  # a fibre's, for every model over it
    for m in _load_models(args.files):
        _report_degrees(args, m.name or "model", _subspace_rows(group(m).per_degree))
    return 0


def _cmd_fibre_gottlieb(args) -> int:
    for f in _fibrations(_load_models(args.files)):
        result = fibre_gottlieb(f, args.max_degree)
        _report_degrees(args, f.name or "fibration", _subspace_rows(result.per_degree))
    return 0


def _cmd_connecting(args) -> int:
    for f in _fibrations(_load_models(args.files)):
        _report_degrees(args, f.name or "fibration", _subspace_rows(connecting_images(f)))
    return 0


def _cmd_les_check(args) -> int:
    status, absolute = 0, _per_fibre(lambda f: DerComplex(f, ABSOLUTE))  # one per fibre
    for f in _fibrations(_load_models(args.files)):
        degrees = _parse_degrees(args.degrees, (1, top_shift(f)))
        if not degrees:
            raise RhtError(f"{f.name or 'fibration'} has no fiber generators: pass --degrees")
        report = _les_check(f, list(degrees), absolute(f))
        _report_les(args, f.name or "fibration", report)
        if not report.exact:
            status = 1
    return status


def _cmd_toral_check(args) -> int:
    for f in _fibrations(_load_models(args.files)):
        cert = toral_certificate(f, args.window)
        name = f.name or "fibration"
        # by hand: the pinned key order is not the certificate's field order
        doc = {
            "model": name,
            "r": cert.r,
            "verdict": cert.verdict,
            "finite_through": cert.finite_through,
            "top_nonzero": cert.top_nonzero,
            "window": args.window,
        }
        extra = "" if cert.top_nonzero is None else f", top nonzero degree {cert.top_nonzero}"
        text = f"{name}: r={cert.r} {cert.verdict} (checked through degree {cert.finite_through}"
        _emit(args, doc, [f"{text}{extra})"])
    return 0


def _catalog_from_files(args) -> Catalog:
    fibs = _fibrations(_load_models(args.files))
    cat = Catalog(fibs[0].fiber, [(f.name or f"fibration-{i}", f) for i, f in enumerate(fibs)])
    if args.require_finite:
        cat.check_finite(args.window)
    return cat


def _cmd_depth(args) -> int:
    result = depth_of_subspaces(_catalog_from_files(args).realized_subspaces())
    _emit(args, vars(result), [f"depth {result.depth}  ({' > '.join(result.witness)})"])
    return 0


def _emit_poset(args, poset) -> None:
    if args.dot:
        Path(args.dot).write_text(render(poset, "dot"))
    print(render(poset, "json" if args.json else "text"), end="")


def _cmd_poset(args) -> int:
    cat = _catalog_from_files(args)
    _emit_poset(args, poset_of_subspaces(cat.realized_subspaces()))
    return 0


def _cmd_enumerate(args) -> int:
    models = _load_models(args.files)
    spaces = [m for m in models if isinstance(m, SullivanModel)]
    if len(spaces) != 2:
        raise RhtError("enumerate needs exactly two [space] models: fiber then base")
    fiber, base = spaces
    cat = enumerate_fibrations(
        fiber,
        base,
        coeff_set=_parse_coeffs(args.coeffs),
        require_finite=args.require_finite,
        window=args.window,
    )
    print(f"{len(cat)} fibration(s) kept", file=sys.stderr)
    _emit_poset(args, poset_of_subspaces(cat.realized_subspaces()))
    return 0


# ----------------------------------------------------------------------
# dispatch


_OPTIONS = {
    "--degrees": dict(help="degree range a..b or a single degree"),
    "--max-degree": dict(type=int, help="top degree to compute"),
    "--window": dict(type=int, default=DEFAULT_WINDOW, help="finiteness window size"),
    "--coeffs": dict(default="0,1", help="enumeration coefficients"),
    "--require-finite": dict(
        action="store_true",
        help="drop or reject entries failing the finiteness window check",
    ),
    "--dot": dict(help="write the Hasse diagram to this DOT file"),
    "--json": dict(action="store_true", help="emit JSON instead of text"),
}

# name -> (handler, help, flags), in the order rht --help lists them
_COMMANDS = {
    "validate": (_cmd_validate, "parse and check model files", ()),
    "homotopy": (_cmd_homotopy, "rational homotopy ranks from generator degrees",
                 ("--max-degree", "--json")),
    "cohomology": (_cmd_cohomology, "cohomology of the (total) algebra",
                   ("--max-degree", "--json")),
    "der-homology": (_cmd_der_homology, "derivation complex homology", ("--degrees", "--json")),
    "gottlieb": (_cmd_gottlieb, "rationalized Gottlieb group", ("--max-degree", "--json")),
    "fibre-gottlieb": (_cmd_fibre_gottlieb, "fibre-restricted Gottlieb group",
                       ("--max-degree", "--json")),
    "connecting": (_cmd_connecting, "connecting image inside the Gottlieb group", ("--json",)),
    "les-check": (_cmd_les_check, "ideal/relative/absolute exactness check",
                  ("--degrees", "--json")),
    "toral-check": (_cmd_toral_check, "bounded almost-free torus certificate",
                    ("--window", "--json")),
    "depth": (_cmd_depth, "depth of realized subspaces of a catalog",
              ("--window", "--require-finite", "--json")),
    "poset": (_cmd_poset, "inclusion poset of realized subspaces",
              ("--window", "--require-finite", "--dot", "--json")),
    "enumerate": (_cmd_enumerate, "enumerate fibrations of a fiber over a base",
                  ("--window", "--coeffs", "--require-finite", "--dot", "--json")),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> None:
    """Add command name's arguments and handler to parser."""
    func, _, flags = _COMMANDS[name]
    parser.add_argument("files", nargs="+", help="model files")
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(func=func)


class _Fallback(Exception):
    """A command's own parser met help or a usage error: the full tree prints it."""


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, built like the full tree's subparser for it, so
    it reads every argv the same way; it prints nothing itself."""

    def print_help(self, file=None):
        raise _Fallback

    def error(self, message):
        raise _Fallback


@functools.cache  # built on a command's first call, not at import; parsing keeps no state
def _command_parser(name: str) -> argparse.ArgumentParser:
    parser = _CommandParser(prog=f"rht {name}")
    _fill(parser, name)
    return parser


@functools.cache  # built only for help and usage errors
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rht",
        description="Gottlieb groups, derivation homology, and fibration posets "
        "of Sullivan models over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of one call, read by the called command's parser alone.

    Anything else goes to the full tree: no command or an unknown one, help,
    a usage error, or arguments the command leaves over.  So every help text
    and usage error comes from _build_parser, and the namespace differs from
    its own only in having no ``command``.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
            if not rest:
                return args
        except _Fallback:
            pass
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    window = getattr(args, "window", None)
    max_degree = getattr(args, "max_degree", None)
    try:
        if window is not None and window < 1:
            raise RhtError(f"--window must be at least 1, got {window}")
        if max_degree is not None and max_degree < 0:
            raise RhtError(f"--max-degree must be nonnegative, got {max_degree}")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # 128 + SIGPIPE, what a shell reports for a tool killed by the signal;
        # stdout goes to devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except COMPUTATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (RhtError, OSError, UnicodeEncodeError) as exc:  # the last: stdout cannot encode a name
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
