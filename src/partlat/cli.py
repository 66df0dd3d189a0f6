"""Command line interface.

Exit codes: 0 on success, 1 on validation or expectation failure, 2 on
usage or parse errors. Results go to stdout, diagnostics to stderr.
"""

import argparse
import functools
import re
import sys

from . import figures, fmt, verify
from .congruence import all_partial_congruences, quotient
from .errors import BadParameter, ParseError, PartlatError, SemanticError
from .extension import one_point_extension
from .morphism import find_isomorphism
from .order import Poset, is_plos, named_lattice, validate_lattice
from .plattice import (
    check_absorption,
    from_plos,
    is_total,
    to_lattice,
    validate_partial_lattice,
)

_NAMED = re.compile(r"^(?:N5|(M|chain|boolean)(\d+))$")


def _read(path):
    """The text of ``path``, or of stdin for ``-``, decoded as UTF-8 whatever
    the locale; a text stream set as stdin in process is read as it is."""
    if path == "-":
        if sys.stdin is None:  # the process was started with stdin closed
            raise OSError("stdin is closed")
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    elif "\0" in path:  # open() raises ValueError; no file has such a name
        raise FileNotFoundError(f"no such file: {path!r}")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise ParseError(*fmt.text_end(head), "UTF-8 text") from None


def _load(path):
    return fmt.build(fmt.parse(_read(path)))


def _as_plattice(structure):
    if isinstance(structure, Poset):
        return from_plos(structure)
    return structure


def _emit(structure, dot):
    if dot:
        sys.stdout.write(fmt.emit_dot(structure))
    else:
        sys.stdout.write(fmt.format_document(fmt.to_document(structure)))


def cmd_validate(args):
    structure = _load(args.file)
    if isinstance(structure, Poset):
        print(f"poset: {structure.n} elements, valid partial order")
        report = is_plos(structure)
        if report:
            print("bound properties: satisfied (partially lattice-ordered)")
        else:
            pair = tuple(structure.labels[i] for i in report.witness)
            members = " ".join(sorted(structure.labels[i] for i in report.bound_set))
            print(f"bound properties: {report.side} bound set of {pair} "
                  f"has no extremum ({members})")
        return 0
    print(f"plattice: {structure.n} elements, axioms hold")
    print(f"totality: {is_total(structure)}")
    print(f"weak absorption: {'holds' if check_absorption(structure, 'weak') else 'fails'}")
    return 0


def cmd_order(args):
    structure = _load(args.file)
    p = structure if isinstance(structure, Poset) else structure.order
    _emit(p, args.dot)
    return 0


def cmd_extend(args):
    lat = _as_plattice(_load(args.file))
    ext = lat.extension
    if ext.added:
        print("added " + ", ".join(ext.star.labels[lat.n:]), file=sys.stderr)
    else:
        print("no bounds added", file=sys.stderr)
    _emit(ext.star, args.dot)
    return 0


def cmd_onepoint(args):
    lat = _as_plattice(_load(args.file))
    algebra = one_point_extension(lat)
    print("elements " + " ".join(algebra.labels))
    for op, table in (("join", algebra.join), ("meet", algebra.meet)):
        for i in range(algebra.n):
            for j in range(i + 1, algebra.n):
                print(f"{op} {algebra.labels[i]} {algebra.labels[j]} = "
                      f"{algebra.labels[int(table[i, j])]}")
    if algebra.new_element is None:
        print("# already total, nothing adjoined")
        return 0
    try:
        validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
    except PartlatError as exc:  # always: see OnePointAlgebra
        witness = " ".join(algebra.labels[i] for i in getattr(exc, "witness", ()))
        print(f"# not a partial lattice: {exc.args[0]} (cell: {witness})")
    return 0


def cmd_congruences(args):
    lat = _as_plattice(_load(args.file))
    for e in all_partial_congruences(lat):
        print(e.render(lat.labels))
    return 0


def cmd_quotient(args):
    lat = _as_plattice(_load(args.file))
    e = fmt.parse_partition(args.classes, lat.labels)
    _emit(quotient(lat, e), args.dot)
    return 0


def _load_lattice(ref):
    m = _NAMED.match(ref)
    if m:
        kind, digits = m.groups()
        if kind is None:
            return named_lattice("N5")
        if len(digits.lstrip("0")) > 9:  # far past the cap; int() refuses thousands
            raise BadParameter(f"{kind} size has {len(digits)} digits")
        return named_lattice(kind, int(digits))
    structure = _load(ref)
    if isinstance(structure, Poset):
        return validate_lattice(structure)
    return to_lattice(structure)


def cmd_iso(args):
    a = _load_lattice(args.first)
    b = _load_lattice(args.second)
    witness = find_isomorphism(a, b)
    if witness is None:
        print("not isomorphic")
        return 1
    for i, j in enumerate(witness.forward.mapping):
        print(f"{a.labels[i]} -> {b.labels[j]}")
    return 0


def cmd_verify(args):
    checked, failures = verify.verify_corpus(args.n)
    for failure in failures:
        print(failure, file=sys.stderr)
    status = "ok" if not failures else f"{len(failures)} failures"
    print(f"checked {checked} partial lattices on up to {args.n} elements: {status}")
    return 0 if not failures else 1


def cmd_demo(args):
    if args.dot:
        note, structure = figures.demo_structure(args.fig)
        print(f"# {args.fig}: {note}")
        sys.stdout.write(fmt.emit_dot(structure))
    else:
        sys.stdout.write(figures.demo_text(args.fig))
    return 0


@functools.cache
def _build_parser():
    """The argparse tree, built on the first ``cli()`` call and shared after.

    It holds no state between calls: argparse makes a fresh namespace per
    parse and its help formatter, which reads ``COLUMNS``, when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="partlat",
        description="Finite partial lattices: validation, extensions, "
                    "congruences, quotients, and isomorphism checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, dot=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for stdin")
        if dot:
            p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check a poset or partial lattice document")
    add("order", cmd_order, "print the (induced) order", dot=True)
    add("extend", cmd_extend, "two-point extension", dot=True)
    add("onepoint", cmd_onepoint, "one-point totalization and its axiom report")
    add("congruences", cmd_congruences, "list all congruences")
    quot = add("quotient", cmd_quotient, "quotient by a congruence", dot=True)
    quot.add_argument("--classes", required=True,
                      help="blocks as labels, e.g. 'a c|b'; rest are singletons")
    iso = sub.add_parser("iso", help="search for an isomorphism between two lattices")
    iso.add_argument("first", help="file or named lattice (N5, M3, chain4, boolean2)")
    iso.add_argument("second")
    iso.set_defaults(func=cmd_iso)
    ver = sub.add_parser("verify", help="run the law suite over the enumerated corpus")
    ver.add_argument("--n", type=int, default=4, choices=range(1, 9),
                     help="largest carrier size to enumerate")
    ver.set_defaults(func=cmd_verify)
    demo = sub.add_parser("demo", help="print a figure from the bundled gallery")
    demo.add_argument("fig", choices=figures.FIGURES)
    demo.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    demo.set_defaults(func=cmd_demo)
    return parser


def cli(argv=None):
    """Run the CLI on an argument list and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ParseError, SemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PartlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))
