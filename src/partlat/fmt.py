"""Text format for posets and partial lattices, plus DOT export.

The grammar, exactly:

    poset                      plattice
    elements a b c             elements a b
    rel a<c                    join a b = c
                               meet a b = a

Names match ``[A-Za-z0-9_]+``. Poset relations are strict and closed
transitively on build. Partial lattice cells imply their diagonal and
commutative mirror; unlisted cells are undefined. ``#`` starts a comment.
"""

import re
from dataclasses import dataclass

import numpy as np

from .congruence import Partition
from .errors import ParseError, SemanticError
from .order import Lattice, Poset, make_poset
from .plattice import UNDEF, PartialLattice, from_lattice, validate_partial_lattice

_NAME = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class Document:
    """Parsed input: strict relations for a poset, explicit cells otherwise."""

    kind: str
    labels: tuple
    rels: tuple = ()
    cells: tuple = ()


class _Line:
    def __init__(self, lineno, text):
        self.lineno = lineno
        self.text = text
        self.pos = 0

    def done(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos >= len(self.text)

    def fail(self, expected):
        raise ParseError(self.lineno, self.pos + 1, expected)

    def name(self, expected="name"):
        if self.done():
            self.fail(expected)
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.fail(expected)
        self.pos = m.end()
        return m.group(), m.start() + 1

    def literal(self, ch):
        if self.done() or self.text[self.pos] != ch:
            self.fail(f"'{ch}'")
        self.pos += 1

    def end(self):
        if not self.done():
            self.fail("end of line")


def parse(text):
    """Parse the text format into a Document, with positioned errors."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            lines.append(_Line(i, content))
    after = text.count("\n") + 1
    if not lines:
        raise ParseError(after, 1, "'poset' or 'plattice' header")
    head = lines[0]
    word, col = head.name("'poset' or 'plattice' header")
    if word not in ("poset", "plattice"):
        raise ParseError(head.lineno, col, "'poset' or 'plattice' header")
    head.end()
    kind = word
    if len(lines) < 2:
        raise ParseError(after, 1, "'elements' line")
    elems = lines[1]
    word, col = elems.name("'elements'")
    if word != "elements":
        raise ParseError(elems.lineno, col, "'elements'")
    labels = []
    seen = {}
    if elems.done():
        elems.fail("element name")
    while not elems.done():
        lbl, col = elems.name("element name")
        if lbl in seen:
            raise SemanticError(elems.lineno, col, f"duplicate label {lbl!r}")
        seen[lbl] = len(labels)
        labels.append(lbl)
    rels = []
    cells = []
    cell_keys = set()
    for line in lines[2:]:
        if kind == "poset":
            word, col = line.name("'rel'")
            if word != "rel":
                raise ParseError(line.lineno, col, "'rel'")
            x, cx = line.name("element name")
            line.literal("<")
            y, cy = line.name("element name")
            line.end()
            for lbl, c in ((x, cx), (y, cy)):
                if lbl not in seen:
                    raise SemanticError(line.lineno, c, f"unknown label {lbl!r}")
            rels.append((x, y))
        else:
            word, col = line.name("'join' or 'meet'")
            if word not in ("join", "meet"):
                raise ParseError(line.lineno, col, "'join' or 'meet'")
            x, cx = line.name("element name")
            y, cy = line.name("element name")
            line.literal("=")
            z, cz = line.name("element name")
            line.end()
            for lbl, c in ((x, cx), (y, cy), (z, cz)):
                if lbl not in seen:
                    raise SemanticError(line.lineno, c, f"unknown label {lbl!r}")
            key = (word, min(seen[x], seen[y]), max(seen[x], seen[y]))
            if key in cell_keys:
                raise SemanticError(line.lineno, cx, f"duplicate cell {word} {x} {y}")
            cell_keys.add(key)
            if x == y and z != x:
                raise SemanticError(line.lineno, cz, "diagonal cell must repeat its element")
            cells.append((word, x, y, z))
    return Document(kind, tuple(labels), tuple(rels), tuple(cells))


def build(doc):
    """Construct the structure a Document describes."""
    if doc.kind == "poset":
        return make_poset(doc.labels, doc.rels)
    n = len(doc.labels)
    idx = {lbl: i for i, lbl in enumerate(doc.labels)}
    jt = np.full((n, n), UNDEF, dtype=np.int64)
    mt = np.full((n, n), UNDEF, dtype=np.int64)
    np.fill_diagonal(jt, np.arange(n))
    np.fill_diagonal(mt, np.arange(n))
    for op, x, y, z in doc.cells:
        t = jt if op == "join" else mt
        t[idx[x], idx[y]] = t[idx[y], idx[x]] = idx[z]
    return validate_partial_lattice(doc.labels, jt, mt)


def to_document(structure):
    """Canonical Document for a structure.

    Posets export their cover relations; partial lattices (total lattices
    included) export the defined off-diagonal cells of the upper triangle.
    """
    if isinstance(structure, Poset):
        cov = structure.covers
        rels = tuple(
            (structure.labels[i], structure.labels[j])
            for i in range(structure.n)
            for j in range(structure.n)
            if cov[i, j]
        )
        return Document("poset", structure.labels, rels=rels)
    if isinstance(structure, Lattice):
        structure = from_lattice(structure)
    cells = []
    for op, table in (("join", structure.join), ("meet", structure.meet)):
        for i in range(structure.n):
            for j in range(i + 1, structure.n):
                if table[i, j] != UNDEF:
                    cells.append(
                        (op, structure.labels[i], structure.labels[j],
                         structure.labels[int(table[i, j])])
                    )
    return Document("plattice", structure.labels, cells=tuple(cells))


def format_document(doc):
    out = [doc.kind, "elements " + " ".join(doc.labels)]
    if doc.kind == "poset":
        out.extend(f"rel {x}<{y}" for x, y in doc.rels)
    else:
        out.extend(f"{op} {x} {y} = {z}" for op, x, y, z in doc.cells)
    return "\n".join(out) + "\n"


def emit_dot(structure):
    """DOT digraph of the cover relation, ranked bottom to top.

    Nodes appear in index order with their labels attached, so output is
    deterministic for equal structures.
    """
    if isinstance(structure, PartialLattice):
        p = structure.order
    elif isinstance(structure, Lattice):
        p = structure.poset
    else:
        p = structure

    def esc(s):
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph {", "  rankdir=BT"]
    lines.extend(f'  n{i} [label="{esc(lbl)}"]' for i, lbl in enumerate(p.labels))
    cov = p.covers
    lines.extend(
        f"  n{i} -> n{j}" for i in range(p.n) for j in range(p.n) if cov[i, j]
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_partition(text, labels):
    """Partition written as blocks of labels: 'a c|b d'.

    Blocks are separated by '|', members by spaces; unlisted labels become
    singletons.
    """
    idx = {lbl: i for i, lbl in enumerate(labels)}
    blocks = []
    seen = set()
    for chunk in text.split("|"):
        members = chunk.split()
        if not members:
            raise SemanticError(1, 1, "empty block in partition")
        block = []
        for name in members:
            if name not in idx:
                raise SemanticError(1, 1, f"unknown label {name!r} in partition")
            if name in seen:
                raise SemanticError(1, 1, f"label {name!r} appears twice in partition")
            seen.add(name)
            block.append(idx[name])
        blocks.append(tuple(block))
    return Partition.from_blocks(len(labels), blocks)
