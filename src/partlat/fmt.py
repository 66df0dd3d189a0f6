"""Text format for posets and partial lattices, plus DOT export.

The grammar, exactly:

    poset                      plattice
    elements a b c             elements a b
    rel a<c                    join a b = c
                               meet a b = a

Names match ``[A-Za-z0-9_]+``. Tokens may be separated by any whitespace
(``str.isspace``), and ``<`` and ``=`` need none around them. Lines break
where ``str.splitlines`` breaks them. ``#`` starts a comment. An error's
column points at the first unexpected token, or just past the end of the
line when a token is missing; it quotes a label of more than 64 characters
by its first 64 and its length. Poset relations are strict and closed
transitively on build. Partial lattice cells imply their diagonal and
commutative mirror; unlisted cells are undefined.
"""

import re
from dataclasses import dataclass

import numpy as np

from .congruence import Partition
from .errors import ParseError, SemanticError
from .order import Poset, make_poset
from .plattice import UNDEF, PartialLattice, validate_partial_lattice

_NAME = "[A-Za-z0-9_]+"


def _tokens(*tokens):
    """Anchored pattern for a line of tokens, each optional after the one before.

    The match always succeeds and never backtracks: ``lastindex`` counts the
    tokens read, and ``end()`` is where the first missing token or the
    trailing junk starts, past any whitespace.
    """
    body = ""
    for token in reversed(tokens):
        body = rf"(?:({token})\s*{body})?"
    return re.compile(r"\s*" + body)


_WORD = _tokens(_NAME)
_LABEL = "element name"
# Per document kind: the pattern of a body line, its keywords, what is
# expected after k tokens were read, and the groups holding labels.
_BODY = {
    "poset": (_tokens(_NAME, _NAME, "<", _NAME), ("rel",),
              ("'rel'", _LABEL, "'<'", _LABEL, "end of line"), (2, 4)),
    "plattice": (_tokens(_NAME, _NAME, _NAME, "=", _NAME), ("join", "meet"),
                 ("'join' or 'meet'", _LABEL, _LABEL, "'='", _LABEL, "end of line"), (2, 3, 5)),
}
_HEADER = "'poset' or 'plattice' header"
# Longest label an error message quotes whole.
QUOTED_LABEL = 64


def shown(label):
    """``label`` as error messages show it: whole up to QUOTED_LABEL
    characters, else cut there with its length appended."""
    if len(label) <= QUOTED_LABEL:
        return label
    return f"{label[:QUOTED_LABEL]}... ({len(label)} characters)"


@dataclass(frozen=True)
class Document:
    """Parsed input: strict relations for a poset, explicit cells otherwise."""

    kind: str
    labels: tuple
    rels: tuple = ()
    cells: tuple = ()


def text_end(text):
    """Line and column just past the end of ``text``, broken as by ``str.splitlines``."""
    lines = (text + "x").splitlines()
    return len(lines), len(lines[-1])


def _fail(lineno, m, keywords, expected):
    """Raise at the first unexpected token of a line that ``m`` matched."""
    read = m.lastindex or 0
    if read and m[1] not in keywords:
        raise ParseError(lineno, m.start(1) + 1, expected[0])
    raise ParseError(lineno, m.end() + 1, expected[read])


def parse(text):
    """Parse the text format into a Document, with positioned errors."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition("#")[0]
        if content.strip():
            lines.append((i, content))
    if not lines:
        raise ParseError(text_end(text)[0], 1, _HEADER)
    lineno, line = lines[0]
    m = _WORD.match(line)
    if m.lastindex != 1 or m.end() < len(line) or m[1] not in ("poset", "plattice"):
        _fail(lineno, m, ("poset", "plattice"), (_HEADER, "end of line"))
    kind = m[1]
    if len(lines) < 2:
        raise ParseError(text_end(text)[0], 1, "'elements' line")
    lineno, line = lines[1]
    m = _WORD.match(line)
    if m[1] != "elements":
        _fail(lineno, m, ("elements",), ("'elements'",))
    seen = {}  # label -> index, in order
    while not seen or m.end() < len(line):
        m = _WORD.match(line, m.end())
        lbl = m[1]
        if lbl is None:
            raise ParseError(lineno, m.end() + 1, _LABEL)
        if lbl in seen:
            raise SemanticError(lineno, m.start(1) + 1, f"duplicate label {shown(lbl)!r}")
        seen[lbl] = len(seen)
    rels = []
    cells = []
    cell_keys = set()
    pattern, keywords, expected, names = _BODY[kind]
    full = len(expected) - 1
    for lineno, line in lines[2:]:
        m = pattern.match(line)
        if m.lastindex != full or m.end() < len(line) or m[1] not in keywords:
            _fail(lineno, m, keywords, expected)
        for g in names:
            if m[g] not in seen:
                raise SemanticError(lineno, m.start(g) + 1, f"unknown label {shown(m[g])!r}")
        if kind == "poset":
            rels.append((m[2], m[4]))
            continue
        word, x, y, _, z = m.groups()
        i, j = seen[x], seen[y]
        key = (word, i, j) if i < j else (word, j, i)
        if key in cell_keys:
            raise SemanticError(lineno, m.start(2) + 1,
                                f"duplicate cell {word} {shown(x)} {shown(y)}")
        cell_keys.add(key)
        if x == y and z != x:
            raise SemanticError(lineno, m.start(5) + 1, "diagonal cell must repeat its element")
        cells.append((word, x, y, z))
    return Document(kind, tuple(seen), tuple(rels), tuple(cells))


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
    p = structure.order if isinstance(structure, PartialLattice) else structure

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
    singletons. An error gives the column of the bad label or empty block.
    """
    idx = {lbl: i for i, lbl in enumerate(labels)}
    blocks = []
    seen = set()
    col = 1  # where the current block starts in ``text``
    for chunk in text.split("|"):
        block = []
        for m in re.finditer(r"\S+", chunk):
            name, at = m[0], col + m.start()
            if name not in idx:
                raise SemanticError(1, at, f"unknown label {shown(name)!r} in partition")
            if name in seen:
                raise SemanticError(1, at, f"label {shown(name)!r} appears twice in partition")
            seen.add(name)
            block.append(idx[name])
        if not block:
            raise SemanticError(1, col, "empty block in partition")
        blocks.append(tuple(block))
        col += len(chunk) + 1
    return Partition.from_blocks(len(labels), blocks)
