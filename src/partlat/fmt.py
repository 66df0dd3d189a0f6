"""Text format for posets and partial lattices, plus DOT export.

The grammar, exactly:

    poset                      plattice
    elements a b c             elements a b
    rel a<c                    join a b = c
                               meet a b = a

Names match ``[A-Za-z0-9_]+``. Tokens may be separated by any whitespace
(``str.isspace``), and ``<`` and ``=`` need none around them. Lines break
where ``str.splitlines`` breaks them. ``#`` starts a comment. The lines
after ``elements`` are read by one regex scan; an error re-reads only its
own line. An error's column points at the first unexpected token, or just
past the end of the line when a token is missing; it quotes a label of more
than 64 characters by its first 64 and its length. Poset relations are
strict and closed transitively on build. Partial lattice cells imply their
diagonal and commutative mirror; unlisted cells are undefined.
"""

import re
from dataclasses import dataclass
from itertools import compress, count

import numpy as np

from .congruence import Partition
from .errors import ParseError, SemanticError
from .order import Poset, make_poset
from .plattice import UNDEF, PartialLattice, validate_partial_lattice

_NAME = "[A-Za-z0-9_]+"


def _tokens(*tokens):
    """Pattern for a line of tokens, each optional after the one before, and
    a last group holding the first character left unread.

    The match always succeeds and never backtracks: the token groups that
    matched count the tokens read, and the last group starts where the first
    missing token or the trailing junk starts, past any whitespace. A line
    holds no line break, so ``[^\\S\\n]`` matches on it what ``\\s`` would,
    and a scan of lines joined by "\\n" reads each one apart. The last group
    takes one character, not the rest of the line, as the ``elements`` loop
    matches again after each label. ``(?:...|)`` matches what ``(?:...)?``
    does, and Python's engine runs it faster.
    """
    body = ""
    for token in reversed(tokens):
        body = rf"(?:({token})[^\S\n]*{body}|)"
    return rf"[^\S\n]*{body}(.?)"


_WORD = re.compile(_tokens(_NAME))
_LABEL = "element name"
# Per document kind: the pattern of a body line, anchored at each line of
# the body joined by "\n", its keywords, what is expected after k tokens
# were read, and the groups holding labels.
_BODY = {
    "poset": (re.compile("^" + _tokens(_NAME, _NAME, "<", _NAME), re.M), ("rel",),
              ("'rel'", _LABEL, "'<'", _LABEL, "end of line"), (2, 4)),
    "plattice": (re.compile("^" + _tokens(_NAME, _NAME, _NAME, "=", _NAME), re.M),
                 ("join", "meet"),
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


def _fail(lineno, m, keywords, expected, names=(), seen=()):
    """Raise at the first token of a line that ``m`` matched which is not what
    the line needs: a keyword, then each token in turn and the end of the
    line, then a label of ``seen`` in each group of ``names``."""
    *tokens, junk = m.groups()
    read = len(tokens) - tokens.count(None)
    if read and m[1] not in keywords:
        raise ParseError(lineno, m.start(1) + 1, expected[0])
    if junk or read < len(tokens):
        raise ParseError(lineno, m.start(len(tokens) + 1) + 1, expected[read])
    g = next(g for g in names if m[g] not in seen)
    raise SemanticError(lineno, m.start(g) + 1, f"unknown label {shown(m[g])!r}")


def parse(text):
    """Parse the text format into a Document, with positioned errors.

    One scan of the body lines, joined by "\\n", reads the tokens of every
    line, and the checks run over those tokens. Only a line that fails a
    check is matched again, to place its error.
    """
    contents = [raw.partition("#")[0] for raw in text.splitlines()]
    lines = list(filter(str.strip, contents))
    linenos = compress(count(1), map(str.strip, contents))  # their numbers, read lazily
    if not lines:
        raise ParseError(text_end(text)[0], 1, _HEADER)
    m = _WORD.match(lines[0])
    lineno = next(linenos)
    if m[2] or m[1] not in ("poset", "plattice"):
        _fail(lineno, m, ("poset", "plattice"), (_HEADER, "end of line"))
    kind = m[1]
    if len(lines) < 2:
        raise ParseError(text_end(text)[0], 1, "'elements' line")
    line = lines[1]
    m = _WORD.match(line)
    lineno = next(linenos)
    if m[1] != "elements":
        _fail(lineno, m, ("elements",), ("'elements'",))
    seen = {}  # label -> index, in order
    while not seen or m[2]:
        m = _WORD.match(line, m.start(2))
        lbl = m[1]
        if lbl is None:
            raise ParseError(lineno, m.start(2) + 1, _LABEL)
        if lbl in seen:
            raise SemanticError(lineno, m.start(1) + 1, f"duplicate label {shown(lbl)!r}")
        seen[lbl] = len(seen)
    pattern, keywords, expected, names = _BODY[kind]
    body = lines[2:]
    # One row of tokens per line, "" for a token that is missing, which is
    # no label; zip drops the row that the scan of an empty body yields.
    rows = zip(linenos, body, pattern.findall("\n".join(body)))
    if kind == "poset":
        rels = []
        for lineno, line, (word, x, _, y, junk) in rows:
            if junk or word not in keywords or x not in seen or y not in seen:
                _fail(lineno, pattern.match(line), keywords, expected, names, seen)
            rels.append((x, y))
        return Document(kind, tuple(seen), rels=tuple(rels))
    cells = []
    keys = set()
    for lineno, line, (word, x, y, _, z, junk) in rows:
        if junk or word not in keywords or x not in seen or y not in seen or z not in seen:
            _fail(lineno, pattern.match(line), keywords, expected, names, seen)
        key = (word, x, y) if x < y else (word, y, x)
        if key in keys:
            raise SemanticError(lineno, pattern.match(line).start(2) + 1,
                                f"duplicate cell {word} {shown(x)} {shown(y)}")
        if x == y != z:
            raise SemanticError(lineno, pattern.match(line).start(5) + 1,
                                "diagonal cell must repeat its element")
        keys.add(key)
        cells.append((word, x, y, z))
    return Document(kind, tuple(seen), cells=tuple(cells))


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
