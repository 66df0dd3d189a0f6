import time
from itertools import combinations, islice, product
from string import ascii_letters, digits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlat import (
    Lattice,
    ParseError,
    PartialLattice,
    PartlatError,
    Poset,
    SemanticError,
    build,
    emit_dot,
    format_document,
    parse,
    parse_partition,
    to_document,
    two_point_extension,
)
from partlat import figures as figs
from partlat.congruence import Partition
from partlat.fmt import Document, text_end
from partlat.order import named_lattice
from oracles import parse_scanner


def dot_stats(text):
    lines = text.strip().splitlines()
    nodes = sum("label=" in ln for ln in lines)
    edges = sum("->" in ln for ln in lines)
    return nodes, edges


class TestParse:
    def test_fig4_document(self):
        doc = parse("poset\nelements a b c\nrel a<c\n")
        assert doc.kind == "poset"
        assert doc.labels == ("a", "b", "c")
        assert doc.rels == (("a", "c"),)

    def test_singleton(self):
        doc = parse("poset\nelements x\n")
        assert doc.labels == ("x",)

    @pytest.mark.parametrize("text, kind, labels", [
        ("plattice\nelements a\n", "plattice", ("a",)),
        ("plattice\nelements a b # no cells\n\n", "plattice", ("a", "b")),
        ("poset\n  elements a b c", "poset", ("a", "b", "c")),
    ])
    def test_document_without_body(self, text, kind, labels):
        # The scan of an empty body still matches once; that match is no line.
        assert parse(text) == Document(kind, labels) == parse_scanner(text)

    def test_unknown_label_in_cell(self):
        with pytest.raises(SemanticError) as err:
            parse("plattice\nelements a b\njoin a b = q\n")
        assert "unknown label 'q'" in str(err.value)
        assert err.value.line == 3

    @pytest.mark.parametrize("size, quoted", [
        (64, "q" * 64),
        (65, "q" * 64 + "... (65 characters)"),
    ])
    def test_unknown_label_is_quoted_whole_up_to_64_characters(self, size, quoted):
        with pytest.raises(SemanticError) as err:
            parse(f"plattice\nelements a b\njoin a b = {'q' * size}\n")
        assert str(err.value) == f"line 3, col 12: unknown label {quoted!r}"

    def test_comments_and_blanks_ignored(self):
        doc = parse("# header comment\nposet\n\nelements a b # trailing\nrel a<b\n")
        assert doc.labels == ("a", "b")
        assert doc.rels == (("a", "b"),)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse("posett\nelements a\n")
        assert err.value.line == 1

    def test_missing_elements_line(self):
        with pytest.raises(ParseError) as err:
            parse("poset\n")
        assert "elements" in err.value.expected
        with pytest.raises(ParseError) as err:
            parse("poset\nrel a<b\n")
        assert (err.value.line, err.value.expected) == (2, "'elements'")

    def test_missing_angle(self):
        with pytest.raises(ParseError) as err:
            parse("poset\nelements a b\nrel a b\n")
        assert err.value.line == 3
        assert err.value.expected == "'<'"

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse("plattice\nelements a b\njoin a b c\n")
        assert err.value.line == 3
        assert err.value.expected == "'='"

    def test_bad_name_character(self):
        with pytest.raises(ParseError):
            parse("poset\nelements a b$\nrel a<b\n")

    def test_duplicate_label(self):
        with pytest.raises(SemanticError) as err:
            parse("poset\nelements a a\n")
        assert "duplicate label" in str(err.value)

    def test_duplicate_cell(self):
        text = "plattice\nelements a b c\njoin a b = c\njoin b a = c\n"
        with pytest.raises(SemanticError) as err:
            parse(text)
        assert "duplicate cell" in str(err.value)
        assert (err.value.line, err.value.col) == (4, 6)
        # A repeated diagonal cell is reported as a repeat, even when it also
        # names another element.
        text = "plattice\nelements a b\njoin a a = a\njoin a a = b\n"
        with pytest.raises(SemanticError) as err:
            parse(text)
        assert str(err.value) == "line 4, col 6: duplicate cell join a a"
        assert outcome(parse_scanner, text) == outcome(parse, text)

    def test_diagonal_cell_must_repeat_its_element(self):
        with pytest.raises(SemanticError) as err:
            parse("plattice\nelements a b\nmeet b b = a\n")
        assert str(err.value) == "line 3, col 12: diagonal cell must repeat its element"

    def test_junk_after_line(self):
        with pytest.raises(ParseError) as err:
            parse("poset\nelements a b\nrel a<b extra\n")
        assert err.value.expected == "end of line"

    def test_wrong_keyword_for_kind(self):
        with pytest.raises(ParseError) as err:
            parse("poset\nelements a b\njoin a b = a\n")
        assert err.value.expected == "'rel'"


class TestRoundtrip:
    def test_fixture_documents(self):
        for text in figs.SOURCE_TEXTS.values():
            doc = parse(text)
            assert parse(format_document(doc)) == doc

    def test_structure_documents(self, fig4, fig9):
        for lat in (fig4, fig9):
            doc = to_document(lat)
            assert build(doc) == lat
            assert parse(format_document(doc)) == doc

    def test_poset_document(self, fig1):
        doc = to_document(fig1)
        assert build(doc) == fig1


class TestDot:
    def test_pentagon_star_counts(self, fig4):
        star = two_point_extension(fig4).star
        nodes, edges = dot_stats(emit_dot(star))
        assert nodes == 5
        assert edges == 5  # pentagon cover relation: two chains of length 2 and 3

    def test_singleton(self):
        p = build(parse("poset\nelements x\n"))
        nodes, edges = dot_stats(emit_dot(p))
        assert (nodes, edges) == (1, 0)

    def test_fig10_star_counts(self, fig9):
        star = two_point_extension(fig9).star
        nodes, edges = dot_stats(emit_dot(star))
        assert nodes == 6
        assert edges == 7

    def test_edges_match_cover_definition(self, corpus4):
        for lat in corpus4:
            from partlat import induced_order

            p = induced_order(lat)
            text = emit_dot(lat)
            edges = {
                tuple(part.strip() for part in ln.strip().split("->"))
                for ln in text.splitlines()
                if "->" in ln
            }
            expected = set()
            for i in range(p.n):
                for j in range(p.n):
                    if i == j or not p.leq[i, j]:
                        continue
                    between = any(
                        p.leq[i, k] and p.leq[k, j] and k not in (i, j)
                        for k in range(p.n)
                    )
                    if not between:
                        expected.add((f"n{i}", f"n{j}"))
            assert edges == expected

    def test_deterministic_and_quoted(self, fig4):
        star = two_point_extension(fig4).star
        assert emit_dot(star) == emit_dot(star)
        assert '[label="⊥*"]' in emit_dot(star)
        assert emit_dot(star).startswith("digraph {\n  rankdir=BT\n")


class TestParsePartition:
    def test_blocks_and_singletons(self):
        p = parse_partition("a c|b", ("a", "b", "c", "d"))
        assert p == Partition.from_blocks(4, [(0, 2), (1,)])

    def test_unknown_label(self):
        with pytest.raises(SemanticError):
            parse_partition("a|q", ("a", "b"))

    def test_repeated_label(self):
        with pytest.raises(SemanticError):
            parse_partition("a|a b", ("a", "b"))

    def test_long_labels_are_clipped(self):
        long = "b" * 100
        clipped = "b" * 64 + "... (100 characters)"
        with pytest.raises(SemanticError) as err:
            parse_partition(f"a {long}|{long}", ("a", long))
        assert str(err.value) == f"line 1, col 104: label {clipped!r} appears twice in partition"
        with pytest.raises(SemanticError) as err:
            parse_partition(f"a|{long}", ("a", "b"))
        assert str(err.value) == f"line 1, col 3: unknown label {clipped!r} in partition"

    def test_roundtrip_with_render(self, fig9):
        p = parse_partition("a|b d|c", fig9.labels)
        assert p.render(fig9.labels) == "a|b d|c"

    @pytest.mark.parametrize("text, col, message", [
        ("a|q", 3, "unknown label 'q' in partition"),
        ("a c| b\t a", 9, "label 'a' appears twice in partition"),
        ("a||b", 3, "empty block in partition"),
        ("a| \t|b", 3, "empty block in partition"),
        ("a c|", 5, "empty block in partition"),
        ("", 1, "empty block in partition"),
    ])
    def test_error_columns(self, text, col, message):
        with pytest.raises(SemanticError) as err:
            parse_partition(text, ("a", "b", "c"))
        assert (err.value.line, err.value.col) == (1, col)
        assert str(err.value) == f"line 1, col {col}: {message}"


class TestLineBreaks:
    @pytest.mark.parametrize("br", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                    "\x85", "\u2028", "\u2029"])
    def test_missing_lines_are_numbered_by_any_line_break(self, br):
        with pytest.raises(ParseError) as err:
            parse("poset" + br)
        assert (err.value.line, err.value.col, err.value.expected) == (2, 1, "'elements' line")
        with pytest.raises(ParseError) as err:
            parse(f"# one{br}{br}# three{br}")
        assert (err.value.line, err.value.col) == (4, 1)
        assert text_end(f"ab{br}cde") == (2, 4)

    @given(st.text(alphabet="ab\n", max_size=30))
    def test_newline_only_text_is_numbered_as_before(self, text):
        assert text_end(text) == (text.count("\n") + 1, len(text) - text.rfind("\n"))


def outcome(parser, text):
    """What a parser makes of ``text``: the Document, or where and why it failed."""
    try:
        return parser(text)
    except (ParseError, SemanticError) as exc:
        return type(exc), exc.line, exc.col, str(exc)


# "\x0c" and "\x1c" break lines; the other spaces do not.
SPACE = st.sampled_from(("", " ", "\t", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\u3000"))
# Every break of str.splitlines.
BREAK = st.sampled_from(("\n", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                         "\u2028", "\u2029"))
LABEL = st.sampled_from(("a", "b", "c1", "q"))
TOKEN = st.sampled_from(("a", "b", "c1", "_", "poset", "plattice", "elements", "rel", "join",
                         "meet", "<", "=", "#", "$"))
TOKENS = st.lists(st.tuples(TOKEN, st.one_of(SPACE, BREAK)), max_size=30).map(
    lambda pairs: "".join(token + space for token, space in pairs))
SEPARATOR = st.one_of(st.just(" "), SPACE)
OPERAND = st.sampled_from(("a", "b", "a", "b", "c1", "q"))  # often a repeated cell
REL = st.tuples(st.just("rel"), OPERAND, st.just("<"), OPERAND)
CELL = st.tuples(st.sampled_from(("join", "meet")), OPERAND, OPERAND, st.just("="), OPERAND)


@st.composite
def scanner_text(draw):
    """Documents of a drawn kind, some lines replaced by arbitrary tokens,
    joined by any whitespace and line break, maybe with junk after."""
    kind = draw(st.sampled_from(("poset", "plattice")))
    labels = (*draw(st.permutations(("a", "b", "c1"))), *draw(st.lists(LABEL, max_size=1)))
    lines = [(kind,), ("elements", *labels)]
    lines += draw(st.lists(REL if kind == "poset" else CELL, max_size=5))
    text = ""
    for tokens in lines:
        if draw(st.integers(0, 9)) == 0:
            tokens = draw(st.lists(TOKEN, max_size=6))
        text += draw(SPACE) + "".join(tok + draw(SEPARATOR) for tok in tokens) + draw(BREAK)
    return text + draw(st.one_of(st.just(""), TOKENS))


@settings(max_examples=400, deadline=None)
@given(scanner_text())
def test_parse_matches_scanner_on_arbitrary_text(text):
    assert outcome(parse, text) == outcome(parse_scanner, text)


@pytest.mark.parametrize("name", sorted(figs.SOURCE_TEXTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_matches_scanner_on_mutated_sources(name, data):
    text = figs.SOURCE_TEXTS[name]
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:at] + text[at + data.draw(st.integers(1, 4)):]
        else:
            text = text[:at] + data.draw(TOKENS) + text[at:]
    assert outcome(parse, text) == outcome(parse_scanner, text)


@pytest.mark.parametrize("kind, size", [
    ("boolean", 4), ("boolean", 5), ("boolean", 6), ("chain", 8), ("M", 12), ("N5", None),
])
def test_parse_equals_scanner_on_named_documents(kind, size):
    lat = named_lattice(kind, size)
    for structure in (lat, lat.order):
        text = format_document(to_document(structure))
        assert parse(text) == parse_scanner(text)


def plant(data, lines, cells, labels):
    """Plant one error at a drawn line after a document's first two: a bad
    token, an unknown label or trailing junk; a missing '='; the mirror of
    one of its ``cells``; or a diagonal cell that names another element."""
    at = data.draw(st.integers(2, len(lines)), label="at")
    how = data.draw(st.sampled_from(("token", "equals", "mirror", "diagonal")), label="how")
    if how == "mirror":
        op, x, y, _, z = data.draw(st.sampled_from(cells)).split()
        lines.insert(at, f"{op} {y} {x} = {z}")
    elif how == "diagonal":
        x, z = data.draw(st.permutations(labels))[:2]
        lines.insert(at, f"{data.draw(st.sampled_from(('join', 'meet')))} {x} {x} = {z}")
    elif at < len(lines):
        tokens = lines[at].split()
        if how == "equals" and "=" in tokens:
            tokens.remove("=")
        else:
            k = data.draw(st.integers(0, len(tokens)))
            tokens[k:k + data.draw(st.integers(0, 1))] = [data.draw(st.sampled_from(
                ("q", "$", "<", "=", "rel", "join", "x$y", tokens[0])))]
        lines[at] = " ".join(tokens)


@pytest.mark.parametrize("kind, size", [("boolean", 5), ("M", 12)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_planted_error_in_a_large_document_wins(kind, size, data):
    lat = named_lattice(kind, size)
    lines = format_document(to_document(lat)).splitlines()
    cells = lines[2:]
    for _ in range(data.draw(st.integers(1, 2), label="errors")):
        plant(data, lines, cells, lat.labels)
    text = "\n".join(lines) + "\n"
    assert outcome(parse, text) == outcome(parse_scanner, text)


ALNUM = ascii_letters + digits + "_"
MANY = " ".join("".join(t) for t in islice(product(ALNUM, repeat=3), 50_000))
LONG = "x" * 200_000


@pytest.mark.parametrize("text", [
    f"poset\nelements {MANY}\nrel aaa<aab\n",
    f"poset\nelements {MANY} aab\n",  # duplicate at the far end
    f"poset\nelements {MANY} $\n",
    f"plattice\nelements a b\njoin a b = {LONG}\n",  # unknown label
    f"plattice\nelements a b {LONG}\njoin a b = {LONG}\n",
    f"plattice\nelements a b {LONG}\njoin a b = {LONG}$\n",
    f"plattice\nelements a b {LONG}\njoin a b {LONG}\n",
    f"poset\nelements a {LONG}\nrel a<{LONG} <\n",
], ids=["elements", "duplicate", "junk", "unknown", "cell", "cell-junk", "no-equals", "rel-junk"])
def test_long_lines_match_scanner_in_linear_time(text):
    assert max(map(len, text.splitlines())) >= 200_000
    start = time.perf_counter()
    got = outcome(parse, text)
    elapsed = time.perf_counter() - start
    assert got == outcome(parse_scanner, text)
    # Linear reading takes milliseconds; a pattern that backtracks over a
    # 200,000-character name takes minutes.
    assert elapsed < 2.0


def many_cells(last):
    """A plattice document of 100,172 short cell lines, every pair of 317
    labels once per operation, then ``last``."""
    labels = [f"e{k}" for k in range(317)]
    lines = ["plattice", "elements " + " ".join(labels)]
    lines += [f"{op} {x} {y} = {x}" for op in ("join", "meet") for x, y in combinations(labels, 2)]
    return "\n".join([*lines, last]) + "\n"


@pytest.mark.parametrize("last", ["", "meet e316 e315 = e316", "join e5 e5 = e5 $"],
                         ids=["valid", "mirrored-duplicate", "junk"])
def test_many_lines_match_scanner_in_linear_time(last):
    text = many_cells(last)
    start = time.perf_counter()
    got = outcome(parse, text)
    elapsed = time.perf_counter() - start
    assert got == outcome(parse_scanner, text)
    assert isinstance(got, Document) == (not last)
    # One scan of the body and one pass over its rows take well under a
    # second; work that grew with the square of the lines would take minutes.
    assert elapsed < 2.0


NAME = st.sampled_from(("a", "b", "c", "d", "⊥*", "a-b"))
LINE = st.one_of(
    st.sampled_from(("poset", "plattice", "# note", "")),
    st.lists(NAME, max_size=5).map(lambda names: " ".join(["elements", *names])),
    st.tuples(NAME, NAME).map(lambda p: f"rel {p[0]}<{p[1]}"),
    st.tuples(st.sampled_from(("join", "meet")), NAME, NAME, NAME).map(
        lambda c: f"{c[0]} {c[1]} {c[2]} = {c[3]}"),
    st.text(max_size=20),
)
# Mostly near-documents: headers, elements, relations and cells in any order.
TEXT = st.one_of(st.text(max_size=200), st.lists(LINE, max_size=8).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_build_of_parse_is_a_structure_or_partlat_error(text):
    try:
        structure = build(parse(text))
    except PartlatError:
        return
    assert isinstance(structure, (Poset, PartialLattice, Lattice))
