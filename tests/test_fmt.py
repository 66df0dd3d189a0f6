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

    def test_unknown_label_in_cell(self):
        with pytest.raises(SemanticError) as err:
            parse("plattice\nelements a b\njoin a b = q\n")
        assert "unknown label 'q'" in str(err.value)
        assert err.value.line == 3

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
        assert err.value.line == 4

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

    def test_roundtrip_with_render(self, fig9):
        p = parse_partition("a|b d|c", fig9.labels)
        assert p.render(fig9.labels) == "a|b d|c"


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
