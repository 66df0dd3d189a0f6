"""The stacked builders of the congruence sweep against the per-object
builders that are their one-row case: the L/E class tables of
``quotient_stack``, the axiom verdicts of ``axiom_violations`` and the (L/E)*
of ``extension_stack``, row by row against ``quotient`` and
``two_point_extension``, on the corpus, on random partial lattices past it,
and on forged stacks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    congruence_table_per_structure,
    extrema_rows,
    irreducibles_per_lattice,
    two_point_extension_loops,
    validate_partial_lattice_loops,
)

from partlat import (
    UNDEF,
    PartialLattice,
    PartlatError,
    all_partial_congruences,
    antichain,
    enumerate_partial_lattices,
    from_plos,
    is_plos,
    make_poset,
    named_lattice,
    quotient,
    two_point_extension,
    validate_partial_lattice,
)
from partlat.congruence import congruence_table, congruence_tables, quotient_stack
from partlat.extension import extension_stack, two_point_extensions
from partlat.order import extrema_stack
from partlat.plattice import axiom_violations

CORPUS5 = list(enumerate_partial_lattices(5))


def stacks(lat):
    """The stacked L/E tables and block representatives, the axiom verdicts
    and the (L/E)* of every congruence of ``lat``, with the theta rows of its
    congruence table."""
    block_of = np.array([e.block_of for e in all_partial_congruences(lat)])
    least = lat.congruence_table.theta
    join, meet, reps = quotient_stack(lat, block_of, least)
    sizes = (reps != UNDEF).sum(1)
    axioms = axiom_violations(lambda i, x: f"[{lat.labels[reps[i, x]]}]", join, meet, sizes)
    return join, meet, reps, axioms, extension_stack(join, meet, sizes)


def padded(table, size):
    """``table`` in the top-left of a size x size table of UNDEF."""
    out = np.full((size, size), UNDEF)
    out[: len(table), : len(table)] = table
    return out


def assert_rows_match(lat):
    join, meet, reps, axioms, x = stacks(lat)
    s, m = join.shape[1], x.join.shape[1]
    for i, e in enumerate(all_partial_congruences(lat)):
        q = quotient(lat, e)
        assert axioms[i] is None
        assert reps[i].tolist() == [b[0] for b in e.blocks] + [UNDEF] * (s - q.n)
        assert np.array_equal(join[i], padded(q.join, s))
        assert np.array_equal(meet[i], padded(q.meet, s))
        ext = two_point_extension(q)
        assert x.sizes[i] == ext.star.n
        assert (x.bottom[i], x.top[i]) == tuple(UNDEF if b is None else b
                                                for b in (ext.added_bottom, ext.added_top))
        # The order is read from the join, x v y = y.
        pad = np.eye(m, dtype=bool)
        pad[: ext.star.n, : ext.star.n] = ext.star.leq
        assert np.array_equal(x.join[i] == np.arange(m), pad)
        # A padded element is its own sup and inf, and has none with another.
        diagonal = np.eye(m, dtype=bool)
        assert np.array_equal(x.join[i], np.where(diagonal, np.arange(m), padded(ext.star.join, m)))
        assert np.array_equal(x.meet[i], np.where(diagonal, np.arange(m), padded(ext.star.meet, m)))


def test_stacks_match_per_congruence_builders_on_corpus6():
    for lat in enumerate_partial_lattices(6):
        assert_rows_match(lat)


@st.composite
def random_partial_lattices(draw):
    """The partial lattice of a random plos on up to 9 elements."""
    n = draw(st.integers(1, 9))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    labels = "abcdefghi"[:n]
    p = make_poset(labels, [(labels[min(a)], labels[max(a)]) for a in arcs if a[0] != a[1]])
    assume(is_plos(p))
    return from_plos(p)


@settings(max_examples=150, deadline=None)
@given(random_partial_lattices())
def test_stacks_match_per_congruence_builders_on_random_plos(lat):
    assert_rows_match(lat)


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except PartlatError as exc:
        return type(exc), str(exc)


def error_outcome(error):
    return None if error is None else (type(error), str(error))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forged_stacks_raise_what_each_row_raises(data):
    # One cell of one row's join or meet is set to another value, possibly
    # out of range or breaking symmetry; every row must get the verdict that
    # validate_partial_lattice gives its own tables, and every row that
    # passes the extension that two_point_extension gives it.
    lat = data.draw(st.sampled_from([lat for lat in CORPUS5 if len(lat.congruence_table.block_of) > 1]))
    join, meet, reps, _, _ = stacks(lat)
    sizes = (reps != UNDEF).sum(1)
    i = data.draw(st.integers(0, len(join) - 1))
    table = data.draw(st.sampled_from((join, meet)))
    a, b = (data.draw(st.integers(0, sizes[i] - 1)) for _ in range(2))
    table[i, a, b] = data.draw(st.integers(UNDEF - 1, sizes[i]))
    if data.draw(st.booleans()):
        table[i, b, a] = table[i, a, b]
    labels = [tuple(f"[{lat.labels[r]}]" for r in row[: n]) for row, n in zip(reps, sizes)]
    verdicts = axiom_violations(lambda k, x: labels[k][x], join, meet, sizes)
    x = extension_stack(join, meet, sizes)
    for k, n in enumerate(sizes):
        row = (labels[k], join[k, :n, :n], meet[k, :n, :n])
        want = outcome(validate_partial_lattice, *row)
        assert want == outcome(validate_partial_lattice_loops, *row)
        assert error_outcome(verdicts[k]) == (None if isinstance(want, PartialLattice) else want)
        if verdicts[k] is None:
            star, bottom, top = two_point_extension_loops(want)
            assert (x.bottom[k], x.top[k]) == tuple(UNDEF if b is None else b
                                                    for b in (bottom, top))
            assert np.array_equal(x.join[k, : star.n, : star.n], star.join)
            assert np.array_equal(x.meet[k, : star.n, : star.n], star.meet)


@pytest.mark.parametrize("k", [20, 60])
def test_associativity_blocks_report_each_row(k):
    # Rows of the chain on s = 8 with a v b and a ^ b made UNDEF for one pair
    # a < b with a < 6, which strong associativity of the join first fails
    # at x = a; row r takes a = r mod 6, and every ninth row is left whole.
    # k (s + 1)^2 is 1,620 cells for 20 rows, so a block of 2^12 cells holds
    # two x, and 4,860 for 60 rows, so a block holds one.
    s, idx = 8, np.arange(8)
    join = np.broadcast_to(np.maximum.outer(idx, idx), (k, s, s)).copy()
    meet = np.broadcast_to(np.minimum.outer(idx, idx), (k, s, s)).copy()
    for r in range(k):
        if r % 9 != 8:
            a = r % 6
            b = a + 1 + r // 6 % (7 - a)
            join[r, a, b] = join[r, b, a] = meet[r, a, b] = meet[r, b, a] = UNDEF
    labels = tuple(f"c{i}" for i in range(s))
    verdicts = axiom_violations(lambda r, x: labels[x], join, meet, np.full(k, s))
    for r in range(k):
        want = outcome(validate_partial_lattice_loops, labels, join[r], meet[r])
        assert error_outcome(verdicts[r]) == (None if isinstance(want, PartialLattice) else want)
        assert (verdicts[r] is None) == (r % 9 == 8)
        if verdicts[r] is not None:
            assert verdicts[r].witness[0] == r % 6 and str(verdicts[r]).endswith("join")


def test_forged_row_reports_its_first_violation():
    # A stack of three copies of a quotient table: the middle one breaks
    # commutativity and the last one idempotency, and only they are flagged.
    lat = CORPUS5[-1]
    q = quotient(lat, all_partial_congruences(lat)[-1])  # by the identity: lat itself
    join = np.stack([q.join] * 3)
    meet = np.stack([q.meet] * 3)
    join[1, 0, 1] = UNDEF if join[1, 0, 1] != UNDEF else 0
    meet[2, 0, 0] = UNDEF
    verdicts = axiom_violations(lambda k, x: q.labels[x], join, meet, np.full(3, q.n))
    assert verdicts[0] is None
    assert error_outcome(verdicts[1]) == outcome(validate_partial_lattice, q.labels, join[1],
                                                 meet[1])
    assert error_outcome(verdicts[2]) == outcome(validate_partial_lattice, q.labels, join[2],
                                                 meet[2])
    assert "commutativity" in str(verdicts[1]) and "idempotency" in str(verdicts[2])


@settings(max_examples=100, deadline=None)
@given(st.lists(random_partial_lattices(), max_size=4))
@example([antichain(3), named_lattice("N5"), antichain(1), from_plos(make_poset("abc", ["ac"]))])
def test_two_point_extension_matches_its_definition(lats):
    # Each lattice alone, and all of them as one list: sizes and adjoined
    # bounds differ from row to row, and each star is its row of one padded
    # stack, cropped.
    exts = two_point_extensions(lats)
    assert len(exts) == len(lats)
    for lat, listed in zip(lats, exts):
        star, bottom, top = two_point_extension_loops(lat)
        for ext in (two_point_extension(lat), listed):
            assert ext.star.labels[:lat.n] == lat.labels
            assert (ext.added_bottom, ext.added_top) == (bottom, top)
            assert ext.star == star and ext.star.order == star.order


@settings(max_examples=100, deadline=None)
@given(st.lists(random_partial_lattices(), max_size=5))
@example([])
@example([antichain(1), named_lattice("N5"), antichain(3), named_lattice("chain", 1),
          antichain(1), from_plos(make_poset("abc", ["ab", "ac"])),
          from_plos(make_poset("abc", ["ac", "bc"]))])
def test_congruence_tables_match_each_structure(lats):
    # Stars of different sizes, with 0, 1 or 2 adjoined bounds, read in one
    # stacked pass: each table, and the join-irreducibles the pass leaves on
    # each star, equal the per-structure references; and each table is that
    # structure's own table read alone.
    tables = congruence_tables(lats)
    assert len(tables) == len(lats)
    for lat, table in zip(lats, tables):
        for got in (table, congruence_table(lat)):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
                       for a, b in zip(got, congruence_table_per_structure(lat), strict=True))
        star = lat.extension.star
        assert all(np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
                   for a, b in zip(star.irreducibles, irreducibles_per_lattice(star), strict=True))


def test_no_structures_have_no_tables():
    assert congruence_tables([]) == []


def test_empty_stack_extends_to_nothing():
    empty = np.zeros((0, 3, 3), dtype=np.int64)
    x = extension_stack(empty, empty, np.zeros(0, dtype=np.int64))
    assert x.join.shape == x.meet.shape == (0, 3, 3)
    assert [len(v) for v in (x.sizes, x.bottom, x.top)] == [0, 0, 0]
    assert two_point_extensions([]) == []


def test_two_point_extension_matches_its_definition_on_corpus5():
    for lat in CORPUS5:
        ext = two_point_extension(lat)
        star, bottom, top = two_point_extension_loops(lat)
        assert (ext.added_bottom, ext.added_top, ext.star) == (bottom, top, star)


@settings(max_examples=100, deadline=None)
@given(st.lists(random_partial_lattices(), min_size=1, max_size=5))
def test_extrema_stack_matches_each_order(lats):
    # Orders of different sizes, each padded with elements related only to
    # themselves: the sup and inf of its own pairs are those of the order.
    n = max(lat.n for lat in lats)
    leq = np.stack([np.pad(lat.order.leq, (0, n - lat.n)) | np.eye(n, dtype=bool)
                    for lat in lats])
    tables, missing = extrema_stack(leq)
    for k, lat in enumerate(lats):
        want_tables, want_missing = extrema_rows(lat.order)
        assert np.array_equal(tables[:, k, : lat.n, : lat.n], want_tables)
        assert np.array_equal(missing[:, k, : lat.n, : lat.n], want_missing)
