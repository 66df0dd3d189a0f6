import tracemalloc

import numpy as np
import pytest

from partlat import (
    BadParameter,
    CycleDetected,
    DuplicateLabel,
    NotALattice,
    PartialLattice,
    Poset,
    UnknownLabel,
    from_plos,
    is_distributive,
    is_modular,
    is_plos,
    lower_bounds,
    make_poset,
    named_lattice,
    upper_bounds,
    validate_lattice,
)
from partlat import order
from partlat.enumeration import all_posets


def bounds_by_scan(p, a, b, upper):
    # definition scan, independent of the library helpers
    if upper:
        return {x for x in range(p.n) if p.leq[a, x] and p.leq[b, x]}
    return {x for x in range(p.n) if p.leq[x, a] and p.leq[x, b]}


class TestMakePoset:
    def test_fig4_shape(self):
        p = make_poset(("a", "c", "b"), (("a", "c"),))
        a, c, b = p.index("a"), p.index("c"), p.index("b")
        assert p.leq[a, c] and not p.leq[c, a]
        assert not p.leq[a, b] and not p.leq[b, a]
        assert not p.leq[b, c] and not p.leq[c, b]

    def test_singleton(self):
        p = make_poset(("x",), ())
        assert p.n == 1
        assert p.leq[0, 0]

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected) as err:
            make_poset(("a", "b"), (("a", "b"), ("b", "a")))
        assert set(err.value.cycle) == {"a", "b"}

    def test_every_reported_cycle_follows_the_arcs(self):
        # The witness is read from arcs of the relation, found by search
        # between two elements its closure relates both ways; over every
        # relation on four labels each step of the cycle is an arc.
        labels = "abcd"
        arcs = [(x, y) for x in labels for y in labels if x != y]
        cycles = 0
        for bits in range(2 ** len(arcs)):
            relation = [arc for k, arc in enumerate(arcs) if bits >> k & 1]
            try:
                make_poset(labels, relation)
            except CycleDetected as err:
                cycles += 1
                steps = set(zip(err.cycle, err.cycle[1:] + err.cycle[:1]))
                assert steps <= set(relation), (relation, err.cycle)
        assert cycles == 2 ** len(arcs) - 543  # 543 acyclic digraphs: OEIS A003024

    def test_transitive_closure(self):
        p = make_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert p.leq[p.index("a"), p.index("c")]

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            make_poset(("a", "a"), ())

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            make_poset(("a",), (("a", "q"),))
        with pytest.raises(UnknownLabel):
            make_poset(("a",), (("q", "a"),))
        with pytest.raises(UnknownLabel):
            make_poset(("a",), ()).index("q")

    def test_repr_lists_the_covers(self):
        assert repr(make_poset("abc", ("ab", "bc"))) == "Poset(a b c; a<b b<c)"
        assert repr(named_lattice("chain", 2)) == "Lattice(Poset(c1 c2; c1<c2))"

    def test_order_matrix_must_match_the_labels(self):
        with pytest.raises(BadParameter, match="order matrix shape"):
            Poset(("a", "b"), np.eye(3, dtype=bool))

    def test_reserved_label(self):
        with pytest.raises(BadParameter):
            make_poset(("a", "⊥*"), ())

    def test_empty_carrier(self):
        with pytest.raises(BadParameter):
            make_poset((), ())


# An empty carrier is refused where a structure is made, so no scan, which
# would take the argmax of an empty array, and no extension ever sees one.
EMPTY_ORDER = np.zeros((0, 0), dtype=bool)
EMPTY_TABLE = np.zeros((0, 0), dtype=np.int64)


def test_empty_poset_is_refused():
    with pytest.raises(BadParameter, match="carrier must be nonempty"):
        Poset((), EMPTY_ORDER)


def test_empty_partial_lattice_is_refused():
    with pytest.raises(BadParameter, match="carrier must be nonempty"):
        PartialLattice((), EMPTY_TABLE, EMPTY_TABLE)


@pytest.mark.parametrize("call", [is_plos, from_plos, validate_lattice])
def test_no_scan_of_an_empty_order(call):
    with pytest.raises(BadParameter, match="carrier must be nonempty"):
        call(Poset((), EMPTY_ORDER))


def test_no_extension_of_an_empty_carrier():
    with pytest.raises(BadParameter, match="carrier must be nonempty"):
        PartialLattice((), EMPTY_TABLE, EMPTY_TABLE).extension


class TestBounds:
    def test_fig1_upper(self, fig1):
        a, b = fig1.index("a"), fig1.index("b")
        assert upper_bounds(fig1, a, b) == frozenset(fig1.indices(("c", "d", "1")))

    def test_reflexive_pair_contains_itself(self, fig1):
        a = fig1.index("a")
        assert a in upper_bounds(fig1, a, a)
        assert a in lower_bounds(fig1, a, a)

    def test_fig9_empty_upper(self, fig9):
        from partlat import induced_order

        p = induced_order(fig9)
        assert upper_bounds(p, p.index("a"), p.index("d")) == frozenset()

    def test_fig9_lower(self, fig9):
        from partlat import induced_order

        p = induced_order(fig9)
        assert lower_bounds(p, p.index("c"), p.index("d")) == frozenset({p.index("b")})

    def test_fig4_empty(self):
        p = make_poset(("a", "c", "b"), (("a", "c"),))
        assert lower_bounds(p, p.index("a"), p.index("b")) == frozenset()

    @pytest.mark.parametrize("bounds", [upper_bounds, lower_bounds])
    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (True, 0), (0, False), (3, 0),
                                      (0, 7), (1.0, 0), ("c1", 0), (None, 0)])
    def test_pair_outside_carrier(self, bounds, a, b):
        p = make_poset(("c1", "c2", "c3"), (("c1", "c2"), ("c2", "c3")))
        with pytest.raises(BadParameter, match="outside carrier"):
            bounds(p, a, b)

    def test_numpy_integer_pair(self):
        p = make_poset(("c1", "c2", "c3"), (("c1", "c2"), ("c2", "c3")))
        assert upper_bounds(p, np.int64(0), np.int8(1)) == frozenset({1, 2})

    def test_matches_definition_scan(self, corpus4):
        from partlat import induced_order

        for lat in corpus4:
            p = induced_order(lat)
            for a in range(p.n):
                for b in range(p.n):
                    assert upper_bounds(p, a, b) == bounds_by_scan(p, a, b, True)
                    assert lower_bounds(p, a, b) == bounds_by_scan(p, a, b, False)


class TestIsPlos:
    def test_fig1_fails_at_ab(self, fig1):
        report = is_plos(fig1)
        assert not report
        assert report.side == "upper"
        assert report.witness == (fig1.index("a"), fig1.index("b"))
        assert report.bound_set == frozenset(fig1.indices(("c", "d", "1")))

    def test_chain(self):
        assert is_plos(named_lattice("chain", 4).order)

    def test_fig9(self, fig9):
        from partlat import induced_order

        assert is_plos(induced_order(fig9))


class TestExtremaCache:
    def test_one_scan_per_poset(self, monkeypatch):
        calls = []

        def counted(leq):
            calls.append(leq.shape)
            return scan(leq)

        known = named_lattice("boolean", 3)
        p = Poset(known.labels, known.leq)  # a fresh Poset: nothing cached yet
        scan = order.extrema_stack
        monkeypatch.setattr(order, "extrema_stack", counted)
        assert is_plos(p)
        lat = from_plos(p)
        assert validate_lattice(p) == known
        assert np.array_equal(lat.join, known.join) and np.array_equal(lat.meet, known.meet)
        assert calls == [(1, 8, 8)]

    def test_read_only(self):
        tables, missing = make_poset(("a", "b"), (("a", "b"),)).extrema
        for arr in (tables, missing):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTableSharing:
    """A table is held, not copied, exactly when no one can write to it."""

    def test_validate_lattice_shares_the_cached_scan(self):
        p = make_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
        lat = validate_lattice(p)
        assert np.shares_memory(lat.join, p.extrema[0])
        assert np.shares_memory(lat.meet, p.extrema[0])
        assert np.shares_memory(from_plos(p).join, lat.join)

    def test_read_only_view_of_a_writable_array_is_copied(self):
        known = named_lattice("chain", 3)
        base = np.array(known.join)
        view = base[:]
        view.flags.writeable = False
        lat = PartialLattice(known.labels, view, view)
        base[0, 1] = 0
        assert view[0, 1] == 0 and lat.join[0, 1] == lat.meet[0, 1] == 1
        assert not lat.join.flags.writeable

    def test_frozen_int64_is_shared_and_anything_else_copied(self):
        table = order._frozen(np.array(named_lattice("chain", 2).join))
        assert PartialLattice(("x", "y"), table, table).join is table
        for other in (table.astype(np.int32), table.tolist(), np.array(table)):
            lat = PartialLattice(("x", "y"), other, other)
            assert not np.shares_memory(lat.join, table) and not lat.join.flags.writeable
            assert lat.join.dtype == np.int64

    def test_validate_lattice_retains_one_copy(self):
        # A 400-element chain: the cached scan holds 2.44 MiB of int64 tables
        # and 0.31 MiB of missing mask; a copy of the tables would add 2.44.
        n = 400
        p = Poset([f"x{i}" for i in range(n)], np.triu(np.ones((n, n), dtype=bool)))
        tracemalloc.start()
        try:
            lat = validate_lattice(p)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lat.join[3, 5] == 5
        assert retained < 3 * 2**20


class TestValidateLattice:
    def test_pentagon_poset(self):
        rel = (("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1"))
        lat = validate_lattice(make_poset(("0", "a", "c", "b", "1"), rel))
        assert lat.n == 5
        a, b = lat.index("a"), lat.index("b")
        assert lat.join[a, b] == lat.index("1")

    def test_fig4_poset_rejected(self):
        p = make_poset(("a", "c", "b"), (("a", "c"),))
        with pytest.raises(NotALattice) as err:
            validate_lattice(p)
        assert err.value.pair == (p.index("a"), p.index("b"))

    def test_singleton(self):
        lat = validate_lattice(make_poset(("x",), ()))
        assert lat.join[0, 0] == 0 and lat.meet[0, 0] == 0

    def test_succeeds_iff_plos_and_bounds_nonempty(self):
        for p in all_posets(4):
            total_bounds = all(
                upper_bounds(p, a, b) and lower_bounds(p, a, b)
                for a in range(p.n)
                for b in range(p.n)
            )
            expected = bool(is_plos(p)) and total_bounds
            try:
                validate_lattice(p)
                got = True
            except NotALattice:
                got = False
            assert got == expected

    def test_absorption_on_tables(self):
        for kind, size in (("chain", 4), ("M", 3), ("boolean", 3), ("N5", None)):
            lat = named_lattice(kind, size)
            for i in range(lat.n):
                for j in range(lat.n):
                    assert lat.join[i, lat.meet[i, j]] == i
                    assert lat.meet[i, lat.join[i, j]] == i


class TestNamedLattice:
    def test_n5_shape(self):
        lat = named_lattice("N5")
        assert lat.n == 5
        x, z, y = lat.index("x"), lat.index("z"), lat.index("y")
        assert lat.leq[x, z]
        assert not lat.leq[x, y] and not lat.leq[y, z]

    def test_chain_one_is_singleton(self):
        assert named_lattice("chain", 1).n == 1

    def test_m3(self):
        lat = named_lattice("M", 3)
        assert lat.n == 5
        assert not is_distributive(lat)

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            named_lattice("chain", 0)
        with pytest.raises(BadParameter):
            named_lattice("M", 1)
        with pytest.raises(BadParameter):
            named_lattice("pentagon", 5)
        with pytest.raises(BadParameter):
            named_lattice("N5", 3)

    @pytest.mark.parametrize("size", [True, False, 3.0, "3", None], ids=repr)
    @pytest.mark.parametrize("kind", ["chain", "M", "boolean"])
    def test_size_must_be_an_integer(self, kind, size):
        # a bool is not read as 1 or 0, nor a float or string as its value
        with pytest.raises(BadParameter, match="integer size"):
            named_lattice(kind, size)

    def test_numpy_integer_size(self):
        assert named_lattice("M", np.int64(3)).n == named_lattice("M", 3).n == 5

    def test_carrier_cap(self):
        for kind, size in (("boolean", 8), ("boolean", 99), ("chain", 129), ("M", 127)):
            with pytest.raises(BadParameter, match="more than 128 elements"):
                named_lattice(kind, size)


class TestDistributiveModular:
    def test_boolean_two(self):
        lat = named_lattice("boolean", 2)
        assert is_distributive(lat) and is_modular(lat)

    def test_n5_not_modular(self):
        lat = named_lattice("N5")
        assert not is_modular(lat)
        assert not is_distributive(lat)

    def test_m3_modular_not_distributive(self):
        lat = named_lattice("M", 3)
        assert is_modular(lat)
        assert not is_distributive(lat)

    def test_total_partial_lattice(self, fig3):
        # fig3 is the four-element Boolean lattice, parsed as a PartialLattice
        assert type(fig3) is PartialLattice
        assert is_distributive(fig3) and is_modular(fig3)

    @pytest.mark.parametrize("law", [is_distributive, is_modular])
    def test_undefined_cell(self, fig9, law):
        # fig9 has undefined joins, its dual undefined meets
        for lat in (fig9, PartialLattice(fig9.labels, fig9.meet, fig9.join)):
            with pytest.raises(BadParameter, match="operations are not total"):
                law(lat)

    def test_distributive_implies_modular(self):
        for kind, size in (("chain", 5), ("boolean", 3), ("M", 4), ("N5", None)):
            lat = named_lattice(kind, size)
            assert not is_distributive(lat) or is_modular(lat)
