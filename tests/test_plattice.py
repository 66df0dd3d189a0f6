import gc
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from partlat import (
    BOTH_PARTIAL,
    BOTH_TOTAL,
    JOIN_PARTIAL,
    UNDEF,
    AxiomViolation,
    BadParameter,
    NotPlos,
    PartialLattice,
    antichain,
    check_absorption,
    check_distributivity,
    enumerate_partial_lattices,
    from_plos,
    induced_order,
    is_congruence_on_partial,
    is_total,
    lower_bounds,
    lp_roundtrip,
    make_poset,
    named_lattice,
    pl_roundtrip,
    quotient,
    to_lattice,
    two_point_extension,
    upper_bounds,
    validate_partial_lattice,
)
from partlat import figures as figs
from partlat.congruence import congruence_table


def tables_of(lat):
    return np.array(lat.join), np.array(lat.meet)


class TestValidate:
    def test_fig4_tables(self, fig4):
        a, b, c = fig4.indices(("a", "b", "c"))
        assert fig4.join[a, c] == c and fig4.meet[a, c] == a
        assert fig4.join[a, b] == UNDEF and fig4.meet[a, b] == UNDEF

    def test_total_lattice_tables_pass(self):
        lat = named_lattice("boolean", 2)
        out = validate_partial_lattice(lat.labels, lat.join, lat.meet)
        assert out == lat

    def test_missing_dual_cell_is_duality_violation(self, fig4):
        jt, mt = tables_of(fig4)
        a, c = fig4.index("a"), fig4.index("c")
        mt[a, c] = mt[c, a] = UNDEF
        with pytest.raises(AxiomViolation) as err:
            validate_partial_lattice(fig4.labels, jt, mt)
        assert err.value.axiom == "duality"
        assert set(err.value.witness) == {a, c}

    def test_missing_join_of_a_comparable_pair_is_duality_violation(self):
        # a ^ b = a on the chain a < b, with a v b left undefined
        with pytest.raises(AxiomViolation, match="meet gives i but join is not j"):
            validate_partial_lattice(("a", "b"), [[0, None], [None, 1]], [[0, 0], [0, 1]])

    # A chain a < b has join [[0, 1], [1, 1]]; each join below is malformed.
    @pytest.mark.parametrize("join, message", [
        ([[0]], "join table shape does not match carrier"),
        ([[0, 1], [1.7, 1]], "join[1,0] is not an element index"),
        ([[0, 1], ["x", 1]], "join[1,0] is not an element index"),
        ([[0, True], [1, 1]], "join[0,1] is not an element index"),
        (np.array([[0, 1], [1.7, 1]]), "join table has dtype float64, not an integer type"),
        (np.array([[0]]), "join table shape does not match carrier"),
        (np.array([[0, 2], [2, 1]]), "join[0,1] is not an element index"),
    ], ids=["short", "float_cell", "str_cell", "bool_cell", "float_array", "short_array",
            "out_of_range_array"])
    def test_malformed_table_is_rejected(self, join, message):
        with pytest.raises(BadParameter) as err:
            validate_partial_lattice(("a", "b"), join, [[0, 0], [0, 1]])
        assert str(err.value) == message

    def test_idempotency_first(self):
        jt = np.array([[1, UNDEF], [UNDEF, 1]])
        mt = np.array([[0, UNDEF], [UNDEF, 1]])
        with pytest.raises(AxiomViolation) as err:
            validate_partial_lattice(("a", "b"), jt, mt)
        assert err.value.axiom == "idempotency"

    def test_commutativity(self):
        jt = np.array([[0, 2, UNDEF], [UNDEF, 1, UNDEF], [UNDEF, UNDEF, 2]])
        mt = np.full((3, 3), UNDEF)
        np.fill_diagonal(mt, (0, 1, 2))
        with pytest.raises(AxiomViolation) as err:
            validate_partial_lattice(("a", "b", "c"), jt, mt)
        assert err.value.axiom == "commutativity"

    def test_associativity(self):
        # join a b = c with nothing else defined: (a v a) v b is defined
        # while a v (a v b) is not
        jt = np.full((3, 3), UNDEF)
        np.fill_diagonal(jt, (0, 1, 2))
        jt[0, 1] = jt[1, 0] = 2
        mt = np.full((3, 3), UNDEF)
        np.fill_diagonal(mt, (0, 1, 2))
        with pytest.raises(AxiomViolation) as err:
            validate_partial_lattice(("a", "b", "c"), jt, mt)
        assert err.value.axiom == "associativity"

    def test_none_cells_accepted(self):
        jt = [[0, None], [None, 1]]
        mt = [[0, None], [None, 1]]
        lat = validate_partial_lattice(("a", "b"), jt, mt)
        assert lat.join[0, 1] == UNDEF


class TestInducedOrder:
    def test_fig4(self, fig4):
        p = induced_order(fig4)
        a, b, c = fig4.indices(("a", "b", "c"))
        assert p.leq[a, c]
        assert not p.leq[a, b] and not p.leq[b, c]

    def test_total_lattice(self):
        lat = named_lattice("N5")
        assert induced_order(lat) == lat.order

    def test_fig9(self, fig9):
        p = induced_order(fig9)
        a, b, c, d = fig9.indices(("a", "b", "c", "d"))
        assert p.leq[a, c] and p.leq[b, c] and p.leq[b, d]
        assert not p.leq[a, d] and not p.leq[c, d] and not p.leq[a, b]


class TestDerivedObjects:
    def test_cached_values_match_fresh_builds(self, corpus5):
        for lat in corpus5:
            assert lat.order == induced_order(lat)
            assert lat.extension == two_point_extension(lat)
            assert all(map(np.array_equal, lat.congruence_table, congruence_table(lat)))

    def test_repeated_access_returns_the_same_object(self, corpus5):
        for lat in corpus5:
            assert lat.order is lat.order
            assert lat.extension is lat.extension
            assert lat.congruence_table is lat.congruence_table

    def test_a_structure_goes_with_its_last_reference(self, fig9):
        # No derived object points back at its structure, so reference
        # counting alone frees it, with the collector off.
        lat = PartialLattice(fig9.labels, fig9.join, fig9.meet)
        e = figs.congruence_of(lat, "a|b d|c")
        with collector_off():
            lat.order, lat.congruence_table, lat.extension.star.irreducibles
            quotient(lat, e), is_congruence_on_partial(lat, e)
            ref = weakref.ref(lat)
            del lat
            assert ref() is None

    def test_a_loop_over_structures_holds_none_of_them(self):
        # Each structure read in the loop is freed when the loop moves on.
        # The peak read 0.74 MiB; with every structure left as cyclic
        # garbage it read 1.82 MiB.
        with collector_off():
            tracemalloc.start()
            try:
                for lat in enumerate_partial_lattices(6):
                    lat.extension, lat.congruence_table
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.0 * 2**20


@contextmanager
def collector_off():
    """The cyclic garbage collector switched off, and restored after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestFromPlos:
    def test_fig1_rejected(self, fig1):
        with pytest.raises(NotPlos) as err:
            from_plos(fig1)
        assert err.value.report.witness == (fig1.index("a"), fig1.index("b"))

    def test_chain_total(self):
        lat = from_plos(named_lattice("chain", 3).order)
        assert is_total(lat) == BOTH_TOTAL

    def test_fig9_cells_match_bound_scans(self, fig9):
        p = induced_order(fig9)
        lat = from_plos(p)
        assert lat == fig9
        a, b, c, d = lat.indices(("a", "b", "c", "d"))
        assert lat.join[a, b] == c
        assert lat.meet[c, d] == b
        assert lat.join[a, d] == UNDEF
        assert lat.meet[a, b] == UNDEF
        # every cell agrees with a direct bound-set scan
        for x in range(lat.n):
            for y in range(lat.n):
                ups = upper_bounds(p, x, y)
                assert (lat.join[x, y] != UNDEF) == bool(ups)
                lows = lower_bounds(p, x, y)
                assert (lat.meet[x, y] != UNDEF) == bool(lows)


class TestRoundtrips:
    def test_fig4(self, fig4):
        assert lp_roundtrip(fig4)

    def test_singleton(self):
        p = make_poset(("x",), ())
        assert pl_roundtrip(p)
        assert lp_roundtrip(from_plos(p))

    def test_small_posets_exhaustively(self, corpus5):
        for lat in corpus5:
            assert lp_roundtrip(lat)
            assert pl_roundtrip(induced_order(lat))


class TestAbsorption:
    def test_fig4_weak_holds(self, fig4):
        assert check_absorption(fig4, "weak").holds

    def test_fig4_strong_fails_at_ab(self, fig4):
        report = check_absorption(fig4, "strong")
        assert not report.holds
        assert report.schema == "absorption_join"
        assert report.witness == (fig4.index("a"), fig4.index("b"))

    def test_total_strong_holds(self):
        lat = named_lattice("M", 3)
        assert check_absorption(lat, "strong").holds

    def test_strong_iff_total(self, corpus4):
        for lat in corpus4:
            assert check_absorption(lat, "strong").holds == (is_total(lat) == BOTH_TOTAL)

    def test_unknown_mode_is_rejected(self, fig4):
        with pytest.raises(BadParameter, match="unknown identity mode 'medium'"):
            check_absorption(fig4, "medium")


class TestDistributivity:
    def test_antichain_strong_holds(self):
        for n in (3, 4, 5):
            assert check_distributivity(antichain(n), "strong").holds

    def test_pentagon_fails_weak(self):
        lat = named_lattice("N5")
        assert not check_distributivity(lat, "weak").holds


class TestIsTotal:
    def test_repr_counts_defined_cells(self, fig4):
        assert repr(fig4) == "PartialLattice(a b c; 10 defined cells)"

    def test_fig4_both_partial(self, fig4):
        assert is_total(fig4) == BOTH_PARTIAL

    def test_kite_join_partial(self, kite):
        assert is_total(kite) == JOIN_PARTIAL

    def test_total(self):
        assert is_total(named_lattice("chain", 2)) == BOTH_TOTAL


class TestConversions:
    def test_to_lattice_roundtrip(self):
        lat = named_lattice("boolean", 2)
        assert to_lattice(lat) == lat

    def test_to_lattice_rejects_partial(self, fig4):
        from partlat import BadParameter

        with pytest.raises(BadParameter):
            to_lattice(fig4)
