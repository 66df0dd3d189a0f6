import numpy as np
import pytest

from partlat import (
    BOTTOM_LABEL,
    TOP_LABEL,
    UNDEF,
    AxiomViolation,
    check_hom,
    find_isomorphism,
    induced_order,
    named_lattice,
    one_point_extension,
    to_lattice,
    two_point_extension,
    upper_bounds,
    lower_bounds,
    validate_partial_lattice,
)
from partlat.morphism import NOT_HOM


class TestTwoPointExtension:
    def test_fig4_adds_both_and_matches_pentagon(self, fig4):
        ext = two_point_extension(fig4)
        assert ext.added == ("bottom", "top")
        assert ext.star.labels == ("a", "b", "c", BOTTOM_LABEL, TOP_LABEL)
        # explicit expected order: bot < a < c < top, bot < b < top
        a, b, c = 0, 1, 2
        bot, top = ext.added_bottom, ext.added_top
        expected = np.eye(5, dtype=bool)
        for i, j in ((a, c), (bot, a), (bot, b), (bot, c), (bot, top),
                     (a, top), (b, top), (c, top)):
            expected[i, j] = True
        assert (ext.star.order.leq == expected).all()
        assert find_isomorphism(ext.star, named_lattice("N5")) is not None

    def test_total_source_unchanged(self, fig3):
        ext = two_point_extension(fig3)
        assert ext.added == ()
        assert ext.star == to_lattice(fig3)

    def test_kite_adds_top_only_pentagon(self, kite):
        ext = two_point_extension(kite)
        assert ext.added == ("top",)
        assert ext.star.n == 5
        assert find_isomorphism(ext.star, named_lattice("N5")) is not None

    def test_fig2_adds_both(self, fig2):
        ext = two_point_extension(fig2)
        assert ext.added == ("bottom", "top")
        assert find_isomorphism(ext.star, named_lattice("N5")) is not None

    def test_carrier_is_the_prefix_of_the_star(self, corpus5):
        for lat in corpus5:
            n, ext = lat.n, lat.extension
            star = ext.star
            assert star.labels[:n] == lat.labels
            assert ext.added_bottom in (None, n)
            assert ext.added_top in (None, star.n - 1)
            for table, star_table in ((lat.join, star.join), (lat.meet, star.meet)):
                defined = table != UNDEF
                assert (star_table[:n, :n][defined] == table[defined]).all()

    def test_embedding_is_weak_subalgebra(self, fig4, fig9):
        for lat in (fig4, fig9):
            ext = two_point_extension(lat)
            report = check_hom(range(lat.n), lat, ext.star)
            assert report.kind != NOT_HOM


class TestStarOperations:
    def test_fig5_join_of_incomparables_is_top(self, fig4):
        ext = two_point_extension(fig4)
        a, b = fig4.index("a"), fig4.index("b")
        assert ext.star.join[a, b] == ext.added_top

    def test_fig5_join_inside_carrier(self, fig4):
        ext = two_point_extension(fig4)
        a, c = fig4.index("a"), fig4.index("c")
        assert ext.star.join[a, c] == c

    def test_fig10_meet(self, fig9):
        ext = two_point_extension(fig9)
        c, d = fig9.index("c"), fig9.index("d")
        assert ext.star.meet[c, d] == fig9.index("b")

    def test_case_law_on_all_pairs(self, fig9):
        ext = two_point_extension(fig9)
        p = induced_order(fig9)
        for a in range(fig9.n):
            for b in range(fig9.n):
                sj = ext.star.join[a, b]
                if upper_bounds(p, a, b):
                    assert sj == int(fig9.join[a, b])
                else:
                    assert sj == ext.added_top
                sm = ext.star.meet[a, b]
                if lower_bounds(p, a, b):
                    assert sm == int(fig9.meet[a, b])
                else:
                    assert sm == ext.added_bottom


class TestOnePointExtension:
    def test_fig4_routes_undefined_cells_to_c(self, fig4):
        algebra = one_point_extension(fig4)
        assert algebra.n == 4
        c_new = algebra.new_element
        a, b = fig4.index("a"), fig4.index("b")
        assert algebra.join[a, b] == c_new
        assert algebra.meet[a, b] == c_new
        for x in range(algebra.n):
            assert algebra.join[c_new, x] == c_new or x == c_new
        assert algebra.join[c_new, c_new] == c_new

    def test_total_source_unchanged(self, fig3):
        algebra = one_point_extension(fig3)
        assert algebra.new_element is None
        assert algebra.labels == fig3.labels
        assert (algebra.join == fig3.join).all()

    def test_fig4_result_is_not_a_partial_lattice(self, fig4):
        algebra = one_point_extension(fig4)
        with pytest.raises(AxiomViolation) as err:
            validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
        assert err.value.axiom == "duality"
        assert algebra.new_element in err.value.witness
        # the witness really violates the axiom: join gives one argument but
        # the meet does not give the other
        i, j = err.value.witness
        assert algebra.join[i, j] == i and algebra.meet[i, j] != j

    def test_corpus_partial_sources_fail_validation(self):
        # The sink tables give c* ^ x = c*, so duality needs c* v x = x, but
        # c* v x = c*: no non-total source gives a partial lattice.
        from partlat import BOTH_TOTAL, enumerate_partial_lattices, is_total

        partial = 0
        for lat in enumerate_partial_lattices(6):
            algebra = one_point_extension(lat)
            if is_total(lat) == BOTH_TOTAL:
                validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
            else:
                partial += 1
                with pytest.raises(AxiomViolation) as err:
                    validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
                assert err.value.axiom == "duality"
        assert partial == 273
