import itertools

import numpy as np
import pytest

from partlat import (
    CLOSED_HOM,
    HOM,
    NOT_HOM,
    UNDEF,
    BadParameter,
    ImageEscapes,
    Morphism,
    NotClosed,
    Partition,
    all_partial_congruences,
    antichain,
    canonical_projection,
    check_hom,
    extend_hom,
    find_isomorphism,
    hom_theorem_check,
    is_congruence_on_partial,
    kernel,
    named_lattice,
    order_isomorphism,
    quotient,
    quotient_extension_iso,
    quotient_join_case,
    restrict_hom,
    two_point_extension,
)
from partlat import figures as figs


def inclusion(small, big):
    return tuple(big.index(lbl) for lbl in small.labels)


class TestCheckHom:
    def test_fig2_into_fig3_is_hom_not_closed(self, fig2, fig3):
        report = check_hom(inclusion(fig2, fig3), fig2, fig3)
        assert report.kind == HOM
        assert report.witness == (fig2.index("l"), fig2.index("r"))
        assert report.op == "join"

    def test_identity_is_closed(self, fig4):
        report = check_hom(range(fig4.n), fig4, fig4)
        assert report.kind == CLOSED_HOM

    def test_constant_from_total_lattice_is_closed(self):
        lat = named_lattice("boolean", 2)
        report = check_hom([0] * lat.n, lat, lat)
        assert report.kind == CLOSED_HOM

    def test_constant_from_partial_source_is_not_closed(self, fig4):
        report = check_hom([fig4.index("a")] * fig4.n, fig4, fig4)
        assert report.kind == HOM

    def test_negative_values_are_rejected(self, fig4):
        # indexing would wrap -3, -2, -1 round to the identity map
        with pytest.raises(BadParameter):
            check_hom((-3, -2, -1), fig4, fig4)

    def test_short_mapping_is_rejected(self, fig4):
        with pytest.raises(BadParameter):
            check_hom((0, 1), fig4, fig4)

    def test_value_outside_target_is_rejected(self, fig4):
        with pytest.raises(BadParameter):
            check_hom((0, 1, fig4.n), fig4, fig4)

    def test_fractional_value_is_rejected(self, fig4):
        with pytest.raises(BadParameter):
            check_hom((0.5, 1, 2), fig4, fig4)

    def test_bool_value_is_rejected(self):
        # bool subclasses int, so True would be read as element 1
        c2 = named_lattice("chain", 2)
        with pytest.raises(BadParameter):
            check_hom([True, True], c2, c2)

    def test_bool_value_is_rejected_by_morphism(self):
        c2 = named_lattice("chain", 2)
        with pytest.raises(BadParameter):
            Morphism(c2, c2, (False, True))

    def test_value_mismatch_is_not_hom(self, fig4):
        a, b, c = fig4.indices(("a", "b", "c"))
        # swap b and c: a v c = c must map to a v b, which is undefined
        report = check_hom((a, c, b), fig4, fig4)
        assert report.kind == NOT_HOM


class TestKernel:
    def test_injective(self, fig4):
        h = Morphism(fig4, fig4, tuple(range(fig4.n)))
        assert kernel(h) == Partition.identity(fig4.n)

    def test_projection_kernel_is_the_congruence(self, fig9):
        for classes in ("a|b d|c", "a c|b|d", "a|b c|d"):
            e = figs.congruence_of(fig9, classes)
            proj = canonical_projection(fig9, e)
            assert kernel(proj) == e


class TestCanonicalProjection:
    def test_fig4_projection_closed(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        proj = canonical_projection(fig4, e)
        assert check_hom(proj.mapping, proj.source, proj.target).kind == CLOSED_HOM

    def test_fig9_bd_projection_not_closed(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        proj = canonical_projection(fig9, e)
        report = check_hom(proj.mapping, proj.source, proj.target)
        assert report.kind == HOM
        # [a] v [d] exists downstairs while a v d does not
        a, d = fig9.index("a"), fig9.index("d")
        assert proj.target.join[e.block_of[a], e.block_of[d]] != -1

    def test_identity_congruence_gives_isomorphism(self, fig4):
        e = Partition.identity(fig4.n)
        proj = canonical_projection(fig4, e)
        assert check_hom(proj.mapping, proj.source, proj.target).kind == CLOSED_HOM
        assert sorted(proj.mapping) == list(range(fig4.n))


class TestExtendRestrict:
    def test_identity_extends_to_identity(self, fig4):
        h = Morphism(fig4, fig4, tuple(range(fig4.n)))
        hstar = extend_hom(h)
        assert hstar.mapping == tuple(range(hstar.source.n))

    def test_closed_projection_extends_and_restricts_back(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        proj = canonical_projection(fig4, e)
        hstar = extend_hom(proj)
        assert restrict_hom(hstar, fig4, proj.target).mapping == proj.mapping

    def test_restriction_of_the_extension_is_the_map_over_corpus4(self, corpus4):
        # restrict_hom no longer classifies its result; its docstring proves
        # the restriction a homomorphism, and every closed map between two
        # structures of corpus 4 pins it.
        closed = 0
        for source, target in itertools.product(corpus4, repeat=2):
            for mapping in itertools.product(range(target.n), repeat=source.n):
                if check_hom(mapping, source, target).kind != CLOSED_HOM:
                    continue
                closed += 1
                h = restrict_hom(extend_hom(Morphism(source, target, mapping)), source, target)
                assert h.mapping == mapping and h.report.kind == CLOSED_HOM
        assert closed == 1477

    def test_each_map_is_classified_once(self, fig4, monkeypatch):
        from partlat import morphism

        classified = []
        classify = morphism._classify

        def counting(mapping, source, target):
            classified.append(tuple(mapping))
            return classify(mapping, source, target)

        monkeypatch.setattr(morphism, "_classify", counting)
        proj = canonical_projection(fig4, figs.congruence_of(fig4, "a c|b"))
        report = proj.report
        hstar = extend_hom(proj)
        h = restrict_hom(hstar, fig4, proj.target)
        # the projection and the star map; the restriction is a homomorphism
        # unchecked, and classified once when its report is read
        assert classified == [proj.mapping, hstar.mapping]
        assert h.report is h.report
        assert classified == [proj.mapping, hstar.mapping, h.mapping]
        assert report == check_hom(proj.mapping, proj.source, proj.target)

    def test_report_does_not_check_the_map_again(self, fig4, monkeypatch):
        from partlat import morphism

        checked = []
        require = morphism._require_map

        def counting(mapping, source, target):
            checked.append(tuple(mapping))
            return require(mapping, source, target)

        monkeypatch.setattr(morphism, "_require_map", counting)
        h = Morphism(fig4, fig4, tuple(range(fig4.n)))
        assert h.report.kind == CLOSED_HOM
        assert checked == [h.mapping]  # by __post_init__ only
        assert check_hom(h.mapping, fig4, fig4) == h.report
        assert checked == [h.mapping, h.mapping]  # check_hom still checks

    def test_non_closed_inclusion_rejected(self, fig2, fig3):
        h = Morphism(fig2, fig3, inclusion(fig2, fig3))
        with pytest.raises(NotClosed):
            extend_hom(h)

    def test_restrict_star_projection_gives_canonical_projection(self, fig9):
        # star-level congruence projection composed with the exchange
        # isomorphism restricts to the block map
        e = figs.congruence_of(fig9, "a|b d|c")
        w = is_congruence_on_partial(fig9, e)
        iso = quotient_extension_iso(fig9, e)
        big = iso.forward.target  # extension star of the quotient, quotiented view
        x1 = fig9.extension
        proj_star = Morphism(
            x1.star, big, tuple(w.theta.block_of)
        )
        composed = Morphism(
            proj_star.source,
            iso.backward.target,
            tuple(iso.backward.mapping[v] for v in proj_star.mapping),
        )
        restricted = restrict_hom(composed, fig9, quotient(fig9, e))
        assert restricted.mapping == tuple(e.block_of)

    def test_image_escapes(self):
        two = antichain(2)
        x1 = two_point_extension(two)
        x2 = two_point_extension(two)
        sink = Morphism(
            x1.star,
            x2.star,
            tuple([x2.added_bottom] * x1.star.n),
        )
        with pytest.raises(ImageEscapes):
            restrict_hom(sink, two, two)

    @pytest.mark.parametrize("source, target", [("fig9", "chain4"), ("fig4", "fig9")])
    def test_restrict_checks_its_carriers(self, fig4, fig9, source, target):
        # The star map of fig9's identity, restricted to fig9 -> chain 4, once
        # raised InvariantError, which reports a library bug; restricted to
        # fig4 -> fig9 it once returned a map with no error.
        structures = {"fig4": fig4, "fig9": fig9, "chain4": named_lattice("chain", 4)}
        hstar = extend_hom(Morphism(fig9, fig9, tuple(range(fig9.n))))
        with pytest.raises(BadParameter, match="star map is for other structures"):
            restrict_hom(hstar, structures[source], structures[target])
        assert restrict_hom(hstar, fig9, fig9).mapping == tuple(range(fig9.n))

    def test_restrict_requires_hom(self, fig4):
        x1 = two_point_extension(fig4)
        bad = Morphism(
            x1.star,
            x1.star,
            tuple([1] + [0] * (x1.star.n - 1)),
        )
        if check_hom(bad.mapping, bad.source, bad.target).kind == NOT_HOM:
            with pytest.raises(BadParameter):
                restrict_hom(bad, fig4, fig4)


class TestHomTheorem:
    def test_identity_isomorphism(self, fig4):
        h = Morphism(fig4, fig4, tuple(range(fig4.n)))
        report = hom_theorem_check(h)
        assert report.kernel == Partition.identity(fig4.n)
        assert report.image == fig4
        assert report.quotient.n == fig4.n

    def test_closed_projection_image_is_the_quotient(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        proj = canonical_projection(fig4, e)
        report = hom_theorem_check(proj)
        assert report.kernel == e
        assert report.image.n == 2
        # image of the projection is the whole antichain quotient
        assert report.image == report.iso.forward.source
        assert report.quotient == proj.target

    def test_rejects_non_closed(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        proj = canonical_projection(fig9, e)
        with pytest.raises(NotClosed):
            hom_theorem_check(proj)

    def test_the_proved_guards_hold_over_corpus5(self, corpus5):
        # Each statement below is proved in the docstring of the function
        # named beside it, which no longer checks it; the corpus pins them.
        congruences = closed = 0
        for lat in corpus5:
            ext = lat.extension
            # quotient_join_cases: a top is adjoined exactly when the join has a gap
            assert (ext.added_top is not None) == (lat.join == UNDEF).any()
            assert (ext.added_bottom is not None) == (lat.meet == UNDEF).any()
            for row, e in zip(lat.congruence_table.theta.tolist(), all_partial_congruences(lat)):
                congruences += 1
                theta, qx = Partition(row), quotient(lat, e).extension
                # quotient_extension_iso: (L/E)* adjoins a bound only where L* does
                assert set(qx.added) <= set(ext.added)
                # quotient_join_case: the top's class meets the carrier at the
                # least member of the block the join cases name
                if ext.added_top is not None:
                    alpha = theta.block_containing(ext.added_top)[0]
                    for a, b in zip(*np.nonzero(lat.join == UNDEF)):
                        case = quotient_join_case(lat, e, int(a), int(b))
                        assert case.alpha == (alpha if alpha < lat.n else None)
                proj = canonical_projection(lat, e)
                if proj.report.kind != CLOSED_HOM:
                    continue
                closed += 1
                # hom_theorem_check: theta(ker h) keeps the adjoined bounds singletons
                for bound in (ext.added_bottom, ext.added_top):
                    assert bound is None or theta.block_containing(bound) == (bound,)
                # extend_hom: closedness forces each target bound
                assert qx.added == ext.added
                extend_hom(proj)
                assert hom_theorem_check(proj).kernel == e
        assert (congruences, closed) == (411, 200)


class TestExchangeIso:
    def test_fig4_both_sides_diamond(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        iso = quotient_extension_iso(fig4, e)
        diamond = named_lattice("boolean", 2)
        from partlat import to_lattice

        left = to_lattice(iso.forward.source)
        right = to_lattice(iso.forward.target)
        assert find_isomorphism(left, diamond) is not None
        assert find_isomorphism(right, diamond) is not None

    def test_fig9_bd_adds_bottom_only(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        q = quotient(fig9, e)
        qx = two_point_extension(q)
        assert qx.added == ("bottom",)
        quotient_extension_iso(fig9, e)

    def test_fig9_bc_chain_equals_its_extension(self, fig9):
        e = figs.congruence_of(fig9, "a|b c|d")
        q = quotient(fig9, e)
        qx = two_point_extension(q)
        assert qx.added == ()
        iso = quotient_extension_iso(fig9, e)
        assert iso.forward.source.n == 3

    def test_mutually_inverse(self, fig9):
        e = figs.congruence_of(fig9, "a c|b|d")
        iso = quotient_extension_iso(fig9, e)
        n = iso.forward.source.n
        for i in range(n):
            assert iso.backward.mapping[iso.forward.mapping[i]] == i


class TestFindIsomorphism:
    def test_fig5_star_is_pentagon(self, fig4):
        star = two_point_extension(fig4).star
        assert find_isomorphism(star, named_lattice("N5")) is not None

    def test_antichain_star_is_m3(self):
        star = two_point_extension(antichain(3)).star
        assert find_isomorphism(star, named_lattice("M", 3)) is not None

    def test_size_mismatch(self):
        a = named_lattice("chain", 2)
        b = named_lattice("chain", 3)
        assert find_isomorphism(a, b) is None

    def test_same_size_different_shape(self):
        assert find_isomorphism(named_lattice("N5"), named_lattice("M", 3)) is None

    def test_symmetry(self):
        pairs = (
            (named_lattice("N5"), named_lattice("M", 3)),
            (named_lattice("boolean", 2), named_lattice("M", 2)),
            (named_lattice("chain", 4), named_lattice("chain", 4)),
        )
        for a, b in pairs:
            assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)

    def test_order_isomorphism_on_posets(self, fig4):
        from partlat import induced_order, make_poset

        p = induced_order(fig4)
        q = make_poset(("u", "v", "w"), (("v", "u"),))  # relabeled copy
        assert order_isomorphism(p, q) is not None

    def test_equal_signatures_can_exhaust_the_search(self):
        # Two posets of all_posets(6) whose elements have the same multiset of
        # signatures: in p the element below two others (c) is below no
        # element that a second one is below, in q it shares f with b.
        from partlat import make_poset

        p = make_poset("abcdef", ("af", "bf", "cd", "ce"))
        q = make_poset("abcdef", ("ad", "bf", "ce", "cf"))
        assert order_isomorphism(p, q) is None
