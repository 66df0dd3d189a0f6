import hashlib

import pytest

from partlat import (
    NOT_HOM,
    UNDEF,
    BadParameter,
    Lattice,
    NotACongruence,
    Partition,
    all_congruences,
    all_partial_congruences,
    antichain,
    canonical_projection,
    check_hom,
    con_is_closed_under_meets,
    enumerate_partial_lattices,
    generate_congruence,
    is_congruence_on_partial,
    is_total,
    lattice_quotient,
    named_lattice,
    quotient,
    quotient_extension_iso,
    quotient_join_case,
    quotient_join_cases,
    to_lattice,
    two_point_extension,
    validate_lattice,
)
from partlat import figures as figs
from partlat import plattice
from partlat.congruence import (
    ALPHA,
    DEFINED,
    UNDEFINED_TOP_SINGLETON,
    JoinCase,
    generated_rows,
)

from oracles import (
    all_congruences_bruteforce,
    all_partitions,
    is_lattice_congruence,
    all_congruences_closure,
    generate_congruence_worklist,
    is_generated,
    least_member_rows,
    partition_meet,
    partition_refines,
    quotient_loops,
    least_congruence_bruteforce,
    partition_to_comparable,
)


# The digest of ``congruence_digest``, computed before the congruences were
# kept as one array table per structure.
CONGRUENCE_SHA256 = "53601a4a1130300588d0ddc4f9c5d08ddb1e39900b5cfaa222c6616b3f90767e"


def label_blocks(partition, labels):
    return sorted(tuple(sorted(labels[i] for i in block)) for block in partition.blocks)


class TestPartition:
    def test_canonical_block_order(self):
        p = Partition([2, 0, 2, 1])
        assert p.blocks == ((0, 2), (1,), (3,))
        assert p.block_of == (0, 1, 0, 2)

    def test_from_blocks_fills_singletons(self):
        p = Partition.from_blocks(4, [(1, 3)])
        assert p.blocks == ((0,), (1, 3), (2,))

    def test_from_blocks_rejects_overlap(self):
        with pytest.raises(BadParameter):
            Partition.from_blocks(3, [(0, 1), (1, 2)])

    def test_from_blocks_names_a_repeat_within_one_block(self):
        with pytest.raises(BadParameter, match="element 0 is listed twice"):
            Partition.from_blocks(3, [(0, 0)])

    def test_empty_partition_is_refused(self):
        with pytest.raises(BadParameter, match="carrier must be nonempty"):
            Partition(())

    def test_meet_is_common_refinement(self):
        p = Partition([0, 0, 1, 1])
        q = Partition([0, 1, 1, 1])
        m = partition_meet(p, q)
        assert m == Partition([0, 1, 2, 2])
        assert partition_refines(m, p) and partition_refines(m, q)
        assert not partition_refines(p, m)

    def test_union_closure(self):
        # Two seeds generate the join of their congruences in one closure.
        chain = named_lattice("chain", 4)
        p = Partition([0, 0, 1, 2])
        q = Partition([0, 1, 1, 2])
        assert generate_congruence(chain, p, q) == Partition([0, 0, 0, 1])

    @pytest.mark.parametrize("call", [
        lambda: generate_congruence(named_lattice("chain", 3), Partition.identity(4)),
        lambda: is_congruence_on_partial(named_lattice("chain", 3), Partition.identity(2)),
    ], ids=["generate_congruence", "is_congruence_on_partial"])
    def test_other_calls_reject_a_carrier_mismatch(self, call):
        with pytest.raises(BadParameter, match="carrier"):
            call()

    def test_render(self):
        p = Partition.from_blocks(3, [(0, 2)])
        assert p.render(("a", "b", "c")) == "a c|b"

    def test_total_order(self):
        # lexicographic on block_of: the one-block partition sorts first
        assert sorted([Partition.identity(2), Partition.full(2)]) == [
            Partition.full(2),
            Partition.identity(2),
        ]


# Sizes no carrier takes: below 1, a bool (not read as 1 or 0), a float, a
# string, None; and members no 3-element carrier holds, alike.
BAD_SIZES = [0, -1, True, False, 2.0, "3", None]
BAD_MEMBERS = [-1, 3, True, 1.0, "1", None]
SIZED_BUILDERS = {
    "antichain": antichain,
    "Partition.identity": Partition.identity,
    "Partition.full": Partition.full,
    "Partition.from_blocks": lambda n: Partition.from_blocks(n, [[0]]),
}


@pytest.mark.parametrize("builder, value",
                         [(name, n) for name in SIZED_BUILDERS for n in BAD_SIZES]
                         + [("member", i) for i in BAD_MEMBERS], ids=repr)
def test_sizes_at_the_api_edge(builder, value):
    # A carrier size or block member that is not an integer in range is a
    # BadParameter, never a TypeError or a value read as another.
    build_with = SIZED_BUILDERS.get(builder, lambda i: Partition.from_blocks(3, [[i, 2]]))
    with pytest.raises(BadParameter):
        build_with(value)


class TestGenerateCongruence:
    def test_pentagon_seed_already_congruence(self, fig4):
        ext = two_point_extension(fig4)
        a, c = fig4.index("a"), fig4.index("c")
        seed = Partition.from_blocks(ext.star.n, [(a, c)])
        theta = generate_congruence(ext.star, seed)
        assert theta == seed

    def test_identity_seed(self):
        lat = named_lattice("M", 3)
        assert generate_congruence(lat, Partition.identity(lat.n)) == Partition.identity(lat.n)

    def test_fig10_single_pair_against_oracle(self, fig9):
        ext = two_point_extension(fig9)
        star = ext.star
        a, b = fig9.index("a"), fig9.index("b")
        theta = generate_congruence(star, Partition.from_blocks(star.n, [(a, b)]))
        assert partition_to_comparable(theta) == least_congruence_bruteforce(star, a, b)
        # merging a and b drags c along via a v b = c
        assert theta.relates(a, fig9.index("c"))

    def test_compatibility(self, fig9):
        star = two_point_extension(fig9).star
        for a in range(star.n):
            for b in range(a + 1, star.n):
                theta = generate_congruence(star, Partition.from_blocks(star.n, [(a, b)]))
                for x, y in ((a, b), (b, a)):
                    for c in range(star.n):
                        assert theta.relates(int(star.join[x, c]), int(star.join[y, c]))
                        assert theta.relates(int(star.meet[x, c]), int(star.meet[y, c]))


class TestDependencyOrder:
    @staticmethod
    def assert_matches_worklist(lat):
        irr = lat.irreducibles
        pairs = list(zip(irr.lower.tolist(), irr.members.tolist()))
        thetas = [generate_congruence_worklist(lat, Partition.from_blocks(lat.n, [q]))
                  for q in pairs]
        # below[p, q] iff con(p_*, p) <= con(q_*, q), that is iff con(q_*, q) relates p_*, p
        assert irr.below.tolist() == [[theta.relates(*p) for theta in thetas] for p in pairs]

    def test_corpus6_extensions(self):
        for lat in enumerate_partial_lattices(6):
            self.assert_matches_worklist(lat.extension.star)

    @pytest.mark.parametrize("kind, size", [("N5", None), ("M", 3), ("boolean", 3)])
    def test_named(self, kind, size):
        self.assert_matches_worklist(named_lattice(kind, size))


class TestIsCongruence:
    def test_fig9_bd_partition(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        w = is_congruence_on_partial(fig9, e)
        assert w.is_congruence
        star_labels = fig9.extension.star.labels
        assert label_blocks(w.theta, star_labels) == [
            ("a",), ("b", "d"), ("c", "⊤*"), ("⊥*",),
        ]

    def test_identity_is_congruence(self, fig9):
        assert is_congruence_on_partial(fig9, Partition.identity(fig9.n)).is_congruence

    def test_fig9_ab_is_not(self, fig9):
        e = figs.congruence_of(fig9, "a b|c|d")
        w = is_congruence_on_partial(fig9, e)
        assert not w.is_congruence
        # closure merges c with the ab block via a v b = c
        assert w.restriction.relates(fig9.index("a"), fig9.index("c"))


class TestAllCongruences:
    def test_two_chain(self):
        lat = named_lattice("chain", 2)
        assert len(all_congruences(lat)) == 2

    def test_total_partial_lattice_reads_as_its_lattice(self, fig3):
        # fig3 built from its document is total but not a Lattice; both
        # calls once raised AttributeError, as it has no irreducibles.
        assert not isinstance(fig3, Lattice)
        lat = to_lattice(fig3)
        assert all_congruences(fig3) == all_congruences(lat)
        seed = Partition.from_blocks(fig3.n, [(0, 1)])
        assert generate_congruence(fig3, seed) == generate_congruence(lat, seed)

    @pytest.mark.parametrize("call", [
        all_congruences, lambda lat: generate_congruence(lat, Partition.identity(lat.n))],
        ids=["all_congruences", "generate_congruence"])
    def test_partial_lattice_is_rejected(self, fig9, call):
        with pytest.raises(BadParameter, match="operations are not total"):
            call(fig9)

    def test_lattice_passes_the_guard_untouched(self, monkeypatch):
        # A Lattice is neither scanned for totality nor copied.
        def scan(lat):
            raise AssertionError("a Lattice was scanned")

        monkeypatch.setattr(plattice, "_total_order", scan)
        lat = named_lattice("chain", 4)
        assert to_lattice(lat) is lat
        assert len(all_congruences(lat)) == 8

    def test_pentagon_star_matches_oracle(self, fig4):
        star = two_point_extension(fig4).star
        got = {partition_to_comparable(p) for p in all_congruences(star)}
        want = {
            tuple(sorted(blocks)) for blocks in map(
                lambda bs: tuple(tuple(sorted(b)) for b in bs),
                all_congruences_bruteforce(star),
            )
        }
        assert got == want
        a, c = fig4.index("a"), fig4.index("c")
        assert Partition.from_blocks(star.n, [(a, c)]) in set(all_congruences(star))

    def test_m3_is_simple(self):
        lat = named_lattice("M", 3)
        cons = all_congruences(lat)
        assert len(cons) == 2
        oracle = all_congruences_bruteforce(lat)
        assert len(oracle) == 2

    def test_matches_closure_on_corpus6_extensions(self):
        compared = 0
        for lat in enumerate_partial_lattices(6):
            star = lat.extension.star
            assert all_congruences(star) == all_congruences_closure(star), lat.labels
            compared += 1
        assert compared == 298

    @pytest.mark.parametrize("kind, size", [
        ("chain", 1), ("chain", 6), ("boolean", 3), ("boolean", 4),
        ("M", 2), ("M", 4), ("M", 12), ("M", 60), ("N5", None),
    ])
    def test_matches_closure_on_named(self, kind, size):
        lat = named_lattice(kind, size)
        assert all_congruences(lat) == all_congruences_closure(lat)

    @pytest.mark.parametrize("kind, size, count", [
        *(("chain", k, 2 ** (k - 1)) for k in range(1, 9)),
        *(("boolean", k, 2 ** k) for k in range(1, 6)),
        *(("M", n, 2) for n in (3, 4, 8, 12)),
        ("N5", None, 5),
        # at the MAX_NAMED_ELEMENTS cap or on the way there
        ("boolean", 6, 64), ("boolean", 7, 128), ("chain", 12, 2048), ("M", 126, 2),
    ])
    def test_exact_counts(self, kind, size, count):
        lat = named_lattice(kind, size)
        cons = all_congruences(lat)
        assert len(cons) == count
        assert len(set(cons)) == count
        assert {Partition.identity(lat.n), Partition.full(lat.n)} <= set(cons)

    @pytest.mark.parametrize("kind, size", [
        ("chain", 8), ("boolean", 3), ("M", 6), ("N5", None),
    ])
    def test_matches_bell_number_oracle(self, kind, size):
        lat = named_lattice(kind, size)
        got = {partition_to_comparable(p) for p in all_congruences(lat)}
        want = {tuple(sorted(tuple(sorted(b)) for b in bs))
                for bs in all_congruences_bruteforce(lat)}
        assert got == want


class TestAllPartialCongruences:
    def test_fig4(self, fig4):
        cons = all_partial_congruences(fig4)
        assert len(cons) == 3
        rendered = {e.render(fig4.labels) for e in cons}
        assert "a c|b" in rendered
        assert Partition.identity(3) in set(cons)

    def test_singleton(self):
        from partlat import antichain

        assert len(all_partial_congruences(antichain(1))) == 1

    def test_fig9_contains_the_worked_examples(self, fig9):
        cons = set(all_partial_congruences(fig9))
        for classes in ("a|b d|c", "a c|b|d", "a|b c|d"):
            assert figs.congruence_of(fig9, classes) in cons

    def test_every_member_is_recognized(self, fig9):
        for e in all_partial_congruences(fig9):
            assert is_congruence_on_partial(fig9, e).is_congruence


class TestMeetClosure:
    def test_fig9(self, fig9):
        assert con_is_closed_under_meets(fig9)

    def test_tiny(self):
        from partlat import antichain

        assert con_is_closed_under_meets(antichain(2))


class TestQuotient:
    def test_fig4_two_element_antichain(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        q = quotient(fig4, e)
        assert q.labels == ("[a]", "[b]")
        assert q.join[0, 1] == UNDEF and q.meet[0, 1] == UNDEF

    def test_fig9_bd_quotient_shape(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        q = quotient(fig9, e)
        assert q.labels == ("[a]", "[b]", "[c]")
        # [a] v [b] = [c] is defined although a v d is not
        assert q.join[0, 1] == 2
        assert q.meet[0, 1] == UNDEF
        assert fig9.join[fig9.index("a"), fig9.index("d")] == UNDEF

    def test_fig9_bc_quotient_is_chain(self, fig9):
        e = figs.congruence_of(fig9, "a|b c|d")
        q = quotient(fig9, e)
        assert is_total(q) == "both_total"
        assert q.join[0, 1] == 1 and q.join[1, 2] == 2 and q.join[0, 2] == 2

    def test_rejects_non_congruence(self, fig9):
        e = figs.congruence_of(fig9, "a b|c|d")
        with pytest.raises(NotACongruence):
            quotient(fig9, e)

    @pytest.mark.parametrize("call", [quotient, quotient_join_cases, canonical_projection,
                                      quotient_extension_iso])
    def test_each_quotient_function_generates_and_checks_theta(self, fig9, call):
        # Each takes e alone: NotACongruence for a relation that is not a
        # congruence, BadParameter for a relation on another carrier.
        with pytest.raises(NotACongruence):
            call(fig9, figs.congruence_of(fig9, "a b|c|d"))
        with pytest.raises(BadParameter, match="carrier"):
            call(fig9, Partition.identity(fig9.n + 1))

    def test_forged_thetas_are_not_recognised(self):
        # Two congruences of the chain c1 < c2 < c3, which is its own L*, that
        # are not the one e generates: {c1, c3}{c2} skips the closure, as
        # c1 v c2 and c3 v c2 land in different blocks, and the full relation
        # is coarser than the identity it is paired with.
        lat = named_lattice("chain", 3)
        forged = [(Partition([0, 1, 0]), Partition([0, 1, 0])),
                  (Partition.identity(3), Partition.full(3))]
        for e, theta in forged:
            assert not generated_rows(lat, least_member_rows([e], 3),
                                      least_member_rows([theta], 3))[0]
        identity = Partition.identity(3)
        assert generated_rows(lat, least_member_rows([identity], 3),
                              least_member_rows([identity], 3))[0]

    def test_recognition_and_class_tables_on_every_congruence_of_the_extension(self, corpus5):
        # Each congruence theta of L*, with e its restriction: generated_rows
        # recognises theta exactly when the worklist closure of e gives it,
        # and since theta is a congruence restricting to e, the class
        # operations of the reference quotient need no build check.
        recognised = []
        for lat in corpus5:
            for theta, e in extension_congruences(lat):
                ok = generated_rows(lat, least_member_rows([e], lat.n),
                                    least_member_rows([theta], theta.n))[0]
                assert ok == is_generated(lat, e, theta), (lat, theta)
                recognised.append(ok)
                quotient_loops(lat, e, theta=theta)
        assert (len(recognised), sum(recognised)) == (425, 411)


def extension_congruences(lat):
    """(theta, e) for every congruence theta of L*, e its restriction."""
    for theta in all_congruences(lat.extension.star):
        yield theta, Partition(theta.block_of[:lat.n])


class TestQuotientJoinCase:
    def test_fig4_undefined_top_singleton(self, fig4):
        e = figs.congruence_of(fig4, "a c|b")
        case = quotient_join_case(fig4, e, fig4.index("a"), fig4.index("b"))
        assert case.kind == UNDEFINED_TOP_SINGLETON

    def test_fig9_alpha_case(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        case = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("d"))
        assert case.kind == ALPHA
        assert case.alpha == fig9.index("c")
        assert case.block == e.block_of[fig9.index("c")]

    def test_fig9_defined_case(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        case = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("b"))
        assert case.kind == DEFINED
        assert case.block == e.block_of[fig9.index("c")]

    def test_negative_element_is_rejected(self, fig9):
        # indexing would wrap -4 round to element 0
        e = figs.congruence_of(fig9, "a|b d|c")
        with pytest.raises(BadParameter):
            quotient_join_case(fig9, e, -4, 1)

    def test_element_past_the_carrier_is_rejected(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        with pytest.raises(BadParameter):
            quotient_join_case(fig9, e, 0, fig9.n)

    def test_bool_element_is_rejected(self):
        # bool subclasses int; numpy would read True as element 1
        from partlat import antichain

        with pytest.raises(BadParameter):
            quotient_join_case(antichain(2), Partition.identity(2), True, False)

    def test_fig9_bc_join_cases_read_the_top_block(self, fig9):
        # a v d is undefined in fig9; for a|b c|d the top's class meets the
        # carrier in block 2, {d}. A witness of the identity once made it
        # UNDEF.
        e = figs.congruence_of(fig9, "a|b c|d")
        a, d = fig9.index("a"), fig9.index("d")
        assert quotient_join_cases(fig9, e)[a, d] == 2
        assert quotient_join_case(fig9, e, a, d) == JoinCase(ALPHA, 2, d)

    def test_branches_may_differ_but_blocks_agree(self, fig9):
        # (a, b) and (a, d) are representative pairs of the same classes
        e = figs.congruence_of(fig9, "a|b d|c")
        via_b = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("b"))
        via_d = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("d"))
        assert via_b.kind == DEFINED and via_d.kind == ALPHA
        assert via_b.block == via_d.block


class TestLatticeQuotient:
    def test_fig10_by_theta(self, fig9):
        e = figs.congruence_of(fig9, "a|b d|c")
        w = is_congruence_on_partial(fig9, e)
        q = lattice_quotient(fig9.extension.star, w.theta)
        assert q.n == 4
        from partlat import find_isomorphism

        assert find_isomorphism(q, named_lattice("boolean", 2)) is not None

    def test_identity_theta_copies_shape(self):
        lat = named_lattice("N5")
        q = lattice_quotient(lat, Partition.identity(lat.n))
        assert q.n == lat.n
        assert (q.order.leq == lat.order.leq).all()

    @pytest.mark.parametrize("kind, size, blocks", [("chain", 3, [[0, 2]]),  # {c1 c3|c2}
                                                    ("M", 3, [[1, 2]])])  # {a1 a2}
    def test_rejects_a_partition_that_is_not_a_congruence(self, kind, size, blocks):
        lat = named_lattice(kind, size)
        with pytest.raises(BadParameter, match="not a congruence"):
            lattice_quotient(lat, Partition.from_blocks(lat.n, blocks))

    @pytest.mark.parametrize("kind, size", [("chain", 4), ("M", 3), ("N5", None)])
    def test_accepts_exactly_the_congruences(self, kind, size):
        # Against the compatibility definition over every partition; an
        # accepted one has the block map as a homomorphism onto the quotient.
        lat = named_lattice(kind, size)
        for blocks in all_partitions(lat.n):
            theta = Partition.from_blocks(lat.n, blocks)
            if not is_lattice_congruence(lat, blocks):
                with pytest.raises(BadParameter):
                    lattice_quotient(lat, theta)
                continue
            q = lattice_quotient(lat, theta)
            assert check_hom(theta.block_of, lat, q).kind != NOT_HOM
            assert q == validate_lattice(q.order)  # the tables are sup and inf

    def test_rejects_another_carrier(self):
        with pytest.raises(BadParameter, match="carrier"):
            lattice_quotient(named_lattice("chain", 3), Partition.identity(4))

    def test_rejects_partial_tables(self, fig9):
        # An UNDEF cell once read as block_of[-1], which gave a ^ b = d and
        # a v d = d on fig9 with no error.
        with pytest.raises(BadParameter, match="operations are not total"):
            lattice_quotient(fig9, Partition.identity(fig9.n))


def congruence_digest():
    """SHA-256 over the ``repr`` of the congruence outputs, order included:
    ``all_congruences`` of named lattices, and for every structure of corpus
    6 ``all_congruences(L*)``, the (theta, e) rows of ``congruence_table`` and
    ``generate_congruence`` of every carrier pair a < b on L*."""
    digest = hashlib.sha256()
    for args in (("M", 3), ("M", 12), ("M", 126), ("N5",), ("chain", 1), ("chain", 8),
                 ("chain", 12), ("boolean", 5), ("boolean", 7)):
        digest.update(repr(all_congruences(named_lattice(*args))).encode())
    for lat in enumerate_partial_lattices(6):
        star = lat.extension.star
        digest.update(repr(all_congruences(star)).encode())
        table = lat.congruence_table
        digest.update(repr([(Partition(theta), Partition(e)) for theta, e
                            in zip(table.theta.tolist(), table.block_of.tolist())]).encode())
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                seed = Partition.from_blocks(star.n, [(a, b)])
                digest.update(repr(generate_congruence(star, seed)).encode())
    return digest.hexdigest()


def test_congruence_outputs_are_pinned():
    assert congruence_digest() == CONGRUENCE_SHA256
