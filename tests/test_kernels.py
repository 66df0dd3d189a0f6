"""The sup/inf kernel, the compound-term gather, the homomorphism check, the
quotient gather, the join-case table, the meet-closure check, congruence
generation and the kept congruence witnesses against the loop scans they
replaced (``tests/oracles.py``), past the enumerated corpus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partlat import (
    CLOSED_HOM,
    HOM,
    NOT_HOM,
    UNDEF,
    BadParameter,
    HomReport,
    NotACongruence,
    PartialLattice,
    Partition,
    PartlatError,
    Poset,
    all_congruences,
    all_partial_congruences,
    check_absorption,
    check_hom,
    check_distributivity,
    con_is_closed_under_meets,
    enumerate_partial_lattices,
    from_plos,
    generate_congruence,
    is_distributive,
    is_modular,
    is_congruence_on_partial,
    is_plos,
    make_poset,
    build,
    morphism,
    named_lattice,
    order_isomorphism,
    parse,
    quotient,
    quotient_join_case,
    quotient_join_cases,
    validate_lattice,
    validate_partial_lattice,
)
from partlat.congruence import CongruenceTable, collapsed_irreducibles
from partlat.enumeration import all_posets, plos_lattices
from partlat.morphism import hom_masks
from partlat.order import down_sets, extrema_stack, first_true, scan_orders

from oracles import (
    check_absorption_loops,
    check_distributivity_loops,
    check_hom_loops,
    con_is_closed_under_meets_partitions,
    congruence_witnesses_partitions,
    covers_loops,
    down_sets_filter,
    extrema_rows,
    from_plos_loops,
    generate_congruence_worklist,
    irreducibles_below_gather,
    is_distributive_loops,
    is_modular_loops,
    is_plos_loops,
    least_member_rows,
    order_isomorphism_signatures,
    quotient_join_case_branches,
    quotient_loops,
    validate_lattice_loops,
    validate_partial_lattice_loops,
)

BOOLEAN4 = named_lattice("boolean", 4)
_MASKS = np.arange(256)
# The subsets of an 8-set under inclusion, past the size cap of named lattices.
SUBSETS8 = Poset([str(i) for i in _MASKS], (_MASKS[:, None] & _MASKS) == _MASKS[:, None])


def outcome(fn, *args):
    """The result, or the raised error's type, message and witness."""
    try:
        return fn(*args)
    except PartlatError as exc:
        witness = [getattr(exc, attr, None) for attr in ("pair", "report", "witness")]
        return type(exc), str(exc), witness


@st.composite
def boolean4_suborders(draw):
    """The order of ``boolean 4`` restricted to a random subset, in a random
    index order: up to 16 elements, past the n <= 6 corpus."""
    members = draw(st.permutations(range(16)))[: draw(st.integers(1, 16))]
    labels = tuple(BOOLEAN4.labels[i] for i in members)
    return Poset(labels, BOOLEAN4.leq[np.ix_(members, members)])


@st.composite
def random_posets(draw, n=None):
    """A random order on up to 9 elements, or on ``n`` up to 10, in a random index
    order; unlike sub-orders of ``boolean 4``, a pair can lack both sup and
    inf."""
    n = draw(st.integers(1, 9)) if n is None else n
    perm = draw(st.permutations(range(n)))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=16))
    labels = "abcdefghij"[:n]
    # Arcs point up from the smaller number before relabelling, so no cycle forms.
    return make_poset(labels, [(labels[perm[min(arc)]], labels[perm[max(arc)]])
                               for arc in arcs if arc[0] != arc[1]])


@st.composite
def symmetric_tables(draw):
    """Labels and two symmetric tables with UNDEF cells. ``shape`` picks how
    far they get through validation: anything, idempotent, or idempotent
    and dual so that associativity is what gets scanned."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(("any", "idempotent", "dual", "dual")))
    cells = st.integers(UNDEF, n - 1)
    jt = np.full((n, n), UNDEF, dtype=np.int64)
    mt = np.full((n, n), UNDEF, dtype=np.int64)
    for i in range(n):
        for j in range(i if shape == "any" else i + 1, n):
            jt[i, j] = jt[j, i] = draw(cells)
            if shape != "dual":
                mt[i, j] = mt[j, i] = draw(cells)
            elif jt[i, j] in (i, j):  # duality fixes the meet of a comparable pair
                mt[i, j] = mt[j, i] = i + j - jt[i, j]
            else:
                mt[i, j] = mt[j, i] = draw(cells.filter(lambda v: v not in (i, j)))
    if shape != "any":
        np.fill_diagonal(jt, np.arange(n))
        np.fill_diagonal(mt, np.arange(n))
    return tuple("abcdefg"[:n]), jt, mt


# a, b lie above c, d and below e, f: the pair (a, b) fails on both sides.
BOWTIE = make_poset("abcdef", [(x, y) for x in "cd" for y in "ab"]
                    + [(x, y) for x in "ab" for y in "ef"])


@given(st.one_of(boolean4_suborders(), random_posets()))
@example(BOWTIE)
@settings(max_examples=300, deadline=None)
def test_bound_kernel_matches_loops(p):
    report = is_plos(p)
    assert report == is_plos_loops(p)
    assert report or all(type(v) is int for v in report.witness + tuple(report.bound_set))
    assert outcome(validate_lattice, p) == outcome(validate_lattice_loops, p)
    lat = outcome(from_plos, p)
    assert lat == outcome(from_plos_loops, p)
    if isinstance(lat, PartialLattice):
        assert lat == validate_partial_lattice(lat.labels, lat.join, lat.meet)
        for mode in ("weak", "strong"):
            assert check_absorption(lat, mode) == check_absorption_loops(lat, mode)
            assert check_distributivity(lat, mode) == check_distributivity_loops(lat, mode)


@given(random_posets())
@example(named_lattice("boolean", 6).order)
@example(named_lattice("M", 60).order)
@example(BOWTIE)
@example(SUBSETS8)  # 256 elements: eight blocks of rows
@settings(max_examples=300, deadline=None)
def test_extrema_broadcast_matches_rows(p):
    tables, missing = p.extrema
    want_tables, want_missing = extrema_rows(p)
    assert tables.dtype == want_tables.dtype
    assert np.array_equal(tables, want_tables) and np.array_equal(missing, want_missing)


@given(st.one_of(boolean4_suborders(), random_posets()))
@example(named_lattice("boolean", 6).order)
@example(named_lattice("chain", 40).order)
@example(BOWTIE)
@settings(max_examples=300, deadline=None)
def test_covers_match_loops(p):
    assert p.covers.dtype == bool
    assert np.array_equal(p.covers, covers_loops(p))


@given(st.lists(random_posets(), max_size=6))
@example([named_lattice("chain", 3).order, BOWTIE, make_poset("a", ())])
@settings(max_examples=200, deadline=None)
def test_scan_orders_crops_match_loops(posets):
    # Orders of 1 to 9 elements padded to one size: each poset's slots are
    # filled by the padded scans, and each crop is the scan of its order.
    scan_orders(posets)
    for p in posets:
        assert {"extrema", "covers"} <= vars(p).keys()
        for got, want in zip(p.extrema, extrema_rows(p)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert p.covers.dtype == bool and np.array_equal(p.covers, covers_loops(p))
        assert not any(a.flags.writeable for a in (*p.extrema, p.covers))


@st.composite
def bowtied_posets(draw, n):
    """A random order on 4 <= n <= 9 elements in a random index order, with
    the bowtie c, d < a, b as a component: U(c, d) = {a, b} has no least
    element, so it is never plos."""
    leq = np.eye(n, dtype=bool)
    leq[np.ix_([0, 1], [2, 3])] = True
    if n > 4:
        leq[4:, 4:] = draw(random_posets(n - 4)).leq
    perm = draw(st.permutations(range(n)))
    return Poset("abcdefghi"[:n], leq[np.ix_(perm, perm)])


@st.composite
def level_stacks(draw):
    """1 to 8 orders on one n <= 9: random ones, from n = 4 on mixed with
    bowtied ones, or bowtied ones only."""
    n = draw(st.integers(1, 9))
    kinds = [random_posets(n)]
    if n >= 4:
        kinds = draw(st.sampled_from([kinds + [bowtied_posets(n)], [bowtied_posets(n)]]))
    return draw(st.lists(st.one_of(*kinds), min_size=1, max_size=8))


@given(level_stacks())
@example([BOWTIE, make_poset("abcdef", list(zip("abcde", "bcdef"))), BOWTIE,
          make_poset("abcdef", [])])
@settings(max_examples=200, deadline=None)
def test_level_filter_keeps_what_from_plos_accepts(posets):
    # one stacked scan over same-size orders keeps exactly those from_plos
    # accepts, in their order, with its tables
    want = [lat for lat in (outcome(from_plos, p) for p in posets)
            if isinstance(lat, PartialLattice)]
    assert list(plos_lattices(posets)) == want


@st.composite
def random_preorders(draw):
    """The reflexive-transitive closure of random arcs on up to 9 elements,
    so a cycle of arcs makes a class of several elements."""
    n = draw(st.integers(1, 9))
    reach = np.eye(n, dtype=bool)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=12)):
        reach[a, b] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


@given(st.one_of(random_posets().map(lambda p: p.leq), random_preorders()))
@example(np.ones((1, 1), dtype=bool))
@example(named_lattice("M", 5).irreducibles.below)  # one class of five
@settings(max_examples=300, deadline=None)
def test_down_sets_match_filter(leq):
    rows = down_sets(leq)
    found = {row.tobytes() for row in rows}
    assert rows.dtype == bool and rows.shape[1] == len(leq)
    assert len(found) == len(rows)  # each down-set once
    assert found == {row.tobytes() for row in down_sets_filter(leq)}
    assert {np.zeros(len(leq), dtype=bool).tobytes(), np.ones(len(leq), dtype=bool).tobytes()} <= found


def test_down_sets_of_a_long_chain():
    # m + 1 down-sets, where the filter would test 2^m subsets. m = 20 comes
    # first, so a lister that is exponential fails there rather than trying
    # to hold 2^40 rows.
    for m in (20, 40):
        rows = down_sets(np.triu(np.ones((m, m), dtype=bool)))
        assert len(rows) == m + 1
        assert np.array_equal(rows[np.argsort(rows.sum(1))], np.tri(m + 1, m, -1, dtype=bool))


def test_all_congruences_memory_is_bounded_by_blocks():
    # 128 congruences of 128 elements: one product over all of them would
    # hold 8 MB of counts at once.
    lat = named_lattice("boolean", 7)
    lat.irreducibles
    tracemalloc.start()
    try:
        congruences = all_congruences(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert len(set(congruences)) == 128


def test_extrema_memory_is_bounded_by_blocks():
    n = 300  # one row per block: 300 blocks of 0.2 MB, where one broadcast takes 54 MB
    p = Poset([f"x{i}" for i in range(n)], np.eye(n, dtype=bool))
    tracemalloc.start()
    try:
        tables, missing = p.extrema
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # two 0.2 MB temporaries plus the 1.6 MB of output
    want = np.where(np.eye(n, dtype=bool), np.arange(n), UNDEF)
    assert np.array_equal(tables, np.stack((want, want))) and not missing.any()


@pytest.mark.parametrize("k, n", [(20, 100), (2, 300)])
def test_extrema_stack_memory_is_bounded_by_blocks(k, n):
    # Three rows of one order per block of 100 elements, and one row per
    # block of 300: 38 MB and 103 MB as one broadcast.
    leq = np.broadcast_to(np.eye(n, dtype=bool), (k, n, n)).copy()
    tracemalloc.start()
    try:
        tables, missing = extrema_stack(leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # two 0.2 MB temporaries plus at most 3.6 MB of output
    want = np.where(np.eye(n, dtype=bool), np.arange(n), UNDEF)
    assert (tables == want).all() and not missing.any()


def test_validate_partial_lattice_memory_is_bounded_by_rows():
    # Associativity is scanned in blocks of x of at most 2^12 cells, one x at
    # n = 400: a few n^2 temporaries, where one gather over every triple
    # would take 512 MB.
    n = 400
    idx = np.arange(n)
    join, meet = np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    labels = [f"c{i}" for i in range(n)]
    tracemalloc.start()
    try:
        lat = validate_partial_lattice(labels, join, meet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(lat.join, join) and np.array_equal(lat.meet, meet)


def parsed_lattice(kind, n):
    """A chain of n elements, M with n - 2 atoms, or n glued copies of N5,
    parsed from its document."""
    if kind == "chain":
        labels = [f"c{i}" for i in range(n)]
        rels = [f"c{i}<c{i + 1}" for i in range(n - 1)]
    elif kind == "M":
        labels = ["z", *(f"a{i}" for i in range(n - 2)), "u"]
        rels = [f"{lo}<{hi}" for a in labels[1:-1] for lo, hi in (("z", a), (a, "u"))]
    else:  # b_i < x_i < z_i < b_i+1 and b_i < y_i < b_i+1: z_i D x_i and z_i D y_i
        labels = ["b0", *(f"{v}{i + (v == 'b')}" for i in range(n) for v in "xzyb")]
        rels = [f"{lo}{i}<{hi}{j}" for i in range(n)
                for lo, hi, j in (("b", "x", i), ("x", "z", i), ("z", "b", i + 1),
                                  ("b", "y", i), ("y", "b", i + 1))]
    text = "poset\nelements " + " ".join(labels) + "\n" + "".join(f"rel {r}\n" for r in rels)
    return validate_lattice(build(parse(text)))


@pytest.mark.parametrize("lat", [
    *(named_lattice("chain", k) for k in (1, 2, 8, 128)),
    *(named_lattice("boolean", k) for k in range(1, 8)),
    *(named_lattice("M", k) for k in (2, 3, 12, 126)),
    named_lattice("N5"),
    parsed_lattice("chain", 170),  # two blocks of q
    parsed_lattice("M", 170),
    parsed_lattice("N5", 50),  # two blocks, and D is not symmetric
], ids=lambda lat: f"{lat.n}-{int(lat.leq.sum())}")
def test_irreducibles_below_matches_one_gather(lat):
    assert np.array_equal(lat.irreducibles.below, irreducibles_below_gather(lat))


def test_irreducibles_memory_is_bounded_by_blocks():
    lat = parsed_lattice("chain", 300)  # 7 blocks short of one 27 MB gather
    lat.order.covers
    tracemalloc.start()
    try:
        below = lat.irreducibles.below
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # three 4 MB temporaries at once
    assert np.array_equal(below, np.eye(299, dtype=bool))  # Con of a chain is Boolean


@given(st.one_of(boolean4_suborders(), random_posets()))
@example(named_lattice("M", 3).order)  # modular, not distributive
@example(named_lattice("N5").order)
@settings(max_examples=150, deadline=None)
def test_lattice_laws_match_loops(p):
    lat = outcome(validate_lattice, p)
    if isinstance(lat, tuple):
        return
    assert is_distributive(lat) == is_distributive_loops(lat)
    assert is_modular(lat) == is_modular_loops(lat)


def test_lattice_laws_match_loops_on_every_lattice_to_8():
    # 300 lattices, 36 distributive and 67 modular: OEIS A006966, A006982
    # and A006981 summed over n = 1..8.
    found = (outcome(validate_lattice, p) for n in range(1, 9) for p in all_posets(n))
    lattices = [lat for lat in found if not isinstance(lat, tuple)]
    laws = [(is_distributive(lat), is_modular(lat)) for lat in lattices]
    assert laws == [(is_distributive_loops(lat), is_modular_loops(lat)) for lat in lattices]
    assert (len(laws), sum(d for d, _ in laws), sum(m for _, m in laws)) == (300, 36, 67)


@pytest.mark.parametrize("kind, size", [
    *(("boolean", k) for k in (4, 5, 6)), *(("chain", k) for k in (6, 7, 8)),
    *(("M", k) for k in (4, 8, 12)), ("N5", None),
], ids=str)
def test_lattice_laws_match_loops_relabelled(kind, size):
    lat = named_lattice(kind, size)
    perm = np.random.default_rng(20).permutation(lat.n)
    lat = validate_lattice(Poset([lat.labels[i] for i in perm], lat.leq[np.ix_(perm, perm)]))
    assert is_distributive(lat) == is_distributive_loops(lat) == (kind in ("boolean", "chain"))
    assert is_modular(lat) == is_modular_loops(lat) == (kind != "N5")


@pytest.mark.parametrize("law", [is_distributive, is_modular])
def test_lattice_laws_memory_is_linear_in_cells(law):
    # |J| = 299, so one |J| x n x n temporary would be 27 MB; the laws read
    # |J| x n and n x n arrays.
    lat = parsed_lattice("chain", 300)
    lat.order.covers
    tracemalloc.start()
    try:
        holds = law(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and peak < 2**20


@given(symmetric_tables())
@settings(max_examples=300, deadline=None)
def test_axiom_scan_matches_loops(case):
    labels, jt, mt = case
    assert (outcome(validate_partial_lattice, labels, jt, mt)
            == outcome(validate_partial_lattice_loops, labels, jt, mt))


@given(symmetric_tables(), st.sampled_from(("weak", "strong")))
@settings(max_examples=300, deadline=None)
def test_identity_scans_match_loops(case, mode):
    lat = PartialLattice(*case)
    for scan, loops in ((check_absorption, check_absorption_loops),
                        (check_distributivity, check_distributivity_loops)):
        report = scan(lat, mode)
        assert report == loops(lat, mode)
        assert report.witness is None or all(type(v) is int for v in report.witness)


@st.composite
def planted_chains(draw):
    """A chain on 12 to 40 elements with the meet of one pair a < b set to
    another value or UNDEF. The meet over join schema reads that cell only
    at x = a or b, both past the first block of the scan (2^12 // n^2 values
    of x) from n = 17 on; at n = 12 to 16 the whole scan is one block."""
    n = draw(st.integers(12, 40))
    idx = np.arange(n)
    join, meet = np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    a = draw(st.integers(min(2**12 // n**2, n - 2), n - 2))
    b = draw(st.integers(a + 1, n - 1))
    meet[a, b] = meet[b, a] = draw(st.integers(UNDEF, n - 1))
    return PartialLattice(tuple(f"c{i}" for i in range(n)), join, meet)


@given(planted_chains(), st.sampled_from(("weak", "strong")))
@example(named_lattice("boolean", 5), "strong")  # eight blocks of four x, all passing
@example(named_lattice("boolean", 5), "weak")
@settings(max_examples=30, deadline=None)
def test_distributivity_blocks_match_loops(lat, mode):
    report = check_distributivity(lat, mode)
    assert report == check_distributivity_loops(lat, mode)
    if report.schema == "distributive_meet_over_join":
        assert report.witness[0] >= min(2**12 // lat.n**2, lat.n - 2)


def test_largest_named_lattice_goes_through_every_scan():
    lat = named_lattice("boolean", 7)
    assert lat.n == 128
    assert validate_partial_lattice(lat.labels, lat.join, lat.meet) == lat
    assert check_distributivity(lat, "strong") and check_distributivity(lat, "weak")
    assert is_modular(lat) and is_distributive(lat)



@st.composite
def plos_structures(draw, orders):
    """``from_plos`` of a random order from ``orders`` that is plos."""
    lat = outcome(from_plos, draw(orders))
    assume(isinstance(lat, PartialLattice))
    return lat


@st.composite
def maps_from(draw, source):
    """A random, constant or inclusion map from ``source`` into ``from_plos``
    of a random sub-order of ``boolean 4``, or into the source's own L*; the
    map and its target."""
    into_star = draw(st.booleans())
    target = (source.extension.star if into_star
              else draw(plos_structures(boolean4_suborders())))
    kind = draw(st.sampled_from(("random", "constant") + ("inclusion",) * into_star))
    if kind == "inclusion":
        return tuple(range(source.n)), target
    values = st.integers(0, target.n - 1)
    if kind == "constant":
        return (draw(values),) * source.n, target
    return tuple(draw(st.lists(values, min_size=source.n, max_size=source.n))), target


@st.composite
def hom_cases(draw):
    """One map from ``from_plos`` of a random sub-order of ``boolean 4``."""
    source = draw(plos_structures(boolean4_suborders()))
    mapping, target = draw(maps_from(source))
    return mapping, source, target


@given(hom_cases())
@settings(max_examples=300, deadline=None)
def test_hom_check_matches_loops(case):
    report = check_hom(*case)
    assert report == check_hom_loops(*case)
    assert report.witness is None or all(type(v) is int for v in report.witness)


@st.composite
def hom_stacks(draw):
    """Up to four maps from one ``from_plos`` structure, each into its own
    target."""
    source = draw(plos_structures(boolean4_suborders()))
    return source, draw(st.lists(maps_from(source), max_size=4))


@given(hom_stacks())
@settings(max_examples=200, deadline=None)
def test_hom_masks_match_loops_row_by_row(case):
    # The targets differ in size, so their tables are padded with UNDEF.
    source, cases = case
    k, n = len(cases), source.n
    m = max((target.n for _, target in cases), default=1)
    h = np.array([h for h, _ in cases], dtype=np.int64).reshape(k, n)
    tables = np.full((2, k, m, m), UNDEF)
    for i, (_, target) in enumerate(cases):
        tables[:, i, :target.n, :target.n] = target.join, target.meet
    broken, extra = hom_masks(h, (source.join, source.meet), tables)
    assert broken.shape == extra.shape == (2, k, n, n)
    for i, (mapping, target) in enumerate(cases):
        assert first_report(broken[:, i], extra[:, i]) == check_hom_loops(mapping, source, target)


def test_undefined_image_breaks_every_cell_through_it():
    # The chain a < b into the one-element lattice, padded with an UNDEF row
    # and column, with b sent to UNDEF: a gather at UNDEF reads the pad, so
    # h(a) v h(b) and h(a v b) would both read UNDEF and agree.
    source = named_lattice("chain", 2)
    target = np.full((2, 1, 2, 2), UNDEF)
    target[:, 0, 0, 0] = 0
    broken, extra = hom_masks(np.array([[0, UNDEF]]), (source.join, source.meet), target)
    assert broken[:, 0].tolist() == [[[False, True], [True, True]]] * 2
    assert not extra.any()


def first_report(broken, extra):
    """The HomReport that one map's two masks, each 2 x n x n, give."""
    for kind, (join_mask, meet_mask) in ((NOT_HOM, broken), (HOM, extra)):
        pair = first_true(join_mask | meet_mask)
        if pair is not None:
            return HomReport(kind, pair, "join" if join_mask[pair] else "meet")
    return HomReport(CLOSED_HOM)


def partitions(n):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Partition)


def test_quotient_gather_matches_loops_on_corpus5(corpus5):
    for lat in corpus5:
        for e in all_partial_congruences(lat):
            assert quotient(lat, e) == quotient_loops(lat, e)
        if lat.n > 1:  # merging 0 and 1 is often no congruence
            e = Partition.from_blocks(lat.n, [(0, 1)])
            assert outcome(quotient, lat, e) == outcome(quotient_loops, lat, e)


@given(plos_structures(random_posets()), st.data())
@settings(max_examples=150, deadline=None)
def test_quotient_gather_matches_loops(lat, data):
    e = data.draw(st.one_of(st.sampled_from(all_partial_congruences(lat)), partitions(lat.n)))
    assert outcome(quotient, lat, e) == outcome(quotient_loops, lat, e)


@st.composite
def seeded_extensions(draw):
    """The extension L* of a random plos on up to 9 elements with one to three
    seed partitions, each one random pair or a random partition of L*."""
    star = draw(plos_structures(random_posets())).extension.star
    pair = st.sets(st.integers(0, star.n - 1), min_size=1, max_size=2).map(
        lambda ab: Partition.from_blocks(star.n, [tuple(ab)]))
    seeds = draw(st.lists(st.one_of(pair, partitions(star.n)), min_size=1, max_size=3))
    return star, seeds


BOOLEAN7 = named_lattice("boolean", 7)
M126 = named_lattice("M", 126)


@given(seeded_extensions())
@example((BOOLEAN7, [Partition.from_blocks(128, [(1, 2)])]))
@example((BOOLEAN7, [Partition.from_blocks(128, [(3, 7)]), Partition.from_blocks(128, [(0, 64)])]))
@example((M126, [Partition.from_blocks(128, [(1, 2)])]))
@example((M126, [Partition.from_blocks(128, [(0, 1)]), Partition.identity(128)]))
@settings(max_examples=200, deadline=None)
def test_generate_congruence_matches_worklist(case):
    lat, seeds = case
    assert generate_congruence(lat, *seeds) == generate_congruence_worklist(lat, *seeds)


NAMED = [named_lattice(*args) for args in (("N5",), ("M", 5), ("chain", 5), ("boolean", 3),
                                            ("boolean", 4))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_collapsed_irreducibles_match_worklist(corpus5, data):
    # Each row partitions a prefix of the carrier; the rest stay singletons.
    lat = data.draw(st.one_of(st.sampled_from(NAMED),
                              st.sampled_from(corpus5).map(lambda s: s.extension.star)))
    m = data.draw(st.integers(0, lat.n))
    rows = data.draw(st.lists(st.lists(st.integers(0, max(m - 1, 0)), min_size=m, max_size=m),
                              max_size=4))
    block_of = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    collapsed = collapsed_irreducibles(lat, block_of)
    irr = lat.irreducibles
    assert collapsed.shape == (len(rows), len(irr.members))
    for row, mask in zip(rows, collapsed):
        seed = Partition(row + [("singleton", x) for x in range(m, lat.n)])
        theta = np.array(generate_congruence_worklist(lat, seed).block_of)
        assert np.array_equal(mask, theta[irr.members] == theta[irr.lower])


def test_seed_collapses_its_irreducible_and_what_lies_below_it_along_d():
    # In N5, 0 < x < z < 1 and 0 < y < 1. Relating 0 and x collapses x, the
    # only join-irreducible below 0 v x and not below 0 ^ x; z D x (z <= x v y
    # and z !<= x_* v y), so the closure along D collapses z as well.
    lat = named_lattice("N5")
    zero, x, z = lat.indices(("0", "x", "z"))
    seed = Partition.from_blocks(lat.n, [(zero, x)])
    members = [lat.labels[p] for p in lat.irreducibles.members]
    collapsed = collapsed_irreducibles(lat, np.array([seed.block_of]))
    assert [p for p, hit in zip(members, collapsed[0]) if hit] == ["x", "z"]
    assert generate_congruence(lat, seed).render(lat.labels) == "0 x z|y 1"


def test_empty_seed_stack_collapses_nothing():
    lat = named_lattice("N5")
    assert collapsed_irreducibles(lat, np.zeros((0, lat.n), dtype=np.int64)).shape == (0, 3)
    assert generate_congruence(lat) == Partition.identity(lat.n)


@st.composite
def poset_pairs(draw):
    """A random poset and a random relabelling of it, or two random posets
    of one size."""
    if draw(st.booleans()):
        p = draw(st.one_of(boolean4_suborders(), random_posets()))
        perm = draw(st.permutations(range(p.n)))
        return p, Poset(p.labels, p.leq[np.ix_(perm, perm)])
    n = draw(st.integers(1, 9))
    return draw(random_posets(n)), draw(random_posets(n))


@given(poset_pairs())
@settings(max_examples=300, deadline=None)
def test_order_isomorphism_matches_recursive_search(case):
    assert order_isomorphism(*case) == order_isomorphism_signatures(*case)


def is_order_isomorphism(a, b, mapping):
    h = np.array(mapping)
    return sorted(mapping) == list(range(b.n)) and np.array_equal(a.leq, b.leq[np.ix_(h, h)])


@pytest.mark.parametrize("kind, size", [("boolean", 5), ("boolean", 6), ("M", 12)], ids=str)
def test_order_isomorphism_of_relabelled_named_lattices(kind, size):
    p = named_lattice(kind, size).order
    perm = np.random.default_rng(size).permutation(p.n)
    q = Poset([p.labels[i] for i in perm], p.leq[np.ix_(perm, perm)])
    mapping = order_isomorphism(p, q)
    assert mapping == order_isomorphism_signatures(p, q)
    assert is_order_isomorphism(p, q, mapping)


def crowns(*sizes):
    """Disjoint crowns: for each size m, minimal elements a_0..a_m-1 and
    maximal b_0..b_m-1, with a_i below b_i and b_i+1 (mod m)."""
    labels, arcs = [], []
    for c, m in enumerate(sizes):
        low, high = ([f"{v}{c}.{i}" for i in range(m)] for v in "ab")
        labels += low + high
        arcs += [(low[i], high[j]) for i in range(m) for j in (i, (i + 1) % m)]
    return make_poset(labels, arcs)


def test_equal_signatures_of_non_isomorphic_orders():
    # One crown of 8 and two crowns of 4: every minimal element has two
    # upper covers and every maximal one two lower covers in both, so the
    # signature multisets are equal and only the search tells them apart.
    p, q = crowns(8), crowns(4, 4)
    assert sorted(morphism._signatures(p)) == sorted(morphism._signatures(q))
    assert order_isomorphism(p, q) is order_isomorphism_signatures(p, q) is None


def test_order_isomorphism_of_large_carriers():
    # Past the interpreter's recursion limit, one stack frame per element.
    n = 1000
    idx = np.arange(n)
    labels = [f"c{i}" for i in range(n)]
    chain = Poset(labels, idx[:, None] <= idx)
    perm = np.random.default_rng(0).permutation(n)
    relabelled = Poset(labels, chain.leq[np.ix_(perm, perm)])
    antichain = Poset(labels, np.eye(n, dtype=bool))
    for a, b in ((chain, relabelled), (antichain, antichain)):
        assert is_order_isomorphism(a, b, order_isomorphism(a, b))
    assert order_isomorphism(chain, antichain) is None


def test_meet_closure_matches_partitions_on_corpus5(corpus5):
    for lat in corpus5:
        assert con_is_closed_under_meets(lat) is con_is_closed_under_meets_partitions(lat) is True


def test_meet_closure_rejects_a_forged_set():
    low, high = Partition.from_blocks(3, [(0, 1)]), Partition.from_blocks(3, [(1, 2)])
    for forged, closed in (((low, high, Partition.full(3)), False),
                           ((Partition.identity(3), low, high, Partition.full(3)), True)):
        # The chain is total, so L* is the chain itself and each theta is its e.
        lat = named_lattice("chain", 3)
        rows = least_member_rows(forged, 3)
        lat.congruence_table = CongruenceTable(rows, rows)  # low ^ high is the identity
        assert con_is_closed_under_meets(lat) is con_is_closed_under_meets_partitions(lat) is closed


def test_kept_witnesses_are_the_generated_congruences_on_corpus6():
    total = 0
    for lat in enumerate_partial_lattices(6):
        congruences = all_partial_congruences(lat)
        assert list(congruences) == sorted(set(congruences))
        for theta, e in zip(lat.congruence_table.theta.tolist(), congruences, strict=True):
            generated = is_congruence_on_partial(lat, e)
            assert generated.is_congruence
            assert (Partition(theta), e) == (generated.theta, generated.restriction)
        total += len(congruences)
    assert total == 1944


@given(plos_structures(st.integers(1, 10).flatmap(random_posets)))
@settings(max_examples=150, deadline=None)
def test_congruence_table_matches_partition_dedupe(lat):
    # Sort order included: the table is sorted by its least-member rows,
    # the oracle by Partition.
    thetas, congruences = zip(*congruence_witnesses_partitions(lat))
    assert all_partial_congruences(lat) == congruences
    table = lat.congruence_table
    assert np.array_equal(table.block_of, least_member_rows(congruences, lat.n))
    assert np.array_equal(table.theta, least_member_rows(thetas, lat.extension.star.n))


def test_join_case_table_matches_branches(corpus5, fig4, fig9):
    for lat in [*corpus5, fig4, fig9]:
        for e in all_partial_congruences(lat):
            table = quotient_join_cases(lat, e)
            assert table.shape == (lat.n, lat.n)
            for a in range(lat.n):
                for b in range(lat.n):
                    case = quotient_join_case_branches(lat, e, a, b)
                    assert quotient_join_case(lat, e, a, b) == case
                    assert table[a, b] == (UNDEF if case.block is None else case.block)


def test_join_case_table_rejects_what_the_branches_reject(fig9):
    merged = Partition.from_blocks(fig9.n, [(0, 1)])
    assert not is_congruence_on_partial(fig9, merged)
    for fn in (quotient_join_case, quotient_join_case_branches):
        assert outcome(fn, fig9, merged, 0, 1)[0] is NotACongruence
        assert outcome(fn, fig9, Partition.identity(fig9.n), 0, fig9.n)[0] is BadParameter
    assert outcome(quotient_join_cases, fig9, merged)[0] is NotACongruence
