import dataclasses
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    congruence_law_per_witness,
    con_is_closed_under_meets_partitions,
    least_member_rows,
    lost_upper_bounds,
)

from partlat import (
    UNDEF,
    Lattice,
    PartialLattice,
    Partition,
    all_partial_congruences,
    antichain,
    build,
    con_is_closed_under_meets,
    congruence,
    enumerate_partial_lattices,
    enumeration,
    extension,
    morphism,
    named_lattice,
    order,
    parse,
    plattice,
    quotient,
    validate_partial_lattice,
    verify,
    verify_corpus,
)
from partlat.cli import cli
from partlat.congruence import CongruenceTable
from partlat.errors import AxiomViolation, InvariantError
from partlat.extension import extension_stack
from partlat.order import first_true
from partlat.verify import congruence_law, structure_checks


def test_raising_law_keeps_its_traceback(monkeypatch, fig4):
    def broken(lat, mode):
        raise RuntimeError("absorption exploded")

    monkeypatch.setattr(verify, "check_absorption", broken)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(fig4)}
    ok, detail = results["weak_absorption"]
    assert not ok
    assert detail.startswith("Traceback (most recent call last):")
    assert "in broken" in detail
    assert detail.rstrip().endswith("RuntimeError: absorption exploded")
    assert results["roundtrip_structure"][0]  # the sweep went on


def test_failing_law_is_reported_with_a_replayable_document(monkeypatch, capsys):
    target = list(enumerate_partial_lattices(3))[5]
    roundtrip = verify.lp_roundtrip
    monkeypatch.setattr(verify, "lp_roundtrip", lambda lat: lat != target and roundtrip(lat))
    checked, failures = verify_corpus(3)
    assert (checked, len(failures)) == (8, 1)
    head, _, document = failures[0].partition("\n")
    assert head == "roundtrip_structure: structure roundtrip failed"
    assert build(parse(document)) == target
    assert cli(["verify", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "checked 8 partial lattices on up to 3 elements: 1 failures\n"
    assert err == failures[0] + "\n"


def test_each_order_is_scanned_once(monkeypatch):
    # lat.order once, shared by both roundtrips and the plos law, and L*'s
    # order once, by the extension law. The stacked (L/E)* of the congruence
    # law is filled by the case law and scans nothing.
    lats = list(enumerate_partial_lattices(4))
    calls = []
    scan = order.extrema_stack

    def counted(leq):
        calls.append(len(leq))
        return scan(leq)

    monkeypatch.setattr(order, "extrema_stack", counted)
    for lat in lats:
        assert all(ok for _, ok, _ in structure_checks(lat))
    assert len(calls) == 2 * len(lats) == 46


def forged_bowtie():
    """An unvalidated structure whose join induces the bowtie c, d < a, b:
    U(c, d) = {a, b} has no least element, so its order is not plos."""
    a, b, c, d = range(4)
    join = np.full((4, 4), UNDEF)
    meet = np.full((4, 4), UNDEF)
    for x in range(4):
        join[x, x] = meet[x, x] = x
    for low in (c, d):
        for high in (a, b):
            join[low, high] = join[high, low] = high
            meet[low, high] = meet[high, low] = low
    return PartialLattice("abcd", join, meet)


def test_forged_structures_fail_the_order_laws(fig4):
    results = {name: (ok, detail) for name, ok, detail in structure_checks(forged_bowtie())}
    for name in ("roundtrip_structure", "roundtrip_order", "induced_order_plos"):
        assert not results[name][0], name
    detail = results["roundtrip_order"][1]
    assert detail.startswith("Traceback (most recent call last):")
    assert "partlat.errors.NotPlos" in detail
    # One join cell more than fig4 defines, where U(a, b) is empty: the
    # order and its scan are fig4's, so only the structure roundtrip fails.
    join = fig4.join.copy()
    a, b = fig4.index("a"), fig4.index("b")
    join[a, b] = join[b, a] = fig4.index("c")
    results = {name: ok for name, ok, _ in
               structure_checks(PartialLattice(fig4.labels, join, fig4.meet))}
    assert not results["roundtrip_structure"]
    assert results["roundtrip_order"] and results["induced_order_plos"]


def test_passing_checks_have_empty_detail():
    for lat in enumerate_partial_lattices(3):
        for name, ok, detail in structure_checks(lat):
            assert ok, (name, detail)
            assert detail == "", name


def forge_table(lat, congruences, thetas):
    """``lat`` with its congruence table forged: row i holds the i-th
    congruence and, as the congruence it generates on L*, the i-th theta."""
    lat.congruence_table = CongruenceTable(least_member_rows(congruences, lat.n),
                                           least_member_rows(thetas, lat.extension.star.n))
    return lat


def congruence_detail(lat, theta, e):
    """The congruence law's outcome when ``theta`` is kept as the witness of e."""
    results = {name: (ok, detail) for name, ok, detail
               in structure_checks(forge_table(lat, [e], [theta]))}
    return results["congruences"]


def test_generated_witness_is_recognized():
    lat = antichain(2)  # star: a1 0, a2 1, bottom 2, top 3
    identity = Partition.identity(2)
    assert congruence_detail(lat, Partition.identity(4), identity) == (True, "")


@pytest.mark.parametrize("lat, theta, e", [
    # A congruence of L* (the kernel of a projection of 2 x 2) restricting to
    # the identity, but not the congruence the identity generates.
    (antichain(2), Partition([0, 1, 0, 1]), Partition.identity(2)),
    # Restricts to the identity and collapses no join-irreducible, but bottom
    # and top are related while a1 = bottom v a1 and top = top v a1 are not.
    (antichain(2), Partition([0, 1, 2, 2]), Partition.identity(2)),
    # The congruence {a, c} generates on the chain a < b < c, but it does not
    # restrict to {a, c}.
    (named_lattice("chain", 3), Partition.full(3),
     Partition.from_blocks(3, [(0, 2)])),
])
def test_forged_witness_is_not_recognized(lat, theta, e):
    ok, detail = congruence_detail(lat, theta, e)
    assert not ok
    assert detail == f"enumerated congruence not recognized: {e!r}"


@pytest.mark.parametrize("forged, detail", [
    # Not convex, so no congruence of the extension restricts to it.
    ((Partition.from_blocks(3, [(0, 2)]),),
     f"enumerated congruence not recognized: {Partition.from_blocks(3, [(0, 2)])!r}"),
    # Every member is a congruence, but their meet, the identity, is left out.
    ((Partition.from_blocks(3, [(0, 1)]), Partition.from_blocks(3, [(1, 2)]), Partition.full(3)),
     "congruence set not closed under refinement"),
])
def test_assigned_congruences_reach_both_halves_of_the_sweep(forged, detail):
    # The chain is total, so L* is the chain itself and each theta is its e.
    lat = forge_table(named_lattice("chain", 3), forged, forged)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(lat)}
    assert results["congruences"] == (False, detail)


def count_calls(monkeypatch, home, *names, calls=None):
    """Counts the calls of each named function of ``home``, made through any
    ``partlat`` namespace that holds it, into ``calls`` (a new Counter by
    default), which it returns."""
    calls = Counter() if calls is None else calls
    for name in names:
        original = getattr(home, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("partlat") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_generates_no_congruence(monkeypatch):
    calls = count_calls(monkeypatch, congruence, "generate_congruence", "is_congruence_on_partial")
    checked, failures = verify_corpus(4)
    assert (checked, failures) == (23, [])
    assert calls == {}


def test_sweep_builds_no_quotient_and_one_extension_per_structure(monkeypatch):
    # L/E and (L/E)* of every congruence are read off stacked tables: the
    # per-congruence builders are the reference, not the sweep's route. The
    # one extension built per structure is L* itself, and the L* of a block
    # of one level are built by one call: the four levels of corpus 4 are a
    # block each.
    calls = count_calls(monkeypatch, congruence, "quotient", "lattice_quotient")
    count_calls(monkeypatch, morphism, "quotient_extension_iso", "extend_hom", "restrict_hom",
                "canonical_projection", calls=calls)
    count_calls(monkeypatch, extension, "two_point_extension", "two_point_extensions",
                calls=calls)
    count_calls(monkeypatch, plattice, "validate_partial_lattice", calls=calls)
    checked, failures = verify_corpus(4)
    assert (checked, failures) == (23, [])
    assert calls == {"two_point_extensions": 4}


def test_sweep_scans_each_block_once(monkeypatch):
    # Each block's orders, L's and L*'s, are scanned by one extrema_stack and
    # one covers_stack call per kind, and its congruence tables by one
    # congruence_tables call, which builds L*'s join-irreducibles with one
    # irreducibles_stack call; neither is built again, lazily, inside the
    # timed structure_checks. Every structure still gets its one
    # structure_checks call. The enumeration scans each level once.
    calls = count_calls(monkeypatch, verify, "structure_checks")
    count_calls(monkeypatch, extension, "two_point_extensions", calls=calls)
    count_calls(monkeypatch, order, "extrema_stack", "covers_stack", "irreducibles_stack",
                calls=calls)
    count_calls(monkeypatch, congruence, "congruence_tables", calls=calls)
    count_calls(monkeypatch, enumeration, "plos_lattices", calls=calls)
    checks, lazy = verify.structure_checks, Counter()

    def watched(lat):
        before = calls.copy()
        results = checks(lat)
        lazy.update({name: calls[name] - before[name]
                     for name in ("irreducibles_stack", "congruence_tables")})
        return results

    monkeypatch.setattr(verify, "structure_checks", watched)
    assert verify_corpus(5) == (76, [])
    blocks = calls["two_point_extensions"]
    assert calls["structure_checks"] == 76
    assert blocks == 5  # every level of corpus 5 fits in one block
    assert calls["extrema_stack"] <= calls["plos_lattices"] + 2 * blocks
    assert calls["covers_stack"] <= 2 * blocks
    assert calls["congruence_tables"] == calls["irreducibles_stack"] == blocks
    assert +lazy == Counter()


def test_block_built_objects_match_a_fresh_build(monkeypatch):
    # What the block step put in the cached slots is what each structure
    # would build alone, on first access.
    real = verify.structure_checks

    def compared(lat):
        assert "extension" in vars(lat) and "extrema" in vars(lat.order)
        assert "congruence_table" in vars(lat) and "irreducibles" in vars(lat.extension.star)
        fresh = PartialLattice(lat.labels, lat.join, lat.meet)
        assert all(np.array_equal(a, b)
                   for a, b in zip(lat.congruence_table, fresh.congruence_table, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(lat.order.extrema, fresh.order.extrema))
        assert np.array_equal(lat.order.covers, fresh.order.covers)
        ext, want = lat.extension, fresh.extension
        assert (ext.added_bottom, ext.added_top) == (want.added_bottom, want.added_top)
        assert ext.star == want.star
        star, want = ext.star.order, want.star.order
        assert {"extrema", "covers"} <= vars(star).keys()
        assert star == want and np.array_equal(star.covers, want.covers)
        assert all(np.array_equal(a, b) for a, b in zip(star.extrema, want.extrema))
        assert all(np.array_equal(a, b)
                   for a, b in zip(ext.star.irreducibles, fresh.extension.star.irreducibles))
        return real(lat)

    monkeypatch.setattr(verify, "structure_checks", compared)
    assert verify_corpus(6) == (298, [])


def test_sweep_memory_stays_bounded():
    # Each structure is dropped after its checks, so the loop holds none
    # while the next block is derived, and nothing cached on a structure
    # points back at it. The peak read 1.02 MiB; 1.20 MiB with the last
    # structure of each block held, and 2.35 MiB when L* held its source
    # and the cycles were left to the collector.
    tracemalloc.start()
    try:
        assert verify_corpus(6) == (298, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_passing_sweep_builds_no_partition(monkeypatch):
    # The sweep reads each structure's congruence table as arrays; a
    # Partition is built only for a caller that reads one, such as a
    # failure's detail.
    built = Counter()
    init = Partition.__init__

    def counted(self, block_of):
        built["Partition"] += 1
        init(self, block_of)

    monkeypatch.setattr(Partition, "__init__", counted)
    assert verify_corpus(5) == (76, [])
    assert built == {}


def test_join_case_disagreement_is_reported(monkeypatch, fig9):
    real = verify.join_case_stack

    def off_by_one(lat, block_of, alpha):
        table = real(lat, block_of, alpha)
        table[:, 0, 1] = table[:, 1, 0] = np.where(table[:, 0, 1] != UNDEF, UNDEF, 0)
        return table

    monkeypatch.setattr(verify, "join_case_stack", off_by_one)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(fig9)}
    assert results["congruences"] == (False, "join case disagrees with table at [0],[1]")


def per_witness_law(lat, quotients={}):
    """The congruence law checked one congruence at a time, then the meets;
    the quotients of the rows listed in ``quotients`` are forged (see
    ``forged_builds``)."""
    thetas = lat.congruence_table.theta.tolist()
    for i, (e, theta) in enumerate(zip(all_partial_congruences(lat), thetas)):
        with forged_quotient(lat, e, *quotients[i]) if i in quotients else nullcontext():
            ok, detail = congruence_law_per_witness(lat, e, Partition(theta))
        if not ok:
            return False, detail
    if not con_is_closed_under_meets(lat):
        return False, "congruence set not closed under refinement"
    return True, ""


def law_outcome(law, *args):
    """The law's (ok, detail), or the type and message of what it raised."""
    try:
        return law(*args)
    except Exception as exc:
        return type(exc), str(exc)


def with_dual_extension(quot):
    """``quot`` with the join and meet of its (L/E)* swapped."""
    star = quot.extension.star
    quot.__dict__["extension"] = dataclasses.replace(
        quot.extension, star=Lattice(star.order, star.meet, star.join))
    return quot


@contextmanager
def forged_quotient(lat, e, tables, dual):
    """The per-congruence functions with a forged L/E of ``e``: the private
    build ``_quotient`` is patched where it is bound, and makes L/E once
    from the class tables ``tables``, validated as ``quotient`` validates
    its own, with the join and meet of its (L/E)* swapped when ``dual``."""
    built = []

    def build(lat, w):
        if not built:
            labels = tuple(f"[{lat.labels[block[0]]}]" for block in e.blocks)
            quot = validate_partial_lattice(labels, *tables)
            built.append(with_dual_extension(quot) if dual else quot)
        return built[0]

    with patch.object(congruence, "_quotient", build), patch.object(morphism, "_quotient", build):
        yield


@contextmanager
def forged_builds(quotients):
    """The sweep's stacked builds with forged quotients injected into their
    output: ``quotients`` maps a row of the congruence table to the class
    tables of its L/E and whether its (L/E)* has its join and meet swapped.
    The per-witness law reads the same forgeries through
    ``forged_quotient``."""
    rows = {}

    def quotient_stack(lat, block_of, least):
        join, meet, reps = congruence.quotient_stack(lat, block_of, least)
        join, meet = join.copy(), meet.copy()
        for i, (tables, dual) in quotients.items():
            if i < len(block_of):
                n = len(tables[0])
                join[i, :n, :n], meet[i, :n, :n] = tables
                rows[i] = dual
        return join, meet, reps

    def dual_extension_stack(join, meet, sizes):
        x = extension_stack(join, meet, sizes)
        swapped = [i for i, dual in rows.items() if dual and i < len(join)]
        star_join, star_meet = x.join.copy(), x.meet.copy()
        star_join[swapped], star_meet[swapped] = x.meet[swapped], x.join[swapped]
        return x._replace(join=star_join, meet=star_meet)

    with (patch.object(verify, "quotient_stack", quotient_stack),
          patch.object(verify, "extension_stack", dual_extension_stack)):
        yield


def stacked_law(lat, quotients={}):
    """``congruence_law`` on the stacked builds with forged ``quotients``."""
    with forged_builds(quotients):
        return congruence_law(lat)


def forge_quotients(lat, forgeries):
    """Forged quotients (see ``forged_builds``) of the rows of ``lat``'s
    congruence table at the listed positions: "swap" swaps the join and meet
    of L/E, "break" sets [0] v [1] of a two-block L/E to the other block and
    keeps [1] v [0], and "dual" swaps the join and meet of (L/E)*."""
    quotients = {}
    for i, kind in forgeries.items():
        quot = quotient(lat, all_partial_congruences(lat)[i])
        join, meet = quot.join.copy(), quot.meet
        if kind == "break":
            join[0, 1] = 1 - join[0, 1]
        quotients[i] = ((meet, join) if kind == "swap" else (join, meet), kind == "dual")
    return quotients


@pytest.mark.parametrize("forgeries, failure", [
    ({1: "dual", 2: "swap"}, (InvariantError, "quotient extension exchange failed to verify")),
    ({1: "swap", 2: "dual"}, (False, "join case disagrees with table at [0],[3]")),
    ({1: "break", 2: "dual"}, (AxiomViolation, "commutativity violated at (0, 1)")),
    ({1: "dual", 2: "break"}, (InvariantError, "quotient extension exchange failed to verify")),
])
def test_first_failing_congruence_is_reported_across_both_stages(fig9, forgeries, failure):
    # Every law runs on every row of the stack, and one pick reports the
    # first failing law of the first congruence that fails one. A row that
    # fails the axioms ("break") is still built into (L/E)* and checked
    # there, and the failure reported is the one that checking the
    # congruences one at a time meets first.
    lat = PartialLattice(fig9.labels, fig9.join, fig9.meet)
    quotients = forge_quotients(lat, forgeries)
    assert (law_outcome(stacked_law, lat, quotients) == law_outcome(per_witness_law, lat, quotients)
            == failure)


@pytest.mark.parametrize("lat, index, theta", [
    # One class too many: the map into L*/theta is injective and keeps both
    # operations, but misses a class.
    (antichain(2), 0, [0, 1, 1, 1]),
    # As many classes as (L/E)* has elements, but two of them share one.
    (build(parse("plattice\nelements a b c\njoin b c = c\nmeet b c = b\n")), 1, [0, 0, 1, 2, 3]),
])
def test_exchange_law_needs_a_bijection(lat, index, theta):
    # theta is no congruence here, so the exchange check is called alone.
    e = all_partial_congruences(lat)[index]
    q = quotient(lat, e)
    x = extension_stack(q.join[None], q.meet[None], np.array([q.n]))
    laws = verify._extension_laws(lat, x, np.array([e.block_of]),
                                  least_member_rows([Partition(theta)], len(theta)),
                                  np.array([False]))
    assert [bool(mask[0]) for mask, _ in laws] == [False, True]


def test_exchange_law_needs_an_onto_map():
    # L* of the chain a < b is the chain. A forged (L/E)* of the full
    # congruence adjoins a top to its one block. With theta the identity,
    # the map sends a and b to the block: a homomorphism, and theta has as
    # many classes as (L/E)* has elements, but the map misses the top.
    lat = named_lattice("chain", 2)
    x = extension.ExtensionStack(np.array([[[0, 1], [1, 1]]]), np.array([[[0, 0], [0, 1]]]),
                                 np.array([2]), np.array([UNDEF]), np.array([1]))
    laws = verify._extension_laws(lat, x, np.array([[0, 0]]), np.array([[0, 1]]),
                                  np.array([False]))
    assert [bool(mask[0]) for mask, _ in laws] == [False, True]


def test_lifted_map_into_a_missing_bound_is_no_homomorphism():
    # L* of the 2-antichain adjoins a bottom (2) and a top (3). The forged
    # (L/E)* of the identity congruence has the carrier and the top only,
    # so the lifted map sends the bottom of L* to UNDEF. Its tables are the
    # image of L*'s under that map, with UNDEF read as the pad index 3, the
    # cell a gather at UNDEF reads: only the cells through the missing
    # image break the operations, and they fail the law.
    lat = antichain(2)
    star = lat.extension.star
    lifted = np.array([0, 1, UNDEF, 2])
    tables = np.full((2, 1, 4, 4), UNDEF)
    for table, source in zip(tables, (star.join, star.meet)):
        table[0][lifted[:, None], lifted] = lifted[source]
    x = extension.ExtensionStack(*tables, np.array([3]), np.array([UNDEF]), np.array([2]))
    broken, _ = morphism.hom_masks(lifted[None], (star.join, star.meet), tables)
    through_bottom = (lifted == UNDEF)[:, None] | (lifted == UNDEF)
    assert np.array_equal(broken.any((0, 1)), through_bottom)
    laws = verify._extension_laws(lat, x, np.array([[0, 1]]), np.array([np.arange(4)]),
                                  np.array([True]))
    (hom, error), _ = laws
    assert hom.tolist() == [True] and str(error) == "extended map must be a homomorphism"


def test_lost_upper_bound_fails_the_projection_first():
    # Stacked tables that keep every join case but whose meet relates no two
    # blocks: the order of L/E, read from its meet, loses the upper bounds of
    # c1 < c2. The sweep checks no lost upper bound, as the axioms and the
    # join cases imply it; of the quotient laws alone, the projection fails.
    identity = Partition.identity(3)
    lat = forge_table(named_lattice("chain", 3), [identity], [identity])  # L* is the chain
    theta = lat.congruence_table.theta
    block_of = np.array([identity.block_of])
    qjoin, qmeet, _ = congruence.quotient_stack(lat, block_of, theta)
    qmeet = np.where(np.eye(3, dtype=bool), np.arange(3), UNDEF)[None]
    assert first_true(lost_upper_bounds(lat, qmeet, block_of)[0]) == (0, 1)
    laws, _ = verify._quotient_laws(lat, qjoin, qmeet, block_of, theta)
    assert verify._first_failure(laws, lat) == (
        0, f"projection is not a homomorphism for {identity!r}")


def rows_past_the_join_cases(lat):
    """How many rows of ``lat``'s congruence table pass the axioms and the
    join cases on the stacks ``verify.quotient_stack`` builds, after
    checking that none of them loses an upper bound of L."""
    theta = lat.congruence_table.theta
    if not len(theta):
        return 0
    block_of = np.array([e.block_of for e in all_partial_congruences(lat)])
    qjoin, qmeet, reps = verify.quotient_stack(lat, block_of, theta)
    sizes = (reps != UNDEF).sum(1)
    axioms = plattice.axiom_violations(lambda i, x: x, qjoin, qmeet, sizes)
    (join_cases, _), *_ = verify._quotient_laws(lat, qjoin, qmeet, block_of, theta)[0]
    passing = np.array([error is None for error in axioms]) & ~join_cases.any((1, 2))
    assert not lost_upper_bounds(lat, qmeet, block_of)[passing].any()
    return passing.sum()


def test_no_lost_upper_bound_past_the_join_cases(corpus5):
    assert sum(rows_past_the_join_cases(lat) for lat in corpus5) == 411  # every congruence


@pytest.mark.parametrize("op", ["join", "meet"])
def test_weak_subalgebra_of_the_extension_is_checked(op):
    # Unvalidated tables with one off-diagonal cell, a v b = c or a ^ b = c:
    # the induced order is an antichain, so L*'s order is M3's, where a and b
    # go to an adjoined bound. The star keeps the source's cell, a v b = c or
    # a ^ b = c, and so is not M3: the scan of its order finds another sup
    # or inf at (a, b).
    diagonal = np.where(np.eye(3, dtype=bool), np.arange(3), UNDEF)
    cell = diagonal.copy()
    cell[0, 1] = 2
    lat = PartialLattice("abc", *((cell, diagonal) if op == "join" else (diagonal, cell)))
    assert np.array_equal(lat.order.leq, np.eye(3, dtype=bool))
    star = lat.extension.star
    assert morphism.order_isomorphism(star.order, named_lattice("M", 3).order) is not None
    assert getattr(star, op)[0, 1] == 2
    verdict = (False, f"extension {op} is not the order's at (0, 1)")
    assert verify._check_extension(lat) == verdict
    assert {name: (ok, detail) for name, ok, detail in structure_checks(lat)}["extension"] == verdict


def wrong_bound_row(tables, bottom, top):
    """The adjoined top absorbs the meet: top ^ x = top."""
    if top == UNDEF:
        return False
    tables[1, top, :] = tables[1, :, top] = top
    return True


def swapped_bounds(tables, bottom, top):
    """Every cell holding the adjoined bottom holds the top, and back."""
    if UNDEF in (bottom, top):
        return False
    tables[:] = np.where(tables == bottom, top, np.where(tables == top, bottom, tables))
    return True


def undefined_cell_to_the_wrong_bound(tables, bottom, top):
    """The first pair without a join in the carrier joins to the bottom."""
    if UNDEF in (bottom, top):
        return False
    a, b = first_true(tables[0] == top)
    tables[0, a, b] = tables[0, b, a] = bottom
    return True


@pytest.mark.parametrize("mutate, applies", [
    # 52 structures of corpus 5 adjoin a top, 38 of them a bottom too.
    (wrong_bound_row, 52), (swapped_bounds, 38), (undefined_cell_to_the_wrong_bound, 38)])
def test_mutant_fills_fail_the_extension_law(monkeypatch, corpus5, mutate, applies):
    # L* is filled by the case law, so the extension law is the one check
    # that it is a lattice: each structure whose fill a mutant changes fails
    # it, and every other structure passes it.
    real = extension.extension_stack
    mutated = []

    def mutant(join, meet, sizes):
        x = real(join, meet, sizes)
        tables = np.stack((x.join, x.meet))
        mutated.append(mutate(tables[:, 0], x.bottom[0], x.top[0]))
        return x._replace(join=tables[0], meet=tables[1])

    monkeypatch.setattr(extension, "extension_stack", mutant)
    for lat in corpus5:
        results = {name: (ok, detail) for name, ok, detail
                   in structure_checks(PartialLattice(lat.labels, lat.join, lat.meet))}
        ok, detail = results["extension"]
        assert ok != mutated[-1], detail
    assert sum(mutated) == applies


def test_empty_congruence_list_is_vacuously_closed():
    lat = forge_table(antichain(2), [], [])
    assert con_is_closed_under_meets(lat) and con_is_closed_under_meets_partitions(lat)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(lat)}
    assert results["congruences"] == per_witness_law(lat) == (True, "")


FORGERIES = ("merge", "permute", "swap", "quotient", "meet", "dual", "drop", "extra", "subset")


@st.composite
def forged(draw, corpus):
    """A fresh copy of a corpus structure with up to three forgeries applied
    to the rows of its congruence table, and the forged quotients of its
    rows (see ``forged_builds``). A row's theta may be merged, permuted or
    swapped with another row's; rows may be dropped, kept as a subset, or
    inserted with a random e whose theta is e with the adjoined bounds as
    singletons. A forged L/E has the class tables of a corpus structure
    with as many elements as e has blocks, or the true tables with one meet
    cell toggled, so that the checks past the join cases and the axiom scan
    are reached too; or it keeps the true tables and swaps the join and
    meet of its (L/E)*. Quotients are forged only on rows of the true
    table, whose e is a congruence."""
    source = draw(st.sampled_from(corpus))
    lat = PartialLattice(source.labels, source.join, source.meet)
    m = lat.extension.star.n
    # [e, theta, forged quotient or None, whether e is a true row]
    rows = [[e, theta, None, True]
            for e, theta in zip(*(half.tolist() for half in source.congruence_table))]
    for kind in draw(st.lists(st.sampled_from(FORGERIES), max_size=3)):
        if kind in ("drop", "extra", "subset"):
            at = draw(st.integers(0, len(rows)))
            if kind == "drop":
                del rows[at:at + 1]
            elif kind == "extra":
                e = draw(st.lists(st.integers(0, lat.n - 1), min_size=lat.n, max_size=lat.n))
                rows.insert(at, [e, e + list(range(lat.n, m)), None, False])
            else:
                keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
                rows = [row for row, kept in zip(rows, keep) if kept]
            continue
        true_rows = [row for row in rows if row[3]]
        if not true_rows:
            continue
        row = draw(st.sampled_from(true_rows))
        e, theta = row[:2]
        if kind == "merge":
            a, b = draw(st.lists(st.sampled_from(theta), min_size=2, max_size=2, unique=True)
                        if len(set(theta)) > 1 else st.just((0, 0)))
            row[1] = [a if x == b else x for x in theta]
        elif kind == "permute":
            perm = draw(st.permutations(range(m)))
            row[1] = [theta[x] for x in perm]
        elif kind == "swap":
            row[1] = draw(st.sampled_from(rows))[1]
        elif kind == "quotient":
            q = draw(st.sampled_from([q for q in corpus if q.n == len(set(e))]))
            row[2] = ((q.join, q.meet), False)
        else:
            quot = quotient(lat, Partition(e))
            if kind == "meet":
                x, y = draw(st.integers(0, quot.n - 1)), draw(st.integers(0, quot.n - 1))
                meet = quot.meet.copy()
                meet[x, y] = meet[y, x] = (draw(st.integers(0, quot.n - 1))
                                           if meet[x, y] == UNDEF else UNDEF)
                row[2] = ((quot.join, meet), False)
            else:
                row[2] = ((quot.join, quot.meet), True)
    forge_table(lat, [Partition(row[0]) for row in rows], [Partition(row[1]) for row in rows])
    return lat, {i: row[2] for i, row in enumerate(rows) if row[2] is not None}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stacked_law_matches_per_witness_loop(corpus5, data):
    lat, quotients = data.draw(forged(corpus5))
    assert law_outcome(stacked_law, lat, quotients) == law_outcome(per_witness_law, lat, quotients)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_forged_quotient_loses_an_upper_bound_past_the_join_cases(corpus5, data):
    lat, quotients = data.draw(forged(corpus5))
    with forged_builds(quotients):
        rows_past_the_join_cases(lat)
