import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partlat import (
    BadParameter,
    Poset,
    all_posets,
    enumerate_partial_lattices,
    is_plos,
    induced_order,
    lp_roundtrip,
)
from partlat import enumeration, order, plattice
from partlat.enumeration import canonical_form
from partlat.verify import verify_corpus

from oracles import (
    all_posets_masks,
    canonical_form_loops,
    enumerate_partial_lattices_loops,
    isomorphic_bruteforce,
)

# regression constants fixed by the enumeration oracle run (posets: OEIS A000112)
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}
PLOS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 15, 5: 53, 6: 222, 7: 1078, 8: 5994}
# sha256 of (labels, join, meet) over the enumerate_partial_lattices(6) stream;
# it pins members and stream order. Its isomorphism classes are those of the
# mask-filter enumeration (test_augmentation_matches_mask_filter).
STREAM6_SHA256 = "b58c0b2609a41986ba39425a395d99747a1bfa1cea11f415492c5e507af0fd80"
# sizes no enumeration takes: out of range, a bool (not read as 1), a float, a string
BAD_SIZES = [0, 9, True, False, 2.0, "3", None]


@st.composite
def reflexive_relations(draw, n=None):
    """A random reflexive relation on up to 8 elements, or on ``n``, not
    necessarily an order."""
    n = draw(st.integers(1, 8)) if n is None else n
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = np.array(cells, dtype=bool).reshape(n, n)
    np.fill_diagonal(leq, True)
    return leq


@st.composite
def orders(draw, n=None):
    """A random order on up to 8 elements, or on ``n``, in a random index
    order: the transitive closure of arcs that point up in a hidden linear
    order."""
    n = draw(st.integers(1, 8)) if n is None else n
    rank = np.array(draw(st.permutations(range(n))))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    leq = np.eye(n, dtype=bool)
    for a, b in arcs:
        leq[a, b] |= rank[a] < rank[b]
    for k in range(n):  # Warshall
        leq |= leq[:, k, None] & leq[k]
    return leq


def relabeled(leq, perm):
    perm = np.asarray(perm)
    return leq[perm[:, None], perm]


# an order on 8 elements, the largest canonical_form accepts: 64 bits, no padding
EIGHT = np.eye(8, dtype=bool) | np.triu(np.arange(64).reshape(8, 8) % 3 == 0)
CYCLES = np.eye(8, dtype=bool)
CYCLES[[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 0, 4, 5, 6, 7, 3]] = True


@given(st.one_of(orders(), reflexive_relations()).flatmap(
    lambda leq: st.tuples(st.just(leq), st.permutations(range(len(leq))))))
@example((EIGHT, list(range(7, -1, -1))))
@example((np.eye(8, dtype=bool), [1, 0, 2, 3, 4, 5, 6, 7]))  # 8! relabelings in one class
# directed 3- and 5-cycles: every element has one element strictly below and
# one above, so one colour class whose 8! relabelings span five blocks; the
# least matrix is not in every block, so each block must be searched
@example((CYCLES, [3, 6, 1, 4, 7, 2, 5, 0]))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_invariant_and_a_relabeling(case):
    leq, perm = case
    key, canon = canonical_form(leq)
    again, canon_again = canonical_form(relabeled(leq, perm))
    assert key == again and canon.dtype == bool and (canon == canon_again).all()
    assert key == np.packbits(canon).tobytes()
    # the canonical matrix is the input relabeled: the oracle's global least agrees
    assert canonical_form_loops(canon)[0] == canonical_form_loops(leq)[0]
    # a stack gives each row's form, the key as a big-endian 64-bit word
    keys, stack = canonical_form(np.stack((leq, relabeled(leq, perm))))
    assert keys.tolist() == [int.from_bytes(key, "big")] * 2 and (stack == canon).all()


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.one_of(orders(n), reflexive_relations(n)),
    st.one_of(orders(n), reflexive_relations(n)),
    st.permutations(range(n)), st.booleans())))
@settings(max_examples=100, deadline=None)
def test_equal_keys_exactly_for_isomorphic_relations(case):
    first, second, perm, copy = case
    if copy:
        second = relabeled(first, perm)
    p, q = (Poset("abcde"[:len(leq)], leq) for leq in (first, second))
    assert (canonical_form(first)[0] == canonical_form(second)[0]) == isomorphic_bruteforce(p, q)


def test_canonical_form_rejects_nine_elements():
    with pytest.raises(BadParameter):
        canonical_form(np.eye(9, dtype=bool))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)])
def test_canonical_form_rejects_no_elements(shape):
    # A relation on no elements has no key; numpy would fail to reshape it.
    with pytest.raises(BadParameter, match="1 to 8 elements"):
        canonical_form(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("build", [
    # the 8-element antichain: one colour class, 8! = 40,320 relabelings,
    # whose cell index table alone would be 20.6 MB unblocked
    lambda: canonical_form(np.eye(8, dtype=bool)),
    lambda: all_posets(7),
], ids=["antichain8", "all_posets7"])
def test_canonical_form_memory_is_bounded_by_blocks(build):
    enumeration._class_relabelings.cache_clear()
    enumeration._level.cache_clear()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestAllPosets:
    @pytest.mark.parametrize("n", sorted(POSET_COUNTS))
    def test_counts(self, n):
        assert len(all_posets(n)) == POSET_COUNTS[n]

    def test_pairwise_non_isomorphic(self):
        for n in (2, 3, 4):
            posets = all_posets(n)
            for i, p in enumerate(posets):
                for q in posets[i + 1 :]:
                    assert not isomorphic_bruteforce(p, q)

    def test_canonical_forms_are_fixpoints(self):
        for p in all_posets(4):
            key, canon = canonical_form(p.leq)
            assert (canon == p.leq).all()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_augmentation_matches_mask_filter(self, n):
        # the same isomorphism classes, each once, as the filter over every
        # relation mask; representatives differ, so both go through the
        # oracle's global canonical form
        got = [canonical_form_loops(p.leq)[0] for p in all_posets(n)]
        assert sorted(got) == [canonical_form_loops(p.leq)[0] for p in all_posets_masks(n)]

    def test_bad_parameter(self):
        for n in BAD_SIZES:
            with pytest.raises(BadParameter, match="integer between 1 and 8"):
                all_posets(n)

    def test_numpy_integer_size(self):
        assert len(all_posets(np.int64(4))) == POSET_COUNTS[4]


class TestEnumerate:
    @pytest.mark.parametrize("n", sorted(PLOS_COUNTS))
    def test_counts(self, n):
        sizes = [lat.n for lat in enumerate_partial_lattices(n)]
        assert sizes.count(n) == PLOS_COUNTS[n]
        assert len(sizes) == sum(PLOS_COUNTS[k] for k in range(1, n + 1))

    def test_two_element_structures(self):
        two = [lat for lat in enumerate_partial_lattices(2) if lat.n == 2]
        # exactly the 2-antichain and the 2-chain
        assert len(two) == 2
        totals = sorted((lat.join != -1).all() for lat in two)
        assert totals == [False, True]

    def test_members_are_valid_and_plos(self, corpus4):
        for lat in corpus4:
            assert is_plos(induced_order(lat))
            assert lp_roundtrip(lat)

    def test_pairwise_non_isomorphic_orders(self, corpus4):
        from partlat import order_isomorphism

        small = [lat for lat in corpus4 if lat.n <= 4]
        for i, a in enumerate(small):
            for b in small[i + 1 :]:
                if a.n == b.n:
                    assert order_isomorphism(induced_order(a), induced_order(b)) is None

    def test_stream_matches_per_poset_loop(self):
        # members, tables and order, against from_plos one poset at a time
        assert list(enumerate_partial_lattices(7)) == list(enumerate_partial_lattices_loops(7))

    def test_stream_digest(self):
        digest = hashlib.sha256()
        for lat in enumerate_partial_lattices(6):
            digest.update(" ".join(lat.labels).encode() + b"\n")
            digest.update(np.ascontiguousarray(lat.join, dtype="<i8").tobytes())
            digest.update(np.ascontiguousarray(lat.meet, dtype="<i8").tobytes())
        assert digest.hexdigest() == STREAM6_SHA256

    def test_each_level_is_grown_once(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name, args[0] if name == "all_posets" else None] += 1
                return fn(*args)
            return counted

        # extrema_stack is counted where enumeration binds it and where
        # Poset.extrema (so from_plos and is_plos) reaches it
        for module, name in ((enumeration, "all_posets"), (enumeration, "canonical_form"),
                             (enumeration, "extrema_stack"), (order, "extrema_stack"),
                             (plattice, "from_plos")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        all_posets(6)  # levels grown before an enumeration are not reused by it
        calls.clear()
        first = list(enumerate_partial_lattices(6))
        # one stacked canonical form per grown level, 2 to 6; one all_posets
        # call and one stacked sup/inf scan per level, 1 to 6, whose blocks
        # stay inside it; no from_plos
        once = {**{("all_posets", n): 1 for n in range(1, 7)}, ("canonical_form", None): 5,
                ("extrema_stack", None): 6}
        assert calls == once
        calls.clear()
        assert list(enumerate_partial_lattices(6)) == first
        assert calls == once  # each enumeration grows its levels afresh
        fresh = all_posets(6)
        assert fresh[0] is not all_posets(6)[0]
        assert all(not leq.flags.writeable for leq in enumeration._level(6))

    def test_a_level_shares_one_block_and_one_labels_tuple(self):
        # The kept tables of a level are one frozen copy, and all its
        # posets and partial lattices hold one labels tuple.
        posets = all_posets(5)
        lats = list(enumeration.plos_lattices(posets))
        assert len(lats) == PLOS_COUNTS[5]
        owners = {id(t.base) for lat in lats for t in (lat.join, lat.meet)}
        assert len(owners) == 1
        assert np.shares_memory(lats[0].join.base, lats[-1].meet)
        assert not lats[0].join.base.flags.writeable
        assert len({id(x.labels) for x in posets + lats}) == 1

    def test_deterministic(self):
        first = list(enumerate_partial_lattices(4))
        second = list(enumerate_partial_lattices(4))
        assert first == second

    def test_bad_parameter(self):
        for n in BAD_SIZES:
            with pytest.raises(BadParameter, match="integer between 1 and 8"):
                list(enumerate_partial_lattices(n))
            with pytest.raises(BadParameter, match="integer between 1 and 8"):
                verify_corpus(n)
