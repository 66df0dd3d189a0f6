import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partlat import (
    BadParameter,
    all_posets,
    enumerate_partial_lattices,
    is_plos,
    induced_order,
    lp_roundtrip,
)
from partlat import enumeration
from partlat.enumeration import canonical_form

from oracles import all_posets_masks, canonical_form_loops, isomorphic_bruteforce

# regression constants fixed by the enumeration oracle run (posets: OEIS A000112)
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
PLOS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 15, 5: 53, 6: 222}
# sha256 of (labels, join, meet) over the enumerate_partial_lattices(6) stream,
# taken from the mask-filter enumeration; it pins members and stream order.
STREAM6_SHA256 = "c5e0fde333efa6c11f7521e357864ef916dde52fd449781d8020240c089eb9f9"


@st.composite
def reflexive_relations(draw):
    """A random reflexive relation on up to 7 elements, not necessarily an
    order."""
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = np.array(cells, dtype=bool).reshape(n, n)
    np.fill_diagonal(leq, True)
    return leq


# an order on 8 elements, the largest canonical_form accepts: 64 bits, no padding
EIGHT = np.eye(8, dtype=bool) | np.triu(np.arange(64).reshape(8, 8) % 3 == 0)


@given(reflexive_relations())
@example(EIGHT)
@settings(max_examples=100, deadline=None)
def test_canonical_form_matches_loops(leq):
    key, canon = canonical_form(leq)
    want_key, want_canon = canonical_form_loops(leq)
    assert key == want_key
    assert canon.shape == want_canon.shape and (canon == want_canon).all()


def test_canonical_form_rejects_nine_elements():
    with pytest.raises(BadParameter):
        canonical_form(np.eye(9, dtype=bool))


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

    @pytest.mark.parametrize("n", sorted(POSET_COUNTS))
    def test_augmentation_matches_mask_filter(self, n):
        assert all_posets(n) == all_posets_masks(n)

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            all_posets(0)
        with pytest.raises(BadParameter):
            all_posets(7)


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

        for name in ("all_posets", "canonical_form"):
            monkeypatch.setattr(enumeration, name, counting(name, getattr(enumeration, name)))
        all_posets(6)  # levels grown before an enumeration are not reused by it
        calls.clear()
        first = list(enumerate_partial_lattices(6))
        once = {**{("all_posets", n): 1 for n in range(1, 7)}, ("canonical_form", None): 938}
        assert calls == once
        calls.clear()
        assert list(enumerate_partial_lattices(6)) == first
        assert calls == once  # each enumeration grows its levels afresh
        fresh = all_posets(6)
        assert fresh[0] is not all_posets(6)[0]
        assert all(not leq.flags.writeable for leq in enumeration._level(6))

    def test_deterministic(self):
        first = list(enumerate_partial_lattices(4))
        second = list(enumerate_partial_lattices(4))
        assert first == second

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            list(enumerate_partial_lattices(0))
        with pytest.raises(BadParameter):
            list(enumerate_partial_lattices(7))
