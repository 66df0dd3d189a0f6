"""Property tests over random inputs and the enumerated corpus."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partlat import (
    UNDEF,
    CycleDetected,
    Partition,
    all_congruences,
    check_absorption,
    enumerate_partial_lattices,
    from_plos,
    generate_congruence,
    induced_order,
    is_congruence_on_partial,
    is_plos,
    lower_bounds,
    lp_roundtrip,
    make_poset,
    named_lattice,
    quotient,
    two_point_extension,
    upper_bounds,
    validate_partial_lattice,
)

from oracles import (
    all_congruences_closure,
    least_congruence_bruteforce,
    partition_meet,
    partition_refines,
    partition_to_comparable,
)

CORPUS = list(enumerate_partial_lattices(4))
LABELS = "abcde"

structures = st.sampled_from(CORPUS)


@st.composite
def structure_with_pair(draw):
    lat = draw(structures)
    a = draw(st.integers(0, lat.n - 1))
    b = draw(st.integers(0, lat.n - 1))
    return lat, a, b


@st.composite
def relations(draw):
    n = draw(st.integers(1, 5))
    labels = tuple(LABELS[:n])
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
            max_size=8,
        )
    )
    return labels, pairs


@st.composite
def plos_extensions(draw):
    """Two-point extension of a random partially lattice-ordered set on up
    to seven elements, past the n <= 6 enumerated corpus."""
    n = draw(st.integers(1, 7))
    labels = "abcdefg"[:n]
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=12))
    # Arcs point from the smaller index up, so no cycle can form.
    p = make_poset(labels, [(labels[min(arc)], labels[max(arc)])
                            for arc in arcs if arc[0] != arc[1]])
    assume(is_plos(p))
    return from_plos(p).extension.star


@st.composite
def structure_with_partition(draw):
    lat = draw(structures)
    block_of = draw(st.lists(st.integers(0, lat.n - 1), min_size=lat.n, max_size=lat.n))
    return lat, Partition(block_of)


@given(structure_with_pair())
def test_bound_sets_match_the_order(case):
    lat, a, b = case
    p = induced_order(lat)
    ups = upper_bounds(p, a, b)
    for x in range(p.n):
        assert (x in ups) == (p.leq[a, x] and p.leq[b, x])
    lows = lower_bounds(p, a, b)
    for x in range(p.n):
        assert (x in lows) == (p.leq[x, a] and p.leq[x, b])


@given(structures)
def test_weak_absorption_everywhere(lat):
    assert check_absorption(lat, "weak").holds


@given(structures)
def test_roundtrip_everywhere(lat):
    assert lp_roundtrip(lat)


@given(structure_with_partition())
@settings(max_examples=80)
def test_induced_order_of_validated_structures_is_plos(case):
    lat, e = case
    validated = [validate_partial_lattice(lat.labels, lat.join, lat.meet)]
    w = is_congruence_on_partial(lat, e)
    if w.is_congruence:
        validated.append(quotient(lat, e))
    for s in validated:
        assert is_plos(induced_order(s))


@given(structure_with_pair())
def test_extension_case_law(case):
    lat, a, b = case
    ext = two_point_extension(lat)
    p = induced_order(lat)
    sj = ext.star.join[a, b]
    if upper_bounds(p, a, b):
        assert sj == int(lat.join[a, b])
    else:
        assert sj == ext.added_top
    sm = ext.star.meet[a, b]
    if lower_bounds(p, a, b):
        assert sm == int(lat.meet[a, b])
    else:
        assert sm == ext.added_bottom


@given(relations())
def test_make_poset_closure_invariants(case):
    labels, pairs = case
    try:
        p = make_poset(labels, pairs)
    except CycleDetected as err:
        assert len(err.cycle) >= 2
        return
    n = p.n
    for i in range(n):
        assert p.leq[i, i]
        for j in range(n):
            if p.leq[i, j] and p.leq[j, i]:
                assert i == j
            for k in range(n):
                if p.leq[i, j] and p.leq[j, k]:
                    assert p.leq[i, k]
    for x, y in pairs:
        assert p.leq[p.index(x), p.index(y)]


@given(structure_with_partition(), st.integers(0, 10_000))
@settings(max_examples=60)
def test_generated_congruence_minimal_against_oracle(case, salt):
    lat, seed = case
    ext = two_point_extension(lat)
    star = ext.star
    pair = (salt % star.n, (salt // star.n) % star.n)
    if pair[0] == pair[1]:
        return
    theta = generate_congruence(star, Partition.from_blocks(star.n, [pair]))
    assert partition_to_comparable(theta) == least_congruence_bruteforce(star, *pair)


@given(structure_with_partition())
@settings(max_examples=80)
def test_congruence_seed_containment_and_compatibility(case):
    lat, e = case
    ext = two_point_extension(lat)
    star = ext.star
    lifted = Partition.from_blocks(
        star.n, [tuple(i for i in block) for block in e.blocks]
    )
    theta = generate_congruence(star, lifted)
    assert partition_refines(lifted, theta)
    for block in theta.blocks:
        for a in block:
            for b in block:
                for c in range(star.n):
                    assert theta.relates(int(star.join[a, c]), int(star.join[b, c]))
                    assert theta.relates(int(star.meet[a, c]), int(star.meet[b, c]))


@given(structure_with_partition())
@settings(max_examples=80)
def test_quotient_only_for_recognized_congruences(case):
    lat, e = case
    w = is_congruence_on_partial(lat, e)
    if not w.is_congruence:
        return
    q = quotient(lat, e)
    assert q.n == len(e.blocks)
    # block map preserves every defined source join
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.join[a, b] != UNDEF:
                cell = q.join[e.block_of[a], e.block_of[b]]
                assert cell == e.block_of[int(lat.join[a, b])]


@given(st.sampled_from(CORPUS), st.sampled_from(CORPUS))
@settings(max_examples=40)
def test_isomorphism_search_is_symmetric(a, b):
    from partlat import find_isomorphism, to_lattice, is_total, BOTH_TOTAL

    if is_total(a) != BOTH_TOTAL or is_total(b) != BOTH_TOTAL:
        return
    la, lb = to_lattice(a), to_lattice(b)
    assert (find_isomorphism(la, lb) is None) == (find_isomorphism(lb, la) is None)


@given(structure_with_partition(), structure_with_partition())
@settings(max_examples=60)
def test_partition_meet_refines_both(case_a, case_b):
    lat, p = case_a
    _, q = case_b
    if p.n != q.n:
        return
    m = partition_meet(p, q)
    assert partition_refines(m, p) and partition_refines(m, q)
    chain = named_lattice("chain", p.n)
    joined = generate_congruence(chain, p, q)
    assert partition_refines(p, joined) and partition_refines(q, joined)
    assert joined == generate_congruence(chain, generate_congruence(chain, p), q)


@given(plos_extensions())
@settings(max_examples=80, deadline=None)
def test_all_congruences_matches_closure_beyond_the_corpus(star):
    cons = all_congruences(star)
    assert cons == all_congruences_closure(star)
    found = set(cons)
    assert all(partition_meet(p, q) in found for p in cons for q in cons)
