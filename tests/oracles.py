"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (Bell-number
enumeration, permutation search, definition scans) and deliberately avoids
the library's own closure and search algorithms. There is one exception:
``quotient_loops`` recognizes the congruence with
``is_congruence_on_partial``; only the class-operation step is its own.

``generate_congruence_worklist`` is the union-find worklist closure that the
dependency-order ``generate_congruence`` replaced, and the two are compared
on random seeds. ``all_congruences_closure``, the earlier congruence lister
kept as the reference for the join-irreducible one, runs on the worklist, so
no reference runs the code under test. The Bell-number oracles check the
library versions directly.

The ``*_loops`` functions are the per-pair and per-triple Python scans that
the library's array kernels replaced, kept as references: they return or
raise exactly what the library versions must. ``quotient_loops`` reads the
carrier as the prefix of the extension, source element i at star index i.
``canonical_form_loops`` and ``all_posets_masks`` are the enumeration the
library replaced: a Python ``min`` over every relabeling, and a filter over
every relation mask. ``partition_meet`` and ``partition_refines`` are the
common refinement and the refinement order of partitions, once ``Partition``
methods; ``con_is_closed_under_meets_partitions`` builds every
``partition_meet`` of two congruences, and ``congruence_witnesses_partitions``
keeps one (theta, e) pair per congruence in a dict keyed by ``Partition``, as
the library did before the congruences became one array table per structure;
``least_member_rows`` writes partitions in that table's row form. ``extrema_rows`` is the sup/inf
kernel one carrier row at a time, before it became one broadcast,
``covers_loops`` the covering relation one triple at a time, and
``quotient_join_case_branches`` classifies one pair by the branches the
join-case table replaced. ``parse_scanner`` is the text parser that walked
each line one character at a time, before one anchored match read it.

``two_point_extension_loops`` builds the star order of the extension one
pair at a time and reads its lattice with ``validate_lattice_loops``, before
the extensions of many partial lattices became one padded stack filled by
the case law.

``irreducibles_below_gather`` is the dependency order of the
join-irreducibles read from one gather over all pairs, before that gather
went over blocks. ``congruence_law_per_witness`` is the congruence law for one congruence, as
the sweep checked it before one stacked pass checked them all: it
recognizes theta with ``is_generated``, which compares it
with the worklist closure of the lifted e, and goes through the
per-congruence ``canonical_projection``, ``extend_hom``, ``restrict_hom``
and ``quotient_extension_iso``. It still asks, with ``lost_upper_bounds``
(a scan over stacked tables), whether L/E keeps every upper bound of L; the
sweep no longer does, as the axioms and the join cases imply it.

``order_isomorphism_signatures`` is the recursive isomorphism search, one
stack frame per placed element, before an explicit stack of candidate
positions replaced the recursion; the two must return the same mapping.

``down_sets_filter`` lists the down-sets of an order by testing all 2^m
subsets with one product, before ``order.down_sets`` built each down-set
once from a smaller one.

``enumerate_partial_lattices_loops`` maps each enumerated poset through
``from_plos`` one at a time, before one ``extrema_stack`` filtered each
level.
"""

import re
from collections import deque
from itertools import permutations

import numpy as np

from partlat import (
    CLOSED_HOM,
    HOM,
    NOT_HOM,
    UNDEF,
    AxiomViolation,
    BadParameter,
    HomReport,
    IdentityReport,
    JoinCase,
    Lattice,
    NotACongruence,
    NotALattice,
    NotPlos,
    PartialLattice,
    Partition,
    PlosReport,
    Poset,
    all_congruences,
    all_partial_congruences,
    all_posets,
    canonical_projection,
    extend_hom,
    from_plos,
    is_congruence_on_partial,
    kernel,
    lower_bounds,
    quotient,
    quotient_extension_iso,
    quotient_join_cases,
    restrict_hom,
    upper_bounds,
    validate_partial_lattice,
)
from partlat.congruence import ALPHA, DEFINED, UNDEFINED_TOP_SINGLETON
from partlat.errors import ParseError, SemanticError, ensure
from partlat.fmt import Document, shown, text_end
from partlat.order import first_true


def all_partitions(n):
    """Every partition of range(n), as tuples of sorted tuples."""
    if n == 0:
        yield ()
        return
    for rest in all_partitions(n - 1):
        last = (n - 1,)
        yield rest + (last,)
        for k, block in enumerate(rest):
            yield rest[:k] + (block + last,) + rest[k + 1 :]


def blocks_to_lookup(blocks, n):
    out = [None] * n
    for b, members in enumerate(blocks):
        for i in members:
            out[i] = b
    return out


def is_lattice_congruence(lat, blocks):
    """Definition scan: related pairs stay related under join and meet."""
    n = lat.n
    of = blocks_to_lookup(blocks, n)
    for block in blocks:
        for a in block:
            for b in block:
                for c in range(n):
                    if of[lat.join[a, c]] != of[lat.join[b, c]]:
                        return False
                    if of[lat.meet[a, c]] != of[lat.meet[b, c]]:
                        return False
    return True


def all_congruences_bruteforce(lat):
    """Filter the full partition space by the compatibility definition."""
    return [
        blocks
        for blocks in all_partitions(lat.n)
        if is_lattice_congruence(lat, blocks)
    ]


def generate_congruence_worklist(lat, *seeds):
    """Least congruence of a total lattice containing every seed partition.

    Fixpoint closure over a worklist: each newly identified pair (a, b)
    forces (a v c, b v c) and (a ^ c, b ^ c) for every c. At most n - 1
    merges can happen, so termination is immediate. Two seeds give the join
    of two congruences.
    """
    if any(seed.n != lat.n for seed in seeds):
        raise BadParameter("seed partitions a different carrier")
    n = lat.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = deque()
    for seed in seeds:
        for block in seed.blocks:
            pending.extend(zip(block, block[1:]))
    join, meet = lat.join, lat.meet
    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        for c in range(n):
            pending.append((int(join[a, c]), int(join[b, c])))
            pending.append((int(meet[a, c]), int(meet[b, c])))
    return Partition([find(i) for i in range(n)])


def all_congruences_closure(lat):
    """Every congruence of a total lattice, sorted.

    Principal congruences are generated for each covering pair, then the set
    is closed under pairwise join (generation over the blockwise union) until
    stable. Covering pairs suffice: classes are convex, so a chain of covers
    inside a class links any related a < b, and a is related to a ^ b. This
    avoids filtering the Bell-number space of all partitions.
    """
    n = lat.n
    found = {Partition.identity(n)}
    work = deque()
    for a, b in zip(*np.nonzero(lat.order.covers)):
        principal = generate_congruence_worklist(lat, Partition.from_blocks(n, [(a, b)]))
        if principal not in found:
            found.add(principal)
            work.append(principal)
    while work:
        theta = work.popleft()
        for other in list(found):
            joined = generate_congruence_worklist(lat, theta, other)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return tuple(sorted(found))


def refine(first, second, n):
    """Common refinement of two block structures."""
    fa = blocks_to_lookup(first, n)
    fb = blocks_to_lookup(second, n)
    groups = {}
    for i in range(n):
        groups.setdefault((fa[i], fb[i]), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def least_congruence_bruteforce(lat, a, b):
    """Finest congruence relating a and b: the intersection of all of them."""
    containing = [
        blocks
        for blocks in all_congruences_bruteforce(lat)
        if blocks_to_lookup(blocks, lat.n)[a] == blocks_to_lookup(blocks, lat.n)[b]
    ]
    assert containing, "the one-block partition always qualifies"
    least = containing[0]
    for blocks in containing[1:]:
        least = refine(least, blocks, lat.n)
    assert tuple(sorted(least)) in {tuple(sorted(c)) for c in containing}
    return tuple(sorted(tuple(sorted(block)) for block in least))


def partition_to_comparable(partition_obj):
    """Library Partition as sorted block tuples, for oracle comparison."""
    return tuple(sorted(tuple(sorted(block)) for block in partition_obj.blocks))


def isomorphic_bruteforce(p, q):
    """Permutation scan over order matrices."""
    if p.n != q.n:
        return False
    n = p.n
    for perm in permutations(range(n)):
        if all(
            p.leq[i, j] == q.leq[perm[i], perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def least_of(p, members):
    """The member of ``members`` below all others, or None."""
    for x in members:
        if all(p.leq[x, y] for y in members):
            return int(x)
    return None


def greatest_of(p, members):
    for x in members:
        if all(p.leq[y, x] for y in members):
            return int(x)
    return None


def is_plos_loops(p):
    """First pair (a <= b in index order) whose nonempty bound set lacks an
    extremum, upper side checked before lower."""
    for a in range(p.n):
        for b in range(a, p.n):
            ups = upper_bounds(p, a, b)
            if ups and least_of(p, ups) is None:
                return PlosReport(False, "upper", (a, b), ups)
            lows = lower_bounds(p, a, b)
            if lows and greatest_of(p, lows) is None:
                return PlosReport(False, "lower", (a, b), lows)
    return PlosReport(True)


def validate_lattice_loops(p):
    """The lattice on ``p``; NotALattice at the first pair without both."""
    n = p.n
    join = np.full((n, n), -1, dtype=np.int64)
    meet = np.full((n, n), -1, dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            sup = least_of(p, upper_bounds(p, a, b))
            inf = greatest_of(p, lower_bounds(p, a, b))
            if sup is None or inf is None:
                raise NotALattice((a, b))
            join[a, b] = join[b, a] = sup
            meet[a, b] = meet[b, a] = inf
    return Lattice(p, join, meet)


def two_point_extension_loops(lat):
    """The two-point extension from its definition, as ``(star, bottom,
    top)``: the induced order, a bottom below every element when some meet
    is undefined and a top above every element when some join is, each at
    the index ``two_point_extension`` gives it, and the lattice on that
    order by ``validate_lattice_loops``."""
    n = lat.n
    cells = [(a, b) for a in range(n) for b in range(n)]
    bottom = n if any(lat.meet[cell] == UNDEF for cell in cells) else None
    top = n + (bottom is not None) if any(lat.join[cell] == UNDEF for cell in cells) else None
    labels = lat.labels + ("⊥*",) * (bottom is not None) + ("⊤*",) * (top is not None)
    m = len(labels)
    leq = np.eye(m, dtype=bool)
    for a, b in cells:
        leq[a, b] |= lat.join[a, b] == b
    for x in range(m):
        if bottom is not None:
            leq[bottom, x] = True
        if top is not None:
            leq[x, top] = True
    return validate_lattice_loops(Poset(labels, leq)), bottom, top


def from_plos_loops(p):
    """The canonical partial lattice on ``p``; NotPlos if ``p`` is not plos."""
    report = is_plos_loops(p)
    if not report:
        raise NotPlos(report)
    n = p.n
    jt = np.full((n, n), UNDEF, dtype=np.int64)
    mt = np.full((n, n), UNDEF, dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            ups = upper_bounds(p, a, b)
            if ups:
                jt[a, b] = jt[b, a] = least_of(p, ups)
            lows = lower_bounds(p, a, b)
            if lows:
                mt[a, b] = mt[b, a] = greatest_of(p, lows)
    return PartialLattice(p.labels, jt, mt)


def _compound(t, outer_first, i, j, k):
    if outer_first:  # (i . j) . k
        ij = t[i, j]
        return UNDEF if ij == UNDEF else int(t[ij, k])
    jk = t[j, k]  # i . (j . k)
    return UNDEF if jk == UNDEF else int(t[i, jk])


def validate_partial_lattice_loops(labels, jt, mt):
    """The axiom checks on integer tables, in the library's order; raises
    what the library raises and returns the structure otherwise."""
    n = len(labels)
    for t, name in ((jt, "join"), (mt, "meet")):
        bad = (t < UNDEF) | (t >= n)
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise BadParameter(f"{name}[{i},{j}] is not an element index")
    for i in range(n):
        if jt[i, i] != i or mt[i, i] != i:
            raise AxiomViolation("idempotency", (i,), labels[i])
    for i in range(n):
        for j in range(i + 1, n):
            if jt[i, j] != jt[j, i] or mt[i, j] != mt[j, i]:
                raise AxiomViolation("commutativity", (i, j))
    for i in range(n):
        for j in range(n):
            if jt[i, j] == i and mt[i, j] != j:
                raise AxiomViolation("duality", (i, j), "join gives i but meet is not j")
            if mt[i, j] == i and jt[i, j] != j:
                raise AxiomViolation("duality", (i, j), "meet gives i but join is not j")
    for t, name in ((jt, "join"), (mt, "meet")):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if _compound(t, True, i, j, k) != _compound(t, False, i, j, k):
                        raise AxiomViolation("associativity", (i, j, k), name)
    return PartialLattice(labels, jt, mt)


def check_absorption_loops(lat, mode="weak"):
    """Scan (x v y) ^ x and (x ^ y) v x against the bare x."""
    schemas = (
        ("absorption_join", lat.join, lat.meet),
        ("absorption_meet", lat.meet, lat.join),
    )
    for schema, inner, outer in schemas:
        for x in range(lat.n):
            for y in range(lat.n):
                xy = inner[x, y]
                lhs = UNDEF if xy == UNDEF else int(outer[xy, x])
                if lhs == UNDEF:
                    if mode == "strong":
                        return IdentityReport(schema, mode, False, (x, y))
                elif lhs != x:
                    return IdentityReport(schema, mode, False, (x, y))
    return IdentityReport(None, mode, True)


def check_distributivity_loops(lat, mode="strong"):
    """Scan x ^ (y v z) against (x ^ y) v (x ^ z), and the dual schema."""
    schemas = (
        ("distributive_meet_over_join", lat.join, lat.meet),
        ("distributive_join_over_meet", lat.meet, lat.join),
    )
    for schema, jn, mt in schemas:
        for x in range(lat.n):
            for y in range(lat.n):
                for z in range(lat.n):
                    yz = jn[y, z]
                    lhs = UNDEF if yz == UNDEF else int(mt[x, yz])
                    xy, xz = mt[x, y], mt[x, z]
                    rhs = UNDEF if UNDEF in (xy, xz) else int(jn[xy, xz])
                    if mode == "strong" and (lhs == UNDEF) != (rhs == UNDEF):
                        return IdentityReport(schema, mode, False, (x, y, z))
                    if lhs != UNDEF and rhs != UNDEF and lhs != rhs:
                        return IdentityReport(schema, mode, False, (x, y, z))
    return IdentityReport(None, mode, True)


def is_distributive_loops(lat):
    """x ^ (y v z) = (x ^ y) v (x ^ z) over all triples of a total lattice."""
    jn, mt = lat.join, lat.meet
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                if mt[x, jn[y, z]] != jn[mt[x, y], mt[x, z]]:
                    return False
    return True


def is_modular_loops(lat):
    """x <= z implies x v (y ^ z) = (x v y) ^ z over all triples."""
    jn, mt, leq = lat.join, lat.meet, lat.leq
    for x in range(lat.n):
        for z in range(lat.n):
            if not leq[x, z]:
                continue
            for y in range(lat.n):
                if jn[x, mt[y, z]] != mt[jn[x, y], z]:
                    return False
    return True


def check_hom_loops(mapping, source, target):
    """not_hom, hom or closed_hom, with the first offending pair in
    row-major order, join before meet."""
    h = tuple(mapping)
    tables = (("join", source.join, target.join), ("meet", source.meet, target.meet))
    for a in range(source.n):
        for b in range(source.n):
            for op, st, tt in tables:
                sv = st[a, b]
                if sv == UNDEF:
                    continue
                tv = tt[h[a], h[b]]
                if tv == UNDEF or tv != h[sv]:
                    return HomReport(NOT_HOM, (a, b), op)
    for a in range(source.n):
        for b in range(source.n):
            for op, st, tt in tables:
                if st[a, b] == UNDEF and tt[h[a], h[b]] != UNDEF:
                    return HomReport(HOM, (a, b), op)
    return HomReport(CLOSED_HOM)


def _class_cell(n, e, theta, star_table, a, b):
    """Theta-class of a star operation value intersected with the carrier
    0..n-1, as a block id of ``e``, or None when the intersection is empty."""
    value = int(star_table[a, b])
    hits = [s for s in theta.block_containing(value) if s < n]
    if not hits:
        return None
    block = e.block_of[hits[0]]
    ensure(all(e.block_of[h] == block for h in hits), "class must hit one block")
    return block


def quotient_loops(lat, e, theta=None):
    """The quotient partial lattice, evaluating the class operation on every
    representative pair of every pair of blocks. ``theta``, when given, is
    taken unchecked as the congruence e generates on the extension."""
    if theta is None:
        w = is_congruence_on_partial(lat, e)
        if not w.is_congruence:
            raise NotACongruence(w)
        theta = w.theta
    star = lat.extension.star
    m = len(e.blocks)
    labels = tuple(f"[{lat.labels[block[0]]}]" for block in e.blocks)
    jt = np.full((m, m), UNDEF, dtype=np.int64)
    mt = np.full((m, m), UNDEF, dtype=np.int64)
    for table, out in ((star.join, jt), (star.meet, mt)):
        for p in range(m):
            for q in range(p, m):
                results = {
                    _class_cell(lat.n, e, theta, table, a, b)
                    for a in e.blocks[p]
                    for b in e.blocks[q]
                }
                ensure(len(results) == 1, "class operation depends on representatives")
                value = results.pop()
                out[p, q] = out[q, p] = UNDEF if value is None else value
    return validate_partial_lattice(labels, jt, mt)


def is_generated(lat, e, theta):
    """Whether ``theta`` restricts to e and is the congruence that e
    generates on the extension of ``lat``, with the adjoined bounds as
    singletons, as the worklist closure generates it."""
    star = lat.extension.star
    lifted = Partition(e.block_of + tuple(range(lat.n, star.n)))
    return (Partition(theta.block_of[:lat.n]) == e
            and generate_congruence_worklist(star, lifted) == theta)


def congruence_law_per_witness(lat, e, theta):
    """Quotient machinery for a single congruence, once its kept ``theta`` is
    recognised; the per-congruence functions generate Theta(e) again."""
    if not is_generated(lat, e, theta):
        return False, f"enumerated congruence not recognized: {e!r}"
    quot = quotient(lat, e)

    # Case analysis agrees with the quotient table on every carrier pair.
    blocks = np.array(e.block_of)
    pair = first_true(quotient_join_cases(lat, e)
                      != quot.join[blocks[:, None], blocks])
    if pair is not None:
        return False, "join case disagrees with table at [{}],[{}]".format(*pair)

    # Undefined quotient joins come from undefined source joins.
    lost = first_true(lost_upper_bounds(lat, quot.meet[None], blocks[None])[0])
    if lost is not None:
        return False, f"quotient lost an upper bound at {lost}"

    proj = canonical_projection(lat, e)
    rep = proj.report
    if rep.kind == NOT_HOM:
        return False, f"projection is not a homomorphism for {e!r}"
    if kernel(proj) != e:
        return False, f"projection kernel differs from {e!r}"
    ext = lat.extension
    bounds_singleton = all(
        len(theta.block_containing(bound)) == 1
        for bound in (ext.added_bottom, ext.added_top)
        if bound is not None
    )
    if (rep.kind == CLOSED_HOM) != bounds_singleton:
        return False, f"projection closedness mismatches bound classes for {e!r}"
    if rep.kind == CLOSED_HOM:
        hstar = extend_hom(proj)
        if restrict_hom(hstar, lat, quot).mapping != proj.mapping:
            return False, f"extension does not restrict back for {e!r}"
    quotient_extension_iso(lat, e)
    return True, ""


def lost_upper_bounds(lat, qmeet, block_of):
    """[i, a, b]: a and b have an upper bound in L but [a] and [b] none in
    row i of the stacked L/E meet tables, whose order is x <= y when
    x ^ y = x; ``block_of`` holds the block arrays of the rows, k x n."""
    leq = lat.order.leq
    qleq = qmeet == np.arange(qmeet.shape[1])[:, None]
    classes = np.arange(len(qmeet))[:, None, None], block_of[:, :, None], block_of[:, None, :]
    return (leq @ leq.T) & ~(qleq @ qleq.transpose(0, 2, 1))[classes]


def irreducibles_below_gather(lat):
    """``Lattice.irreducibles.below`` from one |J| x |J| x n gather, before
    the gather went over blocks of q."""
    covers = lat.order.covers
    members = np.flatnonzero(covers.sum(0) == 1)
    lower = covers[:, members].argmax(0)
    rows = lat.leq[members]
    below = (rows[:, lat.join[members]] & ~rows[:, lat.join[lower]]).any(2)
    below |= np.eye(len(members), dtype=bool)
    for k in range(len(members)):
        below |= below[:, k : k + 1] & below[k : k + 1, :]
    return below


def order_isomorphism_signatures(a, b):
    """The recursive backtracking search for an order isomorphism that the
    iterative one replaced: candidates pruned by per-element signatures
    (ideal and filter sizes, cover degrees), elements placed fewest
    candidates first, each checked against every element placed before it."""
    if a.n != b.n:
        return None

    def signatures(p):
        return list(zip(p.leq.sum(0).tolist(), p.leq.sum(1).tolist(),
                        p.covers.sum(0).tolist(), p.covers.sum(1).tolist()))

    siga, sigb = signatures(a), signatures(b)
    if sorted(siga) != sorted(sigb):
        return None
    candidates = [[j for j in range(b.n) if sigb[j] == siga[i]] for i in range(a.n)]
    order = sorted(range(a.n), key=lambda i: len(candidates[i]))
    mapping = [None] * a.n
    used = [False] * b.n

    def assign(k):
        if k == a.n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            if any(
                a.leq[i, prev] != b.leq[j, mapping[prev]]
                or a.leq[prev, i] != b.leq[mapping[prev], j]
                for prev in order[:k]
            ):
                continue
            mapping[i] = j
            used[j] = True
            if assign(k + 1):
                return True
            mapping[i] = None
            used[j] = False
        return False

    return tuple(mapping) if assign(0) else None


def canonical_form_loops(leq):
    """Canonical key and matrix: a Python ``min`` over the packed bytes of
    every relabeling."""
    n = len(leq)
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    stacked = leq[perms[:, :, None], perms[:, None, :]]
    packed = np.packbits(stacked.reshape(len(perms), n * n), axis=1)
    best = min(range(len(perms)), key=lambda k: packed[k].tobytes())
    return packed[best].tobytes(), stacked[best]


def all_posets_masks(n):
    """All posets on n elements up to isomorphism, in canonical order: every
    strictly upper-triangular relation mask (each poset has a linear
    extension), filtered for transitivity and deduplicated by
    ``canonical_form_loops``."""
    if not 1 <= n <= 6:
        raise BadParameter("n must be between 1 and 6")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = {}
    for mask in range(1 << len(pairs)):
        leq = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                leq[i, j] = True
        if ((leq @ leq) & ~leq).any():
            continue
        key, canon = canonical_form_loops(leq)
        if key not in found:
            found[key] = canon
    labels = "abcdefgh"[:n]
    return [Poset(labels, found[key]) for key in sorted(found)]


def enumerate_partial_lattices_loops(n_max):
    """All partial lattices on at most n_max elements, level by level in the
    order of ``all_posets``: ``from_plos`` of each poset, skipping those it
    rejects."""
    for n in range(1, n_max + 1):
        for p in all_posets(n):
            try:
                yield from_plos(p)
            except NotPlos:
                continue


def down_sets_filter(leq):
    """Every down-set of the order (or preorder) ``leq`` as a row of a
    boolean matrix: each of the 2^m subsets is kept when everything below a
    member of it is in it."""
    m = len(leq)
    subsets = (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)
    return subsets[((subsets @ leq.T) == subsets).all(axis=1)]


def congruence_witnesses_partitions(lat):
    """(theta, e) for each congruence e of the partial lattice, sorted by e:
    each congruence of L* is restricted to the carrier, its prefix, and for
    each restriction e the theta with the most blocks is kept in a dict
    keyed by e."""
    kept = {}
    for theta in all_congruences(lat.extension.star):
        e = Partition(theta.block_of[:lat.n])
        if e not in kept or len(theta.blocks) > len(kept[e].blocks):
            kept[e] = theta
    return tuple((kept[e], e) for e in sorted(kept))


def least_member_rows(partitions, n):
    """The partitions of an n-element carrier as rows that label each
    element by the least member of its class, len x n."""
    return np.array([[p.block_containing(x)[0] for x in range(n)] for p in partitions],
                    dtype=np.int64).reshape(-1, n)


def partition_meet(p, q):
    """The common refinement of two partitions of one carrier."""
    return Partition(list(zip(p.block_of, q.block_of, strict=True)))


def partition_refines(p, q):
    """Whether every block of ``p`` lies inside a block of ``q``."""
    seen = {}
    return all(seen.setdefault(mine, theirs) == theirs
               for mine, theirs in zip(p.block_of, q.block_of, strict=True))


def con_is_closed_under_meets_partitions(lat):
    """Every ``partition_meet`` of two congruences is again a congruence."""
    cons = set(all_partial_congruences(lat))
    return all(partition_meet(p, q) in cons for p in cons for q in cons)


def covers_loops(p):
    """covers[i, j] iff i < j and no k has i < k < j, one triple at a time,
    before the elements between became a matrix product."""
    n = p.n
    covers = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            covers[i, j] = i != j and p.leq[i, j] and not any(
                k not in (i, j) and p.leq[i, k] and p.leq[k, j] for k in range(n))
    return covers


def extrema_rows(p):
    """Sup and inf of every pair of ``p``, one carrier row at a time, as
    ``(tables, missing)``: every temporary is 2 x n x n."""
    n = p.n
    rel = np.stack((p.leq, p.leq.T))  # rel[0][a, x]: a <= x; rel[1][a, x]: x <= a
    sizes = rel.sum(2)[:, None, :]  # sizes of the up-set and the down-set of x
    tables = np.full((2, n, n), UNDEF, dtype=np.int64)
    missing = np.zeros((2, n, n), dtype=bool)
    for a in range(n):
        bounds = rel[:, a, None, :] & rel  # bounds[side, b, x]: x bounds a and b
        count = bounds.sum(2)
        hit = bounds & (count[:, :, None] == sizes)
        found = hit.any(2)
        tables[:, a] = np.where(found, hit.argmax(2), UNDEF)
        missing[:, a] = (count > 0) & ~found
    return tables, missing


def quotient_join_case_branches(lat, e, a, b):
    """The class join of [a] and [b]: [a v b] when the join is defined, else
    the class of the least carrier element identified with the adjoined top,
    or undefined when the top forms a singleton class."""
    if not (lat.is_index(a) and lat.is_index(b)):
        raise BadParameter(f"pair ({a}, {b}) outside carrier of size {lat.n}")
    w = is_congruence_on_partial(lat, e)
    if not w.is_congruence:
        raise NotACongruence(w)
    if lat.join[a, b] != UNDEF:
        return JoinCase(DEFINED, int(e.block_of[int(lat.join[a, b])]))
    ext = lat.extension
    ensure(ext.added_top is not None, "an undefined join forces an adjoined top")
    alpha = w.theta.block_containing(ext.added_top)[0]
    if alpha >= lat.n:
        return JoinCase(UNDEFINED_TOP_SINGLETON)
    return JoinCase(ALPHA, int(e.block_of[alpha]), alpha)


_NAME = re.compile(r"[A-Za-z0-9_]+")


class _Line:
    def __init__(self, lineno, text):
        self.lineno = lineno
        self.text = text
        self.pos = 0

    def done(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos >= len(self.text)

    def fail(self, expected):
        raise ParseError(self.lineno, self.pos + 1, expected)

    def name(self, expected="name"):
        if self.done():
            self.fail(expected)
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.fail(expected)
        self.pos = m.end()
        return m.group(), m.start() + 1

    def literal(self, ch):
        if self.done() or self.text[self.pos] != ch:
            self.fail(f"'{ch}'")
        self.pos += 1

    def end(self):
        if not self.done():
            self.fail("end of line")


def parse_scanner(text):
    """Parse the text format into a Document, with positioned errors."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            lines.append(_Line(i, content))
    after = text_end(text)[0]
    if not lines:
        raise ParseError(after, 1, "'poset' or 'plattice' header")
    head = lines[0]
    word, col = head.name("'poset' or 'plattice' header")
    if word not in ("poset", "plattice"):
        raise ParseError(head.lineno, col, "'poset' or 'plattice' header")
    head.end()
    kind = word
    if len(lines) < 2:
        raise ParseError(after, 1, "'elements' line")
    elems = lines[1]
    word, col = elems.name("'elements'")
    if word != "elements":
        raise ParseError(elems.lineno, col, "'elements'")
    labels = []
    seen = {}
    if elems.done():
        elems.fail("element name")
    while not elems.done():
        lbl, col = elems.name("element name")
        if lbl in seen:
            raise SemanticError(elems.lineno, col, f"duplicate label {shown(lbl)!r}")
        seen[lbl] = len(labels)
        labels.append(lbl)
    rels = []
    cells = []
    cell_keys = set()
    for line in lines[2:]:
        if kind == "poset":
            word, col = line.name("'rel'")
            if word != "rel":
                raise ParseError(line.lineno, col, "'rel'")
            x, cx = line.name("element name")
            line.literal("<")
            y, cy = line.name("element name")
            line.end()
            for lbl, c in ((x, cx), (y, cy)):
                if lbl not in seen:
                    raise SemanticError(line.lineno, c, f"unknown label {shown(lbl)!r}")
            rels.append((x, y))
        else:
            word, col = line.name("'join' or 'meet'")
            if word not in ("join", "meet"):
                raise ParseError(line.lineno, col, "'join' or 'meet'")
            x, cx = line.name("element name")
            y, cy = line.name("element name")
            line.literal("=")
            z, cz = line.name("element name")
            line.end()
            for lbl, c in ((x, cx), (y, cy), (z, cz)):
                if lbl not in seen:
                    raise SemanticError(line.lineno, c, f"unknown label {shown(lbl)!r}")
            key = (word, min(seen[x], seen[y]), max(seen[x], seen[y]))
            if key in cell_keys:
                raise SemanticError(line.lineno, cx,
                                    f"duplicate cell {word} {shown(x)} {shown(y)}")
            cell_keys.add(key)
            if x == y and z != x:
                raise SemanticError(line.lineno, cz, "diagonal cell must repeat its element")
            cells.append((word, x, y, z))
    return Document(kind, tuple(labels), tuple(rels), tuple(cells))
