"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (Bell-number
enumeration, permutation search, definition scans) and deliberately avoids
the library's own closure and search algorithms. The one exception is
``all_congruences_closure``, the earlier congruence lister kept as the
reference for the join-irreducible one: it reuses ``generate_congruence``,
which the Bell-number oracles check on their own.
"""

from collections import deque
from itertools import permutations

from partlat import Partition, generate_congruence


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


def all_congruences_closure(lat):
    """Every congruence of a total lattice, sorted.

    Principal congruences are generated for each pair, then the set is closed
    under pairwise join (generation over the blockwise union) until stable.
    This avoids filtering the Bell-number space of all partitions.
    """
    n = lat.n
    found = {Partition.identity(n)}
    work = deque()
    for a in range(n):
        for b in range(a + 1, n):
            principal = generate_congruence(lat, Partition.from_blocks(n, [(a, b)]))
            if principal not in found:
                found.add(principal)
                work.append(principal)
    while work:
        theta = work.popleft()
        for other in list(found):
            joined = generate_congruence(lat, theta, other)
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
