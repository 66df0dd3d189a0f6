"""Exhaustive generation of small posets and partial lattices up to isomorphism.

Posets are generated by one-point augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26 (1998); Brinkmann & McKay, "Posets
on up to 16 points", Order 19 (2002)): removing a maximal element from a
poset on m points leaves a poset on m - 1 points below which it sat over a
down-set, so level m is level m - 1 with a new last element added above each
down-set of each member (``order.down_sets``). Candidates are deduplicated by
their canonical form, the lexicographically least order matrix over all
relabelings, and each level is returned sorted by it. One enumeration grows
each level once and keeps it frozen. Sizes are capped at six.
"""

from functools import cache
from itertools import permutations

import numpy as np

from .errors import BadParameter, NotPlos
from .order import Poset, _frozen, down_sets
from .plattice import from_plos

_LABELS = "abcdef"
_RELABELINGS = {}


def _relabelings(n):
    """Row k holds, for each cell of the order matrix relabeled by the k-th
    permutation, the flat index of the cell it is read from."""
    if n not in _RELABELINGS:
        perms = np.array(list(permutations(range(n))), dtype=np.intp)
        _RELABELINGS[n] = (perms[:, :, None] * n + perms[:, None, :]).reshape(len(perms), n * n)
    return _RELABELINGS[n]


def canonical_form(leq):
    """Canonical key and matrix: the lexicographically least relabeling.

    The key is the row-major order matrix packed into bytes. For n <= 8 those
    are at most eight bytes, which, right-aligned in a big-endian 64-bit word,
    order numerically exactly as the bytes order lexicographically, so one
    argmin picks the least relabeling. Raises BadParameter for n > 8.
    """
    n = len(leq)
    if n > 8:
        raise BadParameter("canonical_form needs at most 8 elements")
    stacked = leq.ravel()[_relabelings(n)]
    packed = np.packbits(stacked, axis=1)
    words = np.zeros((len(packed), 8), dtype=np.uint8)
    words[:, 8 - packed.shape[1]:] = packed
    best = int(np.argmin(words.view(">u8")))
    return packed[best].tobytes(), stacked[best].reshape(n, n).copy()


@cache
def _level(m):
    """The order matrices of all posets on m elements, frozen and sorted by
    canonical key; level m - 1 is read from this cache, which each
    enumeration starts empty."""
    if m == 1:
        return (_frozen(np.ones((1, 1), dtype=bool)),)
    found = {}
    for leq in _level(m - 1):
        grown = np.eye(m, dtype=bool)
        grown[:-1, :-1] = leq
        for down in down_sets(leq):
            grown[:-1, -1] = down  # the new element m - 1 sits above ``down``
            key, canon = canonical_form(grown)
            found.setdefault(key, canon)
    return tuple(_frozen(found[key]) for key in sorted(found))


def all_posets(n):
    """All posets on n elements up to isomorphism, in canonical order."""
    if not 1 <= n <= 6:
        raise BadParameter("n must be between 1 and 6")
    labels = _LABELS[:n]
    return [Poset(labels, leq) for leq in _level(n)]


def enumerate_partial_lattices(n_max):
    """Stream all partial lattices on at most n_max elements up to isomorphism.

    Each enumerated poset is mapped to its canonical partial lattice in one
    scan, which also rejects posets that fail the bound properties; the
    stream order is deterministic.
    """
    if not 1 <= n_max <= 6:
        raise BadParameter("n_max must be between 1 and 6")
    _level.cache_clear()  # levels are shared within one enumeration only
    for n in range(1, n_max + 1):
        for p in all_posets(n):
            try:
                lat = from_plos(p)
            except NotPlos:
                continue
            yield lat
