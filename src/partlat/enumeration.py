"""Exhaustive generation of small posets and partial lattices up to isomorphism.

Every finite poset admits a linear extension, so candidates are drawn from
strictly upper-triangular relation masks, filtered for transitivity, and
deduplicated by the lexicographically least order matrix over all
relabelings. Sizes are capped at six, where this stays instant.
"""

from itertools import permutations

import numpy as np

from .errors import BadParameter, NotPlos
from .order import Poset
from .plattice import from_plos

_LABELS = "abcdef"
_PERM_CACHE = {}


def _perms(n):
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(permutations(range(n))), dtype=np.intp)
    return _PERM_CACHE[n]


def canonical_form(leq):
    """Canonical key and matrix: the lexicographically least relabeling."""
    n = len(leq)
    perms = _perms(n)
    stacked = leq[perms[:, :, None], perms[:, None, :]]
    packed = np.packbits(stacked.reshape(len(perms), n * n), axis=1)
    best = min(range(len(perms)), key=lambda k: packed[k].tobytes())
    return packed[best].tobytes(), stacked[best]


def all_posets(n):
    """All posets on n elements up to isomorphism, in canonical order."""
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
        key, canon = canonical_form(leq)
        if key not in found:
            found[key] = canon
    labels = _LABELS[:n]
    return [Poset(labels, found[key]) for key in sorted(found)]


def enumerate_partial_lattices(n_max):
    """Stream all partial lattices on at most n_max elements up to isomorphism.

    Each enumerated poset is mapped to its canonical partial lattice in one
    scan, which also rejects posets that fail the bound properties; the
    stream order is deterministic.
    """
    if not 1 <= n_max <= 6:
        raise BadParameter("n_max must be between 1 and 6")
    for n in range(1, n_max + 1):
        for p in all_posets(n):
            try:
                lat = from_plos(p)
            except NotPlos:
                continue
            yield lat
