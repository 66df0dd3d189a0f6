"""Homomorphisms of partial lattices, kernels, and isomorphism machinery.

A map is a homomorphism when every defined source operation is transported
to a defined target operation with the matching value; it is closed when
target-side definedness also pulls back to the source. An isomorphism is a
bijective closed homomorphism.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .congruence import (
    Partition,
    _quotient,
    _require_congruence,
    is_congruence_on_partial,
    lattice_quotient,
)
from .errors import BadParameter, ImageEscapes, NotClosed, ensure
from .order import first_true
from .plattice import UNDEF, PartialLattice, validate_partial_lattice

NOT_HOM = "not_hom"
HOM = "hom"
CLOSED_HOM = "closed_hom"


def _require_map(mapping, source, target):
    """Raise BadParameter unless ``mapping`` sends every source element to a
    target element."""
    if len(mapping) != source.n:
        raise BadParameter("mapping length differs from source carrier")
    if not all(map(target.is_index, mapping)):
        raise BadParameter("mapping value outside target carrier")


@dataclass(frozen=True)
class Morphism:
    """Total map between carriers; partiality lives in the operations."""

    source: PartialLattice
    target: PartialLattice
    mapping: tuple

    def __post_init__(self):
        _require_map(self.mapping, self.source, self.target)

    @cached_property
    def report(self):
        """The map classified once; ``__post_init__`` already checked it."""
        return _classify(self.mapping, self.source, self.target)


@dataclass(frozen=True)
class HomReport:
    """Classification with a witness pair on failure or non-closedness."""

    kind: str
    witness: tuple | None = None
    op: str | None = None


def check_hom(mapping, source, target):
    """Classify a map as not_hom, hom, or closed_hom.

    The witness is the first offending pair in row-major order, join before
    meet: one whose defined source operation is not matched in the target,
    or, for a plain homomorphism, one whose target operation is defined
    while the source one is not. Raises BadParameter unless the map sends
    every source element to a target element.
    """
    h = tuple(mapping)
    _require_map(h, source, target)
    return _classify(h, source, target)


def _classify(mapping, source, target):
    """``check_hom`` on a map already known to land in the target carrier."""
    broken, extra = hom_masks(np.array([mapping], dtype=np.int64), (source.join, source.meet),
                              (target.join[None], target.meet[None]))
    for kind, (join_mask, meet_mask) in ((NOT_HOM, broken[:, 0]), (HOM, extra[:, 0])):
        pair = first_true(join_mask | meet_mask)
        if pair is not None:
            return HomReport(kind, pair, "join" if join_mask[pair] else "meet")
    return HomReport(CLOSED_HOM)


def hom_masks(h, source, target):
    """Where k maps ``h``, k x n, from the join and meet tables ``source``
    into each map's own ``target`` tables, k x m x m, break or extend an
    operation: [op, i, a, b] of ``broken`` when a . b is defined but h_i(a)
    or h_i(b) is UNDEF or h_i(a) . h_i(b) is not h_i(a . b), of ``extra`` when
    a . b is undefined but h_i(a) . h_i(b) is defined. Masks are 2 x k x n x n, join first."""
    r = np.arange(len(h))[:, None, None]
    image = np.array([tt[r, h[:, :, None], h[:, None, :]] for tt in target])  # h_i(a) . h_i(b)
    st = np.array(source)
    defined = (st != UNDEF)[:, None]
    broken = defined & (image != h[:, st].swapaxes(0, 1))
    if UNDEF in h:
        broken |= defined & ((h == UNDEF)[:, :, None] | (h == UNDEF)[:, None, :])
    return broken, ~defined & (image != UNDEF)


def kernel(h):
    """Partition of the source carrier by equal images."""
    return Partition(h.mapping)


def canonical_projection(lat, e):
    """The block map x to [x] from a structure onto its quotient.

    Always a homomorphism; closed exactly when each adjoined bound of the
    extension forms a singleton class of the generated congruence.
    """
    return Morphism(lat, _quotient(lat, _require_congruence(lat, e)), tuple(e.block_of))


def extend_hom(h):
    """Extend a closed homomorphism to the two-point extensions.

    Carrier elements go through the original map; an adjoined bound goes to
    the corresponding adjoined bound of the target. The restriction of the
    result back to the source carrier is the original map.

    Closedness forces that target bound. L* adjoins a bottom exactly when
    some a ^ b is undefined in L; as h is closed, h(a) ^ h(b) is then
    undefined in K, so K* adjoins a bottom too. The top is dual.
    """
    if h.report.kind != CLOSED_HOM:
        raise NotClosed(h.report)
    x1 = h.source.extension
    x2 = h.target.extension
    # Both carriers are star prefixes, followed by the bottom, then the top.
    mapping = list(h.mapping)
    if x1.added_bottom is not None:
        mapping.append(x2.added_bottom)
    if x1.added_top is not None:
        mapping.append(x2.added_top)
    hstar = Morphism(x1.star, x2.star, tuple(mapping))
    ensure(hstar.report.kind != NOT_HOM, "extended map must be a homomorphism")
    return hstar


def restrict_hom(hstar, source, target):
    """Restrict a homomorphism between the two extensions back to the carriers.

    Raises BadParameter unless ``hstar`` is a homomorphism from L* to K*,
    the extensions of ``source`` and ``target``, and ImageEscapes when some
    carrier element is sent to an adjoined bound of K*.

    The restriction is a homomorphism unchecked: where a . b is defined in L,
    hstar(a) . hstar(b) = hstar(a . b) in K* is a carrier element, and by the
    case law K*'s cell at a carrier pair is K's where defined, else a bound.
    """
    if hstar.source != source.extension.star or hstar.target != target.extension.star:
        raise BadParameter("star map is for other structures")
    if hstar.report.kind == NOT_HOM:
        raise BadParameter("star map is not a homomorphism")
    # Both carriers are star prefixes, so the restriction is a prefix too.
    mapping = hstar.mapping[:source.n]
    escaped = first_true(np.array(mapping) >= target.n)
    if escaped is not None:
        raise ImageEscapes((escaped[0], mapping[escaped[0]]))
    return Morphism(source, target, tuple(mapping))


@dataclass(frozen=True)
class IsoWitness:
    """Mutually inverse closed homomorphisms."""

    forward: Morphism
    backward: Morphism


def _verify_iso(fwd):
    """Invert and check; both directions must be closed homomorphisms."""
    n = fwd.source.n
    if fwd.target.n != n or len(set(fwd.mapping)) != n:
        return None
    bwd = Morphism(fwd.target, fwd.source, tuple(np.argsort(fwd.mapping).tolist()))
    if fwd.report.kind != CLOSED_HOM or bwd.report.kind != CLOSED_HOM:
        return None
    return IsoWitness(fwd, bwd)


@dataclass(frozen=True)
class HomTheoremReport:
    """Kernel, image, quotient, and the isomorphism between the last two."""

    kernel: Partition
    image: PartialLattice
    quotient: PartialLattice
    iso: IsoWitness


def _image_sublattice(h):
    """Partial lattice on the image carrier with operations as in the target,
    and the position of each target element in it (UNDEF off the image).

    Closedness keeps every defined value inside the image.
    """
    present = np.unique(h.mapping)
    labels = tuple(h.target.labels[t] for t in present)
    pos = np.full(h.target.n + 1, UNDEF, dtype=np.int64)  # pos[UNDEF] stays UNDEF
    pos[present] = np.arange(len(present))
    tables = []
    for table in (h.target.join, h.target.meet):
        cell = table[present[:, None], present]
        out = pos[cell]
        ensure(((out != UNDEF) | (cell == UNDEF)).all(), "closed image must be operation closed")
        tables.append(out)
    return validate_partial_lattice(labels, *tables), pos


def hom_theorem_check(h):
    """Image of a closed homomorphism versus the quotient by its kernel.

    Verifies the kernel is a congruence and returns the verified isomorphism
    pair between image and quotient.

    Each adjoined bound of L* is a singleton class of theta(ker h), the
    congruence ker h generates on L*, so the projection onto the quotient
    is closed: h* = ``extend_hom(h)`` sends each adjoined bound of L* to K*'s
    matching bound and no carrier element there, so the congruence ker h*
    has singleton bounds and contains ker h, hence theta(ker h).
    """
    if h.report.kind != CLOSED_HOM:
        raise NotClosed(h.report)
    ker = kernel(h)
    w = is_congruence_on_partial(h.source, ker)
    ensure(w.is_congruence, "kernel of a closed homomorphism must be a congruence")
    image, pos = _image_sublattice(h)
    quot = _quotient(h.source, w)
    fwd_map = np.empty(image.n, dtype=np.int64)
    fwd_map[pos[list(h.mapping)]] = ker.block_of
    iso = _verify_iso(Morphism(image, quot, tuple(fwd_map.tolist())))
    ensure(iso is not None, "image must be isomorphic to the kernel quotient")
    return HomTheoremReport(ker, image, quot, iso)


def quotient_extension_iso(lat, e):
    """Exchange law: extending the quotient agrees with quotienting the extension.

    Builds the extension of ``quotient(lat, e)`` and the quotient of the
    extension by the generated congruence, then verifies the block map that
    identifies them. A verification failure would be a library bug, so it
    aborts loudly instead of returning a value.

    (L/E)* adjoins a bound only where L* does. A defined a ^ b of L is a
    carrier element, so [a] ^ [b] is its class and defined; an undefined
    [a] ^ [b] thus needs an undefined a ^ b, which adjoins a bottom to L*.
    The top is dual.
    """
    w = _require_congruence(lat, e)
    ext = lat.extension
    qx = _quotient(lat, w).extension
    big = lattice_quotient(ext.star, w.theta)
    # Star prefixes again: block k of e, then the bottom, then the top.
    mapping = [w.theta.block_of[block[0]] for block in e.blocks]
    if qx.added_bottom is not None:
        mapping.append(w.theta.block_of[ext.added_bottom])
    if qx.added_top is not None:
        mapping.append(w.theta.block_of[ext.added_top])
    iso = _verify_iso(Morphism(qx.star, big, tuple(mapping)))
    ensure(iso is not None, "quotient extension exchange failed to verify")
    return iso


def _signatures(p):
    return list(zip(p.leq.sum(0).tolist(), p.leq.sum(1).tolist(),
                    p.covers.sum(0).tolist(), p.covers.sum(1).tolist()))


def order_isomorphism(a, b):
    """Backtracking search for an order isomorphism between two posets.

    Candidates, from one dict of b's per-element signatures (ideal and filter
    sizes, cover degrees), keep the search trivial at small scale. A stack of
    next-candidate positions, not recursion, holds the search, and a
    candidate is checked against the elements placed with one row compare.
    """
    if a.n != b.n:
        return None
    siga, sigb = _signatures(a), _signatures(b)
    if sorted(siga) != sorted(sigb):
        return None
    by_sig = {}
    for j, sig in enumerate(sigb):
        by_sig.setdefault(sig, []).append(j)
    candidates = [by_sig[sig] for sig in siga]
    order = sorted(range(a.n), key=lambda i: len(candidates[i]))
    # [x, y]: 1 if x <= y, plus 2 if y <= x. want[k]: the k-th placed
    # element's row against those placed before it.
    rel_a, rel_b = ((p.leq + 2 * p.leq.T).astype(np.int8) for p in (a, b))
    want = [row[:k].tobytes() for k, row in enumerate(rel_a[np.ix_(order, order)])]
    image = np.zeros(a.n, dtype=np.int64)  # image[k]: where the k-th placed element goes
    used = [False] * b.n
    stack = [0]  # per placed depth, the position of its next candidate
    while 0 < len(stack) <= a.n:
        k = len(stack) - 1
        cands, p, placed = candidates[order[k]], stack[k], image[:k]
        if p:  # back from a dead end: free this depth's last candidate
            used[image[k]] = False
        while p < len(cands) and (used[cands[p]]
                                  or rel_b[cands[p]].take(placed).tobytes() != want[k]):
            p += 1
        if p == len(cands):
            stack.pop()
            continue
        stack[k] = p + 1
        image[k] = cands[p]
        used[cands[p]] = True
        stack.append(0)
    if not stack:
        return None
    return tuple(image[np.argsort(order)].tolist())


def find_isomorphism(a, b):
    """Isomorphism witness between two lattices, or None.

    An order isomorphism of lattices automatically preserves the operations;
    the returned witness is verified anyway.
    """
    mapping = order_isomorphism(a.order, b.order)
    if mapping is None:
        return None
    iso = _verify_iso(Morphism(a, b, mapping))
    ensure(iso is not None, "order isomorphism of lattices must preserve operations")
    return iso
