"""Homomorphisms of partial lattices, kernels, and isomorphism machinery.

A map is a homomorphism when every defined source operation is transported
to a defined target operation with the matching value; it is closed when
target-side definedness also pulls back to the source. An isomorphism is a
bijective closed homomorphism.
"""

from dataclasses import dataclass

import numpy as np

from .congruence import (
    Partition,
    _require_congruence,
    is_congruence_on_partial,
    lattice_quotient,
)
from .errors import (
    BadParameter,
    ImageEscapes,
    NotClosed,
    SideConditionFails,
    ensure,
)
from .plattice import UNDEF, PartialLattice, from_lattice, validate_partial_lattice

NOT_HOM = "not_hom"
HOM = "hom"
CLOSED_HOM = "closed_hom"


@dataclass(frozen=True)
class Morphism:
    """Total map between carriers; partiality lives in the operations."""

    source: PartialLattice
    target: PartialLattice
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise BadParameter("mapping length differs from source carrier")
        if any(not 0 <= v < self.target.n for v in self.mapping):
            raise BadParameter("mapping value outside target carrier")

    def __call__(self, i):
        return self.mapping[i]


@dataclass(frozen=True)
class HomReport:
    """Classification with a witness pair on failure or non-closedness."""

    kind: str
    witness: tuple | None = None
    op: str | None = None


def check_hom(mapping, source, target):
    """Classify a map as not_hom, hom, or closed_hom.

    The witness is the first offending pair: one whose defined source
    operation is not matched in the target, or, for a plain homomorphism,
    one whose target operation is defined while the source one is not.
    """
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


def kernel(h):
    """Partition of the source carrier by equal images."""
    return Partition(h.mapping)


def canonical_projection(lat, e, witness=None):
    """The block map x to [x] from a structure onto its quotient.

    Always a homomorphism; closed exactly when each adjoined bound of the
    extension forms a singleton class of the generated congruence.
    """
    w = _require_congruence(lat, e, witness)
    return Morphism(lat, w.quot, tuple(e.block_of))


def extend_hom(h):
    """Extend a closed homomorphism to the two-point extensions.

    Carrier elements go through the original map; an adjoined bound goes to
    the corresponding adjoined bound of the target, whose existence is forced
    by closedness. The restriction of the result back to the source carrier
    is the original map.
    """
    report = check_hom(h.mapping, h.source, h.target)
    if report.kind != CLOSED_HOM:
        raise NotClosed(report)
    x1 = h.source.extension
    x2 = h.target.extension
    mapping = [None] * x1.star.n
    for i in range(h.source.n):
        mapping[x1.embed[i]] = x2.embed[h.mapping[i]]
    if x1.added_bottom is not None:
        ensure(x2.added_bottom is not None, "closedness forces a target bottom")
        mapping[x1.added_bottom] = x2.added_bottom
    if x1.added_top is not None:
        ensure(x2.added_top is not None, "closedness forces a target top")
        mapping[x1.added_top] = x2.added_top
    hstar = Morphism(from_lattice(x1.star), from_lattice(x2.star), tuple(mapping))
    ensure(check_hom(hstar.mapping, hstar.source, hstar.target).kind != NOT_HOM,
           "extended map must be a homomorphism")
    return hstar


def restrict_hom(hstar, source, target):
    """Restrict a homomorphism between the two extensions back to the carriers.

    Raises ImageEscapes when some carrier element is sent to an adjoined
    bound of the target extension.
    """
    if check_hom(hstar.mapping, hstar.source, hstar.target).kind == NOT_HOM:
        raise BadParameter("star map is not a homomorphism")
    x1 = source.extension
    x2 = target.extension
    inv2 = {s: i for i, s in enumerate(x2.embed)}
    mapping = []
    for i in range(source.n):
        s = hstar.mapping[x1.embed[i]]
        if s not in inv2:
            raise ImageEscapes((i, s))
        mapping.append(inv2[s])
    h = Morphism(source, target, tuple(mapping))
    ensure(check_hom(h.mapping, h.source, h.target).kind != NOT_HOM,
           "restricted map must be a homomorphism")
    return h


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
    inverse = [0] * n
    for i, v in enumerate(fwd.mapping):
        inverse[v] = i
    bwd = Morphism(fwd.target, fwd.source, tuple(inverse))
    if check_hom(fwd.mapping, fwd.source, fwd.target).kind != CLOSED_HOM:
        return None
    if check_hom(bwd.mapping, bwd.source, bwd.target).kind != CLOSED_HOM:
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
    """Partial lattice on the image carrier with operations as in the target.

    Closedness keeps every defined value inside the image.
    """
    present = sorted(set(h.mapping))
    labels = tuple(h.target.labels[t] for t in present)
    pos = {t: k for k, t in enumerate(present)}
    m = len(present)
    jt = np.full((m, m), UNDEF, dtype=np.int64)
    mt = np.full((m, m), UNDEF, dtype=np.int64)
    for table, out in ((h.target.join, jt), (h.target.meet, mt)):
        for ka, a in enumerate(present):
            for kb, b in enumerate(present):
                v = int(table[a, b])
                if v != UNDEF:
                    ensure(v in pos, "closed image must be operation closed")
                    out[ka, kb] = pos[v]
    return validate_partial_lattice(labels, jt, mt), pos


def hom_theorem_check(h):
    """Image of a closed homomorphism versus the quotient by its kernel.

    Verifies the kernel is a congruence, requires every adjoined bound of the
    source extension to form a singleton class of the generated congruence,
    and returns the verified isomorphism pair between image and quotient.
    """
    report = check_hom(h.mapping, h.source, h.target)
    if report.kind != CLOSED_HOM:
        raise NotClosed(report)
    ker = kernel(h)
    w = is_congruence_on_partial(h.source, ker)
    ensure(w.is_congruence, "kernel of a closed homomorphism must be a congruence")
    ext = w.extension
    for bound, name in ((ext.added_bottom, "bottom"), (ext.added_top, "top")):
        if bound is not None and len(w.theta.block_containing(bound)) != 1:
            raise SideConditionFails(name)
    image, pos = _image_sublattice(h)
    quot = w.quot
    fwd_map = [None] * image.n
    for i in range(h.source.n):
        fwd_map[pos[h.mapping[i]]] = ker.block_of[i]
    iso = _verify_iso(Morphism(image, quot, tuple(fwd_map)))
    ensure(iso is not None, "image must be isomorphic to the kernel quotient")
    return HomTheoremReport(ker, image, quot, iso)


def quotient_extension_iso(lat, e, witness=None):
    """Exchange law: extending the quotient agrees with quotienting the extension.

    Builds the extension of ``quotient(lat, e)`` and the quotient of the
    extension by the generated congruence, then verifies the block map that
    identifies them. A verification failure would be a library bug, so it
    aborts loudly instead of returning a value.
    """
    w = _require_congruence(lat, e, witness)
    ext = w.extension
    qx = w.quot.extension
    big = lattice_quotient(ext.star, w.theta)
    mapping = [None] * qx.star.n
    for block_id, block in enumerate(e.blocks):
        mapping[qx.embed[block_id]] = w.theta.block_of[ext.embed[block[0]]]
    if qx.added_bottom is not None:
        ensure(ext.added_bottom is not None, "a quotient bottom needs a source bottom")
        mapping[qx.added_bottom] = w.theta.block_of[ext.added_bottom]
    if qx.added_top is not None:
        ensure(ext.added_top is not None, "a quotient top needs a source top")
        mapping[qx.added_top] = w.theta.block_of[ext.added_top]
    iso = _verify_iso(Morphism(from_lattice(qx.star), from_lattice(big), tuple(mapping)))
    ensure(iso is not None, "quotient extension exchange failed to verify")
    return iso


def _signatures(p):
    down = p.leq.sum(axis=0)
    up = p.leq.sum(axis=1)
    cov_down = p.covers.sum(axis=0)
    cov_up = p.covers.sum(axis=1)
    return [tuple(int(v) for v in row) for row in zip(down, up, cov_down, cov_up)]


def order_isomorphism(a, b):
    """Backtracking search for an order isomorphism between two posets.

    Candidates are pruned by per-element signatures (ideal and filter sizes,
    cover degrees), which keeps the search trivial at small scale.
    """
    if a.n != b.n:
        return None
    siga, sigb = _signatures(a), _signatures(b)
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


def find_isomorphism(a, b):
    """Isomorphism witness between two lattices, or None.

    An order isomorphism of lattices automatically preserves the operations;
    the returned witness is verified anyway.
    """
    mapping = order_isomorphism(a.poset, b.poset)
    if mapping is None:
        return None
    iso = _verify_iso(Morphism(from_lattice(a), from_lattice(b), mapping))
    ensure(iso is not None, "order isomorphism of lattices must preserve operations")
    return iso
