"""Partial lattices: axiom validation, induced order, and the poset correspondence.

Operation tables are n x n integer arrays whose cells hold element indices,
with ``UNDEF`` marking an undefined cell. A compound term such as
``(i v j) v k`` counts as defined only when every intermediate value is.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AxiomViolation, BadParameter, NotPlos
from .order import (
    UNDEF,
    Carrier,
    Lattice,
    Poset,
    _check_labels,
    _frozen,
    distributive_mismatch,
    extrema,
    first_mismatch,
    first_true,
    plos_report,
    sink_table,
)

BOTH_TOTAL = "both_total"
JOIN_PARTIAL = "join_partial"
MEET_PARTIAL = "meet_partial"
BOTH_PARTIAL = "both_partial"


class PartialLattice(Carrier):
    """Partial algebra (L, v, ^) with strongly idempotent, commutative,
    associative operations tied together by the duality conditions.

    The induced order, the two-point extension, the congruence witnesses and
    the congruence set depend only on the tables, so each is built once, on
    first access, by its module-level builder.
    """

    def __init__(self, labels, join, meet):
        self.labels = tuple(labels)
        self.join = _frozen(np.array(join, dtype=np.int64))
        self.meet = _frozen(np.array(meet, dtype=np.int64))

    @cached_property
    def order(self):
        """The induced order, as built by ``induced_order``."""
        return induced_order(self)

    @cached_property
    def extension(self):
        """The two-point extension, as built by ``two_point_extension``."""
        from . import extension

        return extension.two_point_extension(self)

    @cached_property
    def congruence_witnesses(self):
        """One witness per congruence, as kept by ``congruence_witnesses``."""
        from . import congruence

        return congruence.congruence_witnesses(self)

    @cached_property
    def congruences(self):
        """All congruences, as listed by ``all_partial_congruences``."""
        from . import congruence

        return congruence.all_partial_congruences(self)

    def __eq__(self, other):
        return (
            isinstance(other, PartialLattice)
            and self.labels == other.labels
            and bool((self.join == other.join).all())
            and bool((self.meet == other.meet).all())
        )

    def __repr__(self):
        defined = int((self.join != UNDEF).sum() + (self.meet != UNDEF).sum())
        return f"PartialLattice({' '.join(self.labels)}; {defined} defined cells)"


def _as_table(n, table):
    if isinstance(table, np.ndarray):
        return np.array(table, dtype=np.int64)
    arr = np.full((n, n), UNDEF, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            v = table[i][j]
            arr[i, j] = UNDEF if v is None else v
    return arr


def validate_partial_lattice(labels, join, meet):
    """Check the partial lattice axioms and return the validated structure.

    Checks run cheapest first: strong idempotency, strong commutativity, the
    duality conditions, then strong associativity. The first violated axiom
    is reported with a witness tuple.
    """
    labels = tuple(labels)
    _check_labels(labels)
    n = len(labels)
    jt = _as_table(n, join)
    mt = _as_table(n, meet)
    for t, name in ((jt, "join"), (mt, "meet")):
        if t.shape != (n, n):
            raise BadParameter(f"{name} table shape does not match carrier")
        cell = first_true((t < UNDEF) | (t >= n))
        if cell is not None:
            raise BadParameter(f"{name}[{cell[0]},{cell[1]}] is not an element index")
    idx = np.arange(n)
    cell = first_true((jt.diagonal() != idx) | (mt.diagonal() != idx))
    if cell is not None:
        raise AxiomViolation("idempotency", cell, labels[cell[0]])
    pair = first_true(np.triu((jt != jt.T) | (mt != mt.T), 1))
    if pair is not None:
        raise AxiomViolation("commutativity", pair)
    join_dual = (jt == idx[:, None]) & (mt != idx)
    pair = first_true(join_dual | ((mt == idx[:, None]) & (jt != idx)))
    if pair is not None:
        raise AxiomViolation("duality", pair, "join gives i but meet is not j"
                             if join_dual[pair] else "meet gives i but join is not j")
    for t, name in ((jt, "join"), (mt, "meet")):
        s = sink_table(t)  # (x . y) . z against x . (y . z)
        triple = first_mismatch(n, lambda x: s[s[x, :n], :n], lambda x: s[x][s[:n, :n]])
        if triple is not None:
            raise AxiomViolation("associativity", triple, name)
    return PartialLattice(labels, jt, mt)


def induced_order(lat):
    """The order x <= y iff x v y = y (equivalently x ^ y = x)."""
    return Poset(lat.labels, lat.join == np.arange(lat.n)[None, :])


def from_plos(p):
    """Canonical partial lattice on ``p``: sup where U(x, y) is nonempty and
    inf where L(x, y) is, everything else undefined."""
    tables, missing = extrema(p)
    report = plos_report(p, missing)
    if not report:
        raise NotPlos(report)
    return PartialLattice(p.labels, *tables)


def lp_roundtrip(lat):
    """Whether from_plos(induced_order(lat)) reproduces lat cell for cell."""
    return from_plos(lat.order) == lat


def pl_roundtrip(p):
    """Whether induced_order(from_plos(p)) reproduces p matrix for matrix."""
    return from_plos(p).order == p


@dataclass(frozen=True)
class IdentityReport:
    """Result of scanning one of the fixed identity schemas."""

    schema: str | None
    mode: str
    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


def _check_mode(mode):
    if mode not in ("weak", "strong"):
        raise BadParameter(f"unknown identity mode {mode!r}")


def check_absorption(lat, mode="weak"):
    """Scan (x v y) ^ x and (x ^ y) v x against the bare x.

    Weak mode requires equality whenever the compound side happens to be
    defined; strong mode also requires it to be defined for every pair, since
    the right side always is.
    """
    _check_mode(mode)
    schemas = (
        ("absorption_join", lat.join, lat.meet),
        ("absorption_meet", lat.meet, lat.join),
    )
    n = lat.n
    x = np.arange(n)[:, None]
    for schema, inner, outer in schemas:
        lhs = sink_table(outer)[sink_table(inner)[:n, :n], x]  # [x, y]: (x . y) . x
        pair = first_true((lhs != x) & ((lhs < n) | (mode == "strong")))
        if pair is not None:
            return IdentityReport(schema, mode, False, pair)
    return IdentityReport(None, mode, True)


def check_distributivity(lat, mode="strong"):
    """Scan x ^ (y v z) against (x ^ y) v (x ^ z), and the dual schema."""
    _check_mode(mode)
    schemas = (
        ("distributive_meet_over_join", lat.join, lat.meet),
        ("distributive_join_over_meet", lat.meet, lat.join),
    )
    for schema, jn, mt in schemas:
        triple = distributive_mismatch(jn, mt, mode == "strong")
        if triple is not None:
            return IdentityReport(schema, mode, False, triple)
    return IdentityReport(None, mode, True)


def is_total(lat):
    """Classify which of the two operations have undefined cells."""
    join_partial = bool((lat.join == UNDEF).any())
    meet_partial = bool((lat.meet == UNDEF).any())
    if join_partial and meet_partial:
        return BOTH_PARTIAL
    if join_partial:
        return JOIN_PARTIAL
    if meet_partial:
        return MEET_PARTIAL
    return BOTH_TOTAL


def from_lattice(k):
    """View a total lattice as a partial lattice with everywhere-defined tables."""
    return PartialLattice(k.labels, k.join, k.meet)


def to_lattice(lat):
    """Repackage a total partial lattice as a Lattice."""
    if is_total(lat) != BOTH_TOTAL:
        raise BadParameter("operations are not total")
    return Lattice(lat.order, lat.join, lat.meet)


def antichain(n):
    """The n-element antichain: only diagonal cells are defined."""
    if n < 1:
        raise BadParameter("antichain needs n >= 1")
    labels = tuple(f"a{i + 1}" for i in range(n))
    diag = np.full((n, n), UNDEF, dtype=np.int64)
    np.fill_diagonal(diag, np.arange(n))
    return PartialLattice(labels, diag, diag)
