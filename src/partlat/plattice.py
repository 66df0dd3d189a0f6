"""Partial lattices: axiom validation, induced order, and the poset correspondence.

Operation tables are n x n integer arrays whose cells hold element indices,
with ``UNDEF`` marking an undefined cell. A compound term such as
``(i v j) v k`` counts as defined only when every intermediate value is.
The ``PartialLattice`` type itself lives in ``order``, beside ``Poset`` and
its subclass ``Lattice``, and is re-exported here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AxiomViolation, BadParameter, NotPlos
from .order import (
    UNDEF,
    Lattice,
    PartialLattice,
    Poset,
    _check_labels,
    _frozen,
    _total_order,
    first_true,
    is_integer_in,
    is_plos,
    sink_table,
)

BOTH_TOTAL = "both_total"
JOIN_PARTIAL = "join_partial"
MEET_PARTIAL = "meet_partial"
BOTH_PARTIAL = "both_partial"


def first_true_rows(mask):
    """{row: index tuple of its first True cell in row-major order} for each
    row of ``mask`` along its leading axis that has one: one ``first_true``
    per such row, and one more."""
    found, start = {}, 0
    while start < len(mask):
        cell = first_true(mask[start:])
        if cell is None:
            break
        found[start + cell[0]] = cell[1:]
        start += cell[0] + 1
    return found


def first_mismatches(k, n, m, lhs, rhs, strong=True):
    """For each of k rows, the first (x, y, z) in row-major order where two
    compound terms differ, or None.

    ``lhs(xs)`` and ``rhs(xs)`` give a term's values over (y, z) for a slice
    ``xs`` of the n values of x, k x b x m x m, as many x as keep k b m^2
    within 2^12 cells and at least one. Strong mode counts any difference,
    in definedness too, so an undefined value may be UNDEF, as in the
    associativity gathers; weak mode compares only where both are defined
    and needs the sink index n for undefined, as distributivity passes it.
    The scan stops once every row has one.
    """
    found = [None] * k
    step = max(1, 2**12 // max(k * m * m, 1))
    for start in range(0, n, step):
        if None not in found:
            break
        xs = slice(start, start + step)
        left, right = lhs(xs), rhs(xs)
        differ = left != right
        if not strong:
            differ &= (left < n) & (right < n)
        if first_true(differ) is not None:  # else no row differs in this block
            for i, (x, *cell) in first_true_rows(differ.reshape(k, -1, m, m)).items():
                found[i] = found[i] or (start + x, *cell)
    return found


def distributive_mismatch(jn, mt, strong=True):
    """First (x, y, z) where x ^ (y v z) and (x ^ y) v (x ^ z) differ, both
    read from ``sink_table``s by flat gathers."""
    n = len(jn)
    js, ms = sink_table(jn), sink_table(mt)
    return first_mismatches(
        1, n, n, lambda xs: ms[xs].take(js[:n, :n], axis=1),
        lambda xs: js.take(ms[xs, :n, None] * (n + 1) + ms[xs, None, :n]), strong)[0]


def _as_table(n, table, name):
    """The table as an n x n int64 array, UNDEF for a None cell. Raises
    BadParameter for a shape that does not match the carrier, an array of
    non-integer dtype, or a cell that is neither None nor an int in range."""
    if isinstance(table, np.ndarray):
        if not np.issubdtype(table.dtype, np.integer):
            raise BadParameter(f"{name} table has dtype {table.dtype}, not an integer type")
        if table.shape != (n, n):
            raise BadParameter(f"{name} table shape does not match carrier")
        return table.astype(np.int64)
    rows = list(table)
    if len(rows) != n or not all(hasattr(row, "__len__") and len(row) == n for row in rows):
        raise BadParameter(f"{name} table shape does not match carrier")
    arr = np.full((n, n), UNDEF, dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v is None:
                continue
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not UNDEF <= v < n:
                raise BadParameter(f"{name}[{i},{j}] is not an element index")
            arr[i, j] = v
    return arr


def validate_partial_lattice(labels, join, meet):
    """Check the partial lattice axioms and return the validated structure.

    The tables are checked by ``axiom_violations`` as a stack of one, and
    its violation, if any, is raised.
    """
    labels = tuple(labels)
    _check_labels(labels)
    n = len(labels)
    jt = _as_table(n, join, "join")
    mt = _as_table(n, meet, "meet")
    error = axiom_violations(lambda i, x: labels[x], jt[None], mt[None], np.array([n]))[0]
    if error is not None:
        raise error
    return PartialLattice(labels, _frozen(jt), _frozen(mt))


def axiom_violations(label, join, meet, sizes):
    """The partial lattice axioms over a stack: for each row i of the
    k x s x s ``join`` and ``meet``, whose carrier is 0..sizes[i]-1 and
    whose cells past it hold UNDEF, the first violation as an exception, or
    None.

    Checks run cheapest first: every cell an element index, strong
    idempotency, strong commutativity, the duality conditions, then strong
    associativity of the join and of the meet. The first violated axiom is
    reported with a witness tuple; ``label(i, x)`` names x in row i.
    Associativity scans blocks of x, and only the rows still passing.
    """
    k, s = join.shape[:2]
    idx = np.arange(s)
    errors = [None] * k

    def record(mask, error):
        for i, cell in first_true_rows(mask).items():
            errors[i] = errors[i] or error(i, cell)

    for t, name in ((join, "join"), (meet, "meet")):
        record((t < UNDEF) | (t >= sizes[:, None, None]), lambda i, cell: BadParameter(
            f"{name}[{cell[0]},{cell[1]}] is not an element index"))
    diagonals = (join.diagonal(0, 1, 2) != idx) | (meet.diagonal(0, 1, 2) != idx)
    record((idx < sizes[:, None]) & diagonals,
           lambda i, cell: AxiomViolation("idempotency", cell, label(i, cell[0])))
    # The mask is symmetric and false on the diagonal, so its first cell lies
    # above the diagonal.
    record((join != join.transpose(0, 2, 1)) | (meet != meet.transpose(0, 2, 1)),
           lambda i, pair: AxiomViolation("commutativity", pair))
    join_dual = (join == idx[:, None]) & (meet != idx)
    record(join_dual | ((meet == idx[:, None]) & (join != idx)), lambda i, pair: AxiomViolation(
        "duality", pair, "join gives i but meet is not j" if join_dual[i][pair]
        else "meet gives i but join is not j"))
    for t, name in ((join, "join"), (meet, "meet")):
        rows = [i for i in range(k) if errors[i] is None]
        # (x . y) . z against x . (y . z). Each table gains a last row and
        # column of UNDEF, which index -1 reads, so a term through an
        # undefined cell stays UNDEF. The tables are read as one flat table
        # in which row y of table r is row r * (s + 1) + y; there UNDEF reads
        # the extra row or column of the table before, which is UNDEF too.
        # x . (y . z) is read as (y . z) . x from the transpose, so a block of
        # x needs no index arithmetic: rows here passed strong commutativity,
        # so a . x = x . a, and an UNDEF y . z still reads an UNDEF padding row.
        ext = np.full((len(rows), s + 1, s + 1), UNDEF)
        ext[:, :s, :s] = t.take(rows, axis=0)
        flat = ext.reshape(-1, s + 1)
        cols = flat.T.copy()
        at = ext + np.arange(0, len(flat), s + 1)[:, None, None]
        triples = first_mismatches(len(rows), s, s + 1, lambda xs: flat.take(at[:, xs], axis=0),
                                   lambda xs: cols[xs].take(at, axis=1).swapaxes(0, 1))
        for i, triple in zip(rows, triples):
            if triple is not None:
                errors[i] = AxiomViolation("associativity", triple, name)
    return errors


def induced_order(lat):
    """The order x <= y iff x v y = y (equivalently x ^ y = x)."""
    return Poset(lat.labels, lat.join == np.arange(lat.n)[None, :])


def from_plos(p):
    """Canonical partial lattice on ``p``: sup where U(x, y) is nonempty and
    inf where L(x, y) is, everything else undefined. Both tables are read
    from ``p.extrema``, the scan ``is_plos`` reads."""
    report = is_plos(p)
    if not report:
        raise NotPlos(report)
    return PartialLattice(p.labels, *p.extrema[0])


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


def to_lattice(lat):
    """``lat`` as a Lattice: itself when it is one, else repackaged once
    ``order._total_order`` finds both tables total (BadParameter if not)."""
    return lat if isinstance(lat, Lattice) else Lattice(_total_order(lat), lat.join, lat.meet)


def antichain(n):
    """The n-element antichain: only diagonal cells are defined."""
    if not is_integer_in(n, 1):
        raise BadParameter(f"antichain needs an integer n >= 1, not {n!r}")
    labels = tuple(f"a{i + 1}" for i in range(n))
    diag = np.full((n, n), UNDEF, dtype=np.int64)
    np.fill_diagonal(diag, np.arange(n))
    return PartialLattice(labels, diag, diag)
