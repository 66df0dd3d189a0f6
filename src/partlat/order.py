"""Finite posets, bound sets, partial lattices and lattices.

Elements are dense indices 0..n-1 everywhere; labels exist for I/O only.
Order data is a read-only boolean matrix ``leq`` with ``leq[i, j]`` meaning
``i <= j``.
"""

from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParameter,
    CycleDetected,
    DuplicateLabel,
    NotALattice,
    UnknownLabel,
)

BOTTOM_LABEL = "⊥*"
TOP_LABEL = "⊤*"
RESERVED_LABELS = frozenset((BOTTOM_LABEL, TOP_LABEL))

# Marks an undefined operation cell, and a pair without sup or inf.
UNDEF = -1


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def first_true(mask):
    """Index tuple of the first True cell in row-major order, or None."""
    flat = int(mask.argmax())  # argmax finds the first True, or 0 if there is none
    if not mask.flat[flat]:
        return None
    return tuple(int(v) for v in np.unravel_index(flat, mask.shape))


def is_integer_in(value, low, high=None):
    """Whether ``value`` is an integer in low..high (no upper end when
    ``high`` is None) that numpy will not wrap, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high))


def _check_labels(labels):
    if not labels:
        raise BadParameter("carrier must be nonempty")
    seen = set()
    for lbl in labels:
        if lbl in seen:
            raise DuplicateLabel(lbl)
        if lbl in RESERVED_LABELS:
            raise BadParameter(f"label {lbl!r} is reserved for adjoined bounds")
        seen.add(lbl)


class Carrier:
    """Label lookup shared by every structure over dense indices 0..n-1."""

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def indices(self, labels):
        return tuple(self.index(x) for x in labels)

    def is_index(self, i):
        """Whether ``i`` is an element index: ``is_integer_in(i, 0, n - 1)``."""
        return is_integer_in(i, 0, self.n - 1)


class Poset(Carrier):
    """A finite partially ordered set."""

    def __init__(self, labels, leq):
        labels = tuple(labels)
        if not labels:
            raise BadParameter("carrier must be nonempty")
        leq = np.array(leq, dtype=bool)
        if leq.shape != (len(labels), len(labels)):
            raise BadParameter("order matrix shape does not match label count")
        self.labels = labels
        self.leq = _frozen(leq)

    @cached_property
    def covers(self):
        """covers[i, j] iff j covers i: ``covers_stack`` of this order alone."""
        return _frozen(covers_stack(self.leq[None])[0])

    @cached_property
    def extrema(self):
        """Sup and inf of every pair: ``extrema_stack`` of this order alone.
        ``(tables, missing)``, each 2 x n x n."""
        tables, missing = map(_frozen, extrema_stack(self.leq[None]))
        return tables[:, 0], missing[:, 0]

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and bool((self.leq == other.leq).all())
        )

    def __repr__(self):
        rels = " ".join(
            f"{self.labels[i]}<{self.labels[j]}"
            for i in range(self.n)
            for j in range(self.n)
            if self.covers[i, j]
        )
        return f"Poset({' '.join(self.labels)}; {rels})"


def _arc_path(arcs, src, dst):
    """A shortest path of ``arcs`` from src to dst, by breadth-first search.

    ``make_poset`` asks only for pairs that its closure of ``arcs`` relates,
    so a path exists and the search finds dst before the queue runs dry.
    """
    prev = {src: None}
    queue = deque([src])
    while dst not in prev:
        u = queue.popleft()
        for a, b in arcs:
            if a == u and b not in prev:
                prev[b] = u
                queue.append(b)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def make_poset(labels, relation):
    """Reflexive-transitive closure of ``relation`` over ``labels``.

    Accepts cover relations and full orders alike; rejects inputs whose
    closure breaks antisymmetry, reporting a witness cycle.
    """
    labels = tuple(labels)
    _check_labels(labels)
    n = len(labels)
    idx = {lbl: i for i, lbl in enumerate(labels)}
    reach = np.eye(n, dtype=bool)
    arcs = []
    for x, y in relation:
        if x not in idx:
            raise UnknownLabel(x)
        if y not in idx:
            raise UnknownLabel(y)
        reach[idx[x], idx[y]] = True
        arcs.append((idx[x], idx[y]))
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    pair = first_true(reach & reach.T & ~np.eye(n, dtype=bool))
    if pair is not None:
        forth = _arc_path(arcs, *pair)
        back = _arc_path(arcs, *pair[::-1])
        cycle = forth + back[1:-1] if len(back) > 2 else forth
        raise CycleDetected(labels[k] for k in cycle)
    return Poset(labels, reach)


def _bounds(p, a, b, rows):
    """Every x set in both row a and row b of ``rows``, once both are indices of p."""
    if not (p.is_index(a) and p.is_index(b)):
        raise BadParameter(f"pair ({a!r}, {b!r}) outside carrier of size {p.n}")
    return frozenset(np.flatnonzero(rows[a] & rows[b]).tolist())


def upper_bounds(p, a, b):
    """U(a, b): every x with a <= x and b <= x."""
    return _bounds(p, a, b, p.leq)


def lower_bounds(p, a, b):
    """L(a, b): every x with x <= a and x <= b."""
    return _bounds(p, a, b, p.leq.T)


@dataclass(frozen=True)
class PlosReport:
    """Outcome of the bound-property check, with a witness on failure."""

    ok: bool
    side: str | None = None
    witness: tuple | None = None
    bound_set: frozenset | None = None

    def __bool__(self):
        return self.ok


def extrema_stack(leq):
    """Sup and inf of every pair of each order of a k x n x n stack,
    broadcast over blocks of (order, rows a).

    Returns ``(tables, missing)``, each 2 x k x n x n: ``tables`` holds the
    sup and the inf table, UNDEF where there is none, and ``missing`` the
    pairs whose nonempty upper or lower bound set has no extremum.

    x is least in U(a, b) exactly when U(a, b) is the up-set of x, and since
    that up-set lies inside U(a, b) whenever x does, exactly when both sets
    have the same size; dually for L(a, b). Both sides are scanned together.
    The bound sets of a block are one 2 x orders x rows x n x n boolean
    array, and the size test is folded into it in place, so at most two such
    arrays are alive at once; the sizes are int32 and each extremum is
    written straight into ``tables``. A block holds at most 2^15 / n^2 pairs
    of an order and a row a: whole orders while n^3 fits, else rows of one
    order. So each boolean array stays within 64 KB (2 n^2 bytes past
    n = 181), the counts within 256 KB / n, and every order up to n = 32 is
    one block.
    """
    k, n = leq.shape[:2]
    # rel[0, i, a, x]: a <= x in order i; rel[1, i, a, x]: x <= a
    rel = np.empty((2, k, n, n), dtype=bool)
    rel[0], rel[1] = leq, leq.transpose(0, 2, 1)
    # the sizes of the up-set and the down-set of x
    sizes = rel.sum(3, dtype=np.int32)[:, :, None, None, :]
    tables = np.empty((2, k, n, n), dtype=np.int64)
    missing = np.empty((2, k, n, n), dtype=bool)
    step = max(1, 2**15 // max(1, n * n))
    per_block = max(1, step // max(1, n))
    for first in range(0, k, per_block):
        orders = slice(first, first + per_block)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            # [side, i, a, b, x]: x bounds a and b
            bounds = rel[:, orders, rows, None, :] & rel[:, orders, None, :, :]
            count = bounds.sum(4, dtype=np.int32)
            bounds &= count[..., None] == sizes[:, orders]  # now: x is the extremum
            lost = ~bounds.any(4)
            table = tables[:, orders, rows]
            bounds.argmax(4, out=table)
            table[lost] = UNDEF
            missing[:, orders, rows] = (count > 0) & lost
    return tables, missing


def covers_stack(leq):
    """covers[i, a, b] iff b covers a in order i of a k x n x n stack: a < b
    with nothing strictly between. The elements between are counted by one
    stacked float32 product, which BLAS runs and which is exact up to 2^24."""
    k, n = leq.shape[:2]
    strict = leq.copy()
    strict.reshape(k, n * n)[:, :: n + 1] = False
    between = strict.astype(np.float32)
    return strict & (between @ between == 0)


def scan_orders(posets):
    """Fill ``p.extrema`` and ``p.covers`` of every poset of ``posets``, of
    any sizes, from one ``extrema_stack`` and one ``covers_stack`` call.

    The orders are padded to the largest size m: a pad is related only to
    itself. Each poset's slots are the crop of its row to its own n x n, and
    equal the scan of its order alone. A pad is above and below no carrier
    element, so U(a, b) and L(a, b) of carrier elements a, b hold no pad and
    are the bound sets of the order alone: the sup, the inf and the missing
    flags of a carrier pair are its own. Between two carrier elements no pad
    lies, as a pad is no strict pair's end, so a carrier pair is a cover of
    the padded order exactly when it is one of the order alone. The crops
    are read-only views of the frozen stacks.
    """
    m = max((p.n for p in posets), default=0)
    leq = np.zeros((len(posets), m, m), dtype=bool)
    leq[:, np.arange(m), np.arange(m)] = True
    for row, p in zip(leq, posets):
        row[:p.n, :p.n] = p.leq
    tables, missing = map(_frozen, extrema_stack(leq))
    covers = _frozen(covers_stack(leq))
    for i, p in enumerate(posets):
        crop = slice(p.n)
        p.extrema = tables[:, i, crop, crop], missing[:, i, crop, crop]
        p.covers = covers[i, crop, crop]


def is_plos(p):
    """Check the lower and upper bound properties.

    Every nonempty U(x, y) needs a least element and every nonempty L(x, y)
    a greatest one. The first pair a <= b that fails in ``p.extrema``,
    upper side first, is reported together with its bound set.
    """
    missing = p.extrema[1]
    pair = first_true(np.triu(missing.any(0)))
    if pair is None:
        return PlosReport(True)
    if missing[0][pair]:
        return PlosReport(False, "upper", pair, upper_bounds(p, *pair))
    return PlosReport(False, "lower", pair, lower_bounds(p, *pair))


def down_sets(leq):
    """Every down-set of the preorder ``leq`` as a row of a boolean matrix.

    Elements with one down-set form a class. Taken by down-set size, a linear
    extension, each class is added to every down-set found so far that holds
    all strictly below it: each down-set is built once, as an int bit mask,
    and the work follows their number, not 2^m.
    """
    m = len(leq)
    width = -(-m // 8)
    bits = np.zeros((m, 8 * width), dtype=bool)
    bits[:, :m] = leq.T  # row k: the down-set of k, padded to whole bytes
    packed = np.packbits(bits, bitorder="little").tobytes()
    classes = {}
    for k in range(m):
        down = int.from_bytes(packed[k * width:(k + 1) * width], "little")
        classes[down] = classes.get(down, 0) | 1 << k
    found = [0]
    for down in sorted(classes, key=int.bit_count):
        members = classes[down]
        need = down ^ members  # everything strictly below the class
        found += [s | members for s in found if s & need == need]
    rows = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in found), np.uint8)
    return np.unpackbits(rows.reshape(len(found), width), axis=1, count=m,
                         bitorder="little").view(bool)


def _table(table):
    """``table`` itself when it is int64 and neither it nor the array that
    owns its memory is writable; otherwise a frozen int64 copy."""
    owner = table
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    if (isinstance(owner, np.ndarray) and not owner.flags.writeable
            and table.dtype == np.int64 and not table.flags.writeable):
        return table
    return _frozen(np.array(table, dtype=np.int64))


class PartialLattice(Carrier):
    """Partial algebra (L, v, ^) with strongly idempotent, commutative,
    associative operations tied together by the duality conditions.

    The induced order, the two-point extension and the congruence table
    depend only on the tables, so each is built once, on first access, by
    its module-level builder; none holds the structure. The sweep assigns
    the extension, built for a block of structures at once, before its first
    access. A table that ``_table`` finds frozen is held, not copied.
    """

    def __init__(self, labels, join, meet):
        self.labels = tuple(labels)
        if not self.labels:
            raise BadParameter("carrier must be nonempty")
        self.join = _table(join)
        self.meet = _table(meet)

    @cached_property
    def order(self):
        """The induced order, as built by ``plattice.induced_order``."""
        from . import plattice

        return plattice.induced_order(self)

    @cached_property
    def extension(self):
        """The two-point extension, as built by ``two_point_extension``."""
        from . import extension

        return extension.two_point_extension(self)

    @cached_property
    def congruence_table(self):
        """The congruences as arrays, as built by ``congruence_table``."""
        from . import congruence

        return congruence.congruence_table(self)

    def __eq__(self, other):
        return (isinstance(other, PartialLattice) and self.labels == other.labels
                and np.array_equal(self.join, other.join) and np.array_equal(self.meet, other.meet))

    def __repr__(self):
        defined = int((self.join != UNDEF).sum() + (self.meet != UNDEF).sum())
        return f"PartialLattice({' '.join(self.labels)}; {defined} defined cells)"


# The join-irreducibles of a lattice (elements with one lower cover), their
# lower covers, their ``leq`` rows, and below[p, q] iff con(p_*, p) <= con(q_*, q).
Irreducibles = namedtuple("Irreducibles", "members lower rows below")


class Lattice(PartialLattice):
    """A finite lattice: a partial lattice whose tables are total, and whose
    ``order`` is the poset it was built from."""

    def __init__(self, poset, join, meet):
        super().__init__(poset.labels, join, meet)
        self.order = poset

    @property
    def leq(self):
        return self.order.leq

    @cached_property
    def irreducibles(self):
        """The join-irreducibles, with ``below`` the reflexive-transitive
        closure of D over positions in ``members``. p D q when some x has
        p <= q v x but p !<= q_* v x. Then con(p_*, p) <= con(q_*, q): if
        q_* theta q, then p = p ^ (q v x) theta p ^ (q_* v x) <= p_*."""
        covers = self.order.covers
        members = np.flatnonzero(covers.sum(0) == 1)
        lower = covers[:, members].argmax(0)
        rows = self.leq[members]
        j = len(members)
        below = np.eye(j, dtype=bool)
        # [p, q, x] is p <= q v x and p !<= q_* v x, over a block of q at a
        # time: each such array stays within 4 MB, and every carrier up to
        # 128 elements is one block.
        step = max(1, 2**22 // max(1, j * self.n))
        for start in range(0, j, step):
            qs = slice(start, start + step)
            below[:, qs] |= (rows[:, self.join[members[qs]]]
                             & ~rows[:, self.join[lower[qs]]]).any(2)
        for k in range(j):
            below |= below[:, k : k + 1] & below[k : k + 1, :]
        return Irreducibles(*map(_frozen, (members, lower, rows, below)))

    def __repr__(self):
        return f"Lattice({self.order!r})"


def validate_lattice(p):
    """Totalize sup and inf over ``p``, failing at the first pair without both."""
    tables = p.extrema[0]
    # The gaps are symmetric, so the first lies on or above the diagonal.
    pair = first_true((tables == UNDEF).any(0))
    if pair is not None:
        raise NotALattice(pair)
    return Lattice(p, *tables)


# Largest carrier a named lattice may have, so ``boolean 7`` is the largest
# Boolean lattice. The check runs before any label or table is built.
MAX_NAMED_ELEMENTS = 128


def named_lattice(kind, size=None):
    """A standard lattice: ``chain k``, ``M n``, ``N5``, or ``boolean k``.

    Raises BadParameter when the carrier would exceed MAX_NAMED_ELEMENTS.
    """
    if kind == "N5":
        if size is not None:
            raise BadParameter("N5 takes no size parameter")
        rel = (("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1"))
        return validate_lattice(make_poset(("0", "x", "z", "y", "1"), rel))
    if not is_integer_in(size, 1):
        raise BadParameter(f"{kind!r} needs an integer size >= 1")
    # min() keeps the shift small for absurd sizes; 2**8 is already too many.
    elements = {"chain": size, "M": size + 2, "boolean": 1 << min(size, 8)}.get(kind, 0)
    if elements > MAX_NAMED_ELEMENTS:
        raise BadParameter(
            f"{kind} {size} would have more than {MAX_NAMED_ELEMENTS} elements")
    if kind == "chain":
        labels = tuple(f"c{i + 1}" for i in range(size))
        rel = tuple(zip(labels, labels[1:]))
        return validate_lattice(make_poset(labels, rel))
    if kind == "M":
        if size < 2:
            raise BadParameter("M needs n >= 2 atoms")
        atoms = tuple(f"a{i + 1}" for i in range(size))
        rel = tuple(("0", a) for a in atoms) + tuple((a, "1") for a in atoms)
        return validate_lattice(make_poset(("0",) + atoms + ("1",), rel))
    if kind == "boolean":
        m = 1 << size
        labels = tuple(format(s, f"0{size}b") for s in range(m))
        bits = np.arange(m)
        leq = (bits[:, None] & bits[None, :]) == bits[:, None]
        return validate_lattice(Poset(labels, leq))
    raise BadParameter(f"unknown lattice kind {kind!r}")


def sink_table(t):
    """``t`` with UNDEF cells sent to an extra index n whose row and column
    hold n, so a compound term through an undefined cell evaluates to n."""
    n = len(t)
    sink = np.full((n + 1, n + 1), n, dtype=np.int64)
    sink[:n, :n] = np.where(t == UNDEF, n, t)
    return sink


def _total_order(lat):
    """``lat.order``, once both tables of ``lat`` are total."""
    if (lat.join == UNDEF).any() or (lat.meet == UNDEF).any():
        raise BadParameter("operations are not total")
    return lat.order


def is_distributive(lat):
    """Whether every join-irreducible j (one lower cover) is join-prime:
    j <= x v y only if j <= x or j <= y. That is distributivity (G. Birkhoff,
    "Rings of sets", Duke Math. J. 3 (1937)): there j = j ^ (x v y) =
    (j ^ x) v (j ^ y), and conversely every element is the join of the
    join-irreducibles below it. j is join-prime exactly when the down-set
    L - up(j) has a greatest element m, so, as down(m) lies inside it,
    exactly when some m not above j has |down(m)| = n - |up(j)|."""
    p = _total_order(lat)
    rows = p.leq[p.covers.sum(0) == 1]  # rows[j, m]: j <= m
    fits = p.leq.sum(0) == lat.n - rows.sum(1)[:, None]
    return bool((fits & ~rows).any(1).all())


def is_modular(lat):
    """Whether x ^ y < x exactly when y < x v y, with < a cover: the lower and
    the upper covering condition, which together are modularity in a finite
    lattice (G. Birkhoff, Lattice Theory, 3rd ed. (1967), Ch. II). When it is
    modular, a -> a v y maps [x ^ y, x] onto [y, x v y]. Conversely, both
    conditions make the height a valuation, h(x) + h(y) = h(x v y) + h(x ^ y),
    so no N5 a < c with a v b = c v b and a ^ b = c ^ b exists: h(a) = h(c)."""
    covers = _total_order(lat).covers
    at = np.arange(lat.n)[:, None]
    return np.array_equal(covers[lat.meet, at], covers[at, lat.join].T)
