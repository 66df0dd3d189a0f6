"""Partitions, congruence generation and recognition, and quotient structures.

A congruence on a partial lattice is an equivalence relation E whose
generated congruence on the two-point extension restricts back to E. All
quotient operations are computed through that extension.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NotACongruence
from .order import (Lattice, Poset, _frozen, down_set_stack, down_sets, first_true,
                    irreducibles_stack, is_integer_in)
from .plattice import UNDEF, to_lattice, validate_partial_lattice


def _carrier_size(n):
    """``n``, if it is an integer carrier size >= 1; else BadParameter."""
    if not is_integer_in(n, 1):
        raise BadParameter(f"carrier size must be an integer >= 1, not {n!r}")
    return n


class Partition:
    """Equivalence relation as a canonical block structure.

    Blocks are numbered by least member, so partitions of the same carrier
    compare equal exactly when their ``block_of`` tuples do, and sorting by
    ``block_of`` is a total order.
    """

    __slots__ = ("n", "block_of", "blocks")

    def __init__(self, block_of):
        first = {}
        canon = tuple(first.setdefault(b, len(first)) for b in block_of)
        if not canon:
            raise BadParameter("carrier must be nonempty")
        self.block_of = canon
        self.n = len(canon)
        blocks = [[] for _ in range(len(first))]
        for i, b in enumerate(canon):
            blocks[b].append(i)
        self.blocks = tuple(tuple(block) for block in blocks)

    @classmethod
    def identity(cls, n):
        return cls(range(_carrier_size(n)))

    @classmethod
    def full(cls, n):
        return cls([0] * _carrier_size(n))

    @classmethod
    def from_blocks(cls, n, blocks):
        """Partition from explicit blocks; unlisted elements become singletons."""
        block_of = [None] * _carrier_size(n)
        for b, members in enumerate(blocks):
            for i in members:
                if not is_integer_in(i, 0, n - 1):
                    raise BadParameter(f"element {i!r} outside carrier of size {n}")
                if block_of[i] is not None:
                    raise BadParameter(f"element {i} is listed twice")
                block_of[i] = b
        for i in range(n):
            if block_of[i] is None:
                block_of[i] = ("singleton", i)
        return cls(block_of)

    def relates(self, i, j):
        return self.block_of[i] == self.block_of[j]

    def block_containing(self, i):
        return self.blocks[self.block_of[i]]

    def render(self, labels):
        return "|".join(" ".join(labels[i] for i in block) for block in self.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.block_of == other.block_of

    def __hash__(self):
        return hash(self.block_of)

    def __lt__(self, other):
        return self.block_of < other.block_of

    def __repr__(self):
        return f"Partition({self.render([str(i) for i in range(self.n)])})"


def _read(rows, collapsed, owner):
    """The congruences of total lattices that collapse the join-irreducibles
    in the rows of ``collapsed``, R D-closed masks, each over the
    join-irreducibles of the lattice its ``owner`` names. ``rows`` are the
    ``Irreducibles.rows`` of the lattices, k x j x m, padded as
    ``irreducibles_stack`` pads them.

    For b <= a, a theta b exactly when every p <= a left out is below b, so
    the least member of the class of a is the join of those p: the first
    element, in a linear extension, above them all, and its place there
    labels the class. The linear extension is by the number of
    join-irreducibles below, which grows strictly along the order. A pad is
    above none of its lattice's join-irreducibles, so it is never first
    above a nonempty set of them, and the elements with none left out
    below, the bottom's class, all take the first place: no pad changes a
    label. A float32 product of each mask by its owner's gathered rows
    counts the p left out below v and not below u exactly, over blocks of
    2^14 / m^2 masks, so each block's arrays stay within 64 KB. Returns the
    labels, R x m.
    """
    k, j, m = rows.shape
    ascending = np.argsort(rows.sum(1), axis=1, kind="stable")
    below_v = rows.transpose(0, 2, 1).astype(np.float32, order="C")  # [i, v, p]: p <= v
    at = np.arange(0, k * m, m)[:, None]  # the flat row of each lattice's element 0
    not_above = np.ascontiguousarray(  # [i, p, u]: p !<= ascending[u]
        1 - below_v.reshape(k * m, j)[ascending + at].transpose(0, 2, 1))
    places = np.empty((len(collapsed), m), dtype=np.int64)
    step = max(1, 2**14 // (m * m))
    for start in range(0, len(collapsed), step):
        block = slice(start, start + step)
        of = owner[block]
        left = ~collapsed[block, None] * below_v[of]  # [c, v, p]: p left out, p <= v
        places[block] = (left @ not_above[of] == 0).argmax(2)  # the first 0 of counts [c, v, u]
    return places


def generate_congruence(lat, *seeds):
    """Least congruence of ``to_lattice(lat)`` containing every seed partition.

    Read off the dependency order on the join-irreducibles (Freese, Ježek &
    Nation, *Free Lattices*, AMS 1995, ch. 2; R. Freese, "Computing
    congruences efficiently", Algebra Universalis 59 (2008) 337-343): the
    join-irreducibles it collapses are those ``collapsed_irreducibles``
    finds for some seed, and the congruence is read from them. Two seeds
    give the join of two congruences.
    """
    lat = to_lattice(lat)
    if any(seed.n != lat.n for seed in seeds):
        raise BadParameter("seed partitions a different carrier")
    block_of = np.array([seed.block_of for seed in seeds], dtype=np.int64).reshape(-1, lat.n)
    collapsed = collapsed_irreducibles(lat, block_of).any(0, keepdims=True)
    labels = _read(lat.irreducibles.rows[None], collapsed, np.zeros(1, np.int64))
    return Partition(labels[0])


def collapsed_irreducibles(lat, block_of):
    """For k partitions of a prefix of the carrier, k x m, the masks over
    ``irreducibles.members`` of the join-irreducibles that the least
    congruence containing each collapses, k x |J|. Relating each a to the
    next member b of its block collapses every p <= a v b with p !<= a ^ b.
    p D q (p <= q v x and p !<= q_* v x for some x) gives
    con(p_*, p) <= con(q_*, q), so the mask is then closed downward along D."""
    # Sorted by block, each block's members are consecutive; a last member
    # is paired with itself, which collapses nothing.
    order = np.argsort(block_of, axis=1, kind="stable")
    runs = np.sort(block_of, axis=1)
    a = order[:, :-1]
    b = np.where(runs[:, 1:] == runs[:, :-1], order[:, 1:], a)
    irr = lat.irreducibles
    seeded = (irr.rows[:, lat.join[a, b]] & ~irr.rows[:, lat.meet[a, b]]).any(2).T
    return seeded @ irr.below.T


@dataclass(frozen=True)
class CongruenceWitness:
    """Generated congruence on the extension plus its restriction."""

    theta: Partition
    restriction: Partition
    is_congruence: bool

    def __bool__(self):
        return self.is_congruence


def is_congruence_on_partial(lat, e):
    """Decide whether ``e`` is a congruence of the partial lattice.

    Lifts ``e`` along the two-point extension with the adjoined bounds as
    singletons, generates the congruence there, and compares the restriction
    with ``e`` itself.
    """
    if e.n != lat.n:
        raise BadParameter("partition carrier mismatch")
    star = lat.extension.star
    # Block ids of e are below n, so the adjoined bounds n.. stay singletons.
    lifted = Partition(e.block_of + tuple(range(lat.n, star.n)))
    theta = generate_congruence(star, lifted)
    restriction = Partition(theta.block_of[:lat.n])  # the carrier is the prefix of the star
    return CongruenceWitness(theta, restriction, restriction == e)


def all_congruences(lat):
    """Every congruence of ``to_lattice(lat)``, sorted.

    Con L of a finite lattice is distributive, and its join-irreducibles are
    the congruences con(p_*, p) for the join-irreducibles p of L, each with
    its unique lower cover p_*. p D q, when p <= q v x and p !<= q_* v x for
    some x, gives con(p_*, p) <= con(q_*, q), and the reflexive-transitive
    closure of D is exactly that order (Freese, Ježek & Nation, *Free
    Lattices*, AMS 1995, ch. 2; R. Freese, "Computing congruences
    efficiently", Algebra Universalis 59 (2008) 337-343). So each down-set
    of that preorder gives one congruence, and all are read at once.
    """
    lat = to_lattice(lat)
    irr = lat.irreducibles
    collapsed = down_sets(irr.below)
    labels = _read(irr.rows[None], collapsed, np.zeros(len(collapsed), np.int64))
    return tuple(sorted(map(Partition, labels.tolist())))


# The congruences e of a partial lattice, k x n, sorted, and the congruences
# theta(e) they generate on L*, k x |L*|. Each row labels every element by the
# least index of its class: a canonical form that sorts as ``Partition.block_of``
# does, as two rows first differing at x relate the same elements before x and
# label x by its class's least member, x for a new class. e is theta[:, :n].
CongruenceTable = namedtuple("CongruenceTable", "block_of theta")


def congruence_table(lat):
    """The ``CongruenceTable`` of the partial lattice: ``congruence_tables``
    of it alone."""
    return congruence_tables([lat])[0]


def congruence_tables(lats):
    """The ``CongruenceTable`` of each partial lattice of ``lats``, of any
    sizes, read off Con L* of all their extensions in one stacked pass.

    Every congruence of L* that restricts to e contains theta(e), the
    congruence e generates with the adjoined bounds as singletons, so it
    labels each element by a least member no greater: of the rows sorted,
    theta(e) is the last. The stars' join-irreducibles are one
    ``irreducibles_stack``, which also fills each star's ``irreducibles``
    slot unless it is cached; the down-sets of their D orders one
    ``down_set_stack``, each row owned by its star; the congruences one
    ``_read``; and one ``lexsort``, by owner first, with one "last row per
    (owner, e)" pick, dedupes them. Each table is a read-only view of its
    owner's rows of one frozen array.
    """
    stars = [lat.extension.star for lat in lats]
    irr, crops = irreducibles_stack(stars)
    for star, crop in zip(stars, crops):
        vars(star).setdefault("irreducibles", crop)
    collapsed, counts = down_set_stack(irr.below, [len(crop.members) for crop in crops])
    owner = np.repeat(np.arange(len(lats)), counts)
    labels = _read(irr.rows, collapsed, owner)
    theta = (labels[:, :, None] == labels[:, None, :]).argmax(2)  # least member of x's class
    order = np.lexsort((*theta.T[::-1], owner))
    theta, owner = theta[order], owner[order]
    # e is theta[:, :n] for the owner's carrier size n
    sizes = np.array([lat.n for lat in lats], dtype=np.int64)
    carrier = np.arange(theta.shape[1]) < sizes[owner, None]
    last = np.ones(len(theta), dtype=bool)
    last[:-1] = ((theta[1:] != theta[:-1]) & carrier[1:]).any(1) | (owner[1:] != owner[:-1])
    theta = _frozen(theta[last])
    bounds = np.searchsorted(owner[last], np.arange(len(lats) + 1)).tolist()
    return [CongruenceTable(theta[a:b, :lat.n], theta[a:b, :star.n])
            for lat, star, a, b in zip(lats, stars, bounds, bounds[1:])]


def all_partial_congruences(lat):
    """The congruences, sorted, read off ``lat.congruence_table``."""
    return tuple(map(Partition, lat.congruence_table.block_of.tolist()))


def con_is_closed_under_meets(lat):
    """Common refinements of congruences must again be congruences.

    The rows of ``lat.congruence_table`` send each element to the least
    member of its class. The common refinement of p and q sends x to the
    least element that both relate to x, so it is found for all q at once.
    """
    block_of = lat.congruence_table.block_of  # (0, n) when empty: vacuously closed
    same = block_of[:, :, None] == block_of[:, None, :]  # [c, x, y]: c relates x and y
    known = {row.tobytes() for row in block_of}
    return all(row.tobytes() in known  # meet is commutative: q from p on
               for p, relates in enumerate(same) for row in (same[p:] & relates).argmax(2))


DEFINED = "defined"
UNDEFINED_TOP_SINGLETON = "undefined_top_singleton"
ALPHA = "alpha"


@dataclass(frozen=True)
class JoinCase:
    """Which branch a class join lands in, with the chosen representative
    when the adjoined top is identified with a carrier element."""

    kind: str
    block: int | None = None
    alpha: int | None = None


def generated_rows(lat, least, theta):
    """Which rows of ``theta``, k x |L*|, hold the congruence that the
    congruence e in the same row of ``least``, k x n, generates on L*, both
    labelled by least members: theta is compatible with both star tables,
    restricts to e, and collapses exactly the join-irreducibles that
    ``collapsed_irreducibles`` finds for e. A congruence is fixed by the
    join-irreducibles it collapses, so these three pin theta down. Only the
    sweep calls it: the quotient functions generate Theta(e) themselves."""
    star = lat.extension.star
    r = np.arange(len(theta))[:, None, None]
    ok = (theta[:, :lat.n] == least).all(1)
    for table in (star.join, star.meet):
        ok &= (theta[r, table] == theta[r, table[theta[:, :, None], theta[:, None, :]]]).all((1, 2))
    irr = star.irreducibles
    collapsed = theta[:, irr.members] == theta[:, irr.lower]
    return ok & (collapsed == collapsed_irreducibles(star, least)).all(1)


def _require_congruence(lat, e):
    """The witness of ``e`` on ``lat``, Theta(e) generated once; raises
    NotACongruence unless Theta(e) restricts to ``e``."""
    w = is_congruence_on_partial(lat, e)
    if not w.is_congruence:
        raise NotACongruence(w)
    return w


def _quotient(lat, w):
    """L/E from the witness of a congruence e on ``lat``: ``quotient_stack``
    of e alone, which passes the axiom validator."""
    e = w.restriction
    least = np.array([block[0] for block in w.theta.blocks])[list(w.theta.block_of)]
    join, meet, reps = quotient_stack(lat, np.array([e.block_of]), least[None])
    labels = tuple(f"[{lat.labels[r]}]" for r in reps[0])
    return validate_partial_lattice(labels, join[0], meet[0])


def quotient(lat, e):
    """Quotient partial lattice: blocks of ``e`` with class operations.

    A class join is the generated-congruence class of a star join
    intersected with the carrier when that intersection is nonempty,
    undefined otherwise; meets dually. Theta(e) is generated once, and the
    tables are ``quotient_stack`` of ``e`` alone, well defined as Theta(e)
    is a congruence of L* restricting to ``e``.
    """
    return _quotient(lat, _require_congruence(lat, e))


def quotient_stack(lat, block_of, least):
    """The class tables of ``quotient`` for k congruences at once.

    ``block_of`` holds the block arrays of the congruences, k x n, and
    ``least`` the least member of the class of each star element under the
    congruence each generates on the extension, k x |L*|. Returns the class
    join and meet tables, k x s x s for the largest block count s and UNDEF
    past each row's blocks, and the least member r_p of each block p, k x s
    and UNDEF past them. [p] . [q] is the block that the class of r_p . r_q
    meets, UNDEF if none. On a row that holds Theta(e), generated or
    recognised (``generated_rows``), any representatives give the same, so
    nothing is checked: theta restricts to e, so a class meets one block at
    most, and it is compatible with both star tables, so a . b lies in the
    class of least(a) . least(b), where least(a) is r_p for the block p of
    a, as the carrier is the star's prefix.
    """
    star = lat.extension.star
    n, k = lat.n, len(block_of)
    members = block_of[:, None, :] == np.arange(block_of.max() + 1)[:, None]
    reps = np.where(members.any(2), members.argmax(2), UNDEF)
    # cls[i, x]: the block of e_i holding the least member of x's class, else
    # UNDEF, as in the extra last column, which a missing block reads.
    cls = np.full((k, star.n + 1), UNDEF)
    cls[:, :n] = block_of
    cls[:, :-1] = np.take_along_axis(cls, least, 1)
    cell = np.full((2, n + 1, n + 1), star.n)  # r_p . r_q in L*, star.n past the carrier
    cell[:, :n, :n] = star.join[:n, :n], star.meet[:n, :n]
    op = np.arange(2)[:, None, None]
    out = cls[np.arange(k)[:, None, None, None],
              cell[op, reps[:, None, :, None], reps[:, None, None, :]]]
    return out[:, 0], out[:, 1], reps


def quotient_join_cases(lat, e):
    """The class join of [a] and [b] for every carrier pair, as a block of e.

    Where the join is defined the cell holds [a v b]. Elsewhere it holds
    the block of the least carrier element identified with the adjoined
    top, or UNDEF when the top forms a singleton class. A top is adjoined
    exactly when the join has a gap, so without one no cell reads it.
    """
    w = _require_congruence(lat, e)
    top = lat.extension.added_top
    alpha = lat.n if top is None else w.theta.block_containing(top)[0]
    return join_case_stack(lat, np.array([e.block_of]), np.array([alpha]))[0]


def join_case_stack(lat, block_of, alpha):
    """``quotient_join_cases`` for k congruences at once, as a k x n x n array.

    ``block_of`` holds their block arrays, k x n, and ``alpha`` for each
    the least member of the adjoined top's class under the congruence it
    generates on the extension, or n when there is no top.
    """
    n = lat.n
    top_block = np.where(alpha < n, block_of[np.arange(len(alpha)), np.minimum(alpha, n - 1)],
                         UNDEF)
    return np.where(lat.join == UNDEF, top_block[:, None, None], block_of[:, lat.join])


def quotient_join_case(lat, e, a, b):
    """Classify the class join of [a] and [b], read from ``quotient_join_cases``.

    Defined with value [a v b] when the join exists; otherwise undefined when
    the adjoined top forms a singleton class, or the class of the least
    carrier element identified with the top. Raises BadParameter unless a
    and b are carrier elements.

    That element is the least member of the block: the generated congruence
    restricts to e, so the top's class meets the carrier in one block of e,
    and the carrier is the prefix of the star, so the least member of the
    class is the least member of that block.
    """
    if not (lat.is_index(a) and lat.is_index(b)):
        raise BadParameter(f"pair ({a}, {b}) outside carrier of size {lat.n}")
    block = int(quotient_join_cases(lat, e)[a, b])
    if lat.join[a, b] != UNDEF:
        return JoinCase(DEFINED, block)
    if block == UNDEF:
        return JoinCase(UNDEFINED_TOP_SINGLETON)
    return JoinCase(ALPHA, block, e.blocks[block][0])


def lattice_quotient(lat, theta):
    """Quotient of a total lattice by a congruence.

    Block i is the class of its least member r_i, and [r_i] . [r_j] is the
    block of r_i . r_j. Raises BadParameter unless ``to_lattice`` takes
    ``lat`` and the block map is compatible with both tables: with rep(x) the
    least member of the block of x, a . b and rep(a) . rep(b) lie in one
    block; one gather per table.
    """
    lat = to_lattice(lat)
    if theta.n != lat.n:
        raise BadParameter("partition carrier mismatch")
    block_of = np.array(theta.block_of)
    reps = np.array([block[0] for block in theta.blocks])
    rep = reps[block_of]
    tables = []
    for table, name in ((lat.join, "join"), (lat.meet, "meet")):
        cls = block_of[table]
        pair = first_true(cls != cls[rep[:, None], rep])
        if pair is not None:
            x, y = (lat.labels[i] for i in pair)
            raise BadParameter(f"partition is not a congruence at {x} {name} {y}")
        tables.append(_frozen(cls[reps[:, None], reps]))
    labels = tuple(f"[{lat.labels[r]}]" for r in reps)
    return Lattice(Poset(labels, tables[0] == np.arange(len(reps))), *tables)
