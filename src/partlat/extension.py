"""Two-point and one-point extensions of partial lattices."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .order import BOTTOM_LABEL, TOP_LABEL, UNDEF, Carrier, Lattice, Poset, _frozen, sink_table
from .plattice import BOTH_TOTAL, is_total

ONE_POINT_LABEL = "c*"


@dataclass(frozen=True)
class Extension:
    """A partial lattice embedded in the total lattice that adjoins bounds.

    The carrier is the prefix of the star: source element i is star index
    i, an adjoined bottom is star index n and an adjoined top is the last
    star index. The bottom sits strictly below every other star element
    and the top strictly above.
    """

    star: Lattice
    added_bottom: int | None
    added_top: int | None

    @property
    def added(self):
        out = ()
        if self.added_bottom is not None:
            out += ("bottom",)
        if self.added_top is not None:
            out += ("top",)
        return out


def two_point_extension(lat):
    """Extend a partial lattice to a total lattice with at most two new points.

    A bottom is adjoined exactly when the meet table has gaps and a top
    exactly when the join table does. By the paper's case law, a v b in the
    star is L's join where that is defined and the adjoined top otherwise,
    and a ^ b is dually L's meet or the adjoined bottom; the paper proves
    this a lattice (see ``extension_stack``). The star's order is read from
    its join, x <= y when x v y = y. This is ``two_point_extensions`` of
    ``lat`` alone.
    """
    return two_point_extensions([lat])[0]


def two_point_extensions(lats):
    """``two_point_extension`` of each partial lattice of ``lats``, of any
    sizes, from one ``extension_stack`` call over their tables padded with
    UNDEF. Each star holds its row of the stack cropped to its own size, a
    read-only view, and its order is read from that join."""
    s = max((lat.n for lat in lats), default=0)
    join, meet = np.full((2, len(lats), s, s), UNDEF)
    for i, lat in enumerate(lats):
        join[i, :lat.n, :lat.n] = lat.join
        meet[i, :lat.n, :lat.n] = lat.meet
    x = extension_stack(join, meet, np.array([lat.n for lat in lats], dtype=np.int64))
    leq = x.join == np.arange(x.join.shape[-1])
    out = []
    for i, (lat, bottom, top) in enumerate(zip(lats, x.bottom.tolist(), x.top.tolist())):
        bottom, top = (None if bound == UNDEF else bound for bound in (bottom, top))
        labels = (lat.labels + (BOTTOM_LABEL,) * (bottom is not None)
                  + (TOP_LABEL,) * (top is not None))
        crop = slice(len(labels))
        star = Lattice(Poset(labels, leq[i, crop, crop]), x.join[i, crop, crop],
                       x.meet[i, crop, crop])
        out.append(Extension(star, bottom, top))
    return out


# Two-point extensions of a stack of partial lattices, padded to one size:
# their sup and inf tables, sizes, and the adjoined bottom and top of each
# (UNDEF where none is adjoined).
ExtensionStack = namedtuple("ExtensionStack", "join meet sizes bottom top")


def extension_stack(join, meet, sizes):
    """``two_point_extension`` of k partial lattices at once.

    Row i of the k x s x s ``join`` and ``meet`` holds a partial lattice on
    0..sizes[i]-1, and UNDEF in the cells past it. Its extension adjoins a
    bottom exactly when its meet has a gap, and a top exactly when its join
    has one, placed as ``two_point_extension`` places them: the carrier,
    then the bottom, then the top. The tables are filled by the case law:
    a defined cell is L's own, an undefined join is the top and an undefined
    meet the bottom, the bottom is the unit of v and absorbs ^, and the top
    dually. This is a lattice, the paper's theorem: on a partial lattice a
    join is undefined exactly when U(a, b) is empty and is else its least
    element, so the top is the sup of a pair with no upper bound in L and L's
    join stays the sup of the others; meets are dual. Each row is padded to
    the largest extension with elements that are their own sup and inf and
    have none with another element. An empty stack gives empty arrays.
    """
    k, s = join.shape[:2]
    # A table has a gap when fewer than sizes^2 of its cells are defined:
    # the meet's gaps adjoin a bottom, the join's a top.
    gaps = (np.concatenate((meet, join)) != UNDEF).reshape(2, k, s * s).sum(2) < sizes * sizes
    star_sizes = sizes + gaps.sum(0)
    bottom, top = bounds = np.where(gaps, (sizes, star_sizes - 1), UNDEF)
    m = max([s, *star_sizes.tolist()])
    pos = np.arange(m)
    inside = pos < star_sizes[:, None]
    tables = np.full((2, k, m, m), UNDEF)
    tables[0, :, :s, :s] = join
    tables[1, :, :s, :s] = meet
    # Each position past the carrier, a bound or a pad, is its own sup and
    # inf; a pad's other cells stay UNDEF.
    np.copyto(tables.reshape(2, k, m * m)[:, :, :: m + 1], pos, where=pos >= sizes[:, None])
    # The UNDEF cells of the star are now the carrier's gaps and the bound
    # rows and columns. [side, i, a, b]: the case law for them. b where a
    # is the unit of the side's operation (v, then ^), a where b is, and
    # else the other side's unit, the side's zero, which absorbs the
    # operation and fills a gap. UNDEF is no position.
    unit = pos == bounds[:, :, None]
    law = np.where(unit[..., None], pos, np.where(unit[:, :, None], pos[:, None],
                                                  bounds[::-1, :, None, None]))
    star = inside[:, :, None] & inside[:, None, :]
    tables = _frozen(np.where((tables == UNDEF) & star, law, tables))
    return ExtensionStack(*tables, star_sizes, bottom, top)


@dataclass(frozen=True, eq=False)
class OnePointAlgebra(Carrier):
    """Totalization that routes every undefined cell to a single fresh element.

    Useful only as a counterexample: unless the source is total, the result
    is never a partial lattice, which is the reason the two-point extension
    exists. The sink tables give c* ^ x = c* for every element x, so duality
    needs c* v x = x, but the join table gives c* v x = c*.
    """

    labels: tuple
    join: np.ndarray
    meet: np.ndarray
    new_element: int | None


def one_point_extension(lat):
    """Total algebra sending every undefined cell to one new element.

    A total source is returned unchanged; no lattice properties are claimed
    for the partial case.
    """
    if is_total(lat) == BOTH_TOTAL:
        return OnePointAlgebra(lat.labels, lat.join, lat.meet, None)
    # The sink tables send every undefined cell to the new element n.
    return OnePointAlgebra(lat.labels + (ONE_POINT_LABEL,), _frozen(sink_table(lat.join)),
                           _frozen(sink_table(lat.meet)), lat.n)
