"""Two-point and one-point extensions of partial lattices."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .order import BOTTOM_LABEL, TOP_LABEL, UNDEF, Carrier, Lattice, Poset, _frozen, sink_table
from .plattice import BOTH_TOTAL, PartialLattice, is_total

ONE_POINT_LABEL = "c*"


@dataclass(frozen=True)
class Extension:
    """A partial lattice embedded in the total lattice that adjoins bounds.

    The carrier is the prefix of the star: source element i is star index
    i, an adjoined bottom is star index n and an adjoined top is the last
    star index. The bottom sits strictly below every other star element
    and the top strictly above. The source is kept by reference so
    congruence and quotient code can move between both index spaces.
    """

    source: PartialLattice
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
    its join, x <= y when x v y = y. This is ``extension_stack`` of ``lat``
    alone.
    """
    x = extension_stack(lat.join[None], lat.meet[None], np.array([lat.n]))
    bottom, top = (None if bound == UNDEF else int(bound) for bound in (x.bottom[0], x.top[0]))
    labels = (lat.labels + (BOTTOM_LABEL,) * (bottom is not None)
              + (TOP_LABEL,) * (top is not None))
    leq = x.join[0] == np.arange(len(labels))
    return Extension(lat, Lattice(Poset(labels, leq), x.join[0], x.meet[0]), bottom, top)


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
    have none with another element.
    """
    k, s = join.shape[:2]
    # A table has a gap when fewer than sizes^2 of its cells are defined:
    # the meet's gaps adjoin a bottom, the join's a top.
    gaps = (np.concatenate((meet, join)) != UNDEF).reshape(2, k, -1).sum(2) < sizes * sizes
    star_sizes = sizes + gaps.sum(0)
    bottom, top = bounds = np.where(gaps, (sizes, star_sizes - 1), UNDEF)
    m = max(s, int(star_sizes.max()))
    pos = np.arange(m)
    carrier, inside = (pos < size[:, None] for size in (sizes, star_sizes))
    # [side, i, a, b]: a, or b, is the unit of the side's operation (v, then
    # ^). The other side's unit is the side's zero: it absorbs the operation,
    # and an undefined cell of the carrier takes it. UNDEF is no position.
    unit = pos == bounds[:, :, None]
    at_a, at_b = unit[..., None], unit[:, :, None]
    zero = bounds[::-1, :, None, None]
    tables = np.full((2, k, m, m), UNDEF)
    tables[:, :, :s, :s] = join, meet
    gap = (tables == UNDEF) & carrier[:, :, None] & carrier[:, None, :]
    tables = np.where(gap | at_a[::-1] | at_b[::-1], zero, tables)
    tables = np.where(at_a, pos, np.where(at_b, pos[:, None], tables))
    pads = np.where(np.eye(m, dtype=bool), pos, UNDEF)
    tables = _frozen(np.where(inside[:, :, None] & inside[:, None, :], tables, pads))
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
