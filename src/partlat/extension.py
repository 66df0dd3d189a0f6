"""Two-point and one-point extensions of partial lattices."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NotALattice
from .order import (BOTTOM_LABEL, TOP_LABEL, UNDEF, Carrier, Lattice, Poset, _frozen,
                    extrema_stack, first_true, sink_table)
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
    exactly when the join table does; the star operations are sup and inf in
    the extended order. This is ``extension_stack`` of ``lat`` alone.
    """
    x = extension_stack(lat.join[None], lat.meet[None], np.array([lat.n]))
    if x.errors[0] is not None:
        raise x.errors[0]
    bottom, top = (None if bound == UNDEF else int(bound) for bound in (x.bottom[0], x.top[0]))
    labels = (lat.labels + (BOTTOM_LABEL,) * (bottom is not None)
              + (TOP_LABEL,) * (top is not None))
    return Extension(lat, Lattice(Poset(labels, x.leq[0]), x.join[0], x.meet[0]), bottom, top)


# Two-point extensions of a stack of partial lattices, padded to one size:
# their orders, sup and inf tables, sizes, the adjoined bottom and top of
# each (UNDEF where none is adjoined), and for each the NotALattice that
# its order raises, or None.
ExtensionStack = namedtuple("ExtensionStack", "leq join meet sizes bottom top errors")


def extension_stack(join, meet, sizes):
    """``two_point_extension`` of k partial lattices at once.

    Row i of the k x s x s ``join`` and ``meet`` holds a partial lattice on
    0..sizes[i]-1, and UNDEF in the cells past it. Its extension adjoins a
    bottom exactly when its meet has a gap, and a top exactly when its join
    has one, placed as ``two_point_extension`` places them: the carrier,
    then the bottom, then the top. Each row is padded to the largest
    extension with elements related only to themselves, so the sup and inf
    of every other pair are those of the row's own extension.
    """
    k, s = join.shape[:2]
    # A table has a gap when fewer than sizes^2 of its cells are defined.
    has_bottom, has_top = ((np.concatenate((meet, join)) != UNDEF).reshape(2, k, -1).sum(2)
                           < sizes * sizes)
    star_sizes = sizes + has_bottom + has_top
    m = max(s, int(star_sizes.max()))
    leq = np.zeros((k, m, m), dtype=bool)
    leq[:, :s, :s] = join == np.arange(s)  # the induced order: x v y = y
    leq.reshape(k, -1)[:, :: m + 1] = True
    bottom, top = np.full(k, UNDEF), np.full(k, UNDEF)
    rows = zip(sizes.tolist(), star_sizes.tolist(), has_bottom.tolist(), has_top.tolist())
    for i, (n, star, low, high) in enumerate(rows):
        if low:
            bottom[i] = n
            leq[i, n, :star] = True
        if high:
            top[i] = star - 1
            leq[i, :star, star - 1] = True
    tables = _frozen(extrema_stack(leq)[0])  # each star shares its rows of it
    # Each row's gaps are symmetric, so the first lies on or above the diagonal.
    gaps = [first_true(gap[:n, :n])
            for gap, n in zip((tables == UNDEF).any(0), star_sizes.tolist())]
    errors = [None if pair is None else NotALattice(pair) for pair in gaps]
    return ExtensionStack(leq, *tables, star_sizes, bottom, top, errors)


@dataclass(frozen=True, eq=False)
class OnePointAlgebra(Carrier):
    """Totalization that routes every undefined cell to a single fresh element.

    Useful only as a counterexample: the result usually breaks the partial
    lattice axioms, which is the reason the two-point extension exists.
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
