"""Two-point and one-point extensions of partial lattices."""

from dataclasses import dataclass

import numpy as np

from .order import (BOTTOM_LABEL, TOP_LABEL, Lattice, Poset, _frozen, sink_table,
                    validate_lattice)
from .plattice import (
    BOTH_PARTIAL,
    BOTH_TOTAL,
    JOIN_PARTIAL,
    MEET_PARTIAL,
    PartialLattice,
    is_total,
)

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
    the extended order.
    """
    totality = is_total(lat)
    add_bottom = totality in (MEET_PARTIAL, BOTH_PARTIAL)
    add_top = totality in (JOIN_PARTIAL, BOTH_PARTIAL)
    base = lat.order
    n = lat.n
    m = n + add_bottom + add_top
    labels = list(lat.labels)
    bottom = top = None
    if add_bottom:
        bottom = n
        labels.append(BOTTOM_LABEL)
    if add_top:
        top = n + 1 if add_bottom else n
        labels.append(TOP_LABEL)
    leq = np.zeros((m, m), dtype=bool)
    leq[:n, :n] = base.leq
    np.fill_diagonal(leq, True)
    if bottom is not None:
        leq[bottom, :] = True
    if top is not None:
        leq[:, top] = True
    star = validate_lattice(Poset(labels, leq))
    return Extension(lat, star, bottom, top)


@dataclass(frozen=True, eq=False)
class OnePointAlgebra:
    """Totalization that routes every undefined cell to a single fresh element.

    Useful only as a counterexample: the result usually breaks the partial
    lattice axioms, which is the reason the two-point extension exists.
    """

    labels: tuple
    join: np.ndarray
    meet: np.ndarray
    new_element: int | None

    @property
    def n(self):
        return len(self.labels)


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
