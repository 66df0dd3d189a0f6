"""Completing a partial lattice to a total one with at most two new points.

The one-point totalization used for general partial algebras fails here,
so a bottom is adjoined when meets have gaps and a top when joins do. The
result is always a lattice, and operations restrict back exactly.
"""

from partlat import (
    AxiomViolation,
    antichain,
    build,
    emit_dot,
    find_isomorphism,
    named_lattice,
    one_point_extension,
    parse,
    two_point_extension,
    validate_partial_lattice,
)
from partlat.figures import FIG4_TEXT

fig4 = build(parse(FIG4_TEXT))

###############################################################################
# fig4 misses both a join and a meet, so the extension adjoins both bounds.
# The five-element result is the pentagon.

ext = two_point_extension(fig4)
print("adjoined:", ext.added)
print("star carrier:", ext.star.labels)
print("star is a pentagon:", find_isomorphism(ext.star, named_lattice("N5")) is not None)

###############################################################################
# Undefined joins land on the adjoined top; defined ones keep their values.

a, b, c = (fig4.index(x) for x in "abc")
print("a v b in the star:", ext.star.labels[ext.star.join[a, b]])
print("a v c in the star:", ext.star.labels[ext.star.join[a, c]])

###############################################################################
# The one-point totalization of the same structure is not a partial lattice
# at all: routing every gap to one fresh element breaks duality.

algebra = one_point_extension(fig4)
try:
    validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
except AxiomViolation as err:
    cell = tuple(algebra.labels[i] for i in err.witness)
    print(f"one-point totalization fails: {err.axiom} at {cell}")

###############################################################################
# Extensions are not monotone in the carrier. An antichain satisfies the
# strong distributive identity vacuously, yet its extension is the highly
# non-distributive M_n.

for n in (3, 4, 5):
    star = two_point_extension(antichain(n)).star
    m_n = named_lattice("M", n)
    print(f"antichain({n})* is M_{n}:", find_isomorphism(star, m_n) is not None)

###############################################################################
# Hasse diagrams export as DOT for rendering with graphviz.

print()
print(emit_dot(ext.star), end="")
