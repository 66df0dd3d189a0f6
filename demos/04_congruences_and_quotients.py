"""Congruences of partial lattices and their quotient structures.

An equivalence relation qualifies as a congruence when the congruence it
generates on the two-point extension restricts back to it without growth.
Quotients then inherit partial operations through the extension classes.
"""

from partlat import (
    all_partial_congruences,
    build,
    is_congruence_on_partial,
    is_total,
    parse,
    parse_partition,
    quotient,
    quotient_join_case,
)
from partlat.figures import FIG9_TEXT

fig9 = build(parse(FIG9_TEXT))
labels = fig9.labels

###############################################################################
# All congruences, enumerated through the extension. The identity and the
# one-block relation always appear.

print("congruences of fig9:")
for e in all_partial_congruences(fig9):
    print("  ", e.render(labels))

###############################################################################
# Merging b with d forces c together with the adjoined top upstairs; the
# relation still restricts back to itself, so it is a congruence.

e = parse_partition("a|b d|c", labels)
w = is_congruence_on_partial(fig9, e)
star_labels = fig9.extension.star.labels
print("generated classes upstairs:",
      [tuple(star_labels[i] for i in block) for block in w.theta.blocks])

###############################################################################
# The quotient can define joins the source lacks: a v d does not exist in
# fig9, yet [a] v [d] = [c] because c is identified with the top.

q = quotient(fig9, e)
print("quotient carrier:", q.labels, "totality:", is_total(q))
case = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("d"))
print(f"[a] v [d]: branch={case.kind} value={q.labels[case.block]} "
      f"alpha={labels[case.alpha]}")

###############################################################################
# Different representatives may take different branches but always land in
# the same class; that is what makes the class operations well defined.

via_b = quotient_join_case(fig9, e, fig9.index("a"), fig9.index("b"))
print(f"[a] v [b] via b: branch={via_b.kind} value={q.labels[via_b.block]}")

###############################################################################
# A quotient may even be a total lattice while the source is properly
# partial: merging b with c yields a three-element chain.

chain = quotient(fig9, parse_partition("a|b c|d", labels))
print("quotient by 'a|b c|d':", chain.labels, "totality:", is_total(chain))
