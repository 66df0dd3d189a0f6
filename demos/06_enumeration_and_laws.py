"""Exhaustive small-instance verification of the structural laws.

Every law the library promises is universally quantified over finite
partial lattices, so they are machine-checked over the complete corpus of
small instances up to isomorphism.
"""

from collections import Counter

from partlat import enumerate_partial_lattices, is_total, two_point_extension
from partlat.verify import structure_checks, verify_corpus

###############################################################################
# The corpus: all partial lattices on up to five elements, one per
# isomorphism class.

corpus = list(enumerate_partial_lattices(5))
print("corpus size:", len(corpus))
print("by carrier size:", dict(sorted(Counter(lat.n for lat in corpus).items())))
print("by totality:", dict(sorted(Counter(is_total(lat) for lat in corpus).items())))

###############################################################################
# Extensions add zero, one, or two points depending on which tables have
# gaps.

print("by adjoined bounds:",
      dict(sorted(Counter(two_point_extension(lat).added for lat in corpus).items())))

###############################################################################
# Per-structure checks: absorption, the order correspondence roundtrips,
# extension case laws, and the full congruence battery.

sample = corpus[10]
for name, ok, detail in structure_checks(sample):
    print(f"  {name}: {'ok' if ok else detail}")

###############################################################################
# The full sweep runs the same battery over the whole corpus and reports
# failures with the offending structure serialized for replay.

checked, failures = verify_corpus(4)
print(f"swept {checked} structures on up to 4 elements: "
      f"{'all laws hold' if not failures else failures}")
