"""Ground-truth figure gallery: source documents and derived structures.

Base figures are stored in the text format and parsed on demand; every
other figure is computed from them, so the gallery doubles as an end-to-end
exercise of the parser, the extension, and the quotient machinery.
"""

from . import fmt
from .congruence import is_congruence_on_partial, lattice_quotient, quotient

FIG1_TEXT = """\
poset
elements 0 a b c d 1
rel 0<a
rel 0<b
rel a<c
rel a<d
rel b<c
rel b<d
rel c<1
rel d<1
"""

FIG2_TEXT = """\
plattice
elements l r t
join r t = t
meet r t = r
"""

FIG3_TEXT = """\
plattice
elements o l r t
join o l = l
join o r = r
join o t = t
join l r = t
join l t = t
join r t = t
meet o l = o
meet o r = o
meet o t = o
meet l r = o
meet l t = l
meet r t = r
"""

FIG4_TEXT = """\
plattice
elements a b c
join a c = c
meet a c = a
"""

FIG9_TEXT = """\
plattice
elements a b c d
join a b = c
join a c = c
join b c = c
join b d = d
meet a c = a
meet b c = b
meet b d = b
meet c d = b
"""

SOURCE_TEXTS = {
    "fig1": FIG1_TEXT,
    "fig2": FIG2_TEXT,
    "fig3": FIG3_TEXT,
    "fig4": FIG4_TEXT,
    "fig9": FIG9_TEXT,
}

# Congruences used by the quotient figures, written in CLI block syntax.
FIG4_CLASSES = "a c|b"
FIG9_CLASSES_BD = "a|b d|c"
FIG9_CLASSES_AC = "a c|b|d"
FIG9_CLASSES_BC = "a|b c|d"


def source(fig):
    """Parse and build one of the base figures."""
    return fmt.build(fmt.parse(SOURCE_TEXTS[fig]))


def congruence_of(lat, classes):
    """Partition of a structure's carrier from CLI block syntax."""
    return fmt.parse_partition(classes, lat.labels)


def _star(fig):
    return source(fig).extension.star


def _quot(fig, classes):
    lat = source(fig)
    return quotient(lat, congruence_of(lat, classes))


def _quot_star(fig, classes):
    return _quot(fig, classes).extension.star


def _star_quot(fig, classes):
    lat = source(fig)
    w = is_congruence_on_partial(lat, congruence_of(lat, classes))
    return lattice_quotient(lat.extension.star, w.theta)


DEMOS = {
    "fig1": ("poset failing the upper bound property at (a, b)",
             lambda: source("fig1")),
    "fig2": ("partial lattice included in fig3 by a homomorphism that is not closed",
             lambda: source("fig2")),
    "fig3": ("total lattice containing fig2; its extension adds nothing",
             lambda: source("fig3")),
    "fig4": ("partial lattice with one comparable pair and an isolated element",
             lambda: source("fig4")),
    "fig5": ("two-point extension of fig4, bottom and top adjoined",
             lambda: _star("fig4")),
    "fig6": (f"quotient of fig4 by {FIG4_CLASSES!r}, a two-element antichain",
             lambda: _quot("fig4", FIG4_CLASSES)),
    "fig7": ("two-point extension of fig6",
             lambda: _quot_star("fig4", FIG4_CLASSES)),
    "fig8": ("quotient of fig5 by the generated congruence",
             lambda: _star_quot("fig4", FIG4_CLASSES)),
    "fig9": ("partial lattice on four elements with two undefined joins",
             lambda: source("fig9")),
    "fig10": ("two-point extension of fig9, bottom and top adjoined",
              lambda: _star("fig9")),
    "fig11": (f"quotient of fig9 by {FIG9_CLASSES_BD!r}",
              lambda: _quot("fig9", FIG9_CLASSES_BD)),
    "fig12": ("two-point extension of fig11, bottom adjoined only",
              lambda: _quot_star("fig9", FIG9_CLASSES_BD)),
    "fig13": ("quotient of fig10 by the generated congruence",
              lambda: _star_quot("fig9", FIG9_CLASSES_BD)),
    "fig14": (f"quotient of fig9 by {FIG9_CLASSES_AC!r}",
              lambda: _quot("fig9", FIG9_CLASSES_AC)),
    "fig15": ("two-point extension of fig14, top adjoined only",
              lambda: _quot_star("fig9", FIG9_CLASSES_AC)),
    "fig16": ("quotient of fig10 by the generated congruence",
              lambda: _star_quot("fig9", FIG9_CLASSES_AC)),
    "fig17": (f"quotient of fig9 by {FIG9_CLASSES_BC!r}, a total chain",
              lambda: _quot("fig9", FIG9_CLASSES_BC)),
    "fig18": ("quotient of fig10 by the generated congruence",
              lambda: _star_quot("fig9", FIG9_CLASSES_BC)),
}

FIGURES = tuple(DEMOS)


def demo_structure(fig):
    """Note and structure for one figure id."""
    note, builder = DEMOS[fig]
    return note, builder()


def demo_text(fig):
    """Canonical demo output: a comment line plus the structure document."""
    note, structure = demo_structure(fig)
    return f"# {fig}: {note}\n" + fmt.format_document(fmt.to_document(structure))
