"""Acceptance suite: one test per criterion, each printing a pass line.

Structural expectations are exact; runtime targets are asserted with the
stated bounds.
"""

import time

import pytest

from partlat import (
    AxiomViolation,
    antichain,
    check_distributivity,
    check_hom,
    find_isomorphism,
    is_congruence_on_partial,
    is_distributive,
    is_modular,
    is_plos,
    named_lattice,
    one_point_extension,
    quotient,
    quotient_extension_iso,
    to_lattice,
    two_point_extension,
    validate_partial_lattice,
)
from partlat import figures as figs
from partlat.cli import cli
from partlat.morphism import HOM
from partlat.verify import serialize, verify_corpus
from partlat.congruence import generate_congruence, Partition
from partlat.enumeration import enumerate_partial_lattices, canonical_form

from oracles import least_congruence_bruteforce, partition_to_comparable

BOT = "⊥*"
TOP = "⊤*"


def theta_blocks_by_label(lat, classes):
    e = figs.congruence_of(lat, classes)
    w = is_congruence_on_partial(lat, e)
    labels = lat.extension.star.labels
    return w, {frozenset(labels[i] for i in b) for b in w.theta.blocks}


def report(name, start, limit):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s, limit {limit}s)")
    assert elapsed < limit


def test_criterion_1_figure_fixtures(fig1, fig2, fig3, fig4, fig9):
    start = time.time()
    diamond = named_lattice("boolean", 2)

    # fig4: both bounds adjoined, star is the pentagon
    ext4 = two_point_extension(fig4)
    assert ext4.added == ("bottom", "top")
    assert find_isomorphism(ext4.star, named_lattice("N5")) is not None

    # fig1: bound property fails at (a, b)
    plos = is_plos(fig1)
    assert not plos
    assert plos.witness == (fig1.index("a"), fig1.index("b"))

    # fig2/fig3: inclusion is a homomorphism but not closed
    mapping = tuple(fig3.index(lbl) for lbl in fig2.labels)
    rep = check_hom(mapping, fig2, fig3)
    assert rep.kind == HOM
    assert rep.witness == (fig2.index("l"), fig2.index("r"))
    assert find_isomorphism(two_point_extension(fig2).star, named_lattice("N5")) is not None
    ext3 = two_point_extension(fig3)
    assert ext3.added == () and ext3.star == to_lattice(fig3)

    # figs 4 to 8
    w4, blocks4 = theta_blocks_by_label(fig4, figs.FIG4_CLASSES)
    assert blocks4 == {frozenset(s) for s in (("a", "c"), ("b",), (BOT,), (TOP,))}
    e4 = figs.congruence_of(fig4, figs.FIG4_CLASSES)
    q4 = quotient(fig4, e4)
    assert q4.labels == ("[a]", "[b]")
    assert int(q4.join[0, 1]) == -1 and int(q4.meet[0, 1]) == -1
    iso4 = quotient_extension_iso(fig4, e4)
    assert find_isomorphism(to_lattice(iso4.forward.source), diamond) is not None
    assert find_isomorphism(to_lattice(iso4.forward.target), diamond) is not None

    # figs 9 to 13
    w9, blocks9 = theta_blocks_by_label(fig9, figs.FIG9_CLASSES_BD)
    assert blocks9 == {frozenset(s) for s in (("a",), ("b", "d"), ("c", TOP), (BOT,))}
    e9 = figs.congruence_of(fig9, figs.FIG9_CLASSES_BD)
    q9 = quotient(fig9, e9)
    assert q9.labels == ("[a]", "[b]", "[c]")
    assert int(q9.join[0, 1]) == 2 and int(q9.meet[0, 1]) == -1
    qx9 = two_point_extension(q9)
    assert qx9.added == ("bottom",)
    quotient_extension_iso(fig9, e9)

    # figs 14 to 16
    w14, blocks14 = theta_blocks_by_label(fig9, figs.FIG9_CLASSES_AC)
    assert blocks14 == {frozenset(s) for s in (("a", "c"), ("b", BOT), ("d",), (TOP,))}
    e14 = figs.congruence_of(fig9, figs.FIG9_CLASSES_AC)
    q14 = quotient(fig9, e14)
    assert two_point_extension(q14).added == ("top",)
    quotient_extension_iso(fig9, e14)

    # figs 17 and 18: a total three-element chain equal to its own extension
    e17 = figs.congruence_of(fig9, figs.FIG9_CLASSES_BC)
    q17 = quotient(fig9, e17)
    chain = to_lattice(q17)
    assert find_isomorphism(chain, named_lattice("chain", 3)) is not None
    qx17 = two_point_extension(q17)
    assert qx17.added == () and qx17.star == chain
    quotient_extension_iso(fig9, e17)

    report("1 (figure fixtures)", start, 1.0)


def test_criterion_2_antichain_extensions():
    start = time.time()
    for n in (3, 4, 5):
        chainless = antichain(n)
        assert check_distributivity(chainless, "strong").holds
        star = two_point_extension(chainless).star
        m_n = named_lattice("M", n)
        assert find_isomorphism(star, m_n) is not None
        assert not is_distributive(m_n)
        assert is_modular(m_n)  # measured: M_n is modular (and not distributive)
    report("2 (antichain extensions)", start, 1.0)


def test_criterion_3_exhaustive_corpus():
    start = time.time()
    checked, failures = verify_corpus(5)
    assert checked == 76
    assert not failures, "\n".join(failures)
    report("3 (exhaustive laws, n <= 5)", start, 120.0)


def test_criterion_4_congruence_closure_oracle():
    start = time.time()
    seen = set()
    compared = 0
    for lat in enumerate_partial_lattices(5):
        star = two_point_extension(lat).star
        if star.n > 6:
            continue
        key, _ = canonical_form(star.order.leq)
        if key in seen:
            continue
        seen.add(key)
        for a in range(star.n):
            for b in range(a + 1, star.n):
                theta = generate_congruence(
                    star, Partition.from_blocks(star.n, [(a, b)])
                )
                assert partition_to_comparable(theta) == least_congruence_bruteforce(
                    star, a, b
                ), serialize(lat)
                compared += 1
    assert compared > 100
    report(f"4 (closure vs oracle, {compared} seeds)", start, 120.0)


def test_criterion_5_one_point_counterexample(fig4, capsys):
    start = time.time()
    algebra = one_point_extension(fig4)
    with pytest.raises(AxiomViolation) as err:
        validate_partial_lattice(algebra.labels, algebra.join, algebra.meet)
    witness = tuple(algebra.labels[i] for i in err.value.witness)
    print(f"one-point totalization of fig4 breaks {err.value.axiom} at cell {witness}")
    assert algebra.labels[algebra.new_element] in witness
    assert cli(["demo", "fig4"]) == 0  # the source structure stays printable
    capsys.readouterr()
    report("5 (one-point counterexample)", start, 1.0)


def test_criterion_6_cli_contract(tmp_path, capsys):
    start = time.time()
    for fig in [f"fig{i}" for i in range(4, 19)]:
        assert cli(["demo", fig]) == 0
        assert capsys.readouterr().out == figs.demo_text(fig)
    bad = tmp_path / "bad.pl"
    bad.write_text("plattice\nelements a b\njoin a b c\n")
    assert cli(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "col" in err
    report("6 (CLI contract)", start, 10.0)
