import sys
from collections import Counter

import pytest

from partlat import (
    UNDEF,
    CongruenceWitness,
    Partition,
    antichain,
    congruence,
    enumerate_partial_lattices,
    from_lattice,
    named_lattice,
    verify,
    verify_corpus,
)
from partlat.verify import structure_checks


def test_raising_law_keeps_its_traceback(monkeypatch, fig4):
    def broken(lat, mode):
        raise RuntimeError("absorption exploded")

    monkeypatch.setattr(verify, "check_absorption", broken)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(fig4)}
    ok, detail = results["weak_absorption"]
    assert not ok
    assert detail.startswith("Traceback (most recent call last):")
    assert "in broken" in detail
    assert detail.rstrip().endswith("RuntimeError: absorption exploded")
    assert results["roundtrip_structure"][0]  # the sweep went on


def test_passing_checks_have_empty_detail():
    for lat in enumerate_partial_lattices(3):
        for name, ok, detail in structure_checks(lat):
            assert ok, (name, detail)
            assert detail == "", name


def congruence_detail(lat, theta, e):
    """The congruence law's outcome when ``theta`` is kept as the witness of e."""
    lat.congruence_witnesses = (CongruenceWitness(theta, e, True, lat.extension),)
    lat.congruences = (e,)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(lat)}
    return results["congruences"]


def test_generated_witness_is_recognized():
    lat = antichain(2)  # star: a1 0, a2 1, bottom 2, top 3
    identity = Partition.identity(2)
    assert congruence_detail(lat, Partition.identity(4), identity) == (True, "")


@pytest.mark.parametrize("lat, theta, e", [
    # A congruence of L* (the kernel of a projection of 2 x 2) restricting to
    # the identity, but not the congruence the identity generates.
    (antichain(2), Partition([0, 1, 0, 1]), Partition.identity(2)),
    # Restricts to the identity and collapses no join-irreducible, but bottom
    # and top are related while a1 = bottom v a1 and top = top v a1 are not.
    (antichain(2), Partition([0, 1, 2, 2]), Partition.identity(2)),
    # The congruence {a, c} generates on the chain a < b < c, but it does not
    # restrict to {a, c}.
    (from_lattice(named_lattice("chain", 3)), Partition.full(3),
     Partition.from_blocks(3, [(0, 2)])),
])
def test_forged_witness_is_not_recognized(lat, theta, e):
    ok, detail = congruence_detail(lat, theta, e)
    assert not ok
    assert detail == f"enumerated congruence not recognized: {e!r}"


@pytest.mark.parametrize("forged, detail", [
    # Not convex, so no congruence of the extension restricts to it.
    ((Partition.from_blocks(3, [(0, 2)]),),
     f"enumerated congruence not recognized: {Partition.from_blocks(3, [(0, 2)])!r}"),
    # Every member is a congruence, but their meet, the identity, is left out.
    ((Partition.from_blocks(3, [(0, 1)]), Partition.from_blocks(3, [(1, 2)]), Partition.full(3)),
     "congruence set not closed under refinement"),
])
def test_assigned_congruences_reach_both_halves_of_the_sweep(forged, detail):
    lat = from_lattice(named_lattice("chain", 3))
    lat.congruences = forged
    results = {name: (ok, detail) for name, ok, detail in structure_checks(lat)}
    assert results["congruences"] == (False, detail)


def test_sweep_generates_no_congruence(monkeypatch):
    calls = Counter()
    for name in ("generate_congruence", "is_congruence_on_partial"):
        original = getattr(congruence, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("partlat") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    checked, failures = verify_corpus(4)
    assert (checked, failures) == (23, [])
    assert calls == {}


def test_join_case_disagreement_is_reported(monkeypatch, fig9):
    real = verify.quotient_join_cases

    def off_by_one(lat, e, witness=None):
        table = real(lat, e, witness=witness).copy()
        table[0, 1] = table[1, 0] = UNDEF if table[0, 1] != UNDEF else 0
        return table

    monkeypatch.setattr(verify, "quotient_join_cases", off_by_one)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(fig9)}
    assert results["congruences"] == (False, "join case disagrees with table at [0],[1]")
