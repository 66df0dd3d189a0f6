"""Corpus-wide verification of the laws the library promises.

Runs every universally quantified claim over the enumerated corpus of small
partial lattices. Failures carry the offending structure serialized in the
input format so they can be replayed from the command line.
"""

import traceback

import numpy as np

from . import fmt
from .congruence import (
    con_is_closed_under_meets,
    is_generated_witness,
    quotient_join_cases,
)
from .enumeration import enumerate_partial_lattices
from .morphism import (
    CLOSED_HOM,
    NOT_HOM,
    _classify,
    canonical_projection,
    extend_hom,
    kernel,
    quotient_extension_iso,
    restrict_hom,
)
from .order import first_true, is_plos
from .plattice import (
    BOTH_TOTAL,
    UNDEF,
    check_absorption,
    from_lattice,
    is_total,
    lp_roundtrip,
    pl_roundtrip,
)


def serialize(lat):
    """The structure in replayable input format."""
    return fmt.format_document(fmt.to_document(lat))


def _check_extension(lat):
    """Extension is a lattice, reflects the source exactly, and obeys the
    bound-set case law on every pair."""
    ext = lat.extension
    n = lat.n
    leq = lat.order.leq
    star_leq = ext.star.leq
    pair = first_true(star_leq[:n, :n] != leq)
    if pair is not None:
        return False, f"order not preserved at {pair}"
    for name, bound, row in (("bottom", ext.added_bottom, True), ("top", ext.added_top, False)):
        if bound is not None and not (star_leq[bound] if row else star_leq[:, bound]).all():
            return False, f"adjoined {name} is not extremal"
    # The carrier is the prefix of the star; a missing bound compares as UNDEF.
    sj, sm = ext.star.join[:n, :n], ext.star.meet[:n, :n]
    top, bottom = (UNDEF if b is None else b for b in (ext.added_top, ext.added_bottom))
    has_upper = leq @ leq.T  # [a, b]: U(a, b) is nonempty
    has_lower = leq.T @ leq
    laws = (
        (has_upper & (sj != lat.join), "join case law broken at ({}, {})"),
        (~has_upper & (sj != top), "empty U({}, {}) must join to the adjoined top"),
        ((lat.join == UNDEF) & (sj < n), "undefined join reflected into the carrier at ({}, {})"),
        (has_lower & (sm != lat.meet), "meet case law broken at ({}, {})"),
        (~has_lower & (sm != bottom), "empty L({}, {}) must meet to the adjoined bottom"),
        ((lat.meet == UNDEF) & (sm < n), "undefined meet reflected into the carrier at ({}, {})"),
    )
    cell = first_true(np.stack([mask for mask, _ in laws], axis=2))
    if cell is not None:
        a, b, law = cell
        return False, laws[law][1].format(a, b)
    embed_hom = _classify(range(n), lat, from_lattice(ext.star))  # a map the library built
    if embed_hom.kind == NOT_HOM:
        return False, "carrier is not a weak subalgebra of the extension"
    return True, ""


def _check_congruence(lat, e, w):
    """Quotient machinery for a single congruence, from its kept witness
    (None when no congruence of the extension restricts to e)."""
    if w is None or not is_generated_witness(w):
        return False, f"enumerated congruence not recognized: {e!r}"
    quot = w.quot

    # Case analysis agrees with the quotient table on every carrier pair.
    blocks = np.array(e.block_of)
    pair = first_true(quotient_join_cases(lat, e, witness=w)
                      != quot.join[blocks[:, None], blocks])
    if pair is not None:
        return False, "join case disagrees with table at [{}],[{}]".format(*pair)

    # Undefined quotient joins come from undefined source joins.
    leq, qleq = lat.order.leq, quot.order.leq
    lost = first_true((leq @ leq.T) & ~(qleq @ qleq.T)[blocks[:, None], blocks])
    if lost is not None:
        return False, f"quotient lost an upper bound at {lost}"

    proj = canonical_projection(lat, e, witness=w)
    rep = proj.report
    if rep.kind == NOT_HOM:
        return False, f"projection is not a homomorphism for {e!r}"
    if kernel(proj) != e:
        return False, f"projection kernel differs from {e!r}"
    ext = w.extension
    bounds_singleton = all(
        len(w.theta.block_containing(bound)) == 1
        for bound in (ext.added_bottom, ext.added_top)
        if bound is not None
    )
    if (rep.kind == CLOSED_HOM) != bounds_singleton:
        return False, f"projection closedness mismatches bound classes for {e!r}"
    if rep.kind == CLOSED_HOM:
        hstar = extend_hom(proj)
        if restrict_hom(hstar, lat, quot).mapping != proj.mapping:
            return False, f"extension does not restrict back for {e!r}"
    quotient_extension_iso(lat, e, witness=w)
    return True, ""


def structure_checks(lat):
    """Run every per-structure law; yields (name, ok, detail) triples.

    A passing law has an empty detail; a law that raises fails with the
    formatted traceback as its detail.
    """
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception:  # record and keep sweeping
            ok, detail = False, traceback.format_exc()
        results.append((name, ok, "" if ok else detail))

    def plain(predicate, message):
        return lambda: (bool(predicate()), message)

    run("weak_absorption", plain(lambda: check_absorption(lat, "weak").holds,
                                 "weak absorption failed"))
    run("strong_absorption_iff_total",
        plain(lambda: check_absorption(lat, "strong").holds == (is_total(lat) == BOTH_TOTAL),
              "strong absorption must characterize total structures"))
    run("roundtrip_structure", plain(lambda: lp_roundtrip(lat), "structure roundtrip failed"))
    run("roundtrip_order", plain(lambda: pl_roundtrip(lat.order),
                                 "order roundtrip failed"))
    run("order_coincidence", plain(
        lambda: bool(((lat.join == np.arange(lat.n)[None, :])
                      == (lat.meet == np.arange(lat.n)[:, None])).all()),
        "join and meet induce different orders"))
    run("induced_order_plos", plain(lambda: bool(is_plos(lat.order)),
                                    "induced order fails a bound property"))
    run("extension", lambda: _check_extension(lat))

    def congruence_sweep():
        # Both halves of the law run over ``lat.congruences``; the kept
        # witnesses are looked up by restriction.
        kept = {w.restriction: w for w in lat.congruence_witnesses}
        for e in lat.congruences:
            ok, detail = _check_congruence(lat, e, kept.get(e))
            if not ok:
                return False, detail
        if not con_is_closed_under_meets(lat):
            return False, "congruence set not closed under refinement"
        return True, ""

    run("congruences", congruence_sweep)
    return results


def verify_corpus(n_max):
    """Sweep the enumerated corpus; returns (checked, failures)."""
    checked = 0
    failures = []
    for lat in enumerate_partial_lattices(n_max):
        checked += 1
        for name, ok, detail in structure_checks(lat):
            if not ok:
                failures.append(f"{name}: {detail}\n{serialize(lat)}")
    return checked, failures
