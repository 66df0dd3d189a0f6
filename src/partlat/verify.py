"""Corpus-wide verification of the laws the library promises.

Runs every universally quantified claim over the enumerated corpus of small
partial lattices. Failures carry the offending structure serialized in the
input format so they can be replayed from the command line.

The sweep takes each level of the corpus in blocks. A block's derived
objects, L*, the scans of L's and L*'s orders, L*'s join-irreducibles and
the congruence table, are built with one stacked call per kind into the
structures' cached slots, and the laws then run on each structure alone.

The congruence law, that L/E is a partial lattice and (L/E)* is isomorphic
to L*/theta(E), is checked for all congruences of a structure at once: it
reads the structure's congruence table, L/E and (L/E)* of all its rows are
built as padded stacks of tables, and each check is one gather or broadcast
over the stack. Every check runs on every row, and the failure reported is
the first failing check of the first failing row. A row is recognised as
Theta(e) by ``congruence.generated_rows``. A check that earlier checks
imply is left out, with its proof in the docstring of the laws it would
join. The per-congruence functions of ``congruence``, ``extension`` and
``morphism`` stay the reference for it.
"""

import traceback
from collections import deque
from itertools import groupby, islice

import numpy as np

from . import congruence, fmt
from .congruence import (con_is_closed_under_meets, congruence_tables, generated_rows,
                         join_case_stack, quotient_stack)
from .enumeration import enumerate_partial_lattices
from .errors import InvariantError
from .extension import extension_stack, two_point_extensions
from .morphism import hom_masks
from .order import first_true, is_plos, scan_orders
from .plattice import (
    BOTH_TOTAL,
    UNDEF,
    axiom_violations,
    check_absorption,
    is_total,
    lp_roundtrip,
    pl_roundtrip,
)

# Cells of L* tables, padded to n + 2 elements, per block of a level.
_CELLS = 2**12


def serialize(lat):
    """The structure in replayable input format."""
    return fmt.format_document(fmt.to_document(lat))


def _check_extension(lat):
    """L* is a lattice whose operations are sup and inf: one scan of its
    order, which the star reads from its join, finds both for every pair,
    and they are the star's join and meet."""
    star = lat.extension.star
    tables = star.order.extrema[0]
    pair = first_true((tables == UNDEF).any(0))
    if pair is not None:
        return False, f"extension order has no sup or inf at {pair}"
    cell = first_true(tables != np.stack((star.join, star.meet)))
    if cell is not None:
        side, a, b = cell
        return False, f"extension {('join', 'meet')[side]} is not the order's at ({a}, {b})"
    return True, ""


def _first_failure(laws, lat):
    """(row, detail) of the first failing law of the first congruence that
    fails one, or None. A law is a per-row list of exceptions or None, each
    row's exception its detail; or a mask over [congruence, ...] and a
    detail: a template filled with the first failing pair and the
    congruence ``e``, built only then, or an InvariantError to raise."""
    laws = [(np.array([error is not None for error in law]), law) if isinstance(law, list) else law
            for law in laws]
    cell = first_true(np.stack([mask.reshape(len(mask), -1).any(1) for mask, _ in laws], axis=1))
    if cell is None:
        return None
    i, law = cell
    mask, detail = laws[law]
    if isinstance(detail, list):
        detail = detail[i]
    elif isinstance(detail, str):
        detail = detail.format(*(first_true(mask[i]) if mask.ndim > 1 else ()),
                               e=congruence.all_partial_congruences(lat)[i])
    return i, detail


def _quotient_laws(lat, qjoin, qmeet, block_of, theta):
    """The laws on the stacked L/E tables: join cases, and the projection,
    which is a homomorphism, closed exactly when the adjoined bounds are
    singleton classes. The projection is e's block map, so its kernel is e.

    No law asks whether L/E keeps the upper bounds of L, as the axioms and
    the join cases imply it: on a partial lattice the orders read from the
    join and from the meet agree (duality), and the join cases fix
    [a] v [c] = [c] for every a <= c of L, so an upper bound of L stays
    one in L/E."""
    ext = lat.extension
    n, k = lat.n, len(qjoin)
    classes = np.arange(k)[:, None, None], block_of[:, :, None], block_of[:, None, :]
    alpha = theta[:, ext.added_top] if ext.added_top is not None else np.full(k, n)
    broken, extra = hom_masks(block_of, (lat.join, lat.meet), (qjoin, qmeet))
    closed = ~(broken | extra).any((0, 2, 3))
    bounds = [b for b in (ext.added_bottom, ext.added_top) if b is not None]
    singleton = ((theta[:, :, None] == theta[:, None, bounds]).sum(1) == 1).all(1)
    return (
        (join_case_stack(lat, block_of, alpha) != qjoin[classes],
         "join case disagrees with table at [{}],[{}]"),
        (broken.any((0, 2, 3)), "projection is not a homomorphism for {e!r}"),
        (closed != singleton, "projection closedness mismatches bound classes for {e!r}"),
    ), closed


def _extension_laws(lat, x, block_of, theta, closed):
    """The laws on the stacked (L/E)* of ``x``, an ExtensionStack, through
    one map L* -> (L/E)*: each carrier element to its block and each
    adjoined bound to the matching bound of (L/E)*, UNDEF where it has
    none, read at the least member of the theta-class.

    On a row that passes the earlier laws theta is Theta(e), which puts each
    carrier element's least member in its block, and a closed projection
    has singleton bound classes: the map is then the extended projection,
    which must be a homomorphism and restricts back to the projection by
    construction. (L/E)* is isomorphic to L*/theta through the map exactly
    when it is a homomorphism onto (L/E)* with kernel theta: the
    homomorphism theorem, as a bijective lattice homomorphism is an
    isomorphism. The map is constant on theta-classes, so its kernel is
    theta when its image has as many elements as theta has classes."""
    ext = lat.extension
    star = ext.star
    lifted = np.zeros((len(block_of), star.n), dtype=np.int64)
    lifted[:, :lat.n] = block_of
    for source, target in ((ext.added_bottom, x.bottom), (ext.added_top, x.top)):
        if source is not None:
            lifted[:, source] = target
    lifted = np.take_along_axis(lifted, theta, 1)
    broken, _ = hom_masks(lifted, (star.join, star.meet), (x.join, x.meet))
    hom = ~broken.any((0, 2, 3))
    pos = np.arange(x.join.shape[1])
    onto = ((lifted[:, :, None] == pos).any(1) | (pos >= x.sizes[:, None])).all(1)
    classes = (theta == np.arange(star.n)).sum(1)
    return (
        (closed & ~hom, InvariantError("extended map must be a homomorphism")),
        (~(hom & onto & (classes == x.sizes)),
         InvariantError("quotient extension exchange failed to verify")),
    )


def congruence_law(lat):
    """The quotient machinery over every congruence of ``lat`` in one stacked
    pass, then the closure of the congruence set under meets.

    The rows of ``lat.congruence_table`` are the stack, each recognised as
    Theta(e) by ``generated_rows``, which makes its class tables well
    defined. L/E of all of them is one stack of class tables
    (``quotient_stack``), checked against the axioms as one stack
    (``axiom_violations``), and their (L/E)* one stack of tables
    (``extension_stack``); each law is one gather or broadcast over the
    stack, run on every row: no gather raises on a row that failed an
    earlier law, and the case law makes a lattice of each row that passed
    the axioms. The exchange law checks (L/E)*, built from the L/E tables
    alone, through one map from L* that is constant on theta-classes. One
    pick then takes the first law, in the call's order, that the first
    failing row fails: a detail or an error to raise. Rows are independent,
    so that is the failure checking the congruences one at a time, each
    check in turn, meets first.
    """
    least, theta = lat.congruence_table
    rank = np.cumsum(least == np.arange(lat.n), axis=1) - 1
    block_of = np.take_along_axis(rank, least, 1)  # blocks numbered as in Partition.block_of
    failure = None
    if len(theta):  # only a forged table is empty, and quotient_stack needs a row
        qjoin, qmeet, reps = quotient_stack(lat, block_of, theta)
        sizes = (reps != UNDEF).sum(1)
        axioms = axiom_violations(lambda i, x: f"[{lat.labels[reps[i, x]]}]", qjoin, qmeet, sizes)
        laws, closed = _quotient_laws(lat, qjoin, qmeet, block_of, theta)
        x = extension_stack(qjoin, qmeet, sizes)
        _, failure = _first_failure((
            (~generated_rows(lat, least, theta), "enumerated congruence not recognized: {e!r}"),
            axioms, *laws, *_extension_laws(lat, x, block_of, theta, closed),
        ), lat) or (0, None)
    if isinstance(failure, Exception):
        raise failure
    if failure is not None:
        return False, failure
    if not con_is_closed_under_meets(lat):
        return False, "congruence set not closed under refinement"
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

    run("congruences", lambda: congruence_law(lat))
    return results


def _derive_block(lats):
    """Give each structure of ``lats`` its L*, the sup/inf and cover scans
    of its order and of L*'s, its congruence table and L*'s
    join-irreducibles, in their cached slots, from one
    ``two_point_extensions`` call, one ``scan_orders`` call per order kind
    and one ``congruence_tables`` call, which fills the stars'
    ``irreducibles``. L's order is ``lat.order``, read from the structure's
    own join, so the roundtrip laws still compare the join with the order
    it gives."""
    for lat, ext in zip(lats, two_point_extensions(lats)):
        lat.extension = ext
    scan_orders([lat.order for lat in lats])
    scan_orders([lat.extension.star.order for lat in lats])
    for lat, table in zip(lats, congruence_tables(lats)):
        lat.congruence_table = table


def verify_corpus(n_max):
    """Sweep the enumerated corpus; returns (checked, failures).

    The one enumeration stream is grouped by carrier size, and each level
    is cut into blocks whose L* tables, padded to n + 2 elements, fit in
    ``_CELLS`` cells. ``_derive_block`` builds a block's derived objects,
    the congruence tables among them, with one stacked call per kind, so
    ``structure_checks`` builds none. Then ``structure_checks``, looked up
    at each call, runs on each structure in stream order, so failures are
    listed as a sweep of one structure at a time lists them. A structure is
    dropped once its laws are read.
    """
    checked = 0
    failures = []
    for n, level in groupby(enumerate_partial_lattices(n_max), key=lambda lat: lat.n):
        size = max(1, _CELLS // (n + 2) ** 2)
        while block := deque(islice(level, size)):
            _derive_block(block)
            while block:
                lat = block.popleft()
                checked += 1
                for name, ok, detail in structure_checks(lat):
                    if not ok:
                        failures.append(f"{name}: {detail}\n{serialize(lat)}")
                del lat
    return checked, failures
