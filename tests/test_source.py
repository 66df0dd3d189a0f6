"""Checks on the library source itself."""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "partlat"
TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_no_assert_statements():
    # python -O strips asserts, so library checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_entry_points_exist():
    # The benchmark tracer rebinds these names; a missing one would only
    # show up in the slow benchmark tests.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    missing = [f"{module}.{fn}" for module, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"partlat.{module}"), fn, None))]
    assert traced and missing == []


def test_every_oracle_is_used():
    # A reference that no test reaches checks nothing. An oracle counts as
    # used when a test module or another oracle names it.
    tests = Path(__file__).parent
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in oracles.body if isinstance(node, ast.FunctionDef)}

    def names(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}

    used = set().union(*(names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in tests.glob("test_*.py")))
    for name, node in defined.items():
        used |= names(node) - {name}
    assert sorted(defined.keys() - used) == []


def module_names(module):
    """Every name that ``module``.py imports or reads, attributes included."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def callers(name):
    """(module, function) of every function in the library that calls ``name``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                    for call in ast.walk(node)):
                found.add((path.stem, node.name))
    return found


def test_sweep_uses_no_per_congruence_route():
    # The sweep checks every congruence of a structure in one stacked pass
    # and builds every L/E and (L/E)* as one stack; these per-congruence
    # functions are its reference, not its route, so verify.py neither
    # imports nor names them.
    per_congruence = {"quotient_extension_iso", "lattice_quotient", "extend_hom",
                      "restrict_hom", "canonical_projection", "quotient",
                      "two_point_extension", "validate_partial_lattice", "quot"}
    assert module_names("verify") & per_congruence == set()


def test_sweep_restates_no_seeding_or_homomorphism_scan():
    # The seeded D-closure is congruence.collapsed_irreducibles and the
    # homomorphism masks are morphism.hom_masks; verify.py calls them and
    # reads neither the join-irreducible rows and D order nor the one-map
    # classifier.
    restated = {"rows", "below", "_seeded_irreducibles", "_classify", "NOT_HOM", "from_lattice"}
    assert module_names("verify") & restated == set()


def test_one_down_set_lister():
    # order.down_sets lists the down-sets of an order for the poset levels
    # and of the dependency order for Con L; neither caller keeps its own
    # filter or walk, nor the per-congruence reader.
    for module in ("enumeration", "congruence"):
        names = module_names(module)
        assert "down_sets" in names, module
        assert names & {"_down_sets", "under", "_congruence_reader"} == set(), module


def test_congruence_law_picks_its_failure_once():
    # Every law of the congruence law runs on every row of the table, and one
    # pick over the (row, law) failures finds the first: congruence_law picks
    # once, and verify.py keeps no second picker.
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_until_error" not in defined
    picks = [node for node in ast.walk(defined["congruence_law"])
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_first_failure"]
    assert len(picks) == 1


def test_one_recognition():
    # congruence.generated_rows is the one test that theta is the congruence
    # e generates on L*, and the sweep, which runs it on every row of the
    # table, is its one caller: the quotient functions generate Theta(e)
    # and take no theta in. A generated or recognised theta cannot trip a
    # quotient build, so congruence.py builds no InvariantError.
    assert callers("generated_rows") == {("verify", "congruence_law")}
    assert "InvariantError" not in module_names("congruence")


def test_no_witness_is_read_back():
    # A congruence witness is only an output: no quotient function takes
    # one, and a witness holds no quotient.
    from partlat import (
        CongruenceWitness,
        canonical_projection,
        quotient,
        quotient_extension_iso,
        quotient_join_case,
        quotient_join_cases,
    )

    for fn in (quotient, quotient_join_cases, quotient_join_case, canonical_projection,
               quotient_extension_iso):
        assert "witness" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(CongruenceWitness, "quot")


def test_nothing_points_back_at_its_structure():
    # Neither L* nor a congruence witness holds the structure it came from:
    # a function that needs the structure takes it as an argument. Con L is
    # stored once, as lat.congruence_table, and all_partial_congruences is
    # its one Partition view.
    from dataclasses import fields

    from partlat import CongruenceWitness, Extension, PartialLattice, Partition
    from partlat.congruence import _quotient

    assert [f.name for f in fields(Extension)] == ["star", "added_bottom", "added_top"]
    assert [f.name for f in fields(CongruenceWitness)] == ["theta", "restriction",
                                                           "is_congruence"]
    assert not hasattr(PartialLattice, "congruences")
    assert not hasattr(PartialLattice, "congruence_witnesses")
    assert not hasattr(Partition, "meet") and not hasattr(Partition, "refines")
    assert list(inspect.signature(_quotient).parameters)[0] == "lat"


def test_one_scan_per_order():
    # A Poset caches its sup/inf scan as p.extrema, which is_plos, from_plos,
    # validate_lattice and the sweep's extension law read; the enumeration
    # levels scan their stacks themselves, and extension_stack fills its
    # tables by the case law without a scan. No module keeps a one-order
    # wrapper that scans again, and no other module calls the scan.
    wrappers = {"extrema", "plos_report", "lattice_stack"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert defined & wrappers == set(), path.name
        if path.stem not in ("order", "enumeration"):
            assert "extrema_stack" not in module_names(path.stem), path.name


def test_sweep_reads_the_congruence_table():
    # The sweep reads each structure's congruences as one array table; the
    # Partition views, their dedupe by restriction and the row alignment
    # are the library's API edge and the tests' reference, not its route.
    assert module_names("verify") & {"Partition", "congruence_witnesses", "restrict",
                                     "takewhile"} == set()


def test_one_table_type():
    # A lattice is a partial lattice whose tables are total, so it needs no
    # converter and no second name for its order.
    from partlat.order import Lattice, PartialLattice

    assert issubclass(Lattice, PartialLattice)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert "from_lattice" not in defined | module_names(path.stem), path.name
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "poset" not in read, path.name


def test_lattice_laws_scan_no_triples():
    # is_distributive reads the join-irreducibles and is_modular the covers;
    # neither goes through the n^3 compound-term scan.
    tree = ast.parse((SRC / "order.py").read_text(encoding="utf-8"))
    laws = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name in ("is_distributive", "is_modular")}
    assert len(laws) == 2
    for name, node in laws.items():
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        assert named & {"first_mismatches", "distributive_mismatch"} == set(), name


def test_one_triple_scan():
    # plattice.first_mismatches is the one scan of compound terms over
    # triples: the distributivity and associativity checks both call it, no
    # other function does, and it reads its terms through flat gathers, with
    # no np.ix_ left in plattice.py.
    assert callers("first_mismatches") == {("plattice", "distributive_mismatch"),
                                           ("plattice", "axiom_violations")}
    assert "ix_" not in module_names("plattice")


def test_every_exported_error_is_raised():
    # An error class that no module raises is a guard nobody can trip. The
    # stacked checks build one error per row and raise the first, so a class
    # counts as raised where a module other than errors.py raises or builds it.
    from partlat import errors

    raised = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = node.func if isinstance(node, ast.Call) else (
                node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, (ast.Name, ast.Attribute)):
                raised.add(target.id if isinstance(target, ast.Name) else target.attr)
    assert sorted(set(errors.__all__) - {"PartlatError"} - raised) == []
