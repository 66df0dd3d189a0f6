import os
import subprocess
import sys
from pathlib import Path

import pytest

from partlat import figures as figs
from partlat.cli import cli


@pytest.fixture()
def fig4_file(tmp_path):
    path = tmp_path / "fig4.pl"
    path.write_text(figs.FIG4_TEXT)
    return str(path)


@pytest.fixture()
def fig9_file(tmp_path):
    path = tmp_path / "fig9.pl"
    path.write_text(figs.FIG9_TEXT)
    return str(path)


class TestValidate:
    def test_plattice_ok(self, fig4_file, capsys):
        assert cli(["validate", fig4_file]) == 0
        out = capsys.readouterr().out
        assert "axioms hold" in out
        assert "both_partial" in out

    def test_poset_reports_bound_failure(self, tmp_path, capsys):
        path = tmp_path / "fig1.p"
        path.write_text(figs.FIG1_TEXT)
        assert cli(["validate", str(path)]) == 0
        assert "no extremum" in capsys.readouterr().out

    def test_invalid_plattice_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("plattice\nelements a b\njoin a b = a\n")  # duality broken
        assert cli(["validate", str(path)]) == 1
        assert "duality" in capsys.readouterr().err

    def test_cyclic_poset_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cyc.p"
        path.write_text("poset\nelements a b\nrel a<b\nrel b<a\n")
        assert cli(["validate", str(path)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.pl"
        path.write_text("plattice\nelements a b\njoin a b c\n")
        assert cli(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "col" in err

    def test_missing_file_exits_2(self, capsys):
        assert cli(["validate", "/nonexistent/x.pl"]) == 2

    def test_directory_argument_exits_2(self, tmp_path, capsys):
        assert cli(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOrderExtend:
    def test_order_output_parses(self, fig9_file, capsys):
        assert cli(["order", fig9_file]) == 0
        from partlat import parse

        doc = parse(capsys.readouterr().out)
        assert doc.kind == "poset"
        assert ("a", "c") in doc.rels

    def test_extend_notes_added_bounds(self, fig4_file, capsys):
        assert cli(["extend", fig4_file]) == 0
        captured = capsys.readouterr()
        assert "added ⊥*, ⊤*" in captured.err
        assert "join" in captured.out

    def test_extend_dot(self, fig4_file, capsys):
        assert cli(["extend", fig4_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {")

    def test_extend_total_source(self, tmp_path, capsys):
        path = tmp_path / "fig3.pl"
        path.write_text(figs.FIG3_TEXT)
        assert cli(["extend", str(path)]) == 0
        assert "no bounds added" in capsys.readouterr().err


class TestOnepoint:
    def test_reports_axiom_failure_with_cell(self, fig4_file, capsys):
        assert cli(["onepoint", fig4_file]) == 0
        out = capsys.readouterr().out
        assert "not a partial lattice" in out
        assert "duality" in out
        assert "c*" in out

    def test_total_source(self, tmp_path, capsys):
        path = tmp_path / "fig3.pl"
        path.write_text(figs.FIG3_TEXT)
        assert cli(["onepoint", str(path)]) == 0
        assert "already total" in capsys.readouterr().out


class TestCongruencesQuotient:
    def test_congruences_lists_blocks(self, fig4_file, capsys):
        assert cli(["congruences", fig4_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "a c|b" in lines
        assert len(lines) == 3

    def test_quotient_matches_gallery(self, fig9_file, capsys):
        assert cli(["quotient", fig9_file, "--classes", "a|b d|c"]) == 0
        out = capsys.readouterr().out
        assert "elements [a] [b] [c]" in out
        assert "join [a] [b] = [c]" in out

    def test_quotient_rejects_non_congruence(self, fig9_file, capsys):
        assert cli(["quotient", fig9_file, "--classes", "a b"]) == 1

    def test_quotient_bad_classes_exit_2(self, fig9_file, capsys):
        assert cli(["quotient", fig9_file, "--classes", "a|q"]) == 2


class TestIso:
    def test_pentagon_poset_vs_named(self, tmp_path, capsys):
        pentagon = tmp_path / "pentagon.p"
        pentagon.write_text(
            "poset\nelements 0 a c b 1\n"
            "rel 0<a\nrel a<c\nrel c<1\nrel 0<b\nrel b<1\n"
        )
        assert cli(["iso", str(pentagon), "N5"]) == 0
        out = capsys.readouterr().out
        assert "->" in out

    def test_not_isomorphic(self, capsys):
        assert cli(["iso", "chain2", "chain3"]) == 1
        assert "not isomorphic" in capsys.readouterr().out

    def test_named_lattice_arguments(self, capsys):
        assert cli(["iso", "M2", "boolean2"]) == 0

    def test_oversized_named_lattice_exits_1(self, capsys):
        assert cli(["iso", "boolean99", "chain1"]) == 1
        assert "more than 128 elements" in capsys.readouterr().err

    def test_named_lattice_with_thousands_of_digits_exits_1(self, capsys):
        # int() refuses digit strings this long, so the size is rejected first.
        assert cli(["iso", "chain" + "9" * 5000, "chain1"]) == 1
        assert "chain size has 5000 digits" in capsys.readouterr().err

    def test_overlong_file_name_exits_2(self, capsys):
        assert cli(["iso", "x" * 5000, "chain1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestVerify:
    def test_small_corpus(self, capsys):
        assert cli(["verify", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "checked 8 partial lattices" in out
        assert "ok" in out

    def test_sweep_under_optimize_flag(self):
        # python -O strips assert statements; the sweep must still pass.
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-O", "-m", "partlat", "verify", "--n", "5"],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "checked 76 partial lattices on up to 5 elements: ok\n"

    def test_sweep_at_the_enumeration_cap(self):
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "partlat", "verify", "--n", "6"],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "checked 298 partial lattices on up to 6 elements: ok\n"
        for n in ("0", "7"):
            result = subprocess.run(
                [sys.executable, "-m", "partlat", "verify", "--n", n],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert result.returncode == 2, n


class TestDemo:
    @pytest.mark.parametrize("fig", figs.FIGURES)
    def test_demo_prints_expected_structure(self, fig, capsys):
        assert cli(["demo", fig]) == 0
        assert capsys.readouterr().out == figs.demo_text(fig)

    def test_unknown_fig_exits_2(self, capsys):
        assert cli(["demo", "fig99"]) == 2

    def test_demo_dot(self, capsys):
        assert cli(["demo", "fig5", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph {" in out


class TestUsage:
    def test_no_command(self):
        assert cli([]) == 2

    def test_module_entry_point(self, fig4_file):
        proc = subprocess.run(
            [sys.executable, "-m", "partlat", "validate", fig4_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "axioms hold" in proc.stdout
