import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partlat import cli as cli_module
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

    def test_dash_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(figs.FIG4_TEXT))
        assert cli(["validate", "-"]) == 0
        assert "axioms hold" in capsys.readouterr().out

    def test_closed_stdin_exits_2(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "partlat", "validate", "-"],
            capture_output=True, text=True, timeout=60, preexec_fn=lambda: os.close(0),
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: stdin is closed\n"

    def test_plos_poset_is_reported_and_extended(self, tmp_path, capsys):
        path = tmp_path / "vee.p"
        path.write_text("poset\nelements a b c\nrel a<c\nrel b<c\n")
        assert cli(["validate", str(path)]) == 0
        assert "bound properties: satisfied (partially lattice-ordered)" in capsys.readouterr().out
        assert cli(["extend", str(path)]) == 0
        assert "added ⊥*" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, where", [
        ("elements a b\njoin a b = {x}", "line 3, col 12: unknown label"),
        ("elements a b\njoin a {x} = a", "line 3, col 8: unknown label"),
        ("elements {x} b\nmeet {x} b = {x}\nmeet b {x} = {x}",
         "line 4, col 6: duplicate cell meet b"),
        ("elements a {x} {x}", "line 2, col 200013: duplicate label"),
    ])
    def test_long_label_is_clipped_in_errors(self, tmp_path, text, where, capsys):
        path = tmp_path / "long.pl"
        path.write_text("plattice\n" + text.format(x="x" * 200_000) + "\n")
        assert cli(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300
        assert err.startswith(f"error: {where}")
        assert f"{'x' * 64}... (200000 characters)" in err

    def test_missing_file_exits_2(self, capsys):
        assert cli(["validate", "/nonexistent/x.pl"]) == 2

    def test_directory_argument_exits_2(self, tmp_path, capsys):
        assert cli(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.p"
        path.write_bytes(b"poset\nelements a\xc3\xa9 b\xff\n")
        assert cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2, col 14: expected UTF-8 text\n"

    def test_non_utf8_byte_is_located_across_any_line_break(self, tmp_path, capsys):
        # Lines break as the parser breaks them: "\r\n", "\r" and "\x0b" too.
        path = tmp_path / "crlf.p"
        path.write_bytes(b"poset\r\nelements a\rb\x0bc \xff\n")
        assert cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 4, col 3: expected UTF-8 text\n"

    @pytest.mark.parametrize("stdin_decoding", ["utf-8:surrogateescape", "utf-8:strict", "latin-1"])
    @pytest.mark.parametrize("data, col", [
        (b"plattice\nelements \xff\n", 10),  # in a label
        (b"plattice\nelements a # \xff\n", 14),  # in a comment
    ], ids=["label", "comment"])
    def test_non_utf8_stdin_is_reported_like_a_file(self, tmp_path, stdin_decoding, data, col):
        # Whatever decoding the interpreter gives stdin, "-" reads UTF-8 as a file does.
        path = tmp_path / "bad.pl"
        path.write_bytes(data)
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": stdin_decoding}
        for arg, stdin in ((str(path), b""), ("-", data)):
            result = subprocess.run([sys.executable, "-m", "partlat", "validate", arg],
                                    input=stdin, capture_output=True, timeout=60, env=env)
            assert (result.returncode, result.stdout) == (2, b""), arg
            assert result.stderr == f"error: line 2, col {col}: expected UTF-8 text\n".encode()

    def test_nul_in_file_name_exits_2(self, capsys):
        assert cli(["validate", "fig\0.p"]) == 2
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
        assert capsys.readouterr().err == "error: line 1, col 3: unknown label 'q' in partition\n"

    def test_quotient_long_class_label_is_clipped(self, fig9_file, capsys):
        assert cli(["quotient", fig9_file, "--classes", "a|" + "q" * 200_000]) == 2
        err = capsys.readouterr().err
        assert err == ("error: line 1, col 3: unknown label "
                       f"'{'q' * 64}... (200000 characters)' in partition\n")


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

    def test_total_plattice_document_vs_named(self, tmp_path, capsys):
        path = tmp_path / "fig3.pl"
        path.write_text(figs.FIG3_TEXT)
        assert cli(["iso", str(path), "boolean2"]) == 0
        assert capsys.readouterr().out == "o -> 00\nl -> 01\nr -> 10\nt -> 11\n"

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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bom16.p"
        path.write_bytes(b"\xff\xfe")
        assert cli(["iso", str(path), "chain1"]) == 2
        assert capsys.readouterr().err == "error: line 1, col 1: expected UTF-8 text\n"


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
        for n in ("0", "9"):
            result = subprocess.run(
                [sys.executable, "-m", "partlat", "verify", "--n", n],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert result.returncode == 2, n

    def test_sweep_of_corpus_7(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "partlat", "verify", "--n", "7"],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "checked 1376 partial lattices on up to 7 elements: ok\n"


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


def run(argv, stdin_text):
    """One in-process ``cli()`` call on a fresh stdin: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


COMMANDS = ("validate", "order", "extend", "onepoint", "congruences", "quotient", "iso",
            "demo")
# Stray words after a command: flags that may or may not belong to it, and
# arguments in the wrong place.
WORDS = ("--dot", "--help", "-h", "--classes", "-", "fig1", "N5")
NAMED = st.sampled_from(("N5", "M3", "chain2", "chain0", "-"))
# verify always comes with --n: its default, 4, and anything above 3 would
# start a real sweep, so larger n is only reached through the parser's rejection.
VERIFY = st.sampled_from(("1", "2", "3", "0", "9", "-1", "x")).map(
    lambda n: ["verify", "--n", n])


@st.composite
def command_argv(draw, command):
    """``command`` with its arguments and maybe ``--dot``, then up to two
    stray words."""
    if command == "verify":
        head = draw(VERIFY)
    elif command == "iso":
        head = ["iso", draw(NAMED), draw(NAMED)]
    elif command == "demo":
        head = ["demo", draw(st.sampled_from(("fig1", "fig4", "fig99")))]
    elif command == "quotient":
        head = ["quotient", "-", "--classes", "a c|b"]
    else:
        head = [command, "-"]
    if command in ("order", "extend", "quotient", "demo") and draw(st.booleans()):
        head.append("--dot")
    extra = draw(st.lists(st.one_of(st.sampled_from(WORDS).map(lambda w: [w]), VERIFY),
                          max_size=2))
    return head + sum(extra, [])


COMMAND = st.sampled_from(COMMANDS + ("verify",))
ARGV = COMMAND.flatmap(command_argv)
# Repeats of one command make state left by one call most likely to show.
SEQUENCE = st.one_of(
    st.lists(ARGV, min_size=1, max_size=4),
    COMMAND.flatmap(lambda c: st.lists(command_argv(c), min_size=2, max_size=4)),
)


class TestSharedParser:
    def test_parser_is_built_once(self):
        cli_module._build_parser.cache_clear()
        for _ in range(10):
            assert run(["demo", "fig1"], "")[0] == 0
        info = cli_module._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    def test_import_builds_no_parser(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", "import partlat, partlat.cli as c; "
                                   "print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"

    @settings(max_examples=100, deadline=None)
    @given(SEQUENCE)
    def test_shared_parser_keeps_no_state(self, sequence):
        shared = [run(argv, figs.FIG4_TEXT) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli_module._build_parser.cache_clear()
            fresh.append(run(argv, figs.FIG4_TEXT))
        assert shared == fresh


# Free tokens: no "/", so a file argument names nothing outside the empty
# working directory, and no verify, which only ARGV reaches.
TOKEN = st.text(max_size=12).filter(
    lambda s: "/" not in s and s != "verify" and not s.startswith("--n"))
NAME_REF = st.from_regex(r"(N5|M|chain|boolean)[0-9]{0,3}", fullmatch=True)
FUZZ_ARGV = st.one_of(
    ARGV,
    st.lists(st.one_of(st.sampled_from(COMMANDS + WORDS), NAMED, TOKEN), max_size=6),
    TOKEN.map(lambda classes: ["quotient", "-", "--classes", classes]),
    st.lists(st.one_of(NAME_REF, NAMED, TOKEN), min_size=2, max_size=2).map(
        lambda refs: ["iso", *refs]),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(FUZZ_ARGV, st.text(max_size=200))
    def test_every_outcome_is_an_exit_code(self, tmp_path, monkeypatch, argv, stdin_text):
        monkeypatch.chdir(tmp_path)
        assert run(argv, stdin_text)[0] in (0, 1, 2)
