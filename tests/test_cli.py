"""Command line interface: subcommands and exit codes."""

import itertools
from pathlib import Path

import pytest

from helpers import COUNTF, nested_ifs
from srctrans.cli import _path, cli

ARITH_SCHEMA = """\
type Arith = Add Atom Atom
type Atom = Var String | Const Lit
type Lit = Lit Int
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_transform_to_stdout(tmp_path, capsys):
    f = write(tmp_path, "a.mc", "int main() { print(1); int x = 2; return x; }")
    rc = cli(["transform", "--lang", "minic", "--pass", "hoist", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "int x;" in out


def test_transform_to_file(tmp_path):
    f = write(tmp_path, "a.mjs", "function main() { x = 1 + 1 + 1; }")
    dest = tmp_path / "out.mjs"
    rc = cli(["transform", "--lang", "minijs", "--pass", "tac",
              str(f), "--out", str(dest)])
    assert rc == 0
    assert "var __t0 = 1 + 1;" in dest.read_text()


def test_transform_parse_failure(tmp_path, capsys):
    f = write(tmp_path, "bad.mc", "int main() {")
    rc = cli(["transform", "--lang", "minic", "--pass", "ident", str(f)])
    assert rc == 2
    assert "srctrans:" in capsys.readouterr().err


def test_transform_unicode_digit_failure_has_position(tmp_path, capsys):
    # `²` is not a number character: a ParseError with its position
    f = write(tmp_path, "bad.mjs", "function main() { return ²; }")
    rc = cli(["transform", "--lang", "minijs", "--pass", "ident", str(f)])
    assert rc == 2
    assert "line 1, col 26: unexpected character '²'" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli(["transform", "--lang", "minic", "--pass", "nosuch", "f.mc"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_roundtrip(tmp_path, capsys):
    f = write(tmp_path, "a.mlua", COUNTF["minilua"])
    rc = cli(["roundtrip", "--lang", "minilua", str(f)])
    assert rc == 0
    assert "for i = 1, 9 do" in capsys.readouterr().out


def test_difftest_generated(capsys):
    rc = cli(["difftest", "--lang", "minijs", "--pass", "ident",
              "--count", "5", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "PASS 5/5"


def test_difftest_corpus_with_bad_file(tmp_path, capsys):
    write(tmp_path, "a.mc", "int main() { return 0; }")
    write(tmp_path, "b.mc", "int main() {")
    write(tmp_path, "ignored.txt", "not a program")
    rc = cli(["difftest", "--lang", "minic", "--pass", "hoist",
              "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    assert out.splitlines()[-1] == "PASS 1/2"


def test_difftest_corpus_file_not_utf8_gets_a_verdict(tmp_path, capsys):
    write(tmp_path, "a.mc", "int main() { return 0; }")
    (tmp_path / "b.mc").write_bytes(b"int main() { return \xff; }")
    write(tmp_path, "c.mc", "int main() { return 1; }")
    rc = cli(["difftest", "--lang", "minic", "--pass", "ident",
              "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    assert out.splitlines() == [
        "0\tEqual",
        "1\tParseError\toriginal: line 1, col 21: unexpected character '\\udcff'",
        "2\tEqual",
        "PASS 2/3",
    ]


@pytest.mark.parametrize("command", [
    ["transform", "--lang", "minic", "--pass", "ident"],
    ["roundtrip", "--lang", "minic"],
    ["cfg", "--lang", "minic"],
])
def test_file_not_utf8_fails_with_position(tmp_path, capsys, command):
    f = tmp_path / "bad.mc"
    f.write_bytes(b"int main() { return \xff; }")
    rc = cli([*command, str(f)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "srctrans: line 1, col 21: unexpected character '\\udcff'\n"
    )


def test_paths_are_spelled_as_pathlib_spells_them():
    for n in range(6):
        for parts in itertools.product(["/", ".", "a", "..", "b.c"], repeat=n):
            text = "".join(parts)
            assert _path(text) == str(Path(text)), text


@pytest.mark.parametrize("command", [
    ["transform", "--lang", "minic", "--pass", "ident"],
    ["roundtrip", "--lang", "minic"],
    ["cfg", "--lang", "minic"],
])
def test_missing_file_is_named_as_pathlib_names_it(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert cli([*command, ".//nowhere/./a.mc/"]) == 2
    assert capsys.readouterr().err == (
        "srctrans: [Errno 2] No such file or directory: 'nowhere/a.mc'\n"
    )


def test_cfg_dot(tmp_path):
    f = write(tmp_path, "a.mc", COUNTF["minic"])
    dest = tmp_path / "g.dot"
    rc = cli(["cfg", "--lang", "minic", str(f), "--dot", str(dest)])
    assert rc == 0
    text = dest.read_text()
    assert text.startswith("digraph cfg {")
    assert text.count("[label=") == 5


def test_modularize_golden(tmp_path, capsys):
    f = write(tmp_path, "Arith.schema", ARITH_SCHEMA)
    rc = cli(["modularize", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind Arith.Add : Arith.AtomL Arith.AtomL -> Arith.ArithL" in out


def test_inspect_injections(capsys):
    rc = cli(["inspect", "--injections", "minilua"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "->" in out
    lines = out.strip().splitlines()
    assert lines == sorted(lines)


def test_roundtrip_of_deep_input_fails_with_one_line(tmp_path, capsys):
    # the two trees of 60 and of 150 nested ifs compare on a stack
    for n in (60, 150):
        f = write(tmp_path, "deep.mc", nested_ifs("minic", n))
        assert cli(["roundtrip", "--lang", "minic", str(f)]) == 0
        out, err = capsys.readouterr()
        assert out.count("if (x < 5) {") == n and err == ""
    # the parser runs out of stack at 400
    f = write(tmp_path, "deep.mc", nested_ifs("minic", 400))
    rc = cli(["roundtrip", "--lang", "minic", str(f)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("srctrans: "), err


@pytest.mark.parametrize("command, flag", [
    (["transform", "--lang", "minic", "--pass", "ident"], "--out"),
    (["cfg", "--lang", "minic"], "--dot"),
])
def test_output_into_a_missing_directory_fails_with_one_line(
        tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.mc", COUNTF["minic"])
    assert cli([*command, "a.mc", flag, "nowhere/out"]) == 2
    assert capsys.readouterr() == (
        "", "srctrans: [Errno 2] No such file or directory: 'nowhere/out'\n")


@pytest.mark.parametrize("corpus, error", [
    ("nowhere", "[Errno 2] No such file or directory: 'nowhere'"),
    ("a.mc", "[Errno 20] Not a directory: 'a.mc'"),
])
def test_difftest_corpus_that_is_not_a_directory_fails_with_one_line(
        tmp_path, capsys, monkeypatch, corpus, error):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a.mc", COUNTF["minic"])
    assert cli(["difftest", "--lang", "minic", "--pass", "ident", "--corpus", corpus]) == 2
    assert capsys.readouterr() == ("", f"srctrans: {error}\n")


def test_difftest_negative_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli(["difftest", "--lang", "minic", "--pass", "ident", "--count", "-3"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "argument --count: invalid count: '-3' is negative" in err
