"""Start-up imports only what a command uses.

Most of a one-file `srctrans transform` is import, so these guards keep
the heavy standard modules out of it: `dataclasses` (which pulls in
`inspect`, `ast`, `dis` and `tokenize`), `typing` and `string` are not
imported by the modules that load the languages, and `srctrans.cli`
imports the generator, `random` and `pathlib` only for the commands that
need them, and only the frontend of the command's language.
The value classes are `records.Frozen` and `records.Record`; only
`gen.GenConfig` stays a dataclass, because callers use
`dataclasses.replace` on it and `gen` is not loaded at start-up.
Loading compiles no generated source, so all of its bytecode comes from
the cached `.pyc` files: the term builders are ordinary functions.  It
compiles one regular expression per language, its lexer, and one to
unescape strings.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from srctrans.gen import GenConfig, gen_program

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"

# Modules that no srctrans module may import at its top level, and the
# ones that may.
HEAVY = ("dataclasses", "typing")
ALLOWED = {("gen", "dataclasses")}
DATACLASSES = {("gen", "GenConfig")}


LOAD_LANGUAGES = (
    "import srctrans, srctrans.langs.base\n"
    "import srctrans.langs.minic, srctrans.langs.minijs, srctrans.langs.minilua\n"
    "for name in ('minic', 'minijs', 'minilua'):\n"
    "    srctrans.langs.base.get_language(name)\n"
    "import srctrans.difftest, srctrans.flow\n"
)


def _result_after(code: str, result: str, *argv: str):
    """The JSON value of the expression result once code has run in a
    fresh interpreter without `site` (`-I -S`), with srctrans on its path
    and argv as `sys.argv[1:]`."""
    prelude = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\nimport json\n"
    epilogue = f"\nprint(json.dumps({result}))\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", prelude + code + epilogue, *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, *argv: str) -> set:
    """The names of the modules loaded once code has run, as _result_after
    runs it."""
    return set(_result_after(code, "sorted(sys.modules)", *argv))


def test_loading_the_languages_imports_no_dataclasses_typing_or_inspect():
    loaded = _loaded_after(LOAD_LANGUAGES)
    assert {"srctrans.langs.minilua", "srctrans.passes.tac"} <= loaded
    assert not loaded & {"dataclasses", "typing", "inspect"}


def test_loading_the_languages_imports_no_string():
    assert "string" not in _loaded_after(LOAD_LANGUAGES)


def test_loading_the_languages_compiles_no_generated_source():
    """No `compile` audit event for source with a made-up filename, in
    angle brackets, but the `__new__` that `collections.namedtuple`
    evaluates for each of its classes (`Token`, `Case` and functools'
    `CacheInfo`)."""
    hook = (
        "compiled = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile':\n"
        "        source, filename = args\n"
        "        if isinstance(source, bytes):\n"
        "            source = source.decode()\n"
        "        compiled.append((str(filename), source if isinstance(source, str) else ''))\n"
        "sys.addaudithook(hook)\n"
    )
    compiled = _result_after(hook + LOAD_LANGUAGES, "compiled")
    generated = [(f, s) for f, s in compiled if f.startswith("<")]
    namedtuples = [(f, s) for f, s in generated
                   if f == "<string>" and s.startswith("lambda _cls, ") and "_tuple_new(_cls, (" in s]
    assert len(namedtuples) >= 2
    assert [f for f, s in generated if (f, s) not in namedtuples] == []


def test_loading_the_languages_compiles_one_pattern_per_lexer():
    """`re.compile` calls made from srctrans modules: `_UNESCAPE` in
    `langs.common` and one lexer per language."""
    hook = (
        "import re\n"
        "callers = []\n"
        "_compile = re.compile\n"
        "def compile(*args, **kwargs):\n"
        "    callers.append(sys._getframe(1).f_globals.get('__name__', ''))\n"
        "    return _compile(*args, **kwargs)\n"
        "re.compile = compile\n"
    )
    callers = _result_after(hook + LOAD_LANGUAGES, "callers")
    ours = [c for c in callers if c.split(".")[0] == "srctrans"]
    assert ours == ["srctrans.langs.common"] * 4


def test_cli_imports_the_generator_only_for_generated_corpora():
    assert "srctrans.gen" not in _loaded_after("import srctrans.cli")


def test_one_file_transform_imports_no_generator_or_pathlib(tmp_path):
    source = tmp_path / "prog.lua"
    source.write_text(gen_program("minilua", GenConfig(seed=5)))
    loaded = _loaded_after(
        "from srctrans.cli import cli\n"
        "assert cli(['transform', '--lang', 'minilua', '--pass', 'hoist', "
        "'--out', sys.argv[2], sys.argv[1]]) == 0\n",
        str(source), str(tmp_path / "out.lua"),
    )
    assert (tmp_path / "out.lua").read_text()
    assert not loaded & {"srctrans.gen", "random", "pathlib", "dataclasses", "typing"}


def test_one_file_transform_loads_only_its_language(tmp_path):
    source = tmp_path / "prog.lua"
    source.write_text(gen_program("minilua", GenConfig(seed=5)))
    loaded = _loaded_after(
        "from srctrans.cli import cli\n"
        "assert cli(['transform', '--lang', 'minilua', '--pass', 'hoist', "
        "'--out', sys.argv[2], sys.argv[1]]) == 0\n",
        str(source), str(tmp_path / "out.lua"),
    )
    assert "srctrans.langs.minilua" in loaded
    assert not loaded & {"srctrans.langs.minic", "srctrans.langs.minijs"}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", "."), \
            ast.parse(path.read_text(), str(path))


def test_no_dataclass_but_the_generator_config():
    found = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                        found.add((module, node.name))
    assert found == DATACLASSES


def test_no_top_level_import_of_dataclasses_or_typing():
    found = set()
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found |= {(module, n.split(".")[0]) for n in names if n.split(".")[0] in HEAVY}
    assert found == ALLOWED
