"""No module-level name in `srctrans` is dead.

Each function, class and assigned name at the top level of a module
under `src/srctrans` must be read somewhere in `src/`, `tests/` or
`perfbench/`.  A read is a whole-word mention of the name, in code,
a string or a comment, with two kinds of mention left out:

- a mention on a line that defines the same name, at any depth, as a
  method of that name or `x = f(x)` does;
- an attribute access `x.name` where `x` is not the defining module, as
  in `self.name` or `obj().name`.

A name that nothing reads is code to delete.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"
ALLOWED = {"__version__"}
WORD = re.compile(r"\w+")
BASE = re.compile(r"(\w+)\s*\.\s*$")


def _definitions(tree: ast.Module):
    """(name, line) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        yield n.id, n.lineno


def _defining_lines(tree: ast.Module) -> set[tuple[str, int]]:
    """(name, line) of every definition at any depth: functions, classes
    and assignment targets, attributes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add((node.name, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add((node.attr, node.lineno))
    return out


def _reads(text: str) -> Counter:
    """Reads per (name, base): base is the word before the dot of an
    attribute access, "" for a mention that is no attribute access, and
    None for an attribute access on something other than a word."""
    defines = _defining_lines(ast.parse(text))
    out = Counter()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in WORD.finditer(line):
            name = m.group()
            if (name, lineno) in defines:
                continue
            before = line[: m.start()].rstrip()
            if not before.endswith("."):
                out[name, ""] += 1
            else:
                base = BASE.search(before)
                out[name, base and base.group(1)] += 1
    return out


def _module_name(path: Path) -> str:
    return path.parent.name if path.name == "__init__.py" else path.stem


def test_no_dead_module_level_names():
    sources = {
        path: path.read_text()
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    reads = Counter()
    for text in sources.values():
        reads.update(_reads(text))
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for name, lineno in _definitions(ast.parse(sources[path])):
            if name not in ALLOWED and not (reads[name, ""] or reads[name, module]):
                dead.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    assert not dead, "names nothing else reads:\n" + "\n".join(dead)
