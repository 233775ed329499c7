"""No module-level name in `srctrans` is dead.

Each function, class and assigned name at the top level of a module
under `src/srctrans` must appear, as a whole word, somewhere other than
the line that defines it: in `src/`, `tests/` or `perfbench/`.  A name
that appears nowhere else has no reader, so it is code to delete.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srctrans"
ALLOWED = {"__version__"}
WORD = re.compile(r"\w+")


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


def test_no_dead_module_level_names():
    sources = {
        path: path.read_text()
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    words = Counter(w for text in sources.values() for w in WORD.findall(text))
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = sources[path]
        lines = text.splitlines()
        for name, lineno in _definitions(ast.parse(text)):
            own = WORD.findall(lines[lineno - 1]).count(name)
            if name not in ALLOWED and words[name] == own:
                dead.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    assert not dead, "names nothing else mentions:\n" + "\n".join(dead)
