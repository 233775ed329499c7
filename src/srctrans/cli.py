"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 parse or transform failure or
a file or directory that cannot be read or written, 3 differential
failures present in an otherwise successful batch.
"""

from __future__ import annotations

import argparse
import os
import sys

from .difftest import PASSES, diff_test
from .flow import build_cfg, dump_dot
from .langs.base import LANGUAGE_NAMES, get_language
from .schema import dump_modularized, modularize_schema, parse_schema_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _path(text: str) -> str:
    """text as `pathlib.Path(text)` spells it, without importing pathlib:
    no `.` parts, no repeated or trailing slashes, and `.` for an empty
    path.  A command opens the file that pathlib would, and an error
    names it as pathlib would."""
    rel = text.lstrip("/")
    root = "//" if len(text) - len(rel) == 2 else "/" if rel != text else ""
    return root + "/".join(p for p in rel.split("/") if p not in ("", ".")) or "."


def _count(text: str) -> int:
    """A `--count`: an int, as argparse reads one, that is not negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"invalid count: {text!r} is negative")
    return n


def _build_parser() -> _Parser:
    p = _Parser(prog="srctrans", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a pass to one source file")
    tr.add_argument("--lang", required=True, choices=LANGUAGE_NAMES)
    tr.add_argument("--pass", dest="pass_name", required=True,
                    choices=sorted(PASSES))
    tr.add_argument("--out", type=_path)
    tr.add_argument("file", type=_path)

    rt = sub.add_parser("roundtrip", help="check parse/pretty stability")
    rt.add_argument("--lang", required=True, choices=LANGUAGE_NAMES)
    rt.add_argument("file", type=_path)

    dt = sub.add_parser("difftest", help="differential-test a pass")
    dt.add_argument("--lang", required=True, choices=LANGUAGE_NAMES)
    dt.add_argument("--pass", dest="pass_name", required=True,
                    choices=sorted(PASSES))
    src = dt.add_mutually_exclusive_group(required=True)
    src.add_argument("--count", type=_count)
    src.add_argument("--corpus", type=_path)
    dt.add_argument("--seed", type=int, default=0)

    cf = sub.add_parser("cfg", help="dump the control-flow graph")
    cf.add_argument("--lang", required=True, choices=LANGUAGE_NAMES)
    cf.add_argument("--dot", type=_path)
    cf.add_argument("file", type=_path)

    mo = sub.add_parser("modularize", help="dump kinds and sorts of a schema")
    mo.add_argument("schema", type=_path)

    ins = sub.add_parser("inspect", help="dump language tables")
    ins.add_argument("--injections", metavar="LANG",
                     choices=LANGUAGE_NAMES, required=True)
    return p


def _read_source(path: str) -> str:
    """A source file's text.  A file that is not UTF-8 still gets a
    position for its first bad byte: the byte becomes a lone surrogate,
    which the lexer rejects as an unexpected character."""
    with open(path, errors="surrogateescape") as f:
        return f.read()


def _fail(error: Exception) -> int:
    """Report error on one stderr line; its exit code."""
    print(f"srctrans: {error}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _cmd_transform(args) -> int:
    lang = get_language(args.lang)
    try:
        term = lang.decompose(lang.parse(_read_source(args.file)))
        _emit(lang.pretty(lang.recompose(PASSES[args.pass_name](term, lang))), args.out)
    except Exception as e:
        return _fail(e)
    return 0


def _cmd_roundtrip(args) -> int:
    lang = get_language(args.lang)
    try:
        ast = lang.parse(_read_source(args.file))
        text = lang.pretty(ast)
        differs = lang.parse(text) != ast
    except Exception as e:
        return _fail(e)
    if differs:
        print("srctrans: pretty output parses to a different tree",
              file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _cmd_difftest(args) -> int:
    if args.corpus is not None:
        ext = get_language(args.lang).file_ext
        try:
            names = sorted(n for n in os.listdir(args.corpus) if n.endswith(ext))
            corpus = [_read_source(os.path.join(args.corpus, n)) for n in names]
        except OSError as e:
            return _fail(e)
    else:
        from .gen import GenConfig, gen_program

        corpus = [
            gen_program(args.lang, GenConfig(seed=args.seed + i))
            for i in range(args.count)
        ]
    report = diff_test(args.lang, args.pass_name, corpus)
    sys.stdout.write(report.render())
    return 0 if report.all_equal else 3


def _cmd_cfg(args) -> int:
    lang = get_language(args.lang)
    try:
        term = lang.decompose(lang.parse(_read_source(args.file)))
        _emit(dump_dot(build_cfg(term, lang)), args.dot)
    except Exception as e:
        return _fail(e)
    return 0


def _cmd_modularize(args) -> int:
    from pathlib import Path

    path = Path(args.schema)
    try:
        schema = parse_schema_text(path.read_text(), path.stem)
        text = dump_modularized(modularize_schema(schema))
    except Exception as e:
        return _fail(e)
    sys.stdout.write(text)
    return 0


def _cmd_inspect(args) -> int:
    sys.stdout.write(get_language(args.injections).injections.dump())
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "roundtrip": _cmd_roundtrip,
    "difftest": _cmd_difftest,
    "cfg": _cmd_cfg,
    "modularize": _cmd_modularize,
    "inspect": _cmd_inspect,
}


def cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
