"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 parse or transform failure,
3 differential failures present in an otherwise successful batch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .difftest import PASSES, diff_test
from .flow import build_cfg, dump_dot
from .gen import GenConfig, gen_program
from .langs.base import get_language, language_names
from .schema import dump_modularized, modularize_schema, parse_schema_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="srctrans", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a pass to one source file")
    tr.add_argument("--lang", required=True, choices=language_names())
    tr.add_argument("--pass", dest="pass_name", required=True,
                    choices=sorted(PASSES))
    tr.add_argument("--out", type=Path)
    tr.add_argument("file", type=Path)

    rt = sub.add_parser("roundtrip", help="check parse/pretty stability")
    rt.add_argument("--lang", required=True, choices=language_names())
    rt.add_argument("file", type=Path)

    dt = sub.add_parser("difftest", help="differential-test a pass")
    dt.add_argument("--lang", required=True, choices=language_names())
    dt.add_argument("--pass", dest="pass_name", required=True,
                    choices=sorted(PASSES))
    src = dt.add_mutually_exclusive_group(required=True)
    src.add_argument("--count", type=int)
    src.add_argument("--corpus", type=Path)
    dt.add_argument("--seed", type=int, default=0)

    cf = sub.add_parser("cfg", help="dump the control-flow graph")
    cf.add_argument("--lang", required=True, choices=language_names())
    cf.add_argument("--dot", type=Path)
    cf.add_argument("file", type=Path)

    mo = sub.add_parser("modularize", help="dump kinds and sorts of a schema")
    mo.add_argument("schema", type=Path)

    ins = sub.add_parser("inspect", help="dump language tables")
    ins.add_argument("--injections", metavar="LANG",
                     choices=language_names(), required=True)
    return p


def _read_source(path: Path) -> str:
    """A source file's text.  A file that is not UTF-8 still gets a
    position for its first bad byte: the byte becomes a lone surrogate,
    which the lexer rejects as an unexpected character."""
    return path.read_text(errors="surrogateescape")


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_transform(args) -> int:
    lang = get_language(args.lang)
    try:
        term = lang.decompose(lang.parse(_read_source(args.file)))
        out = lang.pretty(lang.recompose(PASSES[args.pass_name](term, lang)))
    except Exception as e:
        print(f"srctrans: {e}", file=sys.stderr)
        return 2
    _emit(out, args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    lang = get_language(args.lang)
    try:
        ast = lang.parse(_read_source(args.file))
        text = lang.pretty(ast)
        again = lang.parse(text)
    except Exception as e:
        print(f"srctrans: {e}", file=sys.stderr)
        return 2
    if again != ast:
        print("srctrans: pretty output parses to a different tree",
              file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _cmd_difftest(args) -> int:
    if args.corpus is not None:
        lang = get_language(args.lang)
        paths = sorted(args.corpus.glob(f"*{lang.file_ext}"))
        corpus = [_read_source(p) for p in paths]
    else:
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
        text = dump_dot(build_cfg(term, lang))
    except Exception as e:
        print(f"srctrans: {e}", file=sys.stderr)
        return 2
    _emit(text, args.dot)
    return 0


def _cmd_modularize(args) -> int:
    try:
        schema = parse_schema_text(args.schema.read_text(), args.schema.stem)
        text = dump_modularized(modularize_schema(schema))
    except Exception as e:
        print(f"srctrans: {e}", file=sys.stderr)
        return 2
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
