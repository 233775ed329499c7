"""The message and position of every parse error the frontends raise.

One row per raise site and language: a missing expression, identifier,
closer or `;`, a keyword where a name must be, a bad assignment target
or member name, a statement in the wrong place, and a character or
string the lexer rejects.  The `got ''` rows put the end of input after
a plain newline, after a trailing comment with no newline (its
characters are not counted in the column), after `\\r\\n` line ends and
after a MiniJS string that holds an escaped newline (which does not
start a line).  A string token is quoted by its value, without its
quotes.  Every frontend parses until the end of input, so none raises
a "trailing input" error.
"""

import pytest

from srctrans.langs.base import get_language
from srctrans.langs.common import ParseError

CASES = [
    # MiniC
    ("minic", "int main() {\n  return (1 + 2;\n}\n", "line 2, col 16: expected ')', got ';'"),
    ("minic", "int main() {\n  int[] a;\n  return a[1;\n}\n",
     "line 3, col 13: expected ']', got ';'"),
    ("minic", "int main() {\n  return f(1, 2;\n}\n", "line 2, col 16: expected ')', got ';'"),
    ("minic", "int main() {\n  return 1\n}\n", "line 3, col 1: expected ';', got '}'"),
    ("minic", "int 7() {\n}\n", "line 1, col 5: expected an identifier, got '7'"),
    ("minic", "int main() {\n  return if;\n}\n",
     "line 2, col 10: expected an identifier, got 'if'"),
    ("minic", "int main() {\n  return * 2;\n}\n",
     "line 2, col 10: expected an expression, got '*'"),
    ("minic", "int main() {\n  1 = 2;\n}\n",
     "line 2, col 5: assignment target must be a variable or index"),
    ("minic", "int main() {\n  if (1) int x = 1;\n}\n",
     "line 2, col 10: declaration not allowed here; wrap it in a block"),
    ("minic", "int main() {\n  break;\n}\n", "line 2, col 3: 'break' outside a loop"),
    ("minic", "bool main() {\n  return 1;\n  \x85\u2028 ;\n}\n",
     "line 3, col 6: expected an expression, got ';'"),
    ("minic", "int main() {\n  return 1 # 2;\n}\n", "line 2, col 12: unexpected character '#'"),
    # a lexing error comes first, wherever it is
    ("minic", "int 7() {\n  ~\n}\n", "line 2, col 3: unexpected character '~'"),
    ("minic", "int main() {\n  return 1;\n", "line 3, col 1: expected an expression, got ''"),
    ("minic", "int main() {\n  return 1; // done",
     "line 2, col 13: expected an expression, got ''"),
    ("minic", "int main() {\r\n  return 1;\r\n", "line 3, col 1: expected an expression, got ''"),
    # MiniJS
    ("minijs", "function main() {\n  return (1;\n}\n", "line 2, col 12: expected ')', got ';'"),
    ("minijs", "function main() {\n  return [1, 2;\n}\n",
     "line 2, col 15: expected ']', got ';'"),
    ("minijs", "function main() {\n  return 1\n}\n", "line 3, col 1: expected ';', got '}'"),
    ("minijs", "function main(1) {\n}\n", "line 1, col 15: expected an identifier, got '1'"),
    ("minijs", "main() {\n}\n", "line 1, col 1: expected 'function', got 'main'"),
    ("minijs", "function main() {\n  return a.if;\n}\n",
     "line 2, col 12: expected an identifier, got 'if'"),
    ("minijs", 'function main() {\n  return a."b";\n}\n',
     "line 2, col 12: expected an identifier, got 'b'"),
    ("minijs", 'function main() {\n  return "a\\"b";\n}\n',
     "line 2, col 10: expected an expression, got 'a\"b'"),
    ("minijs", "function main() {\n  f() = 1;\n}\n",
     "line 2, col 7: assignment target must be a variable, index or member"),
    ("minijs", "function main() {\n  for (var i = 0; i < 1; i = i + 1) {}\n}\n",
     "line 2, col 8: declarations are not allowed in a for header"),
    ("minijs", "function main() {\n  continue;\n}\n", "line 2, col 3: 'continue' outside a loop"),
    ("minijs", "function main() {\n  return 'ab;\n}\n", "line 2, col 10: unterminated string"),
    ("minijs", "function main() {\n  return 1;\n",
     "line 3, col 1: expected an expression, got ''"),
    ("minijs", "function main() {\n  return 1; // done",
     "line 2, col 13: expected an expression, got ''"),
    ("minijs", "function main() {\r\n  return 1;\r\n",
     "line 3, col 1: expected an expression, got ''"),
    ("minijs", 'function main() {\n  "use\\\nstrict";\n  return 1;',
     "line 3, col 12: expected an expression, got ''"),
    ("minijs", 'function main() {\n  "a\\\nb"', "line 2, col 9: expected ';', got ''"),
    # MiniLua
    ("minilua", "return (1\n", "line 2, col 1: expected ')', got ''"),
    ("minilua", "local x = t[1\n", "line 2, col 1: expected ']', got ''"),
    ("minilua", "print(1, 2\n", "line 2, col 1: expected ')', got ''"),
    ("minilua", "local 1 = 2\n", "line 1, col 7: expected an identifier, got '1'"),
    ("minilua", "return a.then\n", "line 1, col 10: expected an identifier, got 'then'"),
    ("minilua", "return +\n", "line 1, col 8: expected an expression, got '+'"),
    ("minilua", "if x do end\n", "line 1, col 6: expected 'then', got 'do'"),
    ("minilua", "while x do\n  f()\nelse\n", "line 3, col 1: expected 'end', got 'else'"),
    ("minilua", "f() = 1\n",
     "line 1, col 5: assignment target must be a variable, index or member"),
    ("minilua", "x, 1 = 1, 2\n",
     "line 1, col 6: assignment target must be a variable, index or member"),
    ("minilua", "x\n", "line 2, col 1: expression statements must be calls"),
    ("minilua", "break\n", "line 1, col 1: 'break' outside a loop"),
    ("minilua", "local x = 1 +\n\x85\u2028 ;\n", "line 2, col 4: expected an expression, got ';'"),
    ("minilua", "local x = 1 != 2\n", "line 1, col 13: unexpected character '!'"),
    ("minilua", "if x then\n  return 1\n", "line 3, col 1: expected an expression, got ''"),
    ("minilua", "if x then\n  return 1 -- done",
     "line 2, col 12: expected an expression, got ''"),
    ("minilua", "if x then\r\n  return 1\r\n", "line 3, col 1: expected an expression, got ''"),
]


@pytest.mark.parametrize("lname,text,message", CASES)
def test_parse_error_message_and_position(lname, text, message):
    with pytest.raises(ParseError) as e:
        get_language(lname).parse(text)
    assert str(e.value) == message
    line, col = message.split(":")[0].removeprefix("line ").split(", col ")
    assert (e.value.line, e.value.col) == (int(line), int(col))
