"""Token patterns and the scanner shared by the graph, model, query and
estimand parsers."""

from __future__ import annotations

import re

NAME = r"[A-Za-z_][A-Za-z0-9_]*"
VALUE = r"[A-Za-z0-9_.+-]+"

NAME_RE = re.compile(NAME)
VALUE_RE = re.compile(VALUE)
SYM_RE = re.compile(r"[a-z][a-z0-9_]*")


class Scanner:
    """Cursor over a text; each parser adds ``error(msg)``, its exception."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, s: str) -> bool:
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.literal(s):
            raise self.error(f"expected {s!r}")

    def match_re(self, rx: re.Pattern[str], what: str) -> str:
        m = rx.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()
