"""A tiny s-expression language with a Merkle content encoding.

Expressions are plain Python values: ``int`` (exact, arbitrary precision),
``str`` (a symbol), ``bytes`` (written as ``#x`` followed by hex), and
``tuple`` (a list).  The printer emits one canonical text form -- atoms
separated by single spaces, no other whitespace -- and ``parse`` inverts it
exactly, so equal expressions always produce equal text and equal content
addresses.
"""

from __future__ import annotations

import re
from typing import Iterator, Union

from .hashtree import MerkleTree

__all__ = [
    "Expr",
    "ParseError",
    "encode_tree",
    "parse",
    "tokens_of",
    "unparse",
]

Expr = Union[int, str, bytes, tuple]

_INT_RE = re.compile(r"-?[0-9]+\Z")
_HEX_RE = re.compile(r"#x(?:[0-9a-fA-F]{2})*\Z")
_SYMBOL_RE = re.compile(r"[A-Za-z!$%&*+\-./:<=>?@^_~][A-Za-z0-9!$%&*+\-./:<=>?@^_~]*\Z")
_DELIMS = frozenset("() \t\r\n")


class ParseError(ValueError):
    """Raised on malformed input; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "()":
            yield ch, i
            i += 1
            continue
        j = i
        while j < n and text[j] not in _DELIMS:
            j += 1
        yield text[i:j], i
        i = j


def _atom(token: str, text: str, pos: int) -> Expr:
    if _INT_RE.match(token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's int-string limit, which printing it would hit too
            digits = len(token.lstrip("-"))
            raise ParseError(f"integer literal of {digits} digits is too long", _byte_offset(text, pos)) from None
    if token.startswith("#"):
        if _HEX_RE.match(token):
            return bytes.fromhex(token[2:])
        raise ParseError(f"malformed byte literal {token!r}", _byte_offset(text, pos))
    if _SYMBOL_RE.match(token):
        return token
    raise ParseError(f"malformed token {token!r}", _byte_offset(text, pos))


def parse(text: str) -> Expr:
    """Parse one expression; reject trailing content and unbalanced parens."""
    stack: list[list[Expr]] = []
    result: list[Expr] = []
    for token, pos in _tokenize(text):
        if token == "(":
            stack.append([])
            continue
        if token == ")":
            if not stack:
                raise ParseError("unbalanced ')'", _byte_offset(text, pos))
            done: Expr = tuple(stack.pop())
            (stack[-1] if stack else result).append(done)
        else:
            item = _atom(token, text, pos)
            (stack[-1] if stack else result).append(item)
        if not stack and len(result) > 1:
            raise ParseError("trailing content after expression", _byte_offset(text, pos))
    if stack:
        raise ParseError("unbalanced '('", _byte_offset(text, len(text)))
    if not result:
        raise ParseError("empty input", 0)
    return result[0]


def _check_symbol(sym: str) -> str:
    if _SYMBOL_RE.match(sym) and not _INT_RE.match(sym):
        return sym
    raise ValueError(f"not a printable symbol: {sym!r}")


_CLOSE = object()  # marks where a list's ")" goes on the walk's stack


def tokens_of(expr: Expr) -> list[str]:
    """Canonical token stream, parentheses included.  The walk keeps its own
    stack, so any expression ``parse`` accepts prints, however deep."""
    out: list[str] = []
    stack: list[object] = [expr]
    while stack:
        e = stack.pop()
        if e is _CLOSE:
            out.append(")")
        elif isinstance(e, bool):
            raise ValueError("booleans are not expressions")
        elif isinstance(e, int):
            out.append(str(e))
        elif isinstance(e, str):
            out.append(_check_symbol(e))
        elif isinstance(e, bytes):
            out.append("#x" + e.hex())
        elif isinstance(e, tuple):
            out.append("(")
            stack.append(_CLOSE)
            stack.extend(reversed(e))
        else:
            raise ValueError(f"not an expression: {e!r}")
    return out


def unparse(expr: Expr) -> str:
    """Canonical printed form: single spaces, lowercase hex, no sugar."""
    tokens = tokens_of(expr)
    pieces: list[str] = []
    prev = ""
    for tok in tokens:
        if pieces and not (prev == "(" or tok == ")"):
            pieces.append(" ")
        pieces.append(tok)
        prev = tok
    return "".join(pieces)


def encode_tree(expr: Expr) -> MerkleTree:
    """Content-address an expression: one leaf per canonical token."""
    return MerkleTree([t.encode("utf-8") for t in tokens_of(expr)])
