"""Structural Verilog import: text back into a validated :class:`Netlist`.

This is the inverse of :mod:`repro.hdl.verilog`.  A hand-written lexer
and recursive-descent parser accept the structural Verilog-2001 subset
the exporter emits — module header (ANSI or classic port lists),
``wire``/``reg``/port declarations, ``assign`` expressions over the
combinational vocabulary, one-register ``always`` blocks, ``case``
tables for ROMs and transition tables — plus the gate-primitive
instances (``and``/``nand``/``or``/``nor``/``xor``/``xnor``/``not``/
``buf``) used by third-party ISCAS-style benchmark netlists.  The
result is a validated :class:`~repro.hdl.netlist.Netlist` ready for
watermark insertion, fleet manufacture and every engine tier.

Reconstruction is *structural*: expression shapes are recognised back
into the component vocabulary (``a + N'd1`` → ``Incrementer``,
``a ^ (a >> 1)`` → ``BinaryToGray``, the full prefix-XOR ladder →
``GrayToBinary``, ``s ? b : a`` → ``Mux2``, two-operand ``^`` →
``XorArray``) and anything else becomes a tabulated
:class:`~repro.hdl.combinational.LookupLogic`.  Component names,
ROM markers and clock-tree loads ride in comments
(``// <name>``, ``// <name> (ROM)``,
``// repro: clocktree <name> load=<x>``), so for every design built
from the exporter-emitting vocabulary
``parse_verilog(export_verilog(n))`` reconstructs the same component
list in the same order — the round-trip is bit-identical in state *and*
activity on all three engine tiers (pinned in
``tests/test_verilog_parse.py``).

Known, documented lossy corners (none of which occur in the paper
designs): an exported single-input ``LookupLogic`` comes back as a
``TransitionTable`` (equal widths) or ``SyncROM`` (differing widths),
which simulates identically but uses that component's activity model;
``InputPort`` stimuli are Python callables and come back as the default
constant-zero stimulus.

The lexer is a single pass of one compiled regular expression matched
at a cursor; line and column come from the newlines inside each
whitespace or block-comment span.  The grammar is ASCII, as in
Verilog-2001: identifiers are ``[A-Za-z_][A-Za-z0-9_$]*`` and digits
are ``[0-9]``.  Any other text is legal only inside ``//`` and
``/* */`` comments (so in ``repro:`` pragmas too) and in escaped
identifiers (``\\name`` up to the next whitespace); anywhere else a
non-ASCII character is an "unexpected character".

All diagnostics raise :class:`VerilogParseError` carrying the 1-based
line/column and the offending token — including hostile input: no bus
or literal may be wider than :data:`MAX_BUS_WIDTH` bits, no expression
may nest deeper than :data:`MAX_EXPRESSION_DEPTH` levels, and a file
that is not UTF-8 is reported with the offset of its first bad byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.hdl.combinational import (
    BinaryToGray,
    Constant,
    GrayToBinary,
    Incrementer,
    LookupLogic,
    Mux2,
    TransitionTable,
    XorArray,
)
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.memory import SyncROM
from repro.hdl.netlist import Netlist, NetlistError
from repro.hdl.register import DRegister
from repro.hdl.wires import Wire, mask

__all__ = [
    "VerilogParseError",
    "parse_verilog",
    "parse_verilog_file",
    "GATE_PRIMITIVES",
    "MAX_BUS_WIDTH",
    "MAX_EXPRESSION_DEPTH",
]

#: Gate primitives accepted as instances (third-party netlist subset).
GATE_PRIMITIVES = ("and", "nand", "or", "nor", "xor", "xnor", "not", "buf")

#: Comment pragma prefix carrying metadata with no Verilog equivalent.
PRAGMA_PREFIX = "repro:"

#: Widest bus, literal width or literal value accepted, in bits.  Far
#: above the compiled engine's 63-bit wires and every design here; it
#: bounds what a hostile range or literal can make the frontend build.
MAX_BUS_WIDTH = 4096

#: Deepest expression accepted: parenthesis and ``?:`` nesting while
#: parsing, then nodes on the longest root-to-leaf path.  The exporter's
#: deepest output, the XOR ladder of a 63-bit ``GrayToBinary``, is 64;
#: the bound keeps the generated lookup source within Python's limits.
MAX_EXPRESSION_DEPTH = 64

_KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "assign",
        "always",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "endcase",
        "default",
        "posedge",
        "negedge",
        *GATE_PRIMITIVES,
    }
)

#: Port names treated as the implicit clock/reset of the substrate.
CLOCK_NAMES = frozenset({"clk", "clock"})
RESET_NAMES = frozenset({"rst", "reset"})


class VerilogParseError(Exception):
    """A syntax or semantic error in structural Verilog source.

    Carries the 1-based ``line``/``col`` and the offending token text
    (when known) so callers can point at the exact spot.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        col: Optional[int] = None,
        token: Optional[str] = None,
    ):
        self.message = message
        self.line = line
        self.col = col
        self.token = token
        location = ""
        if line is not None:
            location = f"line {line}"
            if col is not None:
                location += f", col {col}"
            location += ": "
        at = f" (at {token!r})" if token else ""
        super().__init__(f"{location}{message}{at}")


# ---------------------------------------------------------------------------
# Lexer


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "symbol" | "pragma" | "eof"
    text: str
    line: int
    col: int
    width: Optional[int] = None  # sized literals only
    value: Optional[int] = None  # numbers only


#: One alternative per token class, matched at the cursor.  Only ``/``
#: starts two classes, so comments come before symbols; the rest are
#: ordered by frequency.  The ``number`` group takes a literal's size
#: digits and quote; :meth:`_Lexer._lex_number` reads the rest.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<number>[0-9][0-9_]*'?|')"
    r"|(?P<escaped>\\\S*)"
    r"|(?P<symbol><=|>>|<<|[()\[\]{};,:?=^~&|+\-*/@#.])"
)

_BASE_DIGITS = {
    "b": re.compile("[01_]*"),
    "o": re.compile("[0-7_]*"),
    "d": re.compile("[0-9_]*"),
    "h": re.compile("[0-9a-fA-F_]*"),
}
_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


def _bounded_int(digits: str, radix: int, line: int, col: int) -> int:
    """``int(digits, radix)``, rejected past :data:`MAX_BUS_WIDTH` bits.

    Every significant digit adds at least one bit, so the length check
    bounds the conversion before it runs.
    """
    significant = digits.lstrip("0")
    if len(significant) <= MAX_BUS_WIDTH:
        value = int(significant or "0", radix)
        if value.bit_length() <= MAX_BUS_WIDTH:
            return value
    raise VerilogParseError(
        f"number is wider than the {MAX_BUS_WIDTH}-bit limit", line, col
    )


class _Lexer:
    """Tokeniser with line/col tracking and a comment side-channel.

    ``comments`` maps a line number to the text of the trailing ``//``
    comment on that line (the exporter's component-name channel);
    ``repro:`` pragma comments are emitted as in-stream tokens instead
    so their position among statements is preserved.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[_Token] = []
        self.comments: Dict[int, str] = {}

    def run(self) -> Tuple[List[_Token], Dict[int, str]]:
        text = self.text
        append = self.tokens.append
        match = _TOKEN_RE.match
        line, line_start, pos, end = 1, 0, 0, len(text)
        while pos < end:
            found = match(text, pos)
            col = pos - line_start + 1
            if found is None:
                char = text[pos]
                raise VerilogParseError(
                    f"unexpected character {char!r}", line, col, char
                )
            kind = found.lastgroup
            stop = found.end()
            if kind == "ident" or kind == "symbol":
                append(_Token(kind, found.group(), line, col))
            elif kind == "space" or kind == "block":
                if kind == "block":
                    close = text.find("*/", pos + 2)
                    if close == -1:
                        raise VerilogParseError("unterminated block comment", line, col)
                    stop = close + 2
                newlines = text.count("\n", pos, stop)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, stop) + 1
            elif kind == "number":
                stop = self._lex_number(pos, stop, line, col)
            elif kind == "comment":
                body = text[pos + 2 : stop].strip()
                if body.startswith(PRAGMA_PREFIX):
                    payload = body[len(PRAGMA_PREFIX) :].strip()
                    append(_Token("pragma", payload, line, col))
                elif body:
                    self.comments[line] = body
            else:  # escaped identifier: backslash to the next whitespace
                if stop == pos + 1:
                    raise VerilogParseError("empty escaped identifier", line, col + 1)
                append(_Token("ident", text[pos + 1 : stop], line, col))
            pos = stop
        append(_Token("eof", "", line, pos - line_start + 1))
        return self.tokens, self.comments

    def _lex_number(self, start: int, stop: int, line: int, col: int) -> int:
        """Lex the literal whose size digits (and quote) end at ``stop``.

        Returns the index just past the literal.
        """
        text = self.text
        if text[stop - 1] != "'":
            digits = text[start:stop].replace("_", "")
            value = _bounded_int(digits, 10, line, col)
            self.tokens.append(_Token("number", digits, line, col, None, value))
            return stop
        width: Optional[int] = None
        size_digits = text[start : stop - 1].replace("_", "")
        if size_digits:
            width = _bounded_int(size_digits, 10, line, col)
            if width > MAX_BUS_WIDTH:
                raise VerilogParseError(
                    f"literal width exceeds the {MAX_BUS_WIDTH}-bit limit", line, col
                )
            if width <= 0:
                raise VerilogParseError(
                    "literal width must be positive", line, col, size_digits
                )
        base_col = col + stop - start
        if stop >= len(text):
            raise VerilogParseError("truncated sized literal", line, base_col)
        base = text[stop].lower()
        if base not in _BASE_DIGITS:
            raise VerilogParseError(
                f"unknown number base {base!r}", line, base_col, base
            )
        end = _BASE_DIGITS[base].match(text, stop + 1).end()
        literal = text[start:end]
        digits = text[stop + 1 : end].replace("_", "")
        if not digits:
            raise VerilogParseError("sized literal has no digits", line, col, literal)
        value = _bounded_int(digits, _BASE_RADIX[base], line, col)
        if width is not None and value.bit_length() > width:
            raise VerilogParseError(
                f"literal value {value} does not fit in {width} bits",
                line,
                col,
                literal,
            )
        self.tokens.append(_Token("number", literal, line, col, width, value))
        return end


# ---------------------------------------------------------------------------
# Expression AST (tuples keep this allocation-light):
#   ("ident", name, line, col)
#   ("num", width_or_None, value, line, col)
#   ("not", operand, line, col)
#   ("bin", op, left, right, line, col)          op in ^ & | >> << + -
#   ("mux", cond, if_true, if_false, line, col)

#: Binding strength of the (left-associative) binary operators.
_BINARY_LEVELS = {"|": 1, "^": 2, "&": 3, ">>": 4, "<<": 4, "+": 5, "-": 5}


# ---------------------------------------------------------------------------
# Statement IR produced by the parser, consumed by the netlist builder.


@dataclass
class _PortDecl:
    direction: str  # "input" | "output"
    width: Optional[int]
    name: str
    line: int
    col: int


@dataclass
class _WireDecl:
    width: int
    name: str
    line: int
    col: int


@dataclass
class _Assign:
    target: str
    expr: tuple
    line: int
    col: int
    comment: Optional[str]


@dataclass
class _Register:
    q: str
    d: str
    reset_width: Optional[int]
    reset_value: int
    line: int
    col: int
    comment: Optional[str]


@dataclass
class _CaseTable:
    selector: str
    target: str
    entries: Dict[int, int]
    entry_widths: Dict[int, Optional[int]]
    line: int
    col: int
    comment: Optional[str]
    rom_hint: bool


@dataclass
class _GateInstance:
    gate: str
    instance: Optional[str]
    output: str
    inputs: Tuple[str, ...]
    line: int
    col: int


@dataclass
class _ClockTreePragma:
    name: str
    load: float
    line: int
    col: int


class _Parser:
    """Recursive-descent parser for the structural subset."""

    def __init__(self, tokens: List[_Token], comments: Dict[int, str]):
        self.tokens = tokens
        self.comments = comments
        self.pos = 0
        self.module_name: Optional[str] = None
        self.header_ports: List[str] = []
        self.port_decls: List[_PortDecl] = []
        self.wire_decls: List[_WireDecl] = []
        self.statements: List[_Statement] = []
        self.nesting = 0  # open _parse_expression calls

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        # The stream ends in an ``eof`` token that next() never passes.
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[_Token] = None) -> VerilogParseError:
        token = token if token is not None else self.peek()
        return VerilogParseError(message, token.line, token.col, token.text or "<eof>")

    def expect_symbol(self, symbol: str) -> _Token:
        token = self.next()
        if token.kind != "symbol" or token.text != symbol:
            raise self.error(f"expected {symbol!r}", token)
        return token

    def expect_keyword(self, word: str) -> _Token:
        token = self.next()
        if token.kind != "ident" or token.text != word:
            raise self.error(f"expected {word!r}", token)
        return token

    def expect_ident(self) -> _Token:
        token = self.next()
        if token.kind != "ident":
            raise self.error("expected an identifier", token)
        if token.text in _KEYWORDS:
            raise self.error(
                f"expected an identifier, got keyword {token.text!r}", token
            )
        return token

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text == word

    def comment_for(self, line: int) -> Optional[str]:
        return self.comments.get(line)

    # -- grammar -----------------------------------------------------------

    def parse_module(self) -> None:
        while self.peek().kind == "pragma":
            self._handle_pragma(self.next())
        self.expect_keyword("module")
        self.module_name = self.expect_ident().text
        if self.peek().kind == "symbol" and self.peek().text == "(":
            self.next()
            self._parse_port_list()
        self.expect_symbol(";")
        while not self.at_keyword("endmodule"):
            token = self.peek()
            if token.kind == "eof":
                raise self.error("unexpected end of file: missing 'endmodule'", token)
            self._parse_module_item()
        self.next()  # endmodule

    def _parse_port_list(self) -> None:
        if self.peek().kind == "symbol" and self.peek().text == ")":
            self.next()
            return
        while True:
            token = self.peek()
            if token.kind == "ident" and token.text in ("input", "output", "inout"):
                self._parse_ansi_port()
            else:
                self.header_ports.append(self.expect_ident().text)
            token = self.next()
            if token.kind == "symbol" and token.text == ",":
                continue
            if token.kind == "symbol" and token.text == ")":
                return
            raise self.error("expected ',' or ')' in port list", token)

    def _parse_ansi_port(self) -> None:
        direction_token = self.next()
        direction = direction_token.text
        if direction == "inout":
            raise self.error("'inout' ports are not supported", direction_token)
        if self.at_keyword("wire") or self.at_keyword("reg"):
            self.next()
        width = self._parse_optional_range()
        name = self.expect_ident()
        self.port_decls.append(
            _PortDecl(direction, width, name.text, name.line, name.col)
        )
        self.header_ports.append(name.text)

    def _parse_optional_range(self) -> Optional[int]:
        if not (self.peek().kind == "symbol" and self.peek().text == "["):
            return None
        self.next()
        msb = self.next()
        if msb.kind != "number" or msb.value is None:
            raise self.error("expected a constant msb in range", msb)
        if msb.value >= MAX_BUS_WIDTH:
            raise self.error(f"bus width exceeds the {MAX_BUS_WIDTH}-bit limit", msb)
        self.expect_symbol(":")
        lsb = self.next()
        if lsb.kind != "number" or lsb.value is None:
            raise self.error("expected a constant lsb in range", lsb)
        if lsb.value != 0:
            raise self.error(
                f"only [msb:0] ranges are supported, got [{msb.value}:{lsb.value}]",
                lsb,
            )
        self.expect_symbol("]")
        return msb.value + 1

    def _parse_module_item(self) -> None:
        token = self.peek()
        if token.kind == "pragma":
            self._handle_pragma(self.next())
            return
        if token.kind != "ident":
            raise self.error("expected a module item", token)
        word = token.text
        if word in ("input", "output"):
            self._parse_direction_decl()
        elif word == "inout":
            raise self.error("'inout' ports are not supported", token)
        elif word in ("wire", "reg"):
            self._parse_net_decl()
        elif word == "assign":
            self._parse_assign()
        elif word == "always":
            self._parse_always()
        elif word in GATE_PRIMITIVES:
            self._parse_gate_instance()
        else:
            raise self.error(
                f"unsupported construct {word!r} (structural subset only)", token
            )

    def _handle_pragma(self, token: _Token) -> None:
        fields = token.text.split()
        if not fields:
            return
        if fields[0] == "clocktree":
            if len(fields) < 3 or not fields[-1].startswith("load="):
                raise VerilogParseError(
                    "malformed clocktree pragma "
                    "(expected 'repro: clocktree <name> load=<x>')",
                    token.line,
                    token.col,
                    token.text,
                )
            name = " ".join(fields[1:-1])
            try:
                load = float(fields[-1][len("load=") :])
            except ValueError:
                raise VerilogParseError(
                    "malformed clocktree load value",
                    token.line,
                    token.col,
                    fields[-1],
                ) from None
            self.statements.append(
                _ClockTreePragma(name, load, token.line, token.col)
            )
        # Unknown pragmas are ignored for forward compatibility.

    def _parse_direction_decl(self) -> None:
        direction = self.next().text
        if self.at_keyword("wire") or self.at_keyword("reg"):
            self.next()
        width = self._parse_optional_range()
        while True:
            name = self.expect_ident()
            self.port_decls.append(
                _PortDecl(direction, width, name.text, name.line, name.col)
            )
            token = self.next()
            if token.kind == "symbol" and token.text == ",":
                continue
            if token.kind == "symbol" and token.text == ";":
                return
            raise self.error("expected ',' or ';' in port declaration", token)

    def _parse_net_decl(self) -> None:
        self.next()  # wire | reg
        width = self._parse_optional_range()
        while True:
            name = self.expect_ident()
            self.wire_decls.append(
                _WireDecl(
                    width if width is not None else 1,
                    name.text,
                    name.line,
                    name.col,
                )
            )
            token = self.next()
            if token.kind == "symbol" and token.text == ",":
                continue
            if token.kind == "symbol" and token.text == ";":
                return
            raise self.error("expected ',' or ';' in net declaration", token)

    def _parse_assign(self) -> None:
        keyword = self.next()  # assign
        target = self.expect_ident()
        self.expect_symbol("=")
        expr = self._parse_expression()
        if _expr_depth(expr) > MAX_EXPRESSION_DEPTH:
            raise self.error(
                f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels",
                keyword,
            )
        self.expect_symbol(";")
        self.statements.append(
            _Assign(
                target.text,
                expr,
                keyword.line,
                keyword.col,
                self.comment_for(keyword.line),
            )
        )

    # -- expressions -------------------------------------------------------

    def _parse_expression(self) -> tuple:
        self.nesting += 1
        if self.nesting > MAX_EXPRESSION_DEPTH:
            raise self.error(
                f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels"
            )
        cond = self._parse_binary(1)
        if self.peek().kind == "symbol" and self.peek().text == "?":
            token = self.next()
            if_true = self._parse_expression()
            self.expect_symbol(":")
            if_false = self._parse_expression()
            cond = ("mux", cond, if_true, if_false, token.line, token.col)
        self.nesting -= 1
        return cond

    def _parse_binary(self, min_level: int) -> tuple:
        """Left-associative operators binding at least ``min_level``."""
        left = self._parse_unary()
        while True:
            token = self.peek()
            level = _BINARY_LEVELS.get(token.text, 0) if token.kind == "symbol" else 0
            if level < min_level:
                return left
            self.next()
            right = self._parse_binary(level + 1)
            left = ("bin", token.text, left, right, token.line, token.col)

    def _parse_unary(self) -> tuple:
        nots = []
        while self.peek().kind == "symbol" and self.peek().text == "~":
            nots.append(self.next())
        expr = self._parse_primary()
        for token in reversed(nots):
            expr = ("not", expr, token.line, token.col)
        return expr

    def _parse_primary(self) -> tuple:
        token = self.next()
        if token.kind == "symbol" and token.text == "(":
            expr = self._parse_expression()
            self.expect_symbol(")")
            return expr
        if token.kind == "number":
            return ("num", token.width, token.value, token.line, token.col)
        if token.kind == "ident" and token.text not in _KEYWORDS:
            return ("ident", token.text, token.line, token.col)
        raise self.error("expected an operand", token)

    # -- always blocks -----------------------------------------------------

    def _parse_always(self) -> None:
        keyword = self.next()  # always
        comment = self.comment_for(keyword.line)
        self.expect_symbol("@")
        self.expect_symbol("(")
        token = self.peek()
        if token.kind == "symbol" and token.text == "*":
            self.next()
            self.expect_symbol(")")
            self._parse_case_block(keyword, comment)
            return
        if token.kind == "ident" and token.text == "posedge":
            self.next()
            clock = self.expect_ident()
            if clock.text not in CLOCK_NAMES:
                raise self.error(
                    f"only a {sorted(CLOCK_NAMES)} clock is supported", clock
                )
            self.expect_symbol(")")
            self._parse_register_block(keyword, comment)
            return
        raise self.error(
            "unsupported always sensitivity (expected '@(*)' or '@(posedge clk)')",
            token,
        )

    def _parse_register_block(self, keyword: _Token, comment: Optional[str]) -> None:
        has_begin = self.at_keyword("begin")
        if has_begin:
            self.next()
        self.expect_keyword("if")
        self.expect_symbol("(")
        reset = self.expect_ident()
        if reset.text not in RESET_NAMES:
            raise self.error(f"only a {sorted(RESET_NAMES)} reset is supported", reset)
        self.expect_symbol(")")
        q_token = self.expect_ident()
        self.expect_symbol("<=")
        value = self.next()
        if value.kind != "number" or value.value is None:
            raise self.error("register reset value must be a literal", value)
        self.expect_symbol(";")
        self.expect_keyword("else")
        q2 = self.expect_ident()
        if q2.text != q_token.text:
            raise self.error(
                f"register branches assign different targets "
                f"({q_token.text!r} vs {q2.text!r})",
                q2,
            )
        self.expect_symbol("<=")
        d_token = self.expect_ident()
        self.expect_symbol(";")
        if has_begin:
            self.expect_keyword("end")
        self.statements.append(
            _Register(
                q_token.text,
                d_token.text,
                value.width,
                value.value,
                keyword.line,
                keyword.col,
                comment,
            )
        )

    def _parse_case_block(self, keyword: _Token, comment: Optional[str]) -> None:
        has_begin = self.at_keyword("begin")
        if has_begin:
            self.next()
        self.expect_keyword("case")
        self.expect_symbol("(")
        selector = self.expect_ident()
        self.expect_symbol(")")
        entries: Dict[int, int] = {}
        entry_widths: Dict[int, Optional[int]] = {}
        target: Optional[str] = None
        rom_hint = bool(comment) and comment.endswith("(ROM)")
        while not self.at_keyword("endcase"):
            token = self.peek()
            if token.kind == "eof":
                raise self.error("unexpected end of file inside case table", token)
            if self.at_keyword("default"):
                self.next()
                self.expect_symbol(":")
                self.expect_ident()  # target (the all-zero default arm)
                self.expect_symbol("=")
                value = self.next()
                if value.kind != "number":
                    raise self.error("case default must assign a literal", value)
                self.expect_symbol(";")
                continue
            key = self.next()
            if key.kind != "number" or key.value is None:
                raise self.error("case label must be a literal", key)
            self.expect_symbol(":")
            target_token = self.expect_ident()
            if target is None:
                target = target_token.text
            elif target != target_token.text:
                raise self.error(
                    f"case arms assign different targets "
                    f"({target!r} vs {target_token.text!r})",
                    target_token,
                )
            self.expect_symbol("=")
            value = self.next()
            if value.kind != "number" or value.value is None:
                raise self.error("case arm must assign a literal", value)
            self.expect_symbol(";")
            if key.value in entries:
                raise self.error(
                    f"duplicate case label {key.text}", key
                )
            entries[key.value] = value.value
            entry_widths[key.value] = value.width
        self.next()  # endcase
        if has_begin:
            self.expect_keyword("end")
        if target is None:
            raise self.error("case table has no entries", keyword)
        name_comment = comment
        if rom_hint and comment is not None:
            name_comment = comment[: -len("(ROM)")].strip()
        self.statements.append(
            _CaseTable(
                selector.text,
                target,
                entries,
                entry_widths,
                keyword.line,
                keyword.col,
                name_comment,
                rom_hint,
            )
        )

    # -- gate instances ----------------------------------------------------

    def _parse_gate_instance(self) -> None:
        gate = self.next()
        instance: Optional[str] = None
        if self.peek().kind == "ident" and self.peek().text not in _KEYWORDS:
            instance = self.next().text
        self.expect_symbol("(")
        terminals: List[str] = []
        while True:
            terminals.append(self.expect_ident().text)
            token = self.next()
            if token.kind == "symbol" and token.text == ",":
                continue
            if token.kind == "symbol" and token.text == ")":
                break
            raise self.error("expected ',' or ')' in gate terminals", token)
        self.expect_symbol(";")
        if gate.text in ("not", "buf"):
            if len(terminals) != 2:
                raise self.error(
                    f"{gate.text!r} takes exactly one output and one input", gate
                )
        elif len(terminals) < 3:
            raise self.error(
                f"{gate.text!r} needs at least two inputs", gate
            )
        self.statements.append(
            _GateInstance(
                gate.text,
                instance,
                terminals[0],
                tuple(terminals[1:]),
                gate.line,
                gate.col,
            )
        )


# ---------------------------------------------------------------------------
# Netlist construction

#: Operand slice of each interior expression node.
_OPERANDS = {"not": slice(1, 2), "bin": slice(2, 4), "mux": slice(1, 4)}


def _expr_depth(expr: tuple) -> int:
    """Nodes on the longest root-to-leaf path (iterative: any depth)."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        operands = _OPERANDS.get(node[0])
        if operands is not None:
            stack.extend((operand, depth + 1) for operand in node[operands])
    return deepest


def _expr_idents(expr: tuple, out: List[tuple]) -> None:
    kind = expr[0]
    if kind == "ident":
        out.append(expr)
    elif kind == "not":
        _expr_idents(expr[1], out)
    elif kind == "bin":
        _expr_idents(expr[2], out)
        _expr_idents(expr[3], out)
    elif kind == "mux":
        _expr_idents(expr[1], out)
        _expr_idents(expr[2], out)
        _expr_idents(expr[3], out)


def _flatten_xor(expr: tuple, out: List[tuple]) -> None:
    if expr[0] == "bin" and expr[1] == "^":
        _flatten_xor(expr[2], out)
        _flatten_xor(expr[3], out)
    else:
        out.append(expr)


_GATE_FUNCTIONS = {
    "and": lambda acc, value: acc & value,
    "nand": lambda acc, value: acc & value,
    "or": lambda acc, value: acc | value,
    "nor": lambda acc, value: acc | value,
    "xor": lambda acc, value: acc ^ value,
    "xnor": lambda acc, value: acc ^ value,
}
_GATE_INVERTING = frozenset({"nand", "nor", "xnor", "not"})


@lru_cache
def _make_gate_function(gate: str, out_width: int):
    # Shared per (gate, width): the engine tabulates each function once
    # per lowering instead of once per gate instance.
    out_mask = mask(out_width)
    if gate == "not":
        return lambda a: (~a) & out_mask
    if gate == "buf":
        return lambda a: a & out_mask
    fold = _GATE_FUNCTIONS[gate]
    invert = gate in _GATE_INVERTING

    def gate_function(*values: int) -> int:
        acc = values[0]
        for value in values[1:]:
            acc = fold(acc, value)
        if invert:
            acc = ~acc
        return acc & out_mask

    return gate_function


class _NetlistBuilder:
    """Turn the parsed statement IR into a :class:`Netlist` (unvalidated)."""

    def __init__(self, parser: _Parser, name: Optional[str]):
        self.parser = parser
        self.netlist = Netlist(name or parser.module_name or "imported")
        self.wires: Dict[str, Wire] = {}
        self.wire_lines: Dict[str, Tuple[int, int]] = {}
        self.input_ports: Dict[str, _PortDecl] = {}
        self.output_ports: Dict[str, _PortDecl] = {}
        self.used_component_names: set = set()
        self.realised_outputs: set = set()
        self.anonymous_index = 0

    # -- naming ------------------------------------------------------------

    def component_name(self, preferred: Optional[str], fallback: str) -> str:
        name = preferred if preferred else fallback
        if not name:
            self.anonymous_index += 1
            name = f"u{self.anonymous_index}"
        candidate = name
        suffix = 1
        while candidate in self.used_component_names:
            suffix += 1
            candidate = f"{name}_{suffix}"
        self.used_component_names.add(candidate)
        return candidate

    # -- wires -------------------------------------------------------------

    def declare_wire(self, decl: _WireDecl) -> None:
        if decl.name in self.wires:
            raise VerilogParseError(
                f"duplicate declaration of {decl.name!r}",
                decl.line,
                decl.col,
                decl.name,
            )
        self.wires[decl.name] = self.netlist.wire(decl.name, decl.width)
        self.wire_lines[decl.name] = (decl.line, decl.col)

    def materialise_port_wire(self, name: str) -> Wire:
        """Create the netlist wire backing a port referenced directly."""
        decl = self.input_ports.get(name) or self.output_ports.get(name)
        assert decl is not None
        wire = self.netlist.wire(name, decl.width if decl.width is not None else 1)
        self.wires[name] = wire
        self.wire_lines[name] = (decl.line, decl.col)
        return wire

    def resolve(self, name: str, line: int, col: int) -> Wire:
        wire = self.wires.get(name)
        if wire is not None:
            return wire
        if name in self.input_ports or name in self.output_ports:
            return self.materialise_port_wire(name)
        raise VerilogParseError(
            f"reference to undeclared wire {name!r}", line, col, name
        )

    # -- top-level driver --------------------------------------------------

    def build(self) -> Netlist:
        parser = self.parser
        for decl in parser.port_decls:
            if decl.name in CLOCK_NAMES or decl.name in RESET_NAMES:
                continue
            registry = (
                self.input_ports if decl.direction == "input" else self.output_ports
            )
            if decl.name in registry:
                raise VerilogParseError(
                    f"duplicate port declaration {decl.name!r}",
                    decl.line,
                    decl.col,
                    decl.name,
                )
            registry[decl.name] = decl
        declared = (
            set(self.input_ports)
            | set(self.output_ports)
            | CLOCK_NAMES
            | RESET_NAMES
        )
        for port in parser.header_ports:
            if port not in declared and port not in {
                d.name for d in parser.wire_decls
            }:
                raise VerilogParseError(
                    f"port {port!r} is never given a direction", None, None, port
                )
        for decl in parser.wire_decls:
            if decl.name in self.input_ports or decl.name in self.output_ports:
                # `output foo;` + `reg foo;` style redeclaration: widen info.
                continue
            if decl.name in CLOCK_NAMES or decl.name in RESET_NAMES:
                continue
            self.declare_wire(decl)

        for statement in parser.statements:
            if isinstance(statement, _ClockTreePragma):
                self._build_clocktree(statement)
            elif isinstance(statement, _Assign):
                self._build_assign(statement)
            elif isinstance(statement, _Register):
                self._build_register(statement)
            elif isinstance(statement, _CaseTable):
                self._build_case(statement)
            elif isinstance(statement, _GateInstance):
                self._build_gate(statement)

        self._finish_output_ports()
        return self.netlist

    # -- statement builders ------------------------------------------------

    def _build_clocktree(self, statement: _ClockTreePragma) -> None:
        name = self.component_name(statement.name, "clock_tree")
        try:
            self.netlist.add(ClockTree(name, statement.load))
        except ValueError as error:
            raise VerilogParseError(
                str(error), statement.line, statement.col
            ) from error

    def _build_assign(self, statement: _Assign) -> None:
        expr = statement.expr
        target_name = statement.target

        # Exporter output-port pattern: `assign <port>_out = <wire>;`
        # with the port symbol never used anywhere else.
        if (
            target_name in self.output_ports
            and target_name not in self.wires
            and expr[0] == "ident"
        ):
            source = self.resolve(expr[1], expr[2], expr[3])
            if target_name.endswith("_out"):
                port_name = target_name[: -len("_out")]
            else:
                port_name = target_name
            name = self.component_name(port_name, target_name)
            self._check_port_width(self.output_ports[target_name], source, statement)
            self.netlist.add(OutputPort(name, source))
            self.realised_outputs.add(target_name)
            return

        if target_name in self.input_ports and target_name not in self.wires:
            raise VerilogParseError(
                f"assignment drives input port {target_name!r}",
                statement.line,
                statement.col,
                target_name,
            )

        target = self.resolve(target_name, statement.line, statement.col)
        if target_name in self.output_ports:
            self.realised_outputs.discard(target_name)  # realised later

        # Exporter input-port pattern: `assign <wire> = <port>_in;`.
        if (
            expr[0] == "ident"
            and expr[1] in self.input_ports
            and expr[1] not in self.wires
        ):
            port_symbol = expr[1]
            port_name = (
                port_symbol[: -len("_in")]
                if port_symbol.endswith("_in")
                else port_symbol
            )
            name = self.component_name(port_name, port_symbol)
            self._check_port_width(self.input_ports[port_symbol], target, statement)
            self.netlist.add(InputPort(name, target))
            return

        self._build_logic(statement, target, expr)

    def _check_port_width(
        self, decl: _PortDecl, wire: Wire, statement: _Assign
    ) -> None:
        width = decl.width if decl.width is not None else 1
        if width != wire.width:
            raise VerilogParseError(
                f"port {decl.name!r} is {width} bits but connects to "
                f"{wire.width}-bit wire {wire.name!r}",
                statement.line,
                statement.col,
                decl.name,
            )

    def _build_logic(self, statement: _Assign, target: Wire, expr: tuple) -> None:
        """Recognise the component vocabulary, falling back to LookupLogic."""
        builder = self._recognise(statement, target, expr)
        if builder is None:
            self._build_lookup(statement, target, expr)

    def _recognise(self, statement: _Assign, target: Wire, expr: tuple):
        kind = expr[0]
        line, col = statement.line, statement.col
        if kind == "num":
            width, value = expr[1], expr[2]
            if width is not None and width != target.width:
                raise VerilogParseError(
                    f"{width}-bit literal assigned to {target.width}-bit "
                    f"wire {target.name!r}",
                    line,
                    col,
                    f"{width}'d{value}",
                )
            name = self.component_name(statement.comment, f"{target.name}_const")
            self._add_component(Constant, (name, target, value), line, col)
            return True
        if kind == "ident":
            source = self.resolve(expr[1], expr[2], expr[3])
            name = self.component_name(statement.comment, f"{target.name}_buf")
            self._add_component(
                LookupLogic,
                (name, (source,), target, _make_gate_function("buf", target.width)),
                line,
                col,
                glitch_factor=0.0,
            )
            return True
        if kind == "bin" and expr[1] == "+":
            # `a + N'd1` -> Incrementer.
            left, right = expr[2], expr[3]
            if (
                left[0] == "ident"
                and right[0] == "num"
                and right[2] == 1
                and (right[1] is None or right[1] == target.width)
            ):
                a = self.resolve(left[1], left[2], left[3])
                name = self.component_name(statement.comment, f"{target.name}_inc")
                self._add_component(Incrementer, (name, a, target), line, col)
                return True
            return None
        if kind == "bin" and expr[1] == "^":
            terms: List[tuple] = []
            _flatten_xor(expr, terms)
            # Two plain identifiers -> XorArray.
            if len(terms) == 2 and all(t[0] == "ident" for t in terms):
                if terms[0][1] != terms[1][1]:
                    a = self.resolve(terms[0][1], terms[0][2], terms[0][3])
                    b = self.resolve(terms[1][1], terms[1][2], terms[1][3])
                    name = self.component_name(statement.comment, f"{target.name}_xor")
                    self._add_component(XorArray, (name, a, b, target), line, col)
                    return True
            # `a ^ (a >> 1)` -> BinaryToGray.
            if (
                len(terms) == 2
                and terms[0][0] == "ident"
                and terms[1][0] == "bin"
                and terms[1][1] == ">>"
                and terms[1][2][0] == "ident"
                and terms[1][2][1] == terms[0][1]
                and terms[1][3][0] == "num"
                and terms[1][3][2] == 1
            ):
                a = self.resolve(terms[0][1], terms[0][2], terms[0][3])
                name = self.component_name(statement.comment, f"{target.name}_b2g")
                self._add_component(BinaryToGray, (name, a, target), line, col)
                return True
            # The full prefix-XOR ladder -> GrayToBinary.
            shifts = set()
            source_name = None
            ladder = True
            for term in terms:
                if (
                    term[0] == "bin"
                    and term[1] == ">>"
                    and term[2][0] == "ident"
                    and term[3][0] == "num"
                ):
                    if source_name is None:
                        source_name = term[2][1]
                    if term[2][1] != source_name:
                        ladder = False
                        break
                    shifts.add(term[3][2])
                else:
                    ladder = False
                    break
            if ladder and source_name is not None:
                a = self.resolve(source_name, line, col)
                if shifts == set(range(a.width)):
                    name = self.component_name(statement.comment, f"{target.name}_g2b")
                    self._add_component(GrayToBinary, (name, a, target), line, col)
                    return True
            return None
        if kind == "mux":
            cond, if_true, if_false = expr[1], expr[2], expr[3]
            if (
                cond[0] == "ident"
                and if_true[0] == "ident"
                and if_false[0] == "ident"
            ):
                select = self.resolve(cond[1], cond[2], cond[3])
                b = self.resolve(if_true[1], if_true[2], if_true[3])
                a = self.resolve(if_false[1], if_false[2], if_false[3])
                name = self.component_name(statement.comment, f"{target.name}_mux")
                self._add_component(Mux2, (name, select, a, b, target), line, col)
                return True
            return None
        return None

    def _add_component(self, cls, args, line: int, col: int, **kwargs) -> None:
        try:
            self.netlist.add(cls(*args, **kwargs))
        except (ValueError, NetlistError) as error:
            raise VerilogParseError(str(error), line, col) from error

    def _build_lookup(self, statement: _Assign, target: Wire, expr: tuple) -> None:
        """Compile a general expression into a LookupLogic callable."""
        ident_nodes: List[tuple] = []
        _expr_idents(expr, ident_nodes)
        seen: Dict[str, Wire] = {}
        for node in ident_nodes:
            if node[1] not in seen:
                seen[node[1]] = self.resolve(node[1], node[2], node[3])
        if not seen:
            raise VerilogParseError(
                f"expression driving {target.name!r} references no wires",
                statement.line,
                statement.col,
            )
        inputs = tuple(seen.values())
        arg_names = {name: f"_v{index}" for index, name in enumerate(seen)}

        def width_of(node: tuple) -> int:
            kind = node[0]
            if kind == "ident":
                return seen[node[1]].width
            if kind == "num":
                if node[1] is not None:
                    return node[1]
                return max(1, int(node[2]).bit_length())
            if kind == "not":
                return width_of(node[1])
            if kind == "bin":
                if node[1] in (">>", "<<"):
                    return width_of(node[2])
                return max(width_of(node[2]), width_of(node[3]))
            if kind == "mux":
                return max(width_of(node[2]), width_of(node[3]))
            raise AssertionError(f"unknown expression node {kind!r}")

        def render(node: tuple) -> str:
            kind = node[0]
            if kind == "ident":
                return arg_names[node[1]]
            if kind == "num":
                return str(node[2])
            if kind == "not":
                return f"((~{render(node[1])}) & {mask(width_of(node[1]))})"
            if kind == "bin":
                op = node[1]
                left, right = render(node[2]), render(node[3])
                if op in ("+", "-", "<<"):
                    return f"(({left} {op} {right}) & {mask(width_of(node))})"
                return f"({left} {op} {right})"
            if kind == "mux":
                return (
                    f"({render(node[2])} if {render(node[1])} else {render(node[3])})"
                )
            raise AssertionError(f"unknown expression node {kind!r}")

        source = (
            f"lambda {', '.join(arg_names.values())}: "
            f"({render(expr)}) & {mask(target.width)}"
        )
        function = eval(source, {"__builtins__": {}})  # noqa: S307 - generated above
        name = self.component_name(statement.comment, f"{target.name}_logic")
        self._add_component(
            LookupLogic,
            (name, inputs, target, function),
            statement.line,
            statement.col,
        )

    def _build_register(self, statement: _Register) -> None:
        q = self.resolve(statement.q, statement.line, statement.col)
        d = self.resolve(statement.d, statement.line, statement.col)
        if statement.reset_width is not None and statement.reset_width != q.width:
            raise VerilogParseError(
                f"{statement.reset_width}-bit reset literal for {q.width}-bit "
                f"register {statement.q!r}",
                statement.line,
                statement.col,
                statement.q,
            )
        name = self.component_name(statement.comment, f"{statement.q}_reg")
        self._add_component(
            DRegister,
            (name, d, q),
            statement.line,
            statement.col,
            reset_value=statement.reset_value,
        )

    def _build_case(self, statement: _CaseTable) -> None:
        selector = self.resolve(statement.selector, statement.line, statement.col)
        target = self.resolve(statement.target, statement.line, statement.col)
        for key, value in statement.entries.items():
            if key > mask(selector.width):
                raise VerilogParseError(
                    f"case label {key} does not fit selector "
                    f"{statement.selector!r} ({selector.width} bits)",
                    statement.line,
                    statement.col,
                    statement.selector,
                )
            width = statement.entry_widths[key]
            if width is not None and width != target.width:
                raise VerilogParseError(
                    f"{width}-bit case value for {target.width}-bit "
                    f"wire {statement.target!r}",
                    statement.line,
                    statement.col,
                    statement.target,
                )
            if value > mask(target.width):
                raise VerilogParseError(
                    f"case value {value} does not fit {target.width}-bit "
                    f"wire {statement.target!r}",
                    statement.line,
                    statement.col,
                    statement.target,
                )
        full = len(statement.entries) == (1 << selector.width)
        if statement.rom_hint or (full and selector.width != target.width):
            if not full:
                raise VerilogParseError(
                    f"ROM case covers {len(statement.entries)} of "
                    f"{1 << selector.width} addresses",
                    statement.line,
                    statement.col,
                    statement.selector,
                )
            contents = [
                statement.entries[index] for index in range(1 << selector.width)
            ]
            name = self.component_name(statement.comment, f"{statement.target}_rom")
            self._add_component(
                SyncROM,
                (name, selector, target, contents),
                statement.line,
                statement.col,
            )
            return
        if selector.width != target.width:
            raise VerilogParseError(
                "case table is neither a full ROM nor an equal-width "
                f"transition table ({selector.width} -> {target.width} bits, "
                f"{len(statement.entries)} entries)",
                statement.line,
                statement.col,
                statement.selector,
            )
        name = self.component_name(statement.comment, f"{statement.target}_tt")
        self._add_component(
            TransitionTable,
            (name, selector, target, statement.entries),
            statement.line,
            statement.col,
        )

    def _build_gate(self, statement: _GateInstance) -> None:
        output = self.resolve(statement.output, statement.line, statement.col)
        if statement.output in self.output_ports:
            self.realised_outputs.discard(statement.output)
        inputs = tuple(
            self.resolve(name, statement.line, statement.col)
            for name in statement.inputs
        )
        function = _make_gate_function(statement.gate, output.width)
        name = self.component_name(
            statement.instance, f"{statement.gate}_{statement.output}"
        )
        self._add_component(
            LookupLogic,
            (name, inputs, output, function),
            statement.line,
            statement.col,
        )

    def _finish_output_ports(self) -> None:
        """Materialise pads for output ports referenced as plain wires."""
        for port_name, decl in self.output_ports.items():
            if port_name in self.realised_outputs:
                continue
            wire = self.wires.get(port_name)
            if wire is None:
                # Declared but never driven: leave it out entirely.
                continue
            name = self.component_name(None, f"{port_name}_pad")
            self._add_component(OutputPort, (name, wire), decl.line, decl.col)


def parse_verilog(text: str, name: Optional[str] = None) -> Netlist:
    """Parse structural Verilog source into a validated :class:`Netlist`.

    ``name`` overrides the netlist name (defaults to the module name).
    Raises :class:`VerilogParseError` with line/col diagnostics on any
    construct outside the supported structural subset.
    """
    tokens, comments = _Lexer(text).run()
    parser = _Parser(tokens, comments)
    parser.parse_module()
    builder = _NetlistBuilder(parser, name)
    netlist = builder.build()
    _drive_loose_inputs(builder)
    try:
        netlist.validate()
    except NetlistError as error:
        raise VerilogParseError(f"invalid netlist: {error}") from error
    return netlist


def _drive_loose_inputs(builder: _NetlistBuilder) -> None:
    """Add InputPort drivers for ports read directly inside logic.

    The exporter's ``assign <wire> = <port>_in;`` aliases are handled in
    statement order; third-party netlists instead read input ports
    straight from gate terminals, which materialises the port wire
    without a driver.  Every such wire gets an :class:`InputPort` here
    (appended after the logic, keeping build order deterministic).
    """
    driven = set()
    for component in builder.netlist.components:
        for wire in component.output_wires:
            driven.add(id(wire))
    for port_name in builder.input_ports:
        wire = builder.wires.get(port_name)
        if wire is None or id(wire) in driven:
            continue
        name = builder.component_name(None, port_name)
        builder.netlist.add(InputPort(name, wire))


def parse_verilog_file(path, name: Optional[str] = None) -> Netlist:
    """Read and parse a structural Verilog file (see :func:`parse_verilog`)."""
    path = Path(path)
    data = path.read_bytes()
    try:
        source = _text_mode(data)
    except UnicodeDecodeError as error:
        before = _text_mode(data[: error.start])
        raise VerilogParseError(
            f"{path}: not UTF-8 text (bad byte at offset {error.start})",
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
        ) from error
    try:
        return parse_verilog(source, name=name)
    except VerilogParseError as error:
        raise VerilogParseError(
            f"{path}: {error.message}", error.line, error.col, error.token
        ) from error


def _text_mode(data: bytes) -> str:
    """Decode UTF-8 with universal newlines, as a text-mode read does."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
