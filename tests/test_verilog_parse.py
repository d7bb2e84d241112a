"""Tests for the structural Verilog import frontend.

The pinned invariant: ``parse_verilog(export_verilog(n))`` simulates
bit-identically — same activity matrix, same channel order, same state
sequences — on every engine tier, for every paper design.  The vendored
corpus under ``benchmarks/netlists/`` must agree across tiers too.
"""

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.attacks.removal import strip_watermark
from repro.experiments.designs import (
    IMPORTED_KEYS,
    PAPER_IP_NAMES,
    build_device_fleet,
    build_imported_ip,
    build_paper_ip,
    resolve_imported_design,
)
from repro.hdl.combinational import Constant, GrayToBinary, LookupLogic, XorArray
from repro.hdl.engine import compile_netlist
from repro.hdl.io import ClockTree, InputPort, OutputPort
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister
from repro.hdl.simulator import Simulator
from repro.hdl.verilog import export_verilog
from repro.hdl.verilog_parse import (
    MAX_BUS_WIDTH,
    MAX_EXPRESSION_DEPTH,
    PRAGMA_PREFIX,
    VerilogParseError,
    _Lexer,
    parse_verilog,
    parse_verilog_file,
)
from repro.hdl.wires import mask

ENGINES = ("interpreted", "compiled", "vectorised")
CORPUS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "netlists"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.v"))


def round_trip(netlist):
    return parse_verilog(export_verilog(netlist))


def inventory(netlist):
    return [(c.name, type(c).__name__) for c in netlist.components]


class TestRoundTripPaperDesigns:
    """Golden tests: exporter output parses back to the same machine."""

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_component_inventory_preserved(self, ip_name):
        ip = build_paper_ip(ip_name)
        recovered = round_trip(ip.netlist)
        assert inventory(recovered) == inventory(ip.netlist)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_activity_bit_identical(self, ip_name, engine):
        original = build_paper_ip(ip_name).netlist
        recovered = round_trip(original)
        t_orig = Simulator(original, engine=engine).run(48)
        t_back = Simulator(recovered, engine=engine).run(48)
        assert t_back.channels == t_orig.channels
        assert np.array_equal(t_back.matrix, t_orig.matrix)

    @pytest.mark.parametrize("ip_name", PAPER_IP_NAMES)
    def test_state_sequence_preserved(self, ip_name):
        original = build_paper_ip(ip_name).netlist
        recovered = round_trip(original)
        seq_orig = Simulator(original).state_sequence("ctr_reg", 32)
        seq_back = Simulator(recovered).state_sequence("ctr_reg", 32)
        assert seq_back == seq_orig

    def test_clocktree_pragma_round_trips(self):
        original = build_paper_ip("IP_A").netlist
        recovered = round_trip(original)
        trees = {
            c.name: c.load
            for c in recovered.components
            if isinstance(c, ClockTree)
        }
        expected = {
            c.name: c.load
            for c in original.components
            if isinstance(c, ClockTree)
        }
        assert trees == expected

    def test_input_port_pattern_recovered(self):
        netlist = Netlist("stim")
        a = netlist.wire("a", 4)
        b = netlist.wire("b", 4)
        y = netlist.wire("y", 4)
        netlist.add(InputPort("a_port", a, [1, 2, 3]))
        netlist.add(Constant("c", b, 9))
        netlist.add(XorArray("x", a, b, y))
        netlist.add(OutputPort("res", y))
        recovered = round_trip(netlist)
        ports = [c for c in recovered.components if isinstance(c, InputPort)]
        assert [p.name for p in ports] == ["a_port"]
        # Stimulus values live outside the netlist; imports default to 0.
        trace = Simulator(recovered).run(4)
        assert trace.matrix.shape[0] == 4


class TestIdentifierScope:
    """Names that sanitise to the same identifier must stay distinct."""

    def build_colliding(self):
        netlist = Netlist("collide")
        a = netlist.wire("a.b", 4)
        b = netlist.wire("a_b", 4)
        y = netlist.wire("res", 4)
        netlist.add(Constant("c1", a, 3))
        netlist.add(Constant("c2", b, 5))
        netlist.add(XorArray("x1", a, b, y))
        netlist.add(OutputPort("out", y))
        return netlist

    def test_collision_gets_unique_suffix(self):
        text = export_verilog(self.build_colliding())
        assert "wire [3:0] a_b;" in text
        assert "wire [3:0] a_b_2;" in text

    def test_colliding_constants_stay_attached(self):
        # Regression: both wires used to alias to ``a_b``, silently
        # merging two drivers.  The values must survive the round trip
        # on the right components.
        recovered = round_trip(self.build_colliding())
        values = {
            c.name: c.value
            for c in recovered.components
            if isinstance(c, Constant)
        }
        assert values == {"c1": 3, "c2": 5}

    def test_collision_export_is_deterministic(self):
        netlist = self.build_colliding()
        assert export_verilog(netlist) == export_verilog(netlist)


class TestParserErrors:
    """Diagnostics carry line/col and point at the offending token."""

    def parse_error(self, source):
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog(source)
        return excinfo.value

    def test_unknown_construct(self):
        err = self.parse_error(
            "module m (input wire clk);\ninitial begin end\nendmodule\n"
        )
        assert err.line == 2 and err.col == 1
        assert "unsupported construct 'initial'" in str(err)

    def test_malformed_declaration(self):
        err = self.parse_error(
            "module m (input wire clk);\n  wire [7:0 a;\nendmodule\n"
        )
        assert err.line == 2
        assert "expected ']'" in str(err)

    def test_literal_too_wide(self):
        err = self.parse_error(
            "module m (input wire clk);\n"
            "  wire [3:0] a;\n"
            "  assign a = 4'd20;\n"
            "endmodule\n"
        )
        assert err.line == 3
        assert "does not fit in 4 bits" in str(err)

    def test_case_width_mismatch(self):
        err = self.parse_error(
            "module m (input wire clk, input wire rst);\n"
            "  wire [3:0] s;\n"
            "  reg [7:0] n;\n"
            "  always @(*) begin\n"
            "    case (s)\n"
            "      4'd0: n = 8'd1;\n"
            "      default: n = 8'd0;\n"
            "    endcase\n"
            "  end\n"
            "endmodule\n"
        )
        assert "4 -> 8 bits" in str(err)

    def test_duplicate_case_label(self):
        err = self.parse_error(
            "module m (input wire clk);\n"
            "  wire [1:0] s;\n"
            "  reg [1:0] n;\n"
            "  always @(*) begin\n"
            "    case (s)\n"
            "      2'd0: n = 2'd1;\n"
            "      2'd0: n = 2'd2;\n"
            "      default: n = 2'd0;\n"
            "    endcase\n"
            "  end\n"
            "endmodule\n"
        )
        assert "duplicate case label" in str(err)

    def test_gate_arity_checked(self):
        err = self.parse_error(
            "module m (input wire a, output wire y);\n"
            "  not g1 (y, a, a);\n"
            "endmodule\n"
        )
        assert "'not' takes exactly one output and one input" in str(err)

    def test_undeclared_wire(self):
        err = self.parse_error(
            "module m (input wire clk);\n  assign q = w + 4'd1;\nendmodule\n"
        )
        assert "undeclared wire 'q'" in str(err)

    def test_file_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_text("module m (input wire clk);\ninitial x;\nendmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog_file(str(bad))
        assert "bad.v" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)


def assign_module(expr: str) -> str:
    return (
        "module m (input wire a, output wire y);\n"
        "  wire [3:0] w;\n"
        f"  assign w = {expr};\n"
        "endmodule\n"
    )


class TestInputBounds:
    """Hostile input fails as a located VerilogParseError, never otherwise."""

    def located_error(self, source):
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog(source)
        err = excinfo.value
        assert err.line is not None and err.col is not None
        return err

    def test_non_ascii_digit_in_range(self):
        # '²'.isdigit() holds but int('²') fails.
        err = self.located_error(
            "module m (input wire clk);\n  wire [²:0] x;\nendmodule\n"
        )
        assert (err.line, err.col) == (2, 9)
        assert "unexpected character '²'" in str(err)

    def test_decimal_past_int_conversion_limit(self):
        err = self.located_error(assign_module("1" * 5000))
        assert (err.line, err.col) == (3, 14)
        assert f"wider than the {MAX_BUS_WIDTH}-bit limit" in str(err)

    def test_literal_width_past_limit(self):
        err = self.located_error(assign_module("999999999999999999999'd1"))
        assert (err.line, err.col) == (3, 14)
        assert "literal width exceeds" in str(err)

    @pytest.mark.parametrize("msb", ["99999999999", "1" + "0" * 30])
    def test_range_past_limit(self, msb):
        err = self.located_error(
            f"module m (input wire clk);\n  wire [{msb}:0] x;\nendmodule\n"
        )
        assert (err.line, err.col) == (2, 9)
        assert "bus width exceeds" in str(err)

    def test_width_limit_boundary(self):
        top = MAX_BUS_WIDTH - 1
        netlist = parse_verilog(
            "module m (input wire clk);\n"
            f"  wire [{top}:0] x;\n"
            f"  assign x = {MAX_BUS_WIDTH}'d{mask(MAX_BUS_WIDTH)};\n"
            "endmodule\n"
        )
        assert netlist.component("x_const").value == mask(MAX_BUS_WIDTH)
        for too_wide in (
            f"wire [{MAX_BUS_WIDTH}:0] x;",
            f"assign w = {MAX_BUS_WIDTH + 1}'d1;",
            "assign w = 'h1" + "0" * (MAX_BUS_WIDTH // 4) + ";",
        ):
            with pytest.raises(VerilogParseError):
                parse_verilog(f"module m (input wire clk);\n  {too_wide}\nendmodule\n")

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 100 + "a" + ")" * 100,
            "~" * 400 + "a",
            " & ".join(["a"] * 1200),
            " + ".join(["a"] * 120),
        ],
        ids=["parens", "nots", "and-chain", "add-chain"],
    )
    def test_expression_past_depth_limit(self, expr):
        # Unbounded, these overflowed the recursion of the parser or of
        # netlist construction, or Python's limit on nested parentheses.
        err = self.located_error(assign_module(expr))
        assert err.line == 3
        assert f"deeper than {MAX_EXPRESSION_DEPTH} levels" in str(err)

    def test_depth_limit_boundary(self):
        deepest = MAX_EXPRESSION_DEPTH - 1
        chain = " ^ ".join(["a"] * MAX_EXPRESSION_DEPTH)  # n - 1 operators
        parens = "(" * deepest + "a" + ")" * deepest
        for expr in (chain, parens):
            parse_verilog(assign_module(expr).replace("[3:0] w", "w"))
        for expr in (chain + " ^ a", f"({parens})"):
            with pytest.raises(VerilogParseError):
                parse_verilog(assign_module(expr).replace("[3:0] w", "w"))

    def test_widest_gray_ladder_round_trips(self):
        # The exporter's deepest expression sits exactly at the limit.
        netlist = Netlist("g2b")
        a = netlist.wire("a", 63)
        out = netlist.wire("b", 63)
        netlist.add(Constant("c", a, 5))
        netlist.add(GrayToBinary("g2b", a, out))
        netlist.add(OutputPort("o", out))
        assert inventory(round_trip(netlist)) == inventory(netlist)

    def test_file_not_utf8(self, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_bytes(b"module m (input wire clk);\n// caf\xc3\xa9 \xff\nendmodule\n")
        with pytest.raises(VerilogParseError) as excinfo:
            parse_verilog_file(bad)
        err = excinfo.value
        assert "bad.v" in str(err) and "offset 36" in str(err)
        assert (err.line, err.col) == (2, 9)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_file_line_endings(self, tmp_path, newline):
        source = CORPUS_DIR / "c17.v"
        copy = tmp_path / "c17.v"
        copy.write_bytes(source.read_bytes().replace(b"\n", newline.encode()))
        expected = inventory(parse_verilog_file(source))
        assert inventory(parse_verilog_file(copy)) == expected


class TestLexerDetails:
    def test_underscored_and_based_literals(self):
        netlist = parse_verilog(
            "module m (input wire clk, output wire [7:0] y_out);\n"
            "  wire [7:0] y;\n"
            "  assign y = 8'b0101_0011;\n"
            "  assign y_out = y;\n"
            "endmodule\n"
        )
        const = netlist.component("y_const")
        assert isinstance(const, Constant)
        assert const.value == 0b01010011

    def test_gate_primitives_build_lookup_logic(self):
        netlist = parse_verilog(
            "module m (input wire a, input wire b, output wire y);\n"
            "  wire w;\n"
            "  nand g1 (w, a, b);\n"
            "  not g2 (y, w);\n"
            "endmodule\n"
        )
        gates = [c for c in netlist.components if isinstance(c, LookupLogic)]
        assert {g.name for g in gates} >= {"g1", "g2"}


# ---------------------------------------------------------------------------
# Lexer: differential oracle and fuzzing

#: Every text the differential and mutation tests start from.
SOURCE_NAMES = [path.name for path in CORPUS_FILES] + list(PAPER_IP_NAMES)

#: ASCII pieces of the accepted grammar, for text that gets past the
#: lexer into the parser and netlist construction.
ASCII_FRAGMENTS = (
    *"abyz_09$\\ \t\r\n()[]{};,:?=^~&|+-*/@#.'\"`",
    *("4'b", "8'hFF", "4'd", "'b1", "3'o7", "1_0", "12", "//", "/*", "*/"),
    *("[7:0]", "[0:0]", "<=", ">>", "<<", "@(*)", "@(posedge clk)"),
    *("module", "endmodule", "input", "output", "inout", "wire", "reg"),
    *("assign", "always", "begin", "end", "if", "else", "case", "endcase"),
    *("default", "nand", "not", "buf", "xor", "clk", "rst", "\\esc "),
    "// repro: clocktree t load=1.5\n",
)
FRAGMENTS = ASCII_FRAGMENTS + ("é", "²", "٣", "\u00a0", "—", "\x00")

#: A literal width past MAX_BUS_WIDTH needs four or more size digits;
#: the cap is the one deliberate difference from the reference on ASCII.
WIDE_SIZE = re.compile(r"[0-9][0-9_]{3,}'")


@functools.lru_cache(maxsize=None)
def source_text(name):
    if name in PAPER_IP_NAMES:
        return export_verilog(build_paper_ip(name).netlist)
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def in_module(body):
    return (
        "module m (input wire a, input wire [7:0] b, output wire y);\n"
        f"  wire [7:0] w;\n{body}\nendmodule\n"
    )


def verilog_text(fragments):
    body = st.lists(st.sampled_from(fragments), max_size=60).map("".join)
    return st.one_of(body, body.map(in_module))


@st.composite
def edited_sources(draw):
    """A corpus file or exported paper design, truncated or edited once."""
    text = source_text(draw(st.sampled_from(SOURCE_NAMES)))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("truncate", "delete", "insert", "replace")))
    if edit == "truncate":
        return text[:at]
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    piece = draw(st.one_of(st.characters(), st.sampled_from(FRAGMENTS)))
    return text[:at] + piece + text[at + (edit == "replace") :]


def lex_outcome(lexer, text):
    try:
        tokens, comments = lexer(text).run()
    except VerilogParseError as error:
        return ("error", str(error), error.line, error.col, error.token)
    rows = [(t.kind, t.text, t.line, t.col, t.width, t.value) for t in tokens]
    return ("ok", rows, comments)


def assert_same_lexing(text):
    assert lex_outcome(_Lexer, text) == lex_outcome(ReferenceLexer, text)


def parses_or_rejects(text):
    try:
        parse_verilog(text)
    except VerilogParseError:
        pass


class TestLexerDifferential:
    """The one-pass lexer matches the character-by-character reference."""

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    def test_differential_sources(self, name):
        assert_same_lexing(source_text(name))

    @given(st.text(st.characters(max_codepoint=127), max_size=200))
    def test_differential_ascii_text(self, text):
        assume(not WIDE_SIZE.search(text))
        assert_same_lexing(text)

    @given(verilog_text(ASCII_FRAGMENTS))
    def test_differential_verilog_text(self, text):
        assume(not WIDE_SIZE.search(text))
        assert_same_lexing(text)

    @pytest.mark.parametrize("char", ["é", "٣", "²"])
    @pytest.mark.parametrize(
        "prefix", ["", "wire a", "x = 4'd1"], ids=["start", "ident", "literal"]
    )
    def test_non_ascii_outside_comments_is_unexpected(self, prefix, char):
        # The reference took these for identifier or digit characters
        # (and int('²') then failed).
        col = len(prefix) + 1
        message = f"line 1, col {col}: unexpected character {char!r} (at {char!r})"
        outcome = lex_outcome(_Lexer, f"{prefix}{char};")
        assert outcome == ("error", message, 1, col, char)

    @pytest.mark.parametrize(
        "text",
        [
            "// café ² ٣\nwire a;",
            "/* ٣ —\n é */ wire a;",
            "// repro: clocktree tré load=1.5\nwire a;",
            "wire \\bus[é]² ;\n",
        ],
        ids=["line-comment", "block-comment", "pragma", "escaped"],
    )
    def test_non_ascii_in_comments_lexes_as_before(self, text):
        assert lex_outcome(_Lexer, text)[0] == "ok"
        assert_same_lexing(text)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.v"


class TestFuzz:
    """Only VerilogParseError may escape the frontend."""

    @given(st.text())
    def test_fuzz_any_text(self, text):
        parses_or_rejects(text)

    @given(verilog_text(FRAGMENTS))
    def test_fuzz_verilog_text(self, text):
        parses_or_rejects(text)

    @given(edited_sources())
    def test_fuzz_edited_sources(self, text):
        parses_or_rejects(text)

    @given(data=st.binary())
    def test_fuzz_file_bytes(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        try:
            parse_verilog_file(fuzz_file)
        except VerilogParseError:
            pass


# The character-by-character lexer the one-pass lexer replaced, kept as
# the differential oracle above (renamed, otherwise unchanged).
@dataclass(frozen=True)
class RefToken:
    kind: str  # "ident" | "number" | "symbol" | "pragma" | "eof"
    text: str
    line: int
    col: int
    width: Optional[int] = None  # sized literals only
    value: Optional[int] = None  # numbers only


REF_TWO_CHAR_SYMBOLS = ("<=", ">>", "<<")
REF_ONE_CHAR_SYMBOLS = set("()[]{};,:?=^~&|+-*/@#.")

REF_BASE_DIGITS = {
    "b": "01_",
    "o": "01234567_",
    "d": "0123456789_",
    "h": "0123456789abcdefABCDEF_",
}
REF_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


class ReferenceLexer:
    """Tokeniser with line/col tracking and a comment side-channel.

    ``comments`` maps a line number to the text of the trailing ``//``
    comment on that line (the exporter's component-name channel);
    ``repro:`` pragma comments are emitted as in-stream tokens instead
    so their position among statements is preserved.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: List[RefToken] = []
        self.comments: Dict[int, str] = {}

    def error(self, message: str, token: Optional[str] = None) -> VerilogParseError:
        return VerilogParseError(message, self.line, self.col, token)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def run(self) -> Tuple[List[RefToken], Dict[int, str]]:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            if text.startswith("//", self.pos):
                self._lex_line_comment()
                continue
            if text.startswith("/*", self.pos):
                self._lex_block_comment()
                continue
            if ch.isdigit() or ch == "'":
                self._lex_number()
                continue
            if ch.isalpha() or ch == "_" or ch == "\\":
                self._lex_identifier()
                continue
            two = text[self.pos : self.pos + 2]
            if two in REF_TWO_CHAR_SYMBOLS:
                self.tokens.append(RefToken("symbol", two, self.line, self.col))
                self._advance(2)
                continue
            if ch in REF_ONE_CHAR_SYMBOLS:
                self.tokens.append(RefToken("symbol", ch, self.line, self.col))
                self._advance()
                continue
            raise self.error(f"unexpected character {ch!r}", ch)
        self.tokens.append(RefToken("eof", "", self.line, self.col))
        return self.tokens, self.comments

    def _lex_line_comment(self) -> None:
        line, col = self.line, self.col
        end = self.text.find("\n", self.pos)
        if end == -1:
            end = len(self.text)
        body = self.text[self.pos + 2 : end].strip()
        self._advance(end - self.pos)
        if body.startswith(PRAGMA_PREFIX):
            payload = body[len(PRAGMA_PREFIX) :].strip()
            self.tokens.append(RefToken("pragma", payload, line, col))
        elif body:
            self.comments[line] = body

    def _lex_block_comment(self) -> None:
        end = self.text.find("*/", self.pos + 2)
        if end == -1:
            raise self.error("unterminated block comment")
        self._advance(end + 2 - self.pos)

    def _lex_identifier(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        if self.text[self.pos] == "\\":
            # Escaped identifier: backslash to next whitespace.
            self._advance()
            while self.pos < len(self.text) and not self.text[self.pos].isspace():
                self._advance()
            name = self.text[start + 1 : self.pos]
            if not name:
                raise self.error("empty escaped identifier")
            self.tokens.append(RefToken("ident", name, line, col))
            return
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_$"
        ):
            self._advance()
        self.tokens.append(RefToken("ident", self.text[start : self.pos], line, col))

    def _lex_number(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "_"
        ):
            self._advance()
        width: Optional[int] = None
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            size_digits = self.text[start : self.pos].replace("_", "")
            if size_digits:
                width = int(size_digits)
                if width <= 0:
                    raise VerilogParseError(
                        "literal width must be positive", line, col, size_digits
                    )
            self._advance()  # consume '
            if self.pos >= len(self.text):
                raise self.error("truncated sized literal")
            base = self.text[self.pos].lower()
            if base not in REF_BASE_DIGITS:
                raise self.error(f"unknown number base {base!r}", base)
            self._advance()
            digit_start = self.pos
            allowed = REF_BASE_DIGITS[base]
            while self.pos < len(self.text) and self.text[self.pos] in allowed:
                self._advance()
            digits = self.text[digit_start : self.pos].replace("_", "")
            if not digits:
                raise VerilogParseError(
                    "sized literal has no digits",
                    line,
                    col,
                    self.text[start : self.pos],
                )
            value = int(digits, REF_BASE_RADIX[base])
            text = self.text[start : self.pos]
            if width is not None and value > mask(width):
                raise VerilogParseError(
                    f"literal value {value} does not fit in {width} bits",
                    line,
                    col,
                    text,
                )
            self.tokens.append(RefToken("number", text, line, col, width, value))
            return
        digits = self.text[start : self.pos].replace("_", "")
        self.tokens.append(
            RefToken("number", digits, line, col, None, int(digits))
        )


class TestCorpus:
    """Every vendored benchmark parses and agrees across engine tiers."""

    def test_corpus_is_vendored(self):
        names = {path.name for path in CORPUS_FILES}
        assert "c17.v" in names
        assert len(CORPUS_FILES) >= 3

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.name for p in CORPUS_FILES]
    )
    def test_parses_and_validates(self, path):
        netlist = parse_verilog_file(str(path))
        netlist.validate()
        assert netlist.components

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.name for p in CORPUS_FILES]
    )
    def test_tier_agreement(self, path):
        traces = {}
        for engine in ENGINES:
            netlist = parse_verilog_file(str(path))
            traces[engine] = Simulator(netlist, engine=engine).run(32)
        base = traces["interpreted"]
        for engine in ("compiled", "vectorised"):
            assert np.array_equal(traces[engine].matrix, base.matrix), engine


class TestImportedWorkloads:
    C17 = "benchmarks/netlists/c17.v"

    def test_resolve_imported_design(self):
        path = resolve_imported_design(f"imported:{self.C17}")
        assert path.name == "c17.v" and path.exists()
        with pytest.raises(ValueError):
            resolve_imported_design("paperish")
        with pytest.raises(FileNotFoundError):
            resolve_imported_design("imported:no/such/file.v")

    def test_imported_ip_carries_watermark(self):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        names = {c.name for c in ip.netlist.components}
        assert {"wm_key", "wm_xor", "wm_sbox", "wm_hreg"} <= names
        assert ip.fsm_kind == "imported"

    def test_imported_ip_strippable(self):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        report = strip_watermark(ip)
        assert report.removed_components
        assert not any(
            c.name.startswith("wm_") for c in ip.netlist.components
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_imported_ip_tier_agreement(self, engine):
        ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        trace = Simulator(ip.netlist, engine=engine).run(48)
        ref_ip = build_imported_ip(self.C17, "IP_A", IMPORTED_KEYS["IP_A"])
        ref = Simulator(ref_ip.netlist, engine="interpreted").run(48)
        assert np.array_equal(trace.matrix, ref.matrix)

    def test_fleet_uses_distinct_keys(self):
        refds, duts = build_device_fleet(design=f"imported:{self.C17}")
        assert set(refds) == set(PAPER_IP_NAMES)
        assert len(duts) == 4
        keys = {
            name: refds[name].ip.netlist.component("wm_key").value
            for name in refds
        }
        assert keys == IMPORTED_KEYS
        assert len(set(keys.values())) == 4

    def test_paper_fleet_unchanged(self):
        refds, _ = build_device_fleet()
        kinds = {name: refds[name].ip.fsm_kind for name in refds}
        assert kinds["IP_A"] == "binary"
        assert kinds["IP_B"] == "gray"


#: ``structural_key`` of every watermarked corpus IP, IP_A to IP_D in
#: order, computed before the one-pass lexer landed.  The key is the
#: SHA-256 of ``repr`` of the lowered records (pure Python), so it holds
#: across interpreter and NumPy versions; any change to what the
#: frontend builds or the engine lowers moves it.
IMPORTED_STRUCTURAL_KEYS = {
    "c17": (
        "f6c3897f18582c6dddb537a1e8a8b1171e77162fdf146db39eb800a8408384ee",  # IP_A
        "04aaf8bbf2f5c1c797fc1ea5b7e39f51cc461b2e497c6d1dfe5a03fa174d10ed",  # IP_B
        "47e297ea495475fee46ebba383c7ec46c65a5625d7304d51877a84765af070b6",  # IP_C
        "600f7a3f7f059f10ed55a6cb773d82c29493b7af0b6c29ce4a632ba97ca9cf30",  # IP_D
    ),
    "c160_synth": (
        "5cb40ef86d70fc5206c94d87e2f206a1edbd15f13b3c6549aa0fd2777d147059",  # IP_A
        "1968b04c195a87b4d82724f46508d0862ecf156702eb240546bc09796eba06ce",  # IP_B
        "0cab39ccf768278f86c321751a4c563f7554937ebad99f49d63fa97f34401112",  # IP_C
        "e7dbb7e9d3768a01e6cff7707565e417a3fa03a14586f7d4adfe1b60d619cad1",  # IP_D
    ),
    "s220_synth": (
        "4ca3e323ba7d670f2c91f4e80493658ee88770d66925cebf6dea4d7821524a1e",  # IP_A
        "2bd400d9053529f1205a729966cb9f1fcb229e47271ed584008fbe07519b5c33",  # IP_B
        "54187acdfc18a472926472dd5edd8df8187ad8041d7291e4b245d36093d81f56",  # IP_C
        "93f6632699224605933129cbec2f05c71aeed06894602577de65f0a345b96d89",  # IP_D
    ),
    "c640_synth": (
        "5b040a1e5045eeaa37e26c41deb8edc24c3ab5f7d124ea0a5ad3bd620313a4c2",  # IP_A
        "e10346a53da8a6def8eafb623645ba4961369304790efa259e781c2f1d4a3de2",  # IP_B
        "f8a955168f9743102ffbe8fb7ec5cede73d3e831911968d7508df433ce5098ce",  # IP_C
        "ac2e0d42c5b40c316cdf9af4ce4eae30b874e314f018d75063239ad2fd8035cb",  # IP_D
    ),
}


class TestImportedIdentity:
    """Imported designs are pinned byte-for-byte, not just re-parsed."""

    @pytest.mark.parametrize("circuit", sorted(IMPORTED_STRUCTURAL_KEYS))
    def test_structural_key_golden(self, circuit):
        keys = tuple(
            compile_netlist(
                build_imported_ip(
                    CORPUS_DIR / f"{circuit}.v", ip_name, IMPORTED_KEYS[ip_name]
                ).netlist
            ).structural_key
            for ip_name in sorted(IMPORTED_KEYS)
        )
        assert keys == IMPORTED_STRUCTURAL_KEYS[circuit]


class TestImportedCampaignAndSweep:
    DESIGN = "imported:benchmarks/netlists/c17.v"

    def test_campaign_detects_imported_watermarks(self):
        from repro.core.process import ProcessParameters
        from repro.experiments.runner import CampaignConfig, run_campaign

        config = CampaignConfig(
            parameters=ProcessParameters(k=8, m=2, n1=12, n2=16),
            design=self.DESIGN,
        )
        outcome = run_campaign(config)
        assert outcome.accuracy("higher-mean") == 1.0

    def test_sweep_spec_accepts_design_axis(self):
        from repro.sweeps.spec import (
            expand_scenarios,
            scenario_config,
            spec_from_dict,
        )

        spec = spec_from_dict(
            {
                "name": "design-axis",
                "base": {"parameters.k": 8, "parameters.m": 2,
                         "parameters.n1": 12, "parameters.n2": 16},
                "grid": [
                    {"field": "design", "values": ["paper", self.DESIGN]},
                    {"field": "attack", "values": ["none", "strip"]},
                ],
            }
        )
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == 4
        designs = {scenario_config(s).design for s in scenarios}
        assert designs == {"paper", self.DESIGN}

    def test_design_field_keeps_paper_digests_stable(self):
        from repro.experiments.artifacts import fleet_key
        from repro.experiments.runner import CampaignConfig

        paper = fleet_key(CampaignConfig())
        imported = fleet_key(CampaignConfig(design=self.DESIGN))
        assert paper != imported
        # The paper-design key must not mention the new field at all,
        # so digests minted before it existed stay byte-identical.
        assert fleet_key(CampaignConfig(design="paper")) == paper


class TestNetlistRemove:
    def test_remove_component(self):
        netlist = Netlist("rm")
        a = netlist.wire("a", 4)
        netlist.add(Constant("c", a, 1))
        removed = netlist.remove("c")
        assert removed.name == "c"
        assert not netlist.components
        # The name is free for reuse.
        netlist.add(Constant("c", a, 2))
        assert netlist.component("c").value == 2

    def test_remove_unknown_raises(self):
        netlist = Netlist("rm")
        with pytest.raises(KeyError):
            netlist.remove("missing")


class TestRegisterRoundTrip:
    def test_dregister_reset_value(self):
        netlist = Netlist("regs")
        d = netlist.wire("d", 4)
        q = netlist.wire("q", 4)
        netlist.add(Constant("c", d, 7))
        netlist.add(DRegister("r", d, q, reset_value=5))
        netlist.add(OutputPort("out", q))
        recovered = round_trip(netlist)
        reg = recovered.component("r")
        assert isinstance(reg, DRegister)
        assert reg.reset_value == 5
