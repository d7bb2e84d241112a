"""The paper's side-channel leakage component (the watermark).

Figure 3 of the paper: the FSM state is XORed with a secret watermark
key ``Kw``, fed through the AES SBox stored in RAM, and the result is
latched into an output register ``H`` driving output pads.  The
component

* never feeds back into the FSM (it "does not interfere with the
  working FSM"),
* adds strong non-linearity to the state sequence's power signature,
  so even an "extremely linear" counter leaks a rich, device-specific
  waveform,
* is *keyed*: two identical FSMs with different ``Kw`` produce
  different SBox-output sequences, which "reduces the risk of
  collision between different IPs with the same FSM".

For FSMs wider or narrower than the 8-bit SBox address, the state is
XOR-folded (wider) or zero-extended (narrower) onto 8 bits first; for
the paper's 8-bit counters this adapter is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.sbox import SBOX
from repro.hdl.combinational import Constant, LookupLogic, XorArray
from repro.hdl.io import OutputPort
from repro.hdl.memory import SyncROM
from repro.hdl.netlist import Netlist
from repro.hdl.register import DRegister
from repro.hdl.wires import Wire, mask

#: The SBox address/data width, fixed by AES.
SBOX_WIDTH = 8


class WatermarkKeyError(Exception):
    """The watermark key is out of range for the leakage component."""


def fold_to_sbox_width(value: int, width: int) -> int:
    """XOR-fold ``value`` (on ``width`` bits) down to the SBox width.

    Narrow values pass through (zero-extension is implicit).  This is
    the software model of the adapter logic used for non-8-bit FSMs.
    """
    if width <= SBOX_WIDTH:
        return value
    folded = 0
    remaining = value
    while remaining:
        folded ^= remaining & mask(SBOX_WIDTH)
        remaining >>= SBOX_WIDTH
    return folded


def attach_leakage_component(
    netlist: Netlist,
    state: Wire,
    kw: int,
    prefix: str = "wm",
) -> DRegister:
    """Attach the watermark leakage component to a state wire.

    Adds:  ``Kw`` constant → XOR with (folded) state → SBox ROM →
    output register ``H`` → output pads.  Returns the ``H`` register.
    """
    if not 0 <= kw <= mask(SBOX_WIDTH):
        raise WatermarkKeyError(
            f"watermark key must fit the SBox width ({SBOX_WIDTH} bits), got {kw}"
        )

    if state.width > SBOX_WIDTH:
        folded = netlist.wire(f"{prefix}_folded", SBOX_WIDTH)
        netlist.add(
            LookupLogic(
                f"{prefix}_fold",
                (state,),
                folded,
                lambda value, w=state.width: fold_to_sbox_width(value, w),
                glitch_factor=0.25,
            )
        )
        sbox_input = folded
    elif state.width < SBOX_WIDTH:
        widened = netlist.wire(f"{prefix}_widened", SBOX_WIDTH)
        netlist.add(
            LookupLogic(
                f"{prefix}_widen",
                (state,),
                widened,
                lambda value: value,
                glitch_factor=0.0,
            )
        )
        sbox_input = widened
    else:
        sbox_input = state

    key_wire = netlist.wire(f"{prefix}_kw", SBOX_WIDTH)
    address = netlist.wire(f"{prefix}_addr", SBOX_WIDTH)
    sbox_data = netlist.wire(f"{prefix}_sbox_data", SBOX_WIDTH)
    h_out = netlist.wire(f"{prefix}_h", SBOX_WIDTH)

    netlist.add(Constant(f"{prefix}_key", key_wire, kw))
    netlist.add(XorArray(f"{prefix}_xor", sbox_input, key_wire, address))
    netlist.add(SyncROM(f"{prefix}_sbox", address, sbox_data, list(SBOX)))
    h_register = DRegister(f"{prefix}_hreg", sbox_data, h_out)
    netlist.add(h_register)
    netlist.add(OutputPort(f"{prefix}_pads", h_out))
    return h_register


def attach_wide_leakage_component(
    netlist: Netlist,
    state: Wire,
    kw: int,
    prefix: str = "wm",
) -> DRegister:
    """Extension: a 16-bit-keyed leakage component (two SBox stages).

    ``H = SBox[SBox[state ^ kw_lo] ^ kw_hi]`` with ``kw`` a 16-bit key.
    The paper's 8-bit key resists *accidental* collision but falls to a
    256-template search (see :mod:`repro.attacks.forgery`); cascading a
    second keyed SBox squares the template count at the cost of one
    more ROM — the natural "future work" hardening.

    Only 8-bit state wires are supported (the paper's designs).
    """
    if state.width != SBOX_WIDTH:
        raise WatermarkKeyError(
            f"wide leakage component requires an {SBOX_WIDTH}-bit state wire"
        )
    if not 0 <= kw <= mask(2 * SBOX_WIDTH):
        raise WatermarkKeyError(
            f"wide watermark key must fit {2 * SBOX_WIDTH} bits, got {kw}"
        )
    kw_lo = kw & mask(SBOX_WIDTH)
    kw_hi = (kw >> SBOX_WIDTH) & mask(SBOX_WIDTH)

    key_lo = netlist.wire(f"{prefix}_kw_lo", SBOX_WIDTH)
    key_hi = netlist.wire(f"{prefix}_kw_hi", SBOX_WIDTH)
    addr1 = netlist.wire(f"{prefix}_addr1", SBOX_WIDTH)
    data1 = netlist.wire(f"{prefix}_data1", SBOX_WIDTH)
    addr2 = netlist.wire(f"{prefix}_addr2", SBOX_WIDTH)
    data2 = netlist.wire(f"{prefix}_data2", SBOX_WIDTH)
    h_out = netlist.wire(f"{prefix}_h", SBOX_WIDTH)

    netlist.add(Constant(f"{prefix}_key_lo", key_lo, kw_lo))
    netlist.add(Constant(f"{prefix}_key_hi", key_hi, kw_hi))
    netlist.add(XorArray(f"{prefix}_xor1", state, key_lo, addr1))
    netlist.add(SyncROM(f"{prefix}_sbox1", addr1, data1, list(SBOX)))
    netlist.add(XorArray(f"{prefix}_xor2", data1, key_hi, addr2))
    netlist.add(SyncROM(f"{prefix}_sbox2", addr2, data2, list(SBOX)))
    h_register = DRegister(f"{prefix}_hreg", data2, h_out)
    netlist.add(h_register)
    netlist.add(OutputPort(f"{prefix}_pads", h_out))
    return h_register


def leakage_sequence(state_codes, kw: int, width: int = SBOX_WIDTH):
    """Software model: the H values produced by a state-code sequence.

    ``H(t) = SBox[fold(state(t-1)) ^ Kw]`` (one register delay).  Useful
    for functional cross-checks against the netlist simulation.
    """
    if not 0 <= kw <= mask(SBOX_WIDTH):
        raise WatermarkKeyError(f"watermark key out of range: {kw}")
    values = []
    for code in state_codes:
        folded = fold_to_sbox_width(code, width)
        values.append(SBOX[folded ^ kw])
    return values


@dataclass
class WatermarkedIP:
    """A complete watermarked IP: netlist + metadata.

    ``state_register`` is the FSM's state register and ``h_register``
    the leakage component's output register; both are inside
    ``netlist``.  ``kw`` is the embedded watermark key.
    """

    name: str
    netlist: Netlist
    state_register: DRegister
    kw: Optional[int]
    fsm_kind: str
    h_register: Optional[DRegister] = None
    description: str = field(default="")

    @property
    def is_watermarked(self) -> bool:
        return self.h_register is not None

    def __repr__(self) -> str:
        mark = f"Kw={self.kw:#04x}" if self.is_watermarked else "unmarked"
        return f"WatermarkedIP({self.name!r}, {self.fsm_kind}, {mark})"
