"""The four IPs of the paper's experiment (Section IV.A, Fig. 3).

| IP   | FSM                  | watermark key |
|------|----------------------|---------------|
| IP_A | 8-bit binary counter | Kw1           |
| IP_B | 8-bit Gray counter   | Kw1           |
| IP_C | 8-bit Gray counter   | Kw2           |
| IP_D | 8-bit Gray counter   | Kw3           |

IP_A vs IP_B proves different FSMs with the *same* key are told apart;
IP_B vs IP_C vs IP_D proves the same FSM with *different* keys does not
collide.  Each IP is implemented twice: once as a reference device
(RefD) and once as a device under test (DUT#1..#4) on a different
"die" (independent process-variation draw), mirroring the paper's
eight Cyclone III FPGAs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.acquisition.device import Device
from repro.fsm.counters import build_binary_counter, build_gray_counter, build_lfsr
from repro.fsm.watermark import WatermarkedIP, attach_leakage_component
from repro.hdl.combinational import LookupLogic
from repro.hdl.io import InputPort
from repro.hdl.netlist import Netlist
from repro.hdl.verilog_parse import parse_verilog_file
from repro.hdl.wires import Wire, mask
from repro.power.models import PowerModel
from repro.power.supply import WaveformConfig
from repro.power.variation import DeviceVariation, VariationModel

#: The watermark keys.  The paper picks Kw1 randomly; these are fixed
#: arbitrary byte values so every run of the reproduction is identical.
KW1 = 0x5A
KW2 = 0xC3
KW3 = 0x2F
#: A fourth key for imported-design fleets (all four device slots carry
#: the *same* third-party circuit, so distinguishability rests entirely
#: on the keys — the paper's IP_B/C/D same-FSM case, generalised).
KW4 = 0x71

#: FSM width used throughout the paper's experiment.
COUNTER_WIDTH = 8

#: One full period of an 8-bit counter — the paper measures complete
#: state-sequence periods.
PERIOD_CYCLES = 1 << COUNTER_WIDTH

#: IP name -> (fsm kind, watermark key).
IP_SPECS: Dict[str, Tuple[str, int]] = {
    "IP_A": ("binary", KW1),
    "IP_B": ("gray", KW1),
    "IP_C": ("gray", KW2),
    "IP_D": ("gray", KW3),
}

#: The paper's designs in presentation order — the canonical iteration
#: set for equivalence tests and benchmarks over every design.
PAPER_IP_NAMES: Tuple[str, ...] = tuple(IP_SPECS)

#: Keys for the four device slots of an ``imported:<path>`` fleet.
IMPORTED_KEYS: Dict[str, int] = {
    "IP_A": KW1,
    "IP_B": KW2,
    "IP_C": KW3,
    "IP_D": KW4,
}

#: Maximal-length taps for the 8-bit exerciser LFSRs (period 255).
EXERCISER_TAPS: Tuple[int, ...] = (7, 5, 4, 3)
EXERCISER_WIDTH = 8

#: DUT#y contains the same IP as the matching RefD (paper Section IV).
DUT_CONTENTS: Dict[str, str] = {
    "DUT#1": "IP_A",
    "DUT#2": "IP_B",
    "DUT#3": "IP_C",
    "DUT#4": "IP_D",
}

#: RefD -> the DUT that contains its IP (ground truth of the experiment).
EXPECTED_MATCHES: Dict[str, str] = {ip: dut for dut, ip in DUT_CONTENTS.items()}


def build_ip(
    name: str,
    fsm_kind: str,
    kw: Optional[int],
    width: int = COUNTER_WIDTH,
) -> WatermarkedIP:
    """Construct one watermarked IP netlist.

    ``kw=None`` builds the unwatermarked variant (no leakage
    component) used by the E9 ablation.
    """
    netlist = Netlist(name)
    if fsm_kind == "binary":
        state_register = build_binary_counter(netlist, width)
    elif fsm_kind == "gray":
        state_register = build_gray_counter(netlist, width)
    else:
        raise ValueError(f"unknown FSM kind {fsm_kind!r}")
    state_wire = netlist.wires["ctr_state"]
    h_register = None
    if kw is not None:
        h_register = attach_leakage_component(netlist, state_wire, kw)
    netlist.validate()
    return WatermarkedIP(
        name=name,
        netlist=netlist,
        state_register=state_register,
        kw=kw,
        fsm_kind=fsm_kind,
        h_register=h_register,
        description=f"{width}-bit {fsm_kind} counter"
        + (f" + leakage component (Kw={kw:#04x})" if kw is not None else ""),
    )


def build_paper_ip(ip_name: str, watermarked: bool = True) -> WatermarkedIP:
    """Build IP_A / IP_B / IP_C / IP_D per the paper's Fig. 3."""
    if ip_name not in IP_SPECS:
        raise KeyError(f"unknown IP {ip_name!r}; choose from {sorted(IP_SPECS)}")
    fsm_kind, kw = IP_SPECS[ip_name]
    return build_ip(ip_name, fsm_kind, kw if watermarked else None)


def resolve_imported_design(design: str) -> Path:
    """Resolve an ``imported:<path>`` design spec to a Verilog file.

    ``<path>`` is tried as given (absolute or cwd-relative), then
    relative to the repository root — so the vendored corpus is
    addressable as ``imported:benchmarks/netlists/c17.v`` from
    anywhere.
    """
    kind, _, path_text = design.partition(":")
    if kind != "imported" or not path_text:
        raise ValueError(
            f"unknown design {design!r}; expected 'paper' or 'imported:<path>'"
        )
    candidate = Path(path_text)
    if candidate.is_file():
        return candidate
    repo_root = Path(__file__).resolve().parents[3]
    fallback = repo_root / path_text
    if fallback.is_file():
        return fallback
    raise FileNotFoundError(
        f"imported design {path_text!r} not found (tried {candidate} and {fallback})"
    )


def _attach_input_exercisers(netlist: Netlist, prefix: str = "stim") -> Wire:
    """Replace a parsed design's input pads with on-chip stimulus logic.

    Imported third-party circuits arrive with :class:`InputPort` pads
    whose stimulus is an opaque Python callable — which disables the
    engine's structural fingerprint and with it the fleet activity
    cache and batch axis.  Campaign workloads instead drive every input
    from free-running 8-bit maximal LFSRs (period 255) through pure
    bit-extract logic: fully tabulatable, so the whole design stays
    fingerprintable, batchable and vectorisable.

    Single-bit inputs share one LFSR per group of eight; wider inputs
    get a dedicated LFSR.  Returns the first LFSR's state wire — an
    8-bit, key-hookable state the watermark leakage component attaches
    to (a design with no inputs still gets that one LFSR).
    """
    ports = [c for c in netlist.components if isinstance(c, InputPort)]
    for port in ports:
        netlist.remove(port.name)

    single_bits = [p.target for p in ports if p.target.width == 1]
    wide = [p.target for p in ports if p.target.width > 1]
    state_wire: Optional[Wire] = None
    group = 0

    def add_lfsr() -> Wire:
        nonlocal group
        seed = (0x9D * (group + 1)) & 0xFF or 0x5A
        register = build_lfsr(
            netlist,
            EXERCISER_WIDTH,
            EXERCISER_TAPS,
            seed=seed,
            prefix=f"{prefix}{group}",
        )
        group += 1
        return register.q

    for start in range(0, len(single_bits), EXERCISER_WIDTH):
        chunk = single_bits[start : start + EXERCISER_WIDTH]
        state = add_lfsr()
        if state_wire is None:
            state_wire = state
        for bit, target in enumerate(chunk):
            netlist.add(
                LookupLogic(
                    f"{state.name}_tap{bit}",
                    (state,),
                    target,
                    lambda value, b=bit: (value >> b) & 1,
                    glitch_factor=0.0,
                )
            )
    for target in wide:
        state = add_lfsr()
        if state_wire is None:
            state_wire = state
        netlist.add(
            LookupLogic(
                f"{state.name}_bus",
                (state,),
                target,
                lambda value, m=mask(min(target.width, EXERCISER_WIDTH)): value & m,
                glitch_factor=0.0,
            )
        )
    if state_wire is None:
        state_wire = add_lfsr()
    return state_wire


def build_imported_ip(
    path, ip_name: str, kw: Optional[int], name: Optional[str] = None
) -> WatermarkedIP:
    """Parse a third-party circuit and watermark it like a paper IP.

    The file is parsed fresh (each device owns a private netlist), its
    input pads are swapped for LFSR exercisers, and — unless
    ``kw=None`` — the leakage component is attached to the first
    exerciser's 8-bit state.
    """
    path = Path(path)
    netlist = parse_verilog_file(path, name=name or ip_name)
    state_wire = _attach_input_exercisers(netlist)
    state_register = netlist.component(f"{state_wire.name[: -len('_state')]}_reg")
    h_register = None
    if kw is not None:
        h_register = attach_leakage_component(netlist, state_wire, kw)
    netlist.validate()
    return WatermarkedIP(
        name=ip_name,
        netlist=netlist,
        state_register=state_register,
        kw=kw,
        fsm_kind="imported",
        h_register=h_register,
        description=f"imported {path.name} ({len(netlist.components)} components)"
        + (f" + leakage component (Kw={kw:#04x})" if kw is not None else ""),
    )


def _ip_builder(
    design: str, watermarked: bool
) -> Callable[[str], WatermarkedIP]:
    """The per-slot IP factory for a fleet: paper designs or an import."""
    if design == "paper":
        return lambda ip_name: build_paper_ip(ip_name, watermarked=watermarked)
    path = resolve_imported_design(design)
    return lambda ip_name: build_imported_ip(
        path, ip_name, IMPORTED_KEYS[ip_name] if watermarked else None
    )


def build_device_fleet(
    power_model: Optional[PowerModel] = None,
    variation_model: Optional[VariationModel] = None,
    waveform: Optional[WaveformConfig] = None,
    seed: int = 2014,
    watermarked: bool = True,
    engine: str = "auto",
    design: str = "paper",
) -> Tuple[Dict[str, Device], Dict[str, Device]]:
    """Manufacture the eight devices of the paper's experiment.

    Returns ``(refds, duts)``: four reference devices named after their
    IPs and four DUTs named ``DUT#1..4``.  Every device gets a fresh
    netlist and an independent process-variation draw (pass
    ``variation_model=None`` for the no-variation ablation).
    ``engine`` pins the simulation path of every device (see
    :class:`~repro.hdl.simulator.Simulator`).

    ``design`` selects the workload: ``"paper"`` builds the four
    hand-built counter IPs of Fig. 3; ``"imported:<path>"`` parses a
    structural Verilog circuit (e.g. the vendored corpus under
    ``benchmarks/netlists/``) and fills all four IP slots with it,
    watermarked under four distinct keys (:data:`IMPORTED_KEYS`) — the
    paper's same-FSM/different-key distinguishability case on
    third-party silicon.  Device and IP *names* stay the paper's, so
    campaigns, reports and sweeps work unchanged.

    Although each device owns a private netlist, the RefD and DUT built
    from the same IP are structurally identical, so the fleet-level
    activity cache (see :mod:`repro.acquisition.device`) simulates each
    of the four distinct netlists exactly once.
    """
    model = power_model if power_model is not None else PowerModel()
    rng = np.random.default_rng(seed)
    build = _ip_builder(design, watermarked)

    def manufacture(device_name: str, ip_name: str) -> Device:
        ip = build(ip_name)
        # Re-label the netlist copy with the physical device name.
        ip.netlist.name = device_name
        if variation_model is None:
            variation = DeviceVariation.nominal()
        else:
            component_names = [c.name for c in ip.netlist.components]
            variation = variation_model.sample(component_names, rng)
        return Device(
            name=device_name,
            ip=ip,
            power_model=model,
            variation=variation,
            waveform=waveform,
            default_cycles=PERIOD_CYCLES,
            engine=engine,
        )

    refds = {name: manufacture(name, name) for name in IP_SPECS}
    duts = {
        dut_name: manufacture(dut_name, ip_name)
        for dut_name, ip_name in DUT_CONTENTS.items()
    }
    return refds, duts
