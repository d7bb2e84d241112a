"""Watermarking an arbitrary FSM — "any digital system which possesses
a FSM" (paper Section II).

The paper evaluates on counters (the worst case), but the method is
FSM-generic.  This example defines a small protocol-controller Moore
machine (an idealised packet receiver), synthesises it to a netlist
with the library's FSM builder, attaches the leakage component with
two different keys, and shows the verification separates them.

Run with::

    python examples/custom_fsm_watermarking.py
"""

import numpy as np

from repro import (
    Device,
    MeasurementBench,
    PowerModel,
    ProcessParameters,
    WatermarkVerifier,
)
from repro.fsm.builder import build_fsm
from repro.fsm.machine import MooreMachine
from repro.fsm.properties import linearity_score, period, verification_sequence_length
from repro.fsm.watermark import WatermarkedIP, attach_leakage_component
from repro.hdl.netlist import Netlist


def packet_receiver() -> MooreMachine:
    """IDLE -> SYNC -> HEADER -> PAYLOAD x4 -> CRC -> ACK -> IDLE."""
    states = [
        "idle", "sync", "header",
        "payload0", "payload1", "payload2", "payload3",
        "crc", "ack",
    ]
    order = {state: states[(i + 1) % len(states)] for i, state in enumerate(states)}
    return MooreMachine(states, order, "idle")


def build_device(name: str, kw: int, seed: int) -> Device:
    machine = packet_receiver()
    netlist = Netlist(name)
    register = build_fsm(netlist, machine)
    h_register = attach_leakage_component(netlist, netlist.wires["fsm_state"], kw)
    ip = WatermarkedIP(
        name=name,
        netlist=netlist,
        state_register=register,
        kw=kw,
        fsm_kind="packet-receiver",
        h_register=h_register,
    )
    # Measure a whole number of FSM periods (paper Section IV.A: the
    # state sequence must be longer than the FSM's periodicity).
    cycles = 28 * verification_sequence_length(machine)
    return Device(name, ip, PowerModel(), default_cycles=cycles)


def main() -> None:
    machine = packet_receiver()
    print(f"packet receiver FSM: {machine.n_states} states")
    print(f"period: {period(machine)} cycles")
    codes = [i for i in range(machine.n_states)] * 2
    print(f"linearity score of its binary coding: {linearity_score(codes):.2f}")
    print(
        f"minimum verification sequence: "
        f"{verification_sequence_length(machine)} cycles\n"
    )

    refd = build_device("RefD(Kw=0x3C)", kw=0x3C, seed=0)
    genuine = build_device("DUT-licensed", kw=0x3C, seed=1)
    forged = build_device("DUT-forged-key", kw=0xA7, seed=2)

    parameters = ProcessParameters(k=50, m=20, n1=400, n2=10_000)
    bench = MeasurementBench(seed=21)
    t_ref = bench.measure(refd, parameters.n1)
    t_duts = {
        device.name: bench.measure(device, parameters.n2)
        for device in (genuine, forged)
    }

    verifier = WatermarkVerifier(parameters)
    report = verifier.identify(t_ref, t_duts, rng=9)
    for name, result in report.results.items():
        print(f"{name:>16}: mean rho = {result.mean:+.3f}  v(C) = {result.variance:.2e}")
    for verdict in report.verdicts:
        print(
            f"[{verdict.distinguisher:>14}] -> {verdict.chosen_dut} "
            f"({verdict.confidence_percent:.1f}%)"
        )
    assert all(v.chosen_dut == "DUT-licensed" for v in report.verdicts)
    print("\nThe licensed device is identified; the forged key does not collide.")


if __name__ == "__main__":
    main()
