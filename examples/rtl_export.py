"""Exporting a watermarked IP to synthesisable Verilog and VCD.

The simulated substrate is a means, not the end: a real deployment of
the paper's scheme puts the watermarked netlist on an FPGA.  This
example builds IP_B (Gray counter + leakage component with Kw1),
writes a synthesisable Verilog module, and dumps a VCD waveform of the
first FSM period for inspection in GTKWave.

Run with::

    python examples/rtl_export.py [output_dir]

Without an argument the files go to a temporary directory that is
removed when the example ends, so running it leaves nothing behind
(pass an explicit directory — e.g. ``rtl_out`` — to keep the files).
The exported module round-trips: ``repro.hdl.verilog_parse`` reads it
back into a bit-identical netlist (see ``tests/test_verilog_parse.py``).
"""

import os
import sys
import tempfile

from repro.experiments.designs import build_paper_ip
from repro.hdl.vcd import write_vcd
from repro.hdl.verilog import export_testbench, export_verilog


def main() -> None:
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        export(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory(prefix="rtl_export_") as output_dir:
            export(output_dir)


def export(output_dir: str) -> None:
    ip = build_paper_ip("IP_B")
    verilog_path = os.path.join(output_dir, "ip_b.v")
    testbench_path = os.path.join(output_dir, "ip_b_tb.v")
    vcd_path = os.path.join(output_dir, "ip_b.vcd")

    verilog = export_verilog(ip.netlist, module_name="ip_b_watermarked")
    with open(verilog_path, "w", encoding="ascii") as handle:
        handle.write(verilog)
    testbench = export_testbench(
        ip.netlist, module_name="ip_b_watermarked", cycles=256
    )
    with open(testbench_path, "w", encoding="ascii") as handle:
        handle.write(testbench)

    write_vcd(
        ip.netlist,
        cycles=256,
        path=vcd_path,
        wire_names=["ctr_state", "wm_addr", "wm_sbox_data", "wm_h"],
    )

    print(f"wrote {verilog_path} ({len(verilog.splitlines())} lines of Verilog)")
    print(f"wrote {testbench_path} (smoke testbench, dumps its own VCD)")
    print(f"wrote {vcd_path} (one full FSM period, 4 signals)")
    print()
    print("Verilog module interface:")
    for line in verilog.splitlines():
        if line.startswith("module") or "input " in line or "output " in line:
            print(f"  {line.strip().rstrip(',')}")
        if line == ");":
            break
    print()
    print(
        "The SBox is emitted as a case-table ROM and the watermark key "
        f"Kw=0x{ip.kw:02X} as a constant — synthesis will map them to "
        "block RAM and LUTs exactly as in the paper's Cyclone III flow."
    )


if __name__ == "__main__":
    main()
