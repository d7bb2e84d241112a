"""Watermark-removal attacks.

The paper argues FSM-level watermarks are "difficult to remove without
damaging the functionality of the IP".  For the leakage component the
realistic removal attack is *stripping*: an adversary who fully
reverse-engineers the netlist deletes every component of the leakage
chain and re-fabricates.  This module implements that adversary so the
defence experiments can measure what detection looks like after it:

* a stripped clone keeps the FSM (functionality preserved) but loses
  the keyed signature — it drops out of the matching cluster and is
  caught by counterfeit screening (the E9/Robustness benches);
* partial stripping (removing only the output pads, the cheapest
  "quieting" attack) attenuates but does not remove the keyed power,
  because the RAM and the H register still switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from repro.fsm.watermark import WatermarkedIP
from repro.hdl.netlist import Netlist


@dataclass(frozen=True)
class RemovalReport:
    """What the adversary managed to delete."""

    removed_components: List[str]
    removed_wires: List[str]

    @property
    def n_removed(self) -> int:
        return len(self.removed_components)


def _leakage_component_names(netlist: Netlist, prefix: str) -> Set[str]:
    return {
        component.name
        for component in netlist.components
        if component.name.startswith(f"{prefix}_")
    }


def strip_watermark(
    ip: WatermarkedIP,
    prefix: str = "wm",
    keep: Optional[Iterable[str]] = None,
) -> RemovalReport:
    """Remove the leakage component from a watermarked IP, in place.

    ``keep`` lists component names the adversary leaves in (e.g. keep
    everything except the pads for the partial attack).  The FSM is
    untouched; the netlist is revalidated afterwards, modelling a
    competent reverse engineer.
    """
    netlist = ip.netlist
    to_remove = _leakage_component_names(netlist, prefix)
    if keep is not None:
        to_remove -= set(keep)
    if not to_remove:
        return RemovalReport(removed_components=[], removed_wires=[])

    removed_components = sorted(to_remove)
    survivors = [c for c in netlist.components if c.name not in to_remove]

    # Wires driven or solely read by removed components become dead.
    used_wires = set()
    for component in survivors:
        for wire in list(component.input_wires) + list(component.output_wires):
            used_wires.add(wire.name)
    dead_wires = [
        name
        for name in list(netlist.wires)
        if name.startswith(f"{prefix}_") and name not in used_wires
    ]

    netlist.components = survivors
    netlist._component_names = {c.name: c for c in survivors}
    netlist._comb_order = None
    for name in dead_wires:
        del netlist.wires[name]

    if ip.h_register is not None and ip.h_register.name in to_remove:
        ip.h_register = None
        ip.kw = None
    netlist.validate()
    return RemovalReport(
        removed_components=removed_components, removed_wires=sorted(dead_wires)
    )


def strip_output_pads_only(ip: WatermarkedIP, prefix: str = "wm") -> RemovalReport:
    """The cheap attack: disconnect only the output pads.

    Leaves the XOR array, the SBox RAM and the H register switching —
    the keyed power is attenuated, not removed.
    """
    netlist = ip.netlist
    all_wm = _leakage_component_names(netlist, prefix)
    keep = {name for name in all_wm if not name.endswith("_pads")}
    return strip_watermark(ip, prefix=prefix, keep=keep)


#: Named DUT netlist transforms — the values of a campaign config's
#: ``attack`` field, which a sweep sets as its ``attack`` axis — so
#: every consumer (scenario runner, campaign runner, artifact cache)
#: resolves the same name to the same tampering.  ``None`` means no
#: tampering; the callables mutate a
#: :class:`~repro.fsm.watermark.WatermarkedIP` in place.
FLEET_TRANSFORMS = {
    "none": None,
    "strip": strip_watermark,
    "strip_pads": strip_output_pads_only,
}


def apply_fleet_transform(duts, name: str) -> None:
    """Apply one named transform to every DUT's IP, in place.

    ``duts`` maps device names to objects exposing an ``ip`` attribute
    (see :class:`~repro.acquisition.device.Device`).  Unknown names
    raise ``KeyError`` so a typo fails loudly.
    """
    try:
        transform = FLEET_TRANSFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r}; choose from {sorted(FLEET_TRANSFORMS)}"
        ) from None
    if transform is None:
        return
    for device in duts.values():
        transform(device.ip)
