"""Primitive FPGA cost building blocks.

Costs follow Xilinx 7-series (the Zedboard's Zynq-7000) rules of thumb:

* a register costs one flip-flop per bit;
* a 2-input logic function of up to 6 inputs packs into one LUT6 — an
  n-bit XOR/AND/MUX2 array costs ~n LUTs (often less after packing, so a
  packing efficiency factor is applied);
* an n-bit ripple-carry adder costs ~n LUTs (carry chains are free);
* an n-bit equality comparator tree costs ~n/3 LUTs (3 pairs per LUT6
  feed the carry chain).

These are estimates, not synthesis results; the model's output is
validated against the *shape* of Table II (single-digit percent deltas),
and the ablation bench sweeps the efficiency factor to show the
conclusion is robust.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class AreaEstimate:
    """LUT/FF cost of a hardware unit."""

    luts: int
    ffs: int

    def __add__(self, other: "AreaEstimate") -> "AreaEstimate":
        return AreaEstimate(self.luts + other.luts, self.ffs + other.ffs)

    def scaled(self, factor: float) -> "AreaEstimate":
        return AreaEstimate(round(self.luts * factor),
                            round(self.ffs * factor))


@dataclass(frozen=True)
class Primitives:
    """Primitive cost table with a LUT packing-efficiency knob."""

    #: fraction of naive LUT count that survives packing/optimization
    packing_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if not 0.1 <= self.packing_efficiency <= 1.0:
            raise ConfigError("packing_efficiency must be in [0.1, 1.0]")

    def _luts(self, naive: float) -> int:
        return max(1, round(naive * self.packing_efficiency))

    def register(self, bits: int) -> AreaEstimate:
        """Plain storage register."""
        return AreaEstimate(0, bits)

    def xor_array(self, bits: int) -> AreaEstimate:
        """Bitwise XOR of two buses (the decryption datapath)."""
        return AreaEstimate(self._luts(bits / 2), 0)

    def and_or_array(self, bits: int) -> AreaEstimate:
        return AreaEstimate(self._luts(bits / 2), 0)

    def adder(self, bits: int) -> AreaEstimate:
        return AreaEstimate(self._luts(bits), 0)

    def mux2(self, bits: int) -> AreaEstimate:
        return AreaEstimate(self._luts(bits / 2), 0)

    def comparator(self, bits: int) -> AreaEstimate:
        return AreaEstimate(self._luts(bits / 3), 0)

    def counter(self, bits: int) -> AreaEstimate:
        return AreaEstimate(self._luts(bits), bits)

    def fsm(self, states: int, outputs: int = 8) -> AreaEstimate:
        """Small control FSM: one-hot state register + next-state logic."""
        return AreaEstimate(self._luts(states + outputs), states)

    def shift_register_srl(self, bits: int) -> AreaEstimate:
        """Deep shift register mapped to SRL32 LUTs (7-series): 32 bits of
        shift state per LUT, no flip-flops.  This is how small SHA cores
        hold the 16-word message schedule."""
        return AreaEstimate(max(1, (bits + 31) // 32), 0)

    def lutram(self, bits: int) -> AreaEstimate:
        """Distributed RAM (RAM64X1S): 64 bits per LUT, no flip-flops."""
        return AreaEstimate(max(1, (bits + 63) // 64), 0)
