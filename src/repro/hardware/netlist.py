"""Tiny combinational-netlist model used for area/delay evaluation.

The hardware cost analysis of Table 1 only needs two figures per module:
total cell area and critical-path delay.  :class:`Netlist` therefore models
a combinational circuit as a DAG of standard-cell instances over a
:class:`~repro.hardware.technology.TechnologyLibrary`; the area is the sum
of the instance areas and the critical path is the longest weighted path
from any primary input to any node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .technology import TechnologyLibrary

__all__ = ["Netlist", "NetlistReport"]


@dataclass(frozen=True)
class NetlistReport:
    """Summary figures of one netlist."""

    name: str
    area_um2: float
    critical_path_ns: float
    gate_count: int
    logic_depth: int
    cell_histogram: Dict[str, int]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "area_um2": round(self.area_um2, 1),
            "critical_path_ns": round(self.critical_path_ns, 3),
            "gate_count": self.gate_count,
            "logic_depth": self.logic_depth,
            "cells": dict(self.cell_histogram),
        }


class Netlist:
    """A combinational circuit built from standard cells."""

    def __init__(self, name: str, library: TechnologyLibrary) -> None:
        self.name = name
        self.library = library
        #: Node -> (cell, delay ns, area um2), cell ``None`` for a primary
        #: input.  A gate only reads nodes that already exist, so insertion
        #: order is a topological order.
        self._nodes: Dict[str, Tuple[Optional[str], float, float]] = {}
        #: Node -> the nodes driving it.
        self._inputs: Dict[str, Tuple[str, ...]] = {}
        self._gate_counter = 0
        self.outputs: List[str] = []

    # ------------------------------------------------------------- building

    def add_input(self, name: str) -> str:
        """Declare a primary input."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        self._nodes[name] = (None, 0.0, 0.0)
        self._inputs[name] = ()
        return name

    def add_inputs(self, prefix: str, count: int) -> List[str]:
        """Declare ``count`` primary inputs named ``prefix[i]``."""
        return [self.add_input(f"{prefix}[{i}]") for i in range(count)]

    def add_gate(self, cell: str, inputs: Sequence[str], name: Optional[str] = None) -> str:
        """Instantiate a cell driven by ``inputs``; returns the output node."""
        cell_info = self.library.cell(cell)
        if name is None:
            name = f"{cell.lower()}_{self._gate_counter}"
            self._gate_counter += 1
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        for source in inputs:
            if source not in self._nodes:
                raise ValueError(f"gate {name!r} references unknown node {source!r}")
        delay = cell_info.delay_ns * self.library.wire_delay_factor
        self._nodes[name] = (cell, delay, cell_info.area_um2)
        self._inputs[name] = tuple(inputs)
        return name

    def xor_tree(self, inputs: Sequence[str], name_prefix: str = "xt") -> str:
        """Reduce ``inputs`` with a balanced tree of 2-input XOR gates."""
        nodes = list(inputs)
        if not nodes:
            raise ValueError("xor_tree needs at least one input")
        level = 0
        while len(nodes) > 1:
            next_nodes = []
            for position in range(0, len(nodes) - 1, 2):
                next_nodes.append(
                    self.add_gate(
                        "XOR2",
                        [nodes[position], nodes[position + 1]],
                        name=f"{name_prefix}_{level}_{position // 2}_{self._bump()}",
                    )
                )
            if len(nodes) % 2:
                next_nodes.append(nodes[-1])
            nodes = next_nodes
            level += 1
        return nodes[0]

    def mark_output(self, node: str) -> None:
        """Record ``node`` as a primary output (informational)."""
        if node not in self._nodes:
            raise ValueError(f"unknown node {node!r}")
        self.outputs.append(node)

    def _bump(self) -> int:
        self._gate_counter += 1
        return self._gate_counter

    # ------------------------------------------------------------- analysis

    def area_um2(self) -> float:
        """Total cell area."""
        return float(sum(area for _, _, area in self._nodes.values()))

    def gate_count(self) -> int:
        """Number of cell instances."""
        return sum(1 for cell, _, _ in self._nodes.values() if cell is not None)

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per cell type."""
        counter: Counter = Counter(
            cell for cell, _, _ in self._nodes.values() if cell is not None
        )
        return dict(counter)

    def arrival_times(self) -> Dict[str, float]:
        """Arrival time (ns) at the output of every node."""
        arrivals: Dict[str, float] = {}
        for node, (_, delay, _) in self._nodes.items():
            incoming = [arrivals[p] for p in self._inputs[node]]
            arrivals[node] = (max(incoming) if incoming else 0.0) + delay
        return arrivals

    def critical_path_ns(self) -> float:
        """Longest input-to-output delay."""
        arrivals = self.arrival_times()
        return max(arrivals.values()) if arrivals else 0.0

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        depths: Dict[str, int] = {}
        for node, (cell, _, _) in self._nodes.items():
            incoming = [depths[p] for p in self._inputs[node]]
            own = 0 if cell is None else 1
            depths[node] = (max(incoming) if incoming else 0) + own
        return max(depths.values()) if depths else 0

    def report(self) -> NetlistReport:
        """Produce the summary used by the Table 1 driver."""
        return NetlistReport(
            name=self.name,
            area_um2=self.area_um2(),
            critical_path_ns=self.critical_path_ns(),
            gate_count=self.gate_count(),
            logic_depth=self.logic_depth(),
            cell_histogram=self.cell_histogram(),
        )
