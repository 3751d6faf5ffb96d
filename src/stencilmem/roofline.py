"""Machine model and Roofline performance bounds.

The machine model carries per-core peak compute, per-NUMA-domain memory
bandwidth (with a linear saturation ramp), the cache hierarchy, and the
phenomenological write-allocate-evasion factors of the hardware. The
Roofline bound for a loop of intensity I on c cores is
min(c * peak_per_core, I * effective_bandwidth(c)); c is capped at the
node's cores, as one node is modelled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .balance import USABLE_CACHE_SHARE, BalanceScenario
from .kernels import GridSpec, KernelSpec, iteration_count


@dataclass(frozen=True)
class MachineModel:
    name: str
    peak_flops_per_core: float      # flops/s, per core
    mem_bw_per_domain: float        # bytes/s, saturated, per ccNUMA domain
    cores_per_domain: int
    domains_per_node: int
    saturating_cores: int           # cores per domain needed to reach full bandwidth
    cores_per_socket: int           # ties the shared L3 to a core count
    cache_l1: int                   # bytes, per core
    cache_l2: int                   # bytes, per core
    cache_l3: int                   # bytes, shared per socket
    speci2m_factor: float = 1.2     # residual store ratio of hardware WA evasion
    nt_factor: float = 1.17         # residual store ratio of non-temporal stores
    speci2m_activation_cores: int = 3   # cores per domain before evasion kicks in

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, not {value!r}")
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
            if f.type == "float" and (type(value) not in (int, float)
                                      or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, not {value!r}")
        positive = (self.peak_flops_per_core, self.mem_bw_per_domain,
                    self.cores_per_domain, self.domains_per_node,
                    self.saturating_cores, self.cores_per_socket,
                    self.cache_l1, self.cache_l2, self.cache_l3)
        if any(v <= 0 for v in positive):
            raise ValueError("machine parameters must be positive")
        if self.saturating_cores > self.cores_per_domain:
            raise ValueError("saturating_cores cannot exceed cores_per_domain")
        # the store ratios of balance.WaPolicy
        for name in ("speci2m_factor", "nt_factor"):
            if not 1.0 <= getattr(self, name) <= 2.0:
                raise ValueError(f"{name} must lie in [1.0, 2.0], "
                                 f"not {getattr(self, name)!r}")
        if self.speci2m_activation_cores < 1:
            raise ValueError(f"speci2m_activation_cores must be >= 1, "
                             f"not {self.speci2m_activation_cores!r}")

    @property
    def cores_per_node(self) -> int:
        return self.cores_per_domain * self.domains_per_node

    def effective_cache_per_process(self, processes):
        """Usable cache bytes per process for layer-condition checks.

        Heuristic: each process owns its private L2 plus an equal share of
        the L3 of the sockets in use, and only ``USABLE_CACHE_SHARE`` of
        that aggregate is assumed usable for row reuse. `processes` is an
        int, giving a float, or an integer array, giving an array of the
        same floats bit for bit. The bytes are summed in floats, which an
        int64 column cannot overflow and which are exact below 2**53.
        """
        if np.any(np.less(processes, 1)):
            raise ValueError("processes must be >= 1")
        sockets = -(-processes // self.cores_per_socket)
        aggregate = processes * float(self.cache_l2) + sockets * float(self.cache_l3)
        return aggregate / processes * USABLE_CACHE_SHARE

    def wa_evasion_active(self, cores: int) -> bool:
        """Whether the hardware store-evasion draws enough bandwidth to engage."""
        per_domain = min(cores, self.cores_per_domain)
        return per_domain >= self.speci2m_activation_cores


@dataclass(frozen=True)
class Prediction:
    performance: float              # flops/s
    bound: str                      # "memory" or "core"
    effective_bandwidth: float      # bytes/s
    runtime: float | None = None    # seconds, set by kernel_runtime


def effective_bandwidth(machine: MachineModel, cores: int) -> float:
    """Aggregate bandwidth of `cores` compact-pinned cores.

    Each touched domain delivers a linear ramp up to its saturated
    bandwidth; full domains contribute the saturated value.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    cores = min(cores, machine.cores_per_node)
    full, rest = divmod(cores, machine.cores_per_domain)
    bw = full * machine.mem_bw_per_domain
    if rest:
        bw += min(rest / machine.saturating_cores, 1.0) * machine.mem_bw_per_domain
    return bw


def _roofline(intensity: float, machine: MachineModel, cores: int):
    """(performance, bound, bandwidth) of the Roofline bound at `intensity`."""
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    bw = effective_bandwidth(machine, cores)
    p_core = min(cores, machine.cores_per_node) * machine.peak_flops_per_core
    p_mem = intensity * bw
    if p_mem <= p_core:
        return p_mem, "memory", bw
    return p_core, "core", bw


def roofline_predict(intensity: float, machine: MachineModel, cores: int) -> Prediction:
    """Upper performance bound for a loop of the given flops/byte intensity."""
    return Prediction(*_roofline(intensity, machine, cores))


def kernel_runtime(kernel: KernelSpec, grid: GridSpec, machine: MachineModel,
                   cores: int, scenario: BalanceScenario) -> Prediction:
    """Roofline runtime of one sweep of the kernel's loops over `grid` under a
    scenario; the bound is :func:`roofline_predict`'s at its intensity."""
    performance, bound, bw = _roofline(scenario.intensity, machine, cores)
    iterations = iteration_count(kernel, grid)
    if bound == "memory":
        runtime = iterations * scenario.bytes_per_it / bw
    else:
        runtime = iterations * kernel.flops_per_it / performance
    return Prediction(performance, bound, bw, runtime)


def load_machine(path: str | Path) -> MachineModel:
    """Load a machine-config JSON object; MachineModel checks its fields."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a machine config must be an object, "
                         f"not {type(doc).__name__}")
    doc.pop("comment", None)
    try:
        return MachineModel(**doc)
    except TypeError as exc:
        raise ValueError(f"{path}: bad machine config: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
