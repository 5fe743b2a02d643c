"""Compute-platform specifications (Table IV of the paper).

Every performance experiment in the evaluation is parameterised by one of
these platforms.  The figures are taken directly from Table IV; the two
model-only fields (kernel-launch overhead and cache bandwidth multiplier)
use typical values for the respective hardware generations and are part of
the calibration documented in :mod:`repro.perf.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComputePlatform:
    """Static description of a CPU or GPU compute platform.

    Attributes
    ----------
    name:
        Marketing name used in the paper's tables and figures.
    kind:
        ``"gpu"`` or ``"cpu"``.
    frequency_ghz:
        Core/SM clock.
    compute_units:
        CPU cores or GPU streaming multiprocessors.
    int32_tops:
        Peak 32-bit integer tera-operations per second (Table IV).
    private_cache_kb:
        Per-core/per-SM data cache.
    shared_cache_mb:
        Last-level cache (GPU L2 / CPU L3).
    dram_gb:
        Device/system memory capacity.
    bandwidth_gbps:
        Peak DRAM bandwidth in GB/s.
    launch_overhead_us:
        CPU-side cost of issuing one kernel (GPU) or one parallel region
        (CPU); not in Table IV, part of the execution model.
    cache_bandwidth_multiplier:
        How much faster the last-level cache is than DRAM; part of the
        execution model.
    threads_per_core:
        SMT factor (CPUs only).
    """

    name: str
    kind: str
    frequency_ghz: float
    compute_units: int
    int32_tops: float
    private_cache_kb: int
    shared_cache_mb: float
    dram_gb: int
    bandwidth_gbps: float
    launch_overhead_us: float = 3.0
    cache_bandwidth_multiplier: float = 4.0
    threads_per_core: int = 1

    @property
    def shared_cache_bytes(self) -> int:
        """Last-level cache capacity in bytes."""
        return int(self.shared_cache_mb * (1 << 20))

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Peak DRAM bandwidth in bytes per second."""
        return self.bandwidth_gbps * 1e9

    @property
    def int_ops_per_s(self) -> float:
        """Peak integer throughput in operations per second."""
        return self.int32_tops * 1e12


#: AMD Ryzen 9 7900 (12 cores, SMT, AVX-512), DDR5-5200.
CPU_RYZEN_9_7900 = ComputePlatform(
    name="Ryzen 9 7900",
    kind="cpu",
    frequency_ghz=3.70,
    compute_units=12,
    int32_tops=2.13,
    private_cache_kb=1056,
    shared_cache_mb=64,
    dram_gb=64,
    bandwidth_gbps=81.0,
    launch_overhead_us=0.5,
    cache_bandwidth_multiplier=6.0,
    threads_per_core=2,
)

#: NVIDIA GeForce RTX 4060 Ti (Ada, 34 SMs, 32 MB L2, 288 GB/s GDDR6).
GPU_RTX_4060TI = ComputePlatform(
    name="RTX 4060 Ti",
    kind="gpu",
    frequency_ghz=2.31,
    compute_units=34,
    int32_tops=11.03,
    private_cache_kb=128,
    shared_cache_mb=32,
    dram_gb=16,
    bandwidth_gbps=288.0,
    launch_overhead_us=3.0,
    cache_bandwidth_multiplier=5.0,
)

#: NVIDIA RTX A4500 (Ampere, 56 SMs, 6 MB L2, 640 GB/s GDDR6).
GPU_RTX_A4500 = ComputePlatform(
    name="RTX A4500",
    kind="gpu",
    frequency_ghz=1.05,
    compute_units=56,
    int32_tops=11.83,
    private_cache_kb=128,
    shared_cache_mb=6,
    dram_gb=20,
    bandwidth_gbps=640.0,
    launch_overhead_us=3.5,
    cache_bandwidth_multiplier=4.0,
)

#: NVIDIA V100 (Volta, 80 SMs, 6 MB L2, 897 GB/s HBM2).
GPU_V100 = ComputePlatform(
    name="V100",
    kind="gpu",
    frequency_ghz=1.25,
    compute_units=80,
    int32_tops=14.13,
    private_cache_kb=128,
    shared_cache_mb=6,
    dram_gb=16,
    bandwidth_gbps=897.0,
    launch_overhead_us=4.0,
    cache_bandwidth_multiplier=3.5,
)

#: NVIDIA GeForce RTX 4090 (Ada, 128 SMs, 72 MB L2, ~1 TB/s GDDR6X).
GPU_RTX_4090 = ComputePlatform(
    name="RTX 4090",
    kind="gpu",
    frequency_ghz=2.24,
    compute_units=128,
    int32_tops=41.29,
    private_cache_kb=128,
    shared_cache_mb=72,
    dram_gb=24,
    bandwidth_gbps=1008.0,
    launch_overhead_us=2.5,
    cache_bandwidth_multiplier=5.0,
)

#: The four GPUs of Table IV in ascending bandwidth order.
ALL_GPUS = (GPU_RTX_4060TI, GPU_RTX_A4500, GPU_V100, GPU_RTX_4090)

#: Every platform of Table IV.
ALL_PLATFORMS = (CPU_RYZEN_9_7900,) + ALL_GPUS

#: Lookup by the short names used in figures.
PLATFORMS_BY_NAME = {p.name: p for p in ALL_PLATFORMS}


def platform(name: str) -> ComputePlatform:
    """Look up a Table IV platform by its figure short name.

    Raises a descriptive ``KeyError`` naming every available platform when
    the name is unknown (a bare dict miss would only echo the bad key).
    """
    try:
        return PLATFORMS_BY_NAME[name]
    except KeyError:
        available = ", ".join(sorted(PLATFORMS_BY_NAME))
        raise KeyError(
            f"unknown compute platform {name!r}; available platforms: {available}"
        ) from None


def platform_table() -> list[dict]:
    """Return Table IV as a list of row dictionaries (used by the bench)."""
    rows = []
    for p in ALL_PLATFORMS:
        rows.append(
            {
                "Compute Platform": ("CPU: " if p.kind == "cpu" else "GPU: ") + p.name,
                "Frequency": f"{p.frequency_ghz:.2f} GHz",
                "CPU Cores or SMs": p.compute_units,
                "32b INT TOPS": p.int32_tops,
                "Private Data Cache": f"{p.private_cache_kb} KB",
                "Shared Cache": f"{p.shared_cache_mb:g} MB",
                "DRAM Size": f"{p.dram_gb} GB",
                "Bandwidth": f"{p.bandwidth_gbps:g} GB/s",
            }
        )
    return rows


__all__ = [
    "ComputePlatform",
    "CPU_RYZEN_9_7900",
    "GPU_RTX_4060TI",
    "GPU_RTX_A4500",
    "GPU_V100",
    "GPU_RTX_4090",
    "ALL_GPUS",
    "ALL_PLATFORMS",
    "PLATFORMS_BY_NAME",
    "platform",
    "platform_table",
]
