"""Calibrated hardware profiles for the paper's two testbeds.

Calibration notes
-----------------
* SHA-256 throughput: a modern x86-64 core hashes roughly 300-400 MB/s
  single-threaded with OpenSSL; the Cortex-A53 in the RPi 3B+ (no ARMv8
  crypto extensions enabled in the 2019-era Debian builds) manages around
  35-50 MB/s.
* ECDSA P-256 sign/verify: sub-millisecond on x86-64, a few milliseconds
  on the RPi — dominated by Fabric's Go crypto in practice.
* Chaincode invocation overhead: Fabric's chaincode runs in a separate
  Docker container; each invocation costs a few milliseconds of IPC and
  marshaling on desktop hardware and tens of milliseconds on the RPi
  (this is the dominant term in the paper's RPi latency numbers).
* Power: the paper reports an idle-with-HLF RPi at 2.71 W and a peak of
  3.64 W, only ~10.7 % above idle on average — the RPi power envelope is
  calibrated to land in that band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigurationError
from repro.network.link import LinkProfile, GIGABIT_LAN, RPI_LAN


@dataclass(frozen=True)
class HardwareProfile:
    """Static performance and power characteristics of one machine type."""

    name: str
    architecture: str
    cpu_model: str
    clock_ghz: float
    cores: int
    #: Relative single-core speed (Xeon E5-1603 = 1.0); scales fixed software costs.
    cpu_speed_factor: float
    #: SHA-256 hashing throughput, bytes per second (single core).
    hash_rate_bytes_per_s: float
    #: Time to produce one signature, seconds.
    sign_time_s: float
    #: Time to verify one signature, seconds.
    verify_time_s: float
    #: Fixed overhead per chaincode invocation (container IPC, marshaling), seconds.
    chaincode_invoke_overhead_s: float
    #: Per state read/write inside chaincode, seconds.
    state_op_time_s: float
    #: Sequential disk write throughput, bytes per second.
    disk_write_bytes_per_s: float
    #: Sequential disk read throughput, bytes per second.
    disk_read_bytes_per_s: float
    #: Network interface profile.
    nic: LinkProfile
    #: Idle power draw, watts (OS running, no HLF).
    idle_power_w: float
    #: Additional baseline draw with HLF containers running but idle, watts.
    hlf_baseline_power_w: float
    #: Power draw at 100 % CPU utilization, watts.
    max_power_w: float
    #: Relative run-to-run variance of service times (RPi shows more).
    variance_fraction: float = 0.05

    def validate(self) -> None:
        if self.cpu_speed_factor <= 0:
            raise ConfigurationError("cpu_speed_factor must be positive")
        if self.hash_rate_bytes_per_s <= 0:
            raise ConfigurationError("hash_rate_bytes_per_s must be positive")
        if self.max_power_w < self.idle_power_w:
            raise ConfigurationError("max power cannot be below idle power")
        if not 0 <= self.variance_fraction < 1:
            raise ConfigurationError("variance_fraction must be in [0, 1)")


XEON_E5_1603 = HardwareProfile(
    name="xeon-e5-1603",
    architecture="x86-64",
    cpu_model="Intel Xeon E5-1603 @ 2.80GHz",
    clock_ghz=2.8,
    cores=4,
    cpu_speed_factor=1.0,
    hash_rate_bytes_per_s=330e6,
    sign_time_s=0.0004,
    verify_time_s=0.0009,
    chaincode_invoke_overhead_s=0.004,
    state_op_time_s=0.0006,
    disk_write_bytes_per_s=420e6,
    disk_read_bytes_per_s=500e6,
    nic=GIGABIT_LAN,
    idle_power_w=48.0,
    hlf_baseline_power_w=4.0,
    max_power_w=135.0,
    variance_fraction=0.04,
)

CORE_I7_4700MQ = HardwareProfile(
    name="core-i7-4700mq",
    architecture="x86-64",
    cpu_model="Intel Core i7-4700MQ @ 2.40GHz",
    clock_ghz=2.4,
    cores=4,
    cpu_speed_factor=1.1,
    hash_rate_bytes_per_s=380e6,
    sign_time_s=0.00035,
    verify_time_s=0.0008,
    chaincode_invoke_overhead_s=0.0035,
    state_op_time_s=0.00055,
    disk_write_bytes_per_s=450e6,
    disk_read_bytes_per_s=520e6,
    nic=GIGABIT_LAN,
    idle_power_w=22.0,
    hlf_baseline_power_w=2.5,
    max_power_w=65.0,
    variance_fraction=0.04,
)

CORE_I3_2310M = HardwareProfile(
    name="core-i3-2310m",
    architecture="x86-64",
    cpu_model="Intel Core i3-2310M @ 2.10GHz",
    clock_ghz=2.1,
    cores=2,
    cpu_speed_factor=0.7,
    hash_rate_bytes_per_s=230e6,
    sign_time_s=0.0006,
    verify_time_s=0.0013,
    chaincode_invoke_overhead_s=0.006,
    state_op_time_s=0.0009,
    disk_write_bytes_per_s=260e6,
    disk_read_bytes_per_s=320e6,
    nic=GIGABIT_LAN,
    idle_power_w=18.0,
    hlf_baseline_power_w=2.0,
    max_power_w=45.0,
    variance_fraction=0.05,
)

RASPBERRY_PI_3B_PLUS = HardwareProfile(
    name="raspberry-pi-3b-plus",
    architecture="arm64",
    cpu_model="Broadcom BCM2837B0 Cortex-A53 @ 1.4GHz",
    clock_ghz=1.4,
    cores=4,
    cpu_speed_factor=0.18,
    hash_rate_bytes_per_s=42e6,
    sign_time_s=0.0045,
    verify_time_s=0.009,
    chaincode_invoke_overhead_s=0.045,
    state_op_time_s=0.006,
    disk_write_bytes_per_s=18e6,
    disk_read_bytes_per_s=40e6,
    nic=RPI_LAN,
    idle_power_w=2.65,
    hlf_baseline_power_w=0.06,
    max_power_w=5.7,
    variance_fraction=0.15,
)

#: The four desktop machines of the paper's first setup, in the paper's order.
DESKTOP_PROFILES: Tuple[HardwareProfile, ...] = (
    XEON_E5_1603,
    XEON_E5_1603,
    CORE_I7_4700MQ,
    CORE_I3_2310M,
)

#: The four Raspberry Pi devices of the paper's second setup.
RPI_PROFILES: Tuple[HardwareProfile, ...] = (RASPBERRY_PI_3B_PLUS,) * 4
