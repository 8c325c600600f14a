"""Hardware device models.

The paper evaluates HyperProv on two testbeds:

* a desktop setup — 2× Intel Xeon E5-1603 (2.80 GHz), 1× Core i7-4700MQ
  (2.40 GHz), 1× Core i3-2310M (2.10 GHz), all with SSDs on a gigabit
  switch, and
* an edge setup — 4× Raspberry Pi 3B+ (Cortex-A53 @ 1.4 GHz, ARM64).

This package provides calibrated :class:`~repro.devices.profiles.HardwareProfile`
objects for each machine and a :class:`~repro.devices.model.DeviceModel`
that converts work (hashing, signing, chaincode execution, disk and
network I/O) into virtual time and busy intervals for energy accounting.
"""

from repro.devices.profiles import (
    HardwareProfile,
    XEON_E5_1603,
    CORE_I7_4700MQ,
    CORE_I3_2310M,
    RASPBERRY_PI_3B_PLUS,
    DESKTOP_PROFILES,
    RPI_PROFILES,
)
from repro.devices.model import DeviceModel

__all__ = [
    "HardwareProfile",
    "XEON_E5_1603",
    "CORE_I7_4700MQ",
    "CORE_I3_2310M",
    "RASPBERRY_PI_3B_PLUS",
    "DESKTOP_PROFILES",
    "RPI_PROFILES",
    "DeviceModel",
]
