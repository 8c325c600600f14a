"""Utilization → power mapping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.devices.model import DeviceModel


@dataclass(frozen=True)
class PowerSample:
    """Instantaneous (well, per-sampling-window) power reading."""

    timestamp: float
    watts: float
    cpu_utilization: float
    nic_utilization: float
    disk_utilization: float


class PowerModel:
    """Linear-in-utilization power model with an HLF baseline component.

    ``P(t) = idle + hlf_baseline·[HLF running] + (max − idle − hlf_baseline) ·
    (0.8·u_cpu + 0.12·u_nic + 0.08·u_disk)``

    The weights reflect that CPU dominates dynamic power on both the RPi
    and the desktops, with the NIC and SD-card/SSD contributing a small
    share.  The linear model is standard for full-system power estimation
    and reproduces the paper's observation that an idle HLF stack draws
    barely more than an idle OS.
    """

    CPU_WEIGHT = 0.80
    NIC_WEIGHT = 0.12
    DISK_WEIGHT = 0.08

    def __init__(self, device: DeviceModel) -> None:
        self.device = device

    def baseline_watts(self) -> float:
        """Power drawn with zero activity."""
        profile = self.device.profile
        baseline = profile.idle_power_w
        if self.device.hlf_running:
            baseline += profile.hlf_baseline_power_w
        return baseline

    def dynamic_range_watts(self) -> float:
        """Watts available between baseline and the profile's maximum."""
        return max(0.0, self.device.profile.max_power_w - self.baseline_watts())

    def power_over(self, window: Tuple[float, float]) -> PowerSample:
        """Average power over ``window`` given the device's recorded activity."""
        cpu_util = self.device.utilization(window, "cpu")
        nic_util = self.device.utilization(window, "nic")
        disk_util = self.device.utilization(window, "disk")
        activity = (
            self.CPU_WEIGHT * cpu_util
            + self.NIC_WEIGHT * nic_util
            + self.DISK_WEIGHT * disk_util
        )
        watts = self.baseline_watts() + self.dynamic_range_watts() * activity
        return PowerSample(
            timestamp=window[1],
            watts=watts,
            cpu_utilization=cpu_util,
            nic_utilization=nic_util,
            disk_utilization=disk_util,
        )
