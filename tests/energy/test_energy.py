"""Tests for the power model and the simulated power meter."""

import pytest

from repro.common.errors import ConfigurationError
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.energy.meter import PowerMeter
from repro.energy.power import PowerModel
from repro.simulation.randomness import DeterministicRandom


@pytest.fixture
def rpi_device():
    return DeviceModel("rpi", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(1))


def test_idle_power_equals_baseline(rpi_device):
    model = PowerModel(rpi_device)
    sample = model.power_over((0.0, 10.0))
    assert sample.watts == pytest.approx(model.baseline_watts())
    assert sample.cpu_utilization == 0.0


def test_hlf_baseline_adds_small_constant():
    with_hlf = DeviceModel("a", RASPBERRY_PI_3B_PLUS, hlf_running=True)
    without_hlf = DeviceModel("b", RASPBERRY_PI_3B_PLUS, hlf_running=False)
    delta = PowerModel(with_hlf).baseline_watts() - PowerModel(without_hlf).baseline_watts()
    assert delta == pytest.approx(RASPBERRY_PI_3B_PLUS.hlf_baseline_power_w)
    # The paper's observation: HLF idle draw is barely above OS idle.
    assert delta < 0.2


def test_power_increases_with_cpu_activity(rpi_device):
    model = PowerModel(rpi_device)
    idle = model.power_over((0.0, 10.0)).watts
    rpi_device.charge_cpu(0.0, 20.0)  # half the window on one core... spread over window
    busy = model.power_over((0.0, 10.0)).watts
    assert busy > idle


def test_power_never_exceeds_profile_maximum(rpi_device):
    model = PowerModel(rpi_device)
    # Saturate every component for the whole window.
    for _ in range(rpi_device.profile.cores):
        rpi_device.charge_cpu(0.0, 10.0)
    rpi_device.occupy("nic", 0.0, 10.0)
    rpi_device.occupy("disk", 0.0, 10.0)
    sample = model.power_over((0.0, 10.0))
    assert sample.watts <= rpi_device.profile.max_power_w + 1e-9
    assert sample.cpu_utilization == pytest.approx(1.0)


def test_energy_is_power_times_time(rpi_device):
    model = PowerModel(rpi_device)
    report = PowerMeter(model, sample_interval_s=10.0).measure_interval(0.0, 100.0)
    assert report.energy_joules == pytest.approx(model.baseline_watts() * 100.0)


# ---------------------------------------------------------------------- meter
def test_meter_interval_report_statistics(rpi_device):
    rpi_device.charge_cpu(5.0, 5.0)
    meter = PowerMeter(PowerModel(rpi_device), sample_interval_s=1.0)
    report = meter.measure_interval(0.0, 10.0, label="test")
    assert (report.start, report.end) == (0.0, 10.0)
    assert report.max_watts > report.min_watts
    assert report.min_watts >= PowerModel(rpi_device).baseline_watts() - 1e-9
    assert report.energy_joules > 0
    assert report.energy_wh == pytest.approx(report.energy_joules / 3600.0)


def test_meter_sample_count_matches_interval(rpi_device):
    meter = PowerMeter(PowerModel(rpi_device), sample_interval_s=2.0)
    samples = meter.sample_window(0.0, 10.0)
    assert len(samples) == 5


def test_meter_rejects_bad_windows(rpi_device):
    meter = PowerMeter(PowerModel(rpi_device))
    with pytest.raises(ConfigurationError):
        meter.measure_interval(5.0, 5.0)
    with pytest.raises(ConfigurationError):
        PowerMeter(PowerModel(rpi_device), sample_interval_s=0.0)


def test_desktop_idle_power_far_above_rpi():
    desktop = DeviceModel("xeon", XEON_E5_1603)
    rpi = DeviceModel("rpi", RASPBERRY_PI_3B_PLUS)
    assert PowerModel(desktop).baseline_watts() > 10 * PowerModel(rpi).baseline_watts()
