"""Tests for hardware profiles and the device model."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.devices.model import DeviceModel
from repro.devices.profiles import (
    CORE_I3_2310M,
    CORE_I7_4700MQ,
    DESKTOP_PROFILES,
    RASPBERRY_PI_3B_PLUS,
    RPI_PROFILES,
    XEON_E5_1603,
    HardwareProfile,
)
from repro.network.link import Link, LinkProfile
from repro.simulation.randomness import DeterministicRandom


# -------------------------------------------------------------------- profiles
def test_builtin_profiles_are_valid():
    for profile in (XEON_E5_1603, CORE_I7_4700MQ, CORE_I3_2310M, RASPBERRY_PI_3B_PLUS):
        profile.validate()


def test_paper_testbed_composition():
    assert len(DESKTOP_PROFILES) == 4
    assert DESKTOP_PROFILES.count(XEON_E5_1603) == 2
    assert len(RPI_PROFILES) == 4
    assert all(p is RASPBERRY_PI_3B_PLUS for p in RPI_PROFILES)


def test_rpi_is_slower_and_lower_power_than_desktop():
    assert RASPBERRY_PI_3B_PLUS.hash_rate_bytes_per_s < XEON_E5_1603.hash_rate_bytes_per_s
    assert RASPBERRY_PI_3B_PLUS.cpu_speed_factor < XEON_E5_1603.cpu_speed_factor
    assert RASPBERRY_PI_3B_PLUS.idle_power_w < XEON_E5_1603.idle_power_w
    assert RASPBERRY_PI_3B_PLUS.variance_fraction > XEON_E5_1603.variance_fraction


def test_rpi_idle_power_matches_paper_calibration():
    """The paper reports 2.71 W for an idle RPi with HLF running."""
    idle_with_hlf = RASPBERRY_PI_3B_PLUS.idle_power_w + RASPBERRY_PI_3B_PLUS.hlf_baseline_power_w
    assert idle_with_hlf == pytest.approx(2.71, abs=0.05)


def test_profile_validation_catches_bad_values():
    bad = HardwareProfile(
        name="bad", architecture="x", cpu_model="x", clock_ghz=1, cores=1,
        cpu_speed_factor=0.0, hash_rate_bytes_per_s=1.0, sign_time_s=0.1,
        verify_time_s=0.1, chaincode_invoke_overhead_s=0.1, state_op_time_s=0.1,
        disk_write_bytes_per_s=1.0, disk_read_bytes_per_s=1.0,
        nic=XEON_E5_1603.nic, idle_power_w=10.0, hlf_baseline_power_w=1.0,
        max_power_w=20.0,
    )
    with pytest.raises(ConfigurationError):
        bad.validate()


# ---------------------------------------------------------------- device model
@pytest.fixture
def device():
    return DeviceModel("dev", XEON_E5_1603, rng=DeterministicRandom(1))


@pytest.fixture
def rpi():
    return DeviceModel("rpi", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(2))


def test_hash_time_scales_with_size(device):
    assert device.hash_time(10 * 1024 * 1024) > device.hash_time(1024)


def test_rpi_slower_than_desktop_for_same_work(device, rpi):
    payload = 1024 * 1024
    assert rpi.hash_time(payload) > device.hash_time(payload)
    assert rpi.sign_time() > device.sign_time()
    assert rpi.chaincode_time(3) > device.chaincode_time(3)


def test_chaincode_time_scales_with_state_operations(device):
    assert device.chaincode_time(10) > device.chaincode_time(1)


def test_occupy_records_busy_intervals(device):
    assert device.charge_cpu(1.0, 0.5) == (1.0, 1.5)
    assert device.occupy("disk", 2.0, 0.25) == (2.0, 2.25)
    # The recorded span per component, read back through windows on it.
    assert device.busy_time(component="cpu") == 0.5
    assert device.busy_time(window=(0.0, 1.0), component="cpu") == 0.0
    assert device.busy_time(window=(1.25, 9.0), component="cpu") == 0.25
    assert device.busy_time(window=(1.5, 9.0), component="cpu") == 0.0
    assert device.busy_time(window=(2.0, 2.25), component="disk") == 0.25
    assert device.busy_time(window=(0.0, 2.0), component="disk") == 0.0
    assert device.busy_time(component="nic") == 0.0
    assert device.busy_time() == 0.75


def test_occupy_queues_when_all_cores_busy(device):
    # Saturate all four Xeon cores then add one more task.
    for _ in range(device.profile.cores):
        device.charge_cpu(0.0, 1.0)
    _, end = device.charge_cpu(0.0, 1.0)
    assert end == pytest.approx(2.0)


def test_occupy_zero_duration_is_noop(device):
    start, end = device.charge_cpu(3.0, 0.0)
    assert start == end == 3.0
    assert device.busy_time() == 0.0


def test_occupy_unknown_component_rejected(device):
    with pytest.raises(SimulationError):
        device.occupy("gpu", 0.0, 1.0)


def test_utilization_over_window(device):
    device.charge_cpu(0.0, 4.0)  # one of four cores busy for the window
    assert device.utilization((0.0, 4.0), "cpu") == pytest.approx(0.25)
    assert device.utilization((10.0, 20.0), "cpu") == 0.0


def test_busy_time_window_restriction(device):
    device.charge_cpu(0.0, 2.0)
    device.charge_cpu(10.0, 2.0)
    assert device.busy_time(window=(0.0, 5.0)) == pytest.approx(2.0)
    assert device.busy_time() == pytest.approx(4.0)


def test_jittered_durations_are_the_draws_they_always_were(rpi):
    """The first 20 ``sign_time`` draws of a seeded device, and transfer
    times of a lossy seeded link (retransmissions included), as the code
    drew them before its jitter path was flattened."""
    assert [rpi.sign_time() for _ in range(20)] == [
        0.0060782625469187335, 0.004052573612054896, 0.004766530244331034,
        0.004598901976886582, 0.005063725291275469, 0.0035535758927808226,
        0.0042200249140244015, 0.003992764396918872, 0.0037746228985551748,
        0.003930415550493717, 0.004154093292109812, 0.0043064141974366804,
        0.0038879748774645322, 0.004784858076729646, 0.004130430689456351,
        0.0023414808238452676, 0.00530371194158461, 0.004235478899478658,
        0.0039982371822539905, 0.004681165179876256,
    ]
    lossy = LinkProfile(
        latency_s=0.0006, bandwidth_bps=220_000_000.0, jitter_fraction=0.12, loss_rate=0.25
    )
    link = Link("a", "b", lossy, DeterministicRandom(3))
    assert [link.transfer_time(1500) for _ in range(20)] == [
        0.0006613644333021405, 0.0007445472099834701, 0.0012717726556630545,
        0.00063571666369881, 0.0006514549082724129, 0.0007070693455688184,
        0.0006968810041984407, 0.0011688746016158486, 0.0005586210666948918,
        0.0005459324373898574, 0.0006421308223001026, 0.0006314811396141512,
        0.000648823972292189, 0.0006716885468884199, 0.0006257547564432142,
        0.0005094526633192835, 0.000552349661041221, 0.0007338542819950584,
        0.0013563080269684104, 0.001264114078758825,
    ]


def test_disk_and_serialization_costs_positive(device):
    assert device.disk_write_time(1024) > 0
    assert device.disk_read_time(1024) > 0
    assert device.serialization_time(1024) > 0
