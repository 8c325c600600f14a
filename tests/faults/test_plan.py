"""FaultPlan validation and introspection."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.faults import (
    ByzantineFault,
    ChurnFault,
    FaultPlan,
    LinkDegradeFault,
    OrdererStallFault,
    PartitionFault,
    PeerCrashFault,
)


class TestWindowValidation:
    def test_negative_start_raises(self):
        with pytest.raises(ConfigurationError, match="start_s"):
            FaultPlan(seed=1, faults=(PartitionFault(-1.0, 2.0, (("a",),)),)).validate()

    def test_inverted_window_raises(self):
        with pytest.raises(ConfigurationError, match="end_s"):
            FaultPlan(seed=1, faults=(ChurnFault(5.0, 1.0, "dev"),)).validate()

    @pytest.mark.parametrize(
        "start_s, end_s", [(math.nan, 5.0), (0.0, math.nan), (0.0, math.inf), (math.inf, math.inf)]
    )
    def test_non_finite_window_edges_raise(self, start_s, end_s):
        faults = (
            PartitionFault(start_s, end_s, (("client",),)),
            ChurnFault(start_s, end_s, "dev"),
            PeerCrashFault(start_s, end_s, "p"),
            OrdererStallFault(start_s, end_s),
            LinkDegradeFault(start_s, end_s, "a", "b"),
        )
        for fault in faults:
            with pytest.raises(ConfigurationError, match="finite"):
                FaultPlan(seed=1, faults=(fault,)).validate()

    def test_zero_duration_window_is_legal(self):
        FaultPlan(seed=1, faults=(PartitionFault(2.0, 2.0, (("a",),)),)).validate()

    def test_partition_needs_a_named_node(self):
        with pytest.raises(ConfigurationError, match="named node"):
            FaultPlan(seed=1, faults=(PartitionFault(0.0, 1.0, ()),)).validate()
        with pytest.raises(ConfigurationError, match="named node"):
            FaultPlan(seed=1, faults=(PartitionFault(0.0, 1.0, ((),)),)).validate()

    def test_empty_names_raise(self):
        with pytest.raises(ConfigurationError):
            ChurnFault(0.0, 1.0, "").validate()
        with pytest.raises(ConfigurationError):
            PeerCrashFault(0.0, 1.0, "").validate()
        with pytest.raises(ConfigurationError):
            LinkDegradeFault(0.0, 1.0, "a", "").validate()


class TestFieldValidation:
    def test_link_rates_must_be_fractions(self):
        for bad in ({"drop_rate": 1.5}, {"duplicate_rate": -0.1}):
            with pytest.raises(ConfigurationError, match="must be in"):
                LinkDegradeFault(0.0, 1.0, "a", "b", **bad).validate()

    def test_link_extra_latency_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="extra_latency_s"):
            LinkDegradeFault(0.0, 1.0, "a", "b", extra_latency_s=-0.1).validate()

    @pytest.mark.parametrize("extra", [math.nan, math.inf])
    def test_link_extra_latency_must_be_finite(self, extra):
        with pytest.raises(ConfigurationError, match="finite"):
            LinkDegradeFault(0.0, 1.0, "a", "b", extra_latency_s=extra).validate()

    @pytest.mark.parametrize("at_s", [-1.0, math.nan, math.inf])
    def test_byzantine_time_must_be_finite_and_non_negative(self, at_s):
        with pytest.raises(ConfigurationError, match="at_s"):
            FaultPlan(seed=1, faults=(ByzantineFault(at_s, "p"),)).validate()

    def test_byzantine_bounds(self):
        with pytest.raises(ConfigurationError, match="block_number"):
            ByzantineFault(1.0, "p", block_number=-2).validate()
        with pytest.raises(ConfigurationError, match="tx_position"):
            ByzantineFault(1.0, "p", tx_position=-1).validate()
        ByzantineFault(1.0, "p").validate()

    def test_stall_shard_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="shard"):
            OrdererStallFault(0.0, 1.0, shard=-1).validate()


class TestPlanIntrospection:
    def test_groups_normalised_for_structural_equality(self):
        first = PartitionFault(0.0, 1.0, [["a", "b"], ["c"]])
        second = PartitionFault(0.0, 1.0, (("a", "b"), ("c",)))
        assert first == second

    def test_of_type_filters(self):
        plan = FaultPlan(
            seed=1,
            faults=(
                PartitionFault(0.0, 1.0, (("a",),)),
                ChurnFault(2.0, 3.0, "dev"),
                ByzantineFault(4.0, "p"),
            ),
        )
        assert len(plan.of_type(PartitionFault)) == 1
        assert len(plan.of_type(PartitionFault, ChurnFault)) == 2
        assert plan.of_type(OrdererStallFault) == ()
