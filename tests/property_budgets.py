"""Every property test's example budget, in one table.

A Hypothesis test under ``tests/`` takes its settings from :func:`budget`
and never names ``max_examples`` itself
(``tests/test_hypothesis_profiles.py`` fails otherwise).  Under the
default ``tier1`` profile (``tests/conftest.py``) each test draws its
row's budget; under ``--hypothesis-profile=deep`` it draws
:data:`DEEP_FACTOR` times as many, whatever its row says.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from hypothesis import settings

Test = TypeVar("Test", bound=Callable[..., None])

#: How many times its tier-1 budget a test draws under the ``deep`` profile.
DEEP_FACTOR = 10

#: Test function name -> examples it draws under ``tier1``.
BUDGETS = {
    # tests/consensus/test_scheduler.py
    "test_fair_share_serves_what_unit_weight_drr_serves": 300,
    # tests/crypto/test_crypto.py
    "test_mac_from_precomputed_pads_is_the_standard_hmac": 100,
    # tests/property/test_column_scans.py
    "test_a_column_scan_answers_what_the_reference_scan_answers": 60,
    # tests/property/test_commit_adoption.py
    "test_adopted_commits_equal_independent_commits": 40,
    # tests/property/test_endorsement_adoption.py
    "test_adopted_responses_equal_independent_endorsements": 40,
    # tests/property/test_fleet_decomposition.py
    "test_per_site_runs_equal_the_one_engine_run": 30,
    # tests/property/test_properties.py
    "test_hash_chain_verify_roundtrip": 100,
    "test_hash_chain_detects_any_single_mutation": 100,
    "test_merkle_root_matches_the_pairwise_definition": 100,
    "test_merkle_root_depends_on_leaf_order": 100,
    "test_canonical_json_roundtrip": 100,
    "test_canonical_json_encodes_any_bytes_as_their_hex": 100,
    "test_canonical_json_is_key_order_independent": 100,
    "test_world_state_last_write_wins": 100,
    "test_world_state_range_query_is_sorted_and_complete": 100,
    "test_block_store_chain_always_verifies": 25,
    "test_resource_reservations_never_overlap_per_slot": 100,
    "test_device_busy_log_equals_a_list_of_intervals": 100,
    "test_majority_policy_semantics": 100,
    "test_checksum_equality_iff_payload_equality": 100,
    "test_rw_set_digest_equals_canonical_json_of_to_dict": 60,
    "test_envelope_bytes_equal_canonical_json_of_the_envelope_dict": 80,
    "test_signed_bytes_equal_canonical_json_of_the_covered_fields": 100,
    "test_poisson_times_are_sorted_inside_the_window_and_seeded": 100,
    "test_a_partition_is_accepted_iff_it_names_each_node_once": 100,
    "test_event_bus_delivers_to_exactly_the_live_subscriptions": 100,
    "test_field_index_postings_follow_the_live_documents": 100,
    # tests/property/test_record_reading.py
    "test_the_row_predicate_matches_what_the_document_matches": 150,
    "test_a_view_of_the_reading_is_the_view_of_the_document": 150,
    # tests/property/test_stream_bit_identity.py
    "test_a_stream_draws_what_a_live_generator_draws": 200,
    # tests/property/test_tenant_fan_out.py
    "test_a_confined_read_answers_what_asking_every_shard_answers": 50,
    "test_a_merged_history_keeps_the_commit_order_of_the_string_merge": 30,
    # tests/property/test_world_state_equivalence.py
    "test_ordered_reads_between_writes_answer_what_the_oracle_answers": 100,
}

#: Tests whose single example may take longer than Hypothesis's deadline
#: (they build and drive whole deployments or long programs).
NO_DEADLINE = frozenset({
    "test_fair_share_serves_what_unit_weight_drr_serves",
    "test_adopted_commits_equal_independent_commits",
    "test_adopted_responses_equal_independent_endorsements",
    "test_per_site_runs_equal_the_one_engine_run",
    "test_rw_set_digest_equals_canonical_json_of_to_dict",
    "test_envelope_bytes_equal_canonical_json_of_the_envelope_dict",
    "test_a_confined_read_answers_what_asking_every_shard_answers",
    "test_a_merged_history_keeps_the_commit_order_of_the_string_merge",
})


def budget(test: Test) -> Test:
    """Apply ``test``'s row of :data:`BUDGETS` under the loaded profile.

    Goes where an ``@settings`` would (above ``@given``); every other
    setting comes from the profile.
    """
    name = test.__name__
    factor = DEEP_FACTOR if settings.get_current_profile_name() == "deep" else 1
    chosen = settings(
        max_examples=BUDGETS[name] * factor,
        **({"deadline": None} if name in NO_DEADLINE else {}),
    )
    return chosen(test)
