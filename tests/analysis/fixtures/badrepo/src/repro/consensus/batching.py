"""C301/C304 fixture: a second registered config class."""

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchConfig:
    max_message_count: int = 10  # set by a dict-literal key under src/: clean
    batch_timeout_s: float = 2.0  # line 9: set only in this module -> C304
    preferred_max_bytes: int = 512  # line 10: read by nothing -> C301


def cut_when(config: BatchConfig, pending: int, waited_s: float) -> bool:
    return pending >= config.max_message_count or waited_s >= config.batch_timeout_s


def quick_batches() -> BatchConfig:
    # A setter in the defining module is the module forwarding its own
    # value, so batch_timeout_s still counts as never set.
    return BatchConfig(batch_timeout_s=0.5)
