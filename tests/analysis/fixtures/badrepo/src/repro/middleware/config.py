"""C301/C302/C304 fixture: the ablation-surface dataclass."""

from dataclasses import dataclass
from typing import ClassVar


@dataclass
class PipelineConfig:
    batch_size: int = 8  # consumed + documented: clean
    window_ms: float = 50.0  # line 10: consumed but undocumented -> C302
    dead_knob: bool = False  # line 11: documented but unconsumed -> C301
    SCHEMA_VERSION: ClassVar[int] = 1  # ClassVar: not a knob
    fixed_knob: int = 3  # line 13: consumed + documented, set nowhere -> C304
