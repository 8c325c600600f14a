"""C304 fixture: a knob set only from ``examples/`` still counts as set."""

from repro.middleware.config import PipelineConfig

CONFIG = PipelineConfig(window_ms=10.0)
