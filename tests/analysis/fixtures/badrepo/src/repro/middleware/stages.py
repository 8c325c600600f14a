"""C303 fixture: middlewares that do and do not forward the chain."""

from repro.middleware.config import PipelineConfig


class Middleware:
    def handle(self, ctx, call_next):
        return call_next(ctx)


class BatchingMiddleware(Middleware):
    def __init__(self, config: PipelineConfig):
        self.limit = config.batch_size
        self.window = config.window_ms

    def handle(self, ctx, call_next):
        # Storing call_next for a deferred flush counts as forwarding.
        self.flush = call_next
        return None


class SwallowMiddleware(Middleware):
    def handle(self, ctx, call_next):  # line 23: C303
        return {"status": "dropped"}


class AuditSink(Middleware):  # repro: terminal-middleware
    def handle(self, ctx, call_next):
        return {"status": "recorded"}


def build(config: PipelineConfig):
    # batch_size is passed by keyword here and window_ms in examples/, so
    # neither fires C304; fixed_knob is read but no call ever sets it.
    tuned = PipelineConfig(batch_size=4)
    return BatchingMiddleware(tuned), config.fixed_knob
