"""C304 fixture: a string key of a dict literal counts as setting a knob."""

ROWS = [{"max_message_count": 1}, {"max_message_count": 10}]
