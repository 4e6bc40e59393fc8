"""Deterministic counters of what a computation did: a stage that takes
an optional stats argument adds its counts once, at its end, and costs
nothing when the argument is absent."""


class Stats:
    """Named integer counters, in the order they were first counted."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n
