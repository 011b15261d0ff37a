"""Desk-scale resource budgets.

Budgets cap combinatorial blow-ups (iterated covers, polytope enumeration).
Exceeding a budget raises :class:`rdstail.errors.BudgetExceededError`;
results are never silently truncated.  Library calls take their budgets
per call site.  CLI runs read the environment variable ``RDSTAIL_BUDGETS``
(comma-separated ``name=value`` pairs) on each run, so a malformed value
is a bad-input error of that run, never an import failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

ENV_VAR = "RDSTAIL_BUDGETS"


@dataclass(frozen=True)
class Budgets:
    # max elements in an iterated cover, after pruning and dedup: on the
    # count paths the maximal sections of the largest fiber, on the
    # whole-bundle paths the elements over the whole bundle
    cover_elements: int = 4096
    # max total points of a system handed to polytope vertex enumeration
    polytope_points: int = 24

    def with_overrides(self, overrides: dict[str, int]) -> "Budgets":
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(f"unknown budget name(s): {sorted(unknown)}")
        return replace(self, **overrides)


def parse_overrides(text: str) -> dict[str, int]:
    """Parse ``"name=value,name=value"`` into a budget override dict."""
    out: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        if not _:
            raise ValueError(f"malformed budget override {item!r}, expected name=value")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise ValueError(f"budget override {item!r}: the value must be an integer") from None
    return out


def from_env(env: dict[str, str] | None = None) -> Budgets:
    env = os.environ if env is None else env
    text = env.get(ENV_VAR, "")
    return Budgets().with_overrides(parse_overrides(text)) if text else Budgets()


DEFAULTS = Budgets()
