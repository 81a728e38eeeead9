"""The ``repro check`` rule registry — one module per rule."""

from __future__ import annotations

from typing import List

from repro.check.rules.base import Rule
from repro.check.rules.r001_rng import RULE as R001
from repro.check.rules.r002_wallclock import RULE as R002
from repro.check.rules.r003_set_order import RULE as R003
from repro.check.rules.r004_float_eq import RULE as R004
from repro.check.rules.r008_mutable_defaults import RULE as R008
from repro.check.rules.r009_ambient_with import RULE as R009
from repro.check.rules.r010_sorted_bytes import RULE as R010
from repro.check.rules.r011_page_mutation import RULE as R011

#: Every registered rule, in id order.
ALL_RULES: List[Rule] = [
    R001, R002, R003, R004, R008, R009, R010, R011,
]
