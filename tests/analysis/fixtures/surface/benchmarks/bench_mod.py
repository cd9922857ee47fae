"""A benchmark is a caller too."""

from repro.mod import Widget, used_by_bench

RESULT = used_by_bench()
SEVEN = Widget().called_from_bench()

# A variable named like a public function is not a call of it.
shadowed_only = RESULT + SEVEN
TOTAL = shadowed_only * 2
