"""A benchmark is a caller too."""

from repro.mod import Widget, used_by_bench

RESULT = used_by_bench()
SEVEN = Widget().called_from_bench()
