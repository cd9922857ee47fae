"""A benchmark is a caller too."""

from repro.mod import used_by_bench

RESULT = used_by_bench()
