"""Fixture package root: a re-export here is not a use."""

from repro.mod import Orphan, orphan, used_in_src

__all__ = ["Orphan", "orphan", "used_in_src"]
