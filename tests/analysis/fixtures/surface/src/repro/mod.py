"""Public-surface fixture: which top-level names count as used."""


def used_in_src():
    return 1


def used_by_bench():
    return 2


def orphan():
    """Named only by tests/ and the package __init__."""
    return 3


def recursive_orphan(n):
    # A definition's references to itself do not count.
    return recursive_orphan(n - 1) if n else 0


class Orphan:
    pass


def mentioned_only():
    """Named by a docstring, a comment and a string, never by code."""
    return 5


def _private_helper():
    return 4
