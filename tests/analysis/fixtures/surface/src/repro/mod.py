"""Public-surface fixture: which top-level names and members count as used."""


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


def shadowed_only():
    """Its name occurs only as a benchmark's own variable."""
    return 11


class AnnotatedOnly:
    """Imported and named in annotations elsewhere, never built."""


def used_under_alias():
    """Called only through an import alias."""
    return 12


def _private_helper():
    return 4


class Widget:
    """Used from inside the package; its members are judged one by one."""

    def __init__(self):
        # Instance attributes are judged by the loads of their names.
        self.read_in_src = 1
        self.read_by_tests = 2
        self.written_only = 0
        self.written_only += 1  # an augmented assignment writes, it does not read
        self._private_attr = 3

    def called_from_src(self):
        return 6

    def called_from_bench(self):
        return 7

    def tested_only(self):
        """Called by attribute only from tests/."""
        return 8

    @property
    def tested_prop(self):
        """Getter and setter are one member, read only from tests/."""
        return self._prop

    @tested_prop.setter
    def tested_prop(self, value):
        self._prop = value

    def named_only(self):
        """Its name occurs only as a bare name and in a string."""
        return 9

    def _private(self):
        return 10

    def __len__(self):
        return 0
