"""Typed-receiver fixture: a member use counts for its receiver's class."""


class Cache:
    """Built and passed around by benchmarks/bench_typed.py."""

    def __init__(self):
        self.hits = 0

    def clear(self):
        """Shadowed: the only ``clear`` call anywhere is on a dict."""

    def ping(self):
        """Called through a parameter annotated ``Cache``."""

    def refresh(self):
        """Called only on a receiver whose class the module leaves open."""

    def evict(self):
        """Called only through a :class:`Holder`'s ``self.cache``."""


class Other:
    """Shares members and an attribute name with :class:`Cache`."""

    def __init__(self):
        self.hits = 0

    def ping(self):
        """The only ``ping`` call is on a ``Cache``."""

    def evict(self):
        """The only ``evict`` call is on a ``Holder``'s ``Cache``."""


class Base:
    def inherited(self):
        """Called only on a ``Sub(...)``, which is a ``Base`` too."""


class Sub(Base):
    """Inherits :meth:`Base.inherited`."""


class Holder:
    def __init__(self):
        self.cache = Cache()

    def flush(self):
        self.cache.evict()
