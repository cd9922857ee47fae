"""tests/ is never searched: these uses do not keep the names alive."""

from repro.mod import Orphan, orphan, recursive_orphan

CHECKS = (Orphan(), orphan(), recursive_orphan(2))
