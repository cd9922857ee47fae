"""tests/ is never searched: these uses do not keep the names alive."""

from repro.mod import Orphan, Widget, orphan, recursive_orphan

CHECKS = (Orphan(), orphan(), recursive_orphan(2))

WIDGET = Widget()
WIDGET.tested_prop = 1
MEMBER_CHECKS = (WIDGET.tested_only(), WIDGET.tested_prop, WIDGET.read_by_tests)
