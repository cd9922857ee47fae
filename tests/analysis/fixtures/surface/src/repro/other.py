"""Calls one public name of mod from inside the package.

It never calls mentioned_only: naming a function in prose is not a use.
Widget.named_only is never reached by attribute either, and
Widget.written_only is assigned here but never read.  AnnotatedOnly
is imported and named by a parameter, a return and a dataclass field
annotation, and never built.
"""

from dataclasses import dataclass
from typing import Optional

from repro.mod import AnnotatedOnly, Widget, used_in_src
from repro.mod import used_under_alias as aliased

VALUE = used_in_src()
# mentioned_only stays unused here too.
NAME = "mentioned_only"

WIDGET = Widget()
SIX = WIDGET.called_from_src()
ONE = WIDGET.read_in_src
WIDGET.written_only = 5
named_only = "named_only"
ALIASED = aliased()


@dataclass
class _Holder:
    item: Optional[AnnotatedOnly] = None


def _passthrough(item: "AnnotatedOnly | None", other: AnnotatedOnly) -> AnnotatedOnly:
    return other
