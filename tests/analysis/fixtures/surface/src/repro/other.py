"""Calls one public name of mod from inside the package.

It never calls mentioned_only: naming a function in prose is not a use.
Widget.named_only is never reached by attribute either.
"""

from repro.mod import Widget, used_in_src

VALUE = used_in_src()
# mentioned_only stays unused here too.
NAME = "mentioned_only"

WIDGET = Widget()
SIX = WIDGET.called_from_src()
named_only = "named_only"
