"""Calls one public name of mod from inside the package.

It never calls mentioned_only: naming a function in prose is not a use.
"""

from repro.mod import used_in_src

VALUE = used_in_src()
# mentioned_only stays unused here too.
NAME = "mentioned_only"
