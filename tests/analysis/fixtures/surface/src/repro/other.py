"""Calls one public name of mod from inside the package."""

from repro.mod import used_in_src

VALUE = used_in_src()
