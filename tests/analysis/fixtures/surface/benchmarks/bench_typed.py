"""Typed uses of repro.typed: each counts for its receiver's class."""

from repro.typed import Cache, Holder, Other, Sub


def use(cache: Cache, thing):
    cache.ping()  # annotated Cache: keeps Cache.ping, not Other.ping
    thing.refresh()  # an open receiver keeps every member named refresh
    table = {}
    table.clear()  # a dict is no repro class: keeps no member named clear
    return cache.hits  # keeps the attribute on Cache, not on Other


CACHE = Cache()
OTHER = Other()
HITS = use(CACHE, OTHER)
Holder().flush()
INHERITED = Sub().inherited()
