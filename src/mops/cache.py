"""Process-wide memo tables.

``memo`` gives a function one dict, keyed by its positional arguments.  The
tables live for the whole process; ``clear_all`` empties every one of them
and so frees their memory.

Cached values are never modified after they are stored and can always be
recomputed, so the usual dict races under concurrent writers are benign:
two threads may compute the same entry and one insert wins.  Correctness
never depends on a cache hit.

One kind of entry grows: ``hypergeom._held_prefix`` stores a holder whose
state, the exact layer sums of one series up to some degree plus the layer
needed to resume, is replaced whole, in one assignment, by a longer prefix
of the same sequence.  Two racing extenders compute equal states and one
assignment wins, as with an insert.
"""

import functools

_REGISTRY = []


def memo(fn):
    """Memoize fn on its positional arguments, which must be hashable."""
    table = {}
    _REGISTRY.append(table)

    @functools.wraps(fn)
    def cached(*args):
        value = table.get(args)
        if value is None:
            value = table[args] = fn(*args)
        return value

    return cached


def clear_all():
    """Empty every memo table."""
    for table in _REGISTRY:
        table.clear()
