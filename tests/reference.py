"""Test-side view of a digraph, built by a loop over ``g.edges`` alone.

The references in the tests (breadth-first diameter, per-sender weights,
the per-tick engine, the expected sends) read this instead of the digraph's
link table, so that no reference shares code with the code it checks.
``g.edges`` is itself a view of the link table; ``tests/test_digraph.py``
checks it against the pairs a digraph was built from and against the
generator's per-pair reference loop.
"""


def out_lists(g):
    """``out_lists(g)[i]``: the nodes that node ``i`` transmits to, ascending."""
    outs = [[] for _ in range(g.n)]
    for j, i in g.edges:
        outs[i].append(j)
    return [sorted(o) for o in outs]


def message_columns(g):
    """``(receiver, sender)`` of each column of one kind in a delay row.

    Every edge and every node's self term, sorted by receiver, then sender.
    """
    return sorted((r, s) for s, outs in enumerate(out_lists(g)) for r in [*outs, s])
