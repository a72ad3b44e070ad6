"""Test-side references: views of a digraph, and a solver run's replay.

The references read the digraph's link table through their own loops:
:func:`edges` walks ``g.links`` pair by pair, and every other view is
built from it.  The references in the tests (breadth-first diameter,
per-sender weights, the per-tick engine, the expected sends) read these
views instead of the arrays the package computes with, so that no
reference shares code with the code it checks.  ``tests/test_digraph.py``
checks :func:`edges` against the pairs a digraph was built from and
against the generator's per-pair reference loop.

A run record keeps its z trajectory but not its x and lam iterates;
:func:`replay` rebuilds those and checks them against the record.

:func:`synchronous_ratio_trajectory` is the power-iteration oracle that
zero-delay consensus must equal bit for bit; it walks ``g.links`` and
scales by :func:`~asyncadmm.digraph.build_weights`, the engine's own
weights, since a bit-for-bit match needs the same terms.
"""

import numpy as np

from asyncadmm.admm import stopping_criterion, x_update
from asyncadmm.digraph import build_weights
from asyncadmm.netsim import _integer


def edges(g):
    """The edges ``(j, i)`` of ``g`` as Python ints: its links less the self-loops."""
    receiver, sender = g.links
    return frozenset((j, i) for j, i in zip(receiver.tolist(), sender.tolist()) if j != i)


def out_lists(g):
    """``out_lists(g)[i]``: the nodes that node ``i`` transmits to, ascending."""
    outs = [[] for _ in range(g.n)]
    for j, i in edges(g):
        outs[i].append(j)
    return [sorted(o) for o in outs]


def message_columns(g):
    """``(receiver, sender)`` of each column of one kind in a delay row.

    Every edge and every node's self term in draw order: by sender, then
    receiver, each self term in place.
    """
    return [(r, s) for s, outs in enumerate(out_lists(g)) for r in sorted([*outs, s])]


def replay(problem, record):
    """``(x, lam)``: a run's iterates, rebuilt from ``lam0`` and ``z_hist``.

    ``x[k]`` is ``x_k = x_update(problem, lam_{k-1}, z_{k-1}, rho)`` for
    ``k >= 1`` (``x[0]`` is None: ``x_1`` reads no earlier x), and
    ``lam[k]`` is ``lam_k = lam_{k-1} + rho * (x_k - z_k)``, ``lam[0]`` being
    ``lam0``.  Asserts, bit for bit, that every ``x_k`` gives the recorded
    objective and primal residual, which pins every ``lam_k`` that feeds a
    later x, and that the residual test passes on the last iterate exactly
    when the run stopped early and on no earlier one.
    """
    cfg, z = record.config, record.z_hist
    x, lam = [None], [record.lam0]
    for k in range(1, record.iterations + 1):
        x.append(x_update(problem, lam[k - 1], z[k - 1], cfg.rho))
        lam.append(lam[k - 1] + cfg.rho * (x[k] - z[k]))
        assert problem.objective(x[k]) == record.objective[k - 1], f"iteration {k}"
        assert float(np.linalg.norm(x[k] - z[k])) == record.primal_res[k - 1], f"iteration {k}"
        residuals = record.primal_res[k - 1], record.dual_res[k - 1]
        stops = stopping_criterion(x[k], z[k], lam[k], *residuals, cfg.eps_abs, cfg.eps_rel)
        assert stops == (record.stopped_early and k == record.iterations), f"iteration {k}"
    return x, lam


def synchronous_ratio_trajectory(g, y0, k):
    """All undelayed ratio estimates ``[z^0, ..., z^k]`` in one pass.

    Entry ``j`` is ``(P^j y0) / (P^j 1)`` for the column-stochastic ``P``
    whose entry ``P[r, s]`` is sender ``s``'s weight
    (:func:`~asyncadmm.digraph.build_weights`) on each link ``(r, s)``,
    accumulated per receiver in ascending sender order with scale-then-sum:
    the exact operation order of the simulator's zero-delay path, which it
    must match bit for bit.  That is the link table's order, so the loop
    walks its links and never forms ``P``: the reachability matrices of
    :func:`~asyncadmm.digraph.diameter` are the package's only n x n arrays.
    """
    _integer(k, "k", low=0)
    n = g.n
    receiver, sender = g.links
    links = list(zip(receiver.tolist(), sender.tolist(), build_weights(g)[sender]))
    y = np.array(y0, dtype=float).reshape(n, -1)  # a copy; a vector becomes one column
    w = np.ones(n)
    traj = [y / w[:, None]]
    for _ in range(k):
        y_next = np.zeros_like(y)
        w_next = np.zeros(n)
        for r, s, weight in links:
            y_next[r] += weight * y[s]
            w_next[r] += weight * w[s]
        y, w = y_next, w_next
        traj.append(y / w[:, None])
    return traj
