"""Placeholder: the numpy load board and vectorised balance scans were
removed; both backends now run the kernel's scalar balancer.

``pick_busiest_eligible``, ``balance_extremes`` and
``steal_candidates_vector`` stay only because ``perfbench/layers.py``
patches them by name.  Nothing in ``src/`` imports this module, and
calling any of them is an error.
"""


def _removed(*_args, **_kwargs):
    raise RuntimeError("repro.fastpath.soa scans were removed; "
                       "the kernel's scalar balancer is the only one")


pick_busiest_eligible = balance_extremes = steal_candidates_vector = _removed
