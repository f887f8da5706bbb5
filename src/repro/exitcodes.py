"""The one table of process exit codes.

Exit codes grew organically across PRs (runner ``--strict``, chaos,
validation) and their documentation drifted: README and
``docs/robustness.md`` described ``repro chaos replay`` differently and
nothing recorded the full set.  This module is now the single source of
truth — the CLI returns these constants, ``docs/cli.md`` renders
:data:`EXIT_TABLE`, and ``tests/test_docs.py`` asserts code and docs
agree (including the *behavior*, by invoking the CLI).

Codes 2–4 are deliberately distinct so CI can tell "the run was
partial" from "an invariant tripped" from "the reproduction drifted
from the paper".
"""

from __future__ import annotations

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_PARTIAL",
    "EXIT_CHAOS_VIOLATION",
    "EXIT_FIDELITY_VIOLATION",
    "EXIT_TABLE",
]

#: Success.
EXIT_OK = 0

#: Generic failure: ``repro chaos replay`` when the recorded outcome did
#: not reproduce; ``repro adapt`` when the pinned program crashed;
#: ``repro docs --check`` on a stale file.
EXIT_FAILURE = 1

#: Command-line usage errors (argparse's own convention).  Also covers
#: unusable *inputs*: a truncated or corrupt injection plan / replay
#: bundle file, an unknown resilience preset, or a malformed policy dict
#: — all raise :class:`~repro.errors.ConfigError`, which the CLI turns
#: into a one-line structured error instead of a traceback.
EXIT_USAGE = 2

#: ``repro all --strict`` / ``run_all.py --strict`` (or a figure command
#: with ``--strict``): one or more
#: experiment specs failed after retries, so results are partial.
#: (Shares the number 2 with usage errors, matching argparse.)
EXIT_PARTIAL = 2

#: ``repro chaos run``: the kernel invariant checker caught a violation
#: (a replay bundle is written alongside).
EXIT_CHAOS_VIOLATION = 3

#: ``repro validate`` (and ``repro all`` / ``repro figNN`` with
#: ``--validate``): a fidelity spec
#: drifted out of its paper band with no catalogued deviation.
EXIT_FIDELITY_VIOLATION = 4

#: (code, meaning, produced by) — rendered into ``docs/cli.md`` and
#: asserted against both constants and CLI behavior by the tests.
EXIT_TABLE: list[tuple[int, str, str]] = [
    (EXIT_OK, "success",
     "every command; `repro chaos replay` only when the recorded "
     "outcome reproduced exactly"),
    (EXIT_FAILURE, "outcome not reproduced / run crashed / stale docs",
     "`repro chaos replay` (mismatch), `repro adapt` (pinned crash), "
     "`repro docs --check` (drift)"),
    (EXIT_USAGE, "usage error, or partial results under `--strict`",
     "argparse (bad flags); any command handed a truncated/corrupt plan "
     "or bundle file or a bad `--resilience` value (ConfigError); "
     "`repro all --strict` / `run_all.py --strict` / `repro figNN "
     "--strict` when specs failed after retries"),
    (EXIT_CHAOS_VIOLATION, "kernel invariant violation",
     "`repro chaos run` (a replay bundle is written)"),
    (EXIT_FIDELITY_VIOLATION, "paper-fidelity violation",
     "`repro validate`, `repro all --validate`, `repro figNN --validate` "
     "(a spec left its band "
     "with no catalogued deviation)"),
]
