"""Structured logging for the CLI and library.

One ``repro`` logger hierarchy, one handler, message-only formatting on
stdout — so command output stays pipeable and testable — with verbosity
driven by the CLI's ``--verbose``/``--quiet`` flags.  Library code gets
a namespaced child logger from :func:`get_logger` and never calls
``print`` directly.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["configure_logging", "get_logger"]


class _CurrentStdout:
    """Stream proxy resolving ``sys.stdout`` at write time (pytest's
    capture machinery swaps ``sys.stdout`` under us)."""

    def write(self, text: str) -> int:
        return sys.stdout.write(text)

    def flush(self) -> None:
        try:
            sys.stdout.flush()
        except ValueError:  # closed stream at interpreter teardown
            pass


class _StdoutHandler(logging.StreamHandler):
    """Lets ``BrokenPipeError`` propagate: once the reader of stdout is
    gone (``| head``), the command stops instead of printing one
    "Logging error" traceback per remaining record."""

    def handleError(self, record: logging.LogRecord) -> None:
        if isinstance(sys.exc_info()[1], BrokenPipeError):
            raise
        super().handleError(record)


_HANDLER: Optional[logging.Handler] = None


def get_logger(name: str = "repro") -> logging.Logger:
    """A logger under the ``repro`` hierarchy."""
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


def configure_logging(verbose: int = 0, quiet: bool = False) -> logging.Logger:
    """Install the stdout handler and set the level from the CLI flags.

    ``--quiet`` shows warnings and errors only; the default shows info;
    ``-v`` adds debug.  Idempotent — repeated calls only adjust level.
    """
    global _HANDLER
    root = logging.getLogger("repro")
    if _HANDLER is None:
        _HANDLER = _StdoutHandler(_CurrentStdout())
        _HANDLER.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(_HANDLER)
        root.propagate = False
    if quiet:
        level = logging.WARNING
    elif verbose:
        level = logging.DEBUG
    else:
        level = logging.INFO
    root.setLevel(level)
    return root
