"""Structured logging: logfmt-style ``key=value`` lines over stdlib logging.

The pipeline logs *events with fields*, not prose — ``event=graphs_built
domains=913 edges=177041`` — so the output stays grep-able and trivially
machine-parseable (the same philosophy as the repo's own ``dns.log``
format; see :mod:`repro.dns.logfmt`).

Two entry points:

* :func:`get_logger` — module-level structured logger, namespaced under
  the ``repro`` root so applications embedding this package can route or
  silence it wholesale;
* :func:`configure` — opt-in console setup used by the CLI's
  ``-v/--verbose`` flag. Libraries must not configure logging on import,
  and nothing here does: without :func:`configure` the ``repro`` logger
  stays a silent no-op under stdlib default handling.

Log calls are guarded by ``isEnabledFor``, so a disabled level costs one
attribute lookup and an integer compare — cheap enough to leave DEBUG
logging statements in hot-adjacent paths.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, TextIO

__all__ = ["configure", "get_logger", "StructuredLogger", "format_fields"]

ROOT_LOGGER_NAME = "repro"

# Marker so configure() can find and replace its own handler (idempotent
# reconfiguration instead of stacking duplicate handlers).
_HANDLER_TAG = "_repro_obs_handler"


def _quote(value: Any) -> str:
    """Render one logfmt value; quote when it contains spaces/equals."""
    if isinstance(value, float):
        text = f"{value:.6g}"
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    if any(ch in text for ch in (" ", "=", '"')) or text == "":
        return '"' + text.replace('"', '\\"') + '"'
    return text


def format_fields(event: str, fields: dict[str, Any]) -> str:
    """One logfmt line body: ``event=<event> k1=v1 k2=v2 ...``."""
    parts = [f"event={_quote(event)}"]
    parts.extend(f"{key}={_quote(value)}" for key, value in fields.items())
    return " ".join(parts)


class StructuredLogger:
    """Thin key=value front-end over a stdlib :class:`logging.Logger`.

    Usage::

        log = get_logger(__name__)
        log.info("refresh_done", domains=1234, seconds=2.71)

    ``bind()`` returns a child logger with fields attached to every
    line, for per-run context like a trace directory or worker id.
    """

    __slots__ = ("_logger", "_bound")

    def __init__(
        self, logger: logging.Logger, bound: dict[str, Any] | None = None
    ) -> None:
        self._logger = logger
        self._bound = bound or {}

    @property
    def name(self) -> str:
        """Underlying stdlib logger name."""
        return self._logger.name

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A logger that adds ``fields`` to every subsequent line."""
        return StructuredLogger(self._logger, {**self._bound, **fields})

    def _log(self, level: int, event: str, fields: dict[str, Any]) -> None:
        if self._logger.isEnabledFor(level):
            merged = {**self._bound, **fields} if self._bound else fields
            self._logger.log(level, format_fields(event, merged))

    def debug(self, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` at DEBUG."""
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` at INFO."""
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` at WARNING."""
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` at ERROR."""
        self._log(logging.ERROR, event, fields)


class LogfmtFormatter(logging.Formatter):
    """Prefixes every line with ``ts=<epoch> level=<level> logger=<name>``."""

    def format(self, record: logging.LogRecord) -> str:
        prefix = (
            f"ts={record.created:.3f} level={record.levelname.lower()} "
            f"logger={record.name}"
        )
        line = f"{prefix} {record.getMessage()}"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def get_logger(name: str) -> StructuredLogger:
    """The structured logger for module ``name``.

    Names are rooted under ``repro`` (``get_logger("core.pipeline")`` and
    ``get_logger("repro.core.pipeline")`` are the same logger), so one
    :func:`configure` call governs the whole package.
    """
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return StructuredLogger(logging.getLogger(name))


def configure(
    verbosity: int = 0, stream: TextIO | None = None
) -> logging.Logger:
    """Route ``repro.*`` logs to ``stream`` (default stderr) as logfmt.

    Args:
        verbosity: 0 = WARNING, 1 = INFO, >= 2 = DEBUG — matched to the
            CLI's ``-v`` / ``-vv``.
        stream: Destination text stream.

    Returns:
        The configured ``repro`` root logger.

    Calling again replaces the previous configuration (handler and
    level), so repeated CLI invocations in one process don't stack
    duplicate handlers.
    """
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO if verbosity == 1 else logging.DEBUG
    )
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(LogfmtFormatter())
    setattr(handler, _HANDLER_TAG, True)
    root.addHandler(handler)
    root.setLevel(level)
    # Don't double-print through the stdlib root logger.
    root.propagate = False
    return root
