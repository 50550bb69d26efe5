"""Run-time knobs: size caps and witness policy."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CapExceeded

__all__ = ["Config", "DEFAULT", "get_config", "set_config", "check_cap"]


@dataclass(frozen=True)
class Config:
    """Immutable configuration bundle.  Every check runs exhaustively;
    ``exhaustive_witnesses`` lists every failing cell of a law instead of
    the lexicographically-first one."""

    cap_group: int = 64
    cap_ring: int = 16
    exhaustive_witnesses: bool = False

    def __post_init__(self) -> None:
        if self.cap_group < 1 or self.cap_ring < 1:
            raise ValueError("caps must be positive")


DEFAULT = Config()
_current = DEFAULT


def get_config() -> Config:
    return _current


def set_config(cfg: Config | None = None, **overrides) -> Config:
    """Install a new process-wide config; returns it.  Keyword form patches
    the current one, e.g. ``set_config(exhaustive_witnesses=True)``."""
    global _current
    _current = replace(_current, **overrides) if cfg is None else cfg
    return _current


def check_cap(what: str, size: int, cap: int) -> None:
    if size > cap:
        raise CapExceeded(what, size, cap)
