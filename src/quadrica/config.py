"""Run-time knobs: size caps, verification profile, witness policy."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CapExceeded

__all__ = ["Config", "DEFAULT", "get_config", "set_config", "check_cap"]


@dataclass(frozen=True)
class Config:
    """Immutable configuration bundle.

    profile "debug" runs every cross-check exhaustively; "release" keeps the
    primary route exhaustive and runs secondary routes on a deterministic
    index-stride sample of rate ``sample_rate`` (1 = everything, k = every
    k-th tuple).
    """

    cap_group: int = 64
    cap_ring: int = 16
    profile: str = "debug"
    sample_rate: int = 7
    exhaustive_witnesses: bool = False

    def __post_init__(self) -> None:
        if self.profile not in ("debug", "release"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.cap_group < 1 or self.cap_ring < 1 or self.sample_rate < 1:
            raise ValueError("caps and sample_rate must be positive")


DEFAULT = Config()
_current = DEFAULT


def get_config() -> Config:
    return _current


def set_config(cfg: Config | None = None, **overrides) -> Config:
    """Install a new process-wide config; returns it.  Keyword form patches
    the current one, e.g. ``set_config(profile="release")``."""
    global _current
    _current = replace(_current, **overrides) if cfg is None else cfg
    return _current


def check_cap(what: str, size: int, cap: int) -> None:
    if size > cap:
        raise CapExceeded(what, size, cap)
