"""``.config`` files and the autoconf macro set.

A :class:`Config` is one concrete assignment of tristate values (plus
int/string values) to symbols, parsed from the kernel's ``.config``
format by :func:`parse_config_text`. It exposes
:meth:`Config.autoconf_macros`, the macro set the build system injects
into every compilation (the stand-in for ``include/generated/autoconf.h``):

- ``CONFIG_FOO=y``  → ``CONFIG_FOO`` defined as ``1``
- ``CONFIG_FOO=m``  → ``CONFIG_FOO_MODULE`` defined as ``1`` (and the
  build adds ``MODULE`` when compiling that unit as a module, which is
  what makes ``#ifdef MODULE`` code invisible to allyesconfig — Table IV)
- ``CONFIG_FOO=n``  → nothing defined
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import KconfigError
from repro.kconfig.ast import Tristate


@dataclass
class Config:
    """One concrete configuration."""

    name: str = ".config"
    values: dict[str, Tristate] = field(default_factory=dict)
    scalar_values: dict[str, str] = field(default_factory=dict)

    def tristate(self, symbol: str) -> Tristate:
        """The symbol's value; N when unset."""
        return self.values.get(symbol, Tristate.N)

    def enabled(self, symbol: str) -> bool:
        """True for y or m."""
        return self.tristate(symbol) != Tristate.N

    def builtin(self, symbol: str) -> bool:
        """True for =y."""
        return self.tristate(symbol) == Tristate.Y

    def modular(self, symbol: str) -> bool:
        """True for =m."""
        return self.tristate(symbol) == Tristate.M

    def set(self, symbol: str, value: Tristate) -> None:
        """Assign a tristate value."""
        self.values[symbol] = value
        self.__dict__.pop("_content_digest", None)

    def content_digest(self) -> str:
        """Digest of the value assignment, independent of the name.

        The build cache keys preprocessing environments with this, so
        two configurations that assign identical values share cache
        entries whatever they are called. Memoized on the instance;
        :meth:`set` drops the memo, but callers mutating ``values`` or
        ``scalar_values`` directly must not have called this before.
        """
        digest = self.__dict__.get("_content_digest")
        if digest is None:
            hasher = hashlib.sha256()
            for symbol in sorted(self.values):
                hasher.update(
                    f"{symbol}={self.values[symbol].letter};".encode())
            for symbol in sorted(self.scalar_values):
                hasher.update(
                    f"{symbol}:{self.scalar_values[symbol]};".encode())
            digest = hasher.hexdigest()[:16]
            self.__dict__["_content_digest"] = digest
        return digest

    def enabled_count(self) -> int:
        """Number of symbols set to y or m."""
        return sum(1 for value in self.values.values()
                   if value != Tristate.N)

    # -- autoconf ----------------------------------------------------------

    def autoconf_macros(self) -> dict[str, str]:
        """The macro set equivalent to include/generated/autoconf.h."""
        macros: dict[str, str] = {}
        for symbol, value in self.values.items():
            if value == Tristate.Y:
                macros[f"CONFIG_{symbol}"] = "1"
            elif value == Tristate.M:
                macros[f"CONFIG_{symbol}_MODULE"] = "1"
        for symbol, scalar in self.scalar_values.items():
            macros[f"CONFIG_{symbol}"] = scalar
        return macros


def parse_config_text(text: str, *, name: str = ".config") -> Config:
    """Parse ``.config``/defconfig text.

    Recognizes ``CONFIG_FOO=y|m|n``, ``# CONFIG_FOO is not set``,
    ``CONFIG_FOO=123`` and ``CONFIG_FOO="str"``.
    """
    config = Config(name=name)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.endswith("is not set") and body.startswith("CONFIG_"):
                symbol = body[len("CONFIG_"):-len("is not set")].strip()
                config.values[symbol] = Tristate.N
            continue
        if not line.startswith("CONFIG_") or "=" not in line:
            raise KconfigError(f"{name}:{lineno}: bad config line {raw!r}")
        key, _, value = line.partition("=")
        symbol = key[len("CONFIG_"):]
        value = value.strip()
        if value in ("y", "m", "n"):
            config.values[symbol] = Tristate.from_letter(value)
        elif value.startswith('"'):
            config.scalar_values[symbol] = value.strip('"')
        else:
            config.scalar_values[symbol] = value
    return config
