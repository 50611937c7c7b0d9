"""Per-architecture toolchains and the ``make.cross`` availability matrix.

The paper reports that the ``make.cross`` script supports 34
architectures of which the authors could make 24 work (§II-A, footnote 3).
We reproduce that matrix exactly: requesting a broken toolchain raises
:class:`ToolchainError`, which the evaluation counts the same way the
paper counts "unsupported architecture required".

Each :class:`Architecture` carries the properties that make compilation
architecture-dependent in the substrate:

- ``builtin_macros`` — the ``__arch__``-style predefines plus word-size
  macros, referenced by arch-conditional source;
- ``include_roots`` — ordered include search paths; ``asm/...`` headers
  resolve only under the owning architecture's root, so a driver that
  needs another architecture's headers fails to preprocess natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import ToolchainError

#: Architectures make.cross supports and the authors made work (§II-A).
WORKING_ARCHITECTURES: tuple[str, ...] = (
    "i386", "x86_64", "alpha", "arm", "avr32", "blackfin", "cris", "ia64",
    "m32r", "m68k", "microblaze", "mips", "mn10300", "openrisc", "parisc",
    "powerpc", "s390", "sh", "sparc", "sparc64", "tile", "tilegx", "um",
    "xtensa",
)

#: Architectures make.cross lists but that failed for the authors.
BROKEN_ARCHITECTURES: tuple[str, ...] = (
    "arm64", "c6x", "frv", "h8300", "hexagon", "score", "sh64", "sparc32",
    "tilepro", "unicore32",
)

#: Map from an architecture name to the arch/ subdirectory that owns it
#: (several names share a directory, e.g. i386/x86_64 -> arch/x86).
ARCH_DIRECTORY: dict[str, str] = {
    "i386": "x86",
    "x86_64": "x86",
    "sparc64": "sparc",
    "tilegx": "tile",
}


def arch_directory(name: str) -> str:
    """The arch/ subdirectory for a toolchain name."""
    return ARCH_DIRECTORY.get(name, name)


@dataclass(frozen=True)
class Architecture:
    """One buildable target; immutable, so registries can share it."""

    name: str
    bits: int = 64
    builtin_macros: Mapping[str, str] = field(default_factory=dict)
    include_roots: tuple[str, ...] = ()
    works: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "builtin_macros",
                           MappingProxyType(dict(self.builtin_macros)))

    def __reduce__(self):
        # mappingproxy objects refuse to pickle: rebuild from a dict
        return (Architecture, (self.name, self.bits,
                               dict(self.builtin_macros),
                               self.include_roots, self.works))

    @property
    def directory(self) -> str:
        """The arch/ subdirectory owning this target."""
        return arch_directory(self.name)

    def predefines(self) -> dict[str, str]:
        """All compiler-level predefined macros for this target."""
        macros = {
            "__KERNEL__": "1",
            f"__{self.name}__": "1",
            "__GNUC__": "4",
            "BITS_PER_LONG": str(self.bits),
        }
        if self.bits == 64:
            macros["__LP64__"] = "1"
        macros.update(self.builtin_macros)
        return macros


def _default_architecture(name: str, works: bool) -> Architecture:
    directory = arch_directory(name)
    bits = 64 if name in ("x86_64", "alpha", "ia64", "powerpc", "s390",
                          "sparc64", "tilegx", "mips") else 32
    return Architecture(
        name=name,
        bits=bits,
        include_roots=(
            f"arch/{directory}/include",
            "include",
        ),
        works=works,
    )


#: The make.cross matrix, built once per process and shared by every
#: default registry (an :class:`Architecture` is immutable).
_DEFAULT_ARCHITECTURES: tuple[Architecture, ...] = tuple(
    [_default_architecture(name, works=True)
     for name in WORKING_ARCHITECTURES]
    + [_default_architecture(name, works=False)
       for name in BROKEN_ARCHITECTURES])


class ToolchainRegistry:
    """All toolchains known to ``make.cross``, working or not.

    ``host`` names the architecture of the developer's machine — the
    paper's experiments ran on x86_64 and JMake tries a plain ``make``
    (native toolchain) first. Each registry holds its own name table,
    so :meth:`register` on one is never seen by another.
    """

    def __init__(self, host: str = "x86_64",
                 architectures: list[Architecture] | None = None) -> None:
        if architectures is None:
            # the tables' values are immutable, so shallow copies keep
            # register per registry
            self._architectures = dict(_DEFAULT_TABLES._architectures)
            self._by_directory = dict(_DEFAULT_TABLES._by_directory)
        else:
            self._architectures: dict[str, Architecture] = {}
            #: arch/ subdirectory -> its toolchains, registration order
            self._by_directory: dict[str, tuple[Architecture, ...]] = {}
            for architecture in architectures:
                self.register(architecture)
        if host not in self._architectures:
            raise ToolchainError(f"unknown host architecture: {host}")
        self._host = host

    def register(self, architecture: Architecture) -> None:
        """Add or replace a toolchain."""
        self._architectures[architecture.name] = architecture
        directory = architecture.directory
        self._by_directory[directory] = tuple(
            arch for arch in self._architectures.values()
            if arch.directory == directory)

    @property
    def host(self) -> Architecture:
        """The developer machine's architecture (tried first)."""
        return self._architectures[self._host]

    def names(self) -> list[str]:
        """All known toolchain names, working or not."""
        return sorted(self._architectures)

    def working_names(self) -> list[str]:
        """Names with a working cross-compiler (24 in the paper)."""
        return sorted(name for name, arch in self._architectures.items()
                      if arch.works)

    def get(self, name: str) -> Architecture:
        """A *working* toolchain, or ToolchainError.

        Broken toolchains raise the same way a failing make.cross install
        surfaces in the paper's pipeline.
        """
        architecture = self._architectures.get(name)
        if architecture is None:
            raise ToolchainError(f"unknown architecture: {name}")
        if not architecture.works:
            raise ToolchainError(
                f"cross-compilation for {name} is unavailable "
                f"(make.cross failure)")
        return architecture

    def for_directory(self, directory: str) -> list[Architecture]:
        """Working toolchains whose arch/ subdirectory is ``directory``.

        ``arch/x86`` maps to both i386 and x86_64, for example.
        """
        return [arch for arch in self._by_directory.get(directory, ())
                if arch.works]


#: the tables every default registry starts from a copy of
_DEFAULT_TABLES = ToolchainRegistry(architectures=_DEFAULT_ARCHITECTURES)
