"""Author behaviour models.

§IV characterizes a janitor as a developer who "works on the code base in
a breadth-first way, touching many files and many subsystems, and doing
about the same small amount of work on each one". Maintainers work
depth-first on one subsystem. The roster mirrors Table II: ten janitor
personas (named after the developers the paper identifies), one
maintainer per subsystem, and a population of regular developers.

Change-type mixtures are calibrated to Table III: for the overall stream
roughly 70% .c-only / 5% .h-only / 23% both (plus a remainder of
ignorable commits); janitors skew to 87% / 2% / 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PersonaKind(Enum):
    """Author archetypes (§IV)."""
    JANITOR = "janitor"
    MAINTAINER = "maintainer"
    REGULAR = "regular"


@dataclass(frozen=True)
class ChangeMixture:
    """Probabilities of per-commit change shapes; the remainder is
    ignorable (docs-only / whitespace-only / merge)."""

    c_only: float
    h_only: float
    both: float

    @property
    def ignorable(self) -> float:
        """The remainder: docs/whitespace/merge commits."""
        return max(0.0, 1.0 - self.c_only - self.h_only - self.both)


@dataclass(frozen=True)
class Persona:
    """One author's behavioural parameters."""
    name: str
    email: str
    kind: PersonaKind
    #: relative volume of commits this persona contributes
    weight: float = 1.0
    #: subsystem paths the persona concentrates on (empty = everywhere)
    home_subsystems: tuple[str, ...] = ()
    mixture: ChangeMixture = ChangeMixture(0.70, 0.05, 0.23)
    #: probability a change lands on configurability-hazard lines
    hazard_rate: float = 0.03
    #: probability a change is comment-only
    comment_rate: float = 0.04
    #: probability of touching an arch/ file
    arch_rate: float = 0.05
    #: files per commit (lognormal-ish; 1..max)
    max_files: int = 4
    #: developer of static-analysis tools ("(T)" in Table II)
    tool_user: bool = False
    #: internship applicant ("(I)" in Table II)
    intern: bool = False


#: The ten janitors of Table II, with their annotations.
JANITOR_NAMES: list[tuple[str, bool, bool]] = [
    ("Javier Martinez Canillas", False, False),
    ("Luis de Bethencourt", False, False),
    ("Dan Carpenter", True, False),
    ("Julia Lawall", True, False),
    ("Shraddha Barke", False, True),
    ("Joe Perches", True, False),
    ("Axel Lin", False, False),
    ("Daniel Borkmann", False, False),
    ("Fabio Estevam", False, False),
    ("Jarkko Nikula", False, False),
]

# Mixtures are over ALL commits; the ignorable remainder models the 16%
# of commits the evaluation drops (merges, whitespace-only, docs-only —
# 2099 of 12,946 in §V-A). Within the *considered* commits the ratios
# reproduce Table III: e.g. janitors 0.80/0.92 ≈ 87% .c-only.
_JANITOR_MIXTURE = ChangeMixture(c_only=0.80, h_only=0.018, both=0.092)
_MAINTAINER_MIXTURE = ChangeMixture(c_only=0.52, h_only=0.055, both=0.235)
_REGULAR_MIXTURE = ChangeMixture(c_only=0.58, h_only=0.042, both=0.195)


def _email_of(name: str) -> str:
    slug = name.lower().replace(" ", ".")
    return f"{slug}@example.org"


def default_roster(subsystems: list,
                   regular_developers: int = 40) -> list[Persona]:
    """The standard author population for the evaluation corpus.

    ``subsystems`` holds either plain path strings or
    :class:`repro.kernel.layout.SubsystemSpec` objects; specs let the
    maintainer personas reuse the exact identities MAINTAINERS lists,
    which is what makes the Table I maintainer-share filter bite.
    """
    subsystem_paths: list[str] = []
    maintainer_identity: dict[str, tuple[str, str]] = {}
    for item in subsystems:
        if isinstance(item, str):
            path = item
            identity = (f"Maintainer of {path}",
                        f"maint-{path.replace('/', '-')}@example.org")
        else:
            path = item.path
            identity = (item.maintainer.split("<", 1)[0].strip(),
                        item.maintainer.split("<", 1)[1].rstrip(">").strip())
        subsystem_paths.append(path)
        maintainer_identity[path] = identity
    roster: list[Persona] = []
    # Janitor weights vary the way Table II patch counts do.
    janitor_weights = [1.0, 0.9, 6.0, 3.0, 1.2, 4.5, 4.2, 1.0, 3.4, 1.4]
    for (name, tool_user, intern), weight in zip(JANITOR_NAMES,
                                                 janitor_weights):
        roster.append(Persona(
            name=name, email=_email_of(name), kind=PersonaKind.JANITOR,
            weight=weight,
            mixture=_JANITOR_MIXTURE,
            hazard_rate=0.07,
            comment_rate=0.06,
            arch_rate=0.03,
            max_files=3,
            tool_user=tool_user, intern=intern,
        ))
    for path in subsystem_paths:
        maintainer_name, maintainer_email = maintainer_identity[path]
        roster.append(Persona(
            name=maintainer_name,
            email=maintainer_email,
            kind=PersonaKind.MAINTAINER,
            weight=2.2,
            home_subsystems=(path,),
            mixture=_MAINTAINER_MIXTURE,
            hazard_rate=0.085,
            comment_rate=0.03,
            arch_rate=0.02,
            max_files=5,
        ))
    for index in range(regular_developers):
        roster.append(Persona(
            name=f"Developer {index:02d}",
            email=f"dev{index:02d}@example.org",
            kind=PersonaKind.REGULAR,
            weight=1.0,
            home_subsystems=tuple(
                subsystem_paths[index % len(subsystem_paths):
                                index % len(subsystem_paths) + 2]),
            mixture=_REGULAR_MIXTURE,
            hazard_rate=0.085,
            comment_rate=0.04,
            arch_rate=0.08,
            max_files=4,
        ))
    return roster
