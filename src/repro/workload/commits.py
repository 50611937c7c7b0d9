"""The synthetic commit stream.

Generates a history over a generated tree, commit by commit, with:

- persona-weighted authorship (janitors breadth-first and uniform across
  files, maintainers depth-first and skewed — which is exactly what the
  §IV file-cv ranking keys on);
- change shapes drawn from each persona's Table III mixture, including
  the ignorable population (docs-only, whitespace-only, merges) that
  §V-A filters out;
- compile-safe edits produced through :class:`SourceAnatomy`
  (numeric bumps, statement insertion/removal, comment edits), aimed at
  ordinary code, macro bodies, comments, or hazard blocks;
- full ground truth per commit for the evaluation harness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from repro.kernel.generator import GeneratedTree
from repro.kernel.layout import HazardKind
from repro.util.rng import DeterministicRng
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import Repository
from repro.workload.anatomy import SourceAnatomy, bump_number
from repro.workload.personas import Persona, PersonaKind


@dataclass
class FileEdit:
    """Ground truth for one edited file in one commit."""
    path: str
    edit_kind: str                      # code|macro|comment|hazard|header
    hazard_kind: HazardKind | None = None


@dataclass
class CommitMetadata:
    """Ground truth for one generated commit."""
    commit_id: str
    author: Persona
    shape: str                          # c_only|h_only|both|docs|ws|merge
    edits: list[FileEdit] = field(default_factory=list)

    @property
    def is_ignorable(self) -> bool:
        """True for docs-only/whitespace-only/merge commits."""
        return self.shape in ("docs", "ws", "merge")

    def hazard_kinds(self) -> list[HazardKind]:
        """Hazard kinds this commit's edits touched."""
        return [edit.hazard_kind for edit in self.edits
                if edit.hazard_kind is not None]


class CommitStreamGenerator:
    """Produces the synthetic history, persona by persona."""
    def __init__(self, tree: GeneratedTree, roster: list[Persona],
                 rng: DeterministicRng) -> None:
        self._tree = tree
        self._roster = roster
        self._rng = rng
        self._files = dict(tree.files)
        self._date = datetime(2011, 7, 22)   # just after Linux v3.0
        self._counter = 0
        self._c_files = [path for path in sorted(tree.info)
                         if tree.info[path].kind in ("driver_c", "core_c")]
        self._arch_c_files = [path for path in sorted(tree.info)
                              if tree.info[path].kind == "arch_c"]
        self._h_files = [path for path in sorted(tree.info)
                         if tree.info[path].kind in ("subsys_header",
                                                     "shared_header")]
        #: the tree of the last commit made; each commit's tree is
        #: built from it with ``with_files``
        self._snapshot = Tree(self._files)
        #: path -> its latest scan, reused while the text is that object
        self._anatomies: dict[str, SourceAnatomy] = {}
        #: one ``_candidate_c_files`` list per persona (not per email:
        #: two personas may share an address)
        self._candidates: dict[Persona, list[str]] = {}

    # -- public ------------------------------------------------------------

    def generate(self, repository: Repository,
                 count: int) -> list[CommitMetadata]:
        """Append `count` commits to the repository."""
        metadata: list[CommitMetadata] = []
        weights = [persona.weight for persona in self._roster]
        for _ in range(count):
            persona = self._rng.weighted_choice(self._roster, weights)
            metadata.append(self._one_commit(repository, persona))
        return metadata

    def scripted_edit(self, repository: Repository, persona: Persona,
                      path: str) -> CommitMetadata:
        """One commit bumping a number in a specific file.

        Used to guarantee coverage of rare populations: the bootstrap
        files of §V-D and the whole-kernel-rebuild outlier of Fig. 4c.
        """
        anatomy = self._scan(path)
        target_lines = anatomy.code_lines or anatomy.macro_lines
        new_text = None
        if target_lines:
            new_text = anatomy.bump_number(self._rng.choice(target_lines))
        if new_text is None:
            # fall back to a raw numeric bump anywhere in the file
            for lineno in range(1, self._files[path].count("\n") + 2):
                new_text = anatomy.bump_number(lineno)
                if new_text is not None:
                    break
        edits: list[FileEdit] = []
        if new_text is not None:
            self._files[path] = new_text
            edits.append(FileEdit(path=path, edit_kind="code"))
        commit = repository.commit(
            self._commit_tree(), self._signature(persona),
            f"{path}: scripted update")
        return CommitMetadata(
            commit_id=commit.id, author=persona,
            shape="c_only" if edits else "ws", edits=edits)

    # -- commit construction ---------------------------------------------------

    def _one_commit(self, repository: Repository,
                    persona: Persona) -> CommitMetadata:
        shape = self._draw_shape(persona)
        edits: list[FileEdit] = []
        if shape == "merge" and len(repository) >= 2:
            return self._merge_commit(repository, persona)
        if shape == "docs":
            self._edit_docs()
        elif shape == "ws":
            self._edit_whitespace(persona)
        elif shape == "c_only":
            edits = self._edit_c_files(persona)
        elif shape == "h_only":
            edits = self._edit_header(persona)
        elif shape == "both":
            edits = self._edit_header_and_c(persona)

        if shape in ("c_only", "h_only", "both"):
            # An edit may have fallen back (e.g. no header candidate), so
            # re-derive the shape from what actually changed.
            has_h = any(edit.path.endswith(".h") for edit in edits)
            has_c = any(edit.path.endswith(".c") for edit in edits)
            if has_h and has_c:
                shape = "both"
            elif has_h:
                shape = "h_only"
            elif has_c:
                shape = "c_only"

        commit = repository.commit(
            self._commit_tree(), self._signature(persona),
            self._subject(persona, shape, edits))
        record = CommitMetadata(commit_id=commit.id, author=persona,
                                shape=shape, edits=edits)
        return record

    def _merge_commit(self, repository: Repository,
                      persona: Persona) -> CommitMetadata:
        head = repository.head()
        other = head.parents[0] if head.parents else head.id
        commit = repository.commit(
            self._commit_tree(), self._signature(persona),
            "Merge branch 'for-linus'",
            parents=(head.id, other) if other != head.id
            else (head.id,))
        return CommitMetadata(commit_id=commit.id, author=persona,
                              shape="merge")

    def _commit_tree(self) -> Tree:
        """The files as edited so far, as the next commit's tree."""
        self._snapshot = self._snapshot.with_files(self._files)
        return self._snapshot

    def _scan(self, path: str) -> SourceAnatomy:
        """The anatomy of the path's current text, scanned once per
        text object."""
        text = self._files[path]
        anatomy = self._anatomies.get(path)
        if anatomy is None or anatomy.text is not text:
            anatomy = self._anatomies[path] = SourceAnatomy.scan(path, text)
        return anatomy

    def _signature(self, persona: Persona) -> Signature:
        self._date += timedelta(hours=3)
        return Signature(name=persona.name, email=persona.email,
                         date=self._date.isoformat())

    def _subject(self, persona: Persona, shape: str,
                 edits: list[FileEdit]) -> str:
        self._counter += 1
        target = edits[0].path if edits else shape
        return f"{target}: update #{self._counter}"

    # -- shape selection ---------------------------------------------------------

    def _draw_shape(self, persona: Persona) -> str:
        mixture = persona.mixture
        roll = self._rng.random()
        if roll < mixture.c_only:
            return "c_only"
        roll -= mixture.c_only
        if roll < mixture.h_only:
            return "h_only"
        roll -= mixture.h_only
        if roll < mixture.both:
            return "both"
        ignorable = self._rng.random()
        if ignorable < 0.55:
            return "docs"
        if ignorable < 0.85:
            return "ws"
        return "merge"

    # -- file selection -----------------------------------------------------------

    def _candidate_c_files(self, persona: Persona) -> list[str]:
        """The .c files under the persona's home subsystems, or every
        one when none is there."""
        files = self._candidates.get(persona)
        if files is None:
            files = self._candidates[persona] = [
                path for path in self._c_files
                if any(path.startswith(home + "/")
                       for home in persona.home_subsystems)] or self._c_files
        return files

    def _pick_c_file(self, persona: Persona) -> str:
        if self._rng.bernoulli(persona.arch_rate) and self._arch_c_files:
            return self._rng.choice(self._arch_c_files)
        files = self._candidate_c_files(persona)
        if persona.kind is PersonaKind.JANITOR:
            # breadth-first and uniform: low file-cv
            return self._rng.choice(files)
        # depth-first: zipf-skewed toward a few favourite files
        rank = self._rng.zipf_rank(len(files), skew=1.3)
        return files[rank]

    def _pick_header(self, persona: Persona) -> str:
        if persona.home_subsystems:
            headers = [path for path in self._h_files
                       if any(path.startswith(home + "/")
                              for home in persona.home_subsystems)]
            if headers:
                return self._rng.choice(headers)
        return self._rng.choice(self._h_files)

    # -- edits -------------------------------------------------------------------

    def _edit_c_files(self, persona: Persona) -> list[FileEdit]:
        count = 1 + (self._rng.randint(0, persona.max_files - 1)
                     if persona.max_files > 1 else 0)
        edits: list[FileEdit] = []
        chosen: set[str] = set()
        for _ in range(count):
            path = self._pick_c_file(persona)
            if path in chosen:
                continue
            chosen.add(path)
            edit = self._edit_one_c(path, persona)
            if edit is not None:
                edits.append(edit)
        if not edits:
            # guarantee at least one edit so the commit is a modification
            edit = self._edit_one_c(self._c_files[0], persona)
            if edit is not None:
                edits.append(edit)
        return edits

    def _edit_one_c(self, path: str, persona: Persona) -> FileEdit | None:
        if self._rng.bernoulli(persona.hazard_rate):
            # Aim the change at a file that actually carries a hazard
            # block; otherwise the effective rate collapses to the small
            # fraction of files with hazards.
            hazard_path = self._pick_hazard_file(persona) or path
            hazard_anatomy = self._scan(hazard_path)
            hazard_edit = self._try_hazard_edit(hazard_path, hazard_anatomy)
            if hazard_edit is not None:
                return hazard_edit
        anatomy = self._scan(path)
        if self._rng.bernoulli(0.05):
            sweep = self._macro_sweep(path, anatomy)
            if sweep is not None:
                return sweep
        if self._rng.bernoulli(persona.comment_rate) \
                and anatomy.comment_lines:
            lineno = self._rng.choice(anatomy.comment_lines)
            new_text = anatomy.edit_comment(lineno, f"r{self._counter}")
            if new_text is not None:
                self._files[path] = new_text
                return FileEdit(path=path, edit_kind="comment")
        if self._rng.bernoulli(0.25) and anatomy.macro_lines:
            lineno = self._rng.choice(anatomy.macro_lines)
            new_text = anatomy.bump_number(lineno)
            if new_text is not None:
                self._files[path] = new_text
                return FileEdit(path=path, edit_kind="macro")
        if anatomy.code_lines:
            lineno = self._rng.choice(anatomy.code_lines)
            if self._rng.bernoulli(0.3):
                new_text = anatomy.insert_statement_after(
                    lineno, f"status = status + {self._rng.randint(1, 5)};")
            else:
                new_text = anatomy.bump_number(lineno)
            if new_text is not None:
                self._files[path] = new_text
                # Occasionally also touch a macro in the same file: the
                # changes then span two mutation groups (E-S2's ≤3 tail).
                if self._rng.bernoulli(0.15) and anatomy.macro_lines:
                    extra = self._scan(path)
                    if extra.macro_lines:
                        wider = extra.bump_number(
                            self._rng.choice(extra.macro_lines))
                        if wider is not None:
                            self._files[path] = wider
                return FileEdit(path=path, edit_kind="code")
        if anatomy.macro_lines:
            lineno = self._rng.choice(anatomy.macro_lines)
            new_text = anatomy.bump_number(lineno)
            if new_text is not None:
                self._files[path] = new_text
                return FileEdit(path=path, edit_kind="macro")
        return None

    def _pick_hazard_file(self, persona: Persona) -> str | None:
        candidates = [path for path in self._candidate_c_files(persona)
                      if self._tree.info[path].hazards]
        if not candidates:
            candidates = [path for path in self._c_files
                          if self._tree.info[path].hazards]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _macro_sweep(self, path: str,
                     anatomy: SourceAnatomy) -> FileEdit | None:
        """Bump every macro definition in the file: many mutations (the
        drivers/clk/bcm analogue of §V-B, scaled down)."""
        if len(anatomy.macro_lines) < 2:
            return None
        text = self._files[path]
        changed = False
        for lineno in anatomy.macro_lines:
            bumped = bump_number(text, lineno)
            if bumped is not None:
                text = bumped
                changed = True
        if not changed:
            return None
        self._files[path] = text
        return FileEdit(path=path, edit_kind="macro")

    def _try_hazard_edit(self, path: str,
                         anatomy: SourceAnatomy) -> FileEdit | None:
        available = sorted(anatomy.available_hazards(),
                           key=lambda kind: kind.value)
        if not available:
            return None
        kind = self._rng.choice(available)
        if kind is HazardKind.IFDEF_AND_ELSE:
            pairs = anatomy.ifdef_else_pairs()
            block = self._rng.choice(pairs)
            body_numeric = [l for l in block.body_lines
                            if anatomy.bump_number(l) is not None]
            else_numeric = [l for l in block.else_lines
                            if anatomy.bump_number(l) is not None]
            if not body_numeric or not else_numeric:
                return None
            text = anatomy.bump_number(self._rng.choice(body_numeric))
            text = bump_number(text, self._rng.choice(else_numeric))
            if text is None:
                return None
            self._files[path] = text
            return FileEdit(path=path, edit_kind="hazard",
                            hazard_kind=kind)
        lines = anatomy.hazard_lines(kind)
        candidates = [l for l in lines
                      if anatomy.bump_number(l) is not None]
        if not candidates:
            return None
        new_text = anatomy.bump_number(self._rng.choice(candidates))
        self._files[path] = new_text
        return FileEdit(path=path, edit_kind="hazard", hazard_kind=kind)

    def _edit_header(self, persona: Persona) -> list[FileEdit]:
        path = self._pick_header(persona)
        anatomy = self._scan(path)
        info = self._tree.info.get(path)
        lines = self._files[path].split("\n")

        def is_used_macro_line(lineno: int) -> bool:
            if info is None or not info.used_macros:
                return True
            text = lines[lineno - 1]
            return any(name in text for name in info.used_macros)

        used = [l for l in anatomy.macro_lines if is_used_macro_line(l)]
        other = [l for l in anatomy.macro_lines if l not in used]
        # Mostly edit macros some .c file actually uses (coverable);
        # occasionally an orphan — the population the .h pipeline can
        # never certify (§V-B's 2%).
        ordered: list[int] = []
        if used and (not other or self._rng.random() < 0.92):
            ordered = [self._rng.choice(used)]
        elif other:
            ordered = [self._rng.choice(other)]
        edits: list[FileEdit] = []
        self._last_header_macro = None
        for lineno in ordered:
            new_text = anatomy.bump_number(lineno)
            if new_text is not None:
                self._files[path] = new_text
                match = re.match(r"\s*#\s*define\s+(\w+)",
                                 lines[lineno - 1])
                if match:
                    self._last_header_macro = match.group(1)
                edits.append(FileEdit(path=path, edit_kind="header"))
                break
        if edits and used and self._rng.bernoulli(0.25):
            # A second macro in the same header: multi-mutation .h
            # instances (E-S2's "75% need only one" shape).
            rescan = self._scan(path)
            extra = [l for l in rescan.macro_lines
                     if is_used_macro_line(l)]
            if extra:
                wider = rescan.bump_number(self._rng.choice(extra))
                if wider is not None:
                    self._files[path] = wider
        if not edits and anatomy.code_lines:
            lineno = self._rng.choice(anatomy.code_lines)
            new_text = anatomy.bump_number(lineno)
            if new_text is not None:
                self._files[path] = new_text
                edits.append(FileEdit(path=path, edit_kind="header"))
        return edits

    def _edit_header_and_c(self, persona: Persona) -> list[FileEdit]:
        header_edits = self._edit_header(persona)
        if not header_edits:
            return self._edit_c_files(persona)
        header_path = header_edits[0].path
        # Prefer a .c file that includes the header: the common case
        # where compiling the patch's own .c files covers the header.
        basename = header_path.rsplit("/", 1)[-1]
        includers = [path for path in self._c_files
                     if f'"{basename}"' in self._files[path]
                     or f"/{basename}>" in self._files[path]]
        # Prefer users of the macro the header edit just changed — the
        # natural shape of a combined .h+.c patch, and the reason §V-B
        # finds 66% of .h instances covered by the patch's own .c files.
        macro = getattr(self, "_last_header_macro", None)
        if macro:
            users = [path for path in includers
                     if macro in self._files[path]]
            if users:
                includers = users
        if includers and self._rng.bernoulli(0.92):
            c_path = self._rng.choice(includers)
        else:
            c_path = self._pick_c_file(persona)
        c_edit = self._edit_one_c(c_path, persona)
        if c_edit is not None:
            header_edits.append(c_edit)
        return header_edits

    def _edit_docs(self) -> None:
        path = "Documentation/CodingStyle"
        self._files[path] = self._files[path] + \
            f"\nRevision note {self._counter}.\n"

    def _edit_whitespace(self, persona: Persona) -> None:
        path = self._pick_c_file(persona)
        text = self._files[path]
        if "\treturn" in text:
            self._files[path] = text.replace("\treturn", "\t return", 1)
        else:
            self._files[path] = text.replace("\t", "\t ", 1)
