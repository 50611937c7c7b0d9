"""The ``.h`` file pipeline (§III-E).

A header cannot be compiled directly, so JMake selects ``.c`` files
likely to exercise the changed lines:

- files that ``#include`` the header directly;
- files that refer to the names of the changed macros (the *hints*);
- ordered: include + all hints, then all hints, then the rest;
- headers under ``arch/<d>/`` are only relevant to ``.c`` files in the
  same arch subtree or outside ``arch/`` entirely;
- when more than ``candidate_cap`` (default 100, user-configurable)
  files qualify, only allyesconfig-based configurations are used — the
  cost/false-positive trade-off §III-E measures (23 of 21012 instances).

The search runs a regex over a file only when the regex's literal part
(the header basename, or the hint) occurs in the text: every match
contains it, so the test skips no match and most files cost one
substring search per regex.

Candidates are compiled "as though they all occurred in the same patch
but without mutations" of their own: only the header's tokens are being
hunted. Success: every header token appears in the ``.i`` of at least
one candidate that also compiles cleanly.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass
from typing import Callable

from repro.core.archselect import ArchSelector
from repro.core.cfile import StepFailure, try_certify, try_make_config
from repro.core.mutation import MutationOverlay, MutationPlan
from repro.core.report import ArchAttempt, FileReport, FileStatus
from repro.kbuild.build import BuildSystem
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.vcs.repository import Worktree

IGNORED_PREFIXES = ("Documentation/", "scripts/", "tools/")


@dataclass
class CandidateCFile:
    """A .c file that may exercise the changed header (§III-E)."""
    path: str
    includes_header: bool
    hint_count: int
    total_hints: int

    @property
    def priority(self) -> int:
        """0 best: include + all hints; 1: all hints; 2: the rest."""
        all_hints = self.total_hints > 0 and \
            self.hint_count == self.total_hints
        if self.includes_header and (all_hints or self.total_hints == 0):
            return 0
        if all_hints:
            return 1
        return 2


class HFileProcessor:
    """Drives the §III-E pipeline for one changed header."""
    def __init__(self, build_system: BuildSystem, selector: ArchSelector,
                 path_lister: Callable[[], list[str]],
                 provider: Callable[[str], "str | None"],
                 *, batch_limit: int = 50,
                 candidate_cap: int = 100,
                 tracer=None, metrics=None) -> None:
        self._build = build_system
        self._selector = selector
        self._paths = path_lister
        self._provider = provider
        self._batch_limit = max(1, batch_limit)
        self._candidate_cap = candidate_cap
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS

    # -- candidate selection ---------------------------------------------------

    def candidates_for(self, plan: MutationPlan) -> list[CandidateCFile]:
        """Includers and hint-referencing .c files, priority ordered."""
        header_path = plan.path
        basename = posixpath.basename(header_path)
        hints = plan.macro_hints
        hint_res = [(hint, re.compile(rf"\b{re.escape(hint)}\b"))
                    for hint in hints]
        include_re = re.compile(
            rf'#\s*include\s+["<](?:[^">]*/)?{re.escape(basename)}[">]')

        header_arch = _arch_of(header_path)
        found: list[CandidateCFile] = []
        for path in self._paths():
            if not path.endswith(".c") or path.startswith(IGNORED_PREFIXES):
                continue
            candidate_arch = _arch_of(path)
            if header_arch is not None and candidate_arch is not None \
                    and candidate_arch != header_arch:
                continue
            text = self._provider(path)
            if text is None:
                continue
            includes = basename in text \
                and include_re.search(text) is not None
            hit_count = sum(1 for hint, hint_re in hint_res
                            if hint in text and hint_re.search(text))
            if includes or hit_count > 0:
                found.append(CandidateCFile(
                    path=path, includes_header=includes,
                    hint_count=hit_count, total_hints=len(hints)))
        found.sort(key=lambda c: (c.priority, c.path))
        return found

    # -- processing ---------------------------------------------------------------

    def process(self, worktree: Worktree, plan: MutationPlan,
                already_found: set[str],
                overlay: MutationOverlay | None = None) -> FileReport:
        """Resolve one header's remaining tokens via candidate .c files."""
        tokens = set(plan.tokens)
        found = set(already_found) & tokens
        attempts: list[ArchAttempt] = []
        useful_archs: list[str] = []
        # "Ideal case" accounting (§V-B): count only compilations that
        # subject at least one changed header line to the compiler.
        compilations = 0
        saw_i = False

        if not tokens:
            status = FileStatus.COMMENT_ONLY if plan.comment_lines \
                else FileStatus.OK
            return FileReport(path=plan.path, status=status,
                              comment_lines=list(plan.comment_lines),
                              macro_hints=list(plan.macro_hints))
        if tokens <= found:
            return FileReport(path=plan.path, status=FileStatus.OK,
                              mutations=list(plan.mutations),
                              macro_hints=list(plan.macro_hints))

        if overlay is None:
            overlay = MutationOverlay(worktree, [plan])
        with self._tracer.span("hfile.candidate_search",
                               path=plan.path) as search_span:
            candidates = self.candidates_for(plan)
            search_span.set("candidates", len(candidates))
        self._metrics.counter("hfile.candidates").inc(len(candidates))
        allyes_only = len(candidates) > self._candidate_cap

        # Phase 1 — host allyesconfig, batched up to batch_limit files
        # per make invocation (§III-D batching applies here too: a header
        # included by many .c files is what produces the paper's large
        # .i invocations).
        host = self._build.registry.host.name
        host_config = try_make_config(self._build, host, "allyesconfig")
        if isinstance(host_config, StepFailure):
            host_config = None
        if host_config is not None:
            for start in range(0, len(candidates), self._batch_limit):
                if tokens <= found:
                    break
                chunk = candidates[start:start + self._batch_limit]
                results = self._build.make_i(
                    [candidate.path for candidate in chunk], host,
                    host_config)
                for candidate, result in zip(chunk, results):
                    attempt = ArchAttempt(arch=host,
                                          config_target="allyesconfig")
                    attempts.append(attempt)
                    self._metrics.counter("arch.attempts").inc()
                    if not result.ok:
                        attempt.error = result.error
                        continue
                    attempt.i_ok = True
                    saw_i = True
                    found_now = self._grep(candidate, tokens,
                                           result.i_text or "")
                    attempt.tokens_found = found_now
                    if not found_now - found:
                        continue
                    compilations += 1
                    certified = try_certify(self._build, overlay,
                                            candidate.path, host,
                                            host_config)
                    if certified is True:
                        attempt.o_ok = True
                        found |= found_now
                        if host not in useful_archs:
                            useful_archs.append(host)
                    else:
                        attempt.error = certified.error

        # Phase 2 — per-candidate architecture exploration for whatever
        # the host pass could not cover.
        for candidate in candidates:
            if tokens <= found:
                break
            selection = self._selector.select(candidate.path)
            config_candidates = [
                c for c in selection.candidates
                if not (c.arch == host
                        and c.config_target == "allyesconfig")]
            if allyes_only:
                config_candidates = [c for c in config_candidates
                                     if c.config_target == "allyesconfig"]
            for config_candidate in config_candidates:
                if tokens <= found:
                    break
                attempt = ArchAttempt(
                    arch=config_candidate.arch,
                    config_target=config_candidate.config_target)
                attempts.append(attempt)
                self._metrics.counter("arch.attempts").inc()
                config = try_make_config(self._build,
                                         config_candidate.arch,
                                         config_candidate.config_target)
                if isinstance(config, StepFailure):
                    attempt.error = config.error
                    continue
                result = self._build.make_i([candidate.path],
                                            config_candidate.arch,
                                            config)[0]
                if not result.ok:
                    attempt.error = result.error
                    continue
                attempt.i_ok = True
                saw_i = True
                found_now = self._grep(candidate, tokens,
                                       result.i_text or "")
                attempt.tokens_found = found_now
                if not found_now - found:
                    continue
                compilations += 1
                # Certify: the candidate must compile against the fully
                # unmutated tree.
                certified = try_certify(self._build, overlay,
                                        candidate.path,
                                        config_candidate.arch, config)
                if certified is True:
                    attempt.o_ok = True
                    attempt.tokens_found = found_now
                    found |= found_now
                    if config_candidate.arch not in useful_archs:
                        useful_archs.append(config_candidate.arch)
                else:
                    attempt.error = certified.error

        self._metrics.counter("tokens.found").inc(len(found))
        self._metrics.counter("tokens.missing").inc(len(tokens - found))
        if tokens <= found:
            status = FileStatus.OK
        elif candidates and not saw_i:
            status = FileStatus.I_FAILED
        else:
            # No candidate .c files at all, or candidates compiled but
            # never surfaced the remaining tokens.
            status = FileStatus.LINES_NOT_COMPILED
        return FileReport(
            path=plan.path, status=status,
            mutations=list(plan.mutations),
            missing_tokens=tokens - found,
            attempts=attempts,
            useful_archs=useful_archs,
            comment_lines=list(plan.comment_lines),
            macro_hints=list(plan.macro_hints),
            candidate_compilations=compilations,
        )

    def _grep(self, candidate: CandidateCFile, tokens: set[str],
              i_text: str) -> set[str]:
        """The header tokens one candidate's ``.i`` surfaced."""
        with self._tracer.span("grep.tokens",
                               path=candidate.path) as grep_span:
            found_now = {token for token in tokens if token in i_text}
            grep_span.set("found", len(found_now))
        return found_now


def _arch_of(path: str) -> str | None:
    parts = path.split("/")
    if parts[0] == "arch" and len(parts) >= 2:
        return parts[1]
    return None
