"""The ``.c`` file pipeline (§III-D).

For each candidate (architecture, configuration), in order:

1. apply the mutation patches (the worktree overlay already carries the
   mutated texts, including those of any changed ``.h`` files);
2. one batched ``make f1.i f2.i …`` over the patch's ``.c`` files
   relevant to the candidate (≤ ``batch_limit`` per invocation);
3. grep each ``.i`` for the file's mutation tokens *and* for the tokens
   of the patch's ``.h`` files;
4. when a ``.i`` surfaced at least one token, compile the original,
   unmutated file to ``.o`` — only compilations that succeed give
   credit (the paper counts a configuration only when compilation
   succeeds);
5. stop when every token of a file has been credited, or when the
   candidates are exhausted.

The pipeline is expressed as a generator of :class:`~repro.core.units.
WorkUnit` steps (config → preprocess-batch → token-grep → certify), so
the same control flow serves both sequential checks
(:func:`~repro.core.units.run_units`) and the sharded check service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.archselect import ArchSelection, ArchSelector, Candidate
from repro.core.mutation import MutationOverlay, MutationPlan
from repro.core.report import ArchAttempt, FileReport, FileStatus
from repro.core.units import (
    STAGE_CERTIFY,
    STAGE_CONFIG,
    STAGE_GREP,
    STAGE_PREPROCESS,
    UnitDag,
    UnitFailure,
    UnitGenerator,
)
from repro.errors import KconfigError, ToolchainError
from repro.kbuild.build import BuildError, BuildSystem
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.vcs.repository import Worktree


@dataclass
class _FileState:
    plan: MutationPlan
    selection: ArchSelection
    candidate_index: int = 0
    found_tokens: set[str] = field(default_factory=set)
    attempts: list[ArchAttempt] = field(default_factory=list)
    useful_archs: list[str] = field(default_factory=list)
    done: bool = False
    saw_i_success: bool = False
    saw_o_success: bool = False
    tokens_seen_in_i: set[str] = field(default_factory=set)

    @property
    def all_tokens(self) -> set[str]:
        return set(self.plan.tokens)

    @property
    def satisfied(self) -> bool:
        return self.all_tokens <= self.found_tokens


@dataclass
class CFileOutcome:
    """Per-file reports plus header tokens seen along the way."""
    reports: dict[str, FileReport]
    #: header tokens credited via the .c files' .i output
    header_tokens_found: set[str] = field(default_factory=set)


def make_config_unit(dag: UnitDag, build: BuildSystem, arch: str,
                     config_target: str, deps=()):
    """A config-stage unit; its result is a Config or UnitFailure."""
    def run():
        try:
            return build.make_config(arch, config_target)
        except (ToolchainError, KconfigError, BuildError) as error:
            return UnitFailure(str(error),
                               kind=getattr(error, "kind", ""))
    return dag.new_unit(STAGE_CONFIG, run, arch=arch,
                        config_target=config_target,
                        paths=(config_target,), deps=deps)


def make_certify_unit(dag: UnitDag, build: BuildSystem,
                      overlay: MutationOverlay, path: str, arch: str,
                      config, deps=()):
    """A certify-stage unit: clean .o of the unmutated tree.

    Result: ``True`` on success, :class:`UnitFailure` otherwise.
    """
    def run():
        with overlay.clean_build():
            try:
                build.make_o(path, arch, config)
                return True
            except BuildError as error:
                return UnitFailure(str(error), kind=error.kind)
    return dag.new_unit(STAGE_CERTIFY, run, arch=arch,
                        config_target=config.name, paths=(path,),
                        deps=deps)


class CFileProcessor:
    """Drives the §III-D pipeline over a patch's .c files."""
    def __init__(self, build_system: BuildSystem, selector: ArchSelector,
                 *, batch_limit: int = 50,
                 use_allmodconfig: bool = False,
                 use_targeted_configs: bool = False,
                 tracer=None, metrics=None) -> None:
        self._build = build_system
        self._selector = selector
        self._batch_limit = max(1, batch_limit)
        self._use_allmodconfig = use_allmodconfig
        self._use_targeted_configs = use_targeted_configs
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS

    def iter_process(self, worktree: Worktree,
                     c_plans: list[MutationPlan],
                     h_plans: list[MutationPlan],
                     overlay: MutationOverlay | None = None,
                     dag: UnitDag | None = None,
                     deps: tuple[int, ...] = ()) -> UnitGenerator:
        """Run all candidates for all files; yields work units and
        returns the per-file reports."""
        if dag is None:
            dag = UnitDag()
        header_tokens: set[str] = set()
        all_header_tokens = {token for plan in h_plans
                             for token in plan.tokens}
        if overlay is None:
            overlay = MutationOverlay(worktree, c_plans + h_plans)
        states: dict[str, _FileState] = {}
        for plan in c_plans:
            selection = self._selector.select(plan.path)
            if self._use_allmodconfig:
                selection = _with_allmodconfig(selection)
            state = _FileState(plan=plan, selection=selection)
            if not plan.tokens:
                state.done = True  # comment-only: nothing to certify
            states[plan.path] = state

        # Candidate-major loop: take the next untried candidate of any
        # pending file, batch all pending files sharing it.
        while True:
            pending = [state for state in states.values() if not state.done]
            if not pending:
                break
            candidate = self._next_candidate(pending)
            if candidate is None:
                for state in pending:
                    state.done = True
                break
            batch = [state for state in pending
                     if self._wants(state, candidate)]
            for state in batch:
                state.candidate_index = max(
                    state.candidate_index,
                    state.selection.candidates.index(candidate) + 1)
            yield from self._iter_candidate(dag, deps, overlay, candidate,
                                            batch, all_header_tokens,
                                            header_tokens)

        if self._use_targeted_configs:
            for state in states.values():
                if not state.satisfied and state.plan.tokens:
                    yield from self._iter_targeted(dag, deps, overlay,
                                                   state)

        reports = {path: self._finalize(state)
                   for path, state in states.items()}
        return CFileOutcome(reports=reports,
                            header_tokens_found=header_tokens)

    # -- targeted covering configurations (§VII extension) ----------------

    def _iter_targeted(self, dag: UnitDag, deps, overlay: MutationOverlay,
                       state: "_FileState") -> UnitGenerator:
        """Last resort: build configurations aimed at the exact blocks
        holding the still-uncovered changed lines (Vampyr/Troll style,
        the paper's suggested §VII complement)."""
        from repro.analysis.blocks import extract_blocks
        from repro.analysis.deadblocks import literals
        from repro.kconfig.solver import targeted_config

        host = self._build.registry.host.name
        try:
            model = self._build.config_model(host)
        except Exception:  # pragma: no cover - no Kconfig at all
            return
        gates = self._build.gate_symbols(state.plan.path)
        if gates is None:
            return
        missing_lines = {mutation.line for mutation in state.plan.mutations
                         if mutation.token not in state.found_tokens}
        blocks = extract_blocks(state.plan.path, state.plan.original_text)
        for block in blocks:
            if state.satisfied:
                break
            if not missing_lines & set(block.body_lines):
                continue
            split = literals(block.presence) \
                if block.presence is not None else None
            if split is None:
                continue
            positive, negative = split
            config = targeted_config(
                model, positive | gates, negative,
                name=f"targeted:{state.plan.path}:{block.start}")
            if config is None:
                continue
            adopt_unit = dag.new_unit(
                STAGE_CONFIG,
                lambda config=config: self._build.adopt_config(host, config),
                arch=host, config_target=config.name,
                paths=(config.name,), deps=deps)
            yield adopt_unit
            attempt = ArchAttempt(arch=host, config_target=config.name)
            state.attempts.append(attempt)
            self._metrics.counter("arch.attempts").inc()
            preprocess_unit = dag.new_unit(
                STAGE_PREPROCESS,
                lambda config=config: self._build.make_i(
                    [state.plan.path], host, config),
                arch=host, config_target=config.name,
                paths=(state.plan.path,), deps=(adopt_unit.unit_id,))
            result = (yield preprocess_unit)[0]
            if not result.ok:
                attempt.error = result.error
                continue
            attempt.i_ok = True
            state.saw_i_success = True
            i_text = result.i_text or ""
            grep_unit = dag.new_unit(
                STAGE_GREP,
                lambda i_text=i_text: state.plan.tokens_found_in(i_text),
                paths=(state.plan.path,),
                deps=(preprocess_unit.unit_id,))
            found_now = yield grep_unit
            attempt.tokens_found = found_now
            state.tokens_seen_in_i |= found_now
            if not found_now - state.found_tokens:
                continue
            certified = yield make_certify_unit(
                dag, self._build, overlay, state.plan.path, host, config,
                deps=(grep_unit.unit_id,))
            if certified is True:
                attempt.o_ok = True
                state.saw_o_success = True
                state.found_tokens |= found_now
                if host not in state.useful_archs:
                    state.useful_archs.append(host)
            else:
                attempt.error = certified.error

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _wants(state: _FileState, candidate: Candidate) -> bool:
        remaining = state.selection.candidates[state.candidate_index:]
        return candidate in remaining

    @staticmethod
    def _next_candidate(pending: list[_FileState]) -> Candidate | None:
        for state in pending:
            remaining = state.selection.candidates[state.candidate_index:]
            if remaining:
                return remaining[0]
            state.done = True
        return None

    def _iter_candidate(self, dag: UnitDag, deps,
                        overlay: MutationOverlay,
                        candidate: Candidate,
                        batch: list["_FileState"],
                        all_header_tokens: set[str],
                        header_tokens: set[str]) -> UnitGenerator:
        with self._tracer.span("cfile.candidate", arch=candidate.arch,
                               config=candidate.config_target,
                               files=len(batch)):
            self._metrics.counter("arch.attempts").inc(len(batch))
            yield from self._iter_candidate_traced(
                dag, deps, overlay, candidate, batch, all_header_tokens,
                header_tokens)

    def _iter_candidate_traced(self, dag: UnitDag, deps,
                               overlay: MutationOverlay,
                               candidate: Candidate,
                               batch: list["_FileState"],
                               all_header_tokens: set[str],
                               header_tokens: set[str]) -> UnitGenerator:
        config_unit = make_config_unit(dag, self._build, candidate.arch,
                                       candidate.config_target, deps=deps)
        config = yield config_unit
        if isinstance(config, UnitFailure):
            for state in batch:
                state.attempts.append(ArchAttempt(
                    arch=candidate.arch,
                    config_target=candidate.config_target,
                    error=config.error))
            return

        paths = [state.plan.path for state in batch]
        for start in range(0, len(paths), self._batch_limit):
            chunk = paths[start:start + self._batch_limit]
            preprocess_unit = dag.new_unit(
                STAGE_PREPROCESS,
                lambda chunk=chunk, config=config: self._build.make_i(
                    chunk, candidate.arch, config),
                arch=candidate.arch,
                config_target=candidate.config_target,
                paths=chunk, deps=(config_unit.unit_id,))
            results = yield preprocess_unit
            for state, result in zip(batch[start:start + self._batch_limit],
                                     results):
                attempt = ArchAttempt(arch=candidate.arch,
                                      config_target=candidate.config_target)
                state.attempts.append(attempt)
                if not result.ok:
                    attempt.error = result.error
                    continue
                attempt.i_ok = True
                state.saw_i_success = True
                i_text = result.i_text or ""

                def grep(state=state, i_text=i_text):
                    with self._tracer.span("grep.tokens",
                                           path=state.plan.path) as span:
                        found_now = state.plan.tokens_found_in(i_text)
                        header_found_now = {
                            token for token in all_header_tokens
                            if token in i_text}
                        span.set("found", len(found_now))
                        span.set("header_found", len(header_found_now))
                    return found_now, header_found_now

                grep_unit = dag.new_unit(
                    STAGE_GREP, grep, paths=(state.plan.path,),
                    deps=(preprocess_unit.unit_id,))
                found_now, header_found_now = yield grep_unit
                state.tokens_seen_in_i |= found_now
                # tokens_found records what this attempt's .i surfaced,
                # whether or not the certification .o succeeds.
                attempt.tokens_found = found_now | header_found_now
                if not found_now and not header_found_now:
                    continue
                # Mutants detected: certify with a clean .o build of the
                # fully unmutated tree.
                certified = yield make_certify_unit(
                    dag, self._build, overlay, state.plan.path,
                    candidate.arch, config, deps=(grep_unit.unit_id,))
                if certified is True:
                    attempt.o_ok = True
                else:
                    attempt.error = certified.error
                if attempt.o_ok:
                    state.saw_o_success = True
                    new_tokens = found_now - state.found_tokens
                    state.found_tokens |= found_now
                    header_tokens |= header_found_now
                    if new_tokens or header_found_now:
                        if candidate.arch not in state.useful_archs:
                            state.useful_archs.append(candidate.arch)
                    if state.satisfied:
                        state.done = True

    def _finalize(self, state: _FileState) -> FileReport:
        plan = state.plan
        if plan.tokens:
            self._metrics.counter("tokens.found").inc(
                len(state.found_tokens))
            self._metrics.counter("tokens.missing").inc(
                len(state.all_tokens - state.found_tokens))
        if not plan.tokens and plan.comment_lines:
            status = FileStatus.COMMENT_ONLY
        elif state.satisfied and (state.saw_o_success or not plan.tokens):
            status = FileStatus.OK
        elif state.selection.no_makefile:
            status = FileStatus.NO_MAKEFILE
        elif not state.selection.candidates:
            status = FileStatus.UNSUPPORTED_ARCH
        elif not state.saw_i_success:
            status = FileStatus.I_FAILED
        elif state.tokens_seen_in_i and not state.saw_o_success:
            # mutants surfaced in some .i, but no clean compile anywhere
            status = FileStatus.O_FAILED
        else:
            status = FileStatus.LINES_NOT_COMPILED
        return FileReport(
            path=plan.path,
            status=status,
            mutations=list(plan.mutations),
            missing_tokens=state.all_tokens - state.found_tokens,
            attempts=state.attempts,
            useful_archs=state.useful_archs,
            comment_lines=list(plan.comment_lines),
            macro_hints=list(plan.macro_hints),
            advisories=list(plan.advisories),
        )


def _with_allmodconfig(selection: ArchSelection) -> ArchSelection:
    """E-A1 extension: after each allyesconfig, also try allmodconfig."""
    augmented = ArchSelection(unsupported=list(selection.unsupported),
                              no_makefile=selection.no_makefile)
    for candidate in selection.candidates:
        augmented.candidates.append(candidate)
        if candidate.config_target == "allyesconfig":
            augmented.candidates.append(Candidate(
                candidate.arch, "allmodconfig"))
    return augmented
