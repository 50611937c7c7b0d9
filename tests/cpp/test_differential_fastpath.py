"""S4: byte-identity of the fast and reference preprocessing pipelines.

Preprocesses every translation unit of the full generated kernel tree
across architectures × configurations twice — once with every fast-path
level force-disabled (the original per-visit pipeline) and once with
them enabled — and asserts the results are *identical*: the ``.i``
text byte for byte, the include lists, the missing-include probe
sequences, and any raised diagnostics. A third
warm pass re-runs the fast pipeline against populated caches so the
header-replay hits are themselves covered by the identity check.

This is the guard the ISSUE requires for the whole fast-path rewrite:
any divergence — a stale replay, an unsound expansion screen, a
condition fast path with different semantics — fails loudly here with
the exact file and field that drifted.
"""

import pytest

from repro.cpp import prepared
from repro.errors import ReproError
from repro.kbuild.build import BuildSystem
from repro.kernel.generator import generate_tree

ARCHES = ["x86_64", "powerpc", "arm"]
CONFIGS = ["allyesconfig", "allnoconfig"]


@pytest.fixture(scope="module")
def tree():
    return generate_tree()


@pytest.fixture(scope="module")
def tu_paths(tree):
    return sorted(path for path in tree.files if path.endswith(".c"))


def _compiler_for(tree, arch, config_target):
    build = BuildSystem(tree.provider(),
                        path_lister=lambda: sorted(tree.files))
    config = build.make_config(arch, config_target)
    return build._compiler(arch, config, modular_unit=False)


def _preprocess_all(compiler, tu_paths):
    """Every TU's observable result; errors are results too."""
    results = {}
    for path in tu_paths:
        try:
            r = compiler.preprocess(path)
            results[path] = (r.text, r.included_files,
                             r.missing_includes)
        except ReproError as error:
            results[path] = ("ERROR", type(error).__name__, str(error))
    return results


def _assert_identical(reference, candidate, label):
    assert set(reference) == set(candidate)
    fields = ("text", "included_files", "missing_includes")
    for path, expected in reference.items():
        actual = candidate[path]
        if expected[0] == "ERROR" or actual[0] == "ERROR":
            assert actual == expected, f"{label}: {path} diagnostics drift"
            continue
        for field, want, got in zip(fields, expected, actual):
            assert got == want, f"{label}: {path} {field} drift"


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("config_target", CONFIGS)
def test_fastpath_is_byte_identical(tree, tu_paths, arch, config_target):
    label = f"{arch}/{config_target}"
    with prepared.fastpath_disabled():
        reference = _preprocess_all(
            _compiler_for(tree, arch, config_target), tu_paths)
    prepared.configure(True)  # cold caches
    try:
        compiler = _compiler_for(tree, arch, config_target)
        cold = _preprocess_all(compiler, tu_paths)
        _assert_identical(reference, cold, f"{label} cold")
        warm = _preprocess_all(compiler, tu_paths)
        _assert_identical(reference, warm, f"{label} warm")
        snap = prepared.stats_snapshot()
        assert snap["prepared"]["hits"] > 0
        assert snap["header_replay"]["hits"] > 0
    finally:
        prepared.configure(True)


def test_cross_config_runs_share_one_process_cache(tree, tu_paths):
    """Interleaved configs (the service's real access pattern) stay
    identical: replay variants keyed by read valuations must not leak
    one config's expansion into another's."""
    pairs = [(arch, cfg) for arch in ARCHES[:2] for cfg in CONFIGS]
    with prepared.fastpath_disabled():
        reference = {
            (arch, cfg): _preprocess_all(
                _compiler_for(tree, arch, cfg), tu_paths)
            for arch, cfg in pairs}
    prepared.configure(True)
    try:
        for round_label in ("cold", "warm"):
            for arch, cfg in pairs:
                candidate = _preprocess_all(
                    _compiler_for(tree, arch, cfg), tu_paths)
                _assert_identical(reference[(arch, cfg)], candidate,
                                  f"{arch}/{cfg} {round_label}")
    finally:
        prepared.configure(True)
