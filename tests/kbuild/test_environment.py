"""The compile environment is built once per distinct content.

``BuildSystem._compiler`` and the build cache's environment fingerprint
both take their inputs from one shared record
(:func:`repro.buildcache.fingerprint.compile_environment`), so the
configuration's autoconf macro set is derived once per environment,
however many build systems, files and make steps use it.
"""

import pytest

from repro.buildcache import fingerprint
from repro.buildcache.cache import BuildCache
from repro.cc.toolchain import ToolchainRegistry
from repro.kbuild.build import BuildSystem
from repro.kconfig.configfile import Config

PATHS = ["drivers/net/e1000.c", "drivers/net/wifi.c", "kernel/sched.c"]


@pytest.fixture
def autoconf_calls(monkeypatch):
    """Counts Config.autoconf_macros calls, starting from no environments."""
    monkeypatch.setattr(fingerprint, "_environments", type(
        fingerprint._environments)())
    calls = []
    autoconf_macros = Config.autoconf_macros

    def counting(config):
        calls.append(config.name)
        return autoconf_macros(config)

    monkeypatch.setattr(Config, "autoconf_macros", counting)
    return calls


def _build(tree, cache):
    return BuildSystem(tree.get, cache=cache,
                       path_lister=lambda: sorted(tree))


def test_autoconf_macros_runs_once_per_environment(tree, autoconf_calls):
    outputs = []
    for cache in (None, BuildCache()):
        build = _build(tree, cache)
        config = build.make_config("x86_64", "allyesconfig")
        assert not any(build.is_modular(path, config) for path in PATHS)
        results = build.make_i(PATHS, "x86_64", config)
        assert all(result.ok for result in results)
        outputs.append([result.i_text for result in results] +
                       [build.make_o(path, "x86_64", config).symbols
                        for path in PATHS])
    assert outputs[0] == outputs[1]
    assert len(autoconf_calls) == 1


def test_modular_unit_is_its_own_environment(tree, autoconf_calls):
    build = _build(tree, None)
    config = build.make_config("x86_64", "allmodconfig")
    assert build.is_modular("drivers/net/e1000.c", config)
    build.make_i(["drivers/net/e1000.c", "kernel/sched.c"], "x86_64",
                 config)
    build.make_i(["drivers/net/e1000.c", "kernel/sched.c"], "x86_64",
                 config)
    assert len(autoconf_calls) == 2


def test_environment_is_keyed_by_content_not_identity():
    config_a, config_b = Config(name="a"), Config(name="b")
    for config in (config_a, config_b):
        config.scalar_values["LOG_SHIFT"] = "17"
    first = fingerprint.compile_environment(
        ToolchainRegistry().get("arm"), config_a, modular=False)
    second = fingerprint.compile_environment(
        ToolchainRegistry().get("arm"), config_b, modular=False)
    assert second is first
    assert first.digest == fingerprint.env_fingerprint(
        ToolchainRegistry().get("arm"), config_b, modular=False)
    table = first.seed.table()
    assert table["CONFIG_LOG_SHIFT"].body == "17"
    assert table["__arm__"].body == "1"
    assert "MODULE" not in table


def test_environment_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(fingerprint, "_environments", type(
        fingerprint._environments)())
    monkeypatch.setattr(fingerprint, "_ENVIRONMENT_MEMO_SIZE", 4)
    architecture = ToolchainRegistry().get("x86_64")
    for shift in range(10):
        config = Config()
        config.scalar_values["LOG_SHIFT"] = str(shift)
        fingerprint.compile_environment(architecture, config,
                                        modular=False)
    assert len(fingerprint._environments) == 4
