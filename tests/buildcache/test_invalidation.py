"""Commit-driven invalidation: a header edit touches exactly the
sources whose include closure contains it, nothing else."""

from tests.buildcache.conftest import make_build_system


def _preprocess_all(tree, cache):
    build = make_build_system(tree, cache)
    x86 = build.make_config("x86_64", "allyesconfig")
    arm = build.make_config("arm", "allyesconfig")
    build.make_i(["drivers/net/e1000.c"], "x86_64", x86)   # linux/kernel.h
    build.make_i(["kernel/sched.c"], "x86_64", x86)        # no includes
    build.make_i(["arch/x86/kernel/setup.c"], "x86_64", x86)  # asm/io.h
    build.make_i(["drivers/net/amba_net.c"], "arm", arm)   # asm/amba.h
    return build


class TestExactFanout:
    def test_header_edit_invalidates_only_closure_members(self, tree,
                                                          cache):
        _preprocess_all(tree, cache)
        tree["include/linux/kernel.h"] = "#define KERN_INFO \"9\"\n"

        warm = make_build_system(tree, cache)
        x86 = warm.make_config("x86_64", "allyesconfig")
        arm = warm.make_config("arm", "allyesconfig")
        dependent = warm.make_i(["drivers/net/e1000.c"], "x86_64", x86)[0]
        assert not dependent.cached
        for path, arch, config in (("kernel/sched.c", "x86_64", x86),
                                   ("arch/x86/kernel/setup.c", "x86_64",
                                    x86),
                                   ("drivers/net/amba_net.c", "arm",
                                    arm)):
            result = warm.make_i([path], arch, config)[0]
            assert result.cached, f"{path} should be unaffected"

    def test_source_edit_invalidates_only_itself(self, tree, cache):
        _preprocess_all(tree, cache)
        tree["kernel/sched.c"] = "int schedule(void) { return 1; }\n"

        warm = make_build_system(tree, cache)
        x86 = warm.make_config("x86_64", "allyesconfig")
        assert not warm.make_i(["kernel/sched.c"], "x86_64", x86)[0].cached
        assert warm.make_i(["drivers/net/e1000.c"], "x86_64",
                           x86)[0].cached

    def test_created_file_shadowing_include_invalidates(self, tree, cache):
        """e1000.c includes <linux/kernel.h>; a new file earlier on the
        include search path must invalidate even though no *existing*
        file changed (the negative-probe manifest entries)."""
        build = make_build_system(tree, cache)
        x86 = build.make_config("x86_64", "allyesconfig")
        cold = build.make_i(["drivers/net/e1000.c"], "x86_64", x86)[0]
        probed_absent = cold.preprocess_result.missing_includes
        if not probed_absent:  # include resolved at the first candidate
            return
        tree[probed_absent[0]] = "#define KERN_INFO \"shadow\"\n"
        warm = make_build_system(tree, cache)
        x86 = warm.make_config("x86_64", "allyesconfig")
        assert not warm.make_i(["drivers/net/e1000.c"], "x86_64",
                               x86)[0].cached
