"""Tests for table renderers."""

from repro.evalsuite.tables import render_grid, table1, table2, table3, table4
from repro.janitors.identify import RankedDeveloper
from repro.kernel.layout import HazardKind


class TestGrid:
    def test_alignment(self):
        text = render_grid(["a", "long header"], [["xx", "y"]])
        lines = text.split("\n")
        assert len({line.index("|") for line in lines
                    if "|" in line}) == 1


class TestTable1:
    def test_paper_thresholds(self):
        data, text = table1()
        assert data["# patches"] == ">= 10"
        assert data["# subsystems"] == ">= 20"
        assert data["# lists"] == ">= 3"
        assert data["# maintainer patches"] == "< 5%"
        assert "subsystems" in text


class TestTable2:
    def sample(self):
        return [
            RankedDeveloper("Dan Carpenter", "dan@x", 1554, 400, 146,
                            0.0, 0.43),
            RankedDeveloper("Axel Lin", "axel@x", 1044, 142, 49,
                            0.0, 0.92),
        ]

    def test_rows(self):
        data, text = table2(self.sample(),
                            tool_users={"Dan Carpenter"})
        assert data[0]["patches"] == 1554
        assert "Dan Carpenter (T)" in text
        assert "Axel Lin" in text
        assert "0.92" in text

    def test_intern_marker(self):
        _, text = table2(self.sample(), interns={"Axel Lin"})
        assert "Axel Lin (I)" in text


class TestTable3:
    def test_shares_sum_to_total(self, result):
        rows, text = table3(result)
        total = rows[0].all_patches.total
        assert sum(row.all_patches.count for row in rows) == total
        assert ".c files only" in text

    def test_c_only_dominates(self, result):
        """Table III shape: .c-only is the large majority, .h-only the
        smallest class, for both populations."""
        rows, _ = table3(result)
        by_label = {row.label: row for row in rows}
        c_only = by_label[".c files only"]
        h_only = by_label[".h files only"]
        both = by_label["both .c and .h files"]
        assert c_only.all_patches.fraction > 0.55
        assert h_only.all_patches.fraction < both.all_patches.fraction
        # janitors skew even more to .c-only (87% vs 70% in the paper)
        assert c_only.janitor_patches.fraction > \
            c_only.all_patches.fraction - 0.02


class TestTable4:
    def test_counts_small_and_plausible(self, result):
        counts, text = table4(result, janitor_only=False)
        assert sum(counts.values()) > 0
        assert all(count < 100 for count in counts.values())
        assert "allyesconfig" in text

    def test_janitor_counts_subset(self, result):
        all_counts, _ = table4(result, janitor_only=False)
        janitor_counts, _ = table4(result, janitor_only=True)
        for kind in HazardKind:
            if kind in all_counts:
                assert janitor_counts[kind] <= all_counts[kind]

    def test_never_set_category_appears(self, result):
        counts, _ = table4(result, janitor_only=False)
        assert counts[HazardKind.NEVER_SET] + \
            counts[HazardKind.CHOICE_UNSET] + \
            counts[HazardKind.UNUSED_MACRO] > 0
