"""Tests for the MAINTAINERS database."""

from repro.kernel.maintainers import MaintainersDb, MaintainersEntry


def sample_db():
    return MaintainersDb([
        MaintainersEntry(
            name="NETWORKING DRIVERS",
            maintainers=["Net Maintainer <net@example.org>"],
            lists=["netdev@vger.kernel.org",
                   "linux-kernel@vger.kernel.org"],
            file_patterns=["drivers/net/"]),
        MaintainersEntry(
            name="E1000 DRIVER",
            maintainers=["Intel Person <intel@example.org>"],
            lists=["netdev@vger.kernel.org"],
            file_patterns=["drivers/net/e1000.c"]),
        MaintainersEntry(
            name="HEADERS",
            maintainers=["Header Person <hdr@example.org>"],
            lists=["linux-kernel@vger.kernel.org"],
            file_patterns=["include/linux/*.h"]),
    ])


def names(db, path):
    return [entry.name for entry in db.entries_for_path(path)]


class TestMatching:
    def test_directory_pattern_matches_subtree(self):
        db = sample_db()
        assert "NETWORKING DRIVERS" in names(db, "drivers/net/wifi.c")

    def test_exact_pattern(self):
        db = sample_db()
        covering = names(db, "drivers/net/e1000.c")
        assert "E1000 DRIVER" in covering
        assert "NETWORKING DRIVERS" in covering  # overlapping entries

    def test_glob_pattern(self):
        db = sample_db()
        assert names(db, "include/linux/netdevice.h") == ["HEADERS"]
        assert names(db, "include/linux/sub/dir.h") == []

    def test_no_match(self):
        assert names(sample_db(), "fs/ext4/inode.c") == []

    def test_overlapping_entries_repeat_a_list(self):
        # both entries name netdev; readers that count lists dedupe
        db = sample_db()
        lists = [list_addr
                 for entry in db.entries_for_path("drivers/net/e1000.c")
                 for list_addr in entry.lists]
        assert lists.count("netdev@vger.kernel.org") == 2

    def test_maintainer_emails(self):
        db = sample_db()
        emails = {email
                  for entry in db.entries_for_path("drivers/net/e1000.c")
                  for email in entry.maintainer_emails()}
        assert emails == {"net@example.org", "intel@example.org"}


class TestRoundTrip:
    def test_render_parse(self):
        db = sample_db()
        reparsed = MaintainersDb.parse(db.render())
        assert len(reparsed) == len(db)
        assert reparsed.entries[0].name == "NETWORKING DRIVERS"
        assert reparsed.entries[0].lists == [
            "netdev@vger.kernel.org", "linux-kernel@vger.kernel.org"]
        assert reparsed.entries[0].file_patterns == ["drivers/net/"]
        assert reparsed.entries[1].maintainers == \
            ["Intel Person <intel@example.org>"]

    def test_parse_skips_prose(self):
        text = ("Descriptions of section entries\n\n"
                "FIRST ENTRY\nM:\tSomeone <s@x.org>\nF:\tfs/\n")
        db = MaintainersDb.parse(text)
        assert len(db) == 1
