"""The §IV ranking derived on read equals layout 1's materialized view.

Layout 1 kept the ranking in two tables, ``author_files`` and
``janitor_view``, refreshed inside every ingest transaction and rebuilt
by every compaction. The oracle below is that maintenance code
(``apply_batch``, ``_recompute_author``, ``janitor_rows`` and the cv
formula) as the store last ran it, with its own copy of the two tables.
It runs on the store's connection at the points layout 1 did: after
each ingest batch on the records that landed, and after a compaction
from the survivors in ingest order. The derived rows must equal the
oracle's by ``repr``, so ``file_cv`` agrees to the last bit, and
``stats()["authors"]`` must equal the oracle's row count.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.report import FileStatus
from repro.store.query import JanitorViewCriteria, JanitorViewRow
from repro.store.store import VerdictStore
from tests.store.conftest import v4_record

# -- the oracle: layout 1's view maintenance ----------------------------------

ORACLE_DDL = (
    """CREATE TABLE author_files (
        email TEXT NOT NULL,
        path TEXT NOT NULL,
        patches INTEGER NOT NULL,
        PRIMARY KEY (email, path))""",
    """CREATE TABLE janitor_view (
        email TEXT PRIMARY KEY,
        name TEXT,
        patches INTEGER NOT NULL,
        certified INTEGER NOT NULL,
        partial INTEGER NOT NULL,
        attention INTEGER NOT NULL,
        files INTEGER NOT NULL,
        file_cv REAL NOT NULL)""",
)


def oracle_apply_batch(conn, records):
    touched = set()
    for record in records:
        author = record.get("author")
        if not author or not author.get("email"):
            continue
        email = author["email"]
        touched.add(email)
        for path in record["files"]:
            conn.execute(
                "INSERT INTO author_files (email, path, patches) "
                "VALUES (?, ?, 1) "
                "ON CONFLICT(email, path) DO UPDATE "
                "SET patches = patches + 1",
                (email, path))
    for email in sorted(touched):
        _oracle_recompute_author(conn, email)
    return len(touched)


def _oracle_recompute_author(conn, email):
    patches, certified, partial, attention, name = conn.execute(
        "SELECT COUNT(*), "
        "COALESCE(SUM(CASE WHEN verdict = 'CERTIFIED' "
        "    THEN 1 ELSE 0 END), 0), "
        "COALESCE(SUM(CASE WHEN verdict LIKE 'PARTIAL:%' "
        "    THEN 1 ELSE 0 END), 0), "
        "COALESCE(SUM(CASE WHEN verdict = 'ATTENTION REQUIRED' "
        "    THEN 1 ELSE 0 END), 0), "
        "MAX(author_name) "
        "FROM verdicts WHERE author_email = ?", (email,)).fetchone()
    counts = [row[0] for row in conn.execute(
        "SELECT patches FROM author_files WHERE email = ?", (email,))]
    conn.execute(
        "INSERT OR REPLACE INTO janitor_view "
        "(email, name, patches, certified, partial, attention, files, "
        " file_cv) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (email, name, patches, certified, partial, attention,
         len(counts), _oracle_file_cv(counts)))


def _oracle_file_cv(counts):
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    variance = sum((count - mean) ** 2 for count in counts) / len(counts)
    return math.sqrt(variance) / mean


def oracle_janitor_rows(conn, criteria):
    rows = conn.execute(
        "SELECT email, name, patches, certified, partial, attention, "
        "files, file_cv FROM janitor_view "
        "WHERE patches >= ? AND files >= ? "
        "ORDER BY file_cv ASC, email ASC LIMIT ?",
        (criteria.min_patches, criteria.min_files,
         criteria.top_n)).fetchall()
    return [JanitorViewRow(email=email, name=name, patches=patches,
                           certified=certified, partial=partial,
                           attention=attention, files=files,
                           file_cv=file_cv)
            for (email, name, patches, certified, partial, attention,
                 files, file_cv) in rows]


# -- running the oracle beside a store -----------------------------------------

def attach_oracle(store):
    """Keep layout 1's view beside ``store``, batch for batch.

    ``ingest`` and ``ingest_ledger`` both land through
    ``ingest_batch``, so wrapping it on the instance covers every
    ingest path, ``watch`` included.
    """
    for statement in ORACLE_DDL:
        store._conn.execute(statement)
    ingest_batch = store.ingest_batch

    def ingest_and_refresh(records):
        result = ingest_batch(records)
        oracle_apply_batch(store._conn, [store.get(commit)
                                         for commit in result.commits])
        return result

    store.ingest_batch = ingest_and_refresh
    return store


def compact_both(store, retain):
    """Compact the store, then rebuild the oracle from the survivors."""
    store.compact(retain)
    conn = store._conn
    conn.execute("DELETE FROM author_files")
    conn.execute("DELETE FROM janitor_view")
    oracle_apply_batch(conn, [json.loads(row[0]) for row in conn.execute(
        "SELECT record FROM verdicts ORDER BY seq")])


#: the default, ``canonical_dump``'s, and the keep-everyone cutoffs
CRITERIA = (
    JanitorViewCriteria(),
    JanitorViewCriteria(min_patches=1, min_files=1, top_n=1 << 30),
    JanitorViewCriteria(min_patches=0, min_files=0, top_n=1 << 30),
)


def assert_same_ranking(store, criteria):
    for cutoffs in criteria:
        assert repr(store.janitor_report(cutoffs)) == \
            repr(oracle_janitor_rows(store._conn, cutoffs))
    assert store.stats()["authors"] == store._conn.execute(
        "SELECT COUNT(*) FROM janitor_view").fetchone()[0]


# -- generated ingest sequences ------------------------------------------------

AUTHORS = (
    ("Dan Carpenter", "dan@example.org"),
    ("D. Carpenter", "dan@example.org"),  # same email, another name
    ("Julia Lawall", "julia@example.org"),
    ("Arnd Bergmann", "arnd@example.org"),
    ("No Email", ""),
    None,
)
PATHS = ("drivers/a.c", "drivers/b.c", "drivers/c.h", "fs/d.c",
         "net/e.c")
ATTEMPTS = (("x86_64", "allyesconfig"), ("arm", "defconfig"),
            ("mips", "allyesconfig"))

attempt_lists = st.lists(
    st.tuples(st.sampled_from(ATTEMPTS), st.booleans(), st.booleans()),
    max_size=3).map(lambda trials: [(arch, config, i_ok, o_ok)
                                    for (arch, config), i_ok, o_ok
                                    in trials])


@st.composite
def records(draw):
    """One canonical record; its commit id is drawn from a small pool
    so later batches re-offer stored commits."""
    return v4_record(
        f"c{draw(st.integers(0, 11)):02d}",
        author=draw(st.sampled_from(AUTHORS)),
        files=draw(st.dictionaries(st.sampled_from(PATHS), attempt_lists,
                                   max_size=3)),
        quarantined=draw(st.sampled_from(((), ("arm",),
                                          ("arm", "mips")))),
        status=draw(st.sampled_from((FileStatus.OK,
                                     FileStatus.O_FAILED,
                                     FileStatus.COMMENT_ONLY))))


drawn_criteria = st.builds(JanitorViewCriteria,
                           min_patches=st.integers(0, 4),
                           min_files=st.integers(0, 3),
                           top_n=st.integers(1, 8))


class TestGeneratedIngests:
    @settings(max_examples=120, deadline=None)
    @given(batches=st.lists(st.lists(records(), max_size=5), min_size=1,
                            max_size=5),
           compact_after=st.one_of(st.none(), st.integers(0, 4)),
           retain=st.integers(0, 8),
           criteria=st.lists(drawn_criteria, max_size=3))
    def test_derived_ranking_equals_the_view(self, batches,
                                             compact_after, retain,
                                             criteria):
        with attach_oracle(VerdictStore()) as store:
            for index, batch in enumerate(batches):
                store.ingest_batch(batch)
                if index == compact_after:
                    compact_both(store, retain)
                assert_same_ranking(store, CRITERIA)
            assert_same_ranking(store, criteria)


class TestWatchFilledStore:
    def test_e2ebench_corpus(self, tmp_path):
        """A whole watch run over e2ebench's seed-1 part-0 corpus:
        ~285 verdicts from ~38 authors, some of them commits with no
        ``.c``/``.h`` file, then a compaction."""
        corpus = api.build_corpus(api.CorpusSpec(
            seed="e2ebench-1-0", history_commits=200, eval_commits=300,
            regular_developers=20))
        with attach_oracle(VerdictStore(
                str(tmp_path / "verdicts.sqlite"))) as store:
            result = api.watch(corpus, store=store,
                               journal=str(tmp_path / "watch.jnl"),
                               config=api.WatchConfig(fsync=False))
            assert result.batches > 1
            assert any(not verdict.files for verdict in store.query())
            assert_same_ranking(store, CRITERIA)
            compact_both(store, 100)
            assert_same_ranking(store, CRITERIA)
