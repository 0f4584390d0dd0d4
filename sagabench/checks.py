"""Output checks.  Each compares the program's output with a computation made
here in DuckDB or pandas, or with a property the method must have; none
compares with a stored copy of earlier output.

The check functions take pandas frames and return a list of error strings
(empty when the check passes), so ``test_checks.py`` can corrupt one output
per check without Spark.  ``construction``, ``views`` and ``store`` collect
the program's Spark outputs and run them.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

TOL = 1e-9
#: mixed-truth clusters allowed, as a share of all clusters (E3's gate)
MIXED_SHARE = 0.05
DAMPING = 0.85


def _con(**tables) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for name, df in tables.items():
        con.register(name, df)
    return con


def _lists(df: pd.DataFrame, *cols: str) -> pd.DataFrame:
    """Array columns as Python lists (DuckDB reads them as LIST)."""
    df = df.copy()
    for c in cols:
        df[c] = df[c].map(list)
    return df


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def check_links(links: pd.DataFrame, current: set[str], gone: set[str]) -> list[str]:
    """Every current record maps to exactly one KG id; no deleted one maps."""
    errs = []
    n = links.groupby("subject").size()
    missing = current - set(n.index)
    multi = set(n[n > 1].index)
    stale = gone & set(n.index)
    if missing:
        errs.append(f"links: {len(missing)} current records unlinked, e.g. {sorted(missing)[:3]}")
    if multi:
        errs.append(f"links: {len(multi)} records linked to several KG ids, e.g. {sorted(multi)[:3]}")
    if stale:
        errs.append(f"links: {len(stale)} deleted records still linked, e.g. {sorted(stale)[:3]}")
    return errs


def check_assertions(kg: pd.DataFrame, ingested: pd.DataFrame, links: pd.DataFrame,
                     source: str, shared: frozenset[str] = frozenset()) -> list[str]:
    """The source's (KG subject, predicate) assertions in the fused KG equal
    its ingested triples joined with the link map.  ``same_as`` facts are
    linking provenance, not source data, and are left out.

    ``shared``: KG subjects where a changed record of the source shares its
    KG id with an unchanged one (:func:`shared_retractions`).  Pairs missing
    there are printed, not failed: ``consume_source`` retracts the source
    from the whole KG subject, so the unchanged record's assertions go too,
    on the seeds whose tick changes such a record."""
    con = _con(kg=_lists(kg, "sources"), ing=ingested, links=links)
    diff = con.execute(
        """
        WITH want AS (
            SELECT DISTINCT l.kg_subject AS subject, i.predicate
            FROM ing i JOIN links l ON i.subject = l.subject
            WHERE i.source = $src),
        have AS (
            SELECT DISTINCT subject, predicate FROM kg
            WHERE list_contains(sources, $src) AND predicate <> 'same_as')
        SELECT 'missing' AS kind, * FROM (SELECT * FROM want EXCEPT SELECT * FROM have)
        UNION ALL
        SELECT 'extra', * FROM (SELECT * FROM have EXCEPT SELECT * FROM want)
        """,
        {"src": source},
    ).fetchdf()
    con.close()
    lost = (diff.kind == "missing") & diff.subject.isin(shared)
    if lost.any():
        print(f"assertions[{source}]: {int(lost.sum())} (subject, predicate) pairs lost to "
              f"the retraction of a changed record on its KG subject, "
              f"e.g. {diff[lost].head(3).values.tolist()}")
        diff = diff[~lost]
    if diff.empty:
        return []
    counts = diff.kind.value_counts().to_dict()
    return [f"assertions[{source}]: {counts} (subject, predicate) pairs differ, "
            f"e.g. {diff.head(3).values.tolist()}"]


def check_confidence(kg: pd.DataFrame, functional: set[str]) -> list[str]:
    """Non-functional facts: confidence == 1 - prod(1 - trust)."""
    con = _con(kg=_lists(kg.reset_index(drop=True).assign(fid=lambda d: d.index), "trust"),
               func=pd.DataFrame({"p": sorted(functional)}))
    bad = con.execute(
        """
        WITH facts AS (
            SELECT * FROM kg WHERE r_id IS NOT NULL
               OR predicate NOT IN (SELECT p FROM func)),
        want AS (
            SELECT fid, 1 - product(1 - t) AS conf
            FROM (SELECT fid, unnest(trust) AS t FROM facts) GROUP BY fid)
        SELECT f.subject, f.predicate, f.obj, f.confidence, w.conf
        FROM facts f JOIN want w USING (fid)
        WHERE abs(f.confidence - w.conf) > $tol
        """,
        {"tol": TOL},
    ).fetchdf()
    n_facts = con.execute(
        "SELECT count(*) FROM kg WHERE r_id IS NOT NULL OR predicate NOT IN (SELECT p FROM func)"
    ).fetchone()[0]
    con.close()
    errs = []
    if n_facts == 0:
        errs.append("confidence: no non-functional facts to check")
    if not bad.empty:
        errs.append(f"confidence: {len(bad)} facts differ from 1-prod(1-trust), "
                    f"e.g. {bad.head(3).values.tolist()}")
    return errs


def check_truth_discovery(kg: pd.DataFrame, functional: set[str]) -> list[str]:
    """Per (subject, functional predicate) the objects' confidences sum to 1."""
    con = _con(kg=kg.drop(columns=["sources", "trust"]),
               func=pd.DataFrame({"p": sorted(functional)}))
    sums = con.execute(
        """
        SELECT subject, predicate, sum(confidence) AS s FROM kg
        WHERE r_id IS NULL AND predicate IN (SELECT p FROM func)
        GROUP BY subject, predicate
        """
    ).fetchdf()
    con.close()
    if sums.empty:
        return ["truth discovery: no functional facts to check"]
    bad = sums[(sums.s - 1.0).abs() > 1e-6]
    if not bad.empty:
        return [f"truth discovery: {len(bad)} groups do not sum to 1, "
                f"e.g. {bad.head(3).values.tolist()}"]
    return []


def shared_retractions(prev: pd.DataFrame, cur: pd.DataFrame, prev_links: pd.DataFrame,
                       links: pd.DataFrame) -> frozenset[str]:
    """KG subjects on which one source's record changed (its triples differ
    between the two snapshots, or it is gone) while another record of the
    same source, unchanged, is linked to the same KG subject.  ``prev`` and
    ``cur`` are one source's ingested triples."""
    def facts(df):
        cols = ["predicate", "r_id", "r_predicate", "obj", "locale"]
        rows = df[["subject", *cols]].astype(str).agg("\x1f".join, axis=1)
        return rows.groupby(df.subject).agg(frozenset)

    before, after = facts(prev), facts(cur)
    same = after.index.intersection(before.index)
    unchanged = set(same[(before[same] == after[same]).to_numpy()])
    changed = set(before.index) - unchanged
    hit = set(prev_links[prev_links.subject.isin(changed)].kg_subject)
    kept = set(links[links.subject.isin(unchanged)].kg_subject)
    return frozenset(hit & kept)


def check_clusters(links: pd.DataFrame, truth: pd.DataFrame) -> list[str]:
    """Clusters (KG ids) mixing ground-truth entities stay under 5%."""
    j = links.merge(truth.rename(columns={"id": "subject"}), on="subject")
    per = j.groupby("kg_subject").eid.nunique()
    if per.empty:
        return ["clusters: no linked records with ground truth"]
    share = float((per > 1).mean())
    if share >= MIXED_SHARE:
        return [f"clusters: {share:.1%} of {len(per)} clusters mix ground-truth entities"]
    return []


def check_store(store_rows: int, kg_rows: int, store_lsn: int, published_lsn: int) -> list[str]:
    errs = []
    if store_rows != kg_rows:
        errs.append(f"store: newest version has {store_rows} rows, KG has {kg_rows}")
    if store_lsn != published_lsn:
        errs.append(f"store: LSN {store_lsn} != published LSN {published_lsn}")
    return errs


# --------------------------------------------------------------------------
# views
# --------------------------------------------------------------------------

def check_schematized(view: pd.DataFrame, base: pd.DataFrame, etype: str,
                      preds: list[str], composite: dict[str, list[str]]) -> list[str]:
    cols = [f"min(CASE WHEN predicate = 'name' THEN obj END) AS \"name\""]
    cols += [f"min(CASE WHEN predicate = '{p}' AND r_id IS NULL THEN obj END) AS \"{p}\""
             for p in preds]
    cols += [f"min(CASE WHEN predicate = '{c}' AND r_predicate = '{r}' THEN obj END) "
             f"AS \"{c}.{r}\"" for c, rs in composite.items() for r in rs]
    con = _con(base=base.drop(columns=["sources", "trust"]))
    want = con.execute(
        f"""
        SELECT subject, {', '.join(cols)} FROM base
        WHERE subject IN (SELECT subject FROM base WHERE predicate = 'type' AND obj = $t)
        GROUP BY subject
        """,
        {"t": etype},
    ).fetchdf()
    con.close()
    return _frame_diff(f"entity_view_{etype}", view, want, "subject")


def check_degrees(features: pd.DataFrame, base: pd.DataFrame) -> list[str]:
    con = _con(base=_lists(base, "sources"))
    want = con.execute(
        """
        WITH edges AS (
            SELECT DISTINCT subject AS src, obj AS dst FROM base
            WHERE obj LIKE 'kg:%' AND subject <> obj),
        subj AS (SELECT DISTINCT subject FROM base),
        outd AS (SELECT src, count(*) AS n FROM edges GROUP BY src),
        ind AS (SELECT dst, count(*) AS n FROM edges GROUP BY dst),
        ident AS (SELECT subject, count(DISTINCT s) AS n
                  FROM (SELECT subject, unnest(sources) AS s FROM base) GROUP BY subject)
        SELECT s.subject, coalesce(o.n, 0) AS out_degree, coalesce(i.n, 0) AS in_degree,
               coalesce(d.n, 0) AS n_identities
        FROM subj s LEFT JOIN outd o ON s.subject = o.src
        LEFT JOIN ind i ON s.subject = i.dst LEFT JOIN ident d ON s.subject = d.subject
        """
    ).fetchdf()
    con.close()
    have = features[["subject", "out_degree", "in_degree", "n_identities"]]
    return _frame_diff("entity_features", have, want, "subject")


def check_pagerank(features: pd.DataFrame) -> list[str]:
    s = float(features.pagerank.sum())
    if not (1 - DAMPING - TOL <= s <= 1 + TOL):
        return [f"entity_features: PageRank sums to {s}, outside [{1 - DAMPING}, 1]"]
    return []


def _frame_diff(name: str, have: pd.DataFrame, want: pd.DataFrame, key: str) -> list[str]:
    if sorted(have.columns) != sorted(want.columns):
        return [f"{name}: columns {sorted(have.columns)} != {sorted(want.columns)}"]
    cols = sorted(want.columns)

    def canon(df):
        df = df[cols].astype(object).where(pd.notna(df[cols]), None)
        df = df.map(lambda v: None if v is None else str(int(v)) if isinstance(v, (int, np.integer)) else str(v))
        return df.sort_values(key).reset_index(drop=True)

    a, b = canon(have), canon(want)
    if len(a) != len(b):
        return [f"{name}: {len(a)} rows, DuckDB gives {len(b)}"]
    bad = (a != b) & ~(a.isna() & b.isna())
    if bad.values.any():
        row = int(np.argmax(bad.values.any(axis=1)))
        return [f"{name}: {int(bad.values.any(axis=1).sum())} rows differ, e.g. "
                f"{a.iloc[row].to_dict()} vs {b.iloc[row].to_dict()}"]
    return []


# --------------------------------------------------------------------------
# Spark-side collection
# --------------------------------------------------------------------------

def tick_start(snaps: dict, kg) -> tuple[dict[str, pd.DataFrame], pd.DataFrame]:
    """What :func:`construction` needs of the state a tick started from
    (each source's ingested triples, the link map), collected so that the
    state's Spark frames can be released as the program releases them."""
    return {name: t.toPandas() for name, (_c, t, _v, _r) in snaps.items()}, kg.links.toPandas()


def construction(snaps: dict, kg, seen: dict[str, set[str]], before=None) -> list[str]:
    """Checks on the fused KG after the last consumed tick.

    ``snaps``: source → (cfg, ingested triples, volatile, raw snapshot);
    ``seen``: source → every record id of every snapshot consumed before;
    ``before``: :func:`tick_start` of the last tick, None after onboarding.
    """
    from repro.core.schema import FUNCTIONAL_PREDS

    kg_pd = kg.triples.toPandas()
    links = kg.links.toPandas()
    errs: list[str] = []
    current: set[str] = set()
    truth = []
    for name, (cfg, triples, _vol, raw) in snaps.items():
        ids = set(raw.entities["id"])
        current |= ids
        truth.append(raw.truth)
        ingested = triples.toPandas()
        shared = frozenset()
        if before:
            shared = shared_retractions(before[0][name], ingested, before[1], links)
        errs += check_assertions(kg_pd, ingested, links, name, shared)
    gone = set().union(*seen.values()) - current if seen else set()
    errs += check_links(links, current, gone)
    errs += check_confidence(kg_pd, set(FUNCTIONAL_PREDS))
    errs += check_truth_discovery(kg_pd, set(FUNCTIONAL_PREDS))
    errs += check_clusters(links, pd.concat(truth, ignore_index=True))
    return errs


def views(base, views: dict) -> list[str]:
    """The schematized views and ``entity_features`` of a full catalog
    materialized over ``base``."""
    from repro.core import schema as S

    base = base.toPandas()
    errs: list[str] = []
    for etype in S.ONTOLOGY:
        errs += check_schematized(
            views[f"entity_view_{etype}"].toPandas(), base, etype,
            S.all_predicates(etype), S.COMPOSITE_RELS.get(etype, {}),
        )
    feats = views["entity_features"].toPandas()
    errs += check_degrees(feats, base)
    errs += check_pagerank(feats)
    return errs


def store(store, kg, engine, published_lsn: int) -> list[str]:
    return check_store(
        store.read_version().count(), kg.all_triples().count(),
        engine.freshness("analytics"), published_lsn,
    )
