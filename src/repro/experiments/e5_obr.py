"""E5 — Fig 14(b): NERD vs the deployed alternative for Object Resolution
during KG construction, fixed confidence threshold 0.9.

Paper numbers: NERD with entity-type hints yields ≈ +10% precision and
≈ +25% recall over the alternative solution; plain NERD sits between.

The workload is structured ``<subject, predicate: mention>`` payloads whose
objects are entity names; the ontology supplies the expected object type
(``birthplace`` → city, …), which the type-hinted variant feeds to
candidate retrieval/scoring.  Cross-type name collisions (a city sharing
its name with a movie/team) are exactly where hints pay off.
"""
from __future__ import annotations

from repro.experiments.common import table
from repro.experiments.e4_nerd import annotate, precision_recall
from repro.kgdata.corpus import obr_corpus
from repro.kgdata.universe import make_universe
from repro.ml.nerd import BASELINE_CONFIG, NERD_CONFIG, NERDIndex, view_from_universe

PAPER = {
    "precision_improvement_pct": 10.0,
    "recall_improvement_pct": 25.0,
    "threshold": 0.9,
    "note": "NERD+type-hints vs deployed alternative, Fig 14(b)",
}

THRESHOLD = 0.9


def run(*, n_entities: int = 800, n_tasks: int = 1200, seed: int = 7) -> dict:
    uni = make_universe(n_entities=n_entities, seed=seed)
    index = NERDIndex(view_from_universe(uni))
    corpus = obr_corpus(uni, n=n_tasks, seed=13)

    def score(config, use_hint):
        preds = annotate(corpus, index, config, use_hint=use_hint)
        return precision_recall(corpus, preds, thresholds=(THRESHOLD,))

    systems = {
        "baseline": score(BASELINE_CONFIG, False),
        "nerd": score(NERD_CONFIG, False),
        "nerd_typed": score(NERD_CONFIG, True),
    }
    base = systems["baseline"][THRESHOLD]
    typed = systems["nerd_typed"][THRESHOLD]
    return {
        "paper": PAPER,
        "systems": {k: v[THRESHOLD] for k, v in systems.items()},
        "precision_improvement_pct": round(
            100.0 * (typed["precision"] - base["precision"]) / base["precision"], 1
        )
        if base["precision"] == base["precision"] and base["precision"]
        else float("inf"),
        "recall_improvement_pct": round(
            100.0 * (typed["recall"] - base["recall"]) / base["recall"], 1
        )
        if base["recall"]
        else float("inf"),
        "n_tasks": n_tasks,
    }


def format_rows(result: dict) -> str:
    rows = [
        [name, s["precision"], s["recall"]]
        for name, s in result["systems"].items()
    ]
    body = table(["system", "precision@0.9", "recall@0.9"], rows)
    return (
        "E5 (Fig 14b) — object resolution at confidence 0.9\n"
        f"{body}\n"
        f'typed-NERD vs baseline: precision +{result["precision_improvement_pct"]}%, '
        f'recall +{result["recall_improvement_pct"]}%   '
        "(paper: ~+10% precision, ~+25% recall)\n"
    )
