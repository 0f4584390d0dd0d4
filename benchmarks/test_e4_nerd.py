"""E4 benchmark — Fig 14(a): NERD vs deployed alternative, text annotation."""
from repro.experiments import e4_nerd as exp


def test_e4_nerd_annotation(benchmark, report):
    result = benchmark.pedantic(
        lambda: exp.run(n_entities=800, n_mentions=1500),
        rounds=1, iterations=1,
    )
    report(exp.format_rows(result))
    row = next(s for s in result["sweep"] if s["threshold"] == 0.9)
    assert row["recall_improvement_pct"] > 50.0
