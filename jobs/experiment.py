#!/usr/bin/env python
"""spark-submit entrypoint for the E0–E8 experiment harnesses.

Run: ``spark-submit jobs/experiment.py NAME`` (or plain
``python jobs/experiment.py NAME``), where NAME is a module of
``repro.experiments`` such as ``e1_views``.  An experiment whose ``run``
takes a session gets the one session config (broadcast joins off, then
``sparktune.tune``); the others run on the driver.  Prints the
experiment's paper-vs-measured table; see DESIGN.md §4.
"""
import importlib
import inspect
import pkgutil
import re
import sys

from pyspark.sql import SparkSession

import repro.experiments
from repro.sparktune import tune

NAMES = sorted(
    m.name
    for m in pkgutil.iter_modules(repro.experiments.__path__)
    if re.fullmatch(r"e\d+_\w+", m.name)
)


def main(argv: list[str]) -> None:
    if len(argv) != 1 or argv[0] not in NAMES:
        sys.exit(f"usage: experiment.py NAME, where NAME is one of: {' '.join(NAMES)}")
    name = argv[0]
    exp = importlib.import_module(f"repro.experiments.{name}")
    if "spark" in inspect.signature(exp.run).parameters:
        spark = tune(
            SparkSession.builder.appName(name)
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        result = exp.run(spark)
    else:
        result = exp.run()
    print(exp.format_rows(result))


if __name__ == "__main__":
    main(sys.argv[1:])
