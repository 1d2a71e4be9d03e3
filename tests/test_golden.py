"""Golden CLI corpus: every query in ``golden/queries.txt`` must reproduce its
recorded ``--json`` report and exit code byte for byte.

Regenerate the recorded outputs after an intended change with
``PYTHONPATH=src python tests/test_golden.py --regenerate`` and explain every
entry that changed.
"""

import io
import json
import pathlib
import shlex
import sys

import pytest

from orlicalc.cli import _run_one, build_parser

HERE = pathlib.Path(__file__).parent / "golden"
QUERIES = HERE / "queries.txt"
EXPECTED = HERE / "expected.jsonl"


def read_queries():
    lines = QUERIES.read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def run_query(query):
    stream = io.StringIO()
    code = _run_one(build_parser(), ["--json"] + shlex.split(query), stream)
    return {"query": query, "exit": code, "stdout": stream.getvalue()}


def read_expected():
    return [json.loads(line) for line in EXPECTED.read_text().splitlines()]


def test_corpus_matches_queries():
    assert [e["query"] for e in read_expected()] == read_queries()


@pytest.mark.parametrize("entry", read_expected(), ids=lambda e: e["query"][:60])
def test_query_output_is_unchanged(entry):
    assert run_query(entry["query"]) == entry


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    with EXPECTED.open("w") as fh:
        for query in read_queries():
            fh.write(json.dumps(run_query(query), sort_keys=True) + "\n")
