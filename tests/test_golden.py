"""Golden CLI corpus: every query in ``golden/queries.txt`` must reproduce its
recorded ``--json`` report and exit code byte for byte.

Regenerate the recorded outputs after an intended change with
``PYTHONPATH=src python tests/test_golden.py --regenerate`` and explain every
entry that changed.
"""

import contextlib
import io
import json
import pathlib
import shlex
import sys

import pytest

from orlicalc.cli import main

HERE = pathlib.Path(__file__).parent / "golden"
QUERIES = HERE / "queries.txt"
EXPECTED = HERE / "expected.jsonl"


def read_queries():
    lines = QUERIES.read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def run_query(query):
    """One query through ``main``, as an in-process caller runs it: with
    the parser that ``main`` keeps for the whole process."""
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(["--json"] + shlex.split(query))
    return {"query": query, "exit": code, "stdout": stream.getvalue()}


def read_expected():
    return [json.loads(line) for line in EXPECTED.read_text().splitlines()]


def test_corpus_matches_queries():
    assert [e["query"] for e in read_expected()] == read_queries()


@pytest.mark.parametrize("entry", read_expected(), ids=lambda e: e["query"][:60])
def test_query_output_is_unchanged(entry):
    assert run_query(entry["query"]) == entry


def test_corpus_twice_in_one_process(tmp_path):
    # the shared parser answers the whole corpus, then a usage error and a
    # batch line that does not split, then the corpus backwards, and every
    # report is the recorded one
    expected = read_expected()
    assert [run_query(e["query"]) for e in expected] == expected
    batch = tmp_path / "queries.txt"
    batch.write_text("conj --young '{\"class\"\n")
    assert run_query("conj --frobnicate")["exit"] == 1
    assert run_query(f"--batch {batch}") == {
        "query": f"--batch {batch}", "exit": 1,
        "stdout": "error: line 1: No closing quotation\n"}
    assert [run_query(e["query"]) for e in reversed(expected)] == expected[::-1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    with EXPECTED.open("w") as fh:
        for query in read_queries():
            fh.write(json.dumps(run_query(query), sort_keys=True) + "\n")
