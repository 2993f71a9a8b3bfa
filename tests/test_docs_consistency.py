"""Meta-tests keeping the documentation honest.

DESIGN.md cites the claims behind each experiment and names a module
per subsystem; EXPERIMENTS.md and README.md quote measured numbers.
These tests hold the docs to the file tree and to the committed claims
ledger (``benchmarks/claims.json``, written by ``benchmarks/claims.py``)
so they cannot silently rot.  They read the ledger only; the CI
``claims`` job checks that the ledger matches the code.
"""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


LEDGER = {
    claim["id"]: claim
    for claim in json.loads(read("benchmarks/claims.json"))["claims"]
}
CLAIM_ID = re.compile(r"`([a-z][a-z0-9]*\.[a-z0-9_]+)`")
# A quoted number: not part of a word or a longer number, optionally a
# percentage (or percentage points) of a ledger fraction.
NUMBER = re.compile(
    r"(?<![\w.])([+-]?)(\d+(?:\.\d+)?)(?![\d.]*\d)( ?(?:%|pp\b))?"
)


def ledger_numbers(claim_ids):
    """Every number the cited claims rest on, parameter keys included."""
    found = []

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                try:
                    found.append(float(key))
                except ValueError:
                    pass
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append(float(value))

    for claim_id in claim_ids:
        walk(LEDGER[claim_id]["numbers"])
    return found


def unmatched_numbers(text, claim_ids):
    """Numbers in ``text`` that no cited claim holds at their precision."""
    numbers = ledger_numbers(claim_ids)
    misses = []
    for sign, digits, percent in NUMBER.findall(re.sub(r"`[^`]*`", "", text)):
        quoted = ("-" if sign == "-" else "") + digits
        decimals = len(digits.partition(".")[2])
        scale = 100 if percent else 1
        if not any(f"{value * scale:.{decimals}f}" == quoted
                   for value in numbers):
            misses.append(sign + digits + percent)
    return misses


def table_rows(text):
    """Each markdown table in ``text`` as (header cells, data rows)."""
    tables, rows = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            tables.append((rows[0], rows[2:]))
            rows = []
    return tables


def design_rows():
    """DESIGN.md's per-experiment rows and the claims each cites."""
    return [
        (line, CLAIM_ID.findall(line.strip("|").split("|")[-1]))
        for line in read("DESIGN.md").splitlines()
        if re.match(r"\| E\d+ \|", line)
    ]


def experiment_sections():
    """EXPERIMENTS.md's sections and the claims each cites in its
    paragraph that opens with ``Claims:``."""
    cited = []
    for section in read("EXPERIMENTS.md").split("\n## ")[1:]:
        paragraphs = [paragraph for paragraph in section.split("\n\n")
                      if paragraph.startswith("Claims:")]
        cited.append((section, CLAIM_ID.findall("".join(paragraphs))))
    return cited


def readme_rows():
    """README.md's results rows: the reproduction cell cites its claims."""
    [(header, rows)] = [table for table in table_rows(read("README.md"))
                        if "This reproduction" in table[0]]
    column = header.index("This reproduction")
    return [(row[column], CLAIM_ID.findall(row[column])) for row in rows]


class TestClaimsLedger:
    def test_every_verdict_holds(self):
        failing = [claim_id for claim_id, claim in LEDGER.items()
                   if claim["verdict"] is not True]
        assert not failing

    def test_every_cited_claim_exists(self):
        cited = [claims for _, claims in
                 design_rows() + experiment_sections() + readme_rows()]
        assert cited
        missing = {claim_id for claims in cited for claim_id in claims
                   if claim_id not in LEDGER}
        assert not missing

    def test_number_matching_rejects_a_stale_number(self):
        assert unmatched_numbers("5.18 to 2.45", ["fig3.movement"]) == []
        assert unmatched_numbers("5.42 to 2.31", ["fig3.movement"]) == [
            "5.42", "2.31"
        ]
        assert unmatched_numbers("83% or 0.8334", ["fig3.remote_tasks"]) == []


class TestDesignDocument:
    def test_every_experiment_cites_claims(self):
        rows = design_rows()
        assert rows
        for row, claims in rows:
            assert claims, row

    def test_every_named_module_imports(self):
        import importlib

        design = read("DESIGN.md")
        modules = set(re.findall(r"`(repro\.[a-z_.]+)`", design))
        assert modules
        for module in modules:
            importlib.import_module(module)

    def test_experiment_ids_are_continuous(self):
        design = read("DESIGN.md")
        ids = sorted(
            int(m) for m in re.findall(r"\| E(\d+) \|", design)
        )
        assert ids == list(range(1, len(ids) + 1))

    def test_mentions_paper_check(self):
        assert "Paper-text check" in read("DESIGN.md")


class TestExperimentsDocument:
    def test_every_experiment_section_cites_claims(self):
        for section, claims in experiment_sections():
            if section.startswith(("Figure", "E")):
                assert claims, section.splitlines()[0]

    def test_measured_numbers_match_the_ledger(self):
        checked = 0
        for section, claims in experiment_sections():
            for header, rows in table_rows(section):
                columns = [i for i, name in enumerate(header)
                           if "measured" in name]
                for row in rows:
                    for column in columns:
                        checked += 1
                        stale = unmatched_numbers(row[column], claims)
                        assert not stale, (row[0], row[column], stale)
        assert checked

    def test_mentions_every_figure(self):
        text = read("EXPERIMENTS.md")
        for figure in ("Figure 3", "Figure 4", "Figure 5", "Figure 6"):
            assert figure in text


class TestReadme:
    def test_quickstart_code_runs(self):
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README has no python examples"
        namespace = {}
        for block in blocks:
            exec(compile(block, "<README>", "exec"), namespace)  # noqa: S102

    def test_examples_directory_matches_claims(self):
        examples = sorted(p.name for p in (REPO / "examples").glob("*.py"))
        assert "quickstart.py" in examples
        assert len(examples) >= 3  # the deliverable's minimum

    def test_install_instructions_present(self):
        readme = read("README.md")
        assert "pip install -e ." in readme
        assert "python benchmarks/claims.py --check" in readme

    def test_measured_numbers_match_the_ledger(self):
        for cell, claims in readme_rows():
            stale = unmatched_numbers(cell, claims)
            assert not stale, (cell, stale)
