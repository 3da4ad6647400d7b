"""The README's opening table of the paper's results agrees with the code
and the pins: each subcommand runs on the row's model as
`cli.SUBCOMMANDS` declares, each suite is in that model's suite table,
and each check's D4 and E7 case counts are those of the D4 golden and
of the CI step that pins E7."""

import json
import pathlib
import re

from aisles import cli

ROOT = pathlib.Path(__file__).parent.parent
MODELS = {
    "Dynkin": (cli.DYNKIN, cli.DYNKIN_SUITES),
    "Kronecker": (cli.KRONECKER, cli.KRONECKER_SUITES),
}


def _results_table():
    lines = ROOT.joinpath("README.md").read_text(encoding="utf-8").splitlines()
    header = "| Result | Subcommands | Model | Suite | Checks | D4 cases | E7 cases |"
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _counts(cell, checks):
    if cell == "—":
        return {}
    values = [int(v.replace(",", "")) for v in cell.split(" / ")]
    assert len(values) == len(checks), cell
    return dict(zip(checks, values))


def _e7_pins():
    workflow = ROOT.joinpath(".github", "workflows", "tier1.yml").read_text()
    step = workflow.split("name: E7 verification", 1)[1].split("- name:", 1)[0]
    return {name: int(n) for name, n in re.findall(r'"(\w+)": (\d+),', step)}


def _golden_cases(name):
    path = ROOT / "tests" / "fixtures" / "golden" / name
    return {c["name"]: c["cases"] for c in json.loads(path.read_text())["checks"]}


def test_readme_results_table_matches_subcommands_and_pins():
    d4 = _golden_cases("verify_d4.json")
    kronecker = _golden_cases("verify_kronecker.json")
    e7 = _e7_pins()
    assert len(e7) == len(d4) == 9
    rows = _results_table()
    assert [row[0][:2] for row in rows] == ["1.", "2.", "3.", "4.", "4."]
    seen = {}
    for result, subcommands, model, suites, checks, d4_cell, e7_cell in rows:
        name, suite_table = MODELS[model]
        for sub in re.findall(r"`([\w-]+)`", subcommands):
            assert name in cli.SUBCOMMANDS[sub][2], (result, sub)
        for suite in re.findall(r"`(\w+)`", suites):
            assert suite in suite_table, (result, suite)
        names = re.findall(r"`(\w+)`", checks)
        assert (d4_cell == "—") == (e7_cell == "—") == (model == "Kronecker")
        assert set(names) <= set(kronecker if model == "Kronecker" else d4)
        for pinned, cell in ((d4, d4_cell), (e7, e7_cell)):
            for check, cases in _counts(cell, names).items():
                assert pinned[check] == cases, (result, check)
        seen.update(dict.fromkeys(names))
    # every Dynkin check but the table's own consistency checks
    assert set(d4) - set(seen) == {"euler_identity", "ar_formula"}
