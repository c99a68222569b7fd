"""``tools/digests.py`` prints one line per instance of the comparison set
as ``serialize_instance`` writes it again, and one per CLI run, ``verify``
of each exact clear's document and of its price-shifted and its moved
copies included; on
the fixtures its lines have the documented format, match the writer's and
the CLI's own output, and come out the same on a rerun."""

import hashlib
import importlib.util
import json
import os
import re
from pathlib import Path

from daclear.cli import run

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(
    r"fixture (\S+) (clear-exact|verify|verify-shifted|verify-moved|clear-heuristic|oracle) (\d+)"
    r" ([0-9a-f]{64}) ([0-9a-f]{64})"
    r"|fixture (\S+) serialize ([0-9a-f]{64})"
)
EMPTY = hashlib.sha256(b"").hexdigest()


def _digests():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_digests_are_well_formed_and_repeatable(capsys, tmp_path):
    digests = _digests()
    lines = list(digests.digest_lines(digests.fixtures()))
    names = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    runs = {(m[1], m[2]): m for m in matches if m[1]}
    written = {m[6]: m[7] for m in matches if m[6]}
    # a verify, a verify-shifted and a verify-moved line follow each exact
    # clear that wrote a document
    cleared = [name for name in names if runs[name, "clear-exact"][4] != EMPTY]
    assert cleared and len(cleared) < len(names)
    expected = []
    for name in names:
        expected.append((name, "serialize"))
        for command in digests.COMMANDS:
            expected.append((name, command))
            if command == "clear-exact" and name in cleared:
                expected += [(name, "verify"), (name, "verify-shifted"), (name, "verify-moved")]
    assert [(m[1], m[2]) if m[1] else (m[6], "serialize") for m in matches] == expected
    # the serialize line digests the writer's document of the parsed book:
    # the fixture's own bytes for the two fixtures the writer wrote
    for name in ("no_price_support", "exact_log_pricing_fails"):
        path = ROOT / "fixtures" / f"{name}.json"
        assert written[name] == hashlib.sha256(path.read_bytes()).hexdigest()
    # appendix_a clears and verifies; no_price_support exits 2 with only an
    # error message
    fixture = str(ROOT / "fixtures" / "appendix_a.json")
    assert run(["clear", "--mode", "exact", "--instance", fixture]) == 0
    out = capsys.readouterr().out
    assert runs["appendix_a", "clear-exact"].group(3, 4, 5) == (
        "0", hashlib.sha256(out.encode()).hexdigest(), EMPTY
    )
    solution = tmp_path / "solution.json"
    solution.write_text(out, encoding="utf-8")
    assert run(["verify", "--instance", fixture, "--solution", str(solution)]) == 0
    report = capsys.readouterr().out
    assert json.loads(report)["pass"] is True
    assert runs["appendix_a", "verify"].group(3, 4, 5) == (
        "0", hashlib.sha256(report.encode()).hexdigest(), EMPTY
    )
    # exact_log_pricing_fails's exact document with its first area's
    # prices raised by 1.0 fails, with filling and flow-price violations
    fixture = ROOT / "fixtures" / "exact_log_pricing_fails.json"
    assert run(["clear", "--mode", "exact", "--instance", str(fixture)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(digests.shifted(out, fixture.read_text(encoding="utf-8")))
    first = json.loads(fixture.read_text(encoding="utf-8"))["areas"][0]["id"]
    assert [p["price"] for p in doc["prices"]] == [
        p["price"] + (p["area"] == first) for p in json.loads(out)["prices"]
    ]
    solution.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--instance", str(fixture), "--solution", str(solution)]) == 0
    report = capsys.readouterr().out
    checks = json.loads(report)
    assert checks["pass"] is False
    assert checks["filling"]["violations"] and checks["flow_price"]["violations"]
    assert runs["exact_log_pricing_fails", "verify-shifted"].group(3, 4, 5) == (
        "0", hashlib.sha256(report.encode()).hexdigest(), EMPTY
    )
    # its document with every fill raised by 0.5 and every flow by 100.0
    # breaks fill bounds, flow bounds and ramp rows
    doc, cleared = json.loads(digests.moved(out)), json.loads(out)
    assert doc["delta"] == {sid: fill + 0.5 for sid, fill in cleared["delta"].items()}
    assert [f["flow"] for f in doc["flows"]] == [f["flow"] + 100.0 for f in cleared["flows"]]
    solution.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--instance", str(fixture), "--solution", str(solution)]) == 0
    report = capsys.readouterr().out
    kinds = {v["condition"] for v in json.loads(report)["bounds"]["violations"]}
    assert kinds == {"fill-bound", "flow-bound", "ramp"}
    assert runs["exact_log_pricing_fails", "verify-moved"].group(3, 4, 5) == (
        "0", hashlib.sha256(report.encode()).hexdigest(), EMPTY
    )
    for command in digests.COMMANDS:
        code, out_sha, err_sha = runs["no_price_support", command].group(3, 4, 5)
        assert code == "2" and out_sha == EMPTY and err_sha != EMPTY
    assert list(digests.digest_lines(digests.fixtures())) == lines
    # with the 200 + 110 + 110 generated instances: 423 instances, 423
    # serialize lines and 1,269 clear and oracle runs
    assert sum(len(seeds) for seeds in digests.SEEDS.values()) + len(names) == 423


def test_blas_runs_on_one_thread(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _digests()
    assert [os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")] == ["1", "1", "1"]
