"""BENCHMARK.json stays within the shape the benchmark and its runner expect."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_names_units_bounds():
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in SPEC[section]:
            assert NAME.match(item["name"]), item["name"]
            assert item["name"] not in seen
            seen.add(item["name"])
    for item in SPEC["workloads"]:
        assert set(item) == {"name", "why"} and len(item["why"]) <= 200
    for item in SPEC["end_to_end"]:
        assert set(item) == {"name", "unit", "better", "bound"}
        assert UNIT.match(item["unit"]) and item["better"] in ("higher", "lower")
        assert 0 < item["bound"] <= 0.25
    for item in SPEC["per_layer"]:
        assert set(item) == {"name", "unit", "better"}
        assert UNIT.match(item["unit"]) and item["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_runner():
    import run

    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
