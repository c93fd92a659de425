import json

import run
import studies


def test_benchmark_json_names_what_the_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(studies.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_study_documents_follow_the_seed():
    for workload in studies.WORKLOADS.values():
        assert studies.study_config(workload, 7, 2) == studies.study_config(workload, 7, 2)
        assert studies.study_config(workload, 7, 2) != studies.study_config(workload, 8, 2)
