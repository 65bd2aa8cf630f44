"""The benchmark's own tests: its oracles must catch wrong results.

Run from the checkout root with `python3 -m pytest perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import _run_pass  # noqa: E402


def _ops(workload, tmp_path, pins=None, seed=workloads.DEFAULT_SEED):
    ops = workloads.Workload(workload, ROOT, str(tmp_path), seed, pins).round(0)
    return {op.id: op for op in ops}


def _tampered(op, tamper):
    return workloads.Op(op.id, lambda: tamper(op.run()), op.check)


def _fail_ratio(ops):
    latencies, failures = [], []
    _run_pass(ops, latencies, failures)
    return len(failures) / len(latencies)


def test_off_by_one_hom_dimension_fails(tmp_path):
    op = _ops("modules-fp", tmp_path)["hom_space:a4:F2:0:0"]
    assert op.check(op.run()) == []
    bad = _tampered(op, lambda basis: basis[:-1])
    assert bad.check(bad.run())
    assert _fail_ratio([op]) == 0.0
    assert _fail_ratio([op, bad]) == 0.5


def test_flipped_cli_status_fails(tmp_path):
    ops = _ops("cli-mix", tmp_path)
    op = ops["isocomma:a4:0:0"]
    assert op.check(op.run()) == []

    def flip(result):
        code, text = result
        return code, text.replace('"status": "pass"', '"status": "fail"')
    bad = _tampered(op, flip)
    assert bad.check(bad.run())
    assert _fail_ratio([op, bad]) == 0.5


def test_wrong_oracle_value_fails(tmp_path):
    op = _ops("cli-mix", tmp_path)["isocomma:a4:0:0"]

    def drop_component(result):
        code, text = result
        report = json.loads(text)
        report["payload"]["components"].pop()
        return code, json.dumps(report)
    bad = _tampered(op, drop_component)
    assert any("vertex-group orders" in p for p in bad.check(bad.run()))


def test_refusal_must_keep_its_exit_code(tmp_path):
    op = _ops("cli-mix", tmp_path)["vertex:s4:3:regular"]
    code, text = op.run()
    assert code == 2 and op.check((code, text)) == []
    assert op.check((0, text))


def test_pinned_digest_mismatch_fails(tmp_path):
    pins = {"isocomma:a4:0:0@0": "0" * 64}
    op = _ops("cli-mix", tmp_path, pins)["isocomma:a4:0:0"]
    assert op.check(op.run()) == ["report differs from its pinned sha256"]


def test_unexpected_raise_fails(tmp_path):
    op = _ops("modules-fp", tmp_path)["hom_space:a4:F2:0:0"]

    def boom():
        raise KeyError("stray")
    assert _fail_ratio([workloads.Op(op.id, boom, op.check)]) == 1.0


def test_same_op_mix_for_every_seed_and_round(tmp_path):
    ids = sorted(_ops("modules-q", tmp_path))
    other = workloads.Workload("modules-q", ROOT, str(tmp_path), 7, None)
    assert sorted(op.id for op in other.round(0)) == ids
    assert sorted(op.id for op in other.round(1)) == ids


def test_no_program_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
