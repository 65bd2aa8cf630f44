"""Command-line interface: report schema, exit codes, determinism, and
selector/error handling."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import pytest

from mackeykit import cli
from mackeykit.catalog import BUILTIN_NAMES
from mackeykit.cli import SCHEMA_VERSION, run
from mackeykit.groups import max_order_cap


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- schema and status ---------------------------------------------------------


def test_group_report_schema(capsys):
    code, rep = run_json(capsys, ["group", "--group", "s3"])
    assert code == 0
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["status"] == "pass"
    assert rep["subcommand"] == "group"
    assert rep["group"] == {"ref": "s3", "order": 6}
    assert rep["seed"] == 0
    assert rep["payload"]["order"] == 6
    assert rep["payload"]["abelian"] is False
    assert len(rep["payload"]["subgroup_classes"]) == 4
    assert "timing_ms" not in rep


def test_tom_payload(capsys):
    code, rep = run_json(capsys, ["tom", "--group", "c2"])
    assert code == 0
    assert rep["payload"]["marks"] == [[2, 0], [1, 1]]


def test_reports_are_byte_identical_across_runs(capsys):
    run(["xburn", "--group", "s3"])
    first = capsys.readouterr().out
    run(["xburn", "--group", "s3"])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


# sha256 of each report's stdout; a refactor must keep every byte
REPORT_SHA256 = {
    ("tom", "--group", "d8"):
        "a8f3c009382e0bd634fab58c7231e507ef9ac79d80f1cf3fe99b7454b548d7da",
    ("xburn", "--group", "s3"):
        "240c668c60475f51f804956742a2846733ddb24d6264c5fa45246f916342d382",
    ("blocks", "--group", "s4", "--prime", "3"):
        "6669da176a2c16ba37432553b528078085a61323883e3017d443f297904606ed",
    ("isocomma", "--group", "s4", "--left", "1", "--right", "2"):
        "05b6b64daccc41cafeadd84d39565cb5a48a338321caa5f9eddffb027aa77fc5",
    ("isocomma", "--group", "s4", "--left", "1,2", "--right", "1,2"):
        "a93419e2a71dadcec75bd5a15f27f154b99db2b0ddab51e5175b7b9bad2bb9b8",
    ("verify", "--group", "c3", "--prime", "2"):
        "1ffeeca9e395c36804a1cff1fd38070ac1905661f0eade6b2dddcc02eae1ca78",
    ("mackey-check", "--group", "d8", "--functor", "burnside"):
        "53faa66a9b989d21b3375377415c2254731d3521146db88ab74de3781de75290",
    ("xburn", "--group", "s4"):
        "9fefb986077221730a8441454d1bb2fa918af457b4c62cf945f39fd2a92560d9",
    ("green-corr", "--group", "s4", "--prime", "3", "--vertex", "4", "--module", "trivial"):
        "84e06d9a00a652a97588335dff4d715fd3618f92729ac7d4b621597ee9152bb2",
    ("vertex", "--group", "s4", "--prime", "2", "--module", "trivial"):
        "aa3f7636b4196fb39a8548670f45bb5bcf3e57747ad97bab0ded2f508575cde2",
    ("xburn", "--group", "d8", "--prime", "2"):
        "031824010467e84a288146ed347bc23f5603ec94f640bc3fc520ffad231ed115",
    ("verify", "--group", "v4", "--prime", "2"):
        "001a213b3cea48d9a8697afa586affaaf959cb4263b9a64bee43dfac74c70666",
    ("verify", "--group", "d8", "--prime", "2"):
        "4692e234ccb679c4becf691b880655b5feee775025d137f802863bf634d55efc",
    ("mackey-check", "--group", "s4", "--functor", "burnside"):
        "ba47bb18e9a3d4e28bab442d412a3098a235719ee557446b8ec4d2d671184fa3",
    ("mackey-check", "--group", "q8", "--functor", "burnside"):
        "5f0530adadc49c7edb9dc29e2a34507f23bea1b5920c6d7f0132ce8caeb701f6",
    ("blocks", "--group", "s4", "--prime", "2"):
        "a6238b1ea91276acdb50df7d81388619ad785ffdb79e93816735dc76f89f2e3f",
    ("blocks", "--group", "d8", "--prime", "2"):
        "71440b55ce99478aff2cb0f0a5793b8fc8611dfa83bd0727714ba379ed922eb5",
    ("blocks", "--group", "a4", "--prime", "3"):
        "ceb92bbf0f7d923a5ef54341eade56e983b53ededabc49d1f66ef5c5cc7c785d",
    ("xburn", "--group", "s4", "--prime", "3"):
        "c5c39be185b753c96f9d544f456b49f501e3b760d8cc6d35cf3d10c888be193d",
    ("verify", "--group", "s3"):
        "fbd62f90b2f3ca6b1140e7a50a682a2b21bbea9c2e6d92c7ba88c994382d823d",
    ("verify", "--group", "s4", "--prime", "2"):
        "93e393c2c4ff4c246661f2da3908b4cbde42274977feb434177e46444328f688",
    ("verify", "--group", "s4", "--prime", "3"):
        "24dafb1bab8a2cf11617a801c17cb8cc2b6aecd1709863ab67cbb51a992c3c20",
    ("verify", "--group", "a4", "--prime", "3"):
        "c9b19aab7983d09ea4ae22f42da901eb9f1b91da2f77240e651bbd74d817d27f",
}
# the constant functor's report names no field, so Q, F_2 and F_3 give the
# same bytes
CONSTANT_SHA256 = {
    "s4": "0b5749e277fd036f34934df966f4d0197e4fd75a8ac67e5004715ec8e5aee61d",
    "d8": "82f3975acb0782415c864e0d8c253556aa374f9dca38574010a43b992eae5f7b",
    "q8": "5cd475b2003212ecb02d6016d1fa6ac8aa52e03e1e6d7fbf5bd3ccce36342470",
}
for _name, _sha in CONSTANT_SHA256.items():
    for _prime in ([], ["--prime", "2"], ["--prime", "3"]):
        REPORT_SHA256[("mackey-check", "--group", _name, "--functor", "constant", *_prime)] = _sha


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256))
def test_reports_match_pinned_bytes(capsys, argv):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[argv]


@pytest.mark.parametrize("argv", [["mackey-check", "--group", "s3"],
                                  ["verify", "--group", "c3", "--prime", "2"]])
def test_each_axiom_suite_runs_once_per_command(capsys, monkeypatch, argv):
    from mackeykit import mackey

    calls = {"verify_mackey_axioms": 0, "verify_green_axioms": 0}
    for name in calls:
        orig = getattr(mackey, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(mackey, name, counted)
        monkeypatch.setattr(cli, name, counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert calls == {"verify_mackey_axioms": 1, "verify_green_axioms": 1}


def test_timing_flag_adds_timing_and_nothing_else(capsys):
    code, rep = run_json(capsys, ["tom", "--group", "s3", "--timing"])
    assert code == 0
    assert "timing_ms" in rep and "total" in rep["timing_ms"]
    code, plain = run_json(capsys, ["tom", "--group", "s3"])
    rep.pop("timing_ms")
    assert rep == plain


def test_text_format(capsys):
    code = run(["tom", "--group", "s3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("tom on s3 (order 6): pass")


def test_json_output_is_sorted(capsys):
    run(["group", "--group", "c3"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_writer_gives_the_bytes_of_json_dumps(capsys, monkeypatch, name):
    """Every subcommand's report on a built-in group, timing floats included,
    and the refusals, written as json.dumps(sort_keys=True, indent=2) would."""
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, args: (reports.append(report),
                                                            emit(report, args)))
    p = next(q for q in (2, 3) if cli.load_group(name).order % q == 0)
    for argv in (["group"], ["tom"], ["xburn"], ["blocks", "--prime", str(p)],
                 ["vertex", "--prime", str(p), "--module", "trivial"],
                 ["vertex", "--prime", str(p), "--module", "regular"],
                 ["isocomma", "--left", "", "--right", "1"],
                 ["mackey-check"], ["mackey-check", "--functor", "constant"],
                 ["verify", "--prime", str(p)], ["tom", "--prime", "1"]):
        run(argv + ["--group", name, "--timing"])
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], sort_keys=True, indent=2) + "\n", argv
    assert len(reports) == 11


@pytest.mark.parametrize("obj", [
    {}, [], {"a": [], "b": {}, "c": [[]]}, [True, False, None, 0, -1, 2 ** 70],
    ["", "quote \" backslash \\ newline \n tab \t", "\u00e9\u2603\U0001f600", "\x00\x1f"],
    {"\u00e9": 1.5, "z": -0.0, "a": [1e300, float("inf"), float("nan")]},
    {2: "int keys sort as ints", 10: None}, [(1, 2), [3, [4, {"k": [5]}]]],
])
def test_report_writer_edge_cases(obj):
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


# -- subcommand behavior ---------------------------------------------------------


def test_isocomma_subcommand(capsys):
    code, rep = run_json(capsys, ["isocomma", "--group", "s3",
                                  "--left", "1", "--right", "4"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["payload"]["counts_match"] is True
    assert all(c["isomorphic"] for c in rep["payload"]["components"])


def test_xburn_payload_rank(capsys):
    code, rep = run_json(capsys, ["xburn", "--group", "c2"])
    assert code == 0
    assert rep["payload"]["rank"] == 4
    assert rep["payload"]["burnside_subring_embeds"] is True


def test_xburn_with_prime_reports_rho_coh(capsys):
    code, rep = run_json(capsys, ["xburn", "--group", "s3", "--prime", "3"])
    assert code == 0
    assert rep["payload"]["rho_coh"] == {
        "unital": True, "homomorphism": True, "surjective": True}


def test_blocks_subcommand(capsys):
    code, rep = run_json(capsys, ["blocks", "--group", "s3", "--prime", "2"])
    assert code == 0
    assert sorted(b["dimension"] for b in rep["payload"]["blocks"]) == [2, 4]


def test_vertex_subcommand(capsys):
    code, rep = run_json(capsys, ["vertex", "--group", "s3", "--prime", "2",
                                  "--module", "trivial"])
    assert code == 0
    assert rep["payload"]["vertex"]["order"] == 2


def test_mackey_check_subcommand(capsys):
    code, rep = run_json(capsys, ["mackey-check", "--group", "c3"])
    assert code == 0
    clauses = {c["name"] for c in rep["payload"]["mackey_clauses"]}
    assert "mackey-formula" in clauses
    assert all(not c["failures"] for c in rep["payload"]["mackey_clauses"])
    assert rep["payload"]["cohomological"]["holds"] is False  # Burnside functor


def test_mackey_check_constant_is_cohomological(capsys):
    code, rep = run_json(capsys, ["mackey-check", "--group", "c3",
                                  "--functor", "constant", "--prime", "3"])
    assert code == 0
    assert rep["payload"]["cohomological"]["holds"] is True


def test_verify_subcommand_small_group(capsys):
    code, rep = run_json(capsys, ["verify", "--group", "s3", "--prime", "2"])
    assert code == 0
    assert rep["status"] == "pass"
    phases = {p["name"]: p["instances"] for p in rep["payload"]["phases"]}
    assert phases["isocomma-decompositions"] == 16  # 4 x 4 class pairs
    assert phases["mackey-functor-axioms"] > 0
    assert rep["payload"]["block_dimensions"] == [2, 4]
    assert "failures" not in rep


# -- exit codes -------------------------------------------------------------------


def test_unknown_group_exits_2(capsys):
    code, rep = run_json(capsys, ["group", "--group", "nope"])
    assert code == 2
    assert rep["status"] == "error"
    assert "reason" in rep


def test_bad_prime_exits_2(capsys):
    code, rep = run_json(capsys, ["blocks", "--group", "s3", "--prime", "1"])
    assert code == 2
    assert rep["status"] == "error"
    code, rep = run_json(capsys, ["blocks", "--group", "s3", "--prime", "4"])
    assert code == 2


def test_bad_subgroup_selector_exits_2(capsys):
    code, rep = run_json(capsys, ["isocomma", "--group", "s3",
                                  "--left", "9", "--right", "1"])
    assert code == 2
    assert "outside group" in rep["reason"]


@pytest.mark.parametrize("spec", [
    {"table": [[0.5, 1], [1, 0]]},
    {"table": [[True, False], [False, True]]},
    {"table": [[0, True], [True, 0]]},
    {"table": [["0", "1"], ["1", "0"]]},
    {"degree": 3, "generators": [[1.9, 2, 0]]},
    {"degree": 3, "generators": [["1", "2", "0"]]},
    {"degree": 3, "generators": [[True, 2, 0]]},
    {"degree": 2.5, "generators": [[1, 0]]},
    {"degree": "2", "generators": [[1, 0]]},
    {"degree": True, "generators": [[0]]},
    {"degree": -1, "generators": []},
    {"degree": 3, "generators": [1, 2, 0]},
    {"table": [[0, 1], [1, 2 ** 32]]},
    {"degree": 3, "generators": [[1, 2, 10 ** 30]]},
    {"table": [[0, 1], [1, 0]], "names": ["a"]},
    {"table": [[0, 1], [1, 0]], "names": 2},
])
def test_malformed_group_spec_exits_2(capsys, tmp_path, spec):
    # each of these was read as a group (truncated, parsed or with too few
    # names) and reported pass, or crashed while loading or later
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    for argv in (["group"], ["tom"], ["isocomma", "--left", "1", "--right", "1"]):
        code, rep = run_json(capsys, argv + ["--group", str(path)])
        assert code == 2 and rep["status"] == "error"
        assert rep["reason"].startswith("malformed group spec")


def test_group_spec_with_names_and_integer_entries_loads(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": ["e", "a"]}))
    code, rep = run_json(capsys, ["isocomma", "--group", str(path), "--left", "1", "--right", "1"])
    assert code == 0 and rep["group"]["order"] == 2


def _spec_report(capsys, tmp_path, spec):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    return run_json(capsys, ["group", "--group", str(path)])


def test_a_huge_degree_is_refused_before_any_allocation(capsys, tmp_path):
    t0 = time.perf_counter()
    code, rep = _spec_report(capsys, tmp_path, {"degree": 10 ** 12, "generators": []})
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and rep["status"] == "error"
    assert rep["reason"].startswith("malformed group spec: degree 1000000000000 exceeds")


def test_the_degree_is_bounded_by_the_order_cap(capsys, tmp_path, monkeypatch):
    code, rep = _spec_report(capsys, tmp_path, {"degree": max_order_cap() + 1, "generators": []})
    assert code == 2 and rep["reason"].startswith("malformed group spec: degree")
    monkeypatch.setenv("MACKEYKIT_MAX_ORDER", "6")
    code, rep = _spec_report(capsys, tmp_path, {"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]})
    assert code == 0 and rep["group"]["order"] == 6
    code, rep = _spec_report(capsys, tmp_path,
                             {"degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6]]})
    assert code == 2 and rep["reason"] == ("malformed group spec: degree 7 exceeds the order "
                                           "cap 6 (set MACKEYKIT_MAX_ORDER to raise it)")


def test_bad_module_selector_exits_2(capsys):
    code, rep = run_json(capsys, ["vertex", "--group", "s3", "--prime", "2",
                                  "--module", "nonsense"])
    assert code == 2
    assert "module selector" in rep["reason"]


def test_decomposable_module_vertex_exits_2(capsys):
    code, rep = run_json(capsys, ["vertex", "--group", "s3", "--prime", "2",
                                  "--module", "regular"])
    assert code == 2
    assert "indecomposable" in rep["reason"]


def test_uncertified_module_vertex_exits_2(capsys, tmp_path):
    # End of the regular F_3[C9]-module is too large to search exhaustively
    spec = tmp_path / "c9.json"
    spec.write_text(json.dumps({"name": "c9", "degree": 9,
                                "generators": [[1, 2, 3, 4, 5, 6, 7, 8, 0]]}))
    code, rep = run_json(capsys, ["vertex", "--group", str(spec), "--prime", "3",
                                  "--module", "regular"])
    assert code == 2
    assert rep["status"] == "error"
    assert "could not be certified" in rep["reason"]
    code, rep = run_json(capsys, ["vertex", "--group", str(spec), "--prime", "3",
                                  "--module", "trivial"])
    assert code == 0
    assert rep["payload"]["vertex"]["order"] == 9


def test_verify_refuses_an_oversize_projection_map_before_any_phase(capsys, monkeypatch,
                                                                     tmp_path):
    # S5 with the trivial H would need a 14400 x 14400 projection map
    spec = tmp_path / "s5.json"
    spec.write_text(json.dumps({"name": "s5", "degree": 5,
                                "generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}))
    calls = []
    original = cli.verify_isocomma_decomposition

    def counted(G, K, H):
        calls.append((K, H))
        return original(G, K, H)

    monkeypatch.setattr(cli, "verify_isocomma_decomposition", counted)
    code, rep = run_json(capsys, ["verify", "--group", str(spec), "--prime", "2"])
    assert code == 2
    assert rep["status"] == "error"
    assert rep["reason"] == ("projection map would have 207360000 entries, "
                             "above the cap of 4194304")
    assert calls == []


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate", "--group", "s3"]) == 2


def test_missing_required_prime_exits_2(capsys):
    assert run(["blocks", "--group", "s3"]) == 2


def test_shared_parser_gives_the_bytes_of_fresh_parsers(capsys):
    # one process, one parser: two subcommands, a bad usage, then a good call
    calls = [["blocks", "--group", "s4", "--prime", "2"],
             ["isocomma", "--group", "s3", "--left", "1", "--right", "1"],
             ["blocks", "--group", "s3"],
             ["tom", "--group", "d8", "--format", "text"]]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    fresh = outcomes(fresh=True)
    cli._build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "--prime" in shared[2][2]
    assert shared == fresh


def test_identity_failure_exits_1(capsys, monkeypatch):
    # no honest failing input exists for a correct build, so exercise the
    # plumbing: a handler reporting a failed identity must yield exit 1
    def fake(G, args):
        return {"stub": True}, ["identity X != Y at level Z"]

    monkeypatch.setitem(cli._HANDLERS, "tom", fake)
    code, rep = run_json(capsys, ["tom", "--group", "c2"])
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["reason"] == "identity X != Y at level Z"
    assert rep["failures"] == ["identity X != Y at level Z"]


def test_arithmetic_error_exits_1(capsys, monkeypatch):
    def fake(G, args):
        raise ArithmeticError("composite is not the identity\ndetail line")

    monkeypatch.setitem(cli._HANDLERS, "tom", fake)
    code, rep = run_json(capsys, ["tom", "--group", "c2"])
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["reason"] == "composite is not the identity"


def test_internal_error_exits_3(capsys, monkeypatch):
    def fake(G, args):
        raise KeyError("stray")

    monkeypatch.setitem(cli._HANDLERS, "tom", fake)
    code, rep = run_json(capsys, ["tom", "--group", "c2"])
    assert code == 3
    assert rep["status"] == "internal-error"
    assert rep["reason"] == "KeyError: 'stray'"
    assert rep["payload"] is None


# -- console entry point -------------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "mackeykit.cli", "group", "--group", "q8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["group"]["order"] == 8
    assert rep["payload"]["abelian"] is False
