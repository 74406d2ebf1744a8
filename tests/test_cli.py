import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from syzlab.cache import FORMAT_VERSION, Cache
from syzlab.cyclo import Cyclotomic, encode_scalar
from syzlab.cli import OPTION_TABLE, main, option_synopsis, parse_problem, usage
from syzlab.errors import LimitExceeded
from syzlab.groups import builtin_group, specialization
from syzlab.invariants import ArtinianReduction, InvariantRing, noether_number
from syzlab.limits import Budget
from syzlab.schur import universal_multiplicities

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_syzygies_veronese(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "syzygies",
        "--input",
        str(PROBLEMS / "z2_antipodal_syzygies.json"),
        "--cache-dir",
        str(tmp_path / "cache"),
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["task"] == "syzygies"
    assert report["results"]["tor_table"]["rows"] == [[0, 0, 1], [1, 4, 1]]
    assert report["results"]["s"] == {"1": 4, "2": "none"}
    assert report["results"]["generators"]["degrees"] == [2, 2, 2]
    assert report["parameters"]["mode"] == "minimal"
    assert report["version"]


def test_bounds_z3_report_and_csv(tmp_path, capsys):
    path = str(PROBLEMS / "z3_veronese_bounds.json")
    code, out, _ = run_cli(capsys, "bounds", "--input", path, "--no-cache")
    assert code == 0
    report = json.loads(out)
    (r1, r2) = report["results"]["reports"]
    assert r1["s_value"] == 6
    assert r1["bounds"] == {
        "delta_p": 0,
        "universal_bound": 27,
        "cubic_bound": 27,
        "derksen_bound": 6,
        "scan_ceiling": 7,
    }
    assert r2["s_value"] == 9
    assert r2["verdicts"]["derksen_bound"] == "satisfied"
    code, out, _ = run_cli(
        capsys, "bounds", "--input", path, "--no-cache", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,s_value,bound,value,verdict"
    assert "1,6,derksen_bound,6,satisfied" in lines


def test_conjecture_violation_is_written_as_a_finding(tmp_path, capsys, monkeypatch):
    """An s_p above (p+1)g is a finding, not a failure: the run exits 0 with
    the verdict VIOLATED, writes the report to `findings.json` beside the
    input and says so in one stderr line."""
    import syzlab.bounds

    real = syzlab.bounds.compute_bounds
    monkeypatch.setattr(
        syzlab.bounds, "compute_bounds", lambda *args: {**real(*args), "derksen_bound": 3}
    )
    path = tmp_path / "z2.json"
    path.write_text((PROBLEMS / "z2_antipodal_bounds.json").read_text())
    code, out, err = run_cli(capsys, "bounds", "--input", str(path), "--no-cache")
    findings_path = tmp_path / "findings.json"
    assert code == 0
    assert err == f"conjecture findings written to {findings_path}\n"
    r1, r2 = json.loads(out)["results"]["reports"]
    assert (r1["s_value"], r1["verdicts"]["derksen_bound"]) == (4, "VIOLATED")
    assert r2["verdicts"]["derksen_bound"] == "vacuous"
    (finding,) = json.loads(findings_path.read_text())["findings"]
    assert finding["report"] == r1
    assert (finding["kind"], finding["p"], finding["s_value"], finding["derksen_bound"]) == (
        "conjecture-violation",
        1,
        4,
        3,
    )


def test_group_task_s3(capsys):
    code, out, _ = run_cli(
        capsys, "group", "--input", str(PROBLEMS / "s3_group.json"), "--no-cache"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["order"] == 6
    assert res["class_count"] == 3
    assert res["exponent"] == 6
    assert res["catalog"]["m"] == 4
    assert res["m_bound"] == {"passed": True, "m_squared": 16, "ng": 18}


def test_noether_custom_permutation_group(capsys):
    code, out, _ = run_cli(
        capsys,
        "noether",
        "--input",
        str(PROBLEMS / "klein_custom_noether.json"),
        "--no-cache",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res == {"beta": 3, "exact": True, "method": "regular_representation"}


def test_noether_route_follows_the_catalog(tmp_path, capsys, monkeypatch):
    """A group with an irreducible catalog is scanned in isotypic
    coordinates; only a group without one builds the permutation form."""
    import syzlab.invariants as inv

    built = []
    real = inv.regular_representation
    monkeypatch.setattr(inv, "regular_representation", lambda g: built.append(g) or real(g))
    doc = tmp_path / "q8.json"
    doc.write_text(json.dumps({"group": "builtin:quaternion:8", "task": "noether"}))
    code, out, err = run_cli(capsys, "noether", "--input", str(doc), "--no-cache")
    assert code == 0, err
    assert json.loads(out)["results"] == {
        "beta": 6, "exact": True, "method": "regular_representation"
    }
    assert built == []
    path = str(PROBLEMS / "klein_custom_noether.json")
    code, out, err = run_cli(capsys, "noether", "--input", path, "--no-cache")
    assert code == 0, err
    assert len(built) == 1


def test_invariants_task(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--input", str(PROBLEMS / "z3_invariants.json"), "--no-cache"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["molien"] == res["dimensions"]
    assert res["scanned_up_to"] == 6
    assert res["beta_V"] <= 3


def test_chain_task(capsys):
    code, out, _ = run_cli(
        capsys, "chain", "--input", str(PROBLEMS / "chain.json"), "--no-cache"
    )
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["passed"] and res["tuples_checked"] > 0
    assert report["parameters"]["p_max"] == res["p_max"] == 12


def test_schema_error_multiplicity_length(tmp_path, capsys):
    doc = {"group": "builtin:sym:3", "rep": {"multiplicities": [1, 0]}, "task": "syzygies"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "syzygies", "--input", str(path), "--no-cache")
    assert code == 1
    assert "expected length 3" in err


def test_schema_error_unknown_builtin(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "builtin:monster:1", "task": "group"}))
    code, _, err = run_cli(capsys, "group", "--input", str(path), "--no-cache")
    assert code == 1
    assert "unknown builtin" in err


def test_schema_error_not_a_homomorphism(tmp_path, capsys):
    """Images that are not a homomorphism are named by their document path,
    in a representation and in a catalog alike."""
    rep_doc = {
        "group": "builtin:cyclic:3",
        "rep": {"generator_images": [[[2]]]},
        "task": "invariants",
    }
    catalog_doc = {
        "group": {"permutation_generators": [[1, 0]]},
        "catalog": {"irreps": [[[[1]]], [[[2]]]]},
        "task": "group",
    }
    expected = {
        "invariants": (rep_doc, "rep.generator_images"),
        "group": (catalog_doc, "catalog.irreps[1]"),
    }
    for task, (doc, where) in expected.items():
        path = tmp_path / f"{task}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, task, "--input", str(path), "--no-cache")
        assert (code, out) == (1, "")
        assert err == f"syzlab: invalid input: {where}: not a homomorphism\n"


@pytest.mark.parametrize("level", ["small", "default", "large"])
def test_budget_block_bytes_are_pinned(level):
    """Every report prints Budget.as_json(): its fields, their order and
    `name` spelled as the last key, `level`, are report bytes."""
    pinned = {
        "small": '{"conductor_limit": 24, "group_order_limit": 32, "monomial_limit": 3000, '
        '"noether_exact_limit": 4, "tor_row_bound_max_order": 0, "tor_row_bound_max_p": 0, '
        '"level": "small"}',
        "default": '{"conductor_limit": 64, "group_order_limit": 128, "monomial_limit": 20000, '
        '"noether_exact_limit": 8, "tor_row_bound_max_order": 2, "tor_row_bound_max_p": 1, '
        '"level": "default"}',
        "large": '{"conductor_limit": 128, "group_order_limit": 512, "monomial_limit": 200000, '
        '"noether_exact_limit": 10, "tor_row_bound_max_order": 6, "tor_row_bound_max_p": 2, '
        '"level": "large"}',
    }
    assert json.dumps(Budget.preset(level).as_json()) == pinned[level]


def test_missing_input_file(tmp_path, capsys):
    """A missing, unreadable or undecodable document is invalid input."""
    code, _, err = run_cli(capsys, "group", "--input", "/nonexistent.json")
    assert code == 1
    unreadable = {
        "directory": tmp_path / "directory",
        "not-utf8": tmp_path / "latin1.json",
        "too-deep": tmp_path / "deep.json",
        "huge-integer": tmp_path / "huge.json",
    }
    unreadable["directory"].mkdir()
    unreadable["not-utf8"].write_bytes(b'{"group": "caf\xe9"}')
    unreadable["too-deep"].write_text("[" * 200_000 + "]" * 200_000)
    unreadable["huge-integer"].write_text('{"group": ' + "7" * 5000 + "}")
    for case, path in unreadable.items():
        code, out, err = run_cli(capsys, "group", "--input", str(path))
        assert (code, out) == (1, ""), case
        assert len(err.splitlines()) == 1, case
        assert err.startswith("syzlab: invalid input: "), case


def test_limit_exceeded_exit_code(tmp_path, capsys):
    doc = {
        "group": "builtin:klein:4",
        "rep": {"multiplicities": [2, 2, 2, 2]},
        "task": "invariants",
        "stop": 8,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "invariants", "--input", str(path), "--no-cache", "--budget-level", "small"
    )
    assert code == 2
    assert "limit" in err


def test_determinism_and_cache_transparency(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "syzygies",
        "--input",
        str(PROBLEMS / "z2_antipodal_syzygies.json"),
        "--cache-dir",
        cache_dir,
    ]
    code1, cold, _ = run_cli(capsys, *argv)
    code2, hot, _ = run_cli(capsys, *argv)
    code3, nocache, _ = run_cli(capsys, *argv[:-2], "--no-cache")
    assert code1 == code2 == code3 == 0
    assert cold == hot == nocache
    assert os.listdir(cache_dir)


def test_markdown_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "group",
        "--input",
        str(PROBLEMS / "s3_group.json"),
        "--no-cache",
        "--format",
        "markdown",
    )
    assert code == 0
    assert out.startswith("# syzlab group report")
    assert "- **order**: 6" in out


def test_cache_roundtrip_and_version_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"a": 1}
    cache.put(key, {"x": [1, 2]})
    assert cache.get(key) == {"x": [1, 2]}
    # version bump: entry on disk carries the old format version
    path = cache._path(key)
    entry = json.loads(Path(path).read_text())
    entry["format_version"] = FORMAT_VERSION + 1
    Path(path).write_text(json.dumps(entry))
    assert cache.get(key) is None


def test_cache_corrupt_entry_deleted(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"a": 2}
    cache.put(key, 17)
    path = cache._path(key)
    for text in ("{not json", "[" * 200_000 + "]" * 200_000, "7" * 5000):
        Path(path).write_text(text)
        assert cache.get(key) is None
        assert not os.path.exists(path)


def test_cache_concurrent_put_single_winner(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"k": "same"}

    def writer(v):
        cache.put(key, v)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = cache.get(key)
    assert got in range(8)
    files = [f for f in os.listdir(str(tmp_path)) if f.endswith(".json")]
    assert len(files) == 1


@pytest.mark.parametrize(
    "task, problem",
    [
        ("syzygies", "z2_antipodal_syzygies"),
        ("syzygies", "triv_sign_full_syzygies"),
        ("bounds", "z3_veronese_bounds"),
    ],
)
def test_cache_hot_run_computes_no_block(tmp_path, capsys, monkeypatch, task, problem):
    argv = [task, "--input", str(PROBLEMS / f"{problem}.json"), "--cache-dir", str(tmp_path)]
    _, cold, _ = run_cli(capsys, *argv)
    computed = []
    original = InvariantRing._block_basis_generic

    def counting(self, d, w, monos):
        if self.cache is not None:
            computed.append((d, w))
        return original(self, d, w, monos)

    monkeypatch.setattr(InvariantRing, "_block_basis_generic", counting)
    code, hot, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hot == cold
    assert computed == []


def test_cache_hot_run_decodes_under_the_budget_conductor_limit(tmp_path, capsys, monkeypatch):
    """Under --budget-level large a cached basis may hold conductor 72,
    above the default limit of 64: the hot run still reads every degree.
    The Z12 action is P diag(z12, z12^11) P^-1 with P = [[1, z72], [0, 1]]."""
    z72 = Cyclotomic(72, [0, 1] + [0] * 22)
    a, b = z72**6, z72**66
    image = [[a, z72 * (b - a)], [0, b]]
    path = tmp_path / "z12.json"
    path.write_text(
        json.dumps(
            {
                "group": "builtin:cyclic:12",
                "task": "invariants",
                "stop": 2,
                "rep": {"generator_images": [[[encode_scalar(x) for x in row] for row in image]]},
            }
        )
    )
    argv = ["invariants", "--input", str(path), "--cache-dir", str(tmp_path / "cache")]
    argv += ["--budget-level", "large"]
    _, cold, _ = run_cli(capsys, *argv)
    assert json.loads(cold)["results"]["dimensions"] == [1, 0, 1]
    computed = []
    monkeypatch.setattr(InvariantRing, "_compute_degree_blocks", lambda self, d: computed.append(d))
    code, hot, _ = run_cli(capsys, *argv)
    assert (code, hot, computed) == (0, cold, [])


def _invariant_entry(cache_dir, degree):
    """Path of the cached invariant basis of one degree."""
    (path,) = [
        p
        for p in Path(cache_dir).glob("*.json")
        if json.loads(p.read_text())["key"].get("computation") == "invariant-basis"
        and json.loads(p.read_text())["key"]["degree"] == degree
    ]
    return path


def _scaled(poly, factor):
    return [[m, [c[0] * factor, c[1]]] for m, c in poly]


# Faults on the cached bases of z3_invariants, which has a trivial grading:
# one block of weight () per degree, each element a list of
# [monomial, [num, den]] terms. Degree 1 has no invariants, degree 2 has
# {xy} and degree 3, the default, has {x^3, y^3}.
CACHE_FAULT_DEGREE = {"polys-missing": 2, "empty-block": 1}
CACHE_FAULTS = {
    "polys-missing": lambda p: {"blocks": [{"weight": []}]},
    "not-a-dict": lambda p: [p],
    "blocks-not-a-list": lambda p: {"blocks": 3},
    "block-not-a-dict": lambda p: {"blocks": [[[], p["blocks"][0]["polys"]]]},
    "bad-weight": lambda p: {"blocks": [{"weight": [1], "polys": p["blocks"][0]["polys"]}]},
    "repeated-block": lambda p: {"blocks": p["blocks"] * 2},
    "empty-block": lambda p: {"blocks": [{"weight": [], "polys": []}]},
    "element-dropped": lambda p: {"blocks": [{"weight": [], "polys": p["blocks"][0]["polys"][:1]}]},
    "element-repeated": lambda p: {
        "blocks": [{"weight": [], "polys": p["blocks"][0]["polys"][:1] * 2}]
    },
    "elements-swapped": lambda p: {
        "blocks": [{"weight": [], "polys": p["blocks"][0]["polys"][::-1]}]
    },
    "pivot-not-unit": lambda p: {
        "blocks": [{"weight": [], "polys": [_scaled(q, 2) for q in p["blocks"][0]["polys"]]}]
    },
    "not-reduced": lambda p: {
        "blocks": [
            {
                "weight": [],
                "polys": [
                    p["blocks"][0]["polys"][0] + p["blocks"][0]["polys"][1],
                    p["blocks"][0]["polys"][1],
                ],
            }
        ]
    },
    "wrong-degree": lambda p: {
        "blocks": [{"weight": [], "polys": [[[[4, 0], [1, 1]]], [[[0, 3], [1, 1]]]]}]
    },
    "wrong-length-monomial": lambda p: {
        "blocks": [{"weight": [], "polys": [[[[3, 0, 0], [1, 1]]], [[[0, 3], [1, 1]]]]}]
    },
    "negative-exponent": lambda p: {
        "blocks": [{"weight": [], "polys": [[[[4, -1], [1, 1]]], [[[0, 3], [1, 1]]]]}]
    },
    "repeated-monomial": lambda p: {
        "blocks": [
            {"weight": [], "polys": [[[[3, 0], [1, 1]], [[3, 0], [1, 1]]], [[[0, 3], [1, 1]]]]}
        ]
    },
    "zero-coefficient": lambda p: {
        "blocks": [{"weight": [], "polys": [[[[3, 0], [1, 1]], [[1, 2], [0, 1]]], [[[0, 3], [1, 1]]]]}]
    },
    "bad-scalar": lambda p: {
        "blocks": [{"weight": [], "polys": [[[[3, 0], "x"]], [[[0, 3], [1, 1]]]]}]
    },
    "empty-element": lambda p: {"blocks": [{"weight": [], "polys": [[], [[[0, 3], [1, 1]]]]}]},
}

# S3 on sign + standard, non-monomial: a cached element with one changed
# non-pivot coefficient passes every structural check but is not invariant.
S3_SIGN_STANDARD_INVARIANTS = {
    "group": "builtin:sym:3",
    "rep": {"multiplicities": [0, 1, 1]},
    "task": "invariants",
    "stop": 12,
    "exact_limit": 0,
}


def _not_invariant(payload):
    """Adds 1 to the last coefficient of x^2y^2 + x^2yz + x^2z^2."""
    out = json.loads(json.dumps(payload))
    (poly,) = [
        q
        for b in out["blocks"]
        for q in b["polys"]
        if [m for m, _ in q] == [[2, 2, 0], [2, 1, 1], [2, 0, 2]]
    ]
    assert [c for _, c in poly] == [[1, 1]] * 3
    poly[-1][1] = [2, 1]
    return out


CACHE_FAULT_DEGREE["not-invariant"] = 4
CACHE_FAULTS["not-invariant"] = _not_invariant
CACHE_FAULT_PROBLEM = {"not-invariant": S3_SIGN_STANDARD_INVARIANTS}


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_invalid_cached_basis_is_recomputed(tmp_path, capsys, fault):
    problem = PROBLEMS / "z3_invariants.json"
    if fault in CACHE_FAULT_PROBLEM:
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(CACHE_FAULT_PROBLEM[fault]))
    cache_dir = tmp_path / "cache"
    argv = ["invariants", "--input", str(problem)]
    _, expected, _ = run_cli(capsys, *argv, "--no-cache")
    run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    degree = CACHE_FAULT_DEGREE.get(fault, 3)
    path = _invariant_entry(cache_dir, degree)
    entry = json.loads(path.read_text())
    good = entry["payload"]
    if fault not in CACHE_FAULT_PROBLEM:
        assert good == {
            1: {"blocks": []},
            2: {"blocks": [{"weight": [], "polys": [[[[1, 1], [1, 1]]]]}]},
            3: {"blocks": [{"weight": [], "polys": [[[[3, 0], [1, 1]]], [[[0, 3], [1, 1]]]]}]},
        }[degree]
    path.write_text(json.dumps({**entry, "payload": CACHE_FAULTS[fault](good)}))
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert (code, out, err) == (0, expected, "")
    assert json.loads(path.read_text())["payload"] == good


def test_env_var_cache_dir(tmp_path, capsys, monkeypatch):
    env_dir = str(tmp_path / "envcache")
    monkeypatch.setenv("SYZLAB_CACHE_DIR", env_dir)
    code, _, _ = run_cli(
        capsys, "invariants", "--input", str(PROBLEMS / "z3_invariants.json")
    )
    assert code == 0
    assert os.listdir(env_dir)


@pytest.mark.parametrize(
    "failure", ["directory is a regular file", "write fails", "rename fails"]
)
def test_unusable_cache_is_disabled(tmp_path, capsys, monkeypatch, failure):
    argv = ["invariants", "--input", str(PROBLEMS / "z3_invariants.json")]
    _, expected, _ = run_cli(capsys, *argv, "--no-cache")
    cache_dir = tmp_path / "afile"

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    if failure == "directory is a regular file":
        cache_dir.write_text("")
    elif failure == "write fails":
        monkeypatch.setattr(tempfile, "mkstemp", no_space)
    else:
        monkeypatch.setattr(os, "replace", no_space)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0
    assert out == expected
    (line,) = err.splitlines()
    assert line.startswith("syzlab: cache disabled: ")
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "doc",
    [
        {"group": "builtin:cyclic:1", "task": "chain", "g_max": "x"},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "cauchy", "factor": 9}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "cauchy", "factor": -1}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "kostka", "shape": ["a"]}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "lr", "nu": [1, 2]}},
        {
            "group": "builtin:cyclic:2",
            "task": "schur",
            "schur": {"check": "stabilization", "multiplicities": ["a", 1]},
        },
        [1],
        {
            "group": "builtin:cyclic:3",
            "rep": {
                "generator_images": [
                    [[{"conductor": 3, "coeffs": [
                        {"conductor": 3, "coeffs": [[0, 1], [1, 1]]}, [0, 1]
                    ]}]]
                ]
            },
            "task": "invariants",
            "stop": 3,
        },
    ],
    ids=[
        "chain-g_max",
        "cauchy-factor",
        "cauchy-negative-factor",
        "kostka-shape",
        "lr-nu",
        "stabilization-multiplicities",
        "list-document-with-override",
        "nested-cyclotomic-coefficient",
    ],
)
def test_malformed_task_arguments_exit_one(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    # a document that is not an object must be refused before --p indexes it
    argv = [doc["task"]] if isinstance(doc, dict) else ["group", "--p", "2"]
    code, out, err = run_cli(capsys, *argv, "--input", str(path), "--no-cache")
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("syzlab: invalid input:")


def test_readme_synopsis_matches_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented = re.findall(r"--[a-z][a-z-]*(?: [A-Za-z|]+)?", block)
    assert sorted(documented) == sorted(option_synopsis(o) for o in OPTION_TABLE)


def test_findings_file_absent_without_violations(tmp_path, capsys):
    # run bounds in a scratch copy so a findings file would be visible
    src = (PROBLEMS / "z2_antipodal_bounds.json").read_text()
    path = tmp_path / "problem.json"
    path.write_text(src)
    code, _, _ = run_cli(capsys, "bounds", "--input", str(path), "--no-cache")
    assert code == 0
    assert not (tmp_path / "findings.json").exists()


def test_usage_error_exit_code_is_one(capsys):
    problem = str(PROBLEMS / "z2_antipodal_syzygies.json")
    # missing --input; an option the parser does not have
    for argv in (["syzygies"], ["syzygies", "--input", problem, "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_unexpected_error_exit_code_is_four(capsys, monkeypatch):
    import syzlab.cli

    def broken(problem, options):
        raise KeyError("missing")

    monkeypatch.setattr(syzlab.cli, "run", broken)
    code, out, err = run_cli(
        capsys, "syzygies", "--input", str(PROBLEMS / "z2_antipodal_syzygies.json"), "--no-cache"
    )
    assert (code, out) == (4, "")
    assert err.splitlines() == ["syzlab: unexpected error: KeyError: 'missing'"]


def _usage_exit(capsys, argv):
    """(exit code, stdout, stderr) of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_option_equals_form_and_last_repeat_win(capsys):
    path = str(PROBLEMS / "s3_group.json")
    code, spaced, _ = run_cli(capsys, "group", "--input", path, "--no-cache", "--format", "markdown")
    assert code == 0
    code, joined, _ = run_cli(capsys, "group", "--no-cache", f"--input={path}", "--format=markdown")
    assert (code, joined) == (0, spaced)
    code, repeated, _ = run_cli(
        capsys, "group", "--input", path, "--format", "csv", "--no-cache", "--format=markdown"
    )
    assert (code, repeated) == (0, spaced)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["syzygies"], "the following arguments are required: --input"),
        (["cohomology", "--input", "x.json"], "invalid task 'cohomology'"),
        (["group", "--input", "x.json", "--jobs", "2"], "unrecognized argument '--jobs'"),
        (["group", "--inp", "x.json"], "unrecognized argument '--inp'"),
        (["group", "--input", "x.json", "--p", "two"], "option --p: invalid int value 'two'"),
        (["group", "--input", "x.json", "--p-max=1.5"], "option --p-max: invalid int value '1.5'"),
        (["group", "--input", "x.json", "--mode", "all"], "option --mode: invalid choice 'all'"),
        (["group", "--input"], "option --input expects a value"),
        (["group", "--input", "x.json", "--no-cache=1"], "option --no-cache takes no value"),
        ([], "the following arguments are required: TASK"),
    ],
    ids=[
        "missing-input",
        "unknown-task",
        "unknown-option",
        "abbreviation",
        "bad-int",
        "bad-int-equals",
        "bad-choice",
        "missing-value",
        "flag-with-value",
        "no-task",
    ],
)
def test_usage_errors_print_usage_and_one_line(capsys, argv, message):
    code, out, err = _usage_exit(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(usage())
    (line,) = err[len(usage()):].splitlines()
    assert line.startswith(f"syzlab: error: {message}")


@pytest.mark.parametrize("task", ["cohomology", "Syzygies"], ids=["unknown", "miscased"])
def test_task_table_renders_the_task_words(capsys, task):
    """The parser's task check and the usage text read one table and list
    the same words in the same order."""
    words = "group, invariants, noether, syzygies, bounds, universal, schur, chain"
    code, out, err = _usage_exit(capsys, [task, "--input", "x.json"])
    assert (code, out) == (1, "")
    assert err == usage() + f"syzlab: error: invalid task {task!r} (choose from {words})\n"
    assert usage().endswith(f"tasks: {words}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bounds", "-h"], ["group", "--input", "x", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    assert _usage_exit(capsys, argv) == (0, usage(), "")


_Z2 = {"group": "builtin:cyclic:2", "rep": {"multiplicities": [0, 1]}, "task": "invariants"}


@pytest.mark.parametrize(
    "doc",
    [
        {**_Z2, "p": True},
        {**_Z2, "p_max": True},
        {**_Z2, "task": "chain", "g_max": True},
        {**_Z2, "stop": True},
        {**_Z2, "exact_limit": False},
        {**_Z2, "rep": {"multiplicities": [True, 1]}},
        {"group": {"permutation_generators": [[True, False]]}, "task": "group"},
        {**_Z2, "rep": {"generator_images": [[[[True, 1]]]]}},
        {**_Z2, "rep": {"generator_images": [[[{"conductor": True, "coeffs": [[-1, 1]]}]]]}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "cauchy", "factor": True}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "kostka", "shape": [True], "content": [1]}},
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "kostka", "shape": [1], "content": [True]}},
    ],
    ids=[
        "p",
        "p_max",
        "g_max",
        "stop",
        "exact_limit",
        "multiplicities",
        "permutation_generators",
        "rational-pair",
        "conductor",
        "schur-int-arg",
        "partition",
        "int-list",
    ],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, doc["task"], "--input", str(path), "--no-cache")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("syzlab: invalid input:")


@pytest.mark.parametrize("p_max", ["x", None, [1], True], ids=["string", "null", "list", "bool"])
def test_p_override_with_malformed_p_max_exits_one(tmp_path, capsys, p_max):
    """--p raises a document's p_max to at least p only when p_max is an
    integer; any other value reaches the parser, which refuses it."""
    doc = json.loads((PROBLEMS / "z2_antipodal_syzygies.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, "p_max": p_max}))
    code, out, err = run_cli(capsys, "syzygies", "--input", str(path), "--no-cache", "--p", "2")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("syzlab: invalid input: p_max: ")


def test_p_override_raises_an_integer_p_max(capsys):
    """--p above a document's integer p_max raises p_max to p: on
    `z2_antipodal_syzygies.json`, whose p_max is 2, --p 3 reports s for
    p = 1..3."""
    path = PROBLEMS / "z2_antipodal_syzygies.json"
    assert json.loads(path.read_text())["p_max"] == 2
    code, out, err = run_cli(capsys, "syzygies", "--input", str(path), "--no-cache", "--p", "3")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["parameters"]["p_max"] == 3
    assert report["results"]["s"] == {"1": 4, "2": "none", "3": "none"}
    assert report["results"]["tor_table"]["ceilings"] == {"0": 2, "1": 4, "2": 6, "3": 8}


def test_engine_warning_is_one_line(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({**_Z2, "stop": 1}))
    code, out, err = run_cli(capsys, "invariants", "--input", str(path), "--no-cache")
    assert code == 0
    assert json.loads(out)["results"]["scanned_up_to"] == 1
    assert err == (
        "syzlab: warning: scan ceiling 1 is below the group's generator-degree ceiling 2; "
        "generators above it would be missed\n"
    )


@pytest.mark.parametrize("stop, warned", [(3, True), (4, False), (5, False)])
def test_warning_ceiling_is_beta_not_the_order(tmp_path, capsys, stop, warned):
    """S3 has beta = 4 < |G| = 6: a scan to 4 or 5 misses no generator."""
    path = tmp_path / "s3.json"
    doc = {"group": "builtin:sym:3", "rep": {"multiplicities": [0, 1, 1]},
           "task": "invariants", "stop": stop}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "invariants", "--input", str(path), "--no-cache")
    assert code == 0
    assert json.loads(out)["results"]["beta_used"] == {"value": 4, "exact": True}
    assert bool(err) == warned
    if warned:
        assert "scan ceiling 3 is below the group's generator-degree ceiling 4" in err


def test_hot_blocks_equal_cold_blocks_in_value_and_type(tmp_path):
    doc = dict(S3_SIGN_STANDARD_INVARIANTS)
    problem = parse_problem(doc, "invariants", Budget.preset("default"))
    degrees = range(S3_SIGN_STANDARD_INVARIANTS["stop"] + 1)

    def ring():
        return InvariantRing(problem.rep, cache=Cache(str(tmp_path)))

    def terms(r):
        return {
            d: [(w, [(m, c, type(c)) for m, c in el.poly.items()]) for w, b in r.blocks(d).items() for el in b]
            for d in degrees
        }

    cold = terms(ring())
    hot_ring = ring()
    hot_ring._compute_degree_blocks = None  # a hot ring must read every degree
    assert terms(hot_ring) == cold
    assert {t for blocks in cold.values() for _, ts in blocks for *_, t in ts} == {int, Fraction}


def test_non_invariant_rational_coefficient_is_rejected(tmp_path, capsys, monkeypatch):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(S3_SIGN_STANDARD_INVARIANTS))
    cache_dir = tmp_path / "cache"
    argv = ["invariants", "--input", str(problem)]
    _, expected, _ = run_cli(capsys, *argv, "--no-cache")
    run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    path = _invariant_entry(cache_dir, 4)
    entry = json.loads(path.read_text())
    bad = _not_invariant(entry["payload"])
    (poly,) = [q for b in bad["blocks"] for q in b["polys"] if q[-1][1] == [2, 1]]
    poly[-1][1] = [3, 2]  # a non-pivot coefficient: the pivot stays 1
    path.write_text(json.dumps({**entry, "payload": bad}))
    verdicts = []
    original = InvariantRing._fixed_by_generators

    def spy(self, poly):
        verdicts.append(original(self, poly))
        return verdicts[-1]

    monkeypatch.setattr(InvariantRing, "_fixed_by_generators", spy)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache_dir))
    assert (code, out, err) == (0, expected, "")
    assert False in verdicts
    assert json.loads(path.read_text())["payload"] == entry["payload"]


# -- degrees beyond the packed keys ------------------------------------------------

HUGE = 100000000000000000000


def _limit_address_space():
    """About 1.5 GB: enough for any run here, far too little for a list of
    HUGE degrees."""
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def _run_capped(tmp_path, args):
    """The CLI in a child under the 1.5 GB address-space cap and a 30 s
    timeout, with its cache in tmp_path."""
    paths = [str(ROOT / "src")]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(paths), SYZLAB_CACHE_DIR=str(tmp_path / "cache")
    )
    return subprocess.run(
        [sys.executable, "-m", "syzlab.cli", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "case", ["syzygies-p", "bounds-p", "invariants-stop", "syzygies-p-over-monomial-limit"]
)
def test_huge_degree_refused_before_listing(tmp_path, case):
    """A top degree of 2^16 or more, or one with more monomials than the
    budget allows, is refused with exit 2 before any degree is listed or
    computed: the child would otherwise run out of memory or time."""
    if case == "invariants-stop":
        doc = json.loads((PROBLEMS / "z3_invariants.json").read_text(encoding="utf-8"))
        doc["stop"] = HUGE
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["invariants", "--input", str(path)]
    else:
        task = case.split("-")[0]
        p = 20000 if case.endswith("monomial-limit") else HUGE
        args = [task, "--input", str(PROBLEMS / f"z2_antipodal_{task}.json"), "--p", str(p)]
    run = _run_capped(tmp_path, args)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("degree too large\n")


def test_universal_outside_the_budget_builds_no_specialization(tmp_path, capsys):
    """Outside the Tor budget the report reads the specialization's size
    off the catalog: at p = 10^5 its images would not fit under the cap.
    Inside the budget the sizes are those of the assembled one."""
    path = str(PROBLEMS / "z2_universal.json")
    run = _run_capped(tmp_path, ["universal", "--input", path, "--p", "100000"])
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)["results"]
    assert results["s_prime_universal"] == "skipped (outside budget)"
    assert results["multiplicities"] == [200001, 200001]
    assert results["dimension_formula"] == {"beta_m_p_plus_g": 400002, "matches": True}
    assert results["dimension"] == 400002
    group, catalog = builtin_group("builtin:cyclic:2")
    mults = universal_multiplicities(catalog, noether_number(group), 2)
    code, out, _ = run_cli(capsys, "universal", "--input", path, "--p", "2", "--no-cache")
    results = json.loads(out)["results"]
    assert code == 0 and results["s_prime_universal"] == "skipped (outside budget)"
    assert results["multiplicities"] == [5, 5] == list(mults)
    assert results["dimension"] == specialization(catalog, mults).degree


def _faithful_scalar_doc(tmp_path, g: int) -> str:
    """Z_g acting on C^3 by three copies of the character k -> zeta^k: the
    Veronese, with s_1 = 2g and s_2 = 3g."""
    mults = [0] * g
    mults[1] = 3
    path = tmp_path / f"z{g}.json"
    path.write_text(json.dumps({"group": f"builtin:cyclic:{g}", "rep": {"multiplicities": mults}}))
    return str(path)


def test_faithful_scalar_z7_on_c3_fits_under_the_cap(tmp_path):
    """d_3 in degree 28 of this run has 7,920 x 180,048 cells; a Koszul
    block costs its nonzeros, so the run fits the 1.5 GB cap."""
    args = ["bounds", "--input", _faithful_scalar_doc(tmp_path, 7), "--p-max", "2", "--no-cache"]
    run = _run_capped(tmp_path, args)
    assert run.returncode == 0, run.stderr
    reports = json.loads(run.stdout)["results"]["reports"]
    assert [r["s_value"] for r in reports] == [14, 21]
    assert {v for r in reports for v in r["verdicts"].values()} == {"satisfied"}


def test_faithful_scalar_z6_on_c3_results_are_pinned(tmp_path, capsys):
    """sha256 of the canonical JSON of the results, computed when every
    Koszul block was built dense: the sparse blocks give the same bytes."""
    path = _faithful_scalar_doc(tmp_path, 6)
    code, out, err = run_cli(capsys, "bounds", "--input", path, "--p-max", "2", "--no-cache")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert [r["s_value"] for r in results["reports"]] == [12, 18]
    canon = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert _sha256(canon.encode()) == (
        "30f1fa2b15443f2c9709af2918cc010c42a1ce14cc3978ce364737e13e52cb04"
    )


def test_cache_hot_run_obeys_the_monomial_limit(tmp_path, capsys):
    """The scan to p = 36 walks up to degree 77, which has 3,081 monomials
    in 3 variables: under the default limit, over the small one. The scan
    runs over R/θR with θ = (x_0, x_1^2, x_2^2), whose Hilbert series ends
    in degree 2, so R is read up to degree 2 only: a default-budget run
    caches degrees 0-2, and a small-budget run refuses the scan whether or
    not the cache holds them. A small-budget ring refuses degree 77 itself
    even when the cache holds it."""
    path = tmp_path / "z2.json"
    doc = {"group": "builtin:cyclic:2", "rep": {"multiplicities": [1, 2]}}
    path.write_text(json.dumps({**doc, "task": "syzygies", "p": 36, "p_max": 36}))
    argv = ["syzygies", "--input", str(path)]
    small = ["--budget-level", "small"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    cold = run_cli(capsys, *argv, *small, "--no-cache")
    assert cold == (2, "", "syzlab: computation limit exceeded: degree too large\n")
    assert run_cli(capsys, *argv, *cache)[0] == 0
    assert len(os.listdir(tmp_path / "cache")) == 3
    assert run_cli(capsys, *argv, *small, *cache) == cold
    rep = parse_problem(doc, "invariants", Budget.preset("default")).rep
    ring_cache = {"cache": Cache(str(tmp_path / "ring"))}
    InvariantRing(rep, **ring_cache).blocks(77)
    small_ring = InvariantRing(rep, budget=Budget.preset("small"), **ring_cache)
    with pytest.raises(LimitExceeded):
        small_ring.blocks(77)


def test_csv_is_refused_before_the_run(tmp_path, capsys):
    """A task without a CSV table exits 1 before it computes or caches
    anything."""
    cache = tmp_path / "cache"
    argv = ["invariants", "--input", str(PROBLEMS / "z3_invariants.json"), "--format", "csv"]
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (1, "")
    assert err == "syzlab: invalid input: csv output covers the syzygies and bounds tables only\n"
    assert list(cache.glob("*")) == []


_Z2_MATRIX = {
    "group": {"matrix_generators": [[[-1]]]},
    "catalog": {"irreps": [[[[1]]], [[[-1]]]]},
}


@pytest.mark.parametrize("problem", ["z2_antipodal_syzygies", "z2_universal"])
def test_matrix_group_with_catalog_matches_builtin(tmp_path, capsys, problem):
    """Z2 given by the matrix generator -1 and a top-level catalog of its
    two characters runs as builtin:cyclic:2 does."""
    doc = json.loads((PROBLEMS / f"{problem}.json").read_text())
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({**doc, **_Z2_MATRIX}))
    task = doc["task"]
    _, builtin, _ = run_cli(capsys, task, "--input", str(PROBLEMS / f"{problem}.json"), "--no-cache")
    code, custom, err = run_cli(capsys, task, "--input", str(path), "--no-cache")
    assert (code, err) == (0, "")
    results = json.loads(custom)["results"]
    assert results == json.loads(builtin)["results"]
    if task == "universal":
        assert results["multiplicities"] == [3, 3]
    else:
        assert results["tor_table"]["rows"] == [[0, 0, 1], [1, 4, 1]]


def test_catalog_of_two_trivial_irreps_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({**_Z2_MATRIX, "catalog": {"irreps": [[[[1]]], [[[1]]]]}, "task": "group"})
    )
    code, out, err = run_cli(capsys, "group", "--input", str(path), "--no-cache")
    assert (code, out) == (1, "")
    assert err == "syzlab: invalid input: catalog: <chi_0, chi_1> = 1, expected 0\n"


def test_syzygies_csv_prints_the_tor_table(capsys):
    path = str(PROBLEMS / "z2_antipodal_syzygies.json")
    code, out, _ = run_cli(capsys, "syzygies", "--input", path, "--no-cache", "--format", "csv")
    assert (code, out) == (0, "p,d,dim\n0,0,1\n1,4,1\n")


def test_p_max_and_mode_overrides_act_as_document_edits(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "z2_antipodal_syzygies.json").read_text())
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**doc, "p_max": 1, "mode": "full"}))
    original = str(PROBLEMS / "z2_antipodal_syzygies.json")
    _, plain, _ = run_cli(capsys, "syzygies", "--input", original, "--no-cache")
    code, overridden, _ = run_cli(
        capsys, "syzygies", "--input", original, "--no-cache", "--p-max", "1", "--mode", "full"
    )
    _, edited, _ = run_cli(capsys, "syzygies", "--input", str(path), "--no-cache")
    assert code == 0
    assert overridden == edited != plain
    report = json.loads(overridden)
    assert (report["parameters"]["p_max"], report["parameters"]["mode"]) == (1, "full")


# -- pinned report and cache bytes -------------------------------------------------

CSV_REFUSED = "syzlab: invalid input: csv output covers the syzygies and bounds tables only\n"

# sha256 of stdout per corpus document in json, markdown and csv; None where
# the task has no CSV table. Each run exits 0 with an empty stderr, or 1
# with CSV_REFUSED when refused.
OUTPUT_SHA256 = {
    "chain": (
        "e647337b08549d811fc0373858a3df266394fcd85590b87fdf357bc7ad10a646",
        "fc60dbbfd266ecb773177da6928517ca83fc097aa41e03fdc0a58e2695758a8a",
        None,
    ),
    "klein_custom_noether": (
        "c711990b7ff3472c5350d1451c248e17b6e3ce0fe8069ed6fd0cd71f7134ed87",
        "406cd2aabd8d0329d7d2eb9ac48e8a0d026df808f8670cf804642e4cec06f9c6",
        None,
    ),
    "q8_group": (
        "9e3599b0b80535d4fc642c5af2095d39c31ecbc94cc1e0ddd768aa4d401bc636",
        "1737d12764d85fe85e08ff6e0a9119e28c0be1dbebeb6fd7c135aa726a92e36c",
        None,
    ),
    "s3_group": (
        "b0c6850616b7f55ac0386ebd3eb6b18652079da628f20d84bf663e0297e1fd75",
        "615ee78e18f36f482c35a5c7bc0aadaa0f512f9c127010d026b8318fe31630f8",
        None,
    ),
    "triv_sign_full_syzygies": (
        "b67af194df43fbef0c78295e64bf90ccd41998611d36b0b35e4cbd5ae72e7840",
        "d1d6215dea1549b15a4ba8573db7563c6e4adbd0298e5b619f03a4daa6ae4032",
        "aeaa31590f82f630ec43778ca97858df33f90f186af0a072c2baff3b3b9365d9",
    ),
    "z2_antipodal_bounds": (
        "3faca986ab1da20284783841585fd2ef4e464152074457178051741c4e1e6201",
        "1b5ad22290f3e7dd2ce98cb8264c61ddfb0c4f4f29eecad2f645b69020e41022",
        "df6f035779a1f71e8aa66a70c9fcea10ad8e91e814232eca9db9b6368e05ca96",
    ),
    "z2_antipodal_syzygies": (
        "2a5990086e568f83a62c7f8c10b75aae2e7692f808af8ac08dd84489ba64c207",
        "b4620ae56496e53c229ed1e9c3459f48cfbd6d9f1078bb2c549c904912dd6cb1",
        "c9c20373bd7061cc2290ad6275d28b6c0f5e9036d706c98b6e9f7ffb2d6a2daa",
    ),
    "z2_schur_rowbounds": (
        "27dcf2c5d659447c41b4f00cb4e8b25a7b6366ce98f79a6512d183ef2ce4cc21",
        "ca757b2ecd5527562808d8f58f14f38ad03472ac81930365f3a8b26be3ca7ad7",
        None,
    ),
    "z2_stabilization": (
        "615d70b19df087c85efaa741ccc88ea16e5c2d77274dab6b2807ad772f355830",
        "5f3b396c81fdf53a60b107e683945a716559a510cd6fcc1bad90a0ff00a2263a",
        None,
    ),
    "z2_universal": (
        "cffe1a0a7cb55a5a53ae6bfde717064ad9f944e29e98f63b869616e3d2ba05a9",
        "b95825fe06604ecff623241049a962d1c47be604aa8e4d078d29dc731580445c",
        None,
    ),
    "z3_invariants": (
        "205ec5696ebebe27d0947b0a50397e402cfe4ddaba773c25461fc3bb841b2afa",
        "c07b333baa7f592dd5022d5ec10536ac7b5235ce2451121ddac38c4417ab8a1a",
        None,
    ),
    "z3_veronese_bounds": (
        "023596b7f12c25bc16398939713944f024c0a1d430ead45d962142f19a19de1c",
        "26c4f3000f315af6692df22d5e007dbe52d68e938cd26b5d177939a56d692ed9",
        "ff6bc444d05dafd0a7e63ae9cd922561e906246531a504135ae347a369b720a1",
    ),
}

# cache file name -> sha256 of its bytes after a cold run of each problem.
# The syzygies run scans R/θR, which is zero from degree 3 on, so it reads
# and caches R in degrees 0-4 only.
CACHE_SHA256 = {
    ("invariants", "z3_invariants"): {
        "37a7b772a2c96b15d5cb80d6db1a56ebb6ec49994b6c8f43fe8a67bdd00d8659.json": (
            "701e2811e67b0a55c774f3048a30e6ae3c8b8fa24e0d2ad843d6f9a1f8b220f7"
        ),
        "5520203a128d7fa669ce7e05394e88226027b019c96f530a7cfff95375b2a13a.json": (
            "7292ce256997984c604aaa33acb70bef20f3f7d56805f8fa5f21dbcedcdefe49"
        ),
        "afba204fc54ecd0b1473b3296711dd800c274d53440cbfd8a29513f09e10723b.json": (
            "2beef199d811ce74fc9f1e371b9833ab752aeed04dfc8b8463868dbc4888c568"
        ),
        "b447a109c0ea5a196acd9cb0da3645daec72a450c7f87c795a580ca3ab03ba28.json": (
            "16c4116211d2c7e28173315d8bf0151dfced348ea014a47cffeb17a51c6f0548"
        ),
        "bb0e5546aa8f702e3ff85f03a729eb4506ad5e125fcc9c2d2a57e1d3a20abcfb.json": (
            "ace3c6bf8a42ae1a785ca92b364df86683f698b3d713ed7a255d60e439897945"
        ),
        "e68f16eae45284292675b05c34d510ab2edf7f4b007dbae290ffcf6738d3d2cb.json": (
            "ddb831bae0af1a499dbacb0a32a145f9f5e88c74f60a336223470832fcf6d517"
        ),
        "f74a5c854bd22c93f5e20d425666337519ed7303a5c23b4efb6bc9c7d263bbbc.json": (
            "dd1b5686abdcb27a68ca703f42e33f34f80923bdb6ba233ed68af93d86ac68a9"
        ),
    },
    ("syzygies", "z2_antipodal_syzygies"): {
        "10020adef35216f1c6e309c1b143c456e7a7f6bcc586c81e9ca6cbd50a579565.json": (
            "10053fad7eccbfd021207cbf7aafb65339c301b0567bb7341ca516d8683e6e7d"
        ),
        "5965acf4e9c563ead702fd7da3d0682e6968810ef9423615ea6b31a3b19abee0.json": (
            "aa5e298c46d3e91cd5c79520cc73da79b02efc2679368307b94dd89ce3f27b1a"
        ),
        "6e2d37d2bc5cacc7f2a1b974ca6c1684cfcc90c125682bb6c241c03e7ca30be1.json": (
            "4767112938f213662027533973e928bd65ed8571bd4b6c37c8bceaadbb7af41f"
        ),
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("problem", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_report_bytes_are_pinned(capsys, problem):
    """Every corpus document prints the pinned bytes in each format. The
    markdown renders a list as bullet lines but a tuple inline, so a tuple
    slipping into a result changes these bytes."""
    path = str(PROBLEMS / f"{problem}.json")
    task = json.loads(Path(path).read_text())["task"]
    for fmt, want in zip(("json", "markdown", "csv"), OUTPUT_SHA256[problem]):
        code, out, err = run_cli(capsys, task, "--input", path, "--no-cache", "--format", fmt)
        if want is None:
            assert (code, out, err) == (1, "", CSV_REFUSED)
        else:
            assert (code, _sha256(out.encode()), err) == (0, want, ""), fmt


# schur documents the corpus does not hold: name -> (document, sha256 of
# stdout in json, in markdown). The Z2 ones read a dominant complex and were
# pinned on the scan over R; the complex over R/θR that replaced it prints
# the same bytes. The sym:3 and klein:4 ones were pinned on the two separate
# tableau enumerators and the back-substitution over every dominating tuple.
SCHUR_SHA256 = {
    "z2_domination": (
        {
            "group": "builtin:cyclic:2",
            "task": "schur",
            "schur": {"check": "domination", "p": 1, "samples": [[0, 1], [0, 2], [1, 1], [3, 3]]},
        },
        "8fe49041c29aec6e92a99fb9e6dbe9c8cc1dcc07574f2e92b7744556e2b3b71f",
        "9b86a38e661172554bc1dfb45bacf79b3f7cf857bc90fd8098b198343afb79f8",
    ),
    "z2_row_bounds_tor": (
        {"group": "builtin:cyclic:2", "task": "schur", "schur": {"check": "row-bounds-tor", "p": 1}},
        "a8a9a26e097e8891f905916c78c7486fefead8e5fd084bceb1810ff562d92c2c",
        "5ff46aefe32c81505d6baa02569a4f8c3ca7d383de5498b2f834264c7089d2dc",
    ),
    "z2_stabilization_00": (
        {
            "group": "builtin:cyclic:2",
            "task": "schur",
            "schur": {"check": "stabilization", "p": 1, "degree": 2, "multiplicities": [0, 0]},
        },
        "3655d3721071d84eda4f7ea209c3958e47433181980e85578a9737f77b3b8ed9",
        "308f222dcf94ed39fbda025b260d9edbcaae2e928c6ddb692d1582d6437b65cf",
    ),
    "z2_stabilization_11": (
        {
            "group": "builtin:cyclic:2",
            "task": "schur",
            "schur": {"check": "stabilization", "p": 1, "degree": 2, "multiplicities": [1, 1]},
        },
        "8348939023a53076d13399d2fc9f0355a35b6b6b0f0587f8eb0e017194346905",
        "aede62e60f06f9c48eb87b7f3ca5bf5e867acd28a1fab2677fa9b7422bb566c8",
    ),
    "sym3_kostka": (
        {
            "group": "builtin:sym:3",
            "task": "schur",
            "schur": {"check": "kostka", "shape": [3, 2, 1], "content": [2, 2, 1, 1]},
        },
        "4e2ec83de056687cdb647bccb1c9eafd7c056e4ec663460025e5a68bd1957d86",
        "ff51d58fc8ce09732f7595be5ff21a11645ded008a929f9e3e77d1932af7d73c",
    ),
    "sym3_lr": (
        {
            "group": "builtin:sym:3",
            "task": "schur",
            "schur": {"check": "lr", "lam": [4, 3, 2, 1], "mu": [2, 1], "nu": [3, 2, 2]},
        },
        "de784aa3c19c1372430ccc0da93f683406161b4a380fe1a1f8565a004fc3c031",
        "8a0ff30ad04d213e7a84735860b8d6243d98db0e325ada60ae9dda6acf306340",
    ),
    "sym3_cauchy": (
        {
            "group": "builtin:sym:3",
            "task": "schur",
            "schur": {"check": "cauchy", "factor": 2, "dim": 3, "degree": 4},
        },
        "14344ec8e6db3c5b8be0f99438e2137ef700d158132caf855e75c8b16de2de47",
        "c5327bede376527eedfd01ba91dd1de6e47d16b28a495f451fef7865558e193e",
    ),
    "sym3_row_bounds_ring": (
        {"group": "builtin:sym:3", "task": "schur", "schur": {"check": "row-bounds-ring", "max_degree": 5}},
        "68e8ec51221e9ba3b4c236464691adf27c3bc2c6ce2e686cdfc71e7fe3c5507c",
        "e0c786c8fbf2e4a9a67105450afbaa0ba28df1125fb4176a80f95888b44952e4",
    ),
    "klein4_row_bounds_ring": (
        {"group": "builtin:klein:4", "task": "schur", "schur": {"check": "row-bounds-ring", "max_degree": 6}},
        "2d1092ae79e81b7573219bae0fab58e51f3dbbd38eb3c728401e6870a9f833fa",
        "e4326351ea3e304de7c5c73b9b51df477dbfb515ed75ed9fd861b4f34829da9b",
    ),
}


@pytest.mark.parametrize("name", sorted(SCHUR_SHA256))
def test_dominant_complex_reports_are_pinned(tmp_path, capsys, name):
    doc, *want = SCHUR_SHA256[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    for fmt, sha in zip(("json", "markdown"), want):
        code, out, err = run_cli(capsys, "schur", "--input", str(path), "--no-cache", "--format", fmt)
        assert (code, _sha256(out.encode()), err) == (0, sha, ""), fmt


def test_domination_outside_the_budget_is_skipped(tmp_path, capsys):
    """Domination on an order-3 group at the default budget prints the
    skipped block row-bounds-tor prints, where it used to exit 2."""
    results = {}
    for check in ("domination", "row-bounds-tor"):
        path = tmp_path / f"{check}.json"
        doc = {"group": "builtin:cyclic:3", "task": "schur", "schur": {"check": check, "p": 1}}
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "schur", "--input", str(path), "--no-cache")
        assert (code, err) == (0, "")
        results[check] = json.loads(out)["results"]
    reason = "outside budget (order 3, p 1); raise --budget-level to run"
    assert results["domination"] == {"check": "domination", "skipped": True, "reason": reason}
    assert results["row-bounds-tor"] == {**results["domination"], "check": "row-bounds-tor"}


def test_universal_at_p2_runs_under_the_large_budget(capsys):
    """The paper's p = 2 instance: R/θR is the 16-dimensional reduced
    Veronese of P^4, and s'_2 = 6."""
    argv = ["--input", str(PROBLEMS / "z2_universal.json"), "--p", "2", "--budget-level", "large"]
    code, out, err = run_cli(capsys, "universal", *argv, "--no-cache")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["s_prime_universal"] == 6


def test_universal_z3_is_refused_before_any_quotient_degree(tmp_path, capsys, monkeypatch):
    """Z3 at p = 1 reads R up to degree 8 * 2 + 3 = 19 in 12 variables:
    refused under the large budget before R/θR computes a degree."""
    computed = []
    monkeypatch.setattr(ArtinianReduction, "blocks", lambda self, d: computed.append(d))
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"group": "builtin:cyclic:3", "task": "universal", "p": 1}))
    argv = ["--input", str(path), "--budget-level", "large", "--no-cache"]
    code, out, err = run_cli(capsys, "universal", *argv)
    assert (code, out) == (2, "")
    assert err == "syzlab: computation limit exceeded: degree too large\n"
    assert computed == []


@pytest.mark.parametrize("task", ["syzygies", "bounds"])
def test_syzygy_tasks_refuse_the_scan_top_of_r_on_both_routes(tmp_path, capsys, monkeypatch, task):
    """`cyclic:2` on eight sign copies at p_max 3 scans R up to degree
    (2 - 1) * 8 + 2 * 3 + 2 = 16, 245,157 monomials. The quotient route
    would stop at 8 + 2 = 10 (19,448, inside the default budget), but
    these tasks refuse R's scan top before they build E."""
    built = []
    monkeypatch.setattr("syzlab.cli.build_E", lambda *args: built.append(args))
    path = tmp_path / "c2.json"
    doc = {"group": "builtin:cyclic:2", "rep": {"multiplicities": [0, 8]}, "task": task, "p_max": 3}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, task, "--input", str(path), "--no-cache")
    assert (code, out) == (2, "")
    assert err == "syzlab: computation limit exceeded: degree too large\n"
    assert built == []


@pytest.mark.parametrize("task, problem", sorted(CACHE_SHA256))
def test_cache_files_are_pinned(tmp_path, capsys, task, problem):
    """A cold run writes the pinned cache files: each name hashes the key
    the ring derives from its group and representation, and the bytes hold
    that key and the payload."""
    argv = [task, "--input", str(PROBLEMS / f"{problem}.json"), "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    files = {path.name: _sha256(path.read_bytes()) for path in tmp_path.iterdir()}
    assert files == CACHE_SHA256[(task, problem)]
