"""Command line interface: exit codes, formats, and theorem re-checks."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cechlift import linalg
from cechlift.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    RunReport,
    main,
)
from cechlift.fingroup import builtin_extension, write_extension
from cechlift.nerve import builtin_complex, write_complex
from cechlift.obstruct import random_cocycle, write_cocycle


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_machine(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv, "--format", "machine")
    return rc, json.loads(out) if out else None, err


def test_catalog_passes_and_lists_everything(capsys):
    rc, out, err = run_cli(capsys, "catalog")
    assert rc == EXIT_OK
    assert err == ""
    for name in ("circle", "sphere2", "torus7", "rp2_6", "klein"):
        assert name in out
    for name in ("z4_over_z2", "q8_over_v4", "d8_over_v4", "split_z2"):
        assert name in out
    assert "check catalog_has_five_complexes: PASS" in out
    assert "command: catalog" in out


def test_machine_output_round_trips(capsys):
    rc, out, _ = run_cli(capsys, "catalog", "--format", "machine")
    assert rc == EXIT_OK
    report = RunReport.from_json(out)
    assert report.command == "catalog"
    assert report.ok()
    assert report.to_json() == out.rstrip("\n")


def test_human_and_machine_agree(capsys):
    argv = ("obstruction", "--builtin", "rp2_6", "--cocycle", "mobius",
            "--extension", "z4_over_z2")
    rc_m, payload, _ = run_machine(capsys, *argv)
    rc_h, human, _ = run_cli(capsys, *argv)
    assert rc_m == rc_h == EXIT_OK
    rebuilt = RunReport(
        command=payload["command"],
        inputs=payload["inputs"],
        payload=payload["payload"],
        checks=payload["checks"],
        elapsed=payload["elapsed"],
    )
    def strip(text):
        return sorted(ln for ln in text.splitlines() if not ln.startswith("elapsed:"))

    assert strip(rebuilt.render_human()) == strip(human)


def test_cohomology_known_dimensions(capsys):
    for args, dim, factors in (
        (("--builtin", "torus7", "-p", "1", "-k", "Z2"), 2, [2, 2]),
        (("--builtin", "sphere2", "-p", "2", "-k", "Z2"), 1, [2]),
        (("--builtin", "circle", "-p", "2", "-k", "Z2"), 0, []),
    ):
        rc, doc, _ = run_machine(capsys, "cohomology", *args)
        assert rc == EXIT_OK
        assert doc["payload"]["dimension"] == dim
        assert doc["payload"]["invariant_factors"] == factors
        assert doc["checks"]["order_matches_dimension"]


def test_cohomology_composite_coefficients(capsys):
    rc, doc, _ = run_machine(capsys, "cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z6")
    assert rc == EXIT_OK
    assert doc["payload"]["invariant_factors"] == [6, 6]
    assert doc["payload"]["order"] == 36
    assert doc["payload"]["dimension"] is None


def test_cohomology_basis(capsys):
    rc, doc, _ = run_machine(
        capsys, "cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2", "--basis"
    )
    assert rc == EXIT_OK
    assert len(doc["payload"]["basis"]) == 2
    assert doc["checks"]["basis_representatives_are_cocycles"]
    assert doc["checks"]["basis_size_matches_dimension"]


def test_obstruction_mobius_is_nontrivial(capsys):
    rc, doc, _ = run_machine(
        capsys, "obstruction", "--builtin", "rp2_6", "--cocycle", "mobius",
        "--extension", "z4_over_z2", "--brute-force"
    )
    assert rc == EXIT_OK
    ob = doc["payload"]["obstruction"]
    assert ob["verdict"] == "NONTRIVIAL"
    assert ob["lift"] is None
    assert doc["payload"]["brute_force"] == "NONE"
    assert all(doc["checks"].values())


def test_obstruction_identity_is_trivial(capsys):
    rc, doc, _ = run_machine(
        capsys, "obstruction", "--builtin", "circle", "--cocycle", "identity",
        "--extension", "z4_over_z2", "--brute-force"
    )
    assert rc == EXIT_OK
    ob = doc["payload"]["obstruction"]
    assert ob["verdict"] == "TRIVIAL"
    assert ob["lift"] is not None
    assert doc["payload"]["brute_force"] == "FOUND"
    assert doc["checks"]["brute_force_lift_verified"]


def test_random_runs_are_deterministic(capsys):
    argv = ("obstruction", "--builtin", "torus7", "--cocycle", "random",
            "--extension", "q8_over_v4", "--seed", "7")
    rc1, doc1, _ = run_machine(capsys, *argv)
    rc2, doc2, _ = run_machine(capsys, *argv)
    assert rc1 == rc2 == EXIT_OK
    doc1.pop("elapsed")
    doc2.pop("elapsed")
    assert doc1 == doc2


def test_whitney_two_components(capsys):
    rc, doc, _ = run_machine(
        capsys, "whitney", "--builtin", "torus7",
        "--cocycle", "random", "--cocycle", "random",
        "--extension", "z4_over_z2", "--extension", "q8_over_v4", "--seed", "3"
    )
    assert rc == EXIT_OK
    assert doc["payload"]["fusion"] == "mod2:2"
    assert doc["payload"]["additivity"]["cochain_equal"]
    assert doc["payload"]["additivity"]["class_equal"]
    assert doc["payload"]["additivity"]["mismatched_triangles"] == 0
    assert len(doc["payload"]["components"]) == 2
    assert all(doc["checks"].values())


def test_whitney_hyperbolic_doubling(capsys):
    rc, doc, _ = run_machine(
        capsys, "whitney", "--builtin", "rp2_6", "--cocycle", "mobius",
        "--extension", "z4_over_z2", "--hyperbolic"
    )
    assert rc == EXIT_OK
    assert doc["payload"]["single"]["verdict"] == "NONTRIVIAL"
    assert doc["payload"]["doubled"]["verdict"] == "TRIVIAL"
    assert doc["payload"]["doubled"]["lift"] is not None
    assert doc["checks"]["doubled_cochain_identically_zero"]
    assert doc["checks"]["doubled_lift_verified"]


def test_count_matches_h1(capsys):
    for cname, cocycle, expected in (
        ("torus7", "identity", 4),
        ("sphere2", "identity", 1),
        ("rp2_6", "mobius", 2),
    ):
        rc, doc, _ = run_machine(
            capsys, "count", "--builtin", cname, "--cocycle", cocycle,
            "--extension", "z4_over_z2"
        )
        assert rc == EXIT_OK
        assert doc["payload"]["count"] == expected
        assert doc["payload"]["h1_order"] == expected
        assert doc["checks"]["count_equals_h1_order"]


def test_file_based_workflow(tmp_path, capsys):
    x = builtin_complex("torus7")
    ext = builtin_extension("z4_over_z2")
    cpath = tmp_path / "t.cplx"
    write_complex(cpath, x)
    spath = tmp_path / "t.bcoc"
    write_cocycle(spath, random_cocycle(x, ext.base, 11))
    rc, doc, _ = run_machine(
        capsys, "obstruction", "--complex", str(cpath), "--cocycle", str(spath),
        "--extension", "z4_over_z2", "--brute-force"
    )
    assert rc == EXIT_OK
    assert doc["inputs"]["cocycle"] == f"file:{spath}"
    assert all(doc["checks"].values())


def test_parse_failures_exit_two(tmp_path, capsys):
    cases = (
        ("obstruction", "--builtin", "rp2_6", "--cocycle", "mobius",
         "--extension", "nonsense"),
        ("obstruction", "--builtin", "rp2_6", "--cocycle", "sideways",
         "--extension", "z4_over_z2"),
        ("obstruction", "--complex", str(tmp_path / "missing.cplx"),
         "--cocycle", "identity", "--extension", "z4_over_z2"),
        ("cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2+Z4"),
        ("whitney", "--builtin", "rp2_6", "--cocycle", "mobius", "--cocycle", "identity",
         "--extension", "z4_over_z2", "--extension", "z4_over_z2", "--hyperbolic"),
        ("whitney", "--builtin", "rp2_6", "--cocycle", "mobius",
         "--extension", "z4_over_z2", "--extension", "z4_over_z2"),
    )
    for argv in cases:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_PARSE
        assert "error:" in err
        assert out == ""


def test_repeated_lines_in_input_files_exit_two(tmp_path, capsys):
    x = builtin_complex("torus7")
    ext = builtin_extension("z4_over_z2")
    spath = tmp_path / "t.bcoc"
    write_cocycle(spath, random_cocycle(x, ext.base, 11), complex_ref="builtin:torus7")
    a, b, v = spath.read_text().splitlines()[3].split()
    spath.write_text(spath.read_text() + f"{b} {a} {v}\n")
    epath = tmp_path / "z4.ext"
    write_extension(epath, ext)
    epath.write_text(epath.read_text() + "embed 0 2\n")
    cases = (
        (("--cocycle", str(spath), "--extension", "z4_over_z2"), f"edge ({a}, {b}) a second time"),
        (("--cocycle", "identity", "--extension", str(epath)), "repeated embed line"),
    )
    for argv, message in cases:
        rc, out, err = run_cli(capsys, "obstruction", "--builtin", "torus7", *argv)
        assert rc == EXIT_PARSE
        assert message in err
        assert out == ""


def test_oversized_coefficients_exit_two_quickly(capsys):
    for literal in ("Z4294967311", "Z2305843009213693951"):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "cohomology", "--builtin", "rp2_6", "-p", "1", "-k", literal)
        assert time.perf_counter() - t0 < 1.0
        assert rc == EXIT_PARSE
        assert "2^31" in err
        assert out == ""


def test_bad_coefficient_literal_is_named_once_with_a_reason(capsys):
    # The message used to repeat the literal with no reason: "bad group
    # literal 'Z0': bad group literal 'Z0'".
    for literal, reason in (
        ("Z0", "a cyclic factor must be at least 1, got 'Z0'"),
        ("Z2x", "each factor must read Z<n>, got ''"),
        ("Z2+Z4", "each factor must read Z<n>, got 'Z2+Z4'"),
    ):
        rc, out, err = run_cli(capsys, "cohomology", "--builtin", "torus7", "-p", "1", "-k", literal)
        assert rc == EXIT_PARSE
        assert err.strip() == f"error: -k/--coefficients: bad group literal {literal!r}: {reason}"
        assert out == ""


def test_count_check_uses_the_rank_figure(capsys, monkeypatch):
    import cechlift.cli

    monkeypatch.setattr(cechlift.cli, "z2_h1_order_from_ranks", lambda x: 8)
    rc, payload, _ = run_machine(capsys, "count", "--builtin", "torus7", "--cocycle", "identity",
                                 "--extension", "z4_over_z2")
    assert rc == EXIT_CHECK_FAILED
    assert payload["checks"] == {"count_equals_h1_order": False}


def test_argparse_rejections_exit_two(capsys):
    assert main(["cohomology", "--builtin", "banana", "-p", "1", "-k", "Z2"]) == EXIT_PARSE
    capsys.readouterr()
    assert main([]) == EXIT_PARSE
    capsys.readouterr()


def test_semantic_failures_exit_three(capsys):
    cases = (
        ("obstruction", "--builtin", "circle", "--cocycle", "mobius",
         "--extension", "z4_over_z2"),
        ("cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z4", "--basis"),
        ("obstruction", "--builtin", "circle", "--cocycle", "identity",
         "--extension", "z4_over_z2", "--brute-force", "--cap", "4"),
    )
    for argv in cases:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_SEMANTIC
        assert "error:" in err
        assert out == ""


def test_smith_form_entry_bound_exits_three(capsys, monkeypatch, tmp_path):
    # Coboundaries never come near the bound; lower it so this one passes
    # it.  A complex read from a file is new, so nothing about it is cached.
    cpath = tmp_path / "torus.cplx"
    write_complex(cpath, builtin_complex("torus7"))
    monkeypatch.setattr(linalg, "_SNF_MAX_BITS", 0)
    rc, out, err = run_cli(capsys, "cohomology", "--complex", str(cpath), "-p", "1", "-k", "Z4")
    assert rc == EXIT_SEMANTIC
    assert "CapExceededError" in err and "bits" in err
    assert out == ""


def test_smith_form_entry_bound_in_the_logged_run_exits_three(capsys, monkeypatch, tmp_path):
    # The bound drops to 0 only once the logged elimination runs, as it
    # does at a kernel draw's first read of the logs.  The diagonal pass
    # leaves it no block on the torus, so the cohomology still answers and
    # a random cocycle's draw fails with the bound.
    cpath = tmp_path / "torus.cplx"
    write_complex(cpath, builtin_complex("torus7"))
    real = linalg._eliminate

    def over_the_bound(m):
        monkeypatch.setattr(linalg, "_SNF_MAX_BITS", 0)
        return real(m)

    monkeypatch.setattr(linalg, "_eliminate", over_the_bound)
    rc, out, err = run_cli(capsys, "cohomology", "--complex", str(cpath), "-p", "1", "-k", "Z4")
    assert rc == 0 and linalg._SNF_MAX_BITS > 0
    rc, out, err = run_cli(
        capsys, "obstruction", "--complex", str(cpath), "--cocycle", "random", "--extension", "z4_over_z2"
    )
    assert rc == EXIT_SEMANTIC
    assert "CapExceededError" in err and "bits" in err
    assert out == ""


def test_memory_error_while_reading_exits_three(capsys, monkeypatch, tmp_path):
    # A file too big for the address space fails in the reader; that is a
    # resource failure with a name, not an unreadable file with no reason.
    cpath = tmp_path / "torus.cplx"
    write_complex(cpath, builtin_complex("torus7"))

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("cechlift.cli.read_complex", exhausted)
    rc, out, err = run_cli(capsys, "cohomology", "--complex", str(cpath), "-p", "1", "-k", "Z2")
    assert rc == EXIT_SEMANTIC
    assert err.startswith("error: MemoryError")
    assert "cannot read" not in err
    assert out == ""


def test_memory_error_without_a_message_says_out_of_memory(capsys, monkeypatch):
    # numpy and the allocator raise MemoryError with an empty message.
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("cechlift.cli.cohomology", exhausted)
    rc, out, err = run_cli(capsys, "cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2")
    assert rc == EXIT_SEMANTIC
    assert err == "error: MemoryError: out of memory\n"
    assert out == ""

    def exhausted_saying(*args, **kwargs):
        raise MemoryError("cannot allocate 8 GiB")

    monkeypatch.setattr("cechlift.cli.cohomology", exhausted_saying)
    rc, out, err = run_cli(capsys, "cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2")
    assert (rc, err) == (EXIT_SEMANTIC, "error: MemoryError: cannot allocate 8 GiB\n")


def test_cap_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("CECHLIFT_CAP", "10")
    rc, out, err = run_cli(
        capsys, "obstruction", "--builtin", "sphere2", "--cocycle", "identity",
        "--extension", "z4_over_z2", "--brute-force"
    )
    assert rc == EXIT_SEMANTIC
    assert "error:" in err
    monkeypatch.setenv("CECHLIFT_CAP", "banana")
    rc, out, err = run_cli(
        capsys, "obstruction", "--builtin", "sphere2", "--cocycle", "identity",
        "--extension", "z4_over_z2", "--brute-force"
    )
    assert rc == EXIT_PARSE


def test_failed_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("cechlift.cli._recheck_defect", lambda *a: False)
    rc, out, err = run_cli(
        capsys, "obstruction", "--builtin", "rp2_6", "--cocycle", "mobius",
        "--extension", "z4_over_z2"
    )
    assert rc == EXIT_CHECK_FAILED
    assert "check defect_projects_to_identity_and_matches: FAIL" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cechlift.cli", "catalog", "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "catalog"


# The six README commands plus a composite-coefficient one.  Each golden
# file is the machine output of the commit before the verdict path moved
# to whole-array arithmetic, with the `elapsed` line taken out.
GOLDEN = {
    "catalog": ["catalog"],
    "cohomology_torus7_p1_z2_basis": ["cohomology", "--builtin", "torus7", "-p", "1", "-k", "Z2", "--basis"],
    "obstruction_rp2_6_mobius_brute": [
        "obstruction", "--builtin", "rp2_6", "--cocycle", "mobius", "--extension", "z4_over_z2", "--brute-force",
    ],
    "whitney_rp2_6_mobius_hyperbolic": [
        "whitney", "--builtin", "rp2_6", "--cocycle", "mobius", "--extension", "z4_over_z2", "--hyperbolic",
    ],
    "whitney_torus7_random_seed3": [
        "whitney", "--builtin", "torus7", "--cocycle", "random", "--cocycle", "random",
        "--extension", "z4_over_z2", "--extension", "q8_over_v4", "--seed", "3",
    ],
    "count_torus7_identity": ["count", "--builtin", "torus7", "--cocycle", "identity", "--extension", "z4_over_z2"],
    "cohomology_rp2_6_p2_z4": ["cohomology", "--builtin", "rp2_6", "-p", "2", "-k", "Z4"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_machine_output_is_byte_identical_to_the_golden_file(capsys, name):
    rc, out, err = run_cli(capsys, *GOLDEN[name], "--format", "machine")
    assert rc == EXIT_OK and err == ""
    text, n = re.subn(r'(?m)^  "elapsed": [^\n]*,\n', "", out)
    assert n == 1
    assert text == (Path(__file__).parent / "golden" / f"{name}.json").read_text()
