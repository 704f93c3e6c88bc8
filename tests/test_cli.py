"""Black-box CLI tests: every invocation through a real subprocess, and
calls of ``main`` in one process checked against those."""

import builtins
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from scatterkit import cli, engine
from scatterkit import fixtures as fx
from scatterkit.serialize import dump_document, spec_to_json, tensor_to_json
from scatterkit.transform import XTransformerSpec


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "scatterkit", *map(str, args)],
        capture_output=True,
        text=True,
    )


def stdout_doc(proc):
    return json.loads(proc.stdout)


@pytest.fixture()
def fixture_dir(tmp_path):
    proc = run_cli("fixtures", "--dir", tmp_path / "fx")
    assert proc.returncode == 0, proc.stderr
    return tmp_path / "fx"


def write_doc(path, doc):
    path.write_text(dump_document(doc))
    return path


def test_fixtures_idempotent(tmp_path):
    target = tmp_path / "fx"
    first = run_cli("fixtures", "--dir", target)
    assert first.returncode == 0
    listed = stdout_doc(first)["files"]
    before = {name: (target / name).read_bytes() for name in listed}
    second = run_cli("fixtures", "--dir", target)
    assert second.returncode == 0
    assert {name: (target / name).read_bytes() for name in listed} == before
    parity = json.loads((target / "parity_provision.json").read_text())
    assert parity["shape"] == [4, 2, 4]
    assert parity["data"][-4:] == [3, 1, 1, 1]


def test_scatter_pipeline(fixture_dir, tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "embed_provision.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
        "--policy", "last",
        "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    doc = stdout_doc(proc)
    assert doc["report"]["writes"] == 8
    assert doc["report"]["colliding_groups"] == 0
    assert doc["report"]["uncovered_targets"] == 8
    assert json.loads(out.read_text()) == json.loads(
        (fixture_dir / "embed_expected.json").read_text()
    )


def test_scatter_result_inline_without_out(fixture_dir):
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "embed_provision.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
    )
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["result"] == tensor_to_json(fx.embed_expected())


def test_scatter_in_place(fixture_dir):
    background = fixture_dir / "embed_background.json"
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "embed_provision.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", background,
        "--in-place",
    )
    assert proc.returncode == 0
    assert json.loads(background.read_text()) == tensor_to_json(fx.embed_expected())


def test_scatter_in_place_preserves_input_on_failure(fixture_dir, tmp_path):
    dup = write_doc(
        tmp_path / "dup.json", tensor_to_json(np.array([[0], [0]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.array([1.0, 2.0])))
    background = tmp_path / "bg.json"
    original = dump_document(tensor_to_json(np.zeros(1)))
    background.write_text(original)
    proc = run_cli(
        "scatter",
        "--provision", dup,
        "--updates", updates,
        "--background", background,
        "--policy", "error",
        "--in-place",
    )
    assert proc.returncode == 3
    assert background.read_text() == original


class HalfWriter:
    """A file opened for writing whose write stores half its text, then
    fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_out_write_leaves_the_existing_file_whole(tmp_path, monkeypatch, capsys):
    ts = write_doc(tmp_path / "ts.json", tensor_to_json(np.zeros((3, 2))))
    indices = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.array([[2]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.ones((1, 2))))
    out = tmp_path / "out.json"
    out.write_bytes(b"an earlier result\n")
    before = sorted(os.listdir(tmp_path))
    real_open, real_fdopen = builtins.open, os.fdopen

    def failing(opener):
        def opened(file, mode="r", *args, **kwargs):
            fh = opener(file, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh
        return opened

    argv = ["tf-scatter", "--tensor", ts, "--indices", indices,
            "--updates", updates, "--out", out]
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", failing(real_open))
        m.setattr(os, "fdopen", failing(real_fdopen))
        code = cli.main([str(a) for a in argv])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["exit_code"] == 1
    assert out.read_bytes() == b"an earlier result\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_written_files_keep_the_mode_open_gives(fixture_dir, tmp_path):
    # a replaced file keeps its mode; a new one gets the umask's
    background = fixture_dir / "embed_background.json"
    background.chmod(0o640)
    args = ["scatter", "--provision", fixture_dir / "embed_provision.json",
            "--updates", fixture_dir / "embed_updates.json",
            "--background", background]
    assert run_cli(*args, "--in-place").returncode == 0
    assert background.stat().st_mode & 0o777 == 0o640
    umask = os.umask(0)
    os.umask(umask)
    assert run_cli(*args, "--out", tmp_path / "new.json").returncode == 0
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_writes_through_a_symlink(fixture_dir, tmp_path):
    target = tmp_path / "real.json"
    target.write_text("stale\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    proc = run_cli("scatter", "--provision", fixture_dir / "embed_provision.json",
                   "--updates", fixture_dir / "embed_updates.json",
                   "--background", fixture_dir / "embed_background.json",
                   "--out", link)
    assert proc.returncode == 0, proc.stderr
    assert link.is_symlink()
    assert json.loads(target.read_text()) == tensor_to_json(fx.embed_expected())


def test_scatter_missing_file_exits_1(fixture_dir):
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "nope.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
    )
    assert proc.returncode == 1
    assert "error" in stdout_doc(proc)
    assert proc.stderr.strip()


def test_scatter_malformed_json_exits_1(fixture_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(
        "scatter",
        "--provision", bad,
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_background.json",
    )
    assert proc.returncode == 1


def test_scatter_collision_error_exits_3(tmp_path):
    dup = write_doc(
        tmp_path / "dup.json", tensor_to_json(np.array([[0], [0]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.array([10.0, 20.0])))
    background = write_doc(tmp_path / "bg.json", tensor_to_json(np.zeros(1)))
    proc = run_cli(
        "scatter", "--provision", dup, "--updates", updates,
        "--background", background, "--policy", "error",
    )
    assert proc.returncode == 3
    assert stdout_doc(proc)["exit_code"] == 3


def test_scatter_shape_mismatch_exits_2(fixture_dir):
    proc = run_cli(
        "scatter",
        "--provision", fixture_dir / "embed_provision.json",
        "--updates", fixture_dir / "embed_updates.json",
        "--background", fixture_dir / "embed_updates.json",
    )
    assert proc.returncode == 2


def test_scatter_builds_no_scattering(fixture_dir, tmp_path, monkeypatch, capsys):
    # the CLI scatters its table with scatter_x: no Scattering is built
    def refuse(self):
        raise AssertionError("the CLI built a Scattering")

    monkeypatch.setattr(engine.Scattering, "__post_init__", refuse)
    out = tmp_path / "result.json"
    code = cli.main([
        "scatter",
        "--provision", str(fixture_dir / "embed_provision.json"),
        "--updates", str(fixture_dir / "embed_updates.json"),
        "--background", str(fixture_dir / "embed_background.json"),
        "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    assert json.loads(out.read_text()) == json.loads(
        (fixture_dir / "embed_expected.json").read_text()
    )


def test_integer_data_float64_would_round_exits_2(tmp_path):
    # an i64 update of 2**53 + 1 is refused, not scattered as 2**53
    big = write_doc(tmp_path / "big.json",
                    {"dtype": "i64", "shape": [1], "data": [2**53 + 1]})
    zeros = write_doc(tmp_path / "zeros.json", tensor_to_json(np.zeros(2)))
    table = write_doc(tmp_path / "table.json",
                      tensor_to_json(np.zeros((1, 1), dtype=np.int64)))
    index = write_doc(tmp_path / "index.json", tensor_to_json(np.zeros(1, np.int64)))
    for args in (
        ["scatter", "--provision", table, "--updates", big, "--background", zeros],
        ["tf-scatter", "--tensor", zeros, "--indices", table, "--updates", big],
        ["torch-scatter", "--self", zeros, "--dim", 0, "--index", index, "--src", big],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args[0], proc.stderr)
        doc = stdout_doc(proc)  # the whole stream is one document
        assert doc["exit_code"] == 2, args[0]
        assert "data entry 9007199254740993 at (0,)" in doc["error"], args[0]
    # so is such an integer listed in an f64 document, where float64 would round it
    for value in (2**53 + 1, -(2**53 + 1), 2**70):
        updates = write_doc(tmp_path / "f64.json",
                            {"dtype": "f64", "shape": [1], "data": [value]})
        proc = run_cli("tf-scatter", "--tensor", zeros, "--indices", table,
                       "--updates", updates)
        assert proc.returncode == 2, (value, proc.stderr)
        doc = stdout_doc(proc)
        assert doc["exit_code"] == 2, value
        assert f"data entry {value} at (0,)" in doc["error"], value


def test_tf_scatter_command(fixture_dir, tmp_path):
    ts = write_doc(tmp_path / "ts.json", tensor_to_json(np.zeros((3, 2))))
    indices = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.array([[0], [2]], dtype=np.int64))
    )
    updates = write_doc(
        tmp_path / "u.json", tensor_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    )
    proc = run_cli("tf-scatter", "--tensor", ts, "--indices", indices, "--updates", updates)
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["result"]["data"] == [1.0, 2.0, 0.0, 0.0, 3.0, 4.0]


def test_tf_scatter_out_of_bounds_exits_2(tmp_path):
    ts = write_doc(tmp_path / "ts.json", tensor_to_json(np.zeros((4, 3))))
    indices = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.array([[1], [5]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.zeros((2, 3))))
    proc = run_cli("tf-scatter", "--tensor", ts, "--indices", indices, "--updates", updates)
    assert proc.returncode == 2
    assert stdout_doc(proc)["error"] == (
        "1 provision entries out of bounds; first at source index (1,), "
        "target axis 0"
    )


def test_tf_scatter_shape_mismatch_exits_2(tmp_path):
    ts = write_doc(tmp_path / "ts.json", tensor_to_json(np.zeros((4, 3))))
    indices = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.array([[1]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.zeros((2, 3))))
    proc = run_cli("tf-scatter", "--tensor", ts, "--indices", indices, "--updates", updates)
    assert proc.returncode == 2
    assert stdout_doc(proc)["error"] == (
        "updates shape (2, 3) must equal (1, 3), the source shape that indices "
        "of shape (1, 1) address in a target of shape (4, 3)"
    )


def test_torch_scatter_command(tmp_path):
    self_t = write_doc(tmp_path / "self.json", tensor_to_json(np.zeros((2, 2))))
    index = write_doc(
        tmp_path / "idx.json",
        tensor_to_json(np.array([[0, 1], [1, 0]], dtype=np.int64)),
    )
    src = write_doc(
        tmp_path / "src.json", tensor_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    )
    proc = run_cli(
        "torch-scatter", "--self", self_t, "--dim", 0, "--index", index, "--src", src
    )
    assert proc.returncode == 0
    assert stdout_doc(proc)["result"]["data"] == [1.0, 4.0, 3.0, 2.0]


def test_torch_scatter_bad_dim_exits_2(tmp_path):
    self_t = write_doc(tmp_path / "self.json", tensor_to_json(np.zeros((2, 2))))
    index = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.zeros((2, 2), dtype=np.int64))
    )
    src = write_doc(tmp_path / "src.json", tensor_to_json(np.zeros((2, 2))))
    proc = run_cli(
        "torch-scatter", "--self", self_t, "--dim", 5, "--index", index, "--src", src
    )
    assert proc.returncode == 2


def test_analyze_diag(fixture_dir):
    proc = run_cli("analyze", "--provision", fixture_dir / "diag_provision.json")
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["verdict"] == "SLICEABLE"
    assert doc["max_suffix"] == 2
    assert doc["suffix_inner"]["data"] == [0, 0, 1, 1]
    assert doc["uncovered"] == 8


def test_analyze_parity_with_target_shape(fixture_dir):
    proc = run_cli(
        "analyze",
        "--provision", fixture_dir / "parity_provision.json",
        "--target-shape", "4,2,2,2",
    )
    assert proc.returncode == 0
    doc = stdout_doc(proc)
    assert doc["verdict"] == "WEAKLY_SLICEABLE_ONLY"
    assert doc["max_suffix"] == 0
    assert doc["overlap"] == [0]


def test_analyze_invalid_provision_exits_2(fixture_dir):
    proc = run_cli(
        "analyze",
        "--provision", fixture_dir / "parity_provision.json",
        "--target-shape", "4,2,2,1",
    )
    assert proc.returncode == 2


def test_analyze_offset_overflow_exits_2(tmp_path):
    table = np.array([[0, 0], [2**61, 0]], dtype=np.int64)
    prov = write_doc(tmp_path / "wide.json", tensor_to_json(table))
    proc = run_cli(
        "analyze", "--provision", prov, "--target-shape", f"{2**62},8"
    )
    assert proc.returncode == 2
    assert stdout_doc(proc)["exit_code"] == 2


def test_analyze_empty_table_of_a_huge_target(tmp_path):
    prov = write_doc(tmp_path / "empty.json", tensor_to_json(np.zeros((0, 2), np.int64)))
    proc = run_cli(
        "analyze", "--provision", prov, "--target-shape", f"{2**62},8"
    )
    assert proc.returncode == 0, proc.stderr
    doc = stdout_doc(proc)
    assert doc["collisions"] == {"count": 0, "groups": []}
    assert doc["uncovered"] == 2**65


OUT_OF_RANGE = {
    # an i64 entry int64 cannot hold
    "i64_entry": (1, {"dtype": "i64", "shape": [1, 1], "data": [2**63]}, None),
    # an f64 entry written as an integer beyond the largest double, refused
    # as every listed integer float64 would change is
    "f64_entry": (2, {"dtype": "f64", "shape": [1], "data": [10**400]}, None),
    # a zero-size shape whose extent numpy cannot allocate
    "shape_extent": (1, {"dtype": "i64", "shape": [2**63, 0], "data": []}, None),
    # a target extent beyond int64
    "target_shape": (
        2, {"dtype": "i64", "shape": [1, 1], "data": [0]}, "99999999999999999999"
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_numbers_exit_with_one_document(tmp_path, case):
    code, doc, target_shape = OUT_OF_RANGE[case]
    path = write_doc(tmp_path / "doc.json", doc)
    if case == "f64_entry":
        provision = write_doc(
            tmp_path / "p.json", tensor_to_json(np.zeros((1, 1), np.int64))
        )
        background = write_doc(tmp_path / "b.json", tensor_to_json(np.zeros(1)))
        args = ["scatter", "--provision", provision, "--updates", path,
                "--background", background]
    else:
        args = ["analyze", "--provision", path]
        if target_shape is not None:
            args += ["--target-shape", target_shape]
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert stdout_doc(proc)["exit_code"] == code  # the whole stream is one document


def strict_doc(proc):
    """The one stdout document, refusing the NaN and Infinity extensions."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(proc.stdout, parse_constant=refuse)


@pytest.mark.parametrize("case", ["update_1e400", "sum_overflow"])
def test_non_finite_numbers_exit_1_with_strict_json(tmp_path, case):
    dup = write_doc(
        tmp_path / "dup.json", tensor_to_json(np.array([[0], [0]], dtype=np.int64))
    )
    updates = tmp_path / "u.json"
    if case == "update_1e400":
        # json reads 1e400 as inf, which no tensor document may hold
        updates.write_text('{"dtype":"f64","shape":[2],"data":[1e400,0.0]}\n')
    else:
        # two finite updates whose sum overflows to inf
        write_doc(updates, tensor_to_json(np.array([1e308, 1e308])))
    background = write_doc(tmp_path / "bg.json", tensor_to_json(np.zeros(1)))
    args = ["scatter", "--provision", dup, "--updates", updates,
            "--background", background, "--policy", "sum"]
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stderr
    assert strict_doc(proc)["exit_code"] == 1
    # a refused result leaves no --out file behind
    proc = run_cli(*args, "--out", tmp_path / "out.json")
    assert proc.returncode == 1 and strict_doc(proc)["exit_code"] == 1
    assert not (tmp_path / "out.json").exists()


def test_a_refused_result_leaves_existing_files_as_they_were(tmp_path):
    # the result is refused before a byte of it is written: one error
    # document on stdout, and neither --out nor --in-place touches its file
    dup = write_doc(
        tmp_path / "dup.json", tensor_to_json(np.array([[0], [0]], dtype=np.int64))
    )
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.array([1e308, 1e308])))
    background = write_doc(tmp_path / "bg.json", tensor_to_json(np.zeros(1)))
    out = tmp_path / "out.json"
    out.write_bytes(b'{"an earlier":"result"}\n')
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    args = ["scatter", "--provision", dup, "--updates", updates,
            "--background", background, "--policy", "sum"]
    for extra in ([], ["--out", out], ["--in-place"]):
        proc = run_cli(*args, *extra)
        assert proc.returncode == 1, proc.stderr
        assert strict_doc(proc) == {
            "error": "tensor data is not finite; JSON has no NaN or infinity",
            "exit_code": 1,
        }
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize("table", [
    {"dtype": "f64", "shape": [2, 1], "data": [0.0, 1.0]},
    {"dtype": "i64", "shape": [], "data": [0]},
], ids=["f64", "rank0"])
def test_every_command_refuses_a_bad_provision_with_exit_2(tmp_path, table):
    # one loader reads each provision: scatter's and analyze's, and the
    # inner table of compose's spec
    bad = write_doc(tmp_path / "bad.json", table)
    updates = write_doc(tmp_path / "u.json", tensor_to_json(np.zeros(2)))
    background = write_doc(tmp_path / "bg.json", tensor_to_json(np.zeros(2)))
    spec = write_doc(tmp_path / "spec.json", {
        "inner": table, "inner_pick": [0], "pass_pick": [], "out_pick": [0],
        "source_shape": [2], "target_shape": [2],
    })
    for args in (
        ["scatter", "--provision", bad, "--updates", updates, "--background", background],
        ["analyze", "--provision", bad],
        ["compose", "--spec", spec],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args[0], proc.stderr)
        assert stdout_doc(proc)["exit_code"] == 2, args[0]


def test_only_argument_errors_exit_2(fixture_dir, tmp_path, monkeypatch, capsys):
    # a spec whose inner pick reads past its inner table refuses itself with
    # an ArgumentError, so it exits 2; any other IndexError is a fault of the
    # package and propagates rather than pass for a refusal
    spec_path = write_doc(tmp_path / "escape.json", {
        "inner": tensor_to_json(np.array([[0], [1]], dtype=np.int64)),
        "inner_pick": [0], "pass_pick": [1], "out_pick": [0, 1],
        "source_shape": [3, 0], "target_shape": [4, 0],
    })
    assert cli.main(["compose", "--spec", str(spec_path)]) == 2
    assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def broken(provision):
        raise IndexError("index 5 is out of bounds")

    monkeypatch.setattr(cli, "detect_collisions", broken)
    provision = str(fixture_dir / "diag_provision.json")
    with pytest.raises(IndexError, match="index 5 is out of bounds"):
        cli.main(["analyze", "--provision", provision])


def test_analyze_malformed_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    proc = run_cli("analyze", "--provision", bad)
    assert proc.returncode == 1


UNREADABLE = {
    # an integer literal past Python's 4300-digit int-to-str limit
    "5000_digits": lambda text: text.replace("[0, 0]", "[0, " + "7" * 5000 + "]").encode(),
    # a byte that is no UTF-8
    "not_utf8": lambda text: text.replace('"shape"', '"sh\udcffape"').encode(
        "utf-8", "surrogateescape"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_a_file_json_cannot_read_exits_1_with_one_document(tmp_path, case):
    # each file the CLI loads, a tensor, a provision table and a spec, is
    # refused as a FormatError, not with a traceback
    table = '{"dtype": "i64", "shape": [2, 1], "data": [0, 0]}'
    spec = ('{"inner": ' + table + ', "inner_pick": [0], "pass_pick": [],'
            ' "out_pick": [0], "source_shape": [2], "target_shape": [1]}')
    good = write_doc(tmp_path / "good.json", tensor_to_json(np.zeros(1)))
    indices = write_doc(tmp_path / "i.json", tensor_to_json(np.zeros((1, 1), np.int64)))
    tensor, provision, spec_path = (tmp_path / f"{name}.json"
                                    for name in ("tensor", "provision", "spec"))
    tensor.write_bytes(UNREADABLE[case](table.replace("i64", "f64")))
    provision.write_bytes(UNREADABLE[case](table))
    spec_path.write_bytes(UNREADABLE[case](spec))
    for args in (
        ["tf-scatter", "--tensor", tensor, "--indices", indices, "--updates", good],
        ["analyze", "--provision", provision],
        ["compose", "--spec", spec_path],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 1, (args[0], proc.stderr)
        assert "Traceback" not in proc.stderr
        doc = stdout_doc(proc)  # the whole stream is one document
        assert doc["exit_code"] == 1 and doc["error"].startswith(str(args[2])), doc


def test_compose_diag_spec(tmp_path, fixture_dir):
    spec = XTransformerSpec(
        inner=fx.diag_inner(),
        inner_pick=(0,),
        pass_pick=(1, 2),
        out_pick=(0, 1, 2, 3),
        source_shape=(2, 2, 2),
        target_shape=(2, 2, 2, 2),
    )
    spec_path = write_doc(tmp_path / "spec.json", spec_to_json(spec))
    proc = run_cli("compose", "--spec", spec_path)
    assert proc.returncode == 0
    golden = (fixture_dir / "diag_provision.json").read_text()
    assert stdout_doc(proc) == json.loads(golden)
    # with --out the table goes to the file and stdout names it, as scatter does
    out = tmp_path / "provision.json"
    proc = run_cli("compose", "--spec", spec_path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert stdout_doc(proc) == {"out": str(out)}
    assert out.read_text() == golden


def test_compose_trivial_spec(tmp_path):
    spec_doc = {
        "inner": tensor_to_json(fx.diag_inner().table),
        "inner_pick": [0],
        "pass_pick": [],
        "out_pick": [0, 1],
        "source_shape": [2],
        "target_shape": [2, 2],
    }
    spec_path = write_doc(tmp_path / "spec.json", spec_doc)
    proc = run_cli("compose", "--spec", spec_path)
    assert proc.returncode == 0
    assert stdout_doc(proc)["data"] == [0, 0, 1, 1]


def test_compose_pick_length_mismatch_exits_2(tmp_path):
    spec_doc = {
        "inner": tensor_to_json(fx.diag_inner().table),
        "inner_pick": [0],
        "pass_pick": [],
        "out_pick": [0],
        "source_shape": [2],
        "target_shape": [2, 2],
    }
    spec_path = write_doc(tmp_path / "spec.json", spec_doc)
    proc = run_cli("compose", "--spec", spec_path)
    assert proc.returncode == 2


def test_stdout_single_document(fixture_dir):
    proc = run_cli("analyze", "--provision", fixture_dir / "diag_provision.json")
    json.loads(proc.stdout)  # the whole stream is one document


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze"], "the following arguments are required: --provision"),
        (["torch-scatter", "--self", "s", "--dim", "abc", "--index", "i", "--src", "x"],
         "argument --dim: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["analyse"], "argument command: invalid choice: 'analyse'"),
    ],
    ids=["missing_option", "bad_int", "no_command", "bad_command"],
)
def test_usage_errors_print_one_document(argv, message):
    # argparse's usage line stays on stderr; stdout holds the one document
    proc = run_cli(*argv)
    assert proc.returncode == 2
    doc = stdout_doc(proc)
    assert doc["exit_code"] == 2 and doc["error"].startswith(message), doc
    assert proc.stderr.startswith("usage: scatterkit")


def test_help_still_exits_0():
    proc = run_cli("analyze", "-h")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: scatterkit analyze")


def test_main_in_one_process_matches_fresh_runs(fixture_dir, tmp_path, capsys):
    # main reuses one parser per process; no option of an earlier call may
    # reach a later one: the second tf-scatter neither writes --out nor
    # keeps --policy first
    ts = write_doc(tmp_path / "ts.json", tensor_to_json(np.zeros((3, 2))))
    indices = write_doc(
        tmp_path / "idx.json", tensor_to_json(np.array([[0], [0]], dtype=np.int64))
    )
    updates = write_doc(
        tmp_path / "u.json", tensor_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    )
    tf = ["tf-scatter", "--tensor", ts, "--indices", indices, "--updates", updates]
    calls = [
        tf + ["--policy", "first", "--out", tmp_path / "out.json"],
        ["analyze", "--provision", fixture_dir / "diag_provision.json"],
        tf,
    ]
    docs = []
    for argv in calls:
        argv = [str(a) for a in argv]
        code = cli.main(argv)
        got = capsys.readouterr().out
        fresh = run_cli(*argv)
        assert (code, got) == (fresh.returncode, fresh.stdout), argv
        docs.append(json.loads(got))
    assert docs[0]["out"] == str(tmp_path / "out.json")
    assert docs[1]["verdict"] == "SLICEABLE"
    assert "out" not in docs[2]
    assert docs[2]["result"]["data"] == [3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
