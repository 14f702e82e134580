"""Exit codes, flag resolution and file outputs of the console entry point."""

from __future__ import annotations

import json

import pytest

from concnas.archmodel import read_arch
from concnas.cli import main
from concnas.hypart import Hypergraph, partition
from concnas.score import DEFAULT_WEIGHTS, check_settings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_ba_pins_edge_count(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen", "--kind", "ba", "--n", "40", "--m", "7", "--out", str(tmp_path)
    )
    assert code == 0
    assert "undirected edges: 231" in out
    assert "longest path:" in out
    assert (tmp_path / "ba_40_0.json").exists()
    assert (tmp_path / "ba_40_0.dot").exists()


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_odd_ws_k_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--kind", "ws", "--n", "10", "--k", "3", "--p", "0.5",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "usage error" in err


def test_er_without_p_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "er", "--out", str(tmp_path))
    assert code == 1
    assert "usage error" in err


def test_missing_arch_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "score", "--arch", str(tmp_path / "nope.json"))
    assert code == 2
    assert "i/o error" in err


def test_broken_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "usage error" in err


def test_bad_partition_arguments_are_usage_errors(tmp_path, capsys):
    # the DAG of a 4-vertex graph has 6 vertices: the blocks plus input and output
    for argv in (
        ("partition", "--parts", "10"),
        ("partition", "--parts", "7"),
        ("partition", "--parts", "1"),
        ("partition", "--eps", "0.5"),
        ("partition", "--eps", "inf"),
        ("score", "--units", "1"),
        ("score", "--units", "0"),
        ("score", "--units", "4,7"),
        ("score", "--units", ","),
        ("score", "--eps", "1.1,0.9"),
        ("score", "--eps", "0.5"),
    ):
        code, _, err = run(
            capsys, *argv, "--kind", "er", "--n", "4", "--p", "0.5", "--out", str(tmp_path)
        )
        assert code == 1, argv
        assert "usage error" in err


def test_gen_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, _ = run(
            capsys, "gen", "--kind", "dp", "--n", "12", "--p", "0.4",
            "--alpha", "2", "--beta", "2", "--seed", "17", "--out", str(d),
        )
        assert code == 0
    assert (a / "dp_12_17.json").read_bytes() == (b / "dp_12_17.json").read_bytes()
    assert (a / "dp_12_17.dot").read_bytes() == (b / "dp_12_17.dot").read_bytes()


def test_cli_flag_beats_config_beats_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "er", "n": 10, "p": 0.3}))
    # config supplies n; the flag overrides the config's p
    code, out, _ = run(
        capsys, "gen", "--config", str(cfg), "--p", "1.0", "--out", str(tmp_path)
    )
    assert code == 0
    assert "undirected edges: 45" in out  # complete graph on 10
    assert "dag vertices: 12" in out


def test_out_env_var_is_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONCNAS_OUT", str(tmp_path / "fromenv"))
    code, _, _ = run(capsys, "gen", "--kind", "ba", "--n", "6", "--m", "2")
    assert code == 0
    assert (tmp_path / "fromenv" / "ba_6_0.json").exists()


def test_score_writes_grid_per_unit_count(tmp_path, capsys):
    code, out, _ = run(
        capsys, "score", "--kind", "ws", "--n", "12", "--k", "4", "--p", "0.25",
        "--units", "2,4", "--eps", "1.1,1.3", "--name", "met", "--out", str(tmp_path),
    )
    assert code == 0
    for n in (2, 4):
        path = tmp_path / f"met_n{n}.csv"
        assert path.exists()
        assert f"n={n} best_cs=" in out
        # header plus one row per grid point
        assert len(path.read_text().strip().splitlines()) == 3


def test_score_writes_nothing_when_a_later_unit_count_fails(tmp_path, capsys):
    """Every unit count is scored before the first file is written, so a
    score that overflows at n = 8 leaves no file for n = 2 behind."""
    code, out, err = run(
        capsys, "score", "--kind", "er", "--n", "10", "--p", "0.3", "--units", "2,8",
        "--weights", "1,1,800", "--out", str(tmp_path),
    )
    assert code == 1 and err.startswith("usage error: weights (1.0, 1.0, 800.0) "), err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_partition_writes_hmetis_on_request(tmp_path, capsys):
    code, out, _ = run(
        capsys, "partition", "--kind", "er", "--n", "10", "--p", "0.4",
        "--parts", "2", "--eps", "1.3", "--hmetis", "--out", str(tmp_path),
    )
    assert code == 0
    assert "parts=2" in out
    assert (tmp_path / "partition.json").exists()
    assert (tmp_path / "partition.hmetis").exists()


def test_simulate_reports_and_traces(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--kind", "er", "--n", "8", "--p", "0.5", "--seed", "1",
        "--units", "2", "--trace", "trace.csv", "--placement", "place.json",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "makespan=" in out and "speedup=" in out and "groups=" in out
    trace = tmp_path / "trace.csv"
    assert trace.exists()
    assert len(trace.read_text().strip().splitlines()) >= 2
    assert (tmp_path / "place.json").exists()


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    args = (
        "sweep", "--generators", "er,dp", "--n", "10", "--samples", "2",
        "--units", "2", "--master-seed", "3",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run(capsys, *args, "--out", str(a))
    assert code == 0
    assert "er n=2 mean_cs=" in out
    rows = (a / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 2 * 2 * 1 + 1
    assert (a / "summary.csv").exists()

    code, _, _ = run(capsys, *args, "--out", str(b))
    assert code == 0
    assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_histogram_accounts_for_every_vertex(tmp_path, capsys):
    code, out, _ = run(
        capsys, "histogram", "--kind", "ba", "--n", "15", "--m", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "widths_sum=17" in out
    lines = (tmp_path / "histogram.csv").read_text().strip().splitlines()
    assert lines[0] == "depth,width"
    assert sum(int(row.split(",")[1]) for row in lines[1:]) == 17


ER = ("--kind", "er", "--n", "10", "--p", "0.3", "--seed", "1")


def _gen_doc(tmp_path, capsys):
    """The architecture file that ``gen`` writes for ER."""
    code, _, _ = run(capsys, "gen", *ER, "--name", "base", "--out", str(tmp_path))
    assert code == 0
    return json.loads((tmp_path / "base.json").read_text())


def _edit(change):
    """A change made in place, as a function from document to document."""
    def apply(doc):
        change(doc)
        return doc
    return apply


def _block(doc):
    return next(b for b in doc["blocks"] if b["flops"])


def _add_flops(delta):
    return _edit(lambda doc: _block(doc).update(flops=_block(doc)["flops"] + delta))


def _reverse_block_edge(doc):
    """Add the reverse of the first block-to-block edge: a two-cycle."""
    u, v = next((u, v) for u, v in doc["directed_edges"] if doc["kinds"][u] == doc["kinds"][v] == "block")
    doc["directed_edges"].append([v, u])


def _one_score_line_at(n):
    def check(tmp_path, capsys, out):
        assert out.startswith(f"n={n} ") and out.count("n=") == 1
    return check


def _sweep_rows_are_er(tmp_path, capsys, out):
    rows = (tmp_path / "rows.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(r.startswith("er,") for r in rows)


def _same_output_as(*argv):
    def check(tmp_path, capsys, out):
        code, again, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0 and out == again
    return check


def _arch_reads_back(name, spatial):
    def check(tmp_path, capsys, out):
        assert read_arch(tmp_path / name).elaboration.input_spatial == spatial
    return check


def _wrote(name):
    def check(tmp_path, capsys, out):
        assert f"wrote {tmp_path / name}" in out
    return check


def _simulated(tmp_path, capsys, out):
    assert out.startswith("groups=") and "makespan=" in out


_UNCHANGED = _edit(lambda doc: None)
DP = ("--kind", "dp", "--n", "10", "--p", "0.3", "--seed", "1")
WS = ("--kind", "ws", "--n", "8", "--k", "4", "--p", "0.5", "--units", "3")
# block maps this large give a vertex-weight total past the hypergraph's 2**53 bound
HUGE = ("--kind", "er", "--n", "5", "--p", "0.5", "--spatial", "1048576", "--channels", "1048576",
        "--channel-limit", "1048576")


# case: (argv, config file contents, change to a gen output passed as
#        --arch, exit code, stderr prefix or check of a successful run)
CONTRACT = {
    "channels-0": (("gen", *ER, "--channels", "0"), None, None, 1, "usage error:"),
    "staging-prob-2": (("gen", *ER, "--staging-prob", "2"), None, None, 1, "usage error:"),
    "channel-limit-8": (("gen", *ER, "--channel-limit", "8"), None, None, 1, "usage error:"),
    "simulate-units-0": (("simulate", *ER, "--units", "0"), None, None, 1, "usage error:"),
    "flops-per-time-0": (("simulate", *ER, "--flops-per-time", "0"), None, None, 1, "usage error:"),
    "link-latency-negative": (("simulate", *ER, "--link-latency", "-1"), None, None, 1, "usage error:"),
    "unknown-generator": (("sweep", "--generators", "xx"), None, None, 1, "usage error:"),
    "negative-samples": (("sweep", "--samples", "-1"), None, None, 1, "usage error:"),
    "units-above-dag": (("sweep", "--n", "6", "--units", "9"), None, None, 1, "usage error:"),
    "units-above-er-dag": (("sweep", "--generators", "er", "--n", "6", "--units", "9"), None, None, 1, "usage error:"),
    "er-p-2": (("sweep", "--er-p", "2"), None, None, 1, "usage error:"),
    "two-weights": (("score", *ER, "--weights", "1,2"), None, None, 1, "usage error:"),
    "weights-nan": (("score", *ER, "--units", "4", "--weights", "nan,1,1"), None, None, 1, "usage error:"),
    "weights-negative": (("score", *ER, "--units", "4", "--weights=-1,1,1"), None, None, 1, "usage error:"),
    "flops-per-time-inf": (("simulate", *ER, "--flops-per-time", "inf"), None, None, 1, "usage error:"),
    "bytes-per-time-inf": (("simulate", *ER, "--bytes-per-time", "inf"), None, None, 0, _simulated),
    # a subnormal rate is finite and positive, but the times it gives overflow
    "flops-per-time-subnormal": (
        ("simulate", *WS, "--flops-per-time", "1e-320"), None, None, 1, "usage error: flops_per_time=1e-320 ",
    ),
    "bytes-per-time-subnormal": (
        ("simulate", *WS, "--bytes-per-time", "1e-320"), None, None, 1, "usage error: bytes_per_time=1e-320 ",
    ),
    "sweep-flops-per-time-subnormal": (
        ("sweep", "--samples", "1", "--generators", "er", "--flops-per-time", "1e-320"), None, None, 1,
        "usage error: flops_per_time=1e-320 ",
    ),
    # weights under which the score's product overflows
    "weights-overflow-fb": (
        ("score", "--kind", "fb", "--n", "8", "--k", "2", "--p", "0.5", "--stages", "2", "--weights", "0.5,1e308,1"),
        None, None, 1, "usage error: weights (0.5, 1e+308, 1.0) ",
    ),
    "weights-overflow-er": (
        ("score", "--kind", "er", "--n", "10", "--p", "0.3", "--units", "2", "--weights", "1e6,1,1"), None, None, 1,
        "usage error: weights (1000000.0, 1.0, 1.0) ",
    ),
    "partition-vertex-weight-2**53": (
        ("partition", *HUGE), None, None, 1, "usage error: total vertex weight must be below 2**53",
    ),
    "score-vertex-weight-2**53": (
        ("score", *HUGE, "--units", "2"), None, None, 1, "usage error: total vertex weight must be below 2**53",
    ),
    # far more units than vertices: the units past the placement's stay idle
    "simulate-units-3000": (("simulate", "--kind", "er", "--n", "20", "--p", "0.2", "--units", "3000"), None, None, 0,
                            _simulated),
    "dp-alpha-nan": (("gen", *DP, "--alpha", "nan", "--beta", "1"), None, None, 1, "usage error:"),
    "dp-beta-nan": (("gen", *DP, "--alpha", "1", "--beta", "nan"), None, None, 1, "usage error:"),
    "dp-alpha-inf": (("gen", *DP, "--alpha", "inf", "--beta", "1"), None, None, 1, "usage error:"),
    # the largest finite tolerances: the balance cap stops at the total weight
    "partition-eps-1e308": (
        ("partition", "--kind", "er", "--n", "8", "--p", "0.5", "--parts", "2", "--eps", "1e308"), None, None, 0,
        _wrote("partition.json"),
    ),
    "score-eps-1e308": (
        ("score", "--kind", "er", "--n", "8", "--p", "0.5", "--units", "2", "--eps", "1.05,1e308"), None, None, 0,
        _wrote("metrics_n2.csv"),
    ),
    "gen-er-spatial-12": (("gen", *ER, "--spatial", "12"), None, None, 0, _arch_reads_back("er_10_1.json", 12)),
    "unknown-config-key": (("gen", *ER), {"bogus": 1}, None, 1, "usage error:"),
    "config-flag-not-boolean": (("partition", *ER), {"hmetis": "no"}, None, 1, "usage error:"),
    "config-units-score": (("score", *ER), {"units": 4}, None, 0, _one_score_line_at(4)),
    "config-generators-string": (
        ("sweep",), {"generators": "er", "n": 10, "samples": 1, "units": [2, 3]}, None, 0, _sweep_rows_are_er,
    ),
    "config-units-simulate": (
        ("simulate", *ER), {"units": 2}, None, 0, _same_output_as("simulate", *ER, "--units", "2"),
    ),
    "arch-json-list": (("simulate",), None, lambda doc: [doc], 2, "i/o error:"),
    "arch-no-vertex-count": (("simulate",), None, _edit(lambda doc: doc.pop("n_dag_vertices")), 2, "i/o error:"),
    "arch-half-flop-partition": (("partition",), None, _add_flops(0.5), 2, "i/o error:"),
    "arch-half-flop-simulate": (("simulate",), None, _add_flops(0.5), 2, "i/o error:"),
    "arch-flops-raised": (("simulate",), None, _add_flops(1000), 2, "i/o error:"),
    "arch-channels-text": (("simulate",), None, _edit(lambda doc: _block(doc).update(channels="x")), 2, "i/o error:"),
    "arch-edge-bytes-row-dropped": (("partition",), None, _edit(lambda doc: doc["edge_bytes"].pop()), 2, "i/o error:"),
    "arch-cycle": (("simulate",), None, _edit(_reverse_block_edge), 2, "i/o error:"),
    "sweep-ws-k-names-family": (("sweep", "--n", "6"), None, None, 1, "usage error: ws generator, set by --ws-k=6"),
    "arch-with-generator-flags-simulate": (
        ("simulate", "--kind", "er", "--p", "0.9", "--channels", "8"), None, _UNCHANGED, 1,
        "usage error: --arch fixes the architecture, so --kind, --p, --channels would be ignored",
    ),
    "arch-with-staging-score": (("score", "--staging", "greedy"), None, _UNCHANGED, 1, "usage error: --arch fixes"),
    "arch-with-channel-limit-partition": (
        ("partition", "--channel-limit", "64"), None, _UNCHANGED, 1, "usage error: --arch fixes",
    ),
    "arch-with-seed-histogram": (("histogram", "--seed", "2"), None, _UNCHANGED, 1, "usage error: --arch fixes"),
    "arch-with-config-kind": (("simulate",), {"kind": "er"}, _UNCHANGED, 1, "usage error: --arch fixes"),
    "arch-with-seed-score": (("score", "--seed", "3", "--units", "4"), None, _UNCHANGED, 0, _one_score_line_at(4)),
    # score checks its unit counts against the DAG it scores, not against the sweep's default --n
    "score-units-above-sweep-n": (
        ("score", "--kind", "er", "--n", "50", "--p", "0.1", "--units", "45"), None, None, 0, _one_score_line_at(45),
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_exit_code_contract(case, tmp_path, capsys):
    argv, config, change, expected, outcome = CONTRACT[case]
    argv = [*argv, "--out", str(tmp_path)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    if change is not None:
        (tmp_path / "arch.json").write_text(json.dumps(change(_gen_doc(tmp_path, capsys))))
        argv += ["--arch", str(tmp_path / "arch.json")]
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    if expected == 0:
        outcome(tmp_path, capsys, out)
    else:
        assert err.startswith(outcome), err


def test_tolerance_rule_is_one_check(tmp_path, capsys):
    """``partition``, the score's settings check and both commands that take
    --eps reject a tolerance below 1 with one message, and the commands
    exit 1."""
    h = Hypergraph(n_vertices=2, pins=((0, 1),), weights=(1,), vertex_weights=(1, 1))
    messages = set()
    for check in (lambda: partition(h, 2, 0.5), lambda: check_settings((1.1, 0.5), DEFAULT_WEIGHTS)):
        with pytest.raises(ValueError) as info:
            check()
        messages.add(str(info.value))
    assert len(messages) == 1
    (message,) = messages
    graph = ("--kind", "er", "--n", "4", "--p", "0.5", "--out", str(tmp_path))
    assert run(capsys, "partition", "--eps", "0.5", *graph) == (1, "", f"usage error: {message}\n")
    assert run(capsys, "score", "--eps", "1.1,0.5", *graph) == (1, "", f"usage error: {message}\n")


def test_file_that_is_not_utf8(tmp_path, capsys):
    """A config file that does not decode is a usage error, and an --arch
    file that does not decode is an I/O error."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"kind": "er"}')
    code, _, err = run(capsys, "gen", *ER, "--config", str(bad), "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"usage error: config file {bad}: "), err
    code, _, err = run(capsys, "simulate", "--arch", str(bad), "--out", str(tmp_path))
    assert code == 2 and err.startswith(f"i/o error: {bad}: not an architecture file (UnicodeDecodeError"), err
