"""End-to-end CLI behavior: determinism, golden outputs, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdfalearn
from pdfalearn.bench import parse_partitioner
from pdfalearn.cli import main, parse_strategy
from pdfalearn.errors import ParseFailureError
from pdfalearn.fileio import load_pdfa, save_guide, save_pdfa
from pdfalearn.pipeline import digit_guide
from pdfalearn.simplex import ExactPartitioner, TopP, TopR


def test_parse_partitioner_specs():
    assert isinstance(parse_partitioner("exact"), ExactPartitioner)
    assert parse_partitioner("quant:10").kappa == 10
    assert parse_partitioner("topk:3").r == 3
    with pytest.raises(ParseFailureError):
        parse_partitioner("quant:x")


def test_parse_strategy_specs():
    assert parse_strategy("none") is None
    assert parse_strategy("topk:2") == TopR(2)
    assert parse_strategy("topp:0.9") == TopP(0.9)
    with pytest.raises(ParseFailureError):
        parse_strategy("beam:3")


def test_learn_command_round_trip(tmp_path, merged_pair_pdfa, capsys):
    target = tmp_path / "target.pdfa"
    save_pdfa(merged_pair_pdfa, target)
    out = tmp_path / "learned.pdfa"
    rc = main(["learn", "--target", str(target), "--equiv", "exact", "--out", str(out)])
    assert rc == 0
    learned = load_pdfa(out)
    assert learned.n_states == 1
    row = capsys.readouterr().out.strip().splitlines()
    assert row[0].startswith("#n\t")
    assert row[1].split("\t")[11] == "1"  # verified column


def test_learn_command_is_idempotent(tmp_path, loop_pdfa):
    target = tmp_path / "target.pdfa"
    save_pdfa(loop_pdfa, target)
    outs = []
    for name in ("one.pdfa", "two.pdfa"):
        out = tmp_path / name
        assert main(["learn", "--target", str(target), "--seed", "5", "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_learn_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.pdfa"
    bad.write_text("not a pdfa\n")
    rc = main(["learn", "--target", str(bad)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailureError"


def test_quotient_command(tmp_path, merged_pair_pdfa, capsys):
    target = tmp_path / "t.pdfa"
    save_pdfa(merged_pair_pdfa, target)
    rc = main(["quotient", "--target", str(target), "--equiv", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states 1" in out


def test_sample_and_compare_commands(tmp_path, capsys):
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import Alphabet

    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    base = random_pdfa(GenSpec(6, 11, 0.0, seed=3), alphabet=digits)
    target = tmp_path / "digits.pdfa"
    save_pdfa(base, target)
    guide = tmp_path / "digit.guide"
    save_guide(digit_guide(), guide)

    rc = main(
        ["sample", "--target", str(target), "--guide", str(guide), "--strategy", "topk:6",
         "-n", "50", "--max-len", "12", "--seed", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "#string\ttruncated"
    assert len(out) == 51
    assert all(line.split("\t")[0].startswith("dot") for line in out[1:] if line.split("\t")[0])

    rc = main(
        ["compare", "--target", str(target), "--guide", str(guide), "--strategy", "topk:6",
         "-n", "2000", "--max-len", "12", "--seed", "1", "--bins", "10"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "#chi2" in out and "#ks_lengths" in out


def test_generate_command_determinism(tmp_path):
    a, b = tmp_path / "a.pdfa", tmp_path / "b.pdfa"
    for path in (a, b):
        assert main(["generate", "--n", "20", "--m", "4", "--theta", "0.5", "--seed", "7",
                     "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()
    assert load_pdfa(a).n_states <= 20


def test_bench_command_emits_records_and_medians(tmp_path):
    out = tmp_path / "bench.tsv"
    rc = main(["bench", "--n", "12", "--theta", "0.8", "--m", "3", "--seeds", "2",
               "--equiv", "quant:10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#n\tm\ttheta")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) >= 6  # 2 seeds x 3 modes
    for row in data[:6]:
        fields = row.split("\t")
        assert fields[11] == "1"  # every exact-teacher run verifies


def test_learn_from_endpoint(tmp_path, capsys):
    """Full CLI path against the in-repo mock server."""
    from pdfalearn.automata import Pdfa
    from pdfalearn.lmbridge import SymbolMap, TokenModelServer, pdfa_token_model, save_symbol_map
    from pdfalearn.simplex import Alphabet, Distribution

    ab = Alphabet(("a", "b"))
    target = Pdfa(
        ab,
        (
            Distribution.from_map(ab, {"a": 0.6, "b": 0.2, "$": 0.2}),
            Distribution.from_map(ab, {"a": 0.3, "b": 0.0, "$": 0.7}),
        ),
        ((1, 0), (1, 0)),
    )
    smap_path = tmp_path / "map.tsv"
    save_symbol_map(SymbolMap((("a", "a", (2,)), ("b", "b", (3,)))), smap_path)
    out = tmp_path / "learned.pdfa"
    with TokenModelServer(pdfa_token_model(target)) as server:
        rc = main(
            ["learn", "--endpoint", server.url, "--symbol-map", str(smap_path),
             "--equiv", "exact", "--seed", "3", "--epsilon", "0.02", "--delta", "0.02",
             "--max-len", "25", "--out", str(out)]
        )
    assert rc == 0
    learned = load_pdfa(out)
    assert learned.n_states == 2
    capsys.readouterr()


def test_learn_from_endpoint_through_a_guide(tmp_path, capsys):
    """learn --endpoint --guide learns what the in-process composition learns, with the same counts."""
    from pdfalearn.automata import GuideAutomaton, compose, isomorphic
    from pdfalearn.learner import LearnerConfig, LearnerMode, learn
    from pdfalearn.lmbridge import SymbolMap, TokenModelServer, pdfa_token_model, save_symbol_map, symbol_model
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import Alphabet, QuantizationPartitioner
    from pdfalearn.teacher import PacParams, pac_teacher

    tokens = random_pdfa(GenSpec(n=6, m=4, theta=0.0, seed=2))
    smap = SymbolMap((("p", "p", (2,)), ("q", "q", (3, 4)), ("r", "r", (5, 2))))
    pqr = Alphabet(("p", "q", "r"))
    # q may not follow p; termination is always allowed
    guide = GuideAutomaton(pqr, ((1, 1, 1, 1), (1, 0, 1, 1)), ((1, 0, 0), (1, 1, 0)))
    smap_path, guide_path, out = tmp_path / "map.tsv", tmp_path / "g.guide", tmp_path / "learned.pdfa"
    save_symbol_map(smap, smap_path)
    save_guide(guide, guide_path)
    with TokenModelServer(pdfa_token_model(tokens)) as server:
        rc = main(
            ["learn", "--endpoint", server.url, "--symbol-map", str(smap_path), "--guide", str(guide_path),
             "--strategy", "topp:0.9", "--equiv", "quant:10", "--seed", "4", "--max-len", "20",
             "--out", str(out)]
        )
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
    partitioner = QuantizationPartitioner(10)
    model = compose(symbol_model(pdfa_token_model(tokens), smap, pqr), guide, TopP(0.9))
    teacher = pac_teacher(model, partitioner, PacParams(max_len=20), seed=4)
    expected = learn(teacher, partitioner, LearnerConfig(mode=LearnerMode.OMIT_ZERO))
    assert expected.n_states > 1
    assert isomorphic(load_pdfa(out), expected)
    assert (int(row[6]), int(row[7])) == (teacher.mq_count, teacher.eq_count)


def test_learn_from_endpoint_through_a_guide_that_dies_is_a_model_failure(tmp_path, capsys):
    """After `a`, which the composition's first distribution allows, the
    guide allows nothing: the served model composed with it dies there."""
    from pdfalearn.automata import GuideAutomaton, Pdfa
    from pdfalearn.lmbridge import SymbolMap, TokenModelServer, pdfa_token_model, save_symbol_map
    from pdfalearn.simplex import Alphabet, Distribution

    ab = Alphabet(("a", "b"))
    tokens = Pdfa(ab, (Distribution.from_map(ab, {"a": 0.5, "b": 0.3, "$": 0.2}),), ((0, 0),))
    guide = GuideAutomaton(ab, ((1, 1, 1), (0, 0, 0)), ((1, 0), (1, 1)))
    smap_path, guide_path = tmp_path / "map.tsv", tmp_path / "g.guide"
    save_symbol_map(SymbolMap((("a", "a", (2,)), ("b", "b", (3,)))), smap_path)
    save_guide(guide, guide_path)
    with TokenModelServer(pdfa_token_model(tokens)) as server:
        rc = main(
            ["learn", "--endpoint", server.url, "--symbol-map", str(smap_path), "--guide", str(guide_path),
             "--equiv", "quant:10", "--seed", "1", "--max-len", "10"]
        )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ModelFailureError"
    assert "(0,)" in err["detail"]


def test_learn_from_endpoint_with_a_symbol_on_the_eos_token_is_a_vocab_mismatch(tmp_path, capsys):
    """The map is at fault, not the served model: nothing is asked of it."""
    from pdfalearn.automata import Pdfa
    from pdfalearn.lmbridge import SymbolMap, TokenModelServer, pdfa_token_model, save_symbol_map
    from pdfalearn.simplex import Alphabet, Distribution

    ab = Alphabet(("x", "y"))
    tokens = Pdfa(ab, (Distribution.from_map(ab, {"x": 0.5, "y": 0.3, "$": 0.2}),), ((0, 0),))
    smap_path = tmp_path / "map.tsv"
    save_symbol_map(SymbolMap((("x", "x", (2,)), ("y", "y", (1,)))), smap_path)
    with TokenModelServer(pdfa_token_model(tokens)) as server:
        rc = main(["learn", "--endpoint", server.url, "--symbol-map", str(smap_path), "--seed", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VocabMismatchError"
    assert "EOS token 1" in err["detail"]


def test_log_level_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PDFA_LOG", "DEBUG")
    rc = main(["generate", "--n", "3", "--m", "2", "--theta", "0.0", "--seed", "1"])
    assert rc == 0
    capsys.readouterr()


def test_log_level_that_names_no_level_is_warning(tmp_path):
    """`basic_format` is an attribute of `logging` but no level. Run as a
    process: under pytest the root logger has handlers, and `basicConfig`
    then ignores the level it is given."""
    src = str(Path(pdfalearn.__file__).resolve().parents[1])
    env = {**os.environ, "PDFA_LOG": "basic_format", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "g.pdfa"
    proc = subprocess.run(
        [sys.executable, "-m", "pdfalearn.cli", "generate", "--n", "5", "--m", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_pdfa(out).alphabet.size == 2


USAGE_FAULTS = {  # argv, and what the error's detail names
    "bench-n-zero": (["bench", "--n", "0"], "--n"),
    "bench-m-zero": (["bench", "--m", "0"], "--m"),
    "bench-theta-above-one": (["bench", "--theta", "1.5"], "--theta"),
    "bench-n-not-a-number": (["bench", "--n", "10,x"], "--n"),
    "generate-n-zero": (["generate", "--n", "0"], "--n"),
    "generate-theta-two": (["generate", "--theta", "2"], "--theta"),
    "sample-negative-n": (["sample", "--target", "TARGET", "-n", "-5"], "-n"),
    "sample-max-len-zero": (["sample", "--target", "TARGET", "--max-len", "0"], "--max-len"),
    "compare-n-zero": (["compare", "--target", "TARGET", "-n", "0"], "-n"),
    "learn-epsilon-two": (
        ["learn", "--endpoint", "http://127.0.0.1:9", "--symbol-map", "MAP", "--epsilon", "2"], "--epsilon"
    ),
    "quotient-without-target": (["quotient"], "--target"),
    # flags a command does not read are refused, not ignored
    "quotient-seed": (["quotient", "--target", "TARGET", "--seed", "1"], "--seed"),
    "sample-equiv": (["sample", "--target", "TARGET", "--equiv", "exact"], "--equiv"),
    "sample-bins": (["sample", "--target", "TARGET", "--bins", "10"], "--bins"),
    "compare-equiv": (["compare", "--target", "TARGET", "--equiv", "exact"], "--equiv"),
    "generate-equiv": (["generate", "--equiv", "exact"], "--equiv"),
    "generate-negative-seed": (["generate", "--n", "5", "--m", "2", "--seed", "-1"], "--seed"),
    "sample-negative-seed": (["sample", "--target", "TARGET", "-n", "3", "--seed", "-5"], "--seed"),
    "compare-negative-seed": (["compare", "--target", "TARGET", "-n", "3", "--seed", "-5"], "--seed"),
    "bench-negative-seed": (["bench", "--n", "5", "--m", "2", "--seed", "-1"], "--seed"),
    "bench-negative-seeds": (["bench", "--n", "5", "--m", "2", "--seeds", "-2"], "--seeds"),
    "learn-endpoint-negative-seed": (
        ["learn", "--endpoint", "http://127.0.0.1:9", "--symbol-map", "MAP", "--seed", "-1"], "--seed"
    ),
    "compare-bins-seven": (["compare", "--target", "TARGET", "--bins", "7"], "--bins"),
    "sample-strategy-without-guide": (
        ["sample", "--target", "TARGET", "-n", "200", "--seed", "3", "--strategy", "topk:1"], "--guide"
    ),
    "compare-strategy-without-guide": (["compare", "--target", "TARGET", "--strategy", "topk:1"], "--guide"),
    "learn-strategy-without-guide": (["learn", "--target", "TARGET", "--strategy", "topk:1"], "--guide"),
    "learn-endpoint-without-symbol-map": (["learn", "--endpoint", "http://127.0.0.1:9"], "--symbol-map"),
    # `learn --target` refuses the flags only `--endpoint` reads, even at their default values
    "learn-target-endpoint": (["learn", "--target", "TARGET", "--endpoint", "http://127.0.0.1:9"], "--endpoint"),
    "learn-target-symbol-map": (["learn", "--target", "TARGET", "--symbol-map", "MAP"], "--symbol-map"),
    "learn-target-epsilon": (["learn", "--target", "TARGET", "--epsilon", "0.05"], "--epsilon"),
    "learn-target-delta": (["learn", "--target", "TARGET", "--delta", "0.05"], "--delta"),
    "learn-target-max-len": (["learn", "--target", "TARGET", "--max-len", "50"], "--max-len"),
    "learn-target-bos": (["learn", "--bos", "0", "--target", "TARGET"], "--bos"),
    "learn-target-eos": (["learn", "--target", "TARGET", "--eos=1"], "--eos"),
}


@pytest.mark.parametrize("argv, names", USAGE_FAULTS.values(), ids=USAGE_FAULTS.keys())
def test_out_of_range_arguments_are_usage_errors(argv, names, tmp_path, loop_pdfa, capsys):
    from pdfalearn.lmbridge import SymbolMap, save_symbol_map

    save_pdfa(loop_pdfa, tmp_path / "t.pdfa")
    save_symbol_map(SymbolMap((("a", "a", (2,)), ("b", "b", (3,)))), tmp_path / "map.tsv")
    paths = {"TARGET": str(tmp_path / "t.pdfa"), "MAP": str(tmp_path / "map.tsv")}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    assert names in err["detail"]


def test_compare_that_never_completes_is_a_domain_error(tmp_path, capsys):
    """No walk completes within --max-len, so the exact laws have no mass to condition on."""
    from pdfalearn import Alphabet, Distribution, Pdfa

    ab = Alphabet(("1",))
    save_pdfa(Pdfa(ab, (Distribution(ab, (1.0, 0.0)), Distribution(ab, (0.5, 0.5))), ((1,), (1,))),
              tmp_path / "t.pdfa")
    assert main(["compare", "--target", str(tmp_path / "t.pdfa"), "-n", "5", "--max-len", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "AllZeroError"
    assert "max_len" in err["detail"]


def test_empty_sweep_yields_header_only(tmp_path):
    out = tmp_path / "empty.tsv"
    rc = main(["bench", "--n", "", "--theta", "0.9", "--m", "3", "--seeds", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert all(l.startswith("#") for l in lines)


def test_bench_query_columns_deterministic(tmp_path):
    """wall_ms varies between runs; the query-count columns must not."""
    tables = []
    for name in ("b1.tsv", "b2.tsv"):
        out = tmp_path / name
        assert main(["bench", "--n", "10", "--theta", "0.7", "--m", "3", "--seeds", "2",
                     "--equiv", "quant:10", "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
        records = [r for r in rows if len(r) >= 12]  # skip the short median rows
        tables.append([(r[4], r[5], r[6], r[7], r[9]) for r in records])
    assert tables[0] == tables[1]


def test_learn_from_endpoint_rejects_other_modes(tmp_path, capsys):
    """A served model is learned in omit-zero mode only; any other --mode is a usage error."""
    rc = main(["learn", "--endpoint", "http://127.0.0.1:9", "--symbol-map", str(tmp_path / "map.tsv"),
               "--mode", "qnt-standard"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"
    assert "omit-zero" in err["detail"]


def test_learn_from_endpoint_without_a_scheme_is_a_json_error(tmp_path, capsys):
    """An endpoint that is not an http(s) URL ends as a package error, not a traceback."""
    from pdfalearn import errors
    from pdfalearn.lmbridge import SymbolMap, save_symbol_map

    smap_path = tmp_path / "map.tsv"
    save_symbol_map(SymbolMap((("a", "a", (2,)), ("b", "b", (3,)))), smap_path)
    rc = main(["learn", "--endpoint", "localhost:8321", "--symbol-map", str(smap_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert issubclass(getattr(errors, err["error"]), errors.PdfaError)
    assert "localhost:8321" in err["detail"]


def test_bench_records_failed_runs(monkeypatch):
    """A failed run carries its error and stays out of the medians."""
    from pdfalearn import bench
    from pdfalearn.errors import QueryBudgetExceededError
    from pdfalearn.randgen import GenSpec, random_pdfa

    def failing_learn(teacher, partitioner, config=None):
        teacher.mq(())
        raise QueryBudgetExceededError("budget spent")

    spec = GenSpec(n=8, m=3, theta=0.5, seed=1)
    ok = bench.run_learning(random_pdfa(spec), ExactPartitioner(), "omit-zero", spec)
    monkeypatch.setattr(bench, "learn", failing_learn)
    failed = bench.run_learning(random_pdfa(spec), ExactPartitioner(), "omit-zero", spec)
    assert ok.error == "" and ok.mq_count > 1
    assert failed.error == "QueryBudgetExceededError: budget spent"
    assert failed.to_row().endswith("\tQueryBudgetExceededError: budget spent")
    assert bench.median_mq_by([ok, failed]) == {(8, "omit-zero"): ok.mq_count}


def test_wall_ms_leaves_out_verification(monkeypatch):
    """A sweep row's wall_ms times learning alone, not the check against the quotient."""
    import time

    from pdfalearn import bench

    hk_equiv = bench.hk_equiv

    def slow_hk_equiv(*args):
        time.sleep(0.3)
        return hk_equiv(*args)

    monkeypatch.setattr(bench, "hk_equiv", slow_hk_equiv)
    record = bench.sweep(ns=[4], thetas=[0.5], m=2, partitioner=ExactPartitioner(), seeds=[1])[0]
    assert record.verified
    assert record.wall_ms < 300


@pytest.mark.parametrize("mode", ["omit-zero", "qnt-filter", "qnt-standard"])
def test_learn_row_equals_the_sweep_row(tmp_path, capsys, mode):
    """`learn --target` and `bench` record one instance's run alike."""
    from pdfalearn import bench
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import QuantizationPartitioner

    spec = GenSpec(n=30, m=4, theta=0.8, seed=3)
    target = tmp_path / "target.pdfa"
    save_pdfa(random_pdfa(spec), target)
    assert main(["learn", "--target", str(target), "--mode", mode, "--equiv", "quant:10"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    learned = dict(zip(header.lstrip("#").split("\t"), row.split("\t")))
    (swept,) = [r for r in bench.sweep([spec.n], [spec.theta], spec.m, QuantizationPartitioner(10), [spec.seed])
                if r.mode == mode]
    columns = ("mq_count", "eq_count", "ce_count", "learned_states", "verified")
    assert [learned[c] for c in columns] == [str(int(getattr(swept, c))) for c in columns]
    assert swept.verified and swept.mq_count > 1


def test_learn_with_a_repeated_symbol_name_is_a_json_error(tmp_path, capsys):
    """A symbol map naming a symbol twice fails before anything is asked of the endpoint."""
    smap_path = tmp_path / "dup.map"
    smap_path.write_text("a\ta\t2\nb\tb\t3\na\tA\t4\n")
    rc = main(["learn", "--endpoint", "http://127.0.0.1:9", "--symbol-map", str(smap_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailureError"
    assert err["detail"] == f"{smap_path}:3: bad or repeated symbol name 'a'"


@pytest.mark.parametrize(
    "content",
    [None, b"# pdfa v1\nalphabet a b\nstates 1\nstate 0\ndist a \xff\n", b"\xfe"],
    ids=["missing", "0xff-in-a-line", "0xfe"],
)
@pytest.mark.parametrize("role", ["target", "guide", "symbol-map"])
def test_unreadable_inputs_are_json_errors(tmp_path, loop_pdfa, capsys, role, content):
    """A missing file, a directory or non-UTF-8 bytes fail like any malformed file."""
    target, guide, smap = tmp_path / "t.pdfa", tmp_path / "g.guide", tmp_path / "s.map"
    save_pdfa(loop_pdfa, target)
    save_guide(digit_guide(), guide)
    bad = {"target": target, "guide": guide, "symbol-map": smap}[role]
    if content is None:
        bad.unlink(missing_ok=True)
    else:
        bad.write_bytes(content)
    argv = {
        "target": ["quotient", "--target", str(target)],
        "guide": ["sample", "--target", str(target), "--guide", str(guide)],
        "symbol-map": ["learn", "--endpoint", "http://127.0.0.1:9", "--symbol-map", str(smap)],
    }[role]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailureError"
    assert err["detail"].startswith(f"{bad}: cannot read: ")


def test_a_directory_as_target_is_a_json_error(tmp_path, capsys):
    assert main(["quotient", "--target", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailureError" and err["detail"].startswith(f"{tmp_path}: cannot read: ")
