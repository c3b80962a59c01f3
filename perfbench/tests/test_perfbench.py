"""Tests of the benchmark's own code: wrappers, input generation, failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from pdfalearn.automata import isomorphic  # noqa: E402
from pdfalearn.learner import LearnerConfig, LearnerMode, learn  # noqa: E402
from pdfalearn.lmbridge import TokenModelServer, pdfa_token_model, remote_token_model  # noqa: E402
from pdfalearn.randgen import GenSpec, random_pdfa  # noqa: E402
from pdfalearn.simplex import ExactPartitioner, QuantizationPartitioner  # noqa: E402
from pdfalearn.teacher import exact_teacher, filter_teacher  # noqa: E402
from tracing import NullTracer, TracedTeacher, TracedTokenModel, Tracer, counting_partitioner  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("base", [QuantizationPartitioner(10), ExactPartitioner()])
def test_traced_teacher_and_counting_partitioner_are_transparent(seed, base):
    target = random_pdfa(GenSpec(n=30, m=3 + seed % 3, theta=0.3 * (seed % 4), seed=seed))
    for make, mode in (
        (exact_teacher, LearnerMode.OMIT_ZERO),
        (filter_teacher, LearnerMode.QNT_STANDARD),
        (exact_teacher, LearnerMode.QNT_STANDARD),
    ):
        plain = make(target, base)
        expected = learn(plain, base, LearnerConfig(mode=mode))
        tracer = Tracer("test")
        part = counting_partitioner(base, tracer)
        inner = make(target, part)
        got = learn(TracedTeacher(inner, tracer), part, LearnerConfig(mode=mode))
        assert isomorphic(got, expected)
        assert (inner.mq_count, inner.eq_count) == (plain.mq_count, plain.eq_count)
        assert tracer.calls["teacher.mq"] == plain.mq_count
        assert tracer.calls["teacher.eq"] == plain.eq_count
        assert tracer.values["simplex.label_calls"] > 0
        assert part == base


def test_model_proxies_are_transparent_over_http():
    tokens = random_pdfa(GenSpec(n=12, m=4, theta=0.0, seed=3))
    part = QuantizationPartitioner(10)
    remote = workloads.LearnRemote()
    expected, plain = remote._learn(pdfa_token_model(tokens), 5, NullTracer(), part)
    tracer = Tracer("test")
    with TokenModelServer(pdfa_token_model(tokens)) as server:
        client = remote_token_model(server.url)
        got, teacher = remote._learn(TracedTokenModel(client, tracer), 5, tracer, part)
    assert isomorphic(got, expected)
    assert (teacher.mq_count, teacher.eq_count) == (plain.mq_count, plain.eq_count)
    assert tracer.calls["automata.model_next"] == teacher.model_query_count
    assert tracer.calls["lmbridge.symbol_next"] > 0
    assert tracer.calls["lmbridge.token"] == client.request_count > 0
    assert tracer.values["lmbridge.request_s"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer("test")
    tracer.call("outer", tracer.call, "inner", sum, range(10_000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    outer_self = tracer.total["outer"] - tracer.total["inner"]
    assert tracer.self_time["outer"] == pytest.approx(outer_self)
    parents = {name: parent for _, parent, name, *_ in tracer.spans}
    assert parents == {"outer": -1, "inner": 0}


@pytest.mark.parametrize("name", ["learn-random", "learn-chain", "analyze"])
def test_workload_inputs_are_deterministic_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first, again, other = (workload.setup(seed, NullTracer(), d) for seed, d in zip((3, 3, 4), dirs))
    if name == "analyze":
        text = lambda env: env.big_path.read_text()  # noqa: E731
        assert text(first) == text(again) != text(other)
        first, again, other = (
            (env.chain, env.digit_bases) for env in (first, again, other)
        )
    assert first == again
    assert first != other


def test_remote_inputs_are_deterministic_per_seed(tmp_path):
    workload = workloads.WORKLOADS["learn-remote"]
    envs = []
    for i, seed in enumerate((3, 3, 4)):
        (tmp_path / str(i)).mkdir()
        envs.append(workload.setup(seed, NullTracer(), tmp_path / str(i)))
    for env in envs:
        workload.close(env)
        assert env.server.proc.returncode is not None
    assert envs[0].models == envs[1].models != envs[2].models
    assert envs[0].seeds == envs[1].seeds != envs[2].seeds


def test_failing_run_is_recorded_not_raised(monkeypatch):
    calls = []

    def flaky_learn(teacher, partitioner, config=None):
        calls.append(config.mode)
        if config.mode is LearnerMode.OMIT_ZERO:
            raise RuntimeError("injected")
        return learn(teacher, partitioner, config)

    monkeypatch.setattr(workloads, "learn", flaky_learn)
    chain = workloads.LearnChain()
    chain.n = 6
    batch = workloads.Batch()
    chain.batch(chain.setup(0, NullTracer(), None), NullTracer(), batch)
    assert calls == [LearnerMode.OMIT_ZERO, LearnerMode.QNT_STANDARD]
    assert (batch.attempted, batch.failed) == (3, 1)
    assert "RuntimeError: injected" in batch.errors[0]


def test_failed_check_makes_the_run_incorrect(tmp_path):
    class Broken:
        name = "broken"

        def setup(self, seed, tracer, workdir):
            return None

        def batch(self, env, tracer, b):
            with b.op("always wrong"):
                workloads.check(False, "wrong on purpose")
            with b.op("fine"):
                pass

        def close(self, env):
            pass

    result = run.measure(Broken(), seed=0, seconds=0.0, traced=False, workdir=str(tmp_path))
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert set(result["metrics"]) == {"setup_s", "wall_s", "verify_s", "peak_rss_mb"}


def test_idle_layers_and_proxy_counts_are_checked():
    quiet = dict.fromkeys(["mq", "eq", "teacher.mq_calls", "teacher.eq_calls", "lmbridge.token_calls"], 0)
    assert run.layer_problems("learn-chain", quiet) == []
    assert run.layer_problems("learn-chain", {**quiet, "lmbridge.token_calls": 3})
    assert run.layer_problems("learn-remote", {**quiet, "lmbridge.token_calls": 3}) == []
    assert run.layer_problems("learn-chain", {**quiet, "mq": 5, "teacher.mq_calls": 4})


def test_runner_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn-chain", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
