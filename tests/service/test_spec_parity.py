"""``JobSpec`` is the one list of run options.

``repro tune`` and ``repro submit`` build the same spec from the same flags,
tuner factories read the spec instead of a copy of it, and a removed option
(``backend``) is rejected on every path instead of being ignored.
"""

from dataclasses import fields

import pytest

from repro.bench.protocols import TunerContext
from repro.cli import _spec_options, build_parser
from repro.experiments import run_tuner
from repro.kernels import get_benchmark
from repro.service import JobRejected, JobSpec

#: Every flag that sets a JobSpec field, each away from its default.
FLAGS = [
    "--kernel", "lu", "--size", "large", "--tuner", "ytopt",
    "--max-evals", "8", "--seed", "3", "--jobs", "2", "--timeout", "1.5",
    "--pipeline", "--refit-every", "1",
    "--repeats", "3", "--probe-repeats", "1", "--promote-margin", "0.2",
    "--prune", "--prune-threshold", "1.5", "--warm-start-db", "warm.sqlite",
    "--transfer-db", "corpus.sqlite", "--transfer-bias", "0.25",
    "--label", "ytopt-transfer",
]


def _spec(command: str, flags=FLAGS) -> JobSpec:
    return JobSpec(**_spec_options(build_parser().parse_args([command, *flags])))


class TestOneSpec:
    def test_tune_and_submit_build_the_same_spec(self):
        tune, submit = _spec("tune"), _spec("submit")
        assert tune.to_dict() == submit.to_dict()
        defaults = JobSpec(kernel="lu", size="large").to_dict()
        changed = {k for k, v in tune.to_dict().items() if v != defaults[k]}
        # The command line reaches every field but the test-only fault hook.
        unset = {"kernel", "size", "tuner", "fault"}
        assert changed == {f.name for f in fields(JobSpec)} - unset

    def test_experiment_builds_from_the_same_fields(self):
        args = build_parser().parse_args(
            ["experiment", "lu-large", "--evals", "8", "--seed", "3",
             "--transfer-db", "corpus.sqlite"]
        )
        options = _spec_options(args)
        assert set(options) <= {f.name for f in fields(JobSpec)}
        assert (options["max_evals"], options["seed"]) == (8, 3)
        assert options["transfer_from"] == "corpus.sqlite"

    def test_tuner_context_holds_the_spec_not_a_copy(self):
        context = {f.name for f in fields(TunerContext)}
        assert "spec" in context
        assert not context & {f.name for f in fields(JobSpec)}


class TestBackendKnobGone:
    def test_run_tuner_rejects_backend(self):
        with pytest.raises(TypeError, match="backend"):
            run_tuner(get_benchmark("lu", "mini"), "ytopt", 4, backend="native")

    def test_wire_spec_rejects_backend(self):
        with pytest.raises(JobRejected, match=r"unknown job field\(s\): backend"):
            JobSpec.from_dict({"kernel": "lu", "size": "large", "backend": "native"})

    @pytest.mark.parametrize("command", ["tune", "submit"])
    def test_backend_flag_is_an_argparse_error(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "--kernel", "lu", "--size", "mini", "--backend", "native"]
            )
        assert exc.value.code == 2
