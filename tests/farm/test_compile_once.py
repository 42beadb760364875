"""A policy-less job compiles its source once per packaging run."""

import pytest

from repro.core import compiler_driver
from repro.farm import JobSpec, SimParams, execute_job
from repro.policy import policy_from_dict

HELLO = 'int main() { print_int(41); print_char(10); return 0; }\n'

OBFUSCATE = {"name": "opaque", "obfuscate": [{"density": 0.5}]}


@pytest.fixture
def compiles(monkeypatch):
    """Count front-end compiles made through the ERIC compiler."""
    calls = []
    real = compiler_driver.compile_source

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(compiler_driver, "compile_source", counting)
    return calls


def test_policy_less_job_compiles_once_per_repeat(compiles):
    record = execute_job(JobSpec(source=HELLO, name="hello", simulate=True,
                                 analyze=True, repeats=2))
    assert len(compiles) == 2
    # the plain run, the plain analysis and the baseline all come from
    # the packaging run's own compile
    assert record.baseline_s == record.compile_s
    assert record.package_total_s > record.baseline_s
    assert record.plain_run["console"] == "41\n"
    assert record.analysis["plain"]["looks_like_code"] is True


def test_policy_job_still_compiles_its_unpolicied_baseline(compiles):
    policy = policy_from_dict(OBFUSCATE)
    record = execute_job(JobSpec(source=HELLO, name="hello", simulate=True,
                                 params=SimParams(policy=policy)))
    assert len(compiles) == 2
    # the plain baseline is the unobfuscated program: it retires fewer
    # instructions than the ERIC run of the obfuscated one
    assert record.plain_run["counters"]["instret"] \
        < record.eric_run["counters"]["instret"]
