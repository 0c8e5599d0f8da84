"""Every demo output at CLI defaults matches the committed trace ledger.

Where this environment is the ledger's (see ``trace_ledger.environment``),
the 24 outputs must be byte-identical to it.  Elsewhere float64 traces may
differ in the last bits for honest reasons, such as another BLAS kernel, so
the byte check skips and says why, and only each training run's ``step=0``
loss and KL are compared, within 1e-12 relative.
"""
import json

import pytest

import trace_ledger

LEDGER = json.loads(trace_ledger.LEDGER.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return trace_ledger.demo_outputs(tmp_path_factory.mktemp("trace_ledger"))


def test_ledger_names_every_output(outputs):
    assert sorted(outputs) == sorted(LEDGER["sha256"])
    assert len(outputs) == 24


def test_outputs_are_byte_identical_to_the_ledger(outputs):
    env = trace_ledger.environment()
    differs = sorted(key for key in env | LEDGER["environment"]
                     if env.get(key) != LEDGER["environment"].get(key))
    if differs:
        pytest.skip(f"bytes not checked: this environment differs from the "
                    f"ledger's in {differs}; only step=0 lines are compared")
    got = trace_ledger.digests(outputs)
    moved = sorted(name for name in LEDGER["sha256"]
                   if got.get(name) != LEDGER["sha256"][name])
    assert moved == []


def _loss_and_kl(line):
    fields = dict(field.split("=") for field in line.split())
    return float(fields["loss"]), float(fields["kl"])


def test_step0_lines_match_the_ledger(outputs):
    got = trace_ledger.step0_lines(outputs)
    assert sorted(got) == sorted(LEDGER["step0"])
    for name, line in LEDGER["step0"].items():
        for have, want in zip(_loss_and_kl(got[name]), _loss_and_kl(line)):
            assert abs(have - want) <= 1e-12 * abs(want), (name, got[name])
