"""Drift-injection probes for the shipped contract declarations.

The lint fixtures prove the checker catches drift in a synthetic mini-tree;
these probes prove the *shipped declarations* would catch drift in the real
files: each test copies the relevant sources into a scratch tree, injects a
one-line drift into the mirror side, and asserts the declaration (pulled
from the live registries by name, so a renamed or deleted declaration fails
here too) reports exactly one finding of the right rule.
"""

import pathlib
import shutil

import pytest

from repro.lint.contracts import ContractRegistry, check_contracts
from repro.mesoscale.contracts import CONTRACTS as MESO_CONTRACTS
from repro.sim.contracts import CONTRACTS as SIM_CONTRACTS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_VECTOR = "src/repro/mesoscale/vector.py"
_FLOW = "src/repro/mesoscale/flow.py"
_CLIENT = "src/repro/kvstore/client.py"
_C3 = "src/repro/selection/c3.py"


def _mirror_pair(name):
    for pair in MESO_CONTRACTS.mirror_pairs:
        if pair.name == name:
            return pair
    raise AssertionError(f"declaration {name!r} is gone from the registries")


def _draw_pair(name):
    for pair in MESO_CONTRACTS.draw_sequences:
        if pair.name == name:
            return pair
    raise AssertionError(f"declaration {name!r} is gone from the registries")


def _scratch_tree(tmp_path, relpaths):
    for rel in relpaths:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, target)


def _inject(tmp_path, rel, old, new):
    target = tmp_path / rel
    source = target.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"probe anchor {old!r} not unique in {rel}"
    target.write_text(source.replace(old, new), encoding="utf-8")


@pytest.mark.parametrize(
    "name,files,rel,old,new,rule",
    [
        (
            # Counter drift in the flow tier's client endpoint.
            "client.fire_redundant",
            (_CLIENT, _FLOW),
            _FLOW,
            "self.redundant_sent += 1",
            "self.redundant_sent += 2",
            "CON001",
        ),
    ],
)
def test_injected_mirror_drift_is_caught(tmp_path, name, files, rel, old, new, rule):
    pair = _mirror_pair(name)
    registry = ContractRegistry(mirror_pairs=[pair])
    _scratch_tree(tmp_path, files)
    assert check_contracts(str(tmp_path), registry=registry) == []
    _inject(tmp_path, rel, old, new)
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == [rule], findings
    assert findings[0].path == rel


def test_injected_c3_score_drift_is_caught(tmp_path):
    """Reordering a term of the inlined cubic score in ``select`` keeps the
    value in exact arithmetic but not in floats; the anchor must flag it."""
    (anchor,) = [a for a in SIM_CONTRACTS.expr_anchors if a.name == "c3-cubic-score"]
    registry = ContractRegistry(expr_anchors=[anchor])
    _scratch_tree(tmp_path, (_C3,))
    assert check_contracts(str(tmp_path), registry=registry) == []
    _inject(
        tmp_path,
        _C3,
        "+ (q_hat**exponent) * expected_service",
        "+ expected_service * (q_hat**exponent)",
    )
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == ["CON001"], findings
    assert findings[0].path == _C3


def test_injected_draw_swap_is_caught(tmp_path):
    """Substituting the inter-arrival exponential with a uniform draw
    changes the arrival stream's draw sequence; the CON002 declaration
    must flag the divergence."""
    pair = _draw_pair("vector arrival-stream draw order")
    registry = ContractRegistry(draw_sequences=[pair])
    _scratch_tree(tmp_path, (_FLOW, _VECTOR))
    assert check_contracts(str(tmp_path), registry=registry) == []
    _inject(
        tmp_path,
        _VECTOR,
        "t = t + rng.exponential(rate_inv)",
        "t = t + rng.random() * rate_inv",
    )
    findings = check_contracts(str(tmp_path), registry=registry)
    assert [f.rule for f in findings] == ["CON002"], findings
    assert findings[0].path == _VECTOR
