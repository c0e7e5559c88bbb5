import ast
import math
import pathlib
from dataclasses import replace

import pytest

import phonocool
from phonocool import (
    ParameterError,
    SystemParams,
    ThreeWaveParams,
    ThreeWaveState,
)


FIG2 = dict(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01, gamma2=0.01,
            g1=0.3, g2=0.5, nbar1=100.0, nbar2=100.0)


def test_validate_accepts_figure_parameters():
    p = SystemParams(**FIG2)
    assert replace(p) == p


def test_validate_rejects_zero_kappa2():
    with pytest.raises(ParameterError, match="kappa2 must be positive"):
        SystemParams(kappa2=0.0)


def test_validate_rejects_negative_gamma1():
    with pytest.raises(ParameterError, match="gamma1 must be nonnegative"):
        SystemParams(kappa2=1.0, gamma1=-0.01)


def test_validate_rejects_negative_occupancy():
    with pytest.raises(ParameterError, match="nbar2 must be nonnegative"):
        SystemParams(kappa2=1.0, nbar1=1.0, nbar2=-1.0)


def test_validate_rejects_non_finite():
    with pytest.raises(ParameterError, match="delta must be finite"):
        SystemParams(kappa2=1.0, delta=math.inf)
    with pytest.raises(ParameterError, match="g1 must be finite"):
        SystemParams(kappa2=1.0, g1=complex("nan"))


def test_validate_is_idempotent():
    # rebuilding a checked set runs the rule again and changes nothing
    p = SystemParams(**FIG2)
    assert replace(replace(p)) == replace(p) == p


# each invalid field with the message its type raises for it when built
SYSTEM_INVALID = [
    ("kappa2", 0.0, "kappa2 must be positive"),
    ("kappa2", -1.0, "kappa2 must be positive"),
    *[(name, math.inf, f"{name} must be finite, got inf")
      for name in ("kappa2", "delta", "omega", "gamma1", "gamma2", "nbar1",
                   "nbar2")],
    ("omega", -math.inf, "omega must be finite, got -inf"),
    ("g1", complex("nan"), "g1 must be finite, got (nan+0j)"),
    ("g2", complex(0.3, math.inf), "g2 must be finite, got (0.3+infj)"),
    *[(name, -0.5, f"{name} must be nonnegative")
      for name in ("gamma1", "gamma2", "nbar1", "nbar2")],
]


@pytest.mark.parametrize("name, value, message", SYSTEM_INVALID)
def test_system_params_reject_invalid_fields_when_built(name, value, message):
    with pytest.raises(ParameterError) as built:
        SystemParams(**{**FIG2, name: value})
    assert str(built.value) == message
    with pytest.raises(ParameterError) as replaced:
        replace(SystemParams(**FIG2), **{name: value})
    assert str(replaced.value) == message


def test_nbar2_defaults_to_nbar1():
    p = SystemParams(kappa2=1.0, nbar1=42.0)
    assert p.nbar2 == 42.0
    q = SystemParams(kappa2=1.0, nbar1=42.0, nbar2=7.0)
    assert q.nbar2 == 7.0


def test_couplings_coerced_to_complex():
    p = SystemParams(kappa2=1.0, g1=0.3, g2=0.5)
    assert isinstance(p.g1, complex) and isinstance(p.g2, complex)


def test_three_wave_params_allow_lossless_case():
    p = ThreeWaveParams(kappa1=0.0, kappa2=0.0, Gamma=0.0, beta=1.0)
    assert replace(p) == p


def test_three_wave_params_reject_negative_rates():
    with pytest.raises(ParameterError, match="kappa1"):
        ThreeWaveParams(kappa1=-1.0, kappa2=1.0, Gamma=0.0)
    with pytest.raises(ParameterError, match="Gamma"):
        ThreeWaveParams(kappa1=1.0, kappa2=1.0, Gamma=-0.1)


LOSSY = dict(kappa1=0.3, kappa2=1.0, Gamma=0.1, Delta1=0.4, Delta2=-0.25,
             delta=0.37, beta=0.6 + 0.45j, pump=0.5 - 0.3j)
THREE_WAVE_INVALID = [
    *[(name, -0.1, f"{name} must be nonnegative")
      for name in ("kappa1", "kappa2", "Gamma")],
    *[(name, math.nan, f"{name} must be finite, got nan")
      for name in ("kappa1", "kappa2", "Gamma", "Delta1", "Delta2", "delta")],
    ("beta", complex("inf"), "beta must be finite, got (inf+0j)"),
    ("pump", complex(0.5, math.nan), "pump must be finite, got (0.5+nanj)"),
]


@pytest.mark.parametrize("name, value, message", THREE_WAVE_INVALID)
def test_three_wave_params_reject_invalid_fields_when_built(name, value, message):
    with pytest.raises(ParameterError) as built:
        ThreeWaveParams(**{**LOSSY, name: value})
    assert str(built.value) == message
    with pytest.raises(ParameterError) as replaced:
        replace(ThreeWaveParams(**LOSSY), **{name: value})
    assert str(replaced.value) == message


def test_only_core_calls_the_parameter_rules():
    # the parameter types run their one rule when built; no other module
    # runs it again
    calls = []
    for path in pathlib.Path(phonocool.__file__).parent.glob("*.py"):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call)
                    and getattr(func, "attr", getattr(func, "id", None))
                    == "_build"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_three_wave_params_coerce_every_field_as_system_params_do():
    with pytest.raises(TypeError):
        SystemParams(delta=0.4 + 0.3j)
    with pytest.raises(TypeError):
        ThreeWaveParams(kappa1=1, kappa2=1, Gamma=0.1, Delta1=0.4 + 0.3j,
                        beta=0.5)
    p = ThreeWaveParams(kappa1=1, kappa2=1, Gamma=0.1, delta="0.5", beta=0.5)
    assert type(p.delta) is float and p.delta == 0.5
    assert [type(getattr(p, f)) for f in ("kappa1", "beta", "pump")] == [
        float, complex, complex]
    s = ThreeWaveState(a1=1, a2=0.0, u="1-2j")
    assert (s.a1, s.a2, s.u) == (1 + 0j, 0j, 1 - 2j)
    assert {type(v) for v in (s.a1, s.a2, s.u)} == {complex}


def test_three_wave_state_requires_finite_components():
    with pytest.raises(ParameterError):
        ThreeWaveState(a1=complex("inf"), a2=0.0, u=0.0)


def test_readme_library_example_runs(capsys):
    # the fenced block under "## Library example", run as a user would
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert round(float(capsys.readouterr().out), 3) == 0.288
