"""The package's public names."""

import pytest

import esoclcp


def test_every_exported_name_resolves_once():
    names = esoclcp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(esoclcp, name)]
    assert missing == []


THEORY_NAMES = [
    "IndexSets",
    "JacobianBlocks",
    "MicpResidual",
    "RegularityKind",
    "RegularityVerdict",
    "f_comp",
    "f_eq",
    "fb_regularity_check",
    "fd_jacobian",
    "grad_merit",
    "icp_form",
    "index_sets",
    "jacobian_blocks",
    "merit",
    "micp_residual",
    "micp_residual_shifted",
    "schur_complement",
    "stationarity_check",
]


def test_theory_names_are_exported_lazily():
    import esoclcp.theory as theory

    listed = dir(esoclcp)
    for name in THEORY_NAMES:
        assert name in esoclcp.__all__
        assert getattr(esoclcp, name) is getattr(theory, name), name
        assert name in listed, name


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        esoclcp.no_such_name
    assert not hasattr(esoclcp, "no_such_name")
