"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import errors


def _modules_with_all():
    """Every ``repro`` module that declares ``__all__``, by name."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


def test_all_errors_derive_from_repro_error():
    error_classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert len(error_classes) >= 15
    for cls in error_classes:
        assert issubclass(cls, errors.ReproError) or cls is errors.ReproError


def test_error_subhierarchies():
    assert issubclass(errors.UnknownDimensionError, errors.QoSSpecError)
    assert issubclass(errors.UnknownAttributeError, errors.QoSSpecError)
    assert issubclass(errors.DomainError, errors.QoSSpecError)
    assert issubclass(errors.CapacityExceededError, errors.ResourceError)
    assert issubclass(errors.UnknownReservationError, errors.ResourceError)
    assert issubclass(errors.MappingError, errors.ResourceError)
    assert issubclass(errors.NotConnectedError, errors.NetworkError)
    assert issubclass(errors.UnknownNodeError, errors.NetworkError)
    assert issubclass(errors.NoAdmissibleProposalError, errors.NegotiationError)
    assert issubclass(errors.InfeasibleTaskError, errors.NegotiationError)
    assert issubclass(errors.CoalitionStateError, errors.CoalitionError)
    assert issubclass(errors.SchedulingError, errors.SimulationError)


def test_structured_errors_carry_context():
    e = errors.UnknownDimensionError("Video")
    assert e.dimension == "Video" and "Video" in str(e)
    e2 = errors.UnknownAttributeError("fps")
    assert e2.attribute == "fps"
    e3 = errors.UnknownNodeError("n7")
    assert e3.node_id == "n7"


def test_catching_base_class_catches_all():
    from repro.qos.domain import DiscreteDomain
    from repro.qos.types import ValueType

    with pytest.raises(errors.ReproError):
        DiscreteDomain(ValueType.INTEGER, ())


@pytest.mark.parametrize("module_name", _modules_with_all())
def test_every_export_resolves(module_name):
    """Each name a module lists in ``__all__`` is bound in it, so a
    deleted class cannot linger as an export."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if getattr(module, name, None) is None]
    assert not missing, f"{module_name}.__all__ names unbound {missing}"


def test_version_string():
    assert repro.__version__.count(".") == 2

