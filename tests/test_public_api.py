"""Public-API surface: everything advertised must exist and be documented."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.machines",
    "repro.simulator",
    "repro.powermon",
    "repro.microbench",
    "repro.fmm",
    "repro.cachesim",
    "repro.analysis",
    "repro.viz",
    "repro.experiments",
]


class TestAllExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_all_entry_resolves(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{package}.__all__ lists missing {name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_top_level_exports_documented(self):
        """Every public class/function reachable from ``repro`` carries a
        docstring — the (e) deliverable's 'doc comments on every public
        item' check, enforced."""
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.ismodule(obj) or isinstance(obj, str):
                continue
            if inspect.isclass(obj) or callable(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        """Public methods of the core model classes are all documented."""
        from repro import (
            CappedModel,
            EnergyModel,
            MachineModel,
            PowerModel,
            TimeModel,
            TradeoffAnalyzer,
        )

        undocumented = []
        for cls in (MachineModel, TimeModel, EnergyModel, PowerModel,
                    CappedModel, TradeoffAnalyzer):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                func = getattr(member, "fget", member)  # unwrap properties
                if callable(func) and not (func.__doc__ and func.__doc__.strip()):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, f"undocumented methods: {undocumented}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2
