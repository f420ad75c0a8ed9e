"""Tests for the plugin registries and eager option validation."""

import pytest

from repro.advisor import AdvisorOptions
from repro.api.registry import (
    CACHE_BUILDERS,
    CANDIDATE_POLICIES,
    COST_MODELS,
    ENGINES,
    SELECTORS,
    Registry,
)
from repro.inum.workload_builder import WorkloadBuilderOptions
from repro.util.errors import AdvisorError, ReproError


class TestRegistry:
    def test_builtin_names_are_listed(self):
        assert set(COST_MODELS.names()) == {"pinum", "inum", "optimizer"}
        assert set(SELECTORS.names()) == {"lazy", "ilp"}
        assert set(ENGINES.names()) == {"arena", "scalar"}
        assert set(CACHE_BUILDERS.names()) == {"pinum", "inum"}
        assert set(CANDIDATE_POLICIES.names()) == {"workload", "per_query"}

    def test_unknown_name_lists_registered_choices(self):
        with pytest.raises(
            AdvisorError, match=r"unknown selector 'random'.*'ilp', 'lazy'"
        ):
            SELECTORS.validate("random")

    def test_get_resolves_lazy_builtins(self):
        from repro.advisor.lazy_greedy import build_lazy_selector
        from repro.pinum.cache_builder import PinumCacheBuilder

        assert SELECTORS.get("lazy") is build_lazy_selector
        assert CACHE_BUILDERS.get("pinum") is PinumCacheBuilder

    def test_register_and_unregister(self):
        registry = Registry("demo")
        registry.register("thing", 42)
        assert registry.get("thing") == 42
        assert "thing" in registry
        registry.unregister("thing")
        assert "thing" not in registry

    def test_register_decorator_form(self):
        registry = Registry("demo")

        @registry.register("fn")
        def factory():
            return "built"

        assert registry.get("fn") is factory

    def test_duplicate_registration_rejected_without_replace(self):
        registry = Registry("demo")
        registry.register("name", 1)
        with pytest.raises(AdvisorError, match="already registered"):
            registry.register("name", 2)
        registry.register("name", 2, replace=True)
        assert registry.get("name") == 2

    def test_builtin_cannot_be_shadowed_silently(self):
        with pytest.raises(AdvisorError, match="already registered"):
            SELECTORS.register("lazy", object())


class TestEagerOptionValidation:
    """Unknown names fail at options-construction time, listing choices."""

    def test_unknown_cost_model(self):
        with pytest.raises(AdvisorError, match=r"unknown cost model 'magic'.*'pinum'"):
            AdvisorOptions(cost_model="magic")

    def test_unknown_selector(self):
        with pytest.raises(AdvisorError, match=r"unknown selector 'random'.*'lazy'"):
            AdvisorOptions(selector="random")

    def test_unknown_engine(self):
        with pytest.raises(AdvisorError, match=r"unknown evaluation engine 'gpu'.*'arena'"):
            AdvisorOptions(engine="gpu")

    def test_unknown_candidate_policy(self):
        with pytest.raises(AdvisorError, match=r"unknown candidate policy 'all'.*'per_query'"):
            AdvisorOptions(candidate_policy="all")

    def test_valid_options_construct(self):
        options = AdvisorOptions(
            cost_model="inum", selector="ilp", engine="scalar",
            candidate_policy="per_query",
        )
        assert options.cost_model == "inum"

    def test_workload_builder_unknown_builder_lists_choices(self):
        with pytest.raises(ReproError, match=r"unknown cache builder 'magic'.*'inum', 'pinum'"):
            WorkloadBuilderOptions(builder="magic")

    def test_registered_plugin_name_passes_validation(self):
        COST_MODELS.register("custom-model", lambda request: None)
        try:
            options = AdvisorOptions(cost_model="custom-model")
            assert options.cost_model == "custom-model"
        finally:
            COST_MODELS.unregister("custom-model")
        with pytest.raises(AdvisorError):
            AdvisorOptions(cost_model="custom-model")
