"""Tier-1 coverage for the differential conformance harness.

Fixed seeds everywhere: the harness must be deterministic to serve as a
regression gate, and a seed that ever fails gets pinned here as a named
case.
"""

import json

import numpy as np
import pytest

from repro.runtime import get_backend, list_backends
from repro.stencils.catalog import get_kernel
from repro.verify import (
    Case,
    generate_cases,
    max_ulp,
    mutation_check,
    run_case,
    run_verification,
    shrink,
)
from repro.verify.differential import LAYOUTS


@pytest.fixture(scope="module")
def backends():
    return {name: get_backend(name) for name in list_backends()}


class TestMaxUlp:
    def test_identical_is_zero(self):
        x = np.linspace(-3.0, 7.0, 50)
        assert max_ulp(x, x.copy()) == 0.0

    def test_one_ulp(self):
        a = np.array([1.0, 2.0, 4.0])
        b = np.nextafter(a, np.inf)
        assert max_ulp(a, b) == 1.0

    def test_shape_mismatch_is_infinite(self):
        assert max_ulp(np.zeros(3), np.zeros(4)) == float("inf")

    def test_empty_is_zero(self):
        assert max_ulp(np.empty((0, 4)), np.empty((0, 4))) == 0.0

    def test_cancellation_floor(self):
        # An O(1)-scale array with a near-zero element: rounding-level
        # absolute noise on that element must not register as astronomic
        # ULP drift (it is ~0.45 ULP at the array's scale, but ~450 ULP at
        # the element's own scale, which is what the naive metric reports).
        a = np.array([1.0, 1e-13])
        b = np.array([1.0, 1e-13 + 1e-16])
        assert max_ulp(a, b) < 8.0
        naive = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert float(naive.max()) > 100.0


class TestGenerateCases:
    def test_deterministic(self):
        a = generate_cases(seed=42, n=12)
        b = generate_cases(seed=42, n=12)
        assert [c.to_dict() for c in a] == [c.to_dict() for c in b]

    def test_seed_changes_cases(self):
        a = generate_cases(seed=1, n=12)
        b = generate_cases(seed=2, n=12)
        assert [c.to_dict() for c in a] != [c.to_dict() for c in b]

    def test_cases_are_legal(self):
        for case in generate_cases(seed=7, n=40, quick=True):
            kernel = case.resolve_kernel()
            assert kernel.ndim == len(case.shape)
            assert case.layout in LAYOUTS
            if case.layout.startswith("batch"):
                assert case.batch >= 1
            else:
                assert case.batch is None
            if case.boundary == "periodic":
                halo = case.fusion_depth() * kernel.radius
                assert all(s >= halo for s in case.shape)

    def test_covers_the_space(self):
        cases = generate_cases(seed=0, n=80, quick=True)
        assert {len(c.shape) for c in cases} == {1, 2, 3}
        assert {c.boundary for c in cases} == {"constant", "periodic", "reflect"}
        assert {c.layout for c in cases} >= {"array", "grid", "batch-array"}
        kinds = {c.kernel["kind"] for c in cases}
        assert "catalog" in kinds and kinds & {"star", "box"}
        assert any(c.fusion not in (1,) for c in cases)
        assert any(c.steps == 0 for c in cases)

    def test_roundtrip_through_dict(self):
        for case in generate_cases(seed=3, n=10):
            again = Case.from_dict(json.loads(json.dumps(case.to_dict())))
            assert again == case


class TestRunCase:
    def test_fixed_seeds_pass_on_all_backends(self, backends):
        for case in generate_cases(seed=0, n=10, quick=True):
            result = run_case(case, backends)
            assert result.ok, (case.describe(), result.failures)

    def test_catalog_case_every_layout(self, backends):
        for layout in LAYOUTS:
            case = Case(
                seed=5,
                kernel={"kind": "catalog", "name": "heat-2d"},
                shape=(12, 13),
                steps=2,
                layout=layout,
                batch=3 if layout.startswith("batch") else None,
            )
            result = run_case(case, backends)
            assert result.ok, (layout, result.failures)

    def test_broken_backend_is_reported(self, backends):
        from repro.runtime import Backend

        class Liar(Backend):
            name = "liar"

            def apply_pass(self, pp, padded):
                out = backends["serial"].apply_pass(pp, padded)
                out[0] += 1e-3
                return out

        case = Case(
            seed=1, kernel={"kind": "catalog", "name": "heat-2d"}, shape=(10, 10)
        )
        result = run_case(case, {"serial": backends["serial"], "liar": Liar()})
        assert not result.ok
        assert any("liar" in f for f in result.failures)

    def test_raising_backend_is_a_failure_not_a_crash(self, backends):
        from repro.runtime import Backend

        class Exploder(Backend):
            name = "exploder"

            def apply_pass(self, pp, padded):
                raise RuntimeError("boom")

        case = Case(
            seed=1, kernel={"kind": "catalog", "name": "heat-1d"}, shape=(32,)
        )
        result = run_case(case, {"exploder": Exploder()})
        assert not result.ok
        assert any("RuntimeError" in f for f in result.failures)


class TestStrategies:
    def test_broken_backend_caught_when_the_crossover_picks_direct(
        self, backends, monkeypatch
    ):
        """verify pins each strategy itself: a ``direct`` pick by the rule
        must not hide a broken GEMM backend."""
        from repro.runtime import Backend
        from repro.runtime import plan as plan_mod

        monkeypatch.setattr(plan_mod, "choose_strategy", lambda kernel, shape: "direct")

        class Liar(Backend):
            name = "liar"

            def apply_pass(self, pp, padded):
                out = backends["serial"].apply_pass(pp, padded)
                out[0] += 1e-3
                return out

        case = Case(seed=1, kernel={"kind": "catalog", "name": "box-2d9p"}, shape=(9, 11))
        result = run_case(case, {"serial": backends["serial"], "liar": Liar()})
        assert any(f.startswith("[gemm] backend 'liar'") for f in result.failures)
        assert not any(f.startswith("[direct]") for f in result.failures)

    def test_report_records_drift_per_strategy(self):
        report = run_verification(
            seed=0, cases=4, quick=True, backends=["serial", "reference"],
            mutation=False,
        )
        assert report.ok
        assert set(report.to_dict()["ulp_max_by_strategy"]) == {"gemm", "direct"}
        # direct passes are the mirror oracle's own arithmetic
        assert report.ulp_max_by_strategy["direct"] == 0.0
        assert report.ulp_max == report.ulp_max_by_strategy["gemm"]


class TestShrink:
    def test_shrinks_to_predicate_minimum(self):
        case = Case(
            seed=9,
            kernel={"kind": "catalog", "name": "heat-2d"},
            shape=(40, 40),
            boundary="reflect",
            fusion=2,
            steps=4,
            layout="batch-grid",
            batch=4,
        )
        # Failure depends only on the kernel: everything else must shrink.
        minimal = shrink(case, lambda c: c.kernel["name"] == "heat-2d")
        assert minimal.steps <= 1
        assert minimal.fusion == 1
        assert minimal.boundary == "constant"
        assert minimal.layout == "array"
        assert minimal.batch is None
        assert all(s <= 2 for s in minimal.shape)

    def test_result_still_satisfies_predicate(self):
        case = Case(
            seed=9,
            kernel={"kind": "catalog", "name": "heat-2d"},
            shape=(30, 30),
            steps=3,
        )
        predicate = lambda c: c.shape[0] >= 7  # noqa: E731
        minimal = shrink(case, predicate)
        assert predicate(minimal)
        assert minimal.shape[0] == 7

    def test_crashing_predicate_counts_as_failing(self):
        case = Case(
            seed=1, kernel={"kind": "catalog", "name": "heat-1d"}, shape=(64,),
            steps=4,
        )

        def predicate(c):
            raise RuntimeError("repro crashes too")

        minimal = shrink(case, predicate)
        assert minimal.steps <= 1


class TestMutationCheck:
    def test_planted_lut_off_by_one_is_caught(self):
        assert mutation_check() is True

    def test_other_kernels_too(self):
        assert mutation_check(kernel_name="box-2d9p", shape=(17, 20)) is True


class TestRunVerification:
    def test_quick_sweep_is_green(self):
        report = run_verification(seed=0, cases=6, quick=True)
        assert report.ok
        assert report.mutation_caught is True
        assert report.ulp_max <= 64.0
        assert set(report.backends) >= {"serial", "reference", "compiled", "tiled"}

    def test_report_roundtrips_to_json(self, tmp_path):
        report = run_verification(
            seed=1, cases=4, quick=True, backends=["serial", "reference"],
            mutation=False,
        )
        path = report.write(str(tmp_path / "report.json"))
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["ok"] is True
        assert loaded["cases"] == 4
        assert loaded["backends"] == ["reference", "serial"]

    def test_telemetry_counters_advance(self):
        from repro import telemetry

        before = telemetry.counter("verify.cases").value
        run_verification(
            seed=2, cases=3, quick=True, backends=["serial"], mutation=False
        )
        assert telemetry.counter("verify.cases").value == before + 3

    def test_failures_carry_minimal_repros(self, monkeypatch):
        # Sabotage the serial engine path via a poisoned plan cache entry?
        # Simpler: compare serial against a reference whose fill differs by
        # patching the oracle is overkill — instead inject a broken backend
        # through the registry.
        from repro.runtime import register_backend
        from repro.runtime.backends import SerialBackend

        class OffByOne(SerialBackend):
            name = "off-by-one"

            def apply_pass(self, pp, padded):
                out = super().apply_pass(pp, padded)
                out.flat[0] += 1.0
                return out

        register_backend("off-by-one", OffByOne)
        try:
            report = run_verification(
                seed=0,
                cases=4,
                quick=True,
                backends=["reference", "off-by-one"],
                mutation=False,
            )
            assert not report.ok
            assert report.failures
            failure = report.failures[0]
            assert "minimal" in failure and "case" in failure and failure["errors"]
            # The minimal repro must still reproduce when replayed.
            minimal = Case.from_dict(failure["minimal"])
            resolved = {b: get_backend(b) for b in ("reference", "off-by-one")}
            assert not run_case(minimal, resolved).ok
        finally:
            # Remove the saboteur so later tests see a clean registry.
            from repro.runtime.backends import _factories, _instances, _registry_lock

            with _registry_lock:
                _factories.pop("off-by-one", None)
                _instances.pop("off-by-one", None)


class TestEngineInvariances:
    """The bit-identity properties the harness flushed out and pinned.

    These are regression tests for two real bugs: einsum's size-dependent
    contraction path made batched 2-D bits depend on the batch extent, and
    folding the shift axis into GEMM rows made them depend on tile height.
    """

    def test_batch_split_invariance(self):
        from repro.core.engine2d import convstencil_valid_2d_batched
        from repro.utils.rng import default_rng

        kernel = get_kernel("star-2d13p").fuse(3)
        stack = default_rng(1872593067).random(
            (4, 23 + kernel.edge - 1, 23 + kernel.edge - 1)
        )
        full = convstencil_valid_2d_batched(stack, kernel)
        split = np.concatenate(
            [
                convstencil_valid_2d_batched(stack[:2], kernel),
                convstencil_valid_2d_batched(stack[2:], kernel),
            ]
        )
        np.testing.assert_array_equal(full, split)

    def test_batched_equals_single_grid(self):
        from repro.core.engine2d import (
            convstencil_valid_2d,
            convstencil_valid_2d_batched,
        )
        from repro.utils.rng import default_rng

        kernel = get_kernel("box-2d9p")
        stack = default_rng(3).random((5, 41, 38))
        batched = convstencil_valid_2d_batched(stack, kernel)
        singles = np.stack([convstencil_valid_2d(g, kernel) for g in stack])
        np.testing.assert_array_equal(batched, singles)

    def test_row_slab_invariance(self):
        # Minimal repro shrunk from seed 6: box-2d25p fused x2 on (5, 9).
        from repro.core.engine2d import convstencil_valid_2d
        from repro.utils.rng import default_rng

        kernel = get_kernel("box-2d25p").fuse(2)
        k = kernel.edge
        padded = default_rng(708591124).random((5 + k - 1, 9 + k - 1))
        whole = convstencil_valid_2d(padded, kernel)
        slab = convstencil_valid_2d(padded[2 : 5 + k - 1], kernel)
        np.testing.assert_array_equal(whole[2:], slab)

    def test_chunk_invariance(self):
        from repro.core.engine2d import convstencil_valid_2d
        from repro.utils.rng import default_rng

        kernel = get_kernel("heat-2d")
        padded = default_rng(11).random((300, 64))
        np.testing.assert_array_equal(
            convstencil_valid_2d(padded, kernel),
            convstencil_valid_2d(padded, kernel, chunk=7),
        )
