"""Public ``chunk_plan`` API."""

from repro.core import chunk_plan
from repro.core.chunks import chunk_plan as chunk_plan_direct


class TestPublicApi:
    def test_exported_from_repro_core(self):
        assert chunk_plan is chunk_plan_direct

    def test_multiple_of_four(self):
        assert chunk_plan(8) == [(0, 0), (4, 0)]

    def test_overlapped_final_chunk(self):
        # 49 rows: 12 aligned chunks then one overlapped at 45 with the
        # first 3 rows (already covered by the chunk at 44) zero-masked
        plan = chunk_plan(49)
        assert plan[-1] == (45, 3)
        assert [s for s, _ in plan[:-1]] == list(range(0, 48, 4))
        assert all(z == 0 for _, z in plan[:-1])

    def test_short_input_single_zero_padded_chunk(self):
        assert chunk_plan(3) == [(0, 0)]
        assert chunk_plan(1) == [(0, 0)]

    def test_coverage_is_exact(self):
        for rows in range(1, 70):
            plan = chunk_plan(rows)
            covered = set()
            for start, zero_prefix in plan:
                covered |= set(range(start + zero_prefix, min(start + 4, rows)))
                # zero-masked rows must be covered by an earlier chunk
                for r in range(start, start + zero_prefix):
                    assert r in covered
            assert covered == set(range(min(rows, 4 * len(plan))) ) or covered == set(range(rows))
