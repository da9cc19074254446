"""Lowest-cost cover: DP vs greedy semantics, cost bounds, accounting."""

import pytest

from repro.dbt import ruletrans
from repro.dbt.engine import DBTEngine
from repro.dbt.ruletrans import (
    COVER_MODES,
    MISS_APPLY_ERROR,
    MISS_COST_COVER,
    RuleApplicationError,
    translate_block_with_rules,
)
from repro.learning.store import RuleStore
from repro.minic import compile_source

from tests.dbt.test_ruletrans import ADD_RULE, CMP_RULE

SOURCE = """
int main(void) {
  int acc = 10;
  int bound = 3;
  int i = 0;
  while (i < bound) {
    acc = acc + i;
    acc -= 1;
    i += 1;
  }
  return acc;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, "arm", 2, "llvm")


@pytest.fixture(scope="module")
def store():
    return RuleStore.from_rules([CMP_RULE, ADD_RULE])


def _block_starts(program):
    return [
        start for start in sorted(set(program.labels.values()))
        if start < len(program.code)
    ]


class TestPlanBounds:
    def test_dp_never_costlier_than_greedy(self, program, store):
        """The greedy cover is in the DP's search space, so the planned
        DP cost is a lower bound on the greedy cover's modeled cost."""
        for start in _block_starts(program):
            result = translate_block_with_rules(
                program, start, store, cover="dp"
            )
            assert result.planned_cost <= \
                result.planned_cost_greedy + 1e-9

    def test_dp_coverage_not_below_greedy(self, program, store):
        """Rules win cost ties, so static coverage never regresses."""
        for start in _block_starts(program):
            dp = translate_block_with_rules(program, start, store,
                                            cover="dp")
            greedy = translate_block_with_rules(program, start, store,
                                                cover="greedy")
            assert sum(dp.rule_covered) >= sum(greedy.rule_covered)


class TestSemantics:
    def test_same_result_all_modes(self, program):
        store_rules = [CMP_RULE, ADD_RULE]
        baseline = DBTEngine(program, "qemu").run().return_value
        results = {}
        for cover in ("dp", "greedy"):
            engine = DBTEngine(
                program, "rules",
                RuleStore.from_rules(store_rules), cover=cover,
            )
            results[cover] = engine.run().return_value
        assert results["dp"] == baseline
        assert results["greedy"] == baseline

    def test_dynamic_coverage_not_below_greedy(self, program, store):
        coverage = {}
        for cover in ("dp", "greedy"):
            engine = DBTEngine(program, "rules",
                               RuleStore.from_rules(store.all_rules()),
                               cover=cover)
            engine.run()
            coverage[cover] = engine.last_run.dynamic_coverage
        assert coverage["dp"] >= coverage["greedy"] - 1e-9

    def test_cover_stable_across_runs(self, program, store):
        """Online cost refinement must not change the plan between
        runs — the online/offline coverage-parity contract."""
        engine = DBTEngine(program, "rules",
                           RuleStore.from_rules(store.all_rules()),
                           cover="dp")
        engine.run()
        first = engine.last_run.dynamic_coverage
        engine.run()
        assert engine.last_run.dynamic_coverage == \
            pytest.approx(first, abs=1e-9)


class TestCostCoverAccounting:
    def test_priced_out_rule_reports_cost_cover(self, program, store):
        """An absurd measured cost prices every rule out of the cover;
        those positions miss as ``cost_cover`` and are NOT learning
        gaps (the store already has a rule for them)."""
        gaps = []
        saw_cost_cover = False
        other_misses = 0
        for start in _block_starts(program):
            result = translate_block_with_rules(
                program, start, store, gap_sink=gaps.append,
                cover="dp", cost_hint=lambda rule: 1e9,
            )
            assert sum(result.rule_covered) == 0
            if result.miss_reasons.get(MISS_COST_COVER):
                saw_cost_cover = True
            other_misses += sum(
                count for reason, count in result.miss_reasons.items()
                if reason != MISS_COST_COVER
            )
        assert saw_cost_cover
        # gap_sink fired exactly once per non-cost-cover miss: being
        # priced out is not a learning gap (a rule already exists).
        assert len(gaps) == other_misses

    def test_semantics_survive_priced_out_rules(self, program, store):
        baseline = DBTEngine(program, "qemu").run().return_value
        engine = DBTEngine(program, "rules",
                           RuleStore.from_rules(store.all_rules()),
                           cover="dp")
        engine._rule_cost_hint = lambda rule: 1e9
        assert engine.run().return_value == baseline


def _fail_first_emit(monkeypatch):
    """Make the next rule instantiation fail its host constraints."""
    real = ruletrans.instantiate_host
    failed = []

    def flaky(rule, binding, assembler):
        if not failed:
            failed.append(rule)
            raise RuleApplicationError("injected")
        return real(rule, binding, assembler)

    monkeypatch.setattr(ruletrans, "instantiate_host", flaky)


class TestApplyError:
    @pytest.mark.parametrize("cover", COVER_MODES)
    def test_failed_emit_backs_off_one_instruction(
            self, program, store, cover, monkeypatch):
        """A hit whose host code fails to emit misses as
        ``apply_error`` and TCG translates that one instruction; the
        greedy cover then looks the next position up afresh."""
        tried = 0
        for start in _block_starts(program):
            clean = translate_block_with_rules(program, start, store,
                                               cover=cover)
            if not any(clean.rule_covered):
                continue
            first = clean.rule_covered.index(True)
            fresh = RuleStore.from_rules(store.all_rules())
            looked_up = []

            def spy(block, i, _match_at=fresh.match_at):
                looked_up.append(i)
                return _match_at(block, i)

            with monkeypatch.context() as patch:
                _fail_first_emit(patch)
                patch.setattr(fresh, "match_at", spy)
                result = translate_block_with_rules(program, start, fresh,
                                                    cover=cover)
            assert result.miss_reasons.get(MISS_APPLY_ERROR) == 1
            assert not result.rule_covered[first]
            if cover == "greedy":
                assert first + 1 in looked_up
                assert result.lookup_attempts == len(looked_up)
            tried += 1
        assert tried

    @pytest.mark.parametrize("cover", COVER_MODES)
    def test_failed_emit_keeps_semantics(self, program, store, cover,
                                         monkeypatch):
        baseline = DBTEngine(program, "qemu").run().return_value
        _fail_first_emit(monkeypatch)
        engine = DBTEngine(program, "rules",
                           RuleStore.from_rules(store.all_rules()),
                           cover=cover)
        assert engine.run().return_value == baseline
        assert engine.lifetime.rule_miss_reasons[MISS_APPLY_ERROR] == 1


class TestValidation:
    def test_unknown_cover_mode_rejected(self, program, store):
        from repro.dbt.engine import DBTError

        with pytest.raises(ValueError):
            translate_block_with_rules(program, 0, store, cover="bogus")
        with pytest.raises(DBTError):
            DBTEngine(program, "rules",
                      RuleStore.from_rules(store.all_rules()),
                      cover="bogus")

    def test_empty_store_falls_back_to_greedy_path(self, program):
        result = translate_block_with_rules(program, 0, RuleStore(),
                                            cover="dp")
        assert result.cover_mode == "greedy"
        assert not any(result.rule_covered)
