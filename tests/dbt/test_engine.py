"""The DBT engine: all three backends vs. the direct ARM emulator."""

import pytest

from repro.dbt.direct import run_arm_program
from repro.dbt.engine import DBTEngine, DBTError, run_dbt
from repro.dbt.guard import GuardPolicy
from repro.learning import learn_rules
from repro.learning.store import RuleStore
from repro.minic import compile_source

SOURCE = """
int a[32];
int sum(int *p, int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + p[i] - 1;
    i += 1;
  }
  return s;
}
int main(void) {
  int i = 0;
  while (i < 32) {
    a[i] = i * 5 + (i & 3);
    i += 1;
  }
  int total = sum(a, 32) + sum(a, 16);
  if (total < 0) { total = 0 - total; }
  return total + total / 10;
}
"""


@pytest.fixture(scope="module")
def guest():
    return compile_source(SOURCE, "arm", 2, "llvm")


@pytest.fixture(scope="module")
def rules(guest):
    host = compile_source(SOURCE, "x86", 2, "llvm")
    return RuleStore.from_rules(learn_rules(guest, host).rules)


@pytest.fixture(scope="module")
def expected(guest):
    return run_arm_program(guest).return_value


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["qemu", "rules", "llvmjit"])
    def test_mode_matches_direct_emulation(self, guest, rules, expected,
                                           mode):
        store = rules if mode == "rules" else None
        result = run_dbt(guest, mode, store)
        assert result.return_value == expected

    def test_fast_and_slow_executors_agree(self, guest, rules, expected):
        """Compiled steps and the semantics oracle account every mode
        identically, the guard's trial and reference runs included."""
        cases = [("qemu", None), ("rules", None), ("llvmjit", None),
                 ("rules", GuardPolicy())]
        for mode, guard in cases:
            results = []
            for fast in (True, False):
                # A fresh store each: the guard may quarantine rules.
                store = RuleStore.from_rules(rules.all_rules()) \
                    if mode == "rules" else None
                engine = DBTEngine(guest, mode, store, fast=fast,
                                   guard=guard)
                results.append(engine.run())
            fast_run, slow_run = results
            case = f"{mode} guard={guard is not None}"
            assert fast_run.return_value == slow_run.return_value \
                == expected, case
            assert fast_run.stats.dynamic_host_instructions == \
                slow_run.stats.dynamic_host_instructions, case
            assert fast_run.stats.perf.exec_cycles == \
                slow_run.stats.perf.exec_cycles, case

    def test_gcc_style_guest(self, rules):
        gcc_guest = compile_source(SOURCE, "arm", 2, "gcc")
        expected = run_arm_program(gcc_guest).return_value
        result = run_dbt(gcc_guest, "rules", rules)
        assert result.return_value == expected


class TestStatistics:
    def test_rules_reduce_dynamic_instructions(self, guest, rules):
        baseline = run_dbt(guest, "qemu")
        enhanced = run_dbt(guest, "rules", rules)
        assert enhanced.stats.dynamic_host_instructions < \
            baseline.stats.dynamic_host_instructions

    def test_coverage_bounds(self, guest, rules):
        stats = run_dbt(guest, "rules", rules).stats
        assert 0.0 < stats.static_coverage <= 1.0
        assert 0.0 < stats.dynamic_coverage <= 1.0

    def test_qemu_mode_has_zero_coverage(self, guest):
        stats = run_dbt(guest, "qemu").stats
        assert stats.static_coverage == 0.0
        assert stats.dynamic_coverage == 0.0

    def test_hit_rule_lengths_recorded(self, guest, rules):
        stats = run_dbt(guest, "rules", rules).stats
        assert stats.hit_rule_lengths
        assert all(length >= 1 for length in stats.hit_rule_lengths)

    def test_blocks_translated_once(self, guest):
        engine = DBTEngine(guest, "qemu")
        result = engine.run()
        # Dispatches far exceed translations (the translation cache).
        assert result.stats.perf.dispatches > engine.stats.translated_blocks

    def test_translation_cost_accounted(self, guest, rules):
        jit = run_dbt(guest, "llvmjit")
        qemu = run_dbt(guest, "qemu")
        assert jit.stats.perf.translation_cycles > \
            qemu.stats.perf.translation_cycles


class TestErrors:
    def test_unknown_mode(self, guest):
        with pytest.raises(DBTError):
            DBTEngine(guest, "turbo")

    def test_x86_guest_rejected(self):
        host = compile_source("int main(void) { return 1; }", "x86")
        with pytest.raises(DBTError):
            DBTEngine(host, "qemu")

    def test_block_limit(self, guest):
        engine = DBTEngine(guest, "qemu")
        with pytest.raises(DBTError):
            engine.run(block_limit=3)
