"""Rule-enhanced block translation (paper Sections 4-5).

For each guest block the translator selects a *cover*: which guest
instructions are translated by learned rules (instantiating the rule's
precompiled host emitter, bypassing TCG) and which go through the
normal TCG path.  One emit loop (``_emit_cover``) does everything
after the cover decides — rule instantiation, hit book-keeping, miss
accounting and gap capture, TCG fallback, block close — and asks a
cover policy's *picker* ``pick(block, i) -> (match, miss reason)`` at
each position it reaches.  Two pickers:

* ``"greedy"`` — the paper's Section 4 scheme: at every position take
  the longest matching rule, back off to TCG for one instruction on a
  miss.  Kept as the ablation baseline and the fallback.
* ``"dp"`` (default) — lowest-cost cover: enumerate every applicable
  rule match at every position (one indexed store walk each), then run
  a dynamic program over positions minimizing modeled execution cycles
  — per-rule costs seeded from the emitter's template cycles and
  refined online by the engine's profitability attribution, TCG costs
  from the memoized per-window counterfactual.  The greedy cover is in
  the DP's search space, so the planned cost is never worse.  Its
  picker answers from the finished plan.

Register allocation cooperates through the shared
:class:`~repro.dbt.codegen.BlockAssembler` (guest registers cached in
host registers, liveness write-back), and a lightweight
translation-time analysis checks that guest condition codes the rule
does not materialize are dead before applying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.guest_arm import isa as arm_isa
from repro.isa.instruction import Instruction
from repro.isa.operands import Label
from repro.learning.rule import Binding, Rule
from repro.learning.store import RuleMatch, RuleStore
from repro.minic.compile import CompiledProgram
from repro.obs.profiler import phase
from repro.obs.trace import get_tracer
from repro.dbt import codegen
from repro.dbt.codegen import BlockAssembler, tb_label
from repro.dbt.emitter import RuleApplicationError, get_emitter
from repro.dbt.frontend import discover_block, translate_instruction
from repro.dbt.perf import instruction_cycles
from repro.dbt.tcg import TcgBlock

__all__ = [
    "RuleApplicationError", "BlockTranslation", "HitProfile",
    "translate_block_with_rules", "instantiate_host", "flags_dead_after",
    "COVER_MODES", "MISS_REASONS", "MAX_GAP_LENGTH",
]

#: Cover policies (``translate_block_with_rules(cover=...)``).
COVER_MODES = ("dp", "greedy")

#: Why a rule lookup failed to cover a guest position (Table 1's
#: translate-time counterpart; ranked by the obs report CLI).
MISS_NO_MATCH = "no_match"       # store had no matching rule
MISS_FLAGS_LIVE = "flags_live"   # condition-code analysis rejected it
MISS_BINDING = "binding"         # binding touches reserved registers
MISS_APPLY_ERROR = "apply_error"  # host-ISA constraint failed at emit
MISS_COST_COVER = "cost_cover"   # a rule matched, but the DP cover
                                 # priced TCG cheaper for this span

MISS_REASONS = (
    MISS_NO_MATCH, MISS_FLAGS_LIVE, MISS_BINDING, MISS_APPLY_ERROR,
    MISS_COST_COVER,
)

#: Longest guest suffix a translation-gap report captures per miss;
#: matches the longest rules the learner produces, so a gap window is
#: exactly the context an online learner needs to close it.
MAX_GAP_LENGTH = 8


@dataclass(frozen=True)
class HitProfile:
    """The profitability evidence of one rule application.

    Captured at translation time: what the rule actually emitted, and
    what TCG *would have* emitted for the same guest instructions (the
    counterfactual).  The engine combines these with per-block
    execution counts to attribute cycles saved (or wasted) per rule —
    the "did this rule pay for its :data:`~repro.dbt.perf.RULE_LOOKUP_COST`"
    question the evaluation turns on.
    """

    rule: Rule
    length: int                #: guest instructions the rule covered
    rule_host_len: int         #: host template length (emit-cost basis)
    host_cycles: float         #: exec cycles/visit of the rule's host code
    #: Exec cycles/visit of the template *body* alone — excludes the
    #: context-dependent surroundings ``host_cycles`` keeps (first-touch
    #: guest-register loads, block-ending write-back and branches).
    #: This is what refines the DP cover's per-rule cost online: it is
    #: a property of the rule, not of where the hit happened, so every
    #: engine converges to the same plan regardless of history.
    body_cycles: float
    tcg_ops: int               #: TCG micro-ops the rule avoided
    tcg_host_len: int          #: host instrs TCG would have emitted
    tcg_host_cycles: float     #: exec cycles/visit of that TCG host code


@dataclass
class BlockTranslation:
    """Result of translating one guest block with rules."""

    host_instrs: list[Instruction]
    guest_instrs: list[Instruction]
    rule_covered: list[bool]
    hit_rules: list[tuple[Rule, int]]
    tcg_op_count: int
    lookup_attempts: int
    miss_reasons: dict[str, int] = field(default_factory=dict)
    hit_profiles: list[HitProfile] = field(default_factory=list)
    cover_mode: str = "greedy"
    #: Modeled exec cycles of the chosen cover plan (DP objective).
    planned_cost: float = 0.0
    #: Same model priced over the greedy cover (DP's upper bound).
    planned_cost_greedy: float = 0.0


def flags_dead_after(rule: Rule, block: list[Instruction],
                     next_index: int) -> bool:
    """Translation-time condition-code analysis (Section 5).

    The rule's host code leaves the guest's env flag slots untouched, so
    every guest flag the rule's guest sequence writes must be dead: not
    read by any following instruction in the block before being written
    again.  Flags are assumed dead across block boundaries (compilers
    set flags immediately before using them).
    """
    pending = set(rule.guest_flags_written)
    if not pending:
        return True
    if rule.has_branch:
        # The rule ends the block; its own branch is the only consumer.
        return True
    for instr in block[next_index:]:
        used = set(arm_isa.used_flags(instr))
        if used & pending:
            return False
        pending -= set(arm_isa.defined_flags(instr))
        if not pending:
            return True
    return True


def instantiate_host(
    rule: Rule,
    binding: Binding,
    assembler: BlockAssembler,
) -> tuple[list[Instruction], str | None]:
    """Materialize the rule's host template into the assembler's vregs.

    Returns (non-branch host instructions appended, taken-branch label
    or None).  Branch instructions are returned to the caller (they
    must go after the block's write-back).

    The per-hit work is one precompiled
    :class:`~repro.dbt.emitter.BoundEmitter` call: operand dispatch,
    host-constraint checks and the host-ISA import all happened once at
    install time.
    """
    return get_emitter(rule)(binding, assembler)


#: Attribute on the program holding { (window signature, ends_block)
#: -> (tcg_ops, host_len, host_cycles) }.  The TCG counterfactual for
#: a covered window depends only on the window's instructions and
#: whether it ends its block (addresses only rename branch labels), so
#: profitability evidence is computed once per distinct window — not
#: per rule application.  Living on the program object, the cache has
#: exactly the program's lifetime (CompiledProgram is unhashable, so a
#: WeakKeyDictionary cannot key it).
_COUNTERFACTUAL_ATTR = "_tcg_counterfactuals"


def _counterfactual_tcg(
    program: CompiledProgram,
    block: list[Instruction],
    start: int,
    length: int,
    guest_addr: int,
) -> tuple[int, int, float]:
    """What TCG would have produced for ``block[start:start+length]``.

    Translates the covered guest instructions through the normal TCG
    path into a throwaway assembler — same ``is_last`` logic as the
    fallback path, so branch rules are compared against the branch
    lowering they displaced.  Returns ``(tcg_ops, host_instrs,
    host_cycles)``.  Memoized per (program, window, ends-block): the
    first application of a window pays one extra translation, repeats
    are a dict hit.
    """
    cache = getattr(program, _COUNTERFACTUAL_ATTR, None)
    if cache is None:
        cache = {}
        try:
            object.__setattr__(program, _COUNTERFACTUAL_ATTR, cache)
        except (AttributeError, TypeError):  # slotted/frozen program
            pass
    ends_block = start + length == len(block)
    key = (
        tuple(str(instr) for instr in block[start : start + length]),
        ends_block,
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    shadow = BlockAssembler()
    ops_total = 0
    for j in range(start, start + length):
        tcg = TcgBlock(guest_start=guest_addr)
        tcg.temp_counter = 50_000 + j * 100  # disjoint from the real path
        translate_instruction(
            program, tcg, block[j], guest_addr + 4 * j,
            is_last=j == len(block) - 1,
        )
        ops_total += len(tcg.ops)
        for op in tcg.ops:
            codegen.lower_tcg_op(shadow, op)
    cycles = sum(instruction_cycles(instr) for instr in shadow.instrs)
    result = (ops_total, len(shadow.instrs), cycles)
    cache[key] = result
    return result


# -- lowest-cost cover planning ------------------------------------------------


@dataclass
class _PositionInfo:
    """Everything the planner learned about one block position."""

    #: Applicable matches (bindable + flags dead + binding admissible +
    #: emitter statically valid), longest first.
    applicable: list[RuleMatch] = field(default_factory=list)
    #: Miss reason when nothing is applicable (None = a rule applies).
    reject_reason: str | None = None


def _survey_positions(
    block: list[Instruction],
    store: RuleStore,
) -> list[_PositionInfo]:
    """One store walk per position: all applicable matches, plus the
    reason the position would miss (for gap capture / Table-1 ranking).
    """
    infos = []
    for i in range(len(block)):
        info = _PositionInfo()
        raw = store.matches_at(block, i)
        if not raw:
            info.reject_reason = MISS_NO_MATCH
        for match in raw:
            if not flags_dead_after(match.rule, block, i + match.length):
                reason = MISS_FLAGS_LIVE
            elif not _binding_applicable(match):
                reason = MISS_BINDING
            elif not get_emitter(match.rule).static_ok:
                reason = MISS_APPLY_ERROR
            else:
                info.applicable.append(match)
                continue
            if info.reject_reason is None:
                info.reject_reason = reason
        infos.append(info)
    return infos


def _rule_plan_cost(match: RuleMatch, cost_hint) -> float:
    """Modeled exec cycles/visit of applying ``match``.

    Seeded from the precompiled emitter's static template cycles;
    ``cost_hint`` (the engine's per-rule profitability attribution)
    overrides with the measured average once the rule has real hits.
    """
    if cost_hint is not None:
        measured = cost_hint(match.rule)
        if measured is not None:
            return measured
    return get_emitter(match.rule).template_cycles


def _plan_cover(
    block: list[Instruction],
    infos: list[_PositionInfo],
    tcg_cost,
    rule_cost,
) -> tuple[list[RuleMatch | None], float, float]:
    """Minimum-modeled-cycle cover by dynamic programming.

    ``best[i]`` is the cheapest cost of translating ``block[i:]``;
    at each position the choice is one TCG-translated instruction or
    any applicable rule match.  Rules win ties (coverage is worth at
    least as much as the model says: covered instructions also skip
    TCG translation work the exec-cycle objective does not price).

    Returns ``(choice, planned, planned_greedy)`` where ``choice[i]``
    is the match to apply at ``i`` (None = TCG) and the costs price the
    DP and greedy covers under the same model.
    """
    n = len(block)
    best = [0.0] * (n + 1)
    choice: list[RuleMatch | None] = [None] * (n + 1)
    for i in range(n - 1, -1, -1):
        cost = tcg_cost(i) + best[i + 1]
        pick = None
        for match in infos[i].applicable:  # longest first
            c = rule_cost(match) + best[i + match.length]
            # Strict improvement replaces; a tie is only taken to
            # upgrade TCG to a rule (among equal rules, longest wins).
            if c < cost - 1e-9 or (pick is None and c <= cost + 1e-9):
                cost, pick = min(cost, c), match
        best[i] = cost
        choice[i] = pick
    # Price the greedy trajectory under the same model (the DP's upper
    # bound, traced for the cover ablation).
    greedy = 0.0
    i = 0
    while i < n:
        applicable = infos[i].applicable
        if applicable:
            match = applicable[0]  # longest-first, same tie-break
            greedy += rule_cost(match)
            i += match.length
        else:
            greedy += tcg_cost(i)
            i += 1
    return choice, best[0], greedy


def translate_block_with_rules(
    program: CompiledProgram,
    start_index: int,
    store: RuleStore | None,
    gap_sink=None,
    cover: str = "dp",
    cost_hint=None,
) -> BlockTranslation:
    """Translate one guest block, using rules where they match.

    ``gap_sink`` (optional) is called with the guest-instruction suffix
    (capped at :data:`MAX_GAP_LENGTH`) at every position the rule table
    failed to cover — the translation-gap capture hook the rule-service
    client uses to drive online learning.

    ``cover`` selects the policy (:data:`COVER_MODES`); ``cost_hint``
    is an optional ``rule -> measured cycles/visit | None`` callback
    (the engine's profitability ledgers) refining the DP cost model.
    """
    if cover not in COVER_MODES:
        raise ValueError(
            f"unknown cover mode {cover!r}; expected one of {COVER_MODES}"
        )
    if cover == "dp" and store is not None and len(store):
        return _translate_dp(program, start_index, store, gap_sink,
                             cost_hint)
    return _translate_greedy(program, start_index, store, gap_sink)


def _translate_greedy(
    program: CompiledProgram,
    start_index: int,
    store: RuleStore | None,
    gap_sink=None,
) -> BlockTranslation:
    """The paper's greedy longest-first cover (Section 4): one store
    lookup at every position the emit loop reaches, so a rule that
    fails to apply backs off to TCG for one instruction and the next
    position is looked up afresh."""
    lookups = 0

    def pick(block, i):
        nonlocal lookups
        if store is None:
            return None, None
        lookups += 1
        match = store.match_at(block, i)
        if match is None:
            return None, MISS_NO_MATCH
        if not flags_dead_after(match.rule, block, i + match.length):
            return None, MISS_FLAGS_LIVE
        if not _binding_applicable(match):
            return None, MISS_BINDING
        return match, None

    result = _emit_cover(program, start_index, pick, gap_sink)
    result.lookup_attempts = lookups
    return result


def _translate_dp(
    program: CompiledProgram,
    start_index: int,
    store: RuleStore,
    gap_sink=None,
    cost_hint=None,
) -> BlockTranslation:
    """Lowest-cost cover: survey all matches, DP-plan, then emit."""
    block = discover_block(program, start_index)
    guest_addr = 0x8000 + 4 * start_index
    with phase("dbt.match"):
        infos = _survey_positions(block, store)

    def tcg_cost(i: int) -> float:
        _, _, cycles = _counterfactual_tcg(program, block, i, 1, guest_addr)
        return cycles

    def rule_cost(match: RuleMatch) -> float:
        return _rule_plan_cost(match, cost_hint)

    with phase("dbt.cover"):
        choice, planned, planned_greedy = _plan_cover(
            block, infos, tcg_cost, rule_cost
        )

    def pick(block, i):
        if choice[i] is not None:
            return choice[i], None
        if infos[i].applicable:
            # The cover chose TCG over a live rule on price: traceable,
            # but not a learning gap — the store already has a rule.
            return None, MISS_COST_COVER
        return None, infos[i].reject_reason or MISS_NO_MATCH

    result = _emit_cover(program, start_index, pick, gap_sink, block)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "dbt.cover",
            addr=guest_addr,
            mode="dp",
            guest_len=len(block),
            segments=len(result.hit_rules),
            planned_cost=round(planned, 3),
            greedy_cost=round(planned_greedy, 3),
        )
    result.lookup_attempts = len(block)  # one indexed walk per position
    result.cover_mode = "dp"
    result.planned_cost = planned
    result.planned_cost_greedy = planned_greedy
    return result


def _emit_cover(
    program: CompiledProgram,
    start_index: int,
    pick,
    gap_sink=None,
    block: list[Instruction] | None = None,
) -> BlockTranslation:
    """The one emit loop both covers share.

    ``pick(block, i) -> (match | None, miss reason | None)`` is the
    cover's decision at each position the loop reaches.  A match is
    instantiated (a failed host-ISA constraint backs off to TCG as an
    ``apply_error`` miss); anything else goes through TCG for one
    instruction, and a miss reason is counted, traced and — unless the
    cover priced TCG cheaper on purpose — captured as a gap.
    """
    if block is None:
        block = discover_block(program, start_index)
    guest_addr = 0x8000 + 4 * start_index
    assembler = BlockAssembler()
    covered = [False] * len(block)
    hit_rules: list[tuple[Rule, int]] = []
    hit_profiles: list[HitProfile] = []
    miss_reasons: dict[str, int] = {}
    tcg_ops_total = 0
    tracer = get_tracer()
    i = 0
    ended = False
    # The greedy picker's lookups run inside this phase; the DP cover
    # surveys and plans before it, in its own match/cover phases.
    with phase("dbt.emit"):
        while i < len(block):
            match, reason = pick(block, i)
            if match is not None:
                hit_host_start = len(assembler.instrs)
                try:
                    emitted, branch_cc = instantiate_host(
                        match.rule, match.binding, assembler
                    )
                except RuleApplicationError:
                    reason = MISS_APPLY_ERROR
                    del assembler.instrs[hit_host_start:]
                else:
                    hit_rules.append((match.rule, match.length))
                    if tracer.enabled:
                        tracer.event("dbt.rule.hit", addr=guest_addr + 4 * i,
                                     length=match.length)
                    end = i + match.length
                    covered[i:end] = [True] * match.length
                    if match.rule.has_branch:
                        taken = program.addr_of(match.binding.label)
                        assembler.writeback()
                        assembler.emit(branch_cc, Label(tb_label(taken)))
                        assembler.emit(
                            "jmp", Label(tb_label(guest_addr + 4 * end))
                        )
                        ended = True
                    hit_profiles.append(_hit_profile(
                        program, block, match, i, guest_addr, emitted,
                        assembler.instrs[hit_host_start:],
                    ))
                    i = end
                    continue
            if reason is not None:
                miss_reasons[reason] = miss_reasons.get(reason, 0) + 1
                if gap_sink is not None and reason != MISS_COST_COVER:
                    gap_sink(block[i : i + MAX_GAP_LENGTH])
                if tracer.enabled:
                    tracer.event(
                        "dbt.rule.miss", addr=guest_addr + 4 * i,
                        reason=reason,
                    )
            ops, instr_ended = _emit_tcg_instruction(
                program, block, assembler, i, guest_addr
            )
            tcg_ops_total += ops
            ended |= instr_ended
            i += 1
        if not ended:
            assembler.writeback()
            assembler.emit(
                "jmp", Label(tb_label(guest_addr + 4 * len(block)))
            )
        translated = codegen.finalize_block(assembler, guest_addr)
    return BlockTranslation(
        host_instrs=translated.host_instrs,
        guest_instrs=block,
        rule_covered=covered,
        hit_rules=hit_rules,
        tcg_op_count=tcg_ops_total,
        lookup_attempts=0,
        miss_reasons=miss_reasons,
        hit_profiles=hit_profiles,
    )


def _emit_tcg_instruction(
    program: CompiledProgram,
    block: list[Instruction],
    assembler: BlockAssembler,
    i: int,
    guest_addr: int,
) -> tuple[int, bool]:
    """TCG path for one guest instruction; returns (ops, block_ended)."""
    tcg = TcgBlock(guest_start=guest_addr)
    tcg.temp_counter = 10_000 + i * 100  # keep temp names unique
    translate_instruction(
        program, tcg, block[i], guest_addr + 4 * i,
        is_last=i == len(block) - 1,
    )
    ended = False
    for op in tcg.ops:
        codegen.lower_tcg_op(assembler, op)
        if op.op in ("brcond", "goto_tb", "exit_indirect"):
            ended = True
    return len(tcg.ops), ended


def _hit_profile(program, block, match, i, guest_addr, emitted,
                 hit_host) -> HitProfile:
    """Profitability evidence of one hit: the rule's actual host code
    (including any block-ending writeback + branch it forced) vs. the
    memoized TCG counterfactual for the same span."""
    tcg_ops, tcg_len, tcg_cycles = _counterfactual_tcg(
        program, block, i, match.length, guest_addr
    )
    return HitProfile(
        rule=match.rule,
        length=match.length,
        rule_host_len=len(match.rule.host),
        host_cycles=sum(instruction_cycles(instr) for instr in hit_host),
        body_cycles=sum(instruction_cycles(instr) for instr in emitted),
        tcg_ops=tcg_ops,
        tcg_host_len=tcg_len,
        tcg_host_cycles=tcg_cycles,
    )


def _binding_applicable(match: RuleMatch) -> bool:
    """Reject bindings touching registers the DBT handles specially."""
    for guest_reg in match.binding.regs.values():
        if guest_reg == "pc":
            return False
    return True
