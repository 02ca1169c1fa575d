// Test execution with a winning strategy — Algorithm 3.1 of the paper.
//
// The executor incrementally builds a test run by consulting the
// strategy at the monitored SPEC state:
//
//   * "input i"  → send i to the IMP, advance the monitor;
//   * "delay d"  → let (virtual) time pass; if the IMP emits o after
//     d' ≤ d, check o ∈ Out(s0 After σ·d') — fail on violation —
//     otherwise record the full delay;
//   * a goal state (rank 0) yields PASS.
//
// Additional fail condition implicit in tioco: observing quiescence
// past the SPEC's invariant deadline (the promised output never came).
//
// Soundness (Theorem 10): FAIL is only emitted on an output or a
// silence that the SPEC forbids after the observed trace — evidence of
// non-conformance.  Partial completeness (Theorem 11) appears as the
// mutation experiments: IMPs that break conformance along the strategy
// are driven into a failing run.
//
// Soundness under harness faults: Theorem 10 assumes a perfect
// observation channel.  When the channel itself drops/garbles events
// (see testing/faults.h and Implementation::harness_faults), a
// "forbidden" observation may be the harness's fault, not the IUT's —
// so the executor downgrades any FAIL it would emit to INCONCLUSIVE /
// kHarnessFault whenever the boundary reported corruption during the
// run, catches exceptions escaping the IMP (kImpCrash / kHarnessHang),
// and honours a cooperative wall-clock deadline checked once per step
// (kRunDeadlineExceeded).  FAIL therefore still implies evidence of
// non-conformance observed over a clean channel.
//
// Safety purposes (`control: A[] φ`, ExecutorOptions::purpose) flip
// the win condition: a safety play has no goal state, so the run PASSes
// by OUTLASTING a budget with φ intact — pass_ticks of model time, or
// the step budget as the fallback — and FAILs the moment a discrete
// move lands the SPEC in ¬φ (kSafetyViolation; φ is a predicate over
// locations and data, so delays cannot change it).  The quiescence
// rules soften where safety play is legitimately passive: an unbounded
// quiet wait absorbs the idle cap and keeps counting (waiting forever
// IS winning), and a deadlock that maintains φ — time frozen, nothing
// promised — is a PASS, not a violation.  Silence that swallows a
// promised output is still FAIL kQuiescenceViolation, and the
// harness-fault downgrade applies to safety FAILs unchanged.
//
// Cooperative mode (TestExecutor::cooperative, the paper's
// future-work item 4) executes a plan solved on the all-controllable
// relaxation of the SPEC (game/cooperative.h).  Each prescribed action
// is classified by the ORIGINAL partition: a genuinely controllable
// one is executed as above; one the SPEC gives to the SUT is a
// hoped-for output, and the executor waits for it until
// min(SPEC deadline, idle_wait_cap).  Silence at the SPEC deadline is
// still FAIL kQuiescenceViolation; any other silence, or the SUT
// legally leaving the plan (decide() answers kUnwinnable), is
// INCONCLUSIVE kSutDeclined.  Whatever the SUT emits meanwhile is
// judged as in a delay step, so FAIL stays sound by the same rule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decision/source.h"
#include "game/strategy.h"
#include "obs/recorder.h"
#include "testing/implementation.h"
#include "testing/monitor.h"
#include "tsystem/property.h"
#include "util/cancel.h"

namespace tigat::testing {

enum class Verdict : std::uint8_t {
  kPass,
  kFail,
  kInconclusive,  // budget exhausted or internal limitation — no verdict
};

[[nodiscard]] const char* to_string(Verdict v);

// Machine-readable cause behind a verdict.  The campaign layer and CI
// branch on these; the free-text TestReport::detail only amplifies.
enum class ReasonCode : std::uint8_t {
  kNone = 0,
  // PASS
  kPurposeReached,
  kSafetyMaintained,     // safety: φ held through the whole budget
  // FAIL — evidence of non-conformance (sound, Theorem 10)
  kQuiescenceViolation,  // promised output never came
  kUnexpectedOutput,     // o ∉ Out(s After σ)
  kSafetyViolation,      // safety: a SPEC-legal move still broke φ
  // INCONCLUSIVE — no verdict either way
  kOutsideWinningRegion,  // purpose uncontrollable from the start
  kStepBudgetExhausted,   // ExecutorOptions::max_steps hit
  kUnboundedWait,         // neither strategy nor SPEC bounded the wait
                          // (idle_wait_cap defensive path)
  kSutDeclined,           // cooperative: IUT legally left the plan
  // INCONCLUSIVE — the harness, not the IUT (unresponsive class except
  // kHarnessFault, which is corruption rather than silence)
  kHarnessFault,         // observation channel corrupted mid-run
  kImpCrash,             // an exception escaped the IMP boundary
  kHarnessHang,          // boundary hang cancelled by the deadline
  kRunDeadlineExceeded,  // per-run wall-clock budget expired
};

[[nodiscard]] const char* to_string(ReasonCode c);

// True for causes that mean "the run infrastructure failed", i.e. a
// retry with a fresh schedule could succeed: the harness class above
// plus nothing else.  Campaigns retry these and classify run sets that
// only ever produce them as UNRESPONSIVE.
[[nodiscard]] bool is_harness_level(ReasonCode c);

struct TraceEvent {
  enum class Kind : std::uint8_t { kInput, kOutput, kDelay };
  Kind kind;
  std::string channel;     // input/output
  std::int64_t ticks = 0;  // delay duration, or the instant's offset 0
};

struct TestReport {
  Verdict verdict = Verdict::kInconclusive;
  ReasonCode code = ReasonCode::kNone;
  std::string detail;  // human amplification of `code`; never branch on it
  std::vector<TraceEvent> trace;
  std::int64_t total_ticks = 0;
  std::size_t steps = 0;
  // Boundary corruption count at the end of the run (see
  // Implementation::harness_faults).  Always 0 on a FAIL verdict —
  // that is the soundness-under-faults invariant.
  std::uint64_t harness_faults = 0;

  // "touch! . 16 . dim?": events joined by " . ", inputs marked '!',
  // outputs '?', delays in ticks.
  [[nodiscard]] std::string trace_string() const;
  // Appends trace_string() to `out`.
  void append_trace(std::string& out) const;
};

struct ExecutorOptions {
  std::size_t max_steps = 10000;
  // Cap for a single wait when neither the strategy nor the invariants
  // provide a deadline (defensive; a winning strategy always does).
  // Quiescence across a whole uncapped window yields INCONCLUSIVE /
  // kUnboundedWait — never a silent max-length wait.
  std::int64_t idle_wait_cap = 1 << 20;
  // Cooperative wall-clock budget, polled once per step; nullptr or an
  // unarmed Deadline means no budget.  The campaign layer arms one per
  // run and shares it with the FaultInjector so simulated hangs end.
  const util::Deadline* deadline = nullptr;
  // Run flight recorder (obs/recorder.h): when set, every decision,
  // boundary event and the final verdict of the run are journaled into
  // its RunLedger.  nullptr (the default) costs one pointer null-check
  // branch per recording site — the recorder analogue of the
  // trace/metrics cost contract.  Recording never changes behaviour:
  // recorded runs are bit-identical to unrecorded ones.
  obs::RunRecorder* recorder = nullptr;
  // The purpose the strategy was solved for.  Safety purposes switch
  // the executor into safety mode (see the file comment); unset means
  // reachability.  The Strategy-based constructors fill it in from
  // GameSolution::purpose automatically — table-based callers serving
  // a safety .tgs must set it themselves (the table knows its kind but
  // not the formula the monitor must check).
  std::optional<tsystem::TestPurpose> purpose;
  // Safety mode: PASS with kSafetyMaintained once this much model time
  // has elapsed with φ intact.  0 falls back to the step budget as the
  // run length.  Ignored for reachability purposes.
  std::int64_t pass_ticks = 0;
};

class TestExecutor {
 public:
  // All three parties must use the same tick scale.
  TestExecutor(const game::Strategy& strategy, Implementation& imp,
               std::int64_t scale, ExecutorOptions options = {});

  // Any decision backend — e.g. a compiled decision::DecisionTable
  // loaded from a .tgs file.  `spec` is the SPEC the monitor tracks;
  // it must be the system the backend was built for (for tables, check
  // DecisionTable::matches first).
  TestExecutor(const decision::DecisionSource& source,
               const tsystem::System& spec, Implementation& imp,
               std::int64_t scale, ExecutorOptions options = {});

  // Cooperative mode (see the file comment).  `original` is the
  // un-relaxed SPEC — the monitor tracks it and its partition decides
  // which prescribed moves are the SUT's; the plan must come from
  // game::solve_cooperative on it (or a table compiled from that).
  [[nodiscard]] static TestExecutor cooperative(
      const tsystem::System& original, const game::Strategy& plan,
      Implementation& imp, std::int64_t scale, ExecutorOptions options = {});
  [[nodiscard]] static TestExecutor cooperative(
      const tsystem::System& original, const decision::DecisionSource& plan,
      Implementation& imp, std::int64_t scale, ExecutorOptions options = {});

  // Not copyable/movable: source_ may point into owned_source_.
  TestExecutor(const TestExecutor&) = delete;
  TestExecutor& operator=(const TestExecutor&) = delete;

  // One full test run (resets the IMP first).  Traced as an
  // "executor.run" span with per-decision "executor.step" child spans,
  // and counted under "executor.*" metrics (runs, steps, trace events,
  // verdicts, the "executor.step_ns" histogram) when the obs layer is
  // enabled.
  [[nodiscard]] TestReport run();

 private:
  // Exactly one of `strategy` / `source` is non-null.
  TestExecutor(const game::Strategy* strategy,
               const decision::DecisionSource* source,
               const tsystem::System& spec, bool cooperative,
               Implementation& imp, std::int64_t scale,
               ExecutorOptions options);

  [[nodiscard]] TestReport run_impl();

  // Set by the Strategy constructors; source_ points at it.
  std::optional<decision::StrategySource> owned_source_;
  const decision::DecisionSource* source_;
  Implementation* imp_;
  SpecMonitor monitor_;
  bool cooperative_;
  std::int64_t scale_;
  ExecutorOptions options_;
};

}  // namespace tigat::testing
