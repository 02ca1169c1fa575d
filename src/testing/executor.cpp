#include "testing/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/text.h"

namespace tigat::testing {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kFail: return "fail";
    case Verdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

const char* to_string(ReasonCode c) {
  switch (c) {
    case ReasonCode::kNone: return "none";
    case ReasonCode::kPurposeReached: return "purpose-reached";
    case ReasonCode::kSafetyMaintained: return "safety-maintained";
    case ReasonCode::kQuiescenceViolation: return "quiescence-violation";
    case ReasonCode::kUnexpectedOutput: return "unexpected-output";
    case ReasonCode::kSafetyViolation: return "safety-violation";
    case ReasonCode::kOutsideWinningRegion: return "outside-winning-region";
    case ReasonCode::kStepBudgetExhausted: return "step-budget-exhausted";
    case ReasonCode::kUnboundedWait: return "unbounded-wait";
    case ReasonCode::kSutDeclined: return "sut-declined";
    case ReasonCode::kHarnessFault: return "harness-fault";
    case ReasonCode::kImpCrash: return "imp-crash";
    case ReasonCode::kHarnessHang: return "harness-hang";
    case ReasonCode::kRunDeadlineExceeded: return "run-deadline-exceeded";
  }
  return "?";
}

bool is_harness_level(ReasonCode c) {
  switch (c) {
    case ReasonCode::kHarnessFault:
    case ReasonCode::kImpCrash:
    case ReasonCode::kHarnessHang:
    case ReasonCode::kRunDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

std::string TestReport::trace_string() const {
  std::string out;
  append_trace(out);
  return out;
}

void TestReport::append_trace(std::string& out) const {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    if (i > 0) out += " . ";
    switch (e.kind) {
      case TraceEvent::Kind::kInput:
        out += e.channel;
        out += '!';
        break;
      case TraceEvent::Kind::kOutput:
        out += e.channel;
        out += '?';
        break;
      case TraceEvent::Kind::kDelay:
        util::append_int(out, e.ticks);
        break;
    }
  }
}

namespace {

// Per-run verdict/trace metrics (obs layer).
void record_run_metrics(const TestReport& report) {
  if (!obs::metrics_enabled()) return;
  auto& m = obs::metrics();
  m.counter("executor.runs").add(1);
  m.counter("executor.steps").add(report.steps);
  std::uint64_t inputs = 0, outputs = 0, delays = 0;
  for (const TraceEvent& e : report.trace) {
    switch (e.kind) {
      case TraceEvent::Kind::kInput: ++inputs; break;
      case TraceEvent::Kind::kOutput: ++outputs; break;
      case TraceEvent::Kind::kDelay: ++delays; break;
    }
  }
  m.counter("executor.inputs").add(inputs);
  m.counter("executor.outputs").add(outputs);
  m.counter("executor.delays").add(delays);
  const char* verdict = report.verdict == Verdict::kPass
                            ? "executor.verdict.pass"
                            : report.verdict == Verdict::kFail
                                  ? "executor.verdict.fail"
                                  : "executor.verdict.inconclusive";
  m.counter(verdict).add(1);
  if (is_harness_level(report.code)) {
    m.counter("executor.harness_level_outcomes").add(1);
  }
}

// The "executor.step_ns" histogram, or nullptr when metrics are off —
// fetched once per run so the per-step cost is a null check, not a
// registry lookup.  Splits serving-path time between decide() (the
// existing "decide.latency_ns") and everything around it.
obs::Histogram* step_latency_histogram() {
  if (!obs::metrics_enabled()) return nullptr;
  return &obs::metrics().histogram("executor.step_ns",
                                   obs::latency_buckets_ns());
}

// RAII step timer: records into `hist` on scope exit (covering early
// returns), measures nothing when hist == nullptr.
class StepTimer {
 public:
  explicit StepTimer(obs::Histogram* hist)
      : hist_(hist), t0_(hist != nullptr ? obs::now_ns() : 0) {}
  ~StepTimer() {
    if (hist_ != nullptr) hist_->record(obs::now_ns() - t0_);
  }
  StepTimer(const StepTimer&) = delete;
  StepTimer& operator=(const StepTimer&) = delete;

 private:
  obs::Histogram* hist_;
  std::uint64_t t0_;
};

// Journals one decide() answer into the run ledger: the move kind and
// rank, the rendered SPEC state (the decision key), the prescribed
// channel for actions and the strategy's wait bound for delays.
void record_decision(obs::RunRecorder& rec, std::uint64_t step,
                     std::int64_t t, const SpecMonitor& monitor,
                     const game::Move& move,
                     const decision::DecisionSource& source) {
  const char* kind = "unwinnable";
  std::string channel;
  std::int64_t bound = -1;
  switch (move.kind) {
    case game::MoveKind::kGoalReached:
      kind = "goal";
      break;
    case game::MoveKind::kAction: {
      kind = "action";
      if (move.edge) {
        const auto chan = source.edge_instance(*move.edge)
                              .channel_name(monitor.semantics().system());
        if (chan) channel = *chan;
      }
      break;
    }
    case game::MoveKind::kDelay:
      kind = "delay";
      if (move.next_decision_ticks < game::Move::kNoDecision) {
        bound = move.next_decision_ticks;
      }
      break;
    case game::MoveKind::kUnwinnable:
      break;
  }
  rec.decision(step, t, kind,
               move.rank ? static_cast<std::int64_t>(*move.rank) : -1,
               monitor.semantics().to_string(monitor.state()),
               std::move(channel), bound);
}

}  // namespace

TestExecutor::TestExecutor(const game::Strategy* strategy,
                           const decision::DecisionSource* source,
                           const tsystem::System& spec, bool cooperative,
                           Implementation& imp, std::int64_t scale,
                           ExecutorOptions options)
    : source_(source),
      imp_(&imp),
      monitor_(spec, scale),
      cooperative_(cooperative),
      scale_(scale),
      options_(std::move(options)) {
  if (strategy != nullptr) {
    source_ = &owned_source_.emplace(*strategy);
    if (!options_.purpose) options_.purpose = strategy->solution().purpose();
  }
}

TestExecutor::TestExecutor(const game::Strategy& strategy, Implementation& imp,
                           std::int64_t scale, ExecutorOptions options)
    : TestExecutor(&strategy, nullptr, strategy.solution().graph().system(),
                   false, imp, scale, std::move(options)) {}

TestExecutor::TestExecutor(const decision::DecisionSource& source,
                           const tsystem::System& spec, Implementation& imp,
                           std::int64_t scale, ExecutorOptions options)
    : TestExecutor(nullptr, &source, spec, false, imp, scale,
                   std::move(options)) {}

TestExecutor TestExecutor::cooperative(const tsystem::System& original,
                                       const game::Strategy& plan,
                                       Implementation& imp, std::int64_t scale,
                                       ExecutorOptions options) {
  return TestExecutor(&plan, nullptr, original, true, imp, scale,
                      std::move(options));
}

TestExecutor TestExecutor::cooperative(const tsystem::System& original,
                                       const decision::DecisionSource& plan,
                                       Implementation& imp, std::int64_t scale,
                                       ExecutorOptions options) {
  return TestExecutor(nullptr, &plan, original, true, imp, scale,
                      std::move(options));
}

TestReport TestExecutor::run() {
  TIGAT_SPAN("executor.run");
  TestReport report = run_impl();
  report.harness_faults = imp_->harness_faults();
  record_run_metrics(report);
  return report;
}

TestReport TestExecutor::run_impl() {
  TestReport report;
  monitor_.reset();
  imp_->reset();
  obs::RunRecorder* const rec = options_.recorder;
  obs::Histogram* const step_hist = step_latency_histogram();

  // Journals the final report into the ledger with the monitor still
  // live — the expected-output set is Out(s After σ) at the instant
  // the verdict was earned.  `observed` is the offending channel on an
  // unexpected-output FAIL, empty for silence-class verdicts.
  const auto record_verdict = [&](const std::string& observed = {}) {
    if (rec != nullptr) {
      rec->verdict(report.steps, report.total_ticks,
                   to_string(report.verdict), to_string(report.code),
                   report.detail, monitor_.expected_outputs(), observed);
    }
  };
  const auto inconclusive = [&](ReasonCode code, std::string detail) {
    report.verdict = Verdict::kInconclusive;
    report.code = code;
    report.detail = std::move(detail);
    record_verdict();
    return report;
  };
  // FAIL is only sound over a clean observation channel: if the
  // boundary reported corruption at any point of this run, what we
  // observed may not be what the IUT did, and the verdict degrades to
  // INCONCLUSIVE / kHarnessFault (soundness over completeness — a
  // retry with a fresh fault schedule can still earn the real FAIL).
  const auto fail = [&](ReasonCode code, std::string detail,
                        const std::string& observed = {}) {
    if (imp_->harness_faults() > 0) {
      return inconclusive(
          ReasonCode::kHarnessFault,
          "would-be FAIL (" + std::string(to_string(code)) +
              ") suppressed: " + imp_->harness_fault_summary());
    }
    report.verdict = Verdict::kFail;
    report.code = code;
    report.detail = std::move(detail);
    record_verdict(observed);
    return report;
  };

  // Safety mode (see the file comment).  φ is over locations and data
  // only, so it is re-checked after every discrete move and never after
  // a pure delay.  An initial ¬φ state needs no check of its own: it
  // seeds the environment's attractor, so it is never winning and the
  // first decide() already answers kUnwinnable.
  const bool safety =
      options_.purpose &&
      options_.purpose->kind == tsystem::PurposeKind::kSafety;
  const auto phi_holds = [&] {
    return options_.purpose->formula.eval(
        monitor_.state().locs, monitor_.state().data,
        monitor_.semantics().system().data());
  };
  const auto safety_pass = [&](std::string detail) {
    report.verdict = Verdict::kPass;
    report.code = ReasonCode::kSafetyMaintained;
    report.detail = std::move(detail);
    record_verdict();
    return report;
  };
  const tsystem::System& spec = monitor_.semantics().system();

  for (report.steps = 0; report.steps < options_.max_steps; ++report.steps) {
    TIGAT_SPAN("executor.step");
    const StepTimer step_timer(step_hist);
    if (options_.deadline && options_.deadline->expired()) {
      return inconclusive(ReasonCode::kRunDeadlineExceeded,
                          "run wall-clock budget expired");
    }
    if (safety && options_.pass_ticks > 0 &&
        report.total_ticks >= options_.pass_ticks) {
      return safety_pass(util::format(
          "safety invariant maintained for %lld ticks",
          static_cast<long long>(report.total_ticks)));
    }
    const game::Move move = source_->decide(monitor_.state(), scale_);
    if (rec != nullptr) {
      record_decision(*rec, report.steps, report.total_ticks, monitor_, move,
                      *source_);
    }

    // Every move but a tester action hands the SUT a window to act in:
    // how long we may sleep, whether the strategy or the SPEC bounded
    // it, and (cooperative mode) the output the plan hopes for.
    std::int64_t wait = options_.idle_wait_cap;
    bool wait_bounded = false;
    std::optional<std::string> hoped;
    switch (move.kind) {
      case game::MoveKind::kGoalReached:
        report.verdict = Verdict::kPass;
        report.code = ReasonCode::kPurposeReached;
        report.detail = cooperative_ ? "test purpose reached (cooperatively)"
                                     : "test purpose reached";
        record_verdict();
        return report;

      case game::MoveKind::kUnwinnable:
        if (cooperative_) {
          return inconclusive(ReasonCode::kSutDeclined,
                              "the SUT drifted off the cooperative plan");
        }
        // A winning strategy never leaves its winning region on
        // conforming behaviour; landing here means the purpose was not
        // controllable from the start (caller error).
        return inconclusive(ReasonCode::kOutsideWinningRegion,
                            "state outside the winning region");

      case game::MoveKind::kAction: {
        const auto& inst = source_->edge_instance(*move.edge);
        const auto chan = inst.channel_name(spec);
        if (cooperative_) {
          // The relaxation marked everything controllable; the SPEC's
          // partition says whether this move is really the SUT's — a
          // hoped-for output, waited for up to the SPEC deadline.
          const auto& proc = spec.processes()[inst.primary.process];
          if (!spec.edge_controllable(proc, proc.edges()[inst.primary.edge])) {
            TIGAT_ASSERT(chan.has_value(), "hoped-for silent SUT move");
            hoped = chan;
            wait = std::min(monitor_.allowed_delay(), options_.idle_wait_cap);
            break;
          }
        }
        if (!chan) {
          // Environment-internal controllable move (tester bookkeeping,
          // e.g. the LEP environment creating a buffered message):
          // nothing crosses the tester/IMP boundary.
          const bool ok = monitor_.apply_instance(inst);
          TIGAT_ASSERT(ok, "SPEC rejected a strategy-prescribed tau move");
          if (safety && !phi_holds()) {
            return fail(ReasonCode::kSafetyViolation,
                        "safety violation: phi broken by an internal move");
          }
          continue;
        }
        try {
          imp_->offer_input(*chan);  // mutants may ignore it; that alone
                                     // is not observable — the missing
                                     // consequences will be.
        } catch (const HarnessHangError& e) {
          return inconclusive(ReasonCode::kHarnessHang, e.what());
        } catch (const HarnessFaultError& e) {
          return inconclusive(ReasonCode::kHarnessFault, e.what());
        } catch (const std::exception& e) {
          return inconclusive(ReasonCode::kImpCrash,
                              std::string("IMP crashed in offer_input: ") +
                                  e.what());
        }
        const bool ok = monitor_.apply_input(*chan);
        TIGAT_ASSERT(ok, "SPEC rejected a strategy-prescribed input");
        report.trace.push_back({TraceEvent::Kind::kInput, *chan, 0});
        if (rec != nullptr) rec->input(report.steps, report.total_ticks, *chan);
        if (safety && !phi_holds()) {
          return fail(ReasonCode::kSafetyViolation,
                      "safety violation: phi broken after input '" + *chan +
                          "'",
                      *chan);
        }
        continue;
      }

      case game::MoveKind::kDelay: {
        // Sleep until the strategy's next decision point, or the SPEC's
        // invariant deadline (by which the SUT must have produced
        // something), whichever is earlier.  A wait of 0 means the SUT
        // must act at this very instant.
        if (move.next_decision_ticks < game::Move::kNoDecision) {
          wait = move.next_decision_ticks;
          wait_bounded = true;
        }
        const std::int64_t deadline = monitor_.allowed_delay();
        if (deadline < semantics::ConcreteSemantics::kNoDeadline) {
          wait = std::min(wait, deadline);
          wait_bounded = true;
        }
        break;
      }
    }
    TIGAT_ASSERT(wait >= 0, "negative waiting time");

    std::optional<ObservedOutput> obs;
    try {
      obs = imp_->advance(wait);
    } catch (const HarnessHangError& e) {
      return inconclusive(ReasonCode::kHarnessHang, e.what());
    } catch (const HarnessFaultError& e) {
      return inconclusive(ReasonCode::kHarnessFault, e.what());
    } catch (const std::exception& e) {
      return inconclusive(ReasonCode::kImpCrash,
                          std::string("IMP crashed in advance: ") + e.what());
    }
    if (!obs && hoped) {
      // wait < idle_wait_cap means the window ran to the SPEC deadline:
      // the promised output never came.  Otherwise the SUT merely
      // chose not to play along.
      if (wait < options_.idle_wait_cap) {
        return fail(ReasonCode::kQuiescenceViolation,
                    "quiescence violation while hoping for '" + *hoped +
                        "'");
      }
      return inconclusive(ReasonCode::kSutDeclined,
                          "the SUT declined to produce '" + *hoped +
                              "' (within its rights)");
    }
    if (!obs) {
      if (wait == 0) {
        if (safety) {
          // The strategy pinned its next decision to this very
          // instant.  Three cases, in soundness order: the SPEC may
          // still let time pass (no safe prescription exists — a
          // winning strategy never lands here on conforming
          // behaviour, so no verdict); time is frozen with nothing
          // promised (a maximal run that kept φ — the tester wins);
          // or a promised output never came (the one silence that
          // is still sound FAIL evidence).
          if (monitor_.allowed_delay() > 0) {
            return inconclusive(
                ReasonCode::kOutsideWinningRegion,
                "no safe prescription at the decision instant");
          }
          if (monitor_.expected_outputs().empty()) {
            return safety_pass("safety invariant maintained (safe deadlock)");
          }
        }
        return fail(ReasonCode::kQuiescenceViolation,
                    "quiescence violation: output deadline expired with "
                    "no output");
      }
      if (!wait_bounded && !safety) {
        // Defensive path: the strategy offered no decision point and
        // the SPEC no invariant deadline, so nothing bounds this
        // wait.  Silently sleeping idle_wait_cap and looping would
        // just burn the step budget — surface the cause instead.
        // (In safety mode an unbounded quiet wait is winning play:
        // absorb the cap and keep counting toward the pass budget.)
        return inconclusive(
            ReasonCode::kUnboundedWait,
            util::format("no deadline from strategy or SPEC; quiescent "
                         "for the whole %lld-tick cap",
                         static_cast<long long>(wait)));
      }
      // Quiescent for the whole window (allowed: wait ≤ deadline).
      const bool ok = monitor_.apply_delay(wait);
      TIGAT_ASSERT(ok, "delay within the deadline rejected");
      report.total_ticks += wait;
      report.trace.push_back({TraceEvent::Kind::kDelay, "", wait});
      if (rec != nullptr) rec->delay(report.steps, report.total_ticks, wait);
      continue;
    }

    // Output observed inside the window.  In cooperative mode it need
    // not be the hoped-for one: any SPEC-legal output moves the plan on
    // and the next decide() re-plans from wherever the SUT led.
    if (obs->after_ticks > 0) {
      const bool ok = monitor_.apply_delay(obs->after_ticks);
      TIGAT_ASSERT(ok, "delay within the window exceeded a deadline");
      report.total_ticks += obs->after_ticks;
      report.trace.push_back({TraceEvent::Kind::kDelay, "", obs->after_ticks});
      if (rec != nullptr) {
        rec->delay(report.steps, report.total_ticks, obs->after_ticks);
      }
    }
    if (!monitor_.apply_output(obs->channel)) {
      return fail(ReasonCode::kUnexpectedOutput,
                  util::format("unexpected output '%s' after %lld ticks: not "
                               "in Out(s After sigma)",
                               obs->channel.c_str(),
                               static_cast<long long>(obs->after_ticks)),
                  obs->channel);
    }
    report.trace.push_back({TraceEvent::Kind::kOutput, obs->channel, 0});
    if (rec != nullptr) {
      rec->output(report.steps, report.total_ticks, obs->channel);
    }
    if (safety && !phi_holds()) {
      return fail(ReasonCode::kSafetyViolation,
                  util::format("safety violation: phi broken by output "
                               "'%s' after %lld ticks",
                               obs->channel.c_str(),
                               static_cast<long long>(obs->after_ticks)),
                  obs->channel);
    }
  }
  if (safety) {
    // Outlasting the step budget with φ intact is the tester's win
    // condition when no pass_ticks budget was given.
    return safety_pass("safety invariant maintained through the step budget");
  }
  return inconclusive(ReasonCode::kStepBudgetExhausted,
                      "step budget exhausted");
}

}  // namespace tigat::testing
