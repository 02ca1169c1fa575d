// Resilient test campaigns: many executions of one strategy against
// one IUT, surviving and classifying harness-level faults instead of
// converting them into spurious verdicts.
//
// A single TestExecutor::run answers for one run over a (possibly
// unreliable) boundary.  Real testing — the ROADMAP's campaign engine,
// a tigat-serve daemon scheduling thousands of sessions against flaky
// hardware — needs the layer above: per-run wall-clock deadlines
// (cooperative, checked at step granularity by the executor AND by the
// FaultInjector's simulated hangs), bounded retries with exponential
// backoff on INCONCLUSIVE outcomes (fresh fault schedule per attempt),
// and run-set aggregation into one machine-readable classification:
//
//   PASS          every run's final attempt passed
//   FAIL          some run produced a sound FAIL (Theorem 10 evidence;
//                 never caused by injected faults — the executor downgrades
//                 those, see executor.h)
//   UNRESPONSIVE  no run ever passed or failed, and every final
//                 outcome was harness-silence (crash / hang / deadline)
//   FLAKY         anything in between
//
// Determinism: with a fault spec and seed, every attempt's schedule is
// derived as seed_for(fault_seed, run, attempt), so identical
// (seed, spec) inputs produce byte-identical campaign reports — the
// JSON deliberately contains no wall-clock figures (those go to the
// obs::metrics registry: campaign.* counters, campaign.run_ms
// histogram).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decision/source.h"
#include "obs/recorder.h"
#include "testing/executor.h"
#include "tsystem/system.h"

namespace tigat::testing {

enum class CampaignVerdict : std::uint8_t {
  kPass,
  kFail,
  kFlaky,
  kUnresponsive,
};

[[nodiscard]] const char* to_string(CampaignVerdict v);

struct CampaignOptions {
  std::size_t runs = 1;
  // Extra attempts per run when the final answer is INCONCLUSIVE
  // (harness faults, deadline, declined cooperation, ...).  PASS and
  // FAIL never retry.
  std::size_t retries = 0;
  // Wall-clock budget per attempt; 0 = unbounded.  Shared with the
  // fault injector so injected hangs end with the budget.
  std::int64_t run_deadline_ms = 0;
  // Backoff before retry k (1-based) is backoff_base_ms << (k-1),
  // capped at 1 s; 0 disables sleeping (tests).
  std::int64_t backoff_base_ms = 0;
  // Fault injection: compact spec string (see testing/faults.h) and
  // base seed.  Empty spec = clean boundary, no decorator.
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  // Flight recorder: when true every attempt runs with an attached
  // obs::RunRecorder, and the ledgers of non-PASS attempts are kept in
  // RunOutcome::ledgers (PASS ledgers are discarded — the interesting
  // runs explain themselves, the boring ones stay free).  Recording
  // never changes verdicts, reports or solver counters.
  bool record_ledgers = false;
  ExecutorOptions executor;
};

// One run's final outcome plus its retry history.
struct RunOutcome {
  std::size_t run = 0;
  std::size_t attempts = 1;       // 1 + retries actually used
  std::uint64_t seed = 0;         // fault schedule of the final attempt
  TestReport report;              // final attempt
  std::vector<ReasonCode> attempt_codes;  // every attempt, in order
  // With CampaignOptions::record_ledgers: one flight-recorder ledger
  // per non-PASS attempt of this run, in attempt order (each carries
  // its own run/attempt/seed header).  Feed to obs::explain.
  std::vector<obs::RunLedger> ledgers;
};

struct CampaignReport {
  CampaignVerdict verdict = CampaignVerdict::kPass;
  std::size_t runs = 0;
  std::size_t passes = 0;
  std::size_t fails = 0;
  std::size_t inconclusive = 0;
  std::size_t attempts = 0;       // across all runs
  std::size_t retries_used = 0;
  std::size_t deadline_hits = 0;  // attempts ending in hang/deadline
  std::string fault_spec;         // canonical form
  std::uint64_t fault_seed = 0;
  std::int64_t run_deadline_ms = 0;
  std::size_t retries = 0;        // configured bound
  std::vector<RunOutcome> outcomes;

  // Percentile summary of one metrics histogram (upper-bucket-bound
  // approximation; see obs::Histogram::percentile).
  struct TimingSummary {
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };
  // Wall-clock aggregates, filled ONLY when the obs metrics registry
  // is enabled (they summarise the process-wide "campaign.run_ms" and
  // "decide.latency_ns" histograms).  Deliberately opt-in: the default
  // campaign JSON stays free of wall-clock values, preserving the
  // byte-identical-report determinism contract that CI asserts.
  bool has_timing = false;
  TimingSummary run_ms;     // campaign.run_ms, milliseconds
  TimingSummary decide_ns;  // decide.latency_ns, nanoseconds

  // Versioned, deterministic JSON ({"schema":"tigat.campaign", ...}):
  // fixed field order, sorted-by-run outcomes, no wall-clock values
  // unless metrics were enabled (then a trailing "timing" object
  // carries the percentile aggregates above) — identical (seed, spec,
  // model) inputs serialise byte-identically with metrics off.
  [[nodiscard]] std::string to_json() const;
};

// The per-attempt fault schedule: splitmix-derived from the base seed
// so neighbouring runs/attempts decorrelate.  Exposed for tests that
// replay a single recorded attempt.
[[nodiscard]] std::uint64_t campaign_attempt_seed(std::uint64_t fault_seed,
                                                  std::size_t run,
                                                  std::size_t attempt);

// Runs a campaign of Algorithm 3.1 executions (TestExecutor) of
// `source` against `imp`.  When opts.fault_spec is non-empty, `imp` is
// wrapped in a FaultInjector whose spurious-output alphabet is the
// SPEC's uncontrollable channels.  Throws FaultSpecError on a
// malformed spec; never lets an IMP exception escape.
[[nodiscard]] CampaignReport campaign_run(const decision::DecisionSource& source,
                                          const tsystem::System& spec,
                                          Implementation& imp,
                                          std::int64_t scale,
                                          const CampaignOptions& opts);

// Same, with TestExecutor::cooperative (the backend must come from the
// all-controllable relaxation of `original`).
[[nodiscard]] CampaignReport campaign_run_cooperative(
    const tsystem::System& original, const decision::DecisionSource& source,
    Implementation& imp, std::int64_t scale, const CampaignOptions& opts);

}  // namespace tigat::testing
