// Run flight recorder: a byte-deterministic, versioned ledger of one
// test execution (`tigat.ledger` v1, JSONL).
//
// PR 7 made campaign verdicts sound; this layer makes them
// *explainable*.  A FAIL/FLAKY used to be a one-line verdict with no
// record of what happened inside the run — the forensic gap the
// off-line-testing literature assumes away.  When a RunRecorder is
// attached (ExecutorOptions::recorder), the executor journals every
// step of Algorithm 3.1 into an in-memory RunLedger:
//
//   * the decision taken at each step — the discrete key (rendered
//     SPEC state), the backend that answered (decision provenance,
//     DecisionSource::backend_name), the move kind, rank, prescribed
//     channel or delay bound;
//   * every boundary event with SYMBOLIC time — inputs offered,
//     outputs observed, delays elapsed (ticks, never wall clock);
//   * every fault the PR 7 FaultInjector injected, with its
//     boundary-call ordinal (the fault interleaving of a chaos run);
//   * the final verdict with reason code, detail, and the
//     expected-vs-observed output sets from the SPEC monitor at the
//     moment the run ended.
//
// Determinism contract: a ledger is a pure function of
// (model, strategy, IUT, fault spec, seed).  It contains no wall-clock
// values, no pointers, no thread ids — identical inputs produce
// byte-identical to_jsonl() output at any solver thread count, and
// recorded runs are bit-identical to unrecorded runs (verdict, report,
// solver counters): recording only ever appends to this buffer
// (tests/obs_ledger_test.cpp proves both).
//
// Cost contract, mirroring obs/trace.h and obs/metrics.h: every
// recording site is gated on a single `recorder != nullptr` branch —
// when no recorder is attached (the default) an executor step pays one
// pointer load and a branch, nothing else.  When attached, recording
// is plain vector appends; the recorder is owned by one executor run
// at a time and is NOT thread-safe (one recorder per concurrent run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tigat::obs {

// One journaled event.  Flat tagged struct: only the fields named for
// a kind are meaningful, the rest stay at their defaults (and are
// omitted from the JSONL rendering).
struct LedgerEvent {
  enum class Kind : std::uint8_t {
    kDecision,  // the strategy/table answered decide()
    kInput,     // tester offered an input to the IUT
    kOutput,    // IUT output absorbed by the SPEC monitor
    kDelay,     // symbolic time passed
    kFault,     // FaultInjector corrupted the boundary
    kVerdict,   // terminal: verdict + reason + expected/observed
  };

  Kind kind = Kind::kDecision;
  std::uint64_t step = 0;  // executor step ordinal (0-based)
  std::int64_t t = 0;      // cumulative symbolic time, ticks

  // kDecision: move ("goal" / "action" / "delay" / "unwinnable"),
  // rank (-1 when the move carries none), the rendered SPEC state
  // (the decision key), and for actions the prescribed channel (empty
  // for tester-internal tau moves) / for delays the wait bound in
  // ticks (-1 when neither strategy nor SPEC bounded it).
  std::string move;
  std::int64_t rank = -1;
  std::string state;
  std::int64_t bound = -1;

  // kInput / kOutput: the channel crossing the boundary.
  std::string channel;

  // kDelay: ticks elapsed.
  std::int64_t ticks = 0;

  // kFault: injected fault kind + boundary-call ordinal (1-based,
  // non-decreasing; several faults can share one call).
  std::string fault;
  std::uint64_t call = 0;

  // kVerdict.
  std::string verdict;
  std::string code;
  std::string detail;
  std::vector<std::string> expected;  // Out(s After sigma), sorted
  std::string observed;               // offending channel, if any
};

// A complete recorded run: header + event journal.
struct RunLedger {
  std::string model;       // system name
  std::string backend;     // DecisionSource::backend_name()
  std::int64_t scale = 0;  // ticks per model time unit
  std::size_t run = 0;     // campaign run index
  std::size_t attempt = 0;  // attempt index within the run (0-based)
  std::uint64_t seed = 0;   // fault schedule of this attempt
  std::string fault_spec;   // canonical form; empty = clean boundary

  std::vector<LedgerEvent> events;

  // `tigat.ledger` v1 JSONL: one header object line, then one line per
  // event, fixed field order, no wall-clock values — byte-identical
  // for identical (model, strategy, IUT, spec, seed) inputs.
  [[nodiscard]] std::string to_jsonl() const;

  // Convenience for the explain layer: the terminal event, or nullptr
  // for a ledger that never reached a verdict (truncated file).
  [[nodiscard]] const LedgerEvent* verdict_event() const;
};

// The append-only writer the executors and the fault injector talk to.
// Reused across attempts: begin() resets the journal under a fresh
// header, take() moves the finished ledger out.
class RunRecorder {
 public:
  void begin(RunLedger header) {
    ledger_ = std::move(header);
    ledger_.events.clear();
  }
  [[nodiscard]] RunLedger take() { return std::move(ledger_); }
  [[nodiscard]] const RunLedger& ledger() const { return ledger_; }

  void decision(std::uint64_t step, std::int64_t t, std::string move,
                std::int64_t rank, std::string state, std::string channel,
                std::int64_t bound);
  void input(std::uint64_t step, std::int64_t t, std::string channel);
  void output(std::uint64_t step, std::int64_t t, std::string channel);
  void delay(std::uint64_t step, std::int64_t t, std::int64_t ticks);
  void fault(const char* kind, std::uint64_t call);
  void verdict(std::uint64_t step, std::int64_t t, std::string verdict,
               std::string code, std::string detail,
               std::vector<std::string> expected, std::string observed);

 private:
  RunLedger ledger_;
};

}  // namespace tigat::obs
