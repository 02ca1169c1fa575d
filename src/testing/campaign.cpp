#include "testing/campaign.h"

#include <chrono>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "testing/faults.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/text.h"

namespace tigat::testing {

const char* to_string(CampaignVerdict v) {
  switch (v) {
    case CampaignVerdict::kPass: return "pass";
    case CampaignVerdict::kFail: return "fail";
    case CampaignVerdict::kFlaky: return "flaky";
    case CampaignVerdict::kUnresponsive: return "unresponsive";
  }
  return "?";
}

std::uint64_t campaign_attempt_seed(std::uint64_t fault_seed, std::size_t run,
                                    std::size_t attempt) {
  // One splitmix step over a mix keyed by (run, attempt): adjacent
  // attempts get uncorrelated schedules, and the map is stable across
  // platforms (part of the byte-identical-report contract).
  util::Rng rng(fault_seed ^
                (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(run + 1)) ^
                (0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(attempt)));
  return rng.next();
}

namespace {

// True for final outcomes that mean "the IUT/harness never answered":
// the silence class behind the UNRESPONSIVE campaign verdict.  A
// kHarnessFault outcome is corruption, not silence — a set of those
// classifies FLAKY.
bool is_unresponsive(ReasonCode c) {
  return c == ReasonCode::kImpCrash || c == ReasonCode::kHarnessHang ||
         c == ReasonCode::kRunDeadlineExceeded;
}

std::vector<std::string> uncontrollable_channels(const tsystem::System& spec) {
  std::vector<std::string> out;
  for (const auto& chan : spec.channels()) {
    if (chan.control == tsystem::Controllability::kUncontrollable) {
      out.push_back(chan.name);
    }
  }
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  while (!s.empty()) {
    // The longest prefix that needs no escape goes in one append.
    std::size_t n = 0;
    while (n < s.size() && s[n] != '"' && s[n] != '\\' &&
           static_cast<unsigned char>(s[n]) >= 0x20) {
      ++n;
    }
    out.append(s.data(), n);
    if (n == s.size()) break;
    const char ch = s[n];
    s.remove_prefix(n + 1);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(ch);
        out += "\\u00";
        out += kHex[byte >> 4];
        out += kHex[byte & 0xf];
      }
    }
  }
  out += '"';
}

// Header facts every attempt's ledger starts from; the per-attempt
// run/attempt/seed fields are filled in by the engine loop.
struct LedgerContext {
  obs::RunRecorder* recorder = nullptr;  // nullptr = not recording
  std::string model;
  const char* backend = "";
  std::int64_t scale = 0;
};

// The campaign loop: runs × retried attempts of `exec`, aggregated.
CampaignReport run_campaign(TestExecutor& exec, FaultInjector* injector,
                            util::Deadline& deadline,
                            const CampaignOptions& opts,
                            const FaultSpec& spec,
                            const LedgerContext& ledgers) {
  TIGAT_SPAN("campaign.run");
  CampaignReport out;
  out.runs = opts.runs;
  out.fault_spec = spec.to_string();
  out.fault_seed = opts.fault_seed;
  out.run_deadline_ms = opts.run_deadline_ms;
  out.retries = opts.retries;

  for (std::size_t run = 0; run < opts.runs; ++run) {
    RunOutcome outcome;
    outcome.run = run;
    for (std::size_t att = 0;; ++att) {
      if (att > 0 && opts.backoff_base_ms > 0) {
        const std::int64_t sleep_ms =
            std::min<std::int64_t>(opts.backoff_base_ms << (att - 1), 1000);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      const std::uint64_t seed =
          campaign_attempt_seed(opts.fault_seed, run, att);
      if (injector) injector->reseed(seed);
      if (opts.run_deadline_ms > 0) {
        deadline.arm_ms(opts.run_deadline_ms);
      } else {
        deadline.disarm();
      }
      if (ledgers.recorder != nullptr) {
        obs::RunLedger header;
        header.model = ledgers.model;
        header.backend = ledgers.backend;
        header.scale = ledgers.scale;
        header.run = run;
        header.attempt = att;
        header.seed = seed;
        header.fault_spec = out.fault_spec;
        ledgers.recorder->begin(std::move(header));
      }

      util::Stopwatch watch;
      outcome.report = exec.run();
      outcome.seed = seed;
      outcome.attempts = att + 1;
      outcome.attempt_codes.push_back(outcome.report.code);
      ++out.attempts;
      if (att > 0) ++out.retries_used;
      if (outcome.report.code == ReasonCode::kHarnessHang ||
          outcome.report.code == ReasonCode::kRunDeadlineExceeded) {
        ++out.deadline_hits;
      }
      if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        m.counter("campaign.attempts").add(1);
        if (att > 0) m.counter("campaign.retries").add(1);
        if (injector) {
          m.counter("campaign.faults_injected")
              .add(injector->harness_faults());
        }
        if (outcome.report.code == ReasonCode::kHarnessHang ||
            outcome.report.code == ReasonCode::kRunDeadlineExceeded) {
          m.counter("campaign.deadline_hits").add(1);
        }
        m.histogram("campaign.run_ms", obs::duration_buckets_ms())
            .record(static_cast<std::uint64_t>(watch.milliseconds()));
      }
      if (ledgers.recorder != nullptr) {
        // Every non-PASS attempt keeps its ledger (the whole point of
        // the flight recorder); PASS ledgers are dropped on the floor.
        obs::RunLedger led = ledgers.recorder->take();
        if (outcome.report.verdict != Verdict::kPass) {
          outcome.ledgers.push_back(std::move(led));
        }
      }
      if (outcome.report.verdict != Verdict::kInconclusive ||
          att >= opts.retries) {
        break;
      }
    }
    switch (outcome.report.verdict) {
      case Verdict::kPass: ++out.passes; break;
      case Verdict::kFail: ++out.fails; break;
      case Verdict::kInconclusive: ++out.inconclusive; break;
    }
    out.outcomes.push_back(std::move(outcome));
    obs::progress().tick_campaign(run + 1, opts.runs, out.retries_used,
                                  out.fails, out.inconclusive);
  }
  deadline.disarm();
  obs::progress().emit_campaign("campaign-done", opts.runs, opts.runs,
                                out.retries_used, out.fails, out.inconclusive);

  if (out.fails > 0) {
    out.verdict = CampaignVerdict::kFail;
  } else if (out.inconclusive == 0) {
    out.verdict = CampaignVerdict::kPass;
  } else {
    bool all_silent = out.passes == 0;
    for (const RunOutcome& o : out.outcomes) {
      if (o.report.verdict == Verdict::kInconclusive &&
          !is_unresponsive(o.report.code)) {
        all_silent = false;
      }
    }
    out.verdict = all_silent ? CampaignVerdict::kUnresponsive
                             : CampaignVerdict::kFlaky;
  }
  if (obs::metrics_enabled()) {
    auto& m = obs::metrics();
    m.counter("campaign.runs").add(out.runs);
    m.counter(std::string("campaign.verdict.") + to_string(out.verdict))
        .add(1);
    // Percentile aggregates for the campaign JSON.  These summarise
    // the process-wide histograms (cumulative across campaigns in one
    // process) and carry wall-clock content, so they are attached only
    // under metrics — the metrics-off JSON stays byte-deterministic.
    const auto summarise = [](const obs::Histogram& h) {
      CampaignReport::TimingSummary s;
      s.count = h.count();
      s.p50 = h.percentile(0.50);
      s.p90 = h.percentile(0.90);
      s.p99 = h.percentile(0.99);
      return s;
    };
    out.run_ms =
        summarise(m.histogram("campaign.run_ms", obs::duration_buckets_ms()));
    out.decide_ns =
        summarise(m.histogram("decide.latency_ns", obs::latency_buckets_ns()));
    out.has_timing = true;
  }
  return out;
}

// The entry points' shared setup: deadline, flight recorder, optional
// fault-injecting decorator, then one executor driven by run_campaign.
CampaignReport campaign_with(const decision::DecisionSource& source,
                             const tsystem::System& spec, Implementation& imp,
                             std::int64_t scale, const CampaignOptions& opts,
                             bool cooperative) {
  const FaultSpec fault_spec = FaultSpec::parse(opts.fault_spec);
  util::Deadline deadline;
  ExecutorOptions exec_opts = opts.executor;
  exec_opts.deadline = &deadline;

  obs::RunRecorder recorder;
  LedgerContext ledgers;
  if (opts.record_ledgers) {
    ledgers.recorder = &recorder;
    ledgers.model = spec.name();
    ledgers.backend = source.backend_name();
    ledgers.scale = scale;
    exec_opts.recorder = &recorder;
  }

  const auto drive = [&](Implementation& target, FaultInjector* injector) {
    TestExecutor exec =
        cooperative
            ? TestExecutor::cooperative(spec, source, target, scale, exec_opts)
            : TestExecutor(source, spec, target, scale, exec_opts);
    return run_campaign(exec, injector, deadline, opts, fault_spec, ledgers);
  };
  if (!fault_spec.any()) return drive(imp, nullptr);
  FaultInjector injector(imp, fault_spec, opts.fault_seed,
                         uncontrollable_channels(spec), &deadline);
  if (opts.record_ledgers) {
    injector.set_fault_sink([&recorder](const char* kind, std::uint64_t call) {
      recorder.fault(kind, call);
    });
  }
  return drive(injector, &injector);
}

}  // namespace

std::string CampaignReport::to_json() const {
  std::string out;
  // `, "key": ` — every field but an object's first.
  const auto key = [&out](const char* name) {
    out += ", \"";
    out += name;
    out += "\": ";
  };
  const auto uint_field = [&](const char* name, std::uint64_t value) {
    key(name);
    util::append_uint(out, value);
  };
  const auto str_field = [&](const char* name, const char* value) {
    key(name);
    out += '"';
    out += value;
    out += '"';
  };
  out += "{\"schema\": \"tigat.campaign\", \"version\": 1";
  str_field("verdict", to_string(verdict));
  uint_field("runs", runs);
  uint_field("passes", passes);
  uint_field("fails", fails);
  uint_field("inconclusive", inconclusive);
  uint_field("attempts", attempts);
  uint_field("retries_used", retries_used);
  uint_field("deadline_hits", deadline_hits);
  key("fault_spec");
  append_escaped(out, fault_spec);
  uint_field("fault_seed", fault_seed);
  key("run_deadline_ms");
  util::append_int(out, run_deadline_ms);
  uint_field("retries", retries);
  out += ", \"outcomes\": [";
  std::string trace;  // reused across outcomes
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    if (i > 0) out += ", ";
    out += "{\"run\": ";
    util::append_uint(out, o.run);
    uint_field("attempts", o.attempts);
    uint_field("seed", o.seed);
    str_field("verdict", to_string(o.report.verdict));
    str_field("code", to_string(o.report.code));
    key("detail");
    append_escaped(out, o.report.detail);
    uint_field("steps", o.report.steps);
    key("total_ticks");
    util::append_int(out, o.report.total_ticks);
    uint_field("harness_faults", o.report.harness_faults);
    key("trace");
    trace.clear();
    o.report.append_trace(trace);
    append_escaped(out, trace);
    out += ", \"attempt_codes\": [";
    for (std::size_t a = 0; a < o.attempt_codes.size(); ++a) {
      if (a > 0) out += ", ";
      out += '"';
      out += to_string(o.attempt_codes[a]);
      out += '"';
    }
    out += "]}";
  }
  out += "]";
  if (has_timing) {
    const auto block = [&](const char* name, const TimingSummary& s) {
      out += '"';
      out += name;
      out += "\": {\"count\": ";
      util::append_uint(out, s.count);
      uint_field("p50", s.p50);
      uint_field("p90", s.p90);
      uint_field("p99", s.p99);
      out += '}';
    };
    out += ", \"timing\": {";
    block("run_ms", run_ms);
    out += ", ";
    block("decide_latency_ns", decide_ns);
    out += "}";
  }
  out += "}\n";
  return out;
}

CampaignReport campaign_run(const decision::DecisionSource& source,
                            const tsystem::System& spec, Implementation& imp,
                            std::int64_t scale, const CampaignOptions& opts) {
  return campaign_with(source, spec, imp, scale, opts, false);
}

CampaignReport campaign_run_cooperative(const tsystem::System& original,
                                        const decision::DecisionSource& source,
                                        Implementation& imp,
                                        std::int64_t scale,
                                        const CampaignOptions& opts) {
  return campaign_with(source, original, imp, scale, opts, true);
}

}  // namespace tigat::testing
