// Workload synth_lep4: the user's offline path and the paper's Table 1
// column.  One operation is a synthesis pass over LEP n=4: load the
// model, then for TP1, TP2 and TP3 solve (2 threads, default options),
// compile, save the .tgs and map it back.
//
// Oracles per pass: every purpose is winning from the initial state,
// the shape counters equal the blessed values, and the mapped table
// decides bit-identically to the game::Strategy walk on a seeded state
// sample, drawn afresh for every pass.  Counts and table shapes must also repeat exactly across
// passes, traced or not.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "game/strategy.h"
#include "lang/lang.h"

namespace perfbench {

namespace {

namespace game = tigat::game;
namespace lang = tigat::lang;

struct Blessed {
  std::size_t keys, zones, edges, rounds;
};
// LEP n=4, TP1..TP3.
constexpr Blessed kBlessed[3] = {
    {25344, 58624, 148736, 8},
    {25344, 58624, 148736, 6},
    {25344, 58624, 148736, 5},
};
constexpr std::size_t kOracleStates = 64;  // per purpose and pass

struct Pass {
  double pass_s = 0.0;   // the user-visible wall time of the pass
  double solve_s = 0.0;  // of which solving
  Layers layers;         // per-layer figures of this pass
  std::string shape;     // every deterministic count, rendered
  MoveMix mix;           // oracle sample, mapped-table answers
  double decide_ns = 0.0;
};

Pass run_pass(const Args& args, std::size_t index, Result& result) {
  Pass pass;
  lang::CompileOptions options;
  options.params = {{"N", 4}};
  auto t0 = SteadyClock::now();
  const lang::LoadedModel model =
      lang::load_model(args.model_dir + "/lep.tg", options);
  const double load_s = seconds_since(t0);
  pass.pass_s = load_s;
  pass.layers["lang.load_s"] = load_s;

  bool ok = model.purposes.size() == 3;
  double decide_s = 0.0;
  std::size_t decides = 0;
  for (std::size_t p = 0; ok && p < 3; ++p) {
    const Synthesis syn =
        synthesize(model.system, model.purposes[p],
                   args.work_dir + "/synth_tp" + std::to_string(p + 1) + ".tgs");
    pass.pass_s += syn.total_s();
    pass.solve_s += syn.solve_s;
    const game::SolverStats& st = syn.solution->stats();
    set_purpose_layers(pass.layers, static_cast<int>(p + 1), st);
    add_table_layers(pass.layers, syn);
    const auto& t = *syn.mapped;
    pass.shape += std::to_string(st.keys) + "/" + std::to_string(st.reach_zones) +
                  "/" + std::to_string(st.edges) + "/" +
                  std::to_string(st.rounds) + "/" +
                  std::to_string(st.winning_zones) + "/" +
                  std::to_string(syn.compile.cascade_entries) + "/" +
                  std::to_string(syn.compile.nodes_built) + "/" +
                  std::to_string(t.memory_bytes()) + "/" +
                  std::to_string(t.node_count()) + "/" +
                  std::to_string(t.arc_count()) + "/" +
                  std::to_string(t.leaf_count()) + ";";

    const Blessed& b = kBlessed[p];
    if (!syn.solution->winning_from_initial()) {
      ok = false;
      result.violation("TP" + std::to_string(p + 1) + " is not winning");
    }
    if (st.keys != b.keys || st.reach_zones != b.zones || st.edges != b.edges ||
        st.rounds != b.rounds) {
      ok = false;
      result.violation("TP" + std::to_string(p + 1) +
                       " shape drifted from the blessed counters");
    }
    const game::Strategy walk(syn.solution);
    const auto states = sample_states(
        *syn.solution, derive_seed(args.seed, index, p), kOracleStates);
    for (const auto& s : states) {
      const game::Move expected = walk.decide(s, kScale);
      t0 = SteadyClock::now();
      const game::Move got = t.decide(s, kScale);
      decide_s += seconds_since(t0);
      ++decides;
      pass.mix.add(got);
      if (!(got == expected)) {
        ok = false;
        result.violation("TP" + std::to_string(p + 1) +
                         ": mapped table disagrees with the strategy walk");
        break;
      }
    }
  }
  pass.decide_ns = decides > 0 ? decide_s * 1e9 / static_cast<double>(decides)
                               : 0.0;
  result.attempted();
  if (!ok) result.failed("synthesis pass " + std::to_string(index));
  return pass;
}

double median_pass_s(const std::vector<Pass>& passes) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.pass_s);
  return median(std::move(v));
}

}  // namespace

int run_synth(const Args& args, Result& result) {
  // Set-up is reading the model: 21 loads before the first pass, then 4
  // more before each pass besides the one that opens it, so the median
  // sees the same host as the passes do.
  lang::CompileOptions options;
  options.params = {{"N", 4}};
  std::vector<double> loads;
  const auto time_loads = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto t0 = SteadyClock::now();
      const lang::LoadedModel model =
          lang::load_model(args.model_dir + "/lep.tg", options);
      loads.push_back(seconds_since(t0));
    }
  };
  time_loads(21);

  // Passes until the time is up (at least one); a traced run alternates
  // plain and traced passes so a drift in host speed moves both alike.
  std::vector<Pass> plain, traced;
  std::size_t index = 0;
  const auto t0 = SteadyClock::now();
  do {
    for (auto* set : {&plain, &traced}) {
      if (set == &traced && !args.trace) continue;
      time_loads(4);
      set->push_back(run_pass(args, index++, result));
      std::printf("pass %zu: %.3f s (solve %.3f s)\n", index - 1,
                  set->back().pass_s, set->back().solve_s);
    }
  } while (seconds_since(t0) < args.seconds);

  // Determinism: every count and table shape repeats exactly.
  for (const std::vector<Pass>* set : {&plain, &traced}) {
    for (const Pass& p : *set) {
      if (p.shape != plain.front().shape) {
        result.violation("synthesis counts differ between passes");
      }
    }
  }

  if (!args.trace) {
    std::vector<double> pass_s;
    double total = 0.0, solve_total = 0.0;
    for (const Pass& p : plain) {
      loads.push_back(p.layers.at("lang.load_s"));
      pass_s.push_back(p.pass_s);
      total += p.pass_s;
      solve_total += p.solve_s;
    }
    const auto n = static_cast<double>(plain.size());
    result.set("setup_s", median(std::move(loads)));
    result.set("ops_per_s", n / total);
    result.set("alt_ops_per_s", 3.0 * n / solve_total);
    result.set("op_p50_us", median(pass_s) * 1e6);
    result.set("op_p99_us", percentile(pass_s, 0.99) * 1e6);
    result.set("peak_rss_mb", peak_rss_mib());
    std::printf("synth_lep4: %zu passes, median %.3f s\n", plain.size(),
                median(pass_s));
    return 0;
  }

  std::vector<Layers> samples;
  for (const Pass& p : traced) {
    Layers l = p.layers;
    l["decision.decide_ns"] = p.decide_ns;
    const auto share = [&](const char* prefix) {
      double sum = 0.0;
      for (const auto& [name, value] : p.layers) {
        if (name.rfind(prefix, 0) == 0) sum += value;
      }
      return sum / p.pass_s;
    };
    l["share.lang"] = share("lang.load_s");
    l["share.semantics"] = share("semantics.expand_s") + share("semantics.merge_s");
    l["share.game"] = share("game.fixpoint_s");
    l["share.decision"] = share("decision.compile_s") + share("decision.save_s") +
                          share("decision.map_s");
    samples.push_back(std::move(l));
  }
  Layers layers = median_layers(samples);
  traced.front().mix.set_layers(layers);
  const double untraced_us = median_pass_s(plain) * 1e6;
  const double traced_us = median_pass_s(traced) * 1e6;
  layers["trace.untraced_op_us"] = untraced_us;
  layers["share.base_op_us"] = traced_us;
  layers["trace.overhead_pct"] = (traced_us - untraced_us) / untraced_us * 100.0;
  result.set_all(layers);
  return 0;
}

}  // namespace perfbench
