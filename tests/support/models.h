// The paper's two case studies, loaded from their one definition: the
// shipped .tg sources in examples/models/.  Tests and benches read the
// models through these helpers, so the parameter names and file paths
// live in one place.
//
//   const lang::LoadedModel light = load_smart_light();
//   const tsystem::System imp = plant(light.system);  // the IUT alone
//   const tsystem::LocId l3 = loc(light.system, "IUT", "L3");
//
// The name lookups replace hand-kept id fields: each throws
// std::invalid_argument naming what it could not find, so a renamed
// location or variable fails the caller loudly.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lang/lang.h"
#include "tsystem/rebuild.h"
#include "tsystem/system.h"

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

namespace tigat::test_support {

// examples/models/<file>.
inline std::string model_path(const std::string& file) {
  return std::string(TIGAT_MODEL_DIR) + "/" + file;
}

// Smart Light (Fig. 2 + Fig. 3): the light "IUT" composed with its
// user "User"; one purpose, `control: A<> IUT.Bright`.  `params`
// override the model's constants (Tsw, Tidle, Treact, Twindow).
inline lang::LoadedModel load_smart_light(
    std::vector<std::pair<std::string, std::int64_t>> params = {}) {
  lang::CompileOptions options;
  options.params = std::move(params);
  return lang::load_model(model_path("smart_light.tg"), options);
}

// The LEP template at n nodes (`run_model --param N=n`); its purposes
// are the paper's TP1-TP3, in that order.
inline lang::LoadedModel load_lep(std::int64_t n) {
  lang::CompileOptions options;
  options.params = {{"N", n}};
  return lang::load_model(model_path("lep.tg"), options);
}

// The process "IUT" alone: the plant a SimulatedImplementation runs.
// Location ids and clock indices are those of the composed model.
inline tsystem::System plant(const tsystem::System& sys) {
  return tsystem::extract_process(sys, "IUT");
}

namespace detail {
template <typename T>
T found(const std::optional<T>& id, const std::string& what,
        const tsystem::System& sys) {
  if (!id) {
    throw std::invalid_argument("no " + what + " in system '" + sys.name() +
                                "'");
  }
  return *id;
}
}  // namespace detail

inline std::uint32_t process(const tsystem::System& sys,
                             const std::string& name) {
  return detail::found(sys.find_process(name), "process '" + name + "'", sys);
}

inline tsystem::LocId loc(const tsystem::System& sys,
                          const std::string& process_name,
                          const std::string& name) {
  const tsystem::Process& p = sys.processes()[process(sys, process_name)];
  return detail::found(p.find_location(name),
                       "location '" + process_name + "." + name + "'", sys);
}

inline tsystem::Clock clock(const tsystem::System& sys,
                            const std::string& name) {
  return detail::found(sys.find_clock(name), "clock '" + name + "'", sys);
}

inline tsystem::ChannelId channel(const tsystem::System& sys,
                                  const std::string& name) {
  return detail::found(sys.find_channel(name), "channel '" + name + "'", sys);
}

inline tsystem::VarId var(const tsystem::System& sys,
                          const std::string& name) {
  return detail::found(sys.data().find(name), "variable '" + name + "'", sys);
}

}  // namespace tigat::test_support
