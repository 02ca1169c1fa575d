#include "semantics/symbolic.h"

#include <algorithm>
#include <mutex>
#include <span>

#include "obs/progress.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/memory_meter.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tigat::semantics {

using dbm::Dbm;
using dbm::Fed;
using tsystem::ClockConstraint;
using tsystem::Edge;

std::size_t DiscreteKey::hash() const noexcept {
  std::size_t h = data.hash();
  for (const tsystem::LocId l : locs) {
    h ^= l + 0x9e3779b9u + (h << 6) + (h >> 2);
  }
  return h;
}

SymbolicGraph::SymbolicGraph(const tsystem::System& system,
                             ExplorationOptions options)
    : sys_(&system),
      options_(std::move(options)),
      pool_(system.clock_count()) {
  TIGAT_ASSERT(system.finalized(), "system must be finalized");
  max_constants_ = system.max_constants();
  if (!options_.extra_max_constants.empty()) {
    TIGAT_ASSERT(options_.extra_max_constants.size() == max_constants_.size(),
                 "extra max constants must match clock count");
    for (std::size_t i = 0; i < max_constants_.size(); ++i) {
      max_constants_[i] =
          std::max(max_constants_[i], options_.extra_max_constants[i]);
    }
  }
}

std::shared_ptr<const SymbolicGraph> SymbolicGraph::explored(
    const tsystem::System& system, const ExplorationOptions& options,
    util::ThreadPool* pool, bool* explored_now) {
  tsystem::GraphMemo& memo = system.graph_memo();
  const std::lock_guard<std::mutex> lock(memo.mutex);
  if (explored_now != nullptr) *explored_now = false;
  if (memo.graph != nullptr && memo.graph->options() == options) {
    return memo.graph;
  }
  // Drop the old entry first: its zones would otherwise count against
  // this exploration's byte budget, and a limit must leave the slot
  // empty.
  memo.graph.reset();
  auto graph = std::make_shared<SymbolicGraph>(system, options);
  graph->explore(pool);
  memo.graph = graph;
  if (explored_now != nullptr) *explored_now = true;
  return graph;
}

std::optional<std::uint32_t> SymbolicGraph::find_key(
    const DiscreteKey& key) const {
  const InternMap::Entry* e = intern_.find(key, key.hash());
  if (e == nullptr || e->id == InternMap::kUnassigned) return std::nullopt;
  return e->id;
}

void SymbolicGraph::fill_facts(InternMap::Entry& e) const {
  // Invariants, outgoing instances and urgency depend only on the
  // location vector, so they are hash-consed in a side map: at LEP
  // n = 6 scale, ~11M keys share a few dozen entries instead of each
  // carrying a Dbm, and a key's instances are enumerated once per
  // location vector rather than once per expanded zone.
  std::size_t h = 0x811c9dc5u;
  for (const tsystem::LocId l : e.key.locs) {
    h ^= l + 0x9e3779b9u + (h << 6) + (h >> 2);
  }
  auto [facts, inserted] = facts_.intern(e.key.locs, h, 0);
  if (inserted) {
    Dbm inv = Dbm::universal(sys_->clock_count());
    bool alive = true;
    const auto& procs = sys_->processes();
    for (std::uint32_t p = 0; p < procs.size() && alive; ++p) {
      for (const ClockConstraint& c :
           procs[p].locations()[facts->key[p]].invariant) {
        if (!inv.constrain(c.i, c.j, c.bound)) {
          alive = false;
          break;
        }
      }
    }
    TIGAT_ASSERT(alive, "key with unsatisfiable invariant interned");
    facts->aux.invariant = std::move(inv);
    facts->aux.instances = instances_from(*sys_, facts->key);
    facts->aux.frozen = semantics::time_frozen(*sys_, facts->key);
  }
  e.aux = &facts->aux;
}

void SymbolicGraph::seal_wave() {
  intern_.seal_wave();
  // Seal the facts side map too: its ids go unused, but sealing
  // drains the pending lists and lets overloaded stripes rehash (a
  // model with many distinct location vectors would otherwise degrade
  // to linear chain scans).
  facts_.seal_wave();
  if (intern_.size() > options_.max_keys) {
    throw ExplorationLimit("discrete state limit exceeded");
  }
  reach_.resize(intern_.size(), dbm::PooledFed(sys_->clock_count()));
}

void SymbolicGraph::collect_guard(const EdgeRef& ref, Dbm& zone,
                                  bool& alive) const {
  if (!alive) return;
  const Edge& e = sys_->processes()[ref.process].edges()[ref.edge];
  for (const ClockConstraint& c : e.guard) {
    if (!zone.constrain(c.i, c.j, c.bound)) {
      alive = false;
      return;
    }
  }
}

namespace {

// Calls fn(clock, value) once per clock the instance resets, in the
// order of first write, with the last value written (sender before
// receiver, matching the concrete semantics).  Allocates nothing.
template <typename Fn>
void for_each_reset(const tsystem::System& sys, const TransitionInstance& t,
                    const Fn& fn) {
  const auto resets_of = [&](const EdgeRef& ref) {
    return std::span<const tsystem::ClockReset>(
        sys.processes()[ref.process].edges()[ref.edge].resets);
  };
  const auto first = resets_of(t.primary);
  const auto second = t.receiver ? resets_of(*t.receiver)
                                 : std::span<const tsystem::ClockReset>{};
  const std::size_t total = first.size() + second.size();
  const auto at = [&](std::size_t i) -> const tsystem::ClockReset& {
    return i < first.size() ? first[i] : second[i - first.size()];
  };
  for (std::size_t i = 0; i < total; ++i) {
    const std::uint32_t clock = at(i).clock;
    bool written_before = false;
    for (std::size_t j = 0; j < i && !written_before; ++j) {
      written_before = at(j).clock == clock;
    }
    if (written_before) continue;
    dbm::bound_t value = at(i).value;
    for (std::size_t j = i + 1; j < total; ++j) {
      if (at(j).clock == clock) value = at(j).value;
    }
    fn(clock, value);
  }
}

void apply_discrete_effects(const tsystem::System& sys, DiscreteKey& key,
                            const EdgeRef& ref) {
  const Edge& e = sys.processes()[ref.process].edges()[ref.edge];
  key.locs[ref.process] = e.dst;
  for (const auto& a : e.assignments) {
    const std::int64_t index =
        a.index.is_null() ? 0 : a.index.eval(key.data, sys.data());
    const std::int64_t value = a.rhs.eval(key.data, sys.data());
    sys.data().checked_store(key.data, a.var, index, value);
  }
}

}  // namespace

bool SymbolicGraph::successor(std::uint32_t src_key, const Dbm& src_zone,
                              const TransitionInstance& inst,
                              DiscreteKey& key, Dbm& zone) const {
  // Data guards must already hold (instances are enumerated per key).
  zone = src_zone;
  bool alive = true;
  collect_guard(inst.primary, zone, alive);
  if (inst.receiver) collect_guard(*inst.receiver, zone, alive);
  if (!alive) return false;

  key = this->key(src_key);
  apply_discrete_effects(*sys_, key, inst.primary);
  if (inst.receiver) apply_discrete_effects(*sys_, key, *inst.receiver);

  for_each_reset(*sys_, inst, [&](std::uint32_t clock, dbm::bound_t value) {
    zone.reset(clock, value);
  });

  // Target invariant, then delay closure (unless time is frozen there).
  const auto& procs = sys_->processes();
  for (std::uint32_t p = 0; p < procs.size(); ++p) {
    for (const ClockConstraint& c : procs[p].locations()[key.locs[p]].invariant) {
      if (!zone.constrain(c.i, c.j, c.bound)) return false;
    }
  }
  // The target's facts may still be under construction by another
  // worker of this wave, so urgency is read off the model directly.
  if (!semantics::time_frozen(*sys_, key.locs)) {
    zone.up();
    for (std::uint32_t p = 0; p < procs.size(); ++p) {
      for (const ClockConstraint& c :
           procs[p].locations()[key.locs[p]].invariant) {
        const bool ok = zone.constrain(c.i, c.j, c.bound);
        TIGAT_ASSERT(ok, "delay closure emptied a non-empty zone");
      }
    }
  }
  return true;
}

void SymbolicGraph::explore(util::ThreadPool* pool) {
  if (explored_) return;
  TIGAT_SPAN("explore");
  const std::uint32_t dim = sys_->clock_count();

  // Initial symbolic state.
  DiscreteKey init;
  for (const auto& p : sys_->processes()) init.locs.push_back(p.initial());
  init.data = sys_->data().initial_state();

  {
    auto [entry, inserted] = intern_.intern(init, init.hash(), 0);
    TIGAT_ASSERT(inserted, "fresh interner already held the initial key");
    fill_facts(*entry);
    seal_wave();  // initial key gets id 0
  }
  {
    const std::uint32_t k0 = 0;
    bool alive = !invariant(k0).is_empty();
    Dbm z = Dbm::zero(dim);
    if (alive) alive = z.intersect_with(invariant(k0));
    TIGAT_ASSERT(alive, "initial state violates invariants");
    if (!time_frozen(k0)) {
      z.up();
      const bool ok = z.intersect_with(invariant(k0));
      TIGAT_ASSERT(ok, "initial delay closure empty");
    }
    if (options_.extrapolate) z.extrapolate_max_bounds(max_constants_);
    reach_[k0].add(z, pool_);
  }

  // A FIFO queue drains in waves (everything currently queued is one
  // wave; its successors form the next).  Successor EXPANSION — the
  // expensive Dbm work — only reads state fixed before the wave (key
  // entries, invariants, the wave's own zones), so it fans out over
  // the pool into per-item slots.  Each successor's key is interned
  // into the striped map right in the worker, tagged with its rank
  // (wave item index, successor index) — the position the serial FIFO
  // would process it at.  seal_wave() then numbers the new keys in
  // rank order, and the serial merge records edges and applies
  // subsumption in item order: the numbering, edge list and reach sets
  // equal the serial algorithm's exactly, at any thread count.
  //
  // Waves are processed in BATCHES (expand a slice, seal, merge it,
  // next slice) so the uncompressed successor buffers stay bounded —
  // an n = 6 LEP frontier holds millions of zones.  Batching preserves
  // the numbering: slices cover the wave in index order, and a key's
  // first discovery lands in the earliest slice that mentions it, so
  // per-slice rank-sorted sealing equals whole-wave sealing.  The
  // frontier itself is stored as row ids (the rows were interned when
  // the zone entered reach) and decoded per item.
  struct Successor {
    InternMap::Entry* entry;
    Dbm zone;
    TransitionInstance inst;
  };
  constexpr std::uint64_t kRankShift = 24;  // successors per wave item
  constexpr std::size_t kExpandBatch = 1u << 15;
  // Wave items per chunk: the chunk's successor scratch is reused across
  // them, and stealing still balances items of uneven fan-out.
  constexpr std::size_t kExpandGrain = 8;
  std::vector<std::uint32_t> wave_keys{0}, next_wave_keys;
  // dim row ids per frontier zone; k0's single zone is reach_[0]'s.
  const auto k0_ids = reach_[0].last_zone_ids();
  std::vector<dbm::ZonePool::RowId> wave_rows(k0_ids.begin(), k0_ids.end());
  std::vector<dbm::ZonePool::RowId> next_wave_rows;
  std::vector<std::vector<Successor>> expanded;
  // Decodes frontier zone i.
  const auto wave_zone_at = [&](std::size_t i) {
    return Dbm::from_rows(dim, [&](std::uint32_t r) {
      return pool_.row(wave_rows[i * dim + r]);
    });
  };

  const util::Stopwatch watch;
  std::size_t zone_count = 1;
  std::size_t merged = 0;
  std::uint64_t wave_index = 0;
  while (!wave_keys.empty()) {
    ++wave_index;
    const std::size_t wave_size = wave_keys.size();
    for (std::size_t base = 0; base < wave_size; base += kExpandBatch) {
      const std::size_t count = std::min(kExpandBatch, wave_size - base);
      obs::progress().tick("explore", intern_.size(), zone_count, wave_index);
      const double batch_start = watch.seconds();
      expanded.assign(count, {});
      const auto expand = [&](std::size_t begin, std::size_t end) {
        // Scratch for the successor being built: the key is copied into
        // the interner only when it is new, the zone moves into `out`.
        DiscreteKey next_key;
        Dbm next_zone;
        for (std::size_t li = begin; li < end; ++li) {
          // Budget checks live here too, not only in the merge: a wide
          // batch must not overshoot the deadline or the zone-byte cap
          // by a whole batch's worth of expansion work.  (Throws
          // propagate through ThreadPool::parallel_for.)
          if (options_.deadline_seconds > 0.0 &&
              watch.seconds() > options_.deadline_seconds) {
            throw ExplorationLimit("exploration deadline exceeded");
          }
          if (util::zone_memory().current() > options_.max_zone_bytes) {
            throw ExplorationLimit("zone memory budget exceeded");
          }
          // Sealed-key count is frozen during a batch, so this check is
          // deterministic; it bounds the overshoot past max_keys to one
          // batch's fan-out (seal_wave re-checks exactly).
          if (intern_.size() > options_.max_keys) {
            throw ExplorationLimit("discrete state limit exceeded");
          }
          const std::size_t gi = base + li;
          const std::uint32_t k = wave_keys[gi];
          const Dbm z = wave_zone_at(gi);
          const std::vector<TransitionInstance>& instances =
              intern_.entry(k)->aux->instances;
          std::vector<Successor>& out = expanded[li];
          out.reserve(instances.size());
          for (const TransitionInstance& inst : instances) {
            // Data guards: evaluated once per (key, instance).
            const auto data_ok = [&](const EdgeRef& ref) {
              const Edge& e = sys_->processes()[ref.process].edges()[ref.edge];
              return e.data_guard.eval_bool(key(k).data, sys_->data());
            };
            if (!data_ok(inst.primary)) continue;
            if (inst.receiver && !data_ok(*inst.receiver)) continue;

            if (!successor(k, z, inst, next_key, next_zone)) continue;
            if (options_.extrapolate) {
              next_zone.extrapolate_max_bounds(max_constants_);
            }
            TIGAT_ASSERT(out.size() < (1u << kRankShift),
                         "successor fan-out exceeds the rank encoding");
            const std::uint64_t rank =
                (static_cast<std::uint64_t>(gi) << kRankShift) | out.size();
            auto [entry, inserted] =
                intern_.intern(next_key, next_key.hash(), rank);
            if (inserted) fill_facts(*entry);
            out.push_back({entry, std::move(next_zone), inst});
          }
        }
      };
      if (pool != nullptr) {
        pool->parallel_for(count, kExpandGrain, expand, "explore.expand");
      } else {
        TIGAT_SPAN("explore.expand");
        expand(0, count);
      }
      const double expand_end = watch.seconds();
      expand_seconds_ += expand_end - batch_start;

      {
        TIGAT_SPAN("explore.seal");
        seal_wave();
      }
      TIGAT_SPAN("explore.merge");
      for (std::size_t li = 0; li < count; ++li) {
        const std::uint32_t k = wave_keys[base + li];
        if (options_.deadline_seconds > 0.0 && (++merged & 1023u) == 0 &&
            watch.seconds() > options_.deadline_seconds) {
          throw ExplorationLimit("exploration deadline exceeded");
        }
        for (Successor& s : expanded[li]) {
          const std::uint32_t kd = s.entry->id;
          // Record the symbolic edge once per (src, instance, dst); the
          // out-index doubles as the exact dedup structure.
          if (out_building_.size() < intern_.size()) {
            out_building_.resize(intern_.size());
          }
          bool duplicate = false;
          for (const std::uint32_t ei : out_building_[k]) {
            if (edges_[ei].dst == kd && edges_[ei].inst == s.inst) {
              duplicate = true;
              break;
            }
          }
          if (!duplicate) {
            out_building_[k].push_back(
                static_cast<std::uint32_t>(edges_.size()));
            // Explicit +12.5% growth: at LEP n = 6 the edge list is
            // ~3 GB, so the default doubling would spike the peak by
            // that much on one realloc.
            if (edges_.size() == edges_.capacity() &&
                edges_.capacity() > (std::size_t{1} << 20)) {
              edges_.reserve(edges_.capacity() + edges_.capacity() / 8);
            }
            edges_.push_back({k, kd, s.inst});
          }

          // Subsumption: add() skips zones already covered by a single
          // member (and drops the members the new zone covers).
          if (!reach_[kd].add(s.zone, pool_)) continue;
          next_wave_keys.push_back(kd);
          // Reuse the row ids add() just interned for this zone.
          const auto ids = reach_[kd].last_zone_ids();
          next_wave_rows.insert(next_wave_rows.end(), ids.begin(), ids.end());
          ++zone_count;
          if (zone_count > options_.max_zones) {
            throw ExplorationLimit("zone limit exceeded");
          }
          if (util::zone_memory().current() > options_.max_zone_bytes) {
            throw ExplorationLimit("zone memory budget exceeded");
          }
        }
      }
      merge_seconds_ += watch.seconds() - expand_end;
    }
    wave_keys.swap(next_wave_keys);
    wave_rows.swap(next_wave_rows);
    next_wave_keys.clear();
    next_wave_rows.clear();
  }

  {
    TIGAT_SPAN("explore.index");
    const double t0 = watch.seconds();
    build_edge_index();
    merge_seconds_ += watch.seconds() - t0;
  }
  explored_ = true;
}

void SymbolicGraph::build_edge_index() {
  const std::size_t n = intern_.size();
  out_building_.resize(n);
  // Flatten the incrementally built out-index and count-prefix-fill the
  // in-index, both as CSR (offsets + one flat array): at large n the
  // per-key vector headers dominate the index payload.
  out_off_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    out_off_[k + 1] =
        out_off_[k] + static_cast<std::uint32_t>(out_building_[k].size());
  }
  out_flat_.resize(edges_.size());
  for (std::size_t k = 0; k < n; ++k) {
    std::copy(out_building_[k].begin(), out_building_[k].end(),
              out_flat_.begin() + out_off_[k]);
  }
  out_building_.clear();
  out_building_.shrink_to_fit();

  in_off_.assign(n + 1, 0);
  for (const SymbolicEdge& e : edges_) ++in_off_[e.dst + 1];
  for (std::size_t k = 0; k < n; ++k) in_off_[k + 1] += in_off_[k];
  in_flat_.resize(edges_.size());
  std::vector<std::uint32_t> cursor(in_off_.begin(), in_off_.end() - 1);
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    in_flat_[cursor[edges_[i].dst]++] = i;
  }
}

std::span<const std::uint32_t> SymbolicGraph::edges_out(
    std::uint32_t k) const {
  return {out_flat_.data() + out_off_[k], out_off_[k + 1] - out_off_[k]};
}

std::span<const std::uint32_t> SymbolicGraph::edges_in(std::uint32_t k) const {
  return {in_flat_.data() + in_off_[k], in_off_[k + 1] - in_off_[k]};
}

void SymbolicGraph::pred_through(const SymbolicEdge& e, const Fed& target,
                                 Fed& out) const {
  TIGAT_ASSERT(&out != &target, "pred_through into its own target");
  out.clear();
  for (const Dbm& w : target.zones()) {
    Dbm z(w);
    bool alive = true;
    // Pin every reset clock to its written value, then free it.
    for_each_reset(*sys_, e.inst, [&](std::uint32_t clock, dbm::bound_t value) {
      alive = alive && z.constrain(clock, 0, dbm::make_weak(value)) &&
              z.constrain(0, clock, dbm::make_weak(-value));
    });
    if (!alive) continue;
    for_each_reset(*sys_, e.inst, [&](std::uint32_t clock, dbm::bound_t) {
      z.free(clock);
    });
    collect_guard(e.inst.primary, z, alive);
    if (e.inst.receiver) collect_guard(*e.inst.receiver, z, alive);
    if (alive) out.add(std::move(z));
  }
}

SymbolicGraph::Stats SymbolicGraph::stats() const {
  Stats s;
  s.keys = intern_.size();
  s.edges = edges_.size();
  for (const dbm::PooledFed& f : reach_) s.zones += f.size();
  s.expand_seconds = expand_seconds_;
  s.merge_seconds = merge_seconds_;
  return s;
}

}  // namespace tigat::semantics
