// Micro-benchmarks of the symbolic substrate (ablation A2 in
// DESIGN.md): the DBM/federation operations whose cost dominates the
// game fixpoint — closure, intersection, delay operators, subtraction,
// pred_t, and the federation maintenance (add/reduce with the
// bound-signature pre-filter).  --json / TIGAT_BENCH_JSON writes the gbench JSON to
// BENCH_micro_dbm.json.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.h"
#include "dbm/dbm.h"
#include "dbm/federation.h"
#include "util/rng.h"

namespace {

using namespace tigat::dbm;

Dbm random_zone(tigat::util::Rng& rng, std::uint32_t dim, std::int32_t k) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Dbm z = Dbm::universal(dim);
    for (std::uint32_t i = 1; i < dim; ++i) {
      z.constrain(i, 0, make_weak(static_cast<bound_t>(rng.range(1, k))));
    }
    bool alive = true;
    for (int c = 0; c < 4 && alive; ++c) {
      const auto i = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      const auto j = static_cast<std::uint32_t>(rng.range(0, dim - 1));
      if (i == j) continue;
      alive = z.constrain(i, j, make_weak(static_cast<bound_t>(rng.range(-k, k))));
    }
    if (alive) return z;
  }
  return Dbm::universal(dim);
}

void BM_Close(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(7);
  const Dbm z = random_zone(rng, dim, 50);
  for (auto _ : state) {
    Dbm copy(z);
    benchmark::DoNotOptimize(copy.close());
  }
}
BENCHMARK(BM_Close)->Arg(3)->Arg(6)->Arg(10)->Arg(16);

void BM_Constrain(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(11);
  const Dbm z = random_zone(rng, dim, 50);
  for (auto _ : state) {
    Dbm copy(z);
    benchmark::DoNotOptimize(copy.constrain(1, 0, make_weak(5)));
  }
}
BENCHMARK(BM_Constrain)->Arg(3)->Arg(6)->Arg(10)->Arg(16);

// Dbm::intersect_with tightens through the other zone's stricter
// bounds with constrain()'s incremental closure instead of closing the
// pointwise minimum.  The second zone is an independent random zone, so
// most pairs overlap and tighten a few bounds.
void BM_IntersectWith(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(41);
  const Dbm a = random_zone(rng, dim, 50);
  const Dbm b = random_zone(rng, dim, 50);
  for (auto _ : state) {
    Dbm copy(a);
    benchmark::DoNotOptimize(copy.intersect_with(b));
  }
}
BENCHMARK(BM_IntersectWith)->Arg(3)->Arg(6)->Arg(10);

// Fed::intersection into a reused output federation, the form the
// fixpoint and the compiler call: every member pair intersected, the
// survivors added with inclusion filtering.
void BM_FedIntersection(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto zones = static_cast<int>(state.range(1));
  tigat::util::Rng rng(43);
  Fed a(dim);
  Fed b(dim);
  for (int i = 0; i < zones; ++i) {
    a.add(random_zone(rng, dim, 50));
    b.add(random_zone(rng, dim, 50));
  }
  Fed out(dim);
  for (auto _ : state) {
    a.intersection(b, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_FedIntersection)
    ->Args({3, 2})
    ->Args({3, 8})
    ->Args({6, 2})
    ->Args({6, 8});

void BM_UpDown(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(13);
  const Dbm z = random_zone(rng, dim, 50);
  for (auto _ : state) {
    Dbm copy(z);
    copy.up();
    copy.down();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_UpDown)->Arg(3)->Arg(6)->Arg(10);

void BM_Subtract(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(17);
  const Dbm a = random_zone(rng, dim, 50);
  const Dbm b = random_zone(rng, dim, 50);
  std::vector<Dbm> pieces;
  for (auto _ : state) {
    pieces.clear();
    subtract(a, b, pieces);
    benchmark::DoNotOptimize(pieces.data());
  }
}
BENCHMARK(BM_Subtract)->Arg(3)->Arg(6)->Arg(10);

void BM_PredT(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto zones = static_cast<int>(state.range(1));
  tigat::util::Rng rng(23);
  Fed good(dim);
  Fed bad(dim);
  for (int i = 0; i < zones; ++i) {
    good.add(random_zone(rng, dim, 50));
    bad.add(random_zone(rng, dim, 50));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(good.pred_t(bad));
  }
}
BENCHMARK(BM_PredT)->Args({3, 1})->Args({3, 4})->Args({6, 1})->Args({6, 4});

void BM_FedSubset(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  tigat::util::Rng rng(29);
  Fed a(dim);
  Fed b(dim);
  for (int i = 0; i < 4; ++i) {
    a.add(random_zone(rng, dim, 50));
    b.add(random_zone(rng, dim, 50));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.is_subset_of(b));
  }
}
BENCHMARK(BM_FedSubset)->Arg(3)->Arg(6);

// Fed::add at growing member counts: the quadratic-in-practice path the
// single-pass relation() scan keeps flat.
void BM_FedAdd(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto zones = static_cast<int>(state.range(1));
  tigat::util::Rng rng(31);
  std::vector<Dbm> pool;
  pool.reserve(static_cast<std::size_t>(zones));
  for (int i = 0; i < zones; ++i) pool.push_back(random_zone(rng, dim, 50));
  for (auto _ : state) {
    Fed f(dim);
    for (const Dbm& z : pool) f.add(z);
    benchmark::DoNotOptimize(f.size());
  }
}
BENCHMARK(BM_FedAdd)->Args({3, 8})->Args({3, 32})->Args({6, 8})->Args({6, 32});

// Fed::reduce with duplicates and strict subsets mixed in — exercises
// the bound-signature pre-filter (most pairs skip the full relation()).
void BM_FedReduce(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto zones = static_cast<int>(state.range(1));
  tigat::util::Rng rng(37);
  std::vector<Dbm> pool;
  for (int i = 0; i < zones; ++i) {
    Dbm z = random_zone(rng, dim, 50);
    Dbm shrunk(z);
    shrunk.constrain(1, 0, make_weak(static_cast<bound_t>(rng.range(5, 40))));
    pool.push_back(std::move(z));
    if (!shrunk.is_empty()) pool.push_back(std::move(shrunk));
  }
  for (auto _ : state) {
    state.PauseTiming();
    Fed f(dim);
    for (const Dbm& z : pool) f |= z;
    state.ResumeTiming();
    f.reduce();
    benchmark::DoNotOptimize(f.size());
  }
}
BENCHMARK(BM_FedReduce)->Args({3, 16})->Args({6, 16})->Args({6, 64});

}  // namespace

int main(int argc, char** argv) {
  return tigat::benchio::gbench_main(argc, argv, "micro_dbm");
}
