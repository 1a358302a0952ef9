// table2_corpus: the paper's Table 2 TSVD row on a seeded corpus at scale 0.02.
//
// Each timed unit is one module: an uninstrumented baseline run
// (ModuleRunner::MeasureBaseline) followed by two instrumented runs
// (ModuleRunner::RunOnce) with trap-file carry-over. Units cycle through the
// corpus until the clock runs out; the first two full passes always complete.
// The bug yield is the median over complete passes of the bugs each pass finds:
// which planted races a pass catches is chance, and one pass alone moved the
// count by a bug or two, 7% of it.
//
// The corpus has the shape of the repository's Table 2 corpus (CorpusOptions'
// defaults: one planted bug in 30% of the modules, 2 to 4 safe tests each), but
// is stratified: the number of buggy modules and the count of every pattern are
// fixed by the generator's own weights, and --seed chooses which modules carry
// them, test order and every module's workload randomness. GenerateCorpus
// decides each module's bug on its own, so at 100 modules the planted count
// alone varies by about 15% (one binomial standard deviation) between seeds;
// stratified, bugs_found stays comparable across seeds.
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/tasks/thread_pool.h"
#include "src/workload/corpus.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"
#include "src/workload/scaling.h"

namespace perfbench {
namespace {

using tsvd::LocationPair;
using tsvd::Rng;
using tsvd::workload::ModuleRunner;
using tsvd::workload::ModuleSpec;
using tsvd::workload::PatternId;

constexpr double kScale = 0.02;
constexpr int kModules = 100;
constexpr int kSmokeModules = 6;
constexpr int kLayerPassModules = 8;
constexpr int kSetups = 5;
constexpr uint64_t kMinPasses = 2;
// The warm-up is the same in every run, whatever the seed, so that setup_s
// does not change with the modules a seed puts first.
constexpr int kWarmupModules = 4;
constexpr uint64_t kWarmupSeed = 0x5eed;
// Draws of the generator's weighted pattern choice that estimate its shares.
constexpr int kShareDraws = 1 << 16;
constexpr uint64_t kShareSeed = 0x7ab1e2;

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Exactly `count` patterns, each in the share `draw` gives it: shares estimated
// from kShareDraws draws, then apportioned by largest remainder.
std::vector<PatternId> Apportion(PatternId (*draw)(Rng&), int count) {
  Rng rng(kShareSeed);
  std::map<PatternId, int> hits;
  for (int i = 0; i < kShareDraws; ++i) {
    ++hits[draw(rng)];
  }
  std::vector<PatternId> out;
  std::vector<std::pair<double, PatternId>> remainders;
  for (const auto& [id, n] : hits) {
    const double quota = static_cast<double>(count) * n / kShareDraws;
    out.insert(out.end(), static_cast<size_t>(quota), id);
    remainders.push_back({quota - static_cast<int>(quota), id});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; out.size() < static_cast<size_t>(count); ++i) {
    out.push_back(remainders[i].second);
  }
  return out;
}

std::vector<ModuleSpec> StratifiedCorpus(int n, uint64_t seed) {
  using tsvd::workload::MakeTest;
  const tsvd::workload::CorpusOptions shape;

  const int n_buggy = static_cast<int>(n * shape.buggy_module_fraction + 0.5);
  std::vector<PatternId> buggy =
      Apportion(tsvd::workload::DrawBuggyPattern, n_buggy);
  std::vector<int> safe_counts;  // every count from min to max, in equal shares
  int total_safe = 0;
  const int span = shape.safe_tests_max - shape.safe_tests_min + 1;
  for (int m = 0; m < n; ++m) {
    safe_counts.push_back(shape.safe_tests_min + m % span);
    total_safe += safe_counts.back();
  }
  std::vector<PatternId> safe = Apportion(tsvd::workload::DrawSafePattern, total_safe);

  Rng rng(seed);
  Shuffle(buggy, rng);
  Shuffle(safe, rng);
  Shuffle(safe_counts, rng);
  std::vector<char> is_buggy(static_cast<size_t>(n), 0);
  std::fill(is_buggy.begin(), is_buggy.begin() + n_buggy, 1);
  Shuffle(is_buggy, rng);

  std::vector<ModuleSpec> corpus;
  size_t next_safe = 0;
  size_t next_buggy = 0;
  for (int m = 0; m < n; ++m) {
    ModuleSpec spec;
    spec.name = "module-" + std::to_string(m);
    spec.seed = rng.Next();
    spec.params = tsvd::workload::ScaledParams(kScale);
    for (int s = 0; s < safe_counts[m]; ++s) {
      spec.tests.push_back(MakeTest(safe[next_safe++]));
    }
    if (is_buggy[m] != 0) {
      const size_t pos = rng.NextBelow(spec.tests.size() + 1);
      spec.tests.insert(spec.tests.begin() + static_cast<long>(pos),
                        MakeTest(buggy[next_buggy++]));
    }
    corpus.push_back(std::move(spec));
  }
  return corpus;
}

// Everything a set of units measured.
struct Table2Totals {
  std::vector<double> inst_us;  // per module: sum of mean-instrumented over visits
  std::vector<double> base_us;  // per module: sum of baselines over visits
  std::vector<double> unit_s;   // per module: sum of unit wall times over visits
  std::vector<uint64_t> visits;  // per module: units run
  std::vector<double> run_ms;   // every instrumented run of the first pass
  std::vector<double> trace_ratio;  // traced over untraced wall, per module visit
  // Per pass over the corpus: distinct (module, site pair) caught.
  std::vector<std::set<std::tuple<int, tsvd::OpId, tsvd::OpId>>> pass_bugs;
  uint64_t units = 0;
  double layer_s = 0;       // sum of baseline + instrumented span durations
  double pass_wall_s = 0;
  uint64_t run_pairs = 0;  // bugs caught, summed over runs
  uint64_t oncall = 0, delays = 0, early = 0, aborted = 0, skipped = 0;
  double slept_us = 0, saved_us = 0, trap_set_sum = 0;
  double base_total_us = 0, inst_total_us = 0;

  explicit Table2Totals(size_t modules)
      : inst_us(modules, 0), base_us(modules, 0), unit_s(modules, 0), visits(modules, 0) {}
};

struct Table2Setup {
  std::vector<ModuleSpec> corpus;
  std::vector<ModuleSpec> warmup;
  std::unique_ptr<tsvd::tasks::ThreadPool> pool;
  std::unique_ptr<ModuleRunner> runner;
  double corpus_gen_ms = 0;
};

// Corpus generation, pool and runner construction, and a discarded warm-up
// (a baseline and an instrumented run of each warm-up module): everything
// before the first timed unit.
double SetUp(int modules, uint64_t seed, Table2Setup& s) {
  const int64_t t0 = NowNs();
  s.runner.reset();
  s.pool.reset();
  s.corpus = StratifiedCorpus(modules, seed);
  s.corpus_gen_ms = static_cast<double>(NowNs() - t0) / 1e6;
  s.warmup = StratifiedCorpus(kWarmupModules, kWarmupSeed);
  s.pool = std::make_unique<tsvd::tasks::ThreadPool>(
      tsvd::tasks::ThreadPool::kDefaultThreads);
  s.runner = std::make_unique<ModuleRunner>(tsvd::workload::ScaledConfig(kScale),
                                            s.pool.get());
  const auto factory = tsvd::workload::FactoryFor("TSVD");
  for (const ModuleSpec& spec : s.warmup) {
    s.runner->MeasureBaseline(spec, /*run_salt=*/0xfeed);
    s.runner->RunOnce(spec, factory, tsvd::TrapFile{}, 0xfeed);
  }
  return SecondsSince(t0);
}

// One timed unit on module `m`; returns its wall time in seconds.
double RunUnit(const Table2Setup& s, size_t m, uint64_t salt, uint64_t pass,
               uint64_t parent, uint64_t trace_id, Tracer& tracer, Result& result,
               Table2Totals& t) {
  const auto factory = tsvd::workload::FactoryFor("TSVD");
  const ModuleSpec& spec = s.corpus[m];
  const int64_t unit_start = NowNs();
  Span unit(tracer, "table2.unit", parent, trace_id);

  int64_t t0 = NowNs();
  const double base = static_cast<double>(s.runner->MeasureBaseline(spec, salt));
  int64_t t1 = NowNs();
  tracer.Add("workload.baseline", unit.id(), trace_id, t0, t1);
  t.layer_s += static_cast<double>(t1 - t0) / 1e9;
  ++result.attempted;

  tsvd::TrapFile carried;
  double inst_sum = 0;
  for (int r = 0; r < 2; ++r) {
    t0 = NowNs();
    tsvd::workload::SingleRun single =
        s.runner->RunOnce(spec, factory, carried, salt * 1000003ULL + r);
    t1 = NowNs();
    tracer.Add("workload.instrumented", unit.id(), trace_id, t0, t1);
    t.layer_s += static_cast<double>(t1 - t0) / 1e9;
    ++result.attempted;
    const tsvd::RunSummary& sum = single.run.summary;
    if (single.run.false_positives > 0) {
      result.Fail(spec.name + ": " + std::to_string(single.run.false_positives) +
                  " false positive(s)");
    } else if (sum.runtime_disabled || sum.internal_errors > 0) {
      result.Fail(spec.name + ": runtime internal errors");
    }
    const double wall = static_cast<double>(single.run.wall_us);
    inst_sum += wall;
    if (t.pass_bugs.size() <= pass) {
      t.pass_bugs.resize(pass + 1);
    }
    for (const LocationPair& pair : single.run.pairs) {
      t.pass_bugs[pass].insert({static_cast<int>(m), pair.first, pair.second});
    }
    if (pass == 0) {  // run times are the first full pass's
      t.run_ms.push_back(wall / 1e3);
    }
    t.run_pairs += single.run.pairs.size();
    t.oncall += sum.oncall_count;
    t.delays += sum.delays_injected;
    t.early += sum.delays_early_woken;
    t.aborted += sum.delays_aborted_stall;
    t.skipped += sum.delays_skipped_budget;
    t.slept_us += static_cast<double>(sum.total_delay_us);
    t.saved_us += static_cast<double>(sum.early_wake_saved_us);
    t.trap_set_sum += static_cast<double>(sum.trap_set_size);
    carried = std::move(single.traps);
  }
  t.inst_us[m] += inst_sum / 2;
  t.base_us[m] += base;
  t.base_total_us += base;
  t.inst_total_us += inst_sum;
  ++t.units;
  ++t.visits[m];
  const double unit_s = SecondsSince(unit_start);
  t.unit_s[m] += unit_s;
  result.SampleHeap();
  return unit_s;
}

// Runs units until `deadline_ns`, but at least `min_units`. With
// `interleave_trace` every module visit runs twice, once with the tracer off
// and once with it on, alternating which goes first, and the ratio of the two
// walls goes to t.trace_ratio.
void RunUnits(const Table2Setup& s, uint64_t salt_base, int64_t deadline_ns,
              uint64_t min_units, bool interleave_trace, Tracer& tracer, Result& result,
              Table2Totals& t) {
  const size_t n = s.corpus.size();
  const int64_t pass_start = NowNs();
  Span pass(tracer, "table2.pass");
  for (uint64_t i = 0; i < min_units || NowNs() < deadline_ns; ++i) {
    const size_t m = i % n;
    const uint64_t salt = salt_base + i / n;
    if (!interleave_trace) {
      RunUnit(s, m, salt, i / n, pass.id(), i + 1, tracer, result, t);
      continue;
    }
    double wall[2] = {0, 0};  // [untraced, traced]
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == ((i & 1) == 1);
      tracer.set_enabled(traced);
      wall[traced ? 1 : 0] =
          RunUnit(s, m, salt, i / n, pass.id(), i + 1, tracer, result, t);
    }
    tracer.set_enabled(true);
    t.trace_ratio.push_back(wall[1] / wall[0]);
  }
  t.pass_wall_s = SecondsSince(pass_start);
}

// Sum over modules of a per-module total divided by the module's visits: every
// module weighs once however often the clock let it run, so a partly covered
// last pass does not tilt the mix.
double PerModule(const std::vector<double>& totals, const std::vector<uint64_t>& visits) {
  double sum = 0;
  for (size_t m = 0; m < totals.size(); ++m) {
    if (visits[m] > 0) {
      sum += totals[m] / static_cast<double>(visits[m]);
    }
  }
  return sum;
}

void SetLayerMetrics(const Table2Totals& t, Result& result) {
  const double sleep_s = t.slept_us / 1e6;
  const double runs = 2.0 * static_cast<double>(t.units);
  result.Set("core.oncall_count", static_cast<double>(t.oncall), "count");
  result.Set("core.delays_injected", static_cast<double>(t.delays), "count");
  result.Set("core.delays_early_woken", static_cast<double>(t.early), "count");
  result.Set("core.delays_aborted_stall", static_cast<double>(t.aborted), "count");
  result.Set("core.delays_skipped_budget", static_cast<double>(t.skipped), "count");
  result.Set("core.delay_sleep_s", sleep_s, "s");
  result.Set("core.early_wake_saved_s", t.saved_us / 1e6, "s");
  // Instrumented minus two baselines (each unit runs two instrumented runs per
  // baseline) minus the time threads slept in delays.
  result.Set("core.mechanism_s",
             (t.inst_total_us - 2 * t.base_total_us) / 1e6 - sleep_s, "s");
  result.Set("core.delay_yield",
             t.delays > 0 ? 100.0 * static_cast<double>(t.run_pairs) /
                                static_cast<double>(t.delays)
                          : 0,
             "bugs/100delays");
  result.Set("core.trap_set_size", runs > 0 ? t.trap_set_sum / runs : 0, "pairs");
  result.Set("workload.baseline_s", t.base_total_us / 1e6, "s");
  result.Set("workload.instrumented_s", t.inst_total_us / 1e6, "s");
}

// Absolute throughput and latency. They follow the VM's CPU speed, so they are
// reported but not gated (see README.md).
void SetRunMetrics(const Table2Totals& t, Result& result) {
  const size_t n = t.unit_s.size();
  result.Set("workload.runs_per_s",
             3.0 * static_cast<double>(n) / PerModule(t.unit_s, t.visits), "1/s");
  result.Set("workload.run_ms_p50", Quantile(t.run_ms, 0.5), "ms");
  result.Set("workload.run_ms_p95", Quantile(t.run_ms, 0.95), "ms");
  result.Set("workload.run_samples", static_cast<double>(t.run_ms.size()), "count");
}

}  // namespace

void RunTable2Corpus(const Options& options, Tracer& tracer, Result& result) {
  const int modules = options.smoke ? kSmokeModules : kModules;
  Table2Setup setup;
  std::vector<double> setups;
  std::vector<double> gen_ms;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(SetUp(modules, options.seed, setup));
    gen_ms.push_back(setup.corpus_gen_ms);
  }
  const uint64_t salt_base = options.seed * 7919;
  const size_t n = setup.corpus.size();

  if (!options.trace) {
    Table2Totals t(n);
    RunUnits(setup, salt_base, NowNs() + static_cast<int64_t>(options.seconds * 1e9),
             kMinPasses * n, /*interleave_trace=*/false, tracer, result, t);
    result.Set("setup_s", Median(setups), "s");
    // Table 2 overhead: mean instrumented wall over baseline wall, pooled.
    result.Set("overhead_pct",
               100.0 * (PerModule(t.inst_us, t.visits) / PerModule(t.base_us, t.visits) -
                        1.0),
               "%");
    std::vector<double> per_pass;
    for (uint64_t p = 0; p < t.units / n; ++p) {
      per_pass.push_back(static_cast<double>(t.pass_bugs[p].size()));
    }
    const double bugs = Median(per_pass);
    result.Set("bugs_found", bugs, "count");
    SetRunMetrics(t, result);
    result.Set("peak_heap_mb", result.peak_heap_mb, "MB");
    if (bugs == 0) {
      result.Fail("table2_corpus found no bugs");
    }
    return;
  }

  Table2Totals t(n);
  RunUnits(setup, salt_base, NowNs() + static_cast<int64_t>(options.seconds * 1e9), n,
           /*interleave_trace=*/true, tracer, result, t);
  SetLayerMetrics(t, result);
  SetRunMetrics(t, result);
  result.Set("workload.corpus_gen_ms", Median(gen_ms), "ms");
  result.Set("trace_overhead_pct", 100.0 * (Median(t.trace_ratio) - 1.0), "%");
  result.Set("residual_pct", 100.0 * (t.pass_wall_s - t.layer_s) / t.pass_wall_s, "%");
}

void Table2LayerPass(const Options& options, Tracer& tracer, Result& result) {
  Table2Setup setup;
  SetUp(kLayerPassModules, options.seed, setup);
  Table2Totals t(setup.corpus.size());
  RunUnits(setup, options.seed * 7919, 0, setup.corpus.size(),
           /*interleave_trace=*/false, tracer, result, t);
  SetLayerMetrics(t, result);
  SetRunMetrics(t, result);
}

}  // namespace perfbench
