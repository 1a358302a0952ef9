// calls_dense: the per-call cost of instrumentation on a dense, sleep-free stream.
//
// Two threads (the main thread and one worker) execute pre-generated streams of
// instrumented Dictionary/List calls. Most objects are private to one thread; one
// call in kSharedEvery goes to a small pool both threads write, so the near-miss
// tracker and the trap set see real cross-thread conflicts. delay_us is 0, so a
// thread that decides to trap returns at once and nothing ever parks. Each
// thread's private working set (2 x kPrivateObjects objects) is far larger than
// the near-miss tracker's MRU ways.
//
// The unit is a pair of short blocks run back to back by both threads: one with
// no runtime bound (the uninstrumented baseline) and one bound to the Runtime.
// The per-pair ratio of their wall times cancels the CPU-speed drift of a shared
// VM, which shifts absolute ns per call by tens of percent from run to run; the
// workload reports the median ratio.
//
// CallPathProbe reuses the same streams and threads to time each layer of the
// call path alone: the wrapper with no runtime, call-site interning,
// Runtime::OnCall, Detector::OnCall and the near-miss tracker, all with one clock.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <source_location>
#include <thread>
#include <unordered_set>

#include "perfbench/src/bench.h"
#include "src/common/execution_context.h"
#include "src/common/rng.h"
#include "src/common/thread_id.h"
#include "src/core/nearmiss_tracker.h"
#include "src/core/runtime.h"
#include "src/core/tsvd_detector.h"
#include "src/instrument/dictionary.h"
#include "src/instrument/list.h"
#include "src/workload/scaling.h"

namespace perfbench {
namespace {

using tsvd::OpKind;

constexpr int kThreads = 2;
constexpr int kPrivateObjects = 256;  // per thread, per container type
constexpr int kSharedObjects = 8;     // per container type
constexpr int kSharedEvery = 16;
constexpr int kKeys = 16;
constexpr size_t kStreamLen = 1 << 14;
constexpr int kBlockCalls = 20'000;
constexpr int kWarmupPairs = 50;
constexpr int kMinPairs = 10;
constexpr int kSetups = 3;
constexpr int kProbeRounds = 40;
constexpr int kEpochs = 8;
constexpr int kEpilogueMaxBlocks = 64;
constexpr int kEpilogueQuiet = 8;

inline uint64_t ValueFor(uint64_t key) { return key * 2654435761ULL + 7; }

enum class BlockKind {
  kBaseline,      // containers, no runtime bound
  kInstrumented,  // containers, runtime bound
  kNoop,          // InstrumentPoint alone, no runtime bound
  kIntern,        // call-site interning alone
  kOnCall,        // Runtime::OnCall alone
  kDetector,      // TsvdDetector::OnCall alone
  kNearMiss,      // NearMissTracker alone
  kTrapping,      // containers, trapping runtime bound (the epilogue)
};

struct StreamOp {
  uint16_t object;  // index into the thread's object table
  uint8_t key;
  // 0 dict read, 1 dict write, 2 list read, 3 list write; +4 for the same call
  // made from the code path that handles shared objects.
  uint8_t site;
};

constexpr int kSites = 8;

using Dict = tsvd::Dictionary<uint64_t, uint64_t>;
using List = tsvd::List<uint64_t>;

// Call sites for the probes, which call the layers directly: one per container
// call site of Exec, with the same API and kind.
struct SiteTable {
  std::source_location loc[kSites];
  const char* api[kSites];
  OpKind kind[kSites];
  tsvd::OpId op[kSites] = {};
};

struct DenseState {
  // Object table per thread: private objects first, then the shared ones.
  std::vector<std::unique_ptr<Dict>> private_dicts[kThreads];
  std::vector<std::unique_ptr<List>> private_lists[kThreads];
  std::vector<std::unique_ptr<Dict>> shared_dicts;
  std::vector<std::unique_ptr<List>> shared_lists;
  std::vector<Dict*> dicts[kThreads];
  std::vector<List*> lists[kThreads];
  std::vector<StreamOp> stream[kThreads];
  size_t pos[kThreads] = {};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> conflicts{0};
  SiteTable sites;

  tsvd::Config config;
  std::unique_ptr<tsvd::Runtime> runtime;
  // Stand-alone layers for the call-path probe.
  std::unique_ptr<tsvd::Runtime> probe_runtime;
  std::unique_ptr<tsvd::TsvdDetector> detector;
  std::unique_ptr<tsvd::NearMissTracker> tracker;
  // Runtime with real delays for the epilogue that checks the shared objects'
  // races are caught.
  std::unique_ptr<tsvd::Runtime> trap_runtime;

  // Block hand-off between the main thread and the worker.
  std::atomic<uint64_t> generation{0};
  std::atomic<uint64_t> done{0};
  std::atomic<int> kind{0};
  std::atomic<bool> stop{false};
  std::thread worker;
  // The main thread's CPU mask before Build pinned it; restored by Teardown.
  cpu_set_t main_mask;
  bool pinned = false;
};

bool Check(DenseState& s, bool ok) {
  if (!ok) {
    s.mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

// Private and shared objects are reached through different call sites, as in
// code where a shared cache and a local table are separate code paths; only the
// shared sites can ever form a dangerous pair.
void Exec(DenseState& s, int t, const StreamOp& op) {
  uint64_t v = 0;
  Dict& d = *s.dicts[t][op.object];
  List& l = *s.lists[t][op.object];
  switch (op.site) {
    case 0:
      Check(s, !d.TryGetValue(op.key, &v) || v == ValueFor(op.key));
      break;
    case 1:
      d.Set(op.key, ValueFor(op.key));
      break;
    case 2:
      Check(s, l.Get(op.key) == ValueFor(op.key));
      break;
    case 3:
      l.Set(op.key, ValueFor(op.key));
      break;
    case 4:
      Check(s, !d.TryGetValue(op.key, &v) || v == ValueFor(op.key));
      break;
    case 5:
      d.Set(op.key, ValueFor(op.key));
      break;
    case 6:
      Check(s, l.Get(op.key) == ValueFor(op.key));
      break;
    default:
      l.Set(op.key, ValueFor(op.key));
      break;
  }
}

const void* ObjectOf(DenseState& s, int t, const StreamOp& op) {
  return op.site % 4 < 2 ? static_cast<const void*>(s.dicts[t][op.object])
                     : static_cast<const void*>(s.lists[t][op.object]);
}

void RunBlock(DenseState& s, int t, BlockKind kind) {
  const std::vector<StreamOp>& stream = s.stream[t];
  size_t pos = s.pos[t];
  switch (kind) {
    case BlockKind::kBaseline:
    case BlockKind::kInstrumented:
    case BlockKind::kTrapping: {
      tsvd::Runtime::ThreadBinding bind(kind == BlockKind::kInstrumented ? s.runtime.get()
                                        : kind == BlockKind::kTrapping ? s.trap_runtime.get()
                                                                        : nullptr);
      for (int c = 0; c < kBlockCalls; ++c) {
        Exec(s, t, stream[pos++ & (kStreamLen - 1)]);
      }
      break;
    }
    case BlockKind::kNoop: {
      tsvd::Runtime::ThreadBinding bind(nullptr);
      for (int c = 0; c < kBlockCalls; ++c) {
        const StreamOp& op = stream[pos++ & (kStreamLen - 1)];
        tsvd::InstrumentPoint(ObjectOf(s, t, op), s.sites.api[op.site],
                              s.sites.kind[op.site], s.sites.loc[op.site]);
      }
      break;
    }
    case BlockKind::kIntern: {
      uint64_t sink = 0;
      for (int c = 0; c < kBlockCalls; ++c) {
        const StreamOp& op = stream[pos++ & (kStreamLen - 1)];
        sink += tsvd::internal::InternCached(s.sites.loc[op.site], s.sites.api[op.site],
                                             s.sites.kind[op.site]);
      }
      if (sink == 0) {
        s.mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    case BlockKind::kOnCall: {
      for (int c = 0; c < kBlockCalls; ++c) {
        const StreamOp& op = stream[pos++ & (kStreamLen - 1)];
        s.probe_runtime->OnCall(tsvd::ObjectIdOf(ObjectOf(s, t, op)),
                                s.sites.op[op.site], s.sites.kind[op.site]);
      }
      break;
    }
    case BlockKind::kDetector:
    case BlockKind::kNearMiss: {
      tsvd::Access access;
      access.tid = tsvd::CurrentThreadId();
      access.ctx = tsvd::CurrentCtx();
      access.concurrent_phase = true;
      tsvd::NearMissTracker::ConflictBuffer buf;
      uint64_t found = 0;
      for (int c = 0; c < kBlockCalls; ++c) {
        const StreamOp& op = stream[pos++ & (kStreamLen - 1)];
        access.obj = tsvd::ObjectIdOf(ObjectOf(s, t, op));
        access.op = s.sites.op[op.site];
        access.kind = s.sites.kind[op.site];
        access.time = tsvd::NowMicros();
        if (kind == BlockKind::kDetector) {
          s.detector->OnCall(access);
        } else {
          buf.clear();
          s.tracker->RecordAndFindConflicts(access, buf);
          found += buf.size();
        }
      }
      s.conflicts.fetch_add(found, std::memory_order_relaxed);
      break;
    }
  }
  s.pos[t] = pos;
}

// Runs one block on both threads; returns its wall time in ns.
int64_t Block(DenseState& s, BlockKind kind) {
  s.kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  const int64_t start = NowNs();
  const uint64_t gen = s.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  RunBlock(s, 0, kind);
  while (s.done.load(std::memory_order_acquire) != gen) {
  }
  return NowNs() - start;
}

// Pins the calling thread to one CPU.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// The two block threads spin while they wait for each other. Left to the
// scheduler, a freshly created worker often shares its parent's CPU for
// milliseconds, and a block then measures time slicing instead of calls, so
// each thread gets a CPU of its own for the duration of the workload.
std::vector<int> AllowedCpus(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

void WorkerLoop(DenseState* s, int cpu) {
  if (cpu >= 0) {
    PinTo(cpu);
  }
  uint64_t seen = 0;
  while (true) {
    uint64_t gen = s->generation.load(std::memory_order_acquire);
    while (gen == seen) {
      if (s->stop.load(std::memory_order_acquire)) {
        return;
      }
      gen = s->generation.load(std::memory_order_acquire);
    }
    seen = gen;
    RunBlock(*s, 1, static_cast<BlockKind>(s->kind.load(std::memory_order_relaxed)));
    s->done.store(gen, std::memory_order_release);
  }
}

void CaptureSites(SiteTable& sites) {
  const std::source_location locs[kSites] = {
      std::source_location::current(), std::source_location::current(),
      std::source_location::current(), std::source_location::current(),
      std::source_location::current(), std::source_location::current(),
      std::source_location::current(), std::source_location::current()};
  const char* apis[4] = {"Dictionary.TryGetValue", "Dictionary.Set", "List.Get",
                         "List.Set"};
  // Two locations share each source line but differ in API, so the eight
  // (file, line, api) keys the interning probe looks up are distinct; the OpIds
  // the direct probes pass get a line number of their own per site.
  for (int i = 0; i < kSites; ++i) {
    sites.loc[i] = locs[i];
    sites.api[i] = apis[i % 4];
    sites.kind[i] = i % 2 == 0 ? OpKind::kRead : OpKind::kWrite;
    sites.op[i] = tsvd::CallSiteRegistry::Instance().InternRaw(
        locs[i].file_name(), locs[i].line() * 16 + static_cast<uint32_t>(i),
        sites.api[i], sites.kind[i]);
  }
}

std::unique_ptr<DenseState> Build(uint64_t seed) {
  auto s = std::make_unique<DenseState>();
  CaptureSites(s->sites);
  auto fill_dict = [] {
    auto d = std::make_unique<Dict>();
    for (uint64_t k = 0; k < kKeys; k += 2) {
      d->Set(k, ValueFor(k));
    }
    return d;
  };
  auto fill_list = [] {
    auto l = std::make_unique<List>();
    for (uint64_t k = 0; k < kKeys; ++k) {
      l->Add(ValueFor(k));
    }
    return l;
  };
  for (int i = 0; i < kSharedObjects; ++i) {
    s->shared_dicts.push_back(fill_dict());
    s->shared_lists.push_back(fill_list());
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPrivateObjects; ++i) {
      s->private_dicts[t].push_back(fill_dict());
      s->private_lists[t].push_back(fill_list());
      s->dicts[t].push_back(s->private_dicts[t].back().get());
      s->lists[t].push_back(s->private_lists[t].back().get());
    }
    for (int i = 0; i < kSharedObjects; ++i) {
      s->dicts[t].push_back(s->shared_dicts[i].get());
      s->lists[t].push_back(s->shared_lists[i].get());
    }
    tsvd::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t) + 1);
    s->stream[t].resize(kStreamLen);
    for (size_t i = 0; i < kStreamLen; ++i) {
      StreamOp& op = s->stream[t][i];
      const bool shared = rng.NextBelow(kSharedEvery) == 0;
      op.object = static_cast<uint16_t>(
          shared ? kPrivateObjects + rng.NextBelow(kSharedObjects)
                 : rng.NextBelow(kPrivateObjects));
      op.key = static_cast<uint8_t>(rng.NextBelow(kKeys));
      // Three reads for every write.
      op.site = static_cast<uint8_t>((rng.NextBelow(4) == 0 ? 1 : 0) +
                                     (rng.NextBelow(2) == 0 ? 2 : 0) + (shared ? 4 : 0));
    }
  }
  s->config = tsvd::workload::ScaledConfig(0.02);
  s->config.delay_us = 0;  // decide, never park
  s->runtime = std::make_unique<tsvd::Runtime>(
      s->config, std::make_unique<tsvd::TsvdDetector>(s->config));
  s->probe_runtime = std::make_unique<tsvd::Runtime>(
      s->config, std::make_unique<tsvd::TsvdDetector>(s->config));
  s->detector = std::make_unique<tsvd::TsvdDetector>(s->config);
  s->tracker = std::make_unique<tsvd::NearMissTracker>(s->config);
  int worker_cpu = -1;
  if (pthread_getaffinity_np(pthread_self(), sizeof(s->main_mask), &s->main_mask) == 0) {
    const std::vector<int> cpus = AllowedCpus(s->main_mask);
    if (cpus.size() >= kThreads) {
      s->pinned = true;
      PinTo(cpus[0]);
      worker_cpu = cpus[1];
    }
  }
  s->worker = std::thread(WorkerLoop, s.get(), worker_cpu);
  return s;
}

void Teardown(DenseState& s) {
  s.stop.store(true, std::memory_order_release);
  if (s.worker.joinable()) {
    s.worker.join();
  }
  if (s.pinned) {
    pthread_setaffinity_np(pthread_self(), sizeof(s.main_mask), &s.main_mask);
    s.pinned = false;
  }
}

struct PairTotals {
  std::vector<double> ratio;
  std::vector<double> pair_ms;
  std::vector<double> trace_ratio;  // traced over untraced pair wall, per couple
  double blocks_s = 0;
  double wall_s = 0;
};

// Runs pairs until `deadline_ns`, but at least `min_pairs`. With
// `interleave_trace` pairs come in couples, one with the tracer off and one
// with it on, alternating which goes first; the ratio of the couple's pair
// walls goes to out.trace_ratio.
void RunPairs(DenseState& s, int64_t deadline_ns, int min_pairs, bool interleave_trace,
              Tracer& tracer, PairTotals& out) {
  const int64_t start = NowNs();
  Span pass(tracer, "dense.pass");
  double couple_ns[2] = {0, 0};  // [untraced, traced]
  for (int i = 0; i < min_pairs || NowNs() < deadline_ns || (interleave_trace && (i & 1));
       ++i) {
    const bool traced = ((i ^ (i >> 1)) & 1) == 1;  // off,on, on,off, off,on, ...
    if (interleave_trace) {
      tracer.set_enabled(traced);
    }
    const int64_t pair_start = NowNs();
    {
      Span pair(tracer, "dense.pair", pass.id(), static_cast<uint64_t>(i) + 1);
      // Alternate which side runs first so slow drift within a pair cancels.
      const bool base_first = (i & 1) == 0;
      int64_t a = 0;
      int64_t b = 0;
      for (int side = 0; side < 2; ++side) {
        const bool base = (side == 0) == base_first;
        const int64_t t0 = NowNs();
        const int64_t ns = Block(s, base ? BlockKind::kBaseline : BlockKind::kInstrumented);
        tracer.Add(base ? "dense.block.baseline" : "dense.block.instrumented", pair.id(),
                   static_cast<uint64_t>(i) + 1, t0, t0 + ns);
        (base ? a : b) = ns;
        out.blocks_s += static_cast<double>(ns) / 1e9;
      }
      out.ratio.push_back(static_cast<double>(b) / static_cast<double>(a));
      out.pair_ms.push_back(static_cast<double>(a + b) / 1e6);
    }
    if (interleave_trace) {
      couple_ns[traced ? 1 : 0] = static_cast<double>(NowNs() - pair_start);
      if ((i & 1) == 1) {
        out.trace_ratio.push_back(couple_ns[1] / couple_ns[0]);
      }
    }
  }
  if (interleave_trace) {
    tracer.set_enabled(true);
  }
  out.wall_s += SecondsSince(start);
}

void CheckState(DenseState& s, uint64_t pairs, Result& result) {
  result.attempted += pairs;
  const tsvd::RunSummary summary = s.runtime->Summary();
  if (s.mismatches.load() > 0) {
    result.Fail("calls_dense: " + std::to_string(s.mismatches.load()) +
                " container reads returned a value never written");
  }
  if (!summary.reports.empty()) {
    result.Fail("calls_dense: " + std::to_string(summary.reports.size()) +
                " violation reports with delay_us = 0 (no trap can be armed)");
  }
  if (summary.internal_errors > 0 || summary.runtime_disabled) {
    result.Fail("calls_dense: runtime internal errors");
  }
}

// The shared objects are written by both threads without a lock: real
// thread-safety violations. With delay_us = 0 the timed blocks can only record
// them as near misses, so after timing one block runs under a runtime that
// injects real delays, and every site pair it catches must be on a shared
// object. Returns the distinct site pairs caught.
uint64_t TrapEpilogue(DenseState& s, Result& result) {
  std::vector<tsvd::ObjectId> shared;
  for (const auto& d : s.shared_dicts) {
    shared.push_back(tsvd::ObjectIdOf(d.get()));
  }
  for (const auto& l : s.shared_lists) {
    shared.push_back(tsvd::ObjectIdOf(l.get()));
  }
  std::atomic<uint64_t> false_positives{0};
  std::unordered_set<tsvd::LocationPair, tsvd::LocationPairHash> pairs;
  // Each block gets a fresh runtime, as each test run does, so the per-thread
  // delay budget does not starve the later blocks. Blocks continue until
  // kEpilogueQuiet blocks in a row catch no new pair.
  int quiet = 0;
  for (int block = 0; block < kEpilogueMaxBlocks && quiet < kEpilogueQuiet; ++block) {
    const tsvd::Config cfg = tsvd::workload::ScaledConfig(0.005);
    s.trap_runtime =
        std::make_unique<tsvd::Runtime>(cfg, std::make_unique<tsvd::TsvdDetector>(cfg));
    s.trap_runtime->SetReportObserver([&](const tsvd::BugReport& report) {
      if (std::find(shared.begin(), shared.end(), report.object) == shared.end()) {
        false_positives.fetch_add(1, std::memory_order_relaxed);
      }
    });
    Block(s, BlockKind::kTrapping);
    ++result.attempted;
    const tsvd::RunSummary summary = s.trap_runtime->Summary();
    const size_t before = pairs.size();
    pairs.insert(summary.unique_pairs.begin(), summary.unique_pairs.end());
    quiet = pairs.size() > before ? 0 : quiet + 1;
    s.trap_runtime.reset();
  }
  if (false_positives.load() > 0) {
    result.Fail("calls_dense: " + std::to_string(false_positives.load()) +
                " report(s) on thread-private objects");
  }
  return pairs.size();
}

void Probe(DenseState& s, int rounds, Result& result) {
  const BlockKind kinds[] = {BlockKind::kNoop, BlockKind::kIntern, BlockKind::kOnCall,
                             BlockKind::kDetector, BlockKind::kNearMiss};
  constexpr int kKinds = 5;
  std::vector<double> ns[kKinds];
  s.conflicts.store(0);
  for (int r = 0; r < rounds; ++r) {
    for (int k = 0; k < kKinds; ++k) {
      const int which = (k + r) % kKinds;  // rotate the order every round
      ns[which].push_back(static_cast<double>(Block(s, kinds[which])) / kBlockCalls);
    }
  }
  const double oncall = Median(ns[2]);
  const double detector = Median(ns[3]);
  result.Set("instrument.noop_ns", Median(ns[0]), "ns");
  result.Set("instrument.intern_ns", Median(ns[1]), "ns");
  result.Set("core.oncall_ns", oncall, "ns");
  result.Set("core.detector_ns", detector, "ns");
  result.Set("core.runtime_self_ns", oncall - detector, "ns");
  result.Set("core.nearmiss_ns", Median(ns[4]), "ns");
  const double calls = static_cast<double>(rounds) * kBlockCalls * kThreads;
  result.Set("core.near_misses_per_kcall",
             1000.0 * static_cast<double>(s.conflicts.load()) / calls, "1/kcall");
}

// Runs pairs until `seconds` have passed, in kEpochs epochs. Each epoch after
// the first rebuilds the containers and the runtime, as every test run starts
// with a fresh Runtime; the median then pools several heap layouts of the
// near-miss tracker and containers instead of resting on one.
void RunEpochs(std::unique_ptr<DenseState>& state, const Options& options,
               double seconds, bool interleave_trace, Tracer& tracer, Result& result,
               PairTotals& t) {
  const int epochs = options.smoke ? 1 : kEpochs;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) {
      Teardown(*state);
      state = Build(options.seed);
      PairTotals warm;
      RunPairs(*state, 0, kWarmupPairs, /*interleave_trace=*/false, tracer, warm);
    }
    const size_t before = t.ratio.size();
    const int64_t epoch_end = NowNs() + (end - NowNs()) / (epochs - e);
    RunPairs(*state, epoch_end, kMinPairs, interleave_trace, tracer, t);
    result.SampleHeap();
    CheckState(*state, t.ratio.size() - before, result);
  }
}

// Absolute throughput and latency of block pairs. They follow the VM's CPU
// speed, so they are reported but not gated (see README.md).
void SetRunMetrics(const PairTotals& t, Result& result) {
  result.Set("workload.runs_per_s", static_cast<double>(t.ratio.size()) / t.wall_s, "1/s");
  result.Set("workload.run_ms_p50", Quantile(t.pair_ms, 0.5), "ms");
  result.Set("workload.run_ms_p95", Quantile(t.pair_ms, 0.95), "ms");
  result.Set("workload.run_samples", static_cast<double>(t.pair_ms.size()), "count");
}

}  // namespace

void RunCallsDense(const Options& options, Tracer& tracer, Result& result) {
  std::unique_ptr<DenseState> state;
  std::vector<double> setups;
  std::vector<double> gen_ms;
  for (int i = 0; i < kSetups; ++i) {
    if (state) {
      Teardown(*state);
      state.reset();
    }
    const int64_t t0 = NowNs();
    state = Build(options.seed);
    gen_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    PairTotals warm;
    RunPairs(*state, 0, kWarmupPairs, /*interleave_trace=*/false, tracer, warm);
    setups.push_back(SecondsSince(t0));
  }
  if (!options.trace) {
    PairTotals t;
    RunEpochs(state, options, options.seconds, /*interleave_trace=*/false, tracer, result,
              t);
    const uint64_t bugs = TrapEpilogue(*state, result);
    result.Set("setup_s", Median(setups), "s");
    result.Set("overhead_pct", 100.0 * (Median(t.ratio) - 1.0), "%");
    result.Set("bugs_found", static_cast<double>(bugs), "count");
    SetRunMetrics(t, result);
    result.Set("peak_heap_mb", result.peak_heap_mb, "MB");
    if (bugs == 0) {
      result.Fail("calls_dense: the trapping epilogue caught no shared-object race");
    }
  } else {
    PairTotals t;
    RunEpochs(state, options, options.seconds, /*interleave_trace=*/true, tracer, result,
              t);
    Probe(*state, options.smoke ? 5 : kProbeRounds, result);
    result.Set("workload.corpus_gen_ms", Median(gen_ms), "ms");
    SetRunMetrics(t, result);
    result.Set("trace_overhead_pct", 100.0 * (Median(t.trace_ratio) - 1.0), "%");
    result.Set("residual_pct", 100.0 * (t.wall_s - t.blocks_s) / t.wall_s, "%");
  }
  Teardown(*state);
}

void CallPathProbe(const Options& options, Result& result) {
  std::unique_ptr<DenseState> s = Build(options.seed);
  Probe(*s, options.smoke ? 5 : kProbeRounds, result);
  Teardown(*s);
}

}  // namespace perfbench
