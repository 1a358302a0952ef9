// OnCall hot-path microbenchmark: ns per instrumented call at 1..64 threads.
//
// TSVD's premise (Section 5.5: ~33% slowdown) only holds if the per-call cost of
// the runtime is small. This bench drives Runtime::OnCall directly — the same
// entry point instrumented containers use — under three workload shapes:
//
//   no_trap        each thread touches its own objects: no near misses, no armed
//                  traps, no delays. This is the steady-state fast path that
//                  dominates any real test run; the acceptance bar for hot-path
//                  changes is the multi-thread number of this mode.
//   nearmiss_heavy threads hammer a shared object pool with conflicting writes
//                  but delay_us = 0, so the near-miss tracker and the trap-set
//                  AddPair path run on every call while no thread ever parks.
//   trapping       shared objects with real (short) delays: traps arm, spring,
//                  and decay — the full slow path, including parked time.
//
// Metric: CPU-normalized ns per call,
//
//     ns = wall_us * 1000 * min(threads, hw_concurrency) / (iters * threads)
//
// For thread counts at or below the core count this is exactly wall ns per call
// (per thread), the number that exposes cross-thread cache-line contention. Above
// the core count the OS timeshares: wall time grows linearly with the thread
// count even for perfectly contention-free code, so the raw wall number measures
// the scheduler, not the runtime. The normalization divides that multiplexing
// factor back out; a contention-free hot path reads roughly flat across the whole
// 1..64 sweep on any machine. Oversubscribed counts are flagged in the JSON (and
// with '*' in the table); set TSVD_BENCH_SKIP_OVERSUBSCRIBED=1 to skip them
// entirely instead.
//
// Before the sweep it also measures what one Runtime with a TsvdDetector costs
// before its first call: heap bytes in use (glibc mallinfo2, main arena, small plus
// mmapped chunks) and the mean wall time of constructing and destroying one.
//
// Writes BENCH_oncall_hotpath.json next to the working directory, including a
// machine block (hw_concurrency, cpu model, governor) so numbers from different
// runners are never compared blind. The baseline_pre_pr block holds the wall-ns
// numbers measured at commit 6196949 (pre hot-path rework) on the same harness,
// and the history block earlier runs of this harness on named machines, so every
// run reports the trajectory.
//
// Env overrides: TSVD_BENCH_ITERS (per-thread calls, default 1'000'000),
// TSVD_BENCH_MAX_THREADS (default 64), TSVD_BENCH_SKIP_OVERSUBSCRIBED (default
// 0), TSVD_BENCH_REPEATS (default 2; each cell reports the min across repeats,
// the standard noise-robust estimator for single-sample microbenchmarks).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/core/runtime.h"
#include "src/core/tsvd_detector.h"

namespace tsvd {
namespace {

struct ModeSpec {
  const char* name;
  bool shared_objects;  // cross-thread conflicts possible
  Micros delay_us;      // 0: decide-but-never-park
};

constexpr ModeSpec kModes[] = {
    {"no_trap", false, 0},
    {"nearmiss_heavy", true, 0},
    {"trapping", true, 200},
};

// Numbers measured on this harness before the hot-path rework (commit 6196949):
// Release build, 1M iters/thread, 1-vCPU container, raw wall ns per call.
// Re-baseline only when the harness itself changes shape.
struct Baseline {
  const char* mode;
  double ns_per_call[4];  // threads 1, 2, 4, 8
};
constexpr Baseline kPrePrBaseline[] = {
    {"no_trap", {445.5, 715.6, 1545.0, 3339.7}},
    {"nearmiss_heavy", {339.2, 762.5, 1216.2, 2496.2}},
    {"trapping", {204.4, 469.3, 859.5, 1725.4}},
};

constexpr int kThreadCounts[] = {1, 2, 4, 8, 16, 32, 64};

// Earlier runs of this harness: CPU-normalized ns per call in kModes order over the
// first `columns` entries of kThreadCounts, each the minimum over its repeats (the
// 4-core rows: 3 runs of 3 repeats, the two builds' runs alternated). Columns above
// a row's hw_concurrency are oversubscribed estimates, the others measurements.
// Rows taken since the harness measured it also carry the runtime footprint
// (bytes 0: not measured).
struct Footprint {
  long bytes = 0;
  double construct_destroy_us = 0;
};
struct HistoryRow {
  const char* label;
  unsigned hw_concurrency;
  int columns;
  double ns_per_call[3][7];
  Footprint footprint;
};
constexpr HistoryRow kHistory[] = {
    {"1 vCPU, near-miss shard mutex + per-tid MRU ways", 1, 7,
     {{97.3, 97.8, 93.4, 92.5, 93.4, 92.6, 94.3},
      {95.8, 96.7, 96.6, 98.2, 97.4, 101.6, 98.6},
      {93.9, 101.5, 95.4, 97.8, 97.9, 101.0, 98.3}},
     {}},
    {"4 cores (KVM, Xeon 2.1GHz), near-miss shard mutex + per-tid MRU ways", 4, 3,
     {{113.2, 146.0, 213.7}, {125.7, 413.6, 702.6}, {130.8, 438.8, 703.7}}, {}},
    {"4 cores (KVM, Xeon 2.1GHz), per-object history blocks behind a lock-free index", 4,
     3, {{107.1, 121.3, 123.0}, {90.6, 251.0, 437.7}, {100.2, 258.5, 435.8}}, {}},
    {"4 cores (KVM, Xeon 2.1GHz), ThreadId/OpId tables allocated in full", 4, 3,
     {{95.8, 114.7, 122.9}, {81.4, 239.9, 423.8}, {88.5, 249.6, 447.7}}, {2813936, 139.5}},
    {"4 cores (KVM, Xeon 2.1GHz), ThreadId/OpId tables paged on first touch", 4, 3,
     {{79.6, 86.4, 111.5}, {82.0, 174.2, 434.3}, {83.8, 251.5, 450.6}}, {30992, 1.9}},
    {"4 cores (KVM, Xeon 2.1GHz), per-call clock read from a calibrated TSC", 4, 3,
     {{84.8, 94.5, 102.3}, {80.1, 242.7, 457.9}, {95.2, 189.8, 460.6}}, {30992, 2.6}},
    {"4 cores (KVM, Xeon 2.1GHz), TSC clock + same-thread near-miss run skip", 4, 3,
     {{89.6, 91.5, 98.7}, {85.0, 230.3, 453.3}, {82.4, 266.0, 511.6}}, {30992, 2.1}},
    // The next two rows were measured on one (faster) host, their runs alternated:
    // the first re-measures the previous row's code as the baseline.
    {"4 cores (KVM, Xeon 2.1GHz, faster host), two per-thread call tables + modulo "
     "epoch clock",
     4, 3, {{41.1, 42.7, 45.9}, {41.2, 95.4, 250.1}, {41.1, 133.8, 249.9}}, {30992, 1.0}},
    {"4 cores (KVM, Xeon 2.1GHz, faster host), one per-thread timeline + used-shard "
     "phase sweep",
     4, 3, {{37.0, 37.9, 40.0}, {37.1, 124.0, 241.9}, {37.2, 138.7, 254.6}}, {30288, 0.9}},
    // The next two rows were measured on one host, their runs alternated: the
    // first re-measures the previous row's code as the baseline.
    {"4 cores (KVM, Xeon 2.1GHz), one per-thread timeline + used-shard phase sweep, "
     "re-measured",
     4, 3, {{36.7, 38.0, 40.3}, {36.7, 126.1, 249.2}, {36.7, 135.5, 255.8}}, {30288, 0.9}},
    {"4 cores (KVM, Xeon 2.1GHz), per-object near-miss handles + copy-free trap check "
     "+ per-thread coverage lanes",
     4, 3, {{34.5, 36.1, 38.4}, {34.5, 119.3, 245.1}, {34.4, 130.6, 251.7}}, {33360, 1.0}},
};

long HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<long>(info.uordblks + info.hblkhd);
}

// Heap growth of one fresh Runtime + TsvdDetector, and the best mean over a few
// batches of construct + destroy.
Footprint MeasureFootprint() {
  const Config cfg;
  { Runtime warm(cfg, std::make_unique<TsvdDetector>(cfg)); }  // one-time statics
  Footprint fp;
  const long before = HeapInUse();
  auto rt = std::make_unique<Runtime>(cfg, std::make_unique<TsvdDetector>(cfg));
  fp.bytes = HeapInUse() - before;
  rt.reset();
  constexpr int kBatch = 200;
  fp.construct_destroy_us = 1e18;
  for (int batch = 0; batch < 5; ++batch) {
    const Micros t0 = NowMicros();
    for (int i = 0; i < kBatch; ++i) {
      Runtime r(cfg, std::make_unique<TsvdDetector>(cfg));
    }
    fp.construct_destroy_us = std::min(
        fp.construct_destroy_us, static_cast<double>(NowMicros() - t0) / kBatch);
  }
  return fp;
}

// Raw wall microseconds for one mode at one thread count.
double RunMode(const ModeSpec& mode, int threads, long iters) {
  Config cfg;
  cfg.delay_us = mode.delay_us;
  cfg.stall_grace_us = 50'000;
  Runtime rt(cfg, std::make_unique<TsvdDetector>(cfg));

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  // Each synthetic object carries a near-miss handle, as instrumented containers do.
  std::vector<NearMissHandle> handles(mode.shared_objects ? 16 : 16 * threads);

  Micros t0 = 0;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Runtime::ThreadBinding bind(&rt);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      // 16 objects per thread; shared modes overlap them across threads so
      // conflicting accesses on the same object are frequent.
      const ObjectId base = mode.shared_objects ? 0x1000 : 0x1000 + 0x100 * t;
      NearMissHandle* own = &handles[mode.shared_objects ? 0 : 16 * t];
      for (long i = 0; i < iters; ++i) {
        const ObjectId obj = base + (i & 15);
        const OpId op = static_cast<OpId>(1 + (i & 63));
        const OpKind kind = (i & 3) == 0 ? OpKind::kWrite : OpKind::kRead;
        rt.OnCall(obj, op, kind, &own[i & 15]);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  t0 = NowMicros();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) {
    w.join();
  }
  return static_cast<double>(NowMicros() - t0);
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string FootprintJson(const Footprint& fp) {
  return "{\"bytes\": " + std::to_string(fp.bytes) +
         ", \"construct_destroy_us\": " + JsonNumber(fp.construct_destroy_us) + "}";
}

}  // namespace
}  // namespace tsvd

int main() {
  using namespace tsvd;
  const long iters = bench::EnvInt("TSVD_BENCH_ITERS", 1'000'000);
  const int max_threads = bench::EnvInt("TSVD_BENCH_MAX_THREADS", 64);
  const bool skip_oversub =
      bench::EnvInt("TSVD_BENCH_SKIP_OVERSUBSCRIBED", 0) != 0;
  const int repeats = std::max(1, bench::EnvInt("TSVD_BENCH_REPEATS", 2));
  const unsigned hw = bench::HardwareConcurrency();
  const std::string cpu_model = bench::CpuModel();
  const std::string governor = bench::CpuGovernor();

  bench::PrintHeader("OnCall hot path (CPU-normalized ns per call)");
  std::printf("machine: %u hw threads, %s, governor %s\n", hw,
              cpu_model.c_str(), governor.c_str());

  const Footprint footprint = MeasureFootprint();
  std::printf("fresh Runtime + TsvdDetector: %ld bytes of heap, construct+destroy %.1f us\n",
              footprint.bytes, footprint.construct_destroy_us);

  // Discarded warm-up: the very first measured cell otherwise absorbs one-time
  // costs (page faults, lazy allocation, branch-predictor training) and reads
  // 10-20% high, which a single-sample harness cannot average away.
  RunMode(kModes[0], 1, std::min<long>(iters / 4, 250'000));

  std::string json = "{\n  \"bench\": \"oncall_hotpath\",\n";
  json += "  \"iters_per_thread\": " + std::to_string(iters) + ",\n";
  json +=
      "  \"metric\": \"cpu-normalized ns per call: wall_us * 1000 * "
      "min(threads, hw_concurrency) / (iters * threads)\",\n";
  json += "  \"machine\": {\n";
  json += "    \"hw_concurrency\": " + std::to_string(hw) + ",\n";
  json += "    \"cpu_model\": \"" + cpu_model + "\",\n";
  json += "    \"governor\": \"" + governor + "\"\n";
  json += "  },\n";

  std::string oversub_list;
  for (int tc : kThreadCounts) {
    if (tc <= max_threads && static_cast<unsigned>(tc) > hw && !skip_oversub) {
      if (!oversub_list.empty()) {
        oversub_list += ", ";
      }
      oversub_list += std::to_string(tc);
    }
  }
  std::string modes_json;
  std::string wall_json;
  bool first_mode = true;
  for (const ModeSpec& mode : kModes) {
    std::printf("%-16s", mode.name);
    if (!first_mode) {
      modes_json += ",\n";
      wall_json += ",\n";
    }
    first_mode = false;
    modes_json += std::string("    \"") + mode.name + "\": {";
    wall_json += std::string("    \"") + mode.name + "\": {";
    bool first_tc = true;
    for (int tc : kThreadCounts) {
      if (tc > max_threads) {
        continue;
      }
      const bool oversub = static_cast<unsigned>(tc) > hw;
      if (oversub && skip_oversub) {
        std::printf("  %2dT:    skip", tc);
        continue;
      }
      double wall_us = RunMode(mode, tc, iters);
      for (int r = 1; r < repeats; ++r) {
        wall_us = std::min(wall_us, RunMode(mode, tc, iters));
      }
      const double wall_ns = wall_us * 1000.0 / static_cast<double>(iters);
      const double norm_ns =
          wall_ns * static_cast<double>(std::min<unsigned>(tc, hw)) /
          static_cast<double>(tc);
      std::printf("  %2dT: %7.1f%s", tc, norm_ns, oversub ? "*" : " ");
      if (!first_tc) {
        modes_json += ", ";
        wall_json += ", ";
      }
      first_tc = false;
      modes_json += "\"" + std::to_string(tc) + "\": " + JsonNumber(norm_ns);
      wall_json += "\"" + std::to_string(tc) + "\": " + JsonNumber(wall_ns);
    }
    std::printf("\n");
    modes_json += "}";
    wall_json += "}";
  }
  if (hw < 64) {
    std::printf("(* = oversubscribed: normalized by cpu-time factor)\n");
  }

  json += "  \"runtime_footprint\": " + FootprintJson(footprint) + ",\n";
  json += "  \"oversubscribed_thread_counts\": [" + oversub_list + "],\n";
  json += "  \"modes\": {\n" + modes_json + "\n  },\n";
  json += "  \"wall_ns\": {\n" + wall_json + "\n  },\n";
  json += "  \"baseline_pre_pr\": {\n";
  bool first_base = true;
  for (const Baseline& base : kPrePrBaseline) {
    if (!first_base) {
      json += ",\n";
    }
    first_base = false;
    json += std::string("    \"") + base.mode + "\": {";
    const int tcs[] = {1, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
      if (i > 0) {
        json += ", ";
      }
      json += "\"" + std::to_string(tcs[i]) +
              "\": " + JsonNumber(base.ns_per_call[i]);
    }
    json += "}";
  }
  json += "\n  },\n";
  json += "  \"history\": [\n";
  bool first_row = true;
  for (const HistoryRow& row : kHistory) {
    if (!first_row) {
      json += ",\n";
    }
    first_row = false;
    json += "    {\"label\": \"";
    json += row.label;
    json += "\", \"hw_concurrency\": " + std::to_string(row.hw_concurrency);
    json += ", \"modes\": {";
    for (int m = 0; m < 3; ++m) {
      json += m > 0 ? ", \"" : "\"";
      json += kModes[m].name;
      json += "\": {";
      for (int c = 0; c < row.columns; ++c) {
        json += c > 0 ? ", \"" : "\"";
        json += std::to_string(kThreadCounts[c]) + "\": " +
                JsonNumber(row.ns_per_call[m][c]);
      }
      json += "}";
    }
    json += "}";
    if (row.footprint.bytes > 0) {
      json += ", \"runtime_footprint\": " + FootprintJson(row.footprint);
    }
    json += "}";
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_oncall_hotpath.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_oncall_hotpath.json\n");
  }
  return 0;
}
