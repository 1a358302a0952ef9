// Shared declarations of tsvdbench: run options, the result record
// every workload fills, statistics helpers, and the span tracer.
//
// Each workload drives the tsvd libraries only through their public functions
// and records spans from this directory around those calls; nothing inside the
// program is instrumented for the benchmark.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke size: tiny corpora and a short clock, for the benchmark's own tests.
  bool smoke = false;
  std::string trace_out;  // where the traced run writes its spans
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set of this process, in MiB.
double PeakRssMb();
// Bytes malloc currently hands out (all arenas, mmapped blocks included), in
// MiB. Unlike RSS it does not move with how many arenas thread timing created
// or with fragmentation.
double HeapInUseMb();

// One named metric with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. Every operation the workload attempts (a module
// run, an A/B block pair, a campaign run) counts once in `attempted`; one that
// crashed, timed out, was quarantined, reported a false positive or produced an
// invalid artifact counts in `failed`.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;     // first few failure descriptions
  std::vector<std::string> artifacts;  // JSON/SARIF files the caller re-validates
  std::vector<Metric> metrics;
  double peak_heap_mb = 0;  // largest HeapInUseMb() seen between timed units

  void Fail(const std::string& why, uint64_t count = 1);
  // Called between timed units, where only the state a workload keeps is live.
  void SampleHeap() { peak_heap_mb = std::max(peak_heap_mb, HeapInUseMb()); }
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;  // 0 when absent
};

// In-memory span recorder. A span is (name, start, end, parent); spans of one
// timed unit share a trace id. Disabled tracers record nothing and cost one
// branch per span. Spans are written out once, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Returns the span id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t trace_id);
  void End(uint64_t id);
  // Records an already-measured interval.
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t trace_id,
               int64_t start_ns, int64_t end_ns);

  // Per-name totals of duration and self time (duration minus the part of the
  // interval covered by direct children), in ns.
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  bool WriteJson(const std::string& path, const std::string& workload,
                 const std::vector<Metric>& metrics) const;

 private:
  struct SpanRec {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t trace_id = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, uint64_t parent = 0,
       uint64_t trace_id = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, trace_id)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

// ---- workloads (each fills `result` with its metrics) ----
//
// Setup is repeated five times and reported as the median `setup_s`.
// In a traced run the timed units come in couples, one with the tracer off and
// one with it on, alternating which goes first; trace_overhead_pct is the
// median over couples of the traced unit's wall over the untraced one's.

void RunTable2Corpus(const Options& options, Tracer& tracer, Result& result);
void RunCallsDense(const Options& options, Tracer& tracer, Result& result);

// Layer accounting that only one workload produces, taken from a short traced
// pass of that workload when the traced run belongs to the other one. The
// campaign layers come from a short sandboxed campaign in every traced run.
void Table2LayerPass(const Options& options, Tracer& tracer, Result& result);
tsvd::campaign::CampaignResult CampaignLayerPass(const Options& options,
                                                 Tracer& tracer, Result& result);
void CallPathProbe(const Options& options, Result& result);

// Per-call costs of the report, sandbox, campaign and fleet layers, timed on a
// campaign's real outcomes and trap store. The fleet's transport and trap-store
// service are timed here only: no workload runs a fleet (see README.md).
void LayerProbe(const tsvd::campaign::CampaignResult& campaign, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
