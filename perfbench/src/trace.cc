#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "perfbench/src/bench.h"
#include "src/campaign/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void Result::Fail(const std::string& why, uint64_t count) {
  failed += count;
  if (errors.size() < 20) {
    errors.push_back(why);
  }
}

void Result::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

double Result::Get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0;
}

uint64_t Tracer::Begin(const std::string& name, uint64_t parent, uint64_t trace_id) {
  if (!enabled_) {
    return 0;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRec rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.trace_id = trace_id;
  rec.name = name;
  rec.start_ns = now;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) {
    return;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t Tracer::Add(const std::string& name, uint64_t parent, uint64_t trace_id,
                     int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpanRec rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.trace_id = trace_id;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent never overlap in this benchmark (each is a call made
  // by the parent's thread), so covered time is the sum of child durations.
  std::unordered_map<uint64_t, double> child_ns;
  for (const SpanRec& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (const SpanRec& s : spans_) {
    Totals& t = totals[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.total_ns += dur;
    auto it = child_ns.find(s.id);
    t.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
    ++t.count;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path, const std::string& workload,
                       const std::vector<Metric>& metrics) const {
  using tsvd::campaign::Json;
  Json doc = Json::MakeObject();
  doc.Set("workload", workload);
  Json spans = Json::MakeArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRec& s : spans_) {
      Json span = Json::MakeObject();
      span.Set("id", s.id);
      span.Set("parent", s.parent);
      span.Set("trace", s.trace_id);
      span.Set("name", s.name);
      span.Set("start_ns", static_cast<int64_t>(s.start_ns));
      span.Set("end_ns", static_cast<int64_t>(s.end_ns));
      spans.Push(std::move(span));
    }
  }
  Json layers = Json::MakeObject();
  for (const auto& [name, t] : Summarize()) {
    Json entry = Json::MakeObject();
    entry.Set("count", t.count);
    entry.Set("total_ns", t.total_ns);
    entry.Set("self_ns", t.self_ns);
    layers.Set(name, std::move(entry));
  }
  Json ms = Json::MakeObject();
  for (const Metric& m : metrics) {
    Json entry = Json::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    ms.Set(m.name, std::move(entry));
  }
  doc.Set("layers", std::move(layers));
  doc.Set("metrics", std::move(ms));
  doc.Set("spans", std::move(spans));
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(1) << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
