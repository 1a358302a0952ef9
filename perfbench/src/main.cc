// tsvdbench: runs one benchmark workload and prints its result as the last line
// of standard output, a JSON object with the workload's metrics (name, value,
// unit), the operations it attempted and failed, and the failures themselves.
//
//   tsvdbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-out FILE]
//
// Workloads: table2_corpus, calls_dense. With
// --trace 1 the run reports the per-layer metrics instead of the end-to-end ones
// and writes its spans to --trace-out. perfbench/run.py builds this binary,
// runs it in a scratch directory and re-checks its output; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/bench.h"
#include "src/campaign/json.h"

namespace {

using perfbench::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "tsvdbench: %s\nusage: tsvdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        return false;
      }
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || o->seconds <= 0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      o->trace = value == "1";
    } else if (arg == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return Usage("bad arguments");
  }
  const std::string& w = options.workload;
  void (*workload)(const Options&, Tracer&, Result&) = nullptr;
  if (w == "table2_corpus") {
    workload = RunTable2Corpus;
  } else if (w == "calls_dense") {
    workload = RunCallsDense;
  } else {
    return Usage(("unknown workload " + w).c_str());
  }

  Tracer tracer(false);
  Result result;
  if (!options.trace) {
    workload(options, tracer, result);
  } else {
    // Layers this workload does not cross come from short passes of the
    // workloads that do. The table2 pass goes first: it interns the corpus's
    // call sites in this process, which the trap-export probe needs.
    tracer.set_enabled(true);
    if (w != "table2_corpus") {
      Table2LayerPass(options, tracer, result);
    }
    if (w != "calls_dense") {
      CallPathProbe(options, result);
    }
    workload(options, tracer, result);
    LayerProbe(CampaignLayerPass(options, tracer, result), result);
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    if (!options.trace_out.empty() &&
        !tracer.WriteJson(options.trace_out, w, result.metrics)) {
      result.Fail("could not write trace file " + options.trace_out);
    }
  }

  using tsvd::campaign::Json;
  Json out = Json::MakeObject();
  out.Set("workload", w);
  out.Set("correct", result.failed == 0 && result.attempted > 0);
  out.Set("attempted", result.attempted);
  out.Set("failed", result.failed);
  Json errors = Json::MakeArray();
  for (const std::string& e : result.errors) {
    errors.Push(e);
  }
  out.Set("errors", std::move(errors));
  Json artifacts = Json::MakeArray();
  for (const std::string& a : result.artifacts) {
    artifacts.Push(a);
  }
  out.Set("artifacts", std::move(artifacts));
  // Metrics are appended by hand: Json::Dump keeps six significant digits, and
  // the caller wants every digit measured.
  std::string text = out.Dump();
  text.pop_back();  // the closing brace
  text += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    text += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" + value +
            ",\"unit\":" + Json(m.unit).Dump() + "}";
  }
  text += "}}";
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
  return 0;
}
