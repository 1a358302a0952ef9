// tsvd_cli: push-button corpus runner, the command-line form factor of the deployed
// instrumenter+runtime ("the tool should be push button, requiring little or no
// configuration", Section 2.1).
//
// Runs the corpus sequentially with per-module trap-file carry-over. Campaigns —
// parallel workers, rounds, a merged trap store, JSON/SARIF artifacts — are
// tsvd_campaign's and tsvd_fleet's.
#include <cstdio>
#include <limits>
#include <string>

#include "src/workload/corpus.h"
#include "src/workload/scaling.h"
#include "src/workload/stats.h"
#include "tools/flag_parser.h"

namespace {

constexpr const char kUsage[] =
    R"(tsvd_cli: run TSVD over the synthetic corpus and print a bug summary.

Usage: tsvd_cli [--flag=value ...]

  --detector=NAME  TSVD | TSVDHB | DynamicRandom | DataCollider (default TSVD)
  --modules=N      corpus size (default 40)
  --runs=N         consecutive runs with trap-file carry-over (default 2)
  --scale=F        time scale vs. paper defaults, (0, 1] (default 0.02 = 2ms delays)
  --seed=N         corpus + detector seed (default 42)
  --help           this text

For campaigns (parallel workers, rounds, JSON/SARIF artifacts, --resume) use
tsvd_campaign or tsvd_fleet.
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tsvd;
  using namespace tsvd::workload;

  tools::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  const std::string detector = flags.GetString("detector", "TSVD");
  const int num_modules = static_cast<int>(flags.GetInt("modules", 40, 1, 100000));
  const int runs = static_cast<int>(flags.GetInt("runs", 2, 1, 1000));
  const double scale = flags.GetDouble("scale", 0.02, 1e-6, 1.0);
  const uint64_t seed = static_cast<uint64_t>(
      flags.GetInt("seed", 42, 0, std::numeric_limits<int64_t>::max()));
  flags.RejectUnknown();
  if (!flags.ok()) {
    std::fprintf(stderr, "tsvd_cli: %s\nTry --help.\n", flags.error().c_str());
    return 2;
  }

  CorpusOptions options;
  options.num_modules = num_modules;
  options.seed = seed;
  options.params = ScaledParams(scale);
  const std::vector<ModuleSpec> corpus = GenerateCorpus(options);

  std::printf("tsvd_cli: %s over %d modules, %d run(s), scale %.3f, seed %llu\n",
              detector.c_str(), num_modules, runs, scale,
              static_cast<unsigned long long>(seed));

  const ExperimentResult result =
      RunCorpusExperiment(corpus, detector, ScaledConfig(scale), runs, seed);

  std::printf("\nunique bugs: %llu   delays: %llu   overhead: %.0f%%   "
              "false positives: %llu\n",
              static_cast<unsigned long long>(result.BugsTotal()),
              static_cast<unsigned long long>(result.DelaysInjected()),
              result.OverheadPct(),
              static_cast<unsigned long long>(result.FalsePositives()));
  for (int r = 0; r < runs; ++r) {
    std::printf("  run %d: %llu new bug(s)\n", r + 1,
                static_cast<unsigned long long>(result.BugsFoundByRun(r)));
  }

  int printed = 0;
  for (size_t m = 0; m < result.modules.size() && printed < 3; ++m) {
    for (const RunResult& run : result.modules[m].runs) {
      if (!run.summary.reports.empty()) {
        std::printf("\n--- %s ---\n%s", result.modules[m].module.c_str(),
                    run.summary.reports.front().ToString().c_str());
        ++printed;
        break;
      }
    }
  }
  return 0;
}
