// tsvd_campaign: fleet-scale campaign runner — the CLI form of the cloud service the
// paper deployed over ~1,600 projects (Sections 2.1, 5.1). Schedules the synthetic
// corpus through rounds of parallel runs, carries merged trap files forward between
// rounds, and emits the unified JSON/SARIF artifact trail. With --sandbox, every run
// executes in a forked child under a watchdog, so crashing or hanging modules cost a
// run, never the campaign.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/json.h"
#include "src/campaign/run_executor.h"
#include "src/io/chaos_fs.h"
#include "src/sandbox/sandbox.h"
#include "tools/campaign_cli.h"
#include "tools/flag_parser.h"

namespace {

constexpr const char kUsage[] =
    R"(tsvd_campaign: run a multi-round TSVD campaign over the synthetic corpus.

Usage: tsvd_campaign [--flag=value ...]

  --workers=N      parallel campaign workers, each with its own task pool (default 4)
  --rounds=N       max rounds; a round with no new unique bugs stops early (default 3)
  --modules=N      corpus size (default 40)
  --detector=NAME  TSVD | TSVDHB | DynamicRandom | DataCollider (default TSVD)
  --scale=F        time scale vs. paper defaults, (0, 1] (default 0.02 = 2ms delays)
  --seed=N         corpus + detector seed (default 42)
  --no-converge    run all rounds even if a round finds no new unique bugs
  --out=DIR        artifact directory: traps.tsvd, campaign.json, campaign.sarif,
                   journal.tsvdj (default "campaign-out"; --out= disables persistence)

 crash consistency (see DESIGN.md §11):
  --resume         replay DIR/journal.tsvdj and continue from the first unfinished
                   run; completed runs are never re-executed, and the resumed
                   campaign converges to the same unique-bug set as an
                   uninterrupted one. A missing journal starts fresh; one written
                   under a different seed/corpus/detector/scale is refused.
  --journal_snapshot_every=N  snapshot dedup state to DIR/bugmgr.snap.json at the
                   first round boundary after every N journaled runs, so resume
                   replays only the journal tail (default 64; 0 disables)
  SIGINT/SIGTERM   graceful drain: queued runs are skipped, in-flight runs finish,
                   the journal and partial reports ("interrupted": true) are
                   flushed, and the tool exits 0; rerun with --resume

 storage faults (see DESIGN.md §15):
  --io_chaos=SPEC  deterministic storage-fault injection on every durable write
                   (journal, trap store, reports, snapshots). SPEC is comma-
                   separated key=value: seed=N, enospc=P, eio=P, short_write=P,
                   fsync_fail=P, rename_fail=P, after=N (exempt first N ops),
                   max_faults=N, crash_at=N (SIGKILL self at op N),
                   path=SUBSTR (fault only matching paths). Same seed =>
                   identical fault sequence. Injected fault counts are printed
                   in the run summary and recorded in campaign.json.
  disk full        ENOSPC on any durable write drains gracefully like a signal
                   (partial reports flushed, exit 5; rerun with --resume)
  journal EIO      any other journal failure drops to journal-less degraded
                   mode: the campaign completes, reports are stamped
                   "durability": "degraded", but it cannot be resumed

 process sandbox (POSIX only; elsewhere runs stay in-process):
  --sandbox            fork one child per run; a crash or hang kills the child only
  --run_timeout_ms=N   per-attempt watchdog deadline, SIGKILL on expiry; 0 disables
                       (default 30000)
  --max_attempts=N     attempts per run before quarantine (alias --retries; default 2)
  --backoff_ms=N       base retry backoff, doubling per attempt (default 50)

 fault injection (exercises the sandbox; pair with --sandbox):
  --fault-crash=N      append N modules whose last test SIGSEGVs (default 0)
  --fault-hang=N       append N modules whose last test outlives any deadline (default 0)
  --fault-throw=N      append N modules whose last test throws a non-std value (default 0)
  --fault-deadlock=N   append N modules that delay while holding a lock a peer needs;
                       the progress sentinel must unstall them in-process (default 0)

 delay engine (defaults derive from --scale; see src/core/delay_engine.h):
  --delay_ms=N           override the injected delay length
  --stall_grace_ms=N     progress-sentinel grace period; 0 disables the sentinel
  --max_overhead_pct=F   skip new delays when injected delay exceeds F%% of run time
  --max_internal_errors=N  internal faults absorbed before instrumentation
                       self-disables for the rest of the run (fail-open)

 module inventory:
  --list-modules   print the campaign's module inventory (per module: name, test
                   count, buggy tests, workload archetypes, fault flag) instead of
                   running; honors --modules/--seed/--fault-* so the listing shows
                   exactly the corpus those flags would run
  --json           with --list-modules, emit machine-readable JSON (the fleet
                   coordinator's job source)

  --help           this text

 exit codes: 0 success (including a graceful signal drain), 2 usage or fatal
             error, 5 disk-full drain (ENOSPC; journal consistent, --resume
             continues once space is freed)
)";

// The --list-modules inventory. Archetypes are the distinct workload pattern names
// of the module's tests, in test order; the fault kind is "" for generated modules
// and crash|hang|throw|deadlock for appended fault-injection modules.
int ListModules(const tsvd::campaign::CampaignOptions& options, bool as_json) {
  using tsvd::campaign::Json;
  const tsvd::campaign::CampaignCorpus corpus =
      tsvd::campaign::BuildCampaignCorpus(options);

  Json modules = Json::MakeArray();
  if (!as_json) {
    std::printf(" index  name              tests  buggy  fault     archetypes\n");
  }
  for (size_t i = 0; i < corpus.modules.size(); ++i) {
    const auto& spec = corpus.modules[i];
    int buggy = 0;
    std::vector<std::string> archetypes;
    for (const auto& test : spec.tests) {
      buggy += test.buggy ? 1 : 0;
      if (std::find(archetypes.begin(), archetypes.end(), test.name) ==
          archetypes.end()) {
        archetypes.push_back(test.name);
      }
    }
    if (!as_json) {
      std::string joined;
      for (const std::string& name : archetypes) {
        joined += (joined.empty() ? "" : ", ") + name;
      }
      std::printf(" %5zu  %-16s %6zu %6d  %-8s  %s\n", i, spec.name.c_str(),
                  spec.tests.size(), buggy,
                  corpus.fault_kinds[i].empty() ? "-" : corpus.fault_kinds[i].c_str(),
                  joined.c_str());
      continue;
    }
    Json m = Json::MakeObject();
    m.Set("index", static_cast<int64_t>(i));
    m.Set("name", spec.name);
    m.Set("seed", spec.seed);
    m.Set("tests", static_cast<int64_t>(spec.tests.size()));
    m.Set("buggy_tests", buggy);
    Json names = Json::MakeArray();
    for (const std::string& name : archetypes) {
      names.Push(name);
    }
    m.Set("archetypes", std::move(names));
    m.Set("fault", corpus.fault_kinds[i]);
    modules.Push(std::move(m));
  }
  if (!as_json) {
    std::printf(" %zu module(s)\n", corpus.modules.size());
    return 0;
  }
  Json doc = Json::MakeObject();
  doc.Set("detector", options.detector);
  doc.Set("seed", options.seed);
  doc.Set("num_modules", static_cast<int64_t>(corpus.modules.size()));
  doc.Set("modules", std::move(modules));
  std::printf("%s\n", doc.Dump(2).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsvd;

  tools::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  // --max_attempts is the documented name; --retries remains as an alias.
  const int64_t retries_alias = flags.GetInt("retries", 2, 1, 10);
  campaign::CampaignOptions options =
      tools::ParseCampaignFlags(flags, "campaign-out", retries_alias);
  options.workers = static_cast<int>(flags.GetInt("workers", 4, 1, 256));
  const bool list_modules = flags.GetBool("list-modules", false);
  const bool list_json = flags.GetBool("json", false);
  const std::string io_chaos = flags.GetString("io_chaos", "");
  flags.RejectUnknown();
  if (!flags.ok()) {
    std::fprintf(stderr, "tsvd_campaign: %s\nTry --help.\n", flags.error().c_str());
    return 2;
  }
  std::string chaos_error;
  const std::unique_ptr<io::ChaosFs> chaos =
      io::InstallChaosFsFromSpec(io_chaos, /*salt=*/0, &chaos_error);
  if (!chaos_error.empty()) {
    std::fprintf(stderr, "tsvd_campaign: %s\nTry --help.\n", chaos_error.c_str());
    return 2;
  }
  if (list_modules) {
    return ListModules(options, list_json);
  }
  if (options.sandbox.enabled && !sandbox::ForkSupported()) {
    std::fprintf(stderr,
                 "tsvd_campaign: --sandbox needs fork(); running in-process.\n");
  }
  if (options.resume && options.out_dir.empty()) {
    std::fprintf(stderr, "tsvd_campaign: --resume requires --out=DIR\nTry --help.\n");
    return 2;
  }

  tools::InstallStopHandlers();
  std::printf(
      "tsvd_campaign: %s, %d modules, %d worker(s), up to %d round(s), "
      "scale %.3f, seed %llu%s%s\n",
      options.detector.c_str(), options.num_modules, options.workers, options.rounds,
      options.scale, static_cast<unsigned long long>(options.seed),
      options.sandbox.enabled && sandbox::ForkSupported() ? ", sandboxed" : "",
      options.resume ? ", resuming" : "");

  const campaign::CampaignResult result = campaign::RunCampaign(options);
  return tools::ReportCampaign("tsvd_campaign", result, [&chaos] {
    if (chaos == nullptr) {
      return;
    }
    // Per-class injected-fault counts, so a CI job driving a seeded schedule
    // can assert from the output that the schedule actually fired.
    const io::ChaosFsStats stats = chaos->stats();
    std::printf("storage chaos: %llu op(s)", static_cast<unsigned long long>(stats.ops));
    for (const auto& [cls, count] : stats.Classes()) {
      std::printf(", %s=%llu", cls.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  });
}
