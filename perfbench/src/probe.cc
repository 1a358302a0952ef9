// Per-call costs of the layers a campaign crosses, each timed through its public
// function on a campaign's real outcomes and merged trap store: the outcome codec
// the sandbox streams over its pipe, sandbox fork, journal append (with fsync),
// trap merge, bug-manager ingest, the JSON/SARIF sinks, the trap file's export and
// durable save, the fleet trap-store commit, a unix-socket RPC round trip, an
// empty thread-pool task and a delay-engine park/wake hand-off.
#include <atomic>
#include <filesystem>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/journal.h"
#include "src/campaign/json.h"
#include "src/campaign/sinks.h"
#include "src/common/thread_id.h"
#include "src/core/delay_engine.h"
#include "src/core/tsvd_detector.h"
#include "src/fleet/transport.h"
#include "src/fleet/trap_store.h"
#include "src/sandbox/outcome_codec.h"
#include "src/sandbox/sandbox.h"
#include "src/tasks/thread_pool.h"
#include "src/workload/scaling.h"

namespace perfbench {
namespace {

using tsvd::campaign::Json;
using tsvd::campaign::RunOutcome;

constexpr size_t kMaxOutcomes = 120;
constexpr const char* kDir = "probe";

template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

void ProbeCodec(const std::vector<RunOutcome>& outcomes, Result& result) {
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const RunOutcome& o : outcomes) {
      bool ok = false;
      us.push_back(TimeUs([&] {
        const std::string text = tsvd::sandbox::EncodeRunOutcome(o).Dump();
        Json doc;
        RunOutcome decoded;
        ok = Json::Parse(text, &doc) && tsvd::sandbox::DecodeRunOutcome(doc, &decoded) &&
             decoded.module == o.module && decoded.traps.pairs == o.traps.pairs &&
             decoded.observations.size() == o.observations.size();
      }));
      ++result.attempted;
      if (!ok) {
        result.Fail("outcome codec round trip differs for " + o.module);
      }
    }
  }
  result.Set("sandbox.codec_us", Median(us), "us");
}

void ProbeFork(const RunOutcome& sample, Result& result) {
  std::vector<double> us;
  for (int i = 0; i < 20; ++i) {
    const tsvd::sandbox::ForkRun run =
        tsvd::sandbox::RunForked([&] { return sample; }, 10'000);
    ++result.attempted;
    if (run.status != tsvd::sandbox::ChildStatus::kOk) {
      result.Fail("sandbox fork probe: " + run.error);
      continue;
    }
    us.push_back(static_cast<double>(run.child_wall_us));
  }
  result.Set("sandbox.fork_us", Median(us), "us");
}

void ProbeJournal(const std::vector<RunOutcome>& outcomes, Result& result) {
  tsvd::campaign::CampaignJournal journal;
  tsvd::campaign::JournalHeader header;
  header.detector = "TSVD";
  header.num_modules = static_cast<int>(outcomes.size());
  if (!journal.Open(std::string(kDir) + "/journal.tsvdj", header, /*truncate=*/true,
                    /*fsync=*/true)) {
    result.Fail("journal probe: open failed");
    return;
  }
  std::vector<double> us;
  for (const RunOutcome& o : outcomes) {
    bool ok = false;
    us.push_back(TimeUs([&] { ok = journal.AppendRun(o); }));
    ++result.attempted;
    if (!ok) {
      result.Fail("journal probe: append failed");
    }
  }
  result.Set("campaign.journal_append_us", Median(us), "us");
}

void ProbeMergeIngestStore(const std::vector<RunOutcome>& outcomes, Result& result) {
  tsvd::TrapFile merged;
  tsvd::campaign::BugReportMgr mgr;
  tsvd::fleet::TrapStoreService store;
  std::vector<double> merge_us, ingest_us, commit_us;
  for (const RunOutcome& o : outcomes) {
    merge_us.push_back(TimeUs([&] { merged.Merge(o.traps); }));
    ingest_us.push_back(TimeUs([&] {
      for (const auto& obs : o.observations) {
        mgr.Ingest(obs);
      }
    }));
    commit_us.push_back(TimeUs([&] {
      store.CommitRound(o.traps);
      uint64_t version = 0;
      std::string text;
      store.SerializeIfStale(0, &version, &text);
    }));
  }
  result.Set("campaign.trap_merge_us", Median(merge_us), "us");
  result.Set("campaign.bugmgr_ingest_us", Median(ingest_us), "us");
  result.Set("fleet.store_commit_us", Median(commit_us), "us");
}

void ProbeSinks(const tsvd::campaign::CampaignResult& campaign, Result& result) {
  tsvd::campaign::CampaignMeta meta;
  meta.detector = campaign.options.detector;
  meta.num_modules = campaign.options.num_modules;
  meta.workers = campaign.options.workers;
  meta.rounds_requested = campaign.options.rounds;
  meta.rounds_executed = static_cast<int>(campaign.rounds.size());
  meta.scale = campaign.options.scale;
  meta.seed = campaign.options.seed;
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    bool ok = false;
    ms.push_back(TimeUs([&] {
                   const std::string json = tsvd::campaign::RenderJson(
                       meta, campaign.rounds, campaign.bugs, campaign.outcomes);
                   const std::string sarif = tsvd::campaign::RenderSarif(
                       meta, campaign.bugs, campaign.outcomes);
                   ok = tsvd::campaign::WriteFileAtomic(
                            std::string(kDir) + "/campaign.json", json) &&
                        tsvd::campaign::WriteFileAtomic(
                            std::string(kDir) + "/campaign.sarif", sarif);
                 }) /
                 1e3);
    ++result.attempted;
    if (!ok) {
      result.Fail("sinks probe: write failed");
    }
  }
  result.Set("campaign.sinks_ms", Median(ms), "ms");
}

void ProbeTrapFile(const tsvd::TrapFile& merged, Result& result) {
  tsvd::TsvdDetector detector(tsvd::workload::ScaledConfig(0.02));
  detector.ImportTrapFile(merged);
  std::vector<double> export_us;
  for (int i = 0; i < 50; ++i) {
    export_us.push_back(TimeUs([&] {
      tsvd::TrapFile out = detector.ExportTrapFile();
      out.Canonicalize();
    }));
  }
  result.Set("report.trap_export_us", Median(export_us), "us");
  std::vector<double> save_us;
  for (int i = 0; i < 20; ++i) {
    bool ok = false;
    save_us.push_back(TimeUs([&] { ok = merged.SaveTo(std::string(kDir) + "/traps.tsvd"); }));
    ++result.attempted;
    if (!ok) {
      result.Fail("trap save probe failed");
    }
  }
  result.Set("report.trap_save_us", Median(save_us), "us");
}

void ProbeRpc(const std::vector<RunOutcome>& outcomes, Result& result) {
  std::string error;
  const std::string address = "uds:" + std::string(kDir) + "/rpc.sock";
  std::unique_ptr<tsvd::fleet::TransportServer> server =
      tsvd::fleet::MakeTransportServer(address, &error);
  if (!server || !server->Start(
                     [](const Json& request) {
                       Json reply = Json::MakeObject();
                       reply.Set("type", "ack");
                       reply.Set("accepted", request.Has("outcome"));
                       return reply;
                     },
                     &error)) {
    result.Fail("rpc probe: server: " + error);
    return;
  }
  std::unique_ptr<tsvd::fleet::TransportClient> client =
      tsvd::fleet::MakeTransportClient(address, &error);
  std::vector<double> us;
  for (int i = 0; client && i < 400; ++i) {
    Json request = Json::MakeObject();
    request.Set("type", "result");
    request.Set("outcome",
                tsvd::sandbox::EncodeRunOutcome(outcomes[static_cast<size_t>(i) %
                                                         outcomes.size()]));
    Json response;
    bool ok = false;
    us.push_back(TimeUs([&] { ok = client->Call(request, &response, &error); }));
    ++result.attempted;
    const Json* accepted = response.Find("accepted");
    if (!ok || accepted == nullptr || !accepted->as_bool()) {
      result.Fail("rpc probe: " + error);
    }
  }
  client.reset();
  server->Stop();
  result.Set("fleet.rpc_us_p50", Quantile(us, 0.5), "us");
  result.Set("fleet.rpc_us_p95", Quantile(us, 0.95), "us");
}

void ProbeTaskRoundTrip(Result& result) {
  tsvd::tasks::ThreadPool pool(2);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    us.push_back(TimeUs([&] {
      pool.Submit([] {});
      pool.WaitIdle();
    }));
  }
  result.Set("tasks.roundtrip_us", Median(us), "us");
}

// DelayEngine::Park on one thread, WakeThread from another: the time from the
// wake call to the parked thread running again.
void ProbeWakeLatency(Result& result) {
  tsvd::Config cfg;
  cfg.stall_grace_us = 0;  // no sentinel: only the explicit wake ends a park
  tsvd::DelayEngine engine(cfg);
  std::atomic<tsvd::ThreadId> parked_tid{0};
  std::atomic<int64_t> woke_at{0};
  std::atomic<int> round{0};
  std::vector<double> us;
  constexpr int kRounds = 200;
  std::thread sleeper([&] {
    const tsvd::ThreadId tid = tsvd::CurrentThreadId();
    parked_tid.store(tid);
    for (int r = 0; r < kRounds; ++r) {
      while (round.load(std::memory_order_acquire) != r) {
      }
      engine.Admit(tid, 1'000'000);
      engine.Park(tid, 1, 1'000'000);
      woke_at.store(NowNs(), std::memory_order_release);
      round.store(r + 1, std::memory_order_release);
    }
  });
  while (parked_tid.load() == 0) {
  }
  for (int r = 0; r < kRounds; ++r) {
    int64_t t0 = 0;
    do {
      t0 = NowNs();
    } while (!engine.WakeThread(parked_tid.load(), tsvd::WakeReason::kCatchWake));
    while (round.load(std::memory_order_acquire) != r + 1) {
    }
    us.push_back(static_cast<double>(woke_at.load(std::memory_order_acquire) - t0) / 1e3);
  }
  sleeper.join();
  result.Set("core.wake_latency_us", Median(us), "us");
}

}  // namespace

void LayerProbe(const tsvd::campaign::CampaignResult& campaign, Result& result) {
  std::error_code ec;
  std::filesystem::remove_all(kDir, ec);
  std::filesystem::create_directories(kDir, ec);
  std::vector<RunOutcome> outcomes;
  for (const RunOutcome& o : campaign.outcomes) {
    if (outcomes.size() < kMaxOutcomes &&
        o.status == tsvd::campaign::RunStatus::kOk) {
      outcomes.push_back(o);
    }
  }
  if (outcomes.empty()) {
    result.Fail("layer probe: the campaign produced no outcomes");
    return;
  }
  ProbeCodec(outcomes, result);
  ProbeFork(outcomes.front(), result);
  ProbeJournal(outcomes, result);
  ProbeMergeIngestStore(outcomes, result);
  ProbeSinks(campaign, result);
  ProbeTrapFile(campaign.merged_traps, result);
  ProbeRpc(outcomes, result);
  ProbeTaskRoundTrip(result);
  ProbeWakeLatency(result);
  std::filesystem::remove_all(kDir, ec);
}

}  // namespace perfbench
