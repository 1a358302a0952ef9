// Crash-consistent campaign journal: the durable run ledger behind --resume.
//
// The paper's deployment is a push-button cloud service over ~1,600 projects and
// 84,795 runs (Sections 2.1, 3.4.6); at that scale orchestrator preemption is
// routine and re-running a fleet from scratch is exactly the waste systematic
// testing tries to avoid. The journal makes the orchestrator itself survivable:
//
//   out_dir/journal.tsvdj — append-only, one JSON record per line:
//     {"type":"header",...}   campaign identity (seed, detector, corpus, scale),
//                             written once when the journal is created;
//     {"type":"run","round":r,"module_index":m,"outcome":{...}}
//                             appended and fsync'd the moment a run reaches its
//                             final outcome (ok or quarantined) — the commit point
//                             for "this run happened; never re-execute it";
//     {"type":"round",...}    round completion: stats + the cumulative unique-bug
//                             count, appended after the merged trap store was
//                             atomically saved (so a round record implies
//                             traps.tsvd reflects that round);
//     {"type":"complete",...} the campaign finished (converged or rounds
//                             exhausted);
//     {"type":"event",...}    operational forensics (e.g. a fleet coordinator
//                             evicting an agent for missed heartbeats): recorded
//                             and counted by replay but never re-applied — events
//                             describe the orchestrator, not the campaign.
//
//   out_dir/bugmgr.snap.json — periodic atomic snapshot of BugReportMgr dedup
//     state as of `watermark` run records, so resume replays only the ledger tail
//     instead of re-ingesting every observation of a long campaign.
//
// Replay is torn-tail tolerant: a crash mid-append leaves at most one partial
// trailing line, which Load drops (and reports) while keeping every record before
// it — the append-only analogue of TrapFile's salvage mode.
#ifndef SRC_CAMPAIGN_JOURNAL_H_
#define SRC_CAMPAIGN_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/round.h"
#include "src/io/vfs.h"

namespace tsvd::campaign {

// Identity stamp of the campaign that owns a journal. Resume refuses a journal
// whose identity disagrees with the requested options: the per-round salt — and
// therefore every replayed outcome — would no longer match, silently breaking the
// resumed-equals-uninterrupted determinism contract.
struct JournalHeader {
  int version = 1;
  std::string detector;
  uint64_t seed = 0;
  int num_modules = 0;  // full corpus size, fault-injection modules included
  double scale = 0;
  int rounds = 0;  // requested round bound (informational; may grow on resume)

  // The field list of the journal's header record (src/campaign/json.h).
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("version", r.version...);
    visit("detector", r.detector...);
    visit("seed", r.seed...);
    visit("num_modules", r.num_modules...);
    visit("scale", r.scale...);
    visit("rounds", r.rounds...);
  }

  // True when `other` describes the same campaign identity; otherwise `why` gets a
  // human-readable mismatch description.
  bool CompatibleWith(const JournalHeader& other, std::string* why) const;
};

// Everything a dead campaign left behind, reconstructed from its journal.
struct JournalReplay {
  JournalHeader header;
  bool has_header = false;
  std::vector<RoundStats> completed_rounds;  // committed rounds, in round order
  std::vector<RunOutcome> outcomes;          // every run record, in append order
  // Cumulative unique-bug count stamped by the last committed round record (0 when
  // the campaign died inside round 1): the baseline the resumed partial round's
  // new_unique_bugs is computed against.
  uint64_t unique_bugs_at_last_round = 0;
  bool complete = false;  // campaign-complete record present
  bool converged = false;
  int event_records = 0;      // operational events seen (informational only)
  int malformed_records = 0;  // mid-file records dropped by salvage
  bool torn_tail = false;     // trailing partial record dropped (crash mid-append)
  // Byte length of the newline-terminated prefix. When torn_tail is set, a resume
  // writer must truncate the file to this length before appending, or its first
  // record would concatenate onto the dangling partial line.
  uint64_t valid_bytes = 0;
};

class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal() { Close(); }
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  static std::string PathIn(const std::string& out_dir);
  static std::string SnapshotPathIn(const std::string& out_dir);

  // Opens the journal for appending. `truncate` starts a fresh ledger and writes
  // `header`; otherwise records append after the existing tail (resume). When
  // `fsync` is set every append is flushed to stable storage before returning —
  // the durability contract resume relies on. Returns false on I/O failure.
  bool Open(const std::string& path, const JournalHeader& header, bool truncate,
            bool fsync);

  // Thread-safe append of one finished run — the commit point for "run executed".
  bool AppendRun(const RunOutcome& outcome);
  bool AppendRoundComplete(const RoundStats& stats, uint64_t cumulative_unique_bugs);
  bool AppendCampaignComplete(bool converged);
  // Operational forensics record ({"type":"event","kind":...,"detail":...}):
  // appended durably like every record, surfaced by replay as a count, never
  // re-applied. `kind` is a stable machine tag ("agent-evicted"), `detail` prose.
  bool AppendEvent(const std::string& kind, const std::string& detail);
  void Close();

  bool is_open() const {
    std::lock_guard<std::mutex> lock(mu_);
    return file_ != nullptr;
  }
  // errno of the most recent failed operation (0 when none failed yet). The
  // campaign's degradation policy is errno-directed: ENOSPC drains gracefully,
  // anything else (EIO) drops to journal-less degraded mode.
  int last_errno() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_errno_;
  }
  // Total run records in the ledger: replayed predecessors + appended this session.
  uint64_t run_records() const;
  void set_replayed_run_records(uint64_t n);

  // Torn-tail-tolerant replay of a journal file. Returns false only when the file
  // cannot be read at all; parse damage is reported through the replay fields.
  static bool Load(const std::string& path, JournalReplay* out);

 private:
  // Requires mu_. On a write or fsync failure the handle is never trusted again
  // (fsyncgate: the kernel may have dropped the error with the dirty pages):
  // the file is reopened, truncated back to the last committed byte, and the
  // record retried once on the fresh handle; a second failure closes the
  // journal for good (fail closed) with last_errno_ set.
  bool AppendLine(const std::string& line);
  // Write + (optional) fsync of `line` on the current handle; 0 or errno.
  int WriteAndSyncLocked(const std::string& line);
  void CloseLocked();

  mutable std::mutex mu_;
  std::unique_ptr<io::VfsFile> file_;
  std::string path_;
  bool fsync_ = true;
  uint64_t run_records_ = 0;
  uint64_t committed_bytes_ = 0;  // newline-terminated, synced prefix length
  int last_errno_ = 0;
};

// BugReportMgr dedup-state snapshot sidecar, written atomically (temp + rename)
// so resume always sees either the previous snapshot or the new one.
struct BugMgrSnapshot {
  uint64_t watermark = 0;  // run records whose observations the snapshot covers
  std::vector<BugReportMgr::UniqueBug> bugs;
};
// `err` (optional) receives the failing errno, 0 on success — the campaign's
// errno-directed degradation policy needs to distinguish ENOSPC from EIO.
bool SaveBugMgrSnapshot(const std::string& path, const BugReportMgr& mgr,
                        uint64_t watermark, bool durable, int* err = nullptr);
bool LoadBugMgrSnapshot(const std::string& path, BugMgrSnapshot* out);

// Reaps the per-run trap checkpoints a dead orchestrator left in `checkpoint_dir`:
// salvages every "ckpt-*.tsvd" into `into` (lenient parse — a child may have died
// mid-write of a pre-atomic-rename temp), deletes the salvaged files and any
// leftover temp litter, and returns the number of checkpoint files salvaged.
// Returns 0 (and touches nothing) when the directory does not exist.
int ReapStaleCheckpoints(const std::string& checkpoint_dir, TrapFile* into);

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_JOURNAL_H_
