#include "src/campaign/journal.h"

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/campaign/json.h"
#include "src/report/trap_file.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::campaign {
namespace {

constexpr int kJournalVersion = 1;
constexpr int kSnapshotVersion = 1;

}  // namespace

bool JournalHeader::CompatibleWith(const JournalHeader& other,
                                   std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) {
      *why = message;
    }
    return false;
  };
  if (version != other.version) {
    return fail("journal version " + std::to_string(other.version) +
                " != " + std::to_string(version));
  }
  if (detector != other.detector) {
    return fail("detector " + other.detector + " != " + detector);
  }
  if (seed != other.seed) {
    return fail("seed " + std::to_string(other.seed) +
                " != " + std::to_string(seed));
  }
  if (num_modules != other.num_modules) {
    return fail("corpus size " + std::to_string(other.num_modules) +
                " != " + std::to_string(num_modules));
  }
  if (std::fabs(scale - other.scale) > 1e-12) {
    return fail("scale mismatch");
  }
  return true;
}

std::string CampaignJournal::PathIn(const std::string& out_dir) {
  return (std::filesystem::path(out_dir) / "journal.tsvdj").string();
}

std::string CampaignJournal::SnapshotPathIn(const std::string& out_dir) {
  return (std::filesystem::path(out_dir) / "bugmgr.snap.json").string();
}

bool CampaignJournal::Open(const std::string& path, const JournalHeader& header,
                           bool truncate, bool fsync) {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
  io::Vfs* vfs = io::ActiveVfs();
  fsync_ = fsync;
  path_ = path;
  last_errno_ = 0;
  if (!truncate) {
    // Appends land after the existing newline-terminated prefix; the resume
    // path has already truncated any torn tail (run_executor.cc).
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    committed_bytes_ = ec ? 0 : static_cast<uint64_t>(size);
  }
  int err = vfs->Open(path,
                      truncate ? io::Vfs::OpenMode::kTruncate
                               : io::Vfs::OpenMode::kAppend,
                      &file_);
  if (err != 0) {
    last_errno_ = err;
    return false;
  }
  if (truncate) {
    run_records_ = 0;
    committed_bytes_ = 0;
    Json h = EncodeFields(header);
    h.Set("type", "header");
    h.Set("version", kJournalVersion);
    const std::string line = h.Dump() + "\n";
    if ((err = WriteAndSyncLocked(line)) != 0) {
      last_errno_ = err;
      vfs->Close(std::move(file_));
      return false;
    }
    committed_bytes_ = line.size();
  }
  return true;
}

int CampaignJournal::WriteAndSyncLocked(const std::string& line) {
  io::Vfs* vfs = io::ActiveVfs();
  int err = vfs->Write(file_.get(), line);
  if (err == 0 && fsync_) {
    err = vfs->Fsync(file_.get());
  }
  return err;
}

bool CampaignJournal::AppendLine(const std::string& line) {
  if (file_ == nullptr) {
    last_errno_ = last_errno_ != 0 ? last_errno_ : EBADF;
    return false;
  }
  int err = WriteAndSyncLocked(line);
  if (err == 0) {
    committed_bytes_ += line.size();
    return true;
  }
  // fsyncgate: after a failed write or fsync the handle's dirty pages — and the
  // error itself — may already be gone from the page cache, so nothing written
  // since the last successful sync can be trusted. Reopen from scratch,
  // truncate back to the committed prefix (discarding any torn partial line),
  // and retry the record once on the fresh handle.
  io::Vfs* vfs = io::ActiveVfs();
  vfs->Close(std::move(file_));
  if (vfs->Truncate(path_, committed_bytes_) == 0 &&
      vfs->Open(path_, io::Vfs::OpenMode::kAppend, &file_) == 0 && file_) {
    const int retry_err = WriteAndSyncLocked(line);
    if (retry_err == 0) {
      committed_bytes_ += line.size();
      return true;
    }
    err = retry_err;
  }
  // Fail closed: drop the handle and put the file back to the committed prefix
  // (best effort — the disk is already misbehaving) so the ledger never holds a
  // record whose durability is unknown. The caller reads last_errno() to pick a
  // degradation policy (ENOSPC = drain, EIO = journal-less degraded mode).
  if (file_) {
    vfs->Close(std::move(file_));
  }
  vfs->Truncate(path_, committed_bytes_);
  last_errno_ = err != 0 ? err : EIO;
  return false;
}

bool CampaignJournal::AppendRun(const RunOutcome& outcome) {
  Json j = Json::MakeObject();
  j.Set("type", "run");
  j.Set("round", outcome.round);
  j.Set("module_index", outcome.module_index);
  j.Set("outcome", sandbox::EncodeRunOutcome(outcome));
  std::lock_guard<std::mutex> lock(mu_);
  if (!AppendLine(j.Dump() + "\n")) {
    return false;
  }
  ++run_records_;
  return true;
}

bool CampaignJournal::AppendRoundComplete(const RoundStats& stats,
                                          uint64_t cumulative_unique_bugs) {
  Json j = Json::MakeObject();
  j.Set("type", "round");
  j.Set("round", stats.round);
  j.Set("stats", EncodeFields(stats));
  j.Set("cumulative_unique_bugs", cumulative_unique_bugs);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLine(j.Dump() + "\n");
}

bool CampaignJournal::AppendEvent(const std::string& kind,
                                  const std::string& detail) {
  Json j = Json::MakeObject();
  j.Set("type", "event");
  j.Set("kind", kind);
  j.Set("detail", detail);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLine(j.Dump() + "\n");
}

bool CampaignJournal::AppendCampaignComplete(bool converged) {
  Json j = Json::MakeObject();
  j.Set("type", "complete");
  j.Set("converged", converged);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLine(j.Dump() + "\n");
}

void CampaignJournal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
}

void CampaignJournal::CloseLocked() {
  if (file_ != nullptr) {
    io::ActiveVfs()->Close(std::move(file_));
  }
}

uint64_t CampaignJournal::run_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_records_;
}

void CampaignJournal::set_replayed_run_records(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  run_records_ = n;
}

bool CampaignJournal::Load(const std::string& path, JournalReplay* out) {
  *out = JournalReplay{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    const std::string line =
        text.substr(pos, terminated ? nl - pos : std::string::npos);
    pos = terminated ? nl + 1 : text.size();
    const bool is_last = pos >= text.size();
    if (!terminated) {
      // A final line with no newline is a torn append — even if it happens to
      // parse, the record never fully committed. Drop it (the run re-executes on
      // resume) and leave valid_bytes short of it so the resume writer truncates
      // the damage before appending.
      if (!line.empty()) {
        out->torn_tail = true;
      }
      break;
    }
    out->valid_bytes = pos;
    if (line.empty()) {
      continue;
    }

    Json doc;
    std::string type;
    if (!Json::Parse(line, &doc) || !doc.is_object() ||
        !ReadField(doc, "type", &type)) {
      // An unterminated or unparsable final line is the torn tail of a crashed
      // append — expected damage, dropped silently but reported. Anything
      // unparsable mid-file is salvage-skipped like a malformed trap-store line.
      if (is_last) {
        out->torn_tail = true;
      } else {
        ++out->malformed_records;
      }
      continue;
    }

    if (type == "header") {
      JournalHeader header;
      if (DecodeFields(doc, &header) && header.version == kJournalVersion) {
        out->header = header;
        out->has_header = true;
      } else {
        ++out->malformed_records;
      }
    } else if (type == "run") {
      RunOutcome outcome;
      const Json* encoded = doc.Find("outcome");
      if (encoded != nullptr && sandbox::DecodeRunOutcome(*encoded, &outcome)) {
        out->outcomes.push_back(std::move(outcome));
      } else if (is_last) {
        out->torn_tail = true;
      } else {
        ++out->malformed_records;
      }
    } else if (type == "round") {
      RoundStats stats;
      const Json* encoded = doc.Find("stats");
      uint64_t cumulative = 0;
      if (encoded != nullptr && DecodeFields(*encoded, &stats) &&
          ReadField(doc, "cumulative_unique_bugs", &cumulative)) {
        // Keep rounds in order; a duplicate round record (possible only under
        // hand-edited journals) keeps the last write.
        while (!out->completed_rounds.empty() &&
               out->completed_rounds.back().round >= stats.round) {
          out->completed_rounds.pop_back();
        }
        out->completed_rounds.push_back(stats);
        out->unique_bugs_at_last_round = cumulative;
      } else if (is_last) {
        out->torn_tail = true;
      } else {
        ++out->malformed_records;
      }
    } else if (type == "complete") {
      out->complete = true;
      bool converged = false;
      if (ReadField(doc, "converged", &converged)) {
        out->converged = converged;
      }
    } else if (type == "event") {
      ++out->event_records;  // forensics: counted, never replayed
    } else {
      ++out->malformed_records;  // unknown record type: a newer writer's journal
    }
  }
  return true;
}

bool SaveBugMgrSnapshot(const std::string& path, const BugReportMgr& mgr,
                        uint64_t watermark, bool durable, int* err) {
  Json j = Json::MakeObject();
  j.Set("version", kSnapshotVersion);
  j.Set("watermark", watermark);
  Json bugs = Json::MakeArray();
  for (const BugReportMgr::UniqueBug& bug : mgr.Bugs()) {
    bugs.Push(EncodeFields(bug));
  }
  j.Set("bugs", std::move(bugs));
  return AtomicWriteFileDurable(path, j.Dump(2), durable, err);
}

bool LoadBugMgrSnapshot(const std::string& path, BugMgrSnapshot* out) {
  *out = BugMgrSnapshot{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Json doc;
  if (!Json::Parse(buffer.str(), &doc) || !doc.is_object()) {
    return false;
  }
  int version = 0;
  if (!ReadField(doc, "version", &version) || version != kSnapshotVersion ||
      !ReadField(doc, "watermark", &out->watermark)) {
    return false;
  }
  const Json* bugs = doc.Find("bugs");
  if (bugs == nullptr || !bugs->is_array()) {
    return false;
  }
  out->bugs.reserve(bugs->size());
  for (size_t i = 0; i < bugs->size(); ++i) {
    BugReportMgr::UniqueBug bug;
    if (!DecodeFields(bugs->at(i), &bug)) {
      return false;
    }
    out->bugs.push_back(std::move(bug));
  }
  return true;
}

int ReapStaleCheckpoints(const std::string& checkpoint_dir, TrapFile* into) {
  std::error_code ec;
  if (checkpoint_dir.empty() ||
      !std::filesystem::is_directory(checkpoint_dir, ec)) {
    return 0;
  }
  int salvaged = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(checkpoint_dir, ec)) {
    if (ec || !entry.is_regular_file(ec)) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && entry.path().extension() == ".tsvd") {
      TrapFile file;
      if (TrapFile::SalvageFrom(entry.path().string(), &file) && !file.empty()) {
        if (into != nullptr) {
          into->Merge(file);
        }
        ++salvaged;
      }
      std::filesystem::remove(entry.path(), ec);
    } else if (name.find(".tmp.") != std::string::npos ||
               name.find(".xdev.") != std::string::npos) {
      // Atomic-save staging litter from a writer that died pre-rename.
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return salvaged;
}

}  // namespace tsvd::campaign
