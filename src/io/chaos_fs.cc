#include "src/io/chaos_fs.h"

#include <cerrno>

#ifndef _WIN32
#include <csignal>
#include <unistd.h>
#endif

#include "src/common/kv_spec.h"
#include "src/common/rng.h"

namespace tsvd::io {
namespace {

// Handles carry their Open's path-filter verdict so per-handle operations
// (Write, Fsync, Close) fault only on files the filter selected.
class ChaosFile : public VfsFile {
 public:
  ChaosFile(std::unique_ptr<VfsFile> inner, bool faultable)
      : inner_(std::move(inner)), faultable_(faultable) {}
  VfsFile* inner() const { return inner_.get(); }
  std::unique_ptr<VfsFile> TakeInner() { return std::move(inner_); }
  bool faultable() const { return faultable_; }

 private:
  std::unique_ptr<VfsFile> inner_;
  const bool faultable_;
};

}  // namespace

bool ChaosFsSpec::Parse(const std::string& text, ChaosFsSpec* out,
                        std::string* error) {
  *out = ChaosFsSpec();
  return ParseKeyValueSpec(
      text, "io chaos spec", error,
      [out](const std::string& key, const std::string& value) -> std::string {
        int64_t n = 0;
        if (key == "seed") {
          if (!ParseNonNegative(value, &n)) {
            return "seed must be a non-negative integer, got \"" + value + "\"";
          }
          out->seed = static_cast<uint64_t>(n);
        } else if (key == "enospc" || key == "eio" || key == "short_write" ||
                   key == "fsync_fail" || key == "rename_fail") {
          double p = 0;
          if (!ParseProbability(value, &p)) {
            return key + " must be a probability in [0, 1], got \"" + value + "\"";
          }
          (key == "enospc"        ? out->enospc
           : key == "eio"         ? out->eio
           : key == "short_write" ? out->short_write
           : key == "fsync_fail"  ? out->fsync_fail
                                  : out->rename_fail) = p;
        } else if (key == "after" || key == "max_faults" || key == "crash_at") {
          if (!ParseNonNegative(value, &n)) {
            return key + " must be a non-negative integer";
          }
          (key == "after"        ? out->after
           : key == "max_faults" ? out->max_faults
                                 : out->crash_at) = n;
        } else if (key == "path") {
          out->path_substr = value;
        } else {
          return "unknown key \"" + key + "\"";
        }
        return "";
      });
}

std::vector<std::pair<std::string, uint64_t>> ChaosFsStats::Classes() const {
  return {{"enospc", enospc},
          {"eio", eio},
          {"short_write", short_writes},
          {"fsync_fail", fsync_failures},
          {"rename_fail", rename_failures}};
}

ChaosFs::ChaosFs(Vfs* inner, ChaosFsSpec spec, uint64_t salt)
    : inner_(inner), spec_(spec), salt_(salt) {}

bool ChaosFs::Faultable(const std::string& path) const {
  return spec_.path_substr.empty() ||
         path.find(spec_.path_substr) != std::string::npos;
}

ChaosFs::Draws ChaosFs::DrawsFor(double pa, double pb, double pc) {
  Draws d;
  d.index = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  stat_ops_.fetch_add(1, std::memory_order_relaxed);
  // Seed a fresh stream from the op's own index; four draws in fixed order. The draws
  // depend on (seed, salt, index) alone, never on a shared evolving stream, so the
  // schedule is replay-identical even under concurrent writers.
  uint64_t state = spec_.seed ^ (salt_ * 0x9e3779b97f4a7c15ull) ^
                   (d.index * 0xbf58476d1ce4e5b9ull);
  d.flip_a = FlipDraw(SplitMix64(&state), pa);
  d.flip_b = FlipDraw(SplitMix64(&state), pb);
  d.flip_c = FlipDraw(SplitMix64(&state), pc);
  d.fraction = SplitMix64(&state);
  d.exempt = static_cast<int64_t>(d.index) <= spec_.after;
  d.crash = spec_.crash_at > 0 && static_cast<int64_t>(d.index) == spec_.crash_at;
  return d;
}

bool ChaosFs::Charge() {
  if (spec_.max_faults <= 0) {
    return true;
  }
  // Optimistic claim: back out when the cap was already reached.
  const uint64_t claimed =
      faults_charged_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (claimed > static_cast<uint64_t>(spec_.max_faults)) {
    faults_charged_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ChaosFs::CrashNow(VfsFile* torn_write_target, const char* data,
                       size_t size, uint64_t fraction) {
  if (torn_write_target != nullptr && size > 0) {
    // Torn-at-offset: persist a deterministic prefix, then die mid-write.
    inner_->Write(torn_write_target, data, fraction % size);
    inner_->Fsync(torn_write_target);
  }
#ifndef _WIN32
  ::kill(::getpid(), SIGKILL);
#endif
  std::abort();  // unreachable on POSIX; the Windows stand-in for SIGKILL
}

int ChaosFs::Open(const std::string& path, OpenMode mode,
                  std::unique_ptr<VfsFile>* out) {
  const bool faultable = Faultable(path);
  if (faultable) {
    const Draws d = DrawsFor(spec_.enospc, spec_.eio, 0);
    if (d.crash) {
      CrashNow(nullptr, nullptr, 0, 0);
    }
    if (!d.exempt) {
      if (d.flip_a && Charge()) {
        stat_enospc_.fetch_add(1, std::memory_order_relaxed);
        return ENOSPC;
      }
      if (d.flip_b && Charge()) {
        stat_eio_.fetch_add(1, std::memory_order_relaxed);
        return EIO;
      }
    }
  }
  std::unique_ptr<VfsFile> inner_file;
  const int err = inner_->Open(path, mode, &inner_file);
  if (err != 0) {
    return err;
  }
  *out = std::make_unique<ChaosFile>(std::move(inner_file), faultable);
  return 0;
}

int ChaosFs::Write(VfsFile* file, const char* data, size_t size) {
  ChaosFile* cf = static_cast<ChaosFile*>(file);
  if (!cf->faultable()) {
    return inner_->Write(cf->inner(), data, size);
  }
  const Draws d = DrawsFor(spec_.enospc, spec_.eio, spec_.short_write);
  if (d.crash) {
    CrashNow(cf->inner(), data, size, d.fraction);
  }
  if (!d.exempt) {
    if (d.flip_a && Charge()) {
      stat_enospc_.fetch_add(1, std::memory_order_relaxed);
      return ENOSPC;
    }
    if (d.flip_b && Charge()) {
      stat_eio_.fetch_add(1, std::memory_order_relaxed);
      return EIO;
    }
    if (d.flip_c && size > 0 && Charge()) {
      // The disk accepted a prefix, then filled: the torn-file fault the
      // salvage loaders must absorb.
      stat_short_.fetch_add(1, std::memory_order_relaxed);
      inner_->Write(cf->inner(), data, d.fraction % size);
      return ENOSPC;
    }
  }
  return inner_->Write(cf->inner(), data, size);
}

int ChaosFs::Fsync(VfsFile* file) {
  ChaosFile* cf = static_cast<ChaosFile*>(file);
  if (!cf->faultable()) {
    return inner_->Fsync(cf->inner());
  }
  const Draws d = DrawsFor(spec_.fsync_fail, 0, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  if (!d.exempt && d.flip_a && Charge()) {
    stat_fsync_.fetch_add(1, std::memory_order_relaxed);
    return EIO;
  }
  return inner_->Fsync(cf->inner());
}

int ChaosFs::Close(std::unique_ptr<VfsFile> file) {
  if (file == nullptr) {
    return 0;
  }
  return inner_->Close(static_cast<ChaosFile*>(file.get())->TakeInner());
}

int ChaosFs::Rename(const std::string& from, const std::string& to) {
  if (!Faultable(from) && !Faultable(to)) {
    return inner_->Rename(from, to);
  }
  const Draws d = DrawsFor(spec_.rename_fail, spec_.enospc, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  if (!d.exempt) {
    if (d.flip_a && Charge()) {
      stat_rename_.fetch_add(1, std::memory_order_relaxed);
      return EIO;
    }
    if (d.flip_b && Charge()) {
      stat_enospc_.fetch_add(1, std::memory_order_relaxed);
      return ENOSPC;
    }
  }
  return inner_->Rename(from, to);
}

int ChaosFs::Unlink(const std::string& path) {
  if (!Faultable(path)) {
    return inner_->Unlink(path);
  }
  const Draws d = DrawsFor(0, 0, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  return inner_->Unlink(path);
}

int ChaosFs::Mkdir(const std::string& path) {
  if (!Faultable(path)) {
    return inner_->Mkdir(path);
  }
  const Draws d = DrawsFor(spec_.enospc, 0, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  if (!d.exempt && d.flip_a && Charge()) {
    stat_enospc_.fetch_add(1, std::memory_order_relaxed);
    return ENOSPC;
  }
  return inner_->Mkdir(path);
}

int ChaosFs::FsyncDir(const std::string& path) {
  if (!Faultable(path)) {
    return inner_->FsyncDir(path);
  }
  const Draws d = DrawsFor(spec_.fsync_fail, 0, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  if (!d.exempt && d.flip_a && Charge()) {
    stat_fsync_.fetch_add(1, std::memory_order_relaxed);
    return EIO;
  }
  return inner_->FsyncDir(path);
}

int ChaosFs::Truncate(const std::string& path, uint64_t size) {
  if (!Faultable(path)) {
    return inner_->Truncate(path, size);
  }
  const Draws d = DrawsFor(0, 0, 0);
  if (d.crash) {
    CrashNow(nullptr, nullptr, 0, 0);
  }
  return inner_->Truncate(path, size);
}

ChaosFsStats ChaosFs::stats() const {
  ChaosFsStats s;
  s.ops = stat_ops_.load(std::memory_order_relaxed);
  s.enospc = stat_enospc_.load(std::memory_order_relaxed);
  s.eio = stat_eio_.load(std::memory_order_relaxed);
  s.short_writes = stat_short_.load(std::memory_order_relaxed);
  s.fsync_failures = stat_fsync_.load(std::memory_order_relaxed);
  s.rename_failures = stat_rename_.load(std::memory_order_relaxed);
  return s;
}

ChaosFs* InstalledChaosFs() { return dynamic_cast<ChaosFs*>(ActiveVfs()); }

std::unique_ptr<ChaosFs> InstallChaosFsFromSpec(const std::string& spec_text,
                                                uint64_t salt,
                                                std::string* error) {
  if (spec_text.empty()) {
    return nullptr;
  }
  ChaosFsSpec spec;
  if (!ChaosFsSpec::Parse(spec_text, &spec, error)) {
    return nullptr;
  }
  auto chaos = std::make_unique<ChaosFs>(RealVfs(), spec, salt);
  SetActiveVfs(chaos.get());
  return chaos;
}

}  // namespace tsvd::io
