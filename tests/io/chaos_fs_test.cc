// ChaosFs: spec grammar, schedule determinism, per-class fault injection, the
// after=/max_faults=/path= guards, crash points, and fail-closed atomic writes
// under fsync failure (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/io/chaos_fs.h"
#include "src/io/vfs.h"
#include "src/report/trap_file.h"

namespace tsvd::io {
namespace {

namespace fs = std::filesystem;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_chaos_fs_test_" + std::to_string(stamp) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ChaosFsSpecTest, EmptySpecParsesToNoFaults) {
  ChaosFsSpec spec;
  std::string error;
  ASSERT_TRUE(ChaosFsSpec::Parse("", &spec, &error)) << error;
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.enospc, 0.0);
  EXPECT_EQ(spec.max_faults, 0);
  EXPECT_EQ(spec.crash_at, 0);
  EXPECT_TRUE(spec.path_substr.empty());
}

TEST(ChaosFsSpecTest, FullSpecRoundTrips) {
  ChaosFsSpec spec;
  std::string error;
  ASSERT_TRUE(ChaosFsSpec::Parse(
      "seed=42,enospc=0.25,eio=0.5,short_write=0.1,fsync_fail=1,"
      "rename_fail=0.75,after=10,max_faults=3,crash_at=7,path=journal.tsvdj",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.enospc, 0.25);
  EXPECT_DOUBLE_EQ(spec.eio, 0.5);
  EXPECT_DOUBLE_EQ(spec.short_write, 0.1);
  EXPECT_DOUBLE_EQ(spec.fsync_fail, 1.0);
  EXPECT_DOUBLE_EQ(spec.rename_fail, 0.75);
  EXPECT_EQ(spec.after, 10);
  EXPECT_EQ(spec.max_faults, 3);
  EXPECT_EQ(spec.crash_at, 7);
  EXPECT_EQ(spec.path_substr, "journal.tsvdj");
}

TEST(ChaosFsSpecTest, MalformedSpecsReportWhatBroke) {
  ChaosFsSpec spec;
  std::string error;
  EXPECT_FALSE(ChaosFsSpec::Parse("enospc", &spec, &error));
  EXPECT_NE(error.find("not key=value"), std::string::npos) << error;
  EXPECT_FALSE(ChaosFsSpec::Parse("enospc=1.5", &spec, &error));
  EXPECT_NE(error.find("probability"), std::string::npos) << error;
  EXPECT_FALSE(ChaosFsSpec::Parse("eio=banana", &spec, &error));
  EXPECT_NE(error.find("eio"), std::string::npos) << error;
  EXPECT_FALSE(ChaosFsSpec::Parse("seed=-3", &spec, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_FALSE(ChaosFsSpec::Parse("warp_drive=1", &spec, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
}

TEST(ChaosFsSpecTest, ErrorMessagesArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"enospc", "io chaos spec item \"enospc\" is not key=value"},
      {"eio=banana",
       "io chaos spec: eio must be a probability in [0, 1], got \"banana\""},
      {"seed=x", "io chaos spec: seed must be a non-negative integer, got \"x\""},
      {"crash_at=-1", "io chaos spec: crash_at must be a non-negative integer"},
      {"path=journal,,warp_drive=1", "io chaos spec: unknown key \"warp_drive\""},
  };
  for (const auto& [text, message] : cases) {
    ChaosFsSpec spec;
    std::string error;
    EXPECT_FALSE(ChaosFsSpec::Parse(text, &spec, &error)) << text;
    EXPECT_EQ(error, message);
  }
}

// Runs a fixed op sequence (one exempt open + `writes` one-byte writes) and
// returns the errno of every write — the observable fault schedule.
std::vector<int> ScheduleOf(const std::string& dir, uint64_t seed,
                            uint64_t salt, int writes) {
  ChaosFsSpec spec;
  spec.seed = seed;
  spec.enospc = 0.2;
  spec.eio = 0.2;
  spec.after = 1;  // let the open through
  ChaosFs chaos(RealVfs(), spec, salt);
  std::unique_ptr<VfsFile> file;
  EXPECT_EQ(chaos.Open(dir + "/sched.txt", Vfs::OpenMode::kTruncate, &file), 0);
  std::vector<int> schedule;
  schedule.reserve(writes);
  for (int i = 0; i < writes; ++i) {
    schedule.push_back(chaos.Write(file.get(), "x", 1));
  }
  chaos.Close(std::move(file));
  return schedule;
}

TEST(ChaosFsTest, SameSeedAndSaltReplayIdentically) {
  ScopedTempDir dir;
  const std::vector<int> a = ScheduleOf(dir.path, 7, 3, 200);
  const std::vector<int> b = ScheduleOf(dir.path, 7, 3, 200);
  EXPECT_EQ(a, b);
  // The schedule actually contains faults (0.4 combined over 200 draws).
  EXPECT_NE(std::count(a.begin(), a.end(), 0), 200);
}

TEST(ChaosFsTest, DifferentSaltDecorrelatesTheSchedule) {
  ScopedTempDir dir;
  EXPECT_NE(ScheduleOf(dir.path, 7, 3, 200), ScheduleOf(dir.path, 7, 4, 200));
  EXPECT_NE(ScheduleOf(dir.path, 7, 3, 200), ScheduleOf(dir.path, 8, 3, 200));
}

TEST(ChaosFsTest, EnospcFiresOnOpen) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.enospc = 1.0;
  ChaosFs chaos(RealVfs(), spec);
  std::unique_ptr<VfsFile> file;
  EXPECT_EQ(chaos.Open(dir.path + "/f", Vfs::OpenMode::kTruncate, &file),
            ENOSPC);
  EXPECT_EQ(file, nullptr);
  EXPECT_FALSE(fs::exists(dir.path + "/f"));
  EXPECT_EQ(chaos.stats().enospc, 1u);
  EXPECT_EQ(chaos.stats().TotalFaults(), 1u);
}

TEST(ChaosFsTest, EioFiresOnWrite) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.eio = 1.0;
  spec.after = 1;
  ChaosFs chaos(RealVfs(), spec);
  std::unique_ptr<VfsFile> file;
  ASSERT_EQ(chaos.Open(dir.path + "/f", Vfs::OpenMode::kTruncate, &file), 0);
  EXPECT_EQ(chaos.Write(file.get(), "data", 4), EIO);
  chaos.Close(std::move(file));
  EXPECT_EQ(ReadAll(dir.path + "/f"), "");  // nothing persisted
  EXPECT_EQ(chaos.stats().eio, 1u);
}

TEST(ChaosFsTest, ShortWritePersistsAStrictPrefixThenEnospc) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.short_write = 1.0;
  spec.after = 1;
  ChaosFs chaos(RealVfs(), spec);
  std::unique_ptr<VfsFile> file;
  ASSERT_EQ(chaos.Open(dir.path + "/f", Vfs::OpenMode::kTruncate, &file), 0);
  const std::string content = "0123456789abcdef";
  EXPECT_EQ(chaos.Write(file.get(), content), ENOSPC);
  chaos.Close(std::move(file));
  const std::string on_disk = ReadAll(dir.path + "/f");
  EXPECT_LT(on_disk.size(), content.size());
  EXPECT_EQ(on_disk, content.substr(0, on_disk.size()));
  EXPECT_EQ(chaos.stats().short_writes, 1u);
}

TEST(ChaosFsTest, FsyncAndRenameFailuresFire) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.fsync_fail = 1.0;
  spec.rename_fail = 1.0;
  spec.after = 2;  // exempt open + write
  ChaosFs chaos(RealVfs(), spec);
  std::unique_ptr<VfsFile> file;
  ASSERT_EQ(chaos.Open(dir.path + "/f", Vfs::OpenMode::kTruncate, &file), 0);
  ASSERT_EQ(chaos.Write(file.get(), std::string("data")), 0);
  EXPECT_EQ(chaos.Fsync(file.get()), EIO);
  chaos.Close(std::move(file));
  EXPECT_EQ(chaos.Rename(dir.path + "/f", dir.path + "/g"), EIO);
  // rename_fail leaves the destination untouched and the source in place.
  EXPECT_TRUE(fs::exists(dir.path + "/f"));
  EXPECT_FALSE(fs::exists(dir.path + "/g"));
  EXPECT_EQ(chaos.stats().fsync_failures, 1u);
  EXPECT_EQ(chaos.stats().rename_failures, 1u);
}

TEST(ChaosFsTest, AfterExemptsThePrefixMaxFaultsCapsTheTotal) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.eio = 1.0;  // every non-exempt write would fail...
  spec.after = 3;  // ...but ops 1-3 are exempt...
  spec.max_faults = 2;  // ...and only two faults may ever fire.
  ChaosFs chaos(RealVfs(), spec);
  std::unique_ptr<VfsFile> file;
  ASSERT_EQ(chaos.Open(dir.path + "/f", Vfs::OpenMode::kTruncate, &file), 0);
  EXPECT_EQ(chaos.Write(file.get(), "a", 1), 0);  // op 2: exempt
  EXPECT_EQ(chaos.Write(file.get(), "b", 1), 0);  // op 3: exempt
  EXPECT_EQ(chaos.Write(file.get(), "c", 1), EIO);  // op 4: fault 1
  EXPECT_EQ(chaos.Write(file.get(), "d", 1), EIO);  // op 5: fault 2
  EXPECT_EQ(chaos.Write(file.get(), "e", 1), 0);    // op 6: cap reached
  EXPECT_EQ(chaos.Write(file.get(), "f", 1), 0);
  chaos.Close(std::move(file));
  EXPECT_EQ(chaos.stats().eio, 2u);
  EXPECT_EQ(ReadAll(dir.path + "/f"), "abef");
}

TEST(ChaosFsTest, PathFilterScopesFaultsAndStats) {
  ScopedTempDir dir;
  ChaosFsSpec spec;
  spec.eio = 1.0;
  spec.path_substr = "journal.tsvdj";
  ChaosFs chaos(RealVfs(), spec);

  // A non-matching path passes straight through — not faulted, not counted —
  // and its handle stays exempt for the whole lifetime.
  std::unique_ptr<VfsFile> other;
  ASSERT_EQ(chaos.Open(dir.path + "/report.json", Vfs::OpenMode::kTruncate,
                       &other),
            0);
  EXPECT_EQ(chaos.Write(other.get(), std::string("fine")), 0);
  EXPECT_EQ(chaos.Fsync(other.get()), 0);
  chaos.Close(std::move(other));
  EXPECT_EQ(chaos.stats().ops, 0u);

  // The matching path faults on its very first op.
  std::unique_ptr<VfsFile> journal;
  EXPECT_EQ(chaos.Open(dir.path + "/journal.tsvdj", Vfs::OpenMode::kTruncate,
                       &journal),
            EIO);
  EXPECT_EQ(chaos.stats().ops, 1u);
  EXPECT_EQ(chaos.stats().eio, 1u);
}

TEST(ChaosFsTest, StatsClassesListsEveryFaultClass) {
  ChaosFsStats stats;
  stats.enospc = 1;
  stats.eio = 2;
  stats.short_writes = 3;
  stats.fsync_failures = 4;
  stats.rename_failures = 5;
  const auto classes = stats.Classes();
  ASSERT_EQ(classes.size(), 5u);
  EXPECT_EQ(classes[0], (std::pair<std::string, uint64_t>{"enospc", 1}));
  EXPECT_EQ(classes[1], (std::pair<std::string, uint64_t>{"eio", 2}));
  EXPECT_EQ(classes[2], (std::pair<std::string, uint64_t>{"short_write", 3}));
  EXPECT_EQ(classes[3], (std::pair<std::string, uint64_t>{"fsync_fail", 4}));
  EXPECT_EQ(classes[4], (std::pair<std::string, uint64_t>{"rename_fail", 5}));
  EXPECT_EQ(stats.TotalFaults(), 15u);
}

#ifndef _WIN32
TEST(ChaosFsTest, CrashAtKillsTheProcessMidWriteWithATornPrefix) {
  ScopedTempDir dir;
  const std::string path = dir.path + "/torn.txt";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: op 1 = open (survives), op 2 = write (the crash point).
    ChaosFsSpec spec;
    spec.crash_at = 2;
    ChaosFs chaos(RealVfs(), spec);
    std::unique_ptr<VfsFile> file;
    if (chaos.Open(path, Vfs::OpenMode::kTruncate, &file) != 0) {
      _exit(10);
    }
    chaos.Write(file.get(), std::string("full record that never lands"));
    _exit(11);  // unreachable: the write must have killed us
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // The crash persisted a deterministic strict prefix of the record.
  const std::string on_disk = ReadAll(path);
  EXPECT_LT(on_disk.size(), std::string("full record that never lands").size());
  EXPECT_EQ(on_disk,
            std::string("full record that never lands").substr(0, on_disk.size()));
}
#endif  // !_WIN32

TEST(ChaosFsTest, InstallFromSpecHandlesEmptyValidAndMalformed) {
  std::string error;
  EXPECT_EQ(InstallChaosFsFromSpec("", 0, &error), nullptr);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(ActiveVfs(), RealVfs());

  EXPECT_EQ(InstallChaosFsFromSpec("bogus_key=1", 0, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ActiveVfs(), RealVfs());

  error.clear();
  std::unique_ptr<ChaosFs> chaos =
      InstallChaosFsFromSpec("seed=9,enospc=0.5", 0, &error);
  ASSERT_NE(chaos, nullptr);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(ActiveVfs(), chaos.get());
  EXPECT_EQ(InstalledChaosFs(), chaos.get());
  EXPECT_EQ(chaos->spec().seed, 9u);
  SetActiveVfs(nullptr);
  EXPECT_EQ(InstalledChaosFs(), nullptr);
}

// fsyncgate at the atomic-write layer: when the temp file's fsync fails, the
// save must fail closed (report the errno, clean up the temp, leave the
// destination untouched) — never report committed on an unsynced write.
TEST(ChaosFsTest, AtomicWriteFailsClosedWhenFsyncFails) {
  ScopedTempDir dir;
  const std::string path = dir.path + "/traps.tsvd";
  ASSERT_TRUE(tsvd::AtomicWriteFileDurable(path, "v1", /*durable=*/true));

  ChaosFsSpec spec;
  spec.fsync_fail = 1.0;
  ChaosFs chaos(RealVfs(), spec);
  int err = 0;
  bool ok = true;
  {
    ScopedVfs scoped(&chaos);
    ok = tsvd::AtomicWriteFileDurable(path, "v2", /*durable=*/true, &err);
  }
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, EIO);
  EXPECT_EQ(ReadAll(path), "v1");  // previous committed state intact
  // No temp litter survives the failed save.
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  EXPECT_GE(chaos.stats().fsync_failures, 1u);
}

}  // namespace
}  // namespace tsvd::io
