// Filesystem seam for every durable writer (DESIGN.md §15).
//
// All write-path filesystem traffic that a crash, a full disk, or a flaky mount
// can corrupt — the campaign journal, trap stores, bug-manager snapshots,
// sandbox checkpoints, and the report sinks — goes through a Vfs instead of calling open/write/fsync/rename directly. In
// production the active Vfs is RealVfs (thin POSIX passthrough); tests and the
// --io_chaos flag install a ChaosFs decorator (chaos_fs.h) over it, which is
// what lets the storage-chaos suite inject ENOSPC, EIO, short writes, fsync
// failures, and mid-write crash points deterministically.
//
// Error contract: every operation returns 0 on success or the failing errno —
// never a bare bool — because the degradation policies layered above are
// errno-directed (ENOSPC drains the campaign, EIO degrades the journal; see
// campaign.cc). Read paths stay on plain ifstream: reads cannot corrupt state,
// and salvage-on-load already covers torn input.
#ifndef SRC_IO_VFS_H_
#define SRC_IO_VFS_H_

#include <cstdint>
#include <memory>
#include <string>

namespace tsvd::io {

// An open writable file. Concrete handles are private to the Vfs that opened
// them; callers only Write/Fsync through the owning Vfs and Close by moving the
// handle back. Destroying a handle without Close releases the descriptor
// without error reporting (the abandon-on-failure path).
class VfsFile {
 public:
  virtual ~VfsFile() = default;
};

class Vfs {
 public:
  enum class OpenMode {
    kTruncate,  // create or truncate, write from the start
    kAppend,    // create if missing, every write lands at the tail
  };

  virtual ~Vfs() = default;

  // All operations return 0 on success or the errno of the failure.
  virtual int Open(const std::string& path, OpenMode mode,
                   std::unique_ptr<VfsFile>* out) = 0;
  // Writes all of `data` (looping over short kernel writes internally); a
  // failure may leave a prefix on disk — exactly the torn state the salvage
  // loaders exist for.
  virtual int Write(VfsFile* file, const char* data, size_t size) = 0;
  virtual int Fsync(VfsFile* file) = 0;
  virtual int Close(std::unique_ptr<VfsFile> file) = 0;
  virtual int Rename(const std::string& from, const std::string& to) = 0;
  virtual int Unlink(const std::string& path) = 0;
  // mkdir -p semantics; an existing directory is success.
  virtual int Mkdir(const std::string& path) = 0;
  // fsync of a directory: commits a rename within it to the filesystem journal
  // on filesystems that need it (ext4, xfs). No-op success on Windows.
  virtual int FsyncDir(const std::string& path) = 0;
  virtual int Truncate(const std::string& path, uint64_t size) = 0;

  int Write(VfsFile* file, const std::string& data) {
    return Write(file, data.data(), data.size());
  }
};

// The process's direct-passthrough implementation. Never fails to exist;
// always safe to call from any thread.
Vfs* RealVfs();

// The active seam: RealVfs unless a decorator was installed. Every durable
// writer routes through ActiveVfs() at call time (not construction time), so an
// install mid-process — the test harness, the --io_chaos flag — covers writers
// created earlier.
Vfs* ActiveVfs();

// Installs `vfs` process-wide; nullptr restores RealVfs. The caller keeps
// ownership and must keep `vfs` alive until it is uninstalled.
void SetActiveVfs(Vfs* vfs);

// RAII install/restore for tests.
class ScopedVfs {
 public:
  explicit ScopedVfs(Vfs* vfs) { SetActiveVfs(vfs); }
  ~ScopedVfs() { SetActiveVfs(nullptr); }
  ScopedVfs(const ScopedVfs&) = delete;
  ScopedVfs& operator=(const ScopedVfs&) = delete;
};

// Writes `content` to `path` (truncating) through the active Vfs, fsyncing
// before returning when `durable`. On failure the partial file is unlinked.
// Returns 0 or the first failing errno.
int WriteFileThroughVfs(const std::string& path, const std::string& content,
                        bool durable);

}  // namespace tsvd::io

#endif  // SRC_IO_VFS_H_
