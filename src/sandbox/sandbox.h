// Process-isolated run sandbox: one forked child per campaign run.
//
// The paper's deployment survives what delay injection provokes — instrumented test
// runs that segfault, deadlock, or blow their time budget (Sections 2.1, 5.1, and the
// delay-budget discussion in 3.4) — because every run lives in its own process. This
// layer gives the campaign the same property on Linux: `RunForked` executes a job
// function in a forked child, the child streams progress markers and its final
// `RunOutcome` (encoded with the campaign Json model) back over a pipe, and the
// parent enforces a wall-clock deadline with a watchdog thread that SIGKILLs a hung
// child. Fatal signals in the child are caught by async-signal-safe handlers that
// report the signal number over the pipe before re-raising, so the parent can build a
// crash signature (signal, last phase marker, last armed trap site) even for runs
// that died mid-test.
//
// On platforms without fork() the layer reports kUnsupported and the campaign falls
// back to the in-process path, which is also the default everywhere.
#ifndef SRC_SANDBOX_SANDBOX_H_
#define SRC_SANDBOX_SANDBOX_H_

#include <functional>
#include <string>

#include "src/campaign/round.h"
#include "src/common/clock.h"

namespace tsvd::sandbox {

// How the campaign isolates and retries runs. `enabled = false` (the default, and
// the only mode on non-fork platforms) keeps every run in-process. The rest of the
// retry ladder — the backoff cap and the delay-degradation steps after a timed-out
// attempt — is fixed (src/campaign/scheduler.cc, run_executor.cc).
struct SandboxPolicy {
  bool enabled = false;
  // Per-attempt wall-clock deadline enforced by the parent's watchdog; <= 0 disables
  // the watchdog (the child can then only die by crashing or finishing).
  int run_timeout_ms = 30'000;
  // Exponential retry backoff: the first re-run waits backoff_base_ms, doubling per
  // subsequent attempt, capped at 2 s. 0 retries immediately.
  int backoff_base_ms = 50;
};

// True when this build can fork sandbox children (POSIX).
bool ForkSupported();

// Forensics for a child that did not return a clean outcome.
struct CrashSignature {
  int signal = 0;              // fatal signal (0 when the child exited normally)
  std::string signal_name;     // "SIGSEGV", ... (empty when signal == 0)
  int exit_code = -1;          // exit status when the child exited without a signal
  std::string phase;           // last phase marker the child streamed
  std::string last_trap_site;  // signature of the last trap the child armed
  bool timed_out = false;      // the parent's watchdog fired

  // One-line human-readable rendering, stable for a given set of fields.
  std::string Render() const;
};

enum class ChildStatus {
  kOk,             // child exited 0 and delivered a decodable RunOutcome
  kSignaled,       // child died on a signal (SIGSEGV, SIGABRT, ...)
  kTimedOut,       // watchdog SIGKILLed the child at the deadline
  kExited,         // child exited nonzero (e.g. an exception escaped the job)
  kProtocolError,  // child exited 0 but the outcome was missing or corrupt
  kUnsupported,    // no fork() on this platform; caller must run in-process
};
const char* ChildStatusName(ChildStatus status);

struct ForkRun {
  ChildStatus status = ChildStatus::kUnsupported;
  campaign::RunOutcome outcome;  // decoded child outcome; valid only when kOk
  CrashSignature signature;      // populated for every non-kOk status
  std::string error;             // human-readable failure description (non-kOk)
  Micros child_wall_us = 0;      // fork-to-reap wall time as seen by the parent
};

// Runs `fn` in a forked child and blocks until the child exits or the watchdog kills
// it. The child installs fatal-signal handlers, runs `fn`, streams the encoded
// outcome back, and _exit(0)s without running parent-owned destructors. Thrown
// exceptions in `fn` become kExited with the message in `error`. Thread-safe: any
// number of scheduler workers may fork concurrently (interning is locked across the
// fork so a child cannot inherit a mutex held by another worker's thread).
ForkRun RunForked(const std::function<campaign::RunOutcome()>& fn, int timeout_ms);

// Child-side progress markers, streamed to the parent as they happen so forensics
// survive a SIGKILL. No-ops outside a sandbox child (safe to call unconditionally).
void MarkPhase(const std::string& phase);
void MarkTrapSite(const std::string& site_signature);
bool InSandboxChild();

}  // namespace tsvd::sandbox

#endif  // SRC_SANDBOX_SANDBOX_H_
