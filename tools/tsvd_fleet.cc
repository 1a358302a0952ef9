// tsvd_fleet: distributed campaign runner — a coordinator plus N agent processes
// on one machine, the single-box form of the paper's cluster-wide deployment
// (Sections 2.1, 5.1). The coordinator owns the trap store, the crash-consistent
// journal, and the bug ledger; agents lease (module, round) jobs over the
// abstracted transport, execute them with the full sandbox/retry ladder, and
// publish outcomes. Expired leases are stolen, so a SIGKILLed agent costs only
// latency — the fleet converges to the exact unique-bug set the single-process
// `tsvd_campaign` reports for the same seed. See DESIGN.md §13.
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/fleet/agent.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/transport.h"
#include "src/sandbox/sandbox.h"
#include "tools/campaign_cli.h"
#include "tools/flag_parser.h"

namespace {

constexpr const char kUsage[] =
    R"(tsvd_fleet: run a distributed TSVD campaign (coordinator + agent processes).

Usage: tsvd_fleet [--flag=value ...]          # coordinator, spawns --agents=N agents
       tsvd_fleet --agent --connect=ADDR ...  # one agent (normally spawned above)

 coordinator:
  --agents=N       agent processes to spawn (default 4; 0 = external agents only)
  --address=ADDR   transport endpoint: uds:<socket-path> |
                   tcp:<host>:<port>[?backlog=N] (default "uds:<out>/fleet.sock";
                   tcp port 0 picks a free port and tells the spawned agents)
  --transport=ADDR alias for --address (and for --connect in agent mode)
  --lease_timeout_ms=N  steal a leased job if unpublished after N ms (default 30000)
  --heartbeat_timeout_ms=N  evict an agent silent for N ms: its leases become
                   stealable immediately and it is told to exit (default 0 = off)
  --heartbeat_ms=N agent heartbeat cadence, forwarded to spawned agents
                   (default 1000; 0 = no heartbeat thread)
  --chaos=SPEC     inject deterministic network faults on every agent link,
                   e.g. "seed=7,drop_send=0.1,drop_recv=0.1,dup=0.2,delay_ms=5"
                   (see DESIGN.md S14 for all keys)
  --auth_token=S   shared-secret check: any request without a matching token is
                   answered with a framed error and counted (constant-time
                   compare; forwarded to spawned agents). Use on tcp: listeners
                   shared beyond one trust domain.
  --out=DIR        artifact directory, as tsvd_campaign: traps.tsvd, campaign.json,
                   campaign.sarif, journal.tsvdj (default "fleet-out")
  --resume         continue a dead fleet (or tsvd_campaign) journal in --out
  SIGINT/SIGTERM   graceful drain: in-flight runs publish, agents exit, journal and
                   partial reports are flushed; rerun with --resume

 campaign shape (same meaning as tsvd_campaign):
  --rounds=N --modules=N --detector=NAME --scale=F --seed=N --no-converge
  --max_attempts=N --journal_snapshot_every=N
  --sandbox --run_timeout_ms=N --backoff_ms=N
  --fault-crash=N --fault-hang=N --fault-throw=N --fault-deadlock=N
  --delay_ms=N --stall_grace_ms=N --max_overhead_pct=F --max_internal_errors=N

 agent mode:
  --agent          run as an agent instead of a coordinator
  --connect=ADDR   coordinator's transport address (required)
  --agent-name=S   name reported to the coordinator (default "agent-<pid>")
  --agent-dir=DIR  scratch dir for the local journal + sandbox checkpoints
                   (default: a fresh directory under the system temp dir)
  --hello_timeout_ms=N  how long to try reaching the coordinator (default 15000)
  --rpc_retry_ms=N retry budget per exchange before giving the coordinator up
                   for dead (default 30000)
  --heartbeat_ms=N liveness heartbeat cadence (default 0 = none)
  --chaos=SPEC --chaos_salt=N  fault injection on this agent's links
  --auth_token=S   shared secret presented on every request (must match the
                   coordinator's --auth_token)

 exit codes (agent mode):
  0  campaign finished (or clean interrupt)
  1  protocol/setup error (version mismatch, bad auth token, refused join)
  2  usage error
  3  coordinator unreachable: never reached within --hello_timeout_ms, or lost
     mid-campaign past --rpc_retry_ms
  4  evicted by the coordinator for missed heartbeats

 exit codes (coordinator mode): 0 success (including a graceful signal drain),
  2 usage or fatal error, 5 disk-full drain (ENOSPC on a durable write; journal
  consistent, rerun with --resume once space is freed)

  --help           this text

The fleet and the single-process tsvd_campaign report the same unique-bug set for
identical campaign flags and seed; agent deaths mid-round — and, under --chaos,
dropped/duplicated/delayed messages and healed partitions — do not change it.
)";

int RunAgentMode(tsvd::tools::FlagParser& flags) {
  tsvd::fleet::AgentOptions options;
  options.address = flags.GetString("connect", "");
  if (options.address.empty()) {
    options.address = flags.GetString("transport", "");
  }
  options.name = flags.GetString(
      "agent-name", "agent-" + std::to_string(static_cast<uint64_t>(::getpid())));
  options.work_dir = flags.GetString("agent-dir", "");
  options.hello_timeout_ms =
      static_cast<int>(flags.GetInt("hello_timeout_ms", 15000, 100, 600000));
  options.rpc_retry_ms =
      static_cast<int>(flags.GetInt("rpc_retry_ms", 30000, 100, 3600000));
  options.heartbeat_ms =
      static_cast<int>(flags.GetInt("heartbeat_ms", 0, 0, 600000));
  options.chaos = flags.GetString("chaos", "");
  options.chaos_salt = static_cast<uint64_t>(
      flags.GetInt("chaos_salt", 0, 0, std::numeric_limits<int64_t>::max()));
  options.auth_token = flags.GetString("auth_token", "");
  flags.RejectUnknown();
  if (!flags.ok() || options.address.empty()) {
    std::fprintf(stderr, "tsvd_fleet --agent: %s\nTry --help.\n",
                 flags.ok() ? "--connect=ADDR is required" : flags.error().c_str());
    return 2;
  }
  options.interrupt = tsvd::tools::StopRequested;
  const tsvd::fleet::AgentResult result = tsvd::fleet::RunAgent(options);
  if (!result.ok) {
    // Distinct, documented exit codes (see kUsage): orchestrators restart an
    // unreachable agent elsewhere, but treat eviction or a protocol error as
    // something a retry will not fix.
    const char* verdict = "error";
    int code = 1;
    if (result.status == tsvd::fleet::AgentStatus::kUnreachable) {
      verdict = "coordinator unreachable";
      code = 3;
    } else if (result.status == tsvd::fleet::AgentStatus::kEvicted) {
      verdict = "evicted";
      code = 4;
    }
    std::fprintf(stderr, "tsvd_fleet agent %s: %s: %s\n", options.name.c_str(),
                 verdict, result.error.c_str());
    return code;
  }
  std::fprintf(stderr,
               "tsvd_fleet agent %s: %llu run(s), %llu duplicate(s), "
               "%llu rpc retr%s\n",
               options.name.c_str(), static_cast<unsigned long long>(result.runs),
               static_cast<unsigned long long>(result.duplicates),
               static_cast<unsigned long long>(result.rpc_retries),
               result.rpc_retries == 1 ? "y" : "ies");
  return 0;
}

// Spawns one agent process: this binary re-executed with --agent flags. The child
// is exec'd (not just forked) so it starts single-threaded with clean state.
pid_t SpawnAgent(const std::string& self, const std::string& address,
                 const std::string& name, const std::string& work_dir,
                 const std::vector<std::string>& extra_flags) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<std::string> args = {self, "--agent", "--connect=" + address,
                                   "--agent-name=" + name,
                                   "--agent-dir=" + work_dir};
  args.insert(args.end(), extra_flags.begin(), extra_flags.end());
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  argv.push_back(nullptr);
  ::execv(self.c_str(), const_cast<char**>(argv.data()));
  std::fprintf(stderr, "tsvd_fleet: execv %s: %s\n", self.c_str(),
               std::strerror(errno));
  ::_exit(127);
}

// "tcp:<host>:0" asks the kernel for any free port — fine for the listener,
// useless for the agents we are about to spawn, which need a concrete endpoint
// to connect to. Resolve the ephemeral port up front (bind, getsockname, close)
// and rewrite the address; the coordinator re-binds the same port moments later
// (SO_REUSEADDR covers the just-released socket). Non-tcp addresses and
// explicit ports pass through untouched.
std::string ResolveEphemeralTcpPort(const std::string& address) {
  if (address.rfind("tcp:", 0) != 0) {
    return address;
  }
  std::string hostport = address.substr(4);
  std::string query;
  const size_t question = hostport.find('?');
  if (question != std::string::npos) {
    query = hostport.substr(question);
    hostport.resize(question);
  }
  const size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || hostport.substr(colon + 1) != "0") {
    return address;  // malformed or explicit port: the transport layer decides
  }
  std::string host = hostport.substr(0, colon);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    host = host.substr(1, host.size() - 2);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* found = nullptr;
  if (getaddrinfo(host.empty() ? nullptr : host.c_str(), "0", &hints, &found) !=
          0 ||
      found == nullptr) {
    return address;  // let the server factory report the resolution error
  }
  int port = 0;
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    ::close(fd);
    if (port > 0) {
      break;
    }
  }
  freeaddrinfo(found);
  if (port <= 0) {
    return address;
  }
  return "tcp:" + hostport.substr(0, colon) + ":" + std::to_string(port) +
         query;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsvd;

  tools::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  tools::InstallStopHandlers();
  if (flags.GetBool("agent", false)) {
    return RunAgentMode(flags);
  }

  fleet::FleetOptions options;
  options.campaign = tools::ParseCampaignFlags(flags, "fleet-out");
  const int agents = static_cast<int>(flags.GetInt("agents", 4, 0, 256));
  options.campaign.workers = agents;
  options.lease_timeout_ms =
      static_cast<int>(flags.GetInt("lease_timeout_ms", 30000, 100, 3600000));
  options.agent_idle_timeout_ms =
      static_cast<int>(flags.GetInt("agent_idle_timeout_ms", 120000, 0, 3600000));
  options.heartbeat_timeout_ms =
      static_cast<int>(flags.GetInt("heartbeat_timeout_ms", 0, 0, 3600000));
  const int heartbeat_ms =
      static_cast<int>(flags.GetInt("heartbeat_ms", 1000, 0, 600000));
  const std::string chaos = flags.GetString("chaos", "");
  options.auth_token = flags.GetString("auth_token", "");
  std::string address = flags.GetString("address", "");
  if (address.empty()) {
    address = flags.GetString("transport", "");
  }
  flags.RejectUnknown();
  if (!flags.ok()) {
    std::fprintf(stderr, "tsvd_fleet: %s\nTry --help.\n", flags.error().c_str());
    return 2;
  }
  if (options.campaign.out_dir.empty()) {
    std::fprintf(stderr, "tsvd_fleet: --out=DIR is required\nTry --help.\n");
    return 2;
  }
  if (address.empty()) {
    address = "uds:" + options.campaign.out_dir + "/fleet.sock";
  }
  address = ResolveEphemeralTcpPort(address);
  std::string address_error;
  if (fleet::MakeTransportServer(address, &address_error) == nullptr) {
    std::fprintf(stderr, "tsvd_fleet: --address: %s\nTry --help.\n",
                 address_error.c_str());
    return 2;
  }
  options.address = address;
  std::filesystem::create_directories(options.campaign.out_dir);

  std::printf(
      "tsvd_fleet: %s, %d modules, %d agent(s), up to %d round(s), scale %.3f, "
      "seed %llu, %s%s%s\n",
      options.campaign.detector.c_str(), options.campaign.num_modules, agents,
      options.campaign.rounds, options.campaign.scale,
      static_cast<unsigned long long>(options.campaign.seed), address.c_str(),
      options.campaign.sandbox.enabled && sandbox::ForkSupported() ? ", sandboxed"
                                                                   : "",
      options.campaign.resume ? ", resuming" : "");

  // Spawn the local agents before the coordinator starts serving; their hello
  // retries until the endpoint is up. PIDs are printed one per line so harnesses
  // (CI's kill-an-agent smoke) can target them.
  std::string self = "/proc/self/exe";
  if (!std::filesystem::exists(self)) {
    self = argv[0];
  }
  std::vector<pid_t> agent_pids;
  for (int i = 0; i < agents; ++i) {
    const std::string name = "agent-" + std::to_string(i);
    const std::string work_dir =
        options.campaign.out_dir + "/agents/" + name;
    std::vector<std::string> extra_flags;
    if (heartbeat_ms > 0) {
      extra_flags.push_back("--heartbeat_ms=" + std::to_string(heartbeat_ms));
    }
    if (!chaos.empty()) {
      // One spec, distinct per-agent salt: every agent draws its own
      // deterministic fault schedule from the shared seed.
      extra_flags.push_back("--chaos=" + chaos);
      extra_flags.push_back("--chaos_salt=" + std::to_string(i + 1));
    }
    if (!options.auth_token.empty()) {
      extra_flags.push_back("--auth_token=" + options.auth_token);
    }
    const pid_t pid = SpawnAgent(self, address, name, work_dir, extra_flags);
    if (pid < 0) {
      std::fprintf(stderr, "tsvd_fleet: fork: %s\n", std::strerror(errno));
      return 2;
    }
    agent_pids.push_back(pid);
    std::printf("agent-pid: %d %s\n", static_cast<int>(pid), name.c_str());
  }
  std::fflush(stdout);

  fleet::FleetCoordinator coordinator(options);
  const campaign::CampaignResult result = coordinator.Run();

  // Agents observe "done" on their next lease and exit; reap them before tearing
  // the transport down.
  for (const pid_t pid : agent_pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  coordinator.Shutdown();

  const fleet::FleetStats fstats = coordinator.stats();
  return tools::ReportCampaign("tsvd_fleet", result, [&] {
    std::printf(
        "fleet: %llu agent join(s), %llu lease(s), %llu stolen, %llu duplicate "
        "result(s), %llu replayed request(s), %llu eviction(s), %llu request(s) "
        "rejected by auth\n",
        static_cast<unsigned long long>(fstats.agents_joined),
        static_cast<unsigned long long>(fstats.leases_granted),
        static_cast<unsigned long long>(fstats.leases_stolen),
        static_cast<unsigned long long>(fstats.duplicate_results),
        static_cast<unsigned long long>(fstats.duplicate_requests),
        static_cast<unsigned long long>(fstats.agents_evicted),
        static_cast<unsigned long long>(fstats.requests_rejected_auth));
  });
}
