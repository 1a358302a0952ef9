#include "src/fleet/chaos_transport.h"

#include <utility>

#include "src/common/clock.h"
#include "src/common/kv_spec.h"
#include "src/common/rng.h"

namespace tsvd::fleet {

using campaign::Json;

bool ChaosSpec::Parse(const std::string& text, ChaosSpec* out,
                      std::string* error) {
  *out = ChaosSpec();
  return ParseKeyValueSpec(
      text, "chaos spec", error,
      [out](const std::string& key, const std::string& value) -> std::string {
        int64_t n = 0;
        if (key == "seed") {
          if (!ParseNonNegative(value, &n)) {
            return "seed must be a non-negative integer, got \"" + value + "\"";
          }
          out->seed = static_cast<uint64_t>(n);
        } else if (key == "drop_send" || key == "drop_recv" || key == "dup" ||
                   key == "trunc") {
          double p = 0;
          if (!ParseProbability(value, &p)) {
            return key + " must be a probability in [0, 1], got \"" + value + "\"";
          }
          (key == "drop_send"   ? out->drop_send
           : key == "drop_recv" ? out->drop_recv
           : key == "dup"       ? out->dup
                                : out->trunc) = p;
        } else if (key == "delay_ms" || key == "partition_after_ms" ||
                   key == "partition_ms" || key == "partition_every_ms") {
          if (!ParseNonNegative(value, &n)) {
            return key + " must be a non-negative integer";
          }
          if (key == "delay_ms") {
            out->delay_ms = static_cast<int>(n);
          } else {
            (key == "partition_after_ms" ? out->partition_after_ms
             : key == "partition_ms"     ? out->partition_ms
                                         : out->partition_every_ms) = n;
          }
        } else if (key == "partition_dir") {
          if (value == "send") {
            out->partition_dir = PartitionDir::kSend;
          } else if (value == "recv") {
            out->partition_dir = PartitionDir::kRecv;
          } else if (value == "both") {
            out->partition_dir = PartitionDir::kBoth;
          } else {
            return "partition_dir must be send|recv|both, got \"" + value + "\"";
          }
        } else {
          return "unknown key \"" + key + "\"";
        }
        return "";
      });
}

ChaosClient::ChaosClient(std::unique_ptr<TransportClient> inner, ChaosSpec spec,
                         uint64_t seed_salt)
    : inner_(std::move(inner)),
      spec_(spec),
      rng_state_(spec.seed ^ (seed_salt * 0x9e3779b97f4a7c15ull)) {}

void ChaosClient::set_connect_timeout_ms(int ms) {
  inner_->set_connect_timeout_ms(ms);
}

ChaosStats ChaosClient::stats() const { return stats_; }

uint64_t ChaosClient::NextRandom() { return SplitMix64(&rng_state_); }

bool ChaosClient::InPartition(PartitionDir direction) const {
  if (spec_.partition_after_ms < 0 || spec_.partition_ms <= 0) {
    return false;
  }
  if (direction != spec_.partition_dir &&
      spec_.partition_dir != PartitionDir::kBoth) {
    return false;
  }
  const int64_t elapsed_ms = (NowMicros() - epoch_us_) / 1000;
  if (elapsed_ms < spec_.partition_after_ms) {
    return false;
  }
  const int64_t since_onset = elapsed_ms - spec_.partition_after_ms;
  if (spec_.partition_every_ms > 0) {
    return since_onset % spec_.partition_every_ms < spec_.partition_ms;
  }
  return since_onset < spec_.partition_ms;
}

bool ChaosClient::Call(const Json& request, Json* response, std::string* error) {
  if (epoch_us_ == 0) {
    epoch_us_ = NowMicros();
  }
  ++stats_.calls;

  // Draw every fault decision up front, in a fixed order, so the schedule is a
  // pure function of (seed, call index) — outcomes of earlier faults cannot
  // shift later draws.
  const uint64_t send_delay_draw = NextRandom();
  const bool truncate = FlipDraw(NextRandom(), spec_.trunc);
  const bool drop_send = FlipDraw(NextRandom(), spec_.drop_send);
  const bool duplicate = FlipDraw(NextRandom(), spec_.dup);
  const uint64_t recv_delay_draw = NextRandom();
  const bool drop_recv = FlipDraw(NextRandom(), spec_.drop_recv);

  if (spec_.delay_ms > 0) {
    ++stats_.delayed;
    SleepMicros(static_cast<Micros>(
        send_delay_draw % (static_cast<uint64_t>(spec_.delay_ms) * 1000 + 1)));
  }
  if (InPartition(PartitionDir::kSend)) {
    ++stats_.partitioned;
    *error = "chaos: network partition (send direction)";
    return false;
  }
  if (truncate) {
    ++stats_.truncated;
    *error = "chaos: request frame truncated in flight";
    return false;
  }
  if (drop_send) {
    ++stats_.dropped_send;
    *error = "chaos: request dropped";
    return false;
  }

  Json first_response;
  std::string inner_error;
  bool ok = inner_->Call(request, &first_response, &inner_error);
  if (duplicate) {
    // The duplicated copy really reaches the server — both deliveries execute
    // the handler, which is what exercises receiver-side request dedup. The
    // caller only ever sees one response.
    ++stats_.duplicated;
    Json second_response;
    std::string second_error;
    const bool second_ok =
        inner_->Call(request, &second_response, &second_error);
    if (!ok && second_ok) {
      first_response = std::move(second_response);
      ok = true;
    }
  }
  if (!ok) {
    *error = inner_error;
    return false;
  }

  if (spec_.delay_ms > 0) {
    SleepMicros(static_cast<Micros>(
        recv_delay_draw % (static_cast<uint64_t>(spec_.delay_ms) * 1000 + 1)));
  }
  if (InPartition(PartitionDir::kRecv)) {
    ++stats_.partitioned;
    *error = "chaos: network partition (recv direction, response lost)";
    return false;
  }
  if (drop_recv) {
    ++stats_.dropped_recv;
    *error = "chaos: response dropped (request was delivered)";
    return false;
  }
  *response = std::move(first_response);
  return true;
}

std::unique_ptr<TransportClient> WrapWithChaos(
    std::unique_ptr<TransportClient> inner, const std::string& spec_text,
    uint64_t seed_salt, std::string* error) {
  if (spec_text.empty()) {
    return inner;
  }
  ChaosSpec spec;
  if (!ChaosSpec::Parse(spec_text, &spec, error)) {
    return nullptr;
  }
  return std::make_unique<ChaosClient>(std::move(inner), spec, seed_salt);
}

}  // namespace tsvd::fleet
