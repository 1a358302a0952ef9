#include "src/fleet/chaos_transport.h"

#include <cstdlib>
#include <utility>

#include "src/common/clock.h"
#include "src/common/rng.h"

namespace tsvd::fleet {

namespace {

using campaign::Json;

bool ParseProbability(const std::string& value, double* out) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return false;
  }
  *out = p;
  return true;
}

bool ParseNonNegative(const std::string& value, int64_t* out) {
  char* end = nullptr;
  const long long n = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || n < 0) {
    return false;
  }
  *out = n;
  return true;
}

}  // namespace

bool ChaosSpec::Parse(const std::string& text, ChaosSpec* out,
                      std::string* error) {
  *out = ChaosSpec();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = "chaos spec item \"" + item + "\" is not key=value";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    int64_t n = 0;
    if (key == "seed") {
      if (!ParseNonNegative(value, &n)) {
        *error = "chaos spec: seed must be a non-negative integer, got \"" +
                 value + "\"";
        return false;
      }
      out->seed = static_cast<uint64_t>(n);
    } else if (key == "drop_send" || key == "drop_recv" || key == "dup" ||
               key == "trunc") {
      double p = 0;
      if (!ParseProbability(value, &p)) {
        *error = "chaos spec: " + key + " must be a probability in [0, 1], got \"" +
                 value + "\"";
        return false;
      }
      (key == "drop_send"   ? out->drop_send
       : key == "drop_recv" ? out->drop_recv
       : key == "dup"       ? out->dup
                            : out->trunc) = p;
    } else if (key == "delay_ms") {
      if (!ParseNonNegative(value, &n)) {
        *error = "chaos spec: delay_ms must be a non-negative integer";
        return false;
      }
      out->delay_ms = static_cast<int>(n);
    } else if (key == "partition_after_ms") {
      if (!ParseNonNegative(value, &n)) {
        *error = "chaos spec: partition_after_ms must be a non-negative integer";
        return false;
      }
      out->partition_after_ms = n;
    } else if (key == "partition_ms") {
      if (!ParseNonNegative(value, &n)) {
        *error = "chaos spec: partition_ms must be a non-negative integer";
        return false;
      }
      out->partition_ms = n;
    } else if (key == "partition_every_ms") {
      if (!ParseNonNegative(value, &n)) {
        *error = "chaos spec: partition_every_ms must be a non-negative integer";
        return false;
      }
      out->partition_every_ms = n;
    } else if (key == "partition_dir") {
      if (value == "send") {
        out->partition_dir = PartitionDir::kSend;
      } else if (value == "recv") {
        out->partition_dir = PartitionDir::kRecv;
      } else if (value == "both") {
        out->partition_dir = PartitionDir::kBoth;
      } else {
        *error = "chaos spec: partition_dir must be send|recv|both, got \"" +
                 value + "\"";
        return false;
      }
    } else {
      *error = "chaos spec: unknown key \"" + key + "\"";
      return false;
    }
  }
  return true;
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

bool ChaosClient::Flip(double probability) {
  if (probability <= 0.0) {
    NextRandom();  // keep the draw sequence fixed regardless of the spec
    return false;
  }
  return static_cast<double>(NextRandom() >> 11) * 0x1.0p-53 < probability;
}

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
  const bool truncate = Flip(spec_.trunc);
  const bool drop_send = Flip(spec_.drop_send);
  const bool duplicate = Flip(spec_.dup);
  const uint64_t recv_delay_draw = NextRandom();
  const bool drop_recv = Flip(spec_.drop_recv);

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
