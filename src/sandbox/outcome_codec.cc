#include "src/sandbox/outcome_codec.h"

#include <utility>

namespace tsvd::sandbox {

using campaign::Json;
using campaign::RunOutcome;
using campaign::RunStatus;

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kCrashed:
      return "crashed";
    case RunStatus::kTimedOut:
      return "timed_out";
    case RunStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool RunStatusFromName(const std::string& name, RunStatus* out) {
  if (name == "ok") {
    *out = RunStatus::kOk;
  } else if (name == "crashed") {
    *out = RunStatus::kCrashed;
  } else if (name == "timed_out") {
    *out = RunStatus::kTimedOut;
  } else if (name == "skipped") {
    *out = RunStatus::kSkipped;
  } else {
    return false;
  }
  return true;
}

Json EncodeRunOutcome(const RunOutcome& outcome) {
  Json j = campaign::EncodeFields(outcome);
  j.Set("codec_version", kRunOutcomeCodecVersion);
  j.Set("status", RunStatusName(outcome.status));
  Json observations = Json::MakeArray();
  for (const campaign::BugObservation& obs : outcome.observations) {
    observations.Push(campaign::EncodeFields(obs));
  }
  j.Set("observations", std::move(observations));
  Json traps = Json::MakeArray();
  for (const auto& [a, b] : outcome.traps.pairs) {
    Json pair = Json::MakeArray();
    pair.Push(a);
    pair.Push(b);
    traps.Push(std::move(pair));
  }
  j.Set("traps", std::move(traps));
  return j;
}

bool DecodeRunOutcome(const Json& doc, RunOutcome* out, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (!doc.is_object()) {
    return fail("encoded run outcome is not a JSON object");
  }
  // Version gate first: a mismatched peer must get the version error, not a
  // confusing field-type error from whatever its format happens to look like.
  // No stamp = version 1, the legacy encoding with identical fields.
  std::string why;
  int64_t version = 1;
  if (!campaign::ReadField(doc, "codec_version", &version, &why)) {
    return fail(why);
  }
  if (version != kRunOutcomeCodecVersion && version != 1) {
    return fail("run outcome codec version " + std::to_string(version) +
                ", this build speaks " + std::to_string(kRunOutcomeCodecVersion) +
                " — coordinator and agent builds must match");
  }
  const auto malformed = [&fail](const std::string& what) {
    return fail("malformed run outcome field " + what);
  };
  *out = RunOutcome{};
  std::string status_name = "ok";
  if (!campaign::DecodeFields(doc, out, &why) ||
      !campaign::ReadField(doc, "status", &status_name, &why)) {
    return malformed(why);
  }
  if (!RunStatusFromName(status_name, &out->status)) {
    return malformed("\"status\"");
  }

  if (const Json* observations = doc.Find("observations"); observations != nullptr) {
    if (!observations->is_array()) {
      return malformed("\"observations\"");
    }
    out->observations.resize(observations->size());
    for (size_t i = 0; i < observations->size(); ++i) {
      if (!campaign::DecodeFields(observations->at(i), &out->observations[i], &why)) {
        return malformed("in observation " + std::to_string(i) + ": " + why);
      }
    }
  }

  if (const Json* traps = doc.Find("traps"); traps != nullptr) {
    if (!traps->is_array()) {
      return malformed("\"traps\"");
    }
    out->traps.pairs.reserve(traps->size());
    for (size_t i = 0; i < traps->size(); ++i) {
      const Json& pair = traps->at(i);
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_string() ||
          !pair.at(1).is_string()) {
        return malformed("\"traps\"");
      }
      out->traps.pairs.emplace_back(pair.at(0).as_string(), pair.at(1).as_string());
    }
    out->traps.Canonicalize();
  }
  return true;
}

}  // namespace tsvd::sandbox
