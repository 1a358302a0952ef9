#include "src/fleet/protocol.h"

namespace tsvd::fleet {

using campaign::CampaignOptions;
using campaign::Json;

Json EncodeCampaignOptions(const CampaignOptions& options) {
  return campaign::EncodeFields(options);
}

bool DecodeCampaignOptions(const Json& doc, CampaignOptions* options,
                           std::string* error) {
  if (!doc.is_object()) {
    *error = "campaign options document is not an object";
    return false;
  }
  CampaignOptions o;
  if (!campaign::DecodeFields(doc, &o, error)) {
    *error = "campaign option " + *error;
    return false;
  }
  *options = std::move(o);
  return true;
}

bool ConstantTimeEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    return false;
  }
  // volatile keeps the compiler from short-circuiting the accumulation once it
  // can prove the result; every byte pair is always inspected.
  volatile unsigned char diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(
        diff | (static_cast<unsigned char>(a[i]) ^
                static_cast<unsigned char>(b[i])));
  }
  return diff == 0;
}

}  // namespace tsvd::fleet
