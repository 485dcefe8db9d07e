#ifndef QUICK_QUICK_ADMISSION_GATE_H_
#define QUICK_QUICK_ADMISSION_GATE_H_

#include <cstdint>
#include <string>

#include "cloudkit/database_id.h"
#include "common/status.h"

namespace quick::core {

/// Outcome of one admission check. `level` names the hierarchy level that
/// refused ("tenant", "app", "cluster") for metrics/trace detail; it is a
/// static string owned by the gate.
struct AdmissionDecision {
  enum class Outcome {
    kAdmit,     // proceed
    kThrottle,  // refuse now, retry after retry_after_millis
    kShed,      // refuse outright; the tenant is far over fair share
  };

  Outcome outcome = Outcome::kAdmit;
  int64_t retry_after_millis = 0;
  const char* level = "";

  bool admitted() const { return outcome == Outcome::kAdmit; }
};

/// Admission interface the quick layer calls; implemented by
/// control::AdmissionController. Decoupled so quick_core does not depend
/// on the control plane — a Quick without a gate admits everything.
///
/// Implementations must be thread-safe: enqueue paths and every consumer
/// dispatch worker consult the gate concurrently.
class AdmissionGate {
 public:
  virtual ~AdmissionGate() = default;

  /// Producer-side check on every tenant enqueue (`cost` = items).
  virtual AdmissionDecision AdmitEnqueue(const ck::DatabaseId& db_id,
                                         const std::string& cluster,
                                         int64_t cost) = 0;

  /// Consumer-side check before dispatching a dequeued item to a worker.
  virtual AdmissionDecision AdmitDispatch(const ck::DatabaseId& db_id,
                                          const std::string& cluster,
                                          int64_t cost) = 0;
};

/// Maps a refusal to the client-visible Status. The retry-after hint rides
/// in the message ("retry_after_ms=N") so it survives Status's code+message
/// shape; RetryAfterMillis() parses it back.
inline Status ThrottledStatus(const AdmissionDecision& d) {
  const std::string detail = std::string("level=") + d.level +
                             " retry_after_ms=" +
                             std::to_string(d.retry_after_millis);
  if (d.outcome == AdmissionDecision::Outcome::kShed) {
    return Status::ResourceExhausted("admission shed: " + detail);
  }
  return Status::Throttled("admission throttled: " + detail);
}

/// Retry-after hint carried by a kThrottled/kResourceExhausted status, or
/// -1 when absent.
inline int64_t RetryAfterMillis(const Status& st) {
  static constexpr const char* kTag = "retry_after_ms=";
  const std::string& m = st.message();
  const size_t pos = m.find(kTag);
  if (pos == std::string::npos) return -1;
  int64_t value = 0;
  bool any = false;
  for (size_t i = pos + std::string(kTag).size(); i < m.size(); ++i) {
    const char c = m[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + (c - '0');
    any = true;
  }
  return any ? value : -1;
}

}  // namespace quick::core

#endif  // QUICK_QUICK_ADMISSION_GATE_H_
