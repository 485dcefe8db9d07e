#include "fdb/retry.h"

namespace quick::fdb::internal {

Counter* RetriesCounter() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter(kRetryCounterName);
  return counter;
}

Counter* RetriesExhaustedCounter() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter(kRetryExhaustedCounterName);
  return counter;
}

}  // namespace quick::fdb::internal
