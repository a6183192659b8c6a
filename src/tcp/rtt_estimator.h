// RFC 6298 round-trip estimator in integer units (ticks or nanoseconds),
// shared by TcpSender and RtoEngine.
//
// The first sample seeds SRTT = R and RTTVAR = R/2; each later one folds in
// with alpha = 1/8, beta = 1/4, in unsigned arithmetic:
//
//   RTTVAR = (3*RTTVAR + |SRTT - R|) / 4
//   SRTT   = (7*SRTT + R) / 8
//
// The returned RTO is SRTT + max(4*RTTVAR, 1), before the caller's
// [min, max] clamp: RFC 6298's "G" (clock granularity) term, taken as one
// unit, keeps the RTO above SRTT once the variance has decayed to zero.

#ifndef SOFTTIMER_SRC_TCP_RTT_ESTIMATOR_H_
#define SOFTTIMER_SRC_TCP_RTT_ESTIMATOR_H_

#include <algorithm>
#include <cstdint>

namespace softtimer {

struct RttEstimate {
  uint64_t srtt = 0;
  uint64_t rttvar = 0;
};

// Folds `sample` into `est` (`first` = no earlier sample) and returns the
// unclamped RTO.
inline uint64_t RttSample(RttEstimate& est, bool first, uint64_t sample) {
  if (first) {
    est.srtt = sample;
    est.rttvar = sample / 2;
  } else {
    uint64_t diff = est.srtt > sample ? est.srtt - sample : sample - est.srtt;
    est.rttvar = (3 * est.rttvar + diff) / 4;
    est.srtt = (7 * est.srtt + sample) / 8;
  }
  return est.srtt + std::max<uint64_t>(4 * est.rttvar, 1);
}

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TCP_RTT_ESTIMATOR_H_
