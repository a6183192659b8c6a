#include "src/core/atomics_traits.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace softtimer {

namespace {

// futex(2) addresses the 32-bit word itself.
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "futex word must be a plain lock-free 32-bit atomic");

uint32_t* FutexAddress(std::atomic<uint32_t>& word) {
  return reinterpret_cast<uint32_t*>(&word);
}

}  // namespace

// SOFTTIMER_BLOCKING: parks the calling thread in the kernel
void StdAtomicsTraits::FutexWait(std::atomic<uint32_t>& word,
                                 uint32_t expected,
                                 std::chrono::nanoseconds timeout) {
  int64_t ns = timeout.count() < 0 ? 0 : timeout.count();
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  // Returns 0 on a wake, or -1 with EAGAIN (word no longer `expected`),
  // ETIMEDOUT or EINTR; every outcome means "recheck", so none is reported.
  syscall(SYS_futex, FutexAddress(word), FUTEX_WAIT_PRIVATE, expected, &ts,
          nullptr, 0);
}

uint32_t StdAtomicsTraits::FutexWake(std::atomic<uint32_t>& word) {
  long woken = syscall(SYS_futex, FutexAddress(word), FUTEX_WAKE_PRIVATE, 1,
                       nullptr, nullptr, 0);
  return woken > 0 ? static_cast<uint32_t>(woken) : 0;
}

}  // namespace softtimer
