// gtest parameter names for suites run over kAllTimerQueueKinds. The names
// are part of each test's ID, so each suite keeps the scheme it was
// introduced with:
//   KindTestName     -> "Heap", "HashedWheel", "CalloutList", "GroupedSorting"
//   KindSlugTestName -> TimerQueueKindName with the '-' stripped
//                       ("hashed-wheel" -> "hashedwheel"), since gtest names
//                       allow only letters, digits and '_'.

#ifndef SOFTTIMER_TESTS_TIMER_QUEUE_KIND_NAME_H_
#define SOFTTIMER_TESTS_TIMER_QUEUE_KIND_NAME_H_

#include <gtest/gtest.h>

#include <string>

#include "src/timer/timer_queue.h"

namespace softtimer {

inline std::string KindTestName(const ::testing::TestParamInfo<TimerQueueKind>& info) {
  switch (info.param) {
    case TimerQueueKind::kHeap:
      return "Heap";
    case TimerQueueKind::kHashedWheel:
      return "HashedWheel";
    case TimerQueueKind::kCalloutList:
      return "CalloutList";
    case TimerQueueKind::kGroupedSorting:
      return "GroupedSorting";
  }
  return "Unknown";
}

inline std::string KindSlugTestName(const ::testing::TestParamInfo<TimerQueueKind>& info) {
  std::string name = TimerQueueKindName(info.param);
  std::erase(name, '-');
  return name;
}

}  // namespace softtimer

#endif  // SOFTTIMER_TESTS_TIMER_QUEUE_KIND_NAME_H_
