// fixture-path: src/obs/clock_ok.cc
// fixture-rules: determinism
//
// The observability layer is sanctioned for raw clocks: exporter timestamps
// are not replica-visible state. It is not sanctioned for stdlib RNGs.

#include <chrono>
#include <random>

namespace txrep::obs {

long ExportStamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

unsigned SampleJitter() {
  std::minstd_rand gen(7);  // expect: det-nondet-rand
  return gen();
}

}  // namespace txrep::obs
